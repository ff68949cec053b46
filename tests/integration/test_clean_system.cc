/**
 * @file
 * Integration: the un-bugged implementations must never violate TSO.
 * Any failure here is a bug in the substrate (protocols, LSQ, network)
 * or the checker -- exactly the false positives a verification
 * framework must not produce.
 */

#include <gtest/gtest.h>

#include "host/harness.hh"
#include "litmus/runner.hh"
#include "litmus/suites.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

struct CleanCase
{
    sim::Protocol protocol;
    Addr memSize;
    std::uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<CleanCase> &info)
{
    std::string name =
        info.param.protocol == sim::Protocol::Mesi ? "Mesi" : "Tsocc";
    name += info.param.memSize >= 8192 ? "8KB" : "1KB";
    name += "s" + std::to_string(info.param.seed);
    return name;
}

class CleanSystem : public testing::TestWithParam<CleanCase>
{
};

} // namespace

TEST_P(CleanSystem, NoViolationUnderGaFuzzing)
{
    const CleanCase &cc = GetParam();
    VerificationHarness::Params params;
    params.system.protocol = cc.protocol;
    params.system.seed = cc.seed;
    params.gen.testSize = 192;
    params.gen.iterations = 4;
    params.gen.memSize = cc.memSize;
    params.workload.iterations = 4;

    gp::GaParams ga;
    ga.population = 30;
    GaSource source(ga, params.gen, cc.seed,
                    gp::XoMode::Selective);
    VerificationHarness harness(params, source);

    Budget budget;
    budget.maxTestRuns = 250;
    budget.maxWallSeconds = 180.0;
    HarnessResult result = harness.run(budget);
    EXPECT_FALSE(result.bugFound)
        << "false positive on the correct system: " << result.detail;
    EXPECT_GT(result.totalCoverage, 0.3);
}

// Static storage zero-fills the padding after `protocol`, which gtest
// prints into the test name (stack-built cases made names vary).
constexpr CleanCase kCleanCases[] = {
    {sim::Protocol::Mesi, 8192, 1},
    {sim::Protocol::Mesi, 1024, 2},
    {sim::Protocol::Tsocc, 8192, 3},
    {sim::Protocol::Tsocc, 1024, 4},
};

INSTANTIATE_TEST_SUITE_P(Protocols, CleanSystem,
                         testing::ValuesIn(kCleanCases), caseName);

TEST(CleanSystemLitmus, SuitePassesOnBothProtocols)
{
    for (const sim::Protocol protocol :
         {sim::Protocol::Mesi, sim::Protocol::Tsocc}) {
        litmus::LitmusRunner::Params params;
        params.system.protocol = protocol;
        params.system.seed = 9;
        params.iterationsPerRun = 10;
        litmus::LitmusRunner runner(params, litmus::x86TsoSuite());
        Budget budget;
        budget.maxTestRuns = 38;
        HarnessResult result = runner.run(budget);
        EXPECT_FALSE(result.bugFound)
            << "litmus false positive: " << result.detail;
    }
}

TEST(CleanSystemDeterminism, SameSeedSameOutcome)
{
    auto run_once = [](std::uint64_t seed) {
        VerificationHarness::Params params;
        params.system.seed = seed;
        params.gen.testSize = 64;
        params.gen.iterations = 2;
        params.gen.memSize = 1024;
        params.workload.iterations = 2;
        RandomSource source(params.gen, seed);
        VerificationHarness harness(params, source);
        Budget budget;
        budget.maxTestRuns = 10;
        HarnessResult r = harness.run(budget);
        return std::make_tuple(r.simTicks, r.eventsExecuted,
                               r.testRuns);
    };
    EXPECT_EQ(run_once(42), run_once(42))
        << "simulation must be reproducible given a seed";
}
