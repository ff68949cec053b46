/**
 * @file
 * End-to-end pipeline smoke test: the fastest possible exercise of the
 * whole McVerSi stack (GP test generation -> workload -> simulator ->
 * witness recording -> axiomatic checker), in both polarities:
 *
 *  - a short GA campaign on the clean MESI system must report no
 *    violation (no false positives), while actually running tests and
 *    accumulating coverage;
 *  - the same campaign on a bug-injected system must manifest the bug
 *    and have the checker flag it.
 *
 * Deliberately small budgets: this is the first test to run after a
 * build to tell "the pipeline works" from "the pipeline is broken",
 * in seconds. Deeper coverage lives in test_clean_system.cc and
 * test_bug_manifestation.cc.
 */

#include <gtest/gtest.h>

#include "host/harness.hh"
#include "sim/bugs.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

/** One small, fast GA campaign; returns the harness result. */
HarnessResult
runCampaign(sim::BugId bug, std::uint64_t max_runs)
{
    VerificationHarness::Params params;
    params.system.protocol = sim::Protocol::Mesi;
    params.system.bug = bug;
    params.system.seed = 20260728;
    params.gen.testSize = 128;
    params.gen.iterations = 4;
    params.gen.memSize = 1024;
    params.workload.iterations = params.gen.iterations;

    gp::GaParams ga;
    ga.population = 16;
    GaSource source(ga, params.gen, 11,
                    gp::XoMode::Selective);
    VerificationHarness harness(params, source);

    Budget budget;
    budget.maxTestRuns = max_runs;
    return harness.run(budget);
}

} // namespace

TEST(PipelineSmoke, CleanMesiSystemReportsNoViolation)
{
    const HarnessResult result = runCampaign(sim::BugId::None, 60);

    EXPECT_FALSE(result.bugFound)
        << "false positive on the clean system: " << result.detail;
    EXPECT_EQ(result.testRuns, 60u);
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_GT(result.eventsExecuted, 0u);
    EXPECT_GT(result.totalCoverage, 0.0);
    // The GA evaluated every test-run it generated.
    EXPECT_EQ(result.ndtHistory.size(), 60u);
}

TEST(PipelineSmoke, InjectedBugManifestsAndIsFlagged)
{
    // SQ+no-FIFO (store queue drains out of order) races early and
    // often, making it the cheapest bug to smoke out.
    const HarnessResult result =
        runCampaign(sim::BugId::SqNoFifo, 1500);

    EXPECT_TRUE(result.bugFound)
        << "injected bug not detected in " << result.testRuns
        << " test-runs";
    EXPECT_FALSE(result.detail.empty());
    EXPECT_GE(result.testRunsToBug, 1u);
    EXPECT_LE(result.testRunsToBug, result.testRuns);
}
