/**
 * @file
 * Seed -> witness byte-identity golden.
 *
 * Runs fixed RandomSource campaigns on both protocols and canonically
 * serializes everything the simulation kernel determines: the final
 * execution witness (events, rf, co), the exact number of kernel
 * events processed, simulated ticks, and messages sent. The dump is
 * compared byte-for-byte against a checked-in golden.
 *
 * This is the proof obligation for DES-kernel refactors (typed event
 * records, time-wheel scheduling, pooled messages): any change to
 * event ordering, RNG draw order, or message delivery shows up as a
 * byte diff here. The 1 KiB scenarios were generated with the
 * pre-time-wheel binary-heap kernel and must stay byte-identical under
 * any performance-only rework of the scheduler. The 8 KiB scenarios
 * were re-baselined once, on purpose, when L2 requests stalled for a
 * way switched from 16-tick polling to stall-and-wake.
 *
 * Regenerate (only after a deliberate behavioral change) with:
 *   MCVERSI_UPDATE_GOLDEN=1 ./mcversi_integration_test_witness_identity
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "host/harness.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

struct Scenario
{
    const char *name;
    sim::Protocol protocol;
    std::uint64_t systemSeed;
    std::uint64_t sourceSeed;
    std::uint64_t testRuns;
    int testSize;
    std::uint64_t memSize;
};

// The 1 KiB scenarios never fill an L2 set. With 8 KiB of test memory
// (16 blocks 1 MiB apart) each 4-way L2 set holds 16 candidate lines,
// so the *-8k scenarios pin the path where a request finds its set full
// of transient lines and must wait for a victim.
constexpr Scenario kScenarios[] = {
    {"mesi-a", sim::Protocol::Mesi, 101, 11, 4, 96, 1024},
    {"mesi-b", sim::Protocol::Mesi, 202, 22, 4, 96, 1024},
    {"tsocc-a", sim::Protocol::Tsocc, 303, 33, 4, 96, 1024},
    {"mesi-8k", sim::Protocol::Mesi, 404, 44, 4, 256, 8192},
    {"tsocc-8k", sim::Protocol::Tsocc, 505, 55, 4, 256, 8192},
};

void
appendU64(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, v);
    out += buf;
}

/** Canonical text dump of one scenario's end state. */
std::string
dumpScenario(const Scenario &sc)
{
    VerificationHarness::Params params;
    params.system.protocol = sc.protocol;
    params.system.seed = sc.systemSeed;
    params.gen.testSize = sc.testSize;
    params.gen.iterations = 4;
    params.gen.memSize = sc.memSize;
    params.workload.iterations = params.gen.iterations;

    RandomSource source(params.gen, sc.sourceSeed);
    VerificationHarness harness(params, source);

    Budget budget;
    budget.maxTestRuns = sc.testRuns;
    const HarnessResult result = harness.run(budget);

    std::string out;
    out += "scenario ";
    out += sc.name;
    out += "\n";
    out += "run";
    appendU64(out, "testRuns", result.testRuns);
    appendU64(out, "bugFound", result.bugFound ? 1 : 0);
    appendU64(out, "simTicks", result.simTicks);
    appendU64(out, "witnessEvents", result.eventsExecuted);
    appendU64(out, "kernelEvents",
              harness.system().eventQueue().processed());
    appendU64(out, "messagesSent",
              harness.system().network().messagesSent());
    out += "\n";

    // Final iteration's witness: events in recording order plus the
    // reads-from source and coherence predecessor of each event.
    const mc::ExecWitness &w = harness.system().witness();
    const auto n = static_cast<mc::EventId>(w.numEvents());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "witness events=%d\n",
                  static_cast<int>(n));
    out += buf;
    for (mc::EventId e = 0; e < n; ++e) {
        const mc::Event &ev = w.event(e);
        std::snprintf(
            buf, sizeof(buf),
            "e %d pid=%d poi=%d sub=%u %c rmw=%d addr=%" PRIx64
            " val=%" PRIu64 " rf=%d co=%d\n",
            static_cast<int>(e), static_cast<int>(ev.iiid.pid),
            static_cast<int>(ev.iiid.poi),
            static_cast<unsigned>(ev.sub), ev.isRead() ? 'R' : 'W',
            ev.rmw ? 1 : 0, static_cast<std::uint64_t>(ev.addr),
            static_cast<std::uint64_t>(ev.value),
            static_cast<int>(ev.isRead() ? w.rfSource(e) : mc::kNoEvent),
            static_cast<int>(ev.isWrite() ? w.coPredecessor(e)
                                          : mc::kNoEvent));
        out += buf;
    }
    return out;
}

std::string
dumpAll()
{
    std::string out;
    for (const Scenario &sc : kScenarios)
        out += dumpScenario(sc);
    return out;
}

} // namespace

TEST(WitnessIdentity, KernelBehaviorMatchesGolden)
{
    const std::string dump = dumpAll();

    if (std::getenv("MCVERSI_UPDATE_GOLDEN") != nullptr) {
        std::ofstream outf(MCVERSI_WITNESS_GOLDEN_PATH, std::ios::binary);
        outf << dump;
        ASSERT_TRUE(outf.good())
            << "failed to write " << MCVERSI_WITNESS_GOLDEN_PATH;
        GTEST_SKIP() << "golden regenerated at "
                     << MCVERSI_WITNESS_GOLDEN_PATH;
    }

    std::ifstream in(MCVERSI_WITNESS_GOLDEN_PATH, std::ios::binary);
    std::ostringstream golden;
    golden << in.rdbuf();
    ASSERT_FALSE(golden.str().empty())
        << "missing golden file: " << MCVERSI_WITNESS_GOLDEN_PATH;

    EXPECT_EQ(dump, golden.str())
        << "simulated behavior diverged from the golden witness; a "
           "kernel/scheduling refactor must not change event order. If "
           "the change is deliberate, regenerate with "
           "MCVERSI_UPDATE_GOLDEN=1.";
}
