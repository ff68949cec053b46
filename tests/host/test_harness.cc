/** @file Verification harness + test source tests. */

#include <gtest/gtest.h>

#include "host/harness.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

VerificationHarness::Params
smallParams(sim::BugId bug)
{
    VerificationHarness::Params p;
    p.system.bug = bug;
    p.system.seed = 5;
    p.gen.testSize = 96;
    p.gen.iterations = 3;
    p.gen.memSize = 1024;
    p.workload.iterations = 3;
    return p;
}

gp::GaParams
smallGa()
{
    gp::GaParams ga;
    ga.population = 20;
    return ga;
}

} // namespace

TEST(Harness, BudgetByTestRunsRespected)
{
    auto params = smallParams(sim::BugId::None);
    RandomSource source(params.gen, 1);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxTestRuns = 5;
    HarnessResult result = harness.run(budget);
    EXPECT_FALSE(result.bugFound);
    EXPECT_EQ(result.testRuns, 5u);
    EXPECT_EQ(result.ndtHistory.size(), 5u);
    EXPECT_GT(result.totalCoverage, 0.0);
}

TEST(Harness, InterruptHookStopsTheRunEarly)
{
    auto params = smallParams(sim::BugId::None);
    RandomSource source(params.gen, 1);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxTestRuns = 100;

    // Already-pending interrupt: not a single test runs (this is what
    // lets a fleet worker drain on SIGTERM without emitting a partial
    // -- therefore nondeterministic -- result).
    budget.interrupted = [] { return true; };
    HarnessResult none = harness.run(budget);
    EXPECT_EQ(none.testRuns, 0u);

    // Interrupt tripped mid-run: stops at the next run boundary.
    int calls = 0;
    budget.interrupted = [&calls] { return ++calls > 3; };
    VerificationHarness harness2(params, source);
    HarnessResult some = harness2.run(budget);
    EXPECT_GT(some.testRuns, 0u);
    EXPECT_LT(some.testRuns, 100u);
}

TEST(Harness, FindsEasyBugAndStops)
{
    auto params = smallParams(sim::BugId::LqNoTso);
    RandomSource source(params.gen, 2);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxTestRuns = 400;
    HarnessResult result = harness.run(budget);
    EXPECT_TRUE(result.bugFound);
    EXPECT_GT(result.testRunsToBug, 0u);
    EXPECT_LE(result.testRunsToBug, result.testRuns);
    EXPECT_FALSE(result.detail.empty());
}

TEST(Harness, GaSourceImprovesOrMatchesAndTracksNdt)
{
    auto params = smallParams(sim::BugId::None);
    GaSource source(smallGa(), params.gen, 3,
                    gp::XoMode::Selective);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxTestRuns = 30;
    HarnessResult result = harness.run(budget);
    EXPECT_EQ(result.testRuns, 30u);
    EXPECT_GT(source.engine().evaluated(), 0u);
    EXPECT_GT(source.engine().meanNdt(), 0.0);
    EXPECT_TRUE(source.hasFitnessMetrics());
    EXPECT_EQ(result.meanFitness, source.meanFitness());
}

TEST(Harness, SourceNames)
{
    gp::GenParams gen;
    RandomSource rnd(gen, 1);
    EXPECT_EQ(rnd.name(), "McVerSi-RAND");
    GaSource all(smallGa(), gen, 1, gp::XoMode::Selective);
    EXPECT_EQ(all.name(), "McVerSi-ALL");
    GaSource xo(smallGa(), gen, 1,
                gp::XoMode::SinglePoint);
    EXPECT_EQ(xo.name(), "McVerSi-Std.XO");
}

TEST(Harness, WallClockBudget)
{
    auto params = smallParams(sim::BugId::None);
    RandomSource source(params.gen, 4);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxWallSeconds = 0.3;
    HarnessResult result = harness.run(budget);
    EXPECT_FALSE(result.bugFound);
    EXPECT_GT(result.testRuns, 0u);
    EXPECT_GE(result.wallSeconds, 0.3);
}

TEST(Harness, RunOneBuildingBlock)
{
    auto params = smallParams(sim::BugId::None);
    RandomSource source(params.gen, 5);
    VerificationHarness harness(params, source);
    gp::RandomTestGen rtg(params.gen);
    Rng rng(5);
    RunResult r = harness.runOne(rtg.randomTest(rng));
    EXPECT_FALSE(r.bugDetected());
    EXPECT_EQ(r.iterationsRun, 3);
}

TEST(Harness, StatsAccumulate)
{
    auto params = smallParams(sim::BugId::None);
    RandomSource source(params.gen, 6);
    VerificationHarness harness(params, source);
    Budget budget;
    budget.maxTestRuns = 3;
    HarnessResult result = harness.run(budget);
    EXPECT_GT(result.simTicks, 0u);
    EXPECT_GT(result.eventsExecuted, 0u);
    EXPECT_GT(result.checkSeconds, 0.0);
}

TEST(Harness, VerdictCacheStatsAndIdenticalOutcomes)
{
    auto params = smallParams(sim::BugId::None);
    ASSERT_GT(params.checkCacheEntries, 0u); // collective checking on

    RandomSource cached_src(params.gen, 7);
    VerificationHarness cached(params, cached_src);
    Budget budget;
    budget.maxTestRuns = 8;
    const HarnessResult with_cache = cached.run(budget);

    auto off = params;
    off.checkCacheEntries = 0;
    RandomSource plain_src(off.gen, 7);
    VerificationHarness plain(off, plain_src);
    const HarnessResult without = plain.run(budget);

    // Memoization must not change any deterministic outcome.
    EXPECT_EQ(with_cache.bugFound, without.bugFound);
    EXPECT_EQ(with_cache.testRuns, without.testRuns);
    EXPECT_EQ(with_cache.simTicks, without.simTicks);
    EXPECT_EQ(with_cache.eventsExecuted, without.eventsExecuted);
    EXPECT_EQ(with_cache.ndtHistory, without.ndtHistory);
    EXPECT_EQ(with_cache.totalCoverage, without.totalCoverage);
    EXPECT_EQ(with_cache.meanFitness, without.meanFitness);

    // Telemetry flows through: every iteration consulted the cache and
    // the distinct-class counter is bounded by the miss count (each
    // new class is first a miss).
    EXPECT_GT(with_cache.checkCacheHits + with_cache.checkCacheMisses,
              0u);
    EXPECT_GT(with_cache.distinctInterleavings, 0u);
    EXPECT_LE(with_cache.distinctInterleavings,
              with_cache.checkCacheMisses);

    // With the cache off, the metrics stay zero.
    EXPECT_EQ(without.checkCacheHits, 0u);
    EXPECT_EQ(without.checkCacheMisses, 0u);
    EXPECT_EQ(without.distinctInterleavings, 0u);
    EXPECT_DOUBLE_EQ(without.checkCacheHitRate(), 0.0);
}

TEST(RunTally, FoldsRunsAndKeepsTheFirstBug)
{
    Budget budget;
    RunTally tally(budget, /*record_ndt=*/true);
    RunResult clean;
    clean.simTicks = 10;
    clean.simEvents = 3;
    clean.nd.ndt = 1.5;
    RunResult first_bug;
    first_bug.conditionHit = true;
    first_bug.eventsUntilDetection = 7;
    RunResult second_bug;
    second_bug.protocolError = true;
    second_bug.protocolErrorInfo = "later";

    tally.add(clean);
    tally.add(first_bug, "MP");
    tally.add(second_bug);
    const HarnessResult result = tally.finish();

    EXPECT_EQ(result.testRuns, 3u);
    EXPECT_EQ(result.simTicks, 10u);
    EXPECT_EQ(result.simEvents, 3u);
    ASSERT_EQ(result.ndtHistory.size(), 3u);
    EXPECT_DOUBLE_EQ(result.ndtHistory[0], 1.5);
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.testRunsToBug, 2u);
    EXPECT_EQ(result.eventsUntilDetection, 7u);
    EXPECT_EQ(result.detail, "MP: " + first_bug.describe());
    EXPECT_GE(result.wallSeconds, result.wallSecondsToBug);
}
