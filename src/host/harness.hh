/**
 * @file
 * Verification harness: the full generate-execute-verify-reset loop.
 *
 * One harness = one simulation run of §5.1: a fresh system with a given
 * protocol, bug injection and seed, driven by a test source until a bug
 * is found or the budget (test-runs and/or wall-clock) is exhausted.
 * The simulation runs continuously, loading tests on-the-fly; coverage
 * counters, write-value IDs and RNG streams all persist across tests.
 *
 * Every harness -- this serial one, each ParallelHarness lane and the
 * litmus runner -- runs on a Rig built from HarnessParams, and every
 * run loop keeps its books with one RunTally.
 */

#ifndef MCVERSI_HOST_HARNESS_HH
#define MCVERSI_HOST_HARNESS_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gp/fitness.hh"
#include "host/sources.hh"
#include "host/workload.hh"
#include "memconsistency/checker.hh"
#include "sim/system.hh"

namespace mcversi::host {

/** Stop conditions for a harness run. */
struct Budget
{
    /** Max test-runs (0 = unlimited). */
    std::uint64_t maxTestRuns = 0;
    /** Max wall-clock seconds (0 = unlimited). */
    double maxWallSeconds = 0.0;
    /**
     * Cooperative cancellation hook, polled between test-runs (and at
     * batch barriers / litmus entries). Returning true stops the run
     * as if the budget were exhausted. Fleet workers use this to drain
     * cleanly on SIGTERM instead of being killed mid-cell; note that a
     * run cut short this way reports fewer test-runs than an
     * uninterrupted one, so callers that need deterministic summaries
     * must discard a cancelled run's result (the fleet does).
     */
    std::function<bool()> interrupted;

    bool
    isInterrupted() const
    {
        return interrupted && interrupted();
    }
};

/** Outcome of a harness run. */
struct HarnessResult
{
    bool bugFound = false;
    std::string detail;
    std::uint64_t testRuns = 0;
    std::uint64_t testRunsToBug = 0;
    /**
     * Streaming check mode: events the checker had consumed when the
     * bug-triggering violation was detected (0 post-hoc or bug-free).
     */
    std::uint64_t eventsUntilDetection = 0;
    double wallSeconds = 0.0;
    double wallSecondsToBug = 0.0;
    double checkSeconds = 0.0;
    std::uint64_t simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    /** Kernel events dispatched (sim-throughput observability). */
    std::uint64_t simEvents = 0;
    /** Network messages injected (sim-throughput observability). */
    std::uint64_t messagesSent = 0;
    /** NDT of each evaluated test-run, in order. */
    std::vector<double> ndtHistory;
    /** Final total structural coverage per protocol prefix. */
    double totalCoverage = 0.0;

    // -- Collective-checking metrics (deterministic; timing-free) -----
    // Zero when the verdict cache is off. ParallelHarness sums its
    // per-lane caches, so the totals are byte-identical for any
    // eval-thread count.
    /** Verdict-cache lookups that hit a known equivalence class. */
    std::uint64_t checkCacheHits = 0;
    /** Verdict-cache lookups that required a full check. */
    std::uint64_t checkCacheMisses = 0;
    /** Distinct interleaving (equivalence-class) signatures seen. */
    std::uint64_t distinctInterleavings = 0;

    double
    checkCacheHitRate() const
    {
        const std::uint64_t lookups = checkCacheHits + checkCacheMisses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(checkCacheHits) /
                                  static_cast<double>(lookups);
    }

    // -- Generation metrics (deterministic; timing-free) --------------
    /** Final mean population fitness (0 for fitness-free sources). */
    double meanFitness = 0.0;
    /**
     * Mean population fitness sampled at batch barriers (ParallelHarness
     * only; capped at kMaxTrajectorySamples). Deterministic for a given
     * spec: depends only on seed, batch size and test-run budget.
     */
    std::vector<double> fitnessTrajectory;

    /** Aggregate generate->evaluate throughput (timing-dependent). */
    double
    testsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(testRuns) / wallSeconds
                   : 0.0;
    }

    static constexpr std::size_t kMaxTrajectorySamples = 512;
};

/** Configuration of one simulation rig and the harness driving it. */
struct HarnessParams
{
    sim::SystemConfig system{};
    /** Test-memory geometry (memSize/stride drive the layout). */
    gp::GenParams gen{};
    Workload::Params workload{};
    gp::AdaptiveCoverageFitness::Params fitness{};
    /**
     * Registered consistency model the checker verifies executions
     * against (memconsistency/models/registry.hh).
     */
    std::string model = "tso";
    /** Record per-run NDT history (costs memory on long runs). */
    bool recordNdt = true;
    /**
     * Verdict-cache capacity in entries (collective checking);
     * 0 disables memoization. Parallel harnesses size one cache
     * per lane with this many entries.
     */
    std::size_t checkCacheEntries = 4096;
};

/**
 * One continuously-running simulated system with its checker (plus
 * the optional verdict cache) and the workload kernel that drives it:
 * what every harness runs its tests on.
 */
struct Rig
{
    /**
     * Build a rig from @p params. The system seeds from
     * Rng::streamSeed(params.system.seed, stream); stream 0 keeps the
     * base seed.
     */
    explicit Rig(const HarnessParams &params, std::uint64_t stream = 0);

    /** Add this rig's verdict-cache counters to @p result. */
    void addCacheStats(HarnessResult &result) const;

    std::unique_ptr<sim::System> system;
    std::unique_ptr<mc::Checker> checker;
    std::unique_ptr<Workload> workload;
};

/**
 * The bookkeeping every run loop shares: its wall clock, the budget
 * stop test, and the fold of each RunResult into the HarnessResult.
 */
class RunTally
{
  public:
    /** @param record_ndt keep each run's NDT in ndtHistory */
    RunTally(const Budget &budget, bool record_ndt);

    /** Seconds since construction. */
    double elapsed() const;

    /**
     * True once no further test-run may start: the run was
     * interrupted, or its test-run or wall-clock budget is spent.
     */
    bool exhausted() const;

    /**
     * Fold one finished test-run into the totals. The first run that
     * detects a bug sets the bug fields; a non-empty @p label prefixes
     * its detail.
     */
    void add(const RunResult &run, const std::string &label = {});

    const HarnessResult &result() const { return result_; }

    /** Stamp the total wall time and hand over the result. */
    HarnessResult finish();

  private:
    const Budget &budget_;
    const bool recordNdt_;
    std::chrono::steady_clock::time_point start_;
    HarnessResult result_;
};

/** One verification campaign on one simulated system. */
class VerificationHarness
{
  public:
    using Params = HarnessParams;

    VerificationHarness(Params params, TestSource &source);

    /** Run until a bug is found or the budget is exhausted. */
    HarnessResult run(const Budget &budget);

    /** Run exactly one test through the workload (building block). */
    RunResult runOne(const gp::Test &test,
                     const ConditionFn &condition = nullptr);

    sim::System &system() { return *rig_.system; }
    Workload &workload() { return *rig_.workload; }
    mc::Checker &checker() { return *rig_.checker; }
    gp::AdaptiveCoverageFitness &fitness() { return fitness_; }

  private:
    Params params_;
    TestSource &source_;
    Rig rig_;
    gp::AdaptiveCoverageFitness fitness_;
};

/** GenParams-consistent layout helper. */
TestMemLayout layoutFor(const gp::GenParams &gen);

} // namespace mcversi::host

#endif // MCVERSI_HOST_HARNESS_HH
