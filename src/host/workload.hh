/**
 * @file
 * The guest workload kernel (Algorithm 2 of the paper).
 *
 * For each test-run: emit each thread's code (make_test_thread), then
 * for every iteration release the threads in lock-step
 * (barrier_wait_precise), run to completion (barrier_wait_coarse),
 * verify the candidate execution and clear its conflict orders
 * (verify_reset_conflict), and reset the test memory (reset_test_mem).
 * After the final iteration verify_reset_all evaluates the run:
 * coverage delta, NDT / NDe / fitaddrs, and timing.
 */

#ifndef MCVERSI_HOST_WORKLOAD_HH
#define MCVERSI_HOST_WORKLOAD_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gp/ndmetrics.hh"
#include "gp/test.hh"
#include "host/interface.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/streaming_checker.hh"
#include "sim/system.hh"

namespace mcversi::host {

/** Outcome of one test-run (several iterations of one test). */
struct RunResult
{
    /** An MCM violation or witness anomaly was detected. */
    bool violation = false;
    mc::CheckResult checkResult{};
    /** The protocol hit an invalid transition (Ruby-style crash). */
    bool protocolError = false;
    std::string protocolErrorInfo;
    /** A litmus-style forbidden condition was observed. */
    bool conditionHit = false;
    int violationIteration = -1;
    /**
     * Streaming mode only: recorded events the checker had consumed
     * when the violation was detected (detection latency in events);
     * 0 when no violation was stream-detected.
     */
    std::uint64_t eventsUntilDetection = 0;

    gp::NdInfo nd{};
    std::vector<std::uint32_t> coveredTransitions;
    /**
     * View of the global per-transition counts snapshotted at run
     * start, owned by the system's TransitionCoverage. Valid until the
     * next test-run begins on the same system; consumers (the adaptive
     * fitness) read it in place instead of copying the whole counter
     * vector per run.
     */
    std::span<const std::uint64_t> preRunCounts;

    int iterationsRun = 0;
    /**
     * Iterations abandoned by the livelock watchdog: the event cap, or
     * an L2 request stranded at quiescence (sim::StallDeadlock).
     */
    int watchdogAborts = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    /** Kernel events dispatched during this run (throughput metric). */
    std::uint64_t simEvents = 0;
    /** Network messages injected during this run. */
    std::uint64_t messagesSent = 0;
    /**
     * Distinct checking equivalence classes this run added to the
     * checker's verdict cache (0 when memoization is off). Feeds the
     * optional interleaving term of the adaptive fitness.
     */
    std::uint64_t newInterleavings = 0;
    double checkSeconds = 0.0;
    double totalSeconds = 0.0;

    bool
    bugDetected() const
    {
        return violation || protocolError || conditionHit;
    }

    std::string describe() const;
};

/**
 * Per-iteration self-check hook (litmus tests): returns true if the
 * forbidden outcome was observed in this iteration's witness.
 */
using ConditionFn = std::function<bool(const mc::ExecWitness &)>;

/** Drives test-runs on a simulated system (the Algorithm 2 kernel). */
class Workload
{
  public:
    struct Params
    {
        int iterations = 10;
        /**
         * Start skew of the precise barrier: ~2 cycles with host
         * assistance, hundreds with a guest software barrier.
         */
        Tick barrierSkew = 2;
        /**
         * Extra simulated cycles consumed per iteration by guest-side
         * setup (0 with full host assistance; the ablation bench models
         * a guest implementation with large values).
         */
        Tick guestOverhead = 0;
        /** Run the axiomatic checker after every iteration. */
        bool checkEveryIteration = true;
        /**
         * Post-hoc (default) or streaming checking. Streaming consumes
         * events as the simulation records them and stops the
         * iteration at the violating event.
         */
        mc::CheckMode checkMode = mc::CheckMode::Posthoc;
        /**
         * Bound the streaming checker's live set and the witness event
         * log to roughly the last N events (0 = unbounded, exactly
         * today's behavior). Makes memory O(window) instead of
         * O(trace) for soak iterations; see streaming_checker.hh for
         * the truncation semantics. Streaming mode only; forced to 0
         * when a litmus condition is attached (conditions inspect the
         * finalized witness every iteration).
         */
        std::size_t witnessWindow = 0;
    };

    Workload(sim::System &system, mc::Checker &checker,
             TestMemLayout layout, Params params);

    /**
     * Execute one full test-run of @p test.
     *
     * @param condition optional litmus self-check evaluated after every
     *        iteration
     */
    RunResult runTest(const gp::Test &test,
                      const ConditionFn &condition = nullptr);

    HostServices &services() { return services_; }
    const Params &params() const { return params_; }
    void setParams(Params p);

    /**
     * Translate one test into per-thread programs (code emission).
     * @p slot_tables is reusable scratch filled with the per-thread
     * node-index table (allocation-free in the steady state).
     */
    std::vector<sim::Program>
    emitPrograms(const gp::Test &test,
                 gp::ThreadSlots &slot_tables) const;

  private:
    /** Map a witness event to its static event id. */
    gp::StaticEventId
    staticIdOf(const mc::Event &ev, const gp::ThreadSlots &slots) const;

    void accumulateNd(const mc::ExecWitness &witness,
                      const gp::ThreadSlots &slots);

    /** (Re)build streaming_ to match params_.checkMode. */
    void syncStreamingChecker();

    sim::System &system_;
    mc::Checker &checker_;
    HostServices services_;
    Params params_;
    gp::NdAccumulator nd_;
    /** Per-run thread-slot scratch, capacity reused across runs. */
    gp::ThreadSlots slotScratch_;
    /**
     * Windowed-mode NDT scratch: a fully-retained ring is replayed and
     * finalized here so NDT accumulation (a GA fitness input) matches
     * unbounded mode exactly. Capacity reused across runs.
     */
    mc::ExecWitness ndScratch_;
    /** Online checker, present iff params_.checkMode is Streaming. */
    std::unique_ptr<mc::StreamingChecker> streaming_;
};

} // namespace mcversi::host

#endif // MCVERSI_HOST_WORKLOAD_HH
