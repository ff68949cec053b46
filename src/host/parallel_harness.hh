/**
 * @file
 * Batched multi-lane verification harness.
 *
 * The serial VerificationHarness owns one simulated system and strictly
 * alternates generate/evaluate. The ParallelHarness scales one campaign
 * across worker threads while staying byte-deterministic for any worker
 * count:
 *
 *  - Lanes: L independent simulation shards (one Rig each: System +
 *    Checker + Workload), one per engine island. Batch slot b of batch n is
 *    always evaluated on lane (issued + b) % L, the same round-robin
 *    deal the EvolutionEngine uses for islands -- an island's tests
 *    always execute on the same lane's continuously-running system, so
 *    coverage counters, write-value IDs and sim RNG streams evolve per
 *    lane exactly as in a serial campaign on that lane.
 *
 *  - Batch barriers: each cycle pulls one batch from the source,
 *    evaluates all slots (workers claim whole lanes, each lane runs its
 *    slots in ascending order), then merges at the barrier in slot
 *    order: adaptive-fitness scores were computed against the cut-off
 *    frozen at batch start (AdaptiveCoverageFitness::score), and the
 *    cut-off/stall state is advanced by record() replayed in slot
 *    order. Worker count never changes what is computed -- only which
 *    OS thread computes it.
 *
 *  - Bug stop: the batch containing the first bug is still merged in
 *    full (batch semantics); bugFound/testRunsToBug point at the
 *    earliest bug slot. Wall-clock budget is checked at barriers.
 *
 * threads=1 and threads=N produce byte-identical HarnessResults (and
 * thus campaign summaries) because every lane's work and the merge
 * order are functions of the spec alone.
 */

#ifndef MCVERSI_HOST_PARALLEL_HARNESS_HH
#define MCVERSI_HOST_PARALLEL_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "gp/fitness.hh"
#include "host/harness.hh"
#include "host/sources.hh"
#include "host/workload.hh"
#include "memconsistency/checker.hh"
#include "sim/system.hh"

namespace mcversi::host {

/** Batched, lane-sharded verification harness. */
class ParallelHarness
{
  public:
    struct Params
    {
        /** Per-lane system/generation/workload configuration. */
        VerificationHarness::Params harness{};
        /**
         * Simulation shards. Must equal the source's island count when
         * driving a GaSource (both deal round-robin by the same
         * counter); any value works for stateless sources.
         */
        std::size_t lanes = 1;
        /** Tests pulled per batch barrier. */
        std::size_t batch = 1;
        /** Worker threads; <= 0 selects the hardware concurrency. */
        int threads = 1;
    };

    ParallelHarness(Params params, TestSource &source);

    /** Run until a bug is found or the budget is exhausted. */
    HarnessResult run(const Budget &budget);

    std::size_t lanes() const { return lanes_.size(); }
    sim::System &laneSystem(std::size_t lane)
    {
        return *lanes_[lane].system;
    }
    gp::AdaptiveCoverageFitness &fitness() { return fitness_; }

    /**
     * Coverage aggregated across lanes: the fraction of registered
     * transitions observed on at least one lane, optionally restricted
     * to a controller-name prefix. (Transition registration is
     * config-deterministic, so ids agree across lanes.)
     */
    double aggregateCoverage(const std::string &prefix = "") const;

  private:
    /** Evaluate every slot of lane @p lane for the current batch. */
    void evaluateLane(std::size_t lane);

    Params params_;
    TestSource &source_;
    /** One rig per lane; lane l's system seeds from stream l. */
    std::vector<Rig> lanes_;
    gp::AdaptiveCoverageFitness fitness_;

    /** Batch state (slot-indexed, reused across batches). */
    std::vector<gp::Test> batchTests_;
    std::vector<RunFeedback> batchFeedback_;
    std::vector<RunResult> batchRuns_;
    std::vector<std::uint32_t> laneOfSlot_;
    std::size_t batchSize_ = 0;
    /** Monotone issue counter aligning slots with engine islands. */
    std::uint64_t issued_ = 0;
};

} // namespace mcversi::host

#endif // MCVERSI_HOST_PARALLEL_HARNESS_HH
