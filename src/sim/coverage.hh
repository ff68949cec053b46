/**
 * @file
 * Structural (protocol transition) coverage (§3.2).
 *
 * Coverage is over the coherence protocol's possible state transitions;
 * identical controllers are not distinguished -- their transitions sum
 * into shared counters. Counters accumulate over the whole simulation
 * (the simulation runs continuously, loading tests on-the-fly), and the
 * harness snapshots per-test-run deltas for the adaptive fitness.
 */

#ifndef MCVERSI_SIM_COVERAGE_HH
#define MCVERSI_SIM_COVERAGE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcversi::sim {

/** Global transition coverage registry and counters. */
class TransitionCoverage
{
  public:
    /**
     * Register a transition; idempotent by (controller, state, event)
     * name triple. Returns a dense transition id.
     */
    std::uint32_t registerTransition(const std::string &controller,
                                     const std::string &state,
                                     const std::string &event);

    /**
     * Record one occurrence of a registered transition. The per-run
     * set is a stamp per id: an id joins the run's list the first time
     * its stamp differs from the current run number, so no hashing.
     */
    void
    record(std::uint32_t id)
    {
        ++counts_[id];
        if (runActive_ && runStamp_[id] != run_) {
            runStamp_[id] = run_;
            runCovered_.push_back(id);
        }
    }

    /** Begin collecting the per-run covered set. */
    void
    beginRun()
    {
        runActive_ = true;
        ++run_;
        runStamp_.resize(counts_.size());
        runCovered_.clear();
        preCounts_ = counts_;
    }

    /**
     * End the run; returns the ids covered during it, each once, in
     * the order of their first occurrence in the run.
     */
    std::vector<std::uint32_t>
    endRun()
    {
        runActive_ = false;
        return runCovered_;
    }

    /** Global counts as of beginRun() (for adaptive fitness). */
    const std::vector<std::uint64_t> &preRunCounts() const
    {
        return preCounts_;
    }

    std::size_t numTransitions() const { return counts_.size(); }
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** Fraction of registered transitions observed at least once. */
    double totalCoverage() const;

    /** Fraction restricted to one controller name prefix. */
    double totalCoverage(const std::string &controller_prefix) const;

    /** Human-readable name of a transition id. */
    const std::string &name(std::uint32_t id) const
    {
        return names_[id];
    }

  private:
    std::unordered_map<std::string, std::uint32_t> byName_;
    std::vector<std::string> names_;
    std::vector<std::uint64_t> counts_;
    std::vector<std::uint64_t> preCounts_;
    /**
     * Per id: the last run number that recorded it (0 = none). Sized by
     * beginRun(), so ids must be registered before a run begins.
     */
    std::vector<std::uint64_t> runStamp_;
    std::vector<std::uint32_t> runCovered_;
    std::uint64_t run_ = 0;
    bool runActive_ = false;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_COVERAGE_HH
