/**
 * @file
 * Polynomial-time MCM checker over a recorded candidate execution (§4.1).
 *
 * With full conflict-order visibility (rf and co observed, fr derived),
 * checking reduces to:
 *
 *   1. witness well-formedness (no unknown values, co total per address),
 *   2. sc-per-location: acyclic(po-loc | rf | co | fr),
 *   3. RMW atomicity: the write of an atomic pair immediately
 *      co-follows the read's rf source,
 *   4. global happens-before: acyclic(ppo | fences | rf[e] | co | fr),
 *
 * each a single DFS over generator edges.
 *
 * The checker runs once per iteration of every test-run, so
 * communication edges (rf, co, and fr -- the latter derived exactly
 * once per check) stream from the witness's dense rfSource() /
 * coPredecessor() / coSuccessor() arrays straight into two scratch
 * CycleGraphs owned by the checker and reused across checks. A Checker
 * is therefore NOT thread-safe; concurrent campaigns own one checker
 * each.
 *
 * Optionally the checker memoizes verdicts per witness equivalence
 * class (enableVerdictCache): campaigns re-observe the same
 * interleaving shapes constantly, and a cached Ok verdict settles a
 * repeat check for the cost of a signature hash instead of the full
 * cycle analysis. See signature.hh / verdict_cache.hh.
 */

#ifndef MCVERSI_MEMCONSISTENCY_CHECKER_HH
#define MCVERSI_MEMCONSISTENCY_CHECKER_HH

#include <memory>
#include <string>
#include <vector>

#include "memconsistency/arch.hh"
#include "memconsistency/execwitness.hh"
#include "memconsistency/signature.hh"
#include "memconsistency/verdict_cache.hh"

namespace mcversi::mc {

class StreamingChecker;

/**
 * When a harness checks each candidate execution: post-hoc on the
 * finalized witness (the default), or streaming -- incrementally as
 * events are recorded, stopping the simulation at the violating event
 * (see streaming_checker.hh).
 */
enum class CheckMode : std::uint8_t {
    Posthoc,
    Streaming,
};

/** Canonical lower-case name, e.g. "posthoc". */
const char *checkModeName(CheckMode mode);

/** Parse a canonical name; throws std::invalid_argument. */
CheckMode parseCheckMode(const std::string &name);

/** Verdict of checking one candidate execution. */
struct CheckResult
{
    enum class Kind : std::uint8_t {
        Ok,
        /** Witness ill-formed (unknown value / co fork): data-loss bug. */
        WitnessAnomaly,
        /** Per-location coherence violated. */
        UniprocViolation,
        /** Atomic RMW pair not atomic. */
        AtomicityViolation,
        /** Global happens-before cycle: the MCM proper is violated. */
        GhbViolation,
    };

    Kind kind = Kind::Ok;
    std::string message;
    /** Events on the offending cycle (empty for non-cycle violations). */
    std::vector<EventId> cycle;

    bool ok() const { return kind == Kind::Ok; }
    static const char *kindName(Kind k);
};

/** Checks executions against one consistency model. */
class Checker
{
  public:
    explicit Checker(ProfileModel model) : model_(std::move(model))
    {
        // Key memoized verdicts by model: a verdict cached under one
        // model must never short-circuit a check under another.
        signatureScratch_.setModelSalt(modelSalt(model_.name()));
    }

    /**
     * Check one candidate execution; first violated constraint wins.
     * Finalizes the witness (resolves conflict orders) if needed.
     */
    CheckResult check(ExecWitness &ew) const;

    /**
     * Settle a fully-streamed witness: like check() (the witness is
     * finalized, and anomaly handling and the verdict cache behave
     * exactly as there), but the cycle analysis is skipped when the
     * streaming checker saw a clean stream (the incremental graphs
     * already proved acyclicity). A dirty stream falls back to the
     * full analysis so diagnostics are byte-identical to post-hoc
     * checking. @p sc must have consumed every recorded event of @p ew
     * under this checker's model. A windowed witness (ew.window() !=
     * 0) cannot finalize: a clean stream settles from the streaming
     * verdict alone (with a truncation note when constraints were
     * dropped), a violation with
     * the whole stream still in the ring replays it into a full-mode
     * scratch witness for byte-identical diagnostics, and a violation
     * past the ring's reach reports the streaming-native verdict
     * flagged as window-truncated. The verdict cache is bypassed.
     */
    CheckResult checkStreamed(ExecWitness &ew,
                              const StreamingChecker &sc) const;

    /**
     * Enable collective checking: memoize verdicts per witness
     * equivalence class (see signature.hh). Only Ok verdicts
     * short-circuit the full analysis -- an Ok check carries no
     * diagnostics, so the cached answer is byte-identical to a fresh
     * one; violation hits still re-run the check to rebuild the
     * message and cycle in the current witness's event ids. Anomalous
     * witnesses always bypass the cache.
     */
    void enableVerdictCache(VerdictCache::Config config = {});

    /** The memoization cache, or nullptr when disabled. */
    VerdictCache *verdictCache() const { return cache_.get(); }

    const ProfileModel &arch() const { return model_; }

  private:
    /** The three-phase cycle analysis, bypassing the verdict cache. */
    CheckResult fullCheck(const ExecWitness &ew) const;
    CheckResult checkUniproc(const ExecWitness &ew) const;
    CheckResult checkAtomicity(const ExecWitness &ew) const;
    CheckResult checkGhb(const ExecWitness &ew) const;

    /** Stream co edges (immediate co-predecessor chains) into @p g. */
    static void addCoEdges(const ExecWitness &ew, CycleGraph &g);
    /** Stream the shared per-check fr edges into @p g. */
    void addFrEdges(CycleGraph &g) const;

    static CheckResult cycleResult(CheckResult::Kind kind,
                                   const ExecWitness &ew,
                                   const std::vector<CycleGraph::Node> &cyc,
                                   const std::string &constraint);

    ProfileModel model_;

    // Per-check scratch, reused so steady-state checks are
    // allocation-free (the reason a Checker is not thread-safe).
    mutable CycleGraph uniprocScratch_{0};
    mutable CycleGraph ghbScratch_{0};
    /** Immediate fr edges, derived once per check() from rf and co. */
    mutable std::vector<std::pair<EventId, EventId>> frScratch_;
    /**
     * Last same-address event per AddrId during the po-loc pass. An
     * entry is valid only if its stamp matches the current thread's
     * stamp, so per-thread resets are O(1) instead of O(numAddrs).
     */
    mutable std::vector<EventId> lastAtAddr_;
    mutable std::vector<std::uint64_t> addrStamp_;
    mutable std::uint64_t stamp_ = 0;

    // Collective checking (optional): signature scratch plus the
    // verdict cache. Mutable like the other scratch -- memoization is
    // an implementation detail of the logically-const check().
    mutable SignatureBuilder signatureScratch_;
    mutable std::unique_ptr<VerdictCache> cache_;
    /**
     * Full-mode witness the retained window of a windowed stream is
     * replayed into for post-hoc diagnostics (see checkStreamed()).
     */
    mutable ExecWitness windowScratch_;
};

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_CHECKER_HH
