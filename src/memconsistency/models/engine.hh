/**
 * @file
 * Shared ppo/fence constraint engine over declarative model profiles.
 *
 * One ProfileModel interprets any valid ModelProfile.
 * The engine generalizes the chain construction the hand-written TSO
 * model used: each preserved order is realized by O(events) generator
 * edges whose transitive closure equals the model's full ppo/fence
 * relation. Per access-type pair:
 *
 *  - chained same-type orders (R->R, W->W) use last-event chain edges;
 *  - a cross-type order whose *destination* type also chains uses a
 *    one-shot edge to the next destination event (later ones follow
 *    through the destination chain);
 *  - a cross-type order whose destination type does not chain uses a
 *    persistent last-source edge at every destination event (earlier
 *    sources follow through the source chain);
 *  - Full RMW fences insert virtual nodes before the read part and
 *    after the write part, collecting everything po-before (chain tail
 *    or, for chainless classes, the events seen since the previous
 *    fence) and reaching everything po-after (chain hook-in or a
 *    persistent downstream edge);
 *  - AcquireRelease RMWs order the read part before all later events
 *    and all earlier events before the write part, with no crossing
 *    edge -- strictly weaker than a full fence.
 */

#ifndef MCVERSI_MEMCONSISTENCY_MODELS_ENGINE_HH
#define MCVERSI_MEMCONSISTENCY_MODELS_ENGINE_HH

#include <string>
#include <vector>

#include "memconsistency/event.hh"
#include "memconsistency/execwitness.hh"
#include "memconsistency/graph.hh"
#include "memconsistency/models/profile.hh"

namespace mcversi::mc {

/**
 * A hardware memory consistency model, defined by interpreting a
 * ModelProfile. Its generator edges have the same transitive closure
 * as the model's full ppo/fence relation when combined with the
 * communication edges the checker adds.
 */
class ProfileModel
{
  public:
    /** Validates the profile (throws std::invalid_argument). */
    explicit ProfileModel(ModelProfile profile);

    /** Short model name, e.g. "TSO". */
    std::string name() const { return profile_.name; }

    /**
     * Add preserved-program-order and fence edges for one thread.
     *
     * @param ew     the witness (for event attributes)
     * @param thread event ids of one thread, in program order
     * @param g      graph to add edges (and fence nodes) to
     */
    void addProgramOrderEdges(const ExecWitness &ew,
                              const std::vector<EventId> &thread,
                              CycleGraph &g) const;

    /**
     * Whether internal (same-thread) rf edges participate in the global
     * happens-before check. TSO permits reading own stores early (store
     * forwarding), so only external rf is globally ordered; SC orders
     * all rf.
     */
    bool ghbIncludesRfi() const { return profile_.rfiGlobal; }

    const ModelProfile &profile() const { return profile_; }

  private:
    ModelProfile profile_;

    // Edge-strategy flags derived once from the profile.
    bool chainRR_;    ///< last_read -> read chain
    bool chainWW_;    ///< last_write -> write chain
    bool oneshotRW_;  ///< read joins the next-write one-shot list
    bool persistRW_;  ///< last_read -> every write
    bool oneshotWR_;  ///< write joins the next-read one-shot list
    bool persistWR_;  ///< last_write -> every read
    bool trackReads_; ///< reads accumulate for fence/release flushes
    bool trackWrites_;
    /** Explicit read->write edge inside an RMW pair (chainless Full). */
    bool pairEdge_;
};

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_MODELS_ENGINE_HH
