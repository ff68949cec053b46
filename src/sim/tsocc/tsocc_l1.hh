/**
 * @file
 * TSO-CC-style lazy consistency-directed coherence: private L1.
 *
 * Following Elver & Nagarajan (HPCA 2014), the protocol keeps TSO
 * without tracking sharers: Shared lines are read without registration
 * and readers self-invalidate instead of being invalidated.
 *
 *  - Shared lines may be read at most maxAccesses times before being
 *    re-fetched (bounded staleness).
 *  - Writers stamp lines with (writer, timestamp, epoch); timestamps
 *    advance every groupSize writes (timestamp groups).
 *  - When a fetch returns a line whose timestamp is *larger or equal*
 *    than the last-seen timestamp from that writer (or whose epoch is
 *    unknown/mismatched, or that has no metadata), the reader
 *    self-invalidates all its Shared lines.
 *  - When a writer's timestamp overflows it resets and broadcasts a new
 *    epoch-id, which avoids races between resets and in-flight requests.
 *
 * Bug injections (§5.3):
 *  - TSO-CC+no-epoch-ids: resets happen silently; comparisons use raw
 *    timestamps only.
 *  - TSO-CC+compare: 'larger' instead of 'larger or equal'.
 *
 * Ownership (writes) remains directory-tracked at the L2, exactly one
 * owner at a time, so SWMR is violated only for reads.
 */

#ifndef MCVERSI_SIM_TSOCC_TSOCC_L1_HH
#define MCVERSI_SIM_TSOCC_TSOCC_L1_HH

#include <string>
#include <vector>

#include "sim/l1_controller.hh"

namespace mcversi::sim {

/** Private L1 controller for the TSO-CC protocol. */
class TsoccL1 : public L1Controller
{
  public:
    enum State : std::uint8_t {
        StI,
        StS,
        StM,
        StIS,
        StIM,
        StMI,  ///< side buffer: PUTX outstanding
        StII,  ///< side buffer: recall acked while MI
        StCtrl, ///< pseudo-state for controller-wide events
        NumStates,
    };

    enum Event : std::uint8_t {
        EvLoad,
        EvLoadExpired,
        EvStore,
        EvRmw,
        EvFlush,
        EvReplacement,
        EvData,
        EvRecall,
        EvWbAck,
        EvWbNack,
        EvTsReset,
        EvSelfInvalidate,
        NumEvents,
    };

    TsoccL1(Pid pid, const SystemConfig &cfg, EventQueue &eq, Network &net,
            TransitionCoverage &cov);

    void handleMsg(const Msg &msg) override;
    void resetAll() override;

    State lineState(Addr line) { return static_cast<State>(stateOf(line)); }

    /** One-line state summary for deadlock diagnosis. */
    std::string debugSummary();

    /** Tests: last-seen timestamp table entry for a writer. */
    struct Seen
    {
        bool valid = false;
        std::uint32_t epoch = 0;
        std::uint32_t ts = 0;
    };
    const Seen &lastSeen(Pid writer) const { return lastSeen_[writer]; }
    std::uint32_t currentTs() const { return curTs_; }
    std::uint32_t currentEpoch() const { return curEpoch_; }
    std::uint64_t selfInvalidations() const { return selfInvs_; }

  private:
    void buildTable();
    void processPending(Addr line) override;
    bool stable(std::uint8_t state) const override;
    void doReplacement(CacheEntry &entry) override;

    /** Advance the write timestamp machinery after one store. */
    void stampWrite(CacheEntry &entry);
    /** Apply the self-invalidation rule for incoming metadata. */
    void applySelfInvRule(const TsMeta &meta, Addr except_line);
    /**
     * Sweep all Shared lines.
     *
     * @param flag_in_flight also mark in-flight read fills to be
     *        consumed as invalidated (replayed): their data was served
     *        before the acquire point this sweep represents. Always
     *        set by the protocol; the replay storms this conservatism
     *        can cause under extreme conflict are bounded by the
     *        workload-level livelock watchdog.
     */
    void selfInvalidateShared(Addr except_line, bool flag_in_flight);

    std::vector<Seen> lastSeen_;
    /** selfInvalidateShared's victims; capacity reused across sweeps. */
    std::vector<Addr> doomed_;
    std::uint32_t curTs_ = 1;
    std::uint32_t curEpoch_ = 0;
    int writesInGroup_ = 0;
    std::uint64_t selfInvs_ = 0;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_TSOCC_TSOCC_L1_HH
