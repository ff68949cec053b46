/**
 * @file
 * TSO-CC-style lazy coherence: shared L2 tile.
 *
 * The L2 tracks only the single *owner* of a line (for writes); readers
 * are never registered and never invalidated -- that is the lazy part
 * that explicitly violates SWMR. Lines carry (writer, ts, epoch)
 * metadata supplied to readers for the self-invalidation rule; metadata
 * is lost when a line is evicted to memory, which readers treat
 * conservatively.
 *
 * A miss whose set has neither a free way nor a stable (U/O) victim
 * parks on the set's stall queue and is re-served when a line of that
 * set becomes stable (-> U or -> O).
 */

#ifndef MCVERSI_SIM_TSOCC_TSOCC_L2_HH
#define MCVERSI_SIM_TSOCC_TSOCC_L2_HH

#include <string>

#include "sim/l2_controller.hh"

namespace mcversi::sim {

/** Shared L2 tile for the TSO-CC protocol. */
class TsoccL2 : public L2Controller
{
  public:
    enum State : std::uint8_t {
        StNP,
        StU,    ///< cached at L2, no L1 owner (readers untracked)
        StO,    ///< one L1 owner
        StIU_S, ///< memory fetch for GETS
        StIU_X, ///< memory fetch for GETX
        StB_O,  ///< exclusive grant sent, awaiting Unblock
        StO_R,  ///< recalling from owner to serve a request
        StO_I,  ///< side buffer: recalling from owner to evict
        NumStates,
    };

    enum Event : std::uint8_t {
        EvGETS,
        EvGETX,
        EvPutxOwner,
        EvPutxNonOwner,
        EvUnblock,
        EvRecallData,
        EvRecallAckNoData,
        EvMemData,
        EvReplacement,
        NumEvents,
    };

    TsoccL2(int tile, const SystemConfig &cfg, EventQueue &eq,
            Network &net, TransitionCoverage &cov);

    void handleMsg(const Msg &msg) override;
    void resetAll() override;
    State lineState(Addr line) { return static_cast<State>(stateOf(line)); }

    /** One-line state histogram for deadlock diagnosis. */
    std::string debugSummary();

  private:
    void buildTable();
    void serveRequest(const Msg &msg) override;
    bool stable(std::uint8_t state) const override;
    void doReplacement(CacheEntry &entry) override;

    /** Send data (with metadata) for a completed GETS / GETX. */
    void grant(CacheEntry &entry, Pid c, bool exclusive);
    /** Owner data arrived while O_R / O_I: finish the transaction. */
    void finishRecall(CacheEntry *entry, Addr line, const Msg &msg);

    /**
     * Directory timestamp metadata, persisted across L2 evictions (the
     * TSO-CC paper keeps timestamps in the directory). Guarantees the
     * invariant: a line without metadata has never been written, so
     * readers need no conservative self-invalidation for it.
     */
    LineTable<TsMeta> metaStore_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_TSOCC_TSOCC_L2_HH
