/**
 * @file
 * Two-level MESI protocol: shared L2 tile (directory).
 *
 * Banked NUCA L2 (Table 2: 8 tiles); each tile is the directory/home
 * for the lines it caches and is inclusive of the L1s. Exclusive grants
 * (GETX, upgrades, E grants) block the line until the new owner
 * unblocks; shared (GETS) grants from SS are non-blocking, which is what
 * lets an invalidation from a subsequent GETX overtake the data response
 * in the network and exercise the L1's IS_I window.
 *
 * A miss whose set has neither a free way nor a stable (SS/MT) victim
 * parks on the set's stall queue and is re-served when a line of that
 * set becomes stable (Unblock -> MT, WbDataToL2 -> SS).
 *
 * Replacement of an owned (MT) line recalls it from the owner; the
 * racing owner writeback (PUTX) paths host two of the §5.3 bugs:
 *   - MESI+PUTX-Race: (MT, PUTX-from-non-owner) removed from the table,
 *     reproducing Ruby's "invalid transition" crash.
 *   - MESI+Replace-Race: a dirty PUTX racing the recall of a
 *     clean-granted block is treated as clean and never written back.
 */

#ifndef MCVERSI_SIM_MESI_MESI_L2_HH
#define MCVERSI_SIM_MESI_MESI_L2_HH

#include "sim/l2_controller.hh"

namespace mcversi::sim {

/** One shared L2 tile with integrated directory state. */
class MesiL2 : public L2Controller
{
  public:
    enum State : std::uint8_t {
        StNP,
        StSS,    ///< cached, sharer set (possibly empty), dirty flag
        StMT,    ///< one L1 owner (granted E or M)
        StISS,   ///< memory fetch for GETS
        StIMM,   ///< memory fetch for GETX
        StB_MT,  ///< exclusive grant sent, awaiting Unblock
        StMT_SB, ///< FwdGETS sent to owner, awaiting its data
        StSS_I,  ///< side buffer: evicting, collecting InvAcks
        StMT_I,  ///< side buffer: evicting, recalling from owner
        NumStates,
    };

    enum Event : std::uint8_t {
        EvGETS,
        EvGETX,
        EvUpgradeSharer,
        EvUpgradeNonSharer,
        EvPutsSharer,
        EvPutsStale,
        EvPutxOwner,
        EvPutxSharer,
        EvPutxNonOwner,
        EvUnblock,
        EvWbDataOwner,
        EvRecallData,
        EvRecallAckNoData,
        EvInvAckIn,
        EvMemData,
        EvReplacement,
        NumEvents,
    };

    MesiL2(int tile, const SystemConfig &cfg, EventQueue &eq, Network &net,
           TransitionCoverage &cov);

    void handleMsg(const Msg &msg) override;

    /** Introspection for tests. */
    State lineState(Addr line) { return static_cast<State>(stateOf(line)); }

  private:
    void buildTable();

    /** Serve a request (GETS/GETX/UPGRADE/PUTS/PUTX) in a stable state. */
    void serveRequest(const Msg &msg) override;
    bool stable(std::uint8_t state) const override;
    void doReplacement(CacheEntry &entry) override;
    void serveGets(CacheEntry *entry, Addr line, Pid c);
    void serveGetx(CacheEntry *entry, Addr line, Pid c);
    /**
     * Invalidate every sharer of SS @p entry but @p c, acks going to
     * @p c, and block the line for @p c's exclusive grant.
     *
     * @return the number of acks @p c must collect
     */
    int blockForExclusive(CacheEntry &entry, Pid c);
    /**
     * Finish an MT_I eviction given the owner's data response. @p buf
     * is @p line's entry in evict_, read before this erases it.
     */
    void completeRecall(Addr line, EvictBuf &buf, bool msg_dirty,
                        const LineData &msg_data, bool from_putx);

    static std::uint32_t bit(Pid p) { return 1u << p; }
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_MESI_MESI_L2_HH
