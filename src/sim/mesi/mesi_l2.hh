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

#include <deque>
#include <functional>
#include <unordered_map>

#include "common/rng.hh"
#include "sim/cache_array.hh"
#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/network.hh"
#include "sim/stall_queues.hh"
#include "sim/transition_table.hh"

namespace mcversi::sim {

/** One shared L2 tile with integrated directory state. */
class MesiL2 : public MsgHandler
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
           TransitionCoverage &cov, Rng rng);

    void handleMsg(const Msg &msg) override;

    /** Host-assisted reset (quiescence only). */
    void resetAll();

    /** Introspection for tests. */
    State lineState(Addr line);

    /** Requests parked until their set has a victim. */
    const SetStallQueues &stalls() const { return stalls_; }

  private:
    struct EvictBuf
    {
        State state = StSS_I;
        LineData data{};
        bool dirty = false;
        bool grantedClean = false;
        int acksLeft = 0;
        bool ownerGone = false;
        Pid owner = kInitPid;
    };

    void buildTable();
    /** Stage and populate a pool-owned outbound message. */
    Msg &buildMsg(MsgType t, Addr line, NodeId dst, Vnet vnet,
                  const std::function<void(Msg &)> &fill);
    void send(MsgType t, Addr line, NodeId dst, Vnet vnet,
              const std::function<void(Msg &)> &fill = {});
    /** Delayed send: the message is injected @p delta ticks from now. */
    void sendAfter(Tick delta, MsgType t, Addr line, NodeId dst,
                   Vnet vnet, const std::function<void(Msg &)> &fill = {});
    void memWrite(Addr line, const LineData &data);

    /** True if the line is in a state that serves new requests. */
    bool serving(Addr line);
    void enqueueMsg(const Msg &msg);
    void drain(Addr line);

    /** Serve a request (GETS/GETX/UPGRADE/PUTS/PUTX) in a stable state. */
    void serveRequest(const Msg &msg);
    void serveGets(CacheEntry *entry, Addr line, Pid c);
    void serveGetx(CacheEntry *entry, Addr line, Pid c);
    /** Allocate and fetch @p line, or park @p msg if the set is full. */
    void startFetch(Addr line, Pid c, bool exclusive, const Msg &msg);
    /** Replacement candidates: the stable states. */
    static bool evictable(const CacheEntry &e);
    bool evictVictim(Addr line);
    /** Re-serve @p line's set's parked requests (it gained a victim). */
    void wake(Addr line);
    void doReplacement(CacheEntry &entry);
    /** Finish an MT_I eviction given the owner's data response. */
    void completeRecall(Addr line, EvictBuf &buf, bool msg_dirty,
                        const LineData &msg_data, bool from_putx);

    static std::uint32_t bit(Pid p) { return 1u << p; }
    static int popcount(std::uint32_t v);

    int tile_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    Network &net_;
    TransitionTable table_;
    Rng rng_;

    CacheArray array_;
    std::unordered_map<Addr, EvictBuf> evict_;
    std::unordered_map<Addr, std::deque<Msg>> waiting_;
    SetStallQueues stalls_;
    /**
     * Recalls completed by a racing PUTX still owe us a stale
     * RecallAckNoData from the old owner (its ack and our WbAck cross);
     * absorb them when they arrive.
     */
    std::unordered_map<Addr, int> staleRecallAcks_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_MESI_MESI_L2_HH
