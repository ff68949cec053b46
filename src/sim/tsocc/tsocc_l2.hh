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

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/rng.hh"
#include "sim/cache_array.hh"
#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/network.hh"
#include "sim/stall_queues.hh"
#include "sim/transition_table.hh"

namespace mcversi::sim {

/** Shared L2 tile for the TSO-CC protocol. */
class TsoccL2 : public MsgHandler
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
            Network &net, TransitionCoverage &cov, Rng rng);

    void handleMsg(const Msg &msg) override;
    void resetAll();
    State lineState(Addr line);

    /** Requests parked until their set has a victim. */
    const SetStallQueues &stalls() const { return stalls_; }

    /** One-line state histogram for deadlock diagnosis. */
    std::string debugSummary();

  private:
    struct EvictBuf
    {
        Pid owner = kInitPid;
        bool done = false;
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

    bool serving(Addr line);
    void drain(Addr line);
    void serveRequest(const Msg &msg);
    /** Allocate and fetch @p line, or park @p msg if the set is full. */
    void startFetch(Addr line, Pid c, bool exclusive, const Msg &msg);
    /** Replacement candidates: the stable states. */
    static bool evictable(const CacheEntry &e);
    bool evictVictim(Addr line);
    /** Re-serve @p line's set's parked requests (it gained a victim). */
    void wake(Addr line);
    void doReplacement(CacheEntry &entry);

    /** Send data (with metadata) for a completed GETS / GETX. */
    void grant(CacheEntry &entry, Pid c, bool exclusive);
    /** Owner data arrived while O_R / O_I: finish the transaction. */
    void finishRecall(CacheEntry *entry, Addr line, const Msg &msg);

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
    /** Stale owner recall acks still in flight after a PUTX race. */
    std::unordered_map<Addr, int> staleRecallAcks_;
    /**
     * Directory timestamp metadata, persisted across L2 evictions (the
     * TSO-CC paper keeps timestamps in the directory). Guarantees the
     * invariant: a line without metadata has never been written, so
     * readers need no conservative self-invalidation for it.
     */
    std::unordered_map<Addr, TsMeta> metaStore_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_TSOCC_TSOCC_L2_HH
