/**
 * @file
 * Protocol-independent core of a shared L2 tile (directory) controller.
 *
 * The L2 counterpart of L1Controller: the cache array, the eviction
 * side buffer, outbound and delayed messages, memory writebacks, the
 * per-line queue of requests waiting out a transaction, memory fetches
 * that park on their set's stall queue when no stable victim exists
 * (stall-and-wake), and the bookkeeping of owner recall acks that a
 * racing PUTX made stale. A protocol derives from L2Controller and
 * supplies its state machine through the hooks below. Every protocol
 * numbers its NP (not present) state 0.
 */

#ifndef MCVERSI_SIM_L2_CONTROLLER_HH
#define MCVERSI_SIM_L2_CONTROLLER_HH

#include <string>

#include "sim/cache_array.hh"
#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/fifo.hh"
#include "sim/line_table.hh"
#include "sim/network.hh"
#include "sim/stall_queues.hh"
#include "sim/transition_table.hh"

namespace mcversi::sim {

/** Shared core of the L2 tile controllers. */
class L2Controller : public MsgHandler
{
  public:
    // The event queue and the network hold the controller's address.
    L2Controller(const L2Controller &) = delete;
    L2Controller &operator=(const L2Controller &) = delete;

    /** Host-assisted reset (quiescence only). */
    virtual void resetAll();

    /** Requests parked until their set has a victim. */
    const SetStallQueues &stalls() const { return stalls_; }

    /** Controller name, as in its transition table. */
    const std::string &name() const { return table_.controller(); }

  protected:
    /** Eviction side buffer entry (TBE); the array way is already free. */
    struct EvictBuf
    {
        std::uint8_t state = 0;
        LineData data{};
        bool dirty = false;
        bool grantedClean = false;
        int acksLeft = 0;
        bool ownerGone = false; ///< the recalled owner's ack arrived
        Pid owner = kInitPid;
    };

    /**
     * @param fetch_shared state of a line fetched from memory for a GETS
     * @param fetch_exclusive state of a line fetched for a GETX
     */
    L2Controller(int tile, const SystemConfig &cfg, EventQueue &eq,
                 Network &net, TransitionTable table,
                 std::uint8_t fetch_shared, std::uint8_t fetch_exclusive);

    /** Serve a request whose line may be in any state. */
    virtual void serveRequest(const Msg &msg) = 0;
    /** True for the stable states that serve requests and may be evicted. */
    virtual bool stable(std::uint8_t state) const = 0;
    /** Evict @p entry, a stable line, and free its way. */
    virtual void doReplacement(CacheEntry &entry) = 0;

    /** State of @p line: side buffer first, then the array, else 0 (NP). */
    std::uint8_t stateOf(Addr line);

    void
    send(MsgType t, Addr line, NodeId dst, Vnet vnet)
    {
        net_.send(&buildMsg(t, line, dst, vnet, [](Msg &) {}));
    }

    /** Send a message whose payload @p fill writes. */
    template <typename Fill>
    void
    send(MsgType t, Addr line, NodeId dst, Vnet vnet, Fill &&fill)
    {
        net_.send(&buildMsg(t, line, dst, vnet, fill));
    }

    /**
     * Delayed send: the message is built now and injected @p delta
     * ticks from now; latency, FIFO order and the jitter draw happen at
     * injection time, inside the NetSend event.
     */
    template <typename Fill>
    void
    sendAfter(Tick delta, MsgType t, Addr line, NodeId dst, Vnet vnet,
              Fill &&fill)
    {
        eq_.scheduleNetSend(eq_.now() + delta, &net_,
                            &buildMsg(t, line, dst, vnet, fill));
    }

    void memWrite(Addr line, const LineData &data);

    /** True if @p line is absent or stable, i.e. serves new requests. */
    bool serving(Addr line);
    /** Queue @p msg behind its line's transaction; true if it had to. */
    bool waitUnlessServing(const Msg &msg);
    /** Serve @p line's queued requests while the line is serving. */
    void drain(Addr line);

    /**
     * Allocate @p request's line (evicting a stable victim if needed)
     * and fetch it from memory, or park @p request on the set's stall
     * queue if no victim exists.
     */
    void startFetch(const Msg &request, bool exclusive);
    /** Re-serve @p line's set's parked requests (it gained a victim). */
    void wake(Addr line);

    /**
     * The recalled owner's PUTX completes an eviction or recall: ack it.
     * Unless @p recall_acked, the owner's recall ack is still in flight
     * (it crosses our WbAck) and absorbStaleRecallAck() takes it later.
     */
    void ackRecalledPutx(Addr line, Pid owner, bool recall_acked);
    /**
     * Absorb @p msg if it is such a stale RecallAckNoData, recording
     * (NP, @p event); false if it is not.
     */
    bool absorbStaleRecallAck(const Msg &msg, int event);

    int tile_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    Network &net_;
    TransitionTable table_;

    CacheArray array_;
    LineTable<EvictBuf> evict_;
    /** Requests waiting out their line's transaction. */
    LineTable<Fifo<Msg>> waiting_;

  private:
    /** Stage a pool-owned outbound message and let @p fill populate it. */
    template <typename Fill>
    Msg &
    buildMsg(MsgType t, Addr line, NodeId dst, Vnet vnet, Fill &&fill)
    {
        Msg &msg = net_.stage();
        msg.type = t;
        msg.line = line;
        msg.src = l2Node(tile_);
        msg.dst = dst;
        msg.vnet = vnet;
        fill(msg);
        return msg;
    }

    std::uint8_t fetchShared_;
    std::uint8_t fetchExclusive_;
    SetStallQueues stalls_;
    /** Stale owner recall acks still in flight, per line. */
    LineTable<int> staleRecallAcks_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_L2_CONTROLLER_HH
