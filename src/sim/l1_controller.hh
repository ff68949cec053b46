/**
 * @file
 * Protocol-independent core of a private L1 cache controller.
 *
 * As in gem5 Ruby, where message buffers, TBEs and stall/recycle logic
 * are written once and a protocol file defines only transitions, the
 * plumbing every L1 protocol needs lives here: the cache array, the
 * per-line queue of core requests, the writeback side buffer, outbound
 * messages, core responses and LQ notifications, and miss allocation
 * with its retry. A protocol derives from L1Controller and supplies its
 * state machine through the hooks below. Every protocol numbers its
 * I (absent) state 0.
 */

#ifndef MCVERSI_SIM_L1_CONTROLLER_HH
#define MCVERSI_SIM_L1_CONTROLLER_HH

#include <optional>

#include "common/addr_table.hh"
#include "sim/cache_array.hh"
#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/fifo.hh"
#include "sim/network.hh"
#include "sim/ports.hh"
#include "sim/transition_table.hh"

namespace mcversi::sim {

/** Shared core of the private L1 controllers. */
class L1Controller : public L1Cache, public MsgHandler
{
  public:
    // The event queue and the network hold the controller's address.
    L1Controller(const L1Controller &) = delete;
    L1Controller &operator=(const L1Controller &) = delete;

    void setHooks(CoreHooks hooks) override { hooks_ = std::move(hooks); }

    // Core interface: every request joins its line's queue, and
    // processPending acts on the head against the current state.
    void coreLoad(ReqId id, Addr addr) override;
    void coreStore(ReqId id, Addr addr, WriteVal value) override;
    void coreRmw(ReqId id, Addr addr, WriteVal value) override;
    void coreFlush(ReqId id, Addr addr) override;

    void resetAll() override;

  protected:
    /** A core request queued on a line. */
    struct PendingReq
    {
        enum class Kind { Load, Store, Rmw, Flush } kind;
        ReqId id;
        Addr addr;
        WriteVal value; // store / RMW new value
    };

    /** Writeback side buffer entry (TBE); the array way is already free. */
    struct EvictBuf
    {
        std::uint8_t state = 0;
        LineData data{};
        bool dirty = false;
        bool flushPending = false;
        ReqId flushReq = 0;
    };

    /**
     * @param fetch_shared state of a line whose GETS is outstanding
     * @param fetch_exclusive state of a line whose GETX is outstanding
     */
    L1Controller(Pid pid, const SystemConfig &cfg, EventQueue &eq,
                 Network &net, TransitionTable table,
                 std::uint8_t fetch_shared, std::uint8_t fetch_exclusive);

    /** Act on the head of @p line's queue until it must wait. */
    virtual void processPending(Addr line) = 0;
    /** True for the stable states a victim may be evicted from. */
    virtual bool stable(std::uint8_t state) const = 0;
    /** Evict @p entry, a stable line, and free its way. */
    virtual void doReplacement(CacheEntry &entry) = 0;

    /** State of @p line: side buffer first, then the array, else 0 (I). */
    std::uint8_t stateOf(Addr line);

    NodeId home(Addr line) const { return l2Node(cfg_.homeTile(line)); }

    void
    send(MsgType t, Addr line, NodeId dst, Vnet vnet)
    {
        send(t, line, dst, vnet, [](Msg &) {});
    }

    /** Send a message whose payload @p fill writes. */
    template <typename Fill>
    void
    send(MsgType t, Addr line, NodeId dst, Vnet vnet, Fill &&fill)
    {
        Msg &msg = net_.stage();
        msg.type = t;
        msg.line = line;
        msg.src = coreNode(pid_);
        msg.dst = dst;
        msg.vnet = vnet;
        msg.requester = pid_;
        fill(msg);
        net_.send(&msg);
    }

    /** Answer core request @p id after @p latency ticks. */
    void respond(ReqId id, WriteVal value, WriteVal overwritten,
                 Tick latency, bool inv_in_flight = false);
    /** Forward an invalidation of @p line to the load queue. */
    void notifyLq(Addr line);

    /**
     * Begin a miss: allocate a way (evicting a stable victim if needed)
     * and request the line. If the set has no stable victim, retry
     * processPending in 16 ticks.
     */
    void startMiss(Addr line, bool exclusive);

    /**
     * Park @p entry's data in the writeback buffer in @p state, send the
     * PUTX and free the way. A flush, if @p flush_req is given, is
     * answered when the writeback retires.
     */
    void writeBack(CacheEntry &entry, std::uint8_t state, bool dirty,
                   std::optional<ReqId> flush_req = std::nullopt);

    /**
     * Answer every load queued on @p line from one fill's @p data, with
     * @p flagged as the invalidated-in-flight flag, and dequeue them.
     */
    void answerQueuedLoads(Addr line, const LineData &data, bool flagged);

    /**
     * @p line's writeback was acked (or nacked): free the buffer,
     * answer a pending flush, and resume the line's queue.
     */
    void retireWriteback(Addr line);

    Pid pid_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    Network &net_;
    TransitionTable table_;
    CoreHooks hooks_;

    CacheArray array_;
    AddrTable<EvictBuf> evict_;
    AddrTable<Fifo<PendingReq>> pending_;

  private:
    void request(const PendingReq &req);

    std::uint8_t fetchShared_;
    std::uint8_t fetchExclusive_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_L1_CONTROLLER_HH
