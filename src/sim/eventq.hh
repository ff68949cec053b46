/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue orders events by (tick, insertion
 * sequence). Components schedule future work; the queue runs until
 * quiescent (no pending events), which is also how the harness detects
 * the end of a test iteration -- the simulated system has no periodic
 * background activity.
 *
 * Hot-path design (steady-state allocation-free):
 *
 *  - Events are small tagged records, not heap-allocated closures.
 *    The hot kinds are message delivery and delayed network send
 *    (payload = a MsgPool-owned Msg) and a generic
 *    function-pointer-plus-args record covering core wakeups/retries
 *    and cache responses. std::function thunks remain as a cold-path
 *    kind whose slots are recycled from a freelist.
 *  - Scheduling uses a bucketed time wheel: simulated latencies are
 *    small bounded constants, so an event lands in bucket
 *    (tick mod kWheelSize) in O(1); a 1-bit-per-bucket occupancy map
 *    makes finding the next non-empty tick a couple of ctz scans.
 *    Far-future events (>= kWheelSize ticks ahead: memory backoffs,
 *    guest overhead) go to a small binary-heap overflow and migrate
 *    into the wheel as time advances.
 *
 * Determinism contract: events fire in exactly (tick, insertion-seq)
 * order, byte-identical to a binary-heap kernel. Within a bucket,
 * insertion order IS seq order: direct inserts at a fixed now() arrive
 * in increasing seq, and overflow events migrate (in (tick, seq) heap
 * order) the moment now() comes within the wheel horizon -- before any
 * callback at that tick can append to the same bucket. seq_ is never
 * reset (see reset()): only its monotonicity matters, not its absolute
 * value.
 */

#ifndef MCVERSI_SIM_EVENTQ_HH
#define MCVERSI_SIM_EVENTQ_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace mcversi::sim {

struct Msg;
class MsgHandler;
class MsgPool;
class Network;

/** Global simulation event queue. */
class EventQueue
{
  public:
    /** Cold-path generic callback. */
    using Callback = std::function<void()>;

    /**
     * Hot-path typed callback: a free/static trampoline plus an
     * object and up to four integral payload words (enough for a
     * full cache response: id, value, overwritten, flag).
     */
    using EventFn = void (*)(void *obj, std::uint64_t a, std::uint64_t b,
                             std::uint64_t c, std::uint64_t d);

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p cb at absolute tick @p when (cold path). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delta ticks from now (cold path). */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /** Schedule a typed function-pointer event (hot path). */
    void
    scheduleFn(Tick when, EventFn fn, void *obj, std::uint64_t a = 0,
               std::uint64_t b = 0, std::uint64_t c = 0,
               std::uint64_t d = 0)
    {
        Event ev{};
        ev.kind = Kind::Fn;
        ev.fn = FnPayload{fn, obj, a, b, c, d};
        commit(when, ev);
    }

    void
    scheduleFnIn(Tick delta, EventFn fn, void *obj, std::uint64_t a = 0,
                 std::uint64_t b = 0, std::uint64_t c = 0,
                 std::uint64_t d = 0)
    {
        scheduleFn(now_ + delta, fn, obj, a, b, c, d);
    }

    /**
     * Deliver pool-owned @p msg to @p handler at @p when; the queue
     * releases the message back to msgPool() after the handler runs.
     */
    void
    scheduleDeliver(Tick when, MsgHandler *handler, Msg *msg)
    {
        Event ev{};
        ev.kind = Kind::Deliver;
        ev.deliver = DeliverPayload{handler, msg};
        commit(when, ev);
    }

    /**
     * Inject pool-owned @p msg into @p net at @p when (delayed send:
     * network latency, FIFO ordering and the jitter draw all happen at
     * injection time, exactly as if send() were called from a thunk).
     */
    void
    scheduleNetSend(Tick when, Network *net, Msg *msg)
    {
        Event ev{};
        ev.kind = Kind::NetSend;
        ev.netSend = NetSendPayload{net, msg};
        commit(when, ev);
    }

    /** Pool that Deliver/NetSend payloads are acquired from. */
    MsgPool &msgPool() { return *pool_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    bool empty() const { return size_ == 0; }
    std::size_t pending() const { return size_; }

    /**
     * Run until no events remain.
     *
     * @param max_events safety valve against runaway simulations
     *        (deadlock/livelock in a protocol under test); exceeding
     *        it throws WatchdogAbort (sim/fault.hh)
     * @return number of events processed
     */
    std::uint64_t runUntilQuiescent(std::uint64_t max_events = 5000000);

    /** Total events processed over the queue's lifetime. */
    std::uint64_t processed() const { return processed_; }

    /**
     * Drop all pending events and reset time to 0.
     *
     * Deliberately does NOT reset the insertion sequence counter:
     * determinism relies only on seq monotonicity (events at one tick
     * fire in insertion order), never on absolute seq values, so
     * keeping the counter running across iterations is free and avoids
     * any cross-iteration aliasing.
     */
    void reset();

    /**
     * Drop all pending events, keeping the current time. O(pending):
     * buckets and pools retain their capacity across iterations, and
     * dropped Deliver/NetSend payloads return to the message pool.
     */
    void clearPending();

    /**
     * True when scheduling in the past throws instead of clamping
     * (debug and sanitizer builds; release clamps to now()).
     */
    static constexpr bool
    strictPastScheduling()
    {
#if !defined(NDEBUG) || defined(MCVERSI_STRICT_SCHEDULE)
        return true;
#else
        return false;
#endif
    }

    /**
     * Structural allocations performed by the kernel since
     * construction: container capacity growth plus message-pool slab
     * allocations. Flat after warmup -- the zero-allocation property
     * the instrumentation tests pin down.
     */
    std::uint64_t structuralAllocations() const;

  private:
    enum class Kind : std::uint8_t {
        Thunk,   ///< cold: pooled std::function slot
        Fn,      ///< typed trampoline + args
        Deliver, ///< handler->handleMsg(*msg), then release msg
        NetSend, ///< net->send(msg) (delayed injection)
    };

    struct ThunkPayload
    {
        std::uint32_t slot;
    };
    struct FnPayload
    {
        EventFn fn;
        void *obj;
        std::uint64_t a, b, c, d;
    };
    struct DeliverPayload
    {
        MsgHandler *handler;
        Msg *msg;
    };
    struct NetSendPayload
    {
        Network *net;
        Msg *msg;
    };

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Kind kind = Kind::Thunk;
        union {
            ThunkPayload thunk;
            FnPayload fn;
            DeliverPayload deliver;
            NetSendPayload netSend;
        };
    };

    /** Heap order for the overflow list: earliest (when, seq) first. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Bucket
    {
        std::vector<Event> items;
        std::size_t head = 0;
    };

    // Wheel horizon: covers every fixed latency in the system (network
    // <= ~40, L2 access 20, memory 120-230); only exponential replay
    // backoffs and host guest-overhead delays overflow.
    static constexpr std::size_t kWheelBits = 8;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;

    /** Stamp seq, clamp/validate the tick, route to wheel/overflow. */
    void commit(Tick when, Event &ev);

    /** Move overflow events now within the horizon into the wheel. */
    void migrateOverflow();

    /** Release pooled payloads of a dropped (never-run) event. */
    void reclaim(Event &ev);

    void dispatch(Event &ev);

    void
    markOccupied(std::size_t bucket)
    {
        occupancy_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    }

    void
    markEmpty(std::size_t bucket)
    {
        occupancy_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
    }

    /**
     * Earliest occupied wheel tick > now_ (all wheel events live in
     * (now_, now_ + kWheelSize) once the current bucket drained).
     * Returns false if the wheel is empty.
     */
    bool nextWheelTick(Tick &out) const;

    template <typename T>
    void
    pushCounted(std::vector<T> &v, T &&value)
    {
        if (v.size() == v.capacity())
            ++growths_;
        v.push_back(std::move(value));
    }

    std::array<Bucket, kWheelSize> buckets_{};
    std::array<std::uint64_t, kWheelSize / 64> occupancy_{};
    std::vector<Event> overflow_; ///< min-heap on (when, seq)

    std::vector<Callback> thunkSlots_;
    std::vector<std::uint32_t> thunkFree_;

    std::unique_ptr<MsgPool> pool_;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t size_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t growths_ = 0;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_EVENTQ_HH
