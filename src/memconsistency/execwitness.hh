/**
 * @file
 * The candidate execution object (§4.1).
 *
 * A pre-silicon environment can observe all conflict orders directly, so
 * the witness records exact rf (read-from) and co (coherence order)
 * during execution, without enumeration or approximation:
 *
 *  - every dynamic store writes a globally unique value (its "write ID"),
 *    so the value a read returns identifies the producing write;
 *  - every store also reports the value it overwrote, which identifies
 *    its immediate co-predecessor.
 *
 * Initial memory contents (value kInitVal) map to per-address init write
 * events created on first use.
 *
 * Recording also performs two well-formedness checks that catch data-loss
 * bugs directly: a read of a value that was never written, and two stores
 * claiming to overwrite the same value (a fork in what must be a total
 * per-address coherence chain, e.g. after a lost writeback).
 *
 * The witness sits on the verification hot path (it is rebuilt for every
 * iteration of every test-run), so its bookkeeping is O(1) amortised per
 * event on both the record path and in finalize(): per-event lookup
 * structures are dense EventId-indexed vectors, one flat AddrTable maps
 * each address to its dense id and init event, and each event enters
 * its thread's list at its program-order position when it is recorded
 * (stores arrive at most a store queue's depth late, so the walk back
 * from the tail is short). reset() preserves every buffer's capacity so
 * steady-state iterations are allocation-free.
 *
 * Windowed (sink-only) mode: setWindow(W) turns recording into a ring
 * buffer of the last W events, for soak runs where a streaming checker
 * consumes each event as it is recorded and the O(trace) event log
 * would otherwise dominate memory. Only the per-event ring and the
 * address table are maintained -- per-thread lists, the value index,
 * the overwrite log, and RMW pairing are all skipped, so a windowed
 * witness can never finalize() (it throws). The retained window exists
 * purely for violation diagnostics: replayRetainedInto() re-records it
 * into a scratch full-mode witness for post-hoc analysis, and
 * droppedEvents()/eventRetained() let the checker report honestly when
 * the ring has evicted part of a cycle.
 */

#ifndef MCVERSI_MEMCONSISTENCY_EXECWITNESS_HH
#define MCVERSI_MEMCONSISTENCY_EXECWITNESS_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/addr_table.hh"
#include "memconsistency/event.hh"

namespace mcversi::mc {

/** Kinds of recording-time anomaly. */
enum class WitnessAnomaly : std::uint8_t {
    None,
    /** A read returned a value no write ever produced. */
    UnknownValue,
    /** Two writes overwrote the same value: co is not a total order. */
    CoFork,
};

/** Dense identifier of a distinct address within one ExecWitness. */
using AddrId = std::int32_t;

class ExecWitness;

/**
 * Observer of the recording path: invoked once per recorded event,
 * immediately after the event is appended (streaming checkers consume
 * the execution as it happens instead of waiting for finalize()).
 * Init events are created during finalize() and never reach the sink.
 */
class WitnessEventSink
{
  public:
    virtual ~WitnessEventSink() = default;

    /**
     * @param ew          the witness the event was recorded into
     * @param id          id of the freshly recorded event
     * @param overwritten value the write replaced (kInitVal for reads)
     */
    virtual void onRecord(const ExecWitness &ew, EventId id,
                          WriteVal overwritten) = 0;
};

/** One candidate execution: events plus observed po / rf / co. */
class ExecWitness
{
  public:
    /**
     * Record a committed read.
     *
     * @param pid   issuing thread
     * @param poi   program-order index of the instruction in its thread
     * @param addr  address read
     * @param value value observed
     * @param rmw   true if part of an atomic RMW pair
     * @return id of the new event
     */
    EventId recordRead(Pid pid, std::int32_t poi, Addr addr, WriteVal value,
                       bool rmw = false);

    /**
     * Record a committed (serialized) write.
     *
     * @param value       unique value written (never kInitVal)
     * @param overwritten value the write replaced in memory order
     */
    EventId recordWrite(Pid pid, std::int32_t poi, Addr addr, WriteVal value,
                        WriteVal overwritten, bool rmw = false);

    /**
     * Resolve conflict orders from the recorded values. Must be called
     * once recording is complete (at quiescence: a store-forwarded read
     * can be recorded before its producing write serializes, so
     * resolution cannot happen at record time). Idempotent.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /**
     * Record into a ring of the last @p events events (0 = unbounded,
     * the default). Must be set before the first record of a stream;
     * survives reset(). See the file comment for what windowed mode
     * does NOT maintain.
     */
    void
    setWindow(std::size_t events)
    {
        assert(events_.empty() && "cannot change window mid-recording");
        window_ = events;
    }

    std::size_t window() const { return window_; }

    /** Events evicted from the ring so far (0 when unbounded). */
    std::uint64_t
    droppedEvents() const
    {
        return window_ == 0 || recorded_ <= window_ ? 0
                                                    : recorded_ - window_;
    }

    /** True when @p id is still addressable via event()/addrId(). */
    bool
    eventRetained(EventId id) const
    {
        return window_ == 0 ||
               static_cast<std::uint64_t>(id) + window_ >= recorded_;
    }

    /**
     * Re-record the retained window into @p dst (a full-mode scratch
     * witness with no sink), in record order, so the post-hoc pipeline
     * can run over it. When droppedEvents() == 0 this reproduces the
     * whole stream byte-identically.
     */
    void replayRetainedInto(ExecWitness &dst) const;

    const Event &event(EventId id) const
    {
        assert(eventRetained(id));
        return events_[window_ == 0
                           ? static_cast<std::size_t>(id)
                           : static_cast<std::size_t>(id) % window_];
    }
    /** Raw event storage: ring-ordered (not id-ordered) when windowed. */
    const std::vector<Event> &events() const { return events_; }
    /** Events recorded (logical count, including evicted ones). */
    std::size_t
    numEvents() const
    {
        return window_ == 0 ? events_.size()
                            : static_cast<std::size_t>(recorded_);
    }

    /** Per-thread events in program order. */
    const std::vector<EventId> &threadEvents(Pid pid) const;

    /** All thread ids with at least one event, ascending. */
    const std::vector<Pid> &threads() const { return threadIds_; }

    /** Immediate co successor of write @p w, or kNoEvent. */
    EventId coSuccessor(EventId w) const;

    /** Immediate co predecessor of write @p w, or kNoEvent. */
    EventId coPredecessor(EventId w) const;

    /** Producing write of read @p r, or kNoEvent. */
    EventId rfSource(EventId r) const;

    /** Init event for @p addr, or kNoEvent if never referenced. */
    EventId initEvent(Addr addr) const;

    /**
     * Dense id of @p e's address within this witness (ids are assigned
     * in first-touch order; see numAddrs()). Lets the checker keep
     * per-address state in flat arrays instead of hash maps.
     */
    AddrId addrId(EventId e) const
    {
        assert(eventRetained(e));
        return addrIdOf_[window_ == 0
                             ? static_cast<std::size_t>(e)
                             : static_cast<std::size_t>(e) % window_];
    }

    /** Number of distinct addresses referenced by recorded events. */
    std::size_t numAddrs() const { return addrs_.size(); }

    WitnessAnomaly anomaly() const { return anomaly_; }
    const std::string &anomalyInfo() const { return anomalyInfo_; }

    /** All events that form atomic RMW pairs: (read, write). */
    const std::vector<std::pair<EventId, EventId>> &rmwPairs() const
    {
        return rmwPairs_;
    }

    /**
     * Recorded (write event, overwritten value) pairs, one per
     * recordWrite() in record order (streaming replay).
     */
    const std::vector<std::pair<EventId, WriteVal>> &overwrites() const
    {
        return overwrittenBy_;
    }

    /**
     * Attach an observer of the recording path (nullptr to detach).
     * Deliberately NOT cleared by reset(): the sink outlives
     * iterations; callers re-arm its per-stream state instead.
     */
    void setEventSink(WitnessEventSink *sink) { sink_ = sink; }
    WitnessEventSink *eventSink() const { return sink_; }

    /**
     * Clear all recorded state (events and conflict orders), keeping
     * every buffer's capacity for the next iteration.
     */
    void reset();

  private:
    EventId addEvent(const Event &ev);
    /** Resolve @p value at @p addr to its producing write event. */
    EventId resolveWriter(Addr addr, WriteVal value, bool &unknown);
    EventId getOrCreateInit(Addr addr);
    AddrId internAddr(Addr addr);
    void flagAnomaly(WitnessAnomaly kind, std::string info);

    /** Per-address index entry: dense id and init event. */
    struct AddrEntry
    {
        AddrId id = -1;
        EventId init = kNoEvent;
    };

    std::vector<Event> events_;
    /**
     * Per-thread event lists, indexed directly by Pid, each kept in
     * (poi, sub, id) order as events arrive.
     */
    std::vector<std::vector<EventId>> perThread_;
    /** Pids with at least one event, kept sorted as events arrive. */
    std::vector<Pid> threadIds_;
    /** (value, writer), sorted by value at finalize() for lookups. */
    std::vector<std::pair<WriteVal, EventId>> valueToWriter_;
    bool writersSorted_ = false;
    /** Every referenced address; ids are assigned in first-touch order. */
    AddrTable<AddrEntry> addrs_;
    /** Per-event dense address id. */
    std::vector<AddrId> addrIdOf_;
    /**
     * Dense per-event conflict-order neighbours, kNoEvent if absent.
     * Grown alongside events_; filled by finalize().
     */
    std::vector<EventId> coSucc_;
    std::vector<EventId> coPred_;
    std::vector<EventId> rfSrc_;
    /** (write event, value it overwrote), resolved at finalize(). */
    std::vector<std::pair<EventId, WriteVal>> overwrittenBy_;
    bool finalized_ = false;
    /** Pending read halves of RMW pairs (few outstanding at a time). */
    std::vector<std::pair<Iiid, EventId>> pendingRmwReads_;
    std::vector<std::pair<EventId, EventId>> rmwPairs_;
    WitnessAnomaly anomaly_ = WitnessAnomaly::None;
    std::string anomalyInfo_;
    /** Recording observer; survives reset() (see setEventSink()). */
    WitnessEventSink *sink_ = nullptr;
    /** Ring size in events; 0 = unbounded. Survives reset(). */
    std::size_t window_ = 0;
    /** Total events recorded this stream (windowed mode only). */
    std::uint64_t recorded_ = 0;
    /** Per-ring-slot overwritten value (windowed replay). */
    std::vector<WriteVal> overwrittenOf_;

    static const std::vector<EventId> emptyThread_;
};

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_EXECWITNESS_HH
