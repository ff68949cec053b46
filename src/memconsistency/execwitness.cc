#include "memconsistency/execwitness.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace mcversi::mc {

const std::vector<EventId> ExecWitness::emptyThread_{};

namespace {

/** Total per-thread event order: program order, id as tie-break. */
struct PoKey
{
    std::int32_t poi;
    std::uint8_t sub;
    EventId id;

    friend auto operator<=>(const PoKey &, const PoKey &) = default;
};

} // namespace

AddrId
ExecWitness::internAddr(Addr addr)
{
    AddrEntry &entry = addrs_[addr];
    if (entry.id < 0) // Just inserted: the next id in first-touch order.
        entry.id = static_cast<AddrId>(addrs_.size() - 1);
    return entry.id;
}

EventId
ExecWitness::addEvent(const Event &ev)
{
    if (window_ != 0) {
        // Ring mode: overwrite the slot of the event evicted W ids ago.
        // None of the finalize-supporting structures are maintained --
        // the stream's checker is the consumer, the ring is only for
        // post-hoc diagnostics over the retained tail.
        assert(!ev.isInit());
        const auto id = static_cast<EventId>(recorded_++);
        const std::size_t slot = static_cast<std::size_t>(id) % window_;
        const AddrId aid =
            ev.addr == kNoAddr ? AddrId{-1} : internAddr(ev.addr);
        if (slot < events_.size()) {
            events_[slot] = ev;
            addrIdOf_[slot] = aid;
        } else {
            events_.push_back(ev);
            addrIdOf_.push_back(aid);
        }
        return id;
    }

    const EventId id = static_cast<EventId>(events_.size());
    events_.push_back(ev);
    addrIdOf_.push_back(ev.addr == kNoAddr ? AddrId{-1}
                                           : internAddr(ev.addr));
    // The dense conflict-order arrays grow with the events; finalize()
    // fills them in.
    rfSrc_.push_back(kNoEvent);
    coSucc_.push_back(kNoEvent);
    coPred_.push_back(kNoEvent);
    if (ev.isInit())
        return id;

    if (static_cast<std::size_t>(ev.iiid.pid) >= perThread_.size())
        perThread_.resize(static_cast<std::size_t>(ev.iiid.pid) + 1);
    auto &vec = perThread_[static_cast<std::size_t>(ev.iiid.pid)];
    if (vec.empty()) {
        threadIds_.insert(std::lower_bound(threadIds_.begin(),
                                           threadIds_.end(),
                                           ev.iiid.pid),
                          ev.iiid.pid);
    }
    // Events may be recorded out of program order: stores are recorded
    // when they serialize, which can be after younger loads retired.
    // Walk back from the tail to the event's (poi, sub, id) position; a
    // late store passes at most a store queue's depth of events.
    const PoKey key{ev.iiid.poi, ev.sub, id};
    auto pos = vec.end();
    while (pos != vec.begin()) {
        const EventId prev = *(pos - 1);
        const Event &pe = events_[static_cast<std::size_t>(prev)];
        if (PoKey{pe.iiid.poi, pe.sub, prev} < key)
            break;
        --pos;
    }
    vec.insert(pos, id);
    return id;
}

EventId
ExecWitness::getOrCreateInit(Addr addr)
{
    if (const EventId init = initEvent(addr); init != kNoEvent)
        return init;
    Event ev;
    ev.iiid = Iiid{kInitPid, -1};
    ev.type = EventType::Write;
    ev.addr = addr;
    ev.value = kInitVal;
    const EventId id = addEvent(ev);
    // Look the entry up again: interning in addEvent() may have grown
    // the table.
    addrs_.find(addr)->init = id;
    return id;
}

void
ExecWitness::flagAnomaly(WitnessAnomaly kind, std::string info)
{
    // Keep the first anomaly; later ones are usually fallout.
    if (anomaly_ == WitnessAnomaly::None) {
        anomaly_ = kind;
        anomalyInfo_ = std::move(info);
    }
}

EventId
ExecWitness::recordRead(Pid pid, std::int32_t poi, Addr addr,
                        WriteVal value, bool rmw)
{
    assert(!finalized_ && "witness already finalized");
    Event ev;
    ev.iiid = Iiid{pid, poi};
    ev.type = EventType::Read;
    ev.addr = addr;
    ev.value = value;
    ev.rmw = rmw;
    ev.sub = 0;
    const EventId id = addEvent(ev);
    if (window_ != 0) {
        const std::size_t slot = static_cast<std::size_t>(id) % window_;
        if (slot < overwrittenOf_.size())
            overwrittenOf_[slot] = kInitVal;
        else
            overwrittenOf_.push_back(kInitVal);
    } else if (rmw) {
        pendingRmwReads_.emplace_back(Iiid{pid, poi}, id);
    }
    if (sink_)
        sink_->onRecord(*this, id, kInitVal);
    return id;
}

EventId
ExecWitness::recordWrite(Pid pid, std::int32_t poi, Addr addr,
                         WriteVal value, WriteVal overwritten, bool rmw)
{
    assert(!finalized_ && "witness already finalized");
    Event ev;
    ev.iiid = Iiid{pid, poi};
    ev.type = EventType::Write;
    ev.addr = addr;
    ev.value = value;
    ev.rmw = rmw;
    ev.sub = 1;
    const EventId id = addEvent(ev);
    if (window_ != 0) {
        const std::size_t slot = static_cast<std::size_t>(id) % window_;
        if (slot < overwrittenOf_.size())
            overwrittenOf_[slot] = overwritten;
        else
            overwrittenOf_.push_back(overwritten);
        if (sink_)
            sink_->onRecord(*this, id, overwritten);
        return id;
    }
    valueToWriter_.emplace_back(value, id);
    writersSorted_ = false;
    overwrittenBy_.emplace_back(id, overwritten);

    if (rmw) {
        const Iiid iiid{pid, poi};
        const auto it = std::find_if(
            pendingRmwReads_.begin(), pendingRmwReads_.end(),
            [&iiid](const auto &entry) { return entry.first == iiid; });
        if (it != pendingRmwReads_.end()) {
            rmwPairs_.emplace_back(it->second, id);
            pendingRmwReads_.erase(it);
        }
    }
    if (sink_)
        sink_->onRecord(*this, id, overwritten);
    return id;
}

EventId
ExecWitness::resolveWriter(Addr addr, WriteVal value, bool &unknown)
{
    unknown = false;
    if (value == kInitVal)
        return getOrCreateInit(addr);
    assert(writersSorted_);
    const auto pos = std::lower_bound(
        valueToWriter_.begin(), valueToWriter_.end(), value,
        [](const auto &entry, WriteVal v) { return entry.first < v; });
    if (pos == valueToWriter_.end() || pos->first != value) {
        unknown = true;
        return kNoEvent;
    }
    return pos->second;
}

void
ExecWitness::replayRetainedInto(ExecWitness &dst) const
{
    assert(window_ != 0);
    assert(dst.window() == 0 && dst.eventSink() == nullptr);
    dst.reset();
    const std::uint64_t first =
        recorded_ > window_ ? recorded_ - window_ : 0;
    for (std::uint64_t id = first; id < recorded_; ++id) {
        const std::size_t slot = static_cast<std::size_t>(id) % window_;
        const Event &ev = events_[slot];
        if (ev.isRead()) {
            dst.recordRead(ev.iiid.pid, ev.iiid.poi, ev.addr, ev.value,
                           ev.rmw);
        } else {
            dst.recordWrite(ev.iiid.pid, ev.iiid.poi, ev.addr, ev.value,
                            overwrittenOf_[slot], ev.rmw);
        }
    }
}

void
ExecWitness::finalize()
{
    if (finalized_)
        return;
    if (window_ != 0) {
        throw std::logic_error(
            "ExecWitness: a windowed (ring-buffer) witness cannot "
            "finalize; replay the retained window into a full-mode "
            "witness instead");
    }
    finalized_ = true;

    // Write values are globally unique, so one sort turns the recorded
    // (value, writer) log into a binary-searchable index.
    std::sort(valueToWriter_.begin(), valueToWriter_.end());
    writersSorted_ = true;

    // Resolve read-from. All writes are recorded by now (the system is
    // quiescent when the host verifies), so an unknown value is a real
    // anomaly (data fabrication / corruption), not a race with
    // recording. Init events created during resolution append to
    // events_ and the dense arrays; iterate the pre-finalize snapshot.
    // NOTE: resolveWriter() can append init events (reallocating
    // events_), so no reference into events_ may be held across it --
    // copy the fields it needs first and re-index afterwards.
    const std::size_t num_events = events_.size();
    for (std::size_t i = 0; i < num_events; ++i) {
        if (!events_[i].isRead())
            continue;
        const Addr addr = events_[i].addr;
        const WriteVal value = events_[i].value;
        bool unknown = false;
        const EventId writer = resolveWriter(addr, value, unknown);
        if (unknown) {
            std::ostringstream os;
            os << "read of unknown value: " << events_[i].toString();
            flagAnomaly(WitnessAnomaly::UnknownValue, os.str());
            continue;
        }
        rfSrc_[i] = writer;
    }

    // Resolve immediate coherence edges from overwritten values.
    for (const auto &[w, overwritten] : overwrittenBy_) {
        const Addr addr = events_[static_cast<std::size_t>(w)].addr;
        bool unknown = false;
        const EventId prev = resolveWriter(addr, overwritten, unknown);
        const auto event_str = [this](EventId e) {
            return events_[static_cast<std::size_t>(e)].toString();
        };
        if (unknown) {
            std::ostringstream os;
            os << "write overwrote unknown value " << overwritten << ": "
               << event_str(w);
            flagAnomaly(WitnessAnomaly::UnknownValue, os.str());
            continue;
        }
        const EventId claimed = coSucc_[static_cast<std::size_t>(prev)];
        if (claimed != kNoEvent) {
            std::ostringstream os;
            os << "co fork: " << event_str(w) << " and "
               << event_str(claimed) << " both overwrite "
               << event_str(prev);
            flagAnomaly(WitnessAnomaly::CoFork, os.str());
        } else {
            coSucc_[static_cast<std::size_t>(prev)] = w;
        }
        coPred_[static_cast<std::size_t>(w)] = prev;
    }
}

const std::vector<EventId> &
ExecWitness::threadEvents(Pid pid) const
{
    if (pid < 0 || static_cast<std::size_t>(pid) >= perThread_.size())
        return emptyThread_;
    return perThread_[static_cast<std::size_t>(pid)];
}

EventId
ExecWitness::coSuccessor(EventId w) const
{
    assert(finalized_);
    return coSucc_[static_cast<std::size_t>(w)];
}

EventId
ExecWitness::coPredecessor(EventId w) const
{
    assert(finalized_);
    return coPred_[static_cast<std::size_t>(w)];
}

EventId
ExecWitness::rfSource(EventId r) const
{
    assert(finalized_);
    return rfSrc_[static_cast<std::size_t>(r)];
}

EventId
ExecWitness::initEvent(Addr addr) const
{
    const AddrEntry *entry = addrs_.find(addr);
    return entry ? entry->init : kNoEvent;
}

void
ExecWitness::reset()
{
    // Every container is cleared, never shrunk: the steady state of a
    // test-run (same test, many iterations) reuses all capacity.
    events_.clear();
    for (auto &vec : perThread_)
        vec.clear();
    threadIds_.clear();
    valueToWriter_.clear();
    writersSorted_ = false;
    addrs_.clear();
    addrIdOf_.clear();
    coSucc_.clear();
    coPred_.clear();
    rfSrc_.clear();
    overwrittenBy_.clear();
    pendingRmwReads_.clear();
    rmwPairs_.clear();
    anomaly_ = WitnessAnomaly::None;
    anomalyInfo_.clear();
    finalized_ = false;
    // window_ survives (like sink_); the ring restarts empty.
    recorded_ = 0;
    overwrittenOf_.clear();
}

} // namespace mcversi::mc
