#include "sim/eventq.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "sim/fault.hh"
#include "sim/message.hh"
#include "sim/network.hh"

namespace mcversi::sim {

EventQueue::EventQueue() : pool_(std::make_unique<MsgPool>()) {}

EventQueue::~EventQueue() = default;

void
EventQueue::commit(Tick when, Event &ev)
{
    if (when < now_) {
        if (strictPastScheduling()) {
            reclaim(ev);
            throw std::logic_error(
                "EventQueue: scheduling in the past (when=" +
                std::to_string(when) + " < now=" + std::to_string(now_) +
                "); a protocol latency computation is broken");
        }
        when = now_;
    }
    ev.when = when;
    ev.seq = seq_++;
    ++size_;

    if (when - now_ < static_cast<Tick>(kWheelSize)) {
        const std::size_t b = static_cast<std::size_t>(when) & kWheelMask;
        pushCounted(buckets_[b].items, std::move(ev));
        markOccupied(b);
        return;
    }
    pushCounted(overflow_, std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    std::uint32_t slot;
    if (!thunkFree_.empty()) {
        slot = thunkFree_.back();
        thunkFree_.pop_back();
        thunkSlots_[slot] = std::move(cb);
    } else {
        slot = static_cast<std::uint32_t>(thunkSlots_.size());
        pushCounted(thunkSlots_, std::move(cb));
    }
    Event ev{};
    ev.kind = Kind::Thunk;
    ev.thunk = ThunkPayload{slot};
    commit(when, ev);
}

void
EventQueue::migrateOverflow()
{
    while (!overflow_.empty() &&
           overflow_.front().when - now_ < static_cast<Tick>(kWheelSize)) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        Event ev = overflow_.back();
        overflow_.pop_back();
        const std::size_t b =
            static_cast<std::size_t>(ev.when) & kWheelMask;
        pushCounted(buckets_[b].items, std::move(ev));
        markOccupied(b);
    }
}

bool
EventQueue::nextWheelTick(Tick &out) const
{
    const std::size_t start = static_cast<std::size_t>(now_ + 1) &
                              kWheelMask;
    std::size_t wi = start >> 6;
    std::uint64_t word = occupancy_[wi] &
                         (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= occupancy_.size();
         ++scanned) {
        if (word != 0) {
            const std::size_t bucket =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(word));
            std::size_t delta =
                (bucket - (static_cast<std::size_t>(now_) & kWheelMask)) &
                kWheelMask;
            if (delta == 0)
                delta = kWheelSize; // Defensive; current bucket drained.
            out = now_ + static_cast<Tick>(delta);
            return true;
        }
        wi = (wi + 1) % occupancy_.size();
        word = occupancy_[wi];
    }
    return false;
}

void
EventQueue::dispatch(Event &ev)
{
    switch (ev.kind) {
      case Kind::Thunk: {
        Callback cb = std::move(thunkSlots_[ev.thunk.slot]);
        pushCounted(thunkFree_, std::uint32_t{ev.thunk.slot});
        cb();
        break;
      }
      case Kind::Fn:
        ev.fn.fn(ev.fn.obj, ev.fn.a, ev.fn.b, ev.fn.c, ev.fn.d);
        break;
      case Kind::Deliver: {
        // Release after the handler returns (or throws): the handler
        // may acquire new messages, which must not alias this one.
        struct Guard
        {
            MsgPool *pool;
            Msg *msg;
            ~Guard() { pool->release(msg); }
        } guard{pool_.get(), ev.deliver.msg};
        ev.deliver.handler->handleMsg(*ev.deliver.msg);
        break;
      }
      case Kind::NetSend:
        // Ownership transfers to the network (which re-files the same
        // Msg into the delivery event it schedules).
        ev.netSend.net->send(ev.netSend.msg);
        break;
    }
}

std::uint64_t
EventQueue::runUntilQuiescent(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (size_ > 0) {
        migrateOverflow();
        const std::size_t bi = static_cast<std::size_t>(now_) &
                               kWheelMask;
        Bucket &b = buckets_[bi];
        while (b.head < b.items.size()) {
            if (++n > max_events) {
                throw WatchdogAbort(
                    "EventQueue: exceeded max events; likely protocol "
                    "deadlock/livelock");
            }
            // Copy out: dispatch may append to (and reallocate) this
            // bucket's storage.
            Event ev = b.items[b.head++];
            --size_;
            ++processed_;
            dispatch(ev);
        }
        b.items.clear();
        b.head = 0;
        markEmpty(bi);
        if (size_ == 0)
            break;
        Tick next;
        if (nextWheelTick(next)) {
            now_ = next;
        } else {
            // Wheel empty; the remaining events are all far-future.
            now_ = overflow_.front().when;
        }
    }
    return n;
}

void
EventQueue::reclaim(Event &ev)
{
    switch (ev.kind) {
      case Kind::Thunk:
        thunkSlots_[ev.thunk.slot] = nullptr;
        pushCounted(thunkFree_, std::uint32_t{ev.thunk.slot});
        break;
      case Kind::Deliver:
        pool_->release(ev.deliver.msg);
        break;
      case Kind::NetSend:
        pool_->release(ev.netSend.msg);
        break;
      case Kind::Fn:
        break;
    }
}

void
EventQueue::clearPending()
{
    for (Bucket &b : buckets_) {
        for (std::size_t i = b.head; i < b.items.size(); ++i)
            reclaim(b.items[i]);
        b.items.clear();
        b.head = 0;
    }
    for (Event &ev : overflow_)
        reclaim(ev);
    overflow_.clear();
    occupancy_.fill(0);
    size_ = 0;
}

void
EventQueue::reset()
{
    clearPending();
    now_ = 0;
}

std::uint64_t
EventQueue::structuralAllocations() const
{
    return growths_ + pool_->slabsAllocated();
}

} // namespace mcversi::sim
