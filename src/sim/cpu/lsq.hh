/**
 * @file
 * Store queue (the SQ half of the LSQ).
 *
 * Stores enter the queue in program order at dispatch (so loads can
 * forward from them as soon as their data is known) and become eligible
 * to drain once retired -- a post-commit store buffer, which is exactly
 * the structure that gives rise to TSO. Draining is FIFO; the
 * SQ+no-FIFO bug (§5.3) instead picks a random retired entry, breaking
 * write-to-write order.
 */

#ifndef MCVERSI_SIM_CPU_LSQ_HH
#define MCVERSI_SIM_CPU_LSQ_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace mcversi::sim {

/** Post-commit store buffer with forwarding. */
class StoreQueue
{
  public:
    struct Entry
    {
        std::size_t slot; ///< program slot of the store
        Addr addr;
        WriteVal value;
        bool retired = false;
        bool inFlight = false;
    };

    explicit StoreQueue(std::size_t capacity) : capacity_(capacity) {}

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Dispatch a store (program order). */
    void
    push(std::size_t slot, Addr addr, WriteVal value)
    {
        // Sized once, by the first store rather than the constructor;
        // clear() and pop() keep the capacity.
        if (entries_.capacity() == 0)
            entries_.reserve(capacity_);
        entries_.push_back(Entry{slot, addr, value, false, false});
    }

    /** Mark the store of @p slot as retired (drain-eligible). */
    void
    retire(std::size_t slot)
    {
        for (Entry &e : entries_) {
            if (e.slot == slot) {
                e.retired = true;
                return;
            }
        }
    }

    /**
     * Youngest entry older than @p before_slot matching @p addr, for
     * store-to-load forwarding. Returns the forwarded value.
     */
    std::optional<WriteVal>
    forward(Addr addr, std::size_t before_slot) const
    {
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            if (it->slot < before_slot && it->addr == addr)
                return it->value;
        }
        return std::nullopt;
    }

    /**
     * Pick the next entry to drain, honouring FIFO order unless
     * @p fifo is false (the SQ+no-FIFO bug), in which case any retired
     * entry may drain. Returns nullptr if nothing is eligible.
     */
    Entry *
    drainCandidate(bool fifo, Rng &rng)
    {
        if (entries_.empty())
            return nullptr;
        if (fifo) {
            Entry &head = entries_.front();
            return (head.retired && !head.inFlight) ? &head : nullptr;
        }
        // Out-of-order drain: uniform choice among retired entries.
        std::size_t eligible = 0;
        for (const Entry &e : entries_)
            if (e.retired && !e.inFlight)
                ++eligible;
        if (eligible == 0)
            return nullptr;
        std::size_t pick = static_cast<std::size_t>(rng.below(eligible));
        for (Entry &e : entries_) {
            if (e.retired && !e.inFlight) {
                if (pick == 0)
                    return &e;
                --pick;
            }
        }
        return nullptr;
    }

    /** Remove the (drained) entry for @p slot. */
    void
    pop(std::size_t slot)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->slot == slot) {
                entries_.erase(it);
                return;
            }
        }
    }

    /** True once every entry has retired and drained. */
    bool
    drained() const
    {
        return entries_.empty();
    }

    /**
     * True if any retired (drain-eligible) entry remains. An RMW at the
     * head of the ROB must wait for these (x86 lock semantics), but NOT
     * for younger, unretired stores dispatched behind it.
     */
    bool
    hasRetiredEntries() const
    {
        for (const Entry &e : entries_)
            if (e.retired)
                return true;
        return false;
    }

    void clear() { entries_.clear(); }

  private:
    std::size_t capacity_;
    std::vector<Entry> entries_; ///< oldest first
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_CPU_LSQ_HH
