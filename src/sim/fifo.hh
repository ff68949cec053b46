/**
 * @file
 * Vector-backed FIFO that keeps its capacity.
 *
 * The simulator's queues (a line's core requests at the L1, a line's
 * requests waiting out a transaction at the L2, a set's parked fetches)
 * are short and refill constantly. A std::deque allocates a block map
 * and a chunk as soon as it is constructed; this FIFO is one vector and
 * a head index. Popping advances the head; draining to empty rewinds
 * it; a push into a full vector first reclaims the served prefix. So
 * the capacity tracks the most items queued at once, and a queue that
 * is reused (clear() keeps the capacity) allocates nothing in steady
 * state. Nothing is allocated before the first push.
 */

#ifndef MCVERSI_SIM_FIFO_HH
#define MCVERSI_SIM_FIFO_HH

#include <cassert>
#include <cstddef>
#include <vector>

namespace mcversi::sim {

/** FIFO of @p T in one vector with a head index. */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }

    void
    push_back(const T &item)
    {
        // A busy queue may never drain: reclaim the served prefix
        // before growing, so the capacity tracks the most items queued
        // at once rather than all queued so far.
        if (head_ > 0 && items_.size() == items_.capacity()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        items_.push_back(item);
    }

    const T &
    front() const
    {
        assert(!empty());
        return items_[head_];
    }

    void
    pop_front()
    {
        assert(!empty());
        if (++head_ == items_.size())
            clear();
    }

    /**
     * Visit the items oldest first and remove those for which @p pred
     * returns true; the rest keep their order.
     */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        std::size_t out = head_;
        for (std::size_t i = head_; i < items_.size(); ++i) {
            if (pred(items_[i]))
                continue;
            if (out != i)
                items_[out] = items_[i];
            ++out;
        }
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(out),
                     items_.end());
        if (empty())
            clear();
    }

    /** Drop every item; the capacity stays. */
    void
    clear()
    {
        items_.clear();
        head_ = 0;
    }

  private:
    std::vector<T> items_;
    std::size_t head_ = 0; ///< first item not yet popped
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_FIFO_HH
