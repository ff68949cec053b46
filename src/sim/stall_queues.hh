/**
 * @file
 * Per-set FIFOs of L2 requests waiting for a way (stall-and-wake).
 *
 * Under the paper's test-memory layout every partition's copy of a
 * line maps to one L2 set, so a miss often finds its set full of
 * transient lines and no stable victim. Such a request parks on its
 * set's FIFO instead of re-delivering itself on a timer. The controller
 * wakes the set in the handler where one of its lines enters a stable
 * (victimizable) state: parked requests are re-served in FIFO order
 * while the set can still give a way, so one victim serves one fetch
 * and the rest stay parked. This is gem5 Ruby's stall_and_wait /
 * wakeUpBuffers in place of recycle.
 *
 * Storage is lazy and sparse: a set gets a FIFO on its first park and
 * keeps it, with its capacity, across resets. Under the test-memory
 * layout only a few sets per L2 tile ever fill, so the FIFOs live in a
 * short list searched linearly, and an L2 that never stalls allocates
 * nothing.
 */

#ifndef MCVERSI_SIM_STALL_QUEUES_HH
#define MCVERSI_SIM_STALL_QUEUES_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "sim/fifo.hh"
#include "sim/message.hh"

namespace mcversi::sim {

/** Parked requests of one cache array, one FIFO per stalled set. */
class SetStallQueues
{
  public:
    /** Append @p msg to @p set's FIFO. */
    void
    park(std::size_t set, const Msg &msg)
    {
        const std::size_t i = find(set);
        if (i == fifos_.size())
            fifos_.push_back(SetFifo{set, {}});
        fifos_[i].queue.push_back(msg);
        ++parked_;
    }

    /**
     * Re-serve @p set's parked requests in FIFO order while
     * @p can_allocate() says the set has a free way or a stable victim.
     * @p serve must not park the request again when a way is available.
     */
    template <typename CanAllocate, typename Serve>
    void
    wake(std::size_t set, CanAllocate &&can_allocate, Serve &&serve)
    {
        if (parked_ == 0)
            return;
        const std::size_t i = find(set);
        while (i < fifos_.size() && !fifos_[i].queue.empty() &&
               can_allocate()) {
            const Msg msg = fifos_[i].queue.front();
            fifos_[i].queue.pop_front();
            --parked_;
            serve(msg);
        }
    }

    /** Number of parked requests over all sets. */
    std::size_t size() const { return parked_; }

    /**
     * Line of the oldest request on the first set (in order of its
     * first stall) that has one parked, or kNoAddr.
     */
    Addr
    firstParkedLine() const
    {
        for (const SetFifo &f : fifos_)
            if (!f.queue.empty())
                return f.queue.front().line;
        return kNoAddr;
    }

    /** Drop every parked request (host-assisted reset). */
    void
    clear()
    {
        if (parked_ == 0)
            return;
        for (SetFifo &f : fifos_)
            f.queue.clear();
        parked_ = 0;
    }

  private:
    struct SetFifo
    {
        std::size_t set = 0;
        Fifo<Msg> queue;
    };

    /** Index of @p set's FIFO, or fifos_.size() if it has none. */
    std::size_t
    find(std::size_t set) const
    {
        std::size_t i = 0;
        while (i < fifos_.size() && fifos_[i].set != set)
            ++i;
        return i;
    }

    std::vector<SetFifo> fifos_;
    std::size_t parked_ = 0;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_STALL_QUEUES_HH
