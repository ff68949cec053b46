/**
 * @file
 * OoO-lite core model (Table 2: simple out-of-order, ROB 40, LSQ 32).
 *
 * The model captures exactly the reordering behaviour MCM verification
 * cares about:
 *
 *  - Loads issue speculatively out of order (jittered ready times) and
 *    retire in order. The load queue squashes performed-but-unretired
 *    loads when the L1 forwards an invalidation for their line (or when
 *    data arrives flagged invalidated-in-flight), the standard
 *    "Peekaboo" discipline. BUG LQ+no-TSO disables the reaction.
 *  - Stores retire into a post-commit store buffer that drains FIFO.
 *    BUG SQ+no-FIFO drains out of order.
 *  - RMWs execute atomically at the L1 when oldest, with the store
 *    buffer drained, and squash younger performed loads on completion
 *    (x86 lock prefix = full fence).
 *  - Loads forward from the store buffer (TSO rfi).
 *
 * The core records committed events into the ExecWitness: loads at
 * retire, stores when they serialize at the cache.
 */

#ifndef MCVERSI_SIM_CPU_CORE_HH
#define MCVERSI_SIM_CPU_CORE_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "memconsistency/execwitness.hh"
#include "sim/config.hh"
#include "sim/cpu/lsq.hh"
#include "sim/cpu/program.hh"
#include "sim/eventq.hh"
#include "sim/ports.hh"

namespace mcversi::sim {

/** One simulated hardware thread. */
class Core
{
  public:
    Core(Pid pid, const SystemConfig &cfg, EventQueue &eq, L1Cache *l1,
         Rng rng);

    /** Witness that committed events are recorded into (per iteration). */
    void setWitness(mc::ExecWitness *witness) { witness_ = witness; }

    /** Source of globally unique write values. */
    void setValueSource(std::function<WriteVal()> src)
    {
        valueSource_ = std::move(src);
    }

    /** Called once when the core finishes its program + drains. */
    void setDoneCallback(std::function<void(Pid)> cb)
    {
        doneCallback_ = std::move(cb);
    }

    /** Load a new program (make_test_thread). */
    void loadProgram(Program program);

    /** Start executing the loaded program at @p start_tick. */
    void start(Tick start_tick);

    bool done() const { return done_; }
    Pid pid() const { return pid_; }

    /** One-line progress summary for deadlock diagnosis. */
    std::string debugState() const;

    // Statistics.
    std::uint64_t squashes() const { return squashes_; }
    std::uint64_t loadsExecuted() const { return loads_; }
    std::uint64_t storesExecuted() const { return stores_; }
    std::uint64_t forwardedLoads() const { return forwards_; }

  private:
    enum class LoadState : std::uint8_t {
        Waiting,
        Issued,
        Performed,
        Done,
    };

    struct DynInstr
    {
        LoadState st = LoadState::Waiting;
        Addr addr = 0;
        bool addrValid = false;
        WriteVal value = 0;       ///< load result / store+RMW new value
        WriteVal rmwOld = 0;      ///< RMW read value (== overwritten)
        bool squashPending = false;
        bool issued = false;      ///< RMW / flush issued flag
        bool delayArmed = false;
        Tick delayEnd = 0;
        int depSlot = -1;
        /** Replay count, for exponential backoff (breaks replay storms). */
        std::uint8_t replays = 0;
    };

    /**
     * Outstanding L1 requests of one kind as flat (id, slot) pairs.
     * There are at most as many as instructions in the ROB, so a
     * linear scan beats hashing, and clear() keeps the capacity.
     */
    class ReqSlots
    {
      public:
        void add(ReqId id, std::size_t slot) { reqs_.emplace_back(id, slot); }

        /** Remove request @p id; its slot, or nullopt if not ours. */
        std::optional<std::size_t>
        take(ReqId id)
        {
            for (auto &req : reqs_) {
                if (req.first == id) {
                    const std::size_t slot = req.second;
                    req = reqs_.back();
                    reqs_.pop_back();
                    return slot;
                }
            }
            return std::nullopt;
        }

        std::size_t size() const { return reqs_.size(); }
        void clear() { reqs_.clear(); }

      private:
        std::vector<std::pair<ReqId, std::size_t>> reqs_;
    };

    // L1 hooks.
    void onCacheResp(const CacheResp &resp);
    void onAddressInvalidated(Addr line);

    // Typed-event trampolines (EventQueue::EventFn signature).
    static void evPump(void *o, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t);
    static void evPumpClearFlag(void *o, std::uint64_t, std::uint64_t,
                                std::uint64_t, std::uint64_t);
    static void evTryIssueLoad(void *o, std::uint64_t slot,
                               std::uint64_t, std::uint64_t,
                               std::uint64_t);
    static void evDone(void *o, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t);

    void schedulePump(Tick delta = 0);
    void pump();
    void fetch();
    void retireLoop();
    void tryIssueLoad(std::size_t slot);
    void markPerformed(std::size_t slot, WriteVal value, bool flagged);
    /** Re-issue address-dependent loads waiting on @p slot's value. */
    void wakeDependents(std::size_t slot);
    /** Full squash of all loads >= slot (fence semantics). */
    void squashFrom(std::size_t slot);
    /** Targeted squash: one load plus its address-dependents. */
    void squashLoad(std::size_t slot);
    void tryDrainStore();
    bool isLoad(std::size_t slot) const;
    /** True for the instructions a LoadAddrDep may depend on. */
    bool producesValue(std::size_t slot) const;

    Pid pid_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    L1Cache *l1_;
    Rng rng_;
    mc::ExecWitness *witness_ = nullptr;
    std::function<WriteVal()> valueSource_;
    std::function<void(Pid)> doneCallback_;

    Program program_;
    std::vector<DynInstr> dyn_;
    std::size_t fetchPtr_ = 0;
    std::size_t retirePtr_ = 0;
    StoreQueue sq_;
    bool storeInFlight_ = false;
    std::size_t storeInFlightSlot_ = 0;
    bool done_ = true;
    bool pumpScheduled_ = false;

    ReqId nextReq_ = 1;
    ReqSlots loadReqs_;
    ReqSlots rmwReqs_;
    ReqSlots flushReqs_;
    ReqId storeReq_ = 0;

    std::uint64_t squashes_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t forwards_ = 0;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_CPU_CORE_HH
