/**
 * @file
 * Two-level MESI protocol: private L1 controller.
 *
 * Modelled after gem5's Ruby MESI_Two_Level L1. Stable states I (absent),
 * S, E, M; fetch transients IS, IS_I (Inv sunk while fetching), IM
 * (exclusive fetch), SM (upgrade in flight, data readable); writeback
 * transients MI (PUTX outstanding) and II (gave data away while MI) live
 * in a side buffer so the array way frees immediately.
 *
 * Every place the protocol must forward an invalidation to the load
 * queue is an explicit notifyLq() call; the §5.3 bugs each suppress
 * exactly one site:
 *   - IS_I data consume flag        (MESI,LQ+IS,Inv)
 *   - SM + Inv                      (MESI,LQ+SM,Inv)
 *   - E + Recall                    (MESI,LQ+E,Inv)
 *   - M + Recall                    (MESI,LQ+M,Inv)
 *   - S replacement                 (MESI,LQ+S,Replacement)
 */

#ifndef MCVERSI_SIM_MESI_MESI_L1_HH
#define MCVERSI_SIM_MESI_MESI_L1_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/rng.hh"
#include "sim/cache_array.hh"
#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/network.hh"
#include "sim/ports.hh"
#include "sim/transition_table.hh"

namespace mcversi::sim {

/** Private L1 cache controller for the two-level MESI protocol. */
class MesiL1 : public L1Cache, public MsgHandler
{
  public:
    /** Protocol states; I is represented by an absent entry. */
    enum State : std::uint8_t {
        StI,
        StS,
        StE,
        StM,
        StIS,
        StIS_I,
        StIM,
        StSM,
        StMI, ///< side buffer: PUTX outstanding
        StII, ///< side buffer: data forwarded away while MI
        NumStates,
    };

    /** Transition events. */
    enum Event : std::uint8_t {
        EvLoad,
        EvStore,
        EvRmw,
        EvFlush,
        EvReplacement,
        EvDataShared,
        EvDataExclusive,
        EvAckCount,
        EvInvAckIn,
        EvInv,
        EvRecall,
        EvFwdGETS,
        EvFwdGETX,
        EvWbAck,
        EvWbNack,
        NumEvents,
    };

    MesiL1(Pid pid, const SystemConfig &cfg, EventQueue &eq, Network &net,
           TransitionCoverage &cov, Rng rng);

    void setHooks(CoreHooks hooks) override { hooks_ = std::move(hooks); }

    // Core interface.
    void coreLoad(ReqId id, Addr addr) override;
    void coreStore(ReqId id, Addr addr, WriteVal value) override;
    void coreRmw(ReqId id, Addr addr, WriteVal value) override;
    void coreFlush(ReqId id, Addr addr) override;

    void handleMsg(const Msg &msg) override;
    void resetAll() override;

    /** Introspection for tests: protocol state of a line. */
    State lineState(Addr line);

  private:
    /** A core request queued on a line. */
    struct PendingReq
    {
        enum class Kind { Load, Store, Rmw, Flush } kind;
        ReqId id;
        Addr addr;
        WriteVal value; // store / RMW new value
    };

    /** Writeback side buffer entry (TBE). */
    struct EvictBuf
    {
        State state = StMI;
        LineData data{};
        bool dirty = false;
        bool flushPending = false;
        ReqId flushReq = 0;
    };

    void buildTable();
    NodeId home(Addr line) const;
    void send(MsgType t, Addr line, NodeId dst, Vnet vnet,
              const std::function<void(Msg &)> &fill = {});

    /** Dispatch a core request against the current line state. */
    void dispatch(const PendingReq &req, bool front);
    void enqueue(const PendingReq &req, bool front);
    /** Re-dispatch queued requests after a state change. */
    void processPending(Addr line);

    void respond(ReqId id, WriteVal value, WriteVal overwritten,
                 bool inv_in_flight, Tick latency);
    void notifyLq(Addr line);

    /** Begin a miss: allocate (evicting if needed) and request. */
    bool startMiss(Addr line, bool exclusive);
    /** Evict one stable victim from the set of @p line, if possible. */
    bool evictVictim(Addr line);
    void doReplacement(CacheEntry &entry);

    /** Completion of an exclusive fetch or upgrade: enter M. */
    void enterM(CacheEntry &entry);

    void applyStore(CacheEntry &entry, const PendingReq &req);

    Pid pid_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    Network &net_;
    TransitionTable table_;
    Rng rng_;
    CoreHooks hooks_;

    CacheArray array_;
    std::unordered_map<Addr, EvictBuf> evict_;
    std::unordered_map<Addr, std::deque<PendingReq>> pending_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_MESI_MESI_L1_HH
