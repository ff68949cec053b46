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

#include "sim/l1_controller.hh"

namespace mcversi::sim {

/** Private L1 cache controller for the two-level MESI protocol. */
class MesiL1 : public L1Controller
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
           TransitionCoverage &cov);

    void handleMsg(const Msg &msg) override;

    /** Introspection for tests: protocol state of a line. */
    State lineState(Addr line) { return static_cast<State>(stateOf(line)); }

  private:
    void buildTable();
    void processPending(Addr line) override;
    bool stable(std::uint8_t state) const override;
    void doReplacement(CacheEntry &entry) override;

    /** Completion of an exclusive fetch or upgrade: enter M. */
    void enterM(CacheEntry &entry);

    void applyStore(CacheEntry &entry, const PendingReq &req);
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_MESI_MESI_L1_HH
