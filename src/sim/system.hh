/**
 * @file
 * Full simulated system: cores + L1s + L2 tiles + mesh + memory.
 *
 * Builds the Table 2 platform for either protocol, wires the network
 * routing, shares one TransitionCoverage across identical controllers,
 * and provides the host-assisted primitives (protocol reset, memory
 * zeroing, quiescence) the guest-host interface is built on.
 */

#ifndef MCVERSI_SIM_SYSTEM_HH
#define MCVERSI_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "memconsistency/execwitness.hh"
#include "sim/config.hh"
#include "sim/coverage.hh"
#include "sim/cpu/core.hh"
#include "sim/eventq.hh"
#include "sim/memory.hh"
#include "sim/mesi/mesi_l1.hh"
#include "sim/mesi/mesi_l2.hh"
#include "sim/network.hh"
#include "sim/tsocc/tsocc_l1.hh"
#include "sim/tsocc/tsocc_l2.hh"

namespace mcversi::sim {

/** A complete simulated multicore system. */
class System
{
  public:
    explicit System(SystemConfig cfg);

    const SystemConfig &config() const { return cfg_; }

    EventQueue &eventQueue() { return eq_; }
    Network &network() { return *net_; }
    MainMemory &memory() { return *mem_; }
    TransitionCoverage &coverage() { return cov_; }
    mc::ExecWitness &witness() { return witness_; }

    int numCores() const { return cfg_.numCores; }
    Core &core(Pid pid) { return *cores_[static_cast<std::size_t>(pid)]; }
    L1Cache *l1(Pid pid);

    /**
     * Protocol-specific controllers, for white-box tests; nullptr for
     * the other protocol.
     */
    MesiL1 *mesiL1(Pid pid);
    MesiL2 *mesiL2(int tile);
    TsoccL1 *tsoccL1(Pid pid);
    TsoccL2 *tsoccL2(int tile);

    /** Next globally unique write value. */
    WriteVal takeWriteVal() { return nextVal_++; }

    /**
     * Host-assisted cache/coherence reset (reset_test_mem). Only legal
     * at quiescence; coverage counters and RNG streams persist.
     */
    void resetProtocolState();

    /** Zero the given word addresses in main memory. */
    void zeroMemory(const std::vector<Addr> &word_addrs);

    /**
     * Run the event queue dry. May throw ProtocolError, WatchdogAbort,
     * or StallDeadlock if an L2 still holds parked requests once no
     * event is left to wake them.
     */
    std::uint64_t runToQuiescence();

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    Rng masterRng_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<MainMemory> mem_;
    TransitionCoverage cov_;
    mc::ExecWitness witness_;
    WriteVal nextVal_ = 1;

    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<L2Controller>> l2s_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_SYSTEM_HH
