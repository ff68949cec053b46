/**
 * @file
 * Main memory model (Table 2: 512MB, 120-230 cycle latency).
 *
 * Functionally accurate: lines hold real word values, so a protocol bug
 * that drops a writeback leaves memory observably stale. Sparse storage
 * in a flat table keyed by line address; a line never written reads as
 * zeros.
 */

#ifndef MCVERSI_SIM_MEMORY_HH
#define MCVERSI_SIM_MEMORY_HH

#include "common/rng.hh"
#include "sim/eventq.hh"
#include "sim/line_table.hh"
#include "sim/message.hh"

namespace mcversi::sim {

class Network;

/** Sparse functional main memory with a message interface. */
class MainMemory : public MsgHandler
{
  public:
    struct Params
    {
        Tick minLatency = 120;
        Tick maxLatency = 230;
    };

    MainMemory(EventQueue &eq, Network &net, Rng rng, Params params)
        : eq_(eq), net_(net), rng_(rng), params_(params)
    {
    }

    MainMemory(EventQueue &eq, Network &net, Rng rng)
        : MainMemory(eq, net, rng, Params{})
    {
    }

    void handleMsg(const Msg &msg) override;

    /** Direct functional write (host-side reset). */
    void setWord(Addr addr, WriteVal value);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    EventQueue &eq_;
    Network &net_;
    Rng rng_;
    Params params_;
    LineTable<LineData> lines_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_MEMORY_HH
