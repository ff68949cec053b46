#include "sim/memory.hh"

#include <stdexcept>

#include "sim/network.hh"

namespace mcversi::sim {

void
MainMemory::setWord(Addr addr, WriteVal value)
{
    lines_[lineAddr(addr)].setWord(addr, value);
}

void
MainMemory::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::MemRead: {
        ++reads_;
        const Tick lat = params_.minLatency +
                         rng_.below(params_.maxLatency -
                                    params_.minLatency + 1);
        Msg &resp = net_.stage();
        resp.type = MsgType::MemData;
        resp.line = msg.line;
        resp.src = kMemNode;
        resp.dst = msg.src;
        resp.vnet = Vnet::Mem;
        const LineData *data = lines_.find(msg.line);
        resp.data = data ? *data : LineData{};
        resp.hasData = true;
        // Model access latency by delaying injection into the network.
        eq_.scheduleNetSend(eq_.now() + lat, &net_, &resp);
        break;
      }
      case MsgType::MemWrite:
        ++writes_;
        lines_[msg.line] = msg.data;
        break;
      default:
        throw std::runtime_error("MainMemory: unexpected message " +
                                 msg.toString());
    }
}

} // namespace mcversi::sim
