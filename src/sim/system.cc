#include "sim/system.hh"

#include <sstream>

namespace mcversi::sim {

namespace {

/** Throw StallDeadlock naming the first L2 with parked requests. */
template <typename L2>
void
throwIfStalled(const std::vector<std::unique_ptr<L2>> &l2s,
               const char *controller)
{
    for (std::size_t t = 0; t < l2s.size(); ++t) {
        const SetStallQueues &stalls = l2s[t]->stalls();
        if (stalls.size() == 0)
            continue;
        std::ostringstream os;
        os << controller << " tile " << t << ": " << stalls.size()
           << " request(s) parked for a way at quiescence, oldest for "
              "line 0x"
           << std::hex << stalls.firstParkedLine();
        throw StallDeadlock(os.str());
    }
}

} // namespace

System::System(SystemConfig cfg) : cfg_(cfg), masterRng_(cfg.seed)
{
    Network::Params net_params;
    net_params.cols = cfg_.meshCols;
    net_params.rows = cfg_.meshRows;
    net_params.baseLatency = cfg_.netBaseLatency;
    net_params.perHop = cfg_.netPerHop;
    net_params.maxJitter = cfg_.netMaxJitter;
    net_ = std::make_unique<Network>(eq_, masterRng_.fork(), net_params);

    MainMemory::Params mem_params;
    mem_params.minLatency = cfg_.memMinLatency;
    mem_params.maxLatency = cfg_.memMaxLatency;
    mem_ = std::make_unique<MainMemory>(eq_, *net_, masterRng_.fork(),
                                        mem_params);
    net_->registerNode(kMemNode, mem_.get());

    for (int t = 0; t < cfg_.numL2Tiles(); ++t) {
        if (cfg_.protocol == Protocol::Mesi) {
            mesiL2s_.push_back(std::make_unique<MesiL2>(
                t, cfg_, eq_, *net_, cov_, masterRng_.fork()));
            net_->registerNode(l2Node(t), mesiL2s_.back().get());
        } else {
            tsoccL2s_.push_back(std::make_unique<TsoccL2>(
                t, cfg_, eq_, *net_, cov_, masterRng_.fork()));
            net_->registerNode(l2Node(t), tsoccL2s_.back().get());
        }
    }

    for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
        L1Cache *l1_ptr = nullptr;
        if (cfg_.protocol == Protocol::Mesi) {
            mesiL1s_.push_back(std::make_unique<MesiL1>(
                p, cfg_, eq_, *net_, cov_, masterRng_.fork()));
            net_->registerNode(coreNode(p), mesiL1s_.back().get());
            l1_ptr = mesiL1s_.back().get();
        } else {
            tsoccL1s_.push_back(std::make_unique<TsoccL1>(
                p, cfg_, eq_, *net_, cov_, masterRng_.fork()));
            net_->registerNode(coreNode(p), tsoccL1s_.back().get());
            l1_ptr = tsoccL1s_.back().get();
        }
        cores_.push_back(std::make_unique<Core>(p, cfg_, eq_, l1_ptr,
                                                masterRng_.fork()));
        cores_.back()->setWitness(&witness_);
        cores_.back()->setValueSource([this]() { return takeWriteVal(); });
    }
}

L1Cache *
System::l1(Pid pid)
{
    if (cfg_.protocol == Protocol::Mesi)
        return mesiL1s_[static_cast<std::size_t>(pid)].get();
    return tsoccL1s_[static_cast<std::size_t>(pid)].get();
}

MesiL1 *
System::mesiL1(Pid pid)
{
    return pid < static_cast<Pid>(mesiL1s_.size())
               ? mesiL1s_[static_cast<std::size_t>(pid)].get()
               : nullptr;
}

MesiL2 *
System::mesiL2(int tile)
{
    return tile < static_cast<int>(mesiL2s_.size())
               ? mesiL2s_[static_cast<std::size_t>(tile)].get()
               : nullptr;
}

TsoccL1 *
System::tsoccL1(Pid pid)
{
    return pid < static_cast<Pid>(tsoccL1s_.size())
               ? tsoccL1s_[static_cast<std::size_t>(pid)].get()
               : nullptr;
}

TsoccL2 *
System::tsoccL2(int tile)
{
    return tile < static_cast<int>(tsoccL2s_.size())
               ? tsoccL2s_[static_cast<std::size_t>(tile)].get()
               : nullptr;
}

void
System::resetProtocolState()
{
    for (auto &l1 : mesiL1s_)
        l1->resetAll();
    for (auto &l2 : mesiL2s_)
        l2->resetAll();
    for (auto &l1 : tsoccL1s_)
        l1->resetAll();
    for (auto &l2 : tsoccL2s_)
        l2->resetAll();
    net_->resetOrdering();
}

void
System::zeroMemory(const std::vector<Addr> &word_addrs)
{
    for (const Addr a : word_addrs)
        mem_->setWord(a, kInitVal);
}

std::uint64_t
System::runToQuiescence()
{
    const std::uint64_t events = eq_.runUntilQuiescent();
    throwIfStalled(mesiL2s_, "MESI-L2");
    throwIfStalled(tsoccL2s_, "TSOCC-L2");
    return events;
}

} // namespace mcversi::sim
