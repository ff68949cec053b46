#include "sim/system.hh"

#include <sstream>

namespace mcversi::sim {

namespace {

/** Controller @p i of @p ctrls as a @p T, or nullptr. */
template <typename T, typename Base>
T *
controllerAs(const std::vector<std::unique_ptr<Base>> &ctrls, int i)
{
    return i < static_cast<int>(ctrls.size())
               ? dynamic_cast<T *>(ctrls[static_cast<std::size_t>(i)].get())
               : nullptr;
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
        masterRng_.fork(); // Unused; drawn so later streams keep their seeds.
        if (cfg_.protocol == Protocol::Mesi)
            l2s_.push_back(
                std::make_unique<MesiL2>(t, cfg_, eq_, *net_, cov_));
        else
            l2s_.push_back(
                std::make_unique<TsoccL2>(t, cfg_, eq_, *net_, cov_));
        net_->registerNode(l2Node(t), l2s_.back().get());
    }

    for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
        masterRng_.fork(); // Unused; drawn so later streams keep their seeds.
        if (cfg_.protocol == Protocol::Mesi)
            l1s_.push_back(
                std::make_unique<MesiL1>(p, cfg_, eq_, *net_, cov_));
        else
            l1s_.push_back(
                std::make_unique<TsoccL1>(p, cfg_, eq_, *net_, cov_));
        net_->registerNode(coreNode(p), l1s_.back().get());
        cores_.push_back(std::make_unique<Core>(
            p, cfg_, eq_, l1s_.back().get(), masterRng_.fork()));
        cores_.back()->setWitness(&witness_);
        cores_.back()->setValueSource([this]() { return takeWriteVal(); });
    }
}

L1Cache *
System::l1(Pid pid)
{
    return l1s_[static_cast<std::size_t>(pid)].get();
}

MesiL1 *
System::mesiL1(Pid pid)
{
    return controllerAs<MesiL1>(l1s_, pid);
}

MesiL2 *
System::mesiL2(int tile)
{
    return controllerAs<MesiL2>(l2s_, tile);
}

TsoccL1 *
System::tsoccL1(Pid pid)
{
    return controllerAs<TsoccL1>(l1s_, pid);
}

TsoccL2 *
System::tsoccL2(int tile)
{
    return controllerAs<TsoccL2>(l2s_, tile);
}

void
System::resetProtocolState()
{
    for (auto &l1 : l1s_)
        l1->resetAll();
    for (auto &l2 : l2s_)
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
    for (std::size_t t = 0; t < l2s_.size(); ++t) {
        const SetStallQueues &stalls = l2s_[t]->stalls();
        if (stalls.size() == 0)
            continue;
        std::ostringstream os;
        os << l2s_[t]->name() << " tile " << t << ": " << stalls.size()
           << " request(s) parked for a way at quiescence, oldest for "
              "line 0x"
           << std::hex << stalls.firstParkedLine();
        throw StallDeadlock(os.str());
    }
    return events;
}

} // namespace mcversi::sim
