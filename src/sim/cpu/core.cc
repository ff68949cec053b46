#include "sim/cpu/core.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mcversi::sim {

Core::Core(Pid pid, const SystemConfig &cfg, EventQueue &eq, L1Cache *l1,
           Rng rng)
    : pid_(pid), cfg_(cfg), eq_(eq), l1_(l1), rng_(rng),
      sq_(static_cast<std::size_t>(cfg.sqSize))
{
    CoreHooks hooks;
    hooks.respond = [this](const CacheResp &r) { onCacheResp(r); };
    hooks.addressInvalidated = [this](Addr line) {
        onAddressInvalidated(line);
    };
    l1_->setHooks(std::move(hooks));
}

void
Core::loadProgram(Program program)
{
    program_ = std::move(program);
}

void
Core::evPump(void *o, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t)
{
    static_cast<Core *>(o)->pump();
}

void
Core::evPumpClearFlag(void *o, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::uint64_t)
{
    auto *self = static_cast<Core *>(o);
    self->pumpScheduled_ = false;
    self->pump();
}

void
Core::evTryIssueLoad(void *o, std::uint64_t slot, std::uint64_t,
                     std::uint64_t, std::uint64_t)
{
    static_cast<Core *>(o)->tryIssueLoad(
        static_cast<std::size_t>(slot));
}

void
Core::evDone(void *o, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t)
{
    auto *self = static_cast<Core *>(o);
    self->doneCallback_(self->pid_);
}

void
Core::start(Tick start_tick)
{
    const std::size_t n = program_.instrs.size();
    dyn_.assign(n, DynInstr{});
    // Precompute LoadAddrDep dependencies: nearest preceding
    // value-producing instruction (load or RMW).
    int last_value_producer = -1;
    for (std::size_t i = 0; i < n; ++i) {
        if (program_.instrs[i].kind == InstrKind::LoadAddrDep)
            dyn_[i].depSlot = last_value_producer;
        if (producesValue(i))
            last_value_producer = static_cast<int>(i);
    }
    fetchPtr_ = 0;
    retirePtr_ = 0;
    sq_.clear();
    storeInFlight_ = false;
    loadReqs_.clear();
    rmwReqs_.clear();
    flushReqs_.clear();
    done_ = (n == 0);
    pumpScheduled_ = false;
    if (!done_) {
        eq_.scheduleFn(start_tick, &Core::evPump, this);
    } else if (doneCallback_) {
        eq_.scheduleFn(start_tick, &Core::evDone, this);
    }
}

bool
Core::isLoad(std::size_t slot) const
{
    const InstrKind k = program_.instrs[slot].kind;
    return k == InstrKind::Load || k == InstrKind::LoadAddrDep;
}

bool
Core::producesValue(std::size_t slot) const
{
    return isLoad(slot) || program_.instrs[slot].kind == InstrKind::Rmw;
}

void
Core::schedulePump(Tick delta)
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    eq_.scheduleFnIn(delta, &Core::evPumpClearFlag, this);
}

void
Core::pump()
{
    if (done_)
        return;
    fetch();
    retireLoop();
    tryDrainStore();
    if (retirePtr_ == program_.instrs.size() && sq_.drained() &&
        !storeInFlight_ && !done_) {
        done_ = true;
        if (doneCallback_)
            doneCallback_(pid_);
    }
}

void
Core::fetch()
{
    const std::size_t n = program_.instrs.size();
    while (fetchPtr_ < n &&
           fetchPtr_ - retirePtr_ <
               static_cast<std::size_t>(cfg_.robSize)) {
        const std::size_t slot = fetchPtr_;
        const ProgInstr &pi = program_.instrs[slot];
        DynInstr &d = dyn_[slot];
        switch (pi.kind) {
          case InstrKind::Load:
          case InstrKind::LoadAddrDep: {
            if (loadReqs_.size() >=
                static_cast<std::size_t>(cfg_.lqSize)) {
                return; // LQ full: stall fetch.
            }
            const Tick ready = 1 + rng_.below(cfg_.issueJitter + 1);
            eq_.scheduleFnIn(ready, &Core::evTryIssueLoad, this, slot);
            break;
          }
          case InstrKind::Store:
            if (sq_.full())
                return; // SQ full: stall fetch.
            d.value = valueSource_();
            d.addr = pi.addr;
            sq_.push(slot, pi.addr, d.value);
            break;
          case InstrKind::Rmw:
            d.value = valueSource_();
            d.addr = pi.addr;
            break;
          case InstrKind::Flush:
          case InstrKind::Delay:
            d.addr = pi.addr;
            break;
        }
        ++fetchPtr_;
    }
}

void
Core::tryIssueLoad(std::size_t slot)
{
    if (done_ || slot < retirePtr_)
        return;
    DynInstr &d = dyn_[slot];
    if (d.st != LoadState::Waiting)
        return;
    const ProgInstr &pi = program_.instrs[slot];

    // Resolve the address.
    if (pi.kind == InstrKind::LoadAddrDep && d.depSlot >= 0) {
        const DynInstr &dep = dyn_[static_cast<std::size_t>(d.depSlot)];
        if (dep.st != LoadState::Performed &&
            dep.st != LoadState::Done) {
            return; // Re-scheduled when the dependency performs.
        }
        const WriteVal dep_val =
            program_.instrs[static_cast<std::size_t>(d.depSlot)].kind ==
                    InstrKind::Rmw
                ? dep.rmwOld
                : dep.value;
        d.addr = program_.depAddr(pi, dep_val);
    } else {
        d.addr = pi.addr;
    }
    d.addrValid = true;

    // Store-to-load forwarding (TSO internal read-from).
    if (auto fwd = sq_.forward(d.addr, slot)) {
        ++forwards_;
        markPerformed(slot, *fwd, false);
        return;
    }
    d.st = LoadState::Issued;
    const ReqId id = nextReq_++;
    loadReqs_.add(id, slot);
    l1_->coreLoad(id, d.addr);
}

void
Core::markPerformed(std::size_t slot, WriteVal value, bool flagged)
{
    DynInstr &d = dyn_[slot];
    d.st = LoadState::Performed;
    d.value = value;
    ++loads_;

    if (flagged) {
        // Data consumed from an invalidated-in-flight line (IS_I): the
        // value is stale as of the sunk invalidation, so the load must
        // replay unconditionally -- even at the head, since an older
        // load may already have retired with a newer observation. This
        // differs from onAddressInvalidated(): a plain Inv is delivered
        // before the competing write becomes visible, which is what
        // makes the oldest-load exception safe there.
        // (BUG MESI,LQ+IS,Inv prevents the flag from ever being set;
        // BUG LQ+no-TSO ignores it here.)
        if (cfg_.bug != BugId::LqNoTso) {
            squashLoad(slot);
            schedulePump();
            return;
        }
    }

    wakeDependents(slot);
    schedulePump();
}

void
Core::wakeDependents(std::size_t slot)
{
    // start() gives a LoadAddrDep the nearest preceding value producer,
    // so only the next producer after @p slot can depend on it.
    for (std::size_t i = slot + 1; i < fetchPtr_; ++i) {
        if (dyn_[i].depSlot == static_cast<int>(slot) &&
            dyn_[i].st == LoadState::Waiting) {
            eq_.scheduleFnIn(1, &Core::evTryIssueLoad, this, i);
        }
        if (producesValue(i))
            break;
    }
}

void
Core::squashFrom(std::size_t start)
{
    for (std::size_t i = std::max(start, retirePtr_); i < fetchPtr_;
         ++i) {
        if (!isLoad(i))
            continue;
        DynInstr &d = dyn_[i];
        if (d.st == LoadState::Performed) {
            d.st = LoadState::Waiting;
            d.addrValid = false;
            ++squashes_;
            eq_.scheduleFnIn(2, &Core::evTryIssueLoad, this, i);
        } else if (d.st == LoadState::Issued) {
            d.squashPending = true; // Re-issue when the response lands.
        }
    }
}

void
Core::squashLoad(std::size_t slot)
{
    // Targeted squash: this load plus (transitively) address-dependent
    // loads, whose effective address derives from the replayed value.
    // Unlike a full younger-than squash, unrelated performed loads
    // keep their values: each is protected independently by its own
    // line's invalidation/eviction/in-flight notifications, so the
    // broad cascade is redundant and would mask exactly the windows
    // the §5.3 bugs live in.
    DynInstr &d = dyn_[slot];
    if (d.st == LoadState::Performed) {
        d.st = LoadState::Waiting;
        d.addrValid = false;
        ++squashes_;
        const Tick backoff =
            Tick{2} << std::min<std::uint8_t>(d.replays, 8);
        if (d.replays < 255)
            ++d.replays;
        eq_.scheduleFnIn(backoff, &Core::evTryIssueLoad, this, slot);
    } else if (d.st == LoadState::Issued) {
        d.squashPending = true;
    } else {
        return;
    }
    // As in wakeDependents, only the next producer can depend on us.
    for (std::size_t j = slot + 1; j < fetchPtr_; ++j) {
        if (dyn_[j].depSlot == static_cast<int>(slot))
            squashLoad(j);
        if (producesValue(j))
            break;
    }
}

void
Core::onAddressInvalidated(Addr line)
{
    // BUG LQ+no-TSO: the LQ ignores forwarded invalidations.
    if (cfg_.bug == BugId::LqNoTso)
        return;
    if (done_)
        return;
    for (std::size_t i = retirePtr_; i < fetchPtr_; ++i) {
        if (!isLoad(i))
            continue;
        DynInstr &d = dyn_[i];
        if (!d.addrValid || lineAddr(d.addr) != line)
            continue;
        if (d.st == LoadState::Issued) {
            // The response in flight may carry a value captured before
            // this invalidation (e.g. an L1 hit read the array before
            // the line was invalidated): replay when it lands. Real LQs
            // squash by address match on any outstanding load.
            d.squashPending = true;
            continue;
        }
        if (d.st != LoadState::Performed)
            continue;
        if (i == retirePtr_) {
            // The oldest unretired instruction has logically performed;
            // its value stands (standard LQ rule; safe because
            // invalidations are delivered before the competing write
            // becomes visible).
            continue;
        }
        squashLoad(i);
    }
    schedulePump();
}

void
Core::onCacheResp(const CacheResp &resp)
{
    if (const auto taken = loadReqs_.take(resp.id)) {
        const std::size_t slot = *taken;
        if (done_ || slot < retirePtr_)
            return;
        DynInstr &d = dyn_[slot];
        if (d.squashPending) {
            d.squashPending = false;
            d.st = LoadState::Waiting;
            d.addrValid = false;
            const Tick backoff =
                Tick{2} << std::min<std::uint8_t>(d.replays, 8);
            if (d.replays < 255)
                ++d.replays;
            eq_.scheduleFnIn(backoff, &Core::evTryIssueLoad, this,
                             slot);
            return;
        }
        markPerformed(slot, resp.value, resp.invalidatedInFlight);
        return;
    }
    if (const auto taken = rmwReqs_.take(resp.id)) {
        const std::size_t slot = *taken;
        DynInstr &d = dyn_[slot];
        d.rmwOld = resp.value;
        d.st = LoadState::Performed;
        wakeDependents(slot); // Address-dependent loads may wait on us.
        schedulePump();
        return;
    }
    if (const auto taken = flushReqs_.take(resp.id)) {
        const std::size_t slot = *taken;
        dyn_[slot].st = LoadState::Performed;
        schedulePump();
        return;
    }
    if (resp.id == storeReq_ && storeInFlight_) {
        const std::size_t slot = storeInFlightSlot_;
        const DynInstr &d = dyn_[slot];
        // The store serialized: record its write event now, with the
        // value it overwrote.
        if (witness_) {
            witness_->recordWrite(pid_, static_cast<std::int32_t>(slot),
                                  d.addr, d.value, resp.overwritten);
        }
        ++stores_;
        sq_.pop(slot);
        storeInFlight_ = false;
        schedulePump();
        return;
    }
}

void
Core::tryDrainStore()
{
    if (storeInFlight_)
        return;
    StoreQueue::Entry *entry =
        sq_.drainCandidate(cfg_.bug != BugId::SqNoFifo, rng_);
    if (!entry)
        return;
    entry->inFlight = true;
    storeInFlight_ = true;
    storeInFlightSlot_ = entry->slot;
    storeReq_ = nextReq_++;
    l1_->coreStore(storeReq_, entry->addr, entry->value);
}

void
Core::retireLoop()
{
    const std::size_t n = program_.instrs.size();
    while (retirePtr_ < std::min(fetchPtr_, n)) {
        const std::size_t slot = retirePtr_;
        const ProgInstr &pi = program_.instrs[slot];
        DynInstr &d = dyn_[slot];
        switch (pi.kind) {
          case InstrKind::Load:
          case InstrKind::LoadAddrDep:
            if (d.st != LoadState::Performed)
                return;
            if (witness_) {
                witness_->recordRead(pid_,
                                     static_cast<std::int32_t>(slot),
                                     d.addr, d.value);
            }
            d.st = LoadState::Done;
            ++retirePtr_;
            continue;

          case InstrKind::Store:
            // Already dispatched into the SQ; retirement makes it
            // drain-eligible.
            sq_.retire(slot);
            ++retirePtr_;
            tryDrainStore();
            continue;

          case InstrKind::Rmw:
            if (d.st == LoadState::Performed) {
                if (witness_) {
                    witness_->recordRead(
                        pid_, static_cast<std::int32_t>(slot), d.addr,
                        d.rmwOld, /*rmw=*/true);
                    witness_->recordWrite(
                        pid_, static_cast<std::int32_t>(slot), d.addr,
                        d.value, d.rmwOld, /*rmw=*/true);
                }
                d.st = LoadState::Done;
                ++retirePtr_;
                // Full fence: younger speculative loads replay.
                squashFrom(retirePtr_);
                continue;
            }
            if (!d.issued) {
                // Issue when oldest and all older stores have drained
                // (younger stores dispatched into the SQ cannot retire
                // past this RMW, so only retired entries matter).
                if (sq_.hasRetiredEntries() || storeInFlight_)
                    return;
                d.issued = true;
                const ReqId id = nextReq_++;
                rmwReqs_.add(id, slot);
                l1_->coreRmw(id, d.addr, d.value);
            }
            return;

          case InstrKind::Flush:
            if (d.st == LoadState::Performed) {
                d.st = LoadState::Done;
                ++retirePtr_;
                continue;
            }
            if (!d.issued) {
                d.issued = true;
                const ReqId id = nextReq_++;
                flushReqs_.add(id, slot);
                l1_->coreFlush(id, d.addr);
            }
            return;

          case InstrKind::Delay:
            if (!d.delayArmed) {
                d.delayArmed = true;
                d.delayEnd = eq_.now() + pi.delay;
                schedulePump(pi.delay);
                return;
            }
            if (eq_.now() < d.delayEnd)
                return;
            ++retirePtr_;
            continue;
        }
    }
}

} // namespace mcversi::sim

namespace mcversi::sim {
std::string
Core::debugState() const
{
    std::ostringstream os;
    os << "core" << pid_ << ": retire=" << retirePtr_ << "/"
       << program_.instrs.size() << " fetch=" << fetchPtr_
       << " sq=" << sq_.size() << " ldReqs=" << loadReqs_.size()
       << " stInFlight=" << storeInFlight_ << " done=" << done_;
    if (retirePtr_ < fetchPtr_ && retirePtr_ < program_.instrs.size()) {
        os << " head.kind=" << static_cast<int>(
            program_.instrs[retirePtr_].kind)
           << " head.st=" << static_cast<int>(dyn_[retirePtr_].st)
           << " head.addr=0x" << std::hex
           << dyn_[retirePtr_].addr << std::dec;
    }
    return os.str();
}
} // namespace mcversi::sim
