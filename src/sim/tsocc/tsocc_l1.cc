#include "sim/tsocc/tsocc_l1.hh"

#include <cassert>
#include <sstream>

namespace mcversi::sim {

namespace {

const std::vector<std::string> kStateNames = {
    "I", "S", "M", "IS", "IM", "MI", "II", "Ctrl",
};

const std::vector<std::string> kEventNames = {
    "Load", "LoadExpired", "Store",  "Rmw",    "Flush",   "Replacement",
    "Data", "Recall",      "WbAck",  "WbNack", "TsReset", "SelfInv",
};

} // namespace

TsoccL1::TsoccL1(Pid pid, const SystemConfig &cfg, EventQueue &eq,
                 Network &net, TransitionCoverage &cov)
    : L1Controller(pid, cfg, eq, net,
                   TransitionTable(cov, "TSOCC-L1", kStateNames, kEventNames),
                   StIS, StIM),
      lastSeen_(static_cast<std::size_t>(cfg.numCores))
{
    buildTable();
}

void
TsoccL1::buildTable()
{
    auto def = [this](State s, Event e) { table_.define(s, e); };

    def(StI, EvLoad);
    def(StI, EvStore);
    def(StI, EvRmw);
    def(StI, EvFlush);

    def(StS, EvLoad);
    def(StS, EvLoadExpired);
    def(StS, EvStore);
    def(StS, EvRmw);
    def(StS, EvFlush);
    def(StS, EvReplacement);
    def(StS, EvSelfInvalidate);

    def(StM, EvLoad);
    def(StM, EvStore);
    def(StM, EvRmw);
    def(StM, EvFlush);
    def(StM, EvReplacement);
    def(StM, EvRecall);

    def(StIS, EvData);
    def(StIM, EvData);

    def(StMI, EvRecall);
    def(StMI, EvWbAck);
    def(StMI, EvWbNack);
    def(StII, EvWbAck);
    def(StII, EvWbNack);

    def(StCtrl, EvTsReset);
}

std::string
TsoccL1::debugSummary()
{
    std::ostringstream os;
    os << "TsoccL1[" << pid_ << "] pendingLines=" << pending_.size();
    pending_.forEach([&](Addr line, const Fifo<PendingReq> &q) {
        os << " 0x" << std::hex << line << std::dec << "(q=" << q.size()
           << ",st=" << static_cast<int>(lineState(line)) << ")";
    });
    os << " evict=" << evict_.size();
    return os.str();
}

// ---------------------------------------------------------------------
// Timestamp machinery.
// ---------------------------------------------------------------------

void
TsoccL1::stampWrite(CacheEntry &entry)
{
    entry.meta.writer = pid_;
    entry.meta.ts = curTs_;
    entry.meta.epoch = curEpoch_;
    if (++writesInGroup_ >= cfg_.tsoccGroupSize) {
        writesInGroup_ = 0;
        if (++curTs_ > cfg_.tsoccMaxTs) {
            // Timestamp reset. With epoch-ids, the new epoch is
            // broadcast so other cores treat in-flight old-epoch
            // metadata conservatively.
            // BUG TSO-CC+no-epoch-ids: the reset happens silently.
            curTs_ = 1;
            curEpoch_ += 1;
            if (cfg_.bug != BugId::TsoccNoEpochIds) {
                for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores);
                     ++p) {
                    if (p == pid_)
                        continue;
                    send(MsgType::TsReset, 0, coreNode(p), Vnet::Fwd,
                         [&](Msg &m) { m.meta.epoch = curEpoch_; });
                }
            }
        }
    }
}

void
TsoccL1::applySelfInvRule(const TsMeta &meta, Addr except_line)
{
    if (meta.valid() && meta.writer == pid_)
        return; // Own writes need no self-invalidation.

    bool newer;
    if (!meta.valid()) {
        // No metadata means the line has never been written (the L2's
        // directory store persists metadata across evictions), so the
        // read observes only the initial value and imposes no
        // ordering: no self-invalidation needed. This also keeps cold
        // fills from sweeping, which would flag every concurrent
        // in-flight fill and livelock the replay machinery.
        newer = false;
    } else {
        Seen &seen = lastSeen_[static_cast<std::size_t>(meta.writer)];
        // BUG TSO-CC+compare: 'larger' instead of 'larger or equal'.
        const bool ts_newer = (cfg_.bug == BugId::TsoccCompare)
                                  ? (meta.ts > seen.ts)
                                  : (meta.ts >= seen.ts);
        if (cfg_.bug == BugId::TsoccNoEpochIds)
            newer = !seen.valid || ts_newer;
        else
            newer = !seen.valid || meta.epoch != seen.epoch || ts_newer;
        // Update the last-seen table.
        if (!seen.valid || meta.epoch != seen.epoch) {
            if (cfg_.bug == BugId::TsoccNoEpochIds) {
                // Epochs ignored: only ever move the timestamp up.
                if (!seen.valid || meta.ts > seen.ts)
                    seen.ts = meta.ts;
                seen.valid = true;
            } else {
                seen = Seen{true, meta.epoch, meta.ts};
            }
        } else if (meta.ts > seen.ts) {
            seen.ts = meta.ts;
        }
    }
    if (newer) {
        // In-flight fills are always flagged: an equality-triggered
        // sweep (timestamp groups) can still cross a fill whose data
        // predates a same-group write. The replay storms this can
        // cause under extreme conflict are bounded by the workload's
        // livelock watchdog.
        selfInvalidateShared(except_line, true);
    }
}

void
TsoccL1::selfInvalidateShared(Addr except_line, bool flag_in_flight)
{
    doomed_.clear();
    array_.forEachValid([&](CacheEntry &e) {
        if (e.state == StS && e.line != except_line)
            doomed_.push_back(e.line);
        // A read fill in flight was served before this acquire point:
        // its data may be stale relative to what triggered the sweep,
        // so it must be consumed as invalidated-in-flight (the TSO-CC
        // analogue of MESI's IS_I).
        if (flag_in_flight && e.state == StIS && e.line != except_line)
            e.consumeFlagged = true;
    });
    for (Addr line : doomed_) {
        table_.record(StS, EvSelfInvalidate);
        CacheEntry *e = array_.find(line);
        array_.free(*e);
        notifyLq(line);
        ++selfInvs_;
    }
}

bool
TsoccL1::stable(std::uint8_t state) const
{
    return state == StS || state == StM;
}

void
TsoccL1::doReplacement(CacheEntry &entry)
{
    const Addr line = entry.line;
    const auto st = static_cast<State>(entry.state);
    table_.record(st, EvReplacement);
    if (st == StS) {
        // Sharers are untracked: silent drop.
        notifyLq(line);
        array_.free(entry);
        return;
    }
    assert(st == StM);
    writeBack(entry, StMI, true);
}

void
TsoccL1::processPending(Addr line)
{
    // q stays valid: nothing below inserts into or erases from pending_.
    Fifo<PendingReq> *found = pending_.find(line);
    if (!found)
        return;
    Fifo<PendingReq> &q = *found;

    while (!q.empty()) {
        if (evict_.contains(line))
            return;

        const PendingReq req = q.front();
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StI;

        switch (st) {
          case StI:
            switch (req.kind) {
              case PendingReq::Kind::Load:
                table_.record(StI, EvLoad);
                startMiss(line, false);
                return;
              case PendingReq::Kind::Store:
              case PendingReq::Kind::Rmw:
                table_.record(StI, req.kind == PendingReq::Kind::Rmw
                                       ? EvRmw
                                       : EvStore);
                startMiss(line, true);
                return;
              case PendingReq::Kind::Flush:
                table_.record(StI, EvFlush);
                respond(req.id, 0, 0, 1);
                q.pop_front();
                continue;
            }
            break;

          case StS:
            switch (req.kind) {
              case PendingReq::Kind::Load:
                if (entry->accessesLeft <= 0) {
                    // Max-accesses exhausted: revalidate from L2. The
                    // local copy is dropped, so speculative consumers
                    // must be squashed.
                    table_.record(StS, EvLoadExpired);
                    notifyLq(line);
                    array_.free(*entry);
                    continue; // Re-dispatch as a miss.
                }
                table_.record(StS, EvLoad);
                entry->accessesLeft -= 1;
                array_.touch(*entry, eq_.now());
                respond(req.id, entry->data.word(req.addr), 0,
                        cfg_.l1HitLatency);
                q.pop_front();
                continue;
              case PendingReq::Kind::Store:
              case PendingReq::Kind::Rmw:
                table_.record(StS, req.kind == PendingReq::Kind::Rmw
                                       ? EvRmw
                                       : EvStore);
                // Drop the shared copy and fetch with ownership. The
                // drop invalidates data a speculative load to another
                // word of this line may already have consumed, so the
                // LQ must be notified like for any invalidation.
                notifyLq(line);
                array_.free(*entry);
                continue; // Re-dispatch: StI + Store -> GETX.
              case PendingReq::Kind::Flush:
                table_.record(StS, EvFlush);
                notifyLq(line);
                array_.free(*entry);
                respond(req.id, 0, 0, 1);
                q.pop_front();
                continue;
            }
            break;

          case StM:
            switch (req.kind) {
              case PendingReq::Kind::Load:
                table_.record(StM, EvLoad);
                array_.touch(*entry, eq_.now());
                respond(req.id, entry->data.word(req.addr), 0,
                        cfg_.l1HitLatency);
                q.pop_front();
                continue;
              case PendingReq::Kind::Store:
              case PendingReq::Kind::Rmw: {
                table_.record(StM, req.kind == PendingReq::Kind::Rmw
                                       ? EvRmw
                                       : EvStore);
                array_.touch(*entry, eq_.now());
                if (req.kind == PendingReq::Kind::Rmw) {
                    // Atomic RMWs are full fences (acquire points):
                    // without sharer invalidations, TSO across a fence
                    // is only preserved if all Shared lines are
                    // self-invalidated here. Fences are rare, so
                    // flagging in-flight fills cannot self-sustain.
                    selfInvalidateShared(line, true);
                }
                const WriteVal old = entry->data.word(req.addr);
                entry->data.setWord(req.addr, req.value);
                stampWrite(*entry);
                if (req.kind == PendingReq::Kind::Rmw)
                    respond(req.id, old, old, cfg_.l1HitLatency);
                else
                    respond(req.id, 0, old, cfg_.l1HitLatency);
                q.pop_front();
                continue;
              }
              case PendingReq::Kind::Flush:
                table_.record(StM, EvFlush);
                writeBack(*entry, StMI, true, req.id);
                q.pop_front();
                return;
            }
            break;

          case StIS:
          case StIM:
            return; // Wait for data.

          default:
            return;
        }
    }
    if (q.empty())
        pending_.erase(line);
}

// ---------------------------------------------------------------------
// Message handling.
// ---------------------------------------------------------------------

void
TsoccL1::handleMsg(const Msg &msg)
{
    const Addr line = msg.line;

    if (msg.type == MsgType::TsReset) {
        table_.record(StCtrl, EvTsReset);
        // A writer reset its timestamp: anything we later see from it
        // in the new epoch must be treated as unseen.
        Seen &seen = lastSeen_[static_cast<std::size_t>(msg.requester)];
        seen.valid = true;
        seen.epoch = msg.meta.epoch;
        seen.ts = 0;
        return;
    }

    // buf stays valid until retireWriteback erases it.
    if (EvictBuf *found = evict_.find(line)) {
        EvictBuf &buf = *found;
        const auto st = static_cast<State>(buf.state);
        switch (msg.type) {
          case MsgType::Recall:
            table_.record(st, EvRecall);
            send(MsgType::RecallAckNoData, line, home(line),
                 Vnet::Response);
            buf.state = StII;
            // Re-notify the LQ: a squashed load may have re-bound this
            // line's data via store-buffer forwarding after the
            // eviction-time notification (see MesiL1::handleMsg).
            notifyLq(line);
            return;
          case MsgType::WbAck:
          case MsgType::WbNack:
            table_.record(st, msg.type == MsgType::WbAck ? EvWbAck
                                                         : EvWbNack);
            retireWriteback(line);
            return;
          default:
            table_.record(st, EvData); // Undefined: throws.
            return;
        }
    }

    CacheEntry *entry = array_.find(line);
    const State st = entry ? static_cast<State>(entry->state) : StI;

    switch (msg.type) {
      case MsgType::Data:
        table_.record(st, EvData);
        if (st == StIS) {
            if (entry->consumeFlagged) {
                // Stale fill (self-invalidation crossed it): consume
                // once, flagged, and do not install.
                answerQueuedLoads(line, msg.data, true);
                array_.free(*entry);
                processPending(line);
                return;
            }
            entry->data = msg.data;
            entry->meta = msg.meta;
            entry->state = StS;
            entry->accessesLeft = cfg_.tsoccMaxAccesses;
            applySelfInvRule(msg.meta, line);
            processPending(line);
        } else { // StIM
            entry->data = msg.data;
            entry->meta = msg.meta;
            entry->state = StM;
            applySelfInvRule(msg.meta, line);
            send(MsgType::Unblock, line, home(line), Vnet::Request);
            processPending(line);
        }
        return;

      case MsgType::Recall:
        table_.record(st, EvRecall); // Only StM defined.
        send(MsgType::RecallData, line, home(line), Vnet::Response,
             [&](Msg &m) {
                 m.data = entry->data;
                 m.hasData = true;
                 m.dirty = true;
                 m.meta = entry->meta;
             });
        notifyLq(line);
        array_.free(*entry);
        processPending(line);
        return;

      default:
        throw ProtocolError("TSOCC-L1", kStateNames[st],
                            msgTypeName(msg.type));
    }
}

void
TsoccL1::resetAll()
{
    L1Controller::resetAll();
    for (Seen &seen : lastSeen_)
        seen = Seen{};
    // Keep curTs_/curEpoch_: timestamps are global machine state, not
    // per-test state (the paper resets only test-related state).
    writesInGroup_ = 0;
}

} // namespace mcversi::sim
