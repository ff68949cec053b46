#include "sim/mesi/mesi_l2.hh"

#include <cassert>

namespace mcversi::sim {

namespace {

const std::vector<std::string> kStateNames = {
    "NP", "SS", "MT", "ISS", "IMM", "B_MT", "MT_SB", "SS_I", "MT_I",
};

const std::vector<std::string> kEventNames = {
    "GETS",      "GETX",       "UpgradeSharer", "UpgradeNonSharer",
    "PutsSharer", "PutsStale", "PutxOwner",     "PutxSharer",
    "PutxNonOwner", "Unblock", "WbDataOwner",   "RecallData",
    "RecallAckNoData", "InvAckIn", "MemData",   "Replacement",
};

} // namespace

MesiL2::MesiL2(int tile, const SystemConfig &cfg, EventQueue &eq,
               Network &net, TransitionCoverage &cov, Rng rng)
    : tile_(tile), cfg_(cfg), eq_(eq), net_(net),
      table_(cov, "MESI-L2", kStateNames, kEventNames), rng_(rng),
      array_(cfg.l2SetsPerTile, cfg.l2Ways)
{
    buildTable();
}

int
MesiL2::popcount(std::uint32_t v)
{
    int n = 0;
    while (v) {
        v &= v - 1;
        ++n;
    }
    return n;
}

void
MesiL2::buildTable()
{
    auto def = [this](State s, Event e) { table_.define(s, e); };

    def(StNP, EvGETS);
    def(StNP, EvGETX);
    def(StNP, EvUpgradeNonSharer);
    def(StNP, EvPutsStale);
    def(StNP, EvPutxNonOwner);

    def(StSS, EvGETS);
    def(StSS, EvGETX);
    def(StSS, EvUpgradeSharer);
    def(StSS, EvUpgradeNonSharer);
    def(StSS, EvPutsSharer);
    def(StSS, EvPutsStale);
    def(StSS, EvPutxSharer);
    def(StSS, EvPutxNonOwner);
    def(StSS, EvReplacement);

    def(StMT, EvGETS);
    def(StMT, EvGETX);
    def(StMT, EvUpgradeNonSharer);
    def(StMT, EvPutxOwner);
    def(StMT, EvPutsStale);
    def(StMT, EvReplacement);
    // The PUTX-Race bug removes exactly this transition (§5.3): a PUTX
    // from a core that is no longer the owner, i.e. the writeback lost
    // the race against an ownership transfer (Komuravelli et al.).
    if (cfg_.bug != BugId::MesiPutxRace)
        def(StMT, EvPutxNonOwner);

    def(StISS, EvMemData);
    def(StIMM, EvMemData);
    def(StB_MT, EvUnblock);
    def(StMT_SB, EvWbDataOwner);

    def(StSS_I, EvInvAckIn);
    def(StMT_I, EvRecallData);
    def(StMT_I, EvRecallAckNoData);
    def(StMT_I, EvPutxOwner);
    // Stale recall ack from a PUTX-completed recall (absorbed).
    def(StNP, EvRecallAckNoData);
}

Msg &
MesiL2::buildMsg(MsgType t, Addr line, NodeId dst, Vnet vnet,
                 const std::function<void(Msg &)> &fill)
{
    Msg &msg = net_.stage();
    msg.type = t;
    msg.line = line;
    msg.src = l2Node(tile_);
    msg.dst = dst;
    msg.vnet = vnet;
    if (fill)
        fill(msg);
    return msg;
}

void
MesiL2::send(MsgType t, Addr line, NodeId dst, Vnet vnet,
             const std::function<void(Msg &)> &fill)
{
    net_.send(&buildMsg(t, line, dst, vnet, fill));
}

void
MesiL2::sendAfter(Tick delta, MsgType t, Addr line, NodeId dst,
                  Vnet vnet, const std::function<void(Msg &)> &fill)
{
    // Build the message now (all inputs are already captured by value
    // in the old thunk idiom); latency, FIFO order and the jitter draw
    // still happen at injection time, inside the NetSend event.
    eq_.scheduleNetSend(eq_.now() + delta, &net_,
                        &buildMsg(t, line, dst, vnet, fill));
}

void
MesiL2::memWrite(Addr line, const LineData &data)
{
    send(MsgType::MemWrite, line, kMemNode, Vnet::Mem, [&](Msg &m) {
        m.data = data;
        m.hasData = true;
    });
}

MesiL2::State
MesiL2::lineState(Addr line)
{
    if (auto it = evict_.find(line); it != evict_.end())
        return it->second.state;
    if (CacheEntry *e = array_.find(line))
        return static_cast<State>(e->state);
    return StNP;
}

bool
MesiL2::serving(Addr line)
{
    const State st = lineState(line);
    return st == StNP || st == StSS || st == StMT;
}

void
MesiL2::enqueueMsg(const Msg &msg)
{
    waiting_[msg.line].push_back(msg);
}

void
MesiL2::drain(Addr line)
{
    // serveRequest below can transition the line away from a serving
    // state (or call drain recursively); the loop re-reads the queue and
    // the state every iteration, so recursion simply consumes the queue
    // a little earlier.
    for (;;) {
        auto it = waiting_.find(line);
        if (it == waiting_.end())
            return;
        if (it->second.empty()) {
            waiting_.erase(it);
            return;
        }
        if (!serving(line))
            return;
        Msg msg = it->second.front();
        it->second.pop_front();
        serveRequest(msg);
    }
}

// ---------------------------------------------------------------------
// Request service.
// ---------------------------------------------------------------------

void
MesiL2::serveGets(CacheEntry *entry, Addr line, Pid c)
{
    if (!entry) {
        table_.record(StNP, EvGETS);
        Msg request;
        request.type = MsgType::GETS;
        request.line = line;
        request.requester = c;
        startFetch(line, c, false, request);
        return;
    }
    if (entry->state == StMT) {
        table_.record(StMT, EvGETS);
        send(MsgType::FwdGETS, line, coreNode(entry->owner), Vnet::Fwd,
             [&](Msg &m) { m.requester = c; });
        entry->state = StMT_SB;
        entry->pendingRequester = c;
        return;
    }
    table_.record(StSS, EvGETS);
    array_.touch(*entry, eq_.now());
    if (entry->sharers == 0) {
        // Grant exclusivity (MESI E); block until the new owner
        // unblocks.
        entry->state = StB_MT;
        entry->pendingRequester = c;
        entry->grantedClean = true;
        sendAfter(cfg_.l2AccessLatency, MsgType::Data, line,
                  coreNode(c), Vnet::Response, [&](Msg &m) {
                      m.data = entry->data;
                      m.hasData = true;
                      m.exclusive = true;
                  });
    } else {
        // Non-blocking shared grant: the sharer is registered before
        // its data arrives, so a later GETX's Inv can overtake the data
        // in the network (IS_I at the L1).
        entry->sharers |= bit(c);
        sendAfter(cfg_.l2AccessLatency, MsgType::Data, line,
                  coreNode(c), Vnet::Response, [&](Msg &m) {
                      m.data = entry->data;
                      m.hasData = true;
                  });
    }
}

void
MesiL2::serveGetx(CacheEntry *entry, Addr line, Pid c)
{
    if (!entry) {
        Msg request;
        request.type = MsgType::GETX;
        request.line = line;
        request.requester = c;
        startFetch(line, c, true, request);
        return;
    }
    array_.touch(*entry, eq_.now());
    if (entry->state == StMT) {
        send(MsgType::FwdGETX, line, coreNode(entry->owner), Vnet::Fwd,
             [&](Msg &m) { m.requester = c; });
        entry->state = StB_MT;
        entry->pendingRequester = c;
        entry->grantedClean = false;
        entry->owner = kInitPid;
        return;
    }
    // SS: invalidate sharers, send data + ack count.
    const std::uint32_t others = entry->sharers & ~bit(c);
    const int acks = popcount(others);
    for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
        if (others & bit(p)) {
            send(MsgType::Inv, line, coreNode(p), Vnet::Fwd,
                 [&](Msg &m) {
                     m.requester = c;
                     m.ackTarget = coreNode(c);
                 });
        }
    }
    entry->sharers = 0;
    entry->state = StB_MT;
    entry->pendingRequester = c;
    entry->grantedClean = false;
    sendAfter(cfg_.l2AccessLatency, MsgType::Data, line, coreNode(c),
              Vnet::Response, [&](Msg &m) {
                  m.data = entry->data;
                  m.hasData = true;
                  m.exclusive = true;
                  m.ackCount = acks;
              });
}

void
MesiL2::startFetch(Addr line, Pid c, bool exclusive, const Msg &msg)
{
    CacheEntry *entry = array_.allocate(line);
    if (!entry) {
        if (!evictVictim(line)) {
            // No stable victim yet: wait for wake() to re-serve the
            // whole request.
            stalls_.park(array_.setIndex(line), msg);
            return;
        }
        entry = array_.allocate(line);
        assert(entry);
    }
    entry->state = exclusive ? StIMM : StISS;
    entry->pendingRequester = c;
    array_.touch(*entry, eq_.now());
    send(MsgType::MemRead, line, kMemNode, Vnet::Mem);
}

bool
MesiL2::evictable(const CacheEntry &e)
{
    return e.state == StSS || e.state == StMT;
}

bool
MesiL2::evictVictim(Addr line)
{
    CacheEntry *victim = array_.victim(line, evictable);
    if (!victim)
        return false;
    doReplacement(*victim);
    return true;
}

void
MesiL2::wake(Addr line)
{
    stalls_.wake(
        array_.setIndex(line),
        [&] { return array_.canAllocate(line, evictable); },
        [this](const Msg &msg) { serveRequest(msg); });
}

void
MesiL2::doReplacement(CacheEntry &entry)
{
    const Addr line = entry.line;
    const auto st = static_cast<State>(entry.state);
    table_.record(st, EvReplacement);
    if (st == StSS) {
        if (entry.sharers == 0) {
            if (entry.dirty)
                memWrite(line, entry.data);
            array_.free(entry);
            return;
        }
        EvictBuf buf;
        buf.state = StSS_I;
        buf.data = entry.data;
        buf.dirty = entry.dirty;
        buf.acksLeft = popcount(entry.sharers);
        for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
            if (entry.sharers & bit(p)) {
                send(MsgType::Inv, line, coreNode(p), Vnet::Fwd,
                     [&](Msg &m) { m.ackTarget = l2Node(tile_); });
            }
        }
        evict_[line] = buf;
        array_.free(entry);
        return;
    }
    // MT: recall from the owner (an invalidating recall; this is the
    // path on which the L1-side E/M recall-invalidation bugs manifest).
    assert(st == StMT);
    EvictBuf buf;
    buf.state = StMT_I;
    buf.data = entry.data;
    buf.dirty = entry.dirty;
    buf.grantedClean = entry.grantedClean;
    buf.owner = entry.owner;
    send(MsgType::Recall, line, coreNode(entry.owner), Vnet::Fwd);
    evict_[line] = buf;
    array_.free(entry);
}

void
MesiL2::completeRecall(Addr line, EvictBuf &buf, bool msg_dirty,
                       const LineData &msg_data, bool from_putx)
{
    // BUG MESI+Replace-Race: the block was granted clean (E), so the
    // eviction logic "does not expect modified data" from the racing
    // owner writeback and drops it without checking the dirty flag.
    bool effective_dirty = msg_dirty;
    if (from_putx && buf.grantedClean &&
        cfg_.bug == BugId::MesiReplaceRace) {
        effective_dirty = false;
    }
    if (effective_dirty) {
        memWrite(line, msg_data);
    } else if (buf.dirty) {
        memWrite(line, buf.data);
    }
    evict_.erase(line);
    drain(line);
}

void
MesiL2::serveRequest(const Msg &msg)
{
    const Addr line = msg.line;

    // A PUTX from the recalled owner completes an in-flight MT_I
    // eviction and must not be queued behind it.
    if (msg.type == MsgType::PUTX) {
        if (auto it = evict_.find(line);
            it != evict_.end() && it->second.state == StMT_I &&
            it->second.owner == msg.requester) {
            table_.record(StMT_I, EvPutxOwner);
            send(MsgType::WbAck, line, coreNode(msg.requester),
                 Vnet::Fwd);
            // Unless the owner's recall ack already arrived, it is
            // still in flight and must be absorbed later.
            if (!it->second.ownerGone)
                ++staleRecallAcks_[line];
            completeRecall(line, it->second, msg.dirty, msg.data, true);
            return;
        }
    }

    if (!serving(line)) {
        enqueueMsg(msg);
        return;
    }
    CacheEntry *entry = array_.find(line);
    const State st = entry ? static_cast<State>(entry->state) : StNP;
    const Pid c = msg.requester;

    switch (msg.type) {
      case MsgType::GETS:
        serveGets(entry, line, c);
        return;

      case MsgType::GETX:
        table_.record(st, EvGETX);
        serveGetx(entry, line, c);
        return;

      case MsgType::UPGRADE: {
        const bool sharer =
            entry && st == StSS && (entry->sharers & bit(c));
        table_.record(st, sharer ? EvUpgradeSharer : EvUpgradeNonSharer);
        if (!sharer) {
            // Requester lost the line (or it left the L2): full GETX.
            serveGetx(entry, line, c);
            return;
        }
        const std::uint32_t others = entry->sharers & ~bit(c);
        const int acks = popcount(others);
        for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
            if (others & bit(p)) {
                send(MsgType::Inv, line, coreNode(p), Vnet::Fwd,
                     [&](Msg &m) {
                         m.requester = c;
                         m.ackTarget = coreNode(c);
                     });
            }
        }
        entry->sharers = 0;
        entry->state = StB_MT;
        entry->pendingRequester = c;
        entry->grantedClean = false;
        sendAfter(cfg_.l2AccessLatency, MsgType::AckCount, line,
                  coreNode(c), Vnet::Response,
                  [&](Msg &m) { m.ackCount = acks; });
        return;
      }

      case MsgType::PUTS: {
        const bool sharer =
            entry && st == StSS && (entry->sharers & bit(c));
        table_.record(st, sharer ? EvPutsSharer : EvPutsStale);
        if (sharer)
            entry->sharers &= ~bit(c);
        return;
      }

      case MsgType::PUTX: {
        Event ev;
        if (entry && st == StMT && entry->owner == c) {
            ev = EvPutxOwner;
        } else if (entry && st == StSS && (entry->sharers & bit(c))) {
            ev = EvPutxSharer;
        } else {
            ev = EvPutxNonOwner;
        }
        table_.record(st, ev); // Throws for (MT, PutxNonOwner) w/ bug.
        switch (ev) {
          case EvPutxOwner:
            if (msg.dirty) {
                entry->data = msg.data;
                entry->dirty = true;
            }
            entry->owner = kInitPid;
            entry->grantedClean = false;
            entry->state = StSS;
            entry->sharers = 0;
            send(MsgType::WbAck, line, coreNode(c), Vnet::Fwd);
            return;
          case EvPutxSharer:
            // Leftover of a FwdGETS race: the data already reached us
            // via WbDataToL2; just retire the writeback.
            entry->sharers &= ~bit(c);
            send(MsgType::WbAck, line, coreNode(c), Vnet::Fwd);
            return;
          default:
            send(MsgType::WbNack, line, coreNode(c), Vnet::Fwd);
            return;
        }
      }

      default:
        throw ProtocolError("MESI-L2", kStateNames[st],
                            msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------

void
MesiL2::handleMsg(const Msg &msg)
{
    const Addr line = msg.line;

    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
      case MsgType::UPGRADE:
      case MsgType::PUTS:
      case MsgType::PUTX:
        serveRequest(msg);
        return;

      case MsgType::MemData: {
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, EvMemData); // Only ISS/IMM defined.
        entry->data = msg.data;
        entry->dirty = false;
        const Pid c = entry->pendingRequester;
        entry->grantedClean = (st == StISS);
        entry->state = StB_MT;
        send(MsgType::Data, line, coreNode(c), Vnet::Response,
             [&](Msg &m) {
                 m.data = msg.data;
                 m.hasData = true;
                 m.exclusive = true;
             });
        return;
      }

      case MsgType::Unblock: {
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, EvUnblock); // Only B_MT defined.
        entry->state = StMT;
        entry->owner = entry->pendingRequester;
        entry->pendingRequester = kInitPid;
        drain(line);
        wake(line);
        return;
      }

      case MsgType::WbDataToL2: {
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, EvWbDataOwner); // Only MT_SB defined.
        // The owner supplied data for a FwdGETS; the line becomes
        // shared by the old owner and the requester.
        entry->data = msg.data;
        if (msg.dirty)
            entry->dirty = true;
        entry->sharers = bit(static_cast<Pid>(msg.src)) |
                         bit(entry->pendingRequester);
        entry->owner = kInitPid;
        entry->grantedClean = false;
        entry->pendingRequester = kInitPid;
        entry->state = StSS;
        drain(line);
        wake(line);
        return;
      }

      case MsgType::RecallData:
      case MsgType::RecallAckNoData: {
        auto it = evict_.find(line);
        if (it == evict_.end() && msg.type == MsgType::RecallAckNoData) {
            if (auto sit = staleRecallAcks_.find(line);
                sit != staleRecallAcks_.end()) {
                table_.record(StNP, EvRecallAckNoData);
                if (--sit->second == 0)
                    staleRecallAcks_.erase(sit);
                return;
            }
        }
        const State st =
            it != evict_.end() ? it->second.state : lineState(line);
        table_.record(st, msg.type == MsgType::RecallData
                              ? EvRecallData
                              : EvRecallAckNoData); // Only MT_I defined.
        EvictBuf &buf = it->second;
        if (msg.type == MsgType::RecallAckNoData) {
            // The owner's PUTX is in flight and completes the recall.
            buf.ownerGone = true;
            return;
        }
        completeRecall(line, buf, msg.dirty, msg.data, false);
        return;
      }

      case MsgType::InvAck: {
        auto it = evict_.find(line);
        const State st =
            it != evict_.end() ? it->second.state : lineState(line);
        table_.record(st, EvInvAckIn); // Only SS_I defined.
        EvictBuf &buf = it->second;
        if (--buf.acksLeft == 0) {
            if (buf.dirty)
                memWrite(line, buf.data);
            evict_.erase(it);
            drain(line);
        }
        return;
      }

      default:
        throw ProtocolError("MESI-L2", kStateNames[lineState(line)],
                            msgTypeName(msg.type));
    }
}

void
MesiL2::resetAll()
{
    array_.reset();
    evict_.clear();
    waiting_.clear();
    stalls_.clear();
    staleRecallAcks_.clear();
}

} // namespace mcversi::sim
