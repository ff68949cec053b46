#include "sim/mesi/mesi_l2.hh"

#include <bit>
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
               Network &net, TransitionCoverage &cov)
    : L2Controller(tile, cfg, eq, net,
                   TransitionTable(cov, "MESI-L2", kStateNames, kEventNames),
                   StISS, StIMM)
{
    buildTable();
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
        startFetch(request, false);
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
        startFetch(request, true);
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
    const int acks = blockForExclusive(*entry, c);
    sendAfter(cfg_.l2AccessLatency, MsgType::Data, line, coreNode(c),
              Vnet::Response, [&](Msg &m) {
                  m.data = entry->data;
                  m.hasData = true;
                  m.exclusive = true;
                  m.ackCount = acks;
              });
}

int
MesiL2::blockForExclusive(CacheEntry &entry, Pid c)
{
    const std::uint32_t others = entry.sharers & ~bit(c);
    for (Pid p = 0; p < static_cast<Pid>(cfg_.numCores); ++p) {
        if (others & bit(p)) {
            send(MsgType::Inv, entry.line, coreNode(p), Vnet::Fwd,
                 [&](Msg &m) {
                     m.requester = c;
                     m.ackTarget = coreNode(c);
                 });
        }
    }
    entry.sharers = 0;
    entry.state = StB_MT;
    entry.pendingRequester = c;
    entry.grantedClean = false;
    return std::popcount(others);
}

bool
MesiL2::stable(std::uint8_t state) const
{
    return state == StSS || state == StMT;
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
        buf.acksLeft = std::popcount(entry.sharers);
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
        if (EvictBuf *buf = evict_.find(line);
            buf && buf->state == StMT_I && buf->owner == msg.requester) {
            table_.record(StMT_I, EvPutxOwner);
            ackRecalledPutx(line, msg.requester, buf->ownerGone);
            completeRecall(line, *buf, msg.dirty, msg.data, true);
            return;
        }
    }

    if (waitUnlessServing(msg))
        return;
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
        const int acks = blockForExclusive(*entry, c);
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
        if (absorbStaleRecallAck(msg, EvRecallAckNoData))
            return;
        table_.record(stateOf(line), msg.type == MsgType::RecallData
                                         ? EvRecallData
                                         : EvRecallAckNoData); // Only MT_I.
        EvictBuf &buf = *evict_.find(line);
        if (msg.type == MsgType::RecallAckNoData) {
            // The owner's PUTX is in flight and completes the recall.
            buf.ownerGone = true;
            return;
        }
        completeRecall(line, buf, msg.dirty, msg.data, false);
        return;
      }

      case MsgType::InvAck: {
        table_.record(stateOf(line), EvInvAckIn); // Only SS_I defined.
        EvictBuf &buf = *evict_.find(line);
        if (--buf.acksLeft == 0) {
            if (buf.dirty)
                memWrite(line, buf.data);
            evict_.erase(line);
            drain(line);
        }
        return;
      }

      default:
        throw ProtocolError("MESI-L2", kStateNames[lineState(line)],
                            msgTypeName(msg.type));
    }
}

} // namespace mcversi::sim
