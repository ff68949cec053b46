#include "sim/mesi/mesi_l1.hh"

#include <cassert>

namespace mcversi::sim {

namespace {

const std::vector<std::string> kStateNames = {
    "I", "S", "E", "M", "IS", "IS_I", "IM", "SM", "MI", "II",
};

const std::vector<std::string> kEventNames = {
    "Load",   "Store",  "Rmw",     "Flush",   "Replacement",
    "DataS",  "DataE",  "AckCount", "InvAck", "Inv",
    "Recall", "FwdGETS", "FwdGETX", "WbAck",  "WbNack",
};

} // namespace

MesiL1::MesiL1(Pid pid, const SystemConfig &cfg, EventQueue &eq,
               Network &net, TransitionCoverage &cov)
    : L1Controller(pid, cfg, eq, net,
                   TransitionTable(cov, "MESI-L1", kStateNames, kEventNames),
                   StIS, StIM)
{
    buildTable();
}

void
MesiL1::buildTable()
{
    auto def = [this](State s, Event e) { table_.define(s, e); };

    def(StI, EvLoad);
    def(StI, EvStore);
    def(StI, EvRmw);
    def(StI, EvFlush);
    def(StI, EvInv);

    def(StS, EvLoad);
    def(StS, EvStore);
    def(StS, EvRmw);
    def(StS, EvFlush);
    def(StS, EvReplacement);
    def(StS, EvInv);

    for (State s : {StE, StM}) {
        def(s, EvLoad);
        def(s, EvStore);
        def(s, EvRmw);
        def(s, EvFlush);
        def(s, EvReplacement);
        def(s, EvRecall);
        def(s, EvFwdGETS);
        def(s, EvFwdGETX);
    }

    def(StIS, EvDataShared);
    def(StIS, EvDataExclusive);
    def(StIS, EvInv);

    def(StIS_I, EvDataShared);
    def(StIS_I, EvDataExclusive);
    def(StIS_I, EvInv);

    def(StIM, EvDataExclusive);
    def(StIM, EvInvAckIn);
    def(StIM, EvInv);

    def(StSM, EvLoad);
    def(StSM, EvAckCount);
    def(StSM, EvInvAckIn);
    def(StSM, EvInv);

    def(StMI, EvFwdGETS);
    def(StMI, EvFwdGETX);
    def(StMI, EvRecall);
    def(StMI, EvWbAck);
    def(StMI, EvWbNack);
    def(StMI, EvInv);

    def(StII, EvWbAck);
    def(StII, EvWbNack);
    def(StII, EvInv);
}

void
MesiL1::applyStore(CacheEntry &entry, const PendingReq &req)
{
    const WriteVal old = entry.data.word(req.addr);
    entry.data.setWord(req.addr, req.value);
    if (req.kind == PendingReq::Kind::Rmw) {
        respond(req.id, old, old, cfg_.l1HitLatency);
    } else {
        respond(req.id, 0, old, cfg_.l1HitLatency);
    }
}

bool
MesiL1::stable(std::uint8_t state) const
{
    return state == StS || state == StE || state == StM;
}

void
MesiL1::doReplacement(CacheEntry &entry)
{
    const Addr line = entry.line;
    const auto st = static_cast<State>(entry.state);
    table_.record(st, EvReplacement);
    switch (st) {
      case StS:
        send(MsgType::PUTS, line, home(line), Vnet::Request);
        if (cfg_.bug != BugId::MesiLqSReplacement)
            notifyLq(line);
        array_.free(entry);
        break;
      case StE:
      case StM:
        writeBack(entry, StMI, st == StM);
        break;
      default:
        assert(false && "victim must be stable");
    }
}

void
MesiL1::processPending(Addr line)
{
    // q stays valid: nothing below inserts into or erases from pending_.
    Fifo<PendingReq> *found = pending_.find(line);
    if (!found)
        return;
    Fifo<PendingReq> &q = *found;

    while (!q.empty()) {
        // A line parked in the writeback buffer blocks everything.
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
                return; // Wait for data.
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
                table_.record(StS, EvLoad);
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
                entry->state = StSM;
                entry->acksOutstanding = 0;
                entry->dataReceived = false;
                send(MsgType::UPGRADE, line, home(line), Vnet::Request);
                return; // Wait for acks.
              case PendingReq::Kind::Flush:
                table_.record(StS, EvFlush);
                send(MsgType::PUTS, line, home(line), Vnet::Request);
                notifyLq(line);
                array_.free(*entry);
                respond(req.id, 0, 0, 1);
                q.pop_front();
                continue;
            }
            break;

          case StE:
          case StM:
            switch (req.kind) {
              case PendingReq::Kind::Load:
                table_.record(st, EvLoad);
                array_.touch(*entry, eq_.now());
                respond(req.id, entry->data.word(req.addr), 0,
                        cfg_.l1HitLatency);
                q.pop_front();
                continue;
              case PendingReq::Kind::Store:
              case PendingReq::Kind::Rmw:
                table_.record(st, req.kind == PendingReq::Kind::Rmw
                                      ? EvRmw
                                      : EvStore);
                entry->state = StM;
                array_.touch(*entry, eq_.now());
                applyStore(*entry, req);
                q.pop_front();
                continue;
              case PendingReq::Kind::Flush:
                table_.record(st, EvFlush);
                writeBack(*entry, StMI, st == StM, req.id);
                q.pop_front();
                return; // Buffer blocks the line until WbAck.
            }
            break;

          case StSM:
            if (req.kind == PendingReq::Kind::Load) {
                // SM retains valid, readable data.
                table_.record(StSM, EvLoad);
                respond(req.id, entry->data.word(req.addr), 0,
                        cfg_.l1HitLatency);
                q.pop_front();
                continue;
            }
            return; // Stores/flushes wait for M.

          case StIS:
          case StIS_I:
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
// Network message handling.
// ---------------------------------------------------------------------

void
MesiL1::enterM(CacheEntry &entry)
{
    entry.state = StM;
    send(MsgType::Unblock, entry.line, home(entry.line), Vnet::Request);
    processPending(entry.line);
}

void
MesiL1::handleMsg(const Msg &msg)
{
    const Addr line = msg.line;

    // Writeback buffer states first (the array way is already free).
    //
    // Every foreign touch (fwd, recall, inv) during the writeback must
    // re-notify the LQ even though the eviction itself already did:
    // between that first notification and the draining of the store
    // that produced the line's data, a squashed load can replay and
    // re-bind the same data via store-buffer forwarding. Once the line
    // is gone from the array, a later competing write reaches this L1
    // only through these writeback-state messages -- skipping the
    // notification here lets such a load retire a coherence-stale
    // value (a genuine TSO violation on a correct system).
    // buf stays valid until retireWriteback erases it.
    if (EvictBuf *found = evict_.find(line)) {
        EvictBuf &buf = *found;
        const auto st = static_cast<State>(buf.state);
        switch (msg.type) {
          case MsgType::FwdGETS:
            table_.record(st, EvFwdGETS);
            send(MsgType::Data, line, coreNode(msg.requester),
                 Vnet::Response, [&](Msg &m) {
                     m.data = buf.data;
                     m.hasData = true;
                 });
            send(MsgType::WbDataToL2, line, home(line), Vnet::Response,
                 [&](Msg &m) {
                     m.data = buf.data;
                     m.hasData = true;
                     m.dirty = buf.dirty;
                 });
            buf.state = StII;
            notifyLq(line);
            return;
          case MsgType::FwdGETX:
            table_.record(st, EvFwdGETX);
            send(MsgType::Data, line, coreNode(msg.requester),
                 Vnet::Response, [&](Msg &m) {
                     m.data = buf.data;
                     m.hasData = true;
                     m.exclusive = true;
                 });
            buf.state = StII;
            notifyLq(line);
            return;
          case MsgType::Recall:
            table_.record(st, EvRecall);
            send(MsgType::RecallAckNoData, line, home(line),
                 Vnet::Response);
            buf.state = StII;
            notifyLq(line);
            return;
          case MsgType::WbAck:
          case MsgType::WbNack:
            table_.record(st, msg.type == MsgType::WbAck ? EvWbAck
                                                         : EvWbNack);
            retireWriteback(line);
            return;
          case MsgType::Inv:
            table_.record(st, EvInv);
            send(MsgType::InvAck, line, msg.ackTarget, Vnet::Response);
            notifyLq(line);
            return;
          default:
            table_.record(st, EvDataShared); // Will throw (undefined).
            return;
        }
    }

    CacheEntry *entry = array_.find(line);
    const State st = entry ? static_cast<State>(entry->state) : StI;

    switch (msg.type) {
      case MsgType::Inv:
        table_.record(st, EvInv);
        send(MsgType::InvAck, line, msg.ackTarget, Vnet::Response);
        switch (st) {
          case StI:
          case StIS_I:
          case StIM:
            break; // Stale invalidation; ack only.
          case StS:
            notifyLq(line);
            array_.free(*entry);
            break;
          case StIS:
            entry->state = StIS_I;
            break;
          case StSM:
            // Lost the upgrade race: the line's data is gone and our
            // queued UPGRADE will be served as a full GETX.
            if (cfg_.bug != BugId::MesiLqSmInv)
                notifyLq(line);
            entry->state = StIM;
            entry->dataReceived = false;
            break;
          default:
            break;
        }
        return;

      case MsgType::Recall:
        table_.record(st, EvRecall);
        switch (st) {
          case StE:
            send(MsgType::RecallData, line, home(line), Vnet::Response,
                 [&](Msg &m) {
                     m.data = entry->data;
                     m.hasData = true;
                     m.dirty = false;
                 });
            if (cfg_.bug != BugId::MesiLqEInv)
                notifyLq(line);
            array_.free(*entry);
            break;
          case StM:
            send(MsgType::RecallData, line, home(line), Vnet::Response,
                 [&](Msg &m) {
                     m.data = entry->data;
                     m.hasData = true;
                     m.dirty = true;
                 });
            if (cfg_.bug != BugId::MesiLqMInv)
                notifyLq(line);
            array_.free(*entry);
            break;
          default:
            break; // table_.record already threw for undefined pairs
        }
        processPending(line);
        return;

      case MsgType::FwdGETS:
        table_.record(st, EvFwdGETS);
        // E or M: supply the requester and the L2, drop to S.
        send(MsgType::Data, line, coreNode(msg.requester), Vnet::Response,
             [&](Msg &m) {
                 m.data = entry->data;
                 m.hasData = true;
             });
        send(MsgType::WbDataToL2, line, home(line), Vnet::Response,
             [&](Msg &m) {
                 m.data = entry->data;
                 m.hasData = true;
                 m.dirty = (st == StM);
             });
        entry->state = StS;
        return;

      case MsgType::FwdGETX:
        table_.record(st, EvFwdGETX);
        send(MsgType::Data, line, coreNode(msg.requester), Vnet::Response,
             [&](Msg &m) {
                 m.data = entry->data;
                 m.hasData = true;
                 m.exclusive = true;
             });
        notifyLq(line);
        array_.free(*entry);
        processPending(line);
        return;

      case MsgType::Data: {
        const Event ev = msg.exclusive ? EvDataExclusive : EvDataShared;
        table_.record(st, ev);
        switch (st) {
          case StIS:
            entry->data = msg.data;
            if (msg.exclusive) {
                entry->state = StE;
                send(MsgType::Unblock, line, home(line), Vnet::Request);
            } else {
                entry->state = StS;
            }
            processPending(line);
            break;
          case StIS_I: {
            // Consume the data once; the LQ must treat the consuming
            // loads as invalidated-at-consume-time ("Peekaboo").
            // BUG MESI,LQ+IS,Inv: the flag is never set.
            answerQueuedLoads(line, msg.data,
                              cfg_.bug != BugId::MesiLqIsInv);
            if (msg.exclusive) {
                // The sunk Inv was stale; the grant is authoritative.
                entry->data = msg.data;
                entry->state = StE;
                send(MsgType::Unblock, line, home(line), Vnet::Request);
            } else {
                array_.free(*entry);
            }
            processPending(line);
            break;
          }
          case StIM:
            entry->data = msg.data;
            entry->dataReceived = true;
            entry->acksOutstanding += msg.ackCount;
            if (entry->acksOutstanding == 0)
                enterM(*entry);
            break;
          default:
            break;
        }
        return;
      }

      case MsgType::AckCount:
        table_.record(st, EvAckCount);
        // SM: upgrade grant without data.
        entry->dataReceived = true;
        entry->acksOutstanding += msg.ackCount;
        if (entry->acksOutstanding == 0)
            enterM(*entry);
        return;

      case MsgType::InvAck:
        table_.record(st, EvInvAckIn);
        entry->acksOutstanding -= 1;
        if (entry->dataReceived && entry->acksOutstanding == 0)
            enterM(*entry);
        return;

      default:
        throw ProtocolError("MESI-L1", kStateNames[st],
                            msgTypeName(msg.type));
    }
}

} // namespace mcversi::sim
