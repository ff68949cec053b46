#include "sim/tsocc/tsocc_l2.hh"

#include <cassert>
#include <sstream>

namespace mcversi::sim {

namespace {

const std::vector<std::string> kStateNames = {
    "NP", "U", "O", "IU_S", "IU_X", "B_O", "O_R", "O_I",
};

const std::vector<std::string> kEventNames = {
    "GETS",       "GETX",   "PutxOwner",  "PutxNonOwner",    "Unblock",
    "RecallData", "RecallAckNoData", "MemData", "Replacement",
};

} // namespace

TsoccL2::TsoccL2(int tile, const SystemConfig &cfg, EventQueue &eq,
                 Network &net, TransitionCoverage &cov)
    : L2Controller(tile, cfg, eq, net,
                   TransitionTable(cov, "TSOCC-L2", kStateNames, kEventNames),
                   StIU_S, StIU_X)
{
    buildTable();
}

void
TsoccL2::buildTable()
{
    auto def = [this](State s, Event e) { table_.define(s, e); };

    def(StNP, EvGETS);
    def(StNP, EvGETX);
    def(StNP, EvPutxNonOwner);

    def(StU, EvGETS);
    def(StU, EvGETX);
    def(StU, EvPutxNonOwner);
    def(StU, EvReplacement);

    def(StO, EvGETS);
    def(StO, EvGETX);
    def(StO, EvPutxOwner);
    def(StO, EvPutxNonOwner);
    def(StO, EvReplacement);

    def(StIU_S, EvMemData);
    def(StIU_X, EvMemData);
    def(StB_O, EvUnblock);

    def(StO_R, EvRecallData);
    def(StO_R, EvRecallAckNoData);
    def(StO_R, EvPutxOwner);

    def(StO_I, EvRecallData);
    def(StO_I, EvRecallAckNoData);
    def(StO_I, EvPutxOwner);
    // Stale recall ack from a PUTX-completed recall (absorbed).
    def(StNP, EvRecallAckNoData);
}

void
TsoccL2::grant(CacheEntry &entry, Pid c, bool exclusive)
{
    const Addr line = entry.line;
    sendAfter(cfg_.l2AccessLatency, MsgType::Data, line, coreNode(c),
              Vnet::Response, [&](Msg &m) {
                  m.data = entry.data;
                  m.hasData = true;
                  m.exclusive = exclusive;
                  m.meta = entry.meta;
              });
}

bool
TsoccL2::stable(std::uint8_t state) const
{
    return state == StU || state == StO;
}

void
TsoccL2::doReplacement(CacheEntry &entry)
{
    const Addr line = entry.line;
    const auto st = static_cast<State>(entry.state);
    table_.record(st, EvReplacement);
    if (st == StU) {
        // Persist the timestamp metadata in the directory store so a
        // later memory fetch still carries it.
        if (entry.meta.valid())
            metaStore_[line] = entry.meta;
        if (entry.dirty)
            memWrite(line, entry.data);
        array_.free(entry);
        return;
    }
    assert(st == StO);
    EvictBuf buf;
    buf.state = StO_I;
    buf.owner = entry.owner;
    send(MsgType::Recall, line, coreNode(entry.owner), Vnet::Fwd);
    evict_[line] = buf;
    array_.free(entry);
}

void
TsoccL2::finishRecall(CacheEntry *entry, Addr line, const Msg &msg)
{
    // entry is in O_R: install the owner's data and complete the
    // pending request.
    entry->data = msg.data;
    entry->meta = msg.meta;
    entry->dirty = true;
    entry->owner = kInitPid;
    const Pid c = entry->pendingRequester;
    // dataReceived doubles as want-exclusive for O_R (see serveRequest).
    const bool want_exclusive = entry->dataReceived;
    entry->pendingRequester = kInitPid;
    entry->dataReceived = false;
    if (want_exclusive) {
        entry->state = StB_O;
        entry->pendingRequester = c;
        grant(*entry, c, true);
    } else {
        entry->state = StU;
        grant(*entry, c, false);
        drain(line);
        wake(line);
    }
}

void
TsoccL2::serveRequest(const Msg &msg)
{
    const Addr line = msg.line;
    const Pid c = msg.requester;

    // A PUTX from a recalled owner completes O_R / O_I transactions and
    // must not queue behind them.
    if (msg.type == MsgType::PUTX) {
        if (const EvictBuf *buf = evict_.find(line);
            buf && buf->owner == c) {
            table_.record(StO_I, EvPutxOwner);
            ackRecalledPutx(line, c, buf->ownerGone);
            if (msg.meta.valid())
                metaStore_[line] = msg.meta;
            memWrite(line, msg.data);
            evict_.erase(line);
            drain(line);
            return;
        }
        if (CacheEntry *entry = array_.find(line);
            entry && entry->state == StO_R && entry->owner == c) {
            table_.record(StO_R, EvPutxOwner);
            ackRecalledPutx(line, c, entry->gotOwnerData);
            finishRecall(entry, line, msg);
            return;
        }
    }

    if (waitUnlessServing(msg))
        return;

    CacheEntry *entry = array_.find(line);
    const State st = entry ? static_cast<State>(entry->state) : StNP;

    switch (msg.type) {
      case MsgType::GETS:
        table_.record(st, EvGETS);
        if (!entry) {
            startFetch(msg, false);
            return;
        }
        array_.touch(*entry, eq_.now());
        if (st == StO) {
            send(MsgType::Recall, line, coreNode(entry->owner),
                 Vnet::Fwd);
            entry->state = StO_R;
            entry->pendingRequester = c;
            entry->dataReceived = false; // want shared
            return;
        }
        grant(*entry, c, false); // U: non-blocking shared grant.
        return;

      case MsgType::GETX:
        table_.record(st, EvGETX);
        if (!entry) {
            startFetch(msg, true);
            return;
        }
        array_.touch(*entry, eq_.now());
        if (st == StO) {
            send(MsgType::Recall, line, coreNode(entry->owner),
                 Vnet::Fwd);
            entry->state = StO_R;
            entry->pendingRequester = c;
            entry->dataReceived = true; // want exclusive
            return;
        }
        entry->state = StB_O;
        entry->pendingRequester = c;
        grant(*entry, c, true);
        return;

      case MsgType::PUTX: {
        const bool is_owner =
            entry && st == StO && entry->owner == c;
        table_.record(st, is_owner ? EvPutxOwner : EvPutxNonOwner);
        if (is_owner) {
            entry->data = msg.data;
            entry->meta = msg.meta;
            entry->dirty = true;
            entry->owner = kInitPid;
            entry->state = StU;
            send(MsgType::WbAck, line, coreNode(c), Vnet::Fwd);
            drain(line);
        } else {
            send(MsgType::WbNack, line, coreNode(c), Vnet::Fwd);
        }
        return;
      }

      default:
        throw ProtocolError("TSOCC-L2", kStateNames[st],
                            msgTypeName(msg.type));
    }
}

void
TsoccL2::handleMsg(const Msg &msg)
{
    const Addr line = msg.line;

    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
      case MsgType::PUTX:
        serveRequest(msg);
        return;

      case MsgType::MemData: {
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, EvMemData); // Only IU_S / IU_X defined.
        entry->data = msg.data;
        entry->dirty = false;
        // Restore directory metadata; absent means never written.
        if (const TsMeta *meta = metaStore_.find(line))
            entry->meta = *meta;
        else
            entry->meta = TsMeta{};
        const Pid c = entry->pendingRequester;
        if (st == StIU_S) {
            entry->state = StU;
            entry->pendingRequester = kInitPid;
            grant(*entry, c, false);
            drain(line);
            wake(line);
        } else {
            entry->state = StB_O;
            grant(*entry, c, true);
        }
        return;
      }

      case MsgType::Unblock: {
        CacheEntry *entry = array_.find(line);
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, EvUnblock); // Only B_O defined.
        entry->state = StO;
        entry->owner = entry->pendingRequester;
        entry->pendingRequester = kInitPid;
        drain(line);
        wake(line);
        return;
      }

      case MsgType::RecallData:
      case MsgType::RecallAckNoData: {
        if (absorbStaleRecallAck(msg, EvRecallAckNoData))
            return;
        const bool has_data = (msg.type == MsgType::RecallData);
        if (EvictBuf *buf = evict_.find(line)) {
            table_.record(StO_I, has_data ? EvRecallData
                                          : EvRecallAckNoData);
            if (has_data) {
                if (msg.meta.valid())
                    metaStore_[line] = msg.meta;
                memWrite(line, msg.data);
                evict_.erase(line);
                drain(line);
            } else {
                buf->ownerGone = true; // Owner's PUTX will complete it.
            }
            return;
        }
        CacheEntry *entry = array_.find(line);
        if (entry == nullptr && !has_data) {
            // Not cached, not being evicted and no stale ack expected:
            // StNP x RecallAckNoData only covers the counted stale ack.
            throw ProtocolError("TSOCC-L2", kStateNames[StNP],
                                msgTypeName(msg.type));
        }
        const State st = entry ? static_cast<State>(entry->state) : StNP;
        table_.record(st, has_data ? EvRecallData : EvRecallAckNoData);
        if (has_data) {
            finishRecall(entry, line, msg);
        } else {
            // O_R: the owner is writing back; wait for its PUTX.
            entry->gotOwnerData = true;
        }
        return;
      }

      default:
        throw ProtocolError("TSOCC-L2", kStateNames[lineState(line)],
                            msgTypeName(msg.type));
    }
}

std::string
TsoccL2::debugSummary()
{
    int hist[NumStates] = {};
    std::vector<Addr> stuck;
    array_.forEachValid([&](CacheEntry &e) {
        ++hist[e.state];
        if (!stable(e.state))
            stuck.push_back(e.line);
    });
    std::ostringstream os;
    os << "L2[" << tile_ << "]";
    for (int i = 0; i < NumStates; ++i)
        if (hist[i])
            os << " " << kStateNames[static_cast<std::size_t>(i)] << "="
               << hist[i];
    os << " evict=" << evict_.size() << " waitq=" << waiting_.size();
    for (Addr a : stuck)
        os << " stuck:0x" << std::hex << a << std::dec << "/"
           << kStateNames[array_.find(a)->state];
    return os.str();
}

void
TsoccL2::resetAll()
{
    L2Controller::resetAll();
    metaStore_.clear();
}

} // namespace mcversi::sim
