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
                 Network &net, TransitionCoverage &cov, Rng rng)
    : tile_(tile), cfg_(cfg), eq_(eq), net_(net),
      table_(cov, "TSOCC-L2", kStateNames, kEventNames), rng_(rng),
      array_(cfg.l2SetsPerTile, cfg.l2Ways)
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
TsoccL2::send(MsgType t, Addr line, NodeId dst, Vnet vnet,
              const std::function<void(Msg &)> &fill)
{
    net_.send(&buildMsg(t, line, dst, vnet, fill));
}

Msg &
TsoccL2::buildMsg(MsgType t, Addr line, NodeId dst, Vnet vnet,
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
TsoccL2::sendAfter(Tick delta, MsgType t, Addr line, NodeId dst,
                   Vnet vnet, const std::function<void(Msg &)> &fill)
{
    // Build now (matches the old by-value thunk captures); latency,
    // FIFO order and jitter are drawn at injection time.
    eq_.scheduleNetSend(eq_.now() + delta, &net_,
                        &buildMsg(t, line, dst, vnet, fill));
}

void
TsoccL2::memWrite(Addr line, const LineData &data)
{
    send(MsgType::MemWrite, line, kMemNode, Vnet::Mem, [&](Msg &m) {
        m.data = data;
        m.hasData = true;
    });
}

TsoccL2::State
TsoccL2::lineState(Addr line)
{
    if (evict_.count(line))
        return StO_I;
    if (CacheEntry *e = array_.find(line))
        return static_cast<State>(e->state);
    return StNP;
}

bool
TsoccL2::serving(Addr line)
{
    const State st = lineState(line);
    return st == StNP || st == StU || st == StO;
}

void
TsoccL2::drain(Addr line)
{
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

void
TsoccL2::startFetch(Addr line, Pid c, bool exclusive, const Msg &msg)
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
    entry->state = exclusive ? StIU_X : StIU_S;
    entry->pendingRequester = c;
    array_.touch(*entry, eq_.now());
    send(MsgType::MemRead, line, kMemNode, Vnet::Mem);
}

bool
TsoccL2::evictable(const CacheEntry &e)
{
    return e.state == StU || e.state == StO;
}

bool
TsoccL2::evictVictim(Addr line)
{
    CacheEntry *victim = array_.victim(line, evictable);
    if (!victim)
        return false;
    doReplacement(*victim);
    return true;
}

void
TsoccL2::wake(Addr line)
{
    stalls_.wake(
        array_.setIndex(line),
        [&] { return array_.canAllocate(line, evictable); },
        [this](const Msg &msg) { serveRequest(msg); });
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
        if (auto it = evict_.find(line);
            it != evict_.end() && it->second.owner == c) {
            table_.record(StO_I, EvPutxOwner);
            send(MsgType::WbAck, line, coreNode(c), Vnet::Fwd);
            if (!it->second.done)
                ++staleRecallAcks_[line];
            if (msg.meta.valid())
                metaStore_[line] = msg.meta;
            memWrite(line, msg.data);
            evict_.erase(it);
            drain(line);
            return;
        }
        if (CacheEntry *entry = array_.find(line);
            entry && entry->state == StO_R && entry->owner == c) {
            table_.record(StO_R, EvPutxOwner);
            send(MsgType::WbAck, line, coreNode(c), Vnet::Fwd);
            if (!entry->gotOwnerData)
                ++staleRecallAcks_[line];
            finishRecall(entry, line, msg);
            return;
        }
    }

    if (!serving(line)) {
        waiting_[line].push_back(msg);
        return;
    }

    CacheEntry *entry = array_.find(line);
    const State st = entry ? static_cast<State>(entry->state) : StNP;

    switch (msg.type) {
      case MsgType::GETS:
        table_.record(st, EvGETS);
        if (!entry) {
            startFetch(line, c, false, msg);
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
            startFetch(line, c, true, msg);
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
        if (auto mit = metaStore_.find(line); mit != metaStore_.end())
            entry->meta = mit->second;
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
        const bool has_data = (msg.type == MsgType::RecallData);
        if (!has_data && !evict_.count(line)) {
            if (auto sit = staleRecallAcks_.find(line);
                sit != staleRecallAcks_.end()) {
                table_.record(StNP, EvRecallAckNoData);
                if (--sit->second == 0)
                    staleRecallAcks_.erase(sit);
                return;
            }
        }
        if (auto it = evict_.find(line); it != evict_.end()) {
            table_.record(StO_I, has_data ? EvRecallData
                                          : EvRecallAckNoData);
            if (has_data) {
                if (msg.meta.valid())
                    metaStore_[line] = msg.meta;
                memWrite(line, msg.data);
                evict_.erase(it);
                drain(line);
            } else {
                it->second.done = true; // Owner's PUTX will complete it.
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
        if (e.state != StU && e.state != StO)
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
    array_.reset();
    evict_.clear();
    waiting_.clear();
    stalls_.clear();
    staleRecallAcks_.clear();
    metaStore_.clear();
}

} // namespace mcversi::sim
