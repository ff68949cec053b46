#include "sim/l2_controller.hh"

#include <cassert>

namespace mcversi::sim {

L2Controller::L2Controller(int tile, const SystemConfig &cfg, EventQueue &eq,
                           Network &net, TransitionTable table,
                           std::uint8_t fetch_shared,
                           std::uint8_t fetch_exclusive)
    : tile_(tile), cfg_(cfg), eq_(eq), net_(net), table_(std::move(table)),
      array_(cfg.l2SetsPerTile, cfg.l2Ways), fetchShared_(fetch_shared),
      fetchExclusive_(fetch_exclusive)
{
}

std::uint8_t
L2Controller::stateOf(Addr line)
{
    if (const EvictBuf *buf = evict_.find(line))
        return buf->state;
    if (CacheEntry *e = array_.find(line))
        return e->state;
    return 0;
}

void
L2Controller::memWrite(Addr line, const LineData &data)
{
    send(MsgType::MemWrite, line, kMemNode, Vnet::Mem, [&](Msg &m) {
        m.data = data;
        m.hasData = true;
    });
}

bool
L2Controller::serving(Addr line)
{
    const std::uint8_t st = stateOf(line);
    return st == 0 || stable(st);
}

bool
L2Controller::waitUnlessServing(const Msg &msg)
{
    if (serving(msg.line))
        return false;
    waiting_[msg.line].push_back(msg);
    return true;
}

void
L2Controller::drain(Addr line)
{
    // serveRequest below can transition the line away from a serving
    // state (or call drain recursively); the loop re-reads the queue and
    // the state every iteration, so recursion simply consumes the queue
    // a little earlier.
    for (;;) {
        Fifo<Msg> *q = waiting_.find(line);
        if (!q)
            return;
        if (q->empty()) {
            waiting_.erase(line);
            return;
        }
        if (!serving(line))
            return;
        const Msg msg = q->front();
        q->pop_front();
        serveRequest(msg);
    }
}

void
L2Controller::startFetch(const Msg &request, bool exclusive)
{
    const Addr line = request.line;
    CacheEntry *entry = array_.allocate(line);
    if (!entry) {
        CacheEntry *victim = array_.victim(
            line, [this](const CacheEntry &e) { return stable(e.state); });
        if (!victim) {
            // No stable victim yet: wait for wake() to re-serve the
            // whole request.
            stalls_.park(array_.setIndex(line), request);
            return;
        }
        doReplacement(*victim);
        entry = array_.allocate(line);
        assert(entry);
    }
    entry->state = exclusive ? fetchExclusive_ : fetchShared_;
    entry->pendingRequester = request.requester;
    array_.touch(*entry, eq_.now());
    send(MsgType::MemRead, line, kMemNode, Vnet::Mem);
}

void
L2Controller::wake(Addr line)
{
    stalls_.wake(
        array_.setIndex(line),
        [&] {
            return array_.canAllocate(line, [this](const CacheEntry &e) {
                return stable(e.state);
            });
        },
        [this](const Msg &msg) { serveRequest(msg); });
}

void
L2Controller::ackRecalledPutx(Addr line, Pid owner, bool recall_acked)
{
    send(MsgType::WbAck, line, coreNode(owner), Vnet::Fwd);
    if (!recall_acked)
        ++staleRecallAcks_[line];
}

bool
L2Controller::absorbStaleRecallAck(const Msg &msg, int event)
{
    if (msg.type != MsgType::RecallAckNoData || evict_.contains(msg.line))
        return false;
    int *stale = staleRecallAcks_.find(msg.line);
    if (!stale)
        return false;
    table_.record(0, event);
    if (--*stale == 0)
        staleRecallAcks_.erase(msg.line);
    return true;
}

void
L2Controller::resetAll()
{
    array_.reset();
    evict_.clear();
    waiting_.clear();
    stalls_.clear();
    staleRecallAcks_.clear();
}

} // namespace mcversi::sim
