#include "sim/l1_controller.hh"

#include <cassert>

namespace mcversi::sim {

L1Controller::L1Controller(Pid pid, const SystemConfig &cfg, EventQueue &eq,
                           Network &net, TransitionTable table,
                           std::uint8_t fetch_shared,
                           std::uint8_t fetch_exclusive)
    : pid_(pid), cfg_(cfg), eq_(eq), net_(net), table_(std::move(table)),
      array_(cfg.l1Sets, cfg.l1Ways), fetchShared_(fetch_shared),
      fetchExclusive_(fetch_exclusive)
{
}

std::uint8_t
L1Controller::stateOf(Addr line)
{
    if (const EvictBuf *buf = evict_.find(line))
        return buf->state;
    if (CacheEntry *e = array_.find(line))
        return e->state;
    return 0;
}

void
L1Controller::respond(ReqId id, WriteVal value, WriteVal overwritten,
                      Tick latency, bool inv_in_flight)
{
    eq_.scheduleFnIn(
        latency,
        [](void *o, std::uint64_t a, std::uint64_t b, std::uint64_t c,
           std::uint64_t d) {
            auto *self = static_cast<L1Controller *>(o);
            self->hooks_.respond(CacheResp{a, b, c, d != 0});
        },
        this, id, value, overwritten, inv_in_flight ? 1 : 0);
}

void
L1Controller::notifyLq(Addr line)
{
    if (hooks_.addressInvalidated)
        hooks_.addressInvalidated(line);
}

void
L1Controller::coreLoad(ReqId id, Addr addr)
{
    request({PendingReq::Kind::Load, id, addr, 0});
}

void
L1Controller::coreStore(ReqId id, Addr addr, WriteVal value)
{
    request({PendingReq::Kind::Store, id, addr, value});
}

void
L1Controller::coreRmw(ReqId id, Addr addr, WriteVal value)
{
    request({PendingReq::Kind::Rmw, id, addr, value});
}

void
L1Controller::coreFlush(ReqId id, Addr addr)
{
    request({PendingReq::Kind::Flush, id, addr, 0});
}

void
L1Controller::request(const PendingReq &req)
{
    const Addr line = lineAddr(req.addr);
    pending_[line].push_back(req);
    processPending(line);
}

void
L1Controller::startMiss(Addr line, bool exclusive)
{
    CacheEntry *entry = array_.allocate(line);
    if (!entry) {
        CacheEntry *victim = array_.victim(
            line, [this](const CacheEntry &e) { return stable(e.state); });
        if (!victim) {
            eq_.scheduleFnIn(
                16,
                [](void *o, std::uint64_t a, std::uint64_t, std::uint64_t,
                   std::uint64_t) {
                    static_cast<L1Controller *>(o)->processPending(a);
                },
                this, line);
            return;
        }
        doReplacement(*victim);
        entry = array_.allocate(line);
        assert(entry);
    }
    entry->state = exclusive ? fetchExclusive_ : fetchShared_;
    array_.touch(*entry, eq_.now());
    send(exclusive ? MsgType::GETX : MsgType::GETS, line, home(line),
         Vnet::Request);
}

void
L1Controller::writeBack(CacheEntry &entry, std::uint8_t state, bool dirty,
                        std::optional<ReqId> flush_req)
{
    const Addr line = entry.line;
    evict_[line] =
        EvictBuf{state, entry.data, dirty, flush_req.has_value(),
                 flush_req.value_or(0)};
    send(MsgType::PUTX, line, home(line), Vnet::Request, [&](Msg &m) {
        m.data = entry.data;
        m.hasData = true;
        m.dirty = dirty;
        m.meta = entry.meta;
    });
    notifyLq(line);
    array_.free(entry);
}

void
L1Controller::answerQueuedLoads(Addr line, const LineData &data,
                                bool flagged)
{
    Fifo<PendingReq> *q = pending_.find(line);
    if (!q)
        return;
    q->eraseIf([&](const PendingReq &req) {
        if (req.kind != PendingReq::Kind::Load)
            return false;
        respond(req.id, data.word(req.addr), 0, 1, flagged);
        return true;
    });
}

void
L1Controller::retireWriteback(Addr line)
{
    const EvictBuf &buf = *evict_.find(line);
    const bool flush_pending = buf.flushPending;
    const ReqId flush_req = buf.flushReq;
    evict_.erase(line);
    if (flush_pending)
        respond(flush_req, 0, 0, 1);
    processPending(line);
}

void
L1Controller::resetAll()
{
    array_.reset();
    evict_.clear();
    pending_.clear();
}

} // namespace mcversi::sim
