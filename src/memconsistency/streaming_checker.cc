#include "memconsistency/streaming_checker.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mcversi::mc {

namespace {

template <typename L, typename E>
std::size_t
insertSorted(L &v, const E &el)
{
    // Events overwhelmingly arrive in per-thread program order, so the
    // append case is the hot path.
    if (v.empty() || v.back() < el) {
        v.push_back(el);
        return v.size() - 1;
    }
    const auto pos = static_cast<std::size_t>(
        std::upper_bound(v.begin(), v.end(), el) - v.begin());
    v.insertAt(pos, el);
    return pos;
}

template <typename L, typename E>
std::size_t
firstAtLeast(const L &v, const E &el)
{
    // In-order streams search mostly past the end of the list.
    if (v.empty() || v.back() < el)
        return v.size();
    return static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), el) - v.begin());
}

template <typename L, typename E>
std::size_t
firstAbove(const L &v, const E &el)
{
    if (v.empty() || !(el < v.back()))
        return v.size();
    return static_cast<std::size_t>(
        std::upper_bound(v.begin(), v.end(), el) - v.begin());
}

} // namespace

// -- lifecycle --------------------------------------------------------

StreamingChecker::StreamingChecker(ModelProfile profile)
    : profile_(std::move(profile))
{
    profile_.validate();
    chainRR_ = profile_.orderRR;
    chainWW_ = profile_.orderWW;
    orderRW_ = profile_.orderRW;
    orderWR_ = profile_.orderWR;
    full_ = profile_.rmwFence == RmwSemantics::Full;
    acqrel_ = profile_.rmwFence == RmwSemantics::AcquireRelease;
    pairEdge_ = !orderRW_ && !acqrel_;
    rfiGlobal_ = profile_.rfiGlobal;
}

void
StreamingChecker::ThreadState::clear()
{
    reads.clear();
    writes.clear();
    fences.clear();
    acqs.clear();
    rels.clear();
    pendingRmw.clear();
    chainAt.clear();
    maxRetiredPoi = -1;
    touched = false;
}

void
StreamingChecker::begin()
{
    uniproc_.reset();
    ghb_.reset();
    values_.clear();
    topValue_ = ValueInfo{};
    initNode_.clear();
    for (const Pid pid : touchedPids_)
        threads_[static_cast<std::size_t>(pid)].clear();
    touchedPids_.clear();
    chainCount_ = 0;
    ageFifo_.clear();
    ageHead_ = 0;
    retireScratch_.clear();
    liveHighWater_ = 0;
    truncatedStragglers_ = 0;
    truncatedStaleReads_ = 0;
    sinceCompact_ = 0;
    eventsConsumed_ = 0;
    detectionEvents_ = 0;
    pending_ = 0;
    violationKind_ = CheckResult::Kind::Ok;
    violA_ = violB_ = violC_ = kNoNode;
}

// -- node space -------------------------------------------------------

StreamingChecker::Node
StreamingChecker::newNode(EventId ev, Pid pid, Addr aux, WriteVal value,
                          std::int32_t poi, std::uint8_t slot, AddrId aid,
                          std::uint8_t flags)
{
    const bool init = pid == kInitPid;
    const Node n = init ? uniproc_.addSource() : uniproc_.addNode();
    const Node g = init ? ghb_.addSource() : ghb_.addNode();
    assert(n == g && "graphs share one node space");
    (void)g;
    // Node ids recycle in bounded-window mode, so the meta array is
    // slot-indexed rather than append-only. The fields are stored one
    // by one: building a NodeMeta on the stack and copying it stalls
    // the copy's wide loads on the narrow stores that built it.
    const auto un = static_cast<std::size_t>(n);
    if (un >= nodes_.size())
        nodes_.resize(un + 1);
    NodeMeta &m = nodes_[un];
    m.event = ev;
    m.pid = pid;
    m.aux = aux;
    m.value = value;
    m.rfSrc = kNoNode;
    m.coPred = kNoNode;
    m.coSucc = kNoNode;
    m.readersHead = kNoNode;
    m.readerNext = kNoNode;
    m.pendingReadNext = kNoNode;
    m.pendingCoNext = kNoNode;
    m.pairRead = kNoNode;
    m.pairWrite = kNoNode;
    m.poi = poi;
    m.aid = aid;
    m.slot = slot;
    m.flags = flags;
    if (window_ != 0)
        ageFifo_.push_back(n);
    return n;
}

StreamingChecker::Node
StreamingChecker::initNodeOf(AddrId aid, Addr addr)
{
    const auto a = static_cast<std::size_t>(aid);
    if (a >= initNode_.size())
        initNode_.resize(a + 1, kNoNode);
    Node &n = initNode_[a];
    assert(n != kRetiredNode && "callers guard the retired-init case");
    if (n == kNoNode)
        n = newNode(kNoEvent, kInitPid, addr, kInitVal, -1, 2, aid, kPairDone);
    return n;
}

StreamingChecker::ThreadState &
StreamingChecker::threadOf(Pid pid)
{
    const auto idx = static_cast<std::size_t>(pid);
    if (idx >= threads_.size())
        threads_.resize(idx + 1);
    ThreadState &t = threads_[idx];
    if (!t.touched) {
        t.touched = true;
        touchedPids_.push_back(pid);
    }
    return t;
}

// -- event ingestion --------------------------------------------------

void
StreamingChecker::onRecord(const ExecWitness &ew, EventId id,
                           WriteVal overwritten)
{
    if (violationKind_ != CheckResult::Kind::Ok)
        return;
    ++eventsConsumed_;
    try {
        ingest(ew, id, overwritten);
    } catch (const Detected &) {
        detectionEvents_ = eventsConsumed_;
        if (throwOnViolation_)
            throw StreamingViolation{};
    }
}

void
StreamingChecker::ingest(const ExecWitness &ew, EventId id,
                         WriteVal overwritten)
{
    const Event &e = ew.event(id);
    const Pid pid = e.iiid.pid;
    // The witness interned the address at record time; reuse its
    // dense id instead of probing a second map.
    const AddrId aid = ew.addrId(id);
    const auto slot = static_cast<std::uint8_t>(e.isRead() ? 1 : 2);
    // An RMW half waits for its pair check; every other event is done.
    const Node n = newNode(id, pid, kNoAddr,
                           e.isRead() ? kInitVal : e.value, e.iiid.poi,
                           slot, aid, e.rmw ? std::uint8_t{0} : kPairDone);
    const Elem el{e.iiid.poi, slot, n};
    ThreadState &t = threadOf(pid);
    if (window_ != 0 && e.iiid.poi <= t.maxRetiredPoi) {
        // Straggler behind the retirement frontier: orderings through
        // already-retired same-thread events are lost. Counted so a
        // truncated stream can never masquerade as a clean one.
        ++truncatedStragglers_;
    }
    insertPoLoc(t, aid, el);
    if (e.isRead()) {
        if (e.rmw && full_) {
            insertFence(t, Elem{e.iiid.poi, 0,
                                newNode(kNoEvent, pid, kNoAddr, kInitVal,
                                        e.iiid.poi, 0, aid, kPairDone)});
        }
        insertRead(t, el, e.rmw);
        resolveRead(n, e.value, aid, e.addr);
    } else {
        insertWrite(t, el, e.rmw);
        if (e.rmw && full_) {
            insertFence(t, Elem{e.iiid.poi, 3,
                                newNode(kNoEvent, pid, kNoAddr, kInitVal,
                                        e.iiid.poi, 3, aid, kPairDone)});
        }
        registerWrite(n, e.value, overwritten, aid, e.addr);
    }
    if (window_ != 0)
        ageWindow();
    if (liveHighWater_ < ghb_.numLive())
        liveHighWater_ = ghb_.numLive();
}

void
StreamingChecker::insertPoLoc(ThreadState &t, AddrId aid, Elem el)
{
    const auto a = static_cast<std::size_t>(aid);
    if (a >= t.chainAt.size())
        t.chainAt.resize(a + 1, -1);
    std::int32_t &slot = t.chainAt[a];
    if (slot < 0) {
        slot = static_cast<std::int32_t>(chainCount_);
        if (chainCount_ < chains_.size())
            chains_[chainCount_].clear();
        else
            chains_.emplace_back();
        ++chainCount_;
    }
    ElemList &chain = chains_[static_cast<std::size_t>(slot)];
    const std::size_t pos = insertSorted(chain, el);
    if (pos > 0)
        edgeU(chain[pos - 1].node, el.node);
    if (pos + 1 < chain.size())
        edgeU(el.node, chain[pos + 1].node);
}

void
StreamingChecker::insertRead(ThreadState &t, Elem el, bool rmw)
{
    const Node n = el.node;
    const std::size_t pos = insertSorted(t.reads, el);
    if (chainRR_) {
        if (pos > 0)
            edgeG(t.reads[pos - 1].node, n);
        if (pos + 1 < t.reads.size())
            edgeG(n, t.reads[pos + 1].node);
    }
    if (orderRW_) {
        if (chainWW_) {
            // Writes chain: one edge to the nearest following write
            // reaches every later write transitively.
            const std::size_t wi = firstAtLeast(t.writes, el);
            if (wi < t.writes.size())
                edgeG(n, t.writes[wi].node);
        } else {
            // Writes don't chain (PSO): this read must reach every
            // write up to the next read; later reads cover the rest.
            const bool hasNext = pos + 1 < t.reads.size();
            const Elem hi = hasNext ? t.reads[pos + 1] : Elem{};
            for (std::size_t wi = firstAtLeast(t.writes, el);
                 wi < t.writes.size() && (!hasNext || t.writes[wi] < hi);
                 ++wi) {
                edgeG(n, t.writes[wi].node);
            }
        }
    }
    if (orderWR_) {
        if (chainRR_) {
            // Reads chain: collect the writes since the previous read
            // (each must reach this read directly).
            std::size_t wi =
                pos > 0 ? firstAbove(t.writes, t.reads[pos - 1]) : 0;
            for (; wi < t.writes.size() && t.writes[wi] < el; ++wi)
                edgeG(t.writes[wi].node, n);
        } else {
            // Writes chain (validate() guarantees one side does): the
            // nearest preceding write covers all earlier ones.
            const std::size_t wi = firstAtLeast(t.writes, el);
            if (wi > 0)
                edgeG(t.writes[wi - 1].node, n);
        }
    }
    if (full_ && !t.fences.empty()) {
        const std::size_t fi = firstAtLeast(t.fences, el);
        if (fi > 0)
            edgeG(t.fences[fi - 1].node, n);
        if (fi < t.fences.size())
            edgeG(n, t.fences[fi].node);
    }
    if (acqrel_) {
        const std::size_t ai = firstAtLeast(t.acqs, el);
        if (ai > 0)
            edgeG(t.acqs[ai - 1].node, n);
        const std::size_t ri = firstAtLeast(t.rels, el);
        if (ri < t.rels.size())
            edgeG(n, t.rels[ri].node);
    }
    if (rmw) {
        t.pendingRmw.emplace_back(el.poi, n);
        if (acqrel_) {
            // Acquire: ordered before every later access up to and
            // including the next acquire (whose own edges chain on).
            const std::size_t na = firstAtLeast(t.acqs, el);
            const bool hasNext = na < t.acqs.size();
            const Elem hi = hasNext ? t.acqs[na] : Elem{};
            for (std::size_t i = firstAbove(t.reads, el);
                 i < t.reads.size() && (!hasNext || !(hi < t.reads[i]));
                 ++i) {
                edgeG(n, t.reads[i].node);
            }
            for (std::size_t i = firstAbove(t.writes, el);
                 i < t.writes.size() && (!hasNext || !(hi < t.writes[i]));
                 ++i) {
                edgeG(n, t.writes[i].node);
            }
            insertSorted(t.acqs, el);
        }
    }
}

void
StreamingChecker::insertWrite(ThreadState &t, Elem el, bool rmw)
{
    const Node n = el.node;
    const std::size_t pos = insertSorted(t.writes, el);
    if (chainWW_) {
        if (pos > 0)
            edgeG(t.writes[pos - 1].node, n);
        if (pos + 1 < t.writes.size())
            edgeG(n, t.writes[pos + 1].node);
    }
    if (orderRW_) {
        if (chainWW_) {
            // Writes chain: collect the reads since the previous write.
            std::size_t ri =
                pos > 0 ? firstAbove(t.reads, t.writes[pos - 1]) : 0;
            for (; ri < t.reads.size() && t.reads[ri] < el; ++ri)
                edgeG(t.reads[ri].node, n);
        } else {
            // Reads chain (PSO): the nearest preceding read covers all
            // earlier ones.
            const std::size_t ri = firstAtLeast(t.reads, el);
            if (ri > 0)
                edgeG(t.reads[ri - 1].node, n);
        }
    }
    if (orderWR_) {
        if (chainRR_) {
            // Reads chain: one edge to the nearest following read.
            const std::size_t ri = firstAtLeast(t.reads, el);
            if (ri < t.reads.size())
                edgeG(n, t.reads[ri].node);
        } else {
            // Writes chain: reach every read up to the next write.
            const bool hasNext = pos + 1 < t.writes.size();
            const Elem hi = hasNext ? t.writes[pos + 1] : Elem{};
            for (std::size_t ri = firstAtLeast(t.reads, el);
                 ri < t.reads.size() && (!hasNext || t.reads[ri] < hi);
                 ++ri) {
                edgeG(n, t.reads[ri].node);
            }
        }
    }
    if (full_ && !t.fences.empty()) {
        const std::size_t fi = firstAtLeast(t.fences, el);
        if (fi > 0)
            edgeG(t.fences[fi - 1].node, n);
        if (fi < t.fences.size())
            edgeG(n, t.fences[fi].node);
    }
    if (acqrel_) {
        const std::size_t ai = firstAtLeast(t.acqs, el);
        if (ai > 0)
            edgeG(t.acqs[ai - 1].node, n);
        const std::size_t ri = firstAtLeast(t.rels, el);
        if (ri < t.rels.size())
            edgeG(n, t.rels[ri].node);
    }
    if (rmw) {
        for (std::size_t i = 0; i < t.pendingRmw.size(); ++i) {
            if (t.pendingRmw[i].first != el.poi)
                continue;
            const Node r = t.pendingRmw[i].second;
            nodes_[static_cast<std::size_t>(n)].pairRead = r;
            nodes_[static_cast<std::size_t>(r)].pairWrite = n;
            t.pendingRmw.erase(t.pendingRmw.begin() +
                               static_cast<std::ptrdiff_t>(i));
            if (pairEdge_)
                edgeG(r, n);
            break;
        }
        if (acqrel_) {
            // Release: ordered after every access since (and
            // including) the previous release.
            const std::size_t pr = firstAtLeast(t.rels, el);
            const bool hasPrev = pr > 0;
            const Elem lo = hasPrev ? t.rels[pr - 1] : Elem{};
            for (std::size_t i = hasPrev ? firstAtLeast(t.reads, lo) : 0;
                 i < t.reads.size() && t.reads[i] < el; ++i) {
                edgeG(t.reads[i].node, n);
            }
            for (std::size_t i = hasPrev ? firstAtLeast(t.writes, lo) : 0;
                 i < t.writes.size() && t.writes[i] < el; ++i) {
                edgeG(t.writes[i].node, n);
            }
            insertSorted(t.rels, el);
        }
    }
}

void
StreamingChecker::insertFence(ThreadState &t, Elem el)
{
    const Node n = el.node;
    const std::size_t pos = insertSorted(t.fences, el);
    if (pos > 0)
        edgeG(t.fences[pos - 1].node, n);
    if (pos + 1 < t.fences.size())
        edgeG(n, t.fences[pos + 1].node);
    const bool hasPrev = pos > 0;
    const bool hasNext = pos + 1 < t.fences.size();
    const Elem lo = hasPrev ? t.fences[pos - 1] : Elem{};
    const Elem hi = hasNext ? t.fences[pos + 1] : Elem{};

    // Upstream: the chain tail alone when the class chains, else every
    // access since the previous fence. Downstream is the mirror image.
    const auto upstream = [&](const ElemList &v, bool chained) {
        if (chained) {
            const std::size_t i = firstAtLeast(v, el);
            if (i > 0)
                edgeG(v[i - 1].node, n);
            return;
        }
        for (std::size_t i = hasPrev ? firstAbove(v, lo) : 0;
             i < v.size() && v[i] < el; ++i) {
            edgeG(v[i].node, n);
        }
    };
    const auto downstream = [&](const ElemList &v, bool chained) {
        if (chained) {
            const std::size_t i = firstAbove(v, el);
            if (i < v.size())
                edgeG(n, v[i].node);
            return;
        }
        for (std::size_t i = firstAbove(v, el);
             i < v.size() && (!hasNext || v[i] < hi); ++i) {
            edgeG(n, v[i].node);
        }
    };
    upstream(t.reads, chainRR_);
    upstream(t.writes, chainWW_);
    downstream(t.reads, chainRR_);
    downstream(t.writes, chainWW_);
}

// -- online conflict orders -------------------------------------------

void
StreamingChecker::resolveRead(Node r, WriteVal v, AddrId aid, Addr addr)
{
    if (v == kInitVal) {
        const auto a = static_cast<std::size_t>(aid);
        if (a < initNode_.size() && initNode_[a] == kRetiredNode) {
            // Init read after the init node retired (> window stale):
            // the rf cannot bind, so the stream stays incomplete and
            // reports truncation instead of a clean verdict.
            ++truncatedStaleReads_;
            ++pending_;
            return;
        }
        bindRf(r, initNodeOf(aid, addr));
        return;
    }
    ValueInfo &vi = valueInfo(v);
    if (vi.writer != kNoNode) {
        bindRf(r, vi.writer);
    } else {
        // Store forwarding: the producing write has not serialized yet.
        nodes_[static_cast<std::size_t>(r)].pendingReadNext =
            vi.pendingReadsHead;
        vi.pendingReadsHead = r;
        ++pending_;
    }
}

void
StreamingChecker::registerWrite(Node w, WriteVal v, WriteVal overwritten,
                                AddrId aid, Addr addr)
{
    if (overwritten == kInitVal) {
        const auto a = static_cast<std::size_t>(aid);
        if (a < initNode_.size() && initNode_[a] == kRetiredNode) {
            // Overwriting init after its node retired: in unbounded
            // mode this is a co fork (the retire needed a successor),
            // but the evidence is gone -- count the truncation and
            // leave the co predecessor unresolved.
            ++truncatedStaleReads_;
            ++pending_;
        } else {
            bindCo(initNodeOf(aid, addr), w);
        }
    } else {
        ValueInfo &oi = valueInfo(overwritten);
        if (oi.writer != kNoNode) {
            bindCo(oi.writer, w);
        } else {
            nodes_[static_cast<std::size_t>(w)].pendingCoNext =
                oi.pendingCoHead;
            oi.pendingCoHead = w;
            ++pending_;
        }
    }
    // Writes of kInitVal never resolve a read or a co predecessor
    // (those resolve to the init event), so they publish nothing.
    if (v == kInitVal)
        return;
    ValueInfo &vi = valueInfo(v);
    if (vi.writer != kNoNode) {
        // Duplicate write value: post-hoc resolution picks the smallest
        // event id, which is the first-registered node here.
        return;
    }
    vi.writer = w;
    // Detach both pending lists up front: binding touches only node
    // records, but the entry itself is not needed again.
    Node r = vi.pendingReadsHead;
    Node c = vi.pendingCoHead;
    vi.pendingReadsHead = kNoNode;
    vi.pendingCoHead = kNoNode;
    while (r != kNoNode) {
        const Node next =
            nodes_[static_cast<std::size_t>(r)].pendingReadNext;
        --pending_;
        bindRf(r, w);
        r = next;
    }
    while (c != kNoNode) {
        const Node next =
            nodes_[static_cast<std::size_t>(c)].pendingCoNext;
        --pending_;
        bindCo(w, c);
        c = next;
    }
}

void
StreamingChecker::bindRf(Node r, Node w)
{
    NodeMeta &rm = nodes_[static_cast<std::size_t>(r)];
    NodeMeta &wm = nodes_[static_cast<std::size_t>(w)];
    rm.rfSrc = w;
    edgeU(w, r);
    if (rfiGlobal_ || wm.pid == kInitPid || wm.pid != rm.pid)
        edgeG(w, r);
    const Node succ = wm.coSucc;
    if (succ != kNoNode) {
        // fr: the read precedes its source's co-successor.
        edgeU(r, succ);
        edgeG(r, succ);
        rm.flags |= kFrDone;
        noteCandidate(r);
    } else {
        rm.readerNext = wm.readersHead;
        wm.readersHead = r;
    }
    const Node pw = rm.pairWrite;
    if (pw != kNoNode)
        checkPairAtomicity(r, pw);
}

void
StreamingChecker::bindCo(Node prev, Node w)
{
    NodeMeta &pm = nodes_[static_cast<std::size_t>(prev)];
    if (pm.coSucc != kNoNode) {
        violA_ = w;
        violB_ = pm.coSucc;
        violC_ = prev;
        fail(CheckResult::Kind::WitnessAnomaly);
    }
    nodes_[static_cast<std::size_t>(w)].coPred = prev;
    pm.coSucc = w;
    edgeU(prev, w);
    edgeG(prev, w);
    // The co successor just arrived: flush the fr edges of every read
    // bound to prev.
    Node r = pm.readersHead;
    pm.readersHead = kNoNode;
    while (r != kNoNode) {
        NodeMeta &rm = nodes_[static_cast<std::size_t>(r)];
        const Node next = rm.readerNext;
        edgeU(r, w);
        edgeG(r, w);
        rm.flags |= kFrDone;
        noteCandidate(r);
        r = next;
    }
    noteCandidate(prev);
    const Node pr = nodes_[static_cast<std::size_t>(w)].pairRead;
    if (pr != kNoNode)
        checkPairAtomicity(pr, w);
}

void
StreamingChecker::checkPairAtomicity(Node r, Node w)
{
    const Node src = nodes_[static_cast<std::size_t>(r)].rfSrc;
    const Node pred = nodes_[static_cast<std::size_t>(w)].coPred;
    // pred == kRetiredNode means the check already ran: a write's co
    // predecessor only retires once its successor's pair is done.
    if (src == kNoNode || pred == kNoNode || pred == kRetiredNode)
        return;
    if (pred != src) {
        violA_ = r;
        violB_ = src;
        violC_ = w;
        fail(CheckResult::Kind::AtomicityViolation);
    }
    nodes_[static_cast<std::size_t>(r)].flags |= kPairDone;
    nodes_[static_cast<std::size_t>(w)].flags |= kPairDone;
    noteCandidate(r);
    noteCandidate(w);
    // The predecessor may have been waiting on this pair check.
    noteCandidate(pred);
}

// -- edge insertion / violation recording -----------------------------

void
StreamingChecker::edgeU(Node from, Node to)
{
    if (!uniproc_.addEdge(from, to))
        fail(CheckResult::Kind::UniprocViolation);
}

void
StreamingChecker::edgeG(Node from, Node to)
{
    if (!ghb_.addEdge(from, to))
        fail(CheckResult::Kind::GhbViolation);
}

void
StreamingChecker::fail(CheckResult::Kind kind)
{
    violationKind_ = kind;
    throw Detected{};
}

// -- bounded-window retirement ----------------------------------------

bool
StreamingChecker::retirable(const NodeMeta &m) const
{
    switch (m.slot) {
    case 0:
    case 3:
        // Fences receive edges only from same-thread list scans, which
        // the retirement removal blocks (counted as stragglers).
        return true;
    case 1:
        // Read: rf bound, fr emitted, RMW atomicity checked.
        return m.rfSrc != kNoNode && (m.flags & kFrDone) != 0 &&
               (m.flags & kPairDone) != 0;
    default: {
        // Write (or init): co successor exists, every reader's fr is
        // flushed, both its own and its successor's RMW pairs are
        // checked (the successor still reads coPred until then), and
        // -- so new readers' fr edges always target a live successor
        // -- its own predecessor retired first (co-chain order).
        if (m.coSucc == kNoNode || m.readersHead != kNoNode)
            return false;
        if ((m.flags & kPairDone) == 0)
            return false;
        const NodeMeta &s = nodes_[static_cast<std::size_t>(m.coSucc)];
        if ((s.flags & kPairDone) == 0)
            return false;
        return m.pid == kInitPid || (m.flags & kCoPredRetired) != 0;
    }
    }
}

void
StreamingChecker::eraseElem(ElemList &v, const Elem &el)
{
    const std::size_t pos = firstAtLeast(v, el);
    if (pos < v.size() && v[pos].node == el.node &&
        v[pos].poi == el.poi && v[pos].slot == el.slot) {
        v.eraseAt(pos);
    }
}

void
StreamingChecker::retireNow(Node n)
{
    NodeMeta &m = nodes_[static_cast<std::size_t>(n)];
    m.flags |= kRetired;
    const Elem el{m.poi, m.slot, n};
    if (m.pid != kInitPid) {
        ThreadState &t = threadOf(m.pid);
        if (t.maxRetiredPoi < m.poi)
            t.maxRetiredPoi = m.poi;
        switch (m.slot) {
        case 0:
        case 3:
            eraseElem(t.fences, el);
            break;
        case 1:
            eraseElem(t.reads, el);
            if (acqrel_ && m.pairWrite != kNoNode)
                eraseElem(t.acqs, el);
            eraseElem(chains_[static_cast<std::size_t>(
                          t.chainAt[static_cast<std::size_t>(m.aid)])],
                      el);
            break;
        default:
            eraseElem(t.writes, el);
            if (acqrel_ && m.pairRead != kNoNode)
                eraseElem(t.rels, el);
            eraseElem(chains_[static_cast<std::size_t>(
                          t.chainAt[static_cast<std::size_t>(m.aid)])],
                      el);
            break;
        }
    } else {
        // Init node: tombstone the per-address slot so stale init
        // accesses are detected (and counted) instead of binding to a
        // recycled node.
        initNode_[static_cast<std::size_t>(m.aid)] = kRetiredNode;
    }
    if (m.slot == 2) {
        // Erase the value binding (only if this write published it:
        // duplicate values keep the first registration).
        if (m.value == kNoAddr) {
            if (topValue_.writer == n)
                topValue_ = ValueInfo{};
        } else if (m.value != kInitVal) {
            const ValueInfo *vi = values_.find(m.value);
            if (vi != nullptr && vi->writer == n)
                values_.erase(m.value);
        }
        // Unblock the co successor (live by construction) and cascade.
        NodeMeta &s = nodes_[static_cast<std::size_t>(m.coSucc)];
        s.coPred = kRetiredNode;
        s.flags |= kCoPredRetired;
        retireScratch_.push_back(m.coSucc);
    }
    uniproc_.retireNode(n);
    ghb_.retireNode(n);
}

void
StreamingChecker::drainRetirements()
{
    while (!retireScratch_.empty()) {
        const Node n = retireScratch_.back();
        retireScratch_.pop_back();
        const NodeMeta &m = nodes_[static_cast<std::size_t>(n)];
        if ((m.flags & kRetired) != 0 || (m.flags & kAgedOut) == 0 ||
            !retirable(m)) {
            continue;
        }
        retireNow(n);
    }
}

void
StreamingChecker::ageWindow()
{
    while (ageFifo_.size() - ageHead_ > window_) {
        const Node n = ageFifo_[ageHead_++];
        nodes_[static_cast<std::size_t>(n)].flags |= kAgedOut;
        retireScratch_.push_back(n);
        if (ageHead_ > 1024 && ageHead_ >= ageFifo_.size() - ageHead_) {
            ageFifo_.erase(ageFifo_.begin(),
                           ageFifo_.begin() +
                               static_cast<std::ptrdiff_t>(ageHead_));
            ageHead_ = 0;
        }
    }
    drainRetirements();
    // Periodic compaction: rebase node ids and order indices so the
    // slot space tracks the live set, not the stream length.
    if (++sinceCompact_ >= window_ * 8 + 4096) {
        sinceCompact_ = 0;
        if (ghb_.numNodes() > ghb_.numLive() + window_ / 4 + 64)
            compactNow();
    }
}

void
StreamingChecker::compactNow()
{
    if (violationDetected())
        return;
    drainRetirements();
    const std::size_t slots = ghb_.numNodes();
    remapScratch_.assign(slots, kNoNode);
    Node next = 0;
    for (std::size_t i = 0; i < slots; ++i) {
        if ((nodes_[i].flags & kRetired) == 0)
            remapScratch_[i] = next++;
    }
    if (static_cast<std::size_t>(next) == slots)
        return;
    uniproc_.compact(remapScratch_, next);
    ghb_.compact(remapScratch_, next);

    // Stale references to retired (possibly recycled) nodes are never
    // read again -- map them to kRetiredNode rather than leaving a
    // dangling id that could alias a live node.
    const auto remap = [this](Node &n) {
        if (n >= 0) {
            const Node nw = remapScratch_[static_cast<std::size_t>(n)];
            n = nw >= 0 ? nw : kRetiredNode;
        }
    };
    for (std::size_t old = 0; old < slots; ++old) {
        const Node nw = remapScratch_[old];
        if (nw >= 0 && static_cast<std::size_t>(nw) != old)
            nodes_[static_cast<std::size_t>(nw)] = nodes_[old];
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(next); ++i) {
        NodeMeta &m = nodes_[i];
        remap(m.rfSrc);
        remap(m.coPred);
        remap(m.coSucc);
        remap(m.readersHead);
        remap(m.readerNext);
        remap(m.pendingReadNext);
        remap(m.pendingCoNext);
        remap(m.pairRead);
        remap(m.pairWrite);
    }
    for (Node &n : initNode_)
        remap(n);
    for (const Pid pid : touchedPids_) {
        ThreadState &t = threads_[static_cast<std::size_t>(pid)];
        for (ElemList *l : {&t.reads, &t.writes, &t.fences, &t.acqs,
                            &t.rels}) {
            for (Elem *e = l->begin(); e != l->end(); ++e)
                remap(e->node);
        }
        for (auto &[poi, node] : t.pendingRmw)
            remap(node);
    }
    for (std::size_t i = 0; i < chainCount_; ++i) {
        for (Elem *e = chains_[i].begin(); e != chains_[i].end(); ++e)
            remap(e->node);
    }
    const auto remapValue = [&remap](ValueInfo &v) {
        remap(v.writer);
        remap(v.pendingReadsHead);
        remap(v.pendingCoHead);
    };
    values_.forEach([&remapValue](Addr, ValueInfo &v) { remapValue(v); });
    remapValue(topValue_);
    for (std::size_t i = ageHead_; i < ageFifo_.size(); ++i)
        remap(ageFifo_[i]);
}

// -- replay / rendering -----------------------------------------------

void
StreamingChecker::replayRecorded(const ExecWitness &ew)
{
    begin();
    const auto &ows = ew.overwrites();
    std::size_t oi = 0;
    for (EventId id = 0; id < static_cast<EventId>(ew.numEvents()); ++id) {
        const Event &e = ew.event(id);
        if (e.isInit())
            continue;
        WriteVal overwritten = kInitVal;
        if (e.isWrite()) {
            // overwrittenBy_ gets one entry per recorded write, in
            // record order, so a sequential walk matches exactly.
            assert(oi < ows.size() && ows[oi].first == id);
            overwritten = ows[oi].second;
            ++oi;
        }
        onRecord(ew, id, overwritten);
        if (violationDetected())
            return;
    }
}

CheckResult
StreamingChecker::earlyStopResult(const ExecWitness &ew) const
{
    CheckResult res;
    res.kind = violationKind_;
    switch (violationKind_) {
    case CheckResult::Kind::Ok:
        break;
    case CheckResult::Kind::UniprocViolation:
    case CheckResult::Kind::GhbViolation: {
        const bool uni =
            violationKind_ == CheckResult::Kind::UniprocViolation;
        const IncrementalGraph &g = uni ? uniproc_ : ghb_;
        res.message = uni ? std::string("sc-per-location")
                          : "ghb(" + profile_.name + ")";
        res.message += " cycle:";
        for (const Node n : g.lastCycle()) {
            res.message += "\n  " + nodeString(ew, n);
            const EventId id = nodes_[static_cast<std::size_t>(n)].event;
            if (id != kNoEvent)
                res.cycle.push_back(id);
        }
        break;
    }
    case CheckResult::Kind::AtomicityViolation:
        res.message = "rmw atomicity violated: read " +
                      nodeString(ew, violA_) + " sourced from " +
                      nodeString(ew, violB_) + " but write " +
                      nodeString(ew, violC_) +
                      " does not immediately co-follow it";
        break;
    case CheckResult::Kind::WitnessAnomaly:
        res.message = "co fork: " + nodeString(ew, violA_) + " and " +
                      nodeString(ew, violB_) + " both overwrite " +
                      nodeString(ew, violC_);
        break;
    }
    if (window_ != 0 && (ew.droppedEvents() != 0 || windowTruncated())) {
        res.message += "\n  [window truncated: " +
                       std::to_string(ew.droppedEvents()) +
                       " events evicted, " +
                       std::to_string(truncatedStragglers_) +
                       " straggler orderings dropped, " +
                       std::to_string(truncatedStaleReads_) +
                       " stale accesses unresolved; the cycle's tail "
                       "may predate the retained window]";
    }
    return res;
}

std::string
StreamingChecker::nodeString(const ExecWitness &ew, Node n) const
{
    const NodeMeta &m = nodes_[static_cast<std::size_t>(n)];
    if (m.event != kNoEvent) {
        if (!ew.eventRetained(m.event)) {
            return "<evicted event #" + std::to_string(m.event) + ">";
        }
        return ew.event(m.event).toString();
    }
    const Addr addr = m.aux;
    if (addr != kNoAddr) {
        Event init;
        init.iiid = Iiid{kInitPid, -1};
        init.type = EventType::Write;
        init.addr = addr;
        init.value = kInitVal;
        return init.toString();
    }
    return "<fence>";
}

} // namespace mcversi::mc
