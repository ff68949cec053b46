#include "memconsistency/incremental.hh"

#include <algorithm>
#include <cassert>

namespace mcversi::mc {

void
IncrementalGraph::reset()
{
    // Stale list heads are NOT cleared here: place() resets each
    // node's heads right before handing the node out again, so reset()
    // stays O(1) no matter how large the last graph was. ord_ is
    // slot-indexed and overwritten on reuse, so it stays too.
    numNodes_ = 0;
    numLive_ = 0;
    ordNext_ = 0;
    srcNext_ = -1;
    reorders_ = 0;
    freeList_.clear();
    edges_.clear();
    freeEdge_ = kNil;
    poisoned_ = false;
    cycle_.clear();
}

void
IncrementalGraph::appendSuccessors(Node n, std::vector<Node> &out) const
{
    const std::size_t first = out.size();
    for (std::int32_t e = heads_[static_cast<std::size_t>(n)].out;
         e != kNil; e = edges_[static_cast<std::size_t>(e)].nextOut) {
        out.push_back(edges_[static_cast<std::size_t>(e)].to);
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first),
                 out.end());
}

void
IncrementalGraph::appendPredecessors(Node n, std::vector<Node> &out) const
{
    const std::size_t first = out.size();
    for (std::int32_t e = heads_[static_cast<std::size_t>(n)].in; e != kNil;
         e = edges_[static_cast<std::size_t>(e)].nextIn) {
        out.push_back(edges_[static_cast<std::size_t>(e)].from);
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first),
                 out.end());
}

std::vector<IncrementalGraph::Node>
IncrementalGraph::successors(Node n) const
{
    std::vector<Node> out;
    appendSuccessors(n, out);
    return out;
}

std::vector<IncrementalGraph::Node>
IncrementalGraph::predecessors(Node n) const
{
    std::vector<Node> out;
    appendPredecessors(n, out);
    return out;
}

void
IncrementalGraph::unlinkIn(std::int32_t e)
{
    const Edge &rec = edges_[static_cast<std::size_t>(e)];
    if (rec.prevIn != kNil)
        edges_[static_cast<std::size_t>(rec.prevIn)].nextIn = rec.nextIn;
    else
        heads_[static_cast<std::size_t>(rec.to)].in = rec.nextIn;
    if (rec.nextIn != kNil)
        edges_[static_cast<std::size_t>(rec.nextIn)].prevIn = rec.prevIn;
}

void
IncrementalGraph::unlinkOut(std::int32_t e)
{
    const Edge &rec = edges_[static_cast<std::size_t>(e)];
    if (rec.prevOut != kNil)
        edges_[static_cast<std::size_t>(rec.prevOut)].nextOut = rec.nextOut;
    else
        heads_[static_cast<std::size_t>(rec.from)].out = rec.nextOut;
    if (rec.nextOut != kNil)
        edges_[static_cast<std::size_t>(rec.nextOut)].prevOut = rec.prevOut;
}

void
IncrementalGraph::retireNode(Node n)
{
    assert(!poisoned_ && "cannot retire from a poisoned graph");
    const auto un = static_cast<std::size_t>(n);

    // Dedupe the live out-/in-neighbours (addEdge() tolerates duplicate
    // edges, so the raw lists may repeat) into the DFS scratch vectors,
    // keeping each neighbour's first position in insertion order.
    ++gen_;
    nbrs_.clear();
    appendSuccessors(n, nbrs_);
    fwd_.clear();
    for (const Node s : nbrs_) {
        if (!marked(fwdStamp_, s)) {
            fwdStamp_[static_cast<std::size_t>(s)] = gen_;
            fwd_.push_back(s);
        }
    }
    nbrs_.clear();
    appendPredecessors(n, nbrs_);
    bwd_.clear();
    for (const Node p : nbrs_) {
        if (!marked(bwdStamp_, p)) {
            bwdStamp_[static_cast<std::size_t>(p)] = gen_;
            bwd_.push_back(p);
        }
    }

    // Splice n out of its neighbours' lists (every duplicate copy) and
    // free its records. Each record is on exactly one of n's own lists
    // and on one neighbour's list, whence it unlinks in O(1).
    Heads &h = heads_[un];
    for (std::int32_t e = h.out; e != kNil;) {
        unlinkIn(e);
        Edge &rec = edges_[static_cast<std::size_t>(e)];
        const std::int32_t next = rec.nextOut;
        rec.nextOut = freeEdge_;
        freeEdge_ = e;
        e = next;
    }
    for (std::int32_t e = h.in; e != kNil;) {
        unlinkOut(e);
        Edge &rec = edges_[static_cast<std::size_t>(e)];
        const std::int32_t next = rec.nextIn;
        rec.nextOut = freeEdge_;
        freeEdge_ = e;
        e = next;
    }
    h = Heads{};

    // Bypass edges: p -> n -> s becomes p -> s, preserving reachability
    // among the survivors. ord[p] < ord[n] < ord[s] already holds, so
    // every bypass is in-order -- no reorder, no possible cycle.
    for (const Node p : bwd_) {
        for (const Node s : fwd_) {
            assert(ord_[static_cast<std::size_t>(p)] <
                   ord_[static_cast<std::size_t>(s)]);
            link(p, s);
        }
    }

    freeList_.push_back(n);
    --numLive_;
}

void
IncrementalGraph::compact(const std::vector<Node> &remap, Node newCount)
{
    assert(!poisoned_ && "cannot compact a poisoned graph");
    assert(remap.size() >= numNodes_);
    assert(static_cast<std::size_t>(newCount) == numLive_);

    // Move live slots down onto the dense prefix. remap is monotone
    // ascending on live ids, so by the time slot remap[old] is written
    // its original occupant (if it was live) has already moved out.
    for (std::size_t old = 0; old < numNodes_; ++old) {
        const Node nw = remap[old];
        if (nw < 0)
            continue;
        const auto unw = static_cast<std::size_t>(nw);
        assert(unw <= old);
        if (unw != old) {
            heads_[unw] = heads_[old];
            ord_[unw] = ord_[old];
        }
    }

    // Rewrite both ends of every edge into the new id space. Each live
    // record sits on exactly one live node's out-list, and retired
    // nodes were purged from every list at retireNode().
    for (Node i = 0; i < newCount; ++i) {
        for (std::int32_t e = heads_[static_cast<std::size_t>(i)].out;
             e != kNil; e = edges_[static_cast<std::size_t>(e)].nextOut) {
            Edge &rec = edges_[static_cast<std::size_t>(e)];
            assert(remap[static_cast<std::size_t>(rec.to)] >= 0);
            rec.from = i;
            rec.to = remap[static_cast<std::size_t>(rec.to)];
        }
    }

    // Renumber the order densely: sort live ids by their (gappy) ord
    // value, then assign ranks. Sources hold the lowest ords, so they
    // keep the front ranks. Rebases ordNext_ and srcNext_ away from
    // overflow.
    fwd_.clear();
    for (Node i = 0; i < newCount; ++i)
        fwd_.push_back(i);
    std::sort(fwd_.begin(), fwd_.end(), [this](Node a, Node b) {
        return ord_[static_cast<std::size_t>(a)] <
               ord_[static_cast<std::size_t>(b)];
    });
    for (std::size_t rank = 0; rank < fwd_.size(); ++rank) {
        ord_[static_cast<std::size_t>(fwd_[rank])] =
            static_cast<std::int32_t>(rank);
    }

    numNodes_ = static_cast<std::size_t>(newCount);
    freeList_.clear();
    ordNext_ = newCount;
    srcNext_ = -1;
}

bool
IncrementalGraph::addEdgeSlow(Node from, Node to)
{
    if (from == to) {
        poisoned_ = true;
        cycle_.assign(1, from);
        return false;
    }
    // The inline fast path already linked the edge into both lists.
    ++reorders_;
    if (!reorder(from, to)) {
        poisoned_ = true;
        return false;
    }
    return true;
}

bool
IncrementalGraph::reorder(Node u, Node v)
{
    const std::int32_t lb = ord_[static_cast<std::size_t>(v)];
    const std::int32_t ub = ord_[static_cast<std::size_t>(u)];
    ++gen_;

    // Forward pass: descendants of v within the affected region
    // (ord <= ord[u]). In a valid pre-insertion order every ancestor
    // of u sits below ord[u], so if any path v => u exists the pass
    // finds it -- reaching u means the new edge closes a cycle. The
    // successors are visited in insertion order, which fixes the DFS
    // tree and therefore the reported cycle.
    fwd_.clear();
    stack_.clear();
    fwdStamp_[static_cast<std::size_t>(v)] = gen_;
    stack_.push_back(v);
    while (!stack_.empty()) {
        const Node n = stack_.back();
        stack_.pop_back();
        fwd_.push_back(n);
        nbrs_.clear();
        appendSuccessors(n, nbrs_);
        for (const Node s : nbrs_) {
            if (ord_[static_cast<std::size_t>(s)] > ub ||
                marked(fwdStamp_, s)) {
                continue;
            }
            parent_[static_cast<std::size_t>(s)] = n;
            if (s == u) {
                // Cycle: v -> ... -> u plus the inserted edge u -> v.
                cycle_.clear();
                for (Node c = u; c != v;
                     c = parent_[static_cast<std::size_t>(c)]) {
                    cycle_.push_back(c);
                }
                cycle_.push_back(v);
                std::reverse(cycle_.begin(), cycle_.end());
                return false;
            }
            fwdStamp_[static_cast<std::size_t>(s)] = gen_;
            stack_.push_back(s);
        }
    }

    // Backward pass: ancestors of u within the region (ord >= ord[v]).
    // Only the set matters (it is sorted below), so the in-list is
    // walked as stored.
    bwd_.clear();
    stack_.clear();
    bwdStamp_[static_cast<std::size_t>(u)] = gen_;
    stack_.push_back(u);
    while (!stack_.empty()) {
        const Node n = stack_.back();
        stack_.pop_back();
        bwd_.push_back(n);
        for (std::int32_t e = heads_[static_cast<std::size_t>(n)].in;
             e != kNil; e = edges_[static_cast<std::size_t>(e)].nextIn) {
            const Node p = edges_[static_cast<std::size_t>(e)].from;
            if (ord_[static_cast<std::size_t>(p)] < lb ||
                marked(bwdStamp_, p)) {
                continue;
            }
            bwdStamp_[static_cast<std::size_t>(p)] = gen_;
            stack_.push_back(p);
        }
    }

    // Redistribute: the ancestors of u (in order), then the
    // descendants of v (in order), onto the sorted union of the
    // vacated indices. The two sets are disjoint (an overlap would be
    // a v => x => u path, caught above).
    auto by_ord = [this](Node a, Node b) {
        return ord_[static_cast<std::size_t>(a)] <
               ord_[static_cast<std::size_t>(b)];
    };
    std::sort(bwd_.begin(), bwd_.end(), by_ord);
    std::sort(fwd_.begin(), fwd_.end(), by_ord);

    idxScratch_.clear();
    for (const Node n : bwd_)
        idxScratch_.push_back(ord_[static_cast<std::size_t>(n)]);
    for (const Node n : fwd_)
        idxScratch_.push_back(ord_[static_cast<std::size_t>(n)]);
    std::sort(idxScratch_.begin(), idxScratch_.end());

    std::size_t i = 0;
    for (const Node n : bwd_)
        ord_[static_cast<std::size_t>(n)] = idxScratch_[i++];
    for (const Node n : fwd_)
        ord_[static_cast<std::size_t>(n)] = idxScratch_[i++];
    return true;
}

} // namespace mcversi::mc
