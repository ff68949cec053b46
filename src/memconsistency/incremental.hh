/**
 * @file
 * Incremental cycle detection via dynamic topological ordering.
 *
 * The streaming checker maintains its constraint graphs online: one
 * edge insertion at a time, with the insertion that closes a cycle
 * reported immediately. This is the Pearce-Kelly algorithm (Pearce &
 * Kelly, "A Dynamic Topological Sort Algorithm for Directed Acyclic
 * Graphs", JEA 2006): the graph keeps a total order ord[] consistent
 * with the edges; an insertion u->v with ord[u] < ord[v] is a no-op on
 * the order, and one with ord[u] > ord[v] triggers two bounded DFS
 * passes over the *affected region* only -- the nodes whose order
 * indices lie between ord[v] and ord[u] -- after which the vacated
 * indices are redistributed. A cycle exists iff the forward pass
 * reaches u from v.
 *
 * Events arrive from the simulation nearly in commit order, so almost
 * every insertion takes the O(1) fast path; the affected region stays
 * small even for the out-of-order tail (store serialization lag).
 *
 * Like the batch CycleGraph, all scratch is generation-stamped and
 * capacity-preserving: a graph owned by a streaming checker and reset
 * per iteration is allocation-free in the steady state. Adjacency
 * lives in one flat edge pool: each edge is a single record on two
 * doubly linked lists, its source's out-list and its target's
 * in-list, newest first. Adding a node writes two list heads, adding
 * an edge appends one record, and retiring a node unlinks each of its
 * records in O(1) without walking its neighbours' lists. Walks that
 * need the insertion order (the forward pass, retirement) read a list
 * into scratch and go through it backwards.
 *
 * For bounded-window (soak) streaming the graph additionally supports
 * node retirement and compaction. retireNode() splices a node out of
 * the graph -- every live in-neighbour gains an edge to every live
 * out-neighbour, so reachability (and therefore cycle detection) among
 * the surviving nodes is preserved exactly -- and recycles its slot
 * and its edge records through free lists, keeping the node arrays,
 * the edge pool and the scratch sized to the live window instead of
 * the whole trace. compact() remaps the live nodes onto a dense id
 * prefix (capacity-preserving) and renumbers the topological order
 * densely so ord values cannot drift toward overflow on
 * multi-million-event streams.
 */

#ifndef MCVERSI_MEMCONSISTENCY_INCREMENTAL_HH
#define MCVERSI_MEMCONSISTENCY_INCREMENTAL_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace mcversi::mc {

/** DAG with incremental edge insertion and online cycle detection. */
class IncrementalGraph
{
  public:
    using Node = std::int32_t;

    /** Drop all nodes and edges, keeping every buffer's capacity. */
    void reset();

    /**
     * Add a node at the end of the topological order, reusing a
     * retired slot when one is free. Inline: this runs twice per
     * streamed event.
     */
    Node addNode() { return place(ordNext_++); }

    /**
     * Add a node at the *front* of the topological order, for a node
     * that will only ever gain out-edges (a source, such as an init
     * write). Every edge out of a source is then in-order, so it never
     * takes the reorder path, wherever its target sits. Sources take
     * ords counting down from -1; reorder() never moves them (an
     * affected region starts at an edge target, which is never a
     * source), and compact() ranks them first.
     */
    Node addSource() { return place(srcNext_--); }

    /** Slots in use: the exclusive upper bound on valid node ids. */
    std::size_t numNodes() const { return numNodes_; }

    /** Nodes added and not yet retired. */
    std::size_t numLive() const { return numLive_; }

    /**
     * Insert the edge @p from -> @p to, restoring the topological
     * order. The in-order fast path (ord[from] < ord[to]) is inline;
     * self-loops and order repairs take the out-of-line slow path.
     *
     * @return true if the graph is still acyclic; false if this edge
     *         closed a cycle. After a cycle the graph is poisoned:
     *         lastCycle() holds the offending cycle and no further
     *         edges may be inserted until reset().
     */
    bool
    addEdge(Node from, Node to)
    {
        assert(!poisoned_ && "graph poisoned by an earlier cycle");
        if (from != to) {
            link(from, to);
            if (ord_[static_cast<std::size_t>(from)] <
                ord_[static_cast<std::size_t>(to)]) {
                return true;
            }
        }
        return addEdgeSlow(from, to);
    }

    bool hasCycle() const { return poisoned_; }

    /** Insertions that took the reorder path since reset() (tests). */
    std::uint64_t reorders() const { return reorders_; }

    /** @p n's index in the maintained topological order (tests). */
    std::int32_t
    ord(Node n) const
    {
        return ord_[static_cast<std::size_t>(n)];
    }

    /**
     * The cycle closed by the failing addEdge(): its node sequence in
     * edge order (first node repeated at the end is omitted), starting
     * at the target of the inserted edge.
     */
    const std::vector<Node> &lastCycle() const { return cycle_; }

    /** Successors inserted so far, in insertion order (tests). */
    std::vector<Node> successors(Node n) const;

    /** Predecessors inserted so far, in insertion order (tests). */
    std::vector<Node> predecessors(Node n) const;

    /**
     * Splice @p n out of the graph and recycle its slot. Every live
     * in-neighbour gains a bypass edge to every live out-neighbour, so
     * reachability -- and therefore cycle detection -- among the
     * surviving nodes is exactly preserved; cycles that would have run
     * *through* @p n can no longer be attributed to it, which is why
     * callers only retire nodes that can receive no further incoming
     * edge. Not callable on a poisoned graph.
     */
    void retireNode(Node n);

    /**
     * Remap the live nodes onto the dense id prefix [0, newCount) and
     * renumber the topological order densely. @p remap gives each old
     * id its new id, or a negative value for retired slots; it must be
     * monotone ascending on live ids (node order is preserved).
     * Capacity-preserving: no buffer shrinks, the free list empties.
     */
    void compact(const std::vector<Node> &remap, Node newCount);

  private:
    /** No edge: the end of a list. */
    static constexpr std::int32_t kNil = -1;

    /** One edge, on @c from's out-list and @c to's in-list. */
    struct Edge
    {
        Node from;
        Node to;
        std::int32_t nextOut;
        std::int32_t prevOut;
        std::int32_t nextIn;
        std::int32_t prevIn;
    };

    /** List heads of one node (newest edge first). */
    struct Heads
    {
        std::int32_t out = kNil;
        std::int32_t in = kNil;
    };

    /** Put the edge @p from -> @p to on both lists (no order check). */
    void
    link(Node from, Node to)
    {
        Heads &hf = heads_[static_cast<std::size_t>(from)];
        Heads &ht = heads_[static_cast<std::size_t>(to)];
        std::int32_t e = freeEdge_;
        Edge *rec;
        if (e != kNil) {
            rec = &edges_[static_cast<std::size_t>(e)];
            freeEdge_ = rec->nextOut;
        } else {
            e = static_cast<std::int32_t>(edges_.size());
            rec = &edges_.emplace_back();
        }
        // Stored field by field, as newNode() in the streaming checker
        // does, for the same reason.
        rec->from = from;
        rec->to = to;
        rec->nextOut = hf.out;
        rec->prevOut = kNil;
        rec->nextIn = ht.in;
        rec->prevIn = kNil;
        if (hf.out != kNil)
            edges_[static_cast<std::size_t>(hf.out)].prevOut = e;
        if (ht.in != kNil)
            edges_[static_cast<std::size_t>(ht.in)].prevIn = e;
        hf.out = e;
        ht.in = e;
    }

    /** Append @p n's successors to @p out, in insertion order. */
    void appendSuccessors(Node n, std::vector<Node> &out) const;
    /** Append @p n's predecessors to @p out, in insertion order. */
    void appendPredecessors(Node n, std::vector<Node> &out) const;
    /** Take edge @p e off its target's in-list. */
    void unlinkIn(std::int32_t e);
    /** Take edge @p e off its source's out-list. */
    void unlinkOut(std::int32_t e);

    /**
     * Take a slot (a retired one when free) and give it order index
     * @p ord. addNode() and addSource() share one id space.
     */
    Node
    place(std::int32_t ord)
    {
        ++numLive_;
        if (!freeList_.empty()) {
            // Recycled slot: retireNode() already cleared its lists.
            const Node id = freeList_.back();
            freeList_.pop_back();
            ord_[static_cast<std::size_t>(id)] = ord;
            return id;
        }
        const auto id = static_cast<Node>(numNodes_);
        if (numNodes_ == heads_.size()) {
            heads_.emplace_back();
            ord_.push_back(0);
            fwdStamp_.push_back(0);
            bwdStamp_.push_back(0);
            parent_.push_back(-1);
        } else {
            // Reused slot: the heads still name edges from before the
            // last reset(), whose pool is gone.
            heads_[numNodes_] = Heads{};
        }
        ++numNodes_;
        // A fresh node has no edges yet, so the order stays consistent
        // at either end.
        ord_[static_cast<std::size_t>(id)] = ord;
        return id;
    }

    /** addEdge() slow path: self-loops and order repairs. */
    bool addEdgeSlow(Node from, Node to);

    /**
     * Restore the order after inserting u->v with ord[u] > ord[v].
     * Returns false (and extracts the cycle) if v reaches u.
     */
    bool reorder(Node u, Node v);

    bool marked(const std::vector<std::uint64_t> &stamp, Node n) const
    {
        return stamp[static_cast<std::size_t>(n)] == gen_;
    }

    /** Edge pool; freed records chain through nextOut from freeEdge_. */
    std::vector<Edge> edges_;
    std::int32_t freeEdge_ = kNil;
    /** Node -> its out- and in-list heads. */
    std::vector<Heads> heads_;
    /** Node -> index in the maintained topological order. */
    std::vector<std::int32_t> ord_;
    std::size_t numNodes_ = 0;
    std::size_t numLive_ = 0;
    /** Next topological-order index to hand out (monotone; compact()
     *  and reset() rebase it so it cannot creep toward overflow). */
    std::int32_t ordNext_ = 0;
    /** Next order index for addSource(): counts down from -1. */
    std::int32_t srcNext_ = -1;
    std::uint64_t reorders_ = 0;
    /** Retired slots available for recycling. */
    std::vector<Node> freeList_;

    bool poisoned_ = false;
    std::vector<Node> cycle_;

    // Reorder scratch, generation-stamped so reset() is O(1).
    std::uint64_t gen_ = 0;
    std::vector<std::uint64_t> fwdStamp_;
    std::vector<std::uint64_t> bwdStamp_;
    /** DFS parent of each forward-visited node (cycle extraction). */
    std::vector<Node> parent_;
    std::vector<Node> stack_;
    std::vector<Node> fwd_;
    std::vector<Node> bwd_;
    /** One node's neighbours in insertion order (forward pass and
     *  retirement). */
    std::vector<Node> nbrs_;
    std::vector<std::int32_t> idxScratch_;
};

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_INCREMENTAL_HH
