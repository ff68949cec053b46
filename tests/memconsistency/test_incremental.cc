/**
 * @file
 * IncrementalGraph (Pearce-Kelly dynamic topological ordering) tests:
 * differential against the batch CycleGraph DFS on random edge
 * sequences, cycle-report validity, poisoning semantics, and
 * capacity-preserving reuse across resets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "memconsistency/graph.hh"
#include "memconsistency/incremental.hh"

using namespace mcversi;
using namespace mcversi::mc;

namespace {

using Node = IncrementalGraph::Node;

/** True if @p to is reachable from @p from using @p g's edges. */
bool
reachable(const CycleGraph &g, Node from, Node to)
{
    std::vector<bool> seen(g.numNodes(), false);
    std::vector<Node> stack{from};
    while (!stack.empty()) {
        const Node cur = stack.back();
        stack.pop_back();
        if (cur == to)
            return true;
        if (seen[static_cast<std::size_t>(cur)])
            continue;
        seen[static_cast<std::size_t>(cur)] = true;
        for (const Node nxt : g.successors(cur))
            stack.push_back(nxt);
    }
    return false;
}

/** Every consecutive pair of the reported cycle must be a real edge. */
void
expectGenuineCycle(const IncrementalGraph &inc, const CycleGraph &ref)
{
    const std::vector<Node> &cycle = inc.lastCycle();
    ASSERT_FALSE(cycle.empty());
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        const Node from = cycle[i];
        const Node to = cycle[(i + 1) % cycle.size()];
        const auto &succ = ref.successors(from);
        EXPECT_TRUE(std::find(succ.begin(), succ.end(), to) !=
                    succ.end())
            << "cycle edge " << from << " -> " << to
            << " was never inserted";
    }
}

} // namespace

TEST(IncrementalGraph, FastPathChainStaysAcyclic)
{
    IncrementalGraph g;
    const Node a = g.addNode();
    const Node b = g.addNode();
    const Node c = g.addNode();
    EXPECT_TRUE(g.addEdge(a, b));
    EXPECT_TRUE(g.addEdge(b, c));
    EXPECT_TRUE(g.addEdge(a, c)); // Transitive duplicate is fine.
    EXPECT_FALSE(g.hasCycle());
}

TEST(IncrementalGraph, TwoNodeCycleDetected)
{
    IncrementalGraph g;
    const Node a = g.addNode();
    const Node b = g.addNode();
    EXPECT_TRUE(g.addEdge(a, b));
    EXPECT_FALSE(g.addEdge(b, a));
    EXPECT_TRUE(g.hasCycle());
    // Cycle starts at the inserted edge's target: [a, b].
    EXPECT_EQ(g.lastCycle(), (std::vector<Node>{a, b}));
}

TEST(IncrementalGraph, SelfLoopDetected)
{
    IncrementalGraph g;
    const Node a = g.addNode();
    EXPECT_FALSE(g.addEdge(a, a));
    EXPECT_TRUE(g.hasCycle());
    EXPECT_EQ(g.lastCycle(), (std::vector<Node>{a}));
}

TEST(IncrementalGraph, ReorderAgainstInsertionOrder)
{
    // Insert edges strictly against node-creation order, forcing the
    // slow (reorder) path on every insertion.
    IncrementalGraph g;
    constexpr int kNodes = 64;
    std::vector<Node> nodes;
    for (int i = 0; i < kNodes; ++i)
        nodes.push_back(g.addNode());
    for (int i = kNodes - 1; i > 0; --i)
        EXPECT_TRUE(g.addEdge(nodes[static_cast<std::size_t>(i)],
                              nodes[static_cast<std::size_t>(i - 1)]));
    EXPECT_FALSE(g.hasCycle());
    // Now close the loop end-around.
    EXPECT_FALSE(g.addEdge(nodes[0], nodes[kNodes - 1]));
    EXPECT_EQ(g.lastCycle().size(), static_cast<std::size_t>(kNodes));
}

TEST(IncrementalGraph, DifferentialAgainstBatchDfs)
{
    // Random edge sequences over small node counts: the incremental
    // graph must flag a cycle at exactly the first edge that makes the
    // batch DFS find one, and the reported cycle must be genuine.
    Rng rng(0x1c4e11);
    for (int round = 0; round < 200; ++round) {
        const int n = 2 + static_cast<int>(rng.below(24));
        const int edges = 1 + static_cast<int>(rng.below(96));

        IncrementalGraph inc;
        CycleGraph ref(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            inc.addNode();

        bool done = false;
        for (int e = 0; e < edges && !done; ++e) {
            const Node from = static_cast<Node>(
                rng.below(static_cast<std::uint64_t>(n)));
            const Node to = static_cast<Node>(
                rng.below(static_cast<std::uint64_t>(n)));
            ref.addEdge(from, to);
            const bool still_acyclic = inc.addEdge(from, to);
            const bool ref_acyclic = !ref.findCycle().has_value();
            ASSERT_EQ(still_acyclic, ref_acyclic)
                << "round " << round << " edge " << from << "->" << to;
            if (!still_acyclic) {
                expectGenuineCycle(inc, ref);
                done = true;
            }
        }
    }
}

TEST(IncrementalGraph, TopologicalOrderMatchesReachability)
{
    // After a batch of random acyclic insertions, every inserted edge
    // must still be accepted as a (duplicate) fast-path or reorderable
    // insertion -- i.e. the maintained order is consistent.
    Rng rng(0x70b0);
    IncrementalGraph g;
    CycleGraph ref(32);
    for (int i = 0; i < 32; ++i)
        g.addNode();
    std::vector<std::pair<Node, Node>> inserted;
    for (int e = 0; e < 200; ++e) {
        const Node from =
            static_cast<Node>(rng.below(32));
        const Node to = static_cast<Node>(rng.below(32));
        if (from == to || reachable(ref, to, from))
            continue; // Would close a cycle; keep the graph a DAG.
        ref.addEdge(from, to);
        ASSERT_TRUE(g.addEdge(from, to));
        inserted.emplace_back(from, to);
    }
    for (const auto &[from, to] : inserted)
        ASSERT_TRUE(g.addEdge(from, to));
    EXPECT_FALSE(g.hasCycle());
}

TEST(IncrementalGraph, ResetReusesCapacityAndClearsPoison)
{
    IncrementalGraph g;
    const Node a = g.addNode();
    const Node b = g.addNode();
    EXPECT_TRUE(g.addEdge(a, b));
    EXPECT_FALSE(g.addEdge(b, a));
    EXPECT_TRUE(g.hasCycle());

    g.reset();
    EXPECT_FALSE(g.hasCycle());
    EXPECT_EQ(g.numNodes(), 0u);

    // Same shape again after reset: identical behavior.
    const Node a2 = g.addNode();
    const Node b2 = g.addNode();
    EXPECT_TRUE(g.addEdge(a2, b2));
    EXPECT_TRUE(g.addEdge(a2, b2));
    EXPECT_FALSE(g.addEdge(b2, a2));
    EXPECT_EQ(g.lastCycle(), (std::vector<Node>{a2, b2}));
}

TEST(IncrementalGraphRetire, BypassPreservesReachability)
{
    // a -> n -> b; retiring n must leave a -> b reachable, so closing
    // b -> a is still detected as a cycle among the survivors.
    IncrementalGraph g;
    const Node a = g.addNode();
    const Node n = g.addNode();
    const Node b = g.addNode();
    EXPECT_TRUE(g.addEdge(a, n));
    EXPECT_TRUE(g.addEdge(n, b));
    g.retireNode(n);
    EXPECT_EQ(g.numLive(), 2u);
    // The bypass edge a -> b took n's place.
    EXPECT_EQ(g.successors(a), (std::vector<Node>{b}));
    EXPECT_EQ(g.predecessors(b), (std::vector<Node>{a}));
    EXPECT_FALSE(g.addEdge(b, a));
    EXPECT_TRUE(g.hasCycle());
}

TEST(IncrementalGraphRetire, RecyclesSlotsAndPurgesDuplicates)
{
    IncrementalGraph g;
    const Node a = g.addNode();
    const Node n = g.addNode();
    const Node b = g.addNode();
    // Duplicate edges in both directions around n: the retire must
    // purge every copy from the neighbours' lists.
    EXPECT_TRUE(g.addEdge(a, n));
    EXPECT_TRUE(g.addEdge(a, n));
    EXPECT_TRUE(g.addEdge(n, b));
    EXPECT_TRUE(g.addEdge(n, b));
    g.retireNode(n);
    for (const Node s : g.successors(a))
        EXPECT_NE(s, n);
    for (const Node p : g.predecessors(b))
        EXPECT_NE(p, n);
    // One bypass edge, not four: neighbours are deduped first.
    EXPECT_EQ(g.successors(a), (std::vector<Node>{b}));

    // The freed slot is recycled before any fresh slot is allocated.
    const std::size_t slots = g.numNodes();
    const Node n2 = g.addNode();
    EXPECT_EQ(n2, n);
    EXPECT_EQ(g.numNodes(), slots);
    EXPECT_EQ(g.numLive(), 3u);
    // The recycled node joins at the end of the order: edges from the
    // old survivors into it are in-order fast paths.
    EXPECT_TRUE(g.addEdge(b, n2));
    EXPECT_FALSE(g.hasCycle());
}

TEST(IncrementalGraphRetire, ChainRetirementKeepsEndToEndOrdering)
{
    // Retire every interior node of a long chain; the two endpoints
    // must still be ordered, detected via the closing back-edge.
    IncrementalGraph g;
    constexpr int kNodes = 128;
    std::vector<Node> nodes;
    for (int i = 0; i < kNodes; ++i)
        nodes.push_back(g.addNode());
    for (int i = 0; i + 1 < kNodes; ++i)
        EXPECT_TRUE(g.addEdge(nodes[static_cast<std::size_t>(i)],
                              nodes[static_cast<std::size_t>(i + 1)]));
    for (int i = 1; i + 1 < kNodes; ++i)
        g.retireNode(nodes[static_cast<std::size_t>(i)]);
    EXPECT_EQ(g.numLive(), 2u);
    EXPECT_FALSE(g.addEdge(nodes[kNodes - 1], nodes[0]));
    EXPECT_TRUE(g.hasCycle());
}

TEST(IncrementalGraphRetire, CompactRemapsOntoDensePrefix)
{
    IncrementalGraph g;
    std::vector<Node> nodes;
    for (int i = 0; i < 6; ++i)
        nodes.push_back(g.addNode());
    // 0 -> 2 -> 4 and 1 -> 2; retire the odd nodes (1, 3, 5).
    EXPECT_TRUE(g.addEdge(nodes[0], nodes[2]));
    EXPECT_TRUE(g.addEdge(nodes[2], nodes[4]));
    EXPECT_TRUE(g.addEdge(nodes[1], nodes[2]));
    g.retireNode(nodes[1]);
    g.retireNode(nodes[3]);
    g.retireNode(nodes[5]);

    // Live ids {0, 2, 4} -> dense {0, 1, 2}, order preserved.
    std::vector<Node> remap{0, -1, 1, -1, 2, -1};
    g.compact(remap, 3);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numLive(), 3u);
    EXPECT_EQ(g.successors(0), (std::vector<Node>{1}));
    EXPECT_EQ(g.successors(1), (std::vector<Node>{2}));
    EXPECT_EQ(g.predecessors(1), (std::vector<Node>{0}));
    // The order survived the renumbering: the closing edge cycles.
    EXPECT_FALSE(g.addEdge(2, 0));
    EXPECT_TRUE(g.hasCycle());
}

TEST(IncrementalGraphRetire, DifferentialAgainstFullGraphReachability)
{
    // Random interleavings of addNode/addEdge/retire/compact. The
    // reference CycleGraph keeps every node forever; because bypass
    // edges preserve reachability among live nodes exactly (including
    // paths through retired ones), an edge between live nodes must
    // close a cycle in the incremental graph iff it does in the full
    // reference graph. Retired nodes are never used as endpoints again
    // (the checker guarantees the same invariant).
    Rng rng(0xde7143);
    constexpr std::size_t kMaxNodes = 64;
    for (int round = 0; round < 100; ++round) {
        IncrementalGraph inc;
        CycleGraph ref(kMaxNodes);
        std::vector<Node> live;    // incremental-graph ids
        std::vector<Node> refId;   // live[i] <-> refId[i]
        std::size_t refNodes = 0;
        bool poisoned = false;

        for (int op = 0; op < 300 && !poisoned; ++op) {
            const auto pick = rng.below(10);
            if (pick < 4 || live.size() < 2) {
                if (refNodes == kMaxNodes)
                    continue;
                live.push_back(inc.addNode());
                refId.push_back(static_cast<Node>(refNodes++));
            } else if (pick < 8) {
                const auto i = rng.below(live.size());
                const auto j = rng.below(live.size());
                ref.addEdge(refId[i], refId[j]);
                const bool incAcyclic = inc.addEdge(live[i], live[j]);
                const bool refAcyclic = !ref.findCycle().has_value();
                ASSERT_EQ(incAcyclic, refAcyclic)
                    << "round " << round << " op " << op;
                poisoned = !incAcyclic;
            } else if (pick < 9) {
                const auto i = rng.below(live.size());
                inc.retireNode(live[i]);
                live.erase(live.begin() + static_cast<long>(i));
                refId.erase(refId.begin() + static_cast<long>(i));
                // The reference keeps the node: paths through it stand
                // in for the bypass edges.
            } else if (!live.empty()) {
                // Compact: dense new ids in ascending old-id order.
                std::vector<Node> remap(inc.numNodes(), -1);
                std::vector<std::size_t> order(live.size());
                for (std::size_t k = 0; k < live.size(); ++k)
                    order[k] = k;
                std::sort(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) {
                              return live[a] < live[b];
                          });
                for (std::size_t rank = 0; rank < order.size(); ++rank) {
                    remap[static_cast<std::size_t>(live[order[rank]])] =
                        static_cast<Node>(rank);
                }
                inc.compact(remap, static_cast<Node>(live.size()));
                for (std::size_t k = 0; k < live.size(); ++k) {
                    live[k] =
                        remap[static_cast<std::size_t>(live[k])];
                }
            }
        }
        ASSERT_EQ(inc.numLive(), live.size());
    }
}

TEST(IncrementalGraphSources, SourceEdgesNeverReorder)
{
    // Sources join at the front of the order, so an edge out of one is
    // in-order wherever its target sits: interleave sources with
    // ordinary nodes, wire each source to every earlier node, and no
    // insertion may take the reorder path.
    IncrementalGraph g;
    std::vector<Node> plain;
    std::vector<Node> sources;
    for (int i = 0; i < 32; ++i) {
        plain.push_back(g.addNode());
        const Node s = g.addSource();
        sources.push_back(s);
        for (const Node n : plain)
            EXPECT_TRUE(g.addEdge(s, n));
        if (plain.size() > 1) {
            EXPECT_TRUE(g.addEdge(plain[plain.size() - 2], plain.back()));
        }
    }
    EXPECT_EQ(g.reorders(), 0u);
    for (const Node s : sources) {
        for (const Node n : plain)
            EXPECT_LT(g.ord(s), g.ord(n));
    }

    // A node added after a source, with an edge against the order, is
    // the reorder path's case: the counter does see it.
    const Node a = g.addNode();
    const Node b = g.addNode();
    EXPECT_TRUE(g.addEdge(b, a));
    EXPECT_EQ(g.reorders(), 1u);
    EXPECT_FALSE(g.hasCycle());
}

TEST(IncrementalGraphSources, SourcesStayFirstAcrossRetireAndCompact)
{
    // Build an interleaving of sources and a backward-wired chain (so
    // the chain's order is repaired by reorders), retire every other
    // chain node, compact, and keep going: sources must stay ahead of
    // every ordinary node, and edges out of new sources must still
    // never reorder.
    IncrementalGraph g;
    std::vector<Node> chain;
    std::vector<Node> sources;
    for (int i = 0; i < 16; ++i) {
        sources.push_back(g.addSource());
        chain.push_back(g.addNode());
        if (i > 0) {
            EXPECT_TRUE(g.addEdge(chain[static_cast<std::size_t>(i)],
                                  chain[static_cast<std::size_t>(i - 1)]));
        }
        EXPECT_TRUE(g.addEdge(sources.back(), chain.back()));
    }
    const std::uint64_t chainReorders = g.reorders();
    EXPECT_GT(chainReorders, 0u);

    std::vector<bool> live(g.numNodes(), true);
    for (std::size_t i = 1; i < chain.size(); i += 2) {
        g.retireNode(chain[i]);
        live[static_cast<std::size_t>(chain[i])] = false;
    }
    std::vector<Node> remap(g.numNodes(), -1);
    Node next = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i])
            remap[i] = next++;
    }
    g.compact(remap, next);

    const auto renamed = [&remap](const std::vector<Node> &v) {
        std::vector<Node> out;
        for (const Node n : v) {
            if (remap[static_cast<std::size_t>(n)] >= 0)
                out.push_back(remap[static_cast<std::size_t>(n)]);
        }
        return out;
    };
    sources = renamed(sources);
    chain = renamed(chain);
    ASSERT_EQ(sources.size(), 16u);
    ASSERT_EQ(chain.size(), 8u);
    // Sources were handed ords -1, -2, ...: the latest ranks first.
    for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(g.ord(sources[i]),
                  static_cast<std::int32_t>(sources.size() - 1 - i))
            << "compact() ranks sources first, in their order";
    }
    for (const Node n : chain)
        EXPECT_GE(g.ord(n), static_cast<std::int32_t>(sources.size()));

    // After the rebase, fresh sources still go in front of everything.
    const Node late = g.addNode();
    const Node src = g.addSource();
    EXPECT_TRUE(g.addEdge(src, late));
    for (const Node n : chain)
        EXPECT_TRUE(g.addEdge(src, n));
    EXPECT_EQ(g.reorders(), chainReorders);
    for (const Node s : sources)
        EXPECT_LT(g.ord(src), g.ord(s));

    // The retired chain nodes' bypasses kept the chain's reachability:
    // closing it end to end is still a cycle.
    EXPECT_FALSE(g.addEdge(chain.front(), chain.back()));
    EXPECT_TRUE(g.hasCycle());
}
