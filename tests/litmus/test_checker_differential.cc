/**
 * @file
 * Differential test for the flattened witness/checker hot path.
 *
 * A reference checker re-implements the checking algorithm with fresh
 * graphs per phase, hash-map po-loc tracking, and its own derivation of
 * *full* fr (every co-successor of a read's rf source, walked over a
 * successor list it builds from coPredecessor()), so production's
 * immediate-fr shortcut is checked rather than shared. The production
 * Checker must agree with it on the verdict kind for:
 *
 *   - all 38 entries of the generated x86-TSO golden litmus suite
 *     (forbidden outcome and sequential execution of each), and
 *   - seeded randomized witnesses, both consistent-by-construction and
 *     randomly corrupted ones (stale reads, fabricated values, co
 *     forks), covering every CheckResult kind;
 *
 * and every cycle the production checker reports must be a genuine
 * cycle of the reference constraint graph (consecutive cycle events
 * connected, possibly through virtual fence nodes).
 */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "litmus/suites.hh"
#include "memconsistency/checker.hh"
#include "witness_synthesis.hh"

using namespace mcversi;
using namespace mcversi::litmus;

namespace {

/**
 * The reference checker: fresh graphs per phase, rf and co read through
 * rfSource()/coPredecessor(), per-thread hash maps for po-loc, and full
 * fr derived per phase.
 */
class ReferenceChecker
{
  public:
    explicit ReferenceChecker(mc::ProfileModel model)
        : model_(std::move(model))
    {
    }

    mc::CheckResult
    check(mc::ExecWitness &ew) const
    {
        ew.finalize();
        if (ew.anomaly() != mc::WitnessAnomaly::None) {
            mc::CheckResult res;
            res.kind = mc::CheckResult::Kind::WitnessAnomaly;
            res.message = ew.anomalyInfo();
            return res;
        }
        if (auto res = checkCycle(ew, /*uniproc=*/true); !res.ok())
            return res;
        if (auto res = checkAtomicity(ew); !res.ok())
            return res;
        return checkCycle(ew, /*uniproc=*/false);
    }

    /** True if @p to is reachable from @p from in the phase graph. */
    bool
    reachable(mc::ExecWitness &ew, bool uniproc,
              mc::CycleGraph::Node from, mc::CycleGraph::Node to) const
    {
        const mc::CycleGraph g = buildGraph(ew, uniproc);
        std::vector<bool> seen(g.numNodes(), false);
        std::deque<mc::CycleGraph::Node> queue{from};
        while (!queue.empty()) {
            const auto cur = queue.front();
            queue.pop_front();
            for (const auto nxt : g.successors(cur)) {
                if (nxt == to)
                    return true;
                if (!seen[static_cast<std::size_t>(nxt)]) {
                    seen[static_cast<std::size_t>(nxt)] = true;
                    queue.push_back(nxt);
                }
            }
        }
        return false;
    }

  private:
    mc::CycleGraph
    buildGraph(const mc::ExecWitness &ew, bool uniproc) const
    {
        mc::CycleGraph g(ew.numEvents());
        if (uniproc) {
            for (Pid pid : ew.threads()) {
                std::unordered_map<Addr, mc::EventId> last;
                for (mc::EventId id : ew.threadEvents(pid)) {
                    const Addr a = ew.event(id).addr;
                    if (auto it = last.find(a); it != last.end())
                        g.addEdge(it->second, id);
                    last[a] = id;
                }
            }
        } else {
            for (Pid pid : ew.threads())
                model_.addProgramOrderEdges(ew, ew.threadEvents(pid), g);
        }
        const auto num_events = static_cast<mc::EventId>(ew.numEvents());
        // co, plus the successor list full fr walks.
        std::vector<mc::EventId> co_next(ew.numEvents(), mc::kNoEvent);
        for (mc::EventId w = 0; w < num_events; ++w) {
            const mc::EventId prev = ew.coPredecessor(w);
            if (prev != mc::kNoEvent) {
                g.addEdge(prev, w);
                co_next[static_cast<std::size_t>(prev)] = w;
            }
        }
        for (mc::EventId r = 0; r < num_events; ++r) {
            if (!ew.event(r).isRead())
                continue;
            const mc::EventId src = ew.rfSource(r);
            if (src == mc::kNoEvent)
                continue;
            const mc::Event &w = ew.event(src);
            if (uniproc || model_.ghbIncludesRfi() || w.isInit() ||
                w.iiid.pid != ew.event(r).iiid.pid) {
                g.addEdge(src, r);
            }
            // Full fr: r -> every co-successor of its rf source (the
            // step bound keeps a corrupt, cyclic co chain finite; its
            // co edges already close a cycle).
            mc::EventId succ = co_next[static_cast<std::size_t>(src)];
            for (mc::EventId steps = 0;
                 succ != mc::kNoEvent && steps < num_events; ++steps) {
                g.addEdge(r, succ);
                succ = co_next[static_cast<std::size_t>(succ)];
            }
        }
        return g;
    }

    mc::CheckResult
    checkCycle(const mc::ExecWitness &ew, bool uniproc) const
    {
        const mc::CycleGraph g = buildGraph(ew, uniproc);
        if (g.findCycle()) {
            mc::CheckResult res;
            res.kind = uniproc ? mc::CheckResult::Kind::UniprocViolation
                               : mc::CheckResult::Kind::GhbViolation;
            return res;
        }
        return {};
    }

    mc::CheckResult
    checkAtomicity(const mc::ExecWitness &ew) const
    {
        for (const auto &[r, w] : ew.rmwPairs()) {
            const mc::EventId src = ew.rfSource(r);
            if (src == mc::kNoEvent)
                continue;
            if (ew.coPredecessor(w) != src) {
                mc::CheckResult res;
                res.kind = mc::CheckResult::Kind::AtomicityViolation;
                return res;
            }
        }
        return {};
    }

    mc::ProfileModel model_;
};

/**
 * Compare production and reference verdicts on @p ew; if the production
 * checker reports a cycle, validate it against the reference graph.
 */
void
expectAgreement(mc::ExecWitness &ew, const std::string &label)
{
    for (const bool use_tso : {true, false}) {
        auto make_arch = [use_tso]() {
            return use_tso ? mc::makeTso() : mc::makeSc();
        };
        const mc::Checker prod(make_arch());
        const ReferenceChecker ref(make_arch());

        const mc::CheckResult p = prod.check(ew);
        const mc::CheckResult r = ref.check(ew);
        ASSERT_EQ(p.kind, r.kind)
            << label << (use_tso ? " [TSO]" : " [SC]")
            << ": production='" << mc::CheckResult::kindName(p.kind)
            << "' reference='" << mc::CheckResult::kindName(r.kind)
            << "'\n"
            << p.message;

        // A reported cycle must be a genuine cycle of the violated
        // constraint: each consecutive event pair (including the wrap)
        // connected in the reference graph, possibly through fences.
        if (p.kind == mc::CheckResult::Kind::UniprocViolation ||
            p.kind == mc::CheckResult::Kind::GhbViolation) {
            const bool uniproc =
                p.kind == mc::CheckResult::Kind::UniprocViolation;
            ASSERT_FALSE(p.cycle.empty()) << label;
            for (std::size_t i = 0; i < p.cycle.size(); ++i) {
                const auto from = p.cycle[i];
                const auto to = p.cycle[(i + 1) % p.cycle.size()];
                EXPECT_TRUE(ref.reachable(ew, uniproc, from, to))
                    << label << ": reported cycle edge "
                    << ew.event(from).toString() << " -> "
                    << ew.event(to).toString()
                    << " is not in the reference constraint graph";
            }
        }
    }
}

/**
 * Random witness: interleave threads over a simulated memory. With
 * @p corrupt, a fraction of reads observe a random (possibly stale or
 * fabricated) value and a fraction of writes claim a random overwritten
 * value, producing uniproc/ghb/atomicity violations and anomalies.
 */
mc::ExecWitness
randomWitness(Rng &rng, int threads, int ops, int addrs, bool corrupt)
{
    mc::ExecWitness ew;
    std::vector<WriteVal> memory(static_cast<std::size_t>(addrs),
                                 kInitVal);
    std::vector<std::int32_t> poi(static_cast<std::size_t>(threads), 0);
    std::vector<WriteVal> produced{kInitVal};
    WriteVal next = 1;

    for (int i = 0; i < ops; ++i) {
        const Pid pid = static_cast<Pid>(
            rng.below(static_cast<std::uint64_t>(threads)));
        const auto ai = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(addrs)));
        const Addr addr = 0x100 + 64 * static_cast<Addr>(ai);
        const std::int32_t p = poi[static_cast<std::size_t>(pid)]++;
        const double roll = rng.uniform();

        auto read_val = [&]() {
            if (corrupt && rng.boolWithProb(0.15)) {
                // Stale / foreign / fabricated value.
                if (rng.boolWithProb(0.2))
                    return static_cast<WriteVal>(90000 + rng.below(64));
                return produced[static_cast<std::size_t>(
                    rng.below(produced.size()))];
            }
            return memory[ai];
        };
        auto overwritten_val = [&]() {
            if (corrupt && rng.boolWithProb(0.1)) {
                return produced[static_cast<std::size_t>(
                    rng.below(produced.size()))];
            }
            return memory[ai];
        };

        if (roll < 0.5) {
            ew.recordRead(pid, p, addr, read_val());
        } else if (roll < 0.85) {
            const WriteVal v = next++;
            ew.recordWrite(pid, p, addr, v, overwritten_val());
            memory[ai] = v;
            produced.push_back(v);
        } else {
            const WriteVal v = next++;
            ew.recordRead(pid, p, addr, read_val(), /*rmw=*/true);
            ew.recordWrite(pid, p, addr, v, overwritten_val(),
                           /*rmw=*/true);
            memory[ai] = v;
            produced.push_back(v);
        }
    }
    return ew;
}

} // namespace

TEST(CheckerDifferential, GoldenLitmusSuiteForbiddenAndSequential)
{
    const std::vector<LitmusTest> suite = x86TsoSuite();
    ASSERT_EQ(suite.size(), kX86SuiteSize);
    for (const LitmusTest &t : suite) {
        {
            mc::ExecWitness ew = testsupport::forbiddenWitness(t);
            expectAgreement(ew, t.name + " (forbidden)");
        }
        {
            mc::ExecWitness ew = testsupport::sequentialWitness(t);
            expectAgreement(ew, t.name + " (sequential)");
        }
    }
}

TEST(CheckerDifferential, RandomConsistentWitnesses)
{
    Rng rng(0xd1ff01);
    for (int i = 0; i < 60; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(120));
        const int addrs = 1 + static_cast<int>(rng.below(6));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/false);
        expectAgreement(ew, "consistent witness #" + std::to_string(i));
    }
}

TEST(CheckerDifferential, RandomCorruptedWitnesses)
{
    Rng rng(0xd1ff02);
    int violations = 0;
    for (int i = 0; i < 120; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(80));
        const int addrs = 1 + static_cast<int>(rng.below(4));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/true);
        {
            const mc::Checker tso(mc::makeTso());
            if (!tso.check(ew).ok())
                ++violations;
        }
        expectAgreement(ew, "corrupted witness #" + std::to_string(i));
    }
    // The corruption rates must actually exercise the violation paths.
    EXPECT_GT(violations, 20);
}
