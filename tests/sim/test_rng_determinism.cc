/**
 * @file
 * Seed round-trip determinism guarantees for common/rng.hh and every GP
 * component that draws from it. Future parallelization (sharded GA,
 * per-worker streams) relies on "same seed => same decisions" holding
 * exactly; these tests pin that contract down at the Rng, generator,
 * crossover, and whole-GA level.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "gp/crossover.hh"
#include "gp/evolution.hh"
#include "gp/randgen.hh"

using namespace mcversi;
using namespace mcversi::gp;

namespace {

GenParams
smallGen()
{
    GenParams gen;
    gen.testSize = 96;
    gen.numThreads = 4;
    gen.memSize = 1024;
    return gen;
}

/** Deterministic pseudo-fitness derived from the test content. */
double
pseudoFitness(const Test &t)
{
    return static_cast<double>(t.fingerprint() % 1000) / 1000.0;
}

/** NdInfo derived deterministically from the test content. */
NdInfo
pseudoNd(const Test &t)
{
    NdInfo nd;
    nd.ndt = 1.0 + pseudoFitness(t);
    // Mark roughly half the used addresses as racy so the selective
    // crossover's fitaddr paths are exercised.
    for (const Addr a : t.usedAddrs())
        if ((a / 16) % 2 == 0)
            nd.fitaddrs.insert(a);
    return nd;
}

} // namespace

TEST(RngDeterminism, SameSeedSameStream)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t va = a.next();
        ASSERT_EQ(va, b.next()) << "draw " << i;
        diverged |= va != c.next();
    }
    EXPECT_TRUE(diverged) << "different seeds must give different streams";
}

TEST(RngDeterminism, ReseedRestartsTheStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(a.next());
    a.reseed(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)])
            << "draw " << i;
}

TEST(RngDeterminism, HelpersAreDeterministic)
{
    Rng a(11), b(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.below(97), b.below(97));
        EXPECT_EQ(a.range(10, 20), b.range(10, 20));
        EXPECT_EQ(a.boolWithProb(0.3), b.boolWithProb(0.3));
        EXPECT_EQ(a.uniform(), b.uniform());
    }
}

TEST(RngDeterminism, ForkedStreamsAreReproducible)
{
    Rng a(5), b(5);
    Rng fa = a.fork();
    Rng fb = b.fork();
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(fa.next(), fb.next());
    // Forking must advance the parent identically on both sides.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(GeneratorDeterminism, SameSeedSameTests)
{
    const RandomTestGen gen(smallGen());
    Rng a(123), b(123);
    for (int i = 0; i < 20; ++i) {
        const gp::Test ta = gen.randomTest(a);
        const gp::Test tb = gen.randomTest(b);
        ASSERT_EQ(ta.fingerprint(), tb.fingerprint()) << "test " << i;
        ASSERT_EQ(ta.nodes(), tb.nodes()) << "test " << i;
    }
}

TEST(CrossoverDeterminism, SameSeedSameChildAndSameDrawCount)
{
    const RandomTestGen gen(smallGen());
    const GaParams ga;

    Rng setup(99);
    const gp::Test p1 = gen.randomTest(setup);
    const gp::Test p2 = gen.randomTest(setup);
    const NdInfo nd1 = pseudoNd(p1);
    const NdInfo nd2 = pseudoNd(p2);

    Rng a(7), b(7);
    const gp::Test ca = crossoverMutate(p1, nd1, p2, nd2, gen, ga, a);
    const gp::Test cb = crossoverMutate(p1, nd1, p2, nd2, gen, ga, b);
    EXPECT_EQ(ca.nodes(), cb.nodes());
    // The two streams must stay in lockstep: same number of draws.
    EXPECT_EQ(a.next(), b.next());

    Rng c(8), d(8);
    const gp::Test sc = singlePointCrossoverMutate(p1, p2, gen, ga, c);
    const gp::Test sd = singlePointCrossoverMutate(p1, p2, gen, ga, d);
    EXPECT_EQ(sc.nodes(), sd.nodes());
    EXPECT_EQ(c.next(), d.next());
}

TEST(GaDeterminism, SameSeedSamePopulationEvolution)
{
    GaParams ga;
    ga.population = 16;
    const GenParams gen = smallGen();

    for (const auto mode : {XoMode::Selective, XoMode::SinglePoint}) {
        EvolutionEngine g1(ga, gen, 2026, mode);
        EvolutionEngine g2(ga, gen, 2026, mode);

        // Evolve well past the initial population so offspring
        // (tournament + crossover + mutation decisions) are covered.
        EvolutionEngine::TestRef r1;
        EvolutionEngine::TestRef r2;
        for (int i = 0; i < 64; ++i) {
            g1.nextBatch({&r1, 1});
            g2.nextBatch({&r2, 1});
            const gp::Test t1(std::vector<Node>(g1.genome(r1).begin(),
                                                g1.genome(r1).end()));
            const gp::Test t2(std::vector<Node>(g2.genome(r2).begin(),
                                                g2.genome(r2).end()));
            ASSERT_EQ(t1.fingerprint(), t2.fingerprint())
                << "evaluation " << i;
            EvalResult e1{pseudoFitness(t1), pseudoNd(t1)};
            EvalResult e2{pseudoFitness(t2), pseudoNd(t2)};
            g1.reportBatch({&e1, 1});
            g2.reportBatch({&e2, 1});
        }

        const auto &p1 = g1.islandPopulation(0);
        const auto &p2 = g2.islandPopulation(0);
        ASSERT_EQ(p1.size(), p2.size());
        for (std::size_t i = 0; i < p1.size(); ++i) {
            EXPECT_EQ(fingerprintNodes(g1.memberGenome(p1[i])),
                      fingerprintNodes(g2.memberGenome(p2[i])));
            EXPECT_EQ(p1[i].fitness, p2[i].fitness);
            EXPECT_EQ(p1[i].bornAt, p2[i].bornAt);
        }
        EXPECT_EQ(g1.meanFitness(), g2.meanFitness());
    }
}

TEST(GaDeterminism, DifferentSeedsDiverge)
{
    GaParams ga;
    ga.population = 8;
    const GenParams gen = smallGen();
    EvolutionEngine g1(ga, gen, 1);
    EvolutionEngine g2(ga, gen, 2);
    EvolutionEngine::TestRef r1;
    EvolutionEngine::TestRef r2;
    bool diverged = false;
    for (int i = 0; i < 8; ++i) {
        g1.nextBatch({&r1, 1});
        g2.nextBatch({&r2, 1});
        const gp::Test t1(std::vector<Node>(g1.genome(r1).begin(),
                                            g1.genome(r1).end()));
        const gp::Test t2(std::vector<Node>(g2.genome(r2).begin(),
                                            g2.genome(r2).end()));
        diverged |= t1.fingerprint() != t2.fingerprint();
        EvalResult e1{pseudoFitness(t1), pseudoNd(t1)};
        EvalResult e2{pseudoFitness(t2), pseudoNd(t2)};
        g1.reportBatch({&e1, 1});
        g2.reportBatch({&e2, 1});
    }
    EXPECT_TRUE(diverged);
}
