/**
 * @file
 * EvolutionEngine tests: the serial GA's selection and replacement,
 * island/migration determinism, the emitted-test golden,
 * batch-contract enforcement, and slab-pool steady-state behavior.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "common/strict.hh"
#include "gp/evolution.hh"

using namespace mcversi;
using namespace mcversi::gp;

namespace {

GaParams
smallGa()
{
    GaParams ga;
    ga.population = 8;
    return ga;
}

GenParams
smallGen()
{
    GenParams gen;
    gen.testSize = 64;
    gen.numThreads = 4;
    gen.memSize = 1024;
    return gen;
}

/** Deterministic pseudo-fitness derived from the genome content. */
double
pseudoFitness(std::uint64_t fingerprint)
{
    return static_cast<double>(fingerprint % 1000) / 1000.0;
}

/** NdInfo derived deterministically from the genome content. */
NdInfo
pseudoNd(std::span<const Node> genes)
{
    NdInfo nd;
    nd.ndt = 1.0 + pseudoFitness(fingerprintNodes(genes));
    for (const Node &node : genes)
        if (node.op.isMem() && (node.op.addr / 16) % 2 == 0)
            nd.fitaddrs.insert(node.op.addr);
    return nd;
}

/**
 * Drive @p engine for @p evals evaluations in batches of @p batch,
 * reporting pseudo-results; returns the emitted fingerprints in order.
 */
std::vector<std::uint64_t>
drive(EvolutionEngine &engine, std::size_t evals, std::size_t batch)
{
    std::vector<std::uint64_t> fingerprints;
    std::vector<EvolutionEngine::TestRef> refs(batch);
    std::vector<EvalResult> results(batch);
    while (fingerprints.size() < evals) {
        const std::size_t n =
            std::min(batch, evals - fingerprints.size());
        engine.nextBatch({refs.data(), n});
        for (std::size_t i = 0; i < n; ++i) {
            const auto genes = engine.genome(refs[i]);
            const std::uint64_t fp = fingerprintNodes(genes);
            fingerprints.push_back(fp);
            results[i].fitness = pseudoFitness(fp);
            results[i].nd = pseudoNd(genes);
        }
        engine.reportBatch({results.data(), n});
    }
    return fingerprints;
}

} // namespace

// The paper's serial steady-state GA is the engine's default
// configuration: one island, one test per batch.

TEST(Ga, DeleteOldestReplacement)
{
    EvolutionEngine engine(smallGa(), smallGen(), 2);
    EvolutionEngine::TestRef ref;
    std::vector<std::uint64_t> initial;
    for (int i = 0; i < 8; ++i) {
        engine.nextBatch({&ref, 1});
        initial.push_back(fingerprintNodes(engine.genome(ref)));
        EvalResult result;
        result.fitness = 1.0;
        engine.reportBatch({&result, 1});
    }
    // One more evaluation must evict the oldest member (born first).
    engine.nextBatch({&ref, 1});
    EvalResult result;
    engine.reportBatch({&result, 1});

    const auto &pop = engine.islandPopulation(0);
    ASSERT_EQ(pop.size(), 8u);
    bool oldest_present = false;
    bool second_present = false;
    for (const PoolIndividual &member : pop) {
        const std::uint64_t fp =
            fingerprintNodes(engine.memberGenome(member));
        oldest_present |= fp == initial[0];
        second_present |= fp == initial[1];
        EXPECT_NE(member.bornAt, 0u);
    }
    EXPECT_FALSE(oldest_present);
    EXPECT_TRUE(second_present);
}

TEST(Ga, TournamentPrefersFitter)
{
    // Clone-only reproduction (no crossover, no mutation) makes every
    // child an exact copy of its tournament winner. One batch selects
    // against a fixed population in which one member out of eight is
    // fitter: a binary tournament picks it with probability
    // 1 - (7/8)^2 ~ 0.23, well above the uniform 1/8.
    GaParams ga = smallGa();
    ga.pCrossover = 0.0;
    ga.pMut = 0.0;
    EvolutionEngine engine(ga, smallGen(), 3);
    EvolutionEngine::TestRef ref;
    std::uint64_t fittest = 0;
    for (int i = 0; i < 8; ++i) {
        engine.nextBatch({&ref, 1});
        EvalResult result;
        result.fitness = i == 5 ? 100.0 : 0.0;
        if (i == 5)
            fittest = fingerprintNodes(engine.genome(ref));
        engine.reportBatch({&result, 1});
    }

    std::vector<EvolutionEngine::TestRef> refs(400);
    engine.nextBatch(refs);
    std::size_t clones_of_fittest = 0;
    for (const EvolutionEngine::TestRef &child : refs)
        clones_of_fittest +=
            fingerprintNodes(engine.genome(child)) == fittest ? 1 : 0;
    std::vector<EvalResult> results(refs.size());
    engine.reportBatch(results);
    EXPECT_GT(clones_of_fittest, refs.size() / 8);
}

TEST(Ga, MeanNdtTracksReports)
{
    EvolutionEngine engine(smallGa(), smallGen(), 4);
    EvolutionEngine::TestRef ref;
    for (int i = 0; i < 8; ++i) {
        engine.nextBatch({&ref, 1});
        EvalResult result;
        result.fitness = 0.1;
        result.nd.ndt = 2.0;
        engine.reportBatch({&result, 1});
    }
    EXPECT_DOUBLE_EQ(engine.meanNdt(), 2.0);
    EXPECT_DOUBLE_EQ(engine.meanFitness(), 0.1);
}

TEST(Ga, InitialPopulationIsRandomThenSteadyState)
{
    EvolutionEngine engine(smallGa(), smallGen(), 1);
    EvolutionEngine::TestRef ref;
    for (int i = 0; i < 13; ++i) {
        engine.nextBatch({&ref, 1});
        EXPECT_EQ(engine.genome(ref).size(), smallGen().testSize);
        EvalResult result;
        result.fitness = i < 8 ? 0.1 : 0.2;
        engine.reportBatch({&result, 1});
        // The population fills up to its size, then stays fixed.
        EXPECT_EQ(engine.islandPopulation(0).size(),
                  std::min<std::size_t>(i + 1, 8));
    }
    EXPECT_EQ(engine.evaluated(), 13u);
}

TEST(Ga, SinglePointModeRuns)
{
    EvolutionEngine engine(smallGa(), smallGen(), 5,
                           XoMode::SinglePoint);
    EvolutionEngine::TestRef ref;
    for (int i = 0; i < 15; ++i) {
        engine.nextBatch({&ref, 1});
        EXPECT_EQ(engine.genome(ref).size(), smallGen().testSize);
        EvalResult result;
        result.fitness = 0.1;
        engine.reportBatch({&result, 1});
    }
    EXPECT_EQ(engine.islandPopulation(0).size(), 8u);
    EXPECT_EQ(engine.evaluated(), 15u);
}

TEST(Ga, DeterministicWithSeed)
{
    EvolutionEngine a(smallGa(), smallGen(), 7);
    EvolutionEngine b(smallGa(), smallGen(), 7);
    EXPECT_EQ(drive(a, 12, 1), drive(b, 12, 1));
}

TEST(Evolution, BatchSizeDoesNotChangeInitialPopulationPhase)
{
    // During the initial random phase every emitted test depends only
    // on its island's RNG stream, so batch sizes must not change them.
    EvolutionParams evo;
    evo.islands = 2;
    evo.migrationInterval = 0;
    EvolutionEngine a(smallGa(), smallGen(), 5, XoMode::Selective, evo);
    EvolutionEngine b(smallGa(), smallGen(), 5, XoMode::Selective, evo);
    // 2 islands x population 8 = 16 initial randoms.
    const auto fa = drive(a, 16, 4);
    const auto fb = drive(b, 16, 8);
    EXPECT_EQ(fa, fb);
}

TEST(Evolution, SeedDeterminismAcrossIslandsAndMigration)
{
    EvolutionParams evo;
    evo.islands = 4;
    evo.migrationInterval = 16;
    EvolutionEngine a(smallGa(), smallGen(), 99, XoMode::Selective, evo);
    EvolutionEngine b(smallGa(), smallGen(), 99, XoMode::Selective, evo);

    EXPECT_EQ(drive(a, 96, 8), drive(b, 96, 8));

    // Migration fired and its order is seed-deterministic.
    ASSERT_GT(a.migrations(), 0u);
    ASSERT_EQ(a.migrations(), b.migrations());
    ASSERT_EQ(a.migrationLog().size(), b.migrationLog().size());
    for (std::size_t i = 0; i < a.migrationLog().size(); ++i) {
        const MigrationRecord &ra = a.migrationLog()[i];
        const MigrationRecord &rb = b.migrationLog()[i];
        EXPECT_EQ(ra.atEvaluation, rb.atEvaluation);
        EXPECT_EQ(ra.fromIsland, rb.fromIsland);
        EXPECT_EQ(ra.toIsland, rb.toIsland);
        EXPECT_EQ(ra.genomeFingerprint, rb.genomeFingerprint);
        // Ring topology: i -> (i + 1) % N.
        EXPECT_EQ(rb.toIsland, (rb.fromIsland + 1) % 4);
    }

    // Final island populations are identical too.
    for (std::size_t isl = 0; isl < 4; ++isl) {
        const auto &pa = a.islandPopulation(isl);
        const auto &pb = b.islandPopulation(isl);
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            EXPECT_EQ(fingerprintNodes(a.memberGenome(pa[i])),
                      fingerprintNodes(b.memberGenome(pb[i])));
        }
    }
}

TEST(Evolution, MigrationDeliversTheDonorBest)
{
    EvolutionParams evo;
    evo.islands = 2;
    evo.migrationInterval = 16;
    EvolutionEngine engine(smallGa(), smallGen(), 3, XoMode::Selective,
                           evo);
    drive(engine, 16, 8); // Exactly one migration round.
    ASSERT_EQ(engine.migrations(), 2u);
    // Each migrated genome must now be present in the recipient island.
    for (const MigrationRecord &record : engine.migrationLog()) {
        bool found = false;
        for (const PoolIndividual &member :
             engine.islandPopulation(record.toIsland)) {
            found |= fingerprintNodes(engine.memberGenome(member)) ==
                     record.genomeFingerprint;
        }
        EXPECT_TRUE(found)
            << "migrant from island " << record.fromIsland
            << " missing in island " << record.toIsland;
    }
}

TEST(Evolution, DifferentSeedsDiverge)
{
    EvolutionParams evo;
    evo.islands = 4;
    EvolutionEngine a(smallGa(), smallGen(), 1, XoMode::Selective, evo);
    EvolutionEngine b(smallGa(), smallGen(), 2, XoMode::Selective, evo);
    EXPECT_NE(drive(a, 32, 8), drive(b, 32, 8));
}

TEST(Evolution, SlabPoolStopsGrowingInSteadyState)
{
    EvolutionParams evo;
    evo.islands = 4;
    evo.migrationInterval = 16;
    EvolutionEngine engine(smallGa(), smallGen(), 11, XoMode::Selective,
                           evo);
    drive(engine, 128, 8); // Warm up: populations full, migrations ran.
    const std::size_t slabs = engine.pool().slabCount();
    const std::size_t live = engine.pool().liveGenomes();
    drive(engine, 256, 8);
    EXPECT_EQ(engine.pool().slabCount(), slabs)
        << "steady-state evolution must not allocate genome slabs";
    EXPECT_EQ(engine.pool().liveGenomes(), live)
        << "genome slots must be recycled, not leaked";
}

TEST(Evolution, BatchContractViolationsThrowInStrictBuilds)
{
    if (!strictApiChecks())
        GTEST_SKIP() << "release build: contract checks are relaxed";

    EvolutionEngine engine(smallGa(), smallGen(), 1);
    std::array<EvolutionEngine::TestRef, 2> refs;
    engine.nextBatch({refs.data(), refs.size()});
    // Second nextBatch without a report: misuse.
    EXPECT_THROW(engine.nextBatch({refs.data(), refs.size()}),
                 std::logic_error);
    // Mismatched report size: misuse.
    std::array<EvalResult, 1> one;
    EXPECT_THROW(engine.reportBatch({one.data(), one.size()}),
                 std::logic_error);
    // Correct report succeeds.
    std::array<EvalResult, 2> two;
    EXPECT_NO_THROW(engine.reportBatch({two.data(), two.size()}));
}

TEST(Evolution, AbandonedBatchRecyclesSlotsInReleaseBuilds)
{
    if (strictApiChecks())
        GTEST_SKIP() << "strict build: abandoning a batch throws "
                        "instead of clamping";

    EvolutionEngine engine(smallGa(), smallGen(), 4);
    drive(engine, 32, 8); // Warm up past the initial population.
    const std::size_t live = engine.pool().liveGenomes();
    const std::size_t slabs = engine.pool().slabCount();
    std::vector<EvolutionEngine::TestRef> refs(8);
    for (int i = 0; i < 50; ++i)
        engine.nextBatch({refs.data(), refs.size()}); // Abandon each.
    // Tolerant release behavior must recycle the abandoned slots.
    engine.nextBatch({refs.data(), refs.size()});
    std::vector<EvalResult> results(8);
    engine.reportBatch({results.data(), results.size()});
    EXPECT_EQ(engine.pool().liveGenomes(), live);
    EXPECT_EQ(engine.pool().slabCount(), slabs);
}

/**
 * Golden: the first 64 tests emitted for seed 2026 by each of three
 * engine configurations, concatenated in this order:
 *  - 4 islands, batch 8, migration every 32 evaluations, Selective;
 *  - 1 island, batch 1, Selective (the serial steady-state GA);
 *  - 1 island, batch 1, SinglePoint (McVerSi-Std.XO's serial GA).
 * All use population 8 per island and 64-gene tests over 4 threads and
 * 1KB test memory. Pins the engine's full decision sequence --
 * per-island RNG streams, round-robin island schedule, selection,
 * crossover and mutation -- to a fixed artifact. After an intentional
 * engine change, regenerate by running this binary with
 * MCVERSI_UPDATE_GOLDEN=1 (rewrites evolution_golden_fingerprints.inc
 * in the source tree) and rebuilding.
 */
TEST(Evolution, GoldenFirst64EmittedTests)
{
    struct Config
    {
        std::size_t islands;
        std::size_t batch;
        XoMode mode;
    };
    const std::array<Config, 3> configs = {{
        {4, 8, XoMode::Selective},
        {1, 1, XoMode::Selective},
        {1, 1, XoMode::SinglePoint},
    }};
    std::vector<std::uint64_t> got;
    for (const Config &config : configs) {
        EvolutionParams evo;
        evo.islands = config.islands;
        evo.migrationInterval = 32;
        EvolutionEngine engine(smallGa(), smallGen(), 2026, config.mode,
                               evo);
        const std::vector<std::uint64_t> emitted =
            drive(engine, 64, config.batch);
        got.insert(got.end(), emitted.begin(), emitted.end());
    }

    if (std::getenv("MCVERSI_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(MCVERSI_EVOLUTION_GOLDEN_PATH,
                          std::ios::binary);
        for (std::size_t i = 0; i < got.size(); ++i) {
            out << "    " << got[i] << "ull,"
                << (i % 2 == 1 ? "\n" : "");
        }
        ASSERT_TRUE(out.good())
            << "failed to write " << MCVERSI_EVOLUTION_GOLDEN_PATH;
        GTEST_SKIP() << "golden regenerated at "
                     << MCVERSI_EVOLUTION_GOLDEN_PATH
                     << "; rebuild to compile it in";
    }

    const std::array<std::uint64_t, 3 * 64> expected = {
#include "evolution_golden_fingerprints.inc"
    };
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "config " << i / 64 << ", emitted test " << i % 64;
    }
}
