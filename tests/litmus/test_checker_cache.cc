/**
 * @file
 * Differential test for collective checking: a Checker with the verdict
 * cache enabled must return byte-identical results -- kind, message,
 * and cycle -- to an uncached Checker on every witness, including
 * repeat presentations where the cached verdict short-circuits the full
 * analysis. Driven by the full x86-TSO golden litmus suite (forbidden
 * and sequential witness of each entry) plus seeded random witnesses,
 * consistent-by-construction and corrupted, so every CheckResult kind
 * crosses the cache path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "litmus/suites.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/models/registry.hh"
#include "witness_synthesis.hh"

using namespace mcversi;
using namespace mcversi::litmus;

namespace {

/**
 * Check @p ew with the cached checker three times (miss, then two
 * hits for Ok classes) and compare each result byte-for-byte against
 * the uncached verdict.
 */
void
expectByteIdentical(const mc::Checker &cached,
                    const mc::Checker &uncached, mc::ExecWitness &ew,
                    const std::string &label)
{
    const mc::CheckResult want = uncached.check(ew);
    for (int round = 0; round < 3; ++round) {
        const mc::CheckResult got = cached.check(ew);
        ASSERT_EQ(got.kind, want.kind)
            << label << " round " << round << ": cached='"
            << mc::CheckResult::kindName(got.kind) << "' uncached='"
            << mc::CheckResult::kindName(want.kind) << "'";
        ASSERT_EQ(got.message, want.message) << label << " round "
                                             << round;
        ASSERT_EQ(got.cycle, want.cycle) << label << " round " << round;
    }
}

/** Same randomized-witness generator as the checker differential test
 * (stale reads, fabricated values, co forks under corruption). */
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

TEST(CheckerCacheDifferential, GoldenLitmusSuite)
{
    const std::vector<LitmusTest> suite = x86TsoSuite();
    ASSERT_EQ(suite.size(), kX86SuiteSize);

    for (const bool use_tso : {true, false}) {
        auto make_arch = [use_tso]() {
            return use_tso ? mc::makeTso() : mc::makeSc();
        };
        mc::Checker cached(make_arch());
        // Tiny cache: the 76 witnesses force eviction traffic too.
        cached.enableVerdictCache({.capacity = 16, .shards = 2});
        const mc::Checker uncached(make_arch());

        for (const LitmusTest &t : suite) {
            const char *model = use_tso ? " [TSO]" : " [SC]";
            {
                mc::ExecWitness ew = testsupport::forbiddenWitness(t);
                expectByteIdentical(cached, uncached, ew,
                                    t.name + " (forbidden)" + model);
            }
            {
                mc::ExecWitness ew = testsupport::sequentialWitness(t);
                expectByteIdentical(cached, uncached, ew,
                                    t.name + " (sequential)" + model);
            }
        }

        const mc::VerdictCache::Stats &st =
            cached.verdictCache()->stats();
        EXPECT_GT(st.lookups, 0u);
        // The repeat rounds of every Ok witness must actually hit.
        EXPECT_GT(st.hits, 0u);
    }
}

TEST(CheckerCacheDifferential, RandomConsistentWitnesses)
{
    Rng rng(0xd1ff01);
    mc::Checker cached(mc::makeTso());
    cached.enableVerdictCache({.capacity = 256, .shards = 4});
    const mc::Checker uncached(mc::makeTso());
    for (int i = 0; i < 60; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(120));
        const int addrs = 1 + static_cast<int>(rng.below(6));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/false);
        expectByteIdentical(cached, uncached, ew,
                            "consistent witness #" + std::to_string(i));
    }
    // Consistent witnesses are Ok: every repeat round is a cache hit.
    EXPECT_GT(cached.verdictCache()->stats().hits, 0u);
}

TEST(CheckerCacheDifferential, RandomCorruptedWitnesses)
{
    Rng rng(0xd1ff02);
    mc::Checker cached(mc::makeTso());
    cached.enableVerdictCache({.capacity = 256, .shards = 4});
    const mc::Checker uncached(mc::makeTso());
    int violations = 0;
    for (int i = 0; i < 120; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(80));
        const int addrs = 1 + static_cast<int>(rng.below(4));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/true);
        if (!uncached.check(ew).ok())
            ++violations;
        expectByteIdentical(cached, uncached, ew,
                            "corrupted witness #" + std::to_string(i));
    }
    // The corruption rates must exercise the violation (non-Ok, never
    // short-circuited) cache paths.
    EXPECT_GT(violations, 20);
}

TEST(CheckerCacheDifferential, RepeatedIterationsLandInOneClass)
{
    // The collective-checking win condition: re-running one test yields
    // witnesses that only differ by renaming, so after the first full
    // check every repeat is a signature hash plus a cache hit.
    mc::Checker checker(mc::makeTso());
    checker.enableVerdictCache({.capacity = 64, .shards = 1});

    for (int iter = 0; iter < 10; ++iter) {
        // Same interleaving shape, different values every iteration.
        const WriteVal base = 1 + 100 * iter;
        mc::ExecWitness ew;
        ew.recordWrite(0, 0, 0x100, base, kInitVal);
        ew.recordWrite(0, 1, 0x140, base + 1, kInitVal);
        ew.recordRead(1, 0, 0x140, base + 1);
        ew.recordRead(1, 1, 0x100, base);
        EXPECT_TRUE(checker.check(ew).ok());
    }

    const mc::VerdictCache::Stats &st = checker.verdictCache()->stats();
    EXPECT_EQ(st.distinct, 1u);
    EXPECT_EQ(st.hits, 9u);
    EXPECT_EQ(st.misses, 1u);
}

TEST(CheckerCacheDifferential, VerdictsAreKeyedByModel)
{
    // Regression: verdict memoization is keyed by (shape, model), not
    // shape alone. SB's forbidden outcome is Ok under TSO (W->R
    // relaxed), so the TSO checker caches an Ok verdict for it; a
    // lookup of the same witness fingerprinted for RMO must miss --
    // with an unsalted fingerprint it would alias the TSO entry and
    // leak the Ok short-circuit across models.
    const LitmusTest sb = storeBuffering();
    mc::ExecWitness ew = testsupport::forbiddenWitness(sb);

    mc::Checker tso(mc::makeModel("tso"));
    tso.enableVerdictCache({.capacity = 64, .shards = 1});
    ASSERT_TRUE(tso.check(ew).ok());
    ASSERT_EQ(tso.verdictCache()->stats().distinct, 1u);

    // Positive control: re-fingerprinting with the TSO salt hits.
    mc::SignatureBuilder builder;
    builder.setModelSalt(mc::modelSalt(mc::makeModel("tso").name()));
    std::uint8_t verdict = 0xff;
    ASSERT_TRUE(tso.verdictCache()->lookup(builder.compute(ew), verdict));
    EXPECT_EQ(verdict,
              static_cast<std::uint8_t>(mc::CheckResult::Kind::Ok));

    // The same witness under the RMO salt belongs to a different
    // equivalence class and must not see TSO's verdict.
    builder.setModelSalt(mc::modelSalt(mc::makeModel("rmo").name()));
    EXPECT_FALSE(
        tso.verdictCache()->lookup(builder.compute(ew), verdict));

    // Sanity: model salts are non-zero and pairwise distinct, so no
    // two registered models can share a signature space.
    std::vector<std::uint64_t> salts;
    for (const std::string &name : mc::modelNames()) {
        salts.push_back(mc::modelSalt(mc::makeModel(name).name()));
        EXPECT_NE(salts.back(), 0u) << name;
    }
    for (std::size_t i = 0; i < salts.size(); ++i)
        for (std::size_t j = i + 1; j < salts.size(); ++j)
            EXPECT_NE(salts[i], salts[j]);
}

TEST(CheckerCacheDifferential, AnomalousWitnessesBypassTheCache)
{
    mc::Checker checker(mc::makeTso());
    checker.enableVerdictCache({.capacity = 64, .shards = 1});

    // A read of a value nobody wrote is a witness anomaly.
    mc::ExecWitness ew;
    ew.recordWrite(0, 0, 0x100, 1, kInitVal);
    ew.recordRead(1, 0, 0x100, 424242);
    const mc::CheckResult first = checker.check(ew);
    ASSERT_EQ(first.kind, mc::CheckResult::Kind::WitnessAnomaly);
    const mc::CheckResult second = checker.check(ew);
    EXPECT_EQ(second.kind, first.kind);
    EXPECT_EQ(second.message, first.message);

    const mc::VerdictCache::Stats &st = checker.verdictCache()->stats();
    EXPECT_EQ(st.lookups, 0u);
    EXPECT_EQ(st.distinct, 0u);
}
