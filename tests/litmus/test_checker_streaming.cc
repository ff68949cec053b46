/**
 * @file
 * Differential test for streaming (incremental) checking.
 *
 * The StreamingChecker must agree with the post-hoc pipeline --
 * byte-identical CheckResults via Checker::checkStreamed(), and an
 * online detection flag matching the verdict -- over:
 *
 *   - every entry of every model's golden litmus suite (forbidden
 *     outcome and sequential execution), across all registered models
 *     (SC/TSO/PSO/RMO/RC), and
 *   - seeded randomized witnesses, consistent-by-construction and
 *     randomly corrupted, across all registered models;
 *
 * plus streaming-specific semantics: detection latency bounds, the
 * early-stop verdict on detected violations, capacity-preserving reuse
 * of one StreamingChecker across many streams, and the sink-driven
 * recording path (events consumed as the witness records them).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "litmus/suites.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/models/registry.hh"
#include "memconsistency/streaming_checker.hh"
#include "witness_synthesis.hh"

using namespace mcversi;
using namespace mcversi::litmus;

namespace {

/**
 * Stream @p ew through @p sc and require checkStreamed() byte-identical
 * to the post-hoc verdict, with violationDetected() agreeing. One
 * asymmetry is inherent: a read of a value no write ever produces
 * (WitnessAnomaly/UnknownValue post-hoc) is undecidable mid-stream --
 * the producing write could still arrive -- so the online flag may
 * stay false there; checkStreamed() still reports the identical
 * anomaly verdict via its incomplete-stream fallback.
 */
void
expectStreamingParity(mc::ExecWitness &ew, const mc::Checker &checker,
                      mc::StreamingChecker &sc, const std::string &label)
{
    const mc::CheckResult want = checker.check(ew);
    sc.replayRecorded(ew);
    if (want.ok()) {
        EXPECT_FALSE(sc.violationDetected())
            << label << ": spurious online detection ('"
            << mc::CheckResult::kindName(sc.violationKind()) << "')";
    } else if (want.kind != mc::CheckResult::Kind::WitnessAnomaly) {
        EXPECT_TRUE(sc.violationDetected())
            << label << ": online detection missed post-hoc '"
            << mc::CheckResult::kindName(want.kind) << "'\n"
            << want.message;
    }
    const mc::CheckResult got = checker.checkStreamed(ew, sc);
    EXPECT_EQ(got.kind, want.kind) << label;
    EXPECT_EQ(got.message, want.message) << label;
    EXPECT_EQ(got.cycle, want.cycle) << label;

    if (sc.violationDetected()) {
        EXPECT_GT(sc.eventsUntilDetection(), 0u) << label;
        EXPECT_LE(sc.eventsUntilDetection(), ew.numEvents()) << label;
        const mc::CheckResult early = sc.earlyStopResult(ew);
        EXPECT_FALSE(early.ok()) << label;
    }
}

/**
 * Random witness over a simulated interleaved memory; with @p corrupt,
 * a fraction of reads observe stale/fabricated values and a fraction
 * of writes claim a wrong overwritten value (same scheme as the
 * post-hoc differential test).
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

TEST(CheckerStreaming, GoldenSuitesAllModels)
{
    for (const std::string &model : mc::modelNames()) {
        const mc::Checker checker(mc::makeModel(model));
        mc::StreamingChecker sc(mc::modelProfile(model));
        for (const LitmusTest &t : suiteForModel(model)) {
            {
                mc::ExecWitness ew = testsupport::forbiddenWitness(t);
                expectStreamingParity(
                    ew, checker, sc,
                    t.name + " (forbidden) [" + model + "]");
            }
            {
                mc::ExecWitness ew = testsupport::sequentialWitness(t);
                expectStreamingParity(
                    ew, checker, sc,
                    t.name + " (sequential) [" + model + "]");
            }
        }
    }
}

TEST(CheckerStreaming, RandomConsistentWitnessesAllModels)
{
    Rng rng(0x57e401);
    for (int i = 0; i < 40; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(120));
        const int addrs = 1 + static_cast<int>(rng.below(6));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/false);
        for (const std::string &model : mc::modelNames()) {
            const mc::Checker checker(mc::makeModel(model));
            mc::StreamingChecker sc(mc::modelProfile(model));
            expectStreamingParity(ew, checker, sc,
                                  "consistent #" + std::to_string(i) +
                                      " [" + model + "]");
        }
    }
}

TEST(CheckerStreaming, RandomCorruptedWitnessesAllModels)
{
    Rng rng(0x57e402);
    int violations = 0;
    for (int i = 0; i < 80; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(80));
        const int addrs = 1 + static_cast<int>(rng.below(4));
        mc::ExecWitness ew =
            randomWitness(rng, threads, ops, addrs, /*corrupt=*/true);
        for (const std::string &model : mc::modelNames()) {
            const mc::Checker checker(mc::makeModel(model));
            mc::StreamingChecker sc(mc::modelProfile(model));
            expectStreamingParity(ew, checker, sc,
                                  "corrupted #" + std::to_string(i) +
                                      " [" + model + "]");
            if (sc.violationDetected())
                ++violations;
        }
    }
    // The corruption rates must actually exercise detection.
    EXPECT_GT(violations, 50);
}

namespace {

/**
 * Re-record @p src (finalized or not) into @p dst, which may be in
 * windowed ring mode -- the litmus-side equivalent of a workload
 * recording straight into a bounded witness.
 */
void
rerecordInto(const mc::ExecWitness &src, mc::ExecWitness &dst)
{
    const auto &ows = src.overwrites();
    std::size_t oi = 0;
    const auto num = static_cast<mc::EventId>(src.numEvents());
    for (mc::EventId id = 0; id < num; ++id) {
        const mc::Event &e = src.event(id);
        if (e.isInit())
            continue;
        if (e.isWrite()) {
            ASSERT_LT(oi, ows.size());
            ASSERT_EQ(ows[oi].first, id);
            dst.recordWrite(e.iiid.pid, e.iiid.poi, e.addr, e.value,
                            ows[oi].second, e.rmw);
            ++oi;
        } else {
            dst.recordRead(e.iiid.pid, e.iiid.poi, e.addr, e.value,
                           e.rmw);
        }
    }
}

} // namespace

TEST(CheckerStreaming, WindowedFullRingParityAllModels)
{
    // Ring mode with the whole stream retained (window >= stream
    // length): clean streams return the unqualified fast-path Ok, and
    // dirty or incomplete streams replay the ring through the exact
    // post-hoc pipeline -- either way the verdict must be
    // byte-identical to unbounded checking, anomalies included.
    Rng rng(0x57e404);
    for (int i = 0; i < 40; ++i) {
        const int threads = 2 + static_cast<int>(rng.below(4));
        const int ops = 20 + static_cast<int>(rng.below(80));
        const int addrs = 1 + static_cast<int>(rng.below(4));
        const bool corrupt = (i % 2) == 0;
        mc::ExecWitness ew = randomWitness(rng, threads, ops, addrs,
                                           corrupt);
        const std::size_t window = ew.numEvents() + 64;
        for (const std::string &model : mc::modelNames()) {
            const mc::Checker checker(mc::makeModel(model));
            const mc::CheckResult want = checker.check(ew);

            mc::ExecWitness ring;
            ring.setWindow(window);
            mc::StreamingChecker sc(mc::modelProfile(model));
            sc.setWindow(window);
            ring.setEventSink(&sc);
            sc.begin();
            rerecordInto(ew, ring);
            ring.setEventSink(nullptr);
            ASSERT_EQ(ring.droppedEvents(), 0u);

            const mc::CheckResult got = checker.checkStreamed(ring, sc);
            const std::string label = std::string(corrupt ? "corrupt"
                                                          : "clean") +
                                      " #" + std::to_string(i) + " [" +
                                      model + "]";
            EXPECT_EQ(got.kind, want.kind) << label;
            EXPECT_EQ(got.message, want.message) << label;
            EXPECT_EQ(got.cycle, want.cycle) << label;
        }
    }
}

namespace {

/**
 * Init-heavy random witness: three accesses in four go to a word no
 * earlier event touched, so nearly every address is first touched by a
 * read of init or by a write that overwrites init, and the streaming
 * checker creates an init node per address. Some writes are
 * store-forwarded (the same thread's younger read of the value is
 * recorded first), and some accesses are RMWs, on fresh words too.
 * With @p corrupt, writes may claim to overwrite init on a word that
 * was already written (a co fork on init) and reads may return a stale
 * value of their word.
 */
mc::ExecWitness
initHeavyWitness(Rng &rng, int threads, int ops, bool corrupt)
{
    mc::ExecWitness ew;
    std::vector<std::vector<WriteVal>> history; // Values per word.
    std::vector<std::int32_t> poi(static_cast<std::size_t>(threads), 0);
    WriteVal next = 1;
    for (int i = 0; i < ops; ++i) {
        const auto pid = static_cast<Pid>(
            rng.below(static_cast<std::uint64_t>(threads)));
        std::int32_t &p = poi[static_cast<std::size_t>(pid)];
        std::size_t ai = history.size();
        if (history.empty() || rng.below(4) != 0) {
            history.push_back({kInitVal});
        } else {
            ai -= 1 + rng.below(std::min<std::size_t>(history.size(), 4));
        }
        std::vector<WriteVal> &h = history[ai];
        const Addr addr = 0x4000 + 8 * static_cast<Addr>(ai);
        const auto read_val = [&]() {
            if (corrupt && rng.below(10) == 0)
                return h[rng.below(h.size())];
            return h.back();
        };
        const auto overwritten_val = [&]() {
            if (corrupt && rng.below(10) == 0)
                return kInitVal;
            return h.back();
        };
        const std::uint64_t roll = rng.below(20);
        if (roll < 7) {
            ew.recordRead(pid, p++, addr, read_val());
        } else if (roll < 12) {
            const WriteVal v = next++;
            ew.recordWrite(pid, p++, addr, v, overwritten_val());
            h.push_back(v);
        } else if (roll < 16) {
            // Store forwarding: the read at poi + 1 returns the write's
            // value before the write (poi) serializes.
            const WriteVal v = next++;
            ew.recordRead(pid, p + 1, addr, v);
            ew.recordWrite(pid, p, addr, v, overwritten_val());
            h.push_back(v);
            p += 2;
        } else {
            const WriteVal v = next++;
            ew.recordRead(pid, p, addr, read_val(), /*rmw=*/true);
            ew.recordWrite(pid, p, addr, v, overwritten_val(),
                           /*rmw=*/true);
            h.push_back(v);
            ++p;
        }
    }
    return ew;
}

/**
 * Unbounded parity (expectStreamingParity), then the same stream
 * recorded into a ring that keeps all of it while the checker retires
 * behind a window that is either the whole stream or a handful of
 * events: checkStreamed() must match post-hoc checking byte for byte
 * either way.
 */
void
expectInitHeavyParity(mc::ExecWitness &ew, const std::string &model,
                      const std::string &label)
{
    const mc::Checker checker(mc::makeModel(model));
    mc::StreamingChecker sc(mc::modelProfile(model));
    expectStreamingParity(ew, checker, sc, label + " unbounded");
    const mc::CheckResult want = checker.check(ew);

    const std::size_t ring = ew.numEvents() + 64;
    for (const std::size_t window : {ring, std::size_t{8}}) {
        mc::ExecWitness rw;
        rw.setWindow(ring);
        mc::StreamingChecker wsc(mc::modelProfile(model));
        wsc.setWindow(window);
        rw.setEventSink(&wsc);
        wsc.begin();
        rerecordInto(ew, rw);
        rw.setEventSink(nullptr);
        ASSERT_EQ(rw.droppedEvents(), 0u);
        const mc::CheckResult got = checker.checkStreamed(rw, wsc);
        const std::string wl = label + " window " + std::to_string(window);
        EXPECT_EQ(got.kind, want.kind) << wl;
        EXPECT_EQ(got.message, want.message) << wl;
        EXPECT_EQ(got.cycle, want.cycle) << wl;
    }
}

} // namespace

TEST(CheckerStreaming, InitHeavyWitnessesAllModels)
{
    Rng rng(0x57e405);
    int clean = 0;
    int violations = 0;
    for (int i = 0; i < 40; ++i) {
        const bool corrupt = (i % 2) == 1;
        const int threads = 2 + static_cast<int>(rng.below(3));
        const int ops = 30 + static_cast<int>(rng.below(90));
        mc::ExecWitness ew = initHeavyWitness(rng, threads, ops, corrupt);
        for (const std::string &model : mc::modelNames()) {
            mc::ExecWitness copy = ew;
            expectInitHeavyParity(copy, model,
                                  std::string(corrupt ? "corrupt" : "clean") +
                                      " #" + std::to_string(i) + " [" +
                                      model + "]");
            const mc::Checker checker(mc::makeModel(model));
            (checker.check(copy).ok() ? clean : violations) += 1;
        }
        // Most words really are first touched by a read of init or a
        // write that overwrites it.
        EXPECT_GT(ew.numAddrs() * 2, static_cast<std::size_t>(ops));
    }
    // Both halves must be exercised, or the parity proves little.
    EXPECT_GT(clean, 50);
    EXPECT_GT(violations, 50);
}

TEST(CheckerStreaming, CoForkOnInitNamesTheInitEvent)
{
    // Two writes both claim to overwrite the initial value of a word:
    // the streamed verdict, post-hoc checking and the early-stop
    // rendering all name the init event.
    constexpr Addr kX = 0x100;
    for (const std::string &model : mc::modelNames()) {
        mc::ExecWitness ew;
        ew.recordRead(0, 0, kX, kInitVal);
        ew.recordWrite(0, 1, kX, 1, kInitVal);
        ew.recordWrite(1, 0, kX, 2, kInitVal);

        mc::StreamingChecker sc(mc::modelProfile(model));
        sc.replayRecorded(ew);
        ASSERT_TRUE(sc.violationDetected()) << model;
        EXPECT_EQ(sc.violationKind(), mc::CheckResult::Kind::WitnessAnomaly)
            << model;
        EXPECT_EQ(sc.eventsUntilDetection(), 3u) << model;
        EXPECT_EQ(sc.earlyStopResult(ew).message,
                  "co fork: P1:0 W 0x100 v=2 and P0:1 W 0x100 v=1 both "
                  "overwrite Init W 0x100 v=0")
            << model;

        expectInitHeavyParity(ew, model, "fork on init [" + model + "]");
        EXPECT_EQ(mc::Checker(mc::makeModel(model)).check(ew).message,
                  "co fork: P1:0 W 0x100 v=2 and P0:1 W 0x100 v=1 both "
                  "overwrite Init W 0x100 v=0")
            << model;
    }
}

TEST(CheckerStreaming, WriteOfTheValueTableEmptyKeyResolves)
{
    // kNoAddr is the value table's empty key. A write of that value
    // must still bind its readers (one of them store-forwarded ahead of
    // it) and its co successor; a stale read of it afterwards closes a
    // coherence cycle, streamed as post-hoc.
    constexpr Addr kX = 0x100;
    constexpr WriteVal kTop = kNoAddr;
    for (const std::string &model : mc::modelNames()) {
        mc::ExecWitness clean;
        clean.recordRead(1, 0, kX, kTop);
        clean.recordWrite(0, 0, kX, kTop, kInitVal);
        clean.recordWrite(0, 1, kX, 7, kTop);
        clean.recordRead(1, 1, kX, 7);
        expectInitHeavyParity(clean, model, "top value [" + model + "]");
        EXPECT_TRUE(mc::Checker(mc::makeModel(model)).check(clean).ok())
            << model;

        mc::ExecWitness stale;
        stale.recordWrite(0, 0, kX, kTop, kInitVal);
        stale.recordWrite(0, 1, kX, 7, kTop);
        stale.recordRead(1, 0, kX, 7);
        stale.recordRead(1, 1, kX, kTop);
        mc::StreamingChecker sc(mc::modelProfile(model));
        sc.replayRecorded(stale);
        EXPECT_EQ(sc.violationKind(),
                  mc::CheckResult::Kind::UniprocViolation)
            << model;
        expectInitHeavyParity(stale, model,
                              "stale top value [" + model + "]");
    }
}

TEST(CheckerStreaming, OneCheckerReusedAcrossStreams)
{
    // A single StreamingChecker cycled over witnesses of different
    // shapes (the campaign steady state) must give verdicts identical
    // to a fresh checker each time.
    Rng rng(0x57e403);
    const mc::Checker checker(mc::makeTso());
    mc::StreamingChecker reused(mc::modelProfile("tso"));
    for (int i = 0; i < 30; ++i) {
        const bool corrupt = (i % 3) == 0;
        mc::ExecWitness ew = randomWitness(
            rng, 2 + i % 4, 16 + 7 * i, 1 + i % 5, corrupt);
        mc::StreamingChecker fresh(mc::modelProfile("tso"));
        fresh.replayRecorded(ew);
        reused.replayRecorded(ew);
        EXPECT_EQ(reused.violationDetected(), fresh.violationDetected())
            << "stream #" << i;
        EXPECT_EQ(reused.violationKind(), fresh.violationKind())
            << "stream #" << i;
        EXPECT_EQ(reused.eventsUntilDetection(),
                  fresh.eventsUntilDetection())
            << "stream #" << i;
    }
}

TEST(CheckerStreaming, SinkDrivenRecordingMatchesReplay)
{
    // Feeding events through the witness sink while recording (the
    // production path) must behave exactly like replayRecorded().
    mc::StreamingChecker sink_sc(mc::modelProfile("tso"));
    mc::StreamingChecker replay_sc(mc::modelProfile("tso"));

    mc::ExecWitness ew;
    ew.setEventSink(&sink_sc);
    sink_sc.begin();
    constexpr Addr kX = 0x100;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kX, 2, 1);
    ew.recordRead(1, 0, kX, 2);
    ew.recordRead(1, 1, kX, 1); // CoRR: stale read closes the cycle.
    ew.setEventSink(nullptr);

    EXPECT_TRUE(sink_sc.violationDetected());
    EXPECT_EQ(sink_sc.violationKind(),
              mc::CheckResult::Kind::UniprocViolation);
    EXPECT_EQ(sink_sc.eventsUntilDetection(), 4u);

    replay_sc.replayRecorded(ew);
    EXPECT_EQ(replay_sc.violationKind(), sink_sc.violationKind());
    EXPECT_EQ(replay_sc.eventsUntilDetection(),
              sink_sc.eventsUntilDetection());
}

TEST(CheckerStreaming, ThrowOnViolationStopsAtViolatingEvent)
{
    mc::StreamingChecker sc(mc::modelProfile("tso"));
    sc.setThrowOnViolation(true);
    mc::ExecWitness ew;
    ew.setEventSink(&sc);
    sc.begin();
    constexpr Addr kX = 0x100;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kX, 2, 1);
    ew.recordRead(1, 0, kX, 2);
    EXPECT_THROW(ew.recordRead(1, 1, kX, 1), mc::StreamingViolation);
    ew.setEventSink(nullptr);

    EXPECT_TRUE(sc.violationDetected());
    EXPECT_EQ(sc.eventsUntilDetection(), 4u);

    // The stopped prefix cannot be finalized; the early-stop verdict
    // renders the violation from streaming state alone.
    const mc::CheckResult early = sc.earlyStopResult(ew);
    EXPECT_EQ(early.kind, mc::CheckResult::Kind::UniprocViolation);
    EXPECT_FALSE(early.message.empty());
    EXPECT_FALSE(early.cycle.empty());
}

TEST(CheckerStreaming, StreamedVerdictCacheStaysModelSalted)
{
    // checkStreamed() composes with the collective-checking verdict
    // cache exactly like check(): an Ok hit short-circuits, and
    // verdicts stay per-model.
    mc::Checker cached(mc::makeTso());
    cached.enableVerdictCache({.capacity = 64});
    mc::StreamingChecker sc(mc::modelProfile("tso"));

    constexpr Addr kX = 0x100;
    mc::ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(1, 0, kX, 1);

    sc.replayRecorded(ew);
    EXPECT_TRUE(cached.checkStreamed(ew, sc).ok());
    const auto &stats = cached.verdictCache()->stats();
    const std::uint64_t misses = stats.misses;
    sc.replayRecorded(ew);
    EXPECT_TRUE(cached.checkStreamed(ew, sc).ok());
    EXPECT_EQ(stats.misses, misses);
    EXPECT_GT(stats.hits, 0u);
}
