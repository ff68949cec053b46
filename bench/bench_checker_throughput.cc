/**
 * @file
 * Witness/checker hot-path throughput bench.
 *
 * The GA loop's premise is that checking every candidate execution is
 * cheap (§IV): each iteration records a witness, resolves its conflict
 * orders, and runs the axiomatic checker. This bench isolates exactly
 * that loop -- replay a pre-generated record trace into one reused
 * ExecWitness, finalize, check with one reused Checker -- and reports
 * tests/sec and check-µs/event per scenario, plus an aggregate.
 *
 * Traces are SC-consistent by construction (reads observe the current
 * value of a simulated interleaved memory), so every check exercises
 * the full Ok path: both cycle graphs are built and fully searched,
 * which is the common case inside a verification campaign. A fraction
 * of store records is deferred past younger same-thread records to
 * model stores serializing after later loads retired (the out-of-order
 * recording case the witness must handle).
 *
 * A repeated-seed scenario exercises collective checking: a fixed pool
 * of pre-generated traces is cycled many times -- the shape of a
 * campaign re-running its fittest tests -- once against a plain checker
 * and once against a checker with the verdict cache enabled. Timing
 * brackets only the check() call (the phase the cache can skip), and
 * before any measurement every pool trace is checked uncached, as a
 * cache miss, and as a cache hit; any divergence in kind, message, or
 * cycle aborts the bench with exit code 2.
 *
 * Schema 3 adds a streaming section comparing the post-hoc pipeline
 * (replay + finalize + full check) against the StreamingChecker
 * (events consumed by the recording sink + finalize + checkStreamed,
 * which skips the cycle analysis on a clean stream), over the
 * consistent scenarios plus a large-32k shape, and over corrupted
 * variants where a stale read closes a two-event po-loc/fr cycle
 * mid-trace: there the streaming side stops recording at the violating
 * event (the simulation early stop) while post-hoc pays the full trace
 * and check. Timed cells cover the paper-sized shape and up (on a
 * ~150-event trace both sides are dominated by fixed per-stream
 * costs, so the ratio measures constant factors, not throughput).
 * Before any timing, every (scenario x model) pair -- clean
 * and corrupted -- is gated for verdict divergence between
 * checkStreamed and check across all registered models; any mismatch
 * aborts with exit code 2.
 *
 * Schema 4 adds bounded-window soak coverage. A second divergence gate
 * re-streams every scenario (clean and corrupted) into a ring-buffer
 * witness large enough to retain the whole stream and requires the
 * windowed verdict byte-identical to unbounded checking. A "soak"
 * section then streams generated-on-the-fly traces (never materialized,
 * so the trace itself cannot dominate memory) through a fixed window:
 * one large-8k-sized cell and one >= 1M-event soak cell, identical in
 * everything but length. Each cell records check-µs/event, the
 * checker's live-node high-water mark, and the process peak RSS (VmHWM)
 * sampled after the cell -- CI gates the soak cell's peak RSS and
 * per-event cost against the large-8k cell's (O(window) memory, flat
 * per-event cost).
 *
 * Output: a JSON document (schema below) written to BENCH_checker.json
 * (override with MCVERSI_BENCH_JSON). MCVERSI_BENCH_SCALE scales the
 * per-scenario repeat budget (never the soak event counts).
 *
 *   {
 *     "bench": "checker_throughput", "schema": 4,
 *     "scenarios": [{"name", "threads", "opsPerThread", "addrs",
 *                    "events", "repeats", "seconds",
 *                    "testsPerSec", "checkUsPerEvent"}, ...],
 *     "aggregate": {"testsPerSec", "checkUsPerEvent"},
 *     "repeatedSeed": {"traces", "cycles", "repeats", "events",
 *                      "distinctInterleavings", "hitRate",
 *                      "uncached": {"seconds", "testsPerSec"},
 *                      "cached": {"seconds", "testsPerSec"},
 *                      "speedupTestsPerSec"},
 *     "streaming": {
 *       "models": [...], "divergenceChecks", "windowedChecks",
 *       "divergence",
 *       "consistent": [{"name", "events", "repeats",
 *                       "posthoc": {"seconds", "testsPerSec",
 *                                   "usPerEvent"},
 *                       "streaming": {"seconds", "testsPerSec",
 *                                     "usPerEvent"},
 *                       "slowdown"}, ...],
 *       "violation": [{"name", "events", "detectionEvents", "repeats",
 *                      "posthoc": {"seconds", "testsPerSec"},
 *                      "streaming": {"seconds", "testsPerSec"},
 *                      "speedupTestsPerSec"}, ...]},
 *     "soak": {"window",
 *              "cells": [{"name", "threads", "addrs", "events",
 *                         "passes", "seconds", "usPerEvent",
 *                         "liveNodeHighWater", "peakRssKb"}, ...]}
 *   }
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/models/registry.hh"
#include "memconsistency/streaming_checker.hh"

using namespace mcversi;

namespace {

/** One record-trace entry, replayed into the witness each repeat. */
struct RecordOp
{
    Pid pid = 0;
    std::int32_t poi = 0;
    Addr addr = 0;
    WriteVal value = kInitVal;
    WriteVal overwritten = kInitVal;
    bool isWrite = false;
    bool rmw = false;
};

struct Scenario
{
    const char *name;
    int threads;
    int opsPerThread;
    int addrs;
    std::uint64_t seed;
};

/**
 * Generate an SC-consistent record trace: interleave threads over a
 * simulated memory where every store writes a globally unique value and
 * reports the value it overwrote, exactly like the simulator's
 * recording hooks.
 */
std::vector<RecordOp>
generateTrace(const Scenario &sc, Rng &rng)
{
    std::vector<RecordOp> trace;
    trace.reserve(static_cast<std::size_t>(sc.threads) *
                  static_cast<std::size_t>(sc.opsPerThread) * 2);

    std::vector<WriteVal> memory(static_cast<std::size_t>(sc.addrs),
                                 kInitVal);
    std::vector<std::int32_t> nextPoi(
        static_cast<std::size_t>(sc.threads), 0);
    std::vector<int> remaining(static_cast<std::size_t>(sc.threads),
                               sc.opsPerThread);
    WriteVal nextVal = 1;
    int live = sc.threads;

    while (live > 0) {
        const Pid pid =
            static_cast<Pid>(rng.below(static_cast<std::uint64_t>(
                sc.threads)));
        auto &left = remaining[static_cast<std::size_t>(pid)];
        if (left == 0)
            continue;
        --left;
        if (left == 0)
            --live;

        const Addr addr = 64 * rng.below(static_cast<std::uint64_t>(
                                   sc.addrs));
        const std::int32_t poi =
            nextPoi[static_cast<std::size_t>(pid)]++;
        WriteVal &cell = memory[static_cast<std::size_t>(addr / 64)];

        const double p = rng.uniform();
        if (p < 0.50) { // Load.
            trace.push_back({pid, poi, addr, cell, kInitVal, false,
                             false});
        } else if (p < 0.85) { // Store.
            const WriteVal v = nextVal++;
            trace.push_back({pid, poi, addr, v, cell, true, false});
            cell = v;
        } else { // Atomic RMW: read and write at one point in time.
            const WriteVal v = nextVal++;
            trace.push_back({pid, poi, addr, cell, kInitVal, false,
                             true});
            trace.push_back({pid, poi, addr, v, cell, true, true});
            cell = v;
        }
    }

    // Defer a fraction of stores a few records past their execution
    // point: stores are recorded when they serialize, which can be
    // after younger loads of the same thread retired. Decide first,
    // then move, so the record shifted into a vacated slot still gets
    // its own deferral roll.
    std::vector<std::pair<std::size_t, std::size_t>> moves;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].isWrite && rng.boolWithProb(0.3))
            moves.emplace_back(i, 1 + rng.below(8));
    }
    for (const auto &[i, dist] : moves) {
        const std::size_t to = std::min(i + dist, trace.size() - 1);
        const RecordOp op = trace[i];
        trace.erase(trace.begin() + static_cast<std::ptrdiff_t>(i));
        trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(to),
                     op);
    }
    return trace;
}

/** Replay one trace into @p ew (reused across repeats). */
void
replay(const std::vector<RecordOp> &trace, mc::ExecWitness &ew)
{
    ew.reset();
    for (const RecordOp &op : trace) {
        if (op.isWrite)
            ew.recordWrite(op.pid, op.poi, op.addr, op.value,
                           op.overwritten, op.rmw);
        else
            ew.recordRead(op.pid, op.poi, op.addr, op.value, op.rmw);
    }
}

struct ScenarioResult
{
    const Scenario *scenario = nullptr;
    std::size_t events = 0;
    int repeats = 0;
    double seconds = 0.0;

    double
    testsPerSec() const
    {
        return seconds > 0.0 ? repeats / seconds : 0.0;
    }

    double
    usPerEvent() const
    {
        const double total =
            static_cast<double>(events) * repeats;
        return total > 0.0 ? seconds * 1e6 / total : 0.0;
    }
};

ScenarioResult
runScenario(const Scenario &sc, const mc::Checker &checker, int repeats)
{
    Rng rng(sc.seed);
    const std::vector<RecordOp> trace = generateTrace(sc, rng);

    mc::ExecWitness ew;
    ScenarioResult res;
    res.scenario = &sc;

    // Warmup: populate witness/checker buffer capacities and verify
    // the trace is clean (any violation would mean a broken generator,
    // not a measurement).
    replay(trace, ew);
    const mc::CheckResult warm = checker.check(ew);
    if (!warm.ok()) {
        std::fprintf(stderr,
                     "bench trace '%s' unexpectedly violates: %s\n",
                     sc.name, warm.message.c_str());
        std::exit(1);
    }
    res.events = ew.numEvents();

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < repeats; ++i) {
        replay(trace, ew);
        const mc::CheckResult check = checker.check(ew);
        if (!check.ok())
            std::exit(1); // Unreachable; keeps the check observable.
    }
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    res.repeats = repeats;
    return res;
}

/** Collective-checking scenario: one trace pool, two checkers. */
struct RepeatedSeedResult
{
    std::size_t traces = 0;
    int cycles = 0;
    int repeats = 0;          ///< traces * cycles check() calls per side
    std::size_t events = 0;   ///< summed events of one pool pass
    double uncachedSeconds = 0.0; ///< check() time only, full analysis
    double cachedSeconds = 0.0;   ///< check() time only, memoized
    std::uint64_t distinct = 0;
    double hitRate = 0.0;

    double
    testsPerSec(double seconds) const
    {
        return seconds > 0.0 ? repeats / seconds : 0.0;
    }

    double
    speedup() const
    {
        return cachedSeconds > 0.0 ? uncachedSeconds / cachedSeconds
                                   : 0.0;
    }
};

/** Abort with exit code 2 unless @p got is byte-identical to @p want. */
void
requireIdentical(const mc::CheckResult &want, const mc::CheckResult &got,
                 std::size_t trace, const char *path)
{
    if (got.kind == want.kind && got.message == want.message &&
        got.cycle == want.cycle) {
        return;
    }
    std::fprintf(stderr,
                 "verdict divergence on trace %zu (%s path): "
                 "got '%s', want '%s'\n",
                 trace, path, mc::CheckResult::kindName(got.kind),
                 mc::CheckResult::kindName(want.kind));
    std::exit(2);
}

RepeatedSeedResult
runRepeatedSeed(int cycles)
{
    // A campaign-shaped pool: the GA re-evaluates its fittest tests
    // over and over, so a small set of interleaving shapes recurs for
    // thousands of test-runs. 32 paper-sized traces stand in for that
    // working set; MCVERSI_BENCH_SAMPLES resizes it like any other
    // per-cell sample count.
    const std::size_t kPoolSize =
        static_cast<std::size_t>(mcvbench::benchSamples(32));
    const Scenario shape{"repeated-seed", 4, 250, 16, 404};

    std::vector<std::vector<RecordOp>> pool;
    pool.reserve(kPoolSize);
    for (std::size_t t = 0; t < kPoolSize; ++t) {
        Scenario sc = shape;
        sc.seed = shape.seed + t;
        Rng rng(sc.seed);
        pool.push_back(generateTrace(sc, rng));
    }

    const mc::Checker uncached(mc::makeTso());
    mc::Checker cached(mc::makeTso());
    cached.enableVerdictCache({.capacity = 4096});

    RepeatedSeedResult res;
    res.traces = kPoolSize;
    res.cycles = cycles;
    res.repeats = static_cast<int>(kPoolSize) * cycles;

    // Divergence gate (and warmup): every pool trace checked uncached,
    // then as a cache miss, then as a cache hit -- all three must be
    // byte-identical verdicts.
    mc::ExecWitness ew;
    for (std::size_t t = 0; t < pool.size(); ++t) {
        replay(pool[t], ew);
        const mc::CheckResult want = uncached.check(ew);
        if (!want.ok()) {
            std::fprintf(stderr,
                         "bench trace 'repeated-seed/%zu' unexpectedly "
                         "violates: %s\n",
                         t, want.message.c_str());
            std::exit(1);
        }
        requireIdentical(want, cached.check(ew), t, "miss");
        requireIdentical(want, cached.check(ew), t, "hit");
        res.events += ew.numEvents();
    }
    cached.verdictCache()->clear();

    // Measured phase: identical replay loops; the timer brackets only
    // the check() call -- the phase memoization can short-circuit.
    // Replay and finalize (conflict-order resolution) happen with the
    // clock stopped: the campaign pays them for every run regardless
    // of caching, so they would only dilute the comparison.
    auto measure = [&](const mc::Checker &checker) {
        double seconds = 0.0;
        for (int c = 0; c < cycles; ++c) {
            for (const std::vector<RecordOp> &trace : pool) {
                replay(trace, ew);
                ew.finalize();
                const auto t0 = std::chrono::steady_clock::now();
                const mc::CheckResult check = checker.check(ew);
                seconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
                if (!check.ok())
                    std::exit(1); // Unreachable; keeps check observable.
            }
        }
        return seconds;
    };

    res.uncachedSeconds = measure(uncached);
    res.cachedSeconds = measure(cached);

    const mc::VerdictCache::Stats &st = cached.verdictCache()->stats();
    res.distinct = st.distinct;
    res.hitRate = st.hitRate();
    return res;
}

// -- streaming vs post-hoc (schema 3) ---------------------------------

/**
 * Feed one trace through the witness with the streaming checker armed
 * as its recording sink, exactly like the simulation's recording path.
 * Returns true if recording stopped early at a detected violation
 * (only possible with throw-on-violation enabled).
 */
bool
streamReplay(const std::vector<RecordOp> &trace, mc::ExecWitness &ew,
             mc::StreamingChecker &sc)
{
    ew.reset();
    sc.begin();
    try {
        for (const RecordOp &op : trace) {
            if (op.isWrite)
                ew.recordWrite(op.pid, op.poi, op.addr, op.value,
                               op.overwritten, op.rmw);
            else
                ew.recordRead(op.pid, op.poi, op.addr, op.value,
                              op.rmw);
        }
    } catch (const mc::StreamingViolation &) {
        return true;
    }
    return false;
}

/**
 * Corrupt a consistent trace into a guaranteed violation: after the
 * first store past the quarter point, insert a same-thread read of the
 * value that store overwrote. The read's fr edge back to the store
 * closes a two-event po-loc/fr cycle -- an sc-per-location violation
 * under every model -- detectable the moment the read (or, if the
 * overwritten value's producing store was recorded late, that store)
 * is consumed.
 */
std::vector<RecordOp>
corruptTrace(const std::vector<RecordOp> &clean)
{
    std::size_t wi = clean.size();
    for (std::size_t i = clean.size() / 4; i < clean.size(); ++i) {
        if (clean[i].isWrite) {
            wi = i;
            break;
        }
    }
    if (wi == clean.size()) {
        for (std::size_t i = 0; i < clean.size(); ++i) {
            if (clean[i].isWrite) {
                wi = i;
                break;
            }
        }
    }
    if (wi == clean.size()) {
        std::fprintf(stderr, "corruptTrace: trace has no stores\n");
        std::exit(1);
    }

    const RecordOp w = clean[wi];
    std::vector<RecordOp> out = clean;
    // Make room at w.poi + 1: shift every later po slot of the thread,
    // including stores deferred to earlier record positions.
    for (RecordOp &op : out) {
        if (op.pid == w.pid && op.poi > w.poi)
            ++op.poi;
    }
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(wi) + 1,
               {w.pid, w.poi + 1, w.addr, w.overwritten, kInitVal,
                false, false});
    return out;
}

/** Interleaved timing trials per streaming cell (best kept). */
constexpr int kStreamingTrials = 3;

/** Wall-clock seconds spent in @p body. */
template <typename Body>
double
timedSeconds(Body &&body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** One streaming-vs-post-hoc comparison cell. */
struct StreamingPair
{
    const Scenario *scenario = nullptr;
    std::size_t events = 0;
    /** Events consumed at detection (violation cells only). */
    std::uint64_t detectionEvents = 0;
    int repeats = 0;
    double posthocSeconds = 0.0;
    double streamingSeconds = 0.0;

    double
    testsPerSec(double seconds) const
    {
        return seconds > 0.0 ? repeats / seconds : 0.0;
    }

    double
    usPerEvent(double seconds) const
    {
        const double total = static_cast<double>(events) * repeats;
        return total > 0.0 ? seconds * 1e6 / total : 0.0;
    }

    /** Consistent cells: streaming cost relative to post-hoc (<= 1.2). */
    double
    slowdown() const
    {
        return posthocSeconds > 0.0
                   ? streamingSeconds / posthocSeconds
                   : 0.0;
    }

    /** Violation cells: early-stop win in tests/sec (>= 2 expected). */
    double
    speedup() const
    {
        return streamingSeconds > 0.0
                   ? posthocSeconds / streamingSeconds
                   : 0.0;
    }
};

/**
 * Consistent-trace cell: post-hoc side replays and fully checks every
 * repeat; streaming side consumes events through the sink during
 * recording, and checkStreamed() finalizes the witness but skips the
 * cycle analysis.
 */
StreamingPair
runStreamingConsistent(const Scenario &shape, int repeats)
{
    Rng rng(shape.seed);
    const std::vector<RecordOp> trace = generateTrace(shape, rng);

    const mc::Checker checker(mc::makeTso());
    mc::StreamingChecker sc(mc::modelProfile("tso"));

    StreamingPair res;
    res.scenario = &shape;
    res.repeats = repeats;

    mc::ExecWitness ew;
    replay(trace, ew); // Warmup + sanity.
    if (!checker.check(ew).ok()) {
        std::fprintf(stderr,
                     "bench trace '%s' unexpectedly violates\n",
                     shape.name);
        std::exit(1);
    }
    res.events = ew.numEvents();

    mc::ExecWitness sew;
    sew.setEventSink(&sc);
    streamReplay(trace, sew, sc); // Warmup capacities.
    if (!checker.checkStreamed(sew, sc).ok() || sc.violationDetected())
        std::exit(2); // Clean trace must stream clean.

    // Interleaved best-of-N trials: the slowdown ratio is sensitive to
    // CPU frequency drift, so alternate the sides and keep each side's
    // fastest trial rather than trusting one long timed loop.
    res.posthocSeconds = -1.0;
    res.streamingSeconds = -1.0;
    for (int trial = 0; trial < kStreamingTrials; ++trial) {
        double s = timedSeconds([&] {
            for (int i = 0; i < repeats; ++i) {
                replay(trace, ew);
                if (!checker.check(ew).ok())
                    std::exit(1); // Unreachable; keeps it observable.
            }
        });
        if (res.posthocSeconds < 0.0 || s < res.posthocSeconds)
            res.posthocSeconds = s;
        s = timedSeconds([&] {
            for (int i = 0; i < repeats; ++i) {
                streamReplay(trace, sew, sc);
                if (!checker.checkStreamed(sew, sc).ok())
                    std::exit(1); // Unreachable; keeps it observable.
            }
        });
        if (res.streamingSeconds < 0.0 || s < res.streamingSeconds)
            res.streamingSeconds = s;
    }
    return res;
}

/**
 * Violation cell: the streaming side records only until the violating
 * event throws (the simulation early stop) and renders the early-stop
 * verdict; the post-hoc side must record the whole trace and run the
 * full analysis before it can notice anything.
 */
StreamingPair
runStreamingViolation(const Scenario &shape, int repeats)
{
    Rng rng(shape.seed);
    const std::vector<RecordOp> corrupt =
        corruptTrace(generateTrace(shape, rng));

    const mc::Checker checker(mc::makeTso());
    mc::StreamingChecker sc(mc::modelProfile("tso"));
    sc.setThrowOnViolation(true);

    StreamingPair res;
    res.scenario = &shape;
    res.repeats = repeats;

    mc::ExecWitness ew;
    replay(corrupt, ew); // Warmup + sanity.
    if (checker.check(ew).ok()) {
        std::fprintf(stderr,
                     "corrupted trace '%s' unexpectedly checks Ok\n",
                     shape.name);
        std::exit(1);
    }
    res.events = ew.numEvents();

    mc::ExecWitness sew;
    sew.setEventSink(&sc);
    if (!streamReplay(corrupt, sew, sc) ||
        sc.earlyStopResult(sew).ok()) {
        std::fprintf(stderr,
                     "streaming checker missed the '%s' violation\n",
                     shape.name);
        std::exit(2);
    }
    res.detectionEvents = sc.eventsUntilDetection();

    // Interleaved best-of-N trials (same rationale as the consistent
    // cell: keep CPU noise out of the reported ratio).
    res.posthocSeconds = -1.0;
    res.streamingSeconds = -1.0;
    for (int trial = 0; trial < kStreamingTrials; ++trial) {
        double s = timedSeconds([&] {
            for (int i = 0; i < repeats; ++i) {
                replay(corrupt, ew);
                if (checker.check(ew).ok())
                    std::exit(1); // Unreachable; keeps it observable.
            }
        });
        if (res.posthocSeconds < 0.0 || s < res.posthocSeconds)
            res.posthocSeconds = s;
        s = timedSeconds([&] {
            for (int i = 0; i < repeats; ++i) {
                if (!streamReplay(corrupt, sew, sc) ||
                    sc.earlyStopResult(sew).ok()) {
                    std::exit(1); // Unreachable; keeps it observable.
                }
            }
        });
        if (res.streamingSeconds < 0.0 || s < res.streamingSeconds)
            res.streamingSeconds = s;
    }
    return res;
}

/**
 * Verdict-divergence gate: for every scenario shape, stream the clean
 * and the corrupted trace under every registered model and require the
 * streaming pipeline's verdict byte-identical to post-hoc checking,
 * with the online detection flag agreeing with the verdict. Returns
 * the number of (trace x model) comparisons; any divergence aborts
 * with exit code 2.
 */
int
streamingDivergenceGate(const Scenario *shapes, std::size_t count)
{
    int checked = 0;
    for (std::size_t s = 0; s < count; ++s) {
        Rng rng(shapes[s].seed);
        const std::vector<RecordOp> clean =
            generateTrace(shapes[s], rng);
        const std::vector<RecordOp> corrupt = corruptTrace(clean);
        for (const std::string &model : mc::modelNames()) {
            const mc::Checker checker(mc::makeModel(model));
            mc::StreamingChecker sc(mc::modelProfile(model));
            mc::ExecWitness pew;
            mc::ExecWitness sew;
            sew.setEventSink(&sc);
            for (const std::vector<RecordOp> *trace :
                 {&clean, &corrupt}) {
                replay(*trace, pew);
                const mc::CheckResult want = checker.check(pew);
                streamReplay(*trace, sew, sc);
                if (sc.violationDetected() == want.ok()) {
                    std::fprintf(stderr,
                                 "streaming detection flag diverges "
                                 "from post-hoc verdict ('%s', %s)\n",
                                 shapes[s].name, model.c_str());
                    std::exit(2);
                }
                requireIdentical(want, checker.checkStreamed(sew, sc),
                                 s, model.c_str());
                ++checked;
            }
        }
    }
    return checked;
}

/**
 * Windowed-verdict divergence gate: re-run every shape's clean and
 * corrupted trace through a ring-buffer witness large enough to retain
 * the whole stream and require the bounded-window verdict
 * byte-identical to unbounded post-hoc checking under every registered
 * model. Returns the number of (trace x model) comparisons; any
 * divergence aborts with exit code 2.
 */
int
windowedDivergenceGate(const Scenario *shapes, std::size_t count)
{
    int checked = 0;
    for (std::size_t s = 0; s < count; ++s) {
        Rng rng(shapes[s].seed);
        const std::vector<RecordOp> clean =
            generateTrace(shapes[s], rng);
        const std::vector<RecordOp> corrupt = corruptTrace(clean);
        const std::size_t window = corrupt.size() + 64;
        for (const std::string &model : mc::modelNames()) {
            const mc::Checker checker(mc::makeModel(model));
            mc::StreamingChecker sc(mc::modelProfile(model));
            sc.setWindow(window);
            mc::ExecWitness pew;
            mc::ExecWitness wew;
            wew.setWindow(window);
            wew.setEventSink(&sc);
            for (const std::vector<RecordOp> *trace :
                 {&clean, &corrupt}) {
                replay(*trace, pew);
                const mc::CheckResult want = checker.check(pew);
                streamReplay(*trace, wew, sc);
                if (wew.droppedEvents() != 0) {
                    std::fprintf(stderr,
                                 "windowed gate ring dropped events "
                                 "('%s', %s)\n",
                                 shapes[s].name, model.c_str());
                    std::exit(2);
                }
                requireIdentical(want, checker.checkStreamed(wew, sc),
                                 s, model.c_str());
                ++checked;
            }
        }
    }
    return checked;
}

// -- bounded-window soak (schema 4) -----------------------------------

/**
 * On-the-fly soak traffic: random threads issue loads of the current
 * memory value and uniquely-valued stores over a small address pool.
 * Nothing is materialized -- the soak cells exist to prove O(window)
 * memory, and a precomputed million-record trace vector would dominate
 * the peak-RSS measurement. Loads observe only current values and
 * records arrive in per-thread program order, so a window comfortably
 * above the address-reuse distance never drops an ordering constraint.
 */
class SoakSource
{
  public:
    SoakSource(int threads, int addrs, std::uint64_t seed)
        : rng_(seed), threads_(threads),
          memory_(static_cast<std::size_t>(addrs), kInitVal),
          nextPoi_(static_cast<std::size_t>(threads), 0)
    {
    }

    RecordOp
    next()
    {
        const Pid pid = static_cast<Pid>(
            rng_.below(static_cast<std::uint64_t>(threads_)));
        const auto ai =
            static_cast<std::size_t>(rng_.below(memory_.size()));
        const Addr addr = 64 * static_cast<Addr>(ai);
        const std::int32_t poi =
            nextPoi_[static_cast<std::size_t>(pid)]++;
        if (rng_.boolWithProb(0.5))
            return {pid, poi, addr, memory_[ai], kInitVal, false,
                    false};
        const WriteVal v = nextVal_++;
        const RecordOp op{pid, poi, addr, v, memory_[ai], true, false};
        memory_[ai] = v;
        return op;
    }

  private:
    Rng rng_;
    int threads_;
    std::vector<WriteVal> memory_;
    std::vector<std::int32_t> nextPoi_;
    WriteVal nextVal_ = 1;
};

struct SoakCell
{
    const char *name = "";
    int threads = 0;
    int addrs = 0;
    std::uint64_t events = 0;
    int passes = 0;
    double seconds = 0.0;         ///< best pass
    std::size_t liveHighWater = 0; ///< last pass's live-node peak
    std::size_t peakRssKb = 0;     ///< VmHWM right after this cell

    double
    usPerEvent() const
    {
        return events > 0
                   ? seconds * 1e6 / static_cast<double>(events)
                   : 0.0;
    }
};

/**
 * Stream @p events generated-on-the-fly records through a bounded
 * window and require a clean, complete, truncation-free stream (any
 * dropped constraint or dirty verdict aborts with exit code 2 -- a
 * soak cell that truncates is measuring the wrong thing). Each pass
 * first streams 2 * window events with the clock stopped: the first
 * ~window events of any stream run below the window and pay no
 * retirement or compaction cost, which would bias a short cell cheap
 * and break the flat-per-event comparison against the million-event
 * cell. Keeps the best of @p passes wall-clock passes; the live-node
 * high water and the process peak RSS are sampled after the final
 * pass.
 */
SoakCell
runSoak(const char *name, int threads, int addrs, std::uint64_t events,
        std::size_t window, std::uint64_t seed, int passes)
{
    const mc::Checker checker(mc::makeTso());
    mc::StreamingChecker sc(mc::modelProfile("tso"));
    mc::ExecWitness ew;
    ew.setWindow(window);
    sc.setWindow(window);
    ew.setEventSink(&sc);

    SoakCell cell;
    cell.name = name;
    cell.threads = threads;
    cell.addrs = addrs;
    cell.events = events;
    cell.passes = passes;
    cell.seconds = -1.0;
    const std::uint64_t warmup = 2 * window;
    for (int p = 0; p < passes; ++p) {
        SoakSource src(threads, addrs,
                       seed + static_cast<std::uint64_t>(p));
        const auto emit = [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const RecordOp op = src.next();
                if (op.isWrite)
                    ew.recordWrite(op.pid, op.poi, op.addr, op.value,
                                   op.overwritten);
                else
                    ew.recordRead(op.pid, op.poi, op.addr, op.value);
            }
        };
        ew.reset();
        sc.begin();
        emit(warmup);
        const double s = timedSeconds([&] { emit(events); });
        const mc::CheckResult res = checker.checkStreamed(ew, sc);
        if (!res.ok() || sc.violationDetected() ||
            !sc.streamComplete() || sc.windowTruncated() ||
            sc.eventsConsumed() != warmup + events) {
            std::fprintf(stderr,
                         "soak cell '%s' did not stream clean through "
                         "window %zu: %s\n",
                         name, window, res.message.c_str());
            std::exit(2);
        }
        if (cell.seconds < 0.0 || s < cell.seconds)
            cell.seconds = s;
    }
    cell.liveHighWater = sc.liveNodeHighWater();
    cell.peakRssKb = mcvbench::peakRssKb();
    return cell;
}

std::string
toJson(const std::vector<ScenarioResult> &results,
       const RepeatedSeedResult &rs,
       const std::vector<StreamingPair> &consistent,
       const std::vector<StreamingPair> &violation, int gate_checks,
       int windowed_checks, const std::vector<SoakCell> &soak,
       std::size_t soak_window)
{
    char buf[512];
    std::string json = "{\n  \"bench\": \"checker_throughput\",\n"
                       "  \"schema\": 4,\n  \"scenarios\": [\n";
    int total_repeats = 0;
    double total_seconds = 0.0;
    double total_events = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"threads\": %d, "
            "\"opsPerThread\": %d, \"addrs\": %d, \"events\": %zu, "
            "\"repeats\": %d, \"seconds\": %.6f, "
            "\"testsPerSec\": %.1f, \"checkUsPerEvent\": %.4f}%s\n",
            r.scenario->name, r.scenario->threads,
            r.scenario->opsPerThread, r.scenario->addrs, r.events,
            r.repeats, r.seconds, r.testsPerSec(), r.usPerEvent(),
            i + 1 < results.size() ? "," : "");
        json += buf;
        total_repeats += r.repeats;
        total_seconds += r.seconds;
        total_events += static_cast<double>(r.events) * r.repeats;
    }
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"aggregate\": {\"testsPerSec\": %.1f, "
                  "\"checkUsPerEvent\": %.4f},\n",
                  total_seconds > 0.0 ? total_repeats / total_seconds
                                      : 0.0,
                  total_events > 0.0
                      ? total_seconds * 1e6 / total_events
                      : 0.0);
    json += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"repeatedSeed\": {\"traces\": %zu, \"cycles\": %d, "
        "\"repeats\": %d, \"events\": %zu,\n"
        "    \"distinctInterleavings\": %llu, \"hitRate\": %.4f,\n"
        "    \"uncached\": {\"seconds\": %.6f, \"testsPerSec\": %.1f},\n"
        "    \"cached\": {\"seconds\": %.6f, \"testsPerSec\": %.1f},\n"
        "    \"speedupTestsPerSec\": %.2f},\n",
        rs.traces, rs.cycles, rs.repeats, rs.events,
        static_cast<unsigned long long>(rs.distinct), rs.hitRate,
        rs.uncachedSeconds, rs.testsPerSec(rs.uncachedSeconds),
        rs.cachedSeconds, rs.testsPerSec(rs.cachedSeconds),
        rs.speedup());
    json += buf;

    json += "  \"streaming\": {\n    \"models\": [";
    const std::vector<std::string> &models = mc::modelNames();
    for (std::size_t i = 0; i < models.size(); ++i) {
        json += i > 0 ? ", \"" : "\"";
        json += models[i];
        json += "\"";
    }
    std::snprintf(buf, sizeof(buf),
                  "],\n    \"divergenceChecks\": %d, "
                  "\"windowedChecks\": %d, "
                  "\"divergence\": 0,\n    \"consistent\": [\n",
                  gate_checks, windowed_checks);
    json += buf;
    for (std::size_t i = 0; i < consistent.size(); ++i) {
        const StreamingPair &p = consistent[i];
        std::snprintf(
            buf, sizeof(buf),
            "      {\"name\": \"%s\", \"events\": %zu, "
            "\"repeats\": %d,\n"
            "        \"posthoc\": {\"seconds\": %.6f, "
            "\"testsPerSec\": %.1f, \"usPerEvent\": %.4f},\n"
            "        \"streaming\": {\"seconds\": %.6f, "
            "\"testsPerSec\": %.1f, \"usPerEvent\": %.4f},\n"
            "        \"slowdown\": %.2f}%s\n",
            p.scenario->name, p.events, p.repeats, p.posthocSeconds,
            p.testsPerSec(p.posthocSeconds),
            p.usPerEvent(p.posthocSeconds), p.streamingSeconds,
            p.testsPerSec(p.streamingSeconds),
            p.usPerEvent(p.streamingSeconds), p.slowdown(),
            i + 1 < consistent.size() ? "," : "");
        json += buf;
    }
    json += "    ],\n    \"violation\": [\n";
    for (std::size_t i = 0; i < violation.size(); ++i) {
        const StreamingPair &p = violation[i];
        std::snprintf(
            buf, sizeof(buf),
            "      {\"name\": \"%s\", \"events\": %zu, "
            "\"detectionEvents\": %llu, \"repeats\": %d,\n"
            "        \"posthoc\": {\"seconds\": %.6f, "
            "\"testsPerSec\": %.1f},\n"
            "        \"streaming\": {\"seconds\": %.6f, "
            "\"testsPerSec\": %.1f},\n"
            "        \"speedupTestsPerSec\": %.2f}%s\n",
            p.scenario->name, p.events,
            static_cast<unsigned long long>(p.detectionEvents),
            p.repeats, p.posthocSeconds,
            p.testsPerSec(p.posthocSeconds), p.streamingSeconds,
            p.testsPerSec(p.streamingSeconds), p.speedup(),
            i + 1 < violation.size() ? "," : "");
        json += buf;
    }
    json += "    ]\n  },\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"soak\": {\"window\": %zu, \"cells\": [\n",
                  soak_window);
    json += buf;
    for (std::size_t i = 0; i < soak.size(); ++i) {
        const SoakCell &c = soak[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"threads\": %d, \"addrs\": %d, "
            "\"events\": %llu, \"passes\": %d,\n"
            "      \"seconds\": %.6f, \"usPerEvent\": %.4f, "
            "\"liveNodeHighWater\": %zu, \"peakRssKb\": %zu}%s\n",
            c.name, c.threads, c.addrs,
            static_cast<unsigned long long>(c.events), c.passes,
            c.seconds, c.usPerEvent(), c.liveHighWater, c.peakRssKb,
            i + 1 < soak.size() ? "," : "");
        json += buf;
    }
    json += "  ]}\n}\n";
    return json;
}

} // namespace

int
main()
{
    const double scale = mcvbench::benchScale();

    // Paper-shaped workloads: Table 3 runs 1k-op tests; small and large
    // bracket it so both constant and per-event costs are visible.
    const Scenario scenarios[] = {
        {"small-256", 2, 64, 8, 101},
        {"paper-1k", 4, 250, 16, 202},
        {"large-8k", 8, 1024, 32, 303},
    };
    const int base_repeats[] = {4000, 1200, 120};

    const mc::Checker checker(mc::makeTso());
    std::vector<ScenarioResult> results;
    for (std::size_t i = 0; i < std::size(scenarios); ++i) {
        const int repeats = std::max(
            1, static_cast<int>(base_repeats[i] * scale));
        results.push_back(
            runScenario(scenarios[i], checker, repeats));
        const ScenarioResult &r = results.back();
        std::printf("%-10s %zu events  %6d repeats  %8.3f s  "
                    "%10.1f tests/s  %8.4f us/event\n",
                    r.scenario->name, r.events, r.repeats, r.seconds,
                    r.testsPerSec(), r.usPerEvent());
    }

    const int cycles =
        std::max(1, static_cast<int>(40 * scale));
    const RepeatedSeedResult rs = runRepeatedSeed(cycles);
    std::printf("%-10s %zu traces %6d repeats  uncached %8.1f "
                "tests/s  cached %8.1f tests/s  %4.2fx  hit-rate %.3f "
                "distinct %llu\n",
                "repeated", rs.traces, rs.repeats,
                rs.testsPerSec(rs.uncachedSeconds),
                rs.testsPerSec(rs.cachedSeconds), rs.speedup(),
                rs.hitRate,
                static_cast<unsigned long long>(rs.distinct));

    // Streaming vs post-hoc (schema 3). The 32k shape stresses the
    // incremental graphs well past the paper's test sizes.
    const Scenario streaming_shapes[] = {
        {"small-256", 2, 64, 8, 101},
        {"paper-1k", 4, 250, 16, 202},
        {"large-8k", 8, 1024, 32, 303},
        {"large-32k", 8, 4096, 64, 505},
    };
    const int streaming_repeats[] = {4000, 1200, 120, 32};

    const int gate_checks = streamingDivergenceGate(
        streaming_shapes, std::size(streaming_shapes));
    std::printf("streaming  divergence gate: %d verdict pairs "
                "byte-identical across {%s}\n",
                gate_checks, mc::modelNamesJoined().c_str());

    const int windowed_checks = windowedDivergenceGate(
        streaming_shapes, std::size(streaming_shapes));
    std::printf("streaming  windowed gate: %d bounded-window verdict "
                "pairs byte-identical to unbounded checking\n",
                windowed_checks);

    std::vector<StreamingPair> consistent;
    std::vector<StreamingPair> violation;
    for (std::size_t i = 0; i < std::size(streaming_shapes); ++i) {
        // Timed cells cover the paper-sized shape and up; the ~150
        // event shape is dominated by per-stream fixed costs on both
        // sides (and, for violation cells, leaves no trace to skip),
        // so its timings measure constant factors rather than checking
        // throughput. The divergence gate above still exercises it
        // under every model.
        if (streaming_shapes[i].opsPerThread < 250)
            continue;
        const int repeats = std::max(
            1, static_cast<int>(streaming_repeats[i] * scale));
        consistent.push_back(
            runStreamingConsistent(streaming_shapes[i], repeats));
        const StreamingPair &c = consistent.back();
        std::printf("stream-ok  %-10s %zu events  %6d repeats  "
                    "posthoc %8.1f tests/s  streaming %8.1f tests/s  "
                    "slowdown %4.2fx\n",
                    c.scenario->name, c.events, c.repeats,
                    c.testsPerSec(c.posthocSeconds),
                    c.testsPerSec(c.streamingSeconds), c.slowdown());
        violation.push_back(
            runStreamingViolation(streaming_shapes[i], repeats));
        const StreamingPair &v = violation.back();
        std::printf("stream-bug %-10s %zu events  detect@%llu  "
                    "posthoc %8.1f tests/s  streaming %8.1f tests/s  "
                    "speedup %4.2fx\n",
                    v.scenario->name, v.events,
                    static_cast<unsigned long long>(v.detectionEvents),
                    v.testsPerSec(v.posthocSeconds),
                    v.testsPerSec(v.streamingSeconds), v.speedup());
    }

    // Bounded-window soak: identical traffic at 8k and >= 1M events
    // through the same window, so the two cells differ only in length.
    // Event counts are deliberately NOT scaled by MCVERSI_BENCH_SCALE:
    // the soak-1m floor is part of the contract CI gates on (flat
    // per-event cost, O(window) peak memory). VmHWM is monotone over
    // the process, so the large-8k cell is sampled first and the gate
    // compares the soak cell's peak as a ratio of it.
    const std::size_t kSoakWindow = 4096;
    std::vector<SoakCell> soak;
    soak.push_back(
        runSoak("large-8k", 8, 64, 8192, kSoakWindow, 707, 20));
    soak.push_back(runSoak("soak-1m", 8, 64, std::uint64_t{1} << 20,
                           kSoakWindow, 808, 3));
    for (const SoakCell &c : soak) {
        std::printf("soak       %-10s %7llu events  %2d passes  "
                    "%8.4f us/event  live-high %zu  peak-rss %zu KiB\n",
                    c.name, static_cast<unsigned long long>(c.events),
                    c.passes, c.usPerEvent(), c.liveHighWater,
                    c.peakRssKb);
    }

    const char *path = std::getenv("MCVERSI_BENCH_JSON");
    const std::string out = path ? path : "BENCH_checker.json";
    // Refuse to clobber the curated baseline-vs-current comparison
    // checked in at the repository root (same default filename).
    if (std::ifstream existing(out, std::ios::binary); existing) {
        std::string head(256, '\0');
        existing.read(head.data(),
                      static_cast<std::streamsize>(head.size()));
        if (head.find("checker_throughput_comparison") !=
            std::string::npos) {
            std::fprintf(stderr,
                         "%s holds the curated comparison artifact; "
                         "set MCVERSI_BENCH_JSON to another path\n",
                         out.c_str());
            return 1;
        }
    }
    std::ofstream file(out, std::ios::binary);
    file << toJson(results, rs, consistent, violation, gate_checks,
                   windowed_checks, soak, kSoakWindow);
    if (!file) {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
