/**
 * @file
 * witness-check: offline checking of recorded witnesses.
 *
 * Set-up simulates test-runs of both protocols -- bug-free, plus bugged
 * runs up to their first violation -- and records every witness the
 * production checker settled, with that checker's verdict as the
 * expected one. A copy of every fourth bug-free witness gets one store
 * corrupted: right after the store, its thread reads the value the
 * store overwrote, which closes a po-loc/fr cycle under every model.
 *
 * Each measured pass checks every witness twice, each mode with its
 * own checker and the verdict cache on as in production: post-hoc
 * (replay, ExecWitness::finalize, Checker::check) and streamed (replay
 * through a StreamingChecker sink, finalize, Checker::checkStreamed).
 * Passes build fresh checkers, so each pass checks each witness once
 * from a cold cache and every pass computes the same thing.
 */

#include <memory>
#include <stdexcept>

#include "campaign/spec.hh"
#include "host/harness.hh"
#include "memconsistency/arch.hh"
#include "memconsistency/models/engine.hh"
#include "memconsistency/streaming_checker.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

namespace host = mcversi::host;
namespace mc = mcversi::mc;
using mcversi::Addr;
using mcversi::Pid;
using mcversi::WriteVal;
using mcversi::campaign::CampaignSpec;

/** One recorded event, in record order. */
struct RecordOp
{
    Pid pid = 0;
    std::int32_t poi = 0;
    Addr addr = 0;
    WriteVal value = mcversi::kInitVal;
    WriteVal overwritten = mcversi::kInitVal;
    bool isWrite = false;
    bool rmw = false;
};

struct Witness
{
    std::vector<RecordOp> ops;
    mc::CheckResult expected;
};

/** A simulated campaign whose witnesses enter the corpus. */
struct Recorder
{
    const char *bug;
    const char *protocol;
    /** Test-runs to record; a bugged recorder stops at its bug. */
    std::uint64_t testRuns;
};

// Bug-free recorders keep every iteration's witness; bugged recorders
// keep only the violating one. The bugs are the quick-to-find ones
// whose violation is an MCM violation (not a protocol error) under
// each protocol.
constexpr Recorder kRecorders[] = {
    {"none", "mesi", 48},
    {"none", "tsocc", 48},
    {"MESI,LQ+E,Inv", "mesi", 400},
    {"SQ+no-FIFO", "mesi", 400},
    {"SQ+no-FIFO", "tsocc", 400},
    {"LQ+no-TSO", "tsocc", 400},
};
constexpr int kCorruptEvery = 4;
constexpr std::size_t kCacheEntries = 4096;
constexpr const char *kModel = "tso";
/** Tracer run id of the set-up recording. */
constexpr int kRecordRun = -1;

std::vector<RecordOp>
toOps(const mc::ExecWitness &ew)
{
    std::vector<RecordOp> ops;
    ops.reserve(ew.numEvents());
    const auto &overwrites = ew.overwrites();
    std::size_t oi = 0;
    for (mc::EventId id = 0; id < static_cast<mc::EventId>(ew.numEvents());
         ++id) {
        const mc::Event &e = ew.event(id);
        if (e.isInit())
            continue;
        RecordOp op{e.iiid.pid, e.iiid.poi, e.addr, e.value,
                    mcversi::kInitVal, e.isWrite(), e.rmw};
        if (e.isWrite()) {
            if (oi >= overwrites.size() || overwrites[oi].first != id)
                throw std::runtime_error("witness overwrite log out of order");
            op.overwritten = overwrites[oi++].second;
        }
        ops.push_back(op);
    }
    return ops;
}

void
replay(const std::vector<RecordOp> &ops, mc::ExecWitness &ew)
{
    ew.reset();
    for (const RecordOp &op : ops) {
        if (op.isWrite)
            ew.recordWrite(op.pid, op.poi, op.addr, op.value,
                           op.overwritten, op.rmw);
        else
            ew.recordRead(op.pid, op.poi, op.addr, op.value, op.rmw);
    }
}

/**
 * Insert, after the first plain store past the quarter point, a read
 * by the same thread of the value that store overwrote. Empty when the
 * witness has no plain store.
 */
std::vector<RecordOp>
corrupt(const std::vector<RecordOp> &clean)
{
    std::size_t wi = clean.size();
    for (std::size_t pass = 0; pass < 2 && wi == clean.size(); ++pass) {
        for (std::size_t i = pass == 0 ? clean.size() / 4 : 0;
             i < clean.size(); ++i) {
            if (clean[i].isWrite && !clean[i].rmw) {
                wi = i;
                break;
            }
        }
    }
    if (wi == clean.size())
        return {};
    const RecordOp w = clean[wi];
    std::vector<RecordOp> out = clean;
    for (RecordOp &op : out) {
        if (op.pid == w.pid && op.poi > w.poi)
            ++op.poi;
    }
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(wi) + 1,
               {w.pid, w.poi + 1, w.addr, w.overwritten, mcversi::kInitVal,
                false, false});
    return out;
}

bool
sameVerdict(const mc::CheckResult &a, const mc::CheckResult &b)
{
    return a.kind == b.kind && a.message == b.message && a.cycle == b.cycle;
}

std::size_t
eventCount(const std::vector<Witness> &corpus)
{
    std::size_t n = 0;
    for (const Witness &w : corpus)
        n += w.ops.size();
    return n;
}

/** The recorded corpus and what recording it simulated. */
struct Corpus
{
    std::vector<Witness> witnesses;
    double testRuns = 0.0;
    double runsToBug = 0.0;
    std::vector<double> cleanCoverage;
    double simEvents = 0.0;
    double simTicks = 0.0;
    double messages = 0.0;
    double witnessEvents = 0.0;
    double checkSeconds = 0.0;
};

/**
 * Run one recorder: the serial harness loop of VerificationHarness::run
 * with spans around each layer call and a capture hook on every
 * iteration the production checker settled.
 */
void
record(const Recorder &rec, std::uint64_t seed, Tracer &tracer,
       Corpus &corpus, Outcome &out)
{
    Span span(tracer, "campaign.cell");
    CampaignSpec spec;
    spec.bug = rec.bug;
    spec.protocol = rec.protocol;
    spec.seed = seed;
    spec.checkMode = "posthoc";
    spec.maxTestRuns = rec.testRuns;
    spec.validate();
    const bool hunt = spec.bug != "none";
    SerialCell cell = buildSerialCell(spec, tracer);
    host::ConditionFn capture;
    if (!hunt) {
        capture = [&tracer, &corpus](const mc::ExecWitness &ew) {
            Span capture_span(tracer, "bench.capture");
            corpus.witnesses.push_back({toOps(ew), mc::CheckResult{}});
            return false;
        };
    }

    std::uint64_t runs = 0;
    host::RunResult run;
    while (runs < rec.testRuns && !run.bugDetected()) {
        run = tracedStep(cell, tracer, capture);
        ++runs;
        corpus.simEvents += static_cast<double>(run.simEvents);
        corpus.simTicks += static_cast<double>(run.simTicks);
        corpus.messages += static_cast<double>(run.messagesSent);
        corpus.witnessEvents += static_cast<double>(run.eventsExecuted);
        corpus.checkSeconds += run.checkSeconds;
    }
    corpus.testRuns += static_cast<double>(runs);

    ++out.attempted;
    const std::string name = "recorder " + spec.bug + " on " + spec.protocol;
    if (!hunt) {
        if (run.bugDetected())
            out.fail(name + ": violation on a bug-free design: " +
                     run.describe());
        // Coverage of the bug-free recorders only: their budget is
        // fixed, while a bugged recorder stops when its bug shows.
        corpus.cleanCoverage.push_back(
            cell.harness->system().coverage().totalCoverage(
                spec.protocolPrefix()));
    } else if (!run.bugDetected()) {
        out.fail(name + ": bug not found within " +
                 std::to_string(rec.testRuns) + " test-runs");
    } else if (!run.violation) {
        out.fail(name + ": bug showed as '" + run.describe() +
                 "', not as a checkable violation");
    } else {
        // The violating iteration's witness is still in place.
        Span capture_span(tracer, "bench.capture");
        corpus.witnesses.push_back(
            {toOps(cell.harness->system().witness()), run.checkResult});
        corpus.runsToBug += static_cast<double>(runs);
    }
}

/**
 * Record the corpus, add corrupted copies, and confirm that a fresh
 * cache-less checker reproduces every expected verdict from the
 * replayed events (the recorded verdicts for simulated witnesses; a
 * violation for corrupted ones, whose verdict becomes the expected).
 */
Corpus
buildCorpus(std::uint64_t seed, Tracer &tracer, Outcome &out)
{
    tracer.setRun(kRecordRun);
    Corpus corpus;
    std::uint64_t stream = 0;
    for (const Recorder &rec : kRecorders)
        record(rec, inputSeed(seed, stream++), tracer, corpus, out);

    const std::size_t recorded = corpus.witnesses.size();
    std::size_t clean_seen = 0;
    for (std::size_t i = 0; i < recorded; ++i) {
        if (!corpus.witnesses[i].expected.ok() ||
            clean_seen++ % kCorruptEvery != 0) {
            continue;
        }
        std::vector<RecordOp> bad = corrupt(corpus.witnesses[i].ops);
        if (!bad.empty())
            corpus.witnesses.push_back({std::move(bad), mc::CheckResult{}});
    }

    mc::Checker reference(mc::makeModel(kModel));
    mc::ExecWitness ew;
    for (std::size_t i = 0; i < corpus.witnesses.size(); ++i) {
        Witness &w = corpus.witnesses[i];
        replay(w.ops, ew);
        ew.finalize();
        mc::CheckResult verdict = reference.check(ew);
        ++out.attempted;
        if (i >= recorded) {
            if (verdict.ok())
                out.fail("corrupted witness " + std::to_string(i) +
                         " checks Ok");
            w.expected = std::move(verdict);
        } else if (!sameVerdict(verdict, w.expected)) {
            out.fail("replayed witness " + std::to_string(i) +
                     " differs from its recorded verdict");
        }
    }
    return corpus;
}

/** Deterministic counts of one pass. */
struct PassCounts
{
    std::size_t ok = 0;
    std::size_t violations = 0;
    std::size_t flagged = 0;
    mc::VerdictCache::Stats posthocCache;
    mc::VerdictCache::Stats streamedCache;

    std::string
    json() const
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"ok\": %zu, \"violations\": %zu, \"flagged\": %zu, "
                      "\"posthoc_cache_hits\": %llu, "
                      "\"streamed_cache_hits\": %llu}",
                      ok, violations, flagged,
                      static_cast<unsigned long long>(posthocCache.hits),
                      static_cast<unsigned long long>(streamedCache.hits));
        return buf;
    }
};

struct Pass
{
    double wall = 0.0;
    /** Streamed seconds to the verdict, summed over violating witnesses. */
    double toBugS = 0.0;
    std::vector<double> eventsUntilDetection;
    PassCounts counts;
};

Pass
checkPass(const Corpus &corpus, Tracer &tracer, Outcome &out)
{
    Pass pass;
    mc::Checker posthoc(mc::makeModel(kModel));
    mc::Checker streamed(mc::makeModel(kModel));
    posthoc.enableVerdictCache({.capacity = kCacheEntries});
    streamed.enableVerdictCache({.capacity = kCacheEntries});
    const auto &model =
        dynamic_cast<const mc::ProfileModel &>(streamed.arch());
    mc::StreamingChecker sc(model.profile());
    sc.setThrowOnViolation(false);
    mc::ExecWitness plain;
    mc::ExecWitness sunk;
    sunk.setEventSink(&sc);

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < corpus.witnesses.size(); ++i) {
        const Witness &w = corpus.witnesses[i];
        mc::CheckResult p;
        {
            Span span(tracer, "mc.replay");
            replay(w.ops, plain);
        }
        {
            Span span(tracer, "mc.finalize");
            plain.finalize();
        }
        {
            Span span(tracer, "mc.check");
            p = posthoc.check(plain);
        }

        const bool violating = !w.expected.ok();
        const auto s0 = violating ? Clock::now() : Clock::time_point{};
        mc::CheckResult s;
        {
            Span span(tracer, "mc.stream_replay");
            sc.begin();
            replay(w.ops, sunk);
        }
        {
            Span span(tracer, "mc.stream_finalize");
            sunk.finalize();
        }
        {
            Span span(tracer, "mc.check_streamed");
            s = streamed.checkStreamed(sunk, sc);
        }
        if (violating) {
            pass.toBugS += secondsSince(s0);
            pass.eventsUntilDetection.push_back(
                static_cast<double>(sc.eventsUntilDetection()));
            ++pass.counts.violations;
            if (!p.ok() && !s.ok())
                ++pass.counts.flagged;
        } else {
            ++pass.counts.ok;
        }
        out.attempted += 2;
        if (!sameVerdict(p, w.expected))
            out.fail("witness " + std::to_string(i) +
                     ": post-hoc verdict differs from the expected one");
        if (!sameVerdict(s, w.expected))
            out.fail("witness " + std::to_string(i) +
                     ": streamed verdict differs from the expected one");
    }
    pass.wall = secondsSince(t0);
    pass.counts.posthocCache = posthoc.verdictCache()->stats();
    pass.counts.streamedCache = streamed.verdictCache()->stats();
    return pass;
}

double
hitRate(const PassCounts &c)
{
    const double lookups = static_cast<double>(c.posthocCache.lookups +
                                               c.streamedCache.lookups);
    return lookups > 0.0
               ? static_cast<double>(c.posthocCache.hits +
                                     c.streamedCache.hits) /
                     lookups
               : 0.0;
}

PerLayer
perLayer(const Corpus &corpus, const Pass &pass, const Tracer &tracer,
         int run)
{
    PerLayer p;
    // gp, host and sim work only during set-up here: the recording.
    p.gpGenerateS = tracer.total("gp.generate", kRecordRun);
    p.gpReportS = tracer.total("gp.report", kRecordRun);
    p.gpFitnessS = tracer.total("gp.fitness", kRecordRun);
    const double cell_s = tracer.total("campaign.cell", kRecordRun);
    p.gpShare = (p.gpGenerateS + p.gpReportS + p.gpFitnessS) / cell_s;
    p.hostRunTestS =
        tracer.self("host.run_test", kRecordRun) - corpus.checkSeconds;
    std::vector<double> ms = tracer.durations("host.run_test", kRecordRun);
    for (double &d : ms)
        d *= 1e3;
    p.hostRunTestMsP50 = percentile(ms, 50.0);
    p.hostRunTestMsP99 = percentile(ms, 99.0);
    p.hostRunTestSamples = static_cast<double>(ms.size());
    p.simEvents = corpus.simEvents;
    p.simEventsPerMemEvent = corpus.simEvents / corpus.witnessEvents;
    p.simMessagesPerMemEvent = corpus.messages / corpus.witnessEvents;
    p.simTicksPerTest = corpus.simTicks / corpus.testRuns;
    p.simNsPerEvent = p.hostRunTestS / corpus.simEvents * 1e9;
    p.campaignCellOverheadS =
        tracer.total("campaign.setup", kRecordRun) /
        static_cast<double>(std::size(kRecorders));

    const double events = static_cast<double>(eventCount(corpus.witnesses));
    const double check = tracer.total("mc.check", run);
    const double streamed = tracer.total("mc.check_streamed", run);
    p.mcCheckS = check + streamed;
    p.mcPosthocNsPerEvent = check / events * 1e9;
    p.mcStreamingNsPerEvent =
        (tracer.total("mc.stream_replay", run) + streamed) / events * 1e9;
    p.mcFinalizeNsPerEvent =
        tracer.total("mc.finalize", run) / events * 1e9;
    p.mcCacheHitRate = hitRate(pass.counts);
    p.mcEventsUntilDetectionP50 = percentile(pass.eventsUntilDetection, 50.0);
    return p;
}

std::string
fingerprintJson(const Corpus &corpus, const PassCounts &counts)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"witnesses\": %zu, \"witness_events\": %zu, "
                  "\"test_runs\": %.0f, \"kernel_events\": %.0f, "
                  "\"sim_ticks\": %.0f, \"messages\": %.0f, "
                  "\"recorded_events\": %.0f, \"coverage\": %.10f, "
                  "\"runs_to_bug\": %.0f, \"verdicts\": %s}",
                  corpus.witnesses.size(), eventCount(corpus.witnesses),
                  corpus.testRuns, corpus.simEvents, corpus.simTicks,
                  corpus.messages, corpus.witnessEvents,
                  median(corpus.cleanCoverage), corpus.runsToBug,
                  counts.json().c_str());
    return buf;
}

} // namespace

Outcome
runWitnessCheck(const Options &options, Tracer &tracer)
{
    Outcome out;
    const auto s0 = Clock::now();
    const Corpus corpus = buildCorpus(options.seed, tracer, out);
    const double setup_s = secondsSince(s0);

    std::vector<Pass> untraced;
    std::vector<double> traced_walls;
    std::vector<PerLayer> layers;
    std::string expected;
    const auto t0 = Clock::now();
    do {
        untraced.push_back(checkPass(corpus, tracer, out));
        const std::string counts = untraced.back().counts.json();
        ++out.attempted;
        if (expected.empty())
            expected = counts;
        else if (counts != expected)
            out.fail("repeated pass: verdict or cache counts differ");

        if (options.trace) {
            const int run = static_cast<int>(traced_walls.size());
            tracer.setRun(run);
            const Pass traced = checkPass(corpus, tracer, out);
            traced_walls.push_back(traced.wall);
            ++out.attempted;
            if (traced.counts.json() != expected)
                out.fail("traced pass: verdict or cache counts differ");
            layers.push_back(perLayer(corpus, traced, tracer, run));
        }
    } while (secondsSince(t0) < options.seconds);

    const double checks = 2.0 * static_cast<double>(corpus.witnesses.size());
    const double events = 2.0 * static_cast<double>(eventCount(corpus.witnesses));
    std::vector<double> tests_per_s;
    std::vector<double> events_per_s;
    std::vector<double> to_bug;
    std::vector<double> walls;
    for (const Pass &pass : untraced) {
        tests_per_s.push_back(checks / pass.wall);
        events_per_s.push_back(events / pass.wall);
        to_bug.push_back(pass.toBugS);
        walls.push_back(pass.wall);
    }
    const PassCounts &first = untraced.front().counts;
    out.untracedRounds = static_cast<int>(untraced.size());
    out.tracedRounds = static_cast<int>(traced_walls.size());
    out.fingerprint = fingerprintJson(corpus, first);
    EndToEnd &e = out.endToEnd;
    e.testsPerS = median(tests_per_s);
    e.memEventsPerS = median(events_per_s);
    e.timeToBugS = median(to_bug);
    e.detectFrac = first.violations > 0
                       ? static_cast<double>(first.flagged) /
                             static_cast<double>(first.violations)
                       : 0.0;
    // Offline, each violating witness is one test-run whose bug is
    // found by checking it once.
    e.runsToBug = static_cast<double>(first.violations);
    e.coverage = median(corpus.cleanCoverage);
    e.setupS = setup_s;
    e.peakRssMb = peakRssMb();

    if (options.trace) {
        const double base = median(walls);
        const double overhead = median(traced_walls) - base;
        std::vector<Metrics> samples;
        for (PerLayer &p : layers) {
            p.traceOverheadS = overhead;
            p.traceOverheadFrac = overhead / base;
            samples.push_back(p.metrics());
        }
        out.perLayer = medianMetrics(samples);
    }
    return out;
}

} // namespace perfbench
