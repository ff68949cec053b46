/**
 * @file
 * The three campaign workloads: campaign-clean, islands-parallel and
 * bug-hunt. Each is a fixed list of campaign cells (a "round") derived
 * from the workload seed.
 *
 * Untraced rounds run every cell through CampaignRunner::runOne, the
 * entry point campaigns and the fleet use. Traced rounds build the
 * same source and harness and drive them from here with a span around
 * every call into a layer: for the serial harness the loop of
 * VerificationHarness::run (next -> runOne -> fitness().evaluate ->
 * report), for ParallelHarness::run a source wrapper that times the
 * batched generate/report calls. Both kinds of round must produce a
 * byte-identical timing-free summary (CampaignSummary::toJson(false)).
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "campaign/registry.hh"
#include "campaign/result.hh"
#include "campaign/runner.hh"
#include "host/parallel_harness.hh"
#include "sim/bugs.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using mcversi::campaign::CampaignResult;
using mcversi::campaign::CampaignRunner;
using mcversi::campaign::CampaignSpec;
using mcversi::campaign::CampaignSummary;
using mcversi::campaign::SourceRegistry;
namespace host = mcversi::host;
namespace gp = mcversi::gp;

/** A workload: the cells of one round and how they run. */
struct Plan
{
    std::vector<CampaignSpec> cells;
    /** ParallelHarness batch-evaluation threads. */
    int evalThreads = 1;
    /** Cells inject a bug and must detect it (else: must not). */
    bool hunt = false;
    /**
     * Set-up repetitions whose median is setup_s: many when set-up
     * takes milliseconds, so one slow repetition cannot move it.
     */
    int setupRepeats = 5;
};

/** The paper's steady state: McVerSi-ALL on bug-free MESI. */
CampaignSpec
cleanCell(std::uint64_t seed, std::uint64_t test_runs)
{
    CampaignSpec spec;
    spec.bug = "none";
    spec.protocol = "mesi";
    spec.generator = "McVerSi-ALL";
    spec.seed = seed;
    spec.testSize = 256;
    spec.iterations = 4;
    spec.memSize = 8 * 1024;
    spec.checkMode = "posthoc";
    spec.maxTestRuns = test_runs;
    return spec;
}

// campaign-clean: two serial cells per round, so one seed's test mix
// does not set the rate alone.
constexpr int kCleanCells = 2;
constexpr std::uint64_t kCleanRunsPerCell = 150;

// islands-parallel: one four-island cell with 16-test batch barriers,
// one eval thread per island (fewer if the host has fewer).
constexpr std::size_t kIslands = 4;
constexpr std::size_t kIslandBatch = 16;
constexpr std::uint64_t kIslandRuns = 384;

// bug-hunt: every studied bug but one, under kHuntSeedSets seeds each.
// MESI,LQ+SM,Inv is left out: its test-runs-to-bug is heavy-tailed
// (median 473 over 24 seeds, but 5 seeds above 4000 and one at 13860,
// about two minutes), so one unlucky seed would decide the whole
// metric and could overrun a run's time limit.
constexpr const char *kHeavyTailedBug = "MESI,LQ+SM,Inv";
constexpr int kHuntSeedSets = 4;
/** Cap per cell; a cell that reaches it missed its bug (a failure). */
constexpr std::uint64_t kHuntMaxRuns = 4000;

Plan
cleanPlan(std::uint64_t seed)
{
    Plan plan;
    for (int c = 0; c < kCleanCells; ++c) {
        plan.cells.push_back(
            cleanCell(inputSeed(seed, static_cast<std::uint64_t>(c)),
                      kCleanRunsPerCell));
    }
    plan.setupRepeats = 101;
    return plan;
}

Plan
islandsPlan(std::uint64_t seed)
{
    Plan plan;
    CampaignSpec spec = cleanCell(inputSeed(seed, 0), kIslandRuns);
    spec.islands = kIslands;
    spec.batch = kIslandBatch;
    plan.cells.push_back(spec);
    plan.evalThreads =
        std::min(static_cast<int>(kIslands), hardwareThreads());
    plan.setupRepeats = 101;
    return plan;
}

Plan
huntPlan(std::uint64_t seed)
{
    Plan plan;
    plan.hunt = true;
    plan.setupRepeats = 3;
    for (int s = 0; s < kHuntSeedSets; ++s) {
        for (const mcversi::sim::BugInfo &bug : mcversi::sim::allBugs()) {
            if (std::string(bug.name) == kHeavyTailedBug)
                continue;
            CampaignSpec spec;
            spec.bug = bug.name;
            spec.protocol = "auto";
            spec.generator = "McVerSi-ALL";
            spec.seed = inputSeed(seed, static_cast<std::uint64_t>(s));
            spec.checkMode = "streaming";
            spec.maxTestRuns = kHuntMaxRuns;
            plan.cells.push_back(spec);
        }
    }
    return plan;
}

/** Results of one round, in cell order. */
struct Round
{
    std::vector<CampaignResult> results;
    /** Host seconds per cell, set-up included. */
    std::vector<double> cellWall;

    double
    wall() const
    {
        double sum = 0.0;
        for (const double w : cellWall)
            sum += w;
        return sum;
    }

    std::string
    summary() const
    {
        CampaignSummary s;
        s.results = results;
        return s.toJson(false);
    }
};

/** Build every cell's source and harness once, as runOne would. */
double
timeSetup(const Plan &plan)
{
    std::vector<std::unique_ptr<host::TestSource>> sources;
    std::vector<std::unique_ptr<host::VerificationHarness>> serial;
    std::vector<std::unique_ptr<host::ParallelHarness>> parallel;
    const auto t0 = Clock::now();
    for (const CampaignSpec &spec : plan.cells) {
        sources.push_back(
            SourceRegistry::instance().make(spec.generator, spec));
        if (spec.usesParallelHarness()) {
            host::ParallelHarness::Params params;
            params.harness = spec.harnessParams();
            params.lanes = spec.islands;
            params.batch = spec.batch;
            params.threads = plan.evalThreads;
            parallel.push_back(std::make_unique<host::ParallelHarness>(
                params, *sources.back()));
        } else {
            serial.push_back(std::make_unique<host::VerificationHarness>(
                spec.harnessParams(), *sources.back()));
        }
    }
    // Tear-down happens after the clock stops.
    return secondsSince(t0);
}

Round
untracedRound(const Plan &plan)
{
    Round round;
    for (const CampaignSpec &spec : plan.cells) {
        // Names the cell in the log should the program crash in it.
        std::fprintf(stderr, "perfbench: cell %zu/%zu bug=%s seed=%llu\n",
                     round.results.size() + 1, plan.cells.size(),
                     spec.bug.c_str(),
                     static_cast<unsigned long long>(spec.seed));
        const auto t0 = Clock::now();
        round.results.push_back(
            CampaignRunner::runOne(spec, plan.evalThreads));
        round.cellWall.push_back(secondsSince(t0));
    }
    return round;
}

/** Test source wrapper timing the batched calls ParallelHarness makes. */
class TracingSource final : public host::TestSource
{
  public:
    TracingSource(host::TestSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    gp::Test
    next() override
    {
        Span span(tracer_, "gp.generate");
        return inner_.next();
    }

    void
    report(const host::RunFeedback &feedback) override
    {
        Span span(tracer_, "gp.report");
        inner_.report(feedback);
    }

    void
    nextBatch(std::span<gp::Test> out) override
    {
        {
            Span span(tracer_, "gp.generate");
            inner_.nextBatch(out);
        }
        batchStart_ = Clock::now();
    }

    void
    reportBatch(std::span<host::RunFeedback> feedback) override
    {
        // Between the two calls the harness evaluated the batch on its
        // lanes and merged it: host time per test-run of the batch.
        batchMsPerTest_.push_back(secondsSince(batchStart_) * 1e3 /
                                  static_cast<double>(feedback.size()));
        Span span(tracer_, "gp.report");
        inner_.reportBatch(feedback);
    }

    std::string name() const override { return inner_.name(); }
    bool hasFitnessMetrics() const override
    {
        return inner_.hasFitnessMetrics();
    }
    double meanFitness() const override { return inner_.meanFitness(); }
    std::size_t requiredLanes() const override
    {
        return inner_.requiredLanes();
    }

    const std::vector<double> &batchMsPerTest() const
    {
        return batchMsPerTest_;
    }

  private:
    host::TestSource &inner_;
    Tracer &tracer_;
    Clock::time_point batchStart_{};
    std::vector<double> batchMsPerTest_;
};

/** What a traced parallel round measures beyond its spans. */
struct ParallelSamples
{
    /** Per batch: host milliseconds per test-run of the batch. */
    std::vector<double> batchMsPerTest;
    std::vector<double> laneImbalance;
};

/**
 * One serial cell with a span around every layer call. The loop and
 * its bookkeeping mirror VerificationHarness::run statement for
 * statement, so the result must equal runOne's byte for byte.
 */
CampaignResult
tracedSerialCell(const CampaignSpec &spec, Tracer &tracer)
{
    Span span(tracer, "campaign.cell");
    CampaignResult result;
    result.spec = spec;
    spec.validate();
    SerialCell cell = buildSerialCell(spec, tracer);
    const host::Budget budget = spec.budget();
    host::HarnessResult &hr = result.harness;
    const auto t0 = Clock::now();
    for (;;) {
        if (budget.maxTestRuns > 0 && hr.testRuns >= budget.maxTestRuns)
            break;
        if (budget.maxWallSeconds > 0.0 &&
            secondsSince(t0) >= budget.maxWallSeconds) {
            break;
        }
        const host::RunResult run = tracedStep(cell, tracer);
        ++hr.testRuns;
        hr.checkSeconds += run.checkSeconds;
        hr.simTicks += run.simTicks;
        hr.eventsExecuted += run.eventsExecuted;
        hr.simEvents += run.simEvents;
        hr.messagesSent += run.messagesSent;
        if (spec.recordNdt)
            hr.ndtHistory.push_back(run.nd.ndt);
        if (run.bugDetected()) {
            hr.bugFound = true;
            hr.detail = run.describe();
            hr.testRunsToBug = hr.testRuns;
            hr.eventsUntilDetection = run.eventsUntilDetection;
            hr.wallSecondsToBug = secondsSince(t0);
            break;
        }
    }
    host::VerificationHarness &harness = *cell.harness;
    hr.wallSeconds = secondsSince(t0);
    hr.totalCoverage = harness.system().coverage().totalCoverage();
    hr.meanFitness = cell.source->meanFitness();
    if (const mcversi::mc::VerdictCache *cache =
            harness.checker().verdictCache()) {
        hr.checkCacheHits = cache->stats().hits;
        hr.checkCacheMisses = cache->stats().misses;
        hr.distinctInterleavings = cache->stats().distinct;
    }
    result.protocolCoverage = harness.system().coverage().totalCoverage(
        spec.protocolPrefix());
    return result;
}

/** One parallel cell: ParallelHarness::run under a tracing source. */
CampaignResult
tracedParallelCell(const CampaignSpec &spec, int eval_threads,
                   Tracer &tracer, ParallelSamples &samples)
{
    Span cell(tracer, "campaign.cell");
    CampaignResult result;
    result.spec = spec;
    spec.validate();
    std::unique_ptr<host::TestSource> source;
    std::unique_ptr<TracingSource> traced;
    std::unique_ptr<host::ParallelHarness> harness;
    {
        Span setup(tracer, "campaign.setup");
        source = SourceRegistry::instance().make(spec.generator, spec);
        traced = std::make_unique<TracingSource>(*source, tracer);
        host::ParallelHarness::Params params;
        params.harness = spec.harnessParams();
        params.lanes = spec.islands;
        params.batch = spec.batch;
        params.threads = eval_threads;
        harness = std::make_unique<host::ParallelHarness>(params, *traced);
    }
    {
        Span run(tracer, "host.parallel_run");
        result.harness = harness->run(spec.budget());
    }
    result.protocolCoverage =
        harness->aggregateCoverage(spec.protocolPrefix());
    samples.batchMsPerTest.insert(samples.batchMsPerTest.end(),
                                  traced->batchMsPerTest().begin(),
                                  traced->batchMsPerTest().end());
    double max_events = 0.0;
    double sum_events = 0.0;
    for (std::size_t l = 0; l < harness->lanes(); ++l) {
        const auto processed = static_cast<double>(
            harness->laneSystem(l).eventQueue().processed());
        max_events = std::max(max_events, processed);
        sum_events += processed;
    }
    samples.laneImbalance.push_back(
        sum_events > 0.0
            ? max_events * static_cast<double>(harness->lanes()) /
                  sum_events
            : 1.0);
    return result;
}

/** Deterministic totals of one round's results. */
struct Totals
{
    double testRuns = 0.0;
    double witnessEvents = 0.0;
    double simEvents = 0.0;
    double simTicks = 0.0;
    double messages = 0.0;
    double checkSeconds = 0.0;
    double cacheHits = 0.0;
    double cacheLookups = 0.0;
    double bugsFound = 0.0;
    double runsToBug = 0.0;
    double wallToBug = 0.0;
    double harnessWall = 0.0;
    double coverage = 0.0;
    std::vector<double> eventsUntilDetection;

    explicit Totals(const std::vector<CampaignResult> &results)
    {
        for (const CampaignResult &r : results) {
            const host::HarnessResult &h = r.harness;
            testRuns += static_cast<double>(h.testRuns);
            witnessEvents += static_cast<double>(h.eventsExecuted);
            simEvents += static_cast<double>(h.simEvents);
            simTicks += static_cast<double>(h.simTicks);
            messages += static_cast<double>(h.messagesSent);
            checkSeconds += h.checkSeconds;
            cacheHits += static_cast<double>(h.checkCacheHits);
            cacheLookups +=
                static_cast<double>(h.checkCacheHits + h.checkCacheMisses);
            harnessWall += h.wallSeconds;
            coverage += r.protocolCoverage;
            if (h.bugFound) {
                bugsFound += 1.0;
                runsToBug += static_cast<double>(h.testRunsToBug);
                wallToBug += h.wallSecondsToBug;
                eventsUntilDetection.push_back(
                    static_cast<double>(h.eventsUntilDetection));
            }
        }
        if (!results.empty())
            coverage /= static_cast<double>(results.size());
    }
};

std::string
fingerprintJson(const Round &round)
{
    const Totals t(round.results);
    const std::string summary = round.summary();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"cells\": %zu, \"test_runs\": %.0f, \"kernel_events\": %.0f, "
        "\"sim_ticks\": %.0f, \"messages\": %.0f, "
        "\"witness_events\": %.0f, \"coverage\": %.10f, "
        "\"bugs_found\": %.0f, \"runs_to_bug\": %.0f, "
        "\"summary_fnv1a\": \"%016llx\"}",
        round.results.size(), t.testRuns, t.simEvents, t.simTicks,
        t.messages, t.witnessEvents, t.coverage, t.bugsFound, t.runsToBug,
        static_cast<unsigned long long>(fnv1a(summary)));
    return buf;
}

/** Correctness gate: every cell ran and reached its expected verdict. */
void
gate(const Plan &plan, const Round &round, Outcome &out)
{
    for (const CampaignResult &r : round.results) {
        ++out.attempted;
        const std::string cell =
            "cell bug=" + r.spec.bug + " seed=" + std::to_string(r.spec.seed);
        if (!r.ok())
            out.fail(cell + ": error: " + r.error);
        else if (plan.hunt && !r.harness.bugFound)
            out.fail(cell + ": injected bug not detected within " +
                     std::to_string(r.spec.maxTestRuns) + " test-runs");
        else if (!plan.hunt && r.harness.bugFound)
            out.fail(cell + ": violation on a bug-free design: " +
                     r.harness.detail);
    }
}

/** Same-seed rounds must reproduce the first round's summary exactly. */
void
gateRepeat(const std::string &expected, const std::string &actual,
           const char *what, Outcome &out)
{
    ++out.attempted;
    if (actual != expected)
        out.fail(std::string(what) +
                 ": timing-free summary differs from the first round's");
}

EndToEnd
endToEnd(const Plan &plan, const std::vector<Round> &rounds)
{
    EndToEnd e;
    std::vector<double> tests_per_s;
    std::vector<double> events_per_s;
    std::vector<double> to_verdict;
    for (const Round &round : rounds) {
        const Totals t(round.results);
        tests_per_s.push_back(t.testRuns / round.wall());
        events_per_s.push_back(t.witnessEvents / round.wall());
        // Host seconds until each cell's verdict: its first detection
        // when hunting, the end of its budget on a bug-free design.
        to_verdict.push_back(plan.hunt ? t.wallToBug : t.harnessWall);
    }
    const Totals first(rounds.front().results);
    e.testsPerS = median(tests_per_s);
    e.memEventsPerS = median(events_per_s);
    e.timeToBugS = median(to_verdict);
    const double cells = static_cast<double>(plan.cells.size());
    e.detectFrac = plan.hunt ? first.bugsFound / cells
                             : (cells - first.bugsFound) / cells;
    e.runsToBug = plan.hunt ? first.runsToBug : first.testRuns;
    e.coverage = first.coverage;
    return e;
}

PerLayer
perLayer(const Round &round, const Tracer &tracer, int run,
         const ParallelSamples &samples, bool streaming)
{
    const Totals t(round.results);
    PerLayer p;
    p.gpGenerateS = tracer.total("gp.generate", run);
    p.gpReportS = tracer.total("gp.report", run);
    p.gpFitnessS = tracer.total("gp.fitness", run);
    const double cell_s = tracer.total("campaign.cell", run);
    p.gpShare = cell_s > 0.0
                    ? (p.gpGenerateS + p.gpReportS + p.gpFitnessS) / cell_s
                    : 0.0;
    p.mcCheckS = t.checkSeconds;
    const double serial_s = tracer.total("host.run_test", run);
    // Serial: runOne minus the checking it reports. Parallel: the
    // harness run minus generation; lanes check concurrently, so their
    // summed check seconds are not subtracted from wall time.
    p.hostRunTestS = serial_s > 0.0
                         ? serial_s - t.checkSeconds
                         : tracer.self("host.parallel_run", run);
    std::vector<double> ms = samples.batchMsPerTest;
    for (const double d : tracer.durations("host.run_test", run))
        ms.push_back(d * 1e3);
    p.hostRunTestMsP50 = percentile(ms, 50.0);
    p.hostRunTestMsP99 = percentile(ms, 99.0);
    p.hostRunTestSamples = static_cast<double>(ms.size());
    if (!samples.laneImbalance.empty())
        p.hostLaneImbalance = median(samples.laneImbalance);
    p.simEvents = t.simEvents;
    p.simEventsPerMemEvent = t.simEvents / t.witnessEvents;
    p.simMessagesPerMemEvent = t.messages / t.witnessEvents;
    p.simTicksPerTest = t.simTicks / t.testRuns;
    p.simNsPerEvent = p.hostRunTestS / t.simEvents * 1e9;
    const double check_ns = t.checkSeconds / t.witnessEvents * 1e9;
    (streaming ? p.mcStreamingNsPerEvent : p.mcPosthocNsPerEvent) =
        check_ns;
    p.mcCacheHitRate =
        t.cacheLookups > 0.0 ? t.cacheHits / t.cacheLookups : 0.0;
    p.mcEventsUntilDetectionP50 =
        percentile(t.eventsUntilDetection, 50.0);
    return p;
}

/** Seconds runOne spent outside the harness run, per cell. */
double
cellOverhead(const Round &round)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < round.results.size(); ++i)
        sum += round.cellWall[i] - round.results[i].harness.wallSeconds;
    return sum / static_cast<double>(round.results.size());
}

Outcome
runPlan(const Plan &plan, const Options &options, Tracer &tracer)
{
    Outcome out;
    std::vector<double> setups;
    for (int i = 0; i < plan.setupRepeats; ++i)
        setups.push_back(timeSetup(plan));

    const bool streaming = plan.cells.front().checkMode == "streaming";
    const bool parallel = plan.cells.front().usesParallelHarness();
    std::vector<Round> untraced;
    std::vector<double> traced_walls;
    std::vector<PerLayer> layers;
    std::string expected;
    const auto t0 = Clock::now();
    // Untraced runs measure untraced rounds only. Traced runs alternate
    // untraced and traced rounds, so the tracing overhead is measured
    // under the same conditions as the per-layer figures.
    do {
        untraced.push_back(untracedRound(plan));
        const Round &round = untraced.back();
        gate(plan, round, out);
        if (expected.empty())
            expected = round.summary();
        else
            gateRepeat(expected, round.summary(), "repeated round", out);

        if (options.trace) {
            const int run = static_cast<int>(traced_walls.size());
            tracer.setRun(run);
            Round traced;
            ParallelSamples samples;
            for (const CampaignSpec &spec : plan.cells) {
                traced.results.push_back(
                    parallel ? tracedParallelCell(spec, plan.evalThreads,
                                                  tracer, samples)
                             : tracedSerialCell(spec, tracer));
            }
            traced_walls.push_back(tracer.total("campaign.cell", run));
            gateRepeat(expected, traced.summary(), "traced round", out);
            layers.push_back(
                perLayer(traced, tracer, run, samples, streaming));
        }
    } while (secondsSince(t0) < options.seconds);

    out.untracedRounds = static_cast<int>(untraced.size());
    out.tracedRounds = static_cast<int>(traced_walls.size());
    out.fingerprint = fingerprintJson(untraced.front());
    out.endToEnd = endToEnd(plan, untraced);
    out.endToEnd.setupS = median(setups);
    out.endToEnd.peakRssMb = peakRssMb();
    if (!options.trace)
        return out;

    std::vector<double> untraced_walls;
    std::vector<double> overheads;
    for (const Round &round : untraced) {
        untraced_walls.push_back(round.wall());
        overheads.push_back(cellOverhead(round));
    }
    const double base = median(untraced_walls);
    const double overhead = median(traced_walls) - base;
    double speedup = 1.0;
    if (parallel && plan.evalThreads > 1) {
        // The same cell on one eval thread: byte-identical summary
        // required, and the wall-time ratio is the parallel speedup.
        Plan single = plan;
        single.evalThreads = 1;
        const Round one = untracedRound(single);
        gateRepeat(expected, one.summary(), "eval-threads=1 round", out);
        speedup = one.wall() / base;
    }
    std::vector<Metrics> samples;
    for (PerLayer &p : layers) {
        p.hostParallelSpeedup = speedup;
        p.campaignCellOverheadS = median(overheads);
        p.traceOverheadS = overhead;
        p.traceOverheadFrac = overhead / base;
        samples.push_back(p.metrics());
    }
    out.perLayer = medianMetrics(samples);
    return out;
}

} // namespace

Outcome
runCampaignClean(const Options &options, Tracer &tracer)
{
    return runPlan(cleanPlan(options.seed), options, tracer);
}

Outcome
runIslandsParallel(const Options &options, Tracer &tracer)
{
    return runPlan(islandsPlan(options.seed), options, tracer);
}

Outcome
runBugHunt(const Options &options, Tracer &tracer)
{
    return runPlan(huntPlan(options.seed), options, tracer);
}

} // namespace perfbench
