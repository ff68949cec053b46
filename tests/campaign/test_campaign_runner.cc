/**
 * @file
 * CampaignRunner determinism: extends the per-run seed-determinism
 * guarantee of tests/sim/test_rng_determinism.cc to the campaign
 * layer. The same expanded matrix run with 1 worker thread and with N
 * worker threads must produce byte-identical aggregated summaries
 * (timing excluded -- wall-clock is the one legitimately
 * non-deterministic output), because every campaign owns an
 * independent System + Checker + source seeded only from its spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "campaign/registry.hh"
#include "campaign/runner.hh"

using namespace mcversi;
using namespace mcversi::campaign;

namespace {

/** Small-but-real matrix: 2 bugs x 2 generators x 2 seeds + litmus. */
std::vector<CampaignSpec>
quickstartMatrix()
{
    CampaignMatrix matrix;
    matrix.base.testSize = 64;
    matrix.base.iterations = 2;
    matrix.base.memSize = 1024;
    matrix.base.population = 8;
    matrix.base.maxTestRuns = 3;
    matrix.bugs = {"SQ+no-FIFO", "none"};
    matrix.generators = {"McVerSi-ALL", "McVerSi-RAND"};
    matrix.seeds = {1, 2};
    std::vector<CampaignSpec> specs = matrix.expand();

    CampaignSpec litmus = matrix.base;
    litmus.bug = "MESI,LQ+IS,Inv";
    litmus.generator = "diy-litmus";
    litmus.litmusIterations = 2;
    litmus.maxTestRuns = 2;
    specs.push_back(litmus);
    return specs;
}

} // namespace

TEST(CampaignRunner, WorkerCountDoesNotChangeTheSummary)
{
    const std::vector<CampaignSpec> specs = quickstartMatrix();

    CampaignRunner::Options serial;
    serial.threads = 1;
    const CampaignSummary s1 = CampaignRunner(serial).run(specs);

    CampaignRunner::Options parallel;
    parallel.threads = 8;
    const CampaignSummary s8 = CampaignRunner(parallel).run(specs);

    ASSERT_EQ(s1.campaigns(), specs.size());
    ASSERT_EQ(s8.campaigns(), specs.size());
    EXPECT_EQ(s1.errors(), 0u);
    // Timing-free exports must be byte-identical.
    EXPECT_EQ(s1.toJson(false), s8.toJson(false));
    EXPECT_EQ(s1.toCsv(false), s8.toCsv(false));
    // And a repeat serial run reproduces itself exactly.
    const CampaignSummary again = CampaignRunner(serial).run(specs);
    EXPECT_EQ(s1.toJson(false), again.toJson(false));
}

TEST(CampaignRunner, SummaryByteIdenticalAcrossEvalThreadsAndIslands)
{
    // The ISSUE's determinism matrix: eval-threads {1, 8} x islands
    // {1, 4}. For every island count, the timing-free summary must be
    // byte-identical no matter how many workers evaluate each batch.
    for (const std::size_t islands : {std::size_t{1}, std::size_t{4}}) {
        CampaignSpec spec;
        spec.bug = "none";
        spec.generator = "McVerSi-ALL";
        spec.testSize = 64;
        spec.iterations = 2;
        spec.memSize = 1024;
        spec.population = 8;
        spec.islands = islands;
        spec.migration = 16;
        spec.batch = islands > 1 ? 8 : 1;
        spec.maxTestRuns = 32;
        spec.seed = 5;

        CampaignSummary byThreads[2];
        const int thread_counts[2] = {1, 8};
        for (int t = 0; t < 2; ++t) {
            CampaignRunner::Options options;
            options.threads = 1;
            options.evalThreads = thread_counts[t];
            byThreads[t] = CampaignRunner(options).run({spec});
            ASSERT_EQ(byThreads[t].errors(), 0u)
                << byThreads[t].results[0].error;
        }
        EXPECT_EQ(byThreads[0].toJson(false), byThreads[1].toJson(false))
            << "islands=" << islands;
        EXPECT_EQ(byThreads[0].toCsv(false), byThreads[1].toCsv(false))
            << "islands=" << islands;
    }
}

TEST(CampaignRunner, ParallelSpecFindsInjectedBugDeterministically)
{
    CampaignSpec spec;
    spec.bug = "SQ+no-FIFO";
    spec.generator = "McVerSi-RAND";
    spec.testSize = 96;
    spec.iterations = 3;
    spec.memSize = 1024;
    spec.seed = 2;
    spec.islands = 2;
    spec.batch = 8;
    spec.maxTestRuns = 400;

    const CampaignResult a = CampaignRunner::runOne(spec, 1);
    const CampaignResult b = CampaignRunner::runOne(spec, 4);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_TRUE(a.harness.bugFound);
    EXPECT_EQ(a.harness.testRunsToBug, b.harness.testRunsToBug);
    EXPECT_EQ(a.harness.simTicks, b.harness.simTicks);
    EXPECT_EQ(a.harness.detail, b.harness.detail);
    EXPECT_EQ(a.protocolCoverage, b.protocolCoverage);
}

TEST(CampaignRunner, ResultsStayInSpecOrder)
{
    const std::vector<CampaignSpec> specs = quickstartMatrix();
    CampaignRunner::Options options;
    options.threads = 4;
    const CampaignSummary summary = CampaignRunner(options).run(specs);
    ASSERT_EQ(summary.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(summary.results[i].spec, specs[i]) << "index " << i;
}

TEST(CampaignRunner, ProgressCallbackSeesEveryCompletion)
{
    const std::vector<CampaignSpec> specs = quickstartMatrix();
    std::atomic<std::size_t> calls{0};
    std::size_t last_done = 0;
    CampaignRunner::Options options;
    options.threads = 4;
    options.onResult = [&](const CampaignResult &, std::size_t done,
                           std::size_t total) {
        ++calls;
        last_done = std::max(last_done, done);
        EXPECT_EQ(total, specs.size());
    };
    CampaignRunner(options).run(specs);
    EXPECT_EQ(calls.load(), specs.size());
    EXPECT_EQ(last_done, specs.size());
}

TEST(CampaignRunner, BadSpecsAreReportedNotThrown)
{
    CampaignSpec good;
    good.bug = "SQ+no-FIFO";
    good.generator = "McVerSi-RAND";
    good.testSize = 64;
    good.iterations = 2;
    good.memSize = 1024;
    good.maxTestRuns = 2;

    CampaignSpec bad = good;
    bad.generator = "no-such-generator";

    CampaignRunner runner;
    const CampaignSummary summary = runner.run({good, bad});
    ASSERT_EQ(summary.campaigns(), 2u);
    EXPECT_TRUE(summary.results[0].ok());
    EXPECT_FALSE(summary.results[1].ok());
    EXPECT_NE(summary.results[1].error.find("no-such-generator"),
              std::string::npos);
    EXPECT_EQ(summary.errors(), 1u);

    // The error lands in both machine-readable exports.
    EXPECT_NE(summary.toJson().find("no-such-generator"),
              std::string::npos);
    EXPECT_NE(summary.toCsv().find("no-such-generator"),
              std::string::npos);
}

TEST(CampaignRunner, BugCampaignFindsTheBugDeterministically)
{
    CampaignSpec spec;
    spec.bug = "SQ+no-FIFO";
    spec.generator = "McVerSi-RAND";
    spec.testSize = 96;
    spec.iterations = 3;
    spec.memSize = 1024;
    spec.seed = 2;
    spec.maxTestRuns = 400;

    const CampaignResult a = CampaignRunner::runOne(spec);
    const CampaignResult b = CampaignRunner::runOne(spec);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(a.harness.bugFound);
    EXPECT_EQ(a.harness.testRunsToBug, b.harness.testRunsToBug);
    EXPECT_EQ(a.harness.simTicks, b.harness.simTicks);
    EXPECT_EQ(a.harness.detail, b.harness.detail);
    EXPECT_EQ(a.protocolCoverage, b.protocolCoverage);
}

TEST(CampaignSummary, NonFiniteDoublesExportAsNullAndEmptyFields)
{
    // Degenerate cells (0/0 means, zero-wall-time rates) produce NaN
    // and inf doubles; bare "nan"/"inf" tokens are not valid JSON and
    // would poison downstream consumers of the CSV as well.
    CampaignSummary summary;
    CampaignResult r;
    r.harness.meanFitness = std::nan("");
    r.harness.totalCoverage = std::numeric_limits<double>::infinity();
    r.harness.wallSeconds = -std::numeric_limits<double>::infinity();
    r.protocolCoverage = 0.5;
    summary.results.push_back(r);

    const std::string json = summary.toJson(true);
    EXPECT_NE(json.find("\"mean_fitness\":null"), std::string::npos);
    EXPECT_NE(json.find("\"total_coverage\":null"), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\":null"), std::string::npos);
    // Finite neighbours still print as numbers...
    EXPECT_NE(json.find("\"protocol_coverage\":0.5"),
              std::string::npos);
    // ...and no bare non-JSON tokens survive anywhere.
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);

    // CSV: the same cells round-trip as empty fields in the right
    // columns.
    const std::string csv = summary.toCsv(true);
    const auto split = [](const std::string &line) {
        std::vector<std::string> fields;
        std::size_t start = 0;
        while (true) {
            const std::size_t comma = line.find(',', start);
            fields.push_back(line.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        return fields;
    };
    const std::size_t eol = csv.find('\n');
    ASSERT_NE(eol, std::string::npos);
    const std::vector<std::string> header = split(csv.substr(0, eol));
    const std::size_t eor = csv.find('\n', eol + 1);
    const std::vector<std::string> row =
        split(csv.substr(eol + 1, eor - eol - 1));
    ASSERT_EQ(row.size(), header.size());
    auto field = [&](const std::string &name) {
        const auto it = std::find(header.begin(), header.end(), name);
        EXPECT_NE(it, header.end()) << name;
        return row[static_cast<std::size_t>(it - header.begin())];
    };
    EXPECT_EQ(field("mean_fitness"), "");
    EXPECT_EQ(field("total_coverage"), "");
    EXPECT_EQ(field("wall_seconds"), "");
    EXPECT_EQ(field("protocol_coverage"), "0.5");
    EXPECT_EQ(csv.find("nan"), std::string::npos);
    EXPECT_EQ(csv.find("inf"), std::string::npos);
}

TEST(CampaignSummary, CsvQuotesEveryStringField)
{
    // Error rows keep whatever protocol/model strings were assigned
    // directly (validate() is what rejects them), so those columns are
    // quoted like every other string column.
    CampaignSummary summary;
    CampaignResult r;
    r.spec.protocol = "mesi,tsocc";
    r.spec.model = "t\"so";
    r.error = "campaign spec: protocol must be auto, mesi, or tsocc";
    summary.results.push_back(r);
    const std::string csv = summary.toCsv(false);
    EXPECT_NE(csv.find(",\"mesi,tsocc\",\"t\"\"so\","), std::string::npos)
        << csv;

    // An empty leading column still gets its separator.
    CampaignSummary blank;
    blank.results.emplace_back();
    blank.results[0].spec.bug.clear();
    const std::string rows = blank.toCsv(true);
    const std::string header = rows.substr(0, rows.find('\n'));
    const std::string row = rows.substr(header.size() + 1);
    EXPECT_EQ(row[0], ',') << row;
    EXPECT_EQ(std::count(row.begin(), row.end(), ','),
              std::count(header.begin(), header.end(), ','));
}

TEST(CampaignRunner, WindowedCampaignMatchesUnboundedWhenNothingDrops)
{
    // A witness window large enough to retain every iteration's stream
    // must not change campaign behavior at all: per-test verdicts are
    // byte-identical by the checker's differential suite, and the GA
    // trajectory (which feeds on the NDT fitness signal accumulated
    // from the finalized witness) must match too -- the windowed path
    // replays the retained ring into scratch for exactly this reason.
    CampaignSpec spec;
    spec.bug = "MESI,LQ+IS,Inv";
    spec.generator = "McVerSi-ALL";
    spec.seed = 1;
    spec.testSize = 96;
    spec.iterations = 2;
    spec.memSize = 1024;
    spec.population = 16;
    spec.maxTestRuns = 25;
    spec.maxWallSeconds = 120.0;
    spec.checkMode = "streaming";

    CampaignSpec windowed = spec;
    windowed.witnessWindow = 8192;

    const CampaignResult unbounded = CampaignRunner::runOne(spec);
    const CampaignResult ringed = CampaignRunner::runOne(windowed);
    ASSERT_TRUE(unbounded.ok()) << unbounded.error;
    ASSERT_TRUE(ringed.ok()) << ringed.error;
    EXPECT_TRUE(unbounded.harness.bugFound);
    EXPECT_EQ(ringed.harness.bugFound, unbounded.harness.bugFound);
    EXPECT_EQ(ringed.harness.testRunsToBug,
              unbounded.harness.testRunsToBug);
    EXPECT_EQ(ringed.harness.eventsUntilDetection,
              unbounded.harness.eventsUntilDetection);
    EXPECT_EQ(ringed.harness.eventsExecuted,
              unbounded.harness.eventsExecuted);
    EXPECT_EQ(ringed.harness.detail, unbounded.harness.detail);
}

TEST(CampaignSummary, ZeroEventCampaignsExportNullCheckCost)
{
    // A campaign that never executed an event (budget exhausted before
    // the first test, or interrupted immediately) has no per-event
    // checking cost: check_us_per_event must render as JSON null / an
    // empty CSV cell, never as a 0/0 nan token.
    CampaignSummary summary;
    CampaignResult r;
    r.spec.checkMode = "streaming";
    r.spec.witnessWindow = 4096;
    r.harness.eventsExecuted = 0;
    r.harness.checkSeconds = 0.0;
    summary.results.push_back(r);

    const std::string json = summary.toJson(true);
    EXPECT_NE(json.find("\"check_us_per_event\":null"),
              std::string::npos);
    // The bounded-window knob is part of the exported spec echo.
    EXPECT_NE(json.find("\"witness_window\":4096"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);

    const std::string csv = summary.toCsv(true);
    const std::size_t eol = csv.find('\n');
    ASSERT_NE(eol, std::string::npos);
    const std::string header = csv.substr(0, eol);
    const std::size_t eor = csv.find('\n', eol + 1);
    const std::string row = csv.substr(eol + 1, eor - eol - 1);
    const auto column = [](const std::string &line,
                           const std::string &upto) {
        // Count commas before the named field / field position.
        return static_cast<std::size_t>(
            std::count(line.begin(),
                       line.begin() +
                           static_cast<std::ptrdiff_t>(line.find(upto)),
                       ','));
    };
    ASSERT_NE(header.find("check_us_per_event"), std::string::npos);
    const std::size_t col = column(header, "check_us_per_event");
    std::size_t start = 0;
    for (std::size_t c = 0; c < col; ++c)
        start = row.find(',', start) + 1;
    const std::size_t end = row.find(',', start);
    EXPECT_EQ(row.substr(start, end - start), "");
    EXPECT_EQ(csv.find("nan"), std::string::npos);
}

TEST(CampaignRunner, TsoccStrayRecallAckIsAProtocolErrorNotACrash)
{
    // This cell delivers a RecallAckNoData to a TSO-CC L2 line with no
    // cache entry, no pending eviction and no expected stale ack; the
    // L2 used to dereference the missing entry. The seed depends on
    // simulated timing: it was re-chosen when stalled L2 requests
    // switched from 16-tick polling to stall-and-wake.
    CampaignSpec spec;
    spec.bug = "TSO-CC+no-epoch-ids";
    spec.seed = 620;
    const CampaignResult result = CampaignRunner::runOne(spec);
    EXPECT_EQ(result.error, "");
    EXPECT_TRUE(result.harness.bugFound);
    EXPECT_NE(result.harness.detail.find("RecallAckNoData"),
              std::string::npos)
        << result.harness.detail;
}
