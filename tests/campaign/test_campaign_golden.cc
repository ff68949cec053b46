/**
 * @file
 * Golden regression for campaign-summary determinism.
 *
 * Runs a fixed small campaign matrix and compares the timing-free JSON
 * export byte-for-byte against a checked-in golden file. This pins the
 * entire pipeline -- test generation, simulation, witness recording,
 * checking, coverage accounting, aggregation, JSON formatting -- to a
 * single deterministic artifact: any unintended behavioral change in a
 * refactor shows up as a byte diff here.
 *
 * The golden was generated with the pre-flattening seed checker and
 * re-verified byte-identical under the flattened hot path (the only
 * regeneration since was for the LQ writeback-window notification fix,
 * a deliberate behavioral change; see git history of this file's
 * golden). To regenerate after an intentional change, run this test
 * and copy the summary the failure message points at, or rebuild the
 * matrix below through CampaignRunner and write toJson(false) to
 * tests/campaign/golden_summary.json.
 *
 * A second golden pins the timed exports, toJson(true) and
 * toCsv(true), on a hand-built summary: a bug found with a streaming
 * detection latency, an error row, non-finite doubles, a fitness
 * trajectory, and strings that need JSON escaping and CSV quoting.
 * Its files were generated before the exporters were rewritten over
 * campaign/schema.hh and must not change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/runner.hh"

using namespace mcversi;
using namespace mcversi::campaign;

namespace {

std::vector<CampaignSpec>
goldenMatrix()
{
    CampaignMatrix matrix;
    matrix.base.testSize = 64;
    matrix.base.iterations = 2;
    matrix.base.memSize = 1024;
    matrix.base.population = 8;
    matrix.base.maxTestRuns = 3;
    matrix.bugs = {"none"};
    matrix.generators = {"McVerSi-ALL", "McVerSi-RAND"};
    matrix.seeds = {1, 2};
    std::vector<CampaignSpec> specs = matrix.expand();

    CampaignSpec litmus = matrix.base;
    litmus.bug = "none";
    litmus.generator = "diy-litmus";
    litmus.litmusIterations = 2;
    litmus.maxTestRuns = 2;
    specs.push_back(litmus);
    return specs;
}

std::string
readGolden(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Compares @p text with the golden at @p path (or rewrites it). */
void
expectGolden(const std::string &text, const char *path)
{
    if (std::getenv("MCVERSI_UPDATE_GOLDEN") != nullptr) {
        std::ofstream outf(path, std::ios::binary);
        outf << text;
        ASSERT_TRUE(outf.good()) << "failed to write " << path;
        GTEST_SKIP() << "golden regenerated at " << path;
    }
    const std::string golden = readGolden(path);
    ASSERT_FALSE(golden.empty()) << "missing golden file: " << path;
    EXPECT_EQ(text, golden)
        << "campaign summary diverged from the golden artifact; if the "
           "change is intentional, write the new summary to "
        << path;
}

/** Hand-built summary exercising every rendering rule of the export. */
CampaignSummary
timedSummary()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    CampaignSummary summary;

    CampaignResult found;
    found.spec.bug = "MESI,LQ+IS,Inv";
    found.spec.generator = "McVerSi-Std.XO";
    found.spec.seed = 17;
    found.spec.protocol = "mesi";
    found.spec.model = "pso";
    found.spec.maxWallSeconds = 0.1;
    found.spec.recordNdt = true;
    found.spec.checkMode = "streaming";
    found.spec.witnessWindow = 4096;
    found.protocolCoverage = 0.6202531646;
    host::HarnessResult &h = found.harness;
    h.bugFound = true;
    h.detail = "cycle: \"R a=1\" -> W\\b\n\tnext\x01";
    h.testRuns = 300;
    h.testRunsToBug = 227;
    h.eventsUntilDetection = 4242;
    h.wallSeconds = 1.0 / 3.0;
    h.wallSecondsToBug = 0.25;
    h.checkSeconds = 0.0123456789012;
    h.simTicks = 123456789;
    h.eventsExecuted = 65536;
    h.simEvents = 999999;
    h.messagesSent = 31337;
    h.totalCoverage = 0.1 + 0.2;
    h.checkCacheHits = 17;
    h.checkCacheMisses = 4079;
    h.distinctInterleavings = 57;
    h.meanFitness = 0.73;
    h.fitnessTrajectory = {0.1, 1.0 / 7.0, nan, inf, -0.0};
    h.ndtHistory = {0.5, 0.25};
    summary.results.push_back(found);

    CampaignResult degenerate;
    degenerate.spec.generator = "McVerSi-RAND";
    degenerate.spec.seed = 2;
    degenerate.spec.maxTestRuns = 0;
    degenerate.spec.maxWallSeconds = 2.5;
    degenerate.harness.meanFitness = nan;
    degenerate.harness.totalCoverage = inf;
    degenerate.harness.wallSecondsToBug = -inf;
    degenerate.protocolCoverage = nan;
    summary.results.push_back(degenerate);

    CampaignResult error_row;
    error_row.spec.bug = "no,such \"bug\"";
    error_row.spec.generator = "diy-litmus";
    error_row.error = "campaign spec: unknown bug 'no,such \"bug\"'\n"
                      "second line\r";
    summary.results.push_back(error_row);
    return summary;
}

} // namespace

TEST(CampaignGolden, SummaryJsonIsByteIdenticalToGolden)
{
    CampaignRunner::Options options;
    options.threads = 2;
    const CampaignSummary summary =
        CampaignRunner(options).run(goldenMatrix());
    ASSERT_EQ(summary.errors(), 0u);

    expectGolden(summary.toJson(false), MCVERSI_CAMPAIGN_GOLDEN_PATH);
}

TEST(CampaignGolden, TimedJsonIsByteIdenticalToGolden)
{
    expectGolden(timedSummary().toJson(true),
                 MCVERSI_CAMPAIGN_TIMED_JSON_PATH);
}

TEST(CampaignGolden, TimedCsvIsByteIdenticalToGolden)
{
    expectGolden(timedSummary().toCsv(true),
                 MCVERSI_CAMPAIGN_TIMED_CSV_PATH);
}
