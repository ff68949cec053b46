/**
 * @file
 * Fleet coordinator end-to-end: the multi-process campaign must be a
 * pure robustness wrapper -- for ANY worker count, kill schedule,
 * timeout, retry, or resume split, the merged timing-free summary is
 * byte-identical to the single-process CampaignRunner's. The tests
 * exercise the real failure paths: SIGKILLed workers, hanging cells
 * (via the worker's env-var test hook), retry exhaustion degrading to
 * an error row, journal duplicates, and matrix-mismatch rejection.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "campaign/runner.hh"
#include "fleet/coordinator.hh"
#include "fleet/journal.hh"
#include "fleet/wire.hh"

using namespace mcversi;
using namespace mcversi::fleet;

namespace {

/** Fresh run directory per test (removed up front, not after, so a
 * failing test leaves its journal behind for inspection). */
std::string
makeRunDir(const std::string &name)
{
    std::string dir = "/tmp/mcversi_fleet_test_" + name + "_" +
                      std::to_string(static_cast<unsigned long>(
                          ::getpid()));
    std::filesystem::remove_all(dir);
    return dir;
}

/** Small-but-real 4-cell matrix (idiom of test_campaign_runner.cc). */
std::vector<campaign::CampaignSpec>
smallMatrix()
{
    campaign::CampaignMatrix matrix;
    matrix.base.testSize = 64;
    matrix.base.iterations = 2;
    matrix.base.memSize = 1024;
    matrix.base.population = 8;
    matrix.base.maxTestRuns = 3;
    matrix.bugs = {"SQ+no-FIFO", "none"};
    matrix.generators = {"McVerSi-RAND"};
    matrix.seeds = {1, 2};
    return matrix.expand();
}

/** The single-process reference summary the fleet must reproduce. */
const campaign::CampaignSummary &
referenceSummary()
{
    static const campaign::CampaignSummary summary = [] {
        campaign::CampaignRunner::Options options;
        options.threads = 1;
        return campaign::CampaignRunner(options).run(smallMatrix());
    }();
    return summary;
}

/** RAII env var for the worker's hang test hook. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

} // namespace

TEST(Fleet, MatchesTheInProcessRunnerByteForByte)
{
    const auto specs = smallMatrix();
    const std::string expected = referenceSummary().toJson(false);

    for (const int workers : {1, 3}) {
        FleetCoordinator::Options options;
        options.workers = workers;
        options.runDir =
            makeRunDir("identity_w" + std::to_string(workers));
        FleetReport report = FleetCoordinator(options).run(specs);

        EXPECT_FALSE(report.interrupted);
        EXPECT_EQ(report.cellsTotal, specs.size());
        EXPECT_EQ(report.cellsRun, specs.size());
        EXPECT_EQ(report.cellErrors, 0u);
        EXPECT_EQ(report.summary.toJson(false), expected)
            << "workers=" << workers;
        EXPECT_EQ(report.summary.toCsv(false),
                  referenceSummary().toCsv(false));
    }
}

TEST(Fleet, StreamingDetectionLatencyCrossesTheWire)
{
    // A streaming cell records how many events the checker consumed
    // before it flagged the bug; the fleet must carry that number back
    // like every other outcome field.
    std::vector<campaign::CampaignSpec> specs = {smallMatrix().front()};
    specs[0].maxTestRuns = 300;
    specs[0].checkMode = "streaming";
    campaign::CampaignRunner::Options in_process;
    in_process.threads = 1;
    const campaign::CampaignSummary reference =
        campaign::CampaignRunner(in_process).run(specs);
    ASSERT_TRUE(reference.results[0].harness.bugFound);
    ASSERT_GT(reference.results[0].harness.eventsUntilDetection, 0u);

    FleetCoordinator::Options options;
    options.workers = 2;
    options.runDir = makeRunDir("streaming");
    const FleetReport report = FleetCoordinator(options).run(specs);
    EXPECT_EQ(report.cellErrors, 0u);
    EXPECT_EQ(report.summary.toJson(false), reference.toJson(false));
}

TEST(Fleet, ResumeContinuesASlicedRunToTheIdenticalSummary)
{
    const auto specs = smallMatrix();
    const std::string dir = makeRunDir("resume");

    // First run stops cleanly after 2 cells (a stand-in for SIGTERM:
    // the same journal-then-stop path).
    FleetCoordinator::Options first;
    first.workers = 2;
    first.runDir = dir;
    first.maxCells = 2;
    FleetReport half = FleetCoordinator(first).run(specs);
    EXPECT_TRUE(half.interrupted);
    // In-flight cells drain when the slice trips, so 2 or 3 complete.
    EXPECT_GE(half.cellsRun, 2u);
    EXPECT_LT(half.cellsRun, specs.size());
    // Unfinished cells surface as resumable error rows, not silence.
    EXPECT_EQ(half.summary.campaigns(), specs.size());

    // Without resume=1 the journal refuses to be overwritten.
    FleetCoordinator::Options blocked;
    blocked.workers = 1;
    blocked.runDir = dir;
    EXPECT_THROW(FleetCoordinator(blocked).run(specs), FleetError);

    // Resume runs only the missing cells...
    FleetCoordinator::Options second;
    second.workers = 2;
    second.runDir = dir;
    second.resume = true;
    FleetReport full = FleetCoordinator(second).run(specs);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.cellsResumed, half.cellsRun);
    EXPECT_EQ(full.cellsRun, specs.size() - half.cellsRun);
    // ...and the stitched summary is byte-identical to one-shot.
    EXPECT_EQ(full.summary.toJson(false),
              referenceSummary().toJson(false));

    // Resuming a COMPLETE journal runs nothing and still matches.
    FleetReport again = FleetCoordinator(second).run(specs);
    EXPECT_EQ(again.cellsResumed, specs.size());
    EXPECT_EQ(again.cellsRun, 0u);
    EXPECT_EQ(again.summary.toJson(false),
              referenceSummary().toJson(false));
}

TEST(Fleet, SigkilledWorkersAreReplacedWithoutChangingTheSummary)
{
    const auto specs = smallMatrix();

    FleetCoordinator::Options options;
    options.workers = 2;
    options.runDir = makeRunDir("kill");
    std::vector<pid_t> initial;
    options.onWorkerSpawn = [&initial](int, pid_t pid) {
        if (initial.size() < 2)
            initial.push_back(pid);
    };
    bool killed = false;
    options.onResult = [&](const campaign::CampaignResult &,
                           std::size_t, std::size_t) {
        if (killed)
            return;
        killed = true;
        // First durable result: SIGKILL the whole initial pool. Any
        // in-flight cell must be retried on replacement workers.
        for (const pid_t pid : initial)
            ::kill(pid, SIGKILL);
    };
    FleetReport report = FleetCoordinator(options).run(specs);

    EXPECT_TRUE(killed);
    EXPECT_GE(report.workerCrashes, 1u);
    EXPECT_GE(report.respawns, 1u);
    EXPECT_EQ(report.cellErrors, 0u);
    EXPECT_EQ(report.summary.toJson(false),
              referenceSummary().toJson(false));
}

TEST(Fleet, HangingCellTimesOutAndSucceedsOnRetry)
{
    const auto specs = smallMatrix();
    // Cell 0 hangs forever on attempt 1, then behaves.
    ScopedEnv hang("MCVERSI_FLEET_TEST_HANG_CELL", "0");
    ScopedEnv max_attempt("MCVERSI_FLEET_TEST_HANG_MAX_ATTEMPT", "1");

    FleetCoordinator::Options options;
    options.workers = 2;
    options.runDir = makeRunDir("hang_retry");
    options.cellTimeoutSeconds = 3.0;
    FleetReport report = FleetCoordinator(options).run(specs);

    EXPECT_GE(report.timeouts, 1u);
    EXPECT_GE(report.retriesScheduled, 1u);
    EXPECT_EQ(report.cellErrors, 0u);
    EXPECT_EQ(report.summary.toJson(false),
              referenceSummary().toJson(false));
}

TEST(Fleet, ExhaustedRetriesDegradeToAnErrorRowWithWorkerStderr)
{
    const auto specs = smallMatrix();
    // Cell 0 hangs on EVERY attempt; the campaign must keep going.
    ScopedEnv hang("MCVERSI_FLEET_TEST_HANG_CELL", "0");
    ScopedEnv max_attempt("MCVERSI_FLEET_TEST_HANG_MAX_ATTEMPT", "99");

    FleetCoordinator::Options options;
    options.workers = 2;
    options.retries = 1;
    options.runDir = makeRunDir("hang_exhaust");
    options.cellTimeoutSeconds = 3.0;
    FleetReport report = FleetCoordinator(options).run(specs);

    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.cellErrors, 1u);
    EXPECT_EQ(report.cellsRun, specs.size());
    ASSERT_EQ(report.summary.campaigns(), specs.size());
    const campaign::CampaignResult &bad = report.summary.results[0];
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("2 attempt"), std::string::npos)
        << bad.error;
    // The error row carries the worker's captured stderr.
    EXPECT_NE(bad.error.find("test hook hanging"), std::string::npos)
        << bad.error;
    // Every OTHER cell still matches the reference bit-for-bit.
    for (std::size_t i = 1; i < specs.size(); ++i) {
        campaign::CampaignSummary got;
        got.results.push_back(report.summary.results[i]);
        campaign::CampaignSummary want;
        want.results.push_back(referenceSummary().results[i]);
        EXPECT_EQ(got.toJson(false), want.toJson(false))
            << "cell " << i;
    }
}

TEST(Fleet, ReplayKeepsTheLastRecordPerCell)
{
    const auto specs = smallMatrix();
    const std::string dir = makeRunDir("replay_dup");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = journalPath(dir);

    MetaRecord meta;
    meta.cells = specs.size();
    meta.fingerprint = matrixFingerprint(specs);

    CellRecord first;
    first.cell = 0;
    first.attempt = 1;
    first.spec = specs[0].toString();
    first.result.harness.testRuns = 5;

    CellRecord second = first;
    second.attempt = 2;
    second.result.harness.testRuns = 9;

    JournalWriter writer;
    writer.open(path);
    writer.append(encodeMeta(meta));
    writer.append(encodeCell(first));
    writer.append(encodeCell(second));
    writer.close();

    std::map<std::size_t, campaign::CampaignResult> completed;
    const ReplayStats stats = replayJournal(path, specs, completed);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.applied, 2u);
    EXPECT_EQ(stats.duplicates, 1u);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].harness.testRuns, 9u);
    // The replayed result is re-attached to its in-memory spec.
    EXPECT_EQ(completed[0].spec.toString(), specs[0].toString());
}

TEST(Fleet, ReplayRejectsAJournalFromADifferentMatrix)
{
    const auto specs = smallMatrix();
    const std::string dir = makeRunDir("replay_mismatch");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = journalPath(dir);

    // Journal written for a DIFFERENT matrix (one cell fewer).
    auto other = specs;
    other.pop_back();
    MetaRecord meta;
    meta.cells = other.size();
    meta.fingerprint = matrixFingerprint(other);
    JournalWriter writer;
    writer.open(path);
    writer.append(encodeMeta(meta));
    writer.close();

    std::map<std::size_t, campaign::CampaignResult> completed;
    EXPECT_THROW(replayJournal(path, specs, completed), FleetError);

    // A non-journal file is rejected too, not silently merged.
    std::filesystem::remove(path);
    JournalWriter writer2;
    writer2.open(path);
    writer2.append("cell=0 spec=not-a-meta-record");
    writer2.close();
    EXPECT_THROW(replayJournal(path, specs, completed), FleetError);
}

TEST(Fleet, TornJournalTailReRunsTheTornCellOnResume)
{
    const auto specs = smallMatrix();
    const std::string dir = makeRunDir("torn_resume");

    // Complete run, then tear the final record's last bytes off --
    // exactly what a SIGKILL mid-append leaves behind.
    FleetCoordinator::Options options;
    options.workers = 1;
    options.runDir = dir;
    FleetReport whole = FleetCoordinator(options).run(specs);
    EXPECT_EQ(whole.cellsRun, specs.size());

    const std::string path = journalPath(dir);
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 10);

    options.resume = true;
    FleetReport resumed = FleetCoordinator(options).run(specs);
    EXPECT_EQ(resumed.journalDropped, 1u);
    EXPECT_EQ(resumed.cellsResumed, specs.size() - 1u);
    EXPECT_EQ(resumed.cellsRun, 1u);
    EXPECT_EQ(resumed.summary.toJson(false),
              referenceSummary().toJson(false));
}
