/**
 * @file
 * The benchmark's workloads and the metrics every workload reports.
 *
 * Every workload reports the same end-to-end metrics (EndToEnd) and,
 * in a traced run, the same per-layer metrics (PerLayer); README.md
 * gives each metric's meaning on each workload. Keeping the sets in two
 * structs makes a missing metric a compile error, not a silent gap.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "host/harness.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {

/** One invocation of the benchmark. */
struct Options
{
    std::string workload;
    /** Workload seed: every input is derived from it. */
    std::uint64_t seed = 1;
    /** Minimum measured time; whole rounds run until it has elapsed. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** End-to-end metrics (tracing off). */
struct EndToEnd
{
    double testsPerS = 0.0;
    double memEventsPerS = 0.0;
    double timeToBugS = 0.0;
    double detectFrac = 0.0;
    double runsToBug = 0.0;
    double coverage = 0.0;
    double setupS = 0.0;
    double peakRssMb = 0.0;

    Metrics metrics() const;
};

/**
 * Per-layer metrics of one traced round. Entries a workload does not
 * exercise stay 0, except the two parallel ratios, which are 1 on a
 * single lane and a single thread.
 */
struct PerLayer
{
    double gpGenerateS = 0.0;
    double gpReportS = 0.0;
    double gpFitnessS = 0.0;
    double gpShare = 0.0;
    double hostRunTestS = 0.0;
    double hostRunTestMsP50 = 0.0;
    double hostRunTestMsP99 = 0.0;
    double hostRunTestSamples = 0.0;
    double hostParallelSpeedup = 1.0;
    double hostLaneImbalance = 1.0;
    double simEvents = 0.0;
    double simEventsPerMemEvent = 0.0;
    double simMessagesPerMemEvent = 0.0;
    double simTicksPerTest = 0.0;
    double simNsPerEvent = 0.0;
    double mcCheckS = 0.0;
    double mcPosthocNsPerEvent = 0.0;
    double mcStreamingNsPerEvent = 0.0;
    double mcFinalizeNsPerEvent = 0.0;
    double mcCacheHitRate = 0.0;
    double mcEventsUntilDetectionP50 = 0.0;
    double campaignCellOverheadS = 0.0;
    double traceOverheadS = 0.0;
    double traceOverheadFrac = 0.0;

    Metrics metrics() const;
};

/** What one invocation measured and checked. */
struct Outcome
{
    /** Outcomes checked: cells, witness verdicts, count comparisons. */
    std::uint64_t attempted = 0;
    /** One line per wrong or failed outcome. */
    std::vector<std::string> failures;
    EndToEnd endToEnd;
    /** Per-layer metrics: the median of each over the traced rounds. */
    Metrics perLayer;
    /**
     * Simulated-statistics fingerprint (a JSON object): deterministic
     * for a seed, so a simulator-only change must leave it identical.
     */
    std::string fingerprint;
    int untracedRounds = 0;
    int tracedRounds = 0;

    void fail(std::string why) { failures.push_back(std::move(why)); }
};

/** A serial campaign cell's test source and harness. */
struct SerialCell
{
    std::unique_ptr<mcversi::host::TestSource> source;
    std::unique_ptr<mcversi::host::VerificationHarness> harness;
};

/**
 * Build @p spec's source and serial harness as CampaignRunner::runOne
 * does, under a "campaign.setup" span.
 */
SerialCell buildSerialCell(const mcversi::campaign::CampaignSpec &spec,
                           Tracer &tracer);

/**
 * One iteration of VerificationHarness::run -- TestSource::next,
 * runOne, fitness().evaluate, TestSource::report -- each call under a
 * span ("gp.generate", "host.run_test", "gp.fitness", "gp.report").
 */
mcversi::host::RunResult
tracedStep(SerialCell &cell, Tracer &tracer,
           const mcversi::host::ConditionFn &condition = nullptr);

/** Derive the @p stream-th input seed from the workload seed. */
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t stream);

/** Worker threads available to the process (>= 1). */
int hardwareThreads();

Outcome runCampaignClean(const Options &options, Tracer &tracer);
Outcome runIslandsParallel(const Options &options, Tracer &tracer);
Outcome runBugHunt(const Options &options, Tracer &tracer);
Outcome runWitnessCheck(const Options &options, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
