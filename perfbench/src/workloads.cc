#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "campaign/registry.hh"
#include "common/rng.hh"

namespace perfbench {

Metrics
EndToEnd::metrics() const
{
    return {
        {"tests_per_s", testsPerS, "test-runs/s"},
        {"mem_events_per_s", memEventsPerS, "events/s"},
        {"time_to_bug_s", timeToBugS, "s"},
        {"detect_frac", detectFrac, "ratio"},
        {"runs_to_bug", runsToBug, "test-runs"},
        {"coverage", coverage, "ratio"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb, "MiB"},
    };
}

Metrics
PerLayer::metrics() const
{
    return {
        {"gp.generate_s", gpGenerateS, "s"},
        {"gp.report_s", gpReportS, "s"},
        {"gp.fitness_s", gpFitnessS, "s"},
        {"gp.share", gpShare, "ratio"},
        {"host.run_test_s", hostRunTestS, "s"},
        {"host.run_test_ms_p50", hostRunTestMsP50, "ms"},
        {"host.run_test_ms_p99", hostRunTestMsP99, "ms"},
        {"host.run_test_samples", hostRunTestSamples, "count"},
        {"host.parallel_speedup", hostParallelSpeedup, "ratio"},
        {"host.lane_imbalance", hostLaneImbalance, "ratio"},
        {"sim.events", simEvents, "count"},
        {"sim.events_per_mem_event", simEventsPerMemEvent, "ratio"},
        {"sim.messages_per_mem_event", simMessagesPerMemEvent, "ratio"},
        {"sim.ticks_per_test", simTicksPerTest, "ticks"},
        {"sim.ns_per_event", simNsPerEvent, "ns"},
        {"mc.check_s", mcCheckS, "s"},
        {"mc.posthoc_ns_per_event", mcPosthocNsPerEvent, "ns"},
        {"mc.streaming_ns_per_event", mcStreamingNsPerEvent, "ns"},
        {"mc.finalize_ns_per_event", mcFinalizeNsPerEvent, "ns"},
        {"mc.cache_hit_rate", mcCacheHitRate, "ratio"},
        {"mc.events_until_detection_p50", mcEventsUntilDetectionP50,
         "events"},
        {"campaign.cell_overhead_s", campaignCellOverheadS, "s"},
        {"trace.overhead_s", traceOverheadS, "s"},
        {"trace.overhead_frac", traceOverheadFrac, "ratio"},
    };
}

SerialCell
buildSerialCell(const mcversi::campaign::CampaignSpec &spec, Tracer &tracer)
{
    Span span(tracer, "campaign.setup");
    SerialCell cell;
    cell.source = mcversi::campaign::SourceRegistry::instance().make(
        spec.generator, spec);
    cell.harness = std::make_unique<mcversi::host::VerificationHarness>(
        spec.harnessParams(), *cell.source);
    return cell;
}

mcversi::host::RunResult
tracedStep(SerialCell &cell, Tracer &tracer,
           const mcversi::host::ConditionFn &condition)
{
    mcversi::gp::Test test;
    {
        Span span(tracer, "gp.generate");
        test = cell.source->next();
    }
    mcversi::host::RunResult run;
    {
        Span span(tracer, "host.run_test");
        run = cell.harness->runOne(test, condition);
    }
    mcversi::host::RunFeedback feedback;
    {
        Span span(tracer, "gp.fitness");
        feedback.coverageFitness = cell.harness->fitness().evaluate(
            run.preRunCounts, run.coveredTransitions, run.newInterleavings);
    }
    feedback.nd = run.nd;
    {
        Span span(tracer, "gp.report");
        cell.source->report(feedback);
    }
    return run;
}

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t stream)
{
    // Stream 0 of Rng::streamSeed is the seed itself; start at 1 so no
    // derived input reuses the workload seed verbatim.
    return mcversi::Rng::streamSeed(seed, stream + 1);
}

int
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench
