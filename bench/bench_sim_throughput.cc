/**
 * @file
 * End-to-end simulation throughput bench.
 *
 * McVerSi's premise is that simulation throughput bounds how much of
 * the coverage frontier a campaign can explore. This bench measures
 * the whole per-test loop -- generate (RandomSource), simulate (cores,
 * caches, mesh, memory on the DES kernel), record the witness, check
 * -- and reports tests/sec, kernel events/sec and us/kernel-event per
 * scenario, plus an aggregate. It is the repo's end-to-end perf
 * trajectory anchor: BENCH_sim.json records baseline-vs-current pairs
 * measured with this source on the same machine.
 *
 * Scenarios cover both protocols at two test sizes; events/sec is the
 * DES-kernel dispatch rate (EventQueue::processed), the quantity the
 * typed-event/time-wheel kernel optimizes. The 1 KiB scenarios never
 * fill an L2 set; the *-8k ones use the campaigns' default 8 KiB test
 * memory, which puts 16 candidate lines in each 4-way set, so they
 * exercise requests stalled for a way (stall-and-wake).
 *
 * Output: JSON (schema below) written to BENCH_sim.json (override with
 * MCVERSI_BENCH_JSON). MCVERSI_BENCH_SCALE scales the per-scenario
 * test-run budget.
 *
 *   {
 *     "bench": "sim_throughput", "schema": 1,
 *     "scenarios": [{"name", "protocol", "testSize", "iterations",
 *                    "memSize", "testRuns", "simEvents", "simTicks",
 *                    "seconds", "testsPerSec", "simEventsPerSec",
 *                    "usPerEvent"},
 *                   ...],
 *     "aggregate": {"testsPerSec", "simEventsPerSec", "usPerEvent"}
 *   }
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "host/harness.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

struct Scenario
{
    const char *name;
    sim::Protocol protocol;
    int testSize;
    int iterations;
    Addr memSize;
    std::uint64_t systemSeed;
    std::uint64_t sourceSeed;
    std::uint64_t testRuns; ///< budget before MCVERSI_BENCH_SCALE
};

constexpr Scenario kScenarios[] = {
    {"mesi-96", sim::Protocol::Mesi, 96, 4, 1024, 101, 11, 30},
    {"mesi-256", sim::Protocol::Mesi, 256, 8, 1024, 102, 12, 10},
    {"tsocc-96", sim::Protocol::Tsocc, 96, 4, 1024, 103, 13, 30},
    {"tsocc-256", sim::Protocol::Tsocc, 256, 8, 1024, 104, 14, 10},
    {"mesi-256-8k", sim::Protocol::Mesi, 256, 4, 8192, 105, 15, 10},
    {"tsocc-256-8k", sim::Protocol::Tsocc, 256, 4, 8192, 106, 16, 10},
};

struct ScenarioResult
{
    const Scenario *scenario = nullptr;
    std::uint64_t testRuns = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t simTicks = 0;
    double seconds = 0.0;

    double
    testsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(testRuns) / seconds
                             : 0.0;
    }

    double
    simEventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(simEvents) / seconds
                             : 0.0;
    }

    double
    usPerEvent() const
    {
        return simEvents > 0
                   ? seconds * 1e6 / static_cast<double>(simEvents)
                   : 0.0;
    }
};

ScenarioResult
runScenario(const Scenario &sc)
{
    VerificationHarness::Params params;
    params.system.protocol = sc.protocol;
    params.system.seed = sc.systemSeed;
    params.gen.testSize = sc.testSize;
    params.gen.iterations = sc.iterations;
    params.gen.memSize = sc.memSize;
    params.workload.iterations = params.gen.iterations;
    params.recordNdt = false;

    RandomSource source(params.gen, sc.sourceSeed);
    VerificationHarness harness(params, source);

    const auto budget_runs = static_cast<std::uint64_t>(
        static_cast<double>(sc.testRuns) * mcvbench::benchScale());

    // Warmup: one test-run populates pools, caches and coverage
    // structures so the measurement sees steady state.
    Budget warm;
    warm.maxTestRuns = 1;
    if (harness.run(warm).bugFound) {
        std::fprintf(stderr, "bench scenario '%s' found a bug on the "
                             "clean system; broken build\n",
                     sc.name);
        std::exit(1);
    }

    const std::uint64_t events0 =
        harness.system().eventQueue().processed();
    const Tick ticks0 = harness.system().eventQueue().now();

    Budget budget;
    budget.maxTestRuns = budget_runs;
    const auto t0 = std::chrono::steady_clock::now();
    const HarnessResult result = harness.run(budget);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (result.bugFound)
        std::exit(1); // Unreachable on a clean system.

    ScenarioResult res;
    res.scenario = &sc;
    res.testRuns = result.testRuns;
    res.simEvents =
        harness.system().eventQueue().processed() - events0;
    res.simTicks = harness.system().eventQueue().now() - ticks0;
    res.seconds = seconds;
    return res;
}

std::string
toJson(const std::vector<ScenarioResult> &results)
{
    char buf[512];
    std::string out = "{\n  \"bench\": \"sim_throughput\",\n"
                      "  \"schema\": 1,\n  \"scenarios\": [\n";
    std::uint64_t total_tests = 0;
    std::uint64_t total_events = 0;
    double total_seconds = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        const Scenario &sc = *r.scenario;
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"protocol\": \"%s\", "
            "\"testSize\": %d, \"iterations\": %d, "
            "\"memSize\": %" PRIu64 ", \"testRuns\": %" PRIu64
            ", \"simEvents\": %" PRIu64 ", \"simTicks\": %" PRIu64
            ", \"seconds\": %.6f, "
            "\"testsPerSec\": %.1f, \"simEventsPerSec\": %.0f, "
            "\"usPerEvent\": %.4f}%s\n",
            sc.name,
            sc.protocol == sim::Protocol::Mesi ? "MESI" : "TSO-CC",
            sc.testSize, sc.iterations,
            static_cast<std::uint64_t>(sc.memSize), r.testRuns, r.simEvents,
            r.simTicks, r.seconds, r.testsPerSec(), r.simEventsPerSec(),
            r.usPerEvent(), i + 1 < results.size() ? "," : "");
        out += buf;
        total_tests += r.testRuns;
        total_events += r.simEvents;
        total_seconds += r.seconds;
    }
    const double agg_tests =
        total_seconds > 0.0
            ? static_cast<double>(total_tests) / total_seconds
            : 0.0;
    const double agg_events =
        total_seconds > 0.0
            ? static_cast<double>(total_events) / total_seconds
            : 0.0;
    const double agg_us =
        total_events > 0
            ? total_seconds * 1e6 / static_cast<double>(total_events)
            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"aggregate\": {\"testsPerSec\": %.1f, "
                  "\"simEventsPerSec\": %.0f, \"usPerEvent\": %.4f}\n}\n",
                  agg_tests, agg_events, agg_us);
    out += buf;
    return out;
}

} // namespace

int
main()
{
    std::vector<ScenarioResult> results;
    for (const Scenario &sc : kScenarios) {
        results.push_back(runScenario(sc));
        const ScenarioResult &r = results.back();
        std::printf("%-12s %8" PRIu64 " runs %12" PRIu64
                    " events  %8.3fs  %8.1f tests/s  %10.0f ev/s  "
                    "%.4f us/ev\n",
                    r.scenario->name, r.testRuns, r.simEvents, r.seconds,
                    r.testsPerSec(), r.simEventsPerSec(), r.usPerEvent());
    }

    const std::string json = toJson(results);
    const char *path = std::getenv("MCVERSI_BENCH_JSON");
    if (path == nullptr)
        path = "BENCH_sim.json";
    std::ofstream out(path, std::ios::binary);
    out << json;
    std::printf("wrote %s\n", path);
    return 0;
}
