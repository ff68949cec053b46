/**
 * @file
 * Generation-engine throughput bench: the serial steady-state GA
 * (one island, batch of one) vs the batched island-model
 * EvolutionEngine.
 *
 * Two measurements over the same seed set:
 *
 *  - Full pipeline: generate -> simulate -> check campaigns through the
 *    serial VerificationHarness (islands=1, batch=1, 1 thread) and
 *    through the batched ParallelHarness (islands x batch, N worker
 *    threads). Aggregate tests/sec on each side; the speedup is the
 *    headline number. Thread scaling needs real cores -- the report
 *    records hardwareConcurrency so a 1-core container's ~1x is
 *    interpretable.
 *
 *  - Generation only: the EvolutionEngine with one island and batches
 *    of one vs islands x batch, with a synthetic fitness (no
 *    simulation), isolating batch amortization from simulator cost.
 *    Single-threaded on both sides, so this speedup is core-count
 *    independent.
 *
 * Also re-runs one batched campaign with eval-threads 1 and N and
 * byte-compares the timing-free summaries (the determinism contract).
 *
 * Output: JSON written to BENCH_gen.json (override with
 * MCVERSI_BENCH_JSON). MCVERSI_BENCH_SCALE scales the budgets;
 * MCVERSI_BENCH_THREADS overrides the parallel worker count.
 *
 *   {
 *     "bench": "gen_throughput", "schema": 1,
 *     "hardwareConcurrency": N,
 *     "pipeline": {
 *       "serial":   {"scenarios": [...], "aggregateTestsPerSec": X},
 *       "parallel": {"islands", "batch", "threads",
 *                    "scenarios": [...], "aggregateTestsPerSec": X},
 *       "speedup": X
 *     },
 *     "generationOnly": {"serialTestsPerSec", "batchedTestsPerSec",
 *                        "speedup"},
 *     "determinism": {"evalThreads1VsNIdentical": true}
 *   }
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "host/parallel_harness.hh"

using namespace mcversi;
using namespace mcversi::host;

namespace {

constexpr std::uint64_t kSeeds[] = {21, 22, 23};
constexpr std::size_t kIslands = 8;
constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kMigration = 64;
constexpr std::uint64_t kRunsPerSeed = 192;

VerificationHarness::Params
pipelineParams(std::uint64_t seed)
{
    VerificationHarness::Params p;
    p.system.seed = seed;
    p.gen.testSize = 128;
    p.gen.iterations = 2;
    p.gen.memSize = 1024;
    p.workload.iterations = 2;
    p.recordNdt = false;
    return p;
}

gp::GaParams
benchGa()
{
    gp::GaParams ga;
    ga.population = 16;
    return ga;
}

struct SeedResult
{
    std::uint64_t seed = 0;
    std::uint64_t testRuns = 0;
    std::uint64_t simEvents = 0;
    double seconds = 0.0;
};

double
aggregateTestsPerSec(const std::vector<SeedResult> &results)
{
    std::uint64_t runs = 0;
    double seconds = 0.0;
    for (const SeedResult &r : results) {
        runs += r.testRuns;
        seconds += r.seconds;
    }
    return seconds > 0.0 ? static_cast<double>(runs) / seconds : 0.0;
}

SeedResult
runSerialPipeline(std::uint64_t seed, std::uint64_t budget_runs)
{
    auto params = pipelineParams(seed);
    GaSource source(benchGa(), params.gen, seed, gp::XoMode::Selective);
    VerificationHarness harness(params, source);

    Budget warm;
    warm.maxTestRuns = 8;
    harness.run(warm);

    Budget budget;
    budget.maxTestRuns = budget_runs;
    const auto t0 = std::chrono::steady_clock::now();
    const HarnessResult result = harness.run(budget);
    SeedResult out;
    out.seed = seed;
    out.testRuns = result.testRuns;
    out.simEvents = result.simEvents;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

SeedResult
runParallelPipeline(std::uint64_t seed, std::uint64_t budget_runs,
                    int threads)
{
    auto params = pipelineParams(seed);
    gp::EvolutionParams evo;
    evo.islands = kIslands;
    evo.migrationInterval = kMigration;
    GaSource source(benchGa(), params.gen, seed, gp::XoMode::Selective,
                    evo);
    ParallelHarness::Params pp;
    pp.harness = params;
    pp.lanes = kIslands;
    pp.batch = kBatch;
    pp.threads = threads;
    ParallelHarness harness(pp, source);

    Budget warm;
    warm.maxTestRuns = kBatch;
    harness.run(warm);

    Budget budget;
    budget.maxTestRuns = budget_runs;
    const auto t0 = std::chrono::steady_clock::now();
    const HarnessResult result = harness.run(budget);
    SeedResult out;
    out.seed = seed;
    out.testRuns = result.testRuns;
    out.simEvents = result.simEvents;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

/** Synthetic fitness for the generation-only loop (content-derived). */
double
pseudoFitness(std::uint64_t fingerprint)
{
    return static_cast<double>(fingerprint % 1000) / 1000.0;
}

double
genOnlySerial(std::uint64_t evals)
{
    gp::GenParams gen;
    gen.testSize = 128;
    gen.memSize = 1024;
    // One island, one test per batch: the paper's serial GA.
    gp::EvolutionEngine engine(benchGa(), gen, 1);
    gp::EvolutionEngine::TestRef ref;
    gp::EvalResult result;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < evals; ++i) {
        engine.nextBatch({&ref, 1});
        result.fitness =
            pseudoFitness(gp::fingerprintNodes(engine.genome(ref)));
        result.nd = gp::NdInfo{1.0, {}};
        engine.reportBatch({&result, 1});
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return seconds > 0.0 ? static_cast<double>(evals) / seconds : 0.0;
}

double
genOnlyBatched(std::uint64_t evals)
{
    gp::GenParams gen;
    gen.testSize = 128;
    gen.memSize = 1024;
    gp::EvolutionParams evo;
    evo.islands = kIslands;
    evo.migrationInterval = kMigration;
    gp::EvolutionEngine engine(benchGa(), gen, 1,
                               gp::XoMode::Selective, evo);
    std::vector<gp::EvolutionEngine::TestRef> refs(kBatch);
    std::vector<gp::EvalResult> results(kBatch);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    while (done < evals) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBatch, evals - done));
        engine.nextBatch({refs.data(), n});
        for (std::size_t i = 0; i < n; ++i) {
            results[i].fitness = pseudoFitness(
                gp::fingerprintNodes(engine.genome(refs[i])));
            results[i].nd = gp::NdInfo{1.0, {}};
        }
        engine.reportBatch({results.data(), n});
        done += n;
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return seconds > 0.0 ? static_cast<double>(evals) / seconds : 0.0;
}

bool
determinismCheck(int threads)
{
    campaign::CampaignSpec spec;
    spec.bug = "none";
    spec.generator = "McVerSi-ALL";
    spec.testSize = 64;
    spec.iterations = 2;
    spec.memSize = 1024;
    spec.population = 8;
    spec.islands = 4;
    spec.batch = 8;
    spec.migration = 32;
    spec.maxTestRuns = 64;
    spec.seed = 17;

    std::string json[2];
    const int counts[2] = {1, threads};
    for (int i = 0; i < 2; ++i) {
        campaign::CampaignRunner::Options options;
        options.threads = 1;
        options.evalThreads = counts[i];
        json[i] = campaign::CampaignRunner(options)
                      .run({spec})
                      .toJson(false);
    }
    return json[0] == json[1];
}

void
appendScenarios(std::string &out, const std::vector<SeedResult> &results)
{
    char buf[192];
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SeedResult &r = results[i];
        std::snprintf(
            buf, sizeof(buf),
            "        {\"seed\": %" PRIu64 ", \"testRuns\": %" PRIu64
            ", \"simEvents\": %" PRIu64 ", \"seconds\": %.6f, "
            "\"testsPerSec\": %.1f}%s\n",
            r.seed, r.testRuns, r.simEvents, r.seconds,
            r.seconds > 0.0
                ? static_cast<double>(r.testRuns) / r.seconds
                : 0.0,
            i + 1 < results.size() ? "," : "");
        out += buf;
    }
}

} // namespace

int
main()
{
    const int hardware = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    int threads = static_cast<int>(mcvbench::benchThreads());
    if (threads <= 0)
        threads = 8;

    const auto budget_runs = static_cast<std::uint64_t>(
        static_cast<double>(kRunsPerSeed) * mcvbench::benchScale());

    std::vector<SeedResult> serial;
    std::vector<SeedResult> parallel;
    for (const std::uint64_t seed : kSeeds) {
        serial.push_back(runSerialPipeline(seed, budget_runs));
        const SeedResult &s = serial.back();
        std::printf("serial   seed=%-4" PRIu64 " %6" PRIu64
                    " runs  %8.3fs  %8.1f tests/s\n",
                    s.seed, s.testRuns, s.seconds,
                    s.seconds > 0.0
                        ? static_cast<double>(s.testRuns) / s.seconds
                        : 0.0);
    }
    for (const std::uint64_t seed : kSeeds) {
        parallel.push_back(
            runParallelPipeline(seed, budget_runs, threads));
        const SeedResult &p = parallel.back();
        std::printf("parallel seed=%-4" PRIu64 " %6" PRIu64
                    " runs  %8.3fs  %8.1f tests/s\n",
                    p.seed, p.testRuns, p.seconds,
                    p.seconds > 0.0
                        ? static_cast<double>(p.testRuns) / p.seconds
                        : 0.0);
    }

    const double serial_tps = aggregateTestsPerSec(serial);
    const double parallel_tps = aggregateTestsPerSec(parallel);
    const double speedup =
        serial_tps > 0.0 ? parallel_tps / serial_tps : 0.0;

    const auto gen_evals = static_cast<std::uint64_t>(
        20000.0 * mcvbench::benchScale());
    const double gen_serial = genOnlySerial(gen_evals);
    const double gen_batched = genOnlyBatched(gen_evals);
    const double gen_speedup =
        gen_serial > 0.0 ? gen_batched / gen_serial : 0.0;

    const bool identical = determinismCheck(threads);

    std::printf("\npipeline:   %.1f -> %.1f tests/s (%.2fx, %d threads, "
                "%d hardware cores)\n",
                serial_tps, parallel_tps, speedup, threads, hardware);
    std::printf("gen-only:   %.0f -> %.0f tests/s (%.2fx, slab pool + "
                "batching, single-threaded)\n",
                gen_serial, gen_batched, gen_speedup);
    std::printf("determinism: eval-threads 1 vs %d summaries %s\n",
                threads, identical ? "IDENTICAL" : "DIVERGED");

    char buf[512];
    std::string json = "{\n  \"bench\": \"gen_throughput\",\n"
                       "  \"schema\": 1,\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"hardwareConcurrency\": %d,\n", hardware);
    json += buf;
    json += "  \"pipeline\": {\n    \"serial\": {\n"
            "      \"scenarios\": [\n";
    appendScenarios(json, serial);
    std::snprintf(buf, sizeof(buf),
                  "      ],\n      \"aggregateTestsPerSec\": %.1f\n"
                  "    },\n",
                  serial_tps);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"parallel\": {\n      \"islands\": %zu, "
                  "\"batch\": %zu, \"threads\": %d,\n"
                  "      \"scenarios\": [\n",
                  kIslands, kBatch, threads);
    json += buf;
    appendScenarios(json, parallel);
    std::snprintf(buf, sizeof(buf),
                  "      ],\n      \"aggregateTestsPerSec\": %.1f\n"
                  "    },\n    \"speedup\": %.3f\n  },\n",
                  parallel_tps, speedup);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"generationOnly\": {\"serialTestsPerSec\": %.0f, "
                  "\"batchedTestsPerSec\": %.0f, \"speedup\": %.3f},\n",
                  gen_serial, gen_batched, gen_speedup);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"determinism\": {\"evalThreads1VsNIdentical\": "
                  "%s}\n}\n",
                  identical ? "true" : "false");
    json += buf;

    const char *path = std::getenv("MCVERSI_BENCH_JSON");
    if (path == nullptr)
        path = "BENCH_gen.json";
    std::ofstream out(path, std::ios::binary);
    out << json;
    std::printf("wrote %s\n", path);
    return identical ? 0 : 1;
}
