/**
 * @file
 * mcversi_campaign: CLI driver for the Campaign API.
 *
 * Describes a campaign matrix with key=value arguments, runs it either
 * in-process on a worker-thread pool or -- with workers= / run-dir= --
 * as a fault-tolerant multi-process fleet (crash-safe result journal,
 * per-cell timeouts, straggler retry, resume), prints a per-campaign
 * table plus totals, and optionally writes the machine-readable
 * JSON/CSV summary (atomically: write-to-temp + rename).
 *
 * Matrix keys (lists are ';'-separated since bug names contain commas):
 *   bugs=<name;...|all|mesi|tsocc>   generators=<name;...|all>
 *   models=<name;...|all>            seeds=<lo..hi|s;s;...>
 * Runner keys:
 *   threads=N (>= 1; omit for hardware)  json=FILE  csv=FILE  quiet=1
 * Fleet keys (any may be written --key=value as well):
 *   workers=N run-dir=DIR resume=0|1 retries=N cell-timeout=SECONDS
 * Every other key=value is a CampaignSpec setting (see --help).
 *
 * Exit codes (all error text goes to stderr):
 *   0    success
 *   1    usage / spec-parse error
 *   2    campaign-cell error rows in the merged summary
 *   3    fleet or worker-pool failure (run dir, journal, I/O)
 *   130  interrupted (SIGINT/SIGTERM); resume=1 continues the run
 *
 * Example (the CI fleet datapoint):
 *   mcversi_campaign "bugs=MESI,LQ+IS,Inv;SQ+no-FIFO" \
 *       "generators=McVerSi-ALL;McVerSi-RAND" seeds=1..2 \
 *       test-size=96 iterations=2 mem-size=1024 population=16 \
 *       max-runs=60 workers=4 run-dir=fleet-run timing=0 \
 *       json=campaign.json
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcversi.hh"

using namespace mcversi;

namespace {

// Distinct exit codes, so CI and scripts can tell a bad invocation
// from a failed cell from a broken fleet (see file header).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitCellError = 2;
constexpr int kExitFleet = 3;
constexpr int kExitInterrupted = 130;

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "%s",
        "usage: mcversi_campaign [key=value ...]\n"
        "\n"
        "Matrix keys (lists use ';' separators):\n"
        "  bugs=<name;...|all|mesi|tsocc>  bug axis (default: base bug)\n"
        "  generators=<name;...|all>       generator axis\n"
        "  models=<name;...|all>           consistency-model axis\n"
        "  seeds=<lo..hi|s1;s2;...>        seed axis\n"
        "\n"
        "Runner keys:\n"
        "  threads=N      worker threads across specs, N >= 1 (omit\n"
        "                 the key for hardware concurrency; ignored in\n"
        "                 fleet mode)\n"
        "  eval-threads=N worker threads inside one spec's batch\n"
        "                 evaluation, N >= 1 (default 1; summaries\n"
        "                 are byte-identical for any value)\n"
        "  json=FILE      write the JSON summary (atomic tmp+rename)\n"
        "  csv=FILE       write the CSV summary (atomic tmp+rename)\n"
        "  timing=0|1     include wall-clock fields in JSON/CSV (1);\n"
        "                 timing=0 output is byte-identical across\n"
        "                 runs, thread counts, and fleet worker counts\n"
        "  quiet=1        suppress per-campaign progress lines\n"
        "\n"
        "Fleet keys (multi-process; --key=value also accepted):\n"
        "  workers=N        fork N worker processes; cells shard\n"
        "                   dynamically and every completed cell is\n"
        "                   streamed into a crash-safe journal\n"
        "  run-dir=DIR      run directory (journal + worker logs);\n"
        "                   required in fleet mode\n"
        "  resume=0|1       replay DIR's journal, run only missing\n"
        "                   cells (default 0)\n"
        "  retries=N        extra attempts for a cell whose worker\n"
        "                   crashed or timed out (default 2); a cell\n"
        "                   that exhausts them becomes an error row\n"
        "  cell-timeout=SEC kill a worker whose cell exceeds SEC\n"
        "                   wall-clock seconds and retry the cell\n"
        "                   (default 0 = no timeout)\n"
        "\n"
        "Campaign spec keys (defaults in parentheses):\n"
        "  bug=NAME (none)            generator=NAME (McVerSi-ALL)\n"
        "  seed=N (1)                 protocol=auto|mesi|tsocc (auto)\n"
        "  model=NAME (tso)           consistency model the checker\n"
        "                             verifies against (--list-models)\n"
        "  test-size=N (256)          iterations=N (4)\n"
        "  mem-size=N[k] (8192)       stride=N (16)\n"
        "  guest-threads=N (8)        population=N (50, per island)\n"
        "  islands=N (1)              migration=N evals (256, 0 = off)\n"
        "  batch=N (1)                \n"
        "  max-runs=N (1000)          max-seconds=X (0 = unlimited)\n"
        "  litmus-iterations=N (12)   record-ndt=0|1 (0)\n"
        "  check-cache=N[k]|off (4096)  verdict-cache entries per\n"
        "                             checker (collective checking)\n"
        "  check-mode=posthoc|streaming (posthoc)\n"
        "  witness-window=N[k]|off (off)  bounded-window streaming:\n"
        "                             retire resolved events older\n"
        "                             than the last N recorded ones,\n"
        "                             keeping soak-run memory\n"
        "                             O(window); needs\n"
        "                             check-mode=streaming\n"
        "\n"
        "islands>1 or batch>1 selects the batched multi-lane harness:\n"
        "one simulation lane per island, eval-threads workers.\n"
        "\n"
        "Exit codes: 0 ok, 1 usage/spec error, 2 cell error rows,\n"
        "3 fleet/worker failure, 130 interrupted (resumable).\n"
        "\n"
        "Flags: --help, --list-bugs, --list-generators, --list-models\n");
}

void
listBugs()
{
    std::printf("%-24s %-8s %s\n", "Name", "Protocol", "Real");
    for (const sim::BugInfo &info : sim::allBugs()) {
        const char *kind =
            info.protocol == sim::ProtocolKind::Mesi    ? "MESI"
            : info.protocol == sim::ProtocolKind::Tsocc ? "TSO-CC"
                                                        : "any";
        std::printf("%-24s %-8s %s\n", info.name, kind,
                    info.real ? "*" : "");
    }
}

void
listGenerators()
{
    for (const std::string &name :
         campaign::SourceRegistry::instance().names()) {
        std::printf("%s\n", name.c_str());
    }
}

void
listModels()
{
    for (const std::string &name : mc::modelNames())
        std::printf("%s\n", name.c_str());
}

/** Atomic summary export: a crash mid-write never leaves a torn
 * file (fleet::writeFileAtomic = tmp + fsync + rename). */
bool
exportFile(const std::string &path, const std::string &content)
{
    std::string err;
    if (!fleet::writeFileAtomic(path, content, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return false;
    }
    return true;
}

/** One stderr line per finished cell (in-process and fleet). */
void
printProgress(const campaign::CampaignResult &r, std::size_t done,
              std::size_t total)
{
    std::fprintf(stderr, "[%zu/%zu] %s %s %s seed=%llu: %s\n", done, total,
                 r.spec.bug.c_str(), r.spec.generator.c_str(),
                 r.spec.model.c_str(),
                 static_cast<unsigned long long>(r.spec.seed),
                 !r.ok()              ? "ERROR"
                 : r.harness.bugFound ? "bug found"
                                      : "no bug");
}

void
printTable(const campaign::CampaignSummary &summary)
{
    std::printf("%-24s %-16s %-6s %-8s %-6s %-10s %-12s %s\n", "Bug",
                "Generator", "Model", "Seed", "Found", "Runs(bug)",
                "Coverage", "Status");
    for (const campaign::CampaignResult &r : summary.results) {
        char runs[24];
        if (r.harness.bugFound) {
            std::snprintf(runs, sizeof(runs), "%llu",
                          static_cast<unsigned long long>(
                              r.harness.testRunsToBug));
        } else {
            std::snprintf(runs, sizeof(runs), "-");
        }
        char coverage[16];
        std::snprintf(coverage, sizeof(coverage), "%.1f%%",
                      100.0 * r.protocolCoverage);
        std::printf("%-24s %-16s %-6s %-8llu %-6s %-10s %-12s %s\n",
                    r.spec.bug.c_str(), r.spec.generator.c_str(),
                    r.spec.model.c_str(),
                    static_cast<unsigned long long>(r.spec.seed),
                    r.harness.bugFound ? "yes" : "no", runs, coverage,
                    r.ok() ? "ok" : r.error.c_str());
    }
    const double wall = summary.totalWallSeconds();
    std::printf("\n%zu campaigns, %zu bugs found, %zu errors, "
                "%llu test-runs, %.1f s total sim wall-clock "
                "(%.1f tests/s aggregate)\n",
                summary.campaigns(), summary.bugsFound(),
                summary.errors(),
                static_cast<unsigned long long>(summary.totalTestRuns()),
                wall,
                wall > 0.0
                    ? static_cast<double>(summary.totalTestRuns()) / wall
                    : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    campaign::CampaignMatrix matrix;
    int threads = 0;
    int eval_threads = 1;
    bool quiet = false;
    bool include_timing = true;
    std::string json_path;
    std::string csv_path;

    // Fleet mode is selected by workers= and/or run-dir=.
    bool fleet_mode = false;
    fleet::FleetCoordinator::Options fleet_options;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return kExitOk;
            }
            if (arg == "--list-bugs") {
                listBugs();
                return kExitOk;
            }
            if (arg == "--list-generators") {
                listGenerators();
                return kExitOk;
            }
            if (arg == "--list-models") {
                listModels();
                return kExitOk;
            }
            // Fleet keys read naturally as flags: accept --key=value
            // for any key.
            if (arg.size() > 2 && arg.compare(0, 2, "--") == 0 &&
                arg.find('=') != std::string::npos) {
                arg = arg.substr(2);
            }
            const std::size_t eq = arg.find('=');
            const std::string key = arg.substr(0, eq);
            const std::string value =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
            if (key == "bugs") {
                matrix.bugs = campaign::resolveBugList(value);
            } else if (key == "generators") {
                matrix.generators =
                    campaign::resolveGeneratorList(value);
            } else if (key == "models") {
                matrix.models = campaign::resolveModelList(value);
            } else if (key == "seeds") {
                matrix.seeds = campaign::parseSeedList(value);
            } else if (key == "threads") {
                threads = campaign::parseThreadCount(key, value);
            } else if (key == "eval-threads") {
                eval_threads = campaign::parseThreadCount(key, value);
            } else if (key == "json") {
                json_path = value;
            } else if (key == "csv") {
                csv_path = value;
            } else if (key == "quiet") {
                quiet = value != "0";
            } else if (key == "timing") {
                include_timing = value != "0";
            } else if (key == "workers") {
                fleet_options.workers =
                    campaign::parseThreadCount(key, value);
                fleet_mode = true;
            } else if (key == "run-dir") {
                fleet_options.runDir = value;
                fleet_mode = true;
            } else if (key == "resume") {
                fleet_options.resume = value != "0";
                fleet_mode = true;
            } else if (key == "retries") {
                const std::uint64_t retries =
                    campaign::parse::u64(key, value);
                if (retries > 1000000) {
                    throw std::invalid_argument(
                        "bad value '" + value + "' for key 'retries': "
                        "out of range");
                }
                fleet_options.retries = static_cast<int>(retries);
                fleet_mode = true;
            } else if (key == "cell-timeout") {
                fleet_options.cellTimeoutSeconds =
                    campaign::parse::nonNegative(key, value);
                fleet_mode = true;
            } else {
                matrix.base.set(arg);
            }
        }
        if (fleet_mode && fleet_options.runDir.empty()) {
            throw std::invalid_argument(
                "fleet mode (workers=/resume=/retries=/cell-timeout=) "
                "requires run-dir=DIR");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        printUsage(stderr);
        return kExitUsage;
    }

    const std::vector<campaign::CampaignSpec> specs = matrix.expand();
    for (const campaign::CampaignSpec &spec : specs) {
        try {
            spec.validate();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return kExitUsage;
        }
    }

    campaign::CampaignSummary summary;
    bool interrupted = false;
    if (fleet_mode) {
        fleet_options.evalThreads = eval_threads;
        if (!quiet) {
            fleet_options.onResult = printProgress;
            fleet_options.onRetry = [](std::size_t cell, int attempt,
                                       const std::string &why) {
                std::fprintf(stderr,
                             "fleet: cell %zu attempt %d: %s\n", cell,
                             attempt, why.c_str());
            };
        }
        try {
            fleet::FleetCoordinator coordinator(fleet_options);
            fleet::FleetReport report = coordinator.run(specs);
            summary = std::move(report.summary);
            interrupted = report.interrupted;
            std::fprintf(stderr,
                         "fleet: %zu cells (%zu resumed, %zu run, "
                         "%zu error rows), %zu retries, %zu timeouts, "
                         "%zu worker crashes, %zu respawns\n",
                         report.cellsTotal, report.cellsResumed,
                         report.cellsRun, report.cellErrors,
                         report.retriesScheduled, report.timeouts,
                         report.workerCrashes, report.respawns);
            // Always leave a merged snapshot in the run directory
            // next to the journal (atomic, safe to re-run).
            if (!exportFile(fleet_options.runDir + "/summary.json",
                            summary.toJson(include_timing)) ||
                !exportFile(fleet_options.runDir + "/summary.csv",
                            summary.toCsv(include_timing))) {
                return kExitFleet;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return kExitFleet;
        }
    } else {
        campaign::CampaignRunner::Options options;
        options.threads = threads;
        options.evalThreads = eval_threads;
        if (!quiet) {
            options.onResult = printProgress;
        }
        const campaign::CampaignRunner runner(options);
        summary = runner.run(specs);
    }

    printTable(summary);

    bool files_ok = true;
    if (!json_path.empty())
        files_ok &= exportFile(json_path, summary.toJson(include_timing));
    if (!csv_path.empty())
        files_ok &= exportFile(csv_path, summary.toCsv(include_timing));
    if (!files_ok)
        return kExitFleet;
    if (interrupted) {
        std::fprintf(stderr,
                     "fleet: interrupted; rerun with resume=1 to "
                     "continue from the journal\n");
        return kExitInterrupted;
    }
    return summary.errors() == 0 ? kExitOk : kExitCellError;
}
