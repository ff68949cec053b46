/**
 * @file
 * mcversi_perfbench: one benchmark run of one workload.
 *
 *   mcversi_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--spans FILE]
 *
 * Prints a detail line (build stamp, fingerprint, every metric, the
 * failures) and, last, the result line:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * with the end-to-end metrics when --trace 0 and the per-layer metrics
 * when --trace 1. A traced run writes its spans to --spans as JSON
 * lines.
 *
 * Exit codes: 0 all outcomes correct; 1 some outcome wrong (the result
 * line is still printed); 2 usage error; 3 assertion-enabled build
 * (timings refused); 4 the workload could not run.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

#ifndef MCVERSI_PERFBENCH_BUILD_TYPE
#define MCVERSI_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "mcversi_perfbench: %s\n"
                 "usage: mcversi_perfbench --workload "
                 "campaign-clean|islands-parallel|bug-hunt|witness-check "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos) {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            if (!parseUnsigned(value, n))
                return usage("--seed must be a non-negative integer");
            options.seed = n;
        } else if (key == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 3600)
                return usage("--seconds must be an integer in [1, 3600]");
            options.seconds = static_cast<double>(n);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            options.trace = value == "1";
        } else if (key == "--spans") {
            spans_path = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }

    if (!kNdebug) {
        std::fprintf(stderr,
                     "mcversi_perfbench: refusing to report timings from "
                     "an assertion-enabled build (NDEBUG unset)\n");
        return 3;
    }

    Outcome (*run)(const Options &, Tracer &) = nullptr;
    if (options.workload == "campaign-clean")
        run = runCampaignClean;
    else if (options.workload == "islands-parallel")
        run = runIslandsParallel;
    else if (options.workload == "bug-hunt")
        run = runBugHunt;
    else if (options.workload == "witness-check")
        run = runWitnessCheck;
    else
        return usage(("unknown workload '" + options.workload + "'").c_str());

    Tracer tracer(options.trace);
    Outcome out;
    try {
        out = run(options, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mcversi_perfbench: %s: %s\n",
                     options.workload.c_str(), e.what());
        return 4;
    }
    if (options.trace && !spans_path.empty() && !tracer.write(spans_path)) {
        std::fprintf(stderr, "mcversi_perfbench: cannot write spans to %s\n",
                     spans_path.c_str());
        return 4;
    }

    const Metrics e2e = out.endToEnd.metrics();
    const std::size_t failed = out.failures.size();
    // A failed comparison is an outcome too: attempted counts it.
    const std::uint64_t attempted = std::max<std::uint64_t>(
        out.attempted, static_cast<std::uint64_t>(failed));

    std::string failures = "[";
    constexpr std::size_t kShown = 20;
    for (std::size_t i = 0; i < failed && i < kShown; ++i)
        failures += (i > 0 ? ", " : "") + jsonString(out.failures[i]);
    failures += "]";

    std::printf(
        "{\"perfbench\": {\"workload\": %s, \"seed\": %llu, "
        "\"seconds\": %.0f, \"trace\": %d, "
        "\"stamp\": {\"nproc\": %d, \"compiler\": %s, \"build_type\": %s, "
        "\"ndebug\": %s}, "
        "\"rounds\": {\"untraced\": %d, \"traced\": %d}, "
        "\"fingerprint\": %s, \"failed_frac\": %s, \"failures\": %s, "
        "\"end_to_end\": %s, \"per_layer\": %s}}\n",
        jsonString(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed), options.seconds,
        options.trace ? 1 : 0, hardwareThreads(),
        jsonString(compilerName()).c_str(),
        jsonString(MCVERSI_PERFBENCH_BUILD_TYPE).c_str(),
        kNdebug ? "true" : "false", out.untracedRounds, out.tracedRounds,
        out.fingerprint.c_str(),
        jsonNumber(static_cast<double>(failed) /
                   static_cast<double>(std::max<std::uint64_t>(attempted, 1)))
            .c_str(),
        failures.c_str(), metricsJson(e2e).c_str(),
        metricsJson(out.perLayer).c_str());
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted), failed,
                metricsJson(options.trace ? out.perLayer : e2e).c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
