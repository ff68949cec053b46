/**
 * @file
 * Small measurement helpers shared by the benchmark workloads: clock
 * reads, order statistics, peak RSS, and the JSON the runner prints.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/**
 * Percentile @p p in [0, 100] with linear interpolation between order
 * statistics (the "inclusive" method); 0 when empty.
 */
double percentile(std::vector<double> values, double p);

/** Peak resident set size (VmHWM) of this process, in MiB. */
double peakRssMb();

/** 64-bit FNV-1a digest, printed with fingerprints. */
std::uint64_t fnv1a(std::string_view text);

/** JSON string literal for @p text (quoted and escaped). */
std::string jsonString(std::string_view text);

/** JSON number with every significant digit; non-finite -> null. */
std::string jsonNumber(double value);

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/**
 * Median of each metric over @p samples, which must all list the same
 * metrics in the same order (empty when @p samples is).
 */
Metrics medianMetrics(const std::vector<Metrics> &samples);

/** {"name": {"value": v, "unit": "u"}, ...} in insertion order. */
std::string metricsJson(const Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
