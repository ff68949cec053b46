/**
 * @file
 * The one list of a campaign cell's fields.
 *
 * The spec parser and canonical string, the JSON and CSV exporters,
 * and the fleet's wire codec walk the two visitors below instead of
 * naming fields themselves, so a new field costs one line here. Both
 * are templates over constness: a const spec/result hands out const
 * members (renderers), a mutable one assignable members (parsers).
 *
 * visitSpecFields(spec, v) calls v(key, member, parser) per spec key,
 * in canonical order. A key's JSON/CSV name is columnName(key); the
 * parser maps set()'s (key, value text) to the member's value.
 *
 * visitResultFields(result, v) calls v(field, value) per outcome
 * field, in export order; value is the member or a derived value.
 */

#ifndef MCVERSI_CAMPAIGN_SCHEMA_HH
#define MCVERSI_CAMPAIGN_SCHEMA_HH

#include <cstdint>
#include <limits>
#include <string>

#include "campaign/result.hh"
#include "campaign/spec.hh"

namespace mcversi::campaign {

/** Spec value parsers; each throws std::invalid_argument naming key. */
namespace parse {

using Text = const std::string &;
std::string text(Text key, Text value);        // verbatim
std::uint64_t u64(Text key, Text value);       // no sign; 0x/0 prefixes
std::uint64_t size(Text key, Text value);      // u64, optional k suffix
std::uint64_t sizeOrOff(Text key, Text value); // size, or off = 0
int positive(Text key, Text value);            // 1 .. 1e9
double nonNegative(Text key, Text value);      // finite, >= 0
bool boolean(Text key, Text value);            // 1/0 true/false yes/no on/off
std::string protocol(Text key, Text value);    // auto|mesi|tsocc (tso-cc)
std::string model(Text key, Text value);       // registered model
std::string checkMode(Text key, Text value);   // posthoc|streaming

} // namespace parse

template <class Spec, class V>
void
visitSpecFields(Spec &s, V &&v)
{
    v("bug", s.bug, parse::text);
    v("generator", s.generator, parse::text);
    v("seed", s.seed, parse::u64);
    v("protocol", s.protocol, parse::protocol);
    v("model", s.model, parse::model);
    v("test-size", s.testSize, parse::positive);
    v("iterations", s.iterations, parse::positive);
    v("mem-size", s.memSize, parse::size);
    v("stride", s.stride, parse::size);
    v("guest-threads", s.guestThreads, parse::positive);
    v("population", s.population, parse::positive);
    v("islands", s.islands, parse::positive);
    v("migration", s.migration, parse::u64);
    v("batch", s.batch, parse::positive);
    v("max-runs", s.maxTestRuns, parse::u64);
    v("max-seconds", s.maxWallSeconds, parse::nonNegative);
    v("litmus-iterations", s.litmusIterations, parse::positive);
    v("record-ndt", s.recordNdt, parse::boolean);
    v("check-cache", s.checkCache, parse::sizeOrOff);
    v("check-mode", s.checkMode, parse::checkMode);
    v("witness-window", s.witnessWindow, parse::sizeOrOff);
}

/** JSON key / CSV column of a spec key: '-' becomes '_'. */
inline std::string
columnName(std::string key)
{
    for (char &c : key)
        c = c == '-' ? '_' : c;
    return key;
}

/** Exports that carry a result field (bit set; 0 = journal only). */
enum Export : unsigned
{
    kJson = 1,
    kCsv = 2,
    kTiming = 4, ///< wall-clock: only in toJson(true) / toCsv(true)
    kTable = kJson | kCsv,
    kTimed = kTable | kTiming,
};

struct ResultField
{
    const char *name; ///< JSON key and CSV column
    const char *wire; ///< journal key; nullptr if derived on export
    unsigned exports;
};

/** Checking cost per committed event (us); NaN when none executed. */
inline double
checkUsPerEvent(const host::HarnessResult &h)
{
    if (h.eventsExecuted == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return h.checkSeconds / static_cast<double>(h.eventsExecuted) * 1e6;
}

template <class Result, class V>
void
visitResultFields(Result &r, V &&v)
{
    using F = ResultField;
    auto &h = r.harness;
    v(F{"bug_found", "bug", kTable}, h.bugFound);
    v(F{"test_runs", "runs", kTable}, h.testRuns);
    v(F{"test_runs_to_bug", "runs2bug", kTable}, h.testRunsToBug);
    v(F{"sim_ticks", "ticks", kTable}, h.simTicks);
    v(F{"events_executed", "events", kTable}, h.eventsExecuted);
    v(F{"sim_events", "simev", kTable}, h.simEvents);
    v(F{"messages_sent", "msgs", kTable}, h.messagesSent);
    v(F{"total_coverage", "cov", kTable}, h.totalCoverage);
    v(F{"protocol_coverage", "pcov", kTable}, r.protocolCoverage);
    v(F{"mean_fitness", "meanfit", kTable}, h.meanFitness);
    v(F{"distinct_interleavings", "distinct", kTable},
      h.distinctInterleavings);
    v(F{"check_cache_hits", "hits", kTable}, h.checkCacheHits);
    v(F{"check_cache_misses", "misses", kTable}, h.checkCacheMisses);
    v(F{"check_cache_hit_rate", nullptr, kTable}, h.checkCacheHitRate());
    v(F{"events_until_detection", "evdetect", kTable},
      h.eventsUntilDetection);
    v(F{"fitness_trajectory", "traj", kJson}, h.fitnessTrajectory);
    v(F{"detail", "detail", kJson}, h.detail);
    v(F{"error", "error", kTable}, r.error);
    v(F{"wall_seconds", "wall", kTimed}, h.wallSeconds);
    v(F{"wall_seconds_to_bug", "wall2bug", kTimed}, h.wallSecondsToBug);
    v(F{"check_seconds", "check", kTimed}, h.checkSeconds);
    v(F{"check_us_per_event", nullptr, kTimed}, checkUsPerEvent(h));
    v(F{"tests_per_sec", nullptr, kTimed}, h.testsPerSec());
    v(F{"ndt_history", "ndt", 0}, h.ndtHistory);
}

} // namespace mcversi::campaign

#endif // MCVERSI_CAMPAIGN_SCHEMA_HH
