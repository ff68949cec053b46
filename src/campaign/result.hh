/**
 * @file
 * Campaign results and machine-readable summaries.
 *
 * A CampaignResult pairs the spec that was run with its harness
 * outcome; a CampaignSummary aggregates the full matrix in spec order,
 * independent of worker interleaving. JSON and CSV export make bench
 * trajectories machine-readable; the exported fields, their names and
 * order come from campaign/schema.hh. Timing fields (wall/check seconds)
 * are the only non-deterministic outputs, so both exporters can omit
 * them: toJson(false)/toCsv(false) are byte-identical across repeat
 * runs and worker-thread counts for the same spec vector.
 *
 * Non-finite doubles (e.g. a NaN mean or an inf rate on a degenerate
 * cell) have no JSON literal; they export as null in JSON and as an
 * empty field in CSV so the documents stay parseable.
 */

#ifndef MCVERSI_CAMPAIGN_RESULT_HH
#define MCVERSI_CAMPAIGN_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "host/harness.hh"

namespace mcversi::campaign {

/** Outcome of one campaign spec. */
struct CampaignResult
{
    CampaignSpec spec{};
    host::HarnessResult harness{};
    /** Total coverage restricted to the spec's protocol controllers. */
    double protocolCoverage = 0.0;
    /** Non-empty if the campaign failed to run (bad spec, exception). */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Deterministically aggregated results of one campaign matrix. */
struct CampaignSummary
{
    /** Results in spec order (not completion order). */
    std::vector<CampaignResult> results;

    std::size_t campaigns() const { return results.size(); }
    std::size_t bugsFound() const;
    std::size_t errors() const;
    std::uint64_t totalTestRuns() const;
    double totalWallSeconds() const;

    /**
     * JSON document: {"campaigns": [...], "summary": {...}}. With
     * @p include_timing false, wall-clock fields are omitted and the
     * output depends only on the specs (byte-identical across runs).
     */
    std::string toJson(bool include_timing = true) const;

    /** CSV table, one row per campaign, same timing switch. */
    std::string toCsv(bool include_timing = true) const;
};

} // namespace mcversi::campaign

#endif // MCVERSI_CAMPAIGN_RESULT_HH
