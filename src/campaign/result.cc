#include "campaign/result.hh"

#include <cmath>
#include <cstdio>
#include <type_traits>

#include "campaign/schema.hh"

namespace mcversi::campaign {

namespace {

/**
 * Shortest deterministic decimal form for identical finite doubles.
 * Non-finite values (NaN from 0/0 fitness means, inf from
 * zero-wall-time rates) have no JSON literal; they render as null in
 * JSON and as an empty CSV field instead of bare nan/inf tokens.
 */
std::string
fmtDouble(double v, const char *non_finite)
{
    if (!std::isfinite(v))
        return non_finite;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** JSON value of one schema field. */
template <class T>
std::string
jsonValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return "\"" + jsonEscape(v) + "\"";
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        return fmtDouble(v, "null");
    } else if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
    } else {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out += (i > 0 ? "," : "") + jsonValue(v[i]);
        return out + "]";
    }
}

/** CSV cell of one schema field (vectors are JSON-only). */
template <class T>
std::string
csvValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return csvField(v);
    else if constexpr (std::is_same_v<T, bool>)
        return v ? "1" : "0";
    else if constexpr (std::is_floating_point_v<T>)
        return fmtDouble(v, "");
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else
        return std::string();
}

/** Whether an export with the given timing switch carries @p field. */
bool
carries(const ResultField &field, Export format, bool include_timing)
{
    return (field.exports & format) != 0 &&
           (include_timing || (field.exports & kTiming) == 0);
}

} // namespace

std::size_t
CampaignSummary::bugsFound() const
{
    std::size_t n = 0;
    for (const CampaignResult &r : results)
        n += r.ok() && r.harness.bugFound ? 1 : 0;
    return n;
}

std::size_t
CampaignSummary::errors() const
{
    std::size_t n = 0;
    for (const CampaignResult &r : results)
        n += r.ok() ? 0 : 1;
    return n;
}

std::uint64_t
CampaignSummary::totalTestRuns() const
{
    std::uint64_t n = 0;
    for (const CampaignResult &r : results)
        n += r.harness.testRuns;
    return n;
}

double
CampaignSummary::totalWallSeconds() const
{
    double s = 0.0;
    for (const CampaignResult &r : results)
        s += r.harness.wallSeconds;
    return s;
}

std::string
CampaignSummary::toJson(bool include_timing) const
{
    std::string out = "{\"campaigns\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CampaignResult &r = results[i];
        if (i > 0)
            out += ",";
        out += "{\"spec\":";
        char sep = '{';
        visitSpecFields(r.spec, [&](const char *key, const auto &field,
                                    auto) {
            out += sep;
            out += "\"" + columnName(key) + "\":" + jsonValue(field);
            sep = ',';
        });
        out += "}";
        visitResultFields(r, [&](const ResultField &f, const auto &value) {
            if (carries(f, kJson, include_timing))
                out += ",\"" + std::string(f.name) + "\":" +
                       jsonValue(value);
        });
        out += "}";
    }
    out += "],\"summary\":{\"campaigns\":" + std::to_string(campaigns()) +
           ",\"bugs_found\":" + std::to_string(bugsFound()) +
           ",\"errors\":" + std::to_string(errors()) +
           ",\"test_runs\":" + std::to_string(totalTestRuns());
    if (include_timing)
        out += ",\"wall_seconds\":" + jsonValue(totalWallSeconds());
    out += "}}\n";
    return out;
}

std::string
CampaignSummary::toCsv(bool include_timing) const
{
    // One row per campaign: the spec's columns, then the outcome's.
    const auto row = [include_timing](const CampaignResult &r,
                                      bool header) {
        std::string line;
        const char *sep = "";
        const auto cell = [&](const std::string &text) {
            line += sep;
            line += text;
            sep = ",";
        };
        visitSpecFields(r.spec, [&](const char *key, const auto &field,
                                    auto) {
            cell(header ? columnName(key) : csvValue(field));
        });
        visitResultFields(r, [&](const ResultField &f, const auto &value) {
            if (carries(f, kCsv, include_timing))
                cell(header ? std::string(f.name) : csvValue(value));
        });
        return line + "\n";
    };
    std::string out = row(CampaignResult{}, true);
    for (const CampaignResult &r : results)
        out += row(r, false);
    return out;
}

} // namespace mcversi::campaign
