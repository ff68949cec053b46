#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

Metrics
medianMetrics(const std::vector<Metrics> &samples)
{
    if (samples.empty())
        return {};
    Metrics out = samples.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        values.reserve(samples.size());
        for (const Metrics &m : samples)
            values.push_back(m.at(i).value);
        out[i].value = median(std::move(values));
    }
    return out;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace perfbench
