#include "campaign/spec.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "campaign/registry.hh"
#include "campaign/schema.hh"
#include "common/strings.hh"
#include "memconsistency/models/registry.hh"
#include "sim/bugs.hh"

namespace mcversi::campaign {

namespace {

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &why)
{
    throw std::invalid_argument("campaign spec: bad value '" + value +
                                "' for key '" + key + "': " + why);
}

/** toString() text of one spec field. */
template <class T>
std::string
specText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "1" : "0";
    } else if constexpr (std::is_floating_point_v<T>) {
        // Fewest digits from 6 (the old stream default) that read back
        // as v, so values that round-tripped at 6 keep their spelling.
        char buf[32];
        for (int digits = 6;; ++digits) {
            std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
            if (digits == 17 || std::strtod(buf, nullptr) == v)
                return buf;
        }
    } else {
        return std::to_string(v);
    }
}

} // namespace

namespace parse {

std::string
text(const std::string &, const std::string &value)
{
    return value;
}

std::uint64_t
u64(const std::string &key, const std::string &value)
{
    // std::stoull skips leading whitespace and negates a '-' in unsigned
    // arithmetic: accept only a leading digit.
    if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])))
        badValue(key, value, "expected a non-negative integer");
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(value, &pos, 0);
    } catch (const std::exception &) {
        badValue(key, value, "expected a non-negative integer");
    }
    if (pos != value.size())
        badValue(key, value, "trailing characters");
    return v;
}

std::uint64_t
size(const std::string &key, const std::string &value)
{
    if (!value.empty() &&
        (value.back() == 'k' || value.back() == 'K')) {
        const std::uint64_t kib =
            u64(key, value.substr(0, value.size() - 1));
        if (kib > std::numeric_limits<std::uint64_t>::max() / 1024)
            badValue(key, value, "too large");
        return kib * 1024;
    }
    return u64(key, value);
}

std::uint64_t
sizeOrOff(const std::string &key, const std::string &value)
{
    return asciiLowered(value) == "off" ? 0 : size(key, value);
}

int
positive(const std::string &key, const std::string &value)
{
    const std::uint64_t v = u64(key, value);
    if (v == 0 || v > 1'000'000'000)
        badValue(key, value, "expected a positive integer");
    return static_cast<int>(v);
}

double
nonNegative(const std::string &key, const std::string &value)
{
    if (value.empty())
        badValue(key, value, "expected a non-negative number");
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(value, &pos);
    } catch (const std::exception &) {
        badValue(key, value, "expected a non-negative number");
    }
    if (pos != value.size())
        badValue(key, value, "trailing characters");
    if (!std::isfinite(v))
        badValue(key, value, "must be finite");
    if (v < 0.0)
        badValue(key, value, "must not be negative");
    return v;
}

bool
boolean(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    badValue(key, value, "expected a boolean (0/1/true/false)");
}

std::string
protocol(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (v == "auto" || v == "mesi" || v == "tsocc")
        return v;
    if (v == "tso-cc")
        return "tsocc";
    badValue(key, value, "expected auto, mesi, or tsocc");
}

std::string
model(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (!mc::hasModel(v)) {
        badValue(key, value,
                 "registered models: " + mc::modelNamesJoined());
    }
    return v;
}

std::string
checkMode(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (v != "posthoc" && v != "streaming")
        badValue(key, value, "expected posthoc or streaming");
    return v;
}

} // namespace parse

void
CampaignSpec::set(const std::string &key_value)
{
    const std::size_t eq = key_value.find('=');
    if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument(
            "campaign spec: expected key=value, got '" + key_value + "'");
    }
    set(key_value.substr(0, eq), key_value.substr(eq + 1));
}

void
CampaignSpec::set(const std::string &key, const std::string &value)
{
    const std::string k = asciiLowered(key);
    bool known = false;
    visitSpecFields(*this, [&](const char *name, auto &field, auto parser) {
        if (!known && k == name) {
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                parser(key, value));
            known = true;
        }
    });
    if (!known) {
        throw std::invalid_argument("campaign spec: unknown key '" + key +
                                    "'");
    }
}

CampaignSpec
CampaignSpec::fromString(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> args;
    for (std::string token; in >> token;)
        args.push_back(token);
    return fromArgs(args);
}

CampaignSpec
CampaignSpec::fromArgs(const std::vector<std::string> &args)
{
    CampaignSpec spec;
    for (const std::string &arg : args)
        spec.set(arg);
    return spec;
}

std::string
CampaignSpec::toString() const
{
    std::string out;
    visitSpecFields(*this, [&out](const char *key, const auto &field,
                                  auto) {
        if (!out.empty())
            out += ' ';
        out += key;
        out += '=';
        out += specText(field);
    });
    return out;
}

void
CampaignSpec::validate() const
{
    if (sim::findBugByName(bug) == nullptr) {
        throw std::invalid_argument("campaign spec: unknown bug '" + bug +
                                    "'");
    }
    if (!SourceRegistry::instance().has(generator)) {
        throw std::invalid_argument(
            "campaign spec: unknown generator '" + generator + "'");
    }
    // Directly-assigned protocol strings bypass set()'s normalization;
    // reject anything resolvedProtocol() would silently fall through.
    if (protocol != "auto" && protocol != "mesi" &&
        protocol != "tsocc") {
        throw std::invalid_argument(
            "campaign spec: protocol must be auto, mesi, or tsocc "
            "(got '" + protocol + "')");
    }
    // Directly-assigned model strings likewise bypass set().
    if (!mc::hasModel(model)) {
        throw std::invalid_argument(
            "campaign spec: unknown model '" + model +
            "' for key 'model' (registered models: " +
            mc::modelNamesJoined() + ")");
    }
    if (stride == 0 || memSize == 0 || memSize % stride != 0) {
        throw std::invalid_argument(
            "campaign spec: mem-size must be a positive multiple of "
            "stride");
    }
    const sim::SystemConfig system{};
    if (guestThreads > system.numCores) {
        throw std::invalid_argument(
            "campaign spec: guest-threads exceeds the simulated core "
            "count");
    }
    if (maxTestRuns == 0 && maxWallSeconds == 0.0) {
        throw std::invalid_argument(
            "campaign spec: unbounded budget (set max-runs and/or "
            "max-seconds)");
    }
    if (islands == 0 || batch == 0) {
        throw std::invalid_argument(
            "campaign spec: islands and batch must be positive");
    }
    if (usesParallelHarness() &&
        SourceRegistry::instance().isLitmus(generator)) {
        throw std::invalid_argument(
            "campaign spec: litmus generators run the serial litmus "
            "loop; islands/batch do not apply (keep both at 1)");
    }
    if (witnessWindow != 0 &&
        SourceRegistry::instance().isLitmus(generator)) {
        throw std::invalid_argument(
            "campaign spec: litmus runs check a final condition on the "
            "whole witness; witness-window does not apply (keep it "
            "off)");
    }
    if (islands > 64) {
        throw std::invalid_argument(
            "campaign spec: islands capped at 64 (each island owns a "
            "full simulated system)");
    }
    if (batch > 4096) {
        throw std::invalid_argument(
            "campaign spec: batch capped at 4096");
    }
    if (checkCache > (std::size_t{1} << 22)) {
        throw std::invalid_argument(
            "campaign spec: check-cache capped at 4M entries per "
            "checker");
    }
    // Directly-assigned check-mode strings bypass set().
    if (checkMode != "posthoc" && checkMode != "streaming") {
        throw std::invalid_argument(
            "campaign spec: check-mode must be posthoc or streaming "
            "(got '" + checkMode + "')");
    }
    if (witnessWindow != 0 && checkMode != "streaming") {
        throw std::invalid_argument(
            "campaign spec: witness-window requires "
            "check-mode=streaming (post-hoc checking needs the whole "
            "event log)");
    }
    if (witnessWindow != 0 && witnessWindow < 64) {
        throw std::invalid_argument(
            "campaign spec: witness-window below 64 events cannot hold "
            "one iteration's in-flight accesses (use off/0 for "
            "unbounded)");
    }
    if (witnessWindow > (std::size_t{1} << 26)) {
        throw std::invalid_argument(
            "campaign spec: witness-window capped at 64M events");
    }
}

sim::Protocol
CampaignSpec::resolvedProtocol() const
{
    if (protocol == "mesi")
        return sim::Protocol::Mesi;
    if (protocol == "tsocc")
        return sim::Protocol::Tsocc;
    const sim::BugInfo *info = sim::findBugByName(bug);
    if (info != nullptr && info->protocol == sim::ProtocolKind::Tsocc)
        return sim::Protocol::Tsocc;
    return sim::Protocol::Mesi;
}

const char *
CampaignSpec::protocolPrefix() const
{
    return resolvedProtocol() == sim::Protocol::Tsocc ? "TSOCC" : "MESI";
}

sim::SystemConfig
CampaignSpec::systemConfig() const
{
    sim::SystemConfig config;
    config.protocol = resolvedProtocol();
    const sim::BugInfo *info = sim::findBugByName(bug);
    config.bug = info != nullptr ? info->id : sim::BugId::None;
    config.seed = seed;
    return config;
}

gp::GenParams
CampaignSpec::genParams() const
{
    gp::GenParams gen;
    gen.testSize = testSize;
    gen.iterations = iterations;
    gen.numThreads = guestThreads;
    gen.memSize = memSize;
    gen.stride = stride;
    return gen;
}

gp::GaParams
CampaignSpec::gaParams() const
{
    gp::GaParams ga;
    ga.population = population;
    return ga;
}

gp::EvolutionParams
CampaignSpec::evolutionParams() const
{
    gp::EvolutionParams evo;
    evo.islands = islands;
    evo.migrationInterval = migration;
    return evo;
}

host::Budget
CampaignSpec::budget() const
{
    host::Budget budget;
    budget.maxTestRuns = maxTestRuns;
    budget.maxWallSeconds = maxWallSeconds;
    return budget;
}

host::VerificationHarness::Params
CampaignSpec::harnessParams() const
{
    host::VerificationHarness::Params params;
    params.system = systemConfig();
    params.gen = genParams();
    params.workload.iterations = iterations;
    params.workload.checkMode = mc::parseCheckMode(checkMode);
    params.workload.witnessWindow = witnessWindow;
    params.model = model;
    params.recordNdt = recordNdt;
    params.checkCacheEntries = checkCache;
    return params;
}

std::vector<CampaignSpec>
CampaignMatrix::expand() const
{
    const std::vector<std::string> bug_list =
        bugs.empty() ? std::vector<std::string>{base.bug} : bugs;
    const std::vector<std::string> gen_list =
        generators.empty() ? std::vector<std::string>{base.generator}
                           : generators;
    const std::vector<std::string> model_list =
        models.empty() ? std::vector<std::string>{base.model} : models;
    const std::vector<std::uint64_t> seed_list =
        seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;

    std::vector<CampaignSpec> specs;
    specs.reserve(bug_list.size() * gen_list.size() *
                  model_list.size() * seed_list.size());
    for (const std::string &bug : bug_list) {
        for (const std::string &generator : gen_list) {
            for (const std::string &model : model_list) {
                for (const std::uint64_t seed : seed_list) {
                    CampaignSpec spec = base;
                    spec.bug = bug;
                    spec.generator = generator;
                    spec.model = model;
                    spec.seed = seed;
                    specs.push_back(std::move(spec));
                }
            }
        }
    }
    return specs;
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, sep)) {
        if (!item.empty())
            items.push_back(item);
    }
    return items;
}

std::vector<std::uint64_t>
parseSeedList(const std::string &text)
{
    const std::size_t dots = text.find("..");
    if (dots != std::string::npos) {
        const std::uint64_t lo =
            parse::u64("seeds", text.substr(0, dots));
        const std::uint64_t hi =
            parse::u64("seeds", text.substr(dots + 2));
        if (hi < lo)
            badValue("seeds", text, "range end below range start");
        if (hi - lo >= 1'000'000)
            badValue("seeds", text, "range too large");
        std::vector<std::uint64_t> seeds;
        seeds.reserve(hi - lo + 1);
        for (std::uint64_t s = lo; s <= hi; ++s)
            seeds.push_back(s);
        return seeds;
    }
    std::vector<std::uint64_t> seeds;
    for (const std::string &item : splitList(text))
        seeds.push_back(parse::u64("seeds", item));
    if (seeds.empty())
        badValue("seeds", text, "empty seed list");
    return seeds;
}

std::vector<std::string>
resolveModelList(const std::string &token)
{
    if (token == "all")
        return mc::modelNames();
    std::vector<std::string> models = splitList(token);
    for (std::string &m : models)
        m = parse::model("models", m);
    return models;
}

int
parseThreadCount(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parse::u64(key, value);
    if (v < 1)
        badValue(key, value,
                 "expected at least 1 worker thread (omit the key for "
                 "hardware concurrency)");
    if (v > 4096)
        badValue(key, value, "at most 4096 worker threads");
    return static_cast<int>(v);
}

std::vector<std::string>
resolveBugList(const std::string &token)
{
    const std::string t = asciiLowered(token);
    if (t == "all" || t == "mesi" || t == "tsocc" || t == "tso-cc") {
        std::vector<std::string> names;
        for (const sim::BugInfo &info : sim::allBugs()) {
            const bool match =
                t == "all" ||
                info.protocol == sim::ProtocolKind::Any ||
                (t == "mesi"
                     ? info.protocol == sim::ProtocolKind::Mesi
                     : info.protocol == sim::ProtocolKind::Tsocc);
            if (match)
                names.emplace_back(info.name);
        }
        return names;
    }
    return splitList(token);
}

} // namespace mcversi::campaign
