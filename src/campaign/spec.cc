#include "campaign/spec.hh"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "campaign/registry.hh"
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

std::uint64_t
parseU64(const std::string &key, const std::string &value)
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

/** Non-negative integer with an optional k/K (x1024) suffix. */
std::uint64_t
parseSize(const std::string &key, const std::string &value)
{
    if (!value.empty() &&
        (value.back() == 'k' || value.back() == 'K')) {
        const std::uint64_t kib =
            parseU64(key, value.substr(0, value.size() - 1));
        if (kib > std::numeric_limits<std::uint64_t>::max() / 1024)
            badValue(key, value, "too large");
        return kib * 1024;
    }
    return parseU64(key, value);
}

int
parsePositiveInt(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parseU64(key, value);
    if (v == 0 || v > 1'000'000'000)
        badValue(key, value, "expected a positive integer");
    return static_cast<int>(v);
}

double
parseNonNegDouble(const std::string &key, const std::string &value)
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
parseBool(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    badValue(key, value, "expected a boolean (0/1/true/false)");
}

std::string
parseModel(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (!mc::hasModel(v)) {
        badValue(key, value,
                 "registered models: " + mc::modelNamesJoined());
    }
    return v;
}

std::string
parseProtocol(const std::string &key, const std::string &value)
{
    const std::string v = asciiLowered(value);
    if (v == "auto")
        return "auto";
    if (v == "mesi")
        return "mesi";
    if (v == "tsocc" || v == "tso-cc")
        return "tsocc";
    badValue(key, value, "expected auto, mesi, or tsocc");
}

} // namespace

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
    if (k == "bug") {
        bug = value;
    } else if (k == "generator") {
        generator = value;
    } else if (k == "seed") {
        seed = parseU64(key, value);
    } else if (k == "protocol") {
        protocol = parseProtocol(key, value);
    } else if (k == "model") {
        model = parseModel(key, value);
    } else if (k == "test-size") {
        testSize = static_cast<std::size_t>(
            parsePositiveInt(key, value));
    } else if (k == "iterations") {
        iterations = parsePositiveInt(key, value);
    } else if (k == "mem-size") {
        memSize = static_cast<Addr>(parseSize(key, value));
    } else if (k == "stride") {
        stride = static_cast<Addr>(parseSize(key, value));
    } else if (k == "guest-threads") {
        guestThreads = parsePositiveInt(key, value);
    } else if (k == "population") {
        population = static_cast<std::size_t>(
            parsePositiveInt(key, value));
    } else if (k == "islands") {
        islands = static_cast<std::size_t>(
            parsePositiveInt(key, value));
    } else if (k == "migration") {
        migration = parseU64(key, value);
    } else if (k == "batch") {
        batch = static_cast<std::size_t>(
            parsePositiveInt(key, value));
    } else if (k == "max-runs") {
        maxTestRuns = parseU64(key, value);
    } else if (k == "max-seconds") {
        maxWallSeconds = parseNonNegDouble(key, value);
    } else if (k == "litmus-iterations") {
        litmusIterations = parsePositiveInt(key, value);
    } else if (k == "record-ndt") {
        recordNdt = parseBool(key, value);
    } else if (k == "check-cache") {
        checkCache = asciiLowered(value) == "off"
                         ? 0
                         : static_cast<std::size_t>(
                               parseSize(key, value));
    } else if (k == "check-mode") {
        const std::string v = asciiLowered(value);
        if (v != "posthoc" && v != "streaming")
            badValue(key, value, "expected posthoc or streaming");
        checkMode = v;
    } else if (k == "witness-window") {
        witnessWindow = asciiLowered(value) == "off"
                            ? 0
                            : static_cast<std::size_t>(
                                  parseSize(key, value));
    } else {
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
    std::ostringstream out;
    out << "bug=" << bug
        << " generator=" << generator
        << " seed=" << seed
        << " protocol=" << protocol
        << " model=" << model
        << " test-size=" << testSize
        << " iterations=" << iterations
        << " mem-size=" << memSize
        << " stride=" << stride
        << " guest-threads=" << guestThreads
        << " population=" << population
        << " islands=" << islands
        << " migration=" << migration
        << " batch=" << batch
        << " max-runs=" << maxTestRuns
        << " max-seconds=" << maxWallSeconds
        << " litmus-iterations=" << litmusIterations
        << " record-ndt=" << (recordNdt ? 1 : 0)
        << " check-cache=" << checkCache
        << " check-mode=" << checkMode
        << " witness-window=" << witnessWindow;
    return out.str();
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
            parseU64("seeds", text.substr(0, dots));
        const std::uint64_t hi =
            parseU64("seeds", text.substr(dots + 2));
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
        seeds.push_back(parseU64("seeds", item));
    if (seeds.empty())
        badValue("seeds", text, "empty seed list");
    return seeds;
}

int
parseThreadCount(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parseU64(key, value);
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
