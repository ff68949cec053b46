#include "memconsistency/models/registry.hh"

#include <stdexcept>

#include "common/strings.hh"
#include "memconsistency/arch.hh"

namespace mcversi::mc {

namespace {

struct RegisteredModel
{
    const char *key; ///< canonical lowercase lookup name
    ModelProfile profile;
};

/**
 * The built-in zoo, in decreasing strictness. SC preserves all of po,
 * so its RMWs need no extra fence nodes (rmwFence = None); TSO relaxes
 * W->R; PSO additionally relaxes W->W; RMO relaxes all plain po and
 * orders only through its full-fence RMWs; RC weakens those fences to
 * acquire (read part) / release (write part) semantics.
 */
const std::vector<RegisteredModel> &
registry()
{
    static const std::vector<RegisteredModel> models = {
        {"sc",
         {.name = "SC",
          .orderRR = true,
          .orderRW = true,
          .orderWR = true,
          .orderWW = true,
          .rmwFence = RmwSemantics::None,
          .rfiGlobal = true}},
        {"tso",
         {.name = "TSO",
          .orderRR = true,
          .orderRW = true,
          .orderWR = false,
          .orderWW = true,
          .rmwFence = RmwSemantics::Full,
          .rfiGlobal = false}},
        {"pso",
         {.name = "PSO",
          .orderRR = true,
          .orderRW = true,
          .orderWR = false,
          .orderWW = false,
          .rmwFence = RmwSemantics::Full,
          .rfiGlobal = false}},
        {"rmo",
         {.name = "RMO",
          .orderRR = false,
          .orderRW = false,
          .orderWR = false,
          .orderWW = false,
          .rmwFence = RmwSemantics::Full,
          .rfiGlobal = false}},
        {"rc",
         {.name = "RC",
          .orderRR = false,
          .orderRW = false,
          .orderWR = false,
          .orderWW = false,
          .rmwFence = RmwSemantics::AcquireRelease,
          .rfiGlobal = false}},
    };
    return models;
}

const RegisteredModel *
find(const std::string &name)
{
    const std::string key = asciiLowered(name);
    for (const RegisteredModel &m : registry()) {
        if (m.key == key)
            return &m;
    }
    return nullptr;
}

} // namespace

bool
hasModel(const std::string &name)
{
    return find(name) != nullptr;
}

const ModelProfile &
modelProfile(const std::string &name)
{
    const RegisteredModel *m = find(name);
    if (m == nullptr) {
        throw std::invalid_argument("unknown consistency model '" + name +
                                    "' (registered: " +
                                    modelNamesJoined() + ")");
    }
    return m->profile;
}

const std::vector<std::string> &
modelNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        out.reserve(registry().size());
        for (const RegisteredModel &m : registry())
            out.emplace_back(m.key);
        return out;
    }();
    return names;
}

std::string
modelNamesJoined()
{
    std::string out;
    for (const std::string &name : modelNames()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

ProfileModel
makeModel(const std::string &name)
{
    return ProfileModel(modelProfile(name));
}

ProfileModel
makeSc()
{
    return makeModel("sc");
}

ProfileModel
makeTso()
{
    return makeModel("tso");
}

} // namespace mcversi::mc
