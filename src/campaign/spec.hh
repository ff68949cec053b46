/**
 * @file
 * Declarative campaign specification.
 *
 * A CampaignSpec fully describes one verification campaign of the
 * paper's evaluation matrix (§5): which protocol and bug, which test
 * generator, the generation/GA parameters, the budget, and the seed.
 * Specs are plain data: constructible in code, parseable from
 * "key=value" strings (CLI / config files), and serializable back via
 * toString() -- parse(toString()) round-trips exactly. The keys, their
 * canonical order and their value rules are listed once, in
 * campaign/schema.hh.
 *
 * CampaignMatrix expands bug x generator x model x seed lists into the
 * flat vector of specs a CampaignRunner consumes, mirroring the paper's
 * {protocol} x {bug} x {generator} x {seed} sweep with a consistency-
 * model axis on top (the checker verifies against any registered
 * model, not just x86-TSO).
 */

#ifndef MCVERSI_CAMPAIGN_SPEC_HH
#define MCVERSI_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gp/evolution.hh"
#include "gp/params.hh"
#include "host/harness.hh"
#include "sim/config.hh"

namespace mcversi::campaign {

/** Declarative description of one verification campaign. */
struct CampaignSpec
{
    /** Paper bug name ("MESI,LQ+IS,Inv", ...) or "none"; see sim/bugs.hh. */
    std::string bug = "none";
    /** Generator registry name or alias; see campaign/registry.hh. */
    std::string generator = "McVerSi-ALL";
    /** Seed for the system, the generator, and everything they fork. */
    std::uint64_t seed = 1;
    /** Protocol selection: "auto" derives it from the bug. */
    std::string protocol = "auto";
    /**
     * Consistency model the checker verifies against: a registered
     * model name (see memconsistency/models/registry.hh). The litmus
     * generator also draws its suite per model.
     */
    std::string model = "tso";

    // Test generation (Table 3 upper half, scaled-down defaults).
    std::size_t testSize = 256;
    int iterations = 4;
    Addr memSize = 8 * 1024;
    Addr stride = 16;
    int guestThreads = 8;

    // GA (Table 3 lower half).
    /** Population size per island. */
    std::size_t population = 50;

    // Evolution-engine topology (gp/evolution.hh).
    /** Island count; also the ParallelHarness lane count. */
    std::size_t islands = 1;
    /** Engine-wide evaluations between ring migrations (0 = never). */
    std::uint64_t migration = 256;
    /** Tests pulled per generate->evaluate batch barrier. */
    std::size_t batch = 1;

    // Budget (0 = unlimited).
    std::uint64_t maxTestRuns = 1000;
    double maxWallSeconds = 0.0;

    /** Iterations per litmus test-run (diy-litmus generator only). */
    int litmusIterations = 12;

    /** Record the per-run NDT history (costs memory on long runs). */
    bool recordNdt = false;

    /**
     * Verdict-cache entries per checker for collective checking
     * ("check-cache=N|Nk|off"; 0 = off). Parallel harnesses size one
     * cache per lane. Verdicts are byte-identical either way; the
     * knob only trades memory for skipped re-checks.
     */
    std::size_t checkCache = 4096;

    /**
     * Checking mode ("check-mode=posthoc|streaming"). Streaming
     * maintains the constraint graphs incrementally as events are
     * recorded and stops the simulation at the violating event; see
     * memconsistency/streaming_checker.hh.
     */
    std::string checkMode = "posthoc";

    /**
     * Bounded-window streaming ("witness-window=N|Nk|off"; 0 = off):
     * retire fully-resolved events once they fall behind the last N
     * recorded events, keeping checker and witness memory O(window)
     * instead of O(trace) on soak runs. Requires check-mode=streaming;
     * see streaming_checker.hh for the truncation semantics.
     */
    std::size_t witnessWindow = 0;

    bool operator==(const CampaignSpec &) const = default;

    /**
     * Apply one "key=value" setting. Throws std::invalid_argument on an
     * unknown key or an unparsable/out-of-range value.
     */
    void set(const std::string &key_value);
    void set(const std::string &key, const std::string &value);

    /** Parse a whitespace-separated "key=value ..." string. */
    static CampaignSpec fromString(const std::string &text);

    /** Apply a sequence of "key=value" settings (e.g. CLI argv). */
    static CampaignSpec fromArgs(const std::vector<std::string> &args);

    /** Canonical "key=value ..." form; fromString() round-trips it. */
    std::string toString() const;

    /**
     * Check that the spec is runnable: known bug name, registered
     * generator, consistent numeric ranges. Throws std::invalid_argument.
     */
    void validate() const;

    // -- Derived views (resolve the declarative fields) ----------------

    /** Protocol after resolving "auto" against the bug. */
    sim::Protocol resolvedProtocol() const;

    /** Coverage controller-name prefix of the resolved protocol. */
    const char *protocolPrefix() const;

    sim::SystemConfig systemConfig() const;
    gp::GenParams genParams() const;
    gp::GaParams gaParams() const;
    gp::EvolutionParams evolutionParams() const;
    host::Budget budget() const;
    host::VerificationHarness::Params harnessParams() const;

    /** True if the spec asks for the batched multi-lane harness. */
    bool
    usesParallelHarness() const
    {
        return islands > 1 || batch > 1;
    }
};

/** Matrix of campaigns: base spec x bugs x generators x models x seeds. */
struct CampaignMatrix
{
    CampaignSpec base{};
    /** Empty list => the base spec's value is used (cardinality 1). */
    std::vector<std::string> bugs;
    std::vector<std::string> generators;
    std::vector<std::string> models;
    std::vector<std::uint64_t> seeds;

    /**
     * Expand to |bugs| x |generators| x |models| x |seeds| specs,
     * bug-major then generator then model then seed (deterministic
     * order).
     */
    std::vector<CampaignSpec> expand() const;
};

// -- List-parsing helpers shared by the CLI and tests ------------------

/** Split on @p sep, dropping empty items ("a;b;;c" => {a,b,c}). */
std::vector<std::string> splitList(const std::string &text, char sep = ';');

/**
 * Parse a seed list: "a..b" (inclusive range), or ';'-separated values,
 * e.g. "1..10" or "17;118;219". Throws std::invalid_argument.
 */
std::vector<std::uint64_t> parseSeedList(const std::string &text);

/**
 * Resolve a models= token: "all" => every registered model, otherwise
 * a ';'-separated list whose items are lower-cased and checked like
 * the model= key, so "PSO" and "pso" name the same cell. Throws
 * std::invalid_argument on an unknown model.
 */
std::vector<std::string> resolveModelList(const std::string &token);

/**
 * Resolve a bug-list token: "all" => every studied bug, "mesi"/"tsocc"
 * => that protocol's bugs plus the protocol-agnostic ones, otherwise a
 * ';'-separated list of paper bug names.
 */
std::vector<std::string> resolveBugList(const std::string &token);

/**
 * Parse a worker-thread count for the CLI's threads=/eval-threads=
 * keys. Rejects signs, trailing garbage ("4x"), zero, and values
 * above 4096 with std::invalid_argument naming @p key; omitting the
 * key (not passing 0) is how callers select hardware concurrency.
 */
int parseThreadCount(const std::string &key, const std::string &value);

} // namespace mcversi::campaign

#endif // MCVERSI_CAMPAIGN_SPEC_HH
