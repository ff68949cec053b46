/**
 * @file
 * CampaignSpec parsing contract: key=value round-trip, rejection of
 * unknown keys and bad values, matrix expansion cardinality, and the
 * CLI list helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "campaign/registry.hh"
#include "campaign/spec.hh"
#include "memconsistency/models/registry.hh"

using namespace mcversi;
using namespace mcversi::campaign;

TEST(CampaignSpec, DefaultsRoundTripThroughString)
{
    const CampaignSpec spec;
    EXPECT_EQ(CampaignSpec::fromString(spec.toString()), spec);
}

TEST(CampaignSpec, EveryFieldRoundTripsThroughString)
{
    CampaignSpec spec;
    spec.bug = "MESI,LQ+IS,Inv"; // commas must survive
    spec.generator = "McVerSi-Std.XO";
    spec.seed = 123456789;
    spec.protocol = "tsocc";
    spec.testSize = 192;
    spec.iterations = 7;
    spec.memSize = 1024;
    spec.stride = 32;
    spec.guestThreads = 4;
    spec.population = 40;
    spec.islands = 4;
    spec.migration = 128;
    spec.batch = 16;
    spec.maxTestRuns = 777;
    spec.maxWallSeconds = 2.5;
    spec.litmusIterations = 9;
    spec.recordNdt = true;
    spec.checkMode = "streaming";
    spec.witnessWindow = 2048;

    const CampaignSpec parsed =
        CampaignSpec::fromString(spec.toString());
    EXPECT_EQ(parsed, spec);
    // And the canonical form is a fixed point.
    EXPECT_EQ(parsed.toString(), spec.toString());
}

TEST(CampaignSpec, MaxSecondsRoundTripsAtFullPrecision)
{
    // toString() once printed six significant digits, so these lost
    // precision on the way through the canonical form.
    for (const double seconds : {0.1234567, 1234567.5}) {
        CampaignSpec spec;
        spec.maxWallSeconds = seconds;
        EXPECT_EQ(CampaignSpec::fromString(spec.toString()), spec)
            << spec.toString();
    }
    // Values that already round-tripped keep their old spelling, so
    // specs (and journal fingerprints) written before stay valid.
    CampaignSpec spec;
    spec.maxWallSeconds = 2.5;
    EXPECT_NE(spec.toString().find(" max-seconds=2.5 "),
              std::string::npos);
    spec.maxWallSeconds = 120;
    EXPECT_NE(spec.toString().find(" max-seconds=120 "),
              std::string::npos);
    spec.maxWallSeconds = 0.1;
    EXPECT_NE(spec.toString().find(" max-seconds=0.1 "),
              std::string::npos);
}

TEST(CampaignSpec, EvolutionKnobsParseAndValidate)
{
    CampaignSpec spec;
    spec.set("islands=4");
    spec.set("migration=64");
    spec.set("batch=16");
    EXPECT_EQ(spec.islands, 4u);
    EXPECT_EQ(spec.migration, 64u);
    EXPECT_EQ(spec.batch, 16u);
    EXPECT_TRUE(spec.usesParallelHarness());
    EXPECT_NO_THROW(spec.validate());

    // migration=0 disables migration but stays valid.
    spec.set("migration=0");
    EXPECT_NO_THROW(spec.validate());

    EXPECT_THROW(spec.set("islands=0"), std::invalid_argument);
    EXPECT_THROW(spec.set("batch=0"), std::invalid_argument);
    EXPECT_THROW(spec.set("islands=-3"), std::invalid_argument);

    // Out-of-range topology is rejected by validate().
    CampaignSpec big;
    big.islands = 65;
    EXPECT_THROW(big.validate(), std::invalid_argument);
    CampaignSpec huge;
    huge.batch = 5000;
    EXPECT_THROW(huge.validate(), std::invalid_argument);

    // The defaults keep the serial harness.
    EXPECT_FALSE(CampaignSpec{}.usesParallelHarness());

    // Litmus generators run the serial litmus loop: asking for the
    // batched harness is a spec error, not a silent no-op.
    CampaignSpec litmus;
    litmus.generator = "diy-litmus";
    litmus.islands = 4;
    EXPECT_THROW(litmus.validate(), std::invalid_argument);
    litmus.islands = 1;
    litmus.batch = 8;
    EXPECT_THROW(litmus.validate(), std::invalid_argument);
    litmus.batch = 1;
    EXPECT_NO_THROW(litmus.validate());

    // Derived view forwards to the engine params.
    CampaignSpec derived;
    derived.islands = 3;
    derived.migration = 99;
    const gp::EvolutionParams evo = derived.evolutionParams();
    EXPECT_EQ(evo.islands, 3u);
    EXPECT_EQ(evo.migrationInterval, 99u);
}

TEST(CampaignSpec, KeyValueSettersParse)
{
    CampaignSpec spec;
    spec.set("mem-size=8k");
    EXPECT_EQ(spec.memSize, 8u * 1024u);
    spec.set("protocol", "TSO-CC");
    EXPECT_EQ(spec.protocol, "tsocc");
    spec.set("record-ndt=true");
    EXPECT_TRUE(spec.recordNdt);
    spec.set("record-ndt=0");
    EXPECT_FALSE(spec.recordNdt);
    spec.set("seed=0x10");
    EXPECT_EQ(spec.seed, 16u);
}

TEST(CampaignSpec, SizeSuffixOverflowRejected)
{
    // 18014398509481984 KiB is 2^64 bytes; one past the largest
    // representable size must not wrap around to a tiny one.
    CampaignSpec spec;
    spec.set("mem-size=18014398509481983k");
    EXPECT_EQ(spec.memSize, Addr{18014398509481983u} * 1024u);
    EXPECT_THROW(spec.set("mem-size=18014398509481985k"),
                 std::invalid_argument);
    EXPECT_THROW(spec.set("mem-size=18014398509481984K"),
                 std::invalid_argument);
    EXPECT_THROW(spec.set("check-cache=18014398509481985k"),
                 std::invalid_argument);
    EXPECT_THROW(spec.set("witness-window=18014398509481985k"),
                 std::invalid_argument);
}

TEST(CampaignSpec, UnknownKeysRejected)
{
    CampaignSpec spec;
    EXPECT_THROW(spec.set("frobnicate=1"), std::invalid_argument);
    EXPECT_THROW(spec.set("no-equals-sign"), std::invalid_argument);
    EXPECT_THROW(spec.set("=value"), std::invalid_argument);
    EXPECT_THROW(CampaignSpec::fromString("bug=none bogus=1"),
                 std::invalid_argument);
}

TEST(CampaignSpec, BadValuesRejected)
{
    CampaignSpec spec;
    EXPECT_THROW(spec.set("seed=abc"), std::invalid_argument);
    EXPECT_THROW(spec.set("seed=-5"), std::invalid_argument);
    EXPECT_THROW(spec.set("seed=12junk"), std::invalid_argument);
    // std::stoull skips whitespace and wraps a negation: " -1" must not
    // become 2^64 - 1.
    EXPECT_THROW(spec.set("seed= -1"), std::invalid_argument);
    EXPECT_THROW(spec.set("max-runs= -5"), std::invalid_argument);
    EXPECT_THROW(spec.set("test-size=0"), std::invalid_argument);
    EXPECT_THROW(spec.set("iterations="), std::invalid_argument);
    EXPECT_THROW(spec.set("max-seconds=nope"), std::invalid_argument);
    EXPECT_THROW(spec.set("max-seconds=-1"), std::invalid_argument);
    EXPECT_THROW(spec.set("max-seconds=nan"), std::invalid_argument);
    EXPECT_THROW(spec.set("max-seconds=inf"), std::invalid_argument);
    EXPECT_THROW(spec.set("record-ndt=maybe"), std::invalid_argument);
    EXPECT_THROW(spec.set("protocol=alpha"), std::invalid_argument);
}

TEST(CampaignSpec, ValidateChecksBugGeneratorAndGeometry)
{
    CampaignSpec spec;
    EXPECT_NO_THROW(spec.validate());

    CampaignSpec bad_bug = spec;
    bad_bug.bug = "bogus";
    EXPECT_THROW(bad_bug.validate(), std::invalid_argument);

    CampaignSpec bad_gen = spec;
    bad_gen.generator = "no-such-generator";
    EXPECT_THROW(bad_gen.validate(), std::invalid_argument);

    // Case-insensitive names pass.
    CampaignSpec spongy = spec;
    spongy.bug = "sq+no-fifo";
    spongy.generator = "mcversi-rand";
    EXPECT_NO_THROW(spongy.validate());

    // Protocol strings assigned directly (bypassing set()'s
    // normalization) must be caught, not silently fall back.
    CampaignSpec bad_protocol = spec;
    bad_protocol.protocol = "TSO-CC";
    EXPECT_THROW(bad_protocol.validate(), std::invalid_argument);

    CampaignSpec bad_geometry = spec;
    bad_geometry.memSize = 100; // not a multiple of stride 16
    EXPECT_THROW(bad_geometry.validate(), std::invalid_argument);

    CampaignSpec unbounded = spec;
    unbounded.maxTestRuns = 0;
    unbounded.maxWallSeconds = 0.0;
    EXPECT_THROW(unbounded.validate(), std::invalid_argument);
}

TEST(CampaignSpec, ProtocolResolution)
{
    CampaignSpec spec;
    spec.bug = "TSO-CC+compare";
    EXPECT_EQ(spec.resolvedProtocol(), sim::Protocol::Tsocc);
    EXPECT_STREQ(spec.protocolPrefix(), "TSOCC");

    spec.bug = "MESI,LQ+IS,Inv";
    EXPECT_EQ(spec.resolvedProtocol(), sim::Protocol::Mesi);

    // Explicit protocol overrides the bug's hint.
    spec.bug = "none";
    spec.protocol = "tsocc";
    EXPECT_EQ(spec.resolvedProtocol(), sim::Protocol::Tsocc);

    const sim::SystemConfig config = spec.systemConfig();
    EXPECT_EQ(config.protocol, sim::Protocol::Tsocc);
    EXPECT_EQ(config.bug, sim::BugId::None);
}

TEST(CampaignMatrix, ExpandCardinalityIsTheProduct)
{
    CampaignMatrix matrix;
    matrix.bugs = {"MESI,LQ+IS,Inv", "SQ+no-FIFO"};
    matrix.generators = {"McVerSi-ALL", "McVerSi-Std.XO",
                         "McVerSi-RAND"};
    matrix.seeds = {1, 2, 3, 4};
    const std::vector<CampaignSpec> specs = matrix.expand();
    ASSERT_EQ(specs.size(), 2u * 3u * 4u);

    // Bug-major, then generator, then seed.
    EXPECT_EQ(specs[0].bug, "MESI,LQ+IS,Inv");
    EXPECT_EQ(specs[0].generator, "McVerSi-ALL");
    EXPECT_EQ(specs[0].seed, 1u);
    EXPECT_EQ(specs[1].seed, 2u);
    EXPECT_EQ(specs[4].generator, "McVerSi-Std.XO");
    EXPECT_EQ(specs[12].bug, "SQ+no-FIFO");

    // Non-axis fields come from the base spec.
    CampaignMatrix scaled = matrix;
    scaled.base.testSize = 99;
    for (const CampaignSpec &spec : scaled.expand())
        EXPECT_EQ(spec.testSize, 99u);
}

TEST(CampaignMatrix, EmptyAxesFallBackToTheBaseSpec)
{
    CampaignMatrix matrix;
    matrix.base.bug = "SQ+no-FIFO";
    const std::vector<CampaignSpec> specs = matrix.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0], matrix.base);
}

TEST(CampaignListHelpers, SeedLists)
{
    EXPECT_EQ(parseSeedList("1..4"),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(parseSeedList("7"), (std::vector<std::uint64_t>{7}));
    EXPECT_EQ(parseSeedList("5;9;17"),
              (std::vector<std::uint64_t>{5, 9, 17}));
    EXPECT_THROW(parseSeedList("4..1"), std::invalid_argument);
    EXPECT_THROW(parseSeedList("x..9"), std::invalid_argument);
    EXPECT_THROW(parseSeedList(""), std::invalid_argument);
}

TEST(CampaignListHelpers, ModelListsAreLowerCasedAndChecked)
{
    // models=PSO must name the same cell as model=PSO.
    EXPECT_EQ(resolveModelList("PSO;Tso"),
              (std::vector<std::string>{"pso", "tso"}));
    CampaignSpec single;
    single.set("model=PSO");
    CampaignMatrix matrix;
    matrix.models = resolveModelList("PSO");
    const std::vector<CampaignSpec> specs = matrix.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0], single);
    EXPECT_EQ(specs[0].toString(), single.toString());
    EXPECT_EQ(resolveModelList("all"), mc::modelNames());
    EXPECT_THROW(resolveModelList("tso;no-such-model"),
                 std::invalid_argument);
}

TEST(CampaignListHelpers, BugLists)
{
    EXPECT_EQ(resolveBugList("all").size(), sim::allBugs().size());
    // Protocol filters include the protocol-agnostic bugs.
    EXPECT_EQ(resolveBugList("mesi").size(), 9u);
    EXPECT_EQ(resolveBugList("tsocc").size(), 4u);
    EXPECT_EQ(resolveBugList("MESI,LQ+IS,Inv;SQ+no-FIFO"),
              (std::vector<std::string>{"MESI,LQ+IS,Inv",
                                        "SQ+no-FIFO"}));
}

TEST(CampaignRegistry, BuiltinsAndAliases)
{
    SourceRegistry &registry = SourceRegistry::instance();
    EXPECT_TRUE(registry.has("McVerSi-ALL"));
    EXPECT_TRUE(registry.has("mcversi-all"));
    EXPECT_EQ(registry.canonicalName("rand"), "McVerSi-RAND");
    EXPECT_EQ(registry.canonicalName("stdxo"), "McVerSi-Std.XO");
    EXPECT_FALSE(registry.has("no-such-generator"));
    EXPECT_TRUE(registry.isLitmus("diy-litmus"));
    EXPECT_FALSE(registry.isLitmus("McVerSi-ALL"));

    // Source construction honours the spec and reports paper names.
    CampaignSpec spec;
    const auto source = registry.make("rand", spec);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->name(), "McVerSi-RAND");
    EXPECT_THROW(registry.make("diy-litmus", spec),
                 std::invalid_argument);
    EXPECT_THROW(registry.make("bogus", spec), std::invalid_argument);

    EXPECT_EQ(resolveGeneratorList("all"), registry.names());
}

TEST(CampaignSpec, CheckCacheKeyParsesAndRoundTrips)
{
    CampaignSpec spec;
    EXPECT_EQ(spec.checkCache, 4096u); // collective checking default-on

    spec.set("check-cache=8k");
    EXPECT_EQ(spec.checkCache, 8u * 1024u);
    spec.set("check-cache=off");
    EXPECT_EQ(spec.checkCache, 0u);
    spec.set("check-cache=0");
    EXPECT_EQ(spec.checkCache, 0u);
    EXPECT_THROW(spec.set("check-cache=maybe"), std::invalid_argument);
    EXPECT_THROW(spec.set("check-cache=-1"), std::invalid_argument);

    spec.checkCache = 512;
    EXPECT_EQ(CampaignSpec::fromString(spec.toString()).checkCache,
              512u);

    // The knob reaches the harness params; 0 disables memoization.
    EXPECT_EQ(spec.harnessParams().checkCacheEntries, 512u);
    spec.checkCache = 0;
    EXPECT_EQ(spec.harnessParams().checkCacheEntries, 0u);

    // validate() caps the per-checker footprint.
    CampaignSpec capped;
    capped.checkCache = (1u << 22) + 1;
    EXPECT_THROW(capped.validate(), std::invalid_argument);
    capped.checkCache = 1u << 22;
    EXPECT_NO_THROW(capped.validate());
}

TEST(CampaignSpec, ModelKeyParsesValidatesAndExpands)
{
    CampaignSpec spec;
    EXPECT_EQ(spec.model, "tso"); // the paper's target model

    // set() lower-cases and round-trips through toString().
    spec.set("model=PSO");
    EXPECT_EQ(spec.model, "pso");
    EXPECT_EQ(CampaignSpec::fromString(spec.toString()).model, "pso");
    EXPECT_NO_THROW(spec.validate());

    // Unknown models are rejected at set() time, naming the key and
    // listing what is registered.
    try {
        spec.set("model=alpha");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("model"), std::string::npos) << what;
        EXPECT_NE(what.find("sc, tso, pso, rmo, rc"),
                  std::string::npos)
            << what;
    }

    // Direct assignment (bypassing set()) is caught by validate().
    CampaignSpec direct;
    direct.model = "alpha";
    EXPECT_THROW(direct.validate(), std::invalid_argument);

    // The model reaches the harness checker configuration.
    CampaignSpec weak;
    weak.set("model=rmo");
    EXPECT_EQ(weak.harnessParams().model, "rmo");

    // Matrix: models expand between generators and seeds.
    CampaignMatrix matrix;
    matrix.generators = {"McVerSi-ALL", "McVerSi-RAND"};
    matrix.models = {"tso", "pso", "rmo"};
    matrix.seeds = {1, 2};
    const std::vector<CampaignSpec> specs = matrix.expand();
    ASSERT_EQ(specs.size(), 2u * 3u * 2u);
    EXPECT_EQ(specs[0].model, "tso");
    EXPECT_EQ(specs[1].model, "tso");
    EXPECT_EQ(specs[2].model, "pso");
    EXPECT_EQ(specs[4].model, "rmo");
    EXPECT_EQ(specs[6].generator, "McVerSi-RAND");
    EXPECT_EQ(specs[6].model, "tso");

    // An empty axis inherits the base spec's model.
    CampaignMatrix plain;
    plain.base.set("model=rc");
    ASSERT_EQ(plain.expand().size(), 1u);
    EXPECT_EQ(plain.expand()[0].model, "rc");
}

TEST(CampaignSpec, WitnessWindowParsesValidatesAndRoundTrips)
{
    CampaignSpec spec;
    EXPECT_EQ(spec.witnessWindow, 0u); // unbounded by default

    // Suffixed sizes parse like the other size keys; off/0 disable.
    spec.set("check-mode=streaming");
    spec.set("witness-window=8k");
    EXPECT_EQ(spec.witnessWindow, 8u * 1024u);
    spec.set("witness-window=off");
    EXPECT_EQ(spec.witnessWindow, 0u);
    spec.set("witness-window=0");
    EXPECT_EQ(spec.witnessWindow, 0u);
    EXPECT_THROW(spec.set("witness-window=maybe"),
                 std::invalid_argument);
    EXPECT_THROW(spec.set("witness-window=-1"), std::invalid_argument);

    spec.set("witness-window=4096");
    EXPECT_EQ(CampaignSpec::fromString(spec.toString()).witnessWindow,
              4096u);
    EXPECT_NO_THROW(spec.validate());

    // The knob reaches the harness workload params.
    EXPECT_EQ(spec.harnessParams().workload.witnessWindow, 4096u);

    // Bounded windows require streaming checking (post-hoc needs the
    // whole event log)...
    CampaignSpec posthoc;
    posthoc.witnessWindow = 4096;
    EXPECT_THROW(posthoc.validate(), std::invalid_argument);
    // ...at least one iteration's worth of in-flight events...
    CampaignSpec tiny;
    tiny.checkMode = "streaming";
    tiny.witnessWindow = 32;
    EXPECT_THROW(tiny.validate(), std::invalid_argument);
    // ...and a sane upper bound.
    CampaignSpec huge;
    huge.checkMode = "streaming";
    huge.witnessWindow = (std::size_t{1} << 26) + 1;
    EXPECT_THROW(huge.validate(), std::invalid_argument);
    huge.witnessWindow = std::size_t{1} << 26;
    EXPECT_NO_THROW(huge.validate());

    // Litmus runs check a final condition on the whole witness, so a
    // bounded window would never take effect: reject it, as islands
    // and batch are rejected.
    CampaignSpec litmus;
    litmus.generator = "diy-litmus";
    litmus.checkMode = "streaming";
    EXPECT_NO_THROW(litmus.validate());
    litmus.witnessWindow = 4096;
    EXPECT_THROW(litmus.validate(), std::invalid_argument);
}

TEST(CampaignListHelpers, ThreadCountParsing)
{
    EXPECT_EQ(parseThreadCount("threads", "4"), 4);
    EXPECT_EQ(parseThreadCount("eval-threads", "1"), 1);
    EXPECT_EQ(parseThreadCount("threads", "0x10"), 16);

    // Explicit zero is rejected: hardware concurrency is selected by
    // omitting the key, never by a sentinel value.
    EXPECT_THROW(parseThreadCount("threads", "0"),
                 std::invalid_argument);
    // Negatives must not wrap through unsigned parsing...
    EXPECT_THROW(parseThreadCount("threads", "-2"),
                 std::invalid_argument);
    // ...and trailing garbage must not silently truncate ("4x" -> 4,
    // the old std::stoi behavior).
    EXPECT_THROW(parseThreadCount("threads", "4x"),
                 std::invalid_argument);
    EXPECT_THROW(parseThreadCount("eval-threads", ""),
                 std::invalid_argument);
    EXPECT_THROW(parseThreadCount("threads", "5000"),
                 std::invalid_argument);

    // The error names the offending key.
    try {
        parseThreadCount("eval-threads", "-2");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("eval-threads"),
                  std::string::npos);
    }
}
