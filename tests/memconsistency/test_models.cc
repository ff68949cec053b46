/**
 * @file
 * Unit tests for the consistency-model zoo: profile validation, the
 * registry, structural strictness, and the shared engine's per-model
 * ordering behavior on the four classic relaxation shapes (SB, MP, LB,
 * fenced SB) plus release/acquire message passing -- each checked as a
 * hand-built witness through a full Checker, one model at a time.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "memconsistency/checker.hh"
#include "memconsistency/models/engine.hh"
#include "memconsistency/models/registry.hh"

using namespace mcversi;
using namespace mcversi::mc;

namespace {

constexpr Addr kX = 0x100;
constexpr Addr kY = 0x140;
constexpr Addr kS0 = 0x180;
constexpr Addr kS1 = 0x1c0;

CheckResult::Kind
verdict(const std::string &model, ExecWitness ew)
{
    const Checker checker(makeModel(model));
    return checker.check(ew).kind;
}

/** Store buffering: both threads write then read the other variable,
 * both reads see init. Needs W->R order to forbid. */
ExecWitness
storeBufferingWitness()
{
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kY, kInitVal);
    ew.recordWrite(1, 0, kY, 2, kInitVal);
    ew.recordRead(1, 1, kX, kInitVal);
    return ew;
}

/** Message passing: t1 sees the flag but stale data. Needs W->W (t0)
 * and R->R (t1) to forbid. */
ExecWitness
messagePassingWitness()
{
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kY, 2, kInitVal);
    ew.recordRead(1, 0, kY, 2);
    ew.recordRead(1, 1, kX, kInitVal);
    return ew;
}

/** Load buffering: each read sees the other thread's po-later write.
 * Needs R->W order to forbid. */
ExecWitness
loadBufferingWitness()
{
    ExecWitness ew;
    ew.recordRead(0, 0, kY, 2);
    ew.recordWrite(0, 1, kX, 1, kInitVal);
    ew.recordRead(1, 0, kX, 1);
    ew.recordWrite(1, 1, kY, 2, kInitVal);
    return ew;
}

/** Store buffering with a full-fence RMW to a private scratch variable
 * between each thread's write and read. */
ExecWitness
fencedStoreBufferingWitness()
{
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kS0, kInitVal, /*rmw=*/true);
    ew.recordWrite(0, 1, kS0, 10, kInitVal, /*rmw=*/true);
    ew.recordRead(0, 2, kY, kInitVal);
    ew.recordWrite(1, 0, kY, 2, kInitVal);
    ew.recordRead(1, 1, kS1, kInitVal, /*rmw=*/true);
    ew.recordWrite(1, 1, kS1, 11, kInitVal, /*rmw=*/true);
    ew.recordRead(1, 2, kX, kInitVal);
    return ew;
}

/** Message passing through a release/acquire RMW pair on s: t1's RMW
 * reads t0's RMW write, yet t1's read of x sees init. */
ExecWitness
relAcqMessagePassingWitness()
{
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kS0, kInitVal, /*rmw=*/true);
    ew.recordWrite(0, 1, kS0, 5, kInitVal, /*rmw=*/true);
    ew.recordRead(1, 0, kS0, 5, /*rmw=*/true);
    ew.recordWrite(1, 0, kS0, 6, 5, /*rmw=*/true);
    ew.recordRead(1, 1, kX, kInitVal);
    return ew;
}

} // namespace

TEST(ModelRegistry, NamesAndLookup)
{
    EXPECT_EQ(modelNames(),
              (std::vector<std::string>{"sc", "tso", "pso", "rmo",
                                        "rc"}));
    EXPECT_EQ(modelNamesJoined(), "sc, tso, pso, rmo, rc");
    for (const std::string &name : modelNames())
        EXPECT_TRUE(hasModel(name)) << name;
    // Lookup is case-insensitive; display names resolve too.
    EXPECT_TRUE(hasModel("TSO"));
    EXPECT_TRUE(hasModel("Sc"));
    EXPECT_FALSE(hasModel("x86"));
    EXPECT_FALSE(hasModel(""));

    EXPECT_EQ(modelProfile("tso").name, "TSO");
    EXPECT_EQ(makeModel("RMO").name(), "RMO");
    try {
        modelProfile("alpha");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The error names every registered model.
        EXPECT_NE(std::string(e.what()).find("sc, tso, pso, rmo, rc"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(makeModel("alpha"), std::invalid_argument);
}

TEST(ModelRegistry, StoreAtomicityFlags)
{
    // SC is the only multi-copy-atomic profile: internal rf
    // participates in ghb.
    EXPECT_TRUE(makeModel("sc").ghbIncludesRfi());
    for (const char *name : {"tso", "pso", "rmo", "rc"})
        EXPECT_FALSE(makeModel(name).ghbIncludesRfi()) << name;
}

TEST(ModelProfileValidation, RejectsUninterpretableProfiles)
{
    ModelProfile p{.name = "bad"};

    // orderRW requires the read chain.
    p = {.name = "bad", .orderRW = true};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    EXPECT_THROW(ProfileModel{p}, std::invalid_argument);

    // orderWR requires a chain on at least one side.
    p = {.name = "bad", .orderWR = true};
    EXPECT_THROW(p.validate(), std::invalid_argument);

    // AcquireRelease composes only with fence-free ppo profiles.
    p = {.name = "bad",
         .orderRR = true,
         .rmwFence = RmwSemantics::AcquireRelease};
    EXPECT_THROW(p.validate(), std::invalid_argument);

    // Profiles need a name.
    p = {.name = "", .orderRR = true};
    EXPECT_THROW(p.validate(), std::invalid_argument);

    // Every registered profile is valid by construction.
    for (const std::string &name : modelNames())
        EXPECT_NO_THROW(modelProfile(name).validate()) << name;
}

TEST(ModelProfileValidation, StrictnessLadderAndIncomparables)
{
    const ModelProfile &sc = modelProfile("sc");
    const ModelProfile &tso = modelProfile("tso");
    const ModelProfile &pso = modelProfile("pso");
    const ModelProfile &rmo = modelProfile("rmo");
    const ModelProfile &rc = modelProfile("rc");

    // SC's full ppo subsumes fence semantics even though its RMWs
    // carry no fence of their own (rmwFence = None).
    EXPECT_TRUE(sc.atLeastAsStrongAs(tso));
    EXPECT_TRUE(tso.atLeastAsStrongAs(pso));
    EXPECT_TRUE(pso.atLeastAsStrongAs(rmo));
    EXPECT_TRUE(rmo.atLeastAsStrongAs(rc));
    EXPECT_TRUE(sc.atLeastAsStrongAs(rc));

    EXPECT_FALSE(tso.atLeastAsStrongAs(sc));
    EXPECT_FALSE(pso.atLeastAsStrongAs(tso));
    EXPECT_FALSE(rmo.atLeastAsStrongAs(pso));
    EXPECT_FALSE(rc.atLeastAsStrongAs(rmo));

    // Reflexivity.
    for (const std::string &name : modelNames()) {
        EXPECT_TRUE(modelProfile(name).atLeastAsStrongAs(
            modelProfile(name)))
            << name;
    }

    // Incomparable ppo sets: neither dominates.
    const ModelProfile a{.name = "A", .orderRR = true};
    const ModelProfile b{.name = "B", .orderWW = true};
    EXPECT_FALSE(a.atLeastAsStrongAs(b));
    EXPECT_FALSE(b.atLeastAsStrongAs(a));
}

TEST(ModelEngine, StoreBufferingNeedsWriteReadOrder)
{
    EXPECT_EQ(verdict("sc", storeBufferingWitness()),
              CheckResult::Kind::GhbViolation);
    for (const char *name : {"tso", "pso", "rmo", "rc"}) {
        EXPECT_EQ(verdict(name, storeBufferingWitness()),
                  CheckResult::Kind::Ok)
            << name;
    }
}

TEST(ModelEngine, MessagePassingNeedsWriteWriteOrder)
{
    for (const char *name : {"sc", "tso"}) {
        EXPECT_EQ(verdict(name, messagePassingWitness()),
                  CheckResult::Kind::GhbViolation)
            << name;
    }
    for (const char *name : {"pso", "rmo", "rc"}) {
        EXPECT_EQ(verdict(name, messagePassingWitness()),
                  CheckResult::Kind::Ok)
            << name;
    }
}

TEST(ModelEngine, LoadBufferingNeedsReadWriteOrder)
{
    for (const char *name : {"sc", "tso", "pso"}) {
        EXPECT_EQ(verdict(name, loadBufferingWitness()),
                  CheckResult::Kind::GhbViolation)
            << name;
    }
    for (const char *name : {"rmo", "rc"}) {
        EXPECT_EQ(verdict(name, loadBufferingWitness()),
                  CheckResult::Kind::Ok)
            << name;
    }
}

TEST(ModelEngine, FullFencesBridgeWriteToRead)
{
    // With full-fence RMWs between each thread's write and read, SB's
    // relaxed outcome is forbidden everywhere except under
    // release/acquire semantics, which provide no W->R crossing edge.
    for (const char *name : {"sc", "tso", "pso", "rmo"}) {
        EXPECT_EQ(verdict(name, fencedStoreBufferingWitness()),
                  CheckResult::Kind::GhbViolation)
            << name;
    }
    EXPECT_EQ(verdict("rc", fencedStoreBufferingWitness()),
              CheckResult::Kind::Ok);
}

TEST(ModelEngine, ReleaseAcquireOrdersSynchronizedMessagePassing)
{
    // The release (write part after po-earlier events) and acquire
    // (read part before po-later events) halves chain through the rf
    // edge between the RMW pairs, so every registered model forbids
    // the stale read -- including RC, whose plain po preserves
    // nothing.
    for (const std::string &name : modelNames()) {
        EXPECT_EQ(verdict(name, relAcqMessagePassingWitness()),
                  CheckResult::Kind::GhbViolation)
            << name;
    }
}

TEST(ModelEngine, RmwSemanticsNames)
{
    EXPECT_STREQ(rmwSemanticsName(RmwSemantics::Full), "full-fence");
    EXPECT_STREQ(rmwSemanticsName(RmwSemantics::AcquireRelease),
                 "acquire-release");
    EXPECT_STREQ(rmwSemanticsName(RmwSemantics::None), "none");
}
