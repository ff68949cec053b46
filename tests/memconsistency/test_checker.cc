/**
 * @file
 * Checker tests on hand-built witnesses: the classic litmus shapes must
 * be classified correctly under SC and TSO.
 */

#include <gtest/gtest.h>

#include "memconsistency/checker.hh"
#include "memconsistency/models/registry.hh"

using namespace mcversi::mc;
using namespace mcversi;

namespace {

constexpr Addr kX = 0x100;
constexpr Addr kY = 0x140;

} // namespace

TEST(Checker, EmptyWitnessOk)
{
    ExecWitness ew;
    Checker tso(makeTso());
    EXPECT_TRUE(tso.check(ew).ok());
}

TEST(Checker, SequentialSingleThreadOk)
{
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kX, 1);
    ew.recordWrite(0, 2, kX, 2, 1);
    ew.recordRead(0, 3, kX, 2);
    Checker sc(makeSc());
    EXPECT_TRUE(sc.check(ew).ok());
}

TEST(Checker, CoRRViolationCaughtByUniproc)
{
    // Same-address reads going backwards: r1 sees the newer write,
    // a later r2 sees the older one.
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kX, 2, 1);
    ew.recordRead(1, 0, kX, 2);
    ew.recordRead(1, 1, kX, 1);
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::UniprocViolation);
    EXPECT_FALSE(res.cycle.empty());
}

TEST(Checker, ReadOwnFutureWriteForbidden)
{
    // A read observing a po-later write to the same address.
    ExecWitness ew;
    ew.recordRead(0, 0, kX, 5);
    ew.recordWrite(0, 1, kX, 5, kInitVal);
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::UniprocViolation);
}

namespace {

/** Build the MP (message passing) outcome r1 = newY, r2 = oldX. */
void
buildMpViolation(ExecWitness &ew)
{
    // P0: x = 1; y = 1.   P1: r1 = y (1); r2 = x (0).
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kY, 2, kInitVal);
    ew.recordRead(1, 0, kY, 2);
    ew.recordRead(1, 1, kX, kInitVal);
}

} // namespace

TEST(Checker, MpForbiddenUnderTso)
{
    ExecWitness ew;
    buildMpViolation(ew);
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::GhbViolation);
}

TEST(Checker, MpForbiddenUnderSc)
{
    ExecWitness ew;
    buildMpViolation(ew);
    Checker sc(makeSc());
    EXPECT_FALSE(sc.check(ew).ok());
}

TEST(Checker, MpAllowedOutcomesOk)
{
    // r1 = 1, r2 = 1 is fine.
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kY, 2, kInitVal);
    ew.recordRead(1, 0, kY, 2);
    ew.recordRead(1, 1, kX, 1);
    Checker tso(makeTso());
    EXPECT_TRUE(tso.check(ew).ok());
}

namespace {

/** Store buffering: both reads see the initial value. */
void
buildSb(ExecWitness &ew)
{
    // P0: x = 1; r0 = y (0).   P1: y = 2; r1 = x (0).
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kY, kInitVal);
    ew.recordWrite(1, 0, kY, 2, kInitVal);
    ew.recordRead(1, 1, kX, kInitVal);
}

} // namespace

TEST(Checker, SbAllowedUnderTso)
{
    // The W->R relaxation: TSO permits this, SC does not.
    ExecWitness ew;
    buildSb(ew);
    Checker tso(makeTso());
    EXPECT_TRUE(tso.check(ew).ok());
}

TEST(Checker, SbForbiddenUnderSc)
{
    ExecWitness ew;
    buildSb(ew);
    Checker sc(makeSc());
    const CheckResult res = sc.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::GhbViolation);
}

TEST(Checker, SbWithRmwFencesForbiddenUnderTso)
{
    // SB with an atomic RMW (full fence on x86) between each store and
    // load: the relaxation is gone, the outcome forbidden.
    ExecWitness ew;
    constexpr Addr kS1 = 0x200;
    constexpr Addr kS2 = 0x240;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kS1, kInitVal, true);
    ew.recordWrite(0, 1, kS1, 10, kInitVal, true);
    ew.recordRead(0, 2, kY, kInitVal);
    ew.recordWrite(1, 0, kY, 2, kInitVal);
    ew.recordRead(1, 1, kS2, kInitVal, true);
    ew.recordWrite(1, 1, kS2, 11, kInitVal, true);
    ew.recordRead(1, 2, kX, kInitVal);
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::GhbViolation);
}

TEST(Checker, LoadBufferingForbiddenUnderTso)
{
    // LB: r0 = x observes P1's write, r1 = y observes P0's write;
    // requires load->store reordering, forbidden under TSO.
    ExecWitness ew;
    ew.recordRead(0, 0, kX, 3);
    ew.recordWrite(0, 1, kY, 2, kInitVal);
    ew.recordRead(1, 0, kY, 2);
    ew.recordWrite(1, 1, kX, 3, kInitVal);
    Checker tso(makeTso());
    EXPECT_FALSE(tso.check(ew).ok());
}

TEST(Checker, StoreForwardingAllowedUnderTso)
{
    // A thread reading its own store early (rfi) plus SB outcome:
    // allowed under TSO (rfi is not global).
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordRead(0, 1, kX, 1);      // forwarded
    ew.recordRead(0, 2, kY, kInitVal);
    ew.recordWrite(1, 0, kY, 2, kInitVal);
    ew.recordRead(1, 1, kY, 2);      // forwarded
    ew.recordRead(1, 2, kX, kInitVal);
    Checker tso(makeTso());
    EXPECT_TRUE(tso.check(ew).ok());

    // Under SC all rf edges are global: the same witness is forbidden.
    ExecWitness ew2;
    ew2.recordWrite(0, 0, kX, 1, kInitVal);
    ew2.recordRead(0, 1, kX, 1);
    ew2.recordRead(0, 2, kY, kInitVal);
    ew2.recordWrite(1, 0, kY, 2, kInitVal);
    ew2.recordRead(1, 1, kY, 2);
    ew2.recordRead(1, 2, kX, kInitVal);
    Checker sc(makeSc());
    EXPECT_FALSE(sc.check(ew2).ok());
}

TEST(Checker, RmwAtomicityViolation)
{
    // A foreign write slips between the RMW's read and write.
    ExecWitness ew;
    ew.recordRead(0, 0, kX, kInitVal, true);
    ew.recordWrite(1, 0, kX, 7, kInitVal);  // intervening write
    ew.recordWrite(0, 0, kX, 9, 7, true);   // rmw write overwrote 7
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::AtomicityViolation);
}

TEST(Checker, RmwAtomicityOk)
{
    ExecWitness ew;
    ew.recordRead(0, 0, kX, kInitVal, true);
    ew.recordWrite(0, 0, kX, 9, kInitVal, true);
    ew.recordWrite(1, 0, kX, 7, 9);
    Checker tso(makeTso());
    EXPECT_TRUE(tso.check(ew).ok());
}

TEST(Checker, WitnessAnomalyReported)
{
    ExecWitness ew;
    ew.recordRead(0, 0, kX, 12345); // never written
    Checker tso(makeTso());
    const CheckResult res = tso.check(ew);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::WitnessAnomaly);
}

TEST(Checker, CoViolationWriteWriteReordering)
{
    // P0 writes x then y; P1 observes y's write but an x older than
    // P0's x write, via fr: forbidden W->W reordering evidence.
    ExecWitness ew;
    ew.recordWrite(0, 0, kX, 1, kInitVal);
    ew.recordWrite(0, 1, kY, 2, kInitVal);
    // P1: r(y)=2 then write x=3 overwriting init (so P0's x=1 must
    // come after, i.e. x=1 overwrote 3)? Build instead the 2+2W shape:
    // P0: x=1; y=2.  P1: y=4; x=5. with co x: 5 -> 1, co y: 2 -> 4.
    ExecWitness w2;
    w2.recordWrite(0, 0, kX, 1, 5);
    w2.recordWrite(0, 1, kY, 2, kInitVal);
    w2.recordWrite(1, 0, kY, 4, 2);
    w2.recordWrite(1, 1, kX, 5, kInitVal);
    Checker tso(makeTso());
    const CheckResult res = tso.check(w2);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.kind, CheckResult::Kind::GhbViolation);
}

TEST(Checker, KindNames)
{
    EXPECT_STREQ(CheckResult::kindName(CheckResult::Kind::Ok), "ok");
    EXPECT_STREQ(
        CheckResult::kindName(CheckResult::Kind::GhbViolation), "ghb");
}

TEST(Checker, DegenerateZeroEventWitnessOkUnderEveryModel)
{
    // A test-run that commits nothing at all (e.g. an all-NOP body)
    // must check clean under every registered model, repeatedly, on a
    // reused checker.
    for (const std::string &name : modelNames()) {
        Checker checker(makeModel(name));
        ExecWitness ew;
        EXPECT_TRUE(checker.check(ew).ok()) << name;
        ew.reset();
        EXPECT_TRUE(checker.check(ew).ok()) << name;
    }
}

TEST(Checker, DegenerateSingleThreadWitnessOkUnderEveryModel)
{
    // One thread alone can never violate a multi-copy-atomic model as
    // long as its reads observe the latest same-thread store; include
    // an RMW so the fence machinery runs with no cross-thread edges.
    for (const std::string &name : modelNames()) {
        Checker checker(makeModel(name));
        ExecWitness ew;
        ew.recordWrite(0, 0, kX, 1, kInitVal);
        ew.recordRead(0, 1, kX, 1);
        ew.recordRead(0, 2, kX, 1, /*rmw=*/true);
        ew.recordWrite(0, 2, kX, 2, 1, /*rmw=*/true);
        ew.recordRead(0, 3, kY, kInitVal);
        ew.recordWrite(0, 4, kY, 3, kInitVal);
        ew.recordRead(0, 5, kY, 3);
        EXPECT_TRUE(checker.check(ew).ok()) << name;
    }
}

TEST(Checker, DegenerateAllInitReadsWitnessOkUnderEveryModel)
{
    // A witness with no writes at all: every read observes the initial
    // value, so rf is entirely init-sourced, co is empty, and no fr
    // edge can exist.
    for (const std::string &name : modelNames()) {
        Checker checker(makeModel(name));
        ExecWitness ew;
        for (Pid pid = 0; pid < 3; ++pid) {
            for (std::int32_t poi = 0; poi < 4; ++poi) {
                ew.recordRead(pid, poi, poi % 2 == 0 ? kX : kY,
                              kInitVal);
            }
        }
        EXPECT_TRUE(checker.check(ew).ok()) << name;
    }
}

TEST(Checker, ScratchReuseAcrossChecksIsClean)
{
    // One checker instance must give independent verdicts across
    // witnesses of different shapes and sizes (its scratch graphs and
    // fr buffer are reused in between).
    Checker tso(makeTso());

    ExecWitness bad;
    buildMpViolation(bad);
    EXPECT_EQ(tso.check(bad).kind, CheckResult::Kind::GhbViolation);

    ExecWitness good;
    good.recordWrite(0, 0, kX, 1, kInitVal);
    good.recordRead(1, 0, kX, 1);
    EXPECT_TRUE(tso.check(good).ok());

    ExecWitness bigger;
    buildMpViolation(bigger);
    bigger.recordRead(2, 0, kY, 2);
    bigger.recordRead(2, 1, kX, 1);
    EXPECT_EQ(tso.check(bigger).kind, CheckResult::Kind::GhbViolation);

    ExecWitness empty;
    EXPECT_TRUE(tso.check(empty).ok());
}
