/** @file Transition coverage tracker tests. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/coverage.hh"
#include "sim/fault.hh"
#include "sim/transition_table.hh"

using namespace mcversi::sim;

TEST(Coverage, RegistrationIsIdempotent)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("C", "S1", "E1");
    const auto b = cov.registerTransition("C", "S1", "E1");
    const auto c = cov.registerTransition("C", "S1", "E2");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(cov.numTransitions(), 2u);
}

TEST(Coverage, CountsAccumulate)
{
    TransitionCoverage cov;
    const auto id = cov.registerTransition("C", "S", "E");
    cov.record(id);
    cov.record(id);
    EXPECT_EQ(cov.counts()[id], 2u);
}

TEST(Coverage, TotalCoverageFraction)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("C", "S", "E1");
    cov.registerTransition("C", "S", "E2");
    EXPECT_DOUBLE_EQ(cov.totalCoverage(), 0.0);
    cov.record(a);
    EXPECT_DOUBLE_EQ(cov.totalCoverage(), 0.5);
}

TEST(Coverage, PrefixCoverage)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("MESI-L1", "S", "E");
    cov.registerTransition("MESI-L2", "S", "E");
    cov.record(a);
    EXPECT_DOUBLE_EQ(cov.totalCoverage("MESI-L1"), 1.0);
    EXPECT_DOUBLE_EQ(cov.totalCoverage("MESI-L2"), 0.0);
    EXPECT_DOUBLE_EQ(cov.totalCoverage("MESI"), 0.5);
    EXPECT_DOUBLE_EQ(cov.totalCoverage("TSOCC"), 0.0);
}

TEST(Coverage, RunDeltaCapturesCoveredIds)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("C", "S", "E1");
    const auto b = cov.registerTransition("C", "S", "E2");
    cov.record(a); // before the run
    cov.beginRun();
    EXPECT_EQ(cov.preRunCounts()[a], 1u);
    cov.record(b);
    auto covered = cov.endRun();
    ASSERT_EQ(covered.size(), 1u);
    EXPECT_EQ(covered[0], b);
}

TEST(Coverage, RunDeltaListsEachIdOnceInFirstOccurrenceOrder)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("C", "S", "E1");
    const auto b = cov.registerTransition("C", "S", "E2");
    const auto c = cov.registerTransition("C", "S", "E3");
    cov.beginRun();
    cov.record(c);
    cov.record(a);
    cov.record(c);
    cov.record(a);
    EXPECT_EQ(cov.endRun(), (std::vector<std::uint32_t>{c, a}));
    // A new run starts empty even for ids the last run covered.
    cov.beginRun();
    cov.record(b);
    cov.record(c);
    EXPECT_EQ(cov.endRun(), (std::vector<std::uint32_t>{b, c}));
    EXPECT_EQ(cov.counts()[c], 3u);
}

TEST(Coverage, RecordsOutsideRunNotInDelta)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("C", "S", "E1");
    cov.beginRun();
    auto covered = cov.endRun();
    EXPECT_TRUE(covered.empty());
    cov.record(a);
    cov.beginRun();
    EXPECT_TRUE(cov.endRun().empty());
}

TEST(Coverage, NameLookup)
{
    TransitionCoverage cov;
    const auto a = cov.registerTransition("MESI-L1", "IS", "Inv");
    EXPECT_EQ(cov.name(a), "MESI-L1/IS/Inv");
}

TEST(TransitionTable, RecordsDefinedTransitions)
{
    TransitionCoverage cov;
    TransitionTable table(cov, "T", {"A", "B"}, {"x", "y"});
    table.define(0, 0);
    table.define(1, 1);
    EXPECT_TRUE(table.defined(0, 0));
    EXPECT_FALSE(table.defined(0, 1));
    table.record(0, 0);
    EXPECT_DOUBLE_EQ(cov.totalCoverage(), 0.5);
}

TEST(TransitionTable, UndefinedTransitionThrowsProtocolError)
{
    TransitionCoverage cov;
    TransitionTable table(cov, "T", {"A", "B"}, {"x", "y"});
    table.define(0, 0);
    try {
        table.record(1, 0);
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError &err) {
        EXPECT_EQ(err.controller(), "T");
        EXPECT_EQ(err.state(), "B");
        EXPECT_EQ(err.event(), "x");
        EXPECT_NE(std::string(err.what()).find("invalid transition"),
                  std::string::npos);
    }
}
