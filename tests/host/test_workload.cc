/** @file Workload (Algorithm 2) tests on the real system. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "gp/randgen.hh"
#include "host/harness.hh"
#include "host/workload.hh"
#include "sim/fault.hh"

using namespace mcversi;
using namespace mcversi::host;
using mcversi::host::layoutFor;

namespace {

struct WorkloadFixture
{
    sim::SystemConfig cfg;
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<mc::Checker> checker;
    std::unique_ptr<Workload> workload;
    gp::GenParams gen;

    explicit WorkloadFixture(sim::BugId bug = sim::BugId::None,
                             int iterations = 3)
    {
        cfg.bug = bug;
        cfg.seed = 11;
        sys = std::make_unique<sim::System>(cfg);
        checker = std::make_unique<mc::Checker>(mc::makeTso());
        gen.testSize = 64;
        gen.iterations = iterations;
        gen.memSize = 1024;
        Workload::Params params;
        params.iterations = iterations;
        workload = std::make_unique<Workload>(*sys, *checker,
                                              layoutFor(gen), params);
    }
};

} // namespace

TEST(Workload, RunsAllIterationsOnCleanSystem)
{
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(1);
    RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_FALSE(r.bugDetected());
    EXPECT_EQ(r.iterationsRun, 3);
    EXPECT_GT(r.eventsExecuted, 0u);
    EXPECT_GT(r.simTicks, 0u);
    EXPECT_EQ(r.describe(), "ok");
}

TEST(Workload, CoverageDeltaNonEmpty)
{
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(2);
    RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_FALSE(r.coveredTransitions.empty());
    EXPECT_FALSE(r.preRunCounts.empty());
}

TEST(Workload, NdtAtLeastOneForRacyMemory)
{
    // With a tiny 1KB region and 64 ops the test is automatically racy
    // (paper: 1KB tests start with NDT > 2); at minimum every executed
    // event has one producer.
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(3);
    RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_GE(r.nd.ndt, 0.9);
}

TEST(Workload, EmitProgramsMapsThreadsAndAddresses)
{
    WorkloadFixture f;
    std::vector<gp::Node> nodes;
    nodes.push_back({0, gp::Op{gp::OpKind::Write, 0x10}});
    nodes.push_back({1, gp::Op{gp::OpKind::Read, 0x20}});
    nodes.push_back({0, gp::Op{gp::OpKind::Delay}});
    gp::Test test(std::move(nodes));
    gp::ThreadSlots slots;
    auto programs = f.workload->emitPrograms(test, slots);
    ASSERT_EQ(programs.size(), 8u);
    EXPECT_EQ(programs[0].instrs.size(), 2u);
    EXPECT_EQ(programs[1].instrs.size(), 1u);
    EXPECT_EQ(programs[0].instrs[0].kind, sim::InstrKind::Store);
    const TestMemLayout &layout = f.workload->services().layout();
    EXPECT_EQ(programs[0].instrs[0].addr, layout.toPhys(0x10));
    EXPECT_EQ(std::vector<std::size_t>(slots.thread(0).begin(),
                                       slots.thread(0).end()),
              (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(std::vector<std::size_t>(slots.thread(1).begin(),
                                       slots.thread(1).end()),
              (std::vector<std::size_t>{1}));
}

TEST(Workload, DetectsInjectedLqBug)
{
    // LQ+no-TSO is the easiest bug (found in ~0.00h in the paper):
    // random 1KB tests should expose it within a modest budget.
    WorkloadFixture f(sim::BugId::LqNoTso, 4);
    gp::RandomTestGen rtg(f.gen);
    Rng rng(4);
    bool found = false;
    for (int t = 0; t < 300 && !found; ++t) {
        RunResult r = f.workload->runTest(rtg.randomTest(rng));
        if (r.bugDetected()) {
            found = true;
            EXPECT_TRUE(r.violation);
            EXPECT_GE(r.violationIteration, 0);
            EXPECT_FALSE(r.describe().empty());
        }
    }
    EXPECT_TRUE(found);
}

TEST(Workload, ConditionHookStopsRun)
{
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(5);
    int calls = 0;
    RunResult r = f.workload->runTest(
        rtg.randomTest(rng), [&calls](const mc::ExecWitness &) {
            ++calls;
            return true; // "forbidden outcome" on first iteration
        });
    EXPECT_TRUE(r.conditionHit);
    EXPECT_TRUE(r.bugDetected());
    EXPECT_EQ(r.iterationsRun, 1);
    EXPECT_EQ(calls, 1);
}

TEST(Workload, CheckTimeIsMeasured)
{
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(6);
    RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_GT(r.checkSeconds, 0.0);
    EXPECT_GT(r.totalSeconds, r.checkSeconds);
}

TEST(Workload, GuestBarrierSkewStillCorrect)
{
    WorkloadFixture f;
    Workload::Params params = f.workload->params();
    params.barrierSkew = 400; // guest software barrier
    params.guestOverhead = 1000;
    f.workload->setParams(params);
    gp::RandomTestGen rtg(f.gen);
    Rng rng(7);
    RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_FALSE(r.bugDetected())
        << "skewed starts must not break correctness";
}

namespace {

/** A self-rescheduling event: the simulation never goes quiescent. */
void
spinForever(void *obj, std::uint64_t, std::uint64_t, std::uint64_t,
            std::uint64_t)
{
    static_cast<sim::EventQueue *>(obj)->scheduleFnIn(1, spinForever, obj);
}

void
throwRuntimeError(void *, std::uint64_t, std::uint64_t, std::uint64_t,
                  std::uint64_t)
{
    throw std::runtime_error("not a watchdog abort");
}

/** Far above test memory; line i maps to tile 0's L2 set 0. */
Addr
strandedLine(int i)
{
    return (Addr{1} << 30) + static_cast<Addr>(i) * 8 * 512 * kLineBytes;
}

/** Main memory that never answers reads of the stranded lines. */
struct DroppingMemory : sim::MsgHandler
{
    sim::MainMemory &mem;

    explicit DroppingMemory(sim::MainMemory &m) : mem(m) {}

    void
    handleMsg(const sim::Msg &msg) override
    {
        if (msg.type == sim::MsgType::MemRead && msg.line >= strandedLine(0))
            return;
        mem.handleMsg(msg);
    }
};

/** Five GETS into one 4-way L2 set whose fetches never return. */
void
strandFiveFetches(void *obj, std::uint64_t, std::uint64_t, std::uint64_t,
                  std::uint64_t)
{
    sim::MesiL2 &l2 = *static_cast<sim::System *>(obj)->mesiL2(0);
    for (int i = 0; i < 5; ++i) {
        sim::Msg gets;
        gets.type = sim::MsgType::GETS;
        gets.line = strandedLine(i);
        gets.src = sim::coreNode(static_cast<Pid>(i));
        gets.dst = sim::l2Node(0);
        gets.requester = static_cast<Pid>(i);
        l2.handleMsg(gets);
    }
}

} // namespace

TEST(Workload, StallDeadlockAbandonsOnlyTheStalledIteration)
{
    WorkloadFixture f(sim::BugId::None, 2);
    DroppingMemory memory(f.sys->memory());
    f.sys->network().registerNode(sim::kMemNode, &memory);
    gp::RandomTestGen rtg(f.gen);
    Rng rng(11);
    // The first iteration ends quiescent with one GETS still parked:
    // counted as a watchdog abort; the second runs clean.
    f.sys->eventQueue().scheduleFnIn(1, strandFiveFetches, f.sys.get());
    const RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_EQ(r.watchdogAborts, 1);
    EXPECT_FALSE(r.bugDetected());
    EXPECT_EQ(f.sys->mesiL2(0)->stalls().size(), 0u);
}

TEST(Workload, WatchdogAbortAbandonsOnlyTheLivelockedIteration)
{
    WorkloadFixture f(sim::BugId::None, 2);
    gp::RandomTestGen rtg(f.gen);
    Rng rng(9);
    sim::EventQueue &eq = f.sys->eventQueue();
    // Pending events survive into the first iteration, which then
    // trips the event cap; the abort clears them for the second.
    eq.scheduleFnIn(1, spinForever, &eq);
    const RunResult r = f.workload->runTest(rtg.randomTest(rng));
    EXPECT_EQ(r.watchdogAborts, 1);
    EXPECT_FALSE(r.bugDetected());
    EXPECT_TRUE(eq.empty());
}

TEST(Workload, NonWatchdogRuntimeErrorsPropagate)
{
    WorkloadFixture f;
    gp::RandomTestGen rtg(f.gen);
    Rng rng(10);
    sim::EventQueue &eq = f.sys->eventQueue();
    eq.scheduleFnIn(1, throwRuntimeError, nullptr);
    try {
        f.workload->runTest(rtg.randomTest(rng));
        FAIL() << "the runtime_error was swallowed";
    } catch (const sim::WatchdogAbort &) {
        FAIL() << "reported as a watchdog abort";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "not a watchdog abort");
    }
}
