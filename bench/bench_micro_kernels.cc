/**
 * @file
 * google-benchmark micro-benchmarks for the hot kernels: the axiomatic
 * checker (per-iteration cost, §4.1), witness recording, the
 * selective crossover, and the RNG.
 */

#include <benchmark/benchmark.h>

#include "mcversi.hh"

using namespace mcversi;

namespace {

/** Build a racy multi-threaded witness of ~n events. */
mc::ExecWitness
buildWitness(int threads, int events_per_thread, std::uint64_t seed)
{
    Rng rng(seed);
    mc::ExecWitness ew;
    const Addr addrs[] = {0x0, 0x40, 0x80, 0xc0, 0x100, 0x140};
    std::vector<WriteVal> last(std::size(addrs), kInitVal);
    WriteVal next = 1;
    for (int e = 0; e < events_per_thread; ++e) {
        for (Pid p = 0; p < threads; ++p) {
            const std::size_t a = rng.below(std::size(addrs));
            if (rng.boolWithProb(0.45)) {
                const WriteVal v = next++;
                ew.recordWrite(p, e, addrs[a], v, last[a]);
                last[a] = v;
            } else {
                ew.recordRead(p, e, addrs[a], last[a]);
            }
        }
    }
    return ew;
}

void
BM_CheckerTso(benchmark::State &state)
{
    const int per_thread = static_cast<int>(state.range(0));
    mc::Checker checker(mc::makeTso());
    std::uint64_t seed = 1;
    for (auto _ : state) {
        state.PauseTiming();
        mc::ExecWitness ew = buildWitness(8, per_thread, seed++);
        state.ResumeTiming();
        benchmark::DoNotOptimize(checker.check(ew));
    }
    state.SetItemsProcessed(state.iterations() * 8 * per_thread);
}
BENCHMARK(BM_CheckerTso)->Arg(32)->Arg(128)->Arg(512);

void
BM_CheckerSc(benchmark::State &state)
{
    mc::Checker checker(mc::makeSc());
    std::uint64_t seed = 1;
    for (auto _ : state) {
        state.PauseTiming();
        mc::ExecWitness ew = buildWitness(8, 128, seed++);
        state.ResumeTiming();
        benchmark::DoNotOptimize(checker.check(ew));
    }
}
BENCHMARK(BM_CheckerSc);

void
BM_WitnessRecording(benchmark::State &state)
{
    for (auto _ : state) {
        mc::ExecWitness ew = buildWitness(8, 128, 7);
        ew.finalize();
        benchmark::DoNotOptimize(ew.numEvents());
    }
}
BENCHMARK(BM_WitnessRecording);

void
BM_SelectiveCrossover(benchmark::State &state)
{
    gp::GenParams gen;
    gen.testSize = 1000; // Table 3 size
    gp::GaParams ga;
    gp::RandomTestGen rtg(gen);
    Rng rng(9);
    gp::Test t1 = rtg.randomTest(rng);
    gp::Test t2 = rtg.randomTest(rng);
    gp::NdInfo nd1;
    gp::NdInfo nd2;
    for (int i = 0; i < 8; ++i) {
        nd1.fitaddrs.insert(rtg.randomAddr(rng));
        nd2.fitaddrs.insert(rtg.randomAddr(rng));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gp::crossoverMutate(t1, nd1, t2, nd2, rtg, ga, rng));
    }
}
BENCHMARK(BM_SelectiveCrossover);

void
BM_RandomTestGeneration(benchmark::State &state)
{
    gp::GenParams gen;
    gen.testSize = 1000;
    gp::RandomTestGen rtg(gen);
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(rtg.randomTest(rng));
}
BENCHMARK(BM_RandomTestGeneration);

void
BM_Rng(benchmark::State &state)
{
    Rng rng(13);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(1000));
}
BENCHMARK(BM_Rng);

void
BM_SimTestRun(benchmark::State &state)
{
    // End-to-end cost of one test-run on the full system (the unit of
    // GP evaluation): dominates verification wall-clock.
    sim::SystemConfig cfg;
    cfg.seed = 21;
    sim::System system(cfg);
    mc::Checker checker(mc::makeTso());
    gp::GenParams gen;
    gen.testSize = static_cast<std::size_t>(state.range(0));
    gen.iterations = 4;
    gen.memSize = 8 * 1024;
    host::Workload::Params wl;
    wl.iterations = gen.iterations;
    host::Workload workload(system, checker, host::layoutFor(gen), wl);
    gp::RandomTestGen rtg(gen);
    Rng rng(22);
    for (auto _ : state) {
        host::RunResult r = workload.runTest(rtg.randomTest(rng));
        benchmark::DoNotOptimize(r.eventsExecuted);
    }
}
BENCHMARK(BM_SimTestRun)->Arg(64)->Arg(256)->Unit(
    benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
