#include "litmus/runner.hh"

#include <algorithm>

namespace mcversi::litmus {

namespace {

/** Unroll every test into its array form (diy -s semantics). */
std::vector<LitmusTest>
unrollSuite(const std::vector<LitmusTest> &suite,
            const LitmusRunner::Params &params)
{
    std::vector<LitmusTest> unrolled;
    unrolled.reserve(suite.size());
    for (const LitmusTest &t : suite) {
        const Addr block = static_cast<Addr>(t.numAddrs) * params.addrStride;
        unrolled.push_back(unroll(t, params.instances, block));
    }
    return unrolled;
}

/**
 * The rig of a litmus run: test memory sized for the largest unrolled
 * test, self-checking only (no per-iteration axiomatic check) and no
 * verdict cache, since the checker is never consulted post-hoc.
 */
host::HarnessParams
rigParams(const LitmusRunner::Params &params,
          const std::vector<LitmusTest> &suite)
{
    Addr max_addrs = 1;
    for (const LitmusTest &t : suite)
        max_addrs = std::max(max_addrs, static_cast<Addr>(t.numAddrs));

    host::HarnessParams rig;
    rig.system = params.system;
    rig.gen.memSize = max_addrs * params.addrStride;
    rig.gen.stride = params.addrStride;
    rig.workload.iterations = params.iterationsPerRun;
    rig.workload.checkEveryIteration = false;
    rig.workload.checkMode = params.checkMode;
    rig.model = params.model;
    rig.checkCacheEntries = 0;
    return rig;
}

} // namespace

LitmusRunner::LitmusRunner(Params params, std::vector<LitmusTest> suite)
    : params_(std::move(params)), suite_(unrollSuite(suite, params_)),
      rig_(rigParams(params_, suite_))
{
}

host::HarnessResult
LitmusRunner::run(const host::Budget &budget)
{
    host::RunTally tally(budget, /*record_ndt=*/false);
    std::size_t idx = 0;
    while (!suite_.empty() && !tally.exhausted()) {
        const LitmusTest &test = suite_[idx];
        idx = (idx + 1) % suite_.size(); // Outer loop over the suite.

        const host::RunResult run = rig_.workload->runTest(
            test.test, [&test](const mc::ExecWitness &ew) {
                return evalForbidden(test, ew);
            });
        tally.add(run, test.name);
        if (run.bugDetected())
            break;
    }
    host::HarnessResult result = tally.finish();
    result.totalCoverage = rig_.system->coverage().totalCoverage();
    return result;
}

} // namespace mcversi::litmus
