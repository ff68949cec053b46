#include "host/harness.hh"

namespace mcversi::host {

TestMemLayout
layoutFor(const gp::GenParams &gen)
{
    return TestMemLayout(gen.memSize, gen.stride);
}

Rig::Rig(const HarnessParams &params, std::uint64_t stream)
{
    sim::SystemConfig config = params.system;
    config.seed = Rng::streamSeed(config.seed, stream);
    system = std::make_unique<sim::System>(config);
    checker = std::make_unique<mc::Checker>(mc::makeModel(params.model));
    if (params.checkCacheEntries > 0)
        checker->enableVerdictCache({.capacity = params.checkCacheEntries});
    workload = std::make_unique<Workload>(
        *system, *checker, layoutFor(params.gen), params.workload);
}

void
Rig::addCacheStats(HarnessResult &result) const
{
    if (const mc::VerdictCache *cache = checker->verdictCache()) {
        result.checkCacheHits += cache->stats().hits;
        result.checkCacheMisses += cache->stats().misses;
        result.distinctInterleavings += cache->stats().distinct;
    }
}

RunTally::RunTally(const Budget &budget, bool record_ndt)
    : budget_(budget), recordNdt_(record_ndt),
      start_(std::chrono::steady_clock::now())
{
}

double
RunTally::elapsed() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

bool
RunTally::exhausted() const
{
    return budget_.isInterrupted() ||
           (budget_.maxTestRuns > 0 &&
            result_.testRuns >= budget_.maxTestRuns) ||
           (budget_.maxWallSeconds > 0.0 &&
            elapsed() >= budget_.maxWallSeconds);
}

void
RunTally::add(const RunResult &run, const std::string &label)
{
    ++result_.testRuns;
    result_.checkSeconds += run.checkSeconds;
    result_.simTicks += run.simTicks;
    result_.eventsExecuted += run.eventsExecuted;
    result_.simEvents += run.simEvents;
    result_.messagesSent += run.messagesSent;
    if (recordNdt_)
        result_.ndtHistory.push_back(run.nd.ndt);
    if (run.bugDetected() && !result_.bugFound) {
        result_.bugFound = true;
        result_.detail =
            label.empty() ? run.describe() : label + ": " + run.describe();
        result_.testRunsToBug = result_.testRuns;
        result_.eventsUntilDetection = run.eventsUntilDetection;
        result_.wallSecondsToBug = elapsed();
    }
}

HarnessResult
RunTally::finish()
{
    result_.wallSeconds = elapsed();
    return std::move(result_);
}

VerificationHarness::VerificationHarness(Params params,
                                         TestSource &source)
    : params_(std::move(params)), source_(source), rig_(params_),
      fitness_(params_.fitness)
{
}

RunResult
VerificationHarness::runOne(const gp::Test &test,
                            const ConditionFn &condition)
{
    return rig_.workload->runTest(test, condition);
}

HarnessResult
VerificationHarness::run(const Budget &budget)
{
    RunTally tally(budget, params_.recordNdt);
    while (!tally.exhausted()) {
        const gp::Test test = source_.next();
        const RunResult run = rig_.workload->runTest(test);

        RunFeedback feedback;
        feedback.coverageFitness =
            fitness_.evaluate(run.preRunCounts, run.coveredTransitions,
                              run.newInterleavings);
        feedback.nd = run.nd;
        source_.report(feedback);

        tally.add(run);
        if (run.bugDetected())
            break;
    }
    HarnessResult result = tally.finish();
    result.totalCoverage = rig_.system->coverage().totalCoverage();
    result.meanFitness = source_.meanFitness();
    rig_.addCacheStats(result);
    return result;
}

} // namespace mcversi::host
