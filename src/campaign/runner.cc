#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "campaign/registry.hh"
#include "host/parallel_harness.hh"
#include "litmus/runner.hh"
#include "litmus/suites.hh"

namespace mcversi::campaign {

CampaignResult
CampaignRunner::runOne(const CampaignSpec &spec, int eval_threads,
                       std::function<bool()> cancel)
{
    CampaignResult result;
    result.spec = spec;
    host::Budget budget = spec.budget();
    budget.interrupted = std::move(cancel);
    try {
        spec.validate();
        const SourceRegistry &registry = SourceRegistry::instance();
        if (registry.isLitmus(spec.generator)) {
            litmus::LitmusRunner::Params params;
            params.system = spec.systemConfig();
            params.iterationsPerRun = spec.litmusIterations;
            params.model = spec.model;
            params.checkMode = mc::parseCheckMode(spec.checkMode);
            litmus::LitmusRunner runner(
                params, litmus::suiteForModel(spec.model));
            result.harness = runner.run(budget);
            result.protocolCoverage =
                runner.system().coverage().totalCoverage(
                    spec.protocolPrefix());
        } else if (spec.usesParallelHarness()) {
            // Batched multi-lane evaluation: one lane per island,
            // eval_threads workers, deterministic for any worker count.
            const std::unique_ptr<host::TestSource> source =
                registry.make(spec.generator, spec);
            host::ParallelHarness::Params params;
            params.harness = spec.harnessParams();
            params.lanes = spec.islands;
            params.batch = spec.batch;
            params.threads = eval_threads;
            host::ParallelHarness harness(params, *source);
            result.harness = harness.run(budget);
            result.protocolCoverage =
                harness.aggregateCoverage(spec.protocolPrefix());
        } else {
            const std::unique_ptr<host::TestSource> source =
                registry.make(spec.generator, spec);
            host::VerificationHarness harness(spec.harnessParams(),
                                              *source);
            result.harness = harness.run(budget);
            result.protocolCoverage =
                harness.system().coverage().totalCoverage(
                    spec.protocolPrefix());
        }
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    return result;
}

CampaignSummary
CampaignRunner::run(const std::vector<CampaignSpec> &specs) const
{
    CampaignSummary summary;
    summary.results.resize(specs.size());
    if (specs.empty())
        return summary;

    std::size_t threads = options_.threads > 0
        ? static_cast<std::size_t>(options_.threads)
        : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(threads, specs.size());

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;
            // Results land at the spec's own index: aggregation order
            // (and thus the exported summary) never depends on which
            // worker finished first.
            summary.results[i] = runOne(specs[i], options_.evalThreads);
            const std::size_t completed =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (options_.onResult) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                options_.onResult(summary.results[i], completed,
                                  specs.size());
            }
        }
    };

    if (threads == 1) {
        worker();
        return summary;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return summary;
}

} // namespace mcversi::campaign
