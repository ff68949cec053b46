#include "host/parallel_harness.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/strict.hh"

namespace mcversi::host {

namespace {

/**
 * Persistent batch-evaluation pool: workers are spawned once per
 * harness run and parked between batch barriers, so the per-batch cost
 * is a wakeup instead of a thread spawn. dispatch() hands every worker
 * the same job (claim lanes from a shared counter) and returns when
 * all of them finished it.
 */
class BarrierPool
{
  public:
    BarrierPool(std::size_t workers, std::function<void()> job)
        : job_(std::move(job))
    {
        threads_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i)
            threads_.emplace_back([this]() { workerLoop(); });
    }

    ~BarrierPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Run the job on every worker; returns after all complete. */
    void
    dispatch()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        working_ = threads_.size();
        ++epoch_;
        wake_.notify_all();
        done_.wait(lock, [this]() { return working_ == 0; });
    }

  private:
    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&]() {
                    return stop_ || epoch_ != seen;
                });
                if (stop_)
                    return;
                seen = epoch_;
            }
            job_();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--working_ == 0)
                    done_.notify_one();
            }
        }
    }

    const std::function<void()> job_;
    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t epoch_ = 0;
    std::size_t working_ = 0;
    bool stop_ = false;
};

} // namespace

ParallelHarness::ParallelHarness(Params params, TestSource &source)
    : params_(params), source_(source),
      fitness_(params.harness.fitness)
{
    if (params_.lanes == 0)
        params_.lanes = 1;
    if (params_.batch == 0)
        params_.batch = 1;
    // The documented lane-affinity contract: a sharded source's tests
    // must land on the lane matching their island (both sides deal by
    // the same (issued + b) % N formula, so the counts must agree).
    checkApiContract(
        source_.requiredLanes() == 0 ||
            source_.requiredLanes() == params_.lanes,
        "ParallelHarness: lanes does not match the source's island "
        "count; island lane-affinity would be silently broken");

    // Counter-based per-lane sim streams; lane 0 keeps the base seed,
    // so a single lane reproduces the serial harness exactly. Each lane
    // gets its own verdict cache (a Checker is single-threaded), so the
    // summed cache telemetry is worker-count-invariant.
    lanes_.reserve(params_.lanes);
    for (std::size_t l = 0; l < params_.lanes; ++l)
        lanes_.emplace_back(params_.harness, l);

    batchTests_.resize(params_.batch);
    batchFeedback_.resize(params_.batch);
    batchRuns_.resize(params_.batch);
    laneOfSlot_.resize(params_.batch);
}

void
ParallelHarness::evaluateLane(std::size_t lane)
{
    Workload &workload = *lanes_[lane].workload;
    for (std::size_t b = 0; b < batchSize_; ++b) {
        if (laneOfSlot_[b] != lane)
            continue;
        RunResult &run = batchRuns_[b];
        run = workload.runTest(batchTests_[b]);
        // Score against the cut-off frozen at the batch barrier (const
        // read; record() replays in slot order at the merge).
        batchFeedback_[b].coverageFitness =
            fitness_.score(run.preRunCounts, run.coveredTransitions,
                           run.newInterleavings);
    }
}

HarnessResult
ParallelHarness::run(const Budget &budget)
{
    std::size_t workers = params_.threads > 0
        ? static_cast<std::size_t>(params_.threads)
        : std::max(1u, std::thread::hardware_concurrency());
    workers = std::min(workers, lanes_.size());

    // Persistent worker pool, parked between batch barriers. Each
    // dispatch claims whole lanes off a shared counter.
    std::atomic<std::size_t> nextLane{0};
    const std::function<void()> job = [&]() {
        for (;;) {
            const std::size_t l =
                nextLane.fetch_add(1, std::memory_order_relaxed);
            if (l >= lanes_.size())
                return;
            evaluateLane(l);
        }
    };
    std::unique_ptr<BarrierPool> pool;
    if (workers > 1)
        pool = std::make_unique<BarrierPool>(workers, job);

    RunTally tally(budget, params_.harness.recordNdt);
    std::vector<double> trajectory;
    while (!tally.exhausted()) {
        batchSize_ = params_.batch;
        if (budget.maxTestRuns > 0) {
            batchSize_ = std::min<std::size_t>(
                batchSize_, budget.maxTestRuns - tally.result().testRuns);
        }

        source_.nextBatch({batchTests_.data(), batchSize_});
        for (std::size_t b = 0; b < batchSize_; ++b) {
            laneOfSlot_[b] = static_cast<std::uint32_t>(
                (issued_ + b) % lanes_.size());
        }
        issued_ += batchSize_;

        // Evaluate: workers claim whole lanes; each lane runs its slots
        // in ascending order on its own continuously-running system.
        if (pool == nullptr) {
            for (std::size_t l = 0; l < lanes_.size(); ++l)
                evaluateLane(l);
        } else {
            nextLane.store(0, std::memory_order_relaxed);
            pool->dispatch();
        }

        // Barrier merge, in slot order: deterministic for any worker
        // count. The whole batch is merged even when it contains a bug
        // (batch semantics); the stop points at the earliest bug slot.
        for (std::size_t b = 0; b < batchSize_; ++b) {
            tally.add(batchRuns_[b]);
            fitness_.record(batchFeedback_[b].coverageFitness);
            batchFeedback_[b].nd = std::move(batchRuns_[b].nd);
        }

        // The source sees the full batch's feedback (as the serial
        // harness reports the bug-finding run before stopping).
        source_.reportBatch({batchFeedback_.data(), batchSize_});

        if (source_.hasFitnessMetrics() &&
            trajectory.size() < HarnessResult::kMaxTrajectorySamples) {
            trajectory.push_back(source_.meanFitness());
        }

        if (tally.result().bugFound)
            break;
    }

    HarnessResult result = tally.finish();
    result.fitnessTrajectory = std::move(trajectory);
    result.totalCoverage = aggregateCoverage();
    result.meanFitness = source_.meanFitness();
    for (const Rig &lane : lanes_)
        lane.addCacheStats(result);
    return result;
}

double
ParallelHarness::aggregateCoverage(const std::string &prefix) const
{
    const sim::TransitionCoverage &first = lanes_[0].system->coverage();
    const std::size_t n = first.numTransitions();
    std::size_t total = 0;
    std::size_t hit = 0;
    for (std::uint32_t id = 0; id < n; ++id) {
        if (!prefix.empty() && first.name(id).rfind(prefix, 0) != 0)
            continue;
        ++total;
        for (const auto &lane : lanes_) {
            const auto &counts = lane.system->coverage().counts();
            if (id < counts.size() && counts[id] > 0) {
                ++hit;
                break;
            }
        }
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(hit) / static_cast<double>(total);
}

} // namespace mcversi::host
