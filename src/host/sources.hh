/**
 * @file
 * Test sources: where the next test comes from (§5.2).
 *
 *  - RandomSource: McVerSi-RAND, stateless pseudo-random generation.
 *  - GaSource: the GP-based generators, backed by the island-model
 *    EvolutionEngine (gp/evolution.hh). In Selective mode (McVerSi-ALL)
 *    fitness is the adaptive coverage alone; in SinglePoint mode
 *    (McVerSi-Std.XO) fitness adds normalized NDT with equal weighting,
 *    since the standard crossover cannot otherwise converge towards
 *    racy tests.
 *
 * Every source supports both the serial next()/report() contract and
 * the batched nextBatch()/reportBatch() contract the ParallelHarness
 * drives: pull a batch of tests, evaluate them on independent
 * simulation lanes, and report the results in batch-slot order. The
 * base class supplies loop adapters in both directions, so a serial
 * source works under a batch harness and vice versa; GaSource forwards
 * batches to the engine natively.
 */

#ifndef MCVERSI_HOST_SOURCES_HH
#define MCVERSI_HOST_SOURCES_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gp/evolution.hh"
#include "gp/fitness.hh"
#include "gp/ndmetrics.hh"
#include "gp/randgen.hh"
#include "gp/test.hh"

namespace mcversi::host {

/** Feedback passed back to a source after evaluating its test. */
struct RunFeedback
{
    /** Adaptive coverage fitness in [0, 1]. */
    double coverageFitness = 0.0;
    /** Non-determinism metrics of the test-run. */
    gp::NdInfo nd{};
};

/** Produces tests and consumes evaluation feedback. */
class TestSource
{
  public:
    virtual ~TestSource() = default;
    virtual gp::Test next() = 0;
    virtual void report(const RunFeedback &feedback) = 0;
    virtual std::string name() const = 0;

    /**
     * Fill @p out with out.size() tests (reusing the tests' node
     * capacity where possible). Must be followed by one reportBatch()
     * of the same size. Default: out.size() next() calls.
     */
    virtual void
    nextBatch(std::span<gp::Test> out)
    {
        for (gp::Test &test : out)
            test = next();
    }

    /**
     * Report the results of the last nextBatch(), in batch-slot order.
     * NdInfo payloads may be moved out of @p feedback. Default: one
     * report() call per slot.
     */
    virtual void
    reportBatch(std::span<RunFeedback> feedback)
    {
        for (const RunFeedback &fb : feedback)
            report(fb);
    }

    /** True if meanFitness() carries a real population metric. */
    virtual bool hasFitnessMetrics() const { return false; }
    /** Mean population fitness (generation-metric export). */
    virtual double meanFitness() const { return 0.0; }

    /**
     * Lane count a batch harness must use to honor this source's
     * internal sharding (a GaSource's island count), or 0 if any lane
     * count works (stateless sources).
     */
    virtual std::size_t requiredLanes() const { return 0; }
};

/** McVerSi-RAND: stateless pseudo-random tests. */
class RandomSource : public TestSource
{
  public:
    RandomSource(gp::GenParams params, std::uint64_t seed)
        : gen_(params), rng_(seed)
    {
    }

    gp::Test next() override { return gen_.randomTest(rng_); }
    void report(const RunFeedback &) override {}

    /** Batch pull, reusing each slot's node storage (no per-test
     * allocation in the steady state). Draw-compatible with next(). */
    void
    nextBatch(std::span<gp::Test> out) override
    {
        for (gp::Test &test : out)
            gen_.randomTestInto(rng_, test);
    }

    void reportBatch(std::span<RunFeedback>) override {}

    std::string name() const override { return "McVerSi-RAND"; }

  private:
    gp::RandomTestGen gen_;
    Rng rng_;
};

/** McVerSi-ALL / McVerSi-Std.XO: island-model GP generation. */
class GaSource : public TestSource
{
  public:
    GaSource(gp::GaParams ga, gp::GenParams gen, std::uint64_t seed,
             gp::XoMode mode, gp::EvolutionParams evo = {})
        : engine_(ga, gen, seed, mode, evo)
    {
    }

    gp::Test
    next() override
    {
        gp::EvolutionEngine::TestRef ref;
        engine_.nextBatch({&ref, 1});
        gp::Test test;
        test.assign(engine_.genome(ref));
        return test;
    }

    void
    report(const RunFeedback &feedback) override
    {
        gp::EvalResult result;
        result.fitness = blendFitness(feedback);
        result.nd = feedback.nd;
        engine_.reportBatch({&result, 1});
    }

    void
    nextBatch(std::span<gp::Test> out) override
    {
        refs_.resize(out.size());
        engine_.nextBatch(refs_);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i].assign(engine_.genome(refs_[i]));
    }

    void
    reportBatch(std::span<RunFeedback> feedback) override
    {
        results_.resize(feedback.size());
        for (std::size_t i = 0; i < feedback.size(); ++i) {
            results_[i].fitness = blendFitness(feedback[i]);
            results_[i].nd = std::move(feedback[i].nd);
        }
        engine_.reportBatch(results_);
    }

    std::string
    name() const override
    {
        return engine_.mode() == gp::XoMode::Selective
                   ? "McVerSi-ALL"
                   : "McVerSi-Std.XO";
    }

    bool hasFitnessMetrics() const override { return true; }
    double meanFitness() const override
    {
        return engine_.meanFitness();
    }

    /** Lane affinity: one simulation lane per engine island. */
    std::size_t requiredLanes() const override
    {
        return engine_.islandCount();
    }

    const gp::EvolutionEngine &engine() const { return engine_; }

  private:
    double
    blendFitness(const RunFeedback &feedback) const
    {
        double fitness = feedback.coverageFitness;
        if (engine_.mode() == gp::XoMode::SinglePoint) {
            // Std.XO: equal weighting of coverage and normalized NDT.
            fitness = 0.5 * fitness +
                      0.5 * gp::normalizedNdt(feedback.nd.ndt);
        }
        return fitness;
    }

    gp::EvolutionEngine engine_;
    /** Pending-batch scratch, reused across batches. */
    std::vector<gp::EvolutionEngine::TestRef> refs_;
    std::vector<gp::EvalResult> results_;
};

} // namespace mcversi::host

#endif // MCVERSI_HOST_SOURCES_HH
