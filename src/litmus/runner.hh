/**
 * @file
 * Litmus suite runner (the diy-litmus configuration of §5.2.2).
 *
 * Runs every test of a suite in an outer loop ("re-execute all tests
 * after the last of the tests has been executed"), since one cannot
 * pre-determine which test will detect an error. Detection is purely
 * self-checking -- a test fires only if its forbidden final condition
 * is observed -- plus protocol crashes (invalid transitions), which any
 * methodology would notice. The axiomatic checker is *not* consulted,
 * faithful to litmus methodology.
 */

#ifndef MCVERSI_LITMUS_RUNNER_HH
#define MCVERSI_LITMUS_RUNNER_HH

#include <vector>

#include "host/harness.hh"
#include "litmus/litmus.hh"

namespace mcversi::litmus {

/** Runs a litmus suite against one simulated system. */
class LitmusRunner
{
  public:
    struct Params
    {
        sim::SystemConfig system{};
        /**
         * Iterations of each test per test-run; the paper uses large
         * -s values post-silicon style, scaled down here for
         * simulation budgets.
         */
        int iterationsPerRun = 20;
        /**
         * Instances per iteration (the diy "-s size" array: each
         * instance has its own variables; running them back-to-back
         * lets thread drift open racy windows). Paper: 8000; scaled
         * down for simulation.
         */
        int instances = 24;
        /** Variable spacing: one cache line. */
        Addr addrStride = kLineBytes;
        /**
         * Consistency model the (crash-only) checker instance is tied
         * to; suites are supplied by the caller, typically
         * suiteForModel() of the same name.
         */
        std::string model = "tso";
        /**
         * Posthoc keeps pure litmus methodology (self-checking only;
         * the axiomatic checker is never consulted). Streaming arms
         * the online checker as an opt-in addition: the simulation
         * stops at the exact violating event even when the forbidden
         * final condition would not have fired.
         */
        mc::CheckMode checkMode = mc::CheckMode::Posthoc;
    };

    LitmusRunner(Params params, std::vector<LitmusTest> suite);

    /** Cycle through the suite until a bug is found or budget ends. */
    host::HarnessResult run(const host::Budget &budget);

    sim::System &system() { return *rig_.system; }

  private:
    Params params_;
    /** The suite in its unrolled (diy -s) form. */
    std::vector<LitmusTest> suite_;
    host::Rig rig_;
};

} // namespace mcversi::litmus

#endif // MCVERSI_LITMUS_RUNNER_HH
