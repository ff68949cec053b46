/**
 * @file
 * Test generation and GA parameters (Table 3 of the paper).
 */

#ifndef MCVERSI_GP_PARAMS_HH
#define MCVERSI_GP_PARAMS_HH

#include <cstddef>

#include "common/types.hh"

namespace mcversi::gp {

/** Test-generation parameters (Table 3, upper half). */
struct GenParams
{
    /** Total operations across all threads. */
    std::size_t testSize = 1000;
    /** Test executions per test-run. */
    int iterations = 10;
    /** Number of hardware threads tests are generated for. */
    int numThreads = 8;
    /** Usable logical address range (test memory): 1KB or 8KB. */
    Addr memSize = 8 * 1024;
    /** Base addresses are generated in multiples of the stride. */
    Addr stride = 16;

    // Operation biases (must sum to 1).
    double biasRead = 0.50;
    double biasReadAddrDp = 0.05;
    double biasWrite = 0.42;
    double biasRmw = 0.01;
    double biasFlush = 0.01;
    double biasDelay = 0.01;

    /** Number of stride-aligned logical addresses available. */
    std::size_t
    numSlots() const
    {
        return static_cast<std::size_t>(memSize / stride);
    }
};

/** Crossover operator variant of the generation engine. */
enum class XoMode {
    Selective,   ///< Algorithm 1 (McVerSi-ALL)
    SinglePoint, ///< standard flat-list crossover (McVerSi-Std.XO)
};

/** GA parameters (Table 3, lower half). */
struct GaParams
{
    std::size_t population = 100;
    int tournamentSize = 2;
    /** Mutation probability PMUT. */
    double pMut = 0.005;
    /** Crossover probability. */
    double pCrossover = 1.0;
    /** Unconditional memory-op selection probability PUSEL. */
    double pUsel = 0.2;
    /** Bias for new operations drawing addresses from fitaddrs, PBFA. */
    double pBfa = 0.05;
};

} // namespace mcversi::gp

#endif // MCVERSI_GP_PARAMS_HH
