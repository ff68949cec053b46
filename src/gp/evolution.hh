/**
 * @file
 * Steady-state genetic algorithm (§5.2.1), island model with a batched
 * generate->evaluate API.
 *
 * Both McVerSi-ALL and McVerSi-Std.XO use a steady-state GA with
 * tournament selection and delete-oldest replacement (steady-state GAs
 * outperform generational GAs in non-stationary environments, which a
 * continuously-running simulation is). The first `population` tests of
 * an island are random; afterwards every test is an offspring of two
 * tournament-selected parents, produced by McVerSi's crossover-aware
 * selective operator (Algorithm 1) or the standard single-point one.
 *
 * One island with a batch of one is the paper's serial GA: emit one
 * test, report its result, repeat. The engine generalizes that along
 * three axes while staying byte-deterministic:
 *
 *  - Islands: N independent steady-state populations, each drawing
 *    from its own counter-based RNG stream (Rng::streamSeed; island 0
 *    uses the base seed). Batch slots are dealt to islands round-robin
 *    by a monotone issue counter, so the island schedule depends only
 *    on the seed and the evaluation count -- never on evaluation
 *    timing or worker threads.
 *
 *  - Migration: every migrationInterval evaluations (engine-wide), each
 *    island's best individual is copied to its ring successor
 *    (island i -> (i+1) % N), replacing the recipient's oldest member.
 *    Migration happens at reportBatch() barriers only, so its order is
 *    a pure function of the seed and the evaluation count.
 *
 *  - Batching: nextBatch() emits any number of tests (selection uses
 *    the population state at batch start), reportBatch() inserts the
 *    results in slot order.
 *
 * Genomes live in a slab-backed GenomePool: population members, pending
 * offspring and migrants are slots in reusable arena storage instead of
 * per-individual std::vector<Node>s, so steady-state generation
 * performs no allocation (offspring slots are recycled from evicted
 * members).
 *
 * Contract: nextBatch() and reportBatch() strictly alternate, and the
 * report must carry exactly one result per emitted test. In debug and
 * sanitizer builds a violation throws std::logic_error naming the
 * offending call (common/strict.hh); release builds clamp.
 */

#ifndef MCVERSI_GP_EVOLUTION_HH
#define MCVERSI_GP_EVOLUTION_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "gp/crossover.hh"
#include "gp/genome_pool.hh"
#include "gp/ndmetrics.hh"
#include "gp/params.hh"
#include "gp/randgen.hh"
#include "gp/test.hh"

namespace mcversi::gp {

/** Engine topology knobs (the campaign's islands=/migration= keys). */
struct EvolutionParams
{
    /** Independent populations; 1 is the paper's serial GA. */
    std::size_t islands = 1;
    /**
     * Engine-wide evaluations between ring migrations; 0 disables
     * migration. Ignored for a single island.
     */
    std::uint64_t migrationInterval = 256;
};

/** One evaluated member of an island population (pool-backed). */
struct PoolIndividual
{
    GenomePool::Slot slot = 0;
    double fitness = 0.0;
    NdInfo nd;
    /** Monotone per-island birth counter (delete-oldest). */
    std::uint64_t bornAt = 0;
};

/** Evaluation result of one emitted test, in batch-slot order. */
struct EvalResult
{
    double fitness = 0.0;
    NdInfo nd;
};

/** One ring-migration event (for determinism audits and tests). */
struct MigrationRecord
{
    /** Engine-wide evaluation count when the migration fired. */
    std::uint64_t atEvaluation = 0;
    std::uint32_t fromIsland = 0;
    std::uint32_t toIsland = 0;
    /** Content hash of the migrated genome. */
    std::uint64_t genomeFingerprint = 0;
};

/** Island-model GA with slab genomes and a batched pull/report API. */
class EvolutionEngine
{
  public:
    /** Handle to a pending (emitted, not yet reported) test. */
    struct TestRef
    {
        GenomePool::Slot slot = 0;
        std::uint32_t island = 0;
    };

    EvolutionEngine(GaParams ga, GenParams gen, std::uint64_t seed,
                    XoMode mode = XoMode::Selective,
                    EvolutionParams evo = {});

    /**
     * Emit out.size() tests to evaluate (selection against the
     * population state at batch start). Must be followed by exactly one
     * reportBatch() of the same size before the next call. Genomes stay
     * readable via genome() until that reportBatch().
     */
    void nextBatch(std::span<TestRef> out);

    /**
     * Report the results of the pending batch, in the slot order of the
     * matching nextBatch(). NdInfo payloads are moved out of @p results.
     * Runs ring migration when the evaluation counter crosses
     * migrationInterval boundaries.
     */
    void reportBatch(std::span<EvalResult> results);

    /** Genes of a pending test (valid until its reportBatch()). */
    std::span<const Node>
    genome(const TestRef &ref) const
    {
        return pool_.nodes(ref.slot);
    }

    std::size_t islandCount() const { return islands_.size(); }
    const std::vector<PoolIndividual> &
    islandPopulation(std::size_t island) const
    {
        return islands_[island].pop;
    }
    std::span<const Node>
    memberGenome(const PoolIndividual &member) const
    {
        return pool_.nodes(member.slot);
    }

    std::uint64_t evaluated() const { return evaluated_; }
    std::size_t pendingBatchSize() const { return pending_.size(); }

    /** Mean fitness across all island members (0 if empty). */
    double meanFitness() const;
    /** Mean NDT across all island members (0 if empty). */
    double meanNdt() const;

    /** Migrations performed, in order (capped at kMaxMigrationLog). */
    const std::vector<MigrationRecord> &migrationLog() const
    {
        return migrationLog_;
    }
    std::uint64_t migrations() const { return migrationCount_; }

    XoMode mode() const { return mode_; }
    const EvolutionParams &evolutionParams() const { return evo_; }
    const GenomePool &pool() const { return pool_; }

    static constexpr std::size_t kMaxMigrationLog = 4096;

  private:
    struct Island
    {
        Rng rng{0};
        std::vector<PoolIndividual> pop;
        std::uint64_t births = 0;
    };

    /** Tournament over @p island's population; returns a pop index. */
    std::size_t tournamentSelect(Island &island);

    /** Generate one offspring of @p island into pool slot @p slot. */
    void generateInto(Island &island, GenomePool::Slot slot);

    /** Insert one evaluated pending test into its island. */
    void insertResult(const TestRef &ref, EvalResult &result);

    /** One ring migration across all islands. */
    void migrateOnce();

    GaParams ga_;
    RandomTestGen gen_;
    XoMode mode_;
    EvolutionParams evo_;

    GenomePool pool_;
    std::vector<Island> islands_;
    std::vector<TestRef> pending_;

    /** Monotone issue counter: batch slot -> island round-robin. */
    std::uint64_t issued_ = 0;
    std::uint64_t evaluated_ = 0;
    std::uint64_t lastMigrationAt_ = 0;
    std::uint64_t migrationCount_ = 0;
    std::vector<MigrationRecord> migrationLog_;

    /** Scratch for the selective crossover's fitaddr union. */
    AddrSet fitUnionScratch_;
    /** Scratch for migration staging (donor copies). */
    std::vector<PoolIndividual> migrantScratch_;
    std::vector<bool> migrantValid_;
};

} // namespace mcversi::gp

#endif // MCVERSI_GP_EVOLUTION_HH
