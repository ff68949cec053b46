#include "gp/evolution.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/strict.hh"

namespace mcversi::gp {

namespace {

/** The member with the smallest birth stamp (delete-oldest victim). */
std::vector<PoolIndividual>::iterator
oldestMember(std::vector<PoolIndividual> &population)
{
    return std::min_element(population.begin(), population.end(),
                            [](const PoolIndividual &a,
                               const PoolIndividual &b) {
                                return a.bornAt < b.bornAt;
                            });
}

} // namespace

EvolutionEngine::EvolutionEngine(GaParams ga, GenParams gen,
                                 std::uint64_t seed, XoMode mode,
                                 EvolutionParams evo)
    : ga_(ga), gen_(gen), mode_(mode), evo_(evo),
      pool_(gen.testSize,
            /*slab_genomes=*/std::max<std::size_t>(
                16, (evo.islands > 0 ? evo.islands : 1) *
                        (ga.population + 1)))
{
    if (evo_.islands == 0)
        evo_.islands = 1;
    islands_.resize(evo_.islands);
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        // Counter-based per-island streams; stream 0 is the base seed.
        islands_[i].rng = Rng(Rng::streamSeed(seed, i));
        islands_[i].pop.reserve(ga_.population);
    }
}

std::size_t
EvolutionEngine::tournamentSelect(Island &island)
{
    // Draws exactly tournamentSize times; ties keep the first sampled.
    assert(!island.pop.empty());
    std::size_t best =
        static_cast<std::size_t>(island.rng.below(island.pop.size()));
    for (int i = 1; i < ga_.tournamentSize; ++i) {
        const std::size_t cand = static_cast<std::size_t>(
            island.rng.below(island.pop.size()));
        if (island.pop[cand].fitness > island.pop[best].fitness)
            best = cand;
    }
    return best;
}

void
EvolutionEngine::generateInto(Island &island, GenomePool::Slot slot)
{
    std::span<Node> child = pool_.nodes(slot);
    if (island.pop.size() < ga_.population) {
        // Still building this island's initial random population.
        gen_.randomTestInto(island.rng, child);
    } else if (!island.rng.boolWithProb(ga_.pCrossover)) {
        // Crossover probability < 1: clone-and-mutate a parent.
        const PoolIndividual &p = island.pop[tournamentSelect(island)];
        const std::span<const Node> parent = pool_.nodes(p.slot);
        std::copy(parent.begin(), parent.end(), child.begin());
        for (std::size_t i = 0; i < child.size(); ++i)
            if (island.rng.boolWithProb(ga_.pMut))
                child[i] = gen_.randomNode(island.rng);
    } else {
        const PoolIndividual &p1 = island.pop[tournamentSelect(island)];
        const PoolIndividual &p2 = island.pop[tournamentSelect(island)];
        if (mode_ == XoMode::Selective) {
            crossoverMutateInto(pool_.nodes(p1.slot), p1.nd,
                                pool_.nodes(p2.slot), p2.nd, gen_, ga_,
                                island.rng, child, fitUnionScratch_);
        } else {
            singlePointCrossoverMutateInto(pool_.nodes(p1.slot),
                                           pool_.nodes(p2.slot), gen_,
                                           ga_, island.rng, child);
        }
    }
}

void
EvolutionEngine::nextBatch(std::span<TestRef> out)
{
    checkApiContract(pending_.empty(),
                     "EvolutionEngine::nextBatch(): a batch is still "
                     "pending; call reportBatch() first");
    // Release-mode clamp: an abandoned batch returns its slots to the
    // pool instead of leaking them.
    for (const TestRef &ref : pending_)
        pool_.release(ref.slot);
    pending_.clear();
    pending_.reserve(out.size());
    for (std::size_t b = 0; b < out.size(); ++b) {
        const auto island_idx =
            static_cast<std::uint32_t>(issued_ % islands_.size());
        ++issued_;
        const GenomePool::Slot slot = pool_.acquire();
        generateInto(islands_[island_idx], slot);
        const TestRef ref{slot, island_idx};
        pending_.push_back(ref);
        out[b] = ref;
    }
}

void
EvolutionEngine::insertResult(const TestRef &ref, EvalResult &result)
{
    Island &island = islands_[ref.island];
    PoolIndividual member;
    member.slot = ref.slot;
    member.fitness = result.fitness;
    member.nd = std::move(result.nd);
    member.bornAt = island.births++;
    ++evaluated_;

    if (island.pop.size() < ga_.population) {
        island.pop.push_back(std::move(member));
        return;
    }
    // Delete-oldest replacement; the evicted genome slot is recycled.
    const auto oldest = oldestMember(island.pop);
    pool_.release(oldest->slot);
    *oldest = std::move(member);
}

void
EvolutionEngine::reportBatch(std::span<EvalResult> results)
{
    if (strictApiChecks() && results.size() != pending_.size()) {
        throw std::logic_error(
            "EvolutionEngine::reportBatch(): got " +
            std::to_string(results.size()) + " results for a pending "
            "batch of " + std::to_string(pending_.size()) +
            "; report exactly one result per emitted test");
    }
    const std::size_t n = std::min(results.size(), pending_.size());
    for (std::size_t i = 0; i < n; ++i)
        insertResult(pending_[i], results[i]);
    // Release any unreported pending slots (release-mode clamp only).
    for (std::size_t i = n; i < pending_.size(); ++i)
        pool_.release(pending_[i].slot);
    pending_.clear();

    if (evo_.migrationInterval > 0 && islands_.size() > 1) {
        while (evaluated_ - lastMigrationAt_ >= evo_.migrationInterval) {
            lastMigrationAt_ += evo_.migrationInterval;
            migrateOnce();
        }
    }
}

void
EvolutionEngine::migrateOnce()
{
    const std::size_t n = islands_.size();
    // Phase 1: stage a copy of every island's current best, before any
    // replacement -- the ring must read pre-migration state even when a
    // donor is also its island's oldest member.
    migrantScratch_.resize(n);
    migrantValid_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        const Island &island = islands_[i];
        if (island.pop.empty())
            continue;
        std::size_t best = 0;
        for (std::size_t m = 1; m < island.pop.size(); ++m)
            if (island.pop[m].fitness > island.pop[best].fitness)
                best = m;
        const PoolIndividual &donor = island.pop[best];
        PoolIndividual &staged = migrantScratch_[i];
        staged.slot = pool_.acquire();
        const std::span<const Node> src = pool_.nodes(donor.slot);
        const std::span<Node> dst = pool_.nodes(staged.slot);
        std::copy(src.begin(), src.end(), dst.begin());
        staged.fitness = donor.fitness;
        staged.nd = donor.nd;
        migrantValid_[i] = true;
    }
    // Phase 2: deliver ring-wise, replacing each recipient's oldest.
    for (std::size_t i = 0; i < n; ++i) {
        if (!migrantValid_[i])
            continue;
        const std::size_t to = (i + 1) % n;
        Island &recipient = islands_[to];
        PoolIndividual &migrant = migrantScratch_[i];
        migrant.bornAt = recipient.births++;
        if (migrationLog_.size() < kMaxMigrationLog) {
            migrationLog_.push_back(
                {evaluated_, static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(to),
                 fingerprintNodes(pool_.nodes(migrant.slot))});
        }
        ++migrationCount_;
        if (recipient.pop.size() < ga_.population) {
            recipient.pop.push_back(std::move(migrant));
            continue;
        }
        const auto oldest = oldestMember(recipient.pop);
        pool_.release(oldest->slot);
        *oldest = std::move(migrant);
    }
}

double
EvolutionEngine::meanFitness() const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const Island &island : islands_) {
        for (const PoolIndividual &member : island.pop)
            sum += member.fitness;
        count += island.pop.size();
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double
EvolutionEngine::meanNdt() const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const Island &island : islands_) {
        for (const PoolIndividual &member : island.pop)
            sum += member.nd.ndt;
        count += island.pop.size();
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

} // namespace mcversi::gp
