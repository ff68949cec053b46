/**
 * @file
 * Slab-backed arena for fixed-length genomes.
 *
 * Every test the EvolutionEngine carries -- population members, pending
 * offspring, migration copies -- is a fixed-length gene sequence of
 * testSize Nodes. Instead of one heap-allocated std::vector<Node> per
 * individual, the pool hands out
 * slots inside large slabs: a slot is a span into stable storage, freed
 * slots are recycled through a free list, and after the population
 * warms up the engine performs no genome allocation at all. Slabs are
 * never deallocated or moved, so spans stay valid for the life of the
 * pool.
 */

#ifndef MCVERSI_GP_GENOME_POOL_HH
#define MCVERSI_GP_GENOME_POOL_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gp/ops.hh"

namespace mcversi::gp {

/** Arena of fixed-length genome slots with slab storage. */
class GenomePool
{
  public:
    /** Slot handle; dense, recycled through the free list. */
    using Slot = std::uint32_t;

    /**
     * @param genome_size genes per slot (the engine's testSize)
     * @param slab_genomes slots allocated per slab
     */
    explicit GenomePool(std::size_t genome_size,
                        std::size_t slab_genomes = 64)
        : genomeSize_(genome_size > 0 ? genome_size : 1),
          slabGenomes_(slab_genomes > 0 ? slab_genomes : 1)
    {
    }

    /** Take a free slot, growing by one slab if none is free. */
    Slot
    acquire()
    {
        if (freeList_.empty())
            addSlab();
        const Slot slot = freeList_.back();
        freeList_.pop_back();
        ++live_;
        return slot;
    }

    /** Return @p slot to the free list (contents become unspecified). */
    void
    release(Slot slot)
    {
        assert(live_ > 0);
        --live_;
        freeList_.push_back(slot);
    }

    std::span<Node>
    nodes(Slot slot)
    {
        return {slabs_[slot / slabGenomes_].get() +
                    (slot % slabGenomes_) * genomeSize_,
                genomeSize_};
    }

    std::span<const Node>
    nodes(Slot slot) const
    {
        return {slabs_[slot / slabGenomes_].get() +
                    (slot % slabGenomes_) * genomeSize_,
                genomeSize_};
    }

    std::size_t genomeSize() const { return genomeSize_; }
    std::size_t liveGenomes() const { return live_; }
    /** Slabs allocated so far; flat after warmup. */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    void
    addSlab()
    {
        slabs_.push_back(
            std::make_unique<Node[]>(slabGenomes_ * genomeSize_));
        const auto base =
            static_cast<Slot>((slabs_.size() - 1) * slabGenomes_);
        // Push in reverse so acquire() hands out ascending slots.
        for (std::size_t i = slabGenomes_; i-- > 0;)
            freeList_.push_back(base + static_cast<Slot>(i));
    }

    std::size_t genomeSize_;
    std::size_t slabGenomes_;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    std::vector<Slot> freeList_;
    std::size_t live_ = 0;
};

} // namespace mcversi::gp

#endif // MCVERSI_GP_GENOME_POOL_HH
