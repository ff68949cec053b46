/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * Shared by both protocols' L1 and L2 controllers. An entry holds the
 * protocol state (as an opaque small integer), functional line data, and
 * the metadata fields either protocol needs. Transient (in-flight)
 * entries occupy ways and are never victimized; eviction-in-progress
 * state lives in the controllers' side buffers instead, freeing the way
 * immediately (TBE-style).
 *
 * reset() is O(1): instead of rewriting every entry, the array bumps a
 * generation counter and an entry is live only when its stamp matches.
 * The host-assisted reset runs between every test iteration, so this
 * turns the largest per-iteration cost of the simulator (megabytes of
 * entry clears) into a single increment. Accessors and the visitation
 * order are unchanged from the eager-clear implementation. Likewise,
 * the entries are allocated by the first allocate(), not by the
 * constructor, so building a system costs no megabytes of entry writes.
 */

#ifndef MCVERSI_SIM_CACHE_ARRAY_HH
#define MCVERSI_SIM_CACHE_ARRAY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "sim/message.hh"

namespace mcversi::sim {

/** One cache line entry; meta fields are protocol-specific. */
struct CacheEntry
{
    Addr line = kNoAddr;
    std::uint8_t state = 0;
    LineData data{};
    Tick lastUse = 0;

    // MESI L2 metadata.
    std::uint32_t sharers = 0; ///< bitmask of sharer cores
    Pid owner = kInitPid;
    bool dirty = false;
    bool grantedClean = false;
    Pid pendingRequester = kInitPid;
    bool gotOwnerData = false;
    bool gotUnblock = false;

    // L1 ack counting (IM/SM).
    int acksOutstanding = 0;
    bool dataReceived = false;
    /** Fill must be consumed as invalidated-in-flight (stale). */
    bool consumeFlagged = false;

    // TSO-CC metadata.
    TsMeta meta{};
    int accessesLeft = 0;

    /** Generation stamp; the entry is dead unless it matches the
     *  array's current generation (see CacheArray::reset()). */
    std::uint64_t generation = 0;

    bool valid() const { return line != kNoAddr; }

    /** Reset all fields except the tag. */
    void
    clearMeta()
    {
        sharers = 0;
        owner = kInitPid;
        dirty = false;
        grantedClean = false;
        pendingRequester = kInitPid;
        gotOwnerData = false;
        gotUnblock = false;
        acksOutstanding = 0;
        dataReceived = false;
        consumeFlagged = false;
        meta = TsMeta{};
        accessesLeft = 0;
    }
};

/** Set-associative array of CacheEntry with LRU victimization. */
class CacheArray
{
  public:
    CacheArray(int sets, int ways) : sets_(sets), ways_(ways) {}

    /** Find the entry caching @p line, or nullptr. */
    CacheEntry *
    find(Addr line)
    {
        for (CacheEntry &e : waysOf(line))
            if (live(e) && e.line == line)
                return &e;
        return nullptr;
    }

    /**
     * Allocate a way for @p line in its set.
     *
     * @return the fresh entry, or nullptr if no way is free (caller
     *         must evict a victim or retry later)
     */
    CacheEntry *
    allocate(Addr line)
    {
        if (entries_.empty())
            entries_.resize(static_cast<std::size_t>(sets_) *
                            static_cast<std::size_t>(ways_));
        for (CacheEntry &e : waysOf(line)) {
            if (!live(e)) {
                e = CacheEntry{};
                e.generation = generation_;
                e.line = line;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * LRU victim among entries of @p line's set satisfying
     * @p evictable; nullptr if none.
     */
    template <typename Pred>
    CacheEntry *
    victim(Addr line, Pred &&evictable)
    {
        CacheEntry *best = nullptr;
        for (CacheEntry &e : waysOf(line)) {
            if (!live(e) || !evictable(e))
                continue;
            if (!best || e.lastUse < best->lastUse)
                best = &e;
        }
        return best;
    }

    /**
     * True if @p line's set has a free way or an entry satisfying
     * @p evictable, i.e. allocate() or a replacement can make room.
     */
    template <typename Pred>
    bool
    canAllocate(Addr line, Pred &&evictable)
    {
        if (entries_.empty())
            return true;
        for (const CacheEntry &e : waysOf(line))
            if (!live(e) || evictable(e))
                return true;
        return false;
    }

    /** Invalidate (free) one entry. */
    void
    free(CacheEntry &entry)
    {
        entry.line = kNoAddr;
    }

    /**
     * Drop all entries (host-assisted reset between tests). O(1):
     * bumps the generation, deadening every current entry at once.
     */
    void
    reset()
    {
        ++generation_;
    }

    /** Visit every valid entry, in array (set-major) order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (CacheEntry &e : entries_)
            if (live(e))
                fn(e);
    }

    int sets() const { return sets_; }
    int ways() const { return ways_; }

    /** Touch for LRU. */
    void
    touch(CacheEntry &entry, Tick now)
    {
        entry.lastUse = now;
    }

    /** Set that @p line maps to. */
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>(
            (line / kLineBytes) % static_cast<Addr>(sets_));
    }

  private:
    /** The ways of @p line's set; none before the first allocate(). */
    std::span<CacheEntry>
    waysOf(Addr line)
    {
        if (entries_.empty())
            return {};
        return {entries_.data() + setIndex(line) *
                                      static_cast<std::size_t>(ways_),
                static_cast<std::size_t>(ways_)};
    }

    bool
    live(const CacheEntry &e) const
    {
        return e.generation == generation_ && e.line != kNoAddr;
    }

    int sets_;
    int ways_;
    std::vector<CacheEntry> entries_;
    std::uint64_t generation_ = 1;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_CACHE_ARRAY_HH
