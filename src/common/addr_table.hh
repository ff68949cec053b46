/**
 * @file
 * Flat hash table keyed by a 64-bit address.
 *
 * Every per-line map on the simulator's message path (an L1's queued
 * core requests and writeback buffers, an L2's eviction buffers,
 * waiting requests and stale recall acks, TSO-CC's directory metadata,
 * main memory's lines) is an AddrTable keyed by line address, and
 * ExecWitness's address index (dense AddrId and init event per word
 * address) is one keyed by word address. It is one array of (key,
 * value) slots with power-of-two capacity, linear probing and
 * backward-shift deletion, so a lookup touches one short run of
 * adjacent slots and there is no per-entry node to allocate.
 *
 * Slots are allocated by the first insert, never by the constructor,
 * and clear() keeps them. An erased or cleared slot keeps its value
 * object too: an insert re-initialises it with the value's clear() when
 * it has one (a Fifo keeps its capacity) and by assigning V{}
 * otherwise. So a table that is reused allocates nothing in steady
 * state.
 *
 * Entries move. An insert may grow the table and relocate every entry,
 * and an erase may shift later entries of its probe run back by one
 * slot. No caller may hold a reference or pointer to an entry across an
 * insert into or an erase from the same table; look the key up again
 * instead.
 */

#ifndef MCVERSI_COMMON_ADDR_TABLE_HH
#define MCVERSI_COMMON_ADDR_TABLE_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace mcversi {

/** Open-addressing map from address to @p V. */
template <typename V>
class AddrTable
{
  public:
    std::size_t size() const { return size_; }
    /** Slots allocated (0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** @p key's value, or nullptr if absent. */
    V *
    find(Addr key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == kNoAddr)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** @p key's value, inserting a cleared one if absent. */
    V &
    operator[](Addr key)
    {
        assert(key != kNoAddr);
        if (V *v = find(key))
            return *v;
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t i = home(key);
        while (slots_[i].key != kNoAddr)
            i = next(i);
        Slot &s = slots_[i];
        s.key = key;
        if constexpr (requires(V &v) { v.clear(); })
            s.value.clear();
        else
            s.value = V{};
        ++size_;
        return s.value;
    }

    /** Remove @p key; false if it was absent. */
    bool
    erase(Addr key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        while (slots_[hole].key != key) {
            if (slots_[hole].key == kNoAddr)
                return false;
            hole = next(hole);
        }
        // Backward shift: move each later entry of the probe run whose
        // home lies at or before the hole into it, so no tombstones
        // build up. The erased value travels to the slot freed last.
        for (std::size_t j = next(hole); slots_[j].key != kNoAddr;
             j = next(j)) {
            const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
            if (from_home >= ((j - hole) & mask_)) {
                std::swap(slots_[hole], slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = kNoAddr;
        --size_;
        return true;
    }

    /** Remove every entry; the slots stay allocated. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s.key = kNoAddr;
        size_ = 0;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_)
            if (s.key != kNoAddr)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Addr key = kNoAddr;
        V value{};
    };

    static constexpr std::size_t kMinCapacity = 16;

    std::size_t
    home(Addr key) const
    {
        // Fibonacci hashing: line and word addresses share their low
        // zero bits, so take the product's high bits.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t cap = old.empty() ? kMinCapacity : 2 * old.size();
        slots_ = std::vector<Slot>(cap);
        mask_ = cap - 1;
        shift_ = 64 - std::countr_zero(cap);
        for (Slot &s : old) {
            if (s.key == kNoAddr)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kNoAddr)
                i = next(i);
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

} // namespace mcversi

#endif // MCVERSI_COMMON_ADDR_TABLE_HH
