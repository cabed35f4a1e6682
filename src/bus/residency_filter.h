/**
 * @file
 * Exact bus-side residency filter (docs/PERFORMANCE.md,
 * docs/ARCHITECTURE.md).
 *
 * Tracks, per cache block, (a) the set of PEs whose cache holds a valid
 * copy and (b) the set of PEs whose lock directory has an entry (or an
 * injected ghost) on a word of the block. Both sets are maintained
 * eagerly by the components that own the state — PimCache on every
 * INV<->valid transition, LockDirectory on every acquire/release — and
 * the bus directs every snoop, invalidation and lock check to exactly
 * the PEs they name. The paper's bus is a broadcast medium, but each
 * transaction costs the same cycles however many caches snoop, so
 * visiting only the holders is all a simulator needs.
 *
 * The masks are *exact*, not approximate: a PE is in a block's copy set
 * if and only if its cache holds the block, so skipping the other PEs
 * is observationally identical to snooping them (an absent copy neither
 * supplies data nor changes state, and an empty lock directory never
 * answers LH). Invariant 6 (src/verify/invariants.h) checks both masks
 * against the caches and lock directories on every audited access and
 * every conformance step.
 *
 * Masks are multi-word PE bitsets: an entry is ceil(P/64) consecutive
 * 64-bit words, so the filter is exact at *any* PE count — there is no
 * 64-PE ceiling and no broadcast fallback for wide machines. With 64 or
 * fewer PEs an entry is a single word and the maintenance/query cost is
 * identical to the single-word design this replaces. On the clustered
 * topology the bus also reads each transaction's route off these masks
 * (src/bus/cluster_bus.h): a remote cluster is routed while one of its
 * PEs is in the block's copy or lock set.
 *
 * Each set of masks is a PageTable (common/page_table.h) indexed by block
 * number, one entry of maskWords() words per block. A page is 2 KiB
 * whatever the width (256 entries up to 64 PEs, 128 at 128 PEs, 16 at
 * 1024) and is allocated on the first bit set in it, behind a two-level
 * index: a lookup is two shifts and three loads, and a 1024-PE machine
 * with a sparse multi-gigaword address space costs memory for the
 * blocks its caches and lock directories touch, not for its
 * address-space size.
 */

#ifndef PIMCACHE_BUS_RESIDENCY_FILTER_H_
#define PIMCACHE_BUS_RESIDENCY_FILTER_H_

#include <cstdint>

#include "common/page_table.h"
#include "common/pe_bitset.h"
#include "common/types.h"
#include "common/xassert.h"

namespace pim {

/** Per-block PE presence masks for copies and lock entries. */
class ResidencyFilter
{
  public:
    /**
     * Widest supported mask in words; bounds the stack buffers the bus
     * walks copy entries into (64 words = 4096 PEs, far past the
     * clustered design space).
     */
    static constexpr std::uint32_t kMaxMaskWords = 64;

    /**
     * Set the block size the bus dispatches at, a power of two; block
     * addresses passed to the mask updaters are multiples of this. Must
     * be called before any residency note (the Bus constructor does).
     */
    void
    setBlockWords(std::uint32_t block_words)
    {
        PIM_ASSERT(block_words != 0 && (block_words & (block_words - 1)) == 0,
                   "residency filter blockWords ", block_words,
                   " is not a power of two");
        shift_ = 0;
        while ((1u << shift_) != block_words)
            ++shift_;
    }

    /**
     * Note that @p pe participates in the system, growing the per-block
     * entry to cover it. Registration happens at attach time — before
     * any traffic — but widening re-lays existing entries out correctly
     * regardless.
     */
    void
    registerPe(PeId pe)
    {
        const std::uint32_t needed = (pe >> 6) + 1;
        PIM_ASSERT(needed <= kMaxMaskWords, "pe", pe,
                   " exceeds the residency filter's ", kMaxMaskWords * 64,
                   "-PE mask limit");
        if (needed > maskWords()) {
            copies_.widen(needed);
            locks_.widen(needed);
        }
    }

    /** Mask words per block entry (1 for machines of up to 64 PEs). */
    std::uint32_t maskWords() const { return copies_.entryWords(); }

    /** @p pe's cache now holds a valid copy of @p block. */
    void
    addCopy(PeId pe, Addr block)
    {
        copies_.touch(indexOf(block))[pe >> 6] |= bit(pe);
    }

    /** @p pe's cache no longer holds @p block. */
    void
    removeCopy(PeId pe, Addr block)
    {
        std::uint64_t* words = copies_.find(indexOf(block));
        if (words != nullptr)
            words[pe >> 6] &= ~bit(pe);
    }

    /**
     * @p pe's lock directory now does / does not contain an entry (or a
     * ghost) on a word of @p block. Idempotent: directories re-assert
     * the block's residency after every change.
     */
    void
    setLockResident(PeId pe, Addr block, bool resident)
    {
        if (resident) {
            locks_.touch(indexOf(block))[pe >> 6] |= bit(pe);
        } else {
            std::uint64_t* words = locks_.find(indexOf(block));
            if (words != nullptr)
                words[pe >> 6] &= ~bit(pe);
        }
    }

    /** PEs holding a valid copy of @p block. */
    PeBitset
    copyMask(Addr block) const
    {
        return maskOf(copies_, block);
    }

    /** PEs with a lock entry or ghost on a word of @p block. */
    PeBitset
    lockMask(Addr block) const
    {
        return maskOf(locks_, block);
    }

    /** Raw copy-mask word @p word of @p block (bus hot path). */
    std::uint64_t
    copyWord(Addr block, std::uint32_t word) const
    {
        const std::uint64_t* words = copies_.find(indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** Raw lock-mask word @p word of @p block (bus hot path). */
    std::uint64_t
    lockWord(Addr block, std::uint32_t word) const
    {
        const std::uint64_t* words = locks_.find(indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** True if any PE other than @p except holds a copy of @p block. */
    bool
    anyCopyExcept(Addr block, PeId except) const
    {
        const std::uint64_t* words = copies_.find(indexOf(block));
        if (words == nullptr)
            return false;
        for (std::uint32_t w = 0; w < maskWords(); ++w) {
            std::uint64_t mask = words[w];
            if (w == (except >> 6))
                mask &= ~bit(except);
            if (mask != 0)
                return true;
        }
        return false;
    }

    /**
     * The clusters holding @p block, one bit per cluster of
     * @p cluster_size PEs (PE p is in cluster p / cluster_size, and there
     * are at most 64): those with a PE that holds a copy (when
     * @p copies) or a lock entry on a word of the block (when @p locks).
     * The bus routes a transaction to these clusters. One walk over the
     * OR of the two masks: each holder adds its cluster and skips that
     * cluster's other PEs in the word, so a word costs one step per
     * cluster it holds, whatever the cluster size.
     */
    std::uint64_t
    holderClusters(Addr block, bool copies, bool locks,
                   std::uint32_t cluster_size) const
    {
        const std::uint64_t index = indexOf(block);
        const std::uint64_t* copy = copies ? copies_.find(index) : nullptr;
        const std::uint64_t* lock = locks ? locks_.find(index) : nullptr;
        if (copy == nullptr && lock == nullptr)
            return 0;
        std::uint64_t clusters = 0;
        for (std::uint32_t w = 0; w < maskWords(); ++w) {
            std::uint64_t holders = (copy != nullptr ? copy[w] : 0) |
                                    (lock != nullptr ? lock[w] : 0);
            const PeId base = w << 6;
            while (holders != 0) {
                const PeId pe = base + __builtin_ctzll(holders);
                const std::uint32_t cluster = pe / cluster_size;
                clusters |= 1ull << cluster;
                const PeId next = (cluster + 1) * cluster_size;
                if (next - base >= 64)
                    break;
                holders &= ~0ull << (next - base);
            }
        }
        return clusters;
    }

    /**
     * Call @p fn(PeId) for every copy holder of @p block except
     * @p skip, in ascending PE order. The entry is copied out first, so
     * @p fn may change residency (an FI snoop drops the snooped copy)
     * without perturbing the walk.
     */
    template <typename Fn>
    void
    forEachCopyHolder(Addr block, PeId skip, Fn&& fn) const
    {
        walk(copies_, block, skip, fn);
    }

    /** forEachCopyHolder, over the lock-residency masks. */
    template <typename Fn>
    void
    forEachLockHolder(Addr block, PeId skip, Fn&& fn) const
    {
        walk(locks_, block, skip, fn);
    }

    /** The copy masks, one entry per block (host footprint). */
    const PageTable& copyTable() const { return copies_; }

    /** The lock-residency masks (host footprint). */
    const PageTable& lockTable() const { return locks_; }

  private:
    static std::uint64_t bit(PeId pe) { return 1ull << (pe & 63); }

    std::uint64_t
    indexOf(Addr block) const
    {
        return block >> shift_;
    }

    PeBitset
    maskOf(const PageTable& masks, Addr block) const
    {
        const std::uint64_t* words = masks.find(indexOf(block));
        if (words == nullptr)
            return PeBitset(maskWords());
        return PeBitset::fromWords(words, maskWords());
    }

    template <typename Fn>
    void
    walk(const PageTable& masks, Addr block, PeId skip, Fn&& fn) const
    {
        const std::uint64_t* words = masks.find(indexOf(block));
        if (words == nullptr)
            return;
        // Snapshot the entry so fn's residency updates cannot shift the
        // walk (the single-word design got this for free by copying the
        // mask into a register).
        const std::uint32_t mask_words = maskWords();
        std::uint64_t local[kMaxMaskWords];
        for (std::uint32_t w = 0; w < mask_words; ++w)
            local[w] = words[w];
        if ((skip >> 6) < mask_words)
            local[skip >> 6] &= ~bit(skip);
        for (std::uint32_t w = 0; w < mask_words; ++w) {
            std::uint64_t mask = local[w];
            while (mask != 0) {
                fn(static_cast<PeId>((static_cast<std::uint64_t>(w) << 6) +
                                     __builtin_ctzll(mask)));
                mask &= mask - 1;
            }
        }
    }

    std::uint32_t shift_ = 0; ///< log2 of the block size.
    PageTable copies_; ///< Block index -> PE copy mask entry.
    PageTable locks_;  ///< Block index -> lock-residency mask entry.
};

} // namespace pim

#endif // PIMCACHE_BUS_RESIDENCY_FILTER_H_
