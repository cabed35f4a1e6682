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
 * Entries live in pages allocated on first touch (the PagedStore idiom):
 * a lookup is one shift, one page-pointer load and one indexed load, and
 * a 1024-PE machine with a sparse multi-gigaword address space costs
 * memory proportional to the blocks it actually caches, not to its
 * address-space size.
 */

#ifndef PIMCACHE_BUS_RESIDENCY_FILTER_H_
#define PIMCACHE_BUS_RESIDENCY_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/pe_bitset.h"
#include "common/types.h"
#include "common/xassert.h"

namespace pim {

/** Per-block PE presence masks for copies and lock entries. */
class ResidencyFilter
{
  public:
    /** Block entries per storage page (entry = maskWords() words). */
    static constexpr std::size_t kPageBlocks = 1024;

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
     * any traffic — but growth re-lays existing pages out correctly
     * regardless.
     */
    void
    registerPe(PeId pe)
    {
        const std::uint32_t needed = (pe >> 6) + 1;
        PIM_ASSERT(needed <= kMaxMaskWords, "pe", pe,
                   " exceeds the residency filter's ", kMaxMaskWords * 64,
                   "-PE mask limit");
        if (needed > maskWords_) {
            regrow(copies_, needed);
            regrow(locks_, needed);
            maskWords_ = needed;
        }
    }

    /** Mask words per block entry (1 for machines of up to 64 PEs). */
    std::uint32_t maskWords() const { return maskWords_; }

    /** @p pe's cache now holds a valid copy of @p block. */
    void
    addCopy(PeId pe, Addr block)
    {
        entry(copies_, indexOf(block))[pe >> 6] |= bit(pe);
    }

    /** @p pe's cache no longer holds @p block. */
    void
    removeCopy(PeId pe, Addr block)
    {
        std::uint64_t* words = entryIfPresent(copies_, indexOf(block));
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
            entry(locks_, indexOf(block))[pe >> 6] |= bit(pe);
        } else {
            std::uint64_t* words = entryIfPresent(locks_, indexOf(block));
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
        const std::uint64_t* words =
            entryIfPresent(copies_, indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** Raw lock-mask word @p word of @p block (bus hot path). */
    std::uint64_t
    lockWord(Addr block, std::uint32_t word) const
    {
        const std::uint64_t* words = entryIfPresent(locks_, indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** True if any PE other than @p except holds a copy of @p block. */
    bool
    anyCopyExcept(Addr block, PeId except) const
    {
        const std::uint64_t* words =
            entryIfPresent(copies_, indexOf(block));
        if (words == nullptr)
            return false;
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
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
        const std::size_t index = indexOf(block);
        const std::uint64_t* copy =
            copies ? entryIfPresent(copies_, index) : nullptr;
        const std::uint64_t* lock =
            locks ? entryIfPresent(locks_, index) : nullptr;
        if (copy == nullptr && lock == nullptr)
            return 0;
        std::uint64_t clusters = 0;
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
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

  private:
    /** Pages of kPageBlocks entries, maskWords_ words each. */
    struct MaskStore {
        std::vector<std::unique_ptr<std::uint64_t[]>> pages;
    };

    static std::uint64_t bit(PeId pe) { return 1ull << (pe & 63); }

    std::size_t
    indexOf(Addr block) const
    {
        return static_cast<std::size_t>(block >> shift_);
    }

    /** Entry for @p index, materializing its page on first touch. */
    std::uint64_t*
    entry(MaskStore& store, std::size_t index)
    {
        const std::size_t page = index / kPageBlocks;
        if (page >= store.pages.size())
            store.pages.resize(page + 1);
        if (store.pages[page] == nullptr) {
            store.pages[page] = std::make_unique<std::uint64_t[]>(
                kPageBlocks * maskWords_);
            for (std::size_t i = 0; i < kPageBlocks * maskWords_; ++i)
                store.pages[page][i] = 0;
        }
        return &store.pages[page][(index % kPageBlocks) * maskWords_];
    }

    /** Entry for @p index, or nullptr when its page never materialized. */
    const std::uint64_t*
    entryIfPresent(const MaskStore& store, std::size_t index) const
    {
        const std::size_t page = index / kPageBlocks;
        if (page >= store.pages.size() || store.pages[page] == nullptr)
            return nullptr;
        return &store.pages[page][(index % kPageBlocks) * maskWords_];
    }

    std::uint64_t*
    entryIfPresent(MaskStore& store, std::size_t index)
    {
        return const_cast<std::uint64_t*>(
            static_cast<const ResidencyFilter*>(this)->entryIfPresent(
                store, index));
    }

    PeBitset
    maskOf(const MaskStore& store, Addr block) const
    {
        const std::uint64_t* words = entryIfPresent(store, indexOf(block));
        if (words == nullptr)
            return PeBitset(maskWords_);
        return PeBitset::fromWords(words, maskWords_);
    }

    template <typename Fn>
    void
    walk(const MaskStore& store, Addr block, PeId skip, Fn&& fn) const
    {
        const std::uint64_t* words = entryIfPresent(store, indexOf(block));
        if (words == nullptr)
            return;
        // Snapshot the entry so fn's residency updates cannot shift the
        // walk (the single-word design got this for free by copying the
        // mask into a register).
        std::uint64_t local[kMaxMaskWords];
        for (std::uint32_t w = 0; w < maskWords_; ++w)
            local[w] = words[w];
        if ((skip >> 6) < maskWords_)
            local[skip >> 6] &= ~bit(skip);
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
            std::uint64_t mask = local[w];
            while (mask != 0) {
                fn(static_cast<PeId>((static_cast<std::uint64_t>(w) << 6) +
                                     __builtin_ctzll(mask)));
                mask &= mask - 1;
            }
        }
    }

    /** Re-lay @p store out for @p new_words-wide entries. */
    void
    regrow(MaskStore& store, std::uint32_t new_words)
    {
        if (store.pages.empty() || new_words == maskWords_)
            return;
        MaskStore wider;
        wider.pages.resize(store.pages.size());
        for (std::size_t p = 0; p < store.pages.size(); ++p) {
            if (store.pages[p] == nullptr)
                continue;
            wider.pages[p] = std::make_unique<std::uint64_t[]>(
                kPageBlocks * new_words);
            for (std::size_t i = 0; i < kPageBlocks * new_words; ++i)
                wider.pages[p][i] = 0;
            for (std::size_t i = 0; i < kPageBlocks; ++i) {
                for (std::uint32_t w = 0; w < maskWords_; ++w) {
                    wider.pages[p][i * new_words + w] =
                        store.pages[p][i * maskWords_ + w];
                }
            }
        }
        store.pages = std::move(wider.pages);
    }

    std::uint32_t maskWords_ = 1; ///< ceil(maxPe+1 / 64), grown by registerPe.
    std::uint32_t shift_ = 0; ///< log2 of the block size.
    MaskStore copies_; ///< Block index -> PE copy mask entry.
    MaskStore locks_;  ///< Block index -> lock-residency mask entry.
};

} // namespace pim

#endif // PIMCACHE_BUS_RESIDENCY_FILTER_H_
