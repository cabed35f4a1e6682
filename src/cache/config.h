/**
 * @file
 * Cache geometry and controller configuration.
 */

#ifndef PIMCACHE_CACHE_CONFIG_H_
#define PIMCACHE_CACHE_CONFIG_H_

#include <cstdint>

#include "cache/protocol.h"
#include "cache/replacement.h"
#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim {

/**
 * Set-associative cache geometry. The paper's base configuration is a
 * four-Kword, four-way, 256-column cache with four-word blocks.
 */
struct CacheGeometry {
    std::uint32_t blockWords = 4;
    std::uint32_t ways = 4;
    std::uint32_t sets = 256;

    /** Data capacity in words. */
    std::uint64_t
    capacityWords() const
    {
        return static_cast<std::uint64_t>(blockWords) * ways * sets;
    }

    /**
     * Derive the set count from a target capacity; SimFault(Config)
     * unless block x ways divides it. The rest of the geometry is
     * checked by SystemConfig::validate.
     */
    static CacheGeometry
    forCapacity(std::uint64_t capacity_words, std::uint32_t block_words,
                std::uint32_t ways)
    {
        const std::uint64_t column =
            static_cast<std::uint64_t>(block_words) * ways;
        if (column == 0 || capacity_words % column != 0) {
            throw PIM_SIM_FAULT(SimFaultKind::Config, "cache capacity ",
                                capacity_words, " words is not a multiple "
                                "of blockWords x ways (", block_words, " x ",
                                ways, ")");
        }
        CacheGeometry geom;
        geom.blockWords = block_words;
        geom.ways = ways;
        geom.sets = static_cast<std::uint32_t>(capacity_words / column);
        return geom;
    }

    /** Sanity-check: power-of-two sets and block size. */
    void
    validate() const
    {
        PIM_ASSERT(blockWords >= 1 && (blockWords & (blockWords - 1)) == 0,
                   "block size must be a power of two");
        PIM_ASSERT(sets >= 1 && (sets & (sets - 1)) == 0,
                   "set count must be a power of two");
        PIM_ASSERT(ways >= 1);
    }

    /**
     * Total storage bits including the directory, as plotted on the
     * x-axis of the paper's Figure 2 (5-byte = 40-bit data words; a
     * "four-Kword cache" is about 190000 bits).
     */
    std::uint64_t
    storageBits(std::uint32_t word_bits = 40,
                std::uint32_t addr_bits = 32) const
    {
        const std::uint64_t data_bits = capacityWords() * word_bits;
        std::uint32_t index_bits = 0;
        for (std::uint32_t v = sets * blockWords; v > 1; v >>= 1)
            ++index_bits;
        const std::uint32_t tag_bits =
            addr_bits > index_bits ? addr_bits - index_bits : 1;
        // Tag + 3 state bits + 2 LRU bits per block.
        const std::uint64_t dir_bits =
            static_cast<std::uint64_t>(sets) * ways * (tag_bits + 3 + 2);
        return data_bits + dir_bits;
    }
};

/** Full per-PE cache controller configuration. */
struct CacheConfig {
    CacheGeometry geometry;

    /** Lock-directory entries (the paper suggests one or two suffice). */
    std::uint32_t lockEntries = 2;

    /**
     * Write-through baseline (Goodman's motivation for copy-back):
     * every write is a bus transaction updating shared memory and
     * invalidating remote copies; blocks are never dirty; write misses
     * do not allocate; the optimized commands demote to plain R/W.
     */
    bool writeThrough = false;

    /**
     * Coherence protocol variant (docs/ARCHITECTURE.md "Protocol
     * matrix"). The default PIM table reproduces the paper's 5-state
     * protocol byte-identically. MESI is also the Illinois-style
     * baseline of the SM-state ablation: the PIM table, except that a
     * dirty block shared cache-to-cache is copied back to memory.
     */
    ProtocolKind protocol = ProtocolKind::PIM;

    /** Replacement policy (LRU = the pre-refactor behavior). */
    ReplacementKind replacement = ReplacementKind::LRU;
};

} // namespace pim

#endif // PIMCACHE_CACHE_CONFIG_H_
