/**
 * @file
 * Exact bus-side residency filter tests (docs/PERFORMANCE.md).
 *
 * Two layers: unit tests of the ResidencyFilter mask container itself,
 * and system-level exactness tests asserting that after every kind of
 * protocol event — fills, swap-out evictions, write invalidations, the
 * ER supplier purge, RI, flushAll, lock acquire/release and a lock
 * surviving its block's eviction — the per-block copy mask equals the
 * ground truth (which PEs' caches actually hold the block) and the lock
 * mask equals which PEs' lock directories hold an entry on the block.
 *
 * The final tests are a shadow-memory oracle: a mixed reference stream
 * through one System, where every read must return the last value
 * written to its word and the touched block's masks must stay exact
 * after every step. The masks are the bus's only snoop path, so a lost
 * or phantom bit would show up as a stale read or a mask mismatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bus/residency_filter.h"
#include "common/rng.h"
#include "mem/layout.h"
#include "sim/system.h"
#include "trace/ref.h"

namespace pim {
namespace {

// ---------------------------------------------------------------------
// ResidencyFilter unit behavior.
// ---------------------------------------------------------------------

TEST(ResidencyFilterUnit, CopyMaskTracksAddRemove)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    EXPECT_EQ(filter.copyMask(0), 0u);

    filter.addCopy(0, 8);
    filter.addCopy(3, 8);
    EXPECT_EQ(filter.copyMask(8), (1ull << 0) | (1ull << 3));
    EXPECT_EQ(filter.copyMask(4), 0u);

    filter.removeCopy(0, 8);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
    // Removing an absent copy is a no-op, not an error.
    filter.removeCopy(5, 8);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
}

TEST(ResidencyFilterUnit, LockMaskIsIdempotent)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.setLockResident(2, 12, true);
    filter.setLockResident(2, 12, true);
    EXPECT_EQ(filter.lockMask(12), 1ull << 2);
    filter.setLockResident(2, 12, false);
    filter.setLockResident(2, 12, false);
    EXPECT_EQ(filter.lockMask(12), 0u);
}

TEST(ResidencyFilterUnit, CopyAndLockMasksAreIndependent)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.addCopy(1, 0);
    filter.setLockResident(2, 0, true);
    EXPECT_EQ(filter.copyMask(0), 1ull << 1);
    EXPECT_EQ(filter.lockMask(0), 1ull << 2);
}

TEST(ResidencyFilterUnit, MultiWordMasksAreExactAcrossWordBoundaries)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    EXPECT_EQ(filter.maskWords(), 1u);
    filter.registerPe(63);
    EXPECT_EQ(filter.maskWords(), 1u);
    filter.registerPe(64);
    EXPECT_EQ(filter.maskWords(), 2u);
    filter.registerPe(128);
    EXPECT_EQ(filter.maskWords(), 3u);

    PeBitset expect(3);
    for (const PeId pe : {63u, 64u, 65u, 127u, 128u}) {
        filter.addCopy(pe, 8);
        expect.set(pe);
    }
    EXPECT_EQ(filter.copyMask(8), expect);
    EXPECT_EQ(filter.copyMask(8).count(), 5u);
    EXPECT_TRUE(filter.anyCopyExcept(8, 63));

    filter.removeCopy(64, 8);
    expect.clear(64);
    EXPECT_EQ(filter.copyMask(8), expect);

    // The walk visits holders in ascending PE order across mask words.
    std::vector<PeId> visited;
    filter.forEachCopyHolder(8, 63, [&](PeId pe) { visited.push_back(pe); });
    EXPECT_EQ(visited, (std::vector<PeId>{65, 127, 128}));
}

TEST(ResidencyFilterUnit, RegisterAfterContentRelaysExistingMasks)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.addCopy(3, 8);
    filter.setLockResident(5, 8, true);
    // Growing the mask width re-lays existing pages; no bit may be lost.
    filter.registerPe(200);
    EXPECT_EQ(filter.maskWords(), 4u);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
    EXPECT_EQ(filter.lockMask(8), 1ull << 5);
    filter.addCopy(200, 8);
    PeBitset expect(4);
    expect.set(3);
    expect.set(200);
    EXPECT_EQ(filter.copyMask(8), expect);
}

TEST(ResidencyFilterUnit, RangeQueriesRespectWordBoundaries)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.registerPe(191);
    filter.addCopy(64, 8);
    filter.setLockResident(127, 8, true);
    // Clusters of 64 PEs are the mask words: PEs 64 and 127 are both in
    // cluster 1.
    EXPECT_EQ(filter.holderClusters(8, true, false, 64), 0b010u);
    EXPECT_EQ(filter.holderClusters(8, false, true, 64), 0b010u);
    // Clusters of 63 end one PE short of each word: PE 64 is in cluster
    // 1, PE 127 in cluster 2.
    EXPECT_EQ(filter.holderClusters(8, true, false, 63), 0b010u);
    EXPECT_EQ(filter.holderClusters(8, false, true, 63), 0b100u);
    EXPECT_EQ(filter.holderClusters(8, true, true, 63), 0b110u);
    // Clusters of 65 cross each word: PE 64 in cluster 0, PE 127 in 1.
    EXPECT_EQ(filter.holderClusters(8, true, true, 65), 0b011u);
    EXPECT_EQ(filter.holderClusters(8, false, false, 63), 0u);
    EXPECT_EQ(filter.holderClusters(12, true, true, 63), 0u);
}

/** The clusters a per-cluster scan of copyMask and lockMask finds. */
std::uint64_t
scannedClusters(const ResidencyFilter& filter, Addr block, bool copies,
                bool locks, std::uint32_t pes, std::uint32_t cluster_size)
{
    const PeBitset copy = filter.copyMask(block);
    const PeBitset lock = filter.lockMask(block);
    std::uint64_t clusters = 0;
    for (PeId pe = 0; pe < pes; ++pe) {
        if ((copies && copy.test(pe)) || (locks && lock.test(pe)))
            clusters |= 1ull << (pe / cluster_size);
    }
    return clusters;
}

TEST(ResidencyFilterUnit, HolderClustersMatchAPerClusterScan)
{
    // Every machine the System accepts (at most 64 clusters) among
    // P = 64, 128, 1024 and cluster sizes 1, 3, 16, 24, 64, 100; sizes
    // that do not divide 64 put a cluster across two mask words.
    Rng rng(0x5eed);
    int machines = 0;
    for (const std::uint32_t pes : {64u, 128u, 1024u}) {
        for (const std::uint32_t size : {1u, 3u, 16u, 24u, 64u, 100u}) {
            if ((pes + size - 1) / size > 64)
                continue;
            ++machines;
            ResidencyFilter filter;
            filter.setBlockWords(4);
            filter.registerPe(pes - 1);
            // Block b holds up to b % 40 copies and b % 7 locks, so
            // densities run from empty to a few per cluster.
            constexpr Addr kBlocks = 120;
            for (Addr b = 0; b < kBlocks; ++b) {
                for (Addr i = 0; i < b % 40; ++i)
                    filter.addCopy(static_cast<PeId>(rng.below(pes)), 4 * b);
                for (Addr i = 0; i < b % 7; ++i) {
                    filter.setLockResident(
                        static_cast<PeId>(rng.below(pes)), 4 * b, true);
                }
            }
            for (Addr b = 0; b < kBlocks + 2; ++b) {
                for (const bool copies : {false, true}) {
                    for (const bool locks : {false, true}) {
                        EXPECT_EQ(filter.holderClusters(4 * b, copies, locks,
                                                        size),
                                  scannedClusters(filter, 4 * b, copies,
                                                  locks, pes, size))
                            << "P=" << pes << " size=" << size
                            << " block=" << 4 * b << " copies=" << copies
                            << " locks=" << locks;
                    }
                }
            }
        }
    }
    // 64: sizes 1-100; 128: 3-100; 1024: 16-100.
    EXPECT_EQ(machines, 15);
}

TEST(ResidencyFilterUnit, FootprintFollowsTheBlocksTouchedAt1024Pes)
{
    // One copy bit and one lock bit in each of 1024 PEs' comm segments
    // of the KL1 layout. Pages of a fixed number of entries would cost
    // each segment a page of 1024 sixteen-word entries (128 KiB) per
    // mask; 2 KiB pages of 16 entries, behind directories allocated as
    // they are touched, must cost at least ten times less.
    constexpr std::uint32_t kPes = 1024;
    LayoutConfig config;
    config.numPes = kPes;
    const Layout layout(config);
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.registerPe(kPes - 1);
    ASSERT_EQ(filter.maskWords(), 16u);
    for (PeId pe = 0; pe < kPes; ++pe) {
        const Addr block = layout.segment(Area::Comm, pe).base;
        filter.addCopy(pe, block);
        filter.setLockResident(pe, block, true);
    }
    EXPECT_EQ(filter.copyTable().pages(), kPes);
    EXPECT_EQ(filter.lockTable().pages(), kPes);
    const std::uint64_t fixed_entry_pages = 2ull * kPes * (128 << 10);
    EXPECT_LE(10 * (filter.copyTable().bytes() + filter.lockTable().bytes()),
              fixed_entry_pages);
    for (PeId pe = 0; pe < kPes; pe += 99) {
        const Addr block = layout.segment(Area::Comm, pe).base;
        EXPECT_EQ(filter.copyMask(block).count(), 1u);
        EXPECT_TRUE(filter.lockMask(block).test(pe));
    }
}

// ---------------------------------------------------------------------
// System-level exactness: masks versus cache/lock-directory ground
// truth after every protocol event kind.
// ---------------------------------------------------------------------

/** Tiny geometry so evictions are easy to force: 2 sets x 2 ways. */
SystemConfig
tinyConfig(std::uint32_t pes)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry.blockWords = 4;
    config.cache.geometry.sets = 2;
    config.cache.geometry.ways = 2;
    config.memoryWords = 1 << 16;
    config.validate();
    return config;
}

/**
 * Assert that for every block base in [lo, hi) the filter's copy mask
 * has exactly the bits of the PEs whose cache holds the block, and the
 * lock mask exactly the PEs whose lock directory has an entry on it.
 */
void
expectExactMasks(const System& system, Addr lo, Addr hi)
{
    const std::uint32_t block =
        system.cache(0).config().geometry.blockWords;
    const std::uint32_t pes = system.config().numPes;
    for (Addr base = lo / block * block; base < hi; base += block) {
        PeBitset expect_copies((pes + 63) / 64);
        PeBitset expect_locks((pes + 63) / 64);
        for (PeId pe = 0; pe < pes; ++pe) {
            if (system.cache(pe).present(base))
                expect_copies.set(pe);
            for (const auto& [word, state] :
                 system.cache(pe).lockDirectory().entries()) {
                if (word / block * block == base)
                    expect_locks.set(pe);
            }
        }
        EXPECT_EQ(system.bus().residency().copyMask(base), expect_copies)
            << "copy mask of block " << base;
        EXPECT_EQ(system.bus().residency().lockMask(base), expect_locks)
            << "lock mask of block " << base;
    }
}

TEST(ResidencyMasks, FillSharesAndWriteInvalidates)
{
    System system(tinyConfig(4));
    // All four PEs read block 0 -> four copies.
    for (PeId pe = 0; pe < 4; ++pe)
        system.access(pe, MemOp::R, 0, Area::Heap);
    EXPECT_EQ(system.bus().residency().copyMask(0), 0xfull);
    expectExactMasks(system, 0, 64);

    // PE2 writes -> the other three copies are invalidated.
    system.access(2, MemOp::W, 1, Area::Heap, 42);
    EXPECT_EQ(system.bus().residency().copyMask(0), 1ull << 2);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, SwapOutEvictionClearsTheMask)
{
    System system(tinyConfig(2));
    const Addr block = 4;
    // 2 sets x 4-word blocks: bases 0,32,64 all map to set 0. Three
    // distinct blocks in a 2-way set force an eviction.
    system.access(0, MemOp::R, 0, Area::Heap);
    system.access(0, MemOp::W, 32, Area::Heap, 7); // dirty victim
    system.access(0, MemOp::R, 64, Area::Heap);
    std::uint32_t resident = 0;
    for (Addr base : {Addr{0}, Addr{32}, Addr{64}})
        resident += system.cache(0).present(base) ? 1 : 0;
    EXPECT_EQ(resident, 2u); // one of the three was swapped out
    expectExactMasks(system, 0, 128);
    (void)block;
}

TEST(ResidencyMasks, ExclusiveReadPurgesTheSupplier)
{
    System system(tinyConfig(2));
    // PE0 creates the record with DW (exclusive dirty), PE1 consumes it
    // with ER: the supplier's copy must be purged and its mask bit gone.
    system.access(0, MemOp::DW, 8, Area::Heap, 99);
    EXPECT_EQ(system.bus().residency().copyMask(8), 1ull << 0);
    const System::Access got = system.access(1, MemOp::ER, 8, Area::Heap);
    EXPECT_EQ(got.data, 99u);
    EXPECT_FALSE(system.cache(0).present(8));
    EXPECT_EQ(system.bus().residency().copyMask(8), 1ull << 1);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, ReadPurgeAndReadInvalidate)
{
    System system(tinyConfig(2));
    system.access(0, MemOp::DW, 8, Area::Heap, 5);
    // RP: read and purge own copy without keeping it.
    system.access(0, MemOp::RP, 8, Area::Heap);
    expectExactMasks(system, 0, 64);
    // RI: read once, invalidating every cached copy.
    system.access(0, MemOp::W, 12, Area::Heap, 6);
    system.access(1, MemOp::RI, 12, Area::Heap);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, FlushAllClearsEveryMaskBit)
{
    System system(tinyConfig(3));
    Rng rng(42);
    for (int step = 0; step < 200; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(3));
        const Addr addr = rng.below(256);
        if (rng.chance(1, 3))
            system.access(pe, MemOp::W, addr, Area::Heap, rng.next());
        else
            system.access(pe, MemOp::R, addr, Area::Heap);
    }
    expectExactMasks(system, 0, 256);
    for (PeId pe = 0; pe < 3; ++pe)
        system.cache(pe).flushAll();
    for (Addr base = 0; base < 256; base += 4)
        EXPECT_EQ(system.bus().residency().copyMask(base), 0u);
    expectExactMasks(system, 0, 256);
}

TEST(ResidencyMasks, LockResidencyFollowsAcquireAndRelease)
{
    System system(tinyConfig(2));
    system.access(0, MemOp::LR, 20, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(20), 1ull << 0);
    expectExactMasks(system, 0, 64);
    system.access(0, MemOp::UW, 20, Area::Heap, 11);
    EXPECT_EQ(system.bus().residency().lockMask(20), 0u);

    system.access(1, MemOp::LR, 21, Area::Heap);
    system.access(1, MemOp::U, 21, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(20), 0u);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, LockSurvivesBlockEviction)
{
    System system(tinyConfig(2));
    // Lock a word, then evict its block from the holder's cache (set 0
    // holds bases 0,32,64). The lock directory entry — and therefore
    // the lock mask bit — must survive while the copy bit goes away.
    system.access(0, MemOp::LR, 2, Area::Heap);
    system.access(0, MemOp::W, 32, Area::Heap, 1);
    system.access(0, MemOp::W, 64, Area::Heap, 2);
    system.access(0, MemOp::R, 96, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(0), 1ull << 0);
    expectExactMasks(system, 0, 128);
    system.access(0, MemOp::U, 2, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(0), 0u);
    expectExactMasks(system, 0, 128);
}

// ---------------------------------------------------------------------
// Wide machines: the masks stay exact past the 64-PE word boundary.
// ---------------------------------------------------------------------

TEST(ResidencyMasks, WideMachineMasksStayExact)
{
    System system(tinyConfig(128));
    // Sharers straddling the mask-word boundary, then an invalidating
    // write from the far side.
    for (const PeId pe : {0u, 63u, 64u, 65u, 127u})
        system.access(pe, MemOp::R, 0, Area::Heap);
    PeBitset expect(2);
    for (const PeId pe : {0u, 63u, 64u, 65u, 127u})
        expect.set(pe);
    EXPECT_EQ(system.bus().residency().copyMask(0), expect);
    system.access(127, MemOp::W, 1, Area::Heap, 7);
    PeBitset only127(2);
    only127.set(127);
    EXPECT_EQ(system.bus().residency().copyMask(0), only127);
    expectExactMasks(system, 0, 64);

    // DW/ER hand-off across the boundary purges the wide supplier.
    system.access(64, MemOp::DW, 8, Area::Heap, 99);
    const System::Access got = system.access(65, MemOp::ER, 8, Area::Heap);
    EXPECT_EQ(got.data, 99u);
    EXPECT_FALSE(system.cache(64).present(8));
    PeBitset only65(2);
    only65.set(65);
    EXPECT_EQ(system.bus().residency().copyMask(8), only65);

    // RP purges a wide PE's own copy.
    system.access(100, MemOp::DW, 16, Area::Heap, 5);
    system.access(100, MemOp::RP, 16, Area::Heap);
    EXPECT_EQ(system.bus().residency().copyMask(16), 0u);
    expectExactMasks(system, 0, 64);

    // Evictions on a wide PE (2 sets: bases 0,32,64,96 map to set 0).
    for (const Addr base : {Addr{32}, Addr{64}, Addr{96}, Addr{128}})
        system.access(90, MemOp::R, base, Area::Heap);
    expectExactMasks(system, 0, 256);

    // Locks across the boundary, then flushAll clears every copy bit.
    system.access(70, MemOp::LR, 40, Area::Heap);
    PeBitset lock70(2);
    lock70.set(70);
    EXPECT_EQ(system.bus().residency().lockMask(40), lock70);
    system.access(70, MemOp::U, 40, Area::Heap);
    for (PeId pe = 0; pe < 128; ++pe)
        system.cache(pe).flushAll();
    for (Addr base = 0; base < 256; base += 4)
        EXPECT_EQ(system.bus().residency().copyMask(base), 0u);
    expectExactMasks(system, 0, 256);
}

// ---------------------------------------------------------------------
// Shadow-memory oracle: reads return the last write, masks stay exact.
// ---------------------------------------------------------------------

/**
 * Drive @p steps references over @p pes PEs through one System: plain
 * R/W over [0, 256), single-use DW records from @p record_base consumed
 * by ER or RP, and LR then UW or U on a lock word in a block private to
 * each PE from @p lock_base (LH inhibits a fetch when *any* word of the
 * block is locked elsewhere, so shared blocks would park PEs), which
 * keeps the stream retry-free. After every step a read must equal the
 * flat shadow of the last value written to its word, and the touched
 * block's copy and lock masks must match the caches and directories.
 */
void
expectShadowOracle(std::uint32_t pes, int steps, std::uint64_t seed,
                   Addr lock_base, Addr record_base)
{
    System system(tinyConfig(pes));
    std::vector<Word> shadow(system.config().memoryWords, 0);
    Rng rng(seed);
    std::vector<Addr> records;
    std::vector<bool> holds(pes, false);
    Addr next_record = record_base;
    for (int step = 0; step < steps; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(pes));
        const std::uint64_t roll = rng.below(100);
        MemOp op;
        Addr addr;
        Word wdata = 0;
        if (roll < 20) {
            addr = lock_base + pe * 4;
            if (holds[pe]) {
                op = rng.chance(1, 2) ? MemOp::U : MemOp::UW;
                if (op == MemOp::UW)
                    wdata = rng.next();
                holds[pe] = false;
            } else {
                op = MemOp::LR;
                holds[pe] = true;
            }
        } else if (roll < 30) {
            if (!records.empty() && rng.chance(1, 2)) {
                addr = records.back();
                records.pop_back();
                op = rng.chance(1, 2) ? MemOp::ER : MemOp::RP;
            } else {
                op = MemOp::DW;
                addr = next_record;
                next_record += 4;
                wdata = rng.next();
                records.push_back(addr);
            }
        } else {
            op = roll < 60 ? MemOp::W : MemOp::R;
            addr = rng.below(256);
            if (op == MemOp::W)
                wdata = rng.next();
        }
        const System::Access got =
            system.access(pe, op, addr, Area::Heap, wdata);
        ASSERT_FALSE(got.lockWait) << "step " << step;
        if (memOpReads(op)) {
            ASSERT_EQ(got.data, shadow[addr])
                << "step " << step << ": pe" << pe << " " << memOpName(op)
                << " at " << addr;
        }
        if (memOpWrites(op))
            shadow[addr] = wdata;
        expectExactMasks(system, addr, addr + 1);
        if (::testing::Test::HasFailure())
            return;
    }
    expectExactMasks(system, 0, next_record);
}

TEST(ResidencyOracle, MixedStreamMatchesShadowMemory)
{
    expectShadowOracle(4, 3000, 2026, /*lock_base=*/448,
                       /*record_base=*/512);
}

TEST(ResidencyOracle, WideMachineMixedStreamMatchesShadowMemory)
{
    // Lock words and records moved clear of each other for 128 PEs.
    expectShadowOracle(128, 2000, 128128, /*lock_base=*/4096,
                       /*record_base=*/8192);
}

} // namespace
} // namespace pim
