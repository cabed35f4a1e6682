/**
 * @file
 * Multi-PE protocol tests: the five-state transitions, cache-to-cache
 * transfer without copy-back (the SM state), invalidation, and the
 * Illinois-style copy-back baseline.
 */

#include <gtest/gtest.h>

#include "sim/system.h"

namespace pim {
namespace {

SystemConfig
smallSystem(std::uint32_t pes = 4)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry = {4, 2, 8};
    config.memoryWords = 1 << 20;
    return config;
}

class Protocol : public ::testing::Test
{
  protected:
    Protocol() : sys_(smallSystem()) {}

    Word
    op(PeId pe, MemOp memop, Addr addr, Word wdata = 0,
       Area area = Area::Heap)
    {
        const System::Access result =
            sys_.access(pe, memop, addr, area, wdata);
        EXPECT_FALSE(result.lockWait);
        return result.data;
    }

    System sys_;
};

TEST_F(Protocol, ReadMissFromMemoryIsExclusiveClean)
{
    op(0, MemOp::R, 100);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::EC);
}

TEST_F(Protocol, CleanSupplierSharesBothWays)
{
    op(0, MemOp::R, 100);
    op(1, MemOp::R, 100);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::S);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::S);
}

TEST_F(Protocol, DirtySupplierYieldsSharedModified)
{
    op(0, MemOp::W, 100, 42);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::EM);
    const Word value = op(1, MemOp::R, 100);
    EXPECT_EQ(value, 42u);
    // Ownership (the swap-out obligation) migrates to the receiver; the
    // supplier keeps a clean shared copy; memory is NOT updated.
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::SM);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::S);
    EXPECT_EQ(sys_.memory().read(100), 0u);
    EXPECT_EQ(sys_.bus().stats().memoryWrites, 0u);
}

TEST_F(Protocol, WriteToSharedBlockInvalidatesOthers)
{
    op(0, MemOp::R, 100);
    op(1, MemOp::R, 100);
    op(0, MemOp::W, 100, 9);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::EM);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::INV);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::I)],
              1u);
    EXPECT_EQ(op(1, MemOp::R, 100), 9u);
}

TEST_F(Protocol, WriteMissWithRemoteDirtyTransfersOwnership)
{
    op(0, MemOp::W, 100, 5);
    op(1, MemOp::W, 101, 6); // same block, write miss -> FI
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::INV);
    EXPECT_EQ(sys_.cache(1).stateOf(101), CacheState::EM);
    EXPECT_EQ(sys_.cache(1).loadValue(100), 5u); // transferred data kept
    EXPECT_EQ(sys_.bus().stats().memoryWrites, 0u);
}

TEST_F(Protocol, SmEvictionWritesBack)
{
    op(0, MemOp::W, 0, 77);
    op(1, MemOp::R, 0); // pe1 now SM
    EXPECT_EQ(sys_.cache(1).stateOf(0), CacheState::SM);
    // Force eviction of set 0 in pe1's 2-way cache: blocks 0, 128, 256.
    op(1, MemOp::R, 128);
    op(1, MemOp::R, 256);
    EXPECT_EQ(sys_.memory().read(0), 77u);
    EXPECT_FALSE(sys_.cache(1).present(0));
    // pe0's S copy still serves reads cache-to-cache.
    EXPECT_EQ(sys_.cache(0).stateOf(0), CacheState::S);
}

TEST_F(Protocol, SSupplierKeepsDirtyOwnershipElsewhere)
{
    // pe0 -> S (clean), pe1 -> SM (dirty owner).
    op(0, MemOp::W, 100, 3);
    op(1, MemOp::R, 100);
    ASSERT_EQ(sys_.cache(0).stateOf(100), CacheState::S);
    ASSERT_EQ(sys_.cache(1).stateOf(100), CacheState::SM);
    // pe2 read: the clean S copy in pe0 answers first, but pe1 keeps SM.
    op(2, MemOp::R, 100);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::SM);
    EXPECT_EQ(sys_.memory().read(100), 0u);
}

TEST_F(Protocol, FiPreservesDirtinessFromNonSupplier)
{
    // pe0 S (clean, answers first), pe1 SM (dirty owner).
    op(0, MemOp::W, 100, 3);
    op(1, MemOp::R, 100);
    // pe2 RI miss -> FI; the dropped dirty pe1 copy must make pe2 the
    // dirty owner (EM), not EC, or the value 3 would be lost.
    op(2, MemOp::RI, 100, 0, Area::Comm);
    EXPECT_EQ(sys_.cache(2).stateOf(100), CacheState::EM);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::INV);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::INV);
    // Evict pe2's block; the value must reach memory.
    op(2, MemOp::R, 228);
    op(2, MemOp::R, 356);
    EXPECT_EQ(sys_.memory().read(100), 3u);
}

TEST_F(Protocol, CacheToCacheCyclesMatchPaper)
{
    op(0, MemOp::W, 100, 1);
    const Cycles before = sys_.bus().stats().totalCycles;
    op(1, MemOp::R, 100); // c2c without swap-out: 7 cycles
    EXPECT_EQ(sys_.bus().stats().totalCycles - before, 7u);
}

TEST_F(Protocol, ValuesPropagateThroughChainOfPes)
{
    op(0, MemOp::W, 200, 10);
    op(1, MemOp::W, 200, 20);
    op(2, MemOp::W, 200, 30);
    EXPECT_EQ(op(3, MemOp::R, 200), 30u);
    EXPECT_EQ(op(0, MemOp::R, 200), 30u);
}

TEST_F(Protocol, AtMostOneExclusiveHolder)
{
    op(0, MemOp::W, 100, 1);
    op(1, MemOp::R, 100);
    op(2, MemOp::R, 100);
    int exclusive = 0;
    for (PeId pe = 0; pe < 4; ++pe) {
        if (cacheStateExclusive(sys_.cache(pe).stateOf(100)))
            ++exclusive;
    }
    EXPECT_EQ(exclusive, 0); // all shared now
    op(3, MemOp::W, 100, 2);
    for (PeId pe = 0; pe < 3; ++pe)
        EXPECT_EQ(sys_.cache(pe).stateOf(100), CacheState::INV);
    EXPECT_EQ(sys_.cache(3).stateOf(100), CacheState::EM);
}

class IllinoisBaseline : public ::testing::Test
{
  protected:
    IllinoisBaseline()
    {
        SystemConfig config = smallSystem();
        config.cache.protocol = ProtocolKind::MESI;
        sys_ = std::make_unique<System>(config);
    }

    Word
    op(PeId pe, MemOp memop, Addr addr, Word wdata = 0)
    {
        return sys_->access(pe, memop, addr, Area::Heap, wdata).data;
    }

    std::unique_ptr<System> sys_;
};

TEST_F(IllinoisBaseline, DirtyTransferCopiesBackToMemory)
{
    op(0, MemOp::W, 100, 42);
    op(1, MemOp::R, 100);
    // Illinois: memory snarfs the transfer; both copies clean S.
    EXPECT_EQ(sys_->memory().read(100), 42u);
    EXPECT_EQ(sys_->cache(0).stateOf(100), CacheState::S);
    EXPECT_EQ(sys_->cache(1).stateOf(100), CacheState::S);
    EXPECT_GE(sys_->bus().stats().memoryWrites, 1u);
}

TEST_F(IllinoisBaseline, MemoryBusierThanPimProtocol)
{
    // The same migratory pattern on both protocols: Illinois keeps the
    // memory modules busier (the paper's argument for SM).
    System pim(smallSystem());
    for (int round = 0; round < 8; ++round) {
        for (PeId pe = 0; pe < 4; ++pe) {
            op(pe, MemOp::R, 0);
            op(pe, MemOp::W, 0, pe);
            pim.access(pe, MemOp::R, 0, Area::Heap, 0);
            pim.access(pe, MemOp::W, 0, Area::Heap, pe);
        }
    }
    EXPECT_GT(sys_->bus().stats().memoryBusyCycles,
              pim.bus().stats().memoryBusyCycles);
}

} // namespace
} // namespace pim
