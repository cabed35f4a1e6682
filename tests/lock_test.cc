/**
 * @file
 * Lock protocol tests: the LR / UW / U operations, the LCK / LWAIT / EMP
 * directory states, zero-bus-cycle fast paths, LH inhibition and the UL
 * wakeup (paper Sections 3.1 and 4.7).
 */

#include <gtest/gtest.h>

#include "fault_test_util.h"
#include "sim/system.h"

namespace pim {
namespace {

SystemConfig
smallSystem()
{
    SystemConfig config;
    config.numPes = 4;
    config.cache.geometry = {4, 2, 8};
    config.memoryWords = 1 << 20;
    return config;
}

class Locks : public ::testing::Test
{
  protected:
    Locks() : sys_(smallSystem()) {}

    System::Access
    op(PeId pe, MemOp memop, Addr addr, Word wdata = 0)
    {
        return sys_.access(pe, memop, addr, Area::Heap, wdata);
    }

    System sys_;
};

TEST_F(Locks, LrHitExclusiveCostsNoBusCycles)
{
    op(0, MemOp::R, 100); // EC
    const Cycles before = sys_.bus().stats().totalCycles;
    op(0, MemOp::LR, 100);
    EXPECT_EQ(sys_.bus().stats().totalCycles, before);
    EXPECT_EQ(sys_.cache(0).lockDirectory().stateOf(100), LockState::LCK);
    EXPECT_EQ(sys_.cache(0).stats().lrHitExclusive, 1u);
    op(0, MemOp::U, 100);
}

TEST_F(Locks, LrSharedHitUsesInvalidateWithLock)
{
    op(0, MemOp::R, 100);
    op(1, MemOp::R, 100); // both S
    const Cycles before = sys_.bus().stats().totalCycles;
    op(0, MemOp::LR, 100);
    EXPECT_EQ(sys_.bus().stats().totalCycles - before, 2u); // I+LK
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::EC);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::INV);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::LK)],
              1u);
    op(0, MemOp::U, 100);
}

TEST_F(Locks, LrSharedModifiedHitBecomesExclusiveModified)
{
    op(0, MemOp::W, 100, 5);
    op(1, MemOp::R, 100); // pe1 SM
    ASSERT_EQ(sys_.cache(1).stateOf(100), CacheState::SM);
    op(1, MemOp::LR, 100);
    EXPECT_EQ(sys_.cache(1).stateOf(100), CacheState::EM);
    op(1, MemOp::U, 100);
}

TEST_F(Locks, LrMissUsesFetchInvalidateWithLock)
{
    const auto result = op(0, MemOp::LR, 100);
    EXPECT_FALSE(result.lockWait);
    EXPECT_EQ(sys_.cache(0).stateOf(100), CacheState::EC);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::FI)],
              1u);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::LK)],
              1u);
    op(0, MemOp::U, 100);
}

TEST_F(Locks, LrReadsCurrentValue)
{
    op(0, MemOp::W, 100, 31);
    EXPECT_EQ(op(1, MemOp::LR, 100).data, 31u);
    op(1, MemOp::UW, 100, 32);
    EXPECT_EQ(op(0, MemOp::R, 100).data, 32u);
}

TEST_F(Locks, UnlockWithoutWaiterIsFree)
{
    op(0, MemOp::LR, 100);
    const Cycles before = sys_.bus().stats().totalCycles;
    op(0, MemOp::UW, 100, 9);
    EXPECT_EQ(sys_.bus().stats().totalCycles, before); // no UL broadcast
    EXPECT_EQ(sys_.cache(0).stats().unlockNoWaiter, 1u);
    EXPECT_EQ(sys_.cache(0).lockDirectory().stateOf(100), LockState::EMP);
}

TEST_F(Locks, ConflictParksAndUlWakes)
{
    op(0, MemOp::LR, 100);
    // pe1 tries to lock the same word: LH -> parked.
    const auto rejected = op(1, MemOp::LR, 100);
    EXPECT_TRUE(rejected.lockWait);
    EXPECT_TRUE(sys_.parked(1));
    EXPECT_EQ(sys_.cache(0).lockDirectory().stateOf(100),
              LockState::LWAIT);
    // Owner unlocks: UL broadcast required, waiter woken.
    const std::uint64_t ul_before =
        sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::UL)];
    op(0, MemOp::UW, 100, 1);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::UL)],
              ul_before + 1);
    EXPECT_FALSE(sys_.parked(1));
    // Retry now succeeds and sees the owner's write.
    const auto retry = op(1, MemOp::LR, 100);
    EXPECT_FALSE(retry.lockWait);
    EXPECT_EQ(retry.data, 1u);
    op(1, MemOp::U, 100);
}

TEST_F(Locks, PlainReadOfLockedBlockIsInhibited)
{
    op(0, MemOp::LR, 100);
    const auto read = op(1, MemOp::R, 100);
    EXPECT_TRUE(read.lockWait);
    EXPECT_TRUE(sys_.parked(1));
    op(0, MemOp::U, 100);
    EXPECT_FALSE(sys_.parked(1));
    EXPECT_FALSE(op(1, MemOp::R, 100).lockWait);
}

TEST_F(Locks, LockSurvivesSwapOut)
{
    op(0, MemOp::LR, 0);
    // Evict block 0 from pe0's set 0 (2 ways).
    op(0, MemOp::R, 128);
    op(0, MemOp::R, 256);
    ASSERT_FALSE(sys_.cache(0).present(0));
    // The lock directory still inhibits remote access.
    EXPECT_TRUE(op(1, MemOp::R, 0).lockWait);
    // UW refetches the block, writes, and unlocks with UL.
    op(0, MemOp::UW, 0, 42);
    EXPECT_FALSE(sys_.parked(1));
    EXPECT_EQ(op(1, MemOp::R, 0).data, 42u);
}

TEST_F(Locks, TwoLocksInDifferentWordsOfDifferentBlocks)
{
    op(0, MemOp::LR, 100);
    op(0, MemOp::LR, 200);
    EXPECT_EQ(sys_.cache(0).lockDirectory().heldCount(), 2u);
    op(0, MemOp::UW, 200, 2);
    op(0, MemOp::UW, 100, 1);
    EXPECT_EQ(sys_.cache(0).lockDirectory().heldCount(), 0u);
}

TEST_F(Locks, LockOnOneWordInhibitsWholeBlock)
{
    op(0, MemOp::LR, 100);
    // A different word of the same block: the block-granular snoop of
    // the lock directory inhibits it too.
    EXPECT_TRUE(op(1, MemOp::LR, 101).lockWait);
    op(0, MemOp::U, 100);
    EXPECT_FALSE(op(1, MemOp::LR, 101).lockWait);
    op(1, MemOp::U, 101);
}

TEST_F(Locks, DifferentBlocksDoNotInterfere)
{
    op(0, MemOp::LR, 100);
    EXPECT_FALSE(op(1, MemOp::LR, 200).lockWait);
    op(0, MemOp::U, 100);
    op(1, MemOp::U, 200);
}

TEST_F(Locks, MultipleWaitersAllWake)
{
    op(0, MemOp::LR, 100);
    EXPECT_TRUE(op(1, MemOp::R, 100).lockWait);
    EXPECT_TRUE(op(2, MemOp::R, 100).lockWait);
    op(0, MemOp::U, 100);
    EXPECT_FALSE(sys_.parked(1));
    EXPECT_FALSE(sys_.parked(2));
    EXPECT_FALSE(op(1, MemOp::R, 100).lockWait);
    EXPECT_FALSE(op(2, MemOp::R, 100).lockWait);
}

TEST_F(Locks, WaiterWakeTimeFollowsUnlock)
{
    op(0, MemOp::LR, 100);
    op(1, MemOp::R, 100); // parked
    const Cycles parked_at = sys_.clock(1);
    op(0, MemOp::UW, 100, 1);
    EXPECT_GE(sys_.clock(1), parked_at);
    EXPECT_GE(sys_.clock(1), sys_.clock(0) > 2 ? sys_.clock(0) - 2 : 0u);
}

TEST_F(Locks, Table5StyleStatistics)
{
    // Uncontended lock/unlock pairs on private, pre-owned data should be
    // nearly all zero-cost, as the paper's Table 5 reports.
    for (int round = 0; round < 50; ++round) {
        op(0, MemOp::W, 100, round); // keeps the block EM
        op(0, MemOp::LR, 100);
        op(0, MemOp::UW, 100, round + 1);
    }
    const CacheStats& stats = sys_.cache(0).stats();
    EXPECT_EQ(stats.lrCount, 50u);
    EXPECT_EQ(stats.lrHitExclusive, 50u);
    EXPECT_EQ(stats.unlockNoWaiter, 50u);
}

TEST_F(Locks, SequentialOwnershipHandoff)
{
    // A lock word bouncing between PEs: each LR misses (FI+LK), each
    // unlock is waiter-free because the next PE arrives afterwards.
    Word value = 0;
    for (PeId pe = 0; pe < 4; ++pe) {
        const auto lr = op(pe, MemOp::LR, 500);
        ASSERT_FALSE(lr.lockWait);
        EXPECT_EQ(lr.data, value);
        value += pe + 1;
        op(pe, MemOp::UW, 500, value);
    }
    EXPECT_EQ(op(0, MemOp::R, 500).data, 1u + 2u + 3u + 4u);
}

TEST_F(Locks, LwaitChainOfThreeWaiters)
{
    // Three PEs pile up behind one lock (two more LRs and a plain read,
    // one on a different word of the same block). A single UL wakes the
    // whole chain; the retries then re-serialize behind the new holder.
    op(0, MemOp::LR, 100);
    EXPECT_TRUE(op(1, MemOp::LR, 100).lockWait);
    EXPECT_TRUE(op(2, MemOp::R, 100).lockWait);
    EXPECT_TRUE(op(3, MemOp::LR, 101).lockWait);
    EXPECT_EQ(sys_.pendingWaiters(), (std::vector<PeId>{1, 2, 3}));
    EXPECT_EQ(sys_.cache(0).lockDirectory().stateOf(100),
              LockState::LWAIT);

    const std::uint64_t ul_before =
        sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::UL)];
    op(0, MemOp::UW, 100, 7);
    EXPECT_EQ(sys_.bus().stats().cmdCounts[static_cast<int>(BusCmd::UL)],
              ul_before + 1); // one broadcast wakes all three
    EXPECT_TRUE(sys_.pendingWaiters().empty());

    // First retry wins the lock; the other two park behind it again.
    EXPECT_FALSE(op(1, MemOp::LR, 100).lockWait);
    EXPECT_TRUE(op(2, MemOp::R, 100).lockWait);
    EXPECT_TRUE(op(3, MemOp::LR, 101).lockWait);
    op(1, MemOp::UW, 100, 8);
    EXPECT_EQ(op(2, MemOp::R, 100).data, 8u);
    EXPECT_FALSE(op(3, MemOp::LR, 101).lockWait);
    op(3, MemOp::U, 101);
}

TEST_F(Locks, UnlockAfterEvictionWithNoWaiterIsFree)
{
    // The locked block is swapped out while held; a plain U with no
    // waiter must neither refetch the block nor touch the bus — the
    // directory entry alone carries the release.
    op(0, MemOp::LR, 0);
    op(0, MemOp::R, 128);
    op(0, MemOp::R, 256); // evicts block 0 (2 ways in its set)
    ASSERT_FALSE(sys_.cache(0).present(0));

    const Cycles before = sys_.bus().stats().totalCycles;
    op(0, MemOp::U, 0);
    EXPECT_EQ(sys_.bus().stats().totalCycles, before);
    EXPECT_FALSE(sys_.cache(0).present(0)); // no refetch
    EXPECT_EQ(sys_.cache(0).stats().unlockNoWaiter, 1u);
    EXPECT_EQ(sys_.cache(0).lockDirectory().stateOf(0), LockState::EMP);
    EXPECT_FALSE(op(1, MemOp::R, 0).lockWait);
}

TEST_F(Locks, LrOnErPurgedBlockRefetchesStaleData)
{
    // ER through the last word of a dirty block purges it without
    // copy-back; a later LR on a word of that block must still acquire
    // the lock, at the price of a stale memory fetch.
    op(0, MemOp::W, 100, 55); // EM, dirty
    for (Addr a = 100; a < 104; ++a)
        op(0, MemOp::ER, a); // last word purges, no swap-out
    ASSERT_FALSE(sys_.cache(0).present(100));
    ASSERT_EQ(sys_.cache(0).stats().purgedDirty, 1u);

    const auto lr = op(1, MemOp::LR, 101);
    EXPECT_FALSE(lr.lockWait);
    EXPECT_EQ(sys_.bus().stats().staleFetches, 1u);
    EXPECT_EQ(sys_.cache(1).lockDirectory().stateOf(101), LockState::LCK);
    // Memory never saw the purged write: the contract says the data was
    // single-use, so the refetched copy is the stale 0.
    EXPECT_EQ(lr.data, 0u);
    op(1, MemOp::U, 101);
}

TEST(LockDirectoryUnit, SnoopTransitionsToLwait)
{
    LockDirectory dir(0, 2);
    dir.acquire(100);
    EXPECT_EQ(dir.stateOf(100), LockState::LCK);
    EXPECT_TRUE(dir.snoopLockCheck(100, 4, 0));
    EXPECT_EQ(dir.stateOf(100), LockState::LWAIT);
    EXPECT_TRUE(dir.release(100));
}

TEST(LockDirectoryUnit, SnoopMissesOtherBlocks)
{
    LockDirectory dir(0, 2);
    dir.acquire(100);
    EXPECT_FALSE(dir.snoopLockCheck(104, 4, 0));
    EXPECT_EQ(dir.stateOf(100), LockState::LCK);
    EXPECT_FALSE(dir.release(100));
}

TEST(LockDirectoryUnit, BlockRangeCheck)
{
    LockDirectory dir(0, 2);
    dir.acquire(103);
    EXPECT_TRUE(dir.snoopLockCheck(100, 4, 0));  // 103 in [100,104)
    EXPECT_FALSE(dir.snoopLockCheck(96, 4, 0));  // 103 not in [96,100)
}

TEST(LockDirectoryUnitDeath, OverflowIsFatal)
{
    LockDirectory dir(0, 1);
    dir.acquire(1);
    EXPECT_SIM_FAULT(dir.acquire(2), SimFaultKind::Config, "is full");
}

TEST(LockDirectoryUnitDeath, DoubleLockPanics)
{
    LockDirectory dir(0, 2);
    dir.acquire(1);
    EXPECT_DEATH(dir.acquire(1), "re-locking");
}

TEST(LockDirectoryUnitDeath, ReleaseWithoutHoldPanics)
{
    LockDirectory dir(0, 2);
    EXPECT_DEATH(dir.release(7), "does not hold");
}

// ---------------------------------------------- parked-PE accounting --

TEST_F(Locks, PendingWaitersTracksParkedPes)
{
    EXPECT_TRUE(sys_.pendingWaiters().empty());
    op(0, MemOp::LR, 100);
    EXPECT_TRUE(op(1, MemOp::LR, 100).lockWait);
    EXPECT_TRUE(op(2, MemOp::R, 101).lockWait);
    EXPECT_EQ(sys_.pendingWaiters(), (std::vector<PeId>{1, 2}));
    op(0, MemOp::U, 100); // UL wakes both.
    EXPECT_TRUE(sys_.pendingWaiters().empty());
    op(1, MemOp::LR, 100);
    op(1, MemOp::U, 100);
}

TEST(ParkedLeak, DestructorPanicsOnLeakedLockWait)
{
    EXPECT_DEATH(
        {
            System sys(smallSystem());
            sys.access(0, MemOp::LR, 100, Area::Heap);
            // Driver bug under test: pe1's lock wait is never retried
            // and pe0 never unlocks; the System goes out of scope with
            // pe1 still parked.
            sys.access(1, MemOp::LR, 100, Area::Heap);
        },
        "still parked");
}

TEST(ParkedLeak, AbandonParkedWaitersSilencesTheCheck)
{
    System sys(smallSystem());
    sys.access(0, MemOp::LR, 100, Area::Heap);
    EXPECT_TRUE(sys.access(1, MemOp::LR, 100, Area::Heap).lockWait);
    ASSERT_EQ(sys.pendingWaiters().size(), 1u);
    sys.abandonParkedWaiters();
    EXPECT_TRUE(sys.pendingWaiters().empty());
    // Destructor runs clean; the abandoned wait is acknowledged.
}

} // namespace
} // namespace pim
