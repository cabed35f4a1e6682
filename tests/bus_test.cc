/**
 * @file
 * Bus timing tests: the six access patterns of paper Section 4.2 must
 * cost exactly the paper's cycle counts under the paper's assumptions,
 * and scale sensibly when bus width / memory latency change.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bus/bus.h"
#include "bus/timing.h"
#include "mem/paged_store.h"

namespace pim {
namespace {

TEST(BusTiming, PaperDefaults)
{
    const BusTiming t; // 1-word bus, 8-cycle memory, 4-word blocks
    EXPECT_EQ(t.swapInCycles(false), 13u);
    EXPECT_EQ(t.swapInCycles(true), 13u); // swap-out hidden by mem access
    EXPECT_EQ(t.cacheToCacheCycles(false), 7u);
    EXPECT_EQ(t.cacheToCacheCycles(true), 10u);
    EXPECT_EQ(t.swapOutOnlyCycles(), 5u);
    EXPECT_EQ(t.invalidateCycles(), 2u);
}

TEST(BusTiming, TwoWordBus)
{
    BusTiming t;
    t.widthWords = 2;
    EXPECT_EQ(t.blockTransferCycles(), 2u);
    EXPECT_EQ(t.swapInCycles(false), 11u);
    EXPECT_EQ(t.cacheToCacheCycles(false), 5u);
    EXPECT_EQ(t.cacheToCacheCycles(true), 6u);
    EXPECT_EQ(t.swapOutOnlyCycles(), 3u);
}

TEST(BusTiming, WideBlocks)
{
    BusTiming t;
    t.blockWords = 8;
    EXPECT_EQ(t.blockTransferCycles(), 8u);
    EXPECT_EQ(t.swapInCycles(false), 17u);
    // Victim transfer (9) exceeds the 8-cycle memory wait: partly exposed.
    EXPECT_EQ(t.swapInCycles(true), 18u);
    EXPECT_EQ(t.cacheToCacheCycles(false), 11u);
    EXPECT_EQ(t.cacheToCacheCycles(true), 18u);
}

TEST(BusTiming, SlowMemoryDoesNotChangeC2c)
{
    BusTiming t;
    t.memAccessCycles = 20;
    EXPECT_EQ(t.swapInCycles(false), 25u);
    EXPECT_EQ(t.cacheToCacheCycles(false), 7u); // insensitive, as in paper
}

class BusFixture : public ::testing::Test
{
  protected:
    BusFixture() : memory_(1 << 20), bus_(BusTiming{}, memory_) {}

    PagedStore memory_;
    Bus bus_;
    Word buffer_[4] = {};
};

TEST_F(BusFixture, FetchFromMemoryReadsData)
{
    memory_.write(100, 7);
    memory_.write(103, 9);
    const FetchResult result =
        bus_.fetch(0, 100, false, false, 0, false, buffer_, 0, Area::Heap);
    EXPECT_FALSE(result.lockHit);
    EXPECT_FALSE(result.supplied);
    EXPECT_EQ(result.completeAt, 13u);
    EXPECT_EQ(buffer_[0], 7u);
    EXPECT_EQ(buffer_[3], 9u);
    EXPECT_EQ(bus_.stats().totalCycles, 13u);
    EXPECT_EQ(bus_.stats().memoryReads, 1u);
}

TEST_F(BusFixture, BusSerializesRequests)
{
    bus_.fetch(0, 0, false, false, 0, false, buffer_, 0, Area::Heap);
    // Second request at time 3 must wait until the bus frees at 13.
    const FetchResult second =
        bus_.fetch(1, 64, false, false, 0, false, buffer_, 3, Area::Heap);
    EXPECT_EQ(second.completeAt, 26u);
}

TEST_F(BusFixture, IdleBusStartsAtRequestTime)
{
    bus_.fetch(0, 0, false, false, 0, false, buffer_, 0, Area::Heap);
    const FetchResult second =
        bus_.fetch(1, 64, false, false, 0, false, buffer_, 100, Area::Heap);
    EXPECT_EQ(second.completeAt, 113u);
}

TEST_F(BusFixture, InvalidateCostsTwoCycles)
{
    const InvalidateResult result =
        bus_.invalidate(0, 0, false, 0, 5, Area::Goal);
    EXPECT_EQ(result.completeAt, 7u);
    EXPECT_EQ(bus_.stats().cmdCounts[static_cast<int>(BusCmd::I)], 1u);
}

TEST_F(BusFixture, AreaAccounting)
{
    bus_.fetch(0, 0, false, false, 0, false, buffer_, 0, Area::Comm);
    bus_.invalidate(0, 64, false, 0, 0, Area::Goal);
    EXPECT_EQ(bus_.stats().cyclesByArea[static_cast<int>(Area::Comm)], 13u);
    EXPECT_EQ(bus_.stats().cyclesByArea[static_cast<int>(Area::Goal)], 2u);
}

TEST_F(BusFixture, SwapOutOnlyWritesMemory)
{
    const Word data[4] = {1, 2, 3, 4};
    const Cycles done = bus_.swapOutOnly(0, 200, data, 0, Area::Heap);
    EXPECT_EQ(done, 5u);
    EXPECT_EQ(memory_.read(201), 2u);
    EXPECT_EQ(bus_.stats().memoryWrites, 1u);
}

TEST_F(BusFixture, StaleFetchDetection)
{
    bus_.markPurgedDirty(100);
    bus_.fetch(0, 100, false, false, 0, false, buffer_, 0, Area::Goal);
    EXPECT_EQ(bus_.stats().staleFetches, 1u);
    // A write-back clears the mark.
    const Word data[4] = {};
    bus_.writeBackData(100, data);
    bus_.fetch(1, 100, false, false, 0, false, buffer_, 50, Area::Goal);
    EXPECT_EQ(bus_.stats().staleFetches, 1u);
}

TEST_F(BusFixture, FreshAllocationClearsPurgeMark)
{
    bus_.markPurgedDirty(100);
    bus_.noteFreshAllocation(100);
    bus_.fetch(0, 100, false, false, 0, false, buffer_, 0, Area::Goal);
    EXPECT_EQ(bus_.stats().staleFetches, 0u);
}

TEST(BusPurgeMarks, PagedPastTwoToThe33WordsAndAcrossAPageEdge)
{
    // The marks are paged by block number; a mark needs no memory behind
    // it, so a tiny store serves an address far past its end.
    PagedStore memory(64);
    Bus bus(BusTiming{}, memory);
    const Addr block = BusTiming{}.blockWords;
    const Addr page_words = Bus::kPurgeMarkPageBlocks * block;
    const Addr edge = (Addr{1} << 33) + 3 * page_words;
    const Addr last_of_page = edge - block;
    const Addr next_run = edge + 64 * block;
    for (const Addr addr : {last_of_page, edge, next_run})
        bus.markPurgedDirty(addr);
    for (const Addr addr : {last_of_page, edge, next_run})
        EXPECT_TRUE(bus.purgedDirtyMarked(addr)) << addr;
    for (const Addr addr : {Addr{0}, edge - 2 * block, edge + block,
                            edge - page_words, edge + 7 * page_words})
        EXPECT_FALSE(bus.purgedDirtyMarked(addr)) << addr;

    // Address order across the edge; a range boundary inside a block
    // starts at the next block base.
    const auto snapshot = [&](Addr lo, Addr hi) {
        std::vector<std::uint64_t> out;
        bus.snapshotPurgeMarks(lo, hi, out);
        return out;
    };
    using Marks = std::vector<std::uint64_t>;
    EXPECT_EQ(snapshot(0, Addr{1} << 40),
              (Marks{3, last_of_page, edge, next_run}));
    EXPECT_EQ(snapshot(last_of_page + 1, next_run), (Marks{1, edge}));
    EXPECT_EQ(snapshot(0, edge - page_words), (Marks{0}));

    // Clearing one mark leaves its page's others.
    bus.noteFreshAllocation(edge);
    EXPECT_FALSE(bus.purgedDirtyMarked(edge));
    EXPECT_TRUE(bus.purgedDirtyMarked(next_run));
    EXPECT_EQ(snapshot(0, Addr{1} << 40),
              (Marks{2, last_of_page, next_run}));

    bus.clearPurgedMarks();
    for (const Addr addr : {last_of_page, edge, next_run})
        EXPECT_FALSE(bus.purgedDirtyMarked(addr)) << addr;
    EXPECT_EQ(snapshot(0, Addr{1} << 40), (Marks{0}));
    bus.markPurgedDirty(edge);
    EXPECT_EQ(snapshot(0, Addr{1} << 40), (Marks{1, edge}));
}

TEST_F(BusFixture, UnlockBroadcastNotifiesListener)
{
    struct Listener : UnlockListener {
        Addr addr = 0;
        Cycles when = 0;
        void
        onUnlockBroadcast(Addr a, Cycles w) override
        {
            addr = a;
            when = w;
        }
    } listener;
    bus_.setUnlockListener(&listener);
    const Cycles done = bus_.unlockBroadcast(0, 42, 10, Area::Heap);
    EXPECT_EQ(done, 12u);
    EXPECT_EQ(listener.addr, 42u);
    EXPECT_EQ(listener.when, 12u);
}

TEST_F(BusFixture, UnalignedFetchAsserts)
{
    EXPECT_DEATH(bus_.fetch(0, 101, false, false, 0, false, buffer_, 0,
                            Area::Heap),
                 "unaligned");
}

} // namespace
} // namespace pim
