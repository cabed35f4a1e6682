/**
 * @file
 * Tests for memory-reference records, statistics, the binary trace file
 * format, and the synthetic trace generators.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault_test_util.h"
#include "sim/system.h"
#include "sim/trace_replay.h"
#include "trace/ref.h"
#include "trace/ref_stats.h"
#include "trace/synth.h"
#include "trace/trace_file.h"

namespace pim {
namespace {

TEST(MemOp, Classification)
{
    EXPECT_TRUE(memOpReads(MemOp::R));
    EXPECT_TRUE(memOpReads(MemOp::LR));
    EXPECT_TRUE(memOpReads(MemOp::ER));
    EXPECT_TRUE(memOpReads(MemOp::RP));
    EXPECT_TRUE(memOpReads(MemOp::RI));
    EXPECT_FALSE(memOpReads(MemOp::W));
    EXPECT_TRUE(memOpWrites(MemOp::W));
    EXPECT_TRUE(memOpWrites(MemOp::UW));
    EXPECT_TRUE(memOpWrites(MemOp::DW));
    EXPECT_FALSE(memOpWrites(MemOp::U));
    EXPECT_TRUE(memOpLocks(MemOp::LR));
    EXPECT_TRUE(memOpLocks(MemOp::UW));
    EXPECT_TRUE(memOpLocks(MemOp::U));
    EXPECT_FALSE(memOpLocks(MemOp::DW));
}

TEST(MemOp, Demotion)
{
    EXPECT_EQ(demoteMemOp(MemOp::DW), MemOp::W);
    EXPECT_EQ(demoteMemOp(MemOp::ER), MemOp::R);
    EXPECT_EQ(demoteMemOp(MemOp::RP), MemOp::R);
    EXPECT_EQ(demoteMemOp(MemOp::RI), MemOp::R);
    EXPECT_EQ(demoteMemOp(MemOp::LR), MemOp::LR);
    EXPECT_EQ(demoteMemOp(MemOp::W), MemOp::W);
}

TEST(MemOp, Names)
{
    EXPECT_STREQ(memOpName(MemOp::LR), "LR");
    EXPECT_STREQ(memOpName(MemOp::DW), "DW");
    EXPECT_STREQ(areaName(Area::Comm), "comm");
}

TEST(RefStats, CountsByAreaAndOp)
{
    RefStats stats;
    stats.record({0, MemOp::R, Area::Heap, 0});
    stats.record({1, MemOp::W, Area::Heap, 0});
    stats.record({2, MemOp::R, Area::Instruction, 1});
    stats.record({3, MemOp::LR, Area::Heap, 1});
    EXPECT_EQ(stats.total(), 4u);
    EXPECT_EQ(stats.areaTotal(Area::Heap), 3u);
    EXPECT_EQ(stats.dataTotal(), 3u);
    EXPECT_EQ(stats.opTotal(MemOp::R), 2u);
    EXPECT_EQ(stats.count(Area::Heap, MemOp::W), 1u);
}

TEST(RefStats, DemotedTotalsFoldOptimizedOps)
{
    RefStats stats;
    stats.record({0, MemOp::DW, Area::Heap, 0});
    stats.record({1, MemOp::ER, Area::Goal, 0});
    stats.record({2, MemOp::RP, Area::Goal, 0});
    stats.record({3, MemOp::RI, Area::Comm, 0});
    stats.record({4, MemOp::R, Area::Heap, 0});
    EXPECT_EQ(stats.opTotalDemoted(MemOp::R), 4u);
    EXPECT_EQ(stats.opTotalDemoted(MemOp::W), 1u);
    EXPECT_EQ(stats.opTotalDemoted(Area::Goal, MemOp::R), 2u);
}

TEST(RefStats, MergeAndClear)
{
    RefStats a;
    RefStats b;
    a.record({0, MemOp::R, Area::Heap, 0});
    b.record({0, MemOp::W, Area::Goal, 1});
    a.merge(b);
    EXPECT_EQ(a.total(), 2u);
    a.clear();
    EXPECT_EQ(a.total(), 0u);
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "/roundtrip.pimtrace";
    std::vector<MemRef> refs = {
        {12345, MemOp::R, Area::Heap, 0},
        {0xffffffffffULL, MemOp::DW, Area::Goal, 7},
        {0, MemOp::UW, Area::Comm, 3},
    };
    {
        TraceWriter writer(path, 8);
        for (const MemRef& ref : refs)
            writer.append(ref);
        EXPECT_EQ(writer.recordsWritten(), 3u);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.numPes(), 8u);
    MemRef ref;
    for (const MemRef& expected : refs) {
        ASSERT_TRUE(reader.next(ref));
        EXPECT_EQ(ref.addr, expected.addr);
        EXPECT_EQ(ref.op, expected.op);
        EXPECT_EQ(ref.area, expected.area);
        EXPECT_EQ(ref.pe, expected.pe);
    }
    EXPECT_FALSE(reader.next(ref));
    std::remove(path.c_str());
}

TEST(TraceFileDeath, BadMagicIsFatal)
{
    const std::string path = ::testing::TempDir() + "/bad.pimtrace";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACE123456", 1, 15, f);
    std::fclose(f);
    EXPECT_SIM_FAULT(TraceReader reader(path), SimFaultKind::Parse,
                     "not a PIMTRACE");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, OutOfRangeRecordIsFatal)
{
    // A corrupt op byte would index past RefStats' per-op table on
    // replay; the reader must refuse the record instead.
    const std::string path = ::testing::TempDir() + "/badop.pimtrace";
    {
        TraceWriter writer(path, 2);
        writer.append({64, MemOp::R, Area::Heap, 1});
        writer.append({68, static_cast<MemOp>(200), Area::Heap, 0});
    }
    EXPECT_SIM_FAULT(
        {
            TraceReader reader(path);
            MemRef ref;
            while (reader.next(ref)) {
            }
        },
        SimFaultKind::Parse,
        "PIMTRACE record 1 in " + path + " is out of range: op 200");
    std::remove(path.c_str());
}

TEST(Synth, RandomTrafficShape)
{
    RandomTrafficConfig config;
    config.numPes = 3;
    config.refsPerPe = 100;
    config.writePctX100 = 5000;
    const auto trace = makeRandomTraffic(config);
    EXPECT_EQ(trace.size(), 300u);
    std::uint64_t writes = 0;
    std::uint64_t by_pe[3] = {};
    for (const MemRef& ref : trace) {
        ASSERT_LT(ref.pe, 3u);
        ASSERT_LT(ref.addr, config.spanWords);
        by_pe[ref.pe] += 1;
        writes += ref.op == MemOp::W;
    }
    EXPECT_EQ(by_pe[0], 100u);
    EXPECT_EQ(by_pe[2], 100u);
    EXPECT_NEAR(static_cast<double>(writes), 150.0, 40.0);
}

TEST(Synth, RandomTrafficLockPairsBalanced)
{
    RandomTrafficConfig config;
    config.numPes = 2;
    config.refsPerPe = 400;
    config.lockPctX100 = 2000;
    const auto trace = makeRandomTraffic(config);
    std::uint64_t lr = 0;
    std::uint64_t uw = 0;
    for (const MemRef& ref : trace) {
        lr += ref.op == MemOp::LR;
        uw += ref.op == MemOp::UW;
    }
    EXPECT_EQ(lr, uw);
    EXPECT_GT(lr, 0u);
}

TEST(Synth, ProducerConsumerWriteOnceReadOnce)
{
    const auto trace = makeProducerConsumer(0, 1, 2, 1000, 64, 8, 4, true);
    EXPECT_EQ(trace.size(), 4u * 16u);
    // Per message: 8 producer DWs then 7 ERs and one final RP.
    for (int msg = 0; msg < 4; ++msg) {
        for (int w = 0; w < 8; ++w) {
            EXPECT_EQ(trace[msg * 16 + w].op, MemOp::DW);
            EXPECT_EQ(trace[msg * 16 + w].pe, 0u);
        }
        for (int w = 0; w < 7; ++w)
            EXPECT_EQ(trace[msg * 16 + 8 + w].op, MemOp::ER);
        EXPECT_EQ(trace[msg * 16 + 15].op, MemOp::RP);
        EXPECT_EQ(trace[msg * 16 + 15].pe, 1u);
    }
}

TEST(Synth, ProducerConsumerPoolRecycles)
{
    // 64-word pool, 8-word messages: message 8 reuses address 1000.
    const auto trace =
        makeProducerConsumer(0, 1, 2, 1000, 64, 8, 9, false);
    EXPECT_EQ(trace[8 * 16].addr, 1000u);
}

TEST(Synth, MigratoryTouchesEachPeInTurn)
{
    const auto trace = makeMigratory(3, 0, 2, 4, 1);
    ASSERT_EQ(trace.size(), 3u * 2u * 2u);
    EXPECT_EQ(trace[0].pe, 0u);
    EXPECT_EQ(trace[0].op, MemOp::R);
    EXPECT_EQ(trace[1].op, MemOp::W);
    EXPECT_EQ(trace[4].pe, 1u);
}

TEST(Synth, OrParallelShape)
{
    const auto trace = makeOrParallel(4, 0, 1 << 10, 1 << 16, 1 << 16,
                                      2000, 300, 9);
    std::uint64_t shared_reads = 0;
    std::uint64_t binding_writes = 0;
    std::uint64_t grabs = 0;
    for (const MemRef& ref : trace) {
        if (ref.area == Area::Instruction) {
            EXPECT_EQ(ref.op, MemOp::R);
            EXPECT_LT(ref.addr, 1u << 10);
            ++shared_reads;
        } else if (ref.area == Area::Heap && ref.op == MemOp::DW) {
            // Binding writes stay in the PE's own private region.
            EXPECT_EQ((ref.addr - (1 << 16)) / (1 << 16), ref.pe);
            ++binding_writes;
        } else if (ref.area == Area::Comm) {
            ++grabs;
        }
    }
    EXPECT_GT(shared_reads, 1000u);
    EXPECT_GT(binding_writes, 1000u);
    EXPECT_GT(grabs, 0u);
}

TEST(Synth, OrParallelReplaysCleanly)
{
    const auto trace = makeOrParallel(4, 0, 1 << 10, 1 << 16, 1 << 16,
                                      4000, 300, 9);
    SystemConfig config;
    config.numPes = 4;
    config.memoryWords = 1 << 20;
    System sys(config);
    TraceReplay replay(sys, trace);
    replay.run();
    EXPECT_EQ(replay.completed(), trace.size());
    // Shared program reads become cheap after warm-up; private binding
    // writes allocate without fetch (DW).
    EXPECT_GT(sys.totalCacheStats().dwAllocNoFetch, 0u);
}

TEST(Synth, HeapGrowthMonotoneAllocation)
{
    const auto trace = makeHeapGrowth(2, 0, 10000, 50, 4, true, 3);
    // Every DW address within a PE's segment must be >= previous ones.
    Addr last[2] = {0, 0};
    for (const MemRef& ref : trace) {
        if (ref.op != MemOp::DW)
            continue;
        EXPECT_GE(ref.addr, last[ref.pe]);
        last[ref.pe] = ref.addr;
    }
    // Unoptimized variant uses plain W.
    const auto plain = makeHeapGrowth(2, 0, 10000, 5, 4, false, 3);
    for (const MemRef& ref : plain)
        EXPECT_NE(ref.op, MemOp::DW);
}

} // namespace
} // namespace pim
