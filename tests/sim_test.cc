/**
 * @file
 * System-level tests: clock bookkeeping, the PE scheduler against a
 * brute-force scan, optimization-policy demotion, trace replay (order,
 * parking, determinism), and aggregate statistics.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "fault_test_util.h"
#include "sim/system.h"
#include "sim/trace_replay.h"
#include "trace/synth.h"

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

TEST(OptPolicy, Presets)
{
    EXPECT_EQ(OptPolicy::none().name(), "None");
    EXPECT_EQ(OptPolicy::heapOnly().name(), "Heap");
    EXPECT_EQ(OptPolicy::goalOnly().name(), "Goal");
    EXPECT_EQ(OptPolicy::commOnly().name(), "Comm");
    EXPECT_EQ(OptPolicy::all().name(), "All");
}

TEST(OptPolicy, DemotionRules)
{
    const OptPolicy none = OptPolicy::none();
    EXPECT_EQ(none.apply(Area::Heap, MemOp::DW), MemOp::W);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::ER), MemOp::R);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::RP), MemOp::R);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::DW), MemOp::W);
    EXPECT_EQ(none.apply(Area::Comm, MemOp::RI), MemOp::R);
    EXPECT_EQ(none.apply(Area::Heap, MemOp::LR), MemOp::LR);

    const OptPolicy heap = OptPolicy::heapOnly();
    EXPECT_EQ(heap.apply(Area::Heap, MemOp::DW), MemOp::DW);
    EXPECT_EQ(heap.apply(Area::Goal, MemOp::DW), MemOp::W);
    EXPECT_EQ(heap.apply(Area::Comm, MemOp::RI), MemOp::R);

    const OptPolicy all = OptPolicy::all();
    EXPECT_EQ(all.apply(Area::Goal, MemOp::ER), MemOp::ER);
    // No optimized commands are defined outside heap/goal/comm.
    EXPECT_EQ(all.apply(Area::Susp, MemOp::DW), MemOp::W);
    EXPECT_EQ(all.apply(Area::Instruction, MemOp::ER), MemOp::R);
}

TEST(System, ClocksAdvanceIndependently)
{
    System sys(smallSystem());
    sys.access(0, MemOp::R, 100, Area::Heap, 0); // miss: 13 cycles
    EXPECT_EQ(sys.clock(0), 13u);
    EXPECT_EQ(sys.clock(1), 0u);
    sys.access(0, MemOp::R, 101, Area::Heap, 0); // hit: 1 cycle
    EXPECT_EQ(sys.clock(0), 14u);
    EXPECT_EQ(sys.makespan(), 14u);
}

TEST(System, EarliestRunnablePicksMinClock)
{
    System sys(smallSystem());
    sys.access(0, MemOp::R, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 200, Area::Heap, 0);
    EXPECT_EQ(sys.earliestRunnable(), 2u); // untouched PEs at clock 0
    sys.advanceClock(2, 100);
    sys.advanceClock(3, 100);
    EXPECT_EQ(sys.earliestRunnable(), 0u);
}

TEST(System, EarliestRunnableSkipsParked)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::LR, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // parks pe1
    ASSERT_TRUE(sys.parked(1));
    EXPECT_EQ(sys.earliestRunnable(), 0u);
    sys.access(0, MemOp::U, 100, Area::Heap, 0); // wake pe1
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // retry completes
}

/**
 * The reference for System::earliestRunnable: scan every PE for the
 * smallest (clock, pe) among those neither parked nor retired.
 */
PeId
scanEarliest(const System& sys, const std::vector<bool>& retired,
             bool* tied)
{
    PeId best = kNoPe;
    *tied = false;
    for (PeId pe = 0; pe < sys.numPes(); ++pe) {
        if (sys.parked(pe) || retired[pe])
            continue;
        if (best == kNoPe || sys.clock(pe) < sys.clock(best)) {
            best = pe;
            *tied = false;
        } else if (sys.clock(pe) == sys.clock(best)) {
            *tied = true;
        }
    }
    return best;
}

class SchedulerDiff : public ::testing::TestWithParam<std::uint32_t>
{
};

/**
 * Seeded random operations (accesses, clock advances onto other PEs'
 * clocks, LR/U parks and wakes, spurious wakeups, abandoned waiters,
 * retires), with earliestRunnable() checked against the scan after
 * every one.
 */
TEST_P(SchedulerDiff, EarliestRunnableMatchesScan)
{
    const std::uint32_t pes = GetParam();
    System sys(smallSystem(pes));
    FaultInjector injector(FaultPlan::parse("spurious_wakeup:p=0.02"), pes);
    sys.setFaultInjector(&injector);
    Rng rng(pes);
    std::vector<bool> retired(pes, false);
    std::vector<Addr> held(pes, kNoAddr); // Lock word each PE holds.
    const Addr locks[] = {512, 528};       // Lock words, one per block.
    std::uint64_t parks = 0;
    std::uint64_t ties = 0;
    std::uint64_t abandons = 0;

    auto check = [&](int step) {
        bool tied = false;
        ASSERT_EQ(sys.earliestRunnable(), scanEarliest(sys, retired, &tied))
            << "after step " << step;
        ties += tied;
    };
    auto runnable = [&] {
        std::vector<PeId> out;
        for (PeId pe = 0; pe < pes; ++pe) {
            if (!sys.parked(pe) && !retired[pe])
                out.push_back(pe);
        }
        return out;
    };

    check(-1);
    for (int step = 0; step < 3000; ++step) {
        const std::vector<PeId> ready = runnable();
        const std::uint64_t roll = rng.below(100);
        if (ready.empty() || roll < 2) {
            // Every live PE parked (or a drive loop's error path).
            abandons += !sys.pendingWaiters().empty();
            sys.abandonParkedWaiters();
        } else if (roll < 30) {
            // Often onto another PE's clock, so ties are common.
            const PeId pe = static_cast<PeId>(rng.below(pes));
            const Cycles target = sys.clock(static_cast<PeId>(rng.below(pes)));
            sys.advanceClock(pe, target > sys.clock(pe) && rng.chance(2, 3)
                                     ? target - sys.clock(pe)
                                     : rng.below(20));
        } else if (roll < 31 && 2 * ready.size() > pes) {
            // Retire a PE holding no lock, at most half of them here.
            const PeId pe = ready[rng.below(ready.size())];
            if (held[pe] == kNoAddr) {
                sys.retire(pe);
                retired[pe] = true;
            }
        } else {
            const PeId pe = ready[rng.below(ready.size())];
            MemOp op = rng.chance(1, 2) ? MemOp::R : MemOp::W;
            Addr addr = rng.chance(1, 4) ? locks[rng.below(2)] + 1
                                         : static_cast<Addr>(rng.below(256));
            if (rng.chance(2, 5)) {
                op = held[pe] != kNoAddr ? MemOp::U : MemOp::LR;
                addr = held[pe] != kNoAddr ? held[pe] : locks[rng.below(2)];
            }
            const System::Access acc =
                sys.access(pe, op, addr, Area::Heap, step);
            if (acc.lockWait)
                parks += 1;
            else if (op == MemOp::LR)
                held[pe] = addr;
            else if (op == MemOp::U)
                held[pe] = kNoAddr;
        }
        check(step);
        if (HasFatalFailure())
            return;
    }

    // Retire every PE still live; the last leaves no one to schedule.
    sys.abandonParkedWaiters();
    check(-2);
    for (PeId pe = 0; pe < pes; ++pe) {
        if (!retired[pe]) {
            sys.retire(pe);
            retired[pe] = true;
            check(-3);
        }
    }
    EXPECT_EQ(sys.earliestRunnable(), kNoPe);

    // The run reached every state the tree must track.
    if (pes >= 2) {
        EXPECT_GT(ties, 0u);
        EXPECT_GT(parks, 0u);
        EXPECT_GT(injector.stats(FaultSite::SpuriousWakeup).fires, 0u);
    }
    if (pes >= 8) {
        EXPECT_GT(abandons, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pes, SchedulerDiff,
    ::testing::Values(1u, 2u, 3u, 8u, 64u, 65u, 128u, 1024u),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
        return "pes" + std::to_string(info.param);
    });

TEST(System, RefStatsCountCompletedOnly)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::LR, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // rejected: not counted
    EXPECT_EQ(sys.refStats().total(), 1u);
    sys.access(0, MemOp::UW, 100, Area::Heap, 1);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // retry completes
    EXPECT_EQ(sys.refStats().total(), 3u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::LR), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::UW), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::R), 1u);
}

TEST(System, PolicyDemotionVisibleInRefStats)
{
    SystemConfig config = smallSystem(1);
    config.policy = OptPolicy::none();
    System sys(config);
    sys.access(0, MemOp::DW, 100, Area::Heap, 1);
    sys.access(0, MemOp::ER, 100, Area::Goal, 0);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::DW), 0u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::W), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::R), 1u);
}

TEST(System, FlushAllCachesReachesMemory)
{
    System sys(smallSystem());
    sys.access(0, MemOp::W, 100, Area::Heap, 42);
    sys.access(1, MemOp::W, 200, Area::Heap, 43);
    sys.flushAllCaches();
    EXPECT_EQ(sys.memory().read(100), 42u);
    EXPECT_EQ(sys.memory().read(200), 43u);
    EXPECT_FALSE(sys.cache(0).present(100));
}

TEST(System, TotalCacheStatsAggregates)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::R, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 200, Area::Heap, 0);
    const CacheStats total = sys.totalCacheStats();
    EXPECT_EQ(total.accesses, 2u);
    EXPECT_EQ(total.misses, 2u);
}

TEST(TraceReplay, CompletesAllRefs)
{
    System sys(smallSystem());
    RandomTrafficConfig config;
    config.numPes = 4;
    config.refsPerPe = 500;
    config.spanWords = 256;
    const std::vector<MemRef> trace = makeRandomTraffic(config);
    TraceReplay replay(sys, trace);
    replay.run();
    EXPECT_EQ(replay.completed(), trace.size());
    EXPECT_EQ(sys.refStats().total(), trace.size());
}

TEST(TraceReplay, DeterministicAcrossRuns)
{
    RandomTrafficConfig config;
    config.numPes = 4;
    config.refsPerPe = 1000;
    config.lockPctX100 = 500;
    config.spanWords = 128;
    const std::vector<MemRef> trace = makeRandomTraffic(config);

    Cycles cycles[2];
    for (int run = 0; run < 2; ++run) {
        System sys(smallSystem());
        TraceReplay replay(sys, trace);
        replay.run();
        cycles[run] = sys.bus().stats().totalCycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(TraceReplay, LockPairsReplayWithContention)
{
    System sys(smallSystem());
    // Four PEs all lock the same hot word: heavy LWAIT traffic.
    const std::vector<MemRef> trace =
        makeLockTraffic(4, 100, 200, 50, 10000, 7);
    TraceReplay replay(sys, trace);
    replay.run();
    EXPECT_EQ(replay.completed(), trace.size());
    EXPECT_GT(replay.lockRejects(), 0u);
    // Everyone unlocked at the end.
    for (PeId pe = 0; pe < 4; ++pe)
        EXPECT_EQ(sys.cache(pe).lockDirectory().heldCount(), 0u);
}

TEST(TraceReplay, ProducerConsumerOptimizedCheaperThanPlain)
{
    const std::vector<MemRef> optimized =
        makeProducerConsumer(0, 1, 4, 4096, 4096, 8, 200, true);
    const std::vector<MemRef> plain =
        makeProducerConsumer(0, 1, 4, 4096, 4096, 8, 200, false);

    System sys_opt(smallSystem());
    TraceReplay(sys_opt, optimized).run();
    System sys_plain(smallSystem());
    TraceReplay(sys_plain, plain).run();

    EXPECT_LT(sys_opt.bus().stats().totalCycles,
              sys_plain.bus().stats().totalCycles);
    // The optimized handoff avoids all copy-backs to memory.
    EXPECT_EQ(sys_opt.bus().stats().memoryWrites, 0u);
    EXPECT_GT(sys_plain.bus().stats().memoryWrites, 0u);
}

TEST(TraceReplayDeath, UnreleasedLockIsFatal)
{
    System sys(smallSystem(2));
    std::vector<MemRef> trace;
    trace.push_back({100, MemOp::LR, Area::Heap, 0});
    trace.push_back({100, MemOp::R, Area::Heap, 1}); // waits forever
    TraceReplay replay(sys, trace);
    EXPECT_SIM_FAULT(replay.run(), SimFaultKind::Deadlock, "never released");
    // The replay un-parked pe1, so the System tears down cleanly.
    EXPECT_TRUE(sys.pendingWaiters().empty());
}

TEST(TraceReplayDeath, BadPeIsFatal)
{
    System sys(smallSystem(2));
    std::vector<MemRef> trace;
    trace.push_back({100, MemOp::R, Area::Heap, 5});
    EXPECT_DEATH(TraceReplay(sys, trace).run(), "pe");
}

} // namespace
} // namespace pim
