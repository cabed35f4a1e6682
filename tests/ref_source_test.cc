/**
 * @file
 * The serialized RefSource drive loop (src/sim/ref_source.h): access
 * order against a hand-written System::earliestRunnable loop, lock-wait
 * retries without a second pull, the stall hook, and the lowest-PE
 * tie-break at equal clocks.
 */

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/ref_source.h"
#include "sim/system.h"

namespace pim {
namespace {

/** One pull or access, in the order the drive loop caused it. */
struct Event {
    bool pull = false; ///< next() call (true) or System access (false).
    PeId pe = 0;
    MemOp op = MemOp::R;
    Addr addr = 0;
    bool lockWait = false;
    Word data = 0;

    bool operator==(const Event&) const = default;
};

/** Logs every access of the System it observes. */
class AccessLog : public AccessObserver
{
  public:
    explicit AccessLog(std::vector<Event>& events) : events_(events) {}

    void
    afterAccess(PeId pe, MemOp op, Addr addr, Area, Word data, Word,
                bool lock_wait) override
    {
        events_.push_back({false, pe, op, addr, lock_wait, data});
    }

  private:
    std::vector<Event>& events_;
};

constexpr Addr kSpanWords = 64;  ///< Shared R/W region.
constexpr Addr kLockBase = 64;   ///< Two contended lock words...
constexpr Addr kLockStride = 4;  ///< ... one block apart.
constexpr Addr kRecordBase = 128; ///< DW -> ER/RP records from here.
constexpr std::uint32_t kBlockWords = 4;

/**
 * Shared-RNG mixed workload: plain R/W over a small shared span, a
 * DW -> ER/RP record flow, and LR/U on two contended lock words under
 * hold-at-most-one (deadlock-free). Each PE issues @c perPe operations,
 * then releases a held lock and ends its stream. Every pull is logged.
 */
class MixSource : public RefSource
{
  public:
    MixSource(std::uint32_t pes, std::uint32_t per_pe,
              std::vector<Event>& events)
        : rng_(11), left_(pes, per_pe), held_(pes), events_(events)
    {
    }

    bool
    next(PeId pe, SourceOp* out) override
    {
        out->area = Area::Heap;
        out->wdata = 0;
        if (left_[pe] == 0) {
            if (!held_[pe])
                return false;
            out->op = MemOp::U;
            out->addr = *held_[pe];
        } else {
            left_[pe] -= 1;
            const std::uint64_t roll = rng_.below(100);
            if (roll < 20) {
                if (held_[pe]) {
                    out->op = MemOp::U;
                    out->addr = *held_[pe];
                } else {
                    out->op = MemOp::LR;
                    out->addr = kLockBase + kLockStride * rng_.below(2);
                }
            } else if (roll < 45) {
                if (!records_.empty() && rng_.chance(1, 2)) {
                    out->op = rng_.chance(1, 2) ? MemOp::ER : MemOp::RP;
                    out->addr = records_.front();
                    records_.pop_front();
                } else {
                    out->op = MemOp::DW;
                    out->addr = nextRecord_;
                    out->wdata = rng_.next();
                    nextRecord_ += kBlockWords;
                }
            } else {
                out->addr = rng_.below(kSpanWords);
                if (rng_.chance(1, 2)) {
                    out->op = MemOp::W;
                    out->wdata = rng_.next();
                } else {
                    out->op = MemOp::R;
                }
            }
        }
        events_.push_back({true, pe, out->op, out->addr, false, 0});
        return true;
    }

    void
    complete(PeId pe, const SourceOp& op, Word) override
    {
        if (op.op == MemOp::LR)
            held_[pe] = op.addr;
        else if (op.op == MemOp::U)
            held_[pe].reset();
        else if (op.op == MemOp::DW)
            records_.push_back(op.addr);
    }

  private:
    Rng rng_;
    std::vector<std::uint32_t> left_;
    std::vector<std::optional<Addr>> held_;
    std::deque<Addr> records_;
    Addr nextRecord_ = kRecordBase;
    std::vector<Event>& events_;
};

SystemConfig
mixConfig(std::uint32_t pes)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry = {kBlockWords, 2, 8};
    config.memoryWords = 1 << 14;
    return config;
}

constexpr std::uint32_t kPes = 4;
constexpr std::uint32_t kPerPe = 400;

/** The events of one runRefSource pass over the mixed workload. */
std::vector<Event>
loopEvents()
{
    std::vector<Event> events;
    System system(mixConfig(kPes));
    AccessLog log(events);
    system.addAccessObserver(&log);
    MixSource source(kPes, kPerPe, events);
    runRefSource(system, source);
    return events;
}

TEST(RefSource, MatchesEarliestRunnableLoop)
{
    const std::vector<Event> loop = loopEvents();

    // The same workload stepped by hand: always the earliestRunnable()
    // PE, pulling only when it has no lock-rejected op pending. A PE
    // whose stream ended is pushed to the far future so the scan never
    // selects it again.
    std::vector<Event> manual;
    System system(mixConfig(kPes));
    AccessLog log(manual);
    system.addAccessObserver(&log);
    MixSource source(kPes, kPerPe, manual);
    std::vector<std::optional<SourceOp>> pending(kPes);
    std::uint32_t live = kPes;
    while (live > 0) {
        const PeId pe = system.earliestRunnable();
        ASSERT_NE(pe, kNoPe);
        if (!pending[pe]) {
            SourceOp op;
            if (!source.next(pe, &op)) {
                system.advanceClock(pe, Cycles{1} << 40);
                live -= 1;
                continue;
            }
            pending[pe] = op;
        }
        const SourceOp& op = *pending[pe];
        const System::Access acc =
            system.access(pe, op.op, op.addr, op.area, op.wdata);
        if (acc.lockWait)
            continue;
        source.complete(pe, op, acc.data);
        pending[pe].reset();
    }

    ASSERT_EQ(loop.size(), manual.size());
    for (std::size_t i = 0; i < loop.size(); ++i)
        ASSERT_TRUE(loop[i] == manual[i]) << "first difference at event " << i;
}

TEST(RefSource, LockRejectedOpRetriedWithoutSecondPull)
{
    const std::vector<Event> events = loopEvents();
    std::uint64_t waits = 0;
    std::uint64_t ops[kNumMemOps] = {};
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (!events[i].pull)
            ops[static_cast<int>(events[i].op)] += 1;
        if (events[i].pull || !events[i].lockWait)
            continue;
        waits += 1;
        // The PE's next event is the same operation again, not a pull.
        std::size_t j = i + 1;
        while (j < events.size() && events[j].pe != events[i].pe)
            ++j;
        ASSERT_LT(j, events.size());
        EXPECT_FALSE(events[j].pull) << "event " << j;
        EXPECT_EQ(events[j].op, events[i].op);
        EXPECT_EQ(events[j].addr, events[i].addr);
    }
    // The mix really exercised every path: contended locks and the
    // record flow.
    EXPECT_GT(waits, 0u);
    for (MemOp op : {MemOp::R, MemOp::W, MemOp::LR, MemOp::U, MemOp::DW,
                     MemOp::ER, MemOp::RP}) {
        EXPECT_GT(ops[static_cast<int>(op)], 0u) << memOpName(op);
    }
}

/** Replays a fixed per-PE script; records the stall hook. */
class ScriptSource : public RefSource
{
  public:
    struct Stalled {};

    explicit ScriptSource(std::vector<std::deque<SourceOp>> script)
        : script_(std::move(script))
    {
    }

    bool
    next(PeId pe, SourceOp* out) override
    {
        pulls.push_back(pe);
        if (script_[pe].empty())
            return false;
        *out = script_[pe].front();
        script_[pe].pop_front();
        return true;
    }

    void
    onStall() override
    {
        stalls += 1;
        throw Stalled{};
    }

    std::vector<PeId> pulls;
    int stalls = 0;

  private:
    std::vector<std::deque<SourceOp>> script_;
};

TEST(RefSource, StallHookFiresWhenEveryUnfinishedPeIsParked)
{
    // PE 0 takes the lock and ends its stream still holding it; PE 1
    // then parks on the lock, and nobody is left to release it.
    const SourceOp lr{MemOp::LR, kLockBase, Area::Heap, 0};
    const SourceOp read{MemOp::R, 0, Area::Heap, 0};
    ScriptSource source({{lr}, {read, lr}});
    System system(mixConfig(2));
    EXPECT_THROW(runRefSource(system, source), ScriptSource::Stalled);
    EXPECT_EQ(source.stalls, 1);
    EXPECT_FALSE(system.parked(0));
    EXPECT_TRUE(system.parked(1));
    system.abandonParkedWaiters();
}

TEST(RefSource, StallHookFiresWhenLivePesParkAfterOthersRetired)
{
    // PEs 0 and 1 end their streams at the smallest clocks, PE 0 still
    // holding the lock; PEs 2 and 3 then park on it. The retired PEs
    // are never offered again, so the loop stalls instead of pulling
    // them twice.
    const SourceOp lr{MemOp::LR, kLockBase, Area::Heap, 0};
    const SourceOp read{MemOp::R, 0, Area::Heap, 0};
    ScriptSource source({{lr}, {read}, {read, read, lr}, {read, lr}});
    System system(mixConfig(4));
    system.advanceClock(2, 100);
    system.advanceClock(3, 100);
    EXPECT_THROW(runRefSource(system, source), ScriptSource::Stalled);
    EXPECT_EQ(source.stalls, 1);
    EXPECT_EQ(std::count(source.pulls.begin(), source.pulls.end(), 0), 2);
    EXPECT_EQ(std::count(source.pulls.begin(), source.pulls.end(), 1), 2);
    EXPECT_EQ(system.pendingWaiters(), (std::vector<PeId>{2, 3}));
    system.abandonParkedWaiters();
}

TEST(RefSource, LowestPeFirstAtEqualClocks)
{
    System system(mixConfig(4));
    system.advanceClock(0, 20);
    system.advanceClock(1, 10);
    system.advanceClock(2, 10);
    system.advanceClock(3, 20);
    std::vector<std::deque<SourceOp>> script(4);
    for (PeId pe = 0; pe < 4; ++pe)
        script[pe].push_back({MemOp::R, 16 * pe, Area::Heap, 0});
    ScriptSource source(std::move(script));
    EXPECT_EQ(runRefSource(system, source), 4u);

    std::vector<PeId> first_pulls;
    for (PeId pe : source.pulls) {
        if (std::find(first_pulls.begin(), first_pulls.end(), pe) ==
            first_pulls.end()) {
            first_pulls.push_back(pe);
        }
    }
    EXPECT_EQ(first_pulls, (std::vector<PeId>{1, 2, 0, 3}));
    EXPECT_EQ(source.stalls, 0);
}

} // namespace
} // namespace pim
