// Deadline facility (docs/ROBUSTNESS.md): wall-clock Deadline, the
// strided RunGuard polled from System::access, the fault-kind names
// and the family exit codes the bench binaries report.

#include <limits>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/sim_fault.h"

namespace pim {
namespace {

TEST(Deadline, DefaultIsUnlimited)
{
    const Deadline deadline;
    EXPECT_TRUE(deadline.unlimited());
    EXPECT_FALSE(deadline.expired());
    EXPECT_EQ(deadline.limitSeconds(), 0.0);
}

TEST(Deadline, NeverNeverExpires)
{
    const Deadline deadline = Deadline::never();
    EXPECT_TRUE(deadline.unlimited());
    EXPECT_FALSE(deadline.expired());
}

TEST(Deadline, GenerousBudgetIsNotExpiredImmediately)
{
    // Past about 9.2e9 s the steady clock cannot count the budget; such
    // a budget must never expire, not wrap into a cutoff in the past.
    for (const double budget :
         {3600.0, 1e10, 1e300, std::numeric_limits<double>::infinity()}) {
        const Deadline deadline = Deadline::afterSeconds(budget);
        EXPECT_FALSE(deadline.unlimited()) << budget;
        EXPECT_FALSE(deadline.expired()) << budget;
        EXPECT_DOUBLE_EQ(deadline.limitSeconds(), budget);
        EXPECT_GE(deadline.elapsedSeconds(), 0.0);
        EXPECT_LT(deadline.elapsedSeconds(), budget);
    }
}

TEST(Deadline, TinyBudgetExpires)
{
    const Deadline deadline = Deadline::afterSeconds(1e-9);
    // steady_clock has advanced by the time we ask.
    while (!deadline.expired()) {
    }
    EXPECT_TRUE(deadline.expired());
}

TEST(RunGuard, UnlimitedGuardPollsForFree)
{
    RunGuard guard(Deadline::never());
    for (int i = 0; i < 100000; ++i)
        guard.poll();
    EXPECT_EQ(guard.polls(), 100000u);
    EXPECT_FALSE(guard.tripped());
}

TEST(RunGuard, ExpiredDeadlineThrowsTimeoutAtStrideBoundary)
{
    RunGuard guard(Deadline::afterSeconds(1e-9), /*stride=*/64);
    while (!Deadline::afterSeconds(0).expired()) {
    }
    // The clock check only happens every `stride` polls: the first 63
    // polls are a counter increment and a mask, nothing else.
    for (int i = 0; i < 63; ++i)
        EXPECT_NO_THROW(guard.poll());
    try {
        guard.poll();
        FAIL() << "expected SimFault(Timeout)";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Timeout);
    }
    EXPECT_TRUE(guard.tripped());
}

TEST(RunGuard, StrideRoundsUpToPowerOfTwo)
{
    // stride=100 rounds up to 128: the already-expired guard must not
    // trip before the 128th poll and must trip exactly there.
    RunGuard guard(Deadline::afterSeconds(0), /*stride=*/100);
    for (int i = 0; i < 127; ++i)
        EXPECT_NO_THROW(guard.poll());
    EXPECT_THROW(guard.poll(), SimFault);
}

TEST(SimFaultKinds, NewKindsHaveNames)
{
    EXPECT_STREQ(simFaultKindName(SimFaultKind::Timeout), "timeout");
}

TEST(SimFaultKinds, ExitCodesGroupByFamily)
{
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Config), 10);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Parse), 11);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Corruption), 12);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Protocol), 12);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Deadlock), 13);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Livelock), 13);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Starvation), 13);
    EXPECT_EQ(simFaultExitCode(SimFaultKind::Timeout), 14);
}

} // namespace
} // namespace pim
