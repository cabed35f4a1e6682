#include "common/deadline.h"

#include "common/sim_fault.h"

namespace pim {

Deadline
Deadline::afterSeconds(double seconds)
{
    Deadline deadline;
    deadline.unlimited_ = false;
    deadline.limitSeconds_ = seconds > 0 ? seconds : 0;
    deadline.start_ = Clock::now();
    // A budget the clock cannot count from now (past about 9.2e9 s, or
    // infinite) never expires: converted to ticks it would overflow
    // into a cutoff in the past. The second of slack keeps the
    // double-to-ticks rounding clear of the overflow.
    const std::chrono::duration<double> budget(deadline.limitSeconds_);
    const std::chrono::duration<double> room =
        Clock::time_point::max() - deadline.start_ - std::chrono::seconds(1);
    deadline.cutoff_ =
        budget < room ? deadline.start_ +
                            std::chrono::duration_cast<Clock::duration>(budget)
                      : Clock::time_point::max();
    return deadline;
}

bool
Deadline::expired() const
{
    return !unlimited_ && Clock::now() >= cutoff_;
}

double
Deadline::elapsedSeconds() const
{
    if (unlimited_)
        return 0;
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

namespace {

/** Smallest power of two >= v (v clamped to [1, 2^31]). */
std::uint64_t
roundUpPow2(std::uint64_t v)
{
    if (v <= 1)
        return 1;
    std::uint64_t p = 1;
    while (p < v && p < (1ull << 31))
        p <<= 1;
    return p;
}

} // namespace

RunGuard::RunGuard(Deadline deadline, std::uint32_t stride)
    : deadline_(deadline), mask_(roundUpPow2(stride) - 1)
{
}

void
RunGuard::check()
{
    if (deadline_.expired()) {
        throw PIM_SIM_FAULT(SimFaultKind::Timeout, "wall-clock deadline (",
                            deadline_.limitSeconds(), "s) exceeded after ",
                            polls_, " polled references");
    }
}

} // namespace pim
