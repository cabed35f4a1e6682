#include "common/deadline.h"

#include "common/sim_fault.h"

namespace pim {

Deadline
Deadline::afterSeconds(double seconds)
{
    Deadline deadline;
    deadline.unlimited_ = false;
    deadline.limitSeconds_ = seconds < 0 ? 0 : seconds;
    deadline.start_ = Clock::now();
    deadline.cutoff_ =
        deadline.start_ +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(deadline.limitSeconds_));
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
