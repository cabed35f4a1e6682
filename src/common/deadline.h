/**
 * @file
 * Wall-clock deadlines for long-running simulations
 * (docs/ROBUSTNESS.md "Deadlines").
 *
 * A simulation point that livelocks — or just takes pathologically long
 * on some parameter corner — would otherwise wedge its sweep worker
 * forever. The resilient execution plane bounds every point instead: a
 * RunGuard is polled from the hot loops (System::access, the stress
 * driver, the KL1 step loop) and raises SimFault(Timeout) when its
 * Deadline passes.
 *
 * The poll is designed for hot paths: it samples the wall clock only
 * once every `stride` polls (a counter increment and mask otherwise),
 * so the per-reference cost is a couple of ALU ops. Timeouts are
 * wall-clock and therefore *not* part of a run's deterministic inputs:
 * replay lines and SWEEP documents never include them, and a timed-out
 * point re-run without the deadline reproduces the full simulation.
 */

#ifndef PIMCACHE_COMMON_DEADLINE_H_
#define PIMCACHE_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace pim {

/** A wall-clock budget: unlimited by default, or a steady-clock cutoff. */
class Deadline
{
  public:
    /** No deadline: never expires. */
    Deadline() = default;

    /** Explicit never-expiring deadline (same as the default). */
    static Deadline never() { return Deadline(); }

    /**
     * Expires @p seconds of wall-clock time from now. Non-positive
     * budgets expire immediately (useful in tests); one the steady clock
     * cannot count from now (past about 9.2e9 s, or infinite) never
     * does.
     */
    static Deadline afterSeconds(double seconds);

    bool unlimited() const { return unlimited_; }

    /** True once the cutoff has passed (never true when unlimited). */
    bool expired() const;

    /** The budget this deadline was created with (0 when unlimited). */
    double limitSeconds() const { return limitSeconds_; }

    /** Wall-clock seconds already consumed (0 when unlimited). */
    double elapsedSeconds() const;

  private:
    using Clock = std::chrono::steady_clock;

    bool unlimited_ = true;
    double limitSeconds_ = 0;
    Clock::time_point start_{};
    Clock::time_point cutoff_{};
};

/**
 * The hot-path poll point for a Deadline. Embed one per run and call
 * poll() once per reference / step; every `stride`-th poll samples the
 * clock and throws SimFault(Timeout) once the deadline has passed. A
 * RunGuard is single-threaded (one per simulation stack).
 */
class RunGuard
{
  public:
    /**
     * @param stride Polls per clock sample; rounded up to a power of
     *               two, minimum 1. The default (1024) bounds detection
     *               latency to ~a thousand references while keeping the
     *               fast path to a counter increment.
     */
    explicit RunGuard(Deadline deadline, std::uint32_t stride = 1024);

    /** Cheap check; throws SimFault(Timeout) when tripped. */
    void
    poll()
    {
        if ((++polls_ & mask_) == 0)
            check();
    }

    /** Polls observed so far (timeout messages report progress). */
    std::uint64_t polls() const { return polls_; }

    const Deadline& deadline() const { return deadline_; }

    /** True once the deadline has passed (non-throwing probe). */
    bool tripped() const { return deadline_.expired(); }

  private:
    /** Strided slow path: samples the clock, throws on violation. */
    void check();

    Deadline deadline_;
    std::uint64_t mask_;
    std::uint64_t polls_ = 0;
};

} // namespace pim

#endif // PIMCACHE_COMMON_DEADLINE_H_
