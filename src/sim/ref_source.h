/**
 * @file
 * The drive loop for synthetic per-PE reference streams.
 *
 * A RefSource produces each PE's memory operations one at a time;
 * runRefSource feeds them to a System in global simulated-time order,
 * the paper's "cache simulators artificially synchronize at each
 * simulated bus request". Every step picks the unparked PE with the
 * smallest clock (the lowest PE on ties, like
 * System::earliestRunnable), and only then pulls that PE's next
 * operation, so a source drawing every decision from one shared RNG
 * draws in global simulation order and a run is a pure function of its
 * seed. pim_stress (runStress) drives its workload through it.
 */

#ifndef PIMCACHE_SIM_REF_SOURCE_H_
#define PIMCACHE_SIM_REF_SOURCE_H_

#include <cstdint>

#include "sim/system.h"
#include "trace/ref.h"

namespace pim {

/** One operation pulled from a RefSource. */
struct SourceOp {
    MemOp op = MemOp::R;
    Addr addr = 0;
    Area area = Area::Unknown;
    Word wdata = 0;
};

/** Per-PE operation stream consumed by runRefSource. */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /**
     * Produce @p pe's next operation. Returning false ends @p pe's
     * stream permanently (the loop never asks again). A lock-rejected
     * operation is retried by the loop without a new pull.
     */
    virtual bool next(PeId pe, SourceOp* out) = 0;

    /** @p op completed for @p pe with read data @p data. */
    virtual void
    complete(PeId pe, const SourceOp& op, Word data)
    {
        (void)pe; (void)op; (void)data;
    }

    /**
     * Every unfinished PE is parked on a lock: the workload deadlocked.
     * The default throws SimFault(Deadlock); harnesses with a lock
     * watchdog override this to throw their own diagnosis.
     */
    virtual void onStall();
};

/**
 * Drive @p system with @p source until every PE's stream ends; returns
 * the number of completed references. Lock waits are retried
 * transparently once the UL broadcast wakes the parked PE.
 */
std::uint64_t runRefSource(System& system, RefSource& source);

} // namespace pim

#endif // PIMCACHE_SIM_REF_SOURCE_H_
