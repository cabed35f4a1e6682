#include "sim/ref_source.h"

#include <vector>

#include "common/sim_fault.h"

namespace pim {

void
RefSource::onStall()
{
    throw PIM_SIM_FAULT(SimFaultKind::Deadlock,
                        "ref source: every unfinished PE is parked on a "
                        "lock");
}

std::uint64_t
runRefSource(System& system, RefSource& source)
{
    struct PeRun {
        SourceOp retry;        ///< Lock-rejected op awaiting its retry.
        bool hasRetry = false;
    };
    std::vector<PeRun> run(system.numPes());
    std::uint32_t live = system.numPes(); // Streams not yet ended.
    std::uint64_t completed = 0;

    while (live > 0) {
        const PeId pe = system.earliestRunnable();
        if (pe == kNoPe) {
            source.onStall();
            continue;
        }
        PeRun& r = run[pe];
        SourceOp op;
        if (r.hasRetry) {
            op = r.retry;
        } else if (!source.next(pe, &op)) {
            system.retire(pe);
            --live;
            continue;
        }
        const System::Access acc =
            system.access(pe, op.op, op.addr, op.area, op.wdata);
        if (acc.lockWait) {
            r.retry = op;
            r.hasRetry = true;
            continue;
        }
        r.hasRetry = false;
        completed += 1;
        source.complete(pe, op, acc.data);
    }
    return completed;
}

} // namespace pim
