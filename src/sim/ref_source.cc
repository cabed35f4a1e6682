#include "sim/ref_source.h"

#include <vector>

#include "common/xassert.h"

namespace pim {

void
RefSource::onStall()
{
    PIM_PANIC("ref source: every unfinished PE is parked on a lock "
              "(workload deadlock)");
}

std::uint64_t
runRefSource(System& system, RefSource& source)
{
    struct PeRun {
        SourceOp retry;        ///< Lock-rejected op awaiting its retry.
        bool hasRetry = false;
        bool done = false;     ///< Stream ended.
    };
    const PeId pes = system.numPes();
    std::vector<PeRun> run(pes);
    std::uint64_t completed = 0;

    for (;;) {
        PeId best = kNoPe;
        bool anyLeft = false;
        for (PeId p = 0; p < pes; ++p) {
            if (run[p].done)
                continue;
            anyLeft = true;
            if (system.parked(p))
                continue;
            if (best == kNoPe || system.clock(p) < system.clock(best))
                best = p;
        }
        if (!anyLeft)
            break;
        if (best == kNoPe) {
            source.onStall();
            continue;
        }
        PeRun& r = run[best];
        SourceOp op;
        if (r.hasRetry) {
            op = r.retry;
        } else if (!source.next(best, &op)) {
            r.done = true;
            continue;
        }
        const System::Access acc =
            system.access(best, op.op, op.addr, op.area, op.wdata);
        if (acc.lockWait) {
            r.retry = op;
            r.hasRetry = true;
            continue;
        }
        r.hasRetry = false;
        completed += 1;
        source.complete(best, op, acc.data);
    }
    return completed;
}

} // namespace pim
