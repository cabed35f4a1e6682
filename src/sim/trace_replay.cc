#include "sim/trace_replay.h"

#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim {

TraceReplay::TraceReplay(System& system, const std::vector<MemRef>& trace)
    : system_(system), trace_(trace)
{
}

void
TraceReplay::run()
{
    const std::uint32_t num_pes = system_.numPes();
    // Per-PE queues of trace indices, preserving trace order per PE.
    std::vector<std::deque<std::uint64_t>> queue(num_pes);
    for (std::uint64_t i = 0; i < trace_.size(); ++i) {
        PIM_ASSERT(trace_[i].pe < num_pes,
                   "trace references pe", trace_[i].pe,
                   " but the system has ", num_pes, " PEs");
        queue[trace_[i].pe].push_back(i);
    }

    std::uint64_t remaining = trace_.size();
    while (remaining > 0) {
        // Issue the globally earliest pending reference whose PE is not
        // busy-waiting on a remote lock.
        PeId pick = kNoPe;
        std::uint64_t pick_index = 0;
        for (PeId pe = 0; pe < num_pes; ++pe) {
            if (queue[pe].empty() || system_.parked(pe))
                continue;
            if (pick == kNoPe || queue[pe].front() < pick_index) {
                pick = pe;
                pick_index = queue[pe].front();
            }
        }
        if (pick == kNoPe) {
            // The replay ends here; nothing will retry the waits.
            system_.abandonParkedWaiters();
            throw PIM_SIM_FAULT(SimFaultKind::Deadlock,
                                "trace replay: every PE with pending "
                                "references is busy-waiting on a lock that "
                                "is never released");
        }

        const MemRef& ref = trace_[pick_index];
        const System::Access result =
            system_.access(ref.pe, ref.op, ref.addr, ref.area, 0);
        if (result.lockWait) {
            ++lockRejects_;
            continue; // The reference stays queued; the PE is parked.
        }
        queue[pick].pop_front();
        --remaining;
        ++completed_;
    }
}

} // namespace pim
