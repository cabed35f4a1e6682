/**
 * @file
 * Annotated walk through the PIM lock protocol (paper Sections 3.1/4.7):
 * drives a 2-PE system by hand and narrates the LCK / LWAIT / EMP
 * transitions, the zero-cost fast paths, and the UL wakeup.
 *
 *   $ ./lock_contention
 */

#include <cstdio>

#include "common/sim_fault.h"
#include "sim/system.h"

namespace {

using namespace pim;

void
show(const System& sys, Addr addr, const char* what)
{
    const Cycles cycles = sys.bus().stats().totalCycles;
    std::printf("%-58s bus=%4llu  pe0:%s/%s pe1:%s/%s\n", what,
                static_cast<unsigned long long>(cycles),
                cacheStateName(sys.cache(0).stateOf(addr)),
                lockStateName(sys.cache(0).lockDirectory().stateOf(addr)),
                cacheStateName(sys.cache(1).stateOf(addr)),
                lockStateName(sys.cache(1).lockDirectory().stateOf(addr)));
}

int
run()
{
    SystemConfig config;
    config.numPes = 2;
    config.memoryWords = 1 << 20;
    System sys(config);
    const Addr var = 100;

    std::printf("word %llu: cache-state/lock-state per PE after each "
                "step\n\n",
                static_cast<unsigned long long>(var));
    show(sys, var, "initial");

    // A classic KL1 variable binding: lock, check, write-unlock.
    sys.access(0, MemOp::LR, var, Area::Heap, 0);
    show(sys, var, "pe0 LR   (miss: FI+LK on the bus, block exclusive)");

    sys.access(0, MemOp::UW, var, Area::Heap, 41);
    show(sys, var, "pe0 UW   (no waiter: ZERO bus cycles)");

    sys.access(0, MemOp::LR, var, Area::Heap, 0);
    show(sys, var, "pe0 LR   (hit exclusive: ZERO bus cycles)");

    // pe1 tries to read the locked word: inhibited by LH.
    const System::Access blocked =
        sys.access(1, MemOp::R, var, Area::Heap, 0);
    std::printf("\npe1 R -> lockWait=%s (LH response; pe1 parked, "
                "bus idle while busy-waiting)\n",
                blocked.lockWait ? "true" : "false");
    show(sys, var, "pe1 R    (rejected; pe0's entry is now LWAIT)");

    // The unlock must now broadcast UL to wake the waiter.
    sys.access(0, MemOp::UW, var, Area::Heap, 42);
    show(sys, var, "pe0 UW   (waiter present: UL broadcast)");
    std::printf("pe1 parked: %s\n", sys.parked(1) ? "yes" : "no");

    const System::Access retry =
        sys.access(1, MemOp::R, var, Area::Heap, 0);
    std::printf("pe1 retries R -> value %llu\n",
                static_cast<unsigned long long>(retry.data));
    show(sys, var, "pe1 R    (cache-to-cache transfer)");

    // Lock survives swap-out: evict pe0's block while locked.
    std::printf("\n-- lock survives swap-out of the locked block --\n");
    sys.access(0, MemOp::LR, var, Area::Heap, 0);
    for (Addr conflict = 4096; conflict <= 4096 * 4; conflict += 4096)
        sys.access(0, MemOp::R, conflict, Area::Heap, 0);
    show(sys, var, "pe0 LR then evictions (block gone, lock held)");
    const System::Access still_blocked =
        sys.access(1, MemOp::R, var, Area::Heap, 0);
    std::printf("pe1 R while swapped-out-and-locked -> lockWait=%s\n",
                still_blocked.lockWait ? "true" : "false");
    sys.access(0, MemOp::UW, var, Area::Heap, 43);
    show(sys, var, "pe0 UW   (refetches the block, unlocks, UL)");

    const CacheStats total = sys.totalCacheStats();
    std::printf("\ntotals: LR=%llu (zero-bus %llu), unlocks=%llu "
                "(zero-bus %llu), UL broadcasts=%llu\n",
                static_cast<unsigned long long>(total.lrCount),
                static_cast<unsigned long long>(total.lrHitExclusive),
                static_cast<unsigned long long>(total.unlockCount),
                static_cast<unsigned long long>(total.unlockNoWaiter),
                static_cast<unsigned long long>(
                    sys.bus().stats().cmdCounts[static_cast<int>(
                        BusCmd::UL)]));
    return 0;
}

} // namespace

int
main()
{
    return pim::runMain("lock_contention", run);
}
