#include "sim/report.h"

#include <sstream>

#include "common/strutil.h"

namespace pim {

namespace {

double
pct(double part, double whole)
{
    return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

} // namespace

Table
reportAreas(const System& system)
{
    const RefStats& refs = system.refStats();
    const BusStats& bus = system.bus().stats();
    Table table("references and bus cycles by area");
    table.setHeader({"area", "refs", "refs %", "bus cycles", "bus %"});
    const double total_refs = static_cast<double>(refs.total());
    const double total_bus = static_cast<double>(bus.totalCycles);
    for (int a = 0; a < kNumAreas; ++a) {
        const Area area = static_cast<Area>(a);
        table.addRow({areaName(area), fmtCount(refs.areaTotal(area)),
                      fmtFixed(pct(static_cast<double>(
                                       refs.areaTotal(area)),
                                   total_refs), 2),
                      fmtCount(bus.cyclesByArea[a]),
                      fmtFixed(pct(static_cast<double>(
                                       bus.cyclesByArea[a]),
                                   total_bus), 2)});
    }
    table.addRule();
    table.addRow({"total", fmtCount(refs.total()), "100.00",
                  fmtCount(bus.totalCycles), "100.00"});
    return table;
}

Table
reportOperations(const System& system)
{
    const RefStats& refs = system.refStats();
    Table table("references by operation");
    table.setHeader({"op", "count", "% of all", "% of data"});
    const double total = static_cast<double>(refs.total());
    const double data = static_cast<double>(refs.dataTotal());
    for (int o = 0; o < kNumMemOps; ++o) {
        const MemOp op = static_cast<MemOp>(o);
        const std::uint64_t count = refs.opTotal(op);
        if (count == 0)
            continue;
        const std::uint64_t inst =
            refs.count(Area::Instruction, op);
        table.addRow({memOpName(op), fmtCount(count),
                      fmtFixed(pct(static_cast<double>(count), total), 2),
                      fmtFixed(pct(static_cast<double>(count - inst),
                                   data), 2)});
    }
    return table;
}

Table
reportBusPatterns(const System& system)
{
    const BusStats& bus = system.bus().stats();
    Table table("bus transactions by pattern");
    table.setHeader({"pattern", "transactions", "cycles", "cycles %"});
    const double total = static_cast<double>(bus.totalCycles);
    for (int p = 0; p < kNumBusPatterns; ++p) {
        if (bus.transByPattern[p] == 0)
            continue;
        table.addRow({busPatternName(static_cast<BusPattern>(p)),
                      fmtCount(bus.transByPattern[p]),
                      fmtCount(bus.cyclesByPattern[p]),
                      fmtFixed(pct(static_cast<double>(
                                       bus.cyclesByPattern[p]),
                                   total), 2)});
    }
    return table;
}

Table
reportCacheSummary(const System& system)
{
    const CacheStats cache = system.totalCacheStats();
    const BusStats& bus = system.bus().stats();
    Table table("cache summary (all PEs)");
    table.setHeader({"metric", "value"});
    table.addRow({"accesses", fmtCount(cache.accesses)});
    table.addRow({"misses", fmtCount(cache.misses)});
    table.addRow({"miss ratio %", fmtFixed(cache.missRatio() * 100, 2)});
    table.addRow({"evictions", fmtCount(cache.evictions)});
    table.addRow({"swap-outs", fmtCount(cache.swapOuts)});
    table.addRow({"DW no-fetch allocations",
                  fmtCount(cache.dwAllocNoFetch)});
    table.addRow({"DW demoted to W", fmtCount(cache.dwDemoted)});
    table.addRow({"ER as read-invalidate", fmtCount(cache.erAsRi)});
    table.addRow({"ER as read-purge", fmtCount(cache.erAsRp)});
    table.addRow({"purges (no copy-back)", fmtCount(cache.purges)});
    table.addRow({"memory busy cycles",
                  fmtCount(bus.memoryBusyCycles)});
    table.addRow({"memory reads/writes",
                  fmtCount(bus.memoryReads) + " / " +
                      fmtCount(bus.memoryWrites)});
    table.addRow({"stale fetches (contract)",
                  fmtCount(bus.staleFetches)});
    return table;
}

Table
reportLocks(const System& system)
{
    const CacheStats cache = system.totalCacheStats();
    const BusStats& bus = system.bus().stats();
    Table table("lock protocol");
    table.setHeader({"metric", "value"});
    table.addRow({"LR operations", fmtCount(cache.lrCount)});
    table.addRow(
        {"LR hit ratio",
         fmtFixed(cache.lrCount == 0
                      ? 0.0
                      : static_cast<double>(cache.lrHit) /
                            static_cast<double>(cache.lrCount),
                  3)});
    table.addRow(
        {"LR hit-to-exclusive (zero bus)",
         fmtFixed(cache.lrCount == 0
                      ? 0.0
                      : static_cast<double>(cache.lrHitExclusive) /
                            static_cast<double>(cache.lrCount),
                  3)});
    table.addRow({"LR lock-waits (LH)", fmtCount(cache.lrLockWaits)});
    table.addRow({"unlocks", fmtCount(cache.unlockCount)});
    table.addRow(
        {"unlock-to-no-waiter (zero bus)",
         fmtFixed(cache.unlockCount == 0
                      ? 0.0
                      : static_cast<double>(cache.unlockNoWaiter) /
                            static_cast<double>(cache.unlockCount),
                  3)});
    table.addRow({"UL broadcasts",
                  fmtCount(bus.cmdCounts[static_cast<int>(BusCmd::UL)])});
    return table;
}

std::string
reportAll(const System& system)
{
    std::ostringstream os;
    reportAreas(system).print(os);
    os << "\n";
    reportOperations(system).print(os);
    os << "\n";
    reportBusPatterns(system).print(os);
    os << "\n";
    reportCacheSummary(system).print(os);
    os << "\n";
    reportLocks(system).print(os);
    return os.str();
}

std::string
reportFootprint(const HostFootprint& footprint)
{
    std::ostringstream os;
    os << "footprint (pages, KiB):";
    const char* separator = " ";
    for (const auto& [name, table] :
         {std::pair{"memory words", footprint.memoryWords},
          std::pair{"copy masks", footprint.copyMasks},
          std::pair{"lock masks", footprint.lockMasks},
          std::pair{"purge marks", footprint.purgeMarks}}) {
        os << separator << name << " " << fmtCount(table.pages) << ", "
           << fmtCount((table.bytes + 1023) / 1024);
        separator = "; ";
    }
    os << "\n";
    return os.str();
}

} // namespace pim
