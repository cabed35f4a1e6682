/**
 * @file
 * Standard statistic reports over a System: the breakdowns the paper's
 * tables use (references and bus cycles by area, references by
 * operation, bus transaction patterns, cache/lock summaries), rendered
 * as ASCII tables. Shared by the CLI tools and available to library
 * users.
 */

#ifndef PIMCACHE_SIM_REPORT_H_
#define PIMCACHE_SIM_REPORT_H_

#include <string>

#include "common/table.h"
#include "sim/system.h"

namespace pim {

/** References and bus cycles split over the five storage areas. */
Table reportAreas(const System& system);

/** References split by operation (raw, and demoted as in Table 3). */
Table reportOperations(const System& system);

/** Bus transactions and cycles by pattern (swap-in, c2c, ...). */
Table reportBusPatterns(const System& system);

/** Cache hit/miss, replacement and optimized-command summary. */
Table reportCacheSummary(const System& system);

/** Lock-protocol summary (the Table 5 ratios). */
Table reportLocks(const System& system);

/** All of the above concatenated, ready to print. */
std::string reportAll(const System& system);

/**
 * One line of the host memory the per-address tables hold: pages and KiB
 * (pages, directories and top level, rounded up) of memory words, copy
 * masks, lock masks and purge marks.
 */
std::string reportFootprint(const HostFootprint& footprint);

} // namespace pim

#endif // PIMCACHE_SIM_REPORT_H_
