/**
 * @file
 * The paper's protocol invariants as a shared, reusable library.
 *
 * Both runtime checkers (the CoherenceAuditor attached to live Systems)
 * and offline checkers (the src/model conformance engine: exhaustive
 * explorer and differential trace fuzzer) enforce the same conditions,
 * so a new invariant added here strengthens every tier of testing at
 * once (docs/TESTING.md).
 *
 * Per-block state invariants (paper Section 3, states EM/EC/SM/S/INV):
 *  1. At most one cache holds the block dirty (EM or SM).
 *  2. If any cache holds it exclusive (EM or EC), no other copy exists.
 *  3. All valid copies agree word-for-word (SM supplies S copies without
 *     updating memory, so copies must agree even while memory is stale).
 *  4. With no dirty copy anywhere, valid copies match shared memory —
 *     unless the block is purge-marked (ER/RP dropped the last dirty
 *     copy by software contract; Bus::purgedDirtyMarked).
 *  5. While a PE holds a lock on any word of the block, no *other*
 *     cache holds a valid copy: lock acquisition gains exclusiveness
 *     (I/FI + LK) and the LH response inhibits remote fetches until UL.
 *  6. The bus's residency masks are exact: the copy mask is the set of
 *     PEs whose cache state is not INV, and the lock mask the set whose
 *     lock directory has an entry or ghost on a word of the block.
 *     Every snoop walks these masks, so a missing bit hides a copy from
 *     the bus and an extra bit visits a PE with nothing to answer.
 *
 * Per-transaction bus-accounting invariant: every BusStats delta must
 * decompose into whole transactions, each charged exactly its paper
 * Section 4.2 pattern cost (13/7/10/5/2 cycles with the default
 * timing) — checked by comparing per-pattern cycle and transaction
 * deltas against BusTiming.
 */

#ifndef PIMCACHE_VERIFY_INVARIANTS_H_
#define PIMCACHE_VERIFY_INVARIANTS_H_

#include <string>

#include "bus/bus.h"
#include "common/types.h"

namespace pim {

class System;

/**
 * "block N [pe0=EM pe1=INV ...] memory: ..." — the per-cache states and
 * memory words of the block, for violation messages.
 */
std::string describeBlockState(const System& system, Addr block_base);

/**
 * Check invariants 1-6 for the block containing @p block_base.
 * @param context Prefix for the violation message (who/what/when).
 * @throws SimFault (Protocol) on the first violation.
 */
void checkBlockInvariants(const System& system, Addr block_base,
                          const std::string& context);

/**
 * Check the bus-accounting invariant over the delta from @p before to
 * @p after: for every BusPattern, the cycle delta must equal the
 * transaction delta times the pattern's BusTiming cost, and the total
 * must equal the per-pattern sum.
 * @throws SimFault (Protocol) on a mismatch.
 */
void checkBusAccounting(const BusStats& before, const BusStats& after,
                        const BusTiming& timing, const std::string& context);

/** The fixed BusTiming cost of one transaction of @p pattern. */
Cycles busPatternCost(BusPattern pattern, const BusTiming& timing);

} // namespace pim

#endif // PIMCACHE_VERIFY_INVARIANTS_H_
