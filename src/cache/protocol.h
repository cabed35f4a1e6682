/**
 * @file
 * Pluggable coherence-protocol policy tables (docs/ARCHITECTURE.md,
 * "Protocol matrix").
 *
 * PimCache executes the mechanism — tag lookup, bus transactions, data
 * movement — and consults a CoherenceProtocol table for every policy
 * decision: which state a fill installs, what a dirty supplier does on a
 * share, whether a write to a shared block invalidates or broadcasts a
 * word update. The paper's 5-state protocol (PIM) is the default and is
 * byte-identical to the pre-refactor behavior; the classic comparison
 * set (MSI, MESI, MOESI, update-based Dragon) reuses the same five
 * state encodings:
 *
 *   EC = exclusive-clean (MESI/MOESI/Dragon E; never entered by MSI)
 *   EM = exclusive-dirty (M)
 *   S  = shared-clean    (MSI/MESI S, Dragon Sc)
 *   SM = shared-dirty    (PIM SM, MOESI O, Dragon Sm; never MSI/MESI)
 *
 * Every variant keeps the paper's software commands (DW/ER/RP/RI) and
 * lock protocol verbatim — locks need exclusivity, so LR/UW ride on
 * FI/I in all variants — which is what makes the variants differentially
 * comparable on the same workloads (bench/fig_zoo) and against the same
 * RefMachine architectural semantics (src/model/protocol_model.h).
 */

#ifndef PIMCACHE_CACHE_PROTOCOL_H_
#define PIMCACHE_CACHE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "cache/state.h"

namespace pim {

/** The protocol variants of the zoo (PIM = the paper's, default). */
enum class ProtocolKind : std::uint8_t {
    PIM = 0,    ///< Paper's 5-state: SM migrates dirtiness to the reader.
    MSI = 1,    ///< No exclusive-clean state; dirty share writes back.
    MESI = 2,   ///< PIM minus SM: dirty share writes back to memory.
    MOESI = 3,  ///< Dirty supplier keeps ownership (SM as O).
    Dragon = 4, ///< Update-based: shared writes broadcast the word.
};

inline constexpr int kNumProtocolKinds = 5;

/** Stable CLI name ("pim", "msi", ...). */
inline const char*
protocolKindName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::PIM:    return "pim";
      case ProtocolKind::MSI:    return "msi";
      case ProtocolKind::MESI:   return "mesi";
      case ProtocolKind::MOESI:  return "moesi";
      case ProtocolKind::Dragon: return "dragon";
    }
    return "?";
}

/** Parse a CLI name; returns false if @p name is unknown. */
inline bool
parseProtocolKind(const std::string& name, ProtocolKind* out)
{
    for (int i = 0; i < kNumProtocolKinds; ++i) {
        const auto kind = static_cast<ProtocolKind>(i);
        if (name == protocolKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

/** What a dirty supplier does when another cache fetches with plain F. */
enum class DirtyShare : std::uint8_t {
    /** PIM: the receiver installs SM and becomes the dirty owner; the
     *  supplier downgrades to clean S; shared memory stays stale and is
     *  never written — the point of the SM state. */
    MigrateToReceiver = 0,
    /** MSI/MESI (MESI is also the Illinois-style SM-state ablation):
     *  shared memory snarfs the transfer; everyone ends up clean. */
    WritebackToMemory = 1,
    /** MOESI/Dragon: the supplier keeps the dirty data (SM as the owned
     *  state); the receiver installs clean S; no memory write. */
    KeepOwnership = 2,
};

/**
 * One protocol variant's policy table. Pure data + pure functions: the
 * cache controller consults it, the conformance layer mirrors it
 * (src/model/protocol_model.h), and bench/fig_zoo sweeps it.
 */
struct CoherenceProtocol {
    ProtocolKind kind = ProtocolKind::PIM;
    /** Install EC on a miss served by memory (false only for MSI). */
    bool hasExclusiveClean = true;
    /** Writes to shared copies broadcast the word instead of
     *  invalidating (true only for Dragon). */
    bool updateOnSharedWrite = false;
    DirtyShare dirtyShare = DirtyShare::MigrateToReceiver;

    /** State installed by a plain-F read miss. */
    CacheState
    installOnReadMiss(bool supplied, bool supplier_dirty) const
    {
        if (!supplied)
            return hasExclusiveClean ? CacheState::EC : CacheState::S;
        // A dirty supplier only *reports* dirty under MigrateToReceiver
        // (PIM); the other variants either cleaned the data on the way
        // (writeback) or kept the dirtiness themselves (ownership).
        return supplier_dirty ? CacheState::SM : CacheState::S;
    }

    /** State installed by an exclusive (FI) fetch: LR/UW miss, W miss,
     *  ER case (i), RI miss. Dirtiness dropped by the invalidation
     *  migrates to the requester in every variant. */
    CacheState
    installOnExclusiveFetch(bool supplier_dirty) const
    {
        if (!hasExclusiveClean)
            return CacheState::EM; // MSI: no EC to install.
        return supplier_dirty ? CacheState::EM : CacheState::EC;
    }

    /** State after upgrading a valid copy to exclusive via I (the LR
     *  shared-hit path). */
    CacheState
    upgradeToExclusive(bool own_dirty, bool dropped_dirty) const
    {
        if (!hasExclusiveClean)
            return CacheState::EM;
        return own_dirty || dropped_dirty ? CacheState::EM
                                          : CacheState::EC;
    }

    /** The table for @p kind. */
    static CoherenceProtocol
    make(ProtocolKind kind)
    {
        CoherenceProtocol proto;
        proto.kind = kind;
        switch (kind) {
          case ProtocolKind::PIM:
            break;
          case ProtocolKind::MSI:
            proto.hasExclusiveClean = false;
            proto.dirtyShare = DirtyShare::WritebackToMemory;
            break;
          case ProtocolKind::MESI:
            proto.dirtyShare = DirtyShare::WritebackToMemory;
            break;
          case ProtocolKind::MOESI:
            proto.dirtyShare = DirtyShare::KeepOwnership;
            break;
          case ProtocolKind::Dragon:
            proto.updateOnSharedWrite = true;
            proto.dirtyShare = DirtyShare::KeepOwnership;
            break;
        }
        return proto;
    }
};

} // namespace pim

#endif // PIMCACHE_CACHE_PROTOCOL_H_
