#include "model/harness.h"

#include <algorithm>

#include "cache/state.h"
#include "common/rng.h"
#include "common/sim_fault.h"
#include "common/xassert.h"
#include "verify/invariants.h"

namespace pim {

namespace {

SystemConfig
makeSystemConfig(const HarnessConfig& config)
{
    SystemConfig sys;
    sys.numPes = config.numPes;
    sys.cache.geometry.blockWords = config.blockWords;
    sys.cache.geometry.ways = config.ways;
    sys.cache.geometry.sets = config.sets;
    sys.cache.lockEntries = config.lockEntries;
    sys.cache.protocol = config.protocol;
    sys.cache.replacement = config.replacement;
    sys.memoryWords =
        std::max<std::uint64_t>(config.spanWords(), config.blockWords);
    sys.cluster.clusterSize = config.clusterSize;
    sys.cluster.hopCycles = config.hopCycles;
    sys.validate();
    return sys;
}

} // namespace

ConformanceHarness::ConformanceHarness(const HarnessConfig& config)
    : config_(config),
      golden_(protocolGoldenTable(config.protocol)),
      ref_(config.numPes, config.blockWords,
           std::max<std::uint64_t>(config.spanWords(), config.blockWords),
           config.lockEntries),
      sys_(makeSystemConfig(config)),
      attribution_(config.numPes, sys_.config().timing, config.blockWords,
                   config.ways * config.sets),
      pending_(config.numPes),
      hasPending_(config.numPes, false)
{
    for (PeId pe = 0; pe < config_.numPes; ++pe)
        sys_.cache(pe).setProtocolMutation(config.mutation);
    sys_.addEventSink(&attribution_);
}

ConformanceHarness::~ConformanceHarness()
{
    // Divergences throw out of step() mid-protocol; waiters the trace
    // never got to retry are expected, not a driver leak.
    sys_.abandonParkedWaiters();
}

bool
ConformanceHarness::lockWaitSafe(const ProtoCmd& cmd) const
{
    if (!ref_.wouldLockWait(cmd.pe, cmd.addr))
        return true;
    const PeId owner = ref_.lockOwnerOnBlock(cmd.addr);
    // Never park on a PE that cannot currently progress: while the owner
    // is itself parked (or was woken but has not retried yet), adding
    // this wait edge could close a busy-wait deadlock cycle — a software
    // bug, not a protocol behavior worth exploring.
    return owner != kNoPe && !sys_.parked(owner) && !hasPending_[owner];
}

bool
ConformanceHarness::enabled(const ProtoCmd& cmd) const
{
    if (cmd.pe >= config_.numPes || cmd.addr >= config_.spanWords())
        return false;
    if (sys_.parked(cmd.pe))
        return false;
    if (hasPending_[cmd.pe]) {
        // A woken PE must retry its parked command before anything else.
        return cmd == pending_[cmd.pe];
    }

    const Addr base = blockBaseOf(cmd.addr);
    switch (cmd.op) {
      case MemOp::UW:
      case MemOp::U:
        return ref_.holdsLock(cmd.pe, cmd.addr);

      case MemOp::LR:
        if (ref_.holdsLock(cmd.pe, cmd.addr))
            return false; // re-locking a held word aborts
        if (ref_.heldCount(cmd.pe) >= config_.lockEntries)
            return false; // directory full aborts
        return lockWaitSafe(cmd);

      case MemOp::DW:
      case MemOp::DWD: {
        const bool boundary =
            cmd.op == MemOp::DWD
                ? cmd.addr == base + config_.blockWords - 1
                : cmd.addr == base;
        if (boundary && !sys_.cache(cmd.pe).present(cmd.addr)) {
            // Allocate-without-fetch bypasses the bus entirely, so the
            // software contract must hold: no other PE may have a copy
            // of, or a lock on, the block.
            const PeId owner = ref_.lockOwnerOnBlock(cmd.addr);
            if (owner != kNoPe && owner != cmd.pe)
                return false;
            for (PeId q = 0; q < config_.numPes; ++q) {
                if (q != cmd.pe && sys_.cache(q).present(cmd.addr))
                    return false;
            }
            return true;
        }
        return lockWaitSafe(cmd); // demotes to a plain W
      }

      default:
        return lockWaitSafe(cmd);
    }
}

std::vector<ProtoCmd>
ConformanceHarness::enabledCommands() const
{
    std::vector<ProtoCmd> out;
    const Addr span = config_.spanWords();
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (sys_.parked(pe))
            continue;
        if (hasPending_[pe]) {
            out.push_back(pending_[pe]);
            continue;
        }
        // Deterministic write values — a small alphabet keyed by (PE,
        // op) keeps the reachable data-state space finite.
        const Word w_val = pe + 1;
        const Word uw_val = config_.numPes + pe + 1;
        const Word dw_val = 2 * config_.numPes + pe + 1;

        std::vector<ProtoCmd> candidates;
        for (Addr addr = 0; addr < span; ++addr) {
            candidates.push_back({pe, MemOp::R, addr, 0});
            candidates.push_back({pe, MemOp::W, addr, w_val});
            candidates.push_back({pe, MemOp::LR, addr, 0});
            candidates.push_back({pe, MemOp::ER, addr, 0});
            candidates.push_back({pe, MemOp::RP, addr, 0});
            candidates.push_back({pe, MemOp::RI, addr, 0});
            candidates.push_back({pe, MemOp::UW, addr, uw_val});
            candidates.push_back({pe, MemOp::U, addr, 0});
        }
        for (Addr base = 0; base < span; base += config_.blockWords) {
            candidates.push_back({pe, MemOp::DW, base, dw_val});
            candidates.push_back(
                {pe, MemOp::DWD, base + config_.blockWords - 1, dw_val});
        }
        for (const ProtoCmd& cmd : candidates) {
            if (enabled(cmd))
                out.push_back(cmd);
        }
    }
    return out;
}

void
ConformanceHarness::step(const ProtoCmd& cmd)
{
    PIM_ASSERT(enabled(cmd), "stepping a disabled conformance command: ",
               cmdToString(cmd));
    const Addr base = blockBaseOf(cmd.addr);
    const Addr span = config_.spanWords();
    const std::uint32_t bw = config_.blockWords;
    const bool last_word = cmd.addr == base + bw - 1;
    const PimCache& own = sys_.cache(cmd.pe);
    const std::string ctx = "step " + cmdToString(cmd);

    // Contract facts from the System's pre-state: does this DW allocate
    // without a fetch, does this ER/RP drop the only dirty copy?
    RefPreFacts pre;
    if (cmd.op == MemOp::DW || cmd.op == MemOp::DWD) {
        const bool boundary =
            cmd.op == MemOp::DWD ? last_word : cmd.addr == base;
        pre.freshAlloc = boundary && !own.present(cmd.addr);
    } else if (cmd.op == MemOp::ER) {
        pre.purgesDirty = own.present(cmd.addr) && last_word &&
                          cacheStateDirty(own.stateOf(cmd.addr));
    } else if (cmd.op == MemOp::RP) {
        if (own.present(cmd.addr)) {
            pre.purgesDirty = cacheStateDirty(own.stateOf(cmd.addr));
        } else {
            for (PeId q = 0; q < config_.numPes; ++q) {
                if (q != cmd.pe &&
                    cacheStateDirty(sys_.cache(q).stateOf(cmd.addr))) {
                    pre.purgesDirty = true;
                }
            }
        }
    }

    // Pre-state for the op-specific checks.
    std::vector<CacheState> pre_state(config_.numPes);
    for (PeId q = 0; q < config_.numPes; ++q)
        pre_state[q] = sys_.cache(q).stateOf(base);
    const BusStats pre_bus = sys_.bus().stats();
    const std::uint64_t pre_swapouts = own.stats().swapOuts;

    // Both machines take the step.
    const RefOutcome golden = ref_.apply(cmd, pre);
    const System::Access access =
        sys_.access(cmd.pe, cmd.op, cmd.addr, Area::Heap, cmd.value);
    checks_ += 1;

    // Divergence 1: lock-wait decisions must agree.
    if (access.lockWait != golden.lockWait) {
        throw PIM_SIM_FAULT(
            SimFaultKind::Protocol, ctx, ": the system ",
            access.lockWait ? "lock-waited" : "completed",
            " but the reference machine says the command must ",
            golden.lockWait ? "lock-wait" : "complete", "; ",
            describeBlockState(sys_, base));
    }
    if (access.lockWait) {
        pending_[cmd.pe] = cmd;
        hasPending_[cmd.pe] = true;
    } else {
        hasPending_[cmd.pe] = false;
        // Divergence 2: a defined read must return the golden value.
        if (golden.checked && memOpReads(cmd.op) &&
            access.data != golden.value) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Corruption, ctx, ": read ", access.data,
                " but the reference value is ", golden.value, "; ",
                describeBlockState(sys_, base));
        }
    }

    // Divergence 3: the shared protocol invariants on every block.
    for (Addr b = 0; b < span; b += bw)
        checkBlockInvariants(sys_, b, ctx);

    // Divergence 4: exact per-pattern bus-cycle accounting.
    checkBusAccounting(pre_bus, sys_.bus().stats(), sys_.config().timing,
                       ctx);

    // Divergence 5: the paper's op-specific claims.
    if (!access.lockWait) {
        const Cycles bus_delta =
            sys_.bus().stats().totalCycles - pre_bus.totalCycles;
        if (cmd.op == MemOp::LR &&
            cacheStateExclusive(pre_state[cmd.pe]) && bus_delta != 0) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Protocol, ctx, ": an LR hitting an "
                "exclusive (EM/EC) copy must cost zero bus cycles but "
                "charged ", bus_delta, "; ",
                describeBlockState(sys_, base));
        }
        if (cmd.op == MemOp::R && pre_state[cmd.pe] == CacheState::INV) {
            PeId holder = kNoPe;
            std::uint32_t holders = 0;
            for (PeId q = 0; q < config_.numPes; ++q) {
                if (q != cmd.pe && pre_state[q] != CacheState::INV) {
                    holders += 1;
                    holder = q;
                }
            }
            if (holders == 0 &&
                own.stateOf(base) != golden_.readMissFromMemory) {
                throw PIM_SIM_FAULT(
                    SimFaultKind::Protocol, ctx, ": a read miss served "
                    "by memory must install ",
                    cacheStateName(golden_.readMissFromMemory), " under ",
                    protocolKindName(golden_.kind), " (got ",
                    cacheStateName(own.stateOf(base)), "); ",
                    describeBlockState(sys_, base));
            }
            if (holders == 1 && cacheStateDirty(pre_state[holder])) {
                if (own.stateOf(base) != golden_.readMissDirtySupplied) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a read miss "
                        "supplied by the single dirty copy must install ",
                        cacheStateName(golden_.readMissDirtySupplied),
                        " under ", protocolKindName(golden_.kind),
                        " (got ", cacheStateName(own.stateOf(base)),
                        "); ", describeBlockState(sys_, base));
                }
                if (sys_.cache(holder).stateOf(base) !=
                    golden_.dirtySupplierAfterShare) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": the dirty "
                        "supplier must be left in ",
                        cacheStateName(golden_.dirtySupplierAfterShare),
                        " under ", protocolKindName(golden_.kind),
                        " (got ",
                        cacheStateName(sys_.cache(holder).stateOf(base)),
                        "); ", describeBlockState(sys_, base));
                }
                const std::uint64_t mem_writes =
                    sys_.bus().stats().memoryWrites - pre_bus.memoryWrites;
                const std::uint64_t swapouts =
                    own.stats().swapOuts - pre_swapouts;
                if (mem_writes != swapouts + golden_.dirtySupplyMemWrites) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a dirty "
                        "cache-to-cache supply must add exactly ",
                        golden_.dirtySupplyMemWrites,
                        " memory write(s) under ",
                        protocolKindName(golden_.kind), " but added ",
                        mem_writes - swapouts, "; ",
                        describeBlockState(sys_, base));
                }
            }
        }
        if (cmd.op == MemOp::W &&
            (pre_state[cmd.pe] == CacheState::S ||
             pre_state[cmd.pe] == CacheState::SM)) {
            std::uint32_t pre_holders = 0;
            for (PeId q = 0; q < config_.numPes; ++q) {
                if (q != cmd.pe && pre_state[q] != CacheState::INV)
                    pre_holders += 1;
            }
            const std::uint64_t inv_delta =
                sys_.bus().stats().transByPattern[static_cast<int>(
                    BusPattern::Invalidate)] -
                pre_bus.transByPattern[static_cast<int>(
                    BusPattern::Invalidate)];
            const std::uint64_t upd_delta =
                sys_.bus().stats().transByPattern[static_cast<int>(
                    BusPattern::WordUpdate)] -
                pre_bus.transByPattern[static_cast<int>(
                    BusPattern::WordUpdate)];
            if (golden_.updateOnSharedWrite) {
                // Dragon: one word-update broadcast, no invalidation,
                // sharers survive, writer owns (Sm with sharers, M alone).
                if (upd_delta != 1 || inv_delta != 0) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a shared-hit "
                        "write under dragon must cost exactly one "
                        "word-update and no invalidation (got ",
                        upd_delta, " update(s), ", inv_delta,
                        " invalidation(s)); ",
                        describeBlockState(sys_, base));
                }
                for (PeId q = 0; q < config_.numPes; ++q) {
                    if (q != cmd.pe && pre_state[q] != CacheState::INV &&
                        sys_.cache(q).stateOf(base) != CacheState::S) {
                        throw PIM_SIM_FAULT(
                            SimFaultKind::Protocol, ctx, ": pe", q,
                            " must survive a dragon shared write as a "
                            "clean sharer (got ",
                            cacheStateName(sys_.cache(q).stateOf(base)),
                            "); ", describeBlockState(sys_, base));
                    }
                }
                const CacheState want = pre_holders > 0 ? CacheState::SM
                                                        : CacheState::EM;
                if (own.stateOf(base) != want) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a dragon shared "
                        "write must leave the writer in ",
                        cacheStateName(want), " (got ",
                        cacheStateName(own.stateOf(base)), "); ",
                        describeBlockState(sys_, base));
                }
            } else {
                // Invalidation protocols: one I broadcast, remote copies
                // drop, writer lands in EM.
                if (inv_delta != 1 || upd_delta != 0) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a shared-hit "
                        "write under ", protocolKindName(golden_.kind),
                        " must cost exactly one invalidation (got ",
                        inv_delta, " invalidation(s), ", upd_delta,
                        " update(s)); ", describeBlockState(sys_, base));
                }
                for (PeId q = 0; q < config_.numPes; ++q) {
                    if (q != cmd.pe &&
                        sys_.cache(q).stateOf(base) != CacheState::INV) {
                        throw PIM_SIM_FAULT(
                            SimFaultKind::Protocol, ctx, ": pe", q,
                            " must lose its copy on a remote shared "
                            "write (got ",
                            cacheStateName(sys_.cache(q).stateOf(base)),
                            "); ", describeBlockState(sys_, base));
                    }
                }
                if (own.stateOf(base) != CacheState::EM) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": a shared-hit "
                        "write must leave the writer in EM (got ",
                        cacheStateName(own.stateOf(base)), "); ",
                        describeBlockState(sys_, base));
                }
            }
        }
        if (cmd.op == MemOp::ER && pre_state[cmd.pe] == CacheState::INV &&
            !last_word) {
            for (PeId q = 0; q < config_.numPes; ++q) {
                if (q != cmd.pe &&
                    sys_.cache(q).stateOf(base) != CacheState::INV) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, ctx, ": ER must "
                        "read-invalidate every other copy but pe", q,
                        " still holds the block; ",
                        describeBlockState(sys_, base));
                }
            }
        }
        if ((cmd.op == MemOp::ER && pre_state[cmd.pe] != CacheState::INV &&
             last_word) ||
            cmd.op == MemOp::RP) {
            if (own.stateOf(base) != CacheState::INV) {
                throw PIM_SIM_FAULT(
                    SimFaultKind::Protocol, ctx, ": ",
                    memOpName(cmd.op), " must leave the reader without "
                    "a copy (read-once contract) but it holds ",
                    cacheStateName(own.stateOf(base)), "; ",
                    describeBlockState(sys_, base));
            }
        }
    }

    // Divergence 6: every parked PE must be waiting on a lock some other
    // PE actually holds (a parked PE with no lock to wait on sleeps
    // forever — the lost-UL failure mode).
    for (PeId q = 0; q < config_.numPes; ++q) {
        if (!sys_.parked(q))
            continue;
        if (!hasPending_[q]) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Protocol, ctx, ": pe", q,
                " is parked without a pending retry");
        }
        const Addr block = sys_.parkedOnBlock(q);
        const PeId owner = ref_.lockOwnerOnBlock(block);
        if (owner == kNoPe || owner == q) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Protocol, ctx, ": pe", q,
                " is parked on block ", block,
                " but no other PE holds a lock there — the UL broadcast "
                "that should have woken it never arrived; ",
                describeBlockState(sys_, block));
        }
    }

    // Divergence 7: full differential sweep — the coherent value of
    // every defined word must equal the golden memory.
    for (Addr addr = 0; addr < span; ++addr) {
        if (!ref_.isDefined(addr))
            continue;
        Word value = 0;
        bool found = false;
        for (PeId q = 0; q < config_.numPes && !found; ++q) {
            if (sys_.cache(q).stateOf(addr) != CacheState::INV) {
                value = sys_.cache(q).loadValue(addr);
                found = true;
            }
        }
        if (!found)
            value = sys_.memory().read(addr);
        if (value != ref_.valueOf(addr)) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Corruption, ctx, ": word ", addr,
                " holds ", value, " but the reference memory says ",
                ref_.valueOf(addr), "; ",
                describeBlockState(sys_, blockBaseOf(addr)));
        }
    }

    // Divergence 8: the attribution engine's bucket sums must mirror
    // the bus statistics exactly. Last on purpose: a seeded protocol
    // mutation should surface as the protocol divergence it causes
    // (checks 1-7), not as an attribution artifact.
    const std::string attr_error = attribution_.crossCheck(sys_.bus().stats());
    if (!attr_error.empty()) {
        throw PIM_SIM_FAULT(SimFaultKind::Protocol, ctx,
                            ": attribution cross-check: ", attr_error);
    }
}

void
ConformanceHarness::replay(const std::vector<ProtoCmd>& trace)
{
    for (const ProtoCmd& cmd : trace)
        step(cmd);
}

std::size_t
ConformanceHarness::replayLenient(const std::vector<ProtoCmd>& trace)
{
    std::size_t executed = 0;
    for (const ProtoCmd& cmd : trace) {
        if (!enabled(cmd))
            continue;
        step(cmd);
        executed += 1;
    }
    return executed;
}

std::vector<std::uint64_t>
ConformanceHarness::snapshot() const
{
    std::vector<std::uint64_t> out =
        sys_.protocolSnapshot(0, config_.spanWords());
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (!hasPending_[pe]) {
            out.push_back(0);
            continue;
        }
        out.push_back(1);
        out.push_back(static_cast<std::uint64_t>(pending_[pe].op));
        out.push_back(pending_[pe].addr);
        out.push_back(pending_[pe].value);
    }
    ref_.snapshotState(out);
    return out;
}

std::uint64_t
ConformanceHarness::snapshotHash() const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t v : snapshot())
        h = hashMix(h, v);
    return h;
}

bool
ConformanceHarness::anyParked() const
{
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (sys_.parked(pe))
            return true;
    }
    return false;
}

} // namespace pim
