#include <algorithm>
#include <deque>

#include "common/rng.h"
#include "common/sim_fault.h"
#include "perfbench.h"

namespace perfbench {

using namespace pim;

namespace {

constexpr std::uint32_t kBlockWords = 4; // The paper's block size.

/** Uniform draw in [0, n) by multiply-shift. */
std::uint64_t
draw(Rng& rng, std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(rng.next()) * n) >> 64);
}

/** The value a PE's i-th reference writes (unused by reads). */
Word
writeData(std::uint64_t seed, PeId pe, std::uint64_t i)
{
    return mix(mix(seed, pe), i);
}

std::uint32_t
checkedAddr(std::uint64_t addr)
{
    if (addr > 0xffffffffULL)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "synth_bus address ",
                            addr, " does not fit the stream's 32 bits");
    return static_cast<std::uint32_t>(addr);
}

} // namespace

SynthStream
makeSynthStream(const SynthShape& shape, std::uint64_t seed)
{
    SynthStream stream;
    stream.shape = shape;
    stream.seed = seed;
    const std::uint32_t pes = shape.pes;
    // Address map: the shared span, then the lock words (half as many as
    // PEs, so locks contend), then a record region that DW allocates
    // from as a ring, the way a heap reuses freed records. The ring is
    // far larger than the records live at any time.
    const Addr lock_base = shape.spanWords;
    const std::uint32_t lock_words = std::max<std::uint32_t>(1, pes / 2);
    const Addr record_base =
        (lock_base + lock_words + kBlockWords - 1) / kBlockWords *
        kBlockWords;
    const Addr record_words = shape.recordBlocks * kBlockWords;
    Addr next_record = 0;

    // Generated in lockstep, reference i of every PE before reference
    // i + 1 of any, so a record is mostly consumed (ER/RP by the next PE)
    // after its producer wrote it (DW) in simulated time as well.
    std::vector<Rng> rngs;
    for (PeId pe = 0; pe < pes; ++pe)
        rngs.emplace_back(mix(seed, pe + 1));
    std::vector<std::deque<Addr>> records(pes);
    std::vector<Addr> held(pes, kNoAddr);
    stream.perPe.assign(pes, {});
    for (auto& ops : stream.perPe)
        ops.reserve(shape.refsPerPe + 1);

    for (std::uint64_t i = 0; i < shape.refsPerPe; ++i) {
        for (PeId pe = 0; pe < pes; ++pe) {
            Rng& rng = rngs[pe];
            SynthOp op;
            const std::uint64_t roll = draw(rng, 100);
            if (roll < shape.lockPct) {
                // At most one lock held per PE: no hold-and-wait, so the
                // busy-wait graph cannot close a cycle.
                if (held[pe] != kNoAddr) {
                    op.addr = checkedAddr(held[pe]);
                    op.op = (rng.next() & 1) != 0 ? MemOp::UW : MemOp::U;
                    held[pe] = kNoAddr;
                } else {
                    held[pe] = lock_base + draw(rng, lock_words);
                    op.addr = checkedAddr(held[pe]);
                    op.op = MemOp::LR;
                }
            } else if (roll < shape.lockPct + shape.optPct) {
                std::deque<Addr>& from = records[(pe + pes - 1) % pes];
                if (!from.empty() && (rng.next() & 1) != 0) {
                    op.addr = checkedAddr(from.front());
                    from.pop_front();
                    op.op = (rng.next() & 1) != 0 ? MemOp::ER : MemOp::RP;
                } else {
                    const Addr record = record_base + next_record;
                    op.addr = checkedAddr(record);
                    op.op = MemOp::DW;
                    records[pe].push_back(record);
                    next_record = (next_record + kBlockWords) % record_words;
                }
            } else {
                op.addr = checkedAddr(draw(rng, shape.spanWords));
                op.op = draw(rng, 100) < shape.writePct ? MemOp::W
                                                        : MemOp::R;
            }
            stream.perPe[pe].push_back(op);
        }
    }
    for (PeId pe = 0; pe < pes; ++pe) {
        if (held[pe] != kNoAddr)
            stream.perPe[pe].push_back({checkedAddr(held[pe]), MemOp::U});
    }
    stream.memoryWords = record_base + record_words;
    return stream;
}

SystemConfig
synthSystemConfig(const SynthStream& stream)
{
    SystemConfig config;
    config.numPes = stream.shape.pes;
    config.cache.geometry = {kBlockWords, 4, 256}; // Four Kwords, 4-way.
    config.cache.lockEntries = 2;
    config.memoryWords = stream.memoryWords;
    return config;
}

std::uint64_t
driveSynth(System& system, const SynthStream& stream)
{
    const std::uint32_t pes = system.numPes();
    std::vector<std::size_t> next(pes, 0);
    std::uint64_t fingerprint = 0;

    // A lock-waited reference does not advance next[pe]: the PE retries
    // it once the UL broadcast has woken it.
    auto step = [&](PeId pe) {
        const std::size_t i = next[pe];
        const SynthOp& op = stream.perPe[pe][i];
        const Word wdata = writeData(stream.seed, pe, i);
        const System::Access access =
            system.access(pe, op.op, op.addr, Area::Heap, wdata);
        if (access.lockWait)
            return;
        ++next[pe];
        fingerprint = mix(fingerprint, (static_cast<std::uint64_t>(pe) << 8) |
                                           static_cast<std::uint64_t>(op.op));
        fingerprint = mix(fingerprint, op.addr);
        fingerprint = mix(fingerprint, access.data);
    };
    auto done = [&](PeId pe) { return next[pe] == stream.perPe[pe].size(); };

    // While every PE has references left, the system's own scheduler
    // picks the next one.
    for (;;) {
        const PeId pe = system.earliestRunnable();
        if (pe == kNoPe)
            throw PIM_SIM_FAULT(SimFaultKind::Deadlock,
                                "synth_bus: every PE is parked");
        if (done(pe))
            break;
        step(pe);
    }
    // Drain the PEs that still have references, earliest clock first.
    for (;;) {
        PeId pe = kNoPe;
        bool parked = false;
        for (PeId p = 0; p < pes; ++p) {
            if (system.parked(p)) {
                parked = true;
                continue;
            }
            if (done(p))
                continue;
            if (pe == kNoPe || system.clock(p) < system.clock(pe))
                pe = p;
        }
        if (pe == kNoPe) {
            if (parked)
                throw PIM_SIM_FAULT(SimFaultKind::Deadlock,
                                    "synth_bus: a PE is parked with no "
                                    "lock holder left to wake it");
            return fingerprint;
        }
        step(pe);
    }
}

} // namespace perfbench
