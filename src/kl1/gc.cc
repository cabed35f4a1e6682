#include "kl1/gc.h"

#include "common/sim_fault.h"
#include "common/xassert.h"
#include "kl1/emulator.h"

namespace pim::kl1 {

GcCollector::GcCollector(Emulator& emu)
    : emu_(emu)
{
    segments_.resize(emu_.config().numPes);
    for (PeId pe = 0; pe < emu_.config().numPes; ++pe) {
        const Range seg = emu_.layout().segment(Area::Heap, pe);
        const std::uint64_t half = seg.size / 2;
        Machine& machine = *emu_.machines_[pe];
        Segment& s = segments_[pe];
        if (machine.heapLowHalf_) {
            s.fromBase = seg.base;
            s.fromEnd = seg.base + half;
            s.toBase = seg.base + half;
        } else {
            s.fromBase = seg.base + half;
            s.fromEnd = seg.base + half + half;
            s.toBase = seg.base;
        }
        s.toCursor = s.toBase;
        s.toEnd = s.toBase + half;
    }
}

bool
GcCollector::inFromSpace(Addr addr) const
{
    if (emu_.layout().areaOf(addr) != Area::Heap)
        return false;
    const PeId owner = emu_.layout().peOf(addr);
    const Segment& s = segments_[owner];
    return addr >= s.fromBase && addr < s.fromEnd;
}

PeId
GcCollector::segmentOwner(Addr addr) const
{
    return emu_.layout().peOf(addr);
}

Addr
GcCollector::copyObject(Addr addr, std::uint32_t nwords)
{
    PagedStore& memory = emu_.sys_->memory();
    const Word first = memory.read(addr);
    if (tagOf(first) == Tag::Fwd)
        return ptrOf(first);

    Segment& s = segments_[segmentOwner(addr)];
    if (s.toCursor + nwords > s.toEnd) {
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "GC to-space exhausted on pe", segmentOwner(addr),
                            "; increase LayoutConfig::heapWordsPerPe");
    }
    const Addr dst = s.toCursor;
    s.toCursor += nwords;
    for (std::uint32_t i = 0; i < nwords; ++i)
        memory.write(dst + i, memory.read(addr + i));
    memory.write(addr, makeFwd(dst));
    worklist_.emplace_back(dst, nwords);
    copiedWords_ += nwords;
    copiedObjects_ += 1;
    return dst;
}

Word
GcCollector::relocate(Word w)
{
    PagedStore& memory = emu_.sys_->memory();
    switch (tagOf(w)) {
      case Tag::Int:
      case Tag::Atom:
      case Tag::Fun:
        return w;
      case Tag::Fwd:
        PIM_PANIC("forwarding word escaped from-space");
      case Tag::Hook:
        // Suspension records do not move, but the floating goals hooked
        // through them are live and their arguments must be traced.
        scanHookList(ptrOf(w));
        return w;
      case Tag::Ref: {
        const Addr cell = ptrOf(w);
        if (!inFromSpace(cell))
            return w;
        return makeRef(copyObject(cell, 1));
      }
      case Tag::List: {
        const Addr cons = ptrOf(w);
        if (!inFromSpace(cons))
            return w;
        return makeList(copyObject(cons, 2));
      }
      case Tag::Vec: {
        const Addr base = ptrOf(w);
        if (!inFromSpace(base))
            return w;
        const Word header = memory.read(base);
        if (tagOf(header) == Tag::Fwd)
            return makeVec(ptrOf(header));
        if (tagOf(header) != Tag::Int || intOf(header) < 0)
            return w; // garbage word, leave untouched
        const std::uint32_t nwords =
            1 + static_cast<std::uint32_t>(intOf(header));
        const Segment& s = segments_[segmentOwner(base)];
        if (base + nwords > s.fromEnd)
            return w;
        return makeVec(copyObject(base, nwords));
      }
      case Tag::Str: {
        const Addr base = ptrOf(w);
        if (!inFromSpace(base))
            return w;
        const Word fun = memory.read(base);
        if (tagOf(fun) == Tag::Fwd)
            return makeStr(ptrOf(fun));
        if (tagOf(fun) != Tag::Fun)
            return w; // conservative: garbage word, leave untouched
        const std::uint32_t nwords =
            1 + SymbolTable::functorArity(funOf(fun));
        const Segment& s = segments_[segmentOwner(base)];
        if (base + nwords > s.fromEnd)
            return w; // garbage structure running past the semispace
        return makeStr(copyObject(base, nwords));
      }
    }
    return w;
}

void
GcCollector::scanRange(Addr base, std::uint32_t nwords)
{
    PagedStore& memory = emu_.sys_->memory();
    for (std::uint32_t i = 0; i < nwords; ++i) {
        const Word w = memory.read(base + i);
        const Word relocated = relocate(w);
        if (relocated != w)
            memory.write(base + i, relocated);
    }
}

void
GcCollector::scanHookList(Addr susp_head)
{
    PagedStore& memory = emu_.sys_->memory();
    Addr rec = susp_head;
    int guard = 1 << 22;
    while (rec != 0 && guard-- > 0) {
        const Word goal = memory.read(rec + 1);
        const Word seq = memory.read(rec + 2);
        scanIfFloatingMatch(static_cast<Addr>(goal), seq);
        rec = static_cast<Addr>(memory.read(rec));
    }
    PIM_ASSERT(guard > 0, "suspension list cycle during GC");
}

void
GcCollector::scanIfFloatingMatch(Addr rec, std::uint64_t seq)
{
    const Word state = emu_.sys_->memory().read(rec + 2);
    if (Machine::stateTag(state) == GoalState::Floating &&
        Machine::seqOf(state) == seq) {
        scanGoalRecord(rec);
    }
}

void
GcCollector::scanGoalRecord(Addr rec)
{
    if (!scannedGoals_.insert(rec).second)
        return;
    PagedStore& memory = emu_.sys_->memory();
    const Word state = memory.read(rec + 2);
    const std::uint32_t proc = Machine::procOf(state);
    if (proc >= emu_.module().procs.size())
        return; // stale/garbage record reached through a dead hook
    const std::uint32_t arity = emu_.module().procs[proc].arity;
    for (std::uint32_t i = 0; i < arity; ++i) {
        const Word w = memory.read(rec + 3 + i);
        const Word relocated = relocate(w);
        if (relocated != w)
            memory.write(rec + 3 + i, relocated);
    }
}

void
GcCollector::collect()
{
    // Make shared memory authoritative and start every cache cold.
    emu_.sys_->flushAllCaches();

    std::uint64_t live_before = 0;
    for (PeId pe = 0; pe < emu_.config().numPes; ++pe) {
        live_before +=
            emu_.machines_[pe]->heapTop_ - segments_[pe].fromBase;
    }

    // -- Roots -------------------------------------------------------------
    for (PeId pe = 0; pe < emu_.config().numPes; ++pe) {
        Machine& m = *emu_.machines_[pe];
        PIM_ASSERT(emu_.sys_->cache(pe).lockDirectory().heldCount() == 0,
                   "GC at a non-quiescent point: pe holds a lock");
        for (Word& reg : m.regs_)
            reg = relocate(reg);
        for (Word& w : m.curArgs_)
            w = relocate(w);
        for (Word& w : m.fetchArgs_)
            w = relocate(w);
        for (Addr& cell : m.suspendCands_) {
            const Word moved = relocate(makeRef(cell));
            cell = ptrOf(moved);
        }
        for (Machine::MicroOp& op : m.pendingWork_) {
            switch (op.kind) {
              case Machine::MicroOp::Kind::HookVars:
                for (Addr& var : op.vars) {
                    const Word moved = relocate(makeRef(var));
                    var = ptrOf(moved);
                }
                scanIfFloatingMatch(op.addr, op.seq);
                break;
              case Machine::MicroOp::Kind::ResumeGoal:
                scanIfFloatingMatch(op.addr, op.seq);
                break;
              case Machine::MicroOp::Kind::ResumeWalk:
                scanHookList(op.addr);
                break;
            }
        }
        for (Addr rec : m.goalList_)
            scanGoalRecord(rec);
        if (m.donationRec_ != kNoAddr)
            scanGoalRecord(m.donationRec_);
        if (m.fetchRec_ != kNoAddr)
            scanGoalRecord(m.fetchRec_);
        // A goal in this PE's reply slot is in transit: trace it.
        const Word reply =
            emu_.sys_->memory().read(m.commBase_ + 4);
        if (reply > 1 && (reply & 3) == 2)
            scanGoalRecord(static_cast<Addr>(reply >> 2));
    }
    for (auto& [name, addr] : emu_.queryVars_) {
        const Word moved = relocate(makeRef(addr));
        addr = ptrOf(moved);
    }

    // -- Cheney scan ---------------------------------------------------------
    while (!worklist_.empty()) {
        const auto [base, nwords] = worklist_.back();
        worklist_.pop_back();
        scanRange(base, nwords);
    }

    // -- Flip ------------------------------------------------------------
    for (PeId pe = 0; pe < emu_.config().numPes; ++pe) {
        Machine& m = *emu_.machines_[pe];
        m.heapTop_ = segments_[pe].toCursor;
        m.heapEnd_ = segments_[pe].toEnd;
        m.heapLowHalf_ = !m.heapLowHalf_;
    }

    emu_.gcStats_.collections += 1;
    emu_.gcStats_.wordsCopied += copiedWords_;
    emu_.gcStats_.cellsCopied += copiedObjects_;
    emu_.gcStats_.wordsReclaimed += live_before - copiedWords_;
}

} // namespace pim::kl1
