#include "kl1/machine.h"

#include <algorithm>

#include "common/xassert.h"
#include "kl1/emulator.h"

namespace pim::kl1 {

namespace {

/** Fewest goals a PE keeps for itself; with fewer it declines a steal. */
constexpr std::size_t kDonateThreshold = 2;

/** Clock cycles an idle PE advances per poll of its steal slot. */
constexpr Cycles kIdleSpinCycles = 16;

} // namespace

Machine::Machine(PeId pe, Emulator& emu)
    : pe_(pe),
      emu_(emu),
      goalArea_(emu.layout().segment(Area::Goal, pe)),
      suspArea_(emu.layout().segment(Area::Susp, pe)),
      heapTop_(emu.layout().segment(Area::Heap, pe).base),
      heapEnd_(emu.config().enableGc
                   ? emu.layout().segment(Area::Heap, pe).base +
                         emu.layout().segment(Area::Heap, pe).size / 2
                   : emu.layout().segment(Area::Heap, pe).end()),
      commBase_(emu.layout().segment(Area::Comm, pe).base),
      nextVictim_((pe + 1) % emu.config().numPes)
{
    const std::uint32_t block_words =
        emu.config().cache.geometry.blockWords;
    // Records never share a cache block (so consuming one record never
    // purges a neighbour's), and the state word's block — the first
    // `goalOptCutoff_` words — stays unoptimized (see machine.h).
    goalAlign_ = std::max<std::uint32_t>(4, block_words);
    goalOptCutoff_ = (3 + block_words - 1) / block_words * block_words;
}

// ---------------------------------------------------------------------
// Memory plumbing
// ---------------------------------------------------------------------

Word
Machine::mem(MemOp op, Addr addr, Area area, Word wdata)
{
    PIM_ASSERT(!stalled_, "memory access while already stalled");
    const System::Access result =
        emu_.sys_->access(pe_, op, addr, area, wdata);
    if (result.lockWait) {
        stalled_ = true;
        return 0;
    }
    return result.data;
}

bool
Machine::lockCell(Addr addr, Word& value)
{
    // Across a lock-stall retry we may already hold this lock; re-locking
    // would be a protocol error, so read the (exclusively held) word.
    if (emu_.sys_->cache(pe_).lockDirectory().holds(addr)) {
        value = mem(MemOp::R, addr, areaOf(addr));
        return !stalled_;
    }
    value = mem(MemOp::LR, addr, areaOf(addr));
    return !stalled_;
}

void
Machine::unlockCell(Addr addr, bool write, Word value)
{
    if (write) {
        mem(MemOp::UW, addr, areaOf(addr), value);
    } else {
        mem(MemOp::U, addr, areaOf(addr));
    }
    PIM_ASSERT(!stalled_, "unlock operations cannot be inhibited");
}

Area
Machine::areaOf(Addr addr) const
{
    return emu_.layout().areaOf(addr);
}

Addr
Machine::heapAlloc(std::uint32_t nwords)
{
    if (heapTop_ + nwords > heapEnd_) {
        PIM_FATAL("pe", pe_, ": heap semispace exhausted; increase "
                  "LayoutConfig::heapWordsPerPe",
                  emu_.config().enableGc
                      ? " (the last GC could not reclaim enough)"
                      : " or set Kl1Config::enableGc");
    }
    const Addr addr = heapTop_;
    heapTop_ += nwords;
    if (emu_.config().enableGc &&
        heapTop_ + emu_.config().gcSlackWords > heapEnd_) {
        emu_.gcRequested_ = true;
    }
    return addr;
}

Addr
Machine::rawHeapAlloc(std::uint32_t nwords)
{
    return heapAlloc(nwords);
}

std::uint32_t
Machine::goalRecWords(std::uint32_t arity) const
{
    const std::uint32_t need = 3 + arity;
    return (need + goalAlign_ - 1) / goalAlign_ * goalAlign_;
}

Addr
Machine::goalRecAlloc(std::uint32_t arity)
{
    const Addr rec = goalArea_.allocate(goalRecWords(arity));
    if (rec == kNoAddr) {
        PIM_FATAL("pe", pe_, ": goal area exhausted; increase "
                  "LayoutConfig::goalWordsPerPe");
    }
    return rec;
}

void
Machine::goalRecFree(Addr rec, std::uint32_t arity)
{
    goalArea_.free(rec, goalRecWords(arity));
}

void
Machine::seedGoal(Addr record)
{
    goalList_.push_back(record);
}

// ---------------------------------------------------------------------
// Dereferencing / unification
// ---------------------------------------------------------------------

Machine::Deref
Machine::deref(Word w)
{
    int guard = 1 << 20;
    while (tagOf(w) == Tag::Ref && guard-- > 0) {
        const Addr cell = ptrOf(w);
        const Word content = mem(MemOp::R, cell, areaOf(cell));
        if (stalled_)
            return {};
        if (isUnboundAt(content, cell) || tagOf(content) == Tag::Hook)
            return {content, cell};
        w = content;
    }
    PIM_ASSERT(guard > 0, "reference cycle while dereferencing");
    return {w, kNoAddr};
}

Machine::PassiveResult
Machine::passiveUnify(Word a, Word b)
{
    std::vector<std::pair<Word, Word>> stack{{a, b}};
    while (!stack.empty()) {
        auto [wa, wb] = stack.back();
        stack.pop_back();
        const Deref da = deref(wa);
        if (stalled_)
            return PassiveResult::Fail; // caller checks stalled_ first
        const Deref db = deref(wb);
        if (stalled_)
            return PassiveResult::Fail;

        if (da.unbound() && db.unbound()) {
            if (da.cell == db.cell)
                continue;
            // Binding is forbidden in the passive part: suspend on both.
            noteSuspendCandidate(da.cell);
            noteSuspendCandidate(db.cell);
            return PassiveResult::Suspend;
        }
        if (da.unbound() || db.unbound()) {
            noteSuspendCandidate(da.unbound() ? da.cell : db.cell);
            return PassiveResult::Suspend;
        }

        const Word va = da.value;
        const Word vb = db.value;
        if (tagOf(va) != tagOf(vb))
            return PassiveResult::Fail;
        switch (tagOf(va)) {
          case Tag::Int:
          case Tag::Atom:
            if (va != vb)
                return PassiveResult::Fail;
            break;
          case Tag::List: {
            const Addr pa = ptrOf(va);
            const Addr pb = ptrOf(vb);
            if (pa == pb)
                break;
            const Word ca = mem(MemOp::R, pa, areaOf(pa));
            if (stalled_)
                return PassiveResult::Fail;
            const Word cb = mem(MemOp::R, pb, areaOf(pb));
            if (stalled_)
                return PassiveResult::Fail;
            const Word ta = mem(MemOp::R, pa + 1, areaOf(pa));
            if (stalled_)
                return PassiveResult::Fail;
            const Word tb = mem(MemOp::R, pb + 1, areaOf(pb));
            if (stalled_)
                return PassiveResult::Fail;
            stack.push_back({ta, tb});
            stack.push_back({ca, cb});
            break;
          }
          case Tag::Str:
          case Tag::Vec: {
            const Addr pa = ptrOf(va);
            const Addr pb = ptrOf(vb);
            if (pa == pb)
                break;
            // Word 0 is the functor (Str) or the size (Vec); equal word
            // 0 implies equal argument/element counts.
            const Word fa = mem(MemOp::R, pa, areaOf(pa));
            if (stalled_)
                return PassiveResult::Fail;
            const Word fb = mem(MemOp::R, pb, areaOf(pb));
            if (stalled_)
                return PassiveResult::Fail;
            if (fa != fb)
                return PassiveResult::Fail;
            const std::uint32_t count =
                tagOf(va) == Tag::Str
                    ? SymbolTable::functorArity(funOf(fa))
                    : static_cast<std::uint32_t>(intOf(fa));
            for (std::uint32_t i = 0; i < count; ++i) {
                const Word xa = mem(MemOp::R, pa + 1 + i, areaOf(pa));
                if (stalled_)
                    return PassiveResult::Fail;
                const Word xb = mem(MemOp::R, pb + 1 + i, areaOf(pb));
                if (stalled_)
                    return PassiveResult::Fail;
                stack.push_back({xa, xb});
            }
            break;
          }
          default:
            PIM_PANIC("bad term word in passive unification");
        }
    }
    return PassiveResult::Ok;
}

void
Machine::bindLockedCell(Addr cell, Word old_value, Word value)
{
    unlockCell(cell, true, value);
    if (tagOf(old_value) == Tag::Hook) {
        MicroOp op;
        op.kind = MicroOp::Kind::ResumeWalk;
        op.addr = ptrOf(old_value);
        pendingWork_.push_back(std::move(op));
    }
}

bool
Machine::activeUnify(Word a, Word b)
{
    std::vector<std::pair<Word, Word>> stack{{a, b}};
    while (!stack.empty()) {
        auto [wa, wb] = stack.back();
        stack.pop_back();
        const Deref da = deref(wa);
        if (stalled_)
            return false;
        const Deref db = deref(wb);
        if (stalled_)
            return false;

        if (da.unbound() && db.unbound()) {
            if (da.cell == db.cell)
                continue;
            const Addr lo = std::min(da.cell, db.cell);
            const Addr hi = std::max(da.cell, db.cell);
            Word lo_val = 0;
            Word hi_val = 0;
            // Address-ordered locking prevents deadlock between PEs.
            if (!lockCell(lo, lo_val))
                return false;
            if (!lockCell(hi, hi_val))
                return false; // parked holding lo; retry resumes safely
            const bool lo_unbound =
                isUnboundAt(lo_val, lo) || tagOf(lo_val) == Tag::Hook;
            const bool hi_unbound =
                isUnboundAt(hi_val, hi) || tagOf(hi_val) == Tag::Hook;
            if (!lo_unbound || !hi_unbound) {
                // Raced with another binder; release and re-examine.
                unlockCell(lo, false, 0);
                unlockCell(hi, false, 0);
                stack.push_back({makeRef(lo), makeRef(hi)});
                continue;
            }
            // Bind hi -> lo. Suspensions hooked on hi migrate to lo.
            if (tagOf(hi_val) == Tag::Hook) {
                const Addr h2 = ptrOf(hi_val);
                Addr tail = h2;
                for (;;) {
                    const Word next = mem(MemOp::R, tail, Area::Susp);
                    PIM_ASSERT(!stalled_,
                               "suspension records are never locked");
                    if (next == 0)
                        break;
                    tail = static_cast<Addr>(next);
                }
                const Addr lo_head =
                    tagOf(lo_val) == Tag::Hook ? ptrOf(lo_val) : 0;
                mem(MemOp::W, tail, Area::Susp,
                    static_cast<Word>(lo_head));
                PIM_ASSERT(!stalled_);
                unlockCell(lo, true, makeHook(h2));
            } else {
                unlockCell(lo, false, 0);
            }
            unlockCell(hi, true, makeRef(lo));
            continue;
        }

        if (da.unbound() || db.unbound()) {
            const Addr cell = da.unbound() ? da.cell : db.cell;
            const Word value = da.unbound() ? db.value : da.value;
            Word current = 0;
            if (!lockCell(cell, current))
                return false;
            if (!(isUnboundAt(current, cell) ||
                  tagOf(current) == Tag::Hook)) {
                // Bound by another PE meanwhile; re-examine.
                unlockCell(cell, false, 0);
                stack.push_back({makeRef(cell), value});
                continue;
            }
            bindLockedCell(cell, current, value);
            continue;
        }

        // Both bound: structural unification.
        const Word va = da.value;
        const Word vb = db.value;
        auto failure = [&]() {
            PIM_FATAL("pe", pe_, ": unification failure: ",
                      emu_.format(va), " = ", emu_.format(vb),
                      " (FGHC body unification must not fail)");
        };
        if (tagOf(va) != tagOf(vb))
            failure();
        switch (tagOf(va)) {
          case Tag::Int:
          case Tag::Atom:
            if (va != vb)
                failure();
            break;
          case Tag::List: {
            const Addr pa = ptrOf(va);
            const Addr pb = ptrOf(vb);
            if (pa == pb)
                break;
            const Word ca = mem(MemOp::R, pa, areaOf(pa));
            if (stalled_)
                return false;
            const Word cb = mem(MemOp::R, pb, areaOf(pb));
            if (stalled_)
                return false;
            const Word ta = mem(MemOp::R, pa + 1, areaOf(pa));
            if (stalled_)
                return false;
            const Word tb = mem(MemOp::R, pb + 1, areaOf(pb));
            if (stalled_)
                return false;
            stack.push_back({ta, tb});
            stack.push_back({ca, cb});
            break;
          }
          case Tag::Str:
          case Tag::Vec: {
            const Addr pa = ptrOf(va);
            const Addr pb = ptrOf(vb);
            if (pa == pb)
                break;
            const Word fa = mem(MemOp::R, pa, areaOf(pa));
            if (stalled_)
                return false;
            const Word fb = mem(MemOp::R, pb, areaOf(pb));
            if (stalled_)
                return false;
            if (fa != fb)
                failure();
            const std::uint32_t count =
                tagOf(va) == Tag::Str
                    ? SymbolTable::functorArity(funOf(fa))
                    : static_cast<std::uint32_t>(intOf(fa));
            for (std::uint32_t i = 0; i < count; ++i) {
                const Word xa = mem(MemOp::R, pa + 1 + i, areaOf(pa));
                if (stalled_)
                    return false;
                const Word xb = mem(MemOp::R, pb + 1 + i, areaOf(pb));
                if (stalled_)
                    return false;
                stack.push_back({xa, xb});
            }
            break;
          }
          default:
            PIM_PANIC("bad term word in active unification");
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------

void
Machine::step()
{
    PIM_ASSERT(!emu_.sys_->parked(pe_), "stepping a parked PE");
    stalled_ = false;
    if (mode_ == Mode::Run) {
        runInstr();
    } else {
        stepFetchWork();
    }
}

bool
Machine::quiescent() const
{
    return mode_ == Mode::FetchWork && goalList_.empty() &&
           pendingWork_.empty() && donationRequester_ == kNoPe &&
           donationRec_ == kNoAddr && fetchRec_ == kNoAddr && !resumeRun_;
}

void
Machine::stepFetchWork()
{
    if (!pendingWork_.empty()) {
        processMicroOp();
        return;
    }
    if (donationRequester_ != kNoPe) {
        doDonation();
        return;
    }
    // An idle PE has nothing to donate: it polls its request slot only
    // occasionally (to decline promptly enough), not on every idle spin,
    // so idle machines do not flood the reference stream with polls.
    const bool idle_now = goalList_.empty() && fetchRec_ == kNoAddr &&
                          !resumeRun_;
    if (emu_.config().numPes > 1 &&
        (!idle_now || (++idlePollGate_ & 7) == 0)) {
        if (!pollRequests())
            return; // stalled (or a request was claimed; donate next)
    }
    if (donationRequester_ != kNoPe)
        return;
    if (resumeRun_) {
        resumeRun_ = false;
        mode_ = Mode::Run;
        return;
    }
    if (fetchRec_ != kNoAddr || !goalList_.empty()) {
        if (dequeueLocal())
            finishGoalFetch();
        return;
    }
    stepIdle();
}

bool
Machine::pollRequests()
{
    const Word value = mem(MemOp::RI, commBase_ + 0, Area::Comm);
    if (stalled_)
        return false;
    if (value == 0)
        return true;
    mem(MemOp::W, commBase_ + 0, Area::Comm, 0);
    if (stalled_)
        return false;
    donationRequester_ = static_cast<PeId>(value - 1);
    return true;
}

bool
Machine::doDonation()
{
    const Addr reply = emu_.layout().segment(Area::Comm,
                                             donationRequester_).base + 4;
    if (donationRec_ == kNoAddr) {
        if (goalList_.size() < kDonateThreshold) {
            // Decline: write sender id first, then the flag word the
            // requester polls (issue order is completion order here).
            mem(MemOp::W, reply + 1, Area::Comm, pe_);
            if (stalled_)
                return false;
            mem(MemOp::W, reply, Area::Comm, 1);
            if (stalled_)
                return false;
            donationRequester_ = kNoPe;
            return true;
        }
        donationRec_ = goalList_.back();
        goalList_.pop_back();
    }
    // The real machine walks tail->prev to detach; emit that read.
    mem(MemOp::R, donationRec_ + 1, Area::Goal);
    if (stalled_)
        return false;
    if (!goalList_.empty()) {
        mem(MemOp::W, goalList_.back() + 0, Area::Goal, 0);
        if (stalled_)
            return false;
    }
    mem(MemOp::W, reply + 1, Area::Comm, pe_);
    if (stalled_)
        return false;
    mem(MemOp::W, reply, Area::Comm,
        (static_cast<Word>(donationRec_) << 2) | 2);
    if (stalled_)
        return false;
    emu_.goalsInTransit_ += 1;
    donationRequester_ = kNoPe;
    donationRec_ = kNoAddr;
    return true;
}

void
Machine::stepIdle()
{
    if (emu_.config().numPes <= 1) {
        emu_.sys_->advanceClock(pe_, kIdleSpinCycles);
        return;
    }
    if (stealOutstanding_) {
        const Word value = mem(MemOp::RI, commBase_ + 4, Area::Comm);
        if (stalled_)
            return;
        if (value == 0) {
            emu_.sys_->advanceClock(pe_, kIdleSpinCycles);
            return;
        }
        if (value == 1) { // declined
            mem(MemOp::W, commBase_ + 4, Area::Comm, 0);
            if (stalled_)
                return;
            stealOutstanding_ = false;
            nextVictim_ = (nextVictim_ + 1) % emu_.config().numPes;
            if (nextVictim_ == pe_)
                nextVictim_ = (nextVictim_ + 1) % emu_.config().numPes;
            // Back off so a starved machine does not flood the bus with
            // request/decline traffic.
            nextRequestAt_ = emu_.sys_->clock(pe_) + stealBackoff_;
            stealBackoff_ = std::min<Cycles>(stealBackoff_ * 2, 4096);
            emu_.sys_->advanceClock(pe_, kIdleSpinCycles);
            return;
        }
        // A goal arrived: read the sender id and start consuming it.
        const Word sender = mem(MemOp::R, commBase_ + 5, Area::Comm);
        if (stalled_)
            return;
        mem(MemOp::W, commBase_ + 4, Area::Comm, 0);
        if (stalled_)
            return;
        stealOutstanding_ = false;
        stealBackoff_ = 64; // work found: reset the request backoff
        fetchRec_ = static_cast<Addr>(value >> 2);
        fetchOwner_ = static_cast<PeId>(sender);
        fetchRemote_ = true;
        fetchIdx_ = 0;
        fetchArgs_.clear();
        if (readGoalRecord(fetchRec_, fetchOwner_, true))
            finishGoalFetch();
        return;
    }
    // Send a work request to the next victim (unless backing off).
    if (emu_.sys_->clock(pe_) < nextRequestAt_) {
        emu_.sys_->advanceClock(pe_, kIdleSpinCycles);
        return;
    }
    const Addr victim_req =
        emu_.layout().segment(Area::Comm, nextVictim_).base;
    Word current = 0;
    if (!lockCell(victim_req, current))
        return;
    if (current == 0) {
        unlockCell(victim_req, true, pe_ + 1);
        stealOutstanding_ = true;
    } else {
        unlockCell(victim_req, false, 0);
        nextVictim_ = (nextVictim_ + 1) % emu_.config().numPes;
        if (nextVictim_ == pe_)
            nextVictim_ = (nextVictim_ + 1) % emu_.config().numPes;
    }
    emu_.sys_->advanceClock(pe_, kIdleSpinCycles);
}

bool
Machine::dequeueLocal()
{
    if (fetchRec_ == kNoAddr) {
        fetchRec_ = goalList_.front();
        goalList_.pop_front();
        fetchOwner_ = pe_;
        fetchRemote_ = false;
        fetchIdx_ = 0;
        fetchArgs_.clear();
    }
    if (!readGoalRecord(fetchRec_, fetchOwner_, fetchRemote_))
        return false;
    if (!fetchRemote_ && !goalList_.empty()) {
        // The new list head has no predecessor any more.
        mem(MemOp::W, goalList_.front() + 1, Area::Goal, 0);
        if (stalled_)
            return false;
    }
    return true;
}

bool
Machine::readGoalRecord(Addr rec, PeId owner, bool remote)
{
    (void)owner;
    (void)remote;
    for (;;) {
        std::uint32_t total = 2 + fetchArity_;
        const bool arity_known = fetchIdx_ >= 1;
        Addr addr = 0;
        if (fetchIdx_ == 0) {
            addr = rec + 2; // state word first: it names the procedure
        } else if (fetchIdx_ == 1) {
            addr = rec + 0; // list link
        } else {
            addr = rec + 3 + (fetchIdx_ - 2);
        }
        const bool last = arity_known && fetchIdx_ + 1 == total;
        // The record's first block (holding the state word) is read with
        // plain R and never purged (see machine.h); only the pure
        // write-once/read-once argument words use ER/RP. Per the paper's
        // rule, RP (not ER) reads the last word of the reading area and
        // any word that is the last of its cache block: an ER that
        // misses on a block-last word degrades to a plain read (case
        // iii), which would leave live copies behind and break the
        // recycling DW's no-remote-copy precondition.
        const std::uint32_t offset =
            static_cast<std::uint32_t>(addr - rec);
        MemOp op = MemOp::R;
        if (offset >= goalOptCutoff_) {
            const std::uint32_t bw =
                emu_.config().cache.geometry.blockWords;
            const bool block_last = offset % bw == bw - 1;
            op = (last || block_last) ? MemOp::RP : MemOp::ER;
        }
        const Word value = mem(op, addr, Area::Goal);
        if (stalled_)
            return false;
        if (fetchIdx_ == 0) {
            fetchState_ = value;
            PIM_ASSERT(stateTag(value) == GoalState::Queued,
                       "dequeued a goal record that is not queued");
            fetchArity_ = emu_.module().procs[procOf(value)].arity;
        } else if (fetchIdx_ >= 2) {
            fetchArgs_.push_back(value);
        }
        ++fetchIdx_;
        total = 2 + fetchArity_;
        if (fetchIdx_ >= total)
            return true;
    }
}

void
Machine::finishGoalFetch()
{
    const std::uint32_t proc = procOf(fetchState_);
    stealBackoff_ = 64; // running again: reset the request backoff
    // A record is freed to its creator's segment allocator: resumption
    // and donation can move a goal to any PE's list, but the record
    // itself stays where the suspending/spawning PE allocated it.
    const PeId region_owner = emu_.layout().peOf(fetchRec_);
    emu_.machines_[region_owner]->goalRecFree(fetchRec_, fetchArity_);
    if (fetchRemote_) {
        emu_.goalsInTransit_ -= 1;
        stats_.steals += 1;
    }
    fetchRec_ = kNoAddr;
    startGoal(proc, fetchArgs_.data(),
              static_cast<std::uint32_t>(fetchArgs_.size()));
}

void
Machine::startGoal(std::uint32_t proc, const Word* args,
                   std::uint32_t nargs)
{
    PIM_ASSERT(nargs == emu_.module().procs[proc].arity);
    for (std::uint32_t i = 0; i < nargs; ++i)
        regs_[i] = args[i];
    curProc_ = proc;
    curArgs_.assign(args, args + nargs);
    suspendCands_.clear();
    pc_ = emu_.module().procs[proc].entryPc;
    failTarget_ = pc_;
    tailPolls_ = 0;
    mode_ = Mode::Run;
}

// ---------------------------------------------------------------------
// Micro-operations (suspension / resumption)
// ---------------------------------------------------------------------

bool
Machine::processMicroOp()
{
    MicroOp& op = pendingWork_.front();
    switch (op.kind) {
      case MicroOp::Kind::ResumeWalk: {
        const Addr srec = op.addr;
        const Word next = mem(MemOp::R, srec, Area::Susp);
        if (stalled_)
            return false;
        const Word goal = mem(MemOp::R, srec + 1, Area::Susp);
        if (stalled_)
            return false;
        const Word seq = mem(MemOp::R, srec + 2, Area::Susp);
        if (stalled_)
            return false;
        const PeId owner = emu_.layout().peOf(srec);
        emu_.machines_[owner]->suspArea_.free(srec, 3);
        pendingWork_.pop_front();
        MicroOp resume;
        resume.kind = MicroOp::Kind::ResumeGoal;
        resume.addr = static_cast<Addr>(goal);
        resume.seq = seq;
        pendingWork_.push_back(std::move(resume));
        if (next != 0) {
            MicroOp walk;
            walk.kind = MicroOp::Kind::ResumeWalk;
            walk.addr = static_cast<Addr>(next);
            pendingWork_.push_back(std::move(walk));
        }
        return true;
      }
      case MicroOp::Kind::ResumeGoal: {
        // Fix the prospective old head's back link before taking the
        // state lock, so this engine never busy-waits while holding a
        // lock on a stall-able path (deadlock hygiene). If the resume
        // turns out to be stale the write is harmless: back links are
        // only consumed as a fidelity read during donation.
        if (!goalList_.empty()) {
            mem(MemOp::W, goalList_.front() + 1, Area::Goal, op.addr);
            if (stalled_)
                return false;
        }
        const Addr state_addr = op.addr + 2;
        Word state = 0;
        if (!lockCell(state_addr, state))
            return false;
        if (stateTag(state) != GoalState::Floating ||
            seqOf(state) != op.seq) {
            // Already resumed by someone else (or recycled): nothing to do.
            unlockCell(state_addr, false, 0);
            pendingWork_.pop_front();
            return true;
        }
        const std::uint32_t proc = procOf(state);
        // The record's own link words can never be remotely locked: with
        // blocks of >= 4 words they sit in the block we just took
        // exclusively; with smaller blocks their blocks hold link words
        // only, which no engine ever locks.
        mem(MemOp::W, op.addr + 0, Area::Goal,
            goalList_.empty() ? 0 : goalList_.front());
        PIM_ASSERT(!stalled_);
        mem(MemOp::W, op.addr + 1, Area::Goal, 0);
        PIM_ASSERT(!stalled_);
        unlockCell(state_addr, true, packState(GoalState::Queued, proc, 0));
        goalList_.push_front(op.addr);
        emu_.floatingGoals_ -= 1;
        stats_.resumptions += 1;
        pendingWork_.pop_front();
        return true;
      }
      case MicroOp::Kind::HookVars: {
        if (op.varIndex >= op.vars.size()) {
            if (op.anyBound || op.hooked == 0) {
                // Some watched variable is already bound: the goal can
                // run; requeue it through the normal resume path.
                op.kind = MicroOp::Kind::ResumeGoal;
                return true;
            }
            pendingWork_.pop_front();
            return true;
        }
        const Addr var = op.vars[op.varIndex];
        Word current = 0;
        if (!lockCell(var, current))
            return false;
        if (isUnboundAt(current, var) || tagOf(current) == Tag::Hook) {
            const Addr srec = suspArea_.allocate(3);
            if (srec == kNoAddr) {
                PIM_FATAL("pe", pe_, ": suspension area exhausted; "
                          "increase LayoutConfig::suspWordsPerPe");
            }
            const Addr next =
                tagOf(current) == Tag::Hook ? ptrOf(current) : 0;
            mem(MemOp::W, srec, Area::Susp, static_cast<Word>(next));
            PIM_ASSERT(!stalled_);
            mem(MemOp::W, srec + 1, Area::Susp,
                static_cast<Word>(op.addr));
            PIM_ASSERT(!stalled_);
            mem(MemOp::W, srec + 2, Area::Susp, op.seq);
            PIM_ASSERT(!stalled_);
            unlockCell(var, true, makeHook(srec));
            op.hooked += 1;
        } else {
            unlockCell(var, false, 0);
            op.anyBound = true;
        }
        op.varIndex += 1;
        return true;
      }
    }
    PIM_PANIC("unknown micro-operation");
}

// ---------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------

void
Machine::noteSuspendCandidate(Addr cell)
{
    if (std::find(suspendCands_.begin(), suspendCands_.end(), cell) ==
        suspendCands_.end()) {
        suspendCands_.push_back(cell);
    }
}

void
Machine::failToAlternative()
{
    pc_ = failTarget_;
}

void
Machine::runInstr()
{
    const Instr& ins = emu_.module().code[pc_];

    // Instruction fetch (re-issued on busy-wait retries, as hardware
    // re-fetches when a stalled operation restarts).
    const Addr iaddr = emu_.layout().instrRange().base +
                       emu_.module().wordOffset(pc_);
    mem(MemOp::R, iaddr, Area::Instruction);
    PIM_ASSERT(!stalled_, "instruction fetch cannot be lock-inhibited");
    if (ins.words() == 2) {
        mem(MemOp::R, iaddr + 1, Area::Instruction);
        PIM_ASSERT(!stalled_);
    }

    const Addr heap_snapshot = heapTop_;
    const std::uint32_t entry_pc = pc_;
    const bool ok = [&]() -> bool {
        switch (ins.op) {
          case Op::TryClause:
            failTarget_ = static_cast<std::uint32_t>(ins.a);
            ++pc_;
            return true;
          case Op::Commit:
            stats_.reductions += 1;
            ++pc_;
            return true;
          case Op::Proceed:
            mode_ = Mode::FetchWork;
            resumeRun_ = false;
            return true;
          case Op::Execute:
            doExecute(ins);
            return true;
          case Op::Spawn:
            doSpawn(ins);
            return !stalled_;
          case Op::SuspendOrFail:
            doSuspendOrFail();
            return !stalled_;
          case Op::WaitInt: {
            const Deref d = deref(regs_[ins.a]);
            if (stalled_)
                return false;
            if (d.unbound()) {
                noteSuspendCandidate(d.cell);
                failToAlternative();
            } else if (tagOf(d.value) == Tag::Int &&
                       intOf(d.value) == ins.imm) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          }
          case Op::WaitAtom: {
            const Deref d = deref(regs_[ins.a]);
            if (stalled_)
                return false;
            if (d.unbound()) {
                noteSuspendCandidate(d.cell);
                failToAlternative();
            } else if (tagOf(d.value) == Tag::Atom &&
                       atomOf(d.value) ==
                           static_cast<AtomId>(ins.imm)) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          }
          case Op::WaitList:
            doWaitList(ins);
            return !stalled_;
          case Op::WaitStruct:
            doWaitStruct(ins);
            return !stalled_;
          case Op::WaitSame: {
            const PassiveResult r =
                passiveUnify(regs_[ins.a], regs_[ins.b]);
            if (stalled_)
                return false;
            if (r == PassiveResult::Ok) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          }
          case Op::GuardDiff: {
            const PassiveResult r =
                passiveUnify(regs_[ins.a], regs_[ins.b]);
            if (stalled_)
                return false;
            if (r == PassiveResult::Fail) {
                ++pc_; // definitely different: \= succeeds
            } else {
                failToAlternative(); // equal or undecidable
            }
            return true;
          }
          case Op::GuardCmp:
          case Op::GuardCmpInt: {
            const Deref dl = deref(regs_[ins.a]);
            if (stalled_)
                return false;
            if (dl.unbound()) {
                noteSuspendCandidate(dl.cell);
                failToAlternative();
                return true;
            }
            std::int64_t rhs = ins.imm;
            if (ins.op == Op::GuardCmp) {
                const Deref dr = deref(regs_[ins.b]);
                if (stalled_)
                    return false;
                if (dr.unbound()) {
                    noteSuspendCandidate(dr.cell);
                    failToAlternative();
                    return true;
                }
                if (tagOf(dr.value) != Tag::Int) {
                    failToAlternative();
                    return true;
                }
                rhs = intOf(dr.value);
            }
            if (tagOf(dl.value) != Tag::Int) {
                failToAlternative();
                return true;
            }
            const std::int64_t lhs = intOf(dl.value);
            bool holds = false;
            switch (static_cast<CmpKind>(ins.d)) {
              case CmpKind::Lt:    holds = lhs < rhs; break;
              case CmpKind::Le:    holds = lhs <= rhs; break;
              case CmpKind::Gt:    holds = lhs > rhs; break;
              case CmpKind::Ge:    holds = lhs >= rhs; break;
              case CmpKind::NumEq: holds = lhs == rhs; break;
              case CmpKind::NumNe: holds = lhs != rhs; break;
            }
            if (holds) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          }
          case Op::GuardInteger: {
            const Deref d = deref(regs_[ins.a]);
            if (stalled_)
                return false;
            if (d.unbound()) {
                noteSuspendCandidate(d.cell);
                failToAlternative();
            } else if (tagOf(d.value) == Tag::Int) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          }
          case Op::GuardWait: {
            const Deref d = deref(regs_[ins.a]);
            if (stalled_)
                return false;
            if (d.unbound()) {
                noteSuspendCandidate(d.cell);
                failToAlternative();
            } else {
                ++pc_;
            }
            return true;
          }
          case Op::GuardOtherwise:
            // `otherwise` commits only when every preceding clause
            // failed *definitely*. If some earlier clause met an unbound
            // variable (a suspend candidate exists), this clause must
            // not commit yet: fall through so the goal suspends and the
            // call is retried once the variable is bound.
            if (suspendCands_.empty()) {
                ++pc_;
            } else {
                failToAlternative();
            }
            return true;
          case Op::GuardFail:
            failToAlternative();
            return true;
          case Op::GArith:
          case Op::GArithInt: {
            const Deref dl = deref(regs_[ins.b]);
            if (stalled_)
                return false;
            if (dl.unbound()) {
                noteSuspendCandidate(dl.cell);
                failToAlternative();
                return true;
            }
            if (tagOf(dl.value) != Tag::Int) {
                failToAlternative();
                return true;
            }
            std::int64_t rhs = ins.imm;
            if (ins.op == Op::GArith) {
                const Deref dr = deref(regs_[ins.c]);
                if (stalled_)
                    return false;
                if (dr.unbound()) {
                    noteSuspendCandidate(dr.cell);
                    failToAlternative();
                    return true;
                }
                if (tagOf(dr.value) != Tag::Int) {
                    failToAlternative();
                    return true;
                }
                rhs = intOf(dr.value);
            }
            const std::int64_t lhs = intOf(dl.value);
            std::int64_t result = 0;
            switch (static_cast<ArithKind>(ins.d)) {
              case ArithKind::Add: result = lhs + rhs; break;
              case ArithKind::Sub: result = lhs - rhs; break;
              case ArithKind::Mul: result = lhs * rhs; break;
              case ArithKind::Div:
                if (rhs == 0) { // guard arithmetic fails, never aborts
                    failToAlternative();
                    return true;
                }
                result = lhs / rhs;
                break;
              case ArithKind::Mod:
                if (rhs == 0) {
                    failToAlternative();
                    return true;
                }
                result = lhs % rhs;
                break;
            }
            regs_[ins.a] = makeInt(result);
            ++pc_;
            return true;
          }
          case Op::PutInt:
            regs_[ins.a] = makeInt(ins.imm);
            ++pc_;
            return true;
          case Op::PutAtom:
            regs_[ins.a] = makeAtom(static_cast<AtomId>(ins.imm));
            ++pc_;
            return true;
          case Op::PutVar: {
            const Addr cell = heapAlloc(1);
            mem(MemOp::DW, cell, Area::Heap, makeRef(cell));
            if (stalled_)
                return false;
            regs_[ins.a] = makeRef(cell);
            ++pc_;
            return true;
          }
          case Op::PutList:
            doPutList(ins);
            return !stalled_;
          case Op::PutStruct:
            doPutStruct(ins);
            return !stalled_;
          case Op::Move:
            regs_[ins.a] = regs_[ins.b];
            ++pc_;
            return true;
          case Op::Unify:
            if (!activeUnify(regs_[ins.a], regs_[ins.b]))
                return false;
            ++pc_;
            return true;
          case Op::Arith:
            doArith(ins, false);
            return !stalled_;
          case Op::ArithInt:
            doArith(ins, true);
            return !stalled_;
          case Op::BuiltinResult: {
            emu_.results_.push_back(emu_.format(regs_[ins.a]));
            ++pc_;
            return true;
          }
          case Op::VecNew:
            doVecNew(ins);
            return !stalled_;
          case Op::VecGet:
            doVecGet(ins);
            return !stalled_;
          case Op::VecSet:
            doVecSet(ins, false);
            return !stalled_;
          case Op::VecSetD:
            doVecSet(ins, true);
            return !stalled_;
        }
        PIM_PANIC("unknown opcode");
    }();

    if (!ok) {
        // Lock-stalled: roll back this instruction's heap allocations and
        // retry the whole instruction after the UL wakeup.
        PIM_ASSERT(stalled_);
        heapTop_ = heap_snapshot;
        pc_ = entry_pc;
        return;
    }
    stats_.instructions += 1;
}

void
Machine::doWaitList(const Instr& ins)
{
    const Deref d = deref(regs_[ins.a]);
    if (stalled_)
        return;
    if (d.unbound()) {
        noteSuspendCandidate(d.cell);
        failToAlternative();
        return;
    }
    if (tagOf(d.value) != Tag::List) {
        failToAlternative();
        return;
    }
    const Addr cons = ptrOf(d.value);
    const Word car = mem(MemOp::R, cons, areaOf(cons));
    if (stalled_)
        return;
    const Word cdr = mem(MemOp::R, cons + 1, areaOf(cons));
    if (stalled_)
        return;
    regs_[ins.b] = car;
    regs_[ins.c] = cdr;
    ++pc_;
}

void
Machine::doWaitStruct(const Instr& ins)
{
    const Deref d = deref(regs_[ins.a]);
    if (stalled_)
        return;
    if (d.unbound()) {
        noteSuspendCandidate(d.cell);
        failToAlternative();
        return;
    }
    if (tagOf(d.value) != Tag::Str) {
        failToAlternative();
        return;
    }
    const Addr base = ptrOf(d.value);
    const Word fun = mem(MemOp::R, base, areaOf(base));
    if (stalled_)
        return;
    if (funOf(fun) != static_cast<FunctorId>(ins.imm)) {
        failToAlternative();
        return;
    }
    const std::uint32_t arity = SymbolTable::functorArity(funOf(fun));
    for (std::uint32_t i = 0; i < arity; ++i) {
        const Word arg = mem(MemOp::R, base + 1 + i, areaOf(base));
        if (stalled_)
            return;
        regs_[ins.b + i] = arg;
    }
    ++pc_;
}

void
Machine::doPutList(const Instr& ins)
{
    const Addr cons = heapAlloc(2);
    mem(MemOp::DW, cons, Area::Heap, regs_[ins.b]);
    if (stalled_)
        return;
    mem(MemOp::DW, cons + 1, Area::Heap, regs_[ins.c]);
    if (stalled_)
        return;
    regs_[ins.a] = makeList(cons);
    ++pc_;
}

void
Machine::doPutStruct(const Instr& ins)
{
    const FunctorId functor = static_cast<FunctorId>(ins.imm);
    const std::uint32_t arity = SymbolTable::functorArity(functor);
    const Addr base = heapAlloc(1 + arity);
    mem(MemOp::DW, base, Area::Heap, makeFun(functor));
    if (stalled_)
        return;
    for (std::uint32_t i = 0; i < arity; ++i) {
        mem(MemOp::DW, base + 1 + i, Area::Heap, regs_[ins.b + i]);
        if (stalled_)
            return;
    }
    regs_[ins.a] = makeStr(base);
    ++pc_;
}

void
Machine::doArith(const Instr& ins, bool has_imm)
{
    const Deref dl = deref(regs_[ins.b]);
    if (stalled_)
        return;
    if (dl.unbound() || tagOf(dl.value) != Tag::Int) {
        PIM_FATAL("pe", pe_, ": arithmetic on a non-integer operand (",
                  emu_.format(regs_[ins.b]),
                  "); KL1 body arithmetic requires bound integers");
    }
    std::int64_t rhs = ins.imm;
    if (!has_imm) {
        const Deref dr = deref(regs_[ins.c]);
        if (stalled_)
            return;
        if (dr.unbound() || tagOf(dr.value) != Tag::Int) {
            PIM_FATAL("pe", pe_,
                      ": arithmetic on a non-integer operand (",
                      emu_.format(regs_[ins.c]), ")");
        }
        rhs = intOf(dr.value);
    }
    const std::int64_t lhs = intOf(dl.value);
    std::int64_t result = 0;
    switch (static_cast<ArithKind>(ins.d)) {
      case ArithKind::Add: result = lhs + rhs; break;
      case ArithKind::Sub: result = lhs - rhs; break;
      case ArithKind::Mul: result = lhs * rhs; break;
      case ArithKind::Div:
        if (rhs == 0)
            PIM_FATAL("pe", pe_, ": division by zero");
        result = lhs / rhs;
        break;
      case ArithKind::Mod:
        if (rhs == 0)
            PIM_FATAL("pe", pe_, ": mod by zero");
        result = lhs % rhs;
        break;
    }
    regs_[ins.a] = makeInt(result);
    ++pc_;
}

bool
Machine::vecOperands(const Instr& ins, Addr& base, std::int64_t& size,
                     std::int64_t& index)
{
    const Deref vec = deref(regs_[ins.a]);
    if (stalled_)
        return false;
    if (vec.unbound() || tagOf(vec.value) != Tag::Vec) {
        PIM_FATAL("pe", pe_, ": vector builtin applied to ",
                  emu_.format(regs_[ins.a]),
                  " (synchronize with a guard before the call)");
    }
    const Deref idx = deref(regs_[ins.b]);
    if (stalled_)
        return false;
    if (idx.unbound() || tagOf(idx.value) != Tag::Int) {
        PIM_FATAL("pe", pe_, ": vector index is not a bound integer: ",
                  emu_.format(regs_[ins.b]));
    }
    base = ptrOf(vec.value);
    const Word header = mem(MemOp::R, base, Area::Heap);
    if (stalled_)
        return false;
    size = intOf(header);
    index = intOf(idx.value);
    if (index < 0 || index >= size) {
        PIM_FATAL("pe", pe_, ": vector index ", index,
                  " out of range [0, ", size, ")");
    }
    return true;
}

void
Machine::doVecNew(const Instr& ins)
{
    const Deref size_arg = deref(regs_[ins.a]);
    if (stalled_)
        return;
    if (size_arg.unbound() || tagOf(size_arg.value) != Tag::Int ||
        intOf(size_arg.value) < 0 ||
        intOf(size_arg.value) > (1 << 22)) {
        PIM_FATAL("pe", pe_, ": new_vector size must be a small bound "
                  "integer, got ", emu_.format(regs_[ins.a]));
    }
    const std::uint32_t size =
        static_cast<std::uint32_t>(intOf(size_arg.value));
    const Word init = regs_[ins.b];
    const Addr base = heapAlloc(1 + size);
    mem(MemOp::DW, base, Area::Heap, makeInt(size));
    if (stalled_)
        return;
    for (std::uint32_t i = 0; i < size; ++i) {
        mem(MemOp::DW, base + 1 + i, Area::Heap, init);
        if (stalled_)
            return;
    }
    if (!activeUnify(regs_[ins.c], makeVec(base)))
        return;
    ++pc_;
}

void
Machine::doVecGet(const Instr& ins)
{
    Addr base = 0;
    std::int64_t size = 0;
    std::int64_t index = 0;
    if (!vecOperands(ins, base, size, index))
        return;
    const Word elem = mem(MemOp::R, base + 1 + index, Area::Heap);
    if (stalled_)
        return;
    if (!activeUnify(regs_[ins.c], elem))
        return;
    ++pc_;
}

void
Machine::doVecSet(const Instr& ins, bool destructive)
{
    Addr base = 0;
    std::int64_t size = 0;
    std::int64_t index = 0;
    if (!vecOperands(ins, base, size, index))
        return;
    if (destructive) {
        // MRB-style single-reference update: overwrite in place. The
        // caller asserts (by using the _d builtin) that no other
        // process still references the old vector value.
        mem(MemOp::W, base + 1 + index, Area::Heap, regs_[ins.c]);
        if (stalled_)
            return;
        if (!activeUnify(regs_[ins.d], makeVec(base)))
            return;
        ++pc_;
        return;
    }
    // Pure single-assignment semantics: copy the whole vector.
    const Addr copy = heapAlloc(1 + static_cast<std::uint32_t>(size));
    mem(MemOp::DW, copy, Area::Heap, makeInt(size));
    if (stalled_)
        return;
    for (std::int64_t i = 0; i < size; ++i) {
        Word w;
        if (i == index) {
            w = regs_[ins.c];
        } else {
            w = mem(MemOp::R, base + 1 + i, Area::Heap);
            if (stalled_)
                return;
        }
        mem(MemOp::DW, copy + 1 + i, Area::Heap, w);
        if (stalled_)
            return;
    }
    if (!activeUnify(regs_[ins.d], makeVec(copy)))
        return;
    ++pc_;
}

void
Machine::doSpawn(const Instr& ins)
{
    const std::uint32_t proc = static_cast<std::uint32_t>(ins.a);
    const std::uint32_t nargs = static_cast<std::uint32_t>(ins.b);
    if (retryGoalRec_ == kNoAddr)
        retryGoalRec_ = goalRecAlloc(nargs);
    const Addr rec = retryGoalRec_;
    const Addr old_head = goalList_.empty() ? 0 : goalList_.front();

    mem(goalWriteOp(0), rec + 0, Area::Goal, static_cast<Word>(old_head));
    if (stalled_)
        return;
    mem(goalWriteOp(1), rec + 1, Area::Goal, 0);
    if (stalled_)
        return;
    mem(goalWriteOp(2), rec + 2, Area::Goal,
        packState(GoalState::Queued, proc, 0));
    if (stalled_)
        return;
    for (std::uint32_t i = 0; i < nargs; ++i) {
        mem(goalWriteOp(3 + i), rec + 3 + i, Area::Goal,
            regs_[ins.c + i]);
        if (stalled_)
            return;
    }
    if (old_head != 0) {
        mem(MemOp::W, old_head + 1, Area::Goal, static_cast<Word>(rec));
        if (stalled_)
            return;
    }
    goalList_.push_front(rec);
    retryGoalRec_ = kNoAddr;
    ++pc_;
}

void
Machine::doExecute(const Instr& ins)
{
    const std::uint32_t nargs = static_cast<std::uint32_t>(ins.b);
    for (std::uint32_t i = 0; i < nargs; ++i)
        regs_[i] = regs_[ins.c + i];
    curProc_ = static_cast<std::uint32_t>(ins.a);
    curArgs_.assign(regs_, regs_ + nargs);
    suspendCands_.clear();
    pc_ = emu_.module().procs[curProc_].entryPc;
    failTarget_ = pc_;
    // Periodically drop back to FetchWork so long tail-recursive chains
    // still poll for work requests and service resumptions.
    if (++tailPolls_ >= 4) {
        tailPolls_ = 0;
        mode_ = Mode::FetchWork;
        resumeRun_ = true;
    }
}

void
Machine::doSuspendOrFail()
{
    if (suspendCands_.empty()) {
        PIM_FATAL("pe", pe_, ": goal failed: ",
                  emu_.module().procs[curProc_].name, "/",
                  emu_.module().procs[curProc_].arity,
                  " — no clause commits and no clause can suspend");
    }
    const std::uint32_t nargs =
        static_cast<std::uint32_t>(curArgs_.size());
    if (retryGoalRec_ == kNoAddr)
        retryGoalRec_ = goalRecAlloc(nargs);
    const Addr rec = retryGoalRec_;
    const std::uint64_t seq =
        nextSeq_ * emu_.config().numPes + pe_;

    mem(goalWriteOp(0), rec + 0, Area::Goal, 0);
    if (stalled_)
        return;
    mem(goalWriteOp(1), rec + 1, Area::Goal, 0);
    if (stalled_)
        return;
    mem(goalWriteOp(2), rec + 2, Area::Goal,
        packState(GoalState::Floating, curProc_, seq));
    if (stalled_)
        return;
    for (std::uint32_t i = 0; i < nargs; ++i) {
        mem(goalWriteOp(3 + i), rec + 3 + i, Area::Goal, curArgs_[i]);
        if (stalled_)
            return;
    }

    MicroOp hook;
    hook.kind = MicroOp::Kind::HookVars;
    hook.addr = rec;
    hook.seq = seq;
    hook.vars = suspendCands_;
    pendingWork_.push_back(std::move(hook));

    retryGoalRec_ = kNoAddr;
    nextSeq_ += 1;
    stats_.suspensions += 1;
    emu_.floatingGoals_ += 1;
    suspendCands_.clear();
    mode_ = Mode::FetchWork;
    resumeRun_ = false;
}

} // namespace pim::kl1
