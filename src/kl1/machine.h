/**
 * @file
 * The per-PE KL1 reduction engine (paper Section 2.2).
 *
 * Each Machine executes compiled KL1-B instructions, driving every load
 * and store through the coherent cache of its PE. One step() performs one
 * unit of work: one instruction, one scheduler action, or one pending
 * micro-operation (suspension hooking / resumption), possibly issuing
 * several memory references.
 *
 * Busy-wait locking: any memory access may be inhibited by a remote lock
 * (LH). The engine then leaves its state intact and returns; the System
 * parks the PE until the UL broadcast, after which step() retries the
 * same unit of work. Units are written to be restartable: pure reads are
 * simply re-issued, allocations are cached across retries
 * (retryGoalRec_), the heap top is rolled back (heapSnapshot_), and
 * already-performed variable bindings re-verify as bound-equal.
 *
 * Storage protocol summary:
 *  - heap: per-PE bump allocation; structure creation uses DW.
 *  - goal records (goal area): block-aligned; created with DW, consumed
 *    with ER/RP (write-once/read-once); doubly linked per-PE goal list.
 *  - suspension records (susp area): 3 words {next, goal, seq}.
 *  - communication area: per-PE mailbox; request slot at +0 guarded by
 *    LR/UW, reply slot at +4 polled with RI (it is rewritten right after
 *    being read — the paper's motivation for read-invalidate).
 */

#ifndef PIMCACHE_KL1_MACHINE_H_
#define PIMCACHE_KL1_MACHINE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "kl1/module.h"
#include "kl1/term.h"
#include "mem/free_list.h"
#include "trace/ref.h"

namespace pim::kl1 {

class Emulator;

/** Goal-record state tags (stored in the record's state word). */
enum class GoalState : std::uint8_t {
    Queued = 1,   ///< On some PE's goal list (or in transit).
    Floating = 2, ///< Suspended; hooked on one or more variables.
};

/** Per-machine statistics (Table 1 of the paper). */
struct MachineStats {
    std::uint64_t reductions = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t resumptions = 0;
    std::uint64_t instructions = 0;
    std::uint64_t steals = 0;
    /**
     * Pure idle spins: steps of an idle machine with the poll gate
     * closed, no steal outstanding and the clock below nextRequestAt_,
     * which touch nothing but the PE's clock and gate.
     */
    std::uint64_t spins = 0;
};

/** One PE's reduction engine. */
class Machine
{
  public:
    friend class GcCollector;

    Machine(PeId pe, Emulator& emu);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /**
     * Perform one unit of work at this PE's local clock.
     * May leave the PE parked on a lock (System::parked).
     */
    void step();

    /** True when this PE has no work at all (for termination detection). */
    bool quiescent() const;

    /**
     * The pure spins the last backoff step jumped over, now that the PE
     * is picked again: the run reached every one of them before this
     * pick. Counts them in stats().spins and returns how many.
     */
    std::uint32_t
    takeJumpedSpins()
    {
        const std::uint32_t spins = jumpSpins_;
        jumpSpins_ = 0;
        stats_.spins += spins;
        return spins;
    }

    /**
     * End of a run with this PE still inside a jump: the run reached only
     * the jumped spins whose pick, (clock, PE) in the scheduler's order,
     * comes before the run's highest pick (@p highest_clock, @p highest_pe).
     * Moves the PE's clock and poll gate back to where the last reached
     * spin left them, counts the reached ones in stats().spins and
     * returns how many.
     */
    std::uint32_t rewindJumpedSpins(Cycles highest_clock, PeId highest_pe);

    const MachineStats& stats() const { return stats_; }
    PeId pe() const { return pe_; }

    /** Number of goals on the local goal list. */
    std::size_t goalListLength() const { return goalList_.size(); }

    /** Seed the initial goal record (used by the Emulator at startup). */
    void seedGoal(Addr record);

    /** Direct heap allocation for query construction (no cache refs). */
    Addr rawHeapAlloc(std::uint32_t nwords);

    /** Goal-record allocation helpers (shared with the Emulator). */
    Addr goalRecAlloc(std::uint32_t arity);
    void goalRecFree(Addr rec, std::uint32_t arity);
    std::uint32_t goalRecWords(std::uint32_t arity) const;

  private:
    // -- pending micro-operations -----------------------------------------
    struct MicroOp {
        enum class Kind {
            ResumeWalk, ///< Walk a suspension list: addr = susp record.
            ResumeGoal, ///< Try to requeue a floating goal: addr = record.
            HookVars,   ///< Hook a freshly suspended goal onto its vars.
        };
        Kind kind;
        Addr addr = 0;
        std::uint64_t seq = 0;
        // HookVars only:
        std::vector<Addr> vars;
        std::size_t varIndex = 0;
        std::uint32_t hooked = 0;
        bool anyBound = false;
    };

    enum class Mode { FetchWork, Run };

    // -- memory helpers ----------------------------------------------------
    /** Issue one access; sets stalled_ (and returns 0) on lock-wait. */
    Word mem(MemOp op, Addr addr, Area area, Word wdata = 0);

    /** Read @p addr holding our own lock if we have it, else LR. */
    bool lockCell(Addr addr, Word& value);
    void unlockCell(Addr addr, bool write, Word value);

    /** Classify a heap/goal/susp/comm address (cached layout queries). */
    Area areaOf(Addr addr) const;

    Addr heapAlloc(std::uint32_t nwords);

    // -- dereferencing and unification --------------------------------------
    struct Deref {
        Word value = 0;      ///< Final word (value, or the unbound cell's
                             ///< own content).
        Addr cell = kNoAddr; ///< Unbound cell address, kNoAddr if bound.
        bool unbound() const { return cell != kNoAddr; }
    };
    Deref deref(Word w);

    enum class PassiveResult { Ok, Fail, Suspend };
    PassiveResult passiveUnify(Word a, Word b);

    /** Active unification; true on success, false when stalled. */
    bool activeUnify(Word a, Word b);

    /** Bind locked unbound cell (old content @p old_value) to @p value,
     *  scheduling the resumption walk for any hooked suspensions. */
    void bindLockedCell(Addr cell, Word old_value, Word value);

    // -- instruction execution ----------------------------------------------
    void runInstr();
    void failToAlternative();
    void noteSuspendCandidate(Addr cell);
    void startGoal(std::uint32_t proc, const Word* args,
                   std::uint32_t nargs);
    void doSpawn(const Instr& ins);
    void doExecute(const Instr& ins);
    void doSuspendOrFail();
    bool doUnifyInstr(const Instr& ins);
    void doWaitList(const Instr& ins);
    void doWaitStruct(const Instr& ins);
    void doPutList(const Instr& ins);
    void doPutStruct(const Instr& ins);
    void doArith(const Instr& ins, bool has_imm);
    void doVecNew(const Instr& ins);
    void doVecGet(const Instr& ins);
    void doVecSet(const Instr& ins, bool destructive);

    /** Deref a register to a bound vector + integer index;
     *  SimFault(Program) otherwise. Returns false when stalled. */
    bool vecOperands(const Instr& ins, Addr& base, std::int64_t& size,
                     std::int64_t& index);

    // -- scheduler / FetchWork ----------------------------------------------
    void stepFetchWork();
    bool processMicroOp();
    bool doDonation();
    bool pollRequests();
    bool dequeueLocal();
    void stepIdle();
    bool readGoalRecord(Addr rec, PeId owner, bool remote);
    void finishGoalFetch();

    /** Goal-record state word encoding. */
    static Word
    packState(GoalState state, std::uint32_t proc, std::uint64_t seq)
    {
        return (seq << 20) | (static_cast<Word>(proc) << 4) |
               static_cast<Word>(state);
    }

    static GoalState
    stateTag(Word w)
    {
        return static_cast<GoalState>(w & 0xf);
    }

    static std::uint32_t procOf(Word w) { return (w >> 4) & 0xffff; }
    static std::uint64_t seqOf(Word w) { return w >> 20; }

    PeId pe_;
    Emulator& emu_;

    // Register file and current-goal context.
    Word regs_[kNumRegs] = {};
    std::uint32_t curProc_ = 0;
    std::vector<Word> curArgs_;
    std::vector<Addr> suspendCands_;
    std::uint32_t pc_ = 0;
    std::uint32_t failTarget_ = 0;
    Mode mode_ = Mode::FetchWork;
    bool stalled_ = false;
    bool resumeRun_ = false;
    std::uint32_t tailPolls_ = 0;

    /**
     * Goal records are aligned to cache blocks. The record's first block
     * holds the state word, which stale resumptions may read long after
     * the record was consumed and recycled: that block must stay under
     * the normal coherence protocol (plain W/R — never DW-allocated or
     * purged, or a stale "Floating" value could surface from memory).
     * Only the argument words beyond goalOptCutoff_ are strict
     * write-once/read-once and use DW / ER / RP.
     */
    std::uint32_t goalAlign_ = 4;
    std::uint32_t goalOptCutoff_ = 4;

    /** Memory operation for writing goal-record word at @p offset. */
    MemOp
    goalWriteOp(std::uint32_t offset) const
    {
        return offset < goalOptCutoff_ ? MemOp::W : MemOp::DW;
    }

    // Goal management.
    std::deque<Addr> goalList_; ///< Host mirror of the memory list.
    FreeList goalArea_;
    FreeList suspArea_;
    Addr heapTop_;
    Addr heapEnd_;
    bool heapLowHalf_ = true; ///< Which semispace is active (GC mode).
    Addr heapSnapshot_ = kNoAddr; ///< Roll-back point on lock-stall.
    Addr retryGoalRec_ = kNoAddr; ///< Allocation cached across retries.
    std::uint64_t nextSeq_ = 1;

    // Pending micro-operations (resumptions, hooking).
    std::deque<MicroOp> pendingWork_;

    // Scheduler state.
    Addr commBase_;
    PeId donationRequester_ = kNoPe;
    Addr donationRec_ = kNoAddr;
    bool stealOutstanding_ = false;
    PeId nextVictim_;
    /** Exponential backoff after declined steal requests, so idle PEs do
     *  not saturate the common bus with request traffic. */
    Cycles nextRequestAt_ = 0;
    Cycles stealBackoff_ = 64;
    std::uint32_t idlePollGate_ = 0;
    /** The last backoff step's clock and the pure spins it jumped over
     *  (0 once takeJumpedSpins or rewindJumpedSpins counted them). */
    Cycles jumpBase_ = 0;
    std::uint32_t jumpSpins_ = 0;
    // In-progress goal-record read (local dequeue or remote steal).
    Addr fetchRec_ = kNoAddr;
    PeId fetchOwner_ = 0;
    bool fetchRemote_ = false;
    std::uint32_t fetchIdx_ = 0;
    std::uint32_t fetchArity_ = 0;
    Word fetchState_ = 0;
    std::vector<Word> fetchArgs_;

    MachineStats stats_;
};

} // namespace pim::kl1

#endif // PIMCACHE_KL1_MACHINE_H_
