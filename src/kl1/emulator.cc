#include "kl1/emulator.h"

#include <algorithm>
#include <exception>

#include "common/sim_fault.h"
#include "common/xassert.h"
#include "kl1/gc.h"
#include "kl1/parser.h"

namespace pim::kl1 {

namespace {

/** @p config's machine; its memory keeps SystemConfig's default size. */
SystemConfig
systemFor(const Kl1Config& config)
{
    SystemConfig sys;
    sys.numPes = config.numPes;
    sys.cache = config.cache;
    sys.timing = config.timing;
    sys.policy = config.policy;
    sys.cluster = config.cluster;
    return sys;
}

/**
 * @p config's address-space layout. The machine is validated first: the
 * Layout asserts on zero PEs, and a configuration is outside input.
 */
LayoutConfig
layoutFor(const Kl1Config& config)
{
    systemFor(config).validate();
    LayoutConfig layout = config.layout;
    layout.numPes = config.numPes;
    return layout;
}

/** @p config's machine with memory covering every @p layout area. */
SystemConfig
systemFor(const Kl1Config& config, const Layout& layout)
{
    SystemConfig sys = systemFor(config);
    // Rounded up to whole cache blocks (layoutFor validated blockWords).
    const std::uint64_t block = sys.cache.geometry.blockWords;
    sys.memoryWords = (layout.totalWords() + block - 1) / block * block;
    sys.validate(layout.totalWords());
    return sys;
}

} // namespace

Emulator::Emulator(Module module, const Kl1Config& config)
    : config_(config),
      module_(std::move(module)),
      layout_(layoutFor(config)),
      sys_(std::make_unique<System>(systemFor(config, layout_)))
{
    PIM_ASSERT(module_.totalWords() > 0 || module_.code.empty(),
               "module not finalized");
    if (module_.totalWords() > layout_.instrRange().size) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "compiled code (",
                            module_.totalWords(),
                            " words) does not fit the instruction area (",
                            layout_.instrRange().size,
                            " words); increase LayoutConfig::instrWords");
    }
    machines_.reserve(config_.numPes);
    for (PeId pe = 0; pe < config_.numPes; ++pe)
        machines_.push_back(std::make_unique<Machine>(pe, *this));
}

Emulator::~Emulator() = default;

Word
Emulator::peek(Addr addr) const
{
    // Any valid cached copy carries the current value (copies of a block
    // are identical under the protocol invariants); fall back to memory.
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (sys_->cache(pe).present(addr))
            return sys_->cache(pe).loadValue(addr);
    }
    return sys_->memory().read(addr);
}

std::string
Emulator::format(Word w) const
{
    return formatTerm(w, *this, module_.symbols);
}

Word
Emulator::buildQueryTerm(const PTerm& term,
                         std::vector<std::pair<std::string, Addr>>& vars)
{
    Machine& m0 = *machines_[0];
    PagedStore& memory = sys_->memory();
    switch (term.kind) {
      case PTerm::Kind::Int:
        return makeInt(term.value);
      case PTerm::Kind::Atom:
        return makeAtom(module_.symbols.intern(term.name));
      case PTerm::Kind::Var: {
        if (!term.isAnonymousVar()) {
            for (const auto& [name, addr] : vars) {
                if (name == term.name)
                    return makeRef(addr);
            }
        }
        const Addr cell = m0.rawHeapAlloc(1);
        memory.write(cell, makeRef(cell));
        if (!term.isAnonymousVar())
            vars.emplace_back(term.name, cell);
        return makeRef(cell);
      }
      case PTerm::Kind::List: {
        const Word car = buildQueryTerm(term.args[0], vars);
        const Word cdr = buildQueryTerm(term.args[1], vars);
        const Addr cons = m0.rawHeapAlloc(2);
        memory.write(cons, car);
        memory.write(cons + 1, cdr);
        return makeList(cons);
      }
      case PTerm::Kind::Struct: {
        std::vector<Word> args;
        args.reserve(term.args.size());
        for (const PTerm& arg : term.args)
            args.push_back(buildQueryTerm(arg, vars));
        const Addr base = m0.rawHeapAlloc(
            1 + static_cast<std::uint32_t>(args.size()));
        memory.write(base, makeFun(SymbolTable::functor(
                               module_.symbols.intern(term.name),
                               static_cast<std::uint32_t>(args.size()))));
        for (std::size_t i = 0; i < args.size(); ++i)
            memory.write(base + 1 + i, args[i]);
        return makeStr(base);
      }
    }
    PIM_PANIC("unreachable query term kind");
}

RunStats
Emulator::run(const std::string& query)
{
    // Parse the query and seed PE0's goal list with it (direct memory
    // writes: the caches are still empty, so this is setup, not traffic).
    const PTerm goal = parseGoalTerm(query);
    if (goal.kind != PTerm::Kind::Atom && goal.kind != PTerm::Kind::Struct) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "query must be a goal, e.g. \"main(10,R)\": ",
                            query);
    }
    const std::uint32_t arity =
        static_cast<std::uint32_t>(goal.args.size());
    const std::uint32_t proc = module_.procId(goal.name, arity);

    queryVars_.clear();
    std::vector<Word> args;
    for (const PTerm& arg : goal.args)
        args.push_back(buildQueryTerm(arg, queryVars_));

    Machine& m0 = *machines_[0];
    const Addr rec = m0.goalRecAlloc(arity);
    PagedStore& memory = sys_->memory();
    memory.write(rec + 0, 0);
    memory.write(rec + 1, 0);
    memory.write(rec + 2, (0ull << 20) |
                              (static_cast<Word>(proc) << 4) |
                              static_cast<Word>(GoalState::Queued));
    for (std::uint32_t i = 0; i < arity; ++i)
        memory.write(rec + 3 + i, args[i]);
    m0.seedGoal(rec);

    // Bounded execution: the guard is polled here every step and inside
    // System::access on every memory reference, so a non-terminating
    // program raises SimFault(Timeout) instead of spinning forever. The
    // attach is scoped — the guard is a local and must not outlive run().
    // A fault leaving run() also ends the run: its lock waiters are
    // un-parked, so the System can be torn down once the caller has
    // handled the fault.
    RunGuard guard(config_.timeoutSeconds > 0
                       ? Deadline::afterSeconds(config_.timeoutSeconds)
                       : Deadline::never());
    struct RunExit {
        System& sys;
        int uncaught = std::uncaught_exceptions();
        ~RunExit()
        {
            sys.setRunGuard(nullptr);
            if (std::uncaught_exceptions() > uncaught)
                sys.abandonParkedWaiters();
        }
    } onExit{*sys_};
    if (config_.timeoutSeconds > 0)
        sys_->setRunGuard(&guard);

    // The run loop: always step the earliest non-parked PE, which the
    // System's scheduler keeps at hand. Only a machine's own step changes
    // what quiescent() reads (GC only reads it), so the count of busy
    // machines is kept around each step instead of scanning them all.
    std::uint64_t steps = 0;
    std::uint32_t busy = 0;
    for (const auto& machine : machines_)
        busy += !machine->quiescent();
    for (;;) {
        guard.poll();
        if (gcRequested_ && gcQuiescent()) {
            gcRequested_ = false;
            GcCollector(*this).collect();
        }
        // Quiescent: no runnable or in-flight work anywhere. Suspended
        // (floating) goals with no producer left are a program deadlock,
        // reported after the loop.
        if (goalsInTransit_ == 0 && busy == 0)
            break;

        const PeId pe = sys_->earliestRunnable();
        if (pe == kNoPe) {
            throw PIM_SIM_FAULT(SimFaultKind::Deadlock,
                                "every PE with work left is busy-waiting "
                                "on a lock");
        }
        Machine& machine = *machines_[pe];
        busy -= !machine.quiescent();
        machine.step();
        busy += !machine.quiescent();
        ++steps;
        if (config_.maxSteps != 0 && steps > config_.maxSteps) {
            // A recoverable, classified fault (not a process abort): the
            // sweep runner records the point as failed and the grid
            // keeps draining.
            throw PIM_SIM_FAULT(SimFaultKind::Timeout,
                                "emulation exceeded maxSteps (",
                                config_.maxSteps,
                                "); the program may not terminate");
        }
    }

    RunStats stats;
    for (const auto& machine : machines_) {
        stats.reductions += machine->stats().reductions;
        stats.suspensions += machine->stats().suspensions;
        stats.resumptions += machine->stats().resumptions;
        stats.instructions += machine->stats().instructions;
        stats.steals += machine->stats().steals;
    }
    stats.memoryRefs = sys_->refStats().total();
    stats.makespan = sys_->makespan();
    stats.deadlockedGoals = static_cast<std::uint64_t>(
        std::max<std::int64_t>(floatingGoals_, 0));
    stats.gc = gcStats_;
    if (stats.deadlockedGoals > 0 && config_.failOnDeadlock) {
        throw PIM_SIM_FAULT(SimFaultKind::Program, "program deadlock: ",
                            stats.deadlockedGoals,
                            " goal(s) remain suspended with no producer "
                            "left");
    }
    return stats;
}

bool
Emulator::gcQuiescent() const
{
    // No PE parked implies no lock held mid-operation *except* a lock
    // retained across a just-delivered UL wakeup; check both.
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (sys_->parked(pe))
            return false;
        if (sys_->cache(pe).lockDirectory().heldCount() != 0)
            return false;
    }
    return true;
}

std::vector<std::pair<std::string, std::string>>
Emulator::queryBindings() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(queryVars_.size());
    for (const auto& [name, addr] : queryVars_)
        out.emplace_back(name, format(makeRef(addr)));
    return out;
}

} // namespace pim::kl1
