#include "cache/lock_directory.h"

#include <algorithm>

#include "common/sim_fault.h"
#include "common/xassert.h"
#include "obs/event_sink.h"

namespace pim {

LockDirectory::LockDirectory(PeId owner, std::uint32_t entries, Bus* bus,
                             std::uint32_t block_words)
    : owner_(owner),
      entries_(entries),
      bus_(bus),
      blockWords_(block_words),
      slots_(entries)
{
    PIM_ASSERT(entries >= 1);
    PIM_ASSERT(bus == nullptr || block_words >= 1,
               "a bus-connected lock directory needs the block size to "
               "maintain block-granular lock residency");
}

void
LockDirectory::refreshResidency(Addr word_addr)
{
    if (bus_ == nullptr)
        return;
    const Addr block = word_addr - word_addr % blockWords_;
    bool resident = false;
    for (const Entry& slot : slots_) {
        if (slot.state != LockState::EMP && slot.addr >= block &&
            slot.addr < block + blockWords_) {
            resident = true;
            break;
        }
    }
    if (!resident) {
        for (Addr ghost : ghosts_) {
            if (ghost >= block && ghost < block + blockWords_) {
                resident = true;
                break;
            }
        }
    }
    bus_->noteLockResidency(owner_, block, resident);
}

void
LockDirectory::acquire(Addr word_addr, Cycles when)
{
    PIM_ASSERT(!holds(word_addr), "pe", owner_,
               " re-locking an address it already holds: ", word_addr);
    for (Entry& slot : slots_) {
        if (slot.state == LockState::EMP) {
            slot.addr = word_addr;
            slot.state = LockState::LCK;
            refreshResidency(word_addr);
            if (sink_ != nullptr)
                sink_->onLockTransition(owner_, word_addr, LockState::EMP,
                                        LockState::LCK, when);
            return;
        }
    }
    throw PIM_SIM_FAULT(SimFaultKind::Config, "lock directory of pe", owner_,
                        " is full (", entries_, " entries); the program "
                        "nests more locks than CacheConfig::lockEntries");
}

bool
LockDirectory::holds(Addr word_addr) const
{
    for (const Entry& slot : slots_) {
        if (slot.state != LockState::EMP && slot.addr == word_addr)
            return true;
    }
    return false;
}

LockState
LockDirectory::stateOf(Addr word_addr) const
{
    for (const Entry& slot : slots_) {
        if (slot.state != LockState::EMP && slot.addr == word_addr)
            return slot.state;
    }
    return LockState::EMP;
}

bool
LockDirectory::release(Addr word_addr, Cycles when)
{
    for (Entry& slot : slots_) {
        if (slot.state != LockState::EMP && slot.addr == word_addr) {
            const LockState from = slot.state;
            bool had_waiter = slot.state == LockState::LWAIT;
            if (had_waiter && injector_ != nullptr) {
                // Injected fault: the entry never leaves LWAIT — a ghost
                // stays behind that answers LH forever, while the UL
                // still goes out and wakes the (doomed) waiters.
                if (injector_->fire(FaultSite::StuckLwait))
                    ghosts_.push_back(word_addr);
                // Injected fault: the LWAIT state is misread as LCK, so
                // the controller skips the UL broadcast and every parked
                // PE sleeps forever.
                if (injector_->fire(FaultSite::LostUnlock))
                    had_waiter = false;
            }
            slot.state = LockState::EMP;
            slot.addr = kNoAddr;
            // After both the slot clear and a possible ghost insertion:
            // a ghost in the same block keeps the block lock-resident.
            refreshResidency(word_addr);
            if (sink_ != nullptr)
                sink_->onLockTransition(owner_, word_addr, from,
                                        LockState::EMP, when);
            return had_waiter;
        }
    }
    PIM_PANIC("pe", owner_, " unlocking an address it does not hold: ",
              word_addr);
}

std::uint32_t
LockDirectory::heldCount() const
{
    std::uint32_t count = 0;
    for (const Entry& slot : slots_) {
        if (slot.state != LockState::EMP)
            ++count;
    }
    return count;
}

bool
LockDirectory::snoopLockCheck(Addr block_addr, std::uint32_t block_words,
                              Cycles when)
{
    bool hit = false;
    for (Entry& slot : slots_) {
        if (slot.state != LockState::EMP &&
            slot.addr >= block_addr &&
            slot.addr < block_addr + block_words) {
            if (sink_ != nullptr && slot.state == LockState::LCK)
                sink_->onLockTransition(owner_, slot.addr, LockState::LCK,
                                        LockState::LWAIT, when);
            slot.state = LockState::LWAIT;
            hit = true;
        }
    }
    // Ghost entries from injected StuckLwait faults answer LH forever.
    for (Addr ghost : ghosts_) {
        if (ghost >= block_addr && ghost < block_addr + block_words)
            hit = true;
    }
    return hit;
}

std::vector<std::pair<Addr, LockState>>
LockDirectory::entries() const
{
    std::vector<std::pair<Addr, LockState>> out;
    for (const Entry& slot : slots_) {
        if (slot.state != LockState::EMP)
            out.emplace_back(slot.addr, slot.state);
    }
    return out;
}

void
LockDirectory::snapshotState(std::vector<std::uint64_t>& out) const
{
    std::vector<std::pair<Addr, LockState>> held = entries();
    std::sort(held.begin(), held.end());
    out.push_back(held.size());
    for (const auto& [addr, state] : held) {
        out.push_back(addr);
        out.push_back(static_cast<std::uint64_t>(state));
    }
    std::vector<Addr> ghosts = ghosts_;
    std::sort(ghosts.begin(), ghosts.end());
    out.push_back(ghosts.size());
    for (Addr ghost : ghosts)
        out.push_back(ghost);
}

} // namespace pim
