/**
 * @file
 * Property tests: random multi-PE traffic through the coherent caches
 * must match a shadow sequentially-consistent memory, and the protocol
 * invariants (single dirty owner, no exclusive+shared mix, copy equality)
 * must hold at every step — across geometries, PE counts and both the
 * PIM and the Illinois-style protocol variants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "sim/system.h"

namespace pim {
namespace {

struct PropParam {
    std::uint32_t pes;
    std::uint32_t blockWords;
    std::uint32_t ways;
    std::uint32_t sets;
    bool illinois;
    std::uint64_t seed;
};

std::string
paramName(const ::testing::TestParamInfo<PropParam>& info)
{
    const PropParam& p = info.param;
    return "pes" + std::to_string(p.pes) + "_b" +
           std::to_string(p.blockWords) + "_w" + std::to_string(p.ways) +
           "_s" + std::to_string(p.sets) +
           (p.illinois ? "_illinois" : "_pim") + "_seed" +
           std::to_string(p.seed);
}

class CoherenceProp : public ::testing::TestWithParam<PropParam>
{
  protected:
    void
    SetUp() override
    {
        const PropParam& p = GetParam();
        SystemConfig config;
        config.numPes = p.pes;
        config.cache.geometry = {p.blockWords, p.ways, p.sets};
        if (p.illinois)
            config.cache.protocol = ProtocolKind::MESI;
        config.memoryWords = 1 << 20;
        sys_ = std::make_unique<System>(config);
        rng_ = std::make_unique<Rng>(p.seed);
    }

    /** All valid copies of @p addr's block word must agree; at most one
     *  dirty copy; exclusive excludes all other copies. */
    void
    checkInvariants(Addr addr)
    {
        int dirty = 0;
        int valid = 0;
        int exclusive = 0;
        Word value = 0;
        bool have_value = false;
        for (PeId pe = 0; pe < sys_->numPes(); ++pe) {
            const CacheState state = sys_->cache(pe).stateOf(addr);
            if (state == CacheState::INV)
                continue;
            ++valid;
            if (cacheStateDirty(state))
                ++dirty;
            if (cacheStateExclusive(state))
                ++exclusive;
            const Word copy = sys_->cache(pe).loadValue(addr);
            if (!have_value) {
                value = copy;
                have_value = true;
            } else {
                ASSERT_EQ(copy, value)
                    << "copies of " << addr << " disagree";
            }
        }
        ASSERT_LE(dirty, 1) << "two dirty owners of " << addr;
        if (exclusive > 0) {
            ASSERT_EQ(valid, 1)
                << "exclusive copy of " << addr << " coexists with others";
        }
        if (valid > 0 && dirty == 0) {
            // All copies clean: they must equal shared memory (unless a
            // dirty purge intentionally dropped data, which this workload
            // never does).
            ASSERT_EQ(value, sys_->memory().read(addr));
        }
    }

    std::unique_ptr<System> sys_;
    std::unique_ptr<Rng> rng_;
};

TEST_P(CoherenceProp, RandomReadWriteMatchesShadow)
{
    const std::uint64_t span = 512;
    std::map<Addr, Word> shadow;
    Word next_value = 1;

    const int steps = 12000;
    for (int step = 0; step < steps; ++step) {
        const PeId pe =
            static_cast<PeId>(rng_->below(sys_->numPes()));
        if (sys_->parked(pe))
            continue; // only lock ops park; none here, but be safe
        const Addr addr = rng_->below(span);
        if (rng_->chance(35, 100)) {
            const Word value = next_value++;
            sys_->access(pe, MemOp::W, addr, Area::Heap, value);
            shadow[addr] = value;
        } else {
            const System::Access result =
                sys_->access(pe, MemOp::R, addr, Area::Heap, 0);
            const auto it = shadow.find(addr);
            const Word expected = it == shadow.end() ? 0 : it->second;
            ASSERT_EQ(result.data, expected)
                << "step " << step << " pe" << pe << " addr " << addr;
        }
        if (step % 64 == 0)
            checkInvariants(addr);
    }
    // Final sweep: every touched address still consistent.
    for (const auto& [addr, value] : shadow) {
        checkInvariants(addr);
        const PeId pe = static_cast<PeId>(addr % sys_->numPes());
        ASSERT_EQ(sys_->access(pe, MemOp::R, addr, Area::Heap, 0).data,
                  value);
    }
}

TEST_P(CoherenceProp, RandomLockTrafficMatchesShadow)
{
    const std::uint64_t span = 64; // small span: force real conflicts
    std::map<Addr, Word> shadow;
    // Per-PE pending retry op (set when an access lock-waits).
    struct Pending {
        bool active = false;
        MemOp op = MemOp::R;
        Addr addr = 0;
        Word wdata = 0;
    };
    std::vector<Pending> pending(sys_->numPes());
    // Address each PE currently holds locked (kNoAddr if none).
    std::vector<Addr> held(sys_->numPes(), kNoAddr);
    Word next_value = 1;
    std::uint64_t lock_rejects = 0;

    const int steps = 20000;
    for (int step = 0; step < steps; ++step) {
        const PeId pe =
            static_cast<PeId>(rng_->below(sys_->numPes()));
        if (sys_->parked(pe))
            continue;

        MemOp op;
        Addr addr;
        Word wdata = 0;
        if (pending[pe].active) {
            op = pending[pe].op;
            addr = pending[pe].addr;
            wdata = pending[pe].wdata;
        } else if (held[pe] != kNoAddr) {
            // Always release before anything else: no hold-and-wait.
            op = MemOp::UW;
            addr = held[pe];
            wdata = next_value++;
        } else if (rng_->chance(30, 100)) {
            op = MemOp::LR;
            addr = rng_->below(span);
        } else if (rng_->chance(40, 100)) {
            op = MemOp::W;
            addr = rng_->below(span);
            wdata = next_value++;
        } else {
            op = MemOp::R;
            addr = rng_->below(span);
        }

        const System::Access result =
            sys_->access(pe, op, addr, Area::Heap, wdata);
        if (result.lockWait) {
            ++lock_rejects;
            pending[pe] = {true, op, addr, wdata};
            continue;
        }
        pending[pe].active = false;
        switch (op) {
          case MemOp::LR:
            ASSERT_EQ(result.data,
                      shadow.count(addr) ? shadow[addr] : 0);
            held[pe] = addr;
            break;
          case MemOp::UW:
            shadow[addr] = wdata;
            held[pe] = kNoAddr;
            break;
          case MemOp::W:
            shadow[addr] = wdata;
            break;
          case MemOp::R:
            ASSERT_EQ(result.data,
                      shadow.count(addr) ? shadow[addr] : 0);
            break;
          default:
            break;
        }
        if (step % 128 == 0)
            checkInvariants(addr);
    }
    // Drain held locks so the run ends clean.
    for (PeId pe = 0; pe < sys_->numPes(); ++pe) {
        if (held[pe] != kNoAddr)
            sys_->access(pe, MemOp::U, held[pe], Area::Heap, 0);
    }
    // With a 64-word span and this much locking, conflicts must occur on
    // multi-PE systems (sanity that the test exercises the LWAIT path).
    if (sys_->numPes() >= 4) {
        EXPECT_GT(lock_rejects, 0u);
    }
}

TEST_P(CoherenceProp, ProducerConsumerRecordsIntact)
{
    // Write-once/read-once records handed between random PE pairs using
    // the optimized commands; every word must arrive intact even though
    // the blocks are purged and never written back.
    // Records are whole blocks (and at least 8 words) so that distinct
    // rounds never share a block: sharing would break the write-once /
    // read-once contract that DW/ER/RP rely on.
    const std::uint32_t record_words =
        std::max<std::uint32_t>(GetParam().blockWords, 8);
    Addr cursor = 4096; // fresh territory, block aligned
    for (int round = 0; round < 300; ++round) {
        const PeId producer =
            static_cast<PeId>(rng_->below(sys_->numPes()));
        PeId consumer =
            static_cast<PeId>(rng_->below(sys_->numPes()));
        if (consumer == producer)
            consumer = (consumer + 1) % sys_->numPes();
        const Addr rec = cursor;
        cursor += record_words;
        for (std::uint32_t w = 0; w < record_words; ++w) {
            sys_->access(producer, MemOp::DW, rec + w, Area::Goal,
                         0xbeef0000u + round * 64 + w);
        }
        for (std::uint32_t w = 0; w < record_words; ++w) {
            const MemOp op =
                w + 1 == record_words ? MemOp::RP : MemOp::ER;
            const System::Access got =
                sys_->access(consumer, op, rec + w, Area::Goal, 0);
            ASSERT_FALSE(got.lockWait);
            ASSERT_EQ(got.data, 0xbeef0000u + round * 64 + w)
                << "round " << round << " word " << w;
        }
    }
    // The contract was respected: no stale fetches anywhere.
    EXPECT_EQ(sys_->bus().stats().staleFetches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceProp,
    ::testing::Values(
        PropParam{2, 4, 4, 16, false, 1},
        PropParam{4, 4, 2, 8, false, 2},
        PropParam{8, 4, 4, 16, false, 3},
        PropParam{4, 2, 2, 16, false, 4},
        PropParam{4, 8, 2, 8, false, 5},
        PropParam{4, 4, 1, 16, false, 6},
        PropParam{3, 4, 4, 4, false, 7},
        PropParam{4, 4, 2, 8, true, 8},
        PropParam{8, 4, 4, 16, true, 9},
        PropParam{2, 16, 2, 4, false, 10}),
    paramName);

} // namespace
} // namespace pim
