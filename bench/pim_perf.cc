/**
 * @file
 * Simulator-throughput harness for the synthetic bus-heavy stream
 * (docs/PERFORMANCE.md, ctest label `perf`).
 *
 * Unlike the table/figure binaries this does not reproduce a paper
 * number: it measures the *simulator's* hot path. For each PE count it
 * drives one seeded randomized workload and reports wall-clock
 * refs/sec next to the run's simulated observables — cycles/ref, bus
 * transactions, inter-cluster cycles and the workload fingerprint —
 * which are pure functions of the flags.
 *
 * The driver is deliberately lean (no auditor, watchdog, event sinks or
 * ref tracing) so the measurement isolates System::access + Bus rather
 * than the observability stack. Lock traffic holds at most one lock per
 * PE, which cannot deadlock (no hold-and-wait).
 *
 *   pim_perf [--pes=N] [--scale=N] [--reps=N] [--smoke]
 *            [--span=N] [--write-pct=N] [--lock-pct=N] [--opt-pct=N]
 *            [--cluster-size=N] [--hop-cycles=N]
 *            [--json=PATH] [--attribution-out=PATH]
 *
 * Unknown flags are rejected (exit 1).
 *
 * --cluster-size=N partitions the PEs into per-cluster snooping buses
 * joined by a point-to-point crossbar (docs/ARCHITECTURE.md); 0 keeps
 * the paper's single bus.
 *
 * --attribution-out=PATH adds one extra *untimed* run at the largest PE
 * point with the attribution engine attached and writes its miss/cycle
 * report there (schema `attribution`); the timed points stay bare.
 *
 * --smoke shrinks the grid for CI (4000 refs, PE points up to 4 unless
 * --pes is given); wall-clock numbers on loaded machines are noise
 * there, so CI checks only the JSON schema.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bus/bus.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/attribution.h"
#include "sim/ref_source.h"
#include "sim/system.h"

using namespace pim;
using namespace pim::kl1::bench;

namespace {

/** Fingerprint mixer (splitmix64 finalizer over a running hash). */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Multiply-shift uniform draw in [0, n) — the driver sits on the same
 * hot path it measures, so it avoids Rng::below's rejection loop and
 * modulo (the tiny bias is irrelevant for workload generation).
 */
std::uint64_t
draw(Rng& rng, std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(rng.next()) * n) >> 64);
}

/** One timed run's observables. */
struct Measurement {
    double seconds = 0;            ///< Best wall time over the reps.
    std::uint64_t fingerprint = 0; ///< Op/addr/data stream hash.
    std::uint64_t makespan = 0;    ///< Simulated cycles (max PE clock).
    std::uint64_t busTrans = 0;    ///< Bus transactions issued.
    std::uint64_t interCluster = 0; ///< Inter-cluster hop cycles paid.
};

/**
 * Workload shape: bus-heavy so the bus and its snoop walk dominate: a
 * span far larger than the 4K-word caches (high miss rate, so most
 * references reach the bus), write-heavy traffic (every write hit in
 * shared state broadcasts an invalidate), and no locks by default —
 * lock words are cached by every contender, so their residency masks
 * are dense and the walk visits nearly every port. The lock path stays
 * exercised via --lock-pct (and by the stress/conformance suites).
 */
struct Shape {
    Addr spanWords = 32768; ///< >> cache capacity: high miss rate.
    std::uint32_t writePct = 70;
    std::uint32_t lockPct = 0;
    std::uint32_t optPct = 30; ///< DW -> ER/RP share.
};

/**
 * The perf workload as a RefSource: every decision draws from one
 * shared RNG in global simulation order (runRefSource pulls for a PE
 * only after selecting it). The main phase generates traffic until
 * @c steps references completed; the drain phase then releases held
 * locks (no RNG draws) and ends each PE's stream, so no PE is left
 * parked at teardown. Main-phase completions fold (pe, op), address and
 * read data into the fingerprint; drain completions fold the address
 * only.
 */
class PerfSource : public RefSource
{
  public:
    PerfSource(const Shape& shape, std::uint32_t pes, std::uint64_t steps,
               std::uint64_t seed, std::uint64_t block, Addr lock_base,
               std::uint32_t lock_words, Addr rec_base)
        : shape_(shape),
          steps_(steps),
          block_(block),
          lockBase_(lock_base),
          lockWords_(lock_words),
          nextRecord_(rec_base),
          rng_(seed),
          state_(pes)
    {
    }

    std::uint64_t fingerprint() const { return fingerprint_; }

    bool
    next(PeId pe, SourceOp* out) override
    {
        PeState& st = state_[pe];
        out->area = Area::Heap;
        out->wdata = 0;
        if (completed_ >= steps_) {
            if (!st.holdsLock)
                return false;
            out->op = MemOp::U;
            out->addr = st.heldLock;
            return true;
        }
        const std::uint64_t roll = draw(rng_, 100);
        if (roll < shape_.lockPct) {
            // Hold-at-most-one discipline: a holder always releases
            // before acquiring again, so lock traffic can never close a
            // busy-wait cycle.
            if (st.holdsLock) {
                out->addr = st.heldLock;
                if ((rng_.next() & 1) != 0) {
                    out->op = MemOp::UW;
                    out->wdata = rng_.next();
                } else {
                    out->op = MemOp::U;
                }
            } else {
                out->op = MemOp::LR;
                out->addr = lockBase_ + draw(rng_, lockWords_);
            }
        } else if (roll < shape_.lockPct + shape_.optPct) {
            if (!records_.empty() && (rng_.next() & 1) != 0) {
                out->addr = records_.back();
                records_.pop_back();
                out->op = (rng_.next() & 1) != 0 ? MemOp::ER : MemOp::RP;
            } else {
                out->op = MemOp::DW;
                out->addr = nextRecord_;
                nextRecord_ += block_;
                out->wdata = rng_.next();
            }
        } else {
            out->addr = draw(rng_, shape_.spanWords);
            if (draw(rng_, 100) < shape_.writePct) {
                out->op = MemOp::W;
                out->wdata = rng_.next();
            } else {
                out->op = MemOp::R;
            }
        }
        return true;
    }

    void
    complete(PeId pe, const SourceOp& op, Word data) override
    {
        PeState& st = state_[pe];
        if (op.op == MemOp::LR) {
            st.holdsLock = true;
            st.heldLock = op.addr;
        } else if (op.op == MemOp::UW || op.op == MemOp::U) {
            st.holdsLock = false;
        }
        if (completed_ >= steps_) {
            fingerprint_ = mix(fingerprint_, op.addr);
            return;
        }
        if (op.op == MemOp::DW)
            records_.push_back(op.addr);
        completed_ += 1;
        fingerprint_ = mix(fingerprint_,
                           (static_cast<std::uint64_t>(pe) << 8) |
                               static_cast<std::uint64_t>(op.op));
        fingerprint_ = mix(fingerprint_, op.addr);
        fingerprint_ = mix(fingerprint_, data);
    }

  private:
    struct PeState {
        Addr heldLock = 0;
        bool holdsLock = false;
    };

    const Shape& shape_;
    const std::uint64_t steps_;
    const std::uint64_t block_;
    const Addr lockBase_;
    const std::uint32_t lockWords_;
    Addr nextRecord_;
    Rng rng_;
    std::vector<PeState> state_;
    std::vector<Addr> records_; ///< Produced, not yet consumed records.
    std::uint64_t completed_ = 0;
    std::uint64_t fingerprint_ = 0;
};

/**
 * Drive @p steps random references over @p pes PEs, repeated @p reps
 * times; keeps the fastest wall time. Every rep is the same pure
 * function of the seed, so the non-timing observables are identical
 * across reps.
 *
 * When @p attr_out is non-null an AttributionEngine rides along (and is
 * returned through it, with the final BusStats in @p stats_out). Only
 * the dedicated --attribution-out run uses this: the timed points
 * always run bare so the sink never pollutes the measurement. Callers
 * pass reps=1 there — the engine accumulates across reps otherwise.
 */
Measurement
runWorkload(std::uint32_t pes, std::uint64_t steps, std::uint32_t reps,
            std::uint64_t seed, const Shape& shape,
            const ClusterConfig& cluster = ClusterConfig{},
            std::unique_ptr<AttributionEngine>* attr_out = nullptr,
            BusStats* stats_out = nullptr)
{
    Measurement m;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        SystemConfig sys_config;
        sys_config.numPes = pes;
        sys_config.cluster = cluster;
        const std::uint64_t block = sys_config.cache.geometry.blockWords;
        const Addr lock_base = shape.spanWords;
        const std::uint32_t lock_words = std::max<std::uint32_t>(1, pes / 2);
        const Addr rec_base =
            (lock_base + lock_words + block - 1) / block * block;
        sys_config.memoryWords =
            (rec_base + (steps + 2) * block + block - 1) / block * block;
        sys_config.validate();
        System system(sys_config);
        if (attr_out != nullptr) {
            const auto& geom = sys_config.cache.geometry;
            *attr_out = std::make_unique<AttributionEngine>(
                pes, sys_config.timing, geom.blockWords,
                geom.ways * geom.sets);
            system.addEventSink(attr_out->get());
        }
        PerfSource source(shape, pes, steps, seed, block, lock_base,
                          lock_words, rec_base);

        const auto start = std::chrono::steady_clock::now();
        runRefSource(system, source);
        const auto stop = std::chrono::steady_clock::now();

        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        if (rep == 0 || seconds < m.seconds)
            m.seconds = seconds;
        m.fingerprint = source.fingerprint();
        m.makespan = system.makespan();
        m.busTrans = 0;
        for (int p = 0; p < kNumBusPatterns; ++p)
            m.busTrans += system.bus().stats().transByPattern[p];
        m.interCluster = system.bus().stats().interClusterCycles;
        if (stats_out != nullptr)
            *stats_out = system.bus().stats();
    }
    return m;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmt(const char* spec, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

const char* const kKnownFlags[] = {
    "scale", "pes", "json", "smoke", "reps", "span", "write-pct",
    "lock-pct", "opt-pct", "cluster-size", "hop-cycles", "attribution-out",
};

int
perfMain(int argc, char** argv)
{
    if (!flagsAreKnown("pim_perf", argc, argv, kKnownFlags))
        return 1;
    BenchContext ctx = BenchContext::parse(argc, argv);
    // Snoop and scheduling cost grow with the port count, so this
    // harness defaults to 16 PEs (the paper's largest configuration)
    // rather than the table binaries' 8.
    ctx.pes = static_cast<std::uint32_t>(
        ctx.options.getIntEnv("pes", "REPRO_PES", 16));
    const bool smoke = ctx.options.getBool("smoke");
    std::uint32_t reps = static_cast<std::uint32_t>(
        ctx.options.getInt("reps", smoke ? 1 : 3));
    std::uint64_t steps = 40000ull * ctx.scale;
    std::uint32_t max_pes = std::max<std::uint32_t>(1, ctx.pes);
    if (smoke) {
        steps = std::min<std::uint64_t>(steps, 4000);
        // An explicit --pes wins over the smoke cap so CI can smoke wide
        // (e.g. 128-PE clustered) grids without the full step count.
        if (!ctx.options.has("pes"))
            max_pes = std::min<std::uint32_t>(max_pes, 4);
    }

    Shape shape;
    shape.spanWords = static_cast<Addr>(
        ctx.options.getInt("span", static_cast<std::int64_t>(
                                       shape.spanWords)));
    shape.writePct = static_cast<std::uint32_t>(
        ctx.options.getInt("write-pct", shape.writePct));
    shape.lockPct = static_cast<std::uint32_t>(
        ctx.options.getInt("lock-pct", shape.lockPct));
    shape.optPct = static_cast<std::uint32_t>(
        ctx.options.getInt("opt-pct", shape.optPct));

    ClusterConfig cluster;
    cluster.clusterSize = static_cast<std::uint32_t>(
        ctx.options.getInt("cluster-size", 0));
    cluster.hopCycles = static_cast<std::uint32_t>(
        ctx.options.getInt("hop-cycles", cluster.hopCycles));

    banner("pim_perf: simulator throughput", ctx);
    std::printf("%llu refs/point, best of %u reps, span %llu words "
                "(docs/PERFORMANCE.md)\n",
                static_cast<unsigned long long>(steps), reps,
                static_cast<unsigned long long>(shape.spanWords));
    if (cluster.clustered()) {
        std::printf("clustered: %u PEs/bus, %u-cycle hops "
                    "(docs/ARCHITECTURE.md)\n",
                    cluster.clusterSize, cluster.hopCycles);
    }
    std::printf("\n");

    BenchJson json(ctx, "perf");

    std::vector<std::uint32_t> pe_points;
    for (std::uint32_t p = 1; p < max_pes; p *= 2)
        pe_points.push_back(p);
    pe_points.push_back(max_pes);

    Table table("measured: refs/sec per PE point");
    table.setHeader({"PEs", "cycles/ref", "refs/s", "bus txns",
                     "fingerprint"});

    int failures = 0;
    for (std::uint32_t pes : pe_points) {
        const Measurement m =
            runWorkload(pes, steps, reps, /*seed=*/1, shape, cluster);
        const double total_refs = static_cast<double>(steps);
        const double cycles_per_ref =
            static_cast<double>(m.makespan) / total_refs;

        table.addRow({std::to_string(pes), fmt("%.1f", cycles_per_ref),
                      fmt("%.0f", total_refs / m.seconds),
                      std::to_string(m.busTrans), hex(m.fingerprint)});

        json.row();
        json.set("bench", "perf");
        json.set("pes_point", pes);
        json.set("refs", steps);
        json.set("wall_seconds", m.seconds);
        json.set("refs_per_sec", total_refs / m.seconds);
        json.set("cycles_per_ref", cycles_per_ref);
        json.set("bus_transactions", m.busTrans);
        json.set("fingerprint", hex(m.fingerprint));
        json.set("cluster_size", cluster.clusterSize);
        json.set("hop_cycles", cluster.hopCycles);
        json.set("inter_cluster_cycles", m.interCluster);
    }

    std::printf("%s\n", table.toString().c_str());

    const std::string attribution_out =
        ctx.options.getString("attribution-out", "");
    if (!attribution_out.empty()) {
        // One extra untimed run with the engine attached; the timed
        // points above never carry a sink.
        std::unique_ptr<AttributionEngine> attr;
        BusStats attr_stats;
        runWorkload(max_pes, steps, /*reps=*/1, /*seed=*/1, shape, cluster,
                    &attr, &attr_stats);
        const std::string attr_error = attr->crossCheck(attr_stats);
        if (!attr_error.empty()) {
            std::printf("FAIL: attribution cross-check: %s\n",
                        attr_error.c_str());
            ++failures;
        } else if (attr->writeFile(attribution_out, attr_stats)) {
            std::printf("attribution: %llu classified misses -> %s\n",
                        static_cast<unsigned long long>(
                            attr->classifiedMisses()),
                        attribution_out.c_str());
        } else {
            std::printf("FAIL: cannot write %s\n", attribution_out.c_str());
            ++failures;
        }
    }

    if (!json.write())
        return 1;
    if (json.enabled())
        std::printf("json: %s\n", json.path().c_str());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return pim::kl1::bench::runBenchMain("pim_perf",
                                         [&] { return perfMain(argc, argv); });
}
