/**
 * @file
 * Reproduces Table 5 of the paper: "Hit Ratios of No Cost Lock
 * Operations" — the fraction of LR operations that hit in the cache, hit
 * in an exclusive block (and therefore cost zero bus cycles), and the
 * fraction of unlocks that find no waiter (also free).
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

struct PaperRow {
    const char* bench;
    double lr_hit, lr_excl, unlock_free;
};

const PaperRow kPaper[] = {
    {"Tri", 0.743, 0.658, 0.999},
    {"Semi", 0.912, 0.910, 0.993},
    {"Puzzle", 0.959, 0.954, 0.997},
    {"Pascal", 0.847, 0.816, 0.976},
};

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Table 5: Hit Ratios of No-Cost Lock Operations", ctx);

    Table table("measured");
    table.setHeader({"", "Tri", "Semi", "Puzzle", "Pascal"});
    std::vector<std::string> hit = {"LR hit-ratio"};
    std::vector<std::string> excl = {"LR hit-to-Exclusive"};
    std::vector<std::string> free_unlock = {"U,UW hit-to-No-waiter"};
    std::vector<std::string> lock_share = {"(LR share of refs %)"};

    for (const PaperRow& row : kPaper) {
        const BenchResult r =
            runBenchmark(benchmarkByName(row.bench), ctx.scale,
                         paperConfig(ctx.pes));
        const CacheStats& c = r.cache;
        const double lr = static_cast<double>(c.lrCount);
        const double un = static_cast<double>(c.unlockCount);
        hit.push_back(fmtFixed(
            lr == 0 ? 0 : static_cast<double>(c.lrHit) / lr, 3));
        excl.push_back(fmtFixed(
            lr == 0 ? 0 : static_cast<double>(c.lrHitExclusive) / lr, 3));
        free_unlock.push_back(fmtFixed(
            un == 0 ? 0 : static_cast<double>(c.unlockNoWaiter) / un, 3));
        lock_share.push_back(
            fmtFixed(pct(lr, static_cast<double>(r.refs.total())), 2));
    }
    table.addRow(hit);
    table.addRow(excl);
    table.addRow(free_unlock);
    table.addRule();
    table.addRow(lock_share);
    table.print(std::cout);

    std::printf("\npaper Table 5:\n");
    Table paper("");
    paper.setHeader({"", "Tri", "Semi", "Puzzle", "Pascal"});
    std::vector<std::string> p1 = {"LR hit-ratio"};
    std::vector<std::string> p2 = {"LR hit-to-Exclusive"};
    std::vector<std::string> p3 = {"U,UW hit-to-No-waiter"};
    for (const PaperRow& row : kPaper) {
        p1.push_back(fmtFixed(row.lr_hit, 3));
        p2.push_back(fmtFixed(row.lr_excl, 3));
        p3.push_back(fmtFixed(row.unlock_free, 3));
    }
    paper.addRow(p1);
    paper.addRow(p2);
    paper.addRow(p3);
    paper.print(std::cout);

    std::printf(
        "\nShape checks: a high fraction of lock reads hit exclusive"
        "\nblocks, and unlocks to non-waiting locks are nearly all free —"
        "\nthe paper's claim that the lock protocol removes almost all"
        "\nlock/unlock bus traffic.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "table5_locks", [&] { return pim::kl1::bench::run(argc, argv); });
}
