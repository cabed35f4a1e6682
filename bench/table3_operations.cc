/**
 * @file
 * Reproduces Table 3 of the paper: "Percentage of Memory References by
 * Operation" — the split between R, LR, W and UW+U, over all references,
 * over data references only, and over heap references (optimized
 * commands counted as their plain equivalents, as the paper does).
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Table 3: % Memory References by Operation", ctx);

    struct Row {
        std::string name;
        double all[4] = {};  // R, LR, W, UW+U over inst+data
        double data[4] = {}; // over data refs
        double heap[4] = {}; // over heap refs
    };
    std::vector<Row> rows;

    for (const BenchProgram& bench : allBenchmarks()) {
        const BenchResult r = runBenchmark(
            bench, ctx.scale, paperConfig(ctx.pes, OptPolicy::none()));
        Row row;
        row.name = bench.name;
        const RefStats& refs = r.refs;
        const double total = static_cast<double>(refs.total());
        const double data = static_cast<double>(refs.dataTotal());
        const double heap =
            static_cast<double>(refs.areaTotal(Area::Heap));

        auto fill = [&](double* out, auto getter, double denom) {
            out[0] = pct(getter(MemOp::R), denom);
            out[1] = pct(getter(MemOp::LR), denom);
            out[2] = pct(getter(MemOp::W), denom);
            out[3] = pct(getter(MemOp::UW) + getter(MemOp::U), denom);
        };
        fill(row.all,
             [&](MemOp op) {
                 return static_cast<double>(refs.opTotalDemoted(op));
             },
             total);
        fill(row.data,
             [&](MemOp op) {
                 return static_cast<double>(refs.opTotalDemoted(op)) -
                        static_cast<double>(refs.opTotalDemoted(
                            Area::Instruction, op));
             },
             data);
        fill(row.heap,
             [&](MemOp op) {
                 return static_cast<double>(
                     refs.opTotalDemoted(Area::Heap, op));
             },
             heap);
        rows.push_back(row);
    }

    auto section = [&](const char* caption, double (Row::*field)[4]) {
        Table table(caption);
        table.setHeader({"", "R", "LR", "W", "UW+U"});
        std::vector<std::vector<double>> cols(4);
        for (const Row& row : rows) {
            std::vector<std::string> cells = {row.name};
            for (int k = 0; k < 4; ++k) {
                cells.push_back(fmtFixed((row.*field)[k], 2));
                cols[k].push_back((row.*field)[k]);
            }
            table.addRow(cells);
        }
        table.addRule();
        std::vector<std::string> mean_cells = {"E"};
        std::vector<std::string> sd_cells = {"sigma"};
        for (const auto& col : cols) {
            mean_cells.push_back(fmtFixed(mean(col), 2));
            sd_cells.push_back(fmtFixed(stddev(col), 2));
        }
        table.addRow(mean_cells);
        table.addRow(sd_cells);
        table.print(std::cout);
        std::printf("\n");
    };

    section("measured: % of all references (inst+data)", &Row::all);
    section("measured: % of data references", &Row::data);
    section("measured: % of heap references", &Row::heap);

    std::printf(
        "paper Table 3:\n"
        "  E(inst+data): R 78.95  LR 2.66  W 15.71  UW+U 2.70\n"
        "  E(data):      R 58.91  LR 5.14  W 30.73  UW+U 5.22\n"
        "  E(heap):      R 57.64  LR 10.39 W 21.38  UW+U 10.60\n"
        "  heap rows:    Tri 54.62/12.06/21.27/12.06,"
        " Semi 93.17/1.70/3.42/1.71,\n"
        "                Puzzle 41.88/11.90/34.26/11.96,"
        " Pascal 40.87/15.88/26.57/16.68\n"
        "\nShape checks: reads dominate; data-write frequency is tens of"
        "\npercent (single assignment); lock/unlock traffic is a"
        "\nnon-negligible share of heap references; Semi is read-mostly.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "table3_operations", [&] { return pim::kl1::bench::run(argc, argv); });
}
