/**
 * @file
 * Reproduces Table 2 of the paper: "% Memory References and Bus Cycles
 * by Area" — how the five KL1 storage areas (instruction, heap, goal,
 * suspension, communication) split the memory references and the common
 * bus cycles, on the base cache with NO optimized commands.
 *
 * Paper configuration: 8 PEs, 4-Kword four-way set-associative I+D
 * caches with four-word blocks, 8-cycle memory, one-word bus.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

const Area kDataAreas[] = {Area::Heap, Area::Goal, Area::Susp,
                           Area::Comm};

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Table 2: % Memory References and Bus Cycles by Area", ctx);

    struct Row {
        std::string name;
        double refPct[6] = {};   // by Area enum index
        double busPct[6] = {};
        double dataRefPct[6] = {};
        double dataBusPct[6] = {};
    };
    std::vector<Row> rows;

    for (const BenchProgram& bench : allBenchmarks()) {
        const BenchResult r = runBenchmark(
            bench, ctx.scale, paperConfig(ctx.pes, OptPolicy::none()));
        Row row;
        row.name = bench.name;
        const double total_refs = static_cast<double>(r.refs.total());
        const double data_refs = static_cast<double>(r.refs.dataTotal());
        double total_bus = 0;
        double data_bus = 0;
        for (int a = 0; a < kNumAreaSlots; ++a)
            total_bus += static_cast<double>(r.bus.cyclesByArea[a]);
        data_bus = total_bus -
                   static_cast<double>(r.bus.cyclesByArea[static_cast<int>(
                       Area::Instruction)]);
        for (int a = 0; a < kNumAreaSlots; ++a) {
            const Area area = static_cast<Area>(a);
            row.refPct[a] =
                pct(static_cast<double>(r.refs.areaTotal(area)),
                    total_refs);
            row.busPct[a] = pct(
                static_cast<double>(r.bus.cyclesByArea[a]), total_bus);
            row.dataRefPct[a] =
                area == Area::Instruction
                    ? 0.0
                    : pct(static_cast<double>(r.refs.areaTotal(area)),
                          data_refs);
            row.dataBusPct[a] =
                area == Area::Instruction
                    ? 0.0
                    : pct(static_cast<double>(r.bus.cyclesByArea[a]),
                          data_bus);
        }
        rows.push_back(row);
    }

    auto section = [&](const char* caption,
                       double (Row::*field)[6], bool include_inst) {
        Table table(caption);
        std::vector<std::string> header = {"", "inst", "data"};
        for (Area area : kDataAreas)
            header.push_back(areaName(area));
        table.setHeader(header);
        std::vector<std::vector<double>> columns(6);
        for (const Row& row : rows) {
            std::vector<std::string> cells = {row.name};
            const double inst =
                (row.*field)[static_cast<int>(Area::Instruction)];
            cells.push_back(include_inst ? fmtFixed(inst, 2) : "-");
            double data = 0;
            for (Area area : kDataAreas)
                data += (row.*field)[static_cast<int>(area)];
            cells.push_back(fmtFixed(data, 2));
            columns[0].push_back(inst);
            columns[1].push_back(data);
            int k = 2;
            for (Area area : kDataAreas) {
                const double v = (row.*field)[static_cast<int>(area)];
                cells.push_back(fmtFixed(v, 2));
                columns[k++].push_back(v);
            }
            table.addRow(cells);
        }
        table.addRule();
        std::vector<std::string> mean_cells = {"E"};
        std::vector<std::string> sd_cells = {"sigma"};
        for (const auto& col : columns) {
            mean_cells.push_back(fmtFixed(mean(col), 2));
            sd_cells.push_back(fmtFixed(stddev(col), 2));
        }
        table.addRow(mean_cells);
        table.addRow(sd_cells);
        table.print(std::cout);
        std::printf("\n");
    };

    section("measured: % of all memory references (inst+data)",
            &Row::refPct, true);
    section("measured: % of all bus cycles (inst+data)", &Row::busPct,
            true);
    section("measured: % of data memory references", &Row::dataRefPct,
            false);
    section("measured: % of data bus cycles", &Row::dataBusPct, false);

    std::printf(
        "paper Table 2 (averages over the four benchmarks):\n"
        "  memory refs  E(inst+data): inst 42.87, heap 34.31, goal 20.71,"
        " susp 0.26, comm 1.86\n"
        "  bus cycles   E(inst+data): inst 4.52, heap 65.70, goal 11.16,"
        " susp 1.14, comm 17.49\n"
        "  bus cycles by benchmark (data %%): Tri 92.85, Semi 99.07,"
        " Puzzle 91.31, Pascal 98.70\n"
        "\nShape checks: instruction refs are a large share of references"
        "\nbut a small share of bus cycles (the cache removes instruction"
        "\nbandwidth); the heap dominates data bus cycles; the tiny comm"
        "\narea is disproportionately expensive in bus cycles.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "table2_areas", [&] { return pim::kl1::bench::run(argc, argv); });
}
