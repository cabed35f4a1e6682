/**
 * @file
 * Reproduces Table 1 of the paper: "Short Summary of Benchmarks on Eight
 * PEs" — static source lines, execution time, relative speedup on the
 * full PE count, reductions, suspensions, KL1 instructions executed and
 * emulated memory references.
 *
 * The paper's "sec." column is host wall-clock of ICOT's emulator on a
 * Sequent Symmetry; we report simulated machine cycles instead (and the
 * speedup is simulated-cycle speedup vs a one-PE run of the same
 * program). Absolute counts differ because the workloads are
 * synthesized; see DESIGN.md.
 */

#include <cmath>

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

struct PaperRow {
    const char* bench;
    int lines;
    double su;
    double reductions;
    double suspensions;
    double instr;
    double refs;
};

// Paper Table 1 (8 PEs).
const PaperRow kPaper[] = {
    {"Tri", 182, 5.8, 666233, 1, 13.0e6, 28.9e6},
    {"Semi", 104, 4.8, 268820, 23487, 4.8e6, 23.1e6},
    {"Puzzle", 151, 6.5, 849539, 3069, 15.6e6, 29.1e6},
    {"Pascal", 310, 6.1, 302432, 17681, 5.0e6, 10.5e6},
};

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Table 1: Short Summary of Benchmarks", ctx);

    Table table("measured (simulated machine, " + std::to_string(ctx.pes) +
                " PEs)");
    table.setHeader({"bench", "lines", "cycles", "su", "reduct", "susp",
                     "instr", "ref"});
    Table paper("paper (ICOT emulator on Sequent Symmetry, 8 PEs)");
    paper.setHeader({"bench", "lines", "su", "reduct", "susp", "instr",
                     "ref"});

    for (const PaperRow& row : kPaper) {
        const BenchProgram& bench = benchmarkByName(row.bench);
        const BenchResult par =
            runBenchmark(bench, ctx.scale, paperConfig(ctx.pes));
        const BenchResult seq =
            runBenchmark(bench, ctx.scale, paperConfig(1));
        const double speedup =
            static_cast<double>(seq.run.makespan) /
            static_cast<double>(par.run.makespan);
        table.addRow({row.bench, std::to_string(par.sourceLines),
                      fmtEng(static_cast<double>(par.run.makespan)),
                      fmtFixed(speedup, 1), fmtCount(par.run.reductions),
                      fmtCount(par.run.suspensions),
                      fmtEng(static_cast<double>(par.run.instructions)),
                      fmtEng(static_cast<double>(par.run.memoryRefs))});
        paper.addRow({row.bench, std::to_string(row.lines),
                      fmtFixed(row.su, 1), fmtCount(
                          static_cast<std::uint64_t>(row.reductions)),
                      fmtCount(static_cast<std::uint64_t>(
                          row.suspensions)),
                      fmtEng(row.instr), fmtEng(row.refs)});
    }
    table.print(std::cout);
    std::printf("\n");
    paper.print(std::cout);
    std::printf(
        "\nShape checks: refs/reduction within a few x of the paper's\n"
        "~30-90; Semi/Pascal suspension-heavy, Tri suspension-light;\n"
        "speedup grows with PE count on all four programs.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "table1_benchmarks", [&] { return pim::kl1::bench::run(argc, argv); });
}
