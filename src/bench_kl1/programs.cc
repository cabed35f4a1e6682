#include "bench_kl1/programs.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim::kl1::bench {

namespace {

// ------------------------------------------------------------------ Tri --

/** Jump triples (from, over, to) of 15-hole triangle peg solitaire. */
std::vector<std::array<int, 3>>
triMoves()
{
    auto valid = [](int r, int i) { return r >= 0 && r <= 4 && i >= 0 &&
                                           i <= r; };
    auto pos = [](int r, int i) { return r * (r + 1) / 2 + i; };
    static const int kDirs[6][2] = {{1, 0},  {1, 1},  {0, 1},
                                    {-1, 0}, {-1, -1}, {0, -1}};
    std::vector<std::array<int, 3>> moves;
    for (int r = 0; r <= 4; ++r) {
        for (int i = 0; i <= r; ++i) {
            for (const auto& dir : kDirs) {
                const int rb = r + dir[0];
                const int ib = i + dir[1];
                const int rc = r + 2 * dir[0];
                const int ic = i + 2 * dir[1];
                if (valid(rb, ib) && valid(rc, ic))
                    moves.push_back({pos(r, i), pos(rb, ib), pos(rc, ic)});
            }
        }
    }
    PIM_ASSERT(moves.size() == 36, "triangle move table must have 36 "
                                   "entries, got ", moves.size());
    return moves;
}

/** Initial board: all 15 pegs except position 4 (a middle hole). */
constexpr std::int64_t kTriBoard = 32767 - 16;

std::uint32_t
triDepth(std::uint32_t scale)
{
    return std::min<std::uint32_t>(4 + scale, 13);
}

std::string
triQuery(std::uint32_t scale)
{
    std::ostringstream os;
    os << "tri(" << kTriBoard << ", " << triDepth(scale) << ", R).";
    return os.str();
}

/** Host-side mirror of the search: number of legal move sequences of
 *  exactly the given depth (dead ends count zero). */
std::int64_t
triCount(std::int64_t board, int depth,
         const std::vector<std::array<int, 3>>& moves)
{
    if (depth == 0)
        return 1;
    std::int64_t total = 0;
    for (const auto& move : moves) {
        const std::int64_t pa = 1ll << move[0];
        const std::int64_t pb = 1ll << move[1];
        const std::int64_t pc = 1ll << move[2];
        if ((board & pa) && (board & pb) && !(board & pc))
            total += triCount(board - pa - pb + pc, depth - 1, moves);
    }
    return total;
}

std::string
triExpected(std::uint32_t scale)
{
    return std::to_string(
        triCount(kTriBoard, static_cast<int>(triDepth(scale)),
                 triMoves()));
}

// ----------------------------------------------------------------- Semi --

std::uint32_t
semiModulus(std::uint32_t scale)
{
    // Moduli chosen so the closure (seed 2 under x*y+x mod M) grows
    // with scale — closure sizes 23, 46, 74, 115, 161, 199, 251, 391,
    // 529, 713; cost is roughly cubic in the closure size.
    static const std::uint32_t kModuli[] = {23, 69, 111, 115, 161,
                                            199, 251, 391, 529, 713};
    const std::uint32_t index =
        scale == 0 ? 0 : std::min<std::uint32_t>(scale - 1, 9);
    return kModuli[index];
}

std::string
semiQuery(std::uint32_t scale)
{
    std::ostringstream os;
    os << "semi(" << semiModulus(scale) << ", 2, R).";
    return os.str();
}

std::string
semiExpected(std::uint32_t scale)
{
    // Host-side closure of {2} under the non-commutative x@y = x*y+x mod M.
    const std::uint64_t m = semiModulus(scale);
    std::set<std::uint64_t> closed;
    std::vector<std::uint64_t> todo{2 % m};
    closed.insert(2 % m);
    while (!todo.empty()) {
        const std::uint64_t x = todo.back();
        todo.pop_back();
        std::vector<std::uint64_t> snapshot(closed.begin(), closed.end());
        for (std::uint64_t y : snapshot) {
            for (std::uint64_t p : {(x * y + x) % m, (y * x + y) % m}) {
                if (closed.insert(p).second)
                    todo.push_back(p);
            }
        }
    }
    return std::to_string(closed.size());
}

// --------------------------------------------------------------- Puzzle --

constexpr int kPuzzleWidth = 4;

std::uint32_t
puzzleHeight(std::uint32_t scale)
{
    return std::min<std::uint32_t>(4 + scale, 12);
}

std::string
puzzleQuery(std::uint32_t scale)
{
    return "puzzle(" + std::to_string(kPuzzleWidth) + ", " +
           std::to_string(puzzleHeight(scale)) + ", R).";
}

/** Host mirror: domino tilings of a W x H board, first-empty search. */
std::int64_t
dominoTilings(int width, int size, std::uint64_t occupied)
{
    int pos = 0;
    while (pos < size && (occupied & (1ull << pos)))
        ++pos;
    if (pos == size)
        return 1;
    std::int64_t total = 0;
    // Horizontal: pos and pos+1 on the same row.
    if (pos % width < width - 1 && !(occupied & (1ull << (pos + 1)))) {
        total += dominoTilings(width, size,
                               occupied | (1ull << pos) |
                                   (1ull << (pos + 1)));
    }
    // Vertical: pos and pos+width.
    if (pos + width < size && !(occupied & (1ull << (pos + width)))) {
        total += dominoTilings(width, size,
                               occupied | (1ull << pos) |
                                   (1ull << (pos + width)));
    }
    return total;
}

std::string
puzzleExpected(std::uint32_t scale)
{
    const int size =
        kPuzzleWidth * static_cast<int>(puzzleHeight(scale));
    return std::to_string(dominoTilings(kPuzzleWidth, size, 0));
}

// --------------------------------------------------------------- Pascal --

constexpr std::int64_t kPascalMod = 1000003;

std::uint32_t
pascalRows(std::uint32_t scale)
{
    // Cost grows a bit faster than quadratically in the row count
    // (bignum digits lengthen); 35 rows per scale step keeps Pascal
    // comparable to the other three benchmarks.
    return 50 * scale;
}

std::string
pascalQuery(std::uint32_t scale)
{
    return "pascal(" + std::to_string(pascalRows(scale)) + ", R).";
}

std::string
pascalExpected(std::uint32_t scale)
{
    // Sum of row N of Pascal's triangle is 2^N (mod kPascalMod).
    std::int64_t value = 1;
    for (std::uint32_t i = 0; i < pascalRows(scale); ++i)
        value = value * 2 % kPascalMod;
    return std::to_string(value);
}

} // namespace

std::string
triSource()
{
    std::ostringstream os;
    os << "% Tri: exhaustive triangle (peg solitaire) search.\n"
          "% tri(Board, Depth, Count): count legal move sequences of\n"
          "% exactly Depth jumps from the bitboard Board.\n"
          "tri(B, D, C) :- true | solve(B, D, C).\n"
          "solve(_, 0, C) :- true | C = 1.\n"
          "solve(B, D, C) :- D > 0 | lsum(Cs, 0, C), loop(B, D, 0, Cs).\n"
          "loop(_, _, 36, Cs) :- true | Cs = [].\n"
          "loop(B, D, M, Cs) :- M < 36 | Cs = [C|Cs1],\n"
          "    try_move(B, D, M, C), M1 := M + 1, loop(B, D, M1, Cs1).\n"
          "lsum([], A, R) :- true | R = A.\n"
          "lsum([X|Xs], A, R) :- integer(X) | A1 := A + X,\n"
          "    lsum(Xs, A1, R).\n"
          "try(B, D, Pa, Pb, Pc, C) :- B // Pa mod 2 =:= 1,\n"
          "    B // Pb mod 2 =:= 1, B // Pc mod 2 =:= 0 |\n"
          "    NB := B - Pa - Pb + Pc, D1 := D - 1, solve(NB, D1, C).\n"
          "try(_, _, _, _, _, C) :- otherwise | C = 0.\n";
    const auto moves = triMoves();
    for (std::size_t m = 0; m < moves.size(); ++m) {
        os << "try_move(B, D, " << m << ", C) :- true | try(B, D, "
           << (1ll << moves[m][0]) << ", " << (1ll << moves[m][1]) << ", "
           << (1ll << moves[m][2]) << ", C).\n";
    }
    return os.str();
}

std::string
semiSource()
{
    // A chain of filter processes, one per accepted element, dedups the
    // candidate stream in pipeline parallelism; product rows run as
    // independent processes and a merge tree feeds the chain head.
    // Duplicates are replaced by the atom `dup` (not dropped) so the
    // sink can count in-flight candidates exactly and close the feedback
    // loop when the count reaches zero — the classic short-circuit
    // termination of concurrent logic programs.
    return
        "% Semi: closure of {Seed} under the non-commutative operation\n"
        "% x@y = x*y+x (mod M), computed by a parallel filter chain.\n"
        "semi(M, Seed, C) :- true |\n"
        "    row(Seed, [Seed], M, P0),\n"
        "    mergeall([P0|NewPs], Head),\n"
        "    filt(Seed, Head, In),\n"
        "    sink(In, [Seed], 1, M, C, NewPs, 2).\n"
        "% sink(In, Set, N, M, Count, NewProductStreams, InFlight)\n"
        "sink(_, _, N, _, C, NewPs, 0) :- true | C = N, NewPs = [].\n"
        "sink([dup|In], Set, N, M, C, NewPs, K) :- K > 0 |\n"
        "    K1 := K - 1, sink(In, Set, N, M, C, NewPs, K1).\n"
        "sink([X|In], Set, N, M, C, NewPs, K) :- integer(X), K > 0 |\n"
        "    N1 := N + 1, K1 := K + 2 * N1 - 1,\n"
        "    row(X, [X|Set], M, P), NewPs = [P|NewPs1],\n"
        "    filt(X, In, Out),\n"
        "    sink(Out, [X|Set], N1, M, C, NewPs1, K1).\n"
        "% filt(E, In, Out): replace occurrences of E by dup.\n"
        "filt(_, [], Out) :- true | Out = [].\n"
        "filt(E, [dup|In], Out) :- true | Out = [dup|Out1],\n"
        "    filt(E, In, Out1).\n"
        "filt(E, [X|In], Out) :- integer(X), X =:= E |\n"
        "    Out = [dup|Out1], filt(E, In, Out1).\n"
        "filt(E, [X|In], Out) :- integer(X), X =\\= E |\n"
        "    Out = [X|Out1], filt(E, In, Out1).\n"
        "row(_, [], _, Out) :- true | Out = [].\n"
        "row(X, [Y|T], M, Out) :- true |\n"
        "    P1 := (X * Y + X) mod M, P2 := (Y * X + Y) mod M,\n"
        "    Out = [P1, P2|Out1], row(X, T, M, Out1).\n"
        "merge([], B, C) :- true | C = B.\n"
        "merge(A, [], C) :- true | C = A.\n"
        "merge([X|A], B, C) :- true | C = [X|C1], merge(A, B, C1).\n"
        "merge(A, [X|B], C) :- true | C = [X|C1], merge(A, B, C1).\n"
        "mergeall([], Out) :- true | Out = [].\n"
        "mergeall([S|Ss], Out) :- true | merge(S, Mid, Out),\n"
        "    mergeall(Ss, Mid).\n";
}

std::string
puzzleSource()
{
    // The character of Forest Baskett's Puzzle (exhaustive packing with
    // array state): the board is a KL1 vector, every placement copies it
    // through the pure set_vector_element/4 — large dynamic structures
    // and heavy heap writes, exactly the paper's Puzzle profile.
    return
        "% Puzzle: count domino tilings of a W x H board held in a\n"
        "% vector; each placement copies the board (single assignment).\n"
        "puzzle(W, H, C) :- true | S := W * H,\n"
        "    new_vector(S, 0, B), solve(B, W, S, C).\n"
        "solve(B, W, S, C) :- true | scan(B, 0, S, Pos),\n"
        "    branch(Pos, B, W, S, C).\n"
        "% scan: index of the first empty cell, or -1 when full.\n"
        "scan(_, S, S, Pos) :- true | Pos = -1.\n"
        "scan(B, I, S, Pos) :- I < S | vector_element(B, I, X),\n"
        "    scan2(X, B, I, S, Pos).\n"
        "scan2(1, B, I, S, Pos) :- true | I1 := I + 1,\n"
        "    scan(B, I1, S, Pos).\n"
        "scan2(0, _, I, _, Pos) :- true | Pos = I.\n"
        "branch(-1, _, _, _, C) :- true | C = 1.\n"
        "branch(P, B, W, S, C) :- P >= 0 |\n"
        "    tryh(P, B, W, S, C1), tryv(P, B, W, S, C2),\n"
        "    add2(C1, C2, C).\n"
        "add2(A, B, C) :- integer(A), integer(B) | C := A + B.\n"
        "% Horizontal domino at P, P+1 (same row).\n"
        "tryh(P, B, W, S, C) :- P mod W < W - 1 | P1 := P + 1,\n"
        "    vector_element(B, P1, X), place(X, P, P1, B, W, S, C).\n"
        "tryh(P, _, W, _, C) :- P mod W >= W - 1 | C = 0.\n"
        "% Vertical domino at P, P+W.\n"
        "tryv(P, B, W, S, C) :- P + W < S | PW := P + W,\n"
        "    vector_element(B, PW, X), place(X, P, PW, B, W, S, C).\n"
        "tryv(P, _, W, S, C) :- P + W >= S | C = 0.\n"
        "place(1, _, _, _, _, _, C) :- true | C = 0.\n"
        "place(0, P, Q, B, W, S, C) :- true |\n"
        "    set_vector_element(B, P, 1, B1),\n"
        "    set_vector_element(B1, Q, 1, B2),\n"
        "    solve(B2, W, S, C).\n";
}

std::string
pascalSource()
{
    // Bignums are little-endian base-10000 digit lists, as in ICOT's
    // original list-based bignum Pascal. Each pair-sum of a row is an
    // independent badd/4 process, so rows exhibit wide AND-parallelism
    // while consuming the previous row's bignums as streams.
    return
        "% Pascal: rows of Pascal's triangle with list bignums; row i+1\n"
        "% is computed by parallel bignum adders consuming row i.\n"
        "pascal(N, C) :- true | rows(0, N, [[1]], Last),\n"
        "    csuml(Last, 0, C).\n"
        "rows(N, N, Row, Last) :- true | Last = Row.\n"
        "rows(I, N, Row, Last) :- I < N | nextrow(Row, Row1),\n"
        "    I1 := I + 1, rows(I1, N, Row1, Last).\n"
        "nextrow(Row, Out) :- true | Out = [[1]|T], addp(Row, T).\n"
        "addp([A], T) :- true | T = [A].\n"
        "addp([A, B|R], T) :- true | T = [S|T1], badd(A, B, 0, S),\n"
        "    addp([B|R], T1).\n"
        "% badd(A, B, Carry, Sum): little-endian base-10000 addition.\n"
        "badd([], [], 0, S) :- true | S = [].\n"
        "badd([], [], Cy, S) :- Cy > 0 | S = [Cy].\n"
        "badd([D|T], [], Cy, S) :- true | X := D + Cy,\n"
        "    Lo := X mod 10000, Hi := X // 10000, S = [Lo|S1],\n"
        "    badd(T, [], Hi, S1).\n"
        "badd([], [D|T], Cy, S) :- true | X := D + Cy,\n"
        "    Lo := X mod 10000, Hi := X // 10000, S = [Lo|S1],\n"
        "    badd([], T, Hi, S1).\n"
        "badd([DA|TA], [DB|TB], Cy, S) :- true | X := DA + DB + Cy,\n"
        "    Lo := X mod 10000, Hi := X // 10000, S = [Lo|S1],\n"
        "    badd(TA, TB, Hi, S1).\n"
        "% csuml: sum the values (mod 1000003) of a list of bignums.\n"
        "csuml([], A, C) :- true | C = A.\n"
        "csuml([B|Bs], A, C) :- true | bval(B, 1, 0, V),\n"
        "    csacc(V, Bs, A, C).\n"
        "csacc(V, Bs, A, C) :- integer(V) | A1 := (A + V) mod 1000003,\n"
        "    csuml(Bs, A1, C).\n"
        "bval([], _, Acc, V) :- true | V = Acc.\n"
        "bval([D|T], Mult, Acc, V) :- integer(D) |\n"
        "    Acc1 := (Acc + D * Mult) mod 1000003,\n"
        "    Mult1 := Mult * 10000 mod 1000003, bval(T, Mult1, Acc1, V).\n";
}

const std::vector<BenchProgram>&
allBenchmarks()
{
    static const std::vector<BenchProgram> kBenchmarks = {
        {"Tri", triSource(), &triQuery, &triExpected},
        {"Semi", semiSource(), &semiQuery, &semiExpected},
        {"Puzzle", puzzleSource(), &puzzleQuery, &puzzleExpected},
        {"Pascal", pascalSource(), &pascalQuery, &pascalExpected},
    };
    return kBenchmarks;
}

const BenchProgram&
benchmarkByName(const std::string& name)
{
    for (const BenchProgram& bench : allBenchmarks()) {
        if (bench.name == name)
            return bench;
    }
    throw PIM_SIM_FAULT(SimFaultKind::Config, "unknown benchmark: ", name,
                        " (expected Tri, Semi, Puzzle or Pascal)");
}

} // namespace pim::kl1::bench
