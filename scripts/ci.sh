#!/usr/bin/env bash
# Build-and-test matrix (docs/TESTING.md): a Release leg, the two
# sanitizer legs, and a coverage leg. Each configuration builds into its
# own build-<name> directory so legs never contaminate each other.
#
#   scripts/ci.sh             # full matrix
#   scripts/ci.sh release     # one leg: release | asan | tsan | coverage
#   CTEST_ARGS="-L conform" scripts/ci.sh asan   # restrict the ctest run
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
CTEST_ARGS=${CTEST_ARGS:-}

run_leg() {
    local name=$1
    shift
    local dir="build-${name}"
    echo "=== leg: ${name} (${dir}) ==="
    cmake -B "${dir}" -S . "$@"
    cmake --build "${dir}" -j "${JOBS}"
    # ${CTEST_ARGS} intentionally unquoted: it is a list of extra flags.
    # shellcheck disable=SC2086
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${CTEST_ARGS})
}

# End-to-end simulator benchmark self-test (perfbench/README.md): every
# BENCHMARK.json workload at tiny sizes, untraced and traced, must run
# correctly, print exactly its declared metrics and repeat every exact
# metric bit for bit.
perfbench_smoke() {
    echo "=== perfbench smoke ==="
    python3 perfbench/selftest.py
}

# Clustered-topology gate (docs/ARCHITECTURE.md): a deeper clustered
# conformance fuzz than the ctest `cluster` label runs. Exercises the
# inter-cluster routes read off the residency masks, hop accounting and
# the residency-mask walk at a scale the unit tests keep short.
cluster_smoke() {
    local dir="build-release"
    echo "=== cluster smoke (${dir}) ==="
    "${dir}/bench/pim_conform" --fuzz --pes=8 --blocks=2 --sets=2 \
        --seed=11 --traces=40 --len=200 --cluster-size=2
}

# Protocol & replacement-policy zoo gate (docs/ARCHITECTURE.md
# "Protocol matrix"): a short differential fuzz of every non-default
# coherence protocol, and the fig_zoo table byte-compared against its
# golden (pinning the PIM baseline column).
zoo_smoke() {
    local dir="build-release"
    echo "=== zoo smoke (${dir}) ==="
    local proto
    for proto in msi mesi moesi dragon; do
        "${dir}/bench/pim_conform" --fuzz --protocol="${proto}" \
            --pes=3 --blocks=2 --sets=2 --seed=11 --traces=10 --len=100
    done
    "${dir}/bench/fig_zoo" --scale 1 --pes 2 > "${dir}/fig_zoo.txt"
    diff -u tests/golden/fig_zoo.txt "${dir}/fig_zoo.txt"
}

# Short chaos soak campaign (docs/ROBUSTNESS.md): the smoke fault-plan
# x seed grid must end with zero escaped injections, and CAMPAIGN.json
# must satisfy the campaign schema.
soak_smoke() {
    local dir="build-release"
    echo "=== soak smoke (${dir}) ==="
    "${dir}/bench/pim_soak" --smoke --out="${dir}/soak"
    "${dir}/bench/json_check" --schema=campaign "${dir}/soak/CAMPAIGN.json"
}

coverage_report() {
    local dir="build-coverage"
    if command -v gcovr >/dev/null 2>&1; then
        gcovr --root . --filter src/ "${dir}" \
              --print-summary -o "${dir}/coverage.txt"
        echo "coverage report: ${dir}/coverage.txt"
    else
        echo "gcovr not found; raw .gcda files are under ${dir}/"
    fi
}

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
    legs=(release asan tsan coverage)
fi

# Documentation link check runs before any build: stale references in
# README.md or docs/*.md fail CI immediately (scripts/check_docs.sh).
scripts/check_docs.sh

for leg in "${legs[@]}"; do
    case "${leg}" in
      release)
        run_leg release -DCMAKE_BUILD_TYPE=Release
        perfbench_smoke
        cluster_smoke
        zoo_smoke
        soak_smoke
        ;;
      asan)
        run_leg asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPIM_SANITIZE=ON
        ;;
      tsan)
        run_leg tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPIM_SANITIZE=thread
        # runSweep's workers are the only host threads, and the `sweep`
        # and `soak` labels hold every test that drives runSweep with
        # more than one worker: re-run both explicitly so a CTEST_ARGS
        # restriction can never skip them on this leg.
        (cd build-tsan && ctest --output-on-failure -L 'sweep|soak')
        ;;
      coverage)
        run_leg coverage -DCMAKE_BUILD_TYPE=Debug -DPIM_COVERAGE=ON
        coverage_report
        ;;
      *)
        echo "ci.sh: unknown leg '${leg}'" \
             "(expected release, asan, tsan or coverage)" >&2
        exit 2
        ;;
    esac
done
echo "=== all legs passed ==="
