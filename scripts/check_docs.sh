#!/usr/bin/env bash
# Documentation link checker (docs/TESTING.md): every relative markdown
# link and every `src/...` / `bench/...` / `scripts/...` / `tests/...`
# path mentioned in the docs must exist in the tree, every backticked
# `Class::member` must name a member that still appears in the code,
# every backticked bare `CamelCase` type name must still appear in the
# code, every `--flag` in a backticked command must still be parsed by
# some tool, every backticked `pim_<name>` must still be a CMake target,
# every ctest label the docs name must still be set on some test, and
# every backticked macro, environment-variable or build-option name
# (`PIM_...`, `REPRO_...`) must still appear in the code, the root
# CMakeLists.txt or scripts/, so the docs cannot silently rot as files
# move or APIs, flags, tools, labels, macros and variables are renamed
# and deleted.
#
#   scripts/check_docs.sh    # README.md, DESIGN.md, EXPERIMENTS.md,
#                            # docs/*.md and the verify skill
#
# Exits non-zero listing every stale reference. Absolute URLs
# (http/https) and intra-page #anchors are ignored.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
code_dirs=(src bench tests examples perfbench)
name_dirs=("${code_dirs[@]}" CMakeLists.txt scripts)
targets=$(find "${code_dirs[@]}" -name CMakeLists.txt -exec grep -hoE \
    '(add_executable|add_library|pim_add_bench|pim_add_example|pim_add_test)\( *[A-Za-z0-9_]+' {} + \
    | sed -E 's/.*\( *//' | sort -u)
labels=$(grep -oE 'LABELS +[A-Za-z0-9_-]+' tests/CMakeLists.txt \
    | sed -E 's/LABELS +//' | sort -u)
complain() {
    echo "check_docs: $1: stale reference: $2" >&2
    fail=1
}

check_file() {
    local doc=$1
    local dir
    dir=$(dirname "${doc}")

    # Markdown links: [text](target). Skip URLs and pure anchors;
    # strip any #anchor suffix before testing existence.
    while IFS= read -r target; do
        case "${target}" in
          http://*|https://*|mailto:*|\#*) continue ;;
        esac
        local path="${target%%#*}"
        [ -z "${path}" ] && continue
        if [ ! -e "${dir}/${path}" ] && [ ! -e "${path}" ]; then
            complain "${doc}" "link (${target})"
        fi
    done < <(grep -oE '\]\([^)]+\)' "${doc}" | sed -E 's/^\]\(//; s/\)$//')

    # Bare tree paths: src/..., bench/..., scripts/..., tests/...
    # mentioned in prose or code spans must name real files/dirs. A tool
    # mentioned by binary name (bench/pim_stress) resolves through its
    # source file (bench/pim_stress.cc). Wildcard mentions (src/*.cc,
    # tests/bus_*) and build-directory invocations (build/bench/...) are
    # ignored.
    while IFS= read -r path; do
        case "${path}" in
          *\**) continue ;;
        esac
        if grep -qE "build[A-Za-z0-9_-]*/${path}" "${doc}"; then
            continue
        fi
        if [ ! -e "${path}" ] && [ ! -e "${path}.cc" ] \
               && [ ! -e "${path}.h" ]; then
            complain "${doc}" "path ${path}"
        fi
    done < <(grep -oE '\b(src|bench|scripts|tests)/[A-Za-z0-9_./*-]+' \
                  "${doc}" | sed -E 's/[.,;:]+$//' | sort -u)

    # Backticked API names: `Class::member` (or `ns::Class::member`).
    # The member must appear as a whole word somewhere in the code.
    while IFS= read -r name; do
        if ! grep -rqw -- "${name##*::}" "${code_dirs[@]}"; then
            complain "${doc}" "API ${name}"
        fi
    done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
                  "${doc}" | sed -E 's/^`//' | sort -u)

    # Backticked bare type names: `CamelCase`, the whole code span. The
    # name must appear as a whole word somewhere in the code.
    while IFS= read -r name; do
        if ! grep -rqw -- "${name}" "${code_dirs[@]}"; then
            complain "${doc}" "type ${name}"
        fi
    done < <(grep -oE '`[A-Z][a-z0-9]+([A-Z][A-Za-z0-9]*)+`' "${doc}" \
                  | tr -d '`' | sort -u)

    # Backticked command flags: every `--name` in a code span must appear
    # as the quoted string "name" in the code, where the tools look their
    # flags up. Spans that run cmake, ctest, python3, git or gcovr pass
    # flags to those tools, not to ours, and are skipped.
    while IFS= read -r flag; do
        if ! grep -rqF -- "\"${flag}\"" "${code_dirs[@]}"; then
            complain "${doc}" "flag --${flag}"
        fi
    done < <(grep -oE '`[^`]+`' "${doc}" \
                  | grep -vE '^`(cmake|ctest|python3|git|gcovr)[ `]' \
                  | grep -oE -- '--[a-z][a-z0-9-]*' | sed -E 's/^--//' \
                  | sort -u)

    # Backticked tool names: a code span that starts with `pim_<name>`
    # (bare, or after bench/ or ./build*/bench/) and ends or continues
    # with a space must name a CMake target.
    while IFS= read -r tool; do
        if ! grep -qxF -- "${tool}" <<< "${targets}"; then
            complain "${doc}" "tool ${tool}"
        fi
    done < <(grep -oE '`(\./build[A-Za-z0-9_-]*/bench/|bench/)?pim_[A-Za-z0-9_]+[` ]' \
                  "${doc}" | sed -E 's/^`(.*\/)?//; s/[` ]$//' | sort -u)

    # ctest labels: a label named as `ctest ... -L NAME` or as
    # "label `NAME`" must be set on some test in tests/CMakeLists.txt.
    while IFS= read -r label; do
        if ! grep -qxF -- "${label}" <<< "${labels}"; then
            complain "${doc}" "label ${label}"
        fi
    done < <({ grep -oE '`ctest [^`]*-L +[A-Za-z0-9_-]+' "${doc}" \
                   | sed -E 's/.*-L +//'
               grep -oiE 'label `[A-Za-z0-9_-]+`' "${doc}" \
                   | sed -E 's/.*`(.*)`/\1/'; } | sort -u)

    # Macro, environment-variable and build-option names: every
    # PIM_/REPRO_ token inside a code span (a macro, an environment
    # assignment, a -D option) must appear as a whole word in the code,
    # the root CMakeLists.txt or scripts/.
    while IFS= read -r name; do
        if ! grep -rqw -- "${name}" "${name_dirs[@]}"; then
            complain "${doc}" "name ${name}"
        fi
    done < <(grep -oE '`[^`]+`' "${doc}" \
                  | grep -oE '(PIM|REPRO)_[A-Z0-9_]*[A-Z0-9]' | sort -u)
}

for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md \
           .claude/skills/verify/SKILL.md; do
    check_file "${doc}"
done

if [ "${fail}" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: all references in the docs resolve"
