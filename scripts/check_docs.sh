#!/usr/bin/env bash
# Documentation link checker (docs/TESTING.md): every relative markdown
# link and every `src/...` / `bench/...` / `scripts/...` / `tests/...`
# path mentioned in the docs must exist in the tree, every backticked
# `Class::member` must name a member that still appears in the code,
# every backticked bare `CamelCase` type name must still appear in the
# code, every `--flag` of a `pim_<tool>` command (in a code span or a
# fenced block) must still be parsed by that tool and any other
# backticked `--flag` by some tool, every backticked `pim_<name>` must
# still be a CMake target,
# every ctest label the docs name must still be set on some test, every
# `ctest -R` pattern must still select some test, and
# every backticked macro, environment-variable or build-option name
# (`PIM_...`, `REPRO_...`) must still appear in the code, the root
# CMakeLists.txt or scripts/, so the docs cannot silently rot as files
# move or APIs, flags, tools, labels, macros and variables are renamed
# and deleted. Code spans are matched per markdown paragraph, so a span
# that a line break splits is checked whole.
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
# Test names a `ctest -R` pattern can select: every add_test(NAME ...)
# in tests/ and examples/, and the Suite.Name of every gtest case. A
# name built from a CMake variable becomes an anchored regex in
# name_templates, each ${...} (innermost first) matching anything.
test_names=$({ grep -hoE 'add_test\(NAME +[^ )]+' tests/CMakeLists.txt \
                   examples/CMakeLists.txt | sed -E 's/add_test\(NAME +//'
               grep -hoE '^TEST(_F|_P)?\( *[A-Za-z0-9_]+, *[A-Za-z0-9_]+' \
                   tests/*.cc | sed -E 's/^TEST(_F|_P)?\( *//; s/, */./'; } \
             | sort -u)
name_templates=$(grep -F '${' <<< "${test_names}" \
    | sed -E ':a; s/\$\{[^{}]*\}/.*/; ta; s/^/^/; s/$/$/')
complain() {
    echo "check_docs: $1: stale reference: $2" >&2
    fail=1
}

# Print doc $1 with the lines of each paragraph, list item or table row
# joined onto one line (continuation indent dropped), so a code span
# that a line break splits can be matched whole. Fence lines and fenced
# blocks pass through unchanged.
joined() {
    awk '
    function flush() { if (para != "") print para; para = "" }
    /^[ \t]*```/ { flush(); in_fence = !in_fence; print; next }
    in_fence { print; next }
    /^[ \t]*$/ { flush(); print; next }
    /^[ \t]*(([-*+]|[0-9]+\.)[ \t]|[|#])/ { flush() }
    {
        line = $0
        if (para != "") {
            sub(/^[ \t]+/, "", line)
            line = para " " line
        }
        para = line
    }
    END { flush() }' "$1"
}

# Print "<tool> <flag>" for every --flag a command in doc $1 passes to
# pim_<tool>, and "- <flag>" for every other --flag in a code span. A
# command is a code span (paragraph lines joined) or a fenced-block line
# (backslash continuations joined) that invokes pim_<tool>, bare or
# after bench/ or
# ./build*/bench/; the tool's flags are those after its name. Spans and
# lines that run cmake, ctest, python3, git or gcovr pass flags to those
# tools, not to ours, and are skipped.
command_flags() {
    awk '
    function flags(owner, text) {
        while (match(text, /--[a-z][a-z0-9-]*/)) {
            print owner, substr(text, RSTART + 2, RLENGTH - 2)
            text = substr(text, RSTART + RLENGTH)
        }
    }
    # Padded with spaces so a tool name can start or end the text.
    function command(text, fenced,   padded, tool) {
        padded = " " text " "
        if (padded ~ /^ [ \t]*(cmake|ctest|python3|git|gcovr) /)
            return
        if (match(padded, /[ ;&|(](\.\/build[A-Za-z0-9_-]*\/bench\/|bench\/)?pim_[a-z0-9_]+ /)) {
            tool = substr(padded, RSTART + 1, RLENGTH - 2)
            sub(/.*\//, "", tool)
            flags(tool, substr(padded, RSTART + RLENGTH))
        } else if (!fenced) {
            flags("-", text)
        }
    }
    /^[ \t]*```/ { in_fence = !in_fence; next }
    in_fence {
        line = $0
        while (line ~ /\\$/ && (getline next_line) > 0)
            line = substr(line, 1, length(line) - 1) " " next_line
        command(line, 1)
        next
    }
    {
        rest = $0
        while (match(rest, /`[^`]+`/)) {
            span = substr(rest, RSTART + 1, RLENGTH - 2)
            rest = substr(rest, RSTART + RLENGTH)
            command(span, 0)
        }
    }' < <(joined "$1")
}

check_file() {
    local doc=$1
    local dir text
    dir=$(dirname "${doc}")
    text=$(joined "${doc}")

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
                  <<< "${text}" | sed -E 's/^`//' | sort -u)

    # Backticked bare type names: `CamelCase`, the whole code span. The
    # name must appear as a whole word somewhere in the code.
    while IFS= read -r name; do
        if ! grep -rqw -- "${name}" "${code_dirs[@]}"; then
            complain "${doc}" "type ${name}"
        fi
    done < <(grep -oE '`[A-Z][a-z0-9]+([A-Z][A-Za-z0-9]*)+`' <<< "${text}" \
                  | tr -d '`' | sort -u)

    # Command flags (command_flags above): a flag passed to pim_<tool>
    # must appear as the quoted string "name" in bench/pim_<tool>.cc,
    # where the tool looks its flags up; any other backticked flag must
    # appear quoted somewhere in the code.
    while read -r tool flag; do
        if [ "${tool}" = - ]; then
            if ! grep -rqF -- "\"${flag}\"" "${code_dirs[@]}"; then
                complain "${doc}" "flag --${flag}"
            fi
        elif ! grep -qsF -- "\"${flag}\"" "bench/${tool}.cc"; then
            complain "${doc}" "flag --${flag} of ${tool}"
        fi
    done < <(command_flags "${doc}" | sort -u)

    # Backticked tool names: a code span that starts with `pim_<name>`
    # (bare, or after bench/ or ./build*/bench/) and ends or continues
    # with a space must name a CMake target.
    while IFS= read -r tool; do
        if ! grep -qxF -- "${tool}" <<< "${targets}"; then
            complain "${doc}" "tool ${tool}"
        fi
    done < <(grep -oE '`(\./build[A-Za-z0-9_-]*/bench/|bench/)?pim_[A-Za-z0-9_]+[` ]' \
                  <<< "${text}" | sed -E 's/^`(.*\/)?//; s/[` ]$//' | sort -u)

    # ctest labels: a label named as `ctest ... -L NAME` or as
    # "label `NAME`" must be set on some test in tests/CMakeLists.txt.
    while IFS= read -r label; do
        if ! grep -qxF -- "${label}" <<< "${labels}"; then
            complain "${doc}" "label ${label}"
        fi
    done < <({ grep -oE '`ctest [^`]*-L +[A-Za-z0-9_-]+' <<< "${text}" \
                   | sed -E 's/.*-L +//'
               grep -oiE 'label `[A-Za-z0-9_-]+`' <<< "${text}" \
                   | sed -E 's/.*`(.*)`/\1/'; } | sort -u)

    # ctest name patterns: a pattern named as `ctest ... -R PATTERN`
    # must match some test name, or be matched by a name template.
    while IFS= read -r pattern; do
        if ! grep -qE -- "${pattern}" <<< "${test_names}" \
               && ! grep -qEf <(echo "${name_templates}") <<< "${pattern}"
        then
            complain "${doc}" "test pattern ${pattern}"
        fi
    done < <(grep -oE '`ctest [^`]*-R +[^ `]+' <<< "${text}" \
                 | sed -E "s/.*-R +//; s/^'//; s/'$//" | sort -u)

    # Macro, environment-variable and build-option names: every
    # PIM_/REPRO_ token inside a code span (a macro, an environment
    # assignment, a -D option) must appear as a whole word in the code,
    # the root CMakeLists.txt or scripts/.
    while IFS= read -r name; do
        if ! grep -rqw -- "${name}" "${name_dirs[@]}"; then
            complain "${doc}" "name ${name}"
        fi
    done < <(grep -oE '`[^`]+`' <<< "${text}" \
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
