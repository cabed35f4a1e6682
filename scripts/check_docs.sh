#!/usr/bin/env bash
# Documentation link checker (docs/TESTING.md): every relative markdown
# link and every `src/...` / `bench/...` / `scripts/...` / `tests/...`
# path mentioned in README.md and docs/*.md must exist in the tree,
# every backticked `Class::member` must name a member that still
# appears in the code, every backticked bare `CamelCase` type name
# must still appear in the code, and every `--flag` in a backticked
# command must still be parsed by some tool, so the docs cannot
# silently rot as files move or APIs and flags are renamed and deleted.
#
#   scripts/check_docs.sh         # check README.md and docs/*.md
#
# Exits non-zero listing every stale reference. Absolute URLs
# (http/https) and intra-page #anchors are ignored.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
code_dirs=(src bench tests examples perfbench)
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
    # mentioned by binary name (bench/pim_perf) resolves through its
    # source file (bench/pim_perf.cc). Wildcard mentions (src/*.cc) and
    # build-directory invocations (build/bench/...) are ignored.
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
    done < <(grep -oE '\b(src|bench|scripts|tests)/[A-Za-z0-9_./-]+' \
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
}

for doc in README.md docs/*.md; do
    check_file "${doc}"
done

if [ "${fail}" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: all references in README.md and docs/*.md resolve"
