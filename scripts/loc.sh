#!/usr/bin/env bash
# Non-test Rust line count of the workspace crates, against a revision.
#
#   scripts/loc.sh [REV]     # REV defaults to HEAD
#
# Counts every `crates/*/src/**/*.rs` file (skipping `tests/` directories)
# up to its first `#[cfg(test)]` line, in the working tree and at REV (read
# with `git show`, so the checkout is untouched), and prints both totals
# and the delta. "lines" counts everything; "code" drops blank lines and
# `//` comment lines (doc comments included). A report, not a gate.
set -euo pipefail

rev=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "loc.sh: unknown revision '$rev'" >&2
    exit 2
}

# Rust source on stdin -> "<lines> <code>" for the part before the first
# `#[cfg(test)]`. Reads to the end so `git show` never hits a closed pipe.
count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests {
            lines++
            t = $0
            sub(/^[[:space:]]+/, "", t)
            if (t != "" && substr(t, 1, 2) != "//") code++
        }
        END { printf "%d %d\n", lines, code }
    '
}

is_source() {
    grep -E '^crates/[^/]+/src/.*\.rs$' | grep -Ev '/tests/' || true
}

# Sums "<lines> <code>" pairs on stdin.
total() {
    awk '{ l += $1; c += $2 } END { printf "%d %d\n", l, c }'
}

read -r tree_lines tree_code < <(
    find crates -path 'crates/*/src/*' -name '*.rs' | sort | is_source |
        while read -r f; do count <"$f"; done | total
)
read -r rev_lines rev_code < <(
    git ls-tree -r --name-only "$rev" -- crates | is_source |
        while read -r f; do git show "$rev:$f" | count; done | total
)

short=$(git rev-parse --short "$rev")
printf '%-18s %8s %8s\n' "" lines code
printf '%-18s %8d %8d\n' "working tree" "$tree_lines" "$tree_code"
printf '%-18s %8d %8d\n' "$rev ($short)" "$rev_lines" "$rev_code"
printf '%-18s %+8d %+8d\n' delta "$((tree_lines - rev_lines))" "$((tree_code - rev_code))"
