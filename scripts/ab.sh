#!/usr/bin/env bash
# A/B wall-clock comparison of the working tree against a parent revision
# on one kwsbench workload, in interleaved pairs.
#
#   scripts/ab.sh <parent-rev> <workload> <seeds> <pairs> <seconds>
#   scripts/ab.sh HEAD~1 serve_cluster4_a8 7,11 10 12
#
# The parent is `git archive`d into a temporary directory outside the
# checkout; both kwsbench binaries are built there (release, offline,
# each into its own target directory, so neither build touches the
# checkout's). For every seed in the comma-separated <seeds> list it
# runs <pairs> pairs of <seconds>-second untraced runs, alternating
# which side goes first. It then prints, per metric, each side's median
# and quartiles over all runs, the change's median over the parent's,
# and how many pairs the change won (ties count for neither side;
# "better" follows BENCHMARK.json). Per-run JSON lines are kept in the
# temporary directory until the script exits, which removes it.
#
# Needs git, cargo and python3. Compare pairs, not single runs: a
# relink alone can move the simulator workloads by several percent.
set -euo pipefail

if [ $# -ne 5 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent_rev=$1 workload=$2 seeds=$3 pairs=$4 seconds=$5

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/kwsbench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

build() { # <source root> <target dir>; prints the binary's path
    cargo build --release --offline --quiet \
        --manifest-path "$1/kwsbench/Cargo.toml" --target-dir "$2" >&2
    echo "$2/release/kwsbench"
}
echo "building parent ($parent_rev) and change (working tree)..." >&2
parent_bin=$(build "$tmp/parent" "$tmp/parent-target")
change_bin=$(build "$root" "$tmp/change-target")

run() { # <side> <binary> <seed>
    "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
        | tail -n 1 | sed "s/^/$1 $3 /" >>"$tmp/runs.txt"
}
for seed in ${seeds//,/ }; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$parent_bin" "$seed"
            run change "$change_bin" "$seed"
        else
            run change "$change_bin" "$seed"
            run parent "$parent_bin" "$seed"
        fi
        echo "seed $seed: pair $((i + 1))/$pairs done" >&2
    done
done

cat "$tmp/runs.txt" >&2
python3 - "$tmp/runs.txt" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs, bench = sys.argv[1], json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
by_seed = {}
for line in open(runs):
    side, seed, doc = line.split(" ", 2)
    doc = json.loads(doc)
    if not doc["correct"]:
        print(f"{side} seed {seed}: a run reported wrong outputs")
    runs_of = by_seed.setdefault(seed, {"parent": [], "change": []})
    runs_of[side].append({k: v["value"] for k, v in doc["metrics"].items()})

def quartiles(xs):
    if len(xs) < 2:
        return (xs[0] if xs else float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def table(title, sides):
    print(f"{title:<28} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'ratio':>7} {'wins':>7}")
    for name in sides["parent"][0]:
        row(name, sides)

def row(name, sides):
    p = [m[name] for m in sides["parent"]]
    c = [m[name] for m in sides["change"]]
    sign = -1 if better.get(name) == "lower" else 1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    same = "  (every run equal)" if len(set(p + c)) == 1 else ""
    print(f"{name:<28} {fmt(pq):>30} {fmt(cq):>30} {ratio:>7.3f} {wins:>3}/{len(p)}{same}")

everything = {"parent": [], "change": []}
for seed, sides in by_seed.items():
    for side in everything:
        everything[side] += sides[side]
    if len(by_seed) > 1:
        table(f"seed {seed}", sides)
table("all seeds" if len(by_seed) > 1 else "metric", everything)
EOF
