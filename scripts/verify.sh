#!/usr/bin/env bash
# Tier-1 verification plus the benchmark smoke pass and regression gates
# (see ROADMAP.md and .github/workflows/ci.yml).
#
#   scripts/verify.sh            # build + tests + bench smoke + gates
#   scripts/verify.sh --fast     # build + tests only (tier-1)
#   scripts/verify.sh --ci       # sandboxed-runner mode: the scratch dir
#                                # lives under target/ and no cleanup trap
#                                # is installed (some CI sandboxes kill the
#                                # trap handler or mount /tmp noexec)
#
# Tier-1 (must stay green): release build, the full test suite, and the
# benchmark package's tests (`kwsbench/` is its own workspace, so a plain
# `cargo test` would not notice a public-API break it depends on).
# The smoke pass then runs `paper bench-engine --smoke` (one call per
# timing, the simulator's `sim_dispatch` block-vs-step row included),
# `paper bench-serve --smoke` and, last, `paper bench-cascade --smoke` in a
# scratch directory (so the committed BENCH_*.json artefacts are not
# overwritten with smoke-mode numbers), and the regression gates. The
# gates that compare against a committed artefact run from the repository
# root, where the files are, and fail if one is missing or does not parse:
#
#   * `paper check-a8`       — A8-vs-i16 top-1 agreement (>= 99 %) and
#                              device/host bit-identity;
#   * `paper check-frontend` — fixed-point MFCC vs f64 oracle top-1
#                              agreement (>= 99.5 %) on the synth split;
#   * `paper check-cycles`   — device cycles per image flavour vs the
#                              committed BENCH_engine.json (<= +3 %);
#   * `paper check-cluster`  — multi-hart cluster gate: a 1-hart cluster
#                              bit- and cycle-identical to the serial
#                              session, 4-hart wave logits bit-identical
#                              to serial, >= 3x clips-per-SoC-cycle at 4
#                              harts, soc_cycles <= +3 % vs the committed
#                              BENCH_engine.json;
#   * `paper check-serve`    — serving gate: fused-wave and serial-device
#                              decision streams bit-identical, >= 2x
#                              detections-per-SoC-cycle from cross-session
#                              batching, throughput / sim-p99 within 5 %
#                              of the committed BENCH_serve.json;
#   * `paper check-tuning`   — kernel-specialiser autotuner gate: the
#                              sweep must be deterministic, the committed
#                              results/TUNED_KERNELS.txt must match a
#                              fresh derivation, and no tuned kernel may
#                              be slower than its generic counterpart;
#   * `paper fault-sweep`    — chaos harness: injected faults across the
#                              taxonomy x every image flavour must yield
#                              typed errors, exact recovery, or exact
#                              failover — and zero host panics;
#   * `paper check-cascade`  — wake-word cascade gate: device cascade
#                              verdicts bit-identical to the plain
#                              verifier, cascade cheaper per hour than the
#                              always-on KWT-1 at 5 % keyword duty, stage
#                              cycles within 5 % of the committed
#                              BENCH_cascade.json;
#   * `paper check-calibration` — offline GSC v2 subset integrity
#                              (manifest-checksummed) plus the per-dataset
#                              A8 exponent calibration reaching >= 99 %
#                              top-1 agreement with the float model.
#
# The docs build (`cargo doc --no-deps` with warnings denied) also runs
# here so rustdoc regressions fail verification, matching CI's docs job.
#
# Every step reports its own name on failure, so CI logs point straight
# at the broken stage.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
ci=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --ci) ci=1 ;;
        *)
            echo "verify: unknown option '$arg' (expected --fast and/or --ci)" >&2
            exit 2
            ;;
    esac
done

fail() {
    echo "verify: FAILED at step '$1'" >&2
    exit 1
}

echo "== tier-1: cargo build --release =="
cargo build --release || fail "cargo build --release"

echo "== tier-1: cargo test -q =="
cargo test -q || fail "cargo test"

echo "== tier-1: cargo test (kwsbench benchmark package) =="
cargo test -q --offline --locked --manifest-path kwsbench/Cargo.toml \
    || fail "cargo test kwsbench"

if [[ "$fast" == 1 ]]; then
    echo "verify: tier-1 green (--fast)"
    exit 0
fi

if [[ "$ci" == 1 ]]; then
    scratch="target/verify-scratch"
    rm -rf "$scratch"
    mkdir -p "$scratch"
    scratch="$(cd "$scratch" && pwd)"
else
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' EXIT
fi
paper_bin="$(pwd)/target/release/paper"

echo "== smoke: paper bench-engine --smoke (scratch dir) =="
(cd "$scratch" && "$paper_bin" bench-engine --smoke >/dev/null) \
    || fail "paper bench-engine"
echo "bench-engine smoke OK"

echo "== smoke: paper bench-serve --smoke (scratch dir) =="
(cd "$scratch" && "$paper_bin" bench-serve --smoke >/dev/null) \
    || fail "paper bench-serve"
echo "bench-serve smoke OK"

echo "== gate: paper check-a8 (A8-vs-i16 agreement + device bit-identity) =="
(cd "$scratch" && "$paper_bin" check-a8 >/dev/null) || fail "paper check-a8"
echo "check-a8 OK"

echo "== gate: paper check-frontend (fixed-point MFCC agreement) =="
(cd "$scratch" && "$paper_bin" check-frontend >/dev/null) || fail "paper check-frontend"
echo "check-frontend OK"

echo "== gate: paper check-cycles (device cycles vs committed baseline) =="
"$paper_bin" check-cycles || fail "paper check-cycles"
echo "check-cycles OK"

echo "== gate: paper check-cluster (multi-hart identity + throughput) =="
"$paper_bin" check-cluster || fail "paper check-cluster"
echo "check-cluster OK"

echo "== gate: paper check-serve (serving identity + multiplexing win) =="
"$paper_bin" check-serve || fail "paper check-serve"
echo "check-serve OK"

echo "== gate: paper check-tuning (kernel-specialiser artefact in sync) =="
"$paper_bin" check-tuning || fail "paper check-tuning"
echo "check-tuning OK"

echo "== gate: paper fault-sweep --smoke (fault taxonomy x image flavours) =="
(cd "$scratch" && "$paper_bin" fault-sweep --smoke >/dev/null) \
    || fail "paper fault-sweep"
echo "fault-sweep OK"

echo "== smoke: paper bench-cascade --smoke (scratch dir) =="
(cd "$scratch" && "$paper_bin" bench-cascade --smoke >/dev/null) \
    || fail "paper bench-cascade"
echo "bench-cascade smoke OK"

echo "== gate: paper check-cascade (verdict identity + cycle economics) =="
"$paper_bin" check-cascade || fail "paper check-cascade"
echo "check-cascade OK"

echo "== gate: paper check-calibration (subset integrity + A8 agreement) =="
"$paper_bin" check-calibration || fail "paper check-calibration"
echo "check-calibration OK"

echo "== docs: cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q >/dev/null 2>&1 \
    || fail "cargo doc"
echo "docs OK"

echo "verify: all green"
