#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, docs, smokes. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# One scratch directory for every smoke artifact, reaped on any exit path
# (success, failure, or signal) — no leaked mktemp directories.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo fmt --all --check
bash -n ci/ab.sh
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# The back-end's slot ring and completion calendar and the predictors'
# one-pass history folds are mask-and-shift arithmetic: run their unit
# tests also as benches build them, with overflow checks and debug
# assertions off.
cargo test -q --release -p elf-core -p elf-predictors --lib

# Idle-cycle skipping must stay a pure optimization: re-prove bit-identical
# SimStats against the cycle-by-cycle reference walk in release mode (the
# configuration benches and users actually run).
cargo test -q --release --test perf_equivalence

# Every example must build and run clean — they double as API documentation,
# so a bit-rotted example is a broken doc.
cargo build --release --examples
for ex in elf_variants frontend_trace quickstart workload_explorer; do
    ./target/release/examples/"$ex" >/dev/null
done
# The SimPoint path of workload_explorer is the only non-test caller of
# elf_trace::simpoint, so run it too.
./target/release/examples/workload_explorer --simpoints 641.leela >/dev/null

# simbench is its own package outside the workspace; it drives the
# back-end through its public API, so build and test it here, and require
# its seed-1 output check (SimStats digests) to pass on a short run.
# Lint it too, so a change to the public calls it depends on shows up here;
# smoke every workload it declares: compute-bound leela, the large-image
# server1, memory-bound mcf (mostly idle-skipped cycles) and the 170-cell
# repro grid (run through the supervised grid runner).
cargo test --release --offline --manifest-path simbench/Cargo.toml
cargo clippy --offline --manifest-path simbench/Cargo.toml --all-targets -- -D warnings
for workload in kernel-leela kernel-server1 kernel-mcf repro-grid; do
    cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 >"$tmp/simbench.out"
    grep -q '"correct": true' "$tmp/simbench.out"
done

# Smoke: every paper table and figure through the one supervised grid
# pass, at tiny windows; all five CSVs must be written.
rm -f target/elf-results/*.csv
ELF_BENCH_WARMUP=2000 ELF_BENCH_WINDOW=4000 cargo bench -p elf-bench --offline --bench paper >/dev/null
for csv in fig6 fig7 fig8 fig9 ablations; do
    test -s "target/elf-results/$csv.csv"
done

# Smoke: a checkpointed run must resume from its snapshot and report
# what the straight run to the same target reports, banner line aside
# (end-to-end through the CLI; tests/checkpoint.rs pins the bytes).
ckpt="$tmp/smoke.ckpt"
./target/release/elfsim 641.leela u-elf --warmup 5000 --window 20000 \
    --checkpoint-every 8000 --checkpoint-file "$ckpt" >/dev/null
./target/release/elfsim --resume "$ckpt" --window 30000 >"$tmp/resumed.out"
./target/release/elfsim 641.leela u-elf --warmup 5000 --window 30000 >"$tmp/straight.out"
diff <(tail -n +2 "$tmp/straight.out") <(tail -n +2 "$tmp/resumed.out")

# The cycle-attribution report must be schema-valid JSON with one run
# whose fetch-cause buckets and mode slots each sum *exactly* to the cycle
# count (the partition invariant, end-to-end through the CLI; per-arch
# coverage is pinned by tests/metrics.rs).
check_metrics_json() {
    if command -v jq >/dev/null; then
        jq -e '.schema == "elfsim-metrics-v2"
               and (.runs | length) == 1
               and all(.runs[];
                       ([.fetch_cycles[]] | add) == .cycles
                       and ([.mode_cycles[]] | add) == .cycles)' \
            "$1" >/dev/null
    else
        python3 - "$1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "elfsim-metrics-v2", r["schema"]
assert len(r["runs"]) == 1, r["runs"]
for run in r["runs"]:
    assert sum(run["fetch_cycles"].values()) == run["cycles"], run["arch"]
    assert sum(run["mode_cycles"].values()) == run["cycles"], run["arch"]
EOF
    fi
}

# Smoke: the metrics report of a plain run.
./target/release/elfsim 641.leela u-elf --warmup 5000 --window 20000 \
    --metrics-json "$tmp/metrics.json" >/dev/null
check_metrics_json "$tmp/metrics.json"

# Smoke: a bounded, fixed-seed fuzz run must come up clean (deterministic
# and offline — same seed, same cases, every run), and the sentinel-mutated
# run must FAIL, shrink, and write a replayable repro: the differential
# harness proving it can still detect an injected bug.
./target/release/elfsim fuzz --seed 1 --cases 120 --budget 120000 >/dev/null
if ./target/release/elfsim fuzz --seed 1 --cases 5 --sentinel flip-taken \
    --repro-out "$tmp/repro.txt" >/dev/null 2>&1; then
    echo "sentinel fuzz run passed but must fail" >&2
    exit 1
fi
test -s "$tmp/repro.txt"
if ./target/release/elfsim fuzz --repro "$tmp/repro.txt" >/dev/null 2>&1; then
    echo "sentinel repro replay passed but must fail" >&2
    exit 1
fi

# Smoke: optional snapshot state (fault injector, metrics registry) must
# resume too, and the resumed run's metrics report must pass the same
# partition check.
ckpt="$tmp/optional.ckpt"
./target/release/elfsim 641.leela u-elf --warmup 5000 --window 20000 \
    --inject all=300 --metrics \
    --checkpoint-every 8000 --checkpoint-file "$ckpt" >/dev/null
./target/release/elfsim --resume "$ckpt" --window 30000 \
    --metrics-json "$tmp/resumed.json" >/dev/null
check_metrics_json "$tmp/resumed.json"

# Smoke: a corrupted checkpoint must be rejected, not resumed. Flip one
# byte mid-file in a copy (`--resume` keeps checkpointing into its input
# file) and require exit 1 with the checksum named on stderr.
corrupt="$tmp/corrupt.ckpt"
cp "$ckpt" "$corrupt"
mid=$(( $(wc -c <"$corrupt") / 2 ))
byte=$(od -An -tu1 -j "$mid" -N1 "$corrupt" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 0xff )))" |
    dd of="$corrupt" bs=1 seek="$mid" count=1 conv=notrunc status=none
status=0
./target/release/elfsim --resume "$corrupt" --window 30000 \
    >/dev/null 2>"$tmp/corrupt.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q checksum "$tmp/corrupt.err"; then
    echo "corrupted checkpoint: exit $status, want 1 naming the checksum" >&2
    cat "$tmp/corrupt.err" >&2
    exit 1
fi
