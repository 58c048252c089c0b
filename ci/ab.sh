#!/usr/bin/env bash
# A/B timing of simbench: a base revision against the working tree.
#
#   ci/ab.sh <rev> [workload] [pairs]
#
# Builds simbench offline twice, each with its own target directory: the
# base from an export of <rev> in a temporary directory (removed on exit),
# the working tree into simbench/target. Then runs `pairs` (default 10)
# interleaved single-pass pairs of `--seconds 1 --trace 0` on `workload`
# (default kernel-leela), alternating which side goes first, both pinned to
# one CPU when `taskset` exists. It prints each side's median and quartiles
# of kernel_mips, wall_s and peak_rss_mb, the median kernel_mips ratio
# (working tree / base) with its quartiles, and how many pairs the working
# tree won (ties count for neither side). A gain counts only when it wins at
# least nine tenths of the pairs and the medians differ by more than the
# base's own quartile spread.
#
# Last it runs one pass per side at `--seed 2` and exits non-zero if their
# digest lines differ or any run printed `"correct": false`.
#
# Takes minutes, so ci/check.sh does not call it. Run from anywhere inside
# the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: ci/ab.sh <rev> [workload] [pairs]"
rev="${1:?$usage}"
workload="${2:-kernel-leela}"
pairs="${3:-10}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "pairs must be a positive integer: $pairs" >&2; exit 2 ;;
esac
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "not a commit: $rev" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# An export rather than a worktree: nothing is registered under .git, so an
# interrupted run leaves nothing behind in the repository.
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"
build() { # <source dir> <target dir>
    cargo build --release --quiet --offline \
        --manifest-path "$1/simbench/Cargo.toml" --target-dir "$2"
}
echo "building simbench at $rev and at the working tree" >&2
build "$tmp/base" "$tmp/base-target"
build . simbench/target
base_bin="$tmp/base-target/release/simbench"
head_bin="simbench/target/release/simbench"

pin=()
if command -v taskset >/dev/null; then
    pin=(taskset -c "$(taskset -pc $$ | awk -F': ' '{split($2, c, "[,-]"); print c[1]}')")
fi

failed=0
# run <side> <out file> <simbench args...>
run() {
    local side="$1" out="$2" bin="$base_bin"
    [ "$side" = head ] && bin="$head_bin"
    shift 2
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" "$@" >"$out"
    if ! grep -q '"correct": true' "$out"; then
        echo "$side run printed no \"correct\": true result line:" >&2
        tail -n 3 "$out" >&2
        failed=1
    fi
}
# metric <file> <name>: the value of simbench's `name value unit` line.
metric() { awk -v m="$2" '$1 == m { print $2 }' "$1"; }

: >"$tmp/base.tsv"
: >"$tmp/head.tsv"
for i in $(seq 1 "$pairs"); do
    order=(base head)
    [ $((i % 2)) -eq 0 ] && order=(head base)
    for side in "${order[@]}"; do
        run "$side" "$tmp/$side.$i.out" --seconds 1 --trace 0
        printf '%s\t%s\t%s\n' \
            "$(metric "$tmp/$side.$i.out" kernel_mips)" \
            "$(metric "$tmp/$side.$i.out" wall_s)" \
            "$(metric "$tmp/$side.$i.out" peak_rss_mb)" >>"$tmp/$side.tsv"
    done
    echo "pair $i/$pairs done (${order[0]} first)" >&2
done

# Quartiles interpolate between closest ranks, as simbench's own do.
summary='
function q(a, n, p,   pos, lo, hi) {
    pos = p * (n - 1); lo = int(pos); hi = (pos > lo) ? lo + 1 : lo
    return a[lo] + (a[hi] - a[lo]) * (pos - lo)
}
function sorted(src, n, dst,   i, j, t) {
    for (i = 0; i < n; i++) dst[i] = src[i]
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
function report(name, unit, src, n,   s) {
    sorted(src, n, s)
    printf "  %-12s median %10.4f %s  q1 %10.4f  q3 %10.4f\n", name, q(s, n, 0.5), unit, q(s, n, 0.25), q(s, n, 0.75)
}
BEGIN { nb = 0; nh = 0 }
FNR == NR { bm[nb] = $1; bw[nb] = $2; br[nb] = $3; nb++; next }
{ hm[nh] = $1; hw[nh] = $2; hr[nh] = $3; nh++ }
END {
    print "base (" rev "):"
    report("kernel_mips", "MIPS", bm, nb); report("wall_s", "s", bw, nb); report("peak_rss_mb", "MB", br, nb)
    print "working tree:"
    report("kernel_mips", "MIPS", hm, nh); report("wall_s", "s", hw, nh); report("peak_rss_mb", "MB", hr, nh)
    wins = 0
    for (i = 0; i < nh; i++) { r[i] = hm[i] / bm[i]; if (hm[i] > bm[i]) wins++ }
    sorted(r, nh, rs)
    printf "kernel_mips ratio (working tree / base): median %.4f, q1 %.4f, q3 %.4f; won %d of %d pairs\n", \
        q(rs, nh, 0.5), q(rs, nh, 0.25), q(rs, nh, 0.75), wins, nh
}'
echo "$workload, $pairs interleaved single-pass pairs:"
awk -F'\t' -v rev="$rev" "$summary" "$tmp/base.tsv" "$tmp/head.tsv"

run base "$tmp/base.seed2.out" --seed 2 --seconds 1 --trace 0
run head "$tmp/head.seed2.out" --seed 2 --seconds 1 --trace 0
if ! diff <(grep '^digest' "$tmp/base.seed2.out") <(grep '^digest' "$tmp/head.seed2.out"); then
    echo "seed-2 digests differ between $rev and the working tree" >&2
    failed=1
else
    echo "seed-2 digests identical: $(grep -c '^digest' "$tmp/head.seed2.out") lines"
fi
exit "$failed"
