#!/usr/bin/env bash
# Exactness check for a change that must not alter behaviour: runs the
# benchmark's counting binary on every workload for the parent and for the
# change, and compares what it prints.
#
#   tools/ab_exact.sh <parent-rev> [seed=20120920]
#
# Both sides are built as tools/ab_bench.sh builds them: "change" is the
# working tree this script sits in (uncommitted edits included), "parent" is
# <parent-rev> exported with `git archive`, each into its own target
# directory. Scratch goes to a fresh temporary directory removed on exit; set
# AB_BENCH_DIR to keep it (tools/ab_common.sh lays it out for both scripts,
# so they share their builds). For each workload prints the parent's and the
# change's `allocs_run` and `peak_bytes` with their deltas, and whether the
# exact-count fingerprints agree. Exits 1 if any fingerprint differs.
set -euo pipefail

. "$(dirname "${BASH_SOURCE[0]}")/ab_common.sh"
ab_usage 1 "$@"
rev="$1"
seed="${2:-20120920}"
workloads="headline lean sharded chaos"
ab_setup ab_exact "$rev"

# build <side> <checkout>: the same cargo invocation benchmark/run.sh makes.
build() {
    CARGO_TARGET_DIR="$work/$1-target" cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml" --bins >&2
}
build parent "$parent"
build change "$repo"

# count <side> <workload>: the counting binary's one line of key=value tokens.
count() {
    "$work/$1-target/release/harmony-benchmark-count" "$2" "$seed"
}

echo "# seed $seed; parent = $sha"
echo "# workload allocs_run(parent change delta) peak_bytes(parent change delta) fingerprint"
differ=0
for w in $workloads; do
    p="$(count parent "$w")"
    c="$(count change "$w")"
    python3 - "$w" "$p" "$c" <<'PY' || differ=1
import sys
w, p, c = sys.argv[1:4]
def parse(line):
    allocs, peak, fp = line.split(" ", 2)
    return int(allocs.split("=")[1]), int(peak.split("=")[1]), fp.split("=", 1)[1]
(pa, pp, pf), (ca, cp, cf) = parse(p), parse(c)
same = pf == cf
print(f"{w:9} allocs_run {pa} {ca} {ca - pa:+d}  "
      f"peak_bytes {pp} {cp} {cp - pp:+d} ({(cp - pp) / pp * 100:+.1f} %)  "
      f"fingerprint {'identical' if same else 'DIFFERS'}")
if not same:
    print(f"  parent: {pf}\n  change: {cf}")
sys.exit(0 if same else 1)
PY
done
if [ "$differ" -ne 0 ]; then
    echo "!!! A FINGERPRINT DIFFERS: the change alters the simulated execution !!!"
    exit 1
fi
