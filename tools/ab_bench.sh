#!/usr/bin/env bash
# A/B protocol for a performance change: alternating parent/change passes of
# one benchmark workload, each side built from its own source into its own
# target directory and run through its own, unmodified benchmark/run.sh.
#
#   tools/ab_bench.sh <parent-rev> <workload> [pairs=10] [seconds=30] [seed=20120920]
#
# "change" is the working tree this script sits in (uncommitted edits
# included); "parent" is <parent-rev> exported with `git archive`, so the
# repository's own .git is never touched. Scratch (the parent checkout and
# both target directories, laid out by tools/ab_common.sh) goes to a fresh
# temporary directory that is removed on exit; set AB_BENCH_DIR to keep it
# and reuse the builds across workloads. Prints one line per pass (the four
# end-to-end metrics, `correct` and the fastest timed run), then per side the
# median and quartiles, the pairs won on wall_ops_per_s, and a loud line if
# any fastest run came within 5 % of the benchmark's 1.0 s run-length floor. For the layer attribution
# run each side's `benchmark/run.sh --workload W --trace 1` (compare X with X).
set -euo pipefail

. "$(dirname "${BASH_SOURCE[0]}")/ab_common.sh"
ab_usage 2 "$@"
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-30}"
seed="${5:-20120920}"
ab_setup ab_bench "$rev"

# one_pass <side> <checkout> -> appends "side wall setup allocs peak correct fastest" to $rows
rows="$(mktemp "$work/rows.XXXXXX")"
one_pass() {
    local side="$1" checkout="$2" out err json fastest
    out="$work/$side.out"
    err="$work/$side.err"
    CARGO_TARGET_DIR="$work/$side-target" bash "$checkout/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out" 2>"$err" || true
    json="$(tail -n 1 "$out")"
    fastest="$(sed -n 's/.*fastest \([0-9.]*\) s, spread.*/\1/p' "$err" | tail -n 1)"
    python3 - "$side" "${fastest:-nan}" "$json" <<'PY' | tee -a "$rows"
import json, sys
side, fastest, raw = sys.argv[1:4]
try:
    r = json.loads(raw)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    print(side, m["wall_ops_per_s"], m["setup_s"], m["allocs_per_op"],
          m["peak_alloc_mb"], str(r["correct"]).lower(), fastest)
except (ValueError, KeyError):
    print(side, "nan nan nan nan false", fastest)
PY
}

echo "# $workload seed $seed, $pairs pairs of ${seconds} s; parent = $sha"
echo "# side wall_ops_per_s setup_s allocs_per_op peak_alloc_mb correct fastest_run_s"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        one_pass parent "$parent"
        one_pass change "$repo"
    else
        one_pass change "$repo"
        one_pass parent "$parent"
    fi
done

python3 - "$rows" <<'PY'
import statistics, sys
sides = {"parent": [], "change": []}
for line in open(sys.argv[1]):
    f = line.split()
    sides[f[0]].append((*map(float, f[1:5]), f[5] == "true", float(f[6])))
names = ["wall_ops_per_s", "setup_s", "allocs_per_op", "peak_alloc_mb"]
for side, rows in sides.items():
    for i, name in enumerate(names):
        v = sorted(r[i] for r in rows)
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        print(f"{side:6} {name:15} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  (n={len(v)})")
    fastest = [r[5] for r in rows]
    print(f"{side:6} fastest_run_s   min {min(fastest):.3f}  max {max(fastest):.3f}; "
          f"correct in {sum(r[4] for r in rows)} of {len(rows)} passes")
won = sum(c[0] > p[0] for p, c in zip(sides["parent"], sides["change"]))
tied = sum(c[0] == p[0] for p, c in zip(sides["parent"], sides["change"]))
print(f"change won {won} of {len(sides['parent'])} pairs on wall_ops_per_s ({tied} tied)")
low = min(r[5] for rows in sides.values() for r in rows)
if not low >= 1.05:
    print(f"!!! A FASTEST RUN OF {low:.3f} s IS WITHIN 5 % OF THE 1.0 s RUN-LENGTH FLOOR: "
          "the benchmark marks a pass under 1.0 s \"correct\": false !!!")
PY
rm -f "$rows" "$work"/{parent,change}.{out,err}
