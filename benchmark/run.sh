#!/usr/bin/env bash
# The benchmark command: builds the two benchmark binaries (release, the
# repository's own profile) from the checkout this script sits in, then runs
# the timed binary with the arguments given. Build output goes to standard
# error; the result goes to standard output.
#
#   bash benchmark/run.sh --workload headline --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh            # all four workloads, both passes
#   bash benchmark/run.sh --aa       # that set twice, compared with the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bins >&2

exec "$target/release/harmony-benchmark" --out-dir "$here/out" "$@"
