#!/usr/bin/env bash
# Rewrites the golden corpus under tests/fixtures/golden/ from the current
# source: every `harmony-bench` case of cases.txt (release build, the
# binary tests/golden_outputs.rs checks) and the example outputs that
# tests/examples_smoke.rs checks (debug build, as `cargo test` runs them).
# Run it after a change meant to move an output, then review and commit the
# diff, which names every file that moved.
#
# Usage: tools/bless_golden.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
golden="$root/tests/fixtures/golden"
cd "$root"
cargo build --release -q -p harmony-bench
cargo build -q --examples

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

grep -v '^#' "$golden/cases.txt" | while read -r case args; do
    [ -n "$case" ] || continue
    mkdir "$work/$case"
    # shellcheck disable=SC2086 # the flags are meant to split
    (cd "$work/$case" && "$root/target/release/harmony-bench" $args) > "$golden/$case.stdout"
    if [ -f "$work/$case/$case.json" ]; then
        cp "$work/$case/$case.json" "$golden/$case.json"
    else
        rm -f "$golden/$case.json"
    fi
done

examples="$root/target/debug/examples"
"$examples/quickstart" --quick > "$golden/examples/quickstart.txt"
"$examples/quickstart" --quick --obs > "$golden/examples/quickstart-obs.txt"
"$examples/webshop_vs_social" --quick > "$golden/examples/webshop_vs_social.txt"
"$examples/consistency_explorer" 3 256 > "$golden/examples/consistency_explorer.txt"
"$examples/latency_spike" > "$golden/examples/latency_spike.txt"

git status --short -- "$golden"
