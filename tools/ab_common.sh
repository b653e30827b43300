# Set-up shared by tools/ab_bench.sh and tools/ab_exact.sh, sourced by both
# so that they lay out their scratch the same way and can share builds.
#
#   ab_usage <min-args> "$@"   prints the calling script's header comment
#                              and exits 2 when given fewer arguments
#   ab_setup <name> <rev>      sets the variables below
#
# `repo` is the working tree the scripts sit in (the "change" side,
# uncommitted edits included). `work` is the scratch directory: AB_BENCH_DIR
# if set (kept), else a fresh temporary directory named after <name> that is
# removed on exit. `sha` is <rev> resolved to a commit, and `parent` is that
# commit exported with `git archive` into $work/parent-<sha> (once), so the
# repository's own .git is never touched. Each side builds into
# $work/<side>-target.

ab_usage() {
    local min="$1"
    shift
    if [ $# -lt "$min" ]; then
        sed -n '2,/^[^#]/{/^#/p}' "$0" >&2
        exit 2
    fi
}

ab_setup() {
    local name="$1" rev="$2"
    repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
    if [ -n "${AB_BENCH_DIR:-}" ]; then
        work="$AB_BENCH_DIR"
        mkdir -p "$work"
    else
        work="$(mktemp -d "${TMPDIR:-/tmp}/$name.XXXXXX")"
        trap 'rm -rf "$work"' EXIT
    fi
    sha="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
    parent="$work/parent-$sha"
    if [ ! -d "$parent" ]; then
        mkdir -p "$parent"
        git -C "$repo" archive "$sha" | tar -x -C "$parent"
    fi
}
