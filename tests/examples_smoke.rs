//! Smoke tests for the `examples/` binaries: run each one with reduced work
//! (`--quick` where the example supports it) and require a clean exit with
//! plausible output, so the examples cannot silently rot. Each output is also
//! pinned byte for byte by `tests/fixtures/golden/examples/<name>.txt`, which
//! `tools/bless_golden.sh` rewrites after a change meant to move it.
//!
//! `cargo test` builds every example before running integration tests, so the
//! binaries exist next to this test's own executable under
//! `target/<profile>/examples/`. `cargo test --test examples_smoke` alone does
//! not rebuild them, so each is checked to be newer than its sources first.

mod common;

use std::path::PathBuf;
use std::process::Command;

/// Locates `target/<profile>/examples/<name>` relative to this test binary
/// (which lives in `target/<profile>/deps/`).
fn example_bin(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop(); // strip the test binary file name -> deps/
    if dir.ends_with("deps") {
        dir.pop(); // -> target/<profile>/
    }
    let bin = dir
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    common::assert_fresh(&bin, "cargo build --examples");
    bin
}

/// Compares `out` with the golden fixture `examples/<fixture>.txt`.
fn assert_golden(fixture: &str, out: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden/examples")
        .join(format!("{fixture}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        out == expected,
        "{fixture}: output differs from {} (rewrite it with tools/bless_golden.sh if \
         intended)\n--- expected\n{expected}\n--- actual\n{out}",
        path.display()
    );
}

fn run_example(name: &str, args: &[&str]) -> String {
    let output = Command::new(example_bin(name))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn quickstart_runs() {
    let out = run_example("quickstart", &["--quick"]);
    assert_golden("quickstart", &out);
    assert!(out.contains("quickstart"), "unexpected output:\n{out}");
    // Each policy row ends with its average replicas per read.
    let replicas: Vec<f64> = ["eventual", "harmony-40", "harmony-20", "strong"]
        .iter()
        .map(|policy| {
            let row = out
                .lines()
                .find(|line| line.split_whitespace().next() == Some(*policy))
                .unwrap_or_else(|| panic!("missing policy row {policy}:\n{out}"));
            let last = row.split_whitespace().last().unwrap_or_default();
            last.parse()
                .unwrap_or_else(|e| panic!("bad replica figure {last:?} for {policy}: {e}"))
        })
        .collect();
    // Harmony reads strictly more replicas than eventual and strictly fewer
    // than strong, and the stricter tolerance reads at least as many.
    assert!(
        replicas[0] < replicas[1] && replicas[1] <= replicas[2] && replicas[2] < replicas[3],
        "replicas per read must order eventual < harmony-40 <= harmony-20 < strong, \
         got {replicas:?}:\n{out}"
    );
}

#[test]
fn quickstart_obs_matches_its_golden_output() {
    let out = run_example("quickstart", &["--quick", "--obs"]);
    assert_golden("quickstart-obs", &out);
}

#[test]
fn webshop_vs_social_runs() {
    let out = run_example("webshop_vs_social", &["--quick"]);
    assert_golden("webshop_vs_social", &out);
    assert!(out.contains("web-shop"), "unexpected output:\n{out}");
    assert!(out.contains("social network"), "unexpected output:\n{out}");
    // The web shop's block prints first, the social network's second.
    let replicas: Vec<f64> = out
        .lines()
        .filter_map(|line| line.trim().strip_prefix("avg replicas per read"))
        .map(|rest| {
            rest.trim_start_matches([' ', ':'])
                .parse()
                .unwrap_or_else(|e| panic!("bad replica figure {rest:?}: {e}"))
        })
        .collect();
    assert_eq!(replicas.len(), 2, "unexpected output:\n{out}");
    assert!(
        replicas[0] > replicas[1],
        "the 5% web shop must read more replicas than the 60% social network:\n{out}"
    );
}

#[test]
fn consistency_explorer_runs() {
    // Positional arguments: replication factor and average write size.
    let out = run_example("consistency_explorer", &["3", "256"]);
    assert_golden("consistency_explorer", &out);
    assert!(!out.trim().is_empty(), "explorer printed nothing");
}

#[test]
fn latency_spike_runs() {
    let out = run_example("latency_spike", &[]);
    assert_golden("latency_spike", &out);
    assert!(out.contains("latency"), "unexpected output:\n{out}");
    assert!(out.contains("read level"), "unexpected output:\n{out}");
}
