//! Smoke tests for the `examples/` binaries: run each one with reduced work
//! (`--quick` where the example supports it) and require a clean exit with
//! plausible output, so the examples cannot silently rot.
//!
//! `cargo test` builds every example before running integration tests, so the
//! binaries are guaranteed to exist next to this test's own executable under
//! `target/<profile>/examples/`.

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
    let bin = dir.join("examples").join(name);
    assert!(
        bin.exists(),
        "example binary {} not found at {} (examples are built by `cargo test`)",
        name,
        bin.display()
    );
    bin
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
fn webshop_vs_social_runs() {
    let out = run_example("webshop_vs_social", &["--quick"]);
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
    assert!(!out.trim().is_empty(), "explorer printed nothing");
}

#[test]
fn latency_spike_runs() {
    let out = run_example("latency_spike", &[]);
    assert!(out.contains("latency"), "unexpected output:\n{out}");
    assert!(out.contains("read level"), "unexpected output:\n{out}");
}
