//! The golden corpus: every figure of `harmony-bench` run with `--quick`
//! (and `fig5` also on EC2 and with `--dual-read`), its standard output and
//! the JSON it writes compared byte for byte with `tests/fixtures/golden/`.
//! `cases.txt` there lists the invocations.
//!
//! The runs use the release binary that `cargo build --release` leaves in
//! `target/release/`: a debug build takes four to eight times as long. The
//! test fails when that binary is missing or older than any source file
//! its dep-info lists, so it never compares a stale build. A change meant
//! to move an output rewrites the corpus with `tools/bless_golden.sh`; the
//! diff then names every file that moved.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

/// `(case, arguments)` for every line of `cases.txt`.
fn cases() -> Vec<(String, Vec<String>)> {
    let text = std::fs::read_to_string(golden_dir().join("cases.txt")).expect("read cases.txt");
    text.lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace().map(str::to_string);
            let case = words.next().expect("case name");
            (case, words.collect())
        })
        .collect()
}

/// `target/release/harmony-bench`, checked to be up to date.
fn release_binary() -> PathBuf {
    let mut target = std::env::current_exe().expect("test executable path");
    target.pop(); // deps/
    target.pop(); // <profile>/
    target.pop(); // the target directory
    let binary = target
        .join("release")
        .join(format!("harmony-bench{}", std::env::consts::EXE_SUFFIX));
    common::assert_fresh(&binary, "cargo build --release");
    binary
}

/// Runs one case in an empty directory and returns how its outputs differ
/// from the fixtures (empty when they match).
fn check_case(binary: &Path, work: &Path, case: &str, args: &[String]) -> Vec<String> {
    let dir = work.join(case);
    std::fs::create_dir_all(&dir).expect("create case directory");
    let output = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", binary.display()));
    if !output.status.success() {
        return vec![format!(
            "{case}: exited with {:?}\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )];
    }
    let mut diffs = Vec::new();
    let mut compare = |file: String, actual: Option<Vec<u8>>| {
        let expected = std::fs::read(golden_dir().join(&file)).ok();
        if actual != expected {
            diffs.push(describe_diff(&file, expected.as_deref(), actual.as_deref()));
        }
    };
    compare(format!("{case}.stdout"), Some(output.stdout));
    let json = format!("{case}.json");
    compare(json.clone(), std::fs::read(dir.join(&json)).ok());
    diffs
}

/// Names `file` and its first differing line.
fn describe_diff(file: &str, expected: Option<&[u8]>, actual: Option<&[u8]>) -> String {
    let (Some(expected), Some(actual)) = (expected, actual) else {
        let missing = if expected.is_none() {
            "fixture"
        } else {
            "output"
        };
        return format!("{file}: {missing} missing");
    };
    let (expected, actual) = (
        String::from_utf8_lossy(expected),
        String::from_utf8_lossy(actual),
    );
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    for line in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (e, a) if e != a => {
                return format!(
                    "{file}: line {line} differs\n  expected: {}\n  actual:   {}",
                    e.unwrap_or("<end of file>"),
                    a.unwrap_or("<end of file>")
                )
            }
            (None, None) => break,
            _ => {}
        }
    }
    format!("{file}: differs in line endings")
}

#[test]
fn every_quick_figure_matches_its_golden_output() {
    let binary = release_binary();
    let cases = cases();
    let work = std::env::temp_dir().join(format!("harmony-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let next = AtomicUsize::new(0);
    let diffs = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(cases.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some((case, args)) = cases.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let found = check_case(&binary, &work, case, args);
                    diffs.lock().unwrap().extend(found);
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    let diffs = diffs.into_inner().unwrap();
    assert!(
        diffs.is_empty(),
        "{} golden output(s) moved (rewrite them with tools/bless_golden.sh if intended):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
