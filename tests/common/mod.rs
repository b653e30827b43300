//! Helpers shared by the integration tests that run the workspace's built
//! binaries.

use std::path::Path;

/// Panics unless `binary` exists and is at least as new as every source
/// file that its cargo dep-info file (`<binary>.d` beside it) lists, so a
/// test never compares the output of a stale build. `rebuild` names the
/// command that brings it up to date.
pub fn assert_fresh(binary: &Path, rebuild: &str) {
    let built = std::fs::metadata(binary)
        .and_then(|m| m.modified())
        .unwrap_or_else(|e| panic!("no binary at {} ({e}): run `{rebuild}`", binary.display()));
    let dep_info = binary.with_extension("d");
    let dep_info = std::fs::read_to_string(&dep_info)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", dep_info.display()));
    let (_, sources) = dep_info
        .lines()
        .next()
        .and_then(|line| line.split_once(": "))
        .expect("dep-info line `binary: sources`");
    // Paths are space-separated; a space inside one is escaped as `\ `.
    let sources = sources.trim().replace("\\ ", "\u{0}");
    for source in sources.split(' ').map(|s| s.replace('\u{0}', " ")) {
        let modified = std::fs::metadata(&source)
            .and_then(|m| m.modified())
            .unwrap_or_else(|e| panic!("source {source} of {}: {e}", binary.display()));
        assert!(
            modified <= built,
            "{} is older than {source}: run `{rebuild}`",
            binary.display()
        );
    }
}
