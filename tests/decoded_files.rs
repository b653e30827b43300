//! The files the workspace decodes fail cleanly on bad input.
//!
//! Two JSON formats are read back: the checker's schedule-trace fixtures
//! under `tests/fixtures/schedules/` and the committed bench records
//! `BENCH_history.json` and `BENCH_e2e.json`. For each committed file, every
//! truncation, a field of the wrong type, an unknown enum variant and a
//! missing field must come back as an `Err` (not a panic, not a default
//! value), and fields in another order must decode to the same value.

use harmony_bench::baseline::{BenchBaseline, HistoryEntry};
use harmony_chaos::FaultEvent;
use harmony_check::trace::{ScheduleTrace, TraceStep};
use harmony_sim::topology::NodeId;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?} unreadable: {e}"))
}

/// Every committed schedule-trace fixture: (file name, text).
fn fixtures() -> Vec<(String, String)> {
    let dir = root().join("tests/fixtures/schedules");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture dir {dir:?} unreadable: {e}"))
        .map(|entry| entry.expect("fixture dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| (path.display().to_string(), read(&path)))
        .collect();
    out.sort();
    assert!(out.len() >= 3, "the seed corpus has three fixtures");
    out
}

/// `decodes` accepts `text`, and rejects every proper prefix of it.
fn every_truncation_fails(what: &str, text: &str, decodes: impl Fn(&str) -> bool) {
    let text = text.trim_end();
    assert!(decodes(text), "{what} does not decode");
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        assert!(
            !decodes(&text[..end]),
            "{what} truncated to {end} bytes decoded"
        );
    }
}

/// Each `(from, to)` edit, applied once to every text that contains `from`,
/// makes `decodes` reject it; each edit applies to at least one text.
fn every_edit_fails(
    texts: &[(String, String)],
    edits: &[(&str, &str)],
    decodes: impl Fn(&str) -> bool,
) {
    for &(from, to) in edits {
        let mut applied = 0;
        for (what, text) in texts.iter().filter(|(_, text)| text.contains(from)) {
            let edited = text.replacen(from, to, 1);
            assert!(!decodes(&edited), "{what} with {from:?} -> {to:?} decoded");
            applied += 1;
        }
        assert!(applied > 0, "no text contains {from:?}");
    }
}

#[test]
fn schedule_trace_fixtures_reject_malformed_input() {
    let decodes = |s: &str| serde_json::from_str::<ScheduleTrace>(s).is_ok();
    let fixtures = fixtures();
    for (what, text) in &fixtures {
        every_truncation_fails(what, text, decodes);
    }
    every_edit_fails(
        &fixtures,
        &[
            // A field of the wrong type.
            (r#""index": 0"#, r#""index": "0""#),
            (r#""index": 0"#, r#""index": -1"#),
            (r#""index": 0"#, r#""index": 0.5"#),
            (r#""scenario": "#, r#""scenario": 3, "was": "#),
            (r#""steps": ["#, r#""steps": {}, "was": ["#),
            (r#""node": 0"#, r#""node": "0""#),
            (r#""node": 0"#, r#""node": 4294967296"#),
            // An unknown variant.
            (r#""Deliver""#, r#""Deliverr""#),
            (r#""CrashNode""#, r#""CrashNodes""#),
            (r#""HealPartition""#, r#""HealAll""#),
            // A missing field (an unknown key is ignored, as upstream does).
            (r#""scenario":"#, r#""scenery":"#),
            (r#""index":"#, r#""idx":"#),
            (r#""groups":"#, r#""group":"#),
        ],
        decodes,
    );
}

#[test]
fn schedule_traces_decode_equal_with_fields_reordered() {
    for (what, text) in fixtures() {
        let trace: ScheduleTrace = serde_json::from_str(&text).expect("fixture decodes");
        let reversed = format!(
            r#"{{"steps":{},"scenario":{},"description":{},"name":{}}}"#,
            serde_json::to_string(&trace.steps).unwrap(),
            serde_json::to_string(&trace.scenario).unwrap(),
            serde_json::to_string(&trace.description).unwrap(),
            serde_json::to_string(&trace.name).unwrap(),
        );
        let back: ScheduleTrace = serde_json::from_str(&reversed).expect("reordered decodes");
        assert_eq!(back, trace, "{what}");
    }
    let step = |json: &str| serde_json::from_str::<TraceStep>(json).expect("step decodes");
    assert_eq!(
        step(r#"{"Fault":{"fault":{"SlowNode":{"service_factor":2.5,"node":3}}}}"#),
        TraceStep::Fault {
            fault: FaultEvent::SlowNode {
                node: NodeId(3),
                service_factor: 2.5,
            },
        }
    );
    assert_eq!(
        step(r#"{"Fault":{"fault":{"JoinNode":{"rack":1,"dc":0}}}}"#),
        TraceStep::Fault {
            fault: FaultEvent::JoinNode { dc: 0, rack: 1 },
        }
    );
}

#[test]
fn bench_records_reject_malformed_input() {
    let history = read(&root().join("BENCH_history.json"));
    let e2e = read(&root().join("BENCH_e2e.json"));
    let history_decodes = |s: &str| serde_json::from_str::<Vec<HistoryEntry>>(s).is_ok();
    let e2e_decodes = |s: &str| serde_json::from_str::<BenchBaseline>(s).is_ok();
    every_truncation_fails("BENCH_history.json", &history, history_decodes);
    every_truncation_fails("BENCH_e2e.json", &e2e, e2e_decodes);
    let history = [("BENCH_history.json".to_string(), history)];
    every_edit_fails(
        &history,
        &[
            (r#""unix_time_secs": 0"#, r#""unix_time_secs": "0""#),
            (r#""unix_time_secs": 0"#, r#""unix_time_secs": -1"#),
            (r#""label": "#, r#""label": 4, "was": "#),
            (
                r#""scaling_ops_per_sec_wall": []"#,
                r#""scaling_ops_per_sec_wall": 0"#,
            ),
            (
                r#""scaling_ops_per_sec_wall": []"#,
                r#""scaling_ops_per_sec_wall": ["x"]"#,
            ),
            (r#""source":"#, r#""origin":"#),
        ],
        history_decodes,
    );
    let e2e = [("BENCH_e2e.json".to_string(), e2e)];
    every_edit_fails(
        &e2e,
        &[
            (r#""version": 2"#, r#""version": "2""#),
            (r#""version": 2"#, r#""version": 4294967296"#),
            (r#""scaling":"#, r#""scales":"#),
        ],
        e2e_decodes,
    );
}

#[test]
fn history_entries_decode_equal_with_fields_reordered() {
    let in_order = r#"{"label":"l","unix_time_secs":7,"total_ops_per_sec_wall":1.5,
        "allocations_per_op":2.0,"scaling_ops_per_sec_wall":[3.0,4.0],"source":"measured"}"#;
    let reversed = r#"{"source":"measured","scaling_ops_per_sec_wall":[3.0,4.0],
        "allocations_per_op":2.0,"total_ops_per_sec_wall":1.5,"unix_time_secs":7,"label":"l"}"#;
    let decode = |s: &str| serde_json::from_str::<HistoryEntry>(s).expect("entry decodes");
    let (a, b) = (decode(in_order), decode(reversed));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    assert_eq!(
        (a.label.as_str(), a.unix_time_secs, a.source.as_str()),
        ("l", 7, "measured")
    );
    assert_eq!(a.scaling_ops_per_sec_wall, vec![3.0, 4.0]);
}
