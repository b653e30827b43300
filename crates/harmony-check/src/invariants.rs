//! The quiesced-state invariants every explored schedule must satisfy.
//!
//! All checks run *after* [`crate::explorer::quiesce`]: partitions healed,
//! crashed members restarted, every pending event drained. A violation at
//! that point is unambiguous — there is no in-flight message left that could
//! still repair it.

use harmony_model::staleness::StaleReadModel;
use harmony_store::machine::HarmonyMachine;
use harmony_store::prelude::*;
use serde::Serialize;

use crate::scenario::{Scenario, ScenarioOp};

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Which invariant broke (`"durability"`, `"convergence"`,
    /// `"accounting"`, `"staleness"`).
    pub rule: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(rule: &str, detail: String) -> Self {
        Violation {
            rule: rule.to_string(),
            detail,
        }
    }
}

/// Checks every invariant against a quiesced machine, returning all
/// violations found (empty ⇒ the schedule is safe).
pub fn check_quiesced(machine: &HarmonyMachine, scenario: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_accounting(machine, &mut violations);
    check_acked_writes(machine, scenario, &mut violations);
    check_staleness(machine, scenario, &mut violations);
    violations
}

/// **Accounting**: every submitted operation is either completed or aborted
/// — nothing is silently dropped — and nothing is still unresolved after the
/// drain.
fn check_accounting(machine: &HarmonyMachine, violations: &mut Vec<Violation>) {
    let totals = machine.cluster().totals();
    let submitted = totals.reads_submitted + totals.writes_submitted;
    let resolved = totals.reads_completed + totals.writes_completed + totals.ops_aborted;
    if submitted != resolved {
        violations.push(Violation::new(
            "accounting",
            format!(
                "submitted {submitted} ops but resolved {resolved} \
                 (reads {}+{} writes {}+{} aborted {})",
                totals.reads_submitted,
                totals.reads_completed,
                totals.writes_submitted,
                totals.writes_completed,
                totals.ops_aborted
            ),
        ));
    }
    let unresolved = machine.cluster().unresolved_ops();
    if unresolved != 0 {
        violations.push(Violation::new(
            "accounting",
            format!("{unresolved} operations still unresolved after quiesce drain"),
        ));
    }
}

/// **Durability + convergence**: for every key, the highest timestamp ever
/// acknowledged to a client must survive quiesce.
///
/// - *durability*: at least one member node holds the key at (or past) the
///   acked timestamp — the write exists somewhere;
/// - *convergence*: **every** serving replica of the key has caught up to it
///   — with partitions healed, crashes restarted and all hints drained, any
///   replica still behind means anti-entropy lost data (this is the
///   invariant that catches a dropped hinted handoff).
fn check_acked_writes(
    machine: &HarmonyMachine,
    scenario: &Scenario,
    violations: &mut Vec<Violation>,
) {
    let cluster = machine.cluster();
    for name in scenario.key_names() {
        let Some(key) = cluster.key_id(name) else {
            continue;
        };
        let acked = cluster.latest_acked_ts(key);
        if acked == Timestamp::ZERO {
            continue; // nothing was ever acknowledged for this key
        }
        let replicas = cluster.replicas_for(name);
        let durable = replicas.iter().any(|&node| {
            cluster.fault_state().is_member(node)
                && cluster.node(node).digest(key).is_some_and(|ts| ts >= acked)
        });
        if !durable {
            violations.push(Violation::new(
                "durability",
                format!(
                    "key {name:?}: acked timestamp {acked:?} held by no member replica \
                     (replicas {replicas:?})"
                ),
            ));
        }
        for &node in &replicas {
            if !cluster.fault_state().is_serving(node) {
                continue;
            }
            let held = cluster.node(node).digest(key);
            if held.is_none_or(|ts| ts < acked) {
                violations.push(Violation::new(
                    "convergence",
                    format!(
                        "key {name:?}: serving replica {node:?} holds {held:?}, behind \
                         acked timestamp {acked:?} after quiesce"
                    ),
                ));
            }
        }
    }
}

/// **Staleness**: with the write pipeline fully drained, the propagation
/// window `Tp` is zero, and the paper's closed-form stale-read probability at
/// the scenario's operation mix must collapse under the configured
/// tolerance. This pins the estimator's boundary behaviour on every explored
/// schedule — a quiesced cluster that still predicts stale reads would send
/// Harmony's consistency controller into a needless escalation spiral.
fn check_staleness(machine: &HarmonyMachine, scenario: &Scenario, violations: &mut Vec<Violation>) {
    let model = StaleReadModel::new(scenario.replication_factor);
    // Nominal per-second rates from the scenario mix over a 1-second window;
    // the magnitude is irrelevant at Tp = 0 (probability is exactly 0) but
    // keeps the check honest if quiesce ever leaves work in flight.
    let reads = scenario
        .ops
        .iter()
        .filter(|op| matches!(op, ScenarioOp::Read { .. }))
        .count() as f64;
    let writes = scenario.ops.len() as f64 - reads;
    let tp_secs = if machine.cluster().unresolved_ops() == 0 {
        0.0
    } else {
        f64::INFINITY
    };
    let p = model.stale_probability_saturating(reads, writes, tp_secs);
    if p > scenario.stale_tolerance {
        violations.push(Violation::new(
            "staleness",
            format!(
                "quiesced stale-read probability {p} exceeds tolerance {} \
                 (reads {reads}/s writes {writes}/s Tp {tp_secs}s)",
                scenario.stale_tolerance
            ),
        ));
    }
}
