//! Sampled per-op causal traces over the typed-event protocol core.
//!
//! A trace is a flat timeline of [`TraceEvent`]s in virtual time: the
//! client submit, the coordinator receipt, every replica send/serve/ack,
//! the quorum close, divergent-version reconciliation, read-repair sends,
//! retry/hedge branches, and the client reply (or abort). Node ids are plain
//! integers (`-1` = the client/driver side) so this crate stays a leaf —
//! it never needs to know what a `NodeId` is.
//!
//! Sampling is deterministic — op `i` is traced iff
//! `i % sample_every == 0` — so enabling tracing draws no randomness and
//! cannot perturb the simulation's RNG streams.

use harmony_sim::FixedState;
use serde::Serialize;
use std::collections::HashMap;

/// Sentinel node id for events on the client/driver side of the protocol.
pub const CLIENT_NODE: i64 = -1;

/// What happened at one point of an op's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SpanKind {
    /// Client handed the op to the coordinator.
    Submitted,
    /// Coordinator received the op and chose the replica set.
    CoordinatorReceipt,
    /// Coordinator sent a request to a replica.
    ReplicaSend,
    /// Coordinator could not reach a replica and parked a hint instead.
    HintStashed,
    /// Replica served a read or applied a write locally.
    ReplicaApply,
    /// Replica's response/ack arrived back at the coordinator.
    ResponseReceived,
    /// The consistency quorum was satisfied.
    QuorumClose,
    /// Divergent replica versions were reconciled (newest-timestamp-wins).
    Reconcile,
    /// A read-repair mutation was pushed to a stale replica.
    ReadRepairSend,
    /// A client-side retry of an aborted attempt.
    Retry,
    /// A hedged duplicate read was raced against the slow primary.
    Hedge,
    /// The op completed and the client was answered.
    Completed,
    /// The op was aborted (crash, partition, stall timeout).
    Aborted,
}

/// One event on an op's timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Virtual time in microseconds.
    pub at_us: u64,
    /// Node where the event happened (`-1` = client side).
    pub node: i64,
    /// Event kind.
    pub kind: SpanKind,
    /// Free-form detail (replica set, reconciled versions, …).
    pub detail: String,
}

/// A complete causal trace of one operation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpTrace {
    /// Operation id (the cluster's sequential op counter).
    pub op: u64,
    /// `"read"` or `"write"`.
    pub op_kind: String,
    /// Key id the op targeted.
    pub key: u64,
    /// Virtual submit time (µs).
    pub submitted_at_us: u64,
    /// Virtual finish time (µs) — completion or abort.
    pub finished_at_us: u64,
    /// Consistency level the op closed at (e.g. `ONE`, `QUORUM`).
    pub consistency: String,
    /// Whether the op was aborted rather than completed.
    pub aborted: bool,
    /// Fault epoch when the op was submitted.
    pub fault_epoch_start: u64,
    /// Fault epoch when the op finished — a trace with
    /// `fault_epoch_end > fault_epoch_start` spans a fault event.
    pub fault_epoch_end: u64,
    /// The ordered event timeline.
    pub events: Vec<TraceEvent>,
}

impl OpTrace {
    /// End-to-end virtual latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.finished_at_us.saturating_sub(self.submitted_at_us)
    }

    /// True when the op's lifetime crossed at least one fault event.
    pub fn spans_fault_epoch(&self) -> bool {
        self.fault_epoch_end > self.fault_epoch_start
    }

    /// Renders the timeline human-readably, one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "op {} {} key={} level={} {} latency={:.3}ms epochs={}..{}",
            self.op,
            self.op_kind,
            self.key,
            self.consistency,
            if self.aborted { "ABORTED" } else { "ok" },
            self.latency_us() as f64 / 1e3,
            self.fault_epoch_start,
            self.fault_epoch_end,
        );
        for ev in &self.events {
            let node = if ev.node == CLIENT_NODE {
                "client".to_string()
            } else {
                format!("node{}", ev.node)
            };
            let _ = writeln!(
                out,
                "  {:>12.3}ms  {:<8} {:<17} {}",
                ev.at_us as f64 / 1e3,
                node,
                format!("{:?}", ev.kind),
                ev.detail,
            );
        }
        out
    }
}

/// The live tracer: tracks in-flight sampled ops and hands finished traces
/// to the caller. Plain owned data — cloning a tracer (the checker clones
/// whole clusters for backtracking) yields an independent copy.
#[derive(Debug, Clone, Default)]
pub struct OpTracer {
    /// Trace every `sample_every`-th op; `0` disables tracing entirely.
    sample_every: u64,
    active: HashMap<u64, OpTrace, FixedState>,
}

impl OpTracer {
    /// A tracer sampling every `sample_every`-th op (0 = off).
    pub fn new(sample_every: u64) -> Self {
        OpTracer {
            sample_every,
            active: HashMap::default(),
        }
    }

    /// Whether op `op` is (or would be) sampled.
    pub fn samples(&self, op: u64) -> bool {
        self.sample_every > 0 && op.is_multiple_of(self.sample_every)
    }

    /// Number of in-flight traced ops.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Starts a trace for a sampled op. No-op when `op` is not sampled.
    pub fn start(&mut self, op: u64, op_kind: &str, key: u64, at_us: u64, fault_epoch: u64) {
        if !self.samples(op) {
            return;
        }
        self.active.insert(
            op,
            OpTrace {
                op,
                op_kind: op_kind.to_string(),
                key,
                submitted_at_us: at_us,
                finished_at_us: at_us,
                consistency: String::new(),
                aborted: false,
                fault_epoch_start: fault_epoch,
                fault_epoch_end: fault_epoch,
                events: vec![TraceEvent {
                    at_us,
                    node: CLIENT_NODE,
                    kind: SpanKind::Submitted,
                    detail: String::new(),
                }],
            },
        );
    }

    /// Appends an event to op `op`'s timeline if it is being traced.
    pub fn event(&mut self, op: u64, at_us: u64, node: i64, kind: SpanKind, detail: String) {
        if let Some(trace) = self.active.get_mut(&op) {
            trace.events.push(TraceEvent {
                at_us,
                node,
                kind,
                detail,
            });
        }
    }

    /// Finishes op `op`'s trace and returns it (None when not traced).
    pub fn finish(
        &mut self,
        op: u64,
        at_us: u64,
        consistency: &str,
        aborted: bool,
        fault_epoch: u64,
    ) -> Option<OpTrace> {
        let mut trace = self.active.remove(&op)?;
        trace.finished_at_us = at_us;
        trace.consistency = consistency.to_string();
        trace.aborted = aborted;
        trace.fault_epoch_end = fault_epoch;
        trace.events.push(TraceEvent {
            at_us,
            node: CLIENT_NODE,
            kind: if aborted {
                SpanKind::Aborted
            } else {
                SpanKind::Completed
            },
            detail: String::new(),
        });
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_modulo() {
        let t = OpTracer::new(64);
        assert!(t.samples(0));
        assert!(t.samples(64));
        assert!(!t.samples(65));
        let off = OpTracer::new(0);
        assert!(!off.samples(0));
    }

    #[test]
    fn start_event_finish_round_trip() {
        let mut t = OpTracer::new(1);
        t.start(7, "read", 42, 1000, 0);
        t.event(
            7,
            1500,
            2,
            SpanKind::CoordinatorReceipt,
            "replicas [2,3,4]".into(),
        );
        t.event(7, 2500, 3, SpanKind::ReplicaApply, String::new());
        let trace = t.finish(7, 4000, "ONE", false, 1).unwrap();
        assert_eq!(trace.latency_us(), 3000);
        assert!(trace.spans_fault_epoch());
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.events[0].kind, SpanKind::Submitted);
        assert_eq!(trace.events.last().unwrap().kind, SpanKind::Completed);
        let text = trace.render();
        assert!(text.contains("op 7 read key=42 level=ONE ok"), "{text}");
        assert!(text.contains("CoordinatorReceipt"), "{text}");
        assert!(text.contains("node3"), "{text}");
    }

    #[test]
    fn untraced_ops_are_ignored() {
        let mut t = OpTracer::new(2);
        t.start(1, "read", 0, 0, 0); // 1 % 2 != 0 → not sampled
        t.event(1, 10, 0, SpanKind::QuorumClose, String::new());
        assert!(t.finish(1, 20, "ONE", false, 0).is_none());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn traces_serialize_to_json() {
        let mut t = OpTracer::new(1);
        t.start(0, "write", 9, 0, 0);
        let trace = t.finish(0, 100, "ALL", true, 0).unwrap();
        assert!(trace.aborted);
        let json = serde_json::to_string(&trace).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"op":0,"op_kind":"write","key":9,"submitted_at_us":0,"finished_at_us":100,"#,
                r#""consistency":"ALL","aborted":true,"fault_epoch_start":0,"fault_epoch_end":0,"#,
                r#""events":[{"at_us":0,"node":-1,"kind":"Submitted","detail":""},"#,
                r#"{"at_us":100,"node":-1,"kind":"Aborted","detail":""}]}"#
            )
        );
    }
}
