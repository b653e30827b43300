//! # harmony-obs
//!
//! The observability layer of the Harmony reproduction — offline and
//! shim-compatible (no real `tracing`/`prometheus` dependency):
//!
//! * [`registry`] — a metrics registry of counters, gauges and log-bucketed
//!   histograms with Prometheus-text and JSON-snapshot exposition. Layers
//!   export into it collect-on-scrape, so the simulation hot path never
//!   touches an atomic.
//! * [`hist`] — the shared [`hist::LatencyHistogram`] (moved here from
//!   `harmony-ycsb::stats`, which re-exports it for back-compat); merging is
//!   exact, so per-shard series fold like sketches.
//! * [`trace`] — sampled per-op causal traces over the typed-event protocol
//!   core, with deterministic modulo sampling (no RNG perturbation).
//! * [`recorder`] — the flight recorder: a bounded buffer of the K slowest
//!   completed ops plus every aborted op, dumpable as JSON.
//! * [`audit`] — the decision audit log linking every control decision to
//!   the estimate inputs that produced it.
//!
//! Everything defaults **off** ([`ObsConfig::default`]): with no knob
//! enabled the instrumented code paths reduce to a `None` check and the
//! golden determinism pins stay byte-identical.

pub mod audit;
pub mod hist;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use audit::DecisionAudit;
pub use hist::{LatencyHistogram, LatencySummary};
pub use recorder::FlightRecorder;
pub use registry::{series_name, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{OpTrace, OpTracer, SpanKind, TraceEvent, CLIENT_NODE};

/// Observability knobs. Everything defaults off; [`ObsConfig::enabled`] is
/// the standard "all on at default sampling rate" preset the overhead gate
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsConfig {
    /// Trace every `trace_sample_every`-th op (0 = tracing off).
    pub trace_sample_every: u64,
    /// Flight recorder: retain this many slowest completed traces.
    pub keep_slowest: u64,
    /// Flight recorder: cap on retained aborted traces.
    pub abort_cap: u64,
    /// Record a [`DecisionAudit`] per control decision.
    pub decision_audit: bool,
    /// Export metrics into a registry at the end of the run.
    pub metrics: bool,
}

impl ObsConfig {
    /// Everything off (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Everything on at the default sampling rate: trace every 64th op,
    /// keep the 32 slowest and up to 256 aborted traces, audit every
    /// decision, export metrics.
    pub fn enabled() -> Self {
        ObsConfig {
            trace_sample_every: 64,
            keep_slowest: 32,
            abort_cap: 256,
            decision_audit: true,
            metrics: true,
        }
    }

    /// True when any knob is on.
    pub fn any_enabled(&self) -> bool {
        self.trace_sample_every > 0 || self.decision_audit || self.metrics
    }

    /// True when per-op tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.trace_sample_every > 0
    }
}

/// Everything one observed run hands back: the merged metrics registry, the
/// retained traces, and the decision audit log.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// The run's metrics registry (empty when metrics were off).
    pub registry: MetricsRegistry,
    /// The flight recorder with retained traces.
    pub recorder: FlightRecorder,
    /// The decision audit log (empty when auditing was off).
    pub audit: Vec<DecisionAudit>,
}

impl ObsReport {
    /// The registry in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// All retained traces as a JSON array string.
    pub fn traces_json(&self) -> String {
        let traces: Vec<&OpTrace> = self.recorder.traces().collect();
        serde_json::to_string_pretty(&traces).unwrap_or_else(|_| "[]".to_string())
    }

    /// The decision audit log as a JSON array string.
    pub fn audit_json(&self) -> String {
        serde_json::to_string_pretty(&self.audit).unwrap_or_else(|_| "[]".to_string())
    }

    /// Retained traces that span at least one fault event.
    pub fn fault_spanning_traces(&self) -> Vec<&OpTrace> {
        self.recorder
            .traces()
            .filter(|t| t.spans_fault_epoch())
            .collect()
    }

    /// Audit records that raised the default read level.
    pub fn escalations(&self) -> Vec<&DecisionAudit> {
        self.audit.iter().filter(|a| a.escalated()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_off() {
        let c = ObsConfig::default();
        assert!(!c.any_enabled());
        assert!(!c.tracing_enabled());
        assert_eq!(c.trace_sample_every, 0);
        assert!(!c.decision_audit);
        assert!(!c.metrics);
    }

    #[test]
    fn enabled_preset_turns_everything_on() {
        let c = ObsConfig::enabled();
        assert!(c.any_enabled());
        assert!(c.tracing_enabled());
        assert_eq!(c.trace_sample_every, 64);
        assert!(c.decision_audit && c.metrics);
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let r = ObsReport::default();
        assert_eq!(r.prometheus_text(), "");
        assert_eq!(r.traces_json(), "[]");
        assert_eq!(r.audit_json(), "[]");
        assert!(r.fault_spanning_traces().is_empty());
        assert!(r.escalations().is_empty());
    }
}
