//! The metrics registry: named counters, gauges and histograms with
//! Prometheus-text and JSON-snapshot exposition.
//!
//! The registry follows the *collect-on-scrape* pattern: the protocol core
//! keeps its existing plain counters (`ClusterTotals`, per-node counters,
//! monitor samples) and an `export_metrics(&registry)` call copies them into
//! the registry when a snapshot is wanted. Nothing on the simulation hot
//! path touches an atomic, so enabling metrics cannot perturb a run.
//!
//! Handles are cheap `Arc`s — shards clone them freely, and per-shard
//! registries merge like the hot-key sketches: counters add, gauges take the
//! worst case (max), histograms merge bucket-wise.

use crate::hist::{LatencyHistogram, LatencySummary};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the absolute total (collect-on-scrape: copy an existing counter).
    pub fn set_total(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Mutex<LatencyHistogram>>,
}

impl Histogram {
    /// Records one observation in microseconds.
    pub fn record_us(&self, us: f64) {
        self.inner.lock().record_us(us);
    }

    /// Merges a whole pre-built histogram into this series (collect-on-scrape
    /// for layers that already keep a `LatencyHistogram`).
    pub fn merge_from(&self, other: &LatencyHistogram) {
        self.inner.lock().merge(other);
    }

    /// A snapshot of the underlying histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.inner.lock().clone()
    }
}

/// One counter in a JSON snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSample {
    /// Full series name (may carry `{label="value"}` suffixes).
    pub name: String,
    /// Counter total.
    pub value: u64,
}

/// One gauge in a JSON snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSample {
    /// Full series name.
    pub name: String,
    /// Gauge value.
    pub value: f64,
}

/// One histogram in a JSON snapshot (summarised; full buckets stay internal).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSample {
    /// Full series name.
    pub name: String,
    /// Percentile summary of the series.
    pub summary: LatencySummary,
}

/// A point-in-time JSON-serialisable view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Mutex<LatencyHistogram>>>,
}

/// The registry. Cheap to clone (all clones share the same series).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    series: Arc<Mutex<Series>>,
}

/// Builds a full series name from a base name and labels:
/// `series_name("harmony_reads", &[("level", "ONE")])` →
/// `harmony_reads{level="ONE"}`.
pub fn series_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::from(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

fn base_name(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter with this series name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut s = self.series.lock();
        let value = s
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { value }
    }

    /// Returns (registering on first use) the gauge with this series name.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut s = self.series.lock();
        let bits = s
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())))
            .clone();
        Gauge { bits }
    }

    /// Returns (registering on first use) the histogram with this series name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut s = self.series.lock();
        let inner = s
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new())))
            .clone();
        Histogram { inner }
    }

    /// Merges another registry into this one the way shard sketches merge:
    /// counters add, gauges take the max (conservative — a merged backlog or
    /// φ gauge reports the worst shard), histograms merge bucket-wise.
    /// Series missing on either side are registered as needed.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.snapshot_raw();
        for (name, value) in theirs.0 {
            self.counter(&name).add(value);
        }
        for (name, value) in theirs.1 {
            let g = self.gauge(&name);
            g.set(g.get().max(value));
        }
        for (name, hist) in theirs.2 {
            self.histogram(&name).merge_from(&hist);
        }
    }

    #[allow(clippy::type_complexity)]
    fn snapshot_raw(
        &self,
    ) -> (
        Vec<(String, u64)>,
        Vec<(String, f64)>,
        Vec<(String, LatencyHistogram)>,
    ) {
        let s = self.series.lock();
        let counters = s
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = s
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = s
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.lock().clone()))
            .collect();
        (counters, gauges, histograms)
    }

    /// A point-in-time JSON-serialisable snapshot (sorted by series name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (counters, gauges, histograms) = self.snapshot_raw();
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterSample { name, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(name, value)| GaugeSample { name, value })
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|(name, h)| HistogramSample {
                    name,
                    summary: h.summary(),
                })
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let (counters, gauges, histograms) = self.snapshot_raw();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, value) in &counters {
            let base = base_name(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} counter");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{name} {value}");
        }
        last_base.clear();
        for (name, value) in &gauges {
            let base = base_name(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} gauge");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &histograms {
            let base = base_name(name);
            let _ = writeln!(out, "# TYPE {base} histogram");
            for (le_us, cum) in hist.cumulative_buckets() {
                let _ = writeln!(out, "{base}_bucket{{le=\"{le_us}\"}} {cum}");
            }
            let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{base}_sum {}", hist.sum_us());
            let _ = writeln!(out, "{base}_count {}", hist.count());
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("MetricsRegistry")
            .field("counters", &snap.counters.len())
            .field("gauges", &snap.gauges.len())
            .field("histograms", &snap.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let r = MetricsRegistry::new();
        let c = r.counter("harmony_reads_total");
        c.inc();
        c.add(4);
        // A second handle to the same series observes the same value.
        assert_eq!(r.counter("harmony_reads_total").get(), 5);
        r.counter("harmony_reads_total").set_total(42);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauges_hold_floats() {
        let r = MetricsRegistry::new();
        let g = r.gauge("harmony_backlog_ms");
        assert_eq!(g.get(), 0.0);
        g.set(12.5);
        assert_eq!(r.gauge("harmony_backlog_ms").get(), 12.5);
    }

    #[test]
    fn series_name_formats_labels() {
        assert_eq!(series_name("a", &[]), "a");
        assert_eq!(
            series_name("harmony_reads", &[("level", "ONE"), ("shard", "0")]),
            "harmony_reads{level=\"ONE\",shard=\"0\"}"
        );
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_merges_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("ops").add(3);
        b.counter("ops").add(4);
        b.counter("only_b").add(1);
        a.gauge("phi").set(1.0);
        b.gauge("phi").set(7.0);
        a.histogram("lat_us").record_us(100.0);
        b.histogram("lat_us").record_us(200.0);
        a.merge_from(&b);
        assert_eq!(a.counter("ops").get(), 7);
        assert_eq!(a.counter("only_b").get(), 1);
        assert_eq!(a.gauge("phi").get(), 7.0);
        assert_eq!(a.histogram("lat_us").snapshot().count(), 2);
    }

    #[test]
    fn prometheus_rendering_groups_types() {
        let r = MetricsRegistry::new();
        r.counter(&series_name("harmony_reads", &[("level", "ONE")]))
            .add(2);
        r.counter(&series_name("harmony_reads", &[("level", "QUORUM")]))
            .add(3);
        r.gauge("harmony_phi_max").set(0.5);
        r.histogram("harmony_read_latency_us").record_us(1000.0);
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE harmony_reads counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("harmony_reads{level=\"ONE\"} 2"));
        assert!(text.contains("harmony_reads{level=\"QUORUM\"} 3"));
        assert!(text.contains("# TYPE harmony_phi_max gauge"));
        assert!(text.contains("harmony_phi_max 0.5"));
        assert!(text.contains("# TYPE harmony_read_latency_us histogram"));
        assert!(text.contains("harmony_read_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("harmony_read_latency_us_count 1"));
    }

    #[test]
    fn snapshot_is_sorted_and_serialisable() {
        let r = MetricsRegistry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "b");
        let json = serde_json::to_string(&snap).unwrap();
        assert_eq!(
            json,
            r#"{"counters":[{"name":"a","value":1},{"name":"b","value":1}],"gauges":[],"histograms":[]}"#
        );
    }
}
