//! Spans around the calls into each layer.
//!
//! The traced driver brackets every call into a layer crate with a span:
//! name, start, end, the span that caused it, and the client operation it
//! belongs to. A span's *self time* is its duration minus the part its child
//! spans cover, so the self times of all spans partition the time the spans
//! cover. Spans that follow one another share a clock read, so the covered
//! time is nearly the whole run; a span's self time includes the one or two
//! clock reads (~30 ns each here) made while it is open.
//!
//! Every span feeds an in-memory accumulator. Raw spans are kept only for
//! operations with `op % SAMPLE_EVERY == 0` and for the (few) control-plane
//! spans, and are written out after the run.
//!
//! The driver is generic over [`Tracer`]: with [`NoTrace`] every call below
//! compiles to nothing, so the untraced driver pays no timer call at all.

use std::fmt::Write as _;
use std::time::Instant;

/// Keep the raw spans of every operation whose id is a multiple of this.
pub const SAMPLE_EVERY: u64 = 997;

/// One call site into a layer. The name's prefix is the layer (the crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// `Simulation::next`.
    SimPop,
    /// `Simulation::schedule_in`, reached through the wrapper `EventCtx`.
    SimPush,
    /// `Cluster::handle(StoreEvent::Deliver)`.
    StoreDeliver,
    /// `Cluster::handle(StoreEvent::Process)`.
    StoreProcess,
    /// `Cluster::handle(StoreEvent::ClientReply)`.
    StoreReply,
    /// `Cluster::submit_read_id` / `submit_write_id`.
    StoreSubmit,
    /// One `ClusterProbe` call made by the controller's monitor sweep.
    StoreProbe,
    /// `Cluster::apply_fault`.
    StoreFault,
    /// `Cluster::expire_stalled_ops`.
    StoreReaper,
    /// `Cluster::divergent_keys`.
    StoreDivergence,
    /// `Cluster::run_anti_entropy_round` (the initiator's digest offer).
    StoreAeRound,
    /// `Cluster::handle` of an anti-entropy message (digest, key diff,
    /// pull) — where the bulk of a round's cost lands.
    StoreAeMessage,
    /// The `Cluster::load_direct` loop of set-up.
    StoreLoad,
    /// `next_operation` + `next_index` + the field draw.
    YcsbGen,
    /// Issuing one operation: the session bookkeeping around
    /// [`Span::YcsbGen`] and [`Span::StoreSubmit`] (its children).
    YcsbIssue,
    /// Recording one completion (histograms, counters, in-flight table).
    YcsbComplete,
    /// `AdaptiveController::tick`; the probe calls are its children.
    AdaptiveTick,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = Span::AdaptiveTick as usize + 1;

impl Span {
    pub const ALL: [Span; SPANS] = [
        Span::SimPop,
        Span::SimPush,
        Span::StoreDeliver,
        Span::StoreProcess,
        Span::StoreReply,
        Span::StoreSubmit,
        Span::StoreProbe,
        Span::StoreFault,
        Span::StoreReaper,
        Span::StoreDivergence,
        Span::StoreAeRound,
        Span::StoreAeMessage,
        Span::StoreLoad,
        Span::YcsbGen,
        Span::YcsbIssue,
        Span::YcsbComplete,
        Span::AdaptiveTick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::SimPop => "sim.pop",
            Span::SimPush => "sim.push",
            Span::StoreDeliver => "store.deliver",
            Span::StoreProcess => "store.process",
            Span::StoreReply => "store.reply",
            Span::StoreSubmit => "store.submit",
            Span::StoreProbe => "store.probe",
            Span::StoreFault => "store.fault",
            Span::StoreReaper => "store.reaper",
            Span::StoreDivergence => "store.divergence",
            Span::StoreAeRound => "store.ae_round",
            Span::StoreAeMessage => "store.ae_message",
            Span::StoreLoad => "store.load",
            Span::YcsbGen => "ycsb.gen",
            Span::YcsbIssue => "ycsb.issue",
            Span::YcsbComplete => "ycsb.complete",
            Span::AdaptiveTick => "adaptive.tick",
        }
    }

    /// The layer (crate) the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.site")]
    }

    /// Control-plane spans: few per run, kept raw even without an op id.
    fn is_control(self) -> bool {
        matches!(
            self,
            Span::StoreProbe
                | Span::StoreFault
                | Span::StoreReaper
                | Span::StoreDivergence
                | Span::StoreAeRound
                | Span::StoreAeMessage
                | Span::StoreLoad
                | Span::AdaptiveTick
        )
    }
}

/// What the driver reports to. `enter`/`exit` bracket a span that may have
/// children; `leaf` records one that has none.
///
/// A clock read costs ~30 ns here, a fifth of a lean event, so back-to-back
/// spans share one: every span takes its start as an argument — a fresh
/// [`Tracer::stamp`] or the end the previous span returned.
pub trait Tracer {
    type Stamp: Copy;
    fn stamp(&self) -> Self::Stamp;
    /// A finished childless span that began at `start` and ends now.
    /// Returns its end.
    fn leaf(&mut self, span: Span, start: Self::Stamp, op: Option<u64>) -> Self::Stamp;
    fn enter(&mut self, span: Span, start: Self::Stamp, op: Option<u64>);
    /// Closes the innermost open span and returns its end. `late_op` names
    /// the operation when it was not known at `enter` (the store assigns the
    /// id inside `submit`).
    fn exit(&mut self, late_op: Option<u64>) -> Self::Stamp;
}

/// Spans off: the untraced driver.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    type Stamp = ();
    #[inline(always)]
    fn stamp(&self) {}
    #[inline(always)]
    fn leaf(&mut self, _: Span, _: (), _: Option<u64>) {}
    #[inline(always)]
    fn enter(&mut self, _: Span, _: (), _: Option<u64>) {}
    #[inline(always)]
    fn exit(&mut self, _: Option<u64>) {}
}

/// Per-span totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    pub count: u64,
    /// Σ (duration − children).
    pub self_ns: u64,
    /// Σ duration.
    pub total_ns: u64,
}

/// One retained raw span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSpan {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same list) of the span that caused this one.
    pub parent: Option<usize>,
    pub op: Option<u64>,
}

#[derive(Debug)]
struct Open {
    span: Span,
    start: Instant,
    children_ns: u64,
    op: Option<u64>,
    /// This span's slot in `raw`, while it may still be kept.
    raw: Option<usize>,
}

/// Spans on: accumulators plus the sampled raw spans.
#[derive(Debug)]
pub struct SpanTrace {
    origin: Instant,
    stack: Vec<Open>,
    acc: [Acc; SPANS],
    raw: Vec<RawSpan>,
}

impl Default for SpanTrace {
    fn default() -> Self {
        SpanTrace {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            acc: [Acc::default(); SPANS],
            raw: Vec::new(),
        }
    }
}

fn sampled(op: u64) -> bool {
    op.is_multiple_of(SAMPLE_EVERY)
}

impl SpanTrace {
    pub fn acc(&self, span: Span) -> Acc {
        self.acc[span as usize]
    }

    /// Σ self time of the run's spans (every span but the set-up span
    /// [`Span::StoreLoad`]), in nanoseconds: of one layer, or of all.
    pub fn run_self_ns(&self, layer: Option<&str>) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| **s != Span::StoreLoad && layer.is_none_or(|l| s.layer() == l))
            .map(|s| self.acc(*s).self_ns)
            .sum()
    }

    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn account(&mut self, span: Span, dur_ns: u64, children_ns: u64) {
        let a = &mut self.acc[span as usize];
        a.count += 1;
        a.total_ns += dur_ns;
        a.self_ns += dur_ns.saturating_sub(children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur_ns;
        }
    }

    /// The retained spans as a JSON document (see the README for the shape).
    pub fn raw_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"sample_every\":{SAMPLE_EVERY},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.raw.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.span.name(),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Tracer for SpanTrace {
    type Stamp = Instant;

    #[inline]
    fn stamp(&self) -> Instant {
        Instant::now()
    }

    fn leaf(&mut self, span: Span, start: Instant, op: Option<u64>) -> Instant {
        let end = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        let parent = self.stack.last();
        let op = op.or(parent.and_then(|p| p.op));
        let parent_raw = parent.and_then(|p| p.raw);
        // Without an op id of its own the leaf shares its parent's fate: the
        // parent's `exit` names the op or truncates the whole group.
        let keep = match op {
            Some(op) => sampled(op),
            None => span.is_control() || parent_raw.is_some(),
        };
        if keep {
            self.raw.push(RawSpan {
                span,
                start_ns: self.since_origin(start),
                end_ns: self.since_origin(end),
                parent: parent_raw,
                op,
            });
        }
        self.account(span, dur, 0);
        end
    }

    fn enter(&mut self, span: Span, start: Instant, op: Option<u64>) {
        let parent = self.stack.last();
        let op = op.or(parent.and_then(|p| p.op));
        let parent_raw = parent.and_then(|p| p.raw);
        // An op id that is not sampled settles it now; everything else gets
        // a slot that `exit` confirms or drops.
        let raw = match op {
            Some(op) if !sampled(op) => None,
            _ => {
                self.raw.push(RawSpan {
                    span,
                    start_ns: self.since_origin(start),
                    end_ns: 0,
                    parent: parent_raw,
                    op,
                });
                Some(self.raw.len() - 1)
            }
        };
        self.stack.push(Open {
            span,
            start,
            children_ns: 0,
            op,
            raw,
        });
    }

    fn exit(&mut self, late_op: Option<u64>) -> Instant {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(slot) = open.raw {
            let op = open.op.or(late_op);
            // Still no op id: an enclosing span that may be kept decides.
            let parent_pending = self.stack.last().is_some_and(|p| p.raw.is_some());
            let keep = match op {
                Some(op) => sampled(op),
                None => open.span.is_control() || parent_pending,
            };
            if keep {
                let end_ns = self.since_origin(end);
                self.raw[slot].end_ns = end_ns;
                for s in &mut self.raw[slot..] {
                    s.op = s.op.or(op);
                }
            } else {
                self.raw.truncate(slot);
            }
        }
        self.account(open.span, dur, open.children_ns);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = SpanTrace::default();
        t.enter(Span::AdaptiveTick, t.stamp(), None);
        sleep(Duration::from_millis(4));
        let s = t.stamp();
        sleep(Duration::from_millis(6));
        let s = t.leaf(Span::StoreProbe, s, None);
        t.enter(Span::StoreProbe, s, None);
        sleep(Duration::from_millis(2));
        t.exit(None);
        t.exit(None);

        let tick = t.acc(Span::AdaptiveTick);
        let probe = t.acc(Span::StoreProbe);
        assert_eq!((tick.count, probe.count), (1, 2));
        assert_eq!(probe.self_ns, probe.total_ns, "leaves have no children");
        assert_eq!(tick.self_ns, tick.total_ns - probe.total_ns);
        assert!(tick.self_ns >= 4_000_000 && probe.total_ns >= 8_000_000);
        // The self times partition the outermost span.
        assert_eq!(t.run_self_ns(None), tick.total_ns);
        assert_eq!(t.run_self_ns(Some("store")), probe.self_ns);
        assert_eq!(t.run_self_ns(Some("adaptive")), tick.self_ns);
    }

    #[test]
    fn raw_spans_are_kept_for_sampled_ops_and_control_spans_only() {
        let mut t = SpanTrace::default();
        // An unsampled op: nothing is kept.
        t.enter(Span::StoreDeliver, t.stamp(), Some(5));
        t.leaf(Span::SimPush, t.stamp(), None);
        t.exit(None);
        assert!(t.raw().is_empty());
        // A sampled op keeps the span and its child, linked.
        t.enter(Span::StoreDeliver, t.stamp(), Some(SAMPLE_EVERY));
        t.leaf(Span::SimPush, t.stamp(), None);
        t.exit(None);
        assert_eq!(t.raw().len(), 2);
        assert_eq!(t.raw()[1].parent, Some(0));
        assert_eq!(t.raw()[1].op, Some(SAMPLE_EVERY));
        assert!(t.raw()[0].end_ns >= t.raw()[1].end_ns);
        // An op id that arrives at `exit` decides for the whole group.
        for (late, kept) in [(3, 0), (2 * SAMPLE_EVERY, 3)] {
            let s = t.stamp();
            t.enter(Span::YcsbIssue, s, None);
            let s = t.leaf(Span::YcsbGen, s, None);
            t.enter(Span::StoreSubmit, s, None);
            t.exit(None);
            t.exit(Some(late));
            assert_eq!(t.raw().len(), 2 + kept);
        }
        assert!(t.raw()[2..].iter().all(|s| s.op == Some(2 * SAMPLE_EVERY)));
        assert_eq!(t.raw()[4].parent, Some(2));
        // A pop with no op and no parent is dropped; a control span is kept.
        let s = t.leaf(Span::SimPop, t.stamp(), None);
        t.enter(Span::AdaptiveTick, s, None);
        t.exit(None);
        assert_eq!(t.raw().len(), 6);
        assert!(t.raw_json("w", 1).contains("\"name\":\"adaptive.tick\""));
    }
}
