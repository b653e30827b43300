//! The flight recorder: a bounded buffer of the most interesting finished
//! traces — the K slowest completed ops, every aborted op (up to a separate
//! cap, with a drop counter so truncation is never silent), and completed
//! ops that spanned a fault epoch (a fault fired while they were in flight —
//! exactly the traces a chaos post-mortem wants, and usually too fast to
//! survive the slowest-K ranking).

use crate::trace::OpTrace;

/// Bounded retention of finished op traces.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Retain this many slowest completed traces.
    keep_slowest: usize,
    /// Cap on retained aborted traces (all aborted ops are offered; beyond
    /// the cap they are counted in `aborted_dropped`). Also caps the
    /// fault-spanning pool.
    abort_cap: usize,
    /// The K slowest completed traces, slowest first.
    pub slowest: Vec<OpTrace>,
    /// Aborted traces in arrival order.
    pub aborted: Vec<OpTrace>,
    /// Completed traces that spanned a fault epoch but were too fast for the
    /// slowest-K pool, in arrival order (capped at `abort_cap`).
    pub fault_spanning: Vec<OpTrace>,
    /// Aborted traces dropped once `abort_cap` was reached.
    pub aborted_dropped: u64,
    /// Completed traces offered but not retained (faster than the K-th).
    pub completed_seen: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(32, 256)
    }
}

impl FlightRecorder {
    /// A recorder keeping the `keep_slowest` slowest completed traces and up
    /// to `abort_cap` aborted traces.
    pub fn new(keep_slowest: usize, abort_cap: usize) -> Self {
        FlightRecorder {
            keep_slowest,
            abort_cap,
            slowest: Vec::new(),
            aborted: Vec::new(),
            fault_spanning: Vec::new(),
            aborted_dropped: 0,
            completed_seen: 0,
        }
    }

    /// Offers a finished trace to the recorder.
    pub fn offer(&mut self, trace: OpTrace) {
        if trace.aborted {
            if self.aborted.len() < self.abort_cap {
                self.aborted.push(trace);
            } else {
                self.aborted_dropped += 1;
            }
            return;
        }
        self.completed_seen += 1;
        if self.keep_slowest == 0 {
            return;
        }
        let lat = trace.latency_us();
        // Keep `slowest` sorted descending by latency; replace the fastest
        // retained trace once full. K is small (tens), linear insert is fine.
        let pos = self
            .slowest
            .iter()
            .position(|t| t.latency_us() < lat)
            .unwrap_or(self.slowest.len());
        if pos < self.keep_slowest {
            self.slowest.insert(pos, trace);
            while self.slowest.len() > self.keep_slowest {
                // A previously retained fault-spanning trace falls back to
                // the spanning pool instead of vanishing.
                let evicted = self.slowest.pop().expect("len > keep_slowest > 0");
                if evicted.spans_fault_epoch() && self.fault_spanning.len() < self.abort_cap {
                    self.fault_spanning.push(evicted);
                }
            }
        } else if trace.spans_fault_epoch() && self.fault_spanning.len() < self.abort_cap {
            // Too fast for the slowest-K pool, but a fault fired while it was
            // in flight — keep it for the chaos post-mortem.
            self.fault_spanning.push(trace);
        }
    }

    /// All retained traces: slowest completed first, then the fault-spanning
    /// pool, then aborted.
    pub fn traces(&self) -> impl Iterator<Item = &OpTrace> {
        self.slowest
            .iter()
            .chain(self.fault_spanning.iter())
            .chain(self.aborted.iter())
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.slowest.len() + self.fault_spanning.len() + self.aborted.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges another recorder (per-shard recorders fold into one): slowest
    /// lists re-rank together, aborted lists concatenate under the cap.
    pub fn merge_from(&mut self, other: &FlightRecorder) {
        for t in &other.slowest {
            self.offer(t.clone()); // offer() counts the retained ones
        }
        for t in &other.fault_spanning {
            self.offer(t.clone());
        }
        self.completed_seen +=
            other.completed_seen - (other.slowest.len() + other.fault_spanning.len()) as u64;
        for t in &other.aborted {
            self.offer(t.clone());
        }
        self.aborted_dropped += other.aborted_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpTracer;

    fn trace(op: u64, latency_us: u64, aborted: bool) -> OpTrace {
        let mut t = OpTracer::new(1);
        t.start(op, "read", op, 0, 0);
        t.finish(op, latency_us, "ONE", aborted, 0).unwrap()
    }

    #[test]
    fn keeps_k_slowest() {
        let mut r = FlightRecorder::new(3, 16);
        for (op, lat) in [(0, 10), (1, 50), (2, 30), (3, 40), (4, 20)] {
            r.offer(trace(op, lat, false));
        }
        let lats: Vec<u64> = r.slowest.iter().map(|t| t.latency_us()).collect();
        assert_eq!(lats, vec![50, 40, 30]);
        assert_eq!(r.completed_seen, 5);
    }

    #[test]
    fn retains_all_aborted_up_to_cap() {
        let mut r = FlightRecorder::new(2, 3);
        for op in 0..5 {
            r.offer(trace(op, 1, true));
        }
        assert_eq!(r.aborted.len(), 3);
        assert_eq!(r.aborted_dropped, 2);
        assert!(r.slowest.is_empty());
    }

    #[test]
    fn fault_spanning_traces_survive_the_slowest_k_ranking() {
        let spanning = |op: u64, lat: u64| {
            let mut t = OpTracer::new(1);
            t.start(op, "read", op, 0, 3); // epoch 3 at submit...
            t.finish(op, lat, "ONE", false, 4).unwrap() // ...4 at completion
        };
        let mut r = FlightRecorder::new(2, 8);
        // Two slow plain traces occupy the slowest-K pool.
        r.offer(trace(0, 900, false));
        r.offer(trace(1, 800, false));
        // A fast spanning trace misses the pool but is kept anyway.
        r.offer(spanning(2, 10));
        assert_eq!(r.fault_spanning.len(), 1);
        // A spanning trace evicted from the slowest pool falls back too.
        r.offer(spanning(3, 850));
        assert_eq!(r.slowest.len(), 2);
        r.offer(trace(4, 950, false));
        let spanning_kept: Vec<u64> = r.fault_spanning.iter().map(|t| t.latency_us()).collect();
        assert_eq!(spanning_kept, vec![10, 850]);
        assert!(r.traces().filter(|t| t.spans_fault_epoch()).count() >= 2);
    }

    #[test]
    fn merge_re_ranks_slowest() {
        let mut a = FlightRecorder::new(2, 8);
        let mut b = FlightRecorder::new(2, 8);
        a.offer(trace(0, 10, false));
        a.offer(trace(1, 40, false));
        b.offer(trace(2, 30, false));
        b.offer(trace(3, 20, false));
        b.offer(trace(4, 5, true));
        a.merge_from(&b);
        let lats: Vec<u64> = a.slowest.iter().map(|t| t.latency_us()).collect();
        assert_eq!(lats, vec![40, 30]);
        assert_eq!(a.aborted.len(), 1);
        assert_eq!(a.completed_seen, 4);
    }
}
