//! Accrual failure detection: per-node heartbeat inter-arrival history
//! yielding a continuous *suspicion level* instead of a binary dead/alive
//! verdict.
//!
//! The shape follows the φ accrual detector (Hayashibara et al.) that
//! Cassandra ships: every message observed from a peer is a heartbeat; the
//! detector keeps a sliding window of inter-arrival times and, when asked,
//! reports how implausible the current silence is under the observed arrival
//! process. With exponentially distributed inter-arrivals of mean `m`, the
//! probability that a gap exceeds `t` is `exp(-t/m)`, so
//!
//! ```text
//! φ(t) = -log10 P(gap > t) = t / (m · ln 10)
//! ```
//!
//! φ ≈ 1 means the silence had a 10% chance under normal operation, φ ≈ 8 a
//! 10⁻⁸ chance — the conventional Cassandra convict threshold. Unlike a
//! timeout, the scale adapts to each peer's own cadence: a chatty replica is
//! suspected after milliseconds of silence, a quiet one only after its usual
//! lull has long passed.
//!
//! The detector is pure bookkeeping over the clock its caller passes in — no
//! clock reads of its own, no RNG — so it is deterministic for a given
//! sequence of timestamps and cheap enough to consult on every coordinator
//! decision.

use harmony_sim::clock::SimTime;
use std::collections::VecDeque;

/// Sliding-window size of retained inter-arrival samples, matching
/// Cassandra's default sample window order of magnitude while keeping the
/// state small enough to clone freely in the model checker.
const WINDOW: usize = 32;

/// Heartbeat history and suspicion computation for one peer.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatHistory {
    /// When the last heartbeat arrived, if any.
    last: Option<SimTime>,
    /// Recent inter-arrival times, seconds, oldest first.
    intervals: VecDeque<f64>,
}

impl HeartbeatHistory {
    /// A history with no observations: suspicion is zero until the peer has
    /// produced at least two heartbeats (one interval).
    pub fn new() -> Self {
        HeartbeatHistory::default()
    }

    /// Records a heartbeat at `now`. Out-of-order observations (possible when
    /// message latencies reorder deliveries) are folded in as zero-length
    /// intervals rather than negative ones.
    pub fn record(&mut self, now: SimTime) {
        if let Some(prev) = self.last {
            if now >= prev {
                let dt = now.saturating_sub(prev).as_secs_f64();
                self.intervals.push_back(dt);
                if self.intervals.len() > WINDOW {
                    self.intervals.pop_front();
                }
                self.last = Some(now);
            }
            // now < prev: a late-arriving heartbeat carries no new liveness
            // information beyond what the newer one already proved.
        } else {
            self.last = Some(now);
        }
    }

    /// The φ suspicion level at `now`: 0 while the history is too short to
    /// judge, rising with the current silence measured against the observed
    /// mean inter-arrival time.
    pub fn suspicion(&self, now: SimTime) -> f64 {
        let Some(last) = self.last else {
            return 0.0;
        };
        if self.intervals.is_empty() {
            return 0.0;
        }
        let mean = self.intervals.iter().sum::<f64>() / self.intervals.len() as f64;
        // A degenerate all-zero window (heartbeats in the same instant) gives
        // no usable scale; fall back to a conservative floor so a peer that
        // burst once and went silent still gets suspected eventually.
        let mean = mean.max(1e-6);
        let elapsed = now.saturating_sub(last).as_secs_f64();
        elapsed / (mean * std::f64::consts::LN_10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beats(history: &mut HeartbeatHistory, times_ms: &[u64]) {
        for &t in times_ms {
            history.record(SimTime::from_millis(t));
        }
    }

    #[test]
    fn no_history_means_no_suspicion() {
        let h = HeartbeatHistory::new();
        assert_eq!(h.suspicion(SimTime::from_secs(100)), 0.0);
        assert!(h.suspicion(SimTime::from_secs(100)) < 0.5);
    }

    #[test]
    fn single_heartbeat_is_not_enough_to_judge() {
        let mut h = HeartbeatHistory::new();
        h.record(SimTime::from_millis(10));
        assert_eq!(h.intervals.len(), 0);
        assert_eq!(h.suspicion(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn suspicion_grows_with_silence() {
        let mut h = HeartbeatHistory::new();
        beats(&mut h, &[0, 100, 200, 300, 400]);
        // Right at the last heartbeat: no silence, no suspicion.
        assert_eq!(h.suspicion(SimTime::from_millis(400)), 0.0);
        // One mean interval of silence: φ = 1/ln10 ≈ 0.43.
        let one = h.suspicion(SimTime::from_millis(500));
        assert!((one - 1.0 / std::f64::consts::LN_10).abs() < 1e-9);
        // Much longer silence: monotonically more suspicious.
        let long = h.suspicion(SimTime::from_millis(2_400));
        assert!(long > one * 10.0, "long={long} one={one}");
        assert!(long >= 8.0);
    }

    #[test]
    fn scale_adapts_to_the_peer_cadence() {
        // Same absolute silence (1 s), different cadences: the chatty peer is
        // far more suspicious than the slow one.
        let mut fast = HeartbeatHistory::new();
        beats(&mut fast, &[0, 10, 20, 30, 40]);
        let mut slow = HeartbeatHistory::new();
        beats(&mut slow, &[0, 1_000, 2_000, 3_000, 4_000]);
        let at_fast = fast.suspicion(SimTime::from_millis(40 + 1_000));
        let at_slow = slow.suspicion(SimTime::from_millis(4_000 + 1_000));
        assert!(at_fast > 50.0 * at_slow, "fast={at_fast} slow={at_slow}");
    }

    #[test]
    fn out_of_order_heartbeats_do_not_corrupt_the_window() {
        let mut h = HeartbeatHistory::new();
        beats(&mut h, &[0, 100, 200]);
        // A late-arriving older heartbeat changes nothing.
        h.record(SimTime::from_millis(150));
        assert_eq!(h.last, Some(SimTime::from_millis(200)));
        assert_eq!(h.intervals.len(), 2);
        assert!(h.suspicion(SimTime::from_millis(300)).is_finite());
    }

    #[test]
    fn window_is_bounded() {
        let mut h = HeartbeatHistory::new();
        for i in 0..10_000u64 {
            h.record(SimTime::from_millis(i * 10));
        }
        assert!(h.intervals.len() <= WINDOW);
    }

    #[test]
    fn burst_then_silence_still_gets_suspected() {
        // All heartbeats in one instant: the mean interval collapses to the
        // floor instead of zero, so suspicion still rises with silence.
        let mut h = HeartbeatHistory::new();
        beats(&mut h, &[50, 50, 50]);
        assert!(h.suspicion(SimTime::from_secs(10)) >= 8.0);
    }
}
