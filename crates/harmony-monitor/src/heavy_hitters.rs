//! Constant-memory heavy-hitter tracking for per-key (hot-spot) staleness.
//!
//! Under the Zipfian/hotspot key distributions YCSB makes canonical, a
//! handful of keys receives a large share of all updates. A cluster-wide
//! staleness estimate is blind to that: it either escalates *every* read to
//! protect the hot keys, or lets the hot keys read stale to keep the cold
//! tail cheap. The per-key model needs to know *which* keys are hot and how
//! fast each one is being written — in constant memory, because the keyspace
//! is unbounded.
//!
//! Keys enter the sketch as interned [`KeyId`]s (4 bytes, `Copy`), so an
//! observation is a small-integer hash — no `String` hashing or cloning
//! anywhere in the tracking path.
//!
//! [`SpaceSavingSketch`] is the classic space-saving algorithm (Metwally,
//! Agrawal, El Abbadi 2005): at most `capacity` counters; a miss at capacity
//! evicts the minimum counter and charges its value to the newcomer as
//! `error`. The standard guarantees hold and are property-tested:
//!
//! * `count(k)` never under-estimates the true frequency;
//! * the over-estimate is bounded by the minimum counter, which is itself
//!   bounded by `total / capacity`;
//! * any key whose true frequency exceeds `total / capacity` is tracked.
//!
//! [`HotKeyTracker`] layers sweep-to-sweep rate estimation on top: per-sweep
//! deltas of the (monotone) sketch counters become smoothed per-key write
//! arrival rates, and a share threshold turns the tracked set into the *hot
//! set* the split controller escalates. Everything is deterministic — no
//! randomness, stable iteration order, stable tie-breaking — so two runs
//! with the same seed produce identical hot sets.

use harmony_sim::FixedState;
use harmony_store::keys::KeyId;
use std::collections::HashMap;

/// One tracked key of a [`SpaceSavingSketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// The tracked key.
    pub key: KeyId,
    /// Estimated occurrence count (an over-approximation of the true count).
    pub count: u64,
    /// Maximum possible over-estimation: the evicted counter value this entry
    /// inherited when it entered the sketch (0 if it never displaced anyone).
    pub error: u64,
}

impl SketchEntry {
    /// The guaranteed (certain) part of the count: `count - error` never
    /// exceeds the key's true frequency.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.error
    }
}

/// The space-saving sketch: frequency estimates for the heaviest keys of a
/// stream using at most `capacity` counters.
#[derive(Debug, Clone)]
pub struct SpaceSavingSketch {
    capacity: usize,
    total: u64,
    /// Entries in insertion order (stable across runs — the stream order is
    /// deterministic under a fixed seed, so this is too).
    entries: Vec<SketchEntry>,
    index: HashMap<KeyId, usize, FixedState>,
}

impl SpaceSavingSketch {
    /// Creates a sketch with the given counter capacity (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSavingSketch {
            capacity,
            total: 0,
            entries: Vec::with_capacity(capacity),
            index: HashMap::with_capacity_and_hasher(capacity, FixedState::default()),
        }
    }

    /// The counter capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of observations fed to the sketch.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tracked entries, in insertion order.
    pub fn entries(&self) -> &[SketchEntry] {
        &self.entries
    }

    /// The estimated count for `key`, if tracked. The estimate
    /// over-approximates the true count by at most the minimum counter.
    pub fn estimate(&self, key: KeyId) -> Option<u64> {
        self.index.get(&key).map(|&i| self.entries[i].count)
    }

    /// The full entry for `key`, if tracked.
    pub fn entry(&self, key: KeyId) -> Option<&SketchEntry> {
        self.index.get(&key).map(|&i| &self.entries[i])
    }

    /// The smallest counter value (0 for an empty sketch). Bounds both the
    /// over-estimation error and the count of any untracked key.
    pub fn min_count(&self) -> u64 {
        self.entries.iter().map(|e| e.count).min().unwrap_or(0)
    }

    /// Observes one occurrence of `key`.
    ///
    /// Hits are `O(1)`; a miss at capacity evicts the minimum counter with a
    /// linear `O(capacity)` scan. The scan is deliberate: it keeps the
    /// eviction rule obviously correct (the property suite leans on it) and
    /// its cost is bounded by the sweep cadence — one monitoring sweep feeds
    /// at most one sweep interval's writes, and a backend whose sample
    /// buffer could fill (`WRITE_KEY_SAMPLE_CAP`) is by definition not being
    /// swept, so `observe` never sees the full buffer. Swap in the classic
    /// stream-summary bucket structure if capacities ever grow by orders of
    /// magnitude.
    pub fn observe(&mut self, key: KeyId) {
        self.total += 1;
        if let Some(&i) = self.index.get(&key) {
            self.entries[i].count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(key, self.entries.len());
            self.entries.push(SketchEntry {
                key,
                count: 1,
                error: 0,
            });
            return;
        }
        // Evict the minimum counter (first minimum in insertion order — a
        // deterministic tie-break) and charge its value to the newcomer.
        let (victim, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.count, *i))
            .expect("capacity >= 1");
        let entry = &mut self.entries[victim];
        self.index.remove(&entry.key);
        entry.error = entry.count;
        entry.count += 1;
        entry.key = key;
        self.index.insert(key, victim);
    }

    /// Merges `other` into `self` — the classic mergeable-summaries rule
    /// (Agarwal et al. 2012) the sharded runtime uses to combine per-shard
    /// sketches into one cluster view at the monitoring tick.
    ///
    /// For a key tracked on both sides, counts and errors add. For a key
    /// tracked on one side only, the other side may have seen it up to its
    /// minimum counter times, so that minimum is added to *both* the count
    /// and the error (keeping the estimate an over-approximation and the
    /// guaranteed count an under-approximation of the true combined
    /// frequency). The union is then truncated to `self.capacity`, keeping
    /// the largest counters with a deterministic `(count desc, key asc)`
    /// order — which also preserves the untracked-key bound: every kept
    /// counter is at least `self_min + other_min`, and no dropped or unseen
    /// key can exceed that.
    ///
    /// All sketch guarantees (`estimate >= true`, `guaranteed <= true`,
    /// `untracked true count <= min_count`) survive the merge; the property
    /// suite pins them against a single global sketch over the combined
    /// stream.
    pub fn merge(&mut self, other: &SpaceSavingSketch) {
        if other.total == 0 {
            return;
        }
        let self_min = if self.len() >= self.capacity {
            self.min_count()
        } else {
            0
        };
        let other_min = if other.len() >= other.capacity {
            other.min_count()
        } else {
            0
        };
        let mut combined: Vec<SketchEntry> =
            Vec::with_capacity(self.entries.len() + other.entries.len());
        for e in &self.entries {
            match other.entry(e.key) {
                Some(o) => combined.push(SketchEntry {
                    key: e.key,
                    count: e.count + o.count,
                    error: e.error + o.error,
                }),
                None => combined.push(SketchEntry {
                    key: e.key,
                    count: e.count + other_min,
                    error: e.error + other_min,
                }),
            }
        }
        for o in &other.entries {
            if self.index.contains_key(&o.key) {
                continue;
            }
            combined.push(SketchEntry {
                key: o.key,
                count: o.count + self_min,
                error: o.error + self_min,
            });
        }
        combined.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        combined.truncate(self.capacity);
        self.total += other.total;
        self.entries = combined;
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key, i))
            .collect();
    }
}

/// A key the tracker currently considers hot, with its smoothed write rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotKey {
    /// The key.
    pub key: KeyId,
    /// Guaranteed occurrence count (`count - error`, a certain lower bound).
    pub guaranteed_count: u64,
    /// Guaranteed share of all observations (`guaranteed_count / total`).
    pub share: f64,
    /// Smoothed per-key arrival rate (observations per second).
    pub rate: f64,
}

/// Smoothing factor of the per-key rate EWMA (sweep-to-sweep).
const RATE_ALPHA: f64 = 0.5;

/// How many observations per sketch counter must accumulate before any key
/// may be declared hot — keeps small-sample noise (every early key looks
/// "hot" relative to a tiny total) from producing phantom hot sets under
/// uniform load.
const WARMUP_PER_COUNTER: u64 = 20;

/// Sweep-to-sweep heavy-hitter tracking: a [`SpaceSavingSketch`] plus
/// smoothed per-key arrival rates and the hot-set selection rule.
#[derive(Debug)]
pub struct HotKeyTracker {
    sketch: SpaceSavingSketch,
    /// Minimum guaranteed share for a key to count as hot.
    min_share: f64,
    /// Counter values at the previous sweep, for delta-based rates.
    prev_counts: HashMap<KeyId, u64, FixedState>,
    /// Smoothed per-key arrival rates.
    rates: HashMap<KeyId, f64, FixedState>,
}

impl HotKeyTracker {
    /// Creates a tracker with the given sketch capacity and hot-share
    /// threshold (a fraction of all observed writes; clamped to `[0, 1]`).
    pub fn new(capacity: usize, min_share: f64) -> Self {
        HotKeyTracker {
            sketch: SpaceSavingSketch::new(capacity),
            min_share: min_share.clamp(0.0, 1.0),
            prev_counts: HashMap::default(),
            rates: HashMap::default(),
        }
    }

    /// Read-only access to the underlying sketch.
    pub fn sketch(&self) -> &SpaceSavingSketch {
        &self.sketch
    }

    /// Feeds one monitoring sweep's batch of observed write keys and updates
    /// the per-key rate estimates over the sweep's `elapsed_secs`.
    pub fn observe_sweep(&mut self, keys: &[KeyId], elapsed_secs: f64) {
        for &key in keys {
            self.sketch.observe(key);
        }
        self.update_rates(elapsed_secs);
    }

    /// Replaces the tracked sketch with an externally merged one (the
    /// sharded runtime folds per-shard cumulative sketches into a single
    /// cluster sketch at every monitoring tick) and updates the per-key
    /// rates from the same sweep-to-sweep count deltas as
    /// [`HotKeyTracker::observe_sweep`]. Because each shard's counters are
    /// cumulative and the merge is monotone, the deltas against the
    /// previous merged sketch are exactly the sweep's new arrivals.
    pub fn observe_merged(&mut self, merged: SpaceSavingSketch, elapsed_secs: f64) {
        self.sketch = merged;
        self.update_rates(elapsed_secs);
    }

    /// Sweep-to-sweep rate maintenance over the current sketch contents.
    fn update_rates(&mut self, elapsed_secs: f64) {
        if elapsed_secs <= 0.0 {
            return;
        }
        for entry in self.sketch.entries() {
            // A key that entered the sketch since the last sweep has no
            // baseline; its guaranteed count is entirely new arrivals (they
            // happened after it displaced the previous minimum), which is the
            // right first rate sample.
            let baseline = self
                .prev_counts
                .get(&entry.key)
                .copied()
                .unwrap_or(entry.error);
            let delta = entry.count.saturating_sub(baseline);
            let instantaneous = delta as f64 / elapsed_secs;
            let rate = match self.rates.get(&entry.key) {
                Some(prev) => RATE_ALPHA * instantaneous + (1.0 - RATE_ALPHA) * prev,
                None => instantaneous,
            };
            self.rates.insert(entry.key, rate);
            self.prev_counts.insert(entry.key, entry.count);
        }
        // Evicted keys must not leak memory (or stale rates back) if the key
        // re-enters the sketch later.
        let tracked: std::collections::HashSet<KeyId, FixedState> =
            self.sketch.entries().iter().map(|e| e.key).collect();
        self.prev_counts.retain(|k, _| tracked.contains(k));
        self.rates.retain(|k, _| tracked.contains(k));
    }

    /// Whether `entry` clears the hot thresholds: enough total observations
    /// (warmup), a guaranteed count above the `total / capacity` noise floor,
    /// and a guaranteed share above the configured minimum.
    fn is_hot(&self, entry: &SketchEntry) -> bool {
        let total = self.sketch.total();
        if total < WARMUP_PER_COUNTER * self.sketch.capacity() as u64 {
            return false;
        }
        let noise_floor = total / self.sketch.capacity() as u64;
        let guaranteed = entry.guaranteed();
        guaranteed > noise_floor && guaranteed as f64 / total as f64 > self.min_share
    }

    /// The current hot set: tracked keys whose *guaranteed* share exceeds
    /// both the configured threshold and the `total / capacity` noise floor,
    /// once enough observations have accumulated. Sorted by descending
    /// guaranteed count (key id as the deterministic tie-break).
    pub fn hot_keys(&self) -> Vec<HotKey> {
        let total = self.sketch.total();
        let mut hot: Vec<HotKey> = self
            .sketch
            .entries()
            .iter()
            .filter(|e| self.is_hot(e))
            .map(|e| HotKey {
                key: e.key,
                guaranteed_count: e.guaranteed(),
                share: e.guaranteed() as f64 / total as f64,
                rate: self.rates.get(&e.key).copied().unwrap_or(0.0),
            })
            .collect();
        hot.sort_by(|a, b| {
            b.guaranteed_count
                .cmp(&a.guaranteed_count)
                .then_with(|| a.key.cmp(&b.key))
        });
        hot
    }

    /// Upper bound on the write share of any key *outside* the current hot
    /// set — the space-saving guarantee turned into a cold-tail bound. An
    /// untracked key's true count cannot exceed the minimum counter (only
    /// relevant once the sketch is at capacity); a tracked-but-not-hot key is
    /// bounded by its own (over-approximating) counter. The split controller
    /// decides the *default* consistency level at this per-key intensity, so
    /// the cold tail stops paying for the hot keys' pressure while every
    /// non-hot key stays provably covered.
    pub fn cold_share_bound(&self) -> f64 {
        let total = self.sketch.total();
        if total == 0 {
            return 1.0;
        }
        let untracked = if self.sketch.len() >= self.sketch.capacity() {
            self.sketch.min_count()
        } else {
            0
        };
        let bound = self
            .sketch
            .entries()
            .iter()
            .filter(|e| !self.is_hot(e))
            .map(|e| e.count)
            .fold(untracked, u64::max);
        (bound as f64 / total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: KeyId = KeyId(0);
    const B: KeyId = KeyId(1);
    const C: KeyId = KeyId(2);
    const HOT: KeyId = KeyId(500_000);

    fn cold(i: u64) -> KeyId {
        KeyId(1_000 + i as u32)
    }

    #[test]
    fn counts_exactly_below_capacity() {
        let mut s = SpaceSavingSketch::new(8);
        for _ in 0..5 {
            s.observe(A);
        }
        for _ in 0..3 {
            s.observe(B);
        }
        assert_eq!(s.estimate(A), Some(5));
        assert_eq!(s.estimate(B), Some(3));
        assert_eq!(s.estimate(C), None);
        assert_eq!(s.total(), 8);
        assert_eq!(s.entry(A).unwrap().error, 0);
        assert_eq!(s.entry(A).unwrap().guaranteed(), 5);
    }

    #[test]
    fn capacity_is_never_exceeded_and_eviction_charges_error() {
        let mut s = SpaceSavingSketch::new(2);
        s.observe(A);
        s.observe(A);
        s.observe(B);
        // C evicts the minimum (B with count 1) and inherits its count.
        s.observe(C);
        assert_eq!(s.len(), 2);
        assert_eq!(s.estimate(B), None);
        let c = s.entry(C).unwrap();
        assert_eq!(c.count, 2);
        assert_eq!(c.error, 1);
        assert_eq!(c.guaranteed(), 1);
        // The heavy key is untouched.
        assert_eq!(s.estimate(A), Some(2));
    }

    #[test]
    fn eviction_tie_break_is_deterministic() {
        let build = || {
            let mut s = SpaceSavingSketch::new(3);
            for k in [KeyId(0), KeyId(1), KeyId(2), KeyId(3), KeyId(4), KeyId(3)] {
                s.observe(k);
            }
            s.entries().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn heavy_key_survives_a_long_tail() {
        let mut s = SpaceSavingSketch::new(10);
        for i in 0..1000 {
            s.observe(HOT);
            s.observe(cold(i));
        }
        // True frequency 1000/2000 = 50% >> total/capacity: must be tracked,
        // with an estimate at least its true count.
        assert!(s.estimate(HOT).unwrap() >= 1000);
        assert!(s.entry(HOT).unwrap().guaranteed() <= 1000 + 1);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut s = SpaceSavingSketch::new(0);
        s.observe(A);
        s.observe(B);
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tracker_warmup_produces_no_hot_keys() {
        let mut t = HotKeyTracker::new(4, 0.02);
        t.observe_sweep(&[A, A, B], 1.0);
        assert!(t.hot_keys().is_empty(), "warmup must suppress hot keys");
    }

    #[test]
    fn tracker_finds_the_hot_key_and_its_rate() {
        let mut t = HotKeyTracker::new(4, 0.02);
        // 10 sweeps of 1 s: 60 writes to HOT, 40 spread over a cold tail.
        for sweep in 0..10 {
            let mut batch: Vec<KeyId> = vec![HOT; 60];
            for i in 0..40 {
                batch.push(cold((sweep * 40 + i) % 16));
            }
            t.observe_sweep(&batch, 1.0);
        }
        let hot = t.hot_keys();
        assert_eq!(hot.len(), 1, "hot set: {hot:?}");
        assert_eq!(hot[0].key, HOT);
        assert!(hot[0].share > 0.5, "share = {}", hot[0].share);
        // The smoothed rate converges to the true 60 writes/s.
        assert!((hot[0].rate - 60.0).abs() < 5.0, "rate = {}", hot[0].rate);
    }

    #[test]
    fn tracker_under_uniform_load_stays_empty() {
        let mut t = HotKeyTracker::new(8, 0.02);
        for sweep in 0..30u64 {
            let batch: Vec<KeyId> = (0..100u64)
                .map(|i| cold((sweep * 100 + i * 37) % 500))
                .collect();
            t.observe_sweep(&batch, 1.0);
        }
        assert!(
            t.hot_keys().is_empty(),
            "uniform load produced {:?}",
            t.hot_keys()
        );
    }

    #[test]
    fn tracker_is_deterministic() {
        let hot_a = KeyId(900_000);
        let hot_b = KeyId(900_001);
        let run = || {
            let mut t = HotKeyTracker::new(6, 0.01);
            for sweep in 0..12u64 {
                let batch: Vec<KeyId> = (0..80u64)
                    .map(|i| {
                        let x = (sweep * 80 + i) * 2654435761 % 100;
                        if x < 40 {
                            hot_a
                        } else if x < 60 {
                            hot_b
                        } else {
                            cold(x % 23)
                        }
                    })
                    .collect();
                t.observe_sweep(&batch, 0.5);
            }
            t.hot_keys()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.len() >= 2);
        assert_eq!(a[0].key, hot_a);
        assert_eq!(a[1].key, hot_b);
    }

    #[test]
    fn cold_share_bound_excludes_hot_keys_and_covers_the_tail() {
        let mut t = HotKeyTracker::new(4, 0.02);
        // No observations: everything is possible.
        assert_eq!(t.cold_share_bound(), 1.0);
        for sweep in 0..10u64 {
            let mut batch: Vec<KeyId> = (0..60).map(|_| HOT).collect();
            for i in 0..40u64 {
                batch.push(cold((sweep * 40 + i) % 16));
            }
            t.observe_sweep(&batch, 1.0);
        }
        let hot = t.hot_keys();
        assert_eq!(hot.len(), 1);
        let bound = t.cold_share_bound();
        // The hot key (share 0.6) is excluded; every cold key's true share
        // (40% spread over 16 keys = 2.5% each) is covered by the bound,
        // which itself stays far below the hot share.
        assert!(bound >= 0.025, "bound = {bound}");
        assert!(bound < 0.3, "bound = {bound}");
    }

    #[test]
    fn rates_decay_when_a_key_cools_down() {
        let mut t = HotKeyTracker::new(4, 0.0);
        let hot_batch: Vec<KeyId> = (0..100).map(|_| A).collect();
        for _ in 0..10 {
            t.observe_sweep(&hot_batch, 1.0);
        }
        let busy = t.hot_keys()[0].rate;
        for _ in 0..6 {
            t.observe_sweep(&[], 1.0);
        }
        let calm = t.hot_keys()[0].rate;
        assert!(busy > 90.0, "busy = {busy}");
        assert!(calm < busy / 10.0, "calm = {calm}");
    }
}
