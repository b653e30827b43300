//! Key-selection distributions matching the YCSB core generators.
//!
//! YCSB picks the key of each operation from one of a few canonical
//! distributions: uniform, Zipfian (hot keys exist and stay hot), scrambled
//! Zipfian (hot keys exist but are spread over the keyspace), "latest"
//! (recently inserted records are hot), and hotspot. The choice matters for
//! Harmony because key contention concentrates writes, widening the window in
//! which partial-quorum reads observe stale data.

use rand::Rng;

/// The Zipfian constant YCSB uses by default.
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// A generator of record indices in `[0, item_count)`.
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Every record equally likely.
    Uniform {
        /// Number of records.
        item_count: u64,
    },
    /// Zipf-distributed popularity with items ranked by index (item 0 is the
    /// most popular).
    Zipfian(Zipfian),
    /// Zipf-distributed popularity, but the popular items are scattered over
    /// the keyspace by hashing the rank (YCSB's `ScrambledZipfian`).
    ScrambledZipfian(Zipfian),
    /// The most recently inserted records are the most popular (YCSB's
    /// `latest` distribution, used by workload D).
    Latest(Zipfian),
    /// A fraction of operations goes to a small hot set, the rest uniform.
    Hotspot {
        /// Number of records.
        item_count: u64,
        /// Fraction of the keyspace that is hot (e.g. 0.2).
        hot_set_fraction: f64,
        /// Fraction of operations that target the hot set (e.g. 0.8).
        hot_op_fraction: f64,
    },
}

impl KeyChooser {
    /// A uniform chooser over `item_count` records.
    pub fn uniform(item_count: u64) -> Self {
        KeyChooser::Uniform {
            item_count: item_count.max(1),
        }
    }

    /// A Zipfian chooser over `item_count` records with the YCSB constant.
    pub fn zipfian(item_count: u64) -> Self {
        KeyChooser::Zipfian(Zipfian::new(item_count.max(1), YCSB_ZIPFIAN_CONSTANT))
    }

    /// A scrambled-Zipfian chooser over `item_count` records.
    pub fn scrambled_zipfian(item_count: u64) -> Self {
        KeyChooser::ScrambledZipfian(Zipfian::new(item_count.max(1), YCSB_ZIPFIAN_CONSTANT))
    }

    /// A "latest" chooser over `item_count` records.
    pub fn latest(item_count: u64) -> Self {
        KeyChooser::Latest(Zipfian::new(item_count.max(1), YCSB_ZIPFIAN_CONSTANT))
    }

    /// A hotspot chooser.
    pub fn hotspot(item_count: u64, hot_set_fraction: f64, hot_op_fraction: f64) -> Self {
        KeyChooser::Hotspot {
            item_count: item_count.max(1),
            hot_set_fraction: hot_set_fraction.clamp(0.0, 1.0),
            hot_op_fraction: hot_op_fraction.clamp(0.0, 1.0),
        }
    }

    /// The number of records the chooser draws from.
    pub fn item_count(&self) -> u64 {
        match self {
            KeyChooser::Uniform { item_count } => *item_count,
            KeyChooser::Zipfian(z) | KeyChooser::ScrambledZipfian(z) | KeyChooser::Latest(z) => {
                z.item_count()
            }
            KeyChooser::Hotspot { item_count, .. } => *item_count,
        }
    }

    /// Draws a record index in `[0, item_count)`.
    pub fn next_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            KeyChooser::Uniform { item_count } => rng.gen_range(0..*item_count),
            KeyChooser::Zipfian(z) => z.sample(rng),
            KeyChooser::ScrambledZipfian(z) => {
                let rank = z.sample(rng);
                // Spread the popular ranks over the keyspace with a stable hash.
                harmony_sim::rng::mix(rank, 0xD1B5_4A32_D192_ED03) % z.item_count()
            }
            KeyChooser::Latest(z) => {
                // Rank 0 = the newest record.
                let rank = z.sample(rng);
                z.item_count() - 1 - rank
            }
            KeyChooser::Hotspot {
                item_count,
                hot_set_fraction,
                hot_op_fraction,
            } => {
                let hot_items = ((*item_count as f64) * hot_set_fraction).ceil().max(1.0) as u64;
                if rng.gen_bool(*hot_op_fraction) {
                    rng.gen_range(0..hot_items.min(*item_count))
                } else {
                    rng.gen_range(0..*item_count)
                }
            }
        }
    }
}

/// The YCSB Zipfian generator (Gray et al. rejection-free method with
/// precomputed zeta values).
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`: the probability mass of rank 1 relative to rank 0.
    half_pow_theta: f64,
}

impl Zipfian {
    /// Creates a Zipfian generator over `items` records with skew `theta`.
    pub fn new(items: u64, theta: f64) -> Self {
        let items = items.max(1);
        let zeta2theta = Self::zeta(2, theta);
        let zetan = Self::zeta(items, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of records.
    pub fn item_count(&self) -> u64 {
        self.items
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `[0, items)`, 0 being the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.items == 1 {
            return 0;
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64 % self.items
    }
}

/// Formats a record index as a YCSB-style key (`user<index>`).
pub fn record_key(index: u64) -> String {
    format!("user{index}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn histogram(chooser: &KeyChooser, draws: usize) -> HashMap<u64, u64> {
        let mut r = rng();
        let mut h = HashMap::new();
        for _ in 0..draws {
            *h.entry(chooser.next_index(&mut r)).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn all_choosers_stay_in_range() {
        let n = 1000;
        let choosers = [
            KeyChooser::uniform(n),
            KeyChooser::zipfian(n),
            KeyChooser::scrambled_zipfian(n),
            KeyChooser::latest(n),
            KeyChooser::hotspot(n, 0.2, 0.8),
        ];
        let mut r = rng();
        for c in &choosers {
            assert_eq!(c.item_count(), n);
            for _ in 0..10_000 {
                assert!(c.next_index(&mut r) < n);
            }
        }
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let h = histogram(&KeyChooser::uniform(10), 100_000);
        for count in h.values() {
            assert!(*count > 8_000 && *count < 12_000, "count={count}");
        }
    }

    #[test]
    fn zipfian_is_heavily_skewed_towards_low_ranks() {
        let h = histogram(&KeyChooser::zipfian(1000), 100_000);
        let top = h.get(&0).copied().unwrap_or(0);
        let total: u64 = h.values().sum();
        // Rank 0 should receive far more than its uniform share (0.1%).
        assert!(
            top as f64 / total as f64 > 0.05,
            "top share = {}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_the_hot_keys() {
        let h = histogram(&KeyChooser::scrambled_zipfian(1000), 100_000);
        // The hottest key is no longer index 0 (it is scattered by the hash)...
        let (hot_key, hot_count) = h.iter().max_by_key(|(_, c)| **c).unwrap();
        assert!(*hot_count as f64 / 100_000.0 > 0.05);
        // ...but some key is still disproportionately hot.
        assert_ne!(
            *hot_key, 0,
            "scrambling should move the hottest key away from rank 0"
        );
    }

    #[test]
    fn latest_prefers_recent_records() {
        let n = 1000;
        let h = histogram(&KeyChooser::latest(n), 100_000);
        let newest = h.get(&(n - 1)).copied().unwrap_or(0);
        let oldest = h.get(&0).copied().unwrap_or(0);
        assert!(newest > oldest * 10, "newest={newest} oldest={oldest}");
    }

    #[test]
    fn hotspot_respects_hot_fraction() {
        let n = 1000;
        let h = histogram(&KeyChooser::hotspot(n, 0.1, 0.9), 100_000);
        let hot: u64 = h.iter().filter(|(k, _)| **k < 100).map(|(_, c)| *c).sum();
        let share = hot as f64 / 100_000.0;
        assert!(share > 0.85 && share < 0.95, "hot share = {share}");
    }

    #[test]
    fn zipfian_handles_single_item() {
        let z = Zipfian::new(1, 0.99);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn zipfian_zeta_values() {
        let z = Zipfian::new(2, 0.99);
        assert_eq!(z.item_count(), 2);
        assert!((z.theta() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn record_key_format() {
        assert_eq!(record_key(0), "user0");
        assert_eq!(record_key(12345), "user12345");
    }

    #[test]
    fn zero_item_counts_clamp_to_one() {
        assert_eq!(KeyChooser::uniform(0).item_count(), 1);
        assert_eq!(KeyChooser::zipfian(0).item_count(), 1);
        let mut r = rng();
        assert_eq!(KeyChooser::hotspot(0, 0.5, 0.5).next_index(&mut r), 0);
    }
}
