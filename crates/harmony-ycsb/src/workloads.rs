//! Workload definitions mirroring the YCSB core workloads.
//!
//! The paper evaluates with workload A (heavy read-update, 50/50) and
//! workload B (read-heavy, ~95/5) — §V.D. The remaining core workloads are
//! provided for completeness so downstream users can exercise Harmony under
//! other access patterns (read-latest, scan-free insert mixes, etc.).

use crate::distributions::KeyChooser;
use rand::Rng;

/// Which key distribution a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestDistribution {
    /// Every record equally likely.
    Uniform,
    /// Zipf-distributed popularity.
    Zipfian,
    /// Zipf-distributed popularity scattered over the keyspace.
    ScrambledZipfian,
    /// Recently inserted records are the most popular.
    Latest,
    /// A hot set receives most operations.
    Hotspot,
}

/// The kind of operation a workload step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Read one row.
    Read,
    /// Update (overwrite one field of) one row.
    Update,
    /// Insert a new row.
    Insert,
    /// Read one row, then write it back (counts as one read and one write).
    ReadModifyWrite,
}

/// A YCSB-style workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Short name used in reports (e.g. `"workload-a"`).
    pub name: String,
    /// Fraction of read operations.
    pub read_proportion: f64,
    /// Fraction of update operations.
    pub update_proportion: f64,
    /// Fraction of insert operations.
    pub insert_proportion: f64,
    /// Fraction of read-modify-write operations.
    pub rmw_proportion: f64,
    /// Key-popularity distribution.
    pub request_distribution: RequestDistribution,
    /// For [`RequestDistribution::Hotspot`]: fraction of the keyspace that is
    /// hot (YCSB's `hotspotdatafraction`; ignored by other distributions).
    pub hotspot_hot_fraction: f64,
    /// For [`RequestDistribution::Hotspot`]: fraction of operations that
    /// target the hot set (YCSB's `hotspotopnfraction`).
    pub hotspot_op_fraction: f64,
    /// Number of records loaded before the transaction phase.
    pub record_count: u64,
    /// Number of fields per record.
    pub field_count: usize,
    /// Size of each field value in bytes.
    pub field_size: usize,
}

impl WorkloadSpec {
    /// YCSB workload A: update heavy, 50% reads / 50% updates, Zipfian.
    /// This is the paper's main workload.
    pub fn workload_a(record_count: u64) -> Self {
        WorkloadSpec {
            name: "workload-a".into(),
            read_proportion: 0.5,
            update_proportion: 0.5,
            insert_proportion: 0.0,
            rmw_proportion: 0.0,
            request_distribution: RequestDistribution::Zipfian,
            hotspot_hot_fraction: 0.2,
            hotspot_op_fraction: 0.8,
            record_count,
            field_count: 10,
            field_size: 100,
        }
    }

    /// YCSB workload B: read heavy, 95% reads / 5% updates, Zipfian.
    /// Used by the paper for the Figure 4(a) comparison.
    pub fn workload_b(record_count: u64) -> Self {
        WorkloadSpec {
            name: "workload-b".into(),
            read_proportion: 0.95,
            update_proportion: 0.05,
            ..Self::workload_a(record_count)
        }
    }

    /// YCSB workload C: read only.
    pub fn workload_c(record_count: u64) -> Self {
        WorkloadSpec {
            name: "workload-c".into(),
            read_proportion: 1.0,
            update_proportion: 0.0,
            ..Self::workload_a(record_count)
        }
    }

    /// YCSB workload D: read latest, 95% reads / 5% inserts.
    pub fn workload_d(record_count: u64) -> Self {
        WorkloadSpec {
            name: "workload-d".into(),
            read_proportion: 0.95,
            update_proportion: 0.0,
            insert_proportion: 0.05,
            request_distribution: RequestDistribution::Latest,
            ..Self::workload_a(record_count)
        }
    }

    /// YCSB workload F: read-modify-write, 50% reads / 50% RMW.
    pub fn workload_f(record_count: u64) -> Self {
        WorkloadSpec {
            name: "workload-f".into(),
            read_proportion: 0.5,
            update_proportion: 0.0,
            rmw_proportion: 0.5,
            ..Self::workload_a(record_count)
        }
    }

    /// Looks a core workload up by its letter (`a`, `b`, `c`, `d`, `f`).
    pub fn by_letter(letter: char, record_count: u64) -> Option<Self> {
        match letter.to_ascii_lowercase() {
            'a' => Some(Self::workload_a(record_count)),
            'b' => Some(Self::workload_b(record_count)),
            'c' => Some(Self::workload_c(record_count)),
            'd' => Some(Self::workload_d(record_count)),
            'f' => Some(Self::workload_f(record_count)),
            _ => None,
        }
    }

    /// A custom read/update mix with the given read fraction, Zipfian keys.
    pub fn read_update_mix(name: impl Into<String>, read_fraction: f64, record_count: u64) -> Self {
        let read_fraction = read_fraction.clamp(0.0, 1.0);
        WorkloadSpec {
            name: name.into(),
            read_proportion: read_fraction,
            update_proportion: 1.0 - read_fraction,
            ..Self::workload_a(record_count)
        }
    }

    /// Validates that the proportions form a probability distribution.
    pub fn validate(&self) -> Result<(), String> {
        let total = self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion;
        if !(0.999..=1.001).contains(&total) {
            return Err(format!(
                "operation proportions sum to {total}, expected 1.0"
            ));
        }
        if [
            self.read_proportion,
            self.update_proportion,
            self.insert_proportion,
            self.rmw_proportion,
        ]
        .iter()
        .any(|p| *p < 0.0)
        {
            return Err("operation proportions must be non-negative".into());
        }
        if self.record_count == 0 {
            return Err("record_count must be at least 1".into());
        }
        if self.field_count == 0 || self.field_size == 0 {
            return Err("field_count and field_size must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.hotspot_hot_fraction)
            || !(0.0..=1.0).contains(&self.hotspot_op_fraction)
        {
            return Err("hotspot fractions must be within [0, 1]".into());
        }
        Ok(())
    }

    /// Builds the key chooser for this workload.
    pub fn key_chooser(&self) -> KeyChooser {
        match self.request_distribution {
            RequestDistribution::Uniform => KeyChooser::uniform(self.record_count),
            RequestDistribution::Zipfian => KeyChooser::zipfian(self.record_count),
            RequestDistribution::ScrambledZipfian => {
                KeyChooser::scrambled_zipfian(self.record_count)
            }
            RequestDistribution::Latest => KeyChooser::latest(self.record_count),
            RequestDistribution::Hotspot => KeyChooser::hotspot(
                self.record_count,
                self.hotspot_hot_fraction,
                self.hotspot_op_fraction,
            ),
        }
    }

    /// A skew sweep variant of this workload: same operation mix, different
    /// key-popularity distribution (hotspot parameters apply only to
    /// [`RequestDistribution::Hotspot`]). The name gains a `-<skew>` suffix.
    pub fn with_distribution(mut self, distribution: RequestDistribution) -> Self {
        self.request_distribution = distribution;
        let suffix = match distribution {
            RequestDistribution::Uniform => "uniform",
            RequestDistribution::Zipfian => "zipfian",
            RequestDistribution::ScrambledZipfian => "scrambled",
            RequestDistribution::Latest => "latest",
            RequestDistribution::Hotspot => "hotspot",
        };
        self.name = format!("{}-{suffix}", self.name);
        self
    }

    /// Draws the next operation kind.
    pub fn next_operation<R: Rng + ?Sized>(&self, rng: &mut R) -> Operation {
        let x: f64 = rng.gen();
        if x < self.read_proportion {
            Operation::Read
        } else if x < self.read_proportion + self.update_proportion {
            Operation::Update
        } else if x < self.read_proportion + self.update_proportion + self.insert_proportion {
            Operation::Insert
        } else {
            Operation::ReadModifyWrite
        }
    }

    /// The average size in bytes of one update payload (a single field).
    pub fn update_size_bytes(&self) -> f64 {
        self.field_size as f64 + 8.0
    }

    /// The size in bytes of one full row.
    pub fn row_size_bytes(&self) -> usize {
        self.field_count * (self.field_size + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn core_workloads_are_valid() {
        for letter in ['a', 'b', 'c', 'd', 'f'] {
            let w = WorkloadSpec::by_letter(letter, 1000).unwrap();
            assert!(w.validate().is_ok(), "workload {letter}");
        }
        assert!(WorkloadSpec::by_letter('z', 10).is_none());
        assert!(WorkloadSpec::by_letter('E', 10).is_none());
    }

    #[test]
    fn workload_a_is_the_papers_heavy_read_update_mix() {
        let w = WorkloadSpec::workload_a(1000);
        assert_eq!(w.read_proportion, 0.5);
        assert_eq!(w.update_proportion, 0.5);
        assert_eq!(w.request_distribution, RequestDistribution::Zipfian);
    }

    #[test]
    fn workload_b_is_read_heavy() {
        let w = WorkloadSpec::workload_b(1000);
        assert_eq!(w.read_proportion, 0.95);
        assert!((w.update_proportion - 0.05).abs() < 1e-12);
    }

    #[test]
    fn operation_mix_respects_proportions() {
        let w = WorkloadSpec::workload_a(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..100_000 {
            match w.next_operation(&mut rng) {
                Operation::Read => reads += 1,
                Operation::Update => updates += 1,
                other => panic!("unexpected op {other:?} for workload A"),
            }
        }
        let read_share = reads as f64 / (reads + updates) as f64;
        assert!((read_share - 0.5).abs() < 0.01, "read share = {read_share}");
    }

    #[test]
    fn workload_d_produces_inserts() {
        let w = WorkloadSpec::workload_d(1000);
        let mut rng = StdRng::seed_from_u64(2);
        let mut inserts = 0;
        for _ in 0..10_000 {
            if w.next_operation(&mut rng) == Operation::Insert {
                inserts += 1;
            }
        }
        assert!(inserts > 300 && inserts < 700, "inserts = {inserts}");
    }

    #[test]
    fn workload_f_produces_rmw() {
        let w = WorkloadSpec::workload_f(1000);
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..10_000).any(|_| w.next_operation(&mut rng) == Operation::ReadModifyWrite));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut w = WorkloadSpec::workload_a(1000);
        w.read_proportion = 0.9; // now sums to 1.4
        assert!(w.validate().is_err());

        let mut w = WorkloadSpec::workload_a(1000);
        w.record_count = 0;
        assert!(w.validate().is_err());

        let mut w = WorkloadSpec::workload_a(1000);
        w.field_size = 0;
        assert!(w.validate().is_err());

        let mut w = WorkloadSpec::workload_a(1000);
        w.read_proportion = -0.5;
        w.update_proportion = 1.5;
        assert!(w.validate().is_err());
    }

    #[test]
    fn custom_mix_clamps_and_validates() {
        let w = WorkloadSpec::read_update_mix("custom", 0.8, 500);
        assert!(w.validate().is_ok());
        assert!((w.update_proportion - 0.2).abs() < 1e-12);
        let w = WorkloadSpec::read_update_mix("all-reads", 2.0, 500);
        assert_eq!(w.read_proportion, 1.0);
    }

    #[test]
    fn sizes_reflect_field_configuration() {
        let w = WorkloadSpec::workload_a(10);
        assert_eq!(w.row_size_bytes(), 10 * 108);
        assert!((w.update_size_bytes() - 108.0).abs() < 1e-12);
    }

    #[test]
    fn key_chooser_matches_distribution() {
        let w = WorkloadSpec::workload_a(123);
        assert_eq!(w.key_chooser().item_count(), 123);
        let d = WorkloadSpec::workload_d(77);
        assert_eq!(d.key_chooser().item_count(), 77);
    }

    #[test]
    fn hotspot_parameters_flow_into_the_chooser() {
        let mut w = WorkloadSpec::workload_a(1000).with_distribution(RequestDistribution::Hotspot);
        w.hotspot_hot_fraction = 0.1;
        w.hotspot_op_fraction = 0.9;
        assert!(w.validate().is_ok());
        assert_eq!(w.name, "workload-a-hotspot");
        let mut rng = StdRng::seed_from_u64(9);
        let chooser = w.key_chooser();
        let hot: u64 = (0..50_000)
            .filter(|_| chooser.next_index(&mut rng) < 100)
            .count() as u64;
        let share = hot as f64 / 50_000.0;
        assert!(share > 0.85 && share < 0.95, "hot share = {share}");
        // Out-of-range fractions fail validation.
        w.hotspot_op_fraction = 1.5;
        assert!(w.validate().is_err());
    }

    #[test]
    fn with_distribution_renames_and_switches() {
        let u = WorkloadSpec::workload_a(10).with_distribution(RequestDistribution::Uniform);
        assert_eq!(u.name, "workload-a-uniform");
        assert_eq!(u.request_distribution, RequestDistribution::Uniform);
        assert_eq!(u.read_proportion, 0.5);
    }
}
