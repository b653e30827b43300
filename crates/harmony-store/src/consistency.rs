//! Per-operation consistency levels and quorum arithmetic (paper §II.B).
//!
//! Cassandra lets clients choose, per operation, how many replicas must
//! acknowledge before the operation returns. Harmony exploits exactly this
//! knob: its controller translates the estimated stale-read rate into a
//! number of replicas `Xn` and issues subsequent reads at level
//! [`ConsistencyLevel::Replicas`]`(Xn)`.

/// How many replicas must participate synchronously in an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyLevel {
    /// A single replica (basic eventual consistency; Cassandra `ONE`).
    One,
    /// Two replicas (Cassandra `TWO`).
    Two,
    /// Three replicas (Cassandra `THREE`).
    Three,
    /// A majority quorum: `(RF / 2) + 1` replicas (Cassandra `QUORUM`).
    Quorum,
    /// Every replica (strong consistency; Cassandra `ALL`).
    All,
    /// An explicit replica count, the level Harmony computes dynamically
    /// (clamped to `[1, RF]` at use time).
    Replicas(usize),
}

impl ConsistencyLevel {
    /// The number of replica acknowledgements required for a store whose
    /// replication factor is `rf`. Always in `[1, rf]`.
    pub fn required_acks(&self, rf: usize) -> usize {
        let rf = rf.max(1);
        let raw = match self {
            ConsistencyLevel::One => 1,
            ConsistencyLevel::Two => 2,
            ConsistencyLevel::Three => 3,
            ConsistencyLevel::Quorum => rf / 2 + 1,
            ConsistencyLevel::All => rf,
            ConsistencyLevel::Replicas(x) => *x,
        };
        raw.clamp(1, rf)
    }

    /// Maps an explicit replica count to the most idiomatic named level
    /// (used for reporting): 1 → `One`, rf → `All`, quorum → `Quorum`,
    /// otherwise `Replicas(x)`.
    pub fn from_replica_count(x: usize, rf: usize) -> ConsistencyLevel {
        let rf = rf.max(1);
        let x = x.clamp(1, rf);
        if x == 1 {
            ConsistencyLevel::One
        } else if x == rf {
            ConsistencyLevel::All
        } else if x == rf / 2 + 1 {
            ConsistencyLevel::Quorum
        } else {
            ConsistencyLevel::Replicas(x)
        }
    }

    /// True if a read at `self` combined with a write at `write_level` is
    /// guaranteed to intersect in at least one replica holding the latest
    /// acknowledged write (`R + W > RF`).
    pub fn read_your_writes(&self, write_level: ConsistencyLevel, rf: usize) -> bool {
        self.required_acks(rf) + write_level.required_acks(rf) > rf
    }
}

impl std::fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyLevel::One => write!(f, "ONE"),
            ConsistencyLevel::Two => write!(f, "TWO"),
            ConsistencyLevel::Three => write!(f, "THREE"),
            ConsistencyLevel::Quorum => write!(f, "QUORUM"),
            ConsistencyLevel::All => write!(f, "ALL"),
            ConsistencyLevel::Replicas(x) => write!(f, "REPLICAS({x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ConsistencyLevel::*;

    #[test]
    fn required_acks_for_rf5() {
        assert_eq!(One.required_acks(5), 1);
        assert_eq!(Two.required_acks(5), 2);
        assert_eq!(Three.required_acks(5), 3);
        assert_eq!(Quorum.required_acks(5), 3);
        assert_eq!(All.required_acks(5), 5);
        assert_eq!(Replicas(4).required_acks(5), 4);
    }

    #[test]
    fn required_acks_clamps_to_rf() {
        assert_eq!(Three.required_acks(2), 2);
        assert_eq!(Replicas(10).required_acks(3), 3);
        assert_eq!(Replicas(0).required_acks(3), 1);
        assert_eq!(All.required_acks(0), 1);
    }

    #[test]
    fn quorum_formula_matches_paper() {
        // (replication factor / 2) + 1
        assert_eq!(Quorum.required_acks(1), 1);
        assert_eq!(Quorum.required_acks(2), 2);
        assert_eq!(Quorum.required_acks(3), 2);
        assert_eq!(Quorum.required_acks(4), 3);
        assert_eq!(Quorum.required_acks(5), 3);
        assert_eq!(Quorum.required_acks(6), 4);
    }

    #[test]
    fn from_replica_count_canonicalises() {
        assert_eq!(ConsistencyLevel::from_replica_count(1, 5), One);
        assert_eq!(ConsistencyLevel::from_replica_count(3, 5), Quorum);
        assert_eq!(ConsistencyLevel::from_replica_count(5, 5), All);
        assert_eq!(ConsistencyLevel::from_replica_count(4, 5), Replicas(4));
        assert_eq!(ConsistencyLevel::from_replica_count(2, 3), Quorum);
        assert_eq!(ConsistencyLevel::from_replica_count(99, 5), All);
    }

    #[test]
    fn quorum_reads_and_writes_intersect() {
        // The paper's guarantee: quorum reads + quorum writes always see the
        // latest acknowledged data.
        for rf in 1..=9 {
            assert!(Quorum.read_your_writes(Quorum, rf), "rf={rf}");
            assert!(All.read_your_writes(One, rf), "rf={rf}");
            assert!(One.read_your_writes(All, rf), "rf={rf}");
        }
        // Partial quorums do not.
        assert!(!One.read_your_writes(One, 3));
        assert!(!One.read_your_writes(Quorum, 5));
    }

    #[test]
    fn display_names() {
        assert_eq!(One.to_string(), "ONE");
        assert_eq!(Quorum.to_string(), "QUORUM");
        assert_eq!(All.to_string(), "ALL");
        assert_eq!(Replicas(4).to_string(), "REPLICAS(4)");
    }
}
