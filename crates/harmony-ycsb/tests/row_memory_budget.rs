//! Tier-1 memory budget for the stored replica rows.
//!
//! Loading a store shaped like the benchmark's `lean` workload (8 nodes,
//! RF 3, 20 000 YCSB records of 2 x 16 B) must keep its live heap within
//! 256 bytes per stored replica row. A row is one shared `Arc` (40 bytes)
//! plus one exactly sized, name-sorted column vector (40 bytes per column),
//! so the load costs about 211 bytes per replica row, the key table and the
//! engines' key maps included; a row that keeps its columns in a B-tree
//! spends a 456-byte leaf on two columns and needs about 587.
//!
//! Integration tests are separate binaries, so this counting allocator is
//! linked into nothing else; the file holds a single test so no other test
//! thread allocates while it counts.

use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::StaticPolicy;
use harmony_sim::profiles;
use harmony_store::config::StoreConfig;
use harmony_ycsb::runner::{ExperimentSpec, Runner};
use harmony_ycsb::workloads::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

// A statistic only: no other data is published through the counter.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RECORDS: u64 = 20_000;
const REPLICATION_FACTOR: usize = 3;
const MAX_BYTES_PER_REPLICA_ROW: f64 = 256.0;

#[test]
fn lean_shaped_load_stays_within_256_bytes_per_replica_row() {
    let store = StoreConfig {
        replication_factor: REPLICATION_FACTOR,
        node_concurrency: 4,
        ..StoreConfig::default()
    };
    let workload = WorkloadSpec {
        field_count: 2,
        field_size: 16,
        ..WorkloadSpec::workload_b(RECORDS)
    };
    let spec = ExperimentSpec {
        seed: 20120920,
        ..ExperimentSpec::single_phase(workload, 32, 1_000)
    };
    let controller = AdaptiveController::new(
        ControllerConfig::default(),
        REPLICATION_FACTOR,
        Box::new(StaticPolicy::Eventual),
    );
    let profile = profiles::grid5000_with_nodes(8);

    let before = LIVE.load(Ordering::Relaxed);
    let runner = Runner::new(&profile, store, controller, spec);
    let live = LIVE.load(Ordering::Relaxed) - before;

    let replica_rows = RECORDS as f64 * REPLICATION_FACTOR as f64;
    let per_row = live as f64 / replica_rows;
    assert!(
        per_row <= MAX_BYTES_PER_REPLICA_ROW,
        "{live} live bytes over {replica_rows} replica rows = {per_row:.1} per row, \
         budget {MAX_BYTES_PER_REPLICA_ROW}"
    );
    drop(runner);
}
