//! Tier-1 memory budgets for the stored replica rows.
//!
//! Loading a store shaped like one of the benchmark's workloads must keep
//! its live heap, the key table and the engines' key maps included, within
//! a budget per stored replica row:
//!
//! * `lean` (8 nodes, RF 3, 20 000 YCSB records of 2 x 16 B): 155 bytes;
//! * `headline` (20 nodes, RF 5, 20 000 records of 10 x 64 B): 260 bytes.
//!
//! A row is one shared `Arc` (40 bytes) plus one exactly sized, name-sorted
//! vector of 16-byte cells, each a pointer to the loaded field (name and
//! payload, shared by every replica) and a timestamp. Placement costs a
//! 4-byte ring-range index per key plus one replica set per ring range.
//! That loads at about 145 bytes per `lean` and 255 per `headline` replica
//! row. A placement memo holding a 36-byte replica set per key needs about
//! 163 and 265, cells that keep their own name and payload pointers (40
//! bytes each) about 211 and 505, and a row that keeps its columns in a
//! B-tree about 587 on `lean`.
//!
//! Integration tests are separate binaries, so this counting allocator is
//! linked into nothing else; the file holds a single test, which loads the
//! shapes in turn, so no other test thread allocates while it counts.

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

/// A store shape to load and its budget.
struct Shape {
    name: &'static str,
    nodes: usize,
    replication_factor: usize,
    workload: WorkloadSpec,
    max_bytes_per_replica_row: f64,
}

/// Live heap bytes per stored replica row after loading `shape`.
fn bytes_per_replica_row(shape: &Shape) -> f64 {
    let store = StoreConfig {
        replication_factor: shape.replication_factor,
        node_concurrency: 4,
        ..StoreConfig::default()
    };
    let spec = ExperimentSpec {
        seed: 20120920,
        ..ExperimentSpec::single_phase(shape.workload.clone(), 32, 1_000)
    };
    let controller = AdaptiveController::new(
        ControllerConfig::default(),
        shape.replication_factor,
        Box::new(StaticPolicy::Eventual),
    );
    let profile = profiles::grid5000_with_nodes(shape.nodes);

    let before = LIVE.load(Ordering::Relaxed);
    let runner = Runner::new(&profile, store, controller, spec);
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop(runner);

    let replica_rows = shape.workload.record_count as f64 * shape.replication_factor as f64;
    live as f64 / replica_rows
}

#[test]
fn loads_stay_within_their_bytes_per_replica_row_budgets() {
    let shapes = [
        Shape {
            name: "lean",
            nodes: 8,
            replication_factor: 3,
            workload: WorkloadSpec {
                field_count: 2,
                field_size: 16,
                ..WorkloadSpec::workload_b(20_000)
            },
            max_bytes_per_replica_row: 155.0,
        },
        Shape {
            name: "headline",
            nodes: 20,
            replication_factor: 5,
            workload: WorkloadSpec {
                field_size: 64,
                ..WorkloadSpec::workload_a(20_000)
            },
            max_bytes_per_replica_row: 260.0,
        },
    ];
    for shape in &shapes {
        let per_row = bytes_per_replica_row(shape);
        assert!(
            per_row <= shape.max_bytes_per_replica_row,
            "{}: {per_row:.1} live bytes per replica row, budget {}",
            shape.name,
            shape.max_bytes_per_replica_row
        );
    }
}
