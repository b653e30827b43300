//! Tier-1 allocation budget for the transaction phase.
//!
//! A small run shaped like the benchmark's `headline` workload (RF 5, YCSB-A
//! zipfian, 10 x 64 B rows, Harmony at 20 % tolerated stale reads, so most
//! reads contact several replicas and reconcile) must stay within two heap
//! allocations per completed operation inside `Runner::run`. Rows, payloads
//! and column names are shared by reference, so applying a write and
//! reconciling agreeing replicas allocate nothing; a store that copies rows
//! per read or per replica write needs about nineteen.
//!
//! Integration tests are separate binaries, so this counting allocator is
//! linked into nothing else; the file holds a single test so no other test
//! thread allocates while it counts.

use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::HarmonyPolicy;
use harmony_sim::profiles;
use harmony_store::config::StoreConfig;
use harmony_ycsb::runner::{ExperimentSpec, Runner};
use harmony_ycsb::workloads::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

// A statistic only: no other data is published through the counter.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OPERATIONS: u64 = 20_000;
const MAX_ALLOCS_PER_OP: f64 = 2.0;

#[test]
fn headline_shaped_run_stays_within_two_allocations_per_op() {
    let store = StoreConfig {
        replication_factor: 5,
        node_concurrency: 6,
        read_service_ms: 0.25,
        write_service_ms: 0.40,
        client_latency_ms: 0.15,
        ..StoreConfig::default()
    };
    let controller_config = ControllerConfig::calibrated();
    let workload = WorkloadSpec {
        field_size: 64,
        ..WorkloadSpec::workload_a(5_000)
    };
    let spec = ExperimentSpec {
        seed: 20120920,
        ..ExperimentSpec::single_phase(workload, 40, OPERATIONS)
    };
    let rf = store.replication_factor;
    let controller = AdaptiveController::new(
        controller_config,
        rf,
        Box::new(HarmonyPolicy::new(rf, 0.20)),
    );
    let runner = Runner::new(&profiles::grid5000(), store, controller, spec);

    let before = CALLS.load(Ordering::Relaxed);
    let result = runner.run();
    let allocs = CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(result.stats.operations, OPERATIONS);
    // The budget is about reconciliation: the run must actually reconcile.
    let multi_replica_reads: u64 = result
        .read_level_histogram
        .iter()
        .filter(|(replicas, _)| **replicas > 1)
        .map(|(_, reads)| *reads)
        .sum();
    assert!(
        multi_replica_reads * 2 > result.stats.reads,
        "only {multi_replica_reads} of {} reads contacted several replicas",
        result.stats.reads
    );
    let per_op = allocs as f64 / OPERATIONS as f64;
    assert!(
        per_op <= MAX_ALLOCS_PER_OP,
        "{allocs} allocations over {OPERATIONS} ops = {per_op:.2} per op, budget {MAX_ALLOCS_PER_OP}"
    );
}
