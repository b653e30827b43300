//! The counting pass: one repetition of a workload under a counting global
//! allocator. It lives in its own binary so the allocator is never linked
//! into the timed one (the tracking allocator alone once moved the headline
//! number from 74 k to 54 k ops/s).
//!
//! Usage: `harmony-benchmark-count <workload> <seed>`; prints one line of
//! `key=value` tokens that the timed binary parses.

use harmony_benchmark::workloads::{Fingerprint, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

// Statistics only: no other data is published through these counters.
static CALLS: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let now = IN_USE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args
        .first()
        .zip(args.get(1).and_then(|s| s.parse().ok()))
        .and_then(|(name, seed)| Workload::by_name(name, seed));
    let Some(w) = workload else {
        eprintln!("usage: harmony-benchmark-count <workload> <seed>");
        std::process::exit(2);
    };
    // `allocs_run` covers `Runner::run` alone; the sharded entry point sets
    // up and runs in one call, so there it covers both.
    let (before, result) = if w.shards > 1 {
        (CALLS.load(Ordering::Relaxed), w.run_sharded(w.shards))
    } else {
        let runner = w.new_runner();
        (CALLS.load(Ordering::Relaxed), runner.run())
    };
    let allocs_run = CALLS.load(Ordering::Relaxed) - before;
    let peak_bytes = PEAK.load(Ordering::Relaxed);
    println!(
        "allocs_run={allocs_run} peak_bytes={peak_bytes} fingerprint={:?}",
        Fingerprint::of(&result)
    );
}
