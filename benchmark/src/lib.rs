//! The Harmony benchmark (see `README.md` in this directory).
//!
//! Two binaries share this library: `harmony-benchmark` times, traces and
//! probes under the plain system allocator; `harmony-benchmark-count` runs
//! one repetition under a counting allocator and is never linked into the
//! timed binary.

pub mod catalogue;
pub mod driver;
pub mod passes;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workloads;
