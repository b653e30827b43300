//! # harmony-sim
//!
//! Deterministic discrete-event simulation (DES) substrate used by the Harmony
//! reproduction to stand in for the paper's physical testbeds (Grid'5000 and
//! Amazon EC2).
//!
//! The crate provides:
//!
//! * a virtual clock and time type ([`SimTime`], [`clock`]),
//! * a time-ordered event queue with deterministic FIFO tie-breaking
//!   ([`event::EventQueue`]),
//! * a small simulation driver bundling clock, queue and RNG
//!   ([`engine::Simulation`]),
//! * seeded, splittable random-number streams ([`rng`]),
//! * pluggable event-delivery contexts and timers-as-resources
//!   ([`context::EventCtx`], [`context::TimerTable`]) — the seam that lets
//!   the same protocol core run under the simulation driver *and* under the
//!   `harmony-check` schedule explorer,
//! * parametric network latency models ([`latency::Latency`]) including the
//!   heavy-tailed, spiky behaviour the paper observes on EC2 (Figure 4b),
//! * a datacenter / rack / node topology and pairwise latency derivation
//!   ([`topology`]),
//! * ready-made cluster profiles reproducing the paper's two experimental
//!   platforms ([`profiles::grid5000`], [`profiles::ec2`]).
//!
//! Everything is deterministic given a seed, so experiments that regenerate
//! the paper's figures are exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use harmony_sim::{SimTime, engine::Simulation, latency::Latency};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim: Simulation<Ev> = Simulation::new(42);
//! let lat = Latency::constant_ms(1.5);
//! let delay = lat.sample(sim.rng());
//! sim.schedule_in(delay, Ev::Ping(7));
//! let (t, ev) = sim.next().unwrap();
//! assert_eq!(t, SimTime::from_millis_f64(1.5));
//! assert_eq!(ev, Ev::Ping(7));
//! ```

pub mod barrier;
pub mod clock;
pub mod context;
pub mod engine;
pub mod event;
pub mod latency;
pub mod profiles;
pub mod rng;
pub mod service;
pub mod topology;

pub use clock::SimTime;
pub use context::{EventCtx, TimerId, TimerTable};
pub use engine::Simulation;
pub use event::EventQueue;
pub use latency::Latency;
pub use service::ServiceModel;
pub use topology::{NodeId, Topology};

/// The hasher of every map on a simulated path: std's SipHash with fixed
/// keys in place of a per-process random seed, so a map's layout, and with
/// it a run's allocation count, repeats exactly from run to run. The keys
/// of those maps are made by the program (generated record names, op and
/// key ids), so no outside input can aim collisions at the fixed keys.
pub type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
