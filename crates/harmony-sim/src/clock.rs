//! Virtual time.
//!
//! Simulated time is kept as an integer number of nanoseconds since the start
//! of the simulation. Integer ticks keep event ordering exact and make the
//! simulation bit-for-bit reproducible across platforms, which floating-point
//! timestamps would not.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in nanoseconds from simulation start.
///
/// `SimTime` is also used to represent durations (the type is a plain
/// monotonic offset); [`SimTime::ZERO`] is the simulation origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional milliseconds (negative inputs clamp to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 || !ms.is_finite() {
            return SimTime::ZERO;
        }
        SimTime(round_positive(ms * 1e6))
    }

    /// Creates a time from fractional seconds (negative inputs clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimTime::ZERO;
        }
        SimTime(round_positive(s * 1e9))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Difference `self - earlier`, or `None` if `earlier` is later than `self`.
    pub fn checked_sub(self, earlier: SimTime) -> Option<SimTime> {
        self.0.checked_sub(earlier.0).map(SimTime)
    }

    /// Scales this duration by a non-negative factor, rounding to nanoseconds.
    pub fn scale(self, factor: f64) -> SimTime {
        if factor <= 0.0 || !factor.is_finite() {
            return SimTime::ZERO;
        }
        SimTime(round_positive(self.0 as f64 * factor))
    }

    /// True if this is the simulation origin / a zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `x.round() as u64` for `x >= 0`, without the libm `round` call that
/// `f64::round` makes on the baseline x86-64 target: every latency and
/// service sample goes through it. Below 2⁵², truncate through `i64`
/// (x86-64 converts `i64` in one instruction each way but has none for
/// `u64`, and a `u64` form measured slower than libm) and add one if the
/// dropped fraction is at least one half; `x - ⌊x⌋` is exact there
/// (Sterbenz). From 2⁵² up every `x` is already an integer, and the
/// saturating cast gives `u64::MAX` from 2⁶⁴ up, as `round` then `as` does.
fn round_positive(x: f64) -> u64 {
    if x < 4_503_599_627_370_496.0 {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A monotonically advancing virtual clock.
///
/// The clock never goes backwards: [`Clock::advance_to`] with an earlier time
/// is a no-op, which protects the simulation from misordered event handling.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock starting at the origin.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t` (no-op if `t` is in the past).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Advances the clock by `delta`.
    pub fn advance_by(&mut self, delta: SimTime) {
        self.now = self.now.saturating_add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_millis_f64(1.5).as_millis_f64() - 1.5).abs() < 1e-9);
        assert!((SimTime::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_float_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_millis_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_millis(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
    }

    #[test]
    fn scaling() {
        let a = SimTime::from_millis(10);
        assert_eq!(a.scale(0.5), SimTime::from_millis(5));
        assert_eq!(a.scale(-3.0), SimTime::ZERO);
        assert_eq!(a.scale(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn round_positive_equals_f64_round() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |x: f64| assert_eq!(round_positive(x), x.round() as u64, "x = {x:e}");
        let neighbours = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        check(0.0);
        check(0.499_999_999_999_999_94);
        // k + 0.5 and k - 0.5 at every binade up to 2^53, and their neighbours.
        for e in 0..=53 {
            let k = (1u64 << e) as f64;
            for x in [k + 0.5, k - 0.5, k + 1.5, 2.0 * k - 0.5] {
                neighbours(x).into_iter().for_each(check);
            }
        }
        // Integers from 2^52 to 2^64, where every float is one.
        for e in 52..64 {
            let k = (1u64 << e) as f64;
            for x in [k, 1.5 * k, 2.0 * k] {
                neighbours(x).into_iter().for_each(check);
            }
        }
        // At and past 2^64, where the cast saturates.
        for x in [18_446_744_073_709_551_616.0, 1e20, 1e300, f64::MAX] {
            neighbours(x).into_iter().for_each(check);
        }
        // Subnormals.
        for x in [
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
        ] {
            neighbours(x).into_iter().for_each(check);
        }
        let mut rng = StdRng::seed_from_u64(20120920);
        for _ in 0..500_000 {
            // Every finite positive bit pattern, and fractional values at the
            // magnitudes the simulator's nanosecond samples take.
            let x = f64::from_bits(rng.gen::<u64>() >> 1);
            if x.is_finite() {
                check(x);
            }
            check(rng.gen::<f64>() * 1e10);
        }
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_millis(5));
        c.advance_to(SimTime::from_millis(3));
        assert_eq!(c.now(), SimTime::from_millis(5));
        c.advance_by(SimTime::from_millis(2));
        assert_eq!(c.now(), SimTime::from_millis(7));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }
}
