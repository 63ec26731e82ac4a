//! Virtual time for the discrete-event simulator.
//!
//! Simulated time is measured in integer microseconds since the start of the
//! simulation. Using integers keeps event ordering exact and the simulation
//! bit-reproducible across runs and platforms.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use totoro_simnet::{SimDuration, SimTime};
///
/// let t = SimTime::from_micros(1_000_000) + SimDuration::from_millis(500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant `s` whole seconds after the start, saturating at
    /// [`SimTime::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000))
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns this instant advanced by `d`, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to microseconds.
    ///
    /// Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            SimDuration((s * 1_000_000.0).round() as u64)
        } else {
            SimDuration(0)
        }
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns this duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the duration by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_micros(1_500_000);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_micros(), 1_750_000);
        assert_eq!(((t + d) - t).as_millis(), 250);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn saturation_at_extremes() {
        let near_max = SimTime::from_micros(u64::MAX - 1);
        assert_eq!(near_max + SimDuration::from_secs(10), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_micros(5), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(
            SimDuration::from_micros(u64::MAX).saturating_mul(2),
            SimDuration::from_micros(u64::MAX)
        );
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_micros(1_234_567).to_string(), "1.234567s");
    }
}
