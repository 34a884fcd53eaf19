//! Simulated time.
//!
//! The workload generator and the end-to-end simulator are deterministic
//! discrete-event systems; they share this microsecond-resolution clock.
//! Keeping simulation time distinct from `std::time` prevents wall-clock
//! time from leaking into supposedly reproducible experiments.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds since origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since origin (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
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
    fn arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_micros(), 11_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO); // saturating
    }

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(2500).as_secs(), 2);
        assert!((SimDuration::from_micros(1).as_secs_f64() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
