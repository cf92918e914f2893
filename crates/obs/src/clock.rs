//! Timing source abstraction.
//!
//! Everything in the workspace that measures wall time goes through a
//! [`Clock`] so tests can substitute a [`ManualClock`] and assert exact
//! durations. Production code uses [`MonotonicClock`] (an `Instant`
//! anchored at construction) or the process-wide [`default_clock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic nanosecond timestamp source.
///
/// Timestamps are only meaningful relative to other timestamps from the
/// same clock; `0` is the clock's own origin, not the Unix epoch.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_ns(&self) -> u64;

    /// Duration between a previously sampled `start_ns` and now
    /// (saturating, so a stale or foreign timestamp yields zero rather
    /// than a panic).
    fn elapsed(&self, start_ns: u64) -> Duration {
        Duration::from_nanos(self.now_ns().saturating_sub(start_ns))
    }
}

/// Production clock: a monotonic `Instant` anchored at construction.
#[derive(Debug)]
pub(crate) struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub(crate) fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // ~584 years of range; the cast cannot truncate in practice.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic test clock.
///
/// Time only moves when the test says so: either explicitly via
/// [`ManualClock::advance`] / [`ManualClock::set`], or — when built with
/// [`ManualClock::with_step`] — by a fixed increment on every `now_ns`
/// call, which makes single-threaded timing paths produce exact,
/// repeatable durations.
#[derive(Debug)]
pub struct ManualClock {
    now: AtomicU64,
    step: u64,
    reads: AtomicU64,
}

impl ManualClock {
    /// A frozen clock: `now_ns` returns `start_ns` until advanced.
    pub fn new(start_ns: u64) -> Self {
        Self {
            now: AtomicU64::new(start_ns),
            step: 0,
            reads: AtomicU64::new(0),
        }
    }

    /// A stepping clock: every `now_ns` call advances time by `step_ns`
    /// and returns the post-step value.
    pub fn with_step(start_ns: u64, step_ns: u64) -> Self {
        Self {
            now: AtomicU64::new(start_ns),
            step: step_ns,
            reads: AtomicU64::new(0),
        }
    }

    /// Move time forward; returns the new now.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now.fetch_add(delta_ns, Ordering::SeqCst) + delta_ns
    }

    /// Jump to an absolute timestamp.
    pub fn set(&self, now_ns: u64) {
        self.now.store(now_ns, Ordering::SeqCst);
    }

    /// Number of `now_ns` calls observed so far (for asserting how many
    /// times a code path sampled the clock).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::SeqCst);
        if self.step == 0 {
            self.now.load(Ordering::SeqCst)
        } else {
            self.now.fetch_add(self.step, Ordering::SeqCst) + self.step
        }
    }
}

/// The process-wide production clock, anchored the first time any caller
/// asks for it. Shared so every QPS / wall-time figure in a run is
/// measured against one origin.
pub fn default_clock() -> &'static dyn Clock {
    static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();
    CLOCK.get_or_init(MonotonicClock::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let clock = MonotonicClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_frozen_until_advanced() {
        let clock = ManualClock::new(100);
        assert_eq!(clock.now_ns(), 100);
        assert_eq!(clock.now_ns(), 100);
        assert_eq!(clock.advance(50), 150);
        assert_eq!(clock.now_ns(), 150);
        clock.set(7);
        assert_eq!(clock.now_ns(), 7);
        assert_eq!(clock.reads(), 4);
    }

    #[test]
    fn stepping_clock_advances_per_read() {
        let clock = ManualClock::with_step(0, 1_000);
        assert_eq!(clock.now_ns(), 1_000);
        assert_eq!(clock.now_ns(), 2_000);
        assert_eq!(clock.elapsed(1_000), Duration::from_nanos(2_000));
        assert_eq!(clock.reads(), 3);
    }

    #[test]
    fn elapsed_saturates_on_stale_start() {
        let clock = ManualClock::new(10);
        assert_eq!(clock.elapsed(500), Duration::ZERO);
    }

    #[test]
    fn default_clock_is_shared() {
        let a = default_clock().now_ns();
        let b = default_clock().now_ns();
        assert!(b >= a);
    }
}
