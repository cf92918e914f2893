//! # mcn-obs — observability for the serving stack
//!
//! A self-contained layer (no dependency beyond the vendored
//! `parking_lot`) with three pieces:
//!
//! - [`registry::MetricsRegistry`] — named counters, gauges, and
//!   deterministic log2 latency [`hist::Histogram`]s (p50/p95/p99),
//!   labelled by worker/region/tier. Registration is lock-striped;
//!   recording goes through `Arc`-shared atomics, so hot loops add no
//!   shared-lock traffic.
//! - [`span::Tracer`] — query-lifecycle spans
//!   (`schedule → prep-lookup/build → search → unpack → fingerprint`)
//!   in bounded per-worker ring buffers, one relaxed atomic load when
//!   disabled.
//! - [`clock::Clock`] — the workspace timing source:
//!   [`clock::MonotonicClock`] in production, [`clock::ManualClock`] in
//!   tests so timing assertions are exact.
//!
//! [`Obs`] bundles one of each for threading through the engine.

pub mod clock;
pub mod hist;
pub mod registry;
pub mod span;

use std::sync::Arc;

pub use clock::{default_clock, Clock, ManualClock, MonotonicClock};
pub use hist::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{Span, SpanEvent, Tracer};

/// One observability context: a metrics registry, a span tracer, and the
/// clock both are timed against. Cheap to share (`Arc<Obs>`); tracing
/// starts disabled.
pub struct Obs {
    registry: MetricsRegistry,
    tracer: Tracer,
    clock: Arc<dyn Clock>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Production context: monotonic clock, tracing off.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Context over an explicit clock (tests pass a [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(),
            clock,
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn clock(&self) -> &dyn Clock {
        &*self.clock
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Turn span collection on or off (metrics are always on).
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Start a lifecycle span against this context's clock.
    pub fn span<'a>(&'a self, name: &'static str, tier: &'a str, query: u64) -> Span<'a> {
        self.tracer.span(self.clock(), name, tier, query)
    }
}

pub(crate) const fn assert_send_sync<T: Send + Sync>() {}

const _: () = assert_send_sync::<Obs>();
const _: () = assert_send_sync::<MetricsRegistry>();
const _: () = assert_send_sync::<Tracer>();
const _: () = assert_send_sync::<Histogram>();
const _: () = assert_send_sync::<Counter>();
const _: () = assert_send_sync::<Gauge>();
const _: () = assert_send_sync::<MonotonicClock>();
const _: () = assert_send_sync::<ManualClock>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundle_wires_clock_into_spans() {
        let clock = Arc::new(ManualClock::new(5_000));
        let obs = Obs::with_clock(clock.clone());
        assert!(!obs.tracing());
        obs.set_tracing(true);
        {
            let span = obs.span("search", "skyline", 1);
            clock.advance(111);
            span.finish();
        }
        let events = obs.tracer().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start_ns, 5_000);
        assert_eq!(events[0].dur_ns, 111);
        assert_eq!(obs.now_ns(), 5_111);
    }

    #[test]
    fn default_obs_uses_monotonic_clock() {
        let obs = Obs::new();
        let a = obs.now_ns();
        let b = obs.now_ns();
        assert!(b >= a);
        obs.registry().counter("c", &[]).inc();
        assert_eq!(obs.registry().snapshot().counter_value("c", &[]), Some(1));
    }
}
