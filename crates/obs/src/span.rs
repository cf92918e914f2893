//! Query-lifecycle spans.
//!
//! A [`Tracer`] collects [`SpanEvent`]s (one per completed phase of a
//! query: `schedule`, `prep-lookup`/`prep-build`, `search`, `unpack`,
//! `fingerprint`) into bounded per-worker ring buffers. The fast path is
//! one relaxed atomic load when tracing is disabled — no clock reads, no
//! allocation, no locks. When enabled, each thread writes to its own
//! stripe (a small mutex-guarded ring), so worker threads never contend
//! on a shared buffer; full rings drop the oldest events and count them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::clock::Clock;

/// Default number of ring stripes (effectively "workers").
pub const DEFAULT_STRIPES: usize = 8;
/// Default bound per stripe before old events are dropped.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span: phase `name` of query `query` on worker `worker`,
/// covering `[start_ns, start_ns + dur_ns]` on the tracer's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    pub name: String,
    pub tier: String,
    pub query: u64,
    pub worker: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Default)]
struct Ring {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

/// Bounded, striped span collector. Disabled by default.
pub struct Tracer {
    enabled: AtomicBool,
    capacity: usize,
    stripes: Vec<Mutex<Ring>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide monotone id per thread, used to pick a stripe without a
/// per-tracer registration step.
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_STRIPES, DEFAULT_CAPACITY)
    }

    pub fn with_capacity(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1);
        Self {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            stripes: (0..stripes).map(|_| Mutex::new(Ring::default())).collect(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// The one load on the disabled fast path.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a completed span. No-op when disabled.
    pub fn record(&self, name: &str, tier: &str, query: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        let stripe = thread_slot() % self.stripes.len();
        let event = SpanEvent {
            name: name.to_string(),
            tier: tier.to_string(),
            query,
            worker: stripe as u32,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        };
        let mut ring = self.stripes[stripe].lock();
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// RAII span: samples the clock now and records on drop. When the
    /// tracer is disabled the guard is inert and never reads the clock.
    pub fn span<'a>(
        &'a self,
        clock: &'a dyn Clock,
        name: &'static str,
        tier: &'a str,
        query: u64,
    ) -> Span<'a> {
        let start_ns = if self.enabled() {
            Some(clock.now_ns())
        } else {
            None
        };
        Span {
            tracer: self,
            clock,
            name,
            tier,
            query,
            start_ns,
        }
    }

    /// Take every buffered event, sorted by `(start_ns, worker, name)` so
    /// the result is deterministic for a given event set. Stripes are
    /// locked one at a time.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let mut events = Vec::new();
        for stripe in &self.stripes {
            let mut ring = stripe.lock();
            events.extend(ring.events.drain(..));
        }
        events.sort_by(|a, b| {
            (a.start_ns, a.worker, &a.name, a.query).cmp(&(b.start_ns, b.worker, &b.name, b.query))
        });
        events
    }

    /// Events dropped so far because a ring was full.
    pub fn dropped(&self) -> u64 {
        let mut total = 0;
        for stripe in &self.stripes {
            total += stripe.lock().dropped;
        }
        total
    }

    /// Buffered (undrained) event count.
    pub fn len(&self) -> usize {
        let mut total = 0;
        for stripe in &self.stripes {
            total += stripe.lock().events.len();
        }
        total
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Guard returned by [`Tracer::span`]; records the span when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    clock: &'a dyn Clock,
    name: &'static str,
    tier: &'a str,
    query: u64,
    start_ns: Option<u64>,
}

impl Span<'_> {
    /// End the span explicitly (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            let end_ns = self.clock.now_ns();
            self.tracer
                .record(self.name, self.tier, self.query, start_ns, end_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_clock() {
        let tracer = Tracer::new();
        let clock = ManualClock::new(0);
        tracer.record("search", "skyline", 0, 0, 10);
        {
            let _span = tracer.span(&clock, "search", "skyline", 1);
        }
        assert!(tracer.is_empty());
        assert_eq!(clock.reads(), 0);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn enabled_span_records_duration_from_clock() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let clock = ManualClock::new(1_000);
        {
            let span = tracer.span(&clock, "search", "topk", 7);
            clock.advance(250);
            span.finish();
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(
            (e.name.as_str(), e.tier.as_str(), e.query),
            ("search", "topk", 7)
        );
        assert_eq!((e.start_ns, e.dur_ns), (1_000, 250));
        assert!(tracer.is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let tracer = Tracer::with_capacity(1, 2);
        tracer.set_enabled(true);
        for q in 0..5u64 {
            tracer.record("search", "skyline", q, q, q + 1);
        }
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.dropped(), 3);
        let events = tracer.drain();
        assert_eq!(events[0].query, 3);
        assert_eq!(events[1].query, 4);
    }

    #[test]
    fn drain_sorts_by_start_time() {
        let tracer = Tracer::with_capacity(1, 16);
        tracer.set_enabled(true);
        tracer.record("b", "t", 1, 500, 600);
        tracer.record("a", "t", 0, 100, 400);
        let events = tracer.drain();
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
    }
}
