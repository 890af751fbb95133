//! # modref-obs
//!
//! Structured tracing, metrics and profiling for the modref codesign
//! flow — zero dependencies, near-zero cost when disabled.
//!
//! Three layers:
//!
//! * **Spans** ([`span`](fn@span), [`span_under`]) — hierarchical timed regions
//!   with `key=value` attributes, recorded into per-thread buffers that
//!   are merged at flush. Span and event ids come from a per-run
//!   sequence counter (never wall clock or randomness), so ids are
//!   reproducible run to run.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`], [`Meter`], [`Tally`]) —
//!   named counters, gauges and fixed-bucket histograms with
//!   p50/p90/p99 summaries, aggregated in a global registry. Counter
//!   addition commutes, so aggregated metric values are identical
//!   regardless of thread count.
//! * **Sinks** ([`jsonl`], [`report`]) — a JSONL event stream
//!   (serialize → parse round-trips exactly) and a human-readable
//!   profile tree (time per phase, % of parent, call counts).
//!
//! ## Cost model
//!
//! The recorder is **disabled by default**. Every recording entry point
//! first performs one relaxed atomic load; when disabled it returns
//! immediately, creating no allocation, no lock and no event — so
//! instrumented hot paths run at full speed in benches. Enabling costs
//! one atomic add per counter bump and one thread-local push per span.
//!
//! ## Determinism
//!
//! With [`ClockMode::Logical`], timestamps and durations are recorded
//! as zero: the only varying content in a trace is scheduling order of
//! id assignment, and every *aggregated* metric (counters, gauges,
//! histogram bucket counts) is bit-identical across thread counts.
//! Tests assert 1-thread and N-thread explorations produce the same
//! metric snapshot.
//!
//! ## Example
//!
//! ```
//! # use modref_obs as obs;
//! // Enabling is global; real callers do it once per process run.
//! obs::init(obs::ClockMode::Logical);
//! {
//!     let _outer = obs::span("work").attr("kind", "demo");
//!     obs::counter("work.items").add(3);
//! }
//! let trace = obs::shutdown();
//! assert!(trace.events.iter().any(|e| matches!(e,
//!     obs::Event::Span { name, .. } if name == "work")));
//! let text = obs::jsonl::write(&trace);
//! let back = obs::jsonl::parse(&text).unwrap();
//! assert_eq!(trace.events, back.events);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod report;
pub mod simtrace;
pub mod span;

pub use event::{Event, Trace};
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, HistogramSnapshot, Meter,
    MetricsSnapshot, Tally,
};
pub use span::{span, span_under, Span};

/// How timestamps are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Monotonic nanoseconds since [`init`] — real profiling.
    #[default]
    Wall,
    /// All timestamps and durations are zero; traces depend only on the
    /// recorded structure, so trace-based tests reproduce exactly across
    /// machines and thread counts.
    Logical,
}

/// Global recorder switch. Relaxed loads on every hot path; flipped only
/// by [`init`] / [`shutdown`].
static ENABLED: AtomicBool = AtomicBool::new(false);
/// True when the current run uses [`ClockMode::Logical`].
static LOGICAL: AtomicBool = AtomicBool::new(false);
/// Per-run id sequence. Ids are *never* derived from wall clock or
/// randomness; 0 is reserved for "no parent".
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Monotonic base for wall-clock timestamps. Set once per process; the
/// per-run zero point is [`START_NS`] relative to it.
static BASE: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
/// Nanoseconds (relative to [`BASE`]) at the most recent [`init`].
static START_NS: AtomicU64 = AtomicU64::new(0);

/// Whether the recorder is currently enabled. One relaxed atomic load —
/// the fast path every instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since [`init`] (0 before init or in logical-clock mode).
#[inline]
pub fn now_ns() -> u64 {
    if LOGICAL.load(Ordering::Relaxed) {
        return 0;
    }
    let base = BASE.get_or_init(Instant::now);
    (base.elapsed().as_nanos() as u64).saturating_sub(START_NS.load(Ordering::Relaxed))
}

/// Allocates the next event/span id from the per-run sequence counter.
#[inline]
pub(crate) fn next_id() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// The clock mode of the current (or last) run.
pub fn clock_mode() -> ClockMode {
    if LOGICAL.load(Ordering::Relaxed) {
        ClockMode::Logical
    } else {
        ClockMode::Wall
    }
}

/// Starts a recording run: resets the id sequence, the clock zero point,
/// all registered metrics and any buffered events, then enables the
/// recorder.
///
/// The recorder is process-global; concurrent runs interleave into one
/// trace. Tests that enable it serialize on their own lock.
pub fn init(mode: ClockMode) {
    ENABLED.store(false, Ordering::SeqCst);
    LOGICAL.store(matches!(mode, ClockMode::Logical), Ordering::SeqCst);
    let base = BASE.get_or_init(Instant::now);
    START_NS.store(base.elapsed().as_nanos() as u64, Ordering::SeqCst);
    SEQ.store(1, Ordering::SeqCst);
    span::clear_pending();
    metrics::reset_all();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns everything recorded since [`init`]:
/// a `meta` event, all finished spans (ordered by id), and one snapshot
/// event per registered counter/gauge/histogram (ordered by name).
pub fn shutdown() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    let mut events = vec![Event::Meta {
        version: event::FORMAT_VERSION,
        clock: clock_mode(),
    }];
    let mut spans = span::drain_pending();
    spans.sort_by_key(|e| match e {
        Event::Span { id, .. } => *id,
        _ => 0,
    });
    events.extend(spans);
    events.extend(metrics::snapshot().into_events());
    Trace { events }
}

#[cfg(test)]
pub(crate) mod testlock {
    //! Serializes tests that flip the global recorder.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _l = testlock::hold();
        ENABLED.store(false, Ordering::SeqCst);
        {
            let _s = span("ignored");
            counter("ignored.count").add(5);
        }
        let trace = shutdown();
        assert!(!trace
            .events
            .iter()
            .any(|e| matches!(e, Event::Span { name, .. } if name == "ignored")));
        // Counters registered earlier may appear in the snapshot but must
        // not have counted while disabled.
        for e in &trace.events {
            if let Event::Counter { name, value } = e {
                if name == "ignored.count" {
                    assert_eq!(*value, 0);
                }
            }
        }
    }

    #[test]
    fn ids_are_sequential_not_clock_derived() {
        let _l = testlock::hold();
        init(ClockMode::Logical);
        let a = {
            let s = span("a");
            s.id()
        };
        let b = {
            let s = span("b");
            s.id()
        };
        assert!(a >= 1 && b == a + 1, "ids {a} {b} must be sequential");
        let trace = shutdown();
        // Re-init restarts the sequence: a fresh run reuses the same ids.
        init(ClockMode::Logical);
        let a2 = {
            let s = span("a");
            s.id()
        };
        assert_eq!(a, a2, "ids must restart per run");
        shutdown();
        drop(trace);
    }

    #[test]
    fn logical_clock_zeroes_time() {
        let _l = testlock::hold();
        init(ClockMode::Logical);
        let _ = {
            let s = span("timed");
            std::thread::sleep(std::time::Duration::from_millis(1));
            s
        };
        let trace = shutdown();
        let span_ev = trace
            .events
            .iter()
            .find(|e| matches!(e, Event::Span { name, .. } if name == "timed"))
            .expect("span recorded");
        if let Event::Span {
            start_ns, dur_ns, ..
        } = span_ev
        {
            assert_eq!((*start_ns, *dur_ns), (0, 0));
        }
    }
}
