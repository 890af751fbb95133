//! Counters, gauges and fixed-bucket histograms.
//!
//! Metrics live in a process-global registry keyed by name. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are interned once (a mutex
//! lock on first use per name) and are `Copy` — hot paths look a handle
//! up once, outside their loop, and afterwards each update is one
//! enabled-flag check plus one relaxed atomic operation. Updates
//! commute, so aggregated values are identical regardless of thread
//! count or scheduling.
//!
//! [`Meter`] is the per-run complement: a plain local array of counts
//! (no atomics) for code that needs its *own* totals — the simulation
//! kernels populate `SchedStats` from one — which it publishes into the
//! global registry on [`Meter::publish`], so a per-run report and the
//! global trace can never disagree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;

/// Number of histogram buckets: bucket 0 for value 0, bucket `i` for
/// values with `floor_log2(v) == i - 1`, up to `u64::MAX` in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Shared histogram storage.
#[derive(Debug)]
pub struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The bucket index a value falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static AtomicU64>,
    gauges: BTreeMap<String, &'static AtomicU64>,
    hists: BTreeMap<String, &'static HistCore>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Registry::default))
}

/// A handle to a named counter. `Copy`; cache it outside hot loops.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` when the recorder is enabled; a no-op (one relaxed load)
    /// otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one (see [`Counter::add`]).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current accumulated value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A job-local share of one [`Counter`]: plain `u64` adds, flushed into
/// the counter once, when the tally drops.
///
/// Hot loops that would otherwise bump a shared atomic per event (one
/// contended cache line across worker threads) count here instead. The
/// flush runs from `Drop`, so a job that stops early — returns, is
/// cancelled or unwinds — still reports what it counted. Counter
/// addition commutes, so totals are exact and independent of thread
/// count. A clone starts from zero, so a copied tally never reports the
/// original's count twice.
#[derive(Debug)]
pub struct Tally {
    counter: Counter,
    n: u64,
}

impl Tally {
    /// A zero tally that flushes into `counter`.
    pub fn new(counter: Counter) -> Self {
        Self { counter, n: 0 }
    }

    /// Adds one locally (always counted; the flush is what the recorder
    /// gates).
    #[inline(always)]
    pub fn inc(&mut self) {
        self.n += 1;
    }

    /// The count not yet flushed.
    pub fn get(&self) -> u64 {
        self.n
    }
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        Self::new(self.counter)
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        if self.n > 0 {
            self.counter.add(self.n);
        }
    }
}

/// Interns (or finds) the counter named `name`.
///
/// Storage for each distinct name is allocated once for the process
/// lifetime; the set of metric names is fixed and small by design.
pub fn counter(name: &str) -> Counter {
    with_registry(|r| {
        if let Some(&c) = r.counters.get(name) {
            return Counter(c);
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        r.counters.insert(name.to_string(), cell);
        Counter(cell)
    })
}

/// A handle to a named gauge (last-write-wins `f64`).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    /// Stores `v` when the recorder is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Interns (or finds) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    with_registry(|r| {
        if let Some(&g) = r.gauges.get(name) {
            return Gauge(g);
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0f64.to_bits())));
        r.gauges.insert(name.to_string(), cell);
        Gauge(cell)
    })
}

/// A handle to a named fixed-bucket histogram.
#[derive(Debug, Clone, Copy)]
pub struct Histogram(&'static HistCore);

impl Histogram {
    /// Records one sample when the recorder is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let h = self.0;
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let s = h.sum.load(Ordering::Relaxed);
        h.sum.store(s.saturating_add(v), Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.0;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Interns (or finds) the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    with_registry(|r| {
        if let Some(&h) = r.hists.get(name) {
            return Histogram(h);
        }
        let cell: &'static HistCore = Box::leak(Box::new(HistCore::new()));
        r.hists.insert(name.to_string(), cell);
        Histogram(cell)
    })
}

/// A materialized histogram state with percentile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from the sparse bucket encoding of an
    /// [`Event::Hist`].
    pub fn from_sparse(count: u64, sum: u64, min: u64, max: u64, sparse: &[(u8, u64)]) -> Self {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        for &(i, c) in sparse {
            if (i as usize) < HIST_BUCKETS {
                buckets[i as usize] = c;
            }
        }
        Self {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// The sparse `(bucket, count)` encoding used in events.
    pub fn to_sparse(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`): the inclusive upper
    /// bound of the bucket where the cumulative count first reaches
    /// `ceil(q * count)`, clamped to the observed `[min, max]`. Exact
    /// when all samples share a bucket; otherwise within one power of
    /// two. Returns `None` on an empty histogram.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Mean sample value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as flush events, ordered by kind then name.
    pub fn into_events(self) -> Vec<Event> {
        let mut out = Vec::new();
        for (name, value) in self.counters {
            out.push(Event::Counter { name, value });
        }
        for (name, value) in self.gauges {
            out.push(Event::Gauge { name, value });
        }
        for (name, h) in self.hists {
            out.push(Event::Hist {
                buckets: h.to_sparse(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                name,
            });
        }
        out
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect(),
        gauges: r
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect(),
        hists: r
            .hists
            .iter()
            .map(|(n, h)| (n.clone(), Histogram(h).snapshot()))
            .collect(),
    })
}

/// Zeroes every registered metric (called by [`crate::init`]).
pub fn reset_all() {
    with_registry(|r| {
        for c in r.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in r.gauges.values() {
            g.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in r.hists.values() {
            h.reset();
        }
    });
}

/// A per-run, thread-local metric scope: named slots of plain `u64`
/// counts with no atomics, suitable for the innermost scheduler loops.
///
/// [`Meter::publish`] adds the totals into the globally registered
/// counters of the same names (when the recorder is enabled) — so a
/// report built from the meter and a trace built from the registry show
/// the same numbers by construction.
#[derive(Debug, Clone)]
pub struct Meter {
    names: &'static [&'static str],
    vals: Vec<u64>,
}

impl Meter {
    /// Creates a meter with one slot per name.
    pub fn new(names: &'static [&'static str]) -> Self {
        Self {
            names,
            vals: vec![0; names.len()],
        }
    }

    /// Adds `n` to slot `i`. Plain integer add — always counted, whether
    /// or not the recorder is enabled (per-run stats are part of the
    /// caller's result, not optional telemetry).
    #[inline(always)]
    pub fn add(&mut self, i: usize, n: u64) {
        self.vals[i] += n;
    }

    /// Increments slot `i` by one.
    #[inline(always)]
    pub fn inc(&mut self, i: usize) {
        self.vals[i] += 1;
    }

    /// The current value of slot `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.vals[i]
    }

    /// Adds every slot into the global counter of the same name (no-op
    /// while the recorder is disabled).
    pub fn publish(&self) {
        if !crate::enabled() {
            return;
        }
        for (i, name) in self.names.iter().enumerate() {
            counter(name).add(self.vals[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_flushes_once_on_drop_and_clones_from_zero() {
        let _g = crate::testlock::hold();
        crate::init(crate::ClockMode::Logical);
        let c = counter("test.tally");
        {
            let mut t = Tally::new(c);
            for _ in 0..5 {
                t.inc();
            }
            let copy = t.clone();
            assert_eq!(copy.get(), 0);
            assert_eq!(c.get(), 0, "nothing flushes before the drop");
        }
        assert_eq!(c.get(), 5);
        crate::shutdown();
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let s = HistogramSnapshot::from_sparse(0, 0, 0, 0, &[]);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample() {
        // One sample of 100 → bucket 7 (64..=127); min==max==100 clamps
        // every percentile to exactly 100.
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[bucket_of(100)] = 1;
        let s = HistogramSnapshot {
            count: 1,
            sum: 100,
            min: 100,
            max: 100,
            buckets,
        };
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.percentile(q), Some(100), "q={q}");
        }
        assert_eq!(s.mean(), Some(100.0));
    }

    #[test]
    fn saturating_bucket_holds_max_values() {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[64] = 3;
        let s = HistogramSnapshot {
            count: 3,
            sum: u64::MAX,
            min: u64::MAX - 1,
            max: u64::MAX,
            buckets,
        };
        assert_eq!(s.percentile(0.5), Some(u64::MAX));
        assert_eq!(s.percentile(0.99), Some(u64::MAX));
    }

    #[test]
    fn percentiles_walk_buckets_in_order() {
        // 90 samples of ~1, 10 samples of ~1000:
        // p50 ≤ upper(bucket(1)) = 1, p99 lands in the 1000 bucket.
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[bucket_of(1)] = 90;
        buckets[bucket_of(1000)] = 10;
        let s = HistogramSnapshot {
            count: 100,
            sum: 90 + 10_000,
            min: 1,
            max: 1000,
            buckets,
        };
        assert_eq!(s.percentile(0.5), Some(1));
        assert_eq!(s.percentile(0.9), Some(1));
        assert_eq!(s.percentile(0.99), Some(1000));
        assert_eq!(s.percentile(1.0), Some(1000));
    }

    #[test]
    fn sparse_round_trip() {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[0] = 2;
        buckets[5] = 7;
        buckets[64] = 1;
        let s = HistogramSnapshot {
            count: 10,
            sum: 999,
            min: 0,
            max: u64::MAX,
            buckets,
        };
        let sparse = s.to_sparse();
        assert_eq!(sparse, vec![(0, 2), (5, 7), (64, 1)]);
        let back = HistogramSnapshot::from_sparse(10, 999, 0, u64::MAX, &sparse);
        assert_eq!(s, back);
    }

    #[test]
    fn meter_accumulates_and_reads_back() {
        static NAMES: &[&str] = &["test.meter.a", "test.meter.b"];
        let mut m = Meter::new(NAMES);
        m.inc(0);
        m.add(1, 41);
        m.inc(1);
        assert_eq!(m.get(0), 1);
        assert_eq!(m.get(1), 42);
        // publish() with the recorder disabled must not touch the
        // registry.
        m.publish();
    }
}
