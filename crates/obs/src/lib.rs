//! # bqs-obs — lock-free observability primitives
//!
//! The serving stack (net server → parallel fleet → durable log) moves
//! millions of points per second; any instrumentation on those paths
//! must be cheaper than the work it measures. This crate provides the
//! three metric kinds the system needs, all std-only and allocation-free
//! on the hot path:
//!
//! * [`Counter`] — a monotonically increasing `u64` (relaxed atomic).
//! * [`Gauge`] — a current value plus a high-water mark (`fetch_max`).
//! * [`Histogram`] — a fixed array of 64 log₂-scale buckets with exact
//!   count/sum/max, recording in a handful of relaxed atomics. Bucket
//!   `i ≥ 1` covers `[2^(i-1), 2^i)`; bucket 0 holds zeros; the top
//!   bucket saturates, so any `u64` is recordable. Snapshots merge
//!   associatively and commutatively across threads, and quantile
//!   extraction returns the bucket's inclusive upper bound clamped to
//!   the exact observed max — never below the true order statistic, and
//!   at most 2× above it outside the saturated top bucket.
//!   Worst-case-honest, in the spirit of AWS ClockBound's always-true
//!   error bound rather than a sampled average.
//! * [`MetricsRegistry`] — a named catalog of the above. Registration
//!   takes a mutex (cold path, start-up only); the handles it returns
//!   are `Arc`-backed and lock-free. [`MetricsRegistry::render`]
//!   produces a sorted `name value` text exposition.
//!
//! Every holder of handles always records: the network server, the
//! fleet and the spill sinks. A fleet or sink built without the
//! caller's registry counts into one of its own, so there is no
//! disabled path.

#![deny(missing_docs)]

mod alert;
mod prom;
mod trace;

pub use alert::{AlertOp, AlertRule, AlertStat};
pub use prom::render_prometheus_histogram;
pub use trace::{FlightRecorder, TraceEvent, TraceEventKind, TraceSnapshot};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Microseconds elapsed since `start`, saturated into a `u64`.
///
/// The canonical unit for latency histograms in this workspace.
pub fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The workspace's clock read: [`Instant::now`] behind one auditable
/// symbol.
///
/// Hot modules (the `now-in-hot-path` list in `bqs analyze`) must take
/// their timestamps here — per-event clock reads are a measurable cost
/// on the ingest path, and funnelling them through `bqs-obs` keeps
/// every such read greppable and swappable (e.g. for a coarse ticker)
/// in one place.
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// A monotonically increasing counter. Cloning shares the same cell.
///
/// All operations are relaxed atomics: increments from any thread are
/// never lost, but readers may observe slightly stale totals — fine for
/// telemetry, and the reason recording costs a single `fetch_add`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (unregistered; see
    /// [`MetricsRegistry::counter`] for named ones).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value with a high-water mark. Cloning shares state.
///
/// `set`/`add` keep the peak up to date via `fetch_max`, so the
/// high-water mark is exact even under concurrent writers.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeCell>);

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero (unregistered; see
    /// [`MetricsRegistry::gauge`] for named ones).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the current value (and raises the peak if exceeded).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` to the current value (raising the peak if exceeded).
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.0.value.fetch_add(n, Ordering::Relaxed) + n;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `n` from the current value (saturating at zero only
    /// under single-writer use; concurrent over-subtraction wraps like
    /// any unsigned decrement and is a caller bug).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The highest value ever set/reached.
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

/// A log₂-bucket histogram of `u64` samples. Cloning shares the cells,
/// so one histogram can be recorded into from many threads at once.
///
/// Bucket 0 counts zeros; bucket `i ∈ [1, 63]` counts samples in
/// `[2^(i-1), 2^i)`; bucket 63 additionally absorbs everything from
/// `2^62` up to `u64::MAX` (saturation, never a panic). Count, sum and
/// max are tracked exactly. Recording is 4 relaxed atomic RMWs.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a sample lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // floor(log2(v)) + 1, clamped into the top bucket.
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
///
/// Public because the Prometheus exposition and its tests need the
/// log₂ → `le` boundary map.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh empty histogram (unregistered; see
    /// [`MetricsRegistry::histogram`] for named ones).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the microseconds elapsed since `start`.
    #[inline]
    pub fn record_elapsed(&self, start: Instant) {
        self.record(elapsed_us(start));
    }

    /// A consistent-enough copy of the current state. Concurrent
    /// recording may make count/sum/buckets disagree by the few samples
    /// in flight; each individual cell is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
            max: cells.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded — exact, not a bucket bound.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The raw per-bucket counts (see the crate docs for the log₂
    /// bucket layout).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Folds `other` into `self`. Associative and commutative, so
    /// per-thread snapshots can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// An upper bound on the `q`-quantile (`q ∈ [0, 1]`): the inclusive
    /// upper bound of the bucket holding the rank-`⌈q·count⌉` sample,
    /// clamped to the exact observed max. Never below the true order
    /// statistic, and at most 2× above it outside the saturated top
    /// bucket; zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound ([`HistogramSnapshot::quantile`] at 0.50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time read of one registered metric, as returned by
/// [`MetricsRegistry::sample`]. Alert rules reduce these to a single
/// observed value.
#[derive(Clone, Debug)]
pub enum MetricSample {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value and high-water mark.
    Gauge {
        /// The current value.
        value: u64,
        /// The highest value ever reached.
        peak: u64,
    },
    /// A histogram's full snapshot, boxed to keep the enum small (the
    /// snapshot carries the whole bucket array).
    Histogram(Box<HistogramSnapshot>),
}

/// This process's resident set size in bytes: `/proc/self/statm` pages
/// × the ELF-auxv page size on Linux, 0 on every other platform (a
/// honest "not measured", never a guess).
///
/// Cold-path only — the metrics reporter refreshes a
/// `process_rss_bytes` gauge from it once per tick.
pub fn process_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
            return 0;
        };
        // statm: size resident shared text lib data dt (in pages).
        let mut fields = statm.split_whitespace();
        let _size = fields.next();
        match fields.next().and_then(|v| v.parse::<u64>().ok()) {
            Some(resident_pages) => resident_pages.saturating_mul(page_size_bytes()),
            None => 0,
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// The system page size from `/proc/self/auxv` (`AT_PAGESZ` = 6);
/// falls back to 4096 if the auxv is unreadable. std exposes no
/// `sysconf`, and the auxv is a plain file of `u64` key/value pairs.
#[cfg(target_os = "linux")]
fn page_size_bytes() -> u64 {
    const AT_PAGESZ: u64 = 6;
    if let Ok(bytes) = std::fs::read("/proc/self/auxv") {
        for pair in bytes.chunks_exact(16) {
            let mut key = [0u8; 8];
            let mut val = [0u8; 8];
            key.copy_from_slice(&pair[..8]);
            val.copy_from_slice(&pair[8..]);
            if u64::from_ne_bytes(key) == AT_PAGESZ {
                return u64::from_ne_bytes(val);
            }
        }
    }
    4096
}

/// A named catalog of metrics with a text exposition.
///
/// Cloning is cheap and shares the catalog. Looking a metric up (or
/// registering it) takes a mutex — do that once at start-up and keep
/// the returned handle; the handles themselves are lock-free.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            // bqs-analyze: allow(no-unwrap-in-lib) — kind mismatch is a caller bug; the registry documents this panic
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            // bqs-analyze: allow(no-unwrap-in-lib) — kind mismatch is a caller bug; the registry documents this panic
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            // bqs-analyze: allow(no-unwrap-in-lib) — kind mismatch is a caller bug; the registry documents this panic
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// A sorted copy of the catalog's (name, handle) pairs.
    pub(crate) fn snapshot_metrics(&self) -> Vec<(String, Metric)> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// A point-in-time read of one metric by name, or `None` when no
    /// such metric is registered. This is the lookup the alert
    /// evaluator uses: one mutex acquisition per tick per rule, never
    /// on a hot path.
    pub fn sample(&self, name: &str) -> Option<MetricSample> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.get(name).map(|m| match m {
            Metric::Counter(c) => MetricSample::Counter(c.get()),
            Metric::Gauge(g) => MetricSample::Gauge {
                value: g.get(),
                peak: g.peak(),
            },
            Metric::Histogram(h) => MetricSample::Histogram(Box::new(h.snapshot())),
        })
    }

    /// The text exposition: one `name value` line per scalar, sorted by
    /// name. Gauges also emit `name_peak`; histograms emit
    /// `name_count`, `name_sum`, `name_mean`, `name_p50`, `name_p90`,
    /// `name_p99` and `name_max`. Every value is a decimal `u64`, so
    /// the output greps and diffs trivially.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.snapshot_metrics() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                    let _ = writeln!(out, "{name}_peak {}", g.peak());
                }
                Metric::Histogram(h) => {
                    // Suffixes in lexicographic order keep the whole
                    // exposition sorted line-by-line.
                    let s = h.snapshot();
                    let _ = writeln!(out, "{name}_count {}", s.count());
                    let _ = writeln!(out, "{name}_max {}", s.max());
                    let _ = writeln!(out, "{name}_mean {}", s.mean());
                    let _ = writeln!(out, "{name}_p50 {}", s.p50());
                    let _ = writeln!(out, "{name}_p90 {}", s.p90());
                    let _ = writeln!(out, "{name}_p99 {}", s.p99());
                    let _ = writeln!(out, "{name}_sum {}", s.sum());
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry")
            .field("metrics", &map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_across_clones_and_threads() {
        let c = Counter::new();
        let c2 = c.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        c2.add(5);
        assert_eq!(c.get(), 4005);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::new();
        g.set(7);
        g.add(5);
        g.sub(10);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 12);
        g.set(3);
        assert_eq!(g.peak(), 12);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_sorted_reference() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        // p50's true order statistic is 500; the bucket bound is 511.
        assert_eq!(s.p50(), 511);
        assert!(s.p99() >= 990 && s.p99() <= 1000);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1
    }

    #[test]
    fn top_bucket_saturates_without_panicking() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record(1u64 << 62);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [0u64, 1, 5, 100] {
            a.record(v);
        }
        for v in [3u64, 1 << 40] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let all = Histogram::new();
        for v in [0u64, 1, 5, 100, 3, 1 << 40] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn registry_reuses_handles_and_renders_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(2);
        reg.counter("b_total").inc(); // same underlying cell
        reg.gauge("a_live").set(4);
        reg.histogram("c_us").record(100);
        let text = reg.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a_live 4");
        assert_eq!(lines[1], "a_live_peak 4");
        assert_eq!(lines[2], "b_total 3");
        assert!(lines[3].starts_with("c_us_count 1"));
        assert!(text.contains("c_us_max 100"));
        let mut sorted = lines.clone();
        sorted.sort();
        // Suffix lines keep the overall exposition sorted.
        assert_eq!(lines, sorted);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn sample_reads_each_kind_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").add(7);
        reg.gauge("g_depth").set(3);
        reg.histogram("h_us").record(100);
        match reg.sample("c_total") {
            Some(MetricSample::Counter(7)) => {}
            other => panic!("bad counter sample: {other:?}"),
        }
        match reg.sample("g_depth") {
            Some(MetricSample::Gauge { value: 3, peak: 3 }) => {}
            other => panic!("bad gauge sample: {other:?}"),
        }
        match reg.sample("h_us") {
            Some(MetricSample::Histogram(s)) => assert_eq!(s.count(), 1),
            other => panic!("bad histogram sample: {other:?}"),
        }
        assert!(reg.sample("missing").is_none());
    }

    #[test]
    fn process_rss_is_nonzero_on_linux() {
        let rss = process_rss_bytes();
        if cfg!(target_os = "linux") {
            // Any live process resides in at least one page.
            assert!(rss > 0, "rss {rss}");
        } else {
            assert_eq!(rss, 0);
        }
    }
}
