//! The streaming-compressor interface, the [`Sink`] emission layer, and
//! decision statistics.
//!
//! All compressors in this workspace — BQS, Fast BQS, and every baseline in
//! `bqs-baselines` — implement [`StreamCompressor`]: points are pushed one
//! at a time and kept (key) points are emitted into a caller-supplied
//! [`Sink`] as soon as they become final. This is the contract a
//! resource-constrained tracker needs: output can be written to flash
//! incrementally and the compressor never revisits it.
//!
//! ## Why a sink and not a `Vec`
//!
//! Early versions hard-coded `&mut Vec<TimedPoint>` as the output channel,
//! which forced every consumer to materialize the kept points even when it
//! only wanted a count (compression-rate sweeps). [`Sink`] generalizes the
//! channel while keeping the hot path monomorphizable: `&mut Vec<TimedPoint>`
//! coerces to `&mut dyn Sink` unchanged at every existing call site, and
//! [`CountingSink`] counts emissions, compressing a trace with **zero**
//! output allocation.

use bqs_geo::TimedPoint;

/// A destination for finalised key points (or any other streamed item).
///
/// Implemented here by `Vec<T>` (append) and [`CountingSink`].
/// Compressors write through `&mut dyn Sink`, so sinks must be
/// object-safe.
pub trait Sink<T = TimedPoint> {
    /// Accepts the next finalised item.
    fn push(&mut self, item: T);

    /// Optional capacity hint: the caller expects about `n` more items.
    /// Sinks that buffer may pre-reserve; the default does nothing.
    fn reserve_hint(&mut self, _n: usize) {}
}

impl<T> Sink<T> for Vec<T> {
    fn push(&mut self, item: T) {
        Vec::push(self, item);
    }

    fn reserve_hint(&mut self, n: usize) {
        self.reserve(n);
    }
}

/// Counts emitted items without storing them — the zero-allocation path
/// for compression-rate sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of items emitted so far.
    pub count: usize,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }
}

impl<T> Sink<T> for CountingSink {
    fn push(&mut self, _item: T) {
        self.count += 1;
    }
}

/// A push-based trajectory compressor with error-bounded output.
pub trait StreamCompressor {
    /// Feeds the next point of the stream. Any points that become final
    /// output are emitted into `out` (possibly none, possibly several for
    /// batch-flushing algorithms).
    fn push(&mut self, p: TimedPoint, out: &mut dyn Sink);

    /// Signals end-of-stream: flushes whatever must still be emitted (at
    /// least the final point of the last segment). The compressor is reset
    /// and may be reused for a new stream afterwards.
    fn finish(&mut self, out: &mut dyn Sink);

    /// Short algorithm label for reports ("BQS", "FBQS", "BDP", ...).
    fn name(&self) -> &'static str;

    /// Emits what [`StreamCompressor::finish`] would emit if the stream
    /// ended right now, without ending it — the live half of a fleet
    /// snapshot. The default finishes a clone; compressors whose tail is
    /// one remembered point (BQS, FBQS) answer from that point instead.
    fn pending_tail(&self, out: &mut dyn Sink)
    where
        Self: Clone,
    {
        self.clone().finish(out);
    }
}

/// Counters describing how the BQS compressors reached their decisions.
/// Pruning power (Fig. 6) is derived from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Points pushed in total.
    pub points: u64,
    /// Decisions taken trivially: first point of a segment, points inside
    /// the tolerance ball with no far structure, or empty quadrants.
    pub trivial: u64,
    /// Decisions concluded from the deviation bounds alone.
    pub by_bounds: u64,
    /// Decisions that required a full deviation scan of the segment buffer
    /// (BQS only; the paper's `N_computed`).
    pub full_scans: u64,
    /// Decisions taken during the constant-size rotation warm-up, where the
    /// deviation is computed over at most the warm-up buffer (≤ the
    /// configured warm-up length, so O(1) work).
    pub warmup_scans: u64,
    /// Inconclusive-bounds events resolved by aggressively cutting the
    /// segment (Fast BQS only).
    pub aggressive_cuts: u64,
    /// Segments produced so far.
    pub segments: u64,
}

impl DecisionStats {
    /// Pruning power as the paper defines it: `1 − N_computed / N_total`,
    /// where `N_computed` counts full deviation scans over an unbounded
    /// buffer. Constant-size warm-up scans are not full scans (they touch at
    /// most the warm-up length) and are reported separately.
    pub fn pruning_power(&self) -> f64 {
        if self.points == 0 {
            return 1.0;
        }
        1.0 - (self.full_scans as f64) / (self.points as f64)
    }

    /// Fraction of decisions that needed neither a scan nor an aggressive
    /// cut — how often the structure alone decided.
    pub fn conclusive_rate(&self) -> f64 {
        if self.points == 0 {
            return 1.0;
        }
        let undecided = self.full_scans + self.aggressive_cuts;
        1.0 - (undecided as f64) / (self.points as f64)
    }

    /// Merges counters from another stream (for multi-trace aggregates).
    pub fn merge(&mut self, other: &DecisionStats) {
        self.points += other.points;
        self.trivial += other.trivial;
        self.by_bounds += other.by_bounds;
        self.full_scans += other.full_scans;
        self.warmup_scans += other.warmup_scans;
        self.aggressive_cuts += other.aggressive_cuts;
        self.segments += other.segments;
    }
}

/// Expected kept-point fraction used to pre-size output buffers. Paper
/// datasets compress to 5–40% of the input; a quarter keeps reallocation
/// rare without over-reserving for incompressible streams.
const PRESIZE_FRACTION: usize = 4;

/// Runs a compressor over an entire point stream and returns the kept
/// points. The output buffer is pre-sized from the stream's size hint; use
/// [`compress_into`] to reuse a caller-owned buffer across traces.
pub fn compress_all<C: StreamCompressor>(
    compressor: &mut C,
    points: impl IntoIterator<Item = TimedPoint>,
) -> Vec<TimedPoint> {
    let iter = points.into_iter();
    let mut out = Vec::with_capacity(iter.size_hint().0 / PRESIZE_FRACTION);
    for p in iter {
        compressor.push(p, &mut out);
    }
    compressor.finish(&mut out);
    out
}

/// Runs a compressor over an entire point stream, emitting into a
/// caller-supplied sink. With a [`CountingSink`] this compresses a trace
/// without allocating any output storage.
pub fn compress_into<C: StreamCompressor + ?Sized>(
    compressor: &mut C,
    points: impl IntoIterator<Item = TimedPoint>,
    out: &mut dyn Sink,
) {
    let iter = points.into_iter();
    out.reserve_hint(iter.size_hint().0 / PRESIZE_FRACTION);
    for p in iter {
        compressor.push(p, out);
    }
    compressor.finish(out);
}

/// Like [`compress_all`] but also returns a snapshot of decision statistics
/// taken after the stream ends.
pub fn compress_all_with_stats<C>(
    compressor: &mut C,
    points: impl IntoIterator<Item = TimedPoint>,
) -> (Vec<TimedPoint>, DecisionStats)
where
    C: StreamCompressor + HasDecisionStats,
{
    let out = compress_all(compressor, points);
    let stats = compressor.decision_stats();
    (out, stats)
}

/// Compressors that expose BQS-style decision statistics.
pub trait HasDecisionStats {
    /// A snapshot of the counters accumulated since construction/reset.
    fn decision_stats(&self) -> DecisionStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_power_extremes() {
        let mut s = DecisionStats::default();
        assert_eq!(s.pruning_power(), 1.0);
        s.points = 100;
        s.full_scans = 0;
        assert_eq!(s.pruning_power(), 1.0);
        s.full_scans = 10;
        assert!((s.pruning_power() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn conclusive_rate_counts_aggressive_cuts() {
        let s = DecisionStats {
            points: 100,
            aggressive_cuts: 5,
            full_scans: 5,
            ..DecisionStats::default()
        };
        assert!((s.conclusive_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = DecisionStats {
            points: 10,
            full_scans: 1,
            ..Default::default()
        };
        let b = DecisionStats {
            points: 20,
            full_scans: 3,
            segments: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.points, 30);
        assert_eq!(a.full_scans, 4);
        assert_eq!(a.segments, 2);
    }

    /// A compressor that keeps every point, exercising the trait plumbing.
    struct Identity;
    impl StreamCompressor for Identity {
        fn push(&mut self, p: TimedPoint, out: &mut dyn Sink) {
            out.push(p);
        }
        fn finish(&mut self, _out: &mut dyn Sink) {}
        fn name(&self) -> &'static str {
            "identity"
        }
    }

    fn pts(n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| TimedPoint::new(i as f64, 0.0, i as f64))
            .collect()
    }

    #[test]
    fn compress_all_drives_the_trait() {
        let input = pts(5);
        let mut c = Identity;
        let out = compress_all(&mut c, input.iter().copied());
        assert_eq!(out, input);
        assert_eq!(c.name(), "identity");
    }

    #[test]
    fn compress_into_reuses_the_buffer() {
        let input = pts(64);
        let mut c = Identity;
        let mut out: Vec<TimedPoint> = Vec::new();
        compress_into(&mut c, input.iter().copied(), &mut out);
        assert_eq!(out.len(), 64);
        let cap = out.capacity();
        out.clear();
        compress_into(&mut c, input.iter().copied(), &mut out);
        assert_eq!(out.len(), 64);
        assert_eq!(out.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let mut c = Identity;
        let mut sink = CountingSink::new();
        compress_into(&mut c, pts(100).iter().copied(), &mut sink);
        assert_eq!(sink.count, 100);
    }

    #[test]
    fn vec_coerces_to_dyn_sink_at_call_sites() {
        // The pre-refactor calling convention must keep compiling verbatim.
        let mut out = Vec::new();
        let mut c = Identity;
        for p in pts(3) {
            c.push(p, &mut out);
        }
        c.finish(&mut out);
        assert_eq!(out.len(), 3);
    }
}
