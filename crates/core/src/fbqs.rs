//! The Fast BQS compressor (paper §V-E): O(1) time and space per point.

use crate::config::BqsConfig;
use crate::engine::{BqsEngine, Fallback, StepTrace};
use crate::stream::{DecisionStats, HasDecisionStats, Sink, StreamCompressor};
use bqs_geo::TimedPoint;

/// The Fast Bounded Quadrant System compressor.
///
/// Identical to [`crate::BqsCompressor`] except in the inconclusive case
/// `d_lb ≤ d < d_ub`: instead of scanning a buffer it **aggressively takes
/// the point and starts a new segment**, so no per-segment buffer exists at
/// all. Each point is processed against at most 32 significant points
/// (≤ 8 per quadrant), giving O(1) time and space per point — O(n)/O(1) for
/// the whole stream (paper Table I). The cost is a slightly lower
/// compression rate, bounded by the pruning power of the bounds (Fig. 6:
/// typically < 10 % extra points).
///
/// ```
/// use bqs_core::prelude::*;
///
/// let mut fbqs = FastBqsCompressor::new(BqsConfig::new(10.0).unwrap());
/// let mut kept = Vec::new();
/// for i in 0..50 {
///     fbqs.push(TimedPoint::new(i as f64 * 25.0, 0.0, i as f64), &mut kept);
/// }
/// fbqs.finish(&mut kept);
/// assert_eq!(kept.len(), 2);
/// assert_eq!(fbqs.buffered_point_count(), 0); // never buffers
/// ```
#[derive(Debug, Clone)]
pub struct FastBqsCompressor {
    engine: BqsEngine,
}

impl FastBqsCompressor {
    /// Creates a Fast BQS compressor.
    ///
    /// # Panics
    /// Panics if `config` fails validation — construct configs through
    /// [`BqsConfig::new`] to get a `Result` instead.
    pub fn new(config: BqsConfig) -> FastBqsCompressor {
        FastBqsCompressor {
            engine: BqsEngine::new(config, Fallback::Cut),
        }
    }

    /// Pushes a point and returns the decision trace.
    pub fn push_traced(&mut self, p: TimedPoint, out: &mut dyn Sink) -> StepTrace {
        self.engine.push(p, out)
    }

    /// The configuration in use.
    pub fn config(&self) -> &BqsConfig {
        self.engine.config()
    }

    /// Always zero: the fast variant never keeps a scan buffer. Exposed so
    /// harnesses can assert the constant-space claim.
    pub fn buffered_point_count(&self) -> usize {
        self.engine.buffered_point_count()
    }

    /// Number of significant points currently maintained (≤ 32).
    pub fn significant_point_count(&self) -> usize {
        self.engine.significant_point_count()
    }
}

impl StreamCompressor for FastBqsCompressor {
    fn push(&mut self, p: TimedPoint, out: &mut dyn Sink) {
        self.engine.push(p, out);
    }

    fn finish(&mut self, out: &mut dyn Sink) {
        self.engine.finish(out);
    }

    fn pending_tail(&self, out: &mut dyn Sink) {
        self.engine.pending_tail(out);
    }

    fn name(&self) -> &'static str {
        "FBQS"
    }
}

impl HasDecisionStats for FastBqsCompressor {
    fn decision_stats(&self) -> DecisionStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bqs::BqsCompressor;
    use crate::stream::compress_all;
    use bqs_geo::{max_deviation_to_chord, Point2};

    fn noisy_track(n: usize) -> Vec<TimedPoint> {
        // Deterministic pseudo-noise over a drifting path.
        let mut pts = Vec::with_capacity(n);
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for i in 0..n {
            let a = i as f64;
            x += 10.0 + (a * 0.7).sin() * 3.0;
            y += (a * 0.23).sin() * 8.0;
            pts.push(TimedPoint::new(x, y, a));
        }
        pts
    }

    #[test]
    fn never_scans_never_buffers() {
        let mut fbqs = FastBqsCompressor::new(BqsConfig::new(5.0).unwrap());
        let _ = compress_all(&mut fbqs, noisy_track(1000));
        let stats = fbqs.decision_stats();
        assert_eq!(stats.full_scans, 0);
        assert_eq!(fbqs.buffered_point_count(), 0);
        assert_eq!(stats.pruning_power(), 1.0);
    }

    #[test]
    fn keeps_at_least_as_many_points_as_bqs() {
        let pts = noisy_track(800);
        for tol in [3.0, 6.0, 12.0] {
            let config = BqsConfig::new(tol).unwrap();
            let mut bqs = BqsCompressor::new(config);
            let mut fbqs = FastBqsCompressor::new(config);
            let kept_bqs = compress_all(&mut bqs, pts.iter().copied()).len();
            let kept_fbqs = compress_all(&mut fbqs, pts.iter().copied()).len();
            assert!(
                kept_fbqs >= kept_bqs,
                "tolerance {tol}: FBQS kept {kept_fbqs} < BQS {kept_bqs}"
            );
        }
    }

    #[test]
    fn output_respects_error_bound() {
        let tolerance = 6.0;
        let pts = noisy_track(600);
        let mut fbqs = FastBqsCompressor::new(BqsConfig::new(tolerance).unwrap());
        let kept = compress_all(&mut fbqs, pts.iter().copied());
        let positions: Vec<Point2> = pts.iter().map(|p| p.pos).collect();
        for w in kept.windows(2) {
            let i = pts.iter().position(|p| p == &w[0]).unwrap();
            let j = pts.iter().position(|p| p == &w[1]).unwrap();
            let dev = max_deviation_to_chord(&positions[i + 1..j], positions[i], positions[j]);
            assert!(dev <= tolerance + 1e-9, "segment {i}..{j} deviates {dev}");
        }
    }

    #[test]
    fn aggressive_cuts_recorded() {
        let mut fbqs = FastBqsCompressor::new(BqsConfig::new(2.0).unwrap());
        let _ = compress_all(&mut fbqs, noisy_track(1000));
        let stats = fbqs.decision_stats();
        // A tight tolerance on a noisy track must hit the inconclusive case
        // at least occasionally.
        assert!(stats.aggressive_cuts > 0 || stats.by_bounds > 0);
        assert_eq!(stats.points, 1000);
    }

    #[test]
    fn name_is_fbqs() {
        let fbqs = FastBqsCompressor::new(BqsConfig::new(1.0).unwrap());
        assert_eq!(StreamCompressor::name(&fbqs), "FBQS");
    }
}
