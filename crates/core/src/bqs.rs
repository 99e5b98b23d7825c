//! The buffered BQS compressor (paper Algorithm 1).

use crate::config::BqsConfig;
use crate::engine::{BqsEngine, Fallback, StepTrace};
use crate::stream::{DecisionStats, HasDecisionStats, Sink, StreamCompressor};
use bqs_geo::TimedPoint;

/// The Bounded Quadrant System compressor, buffered variant.
///
/// Keeps the far points of the current segment in a buffer so that, when the
/// deviation bounds are inconclusive (`d_lb ≤ d < d_ub`), the exact maximum
/// deviation can be computed (Algorithm 1, lines 10–13). This yields the
/// best compression rate of the family at the cost of O(n) worst-case space
/// and O(n²) worst-case time; in practice the bounds decide more than 90 %
/// of points (Fig. 6), so the expected behaviour is near-linear.
///
/// ```
/// use bqs_core::prelude::*;
///
/// let mut bqs = BqsCompressor::new(BqsConfig::new(10.0).unwrap());
/// let mut kept = Vec::new();
/// for i in 0..50 {
///     bqs.push(TimedPoint::new(i as f64 * 25.0, 0.0, i as f64), &mut kept);
/// }
/// bqs.finish(&mut kept);
/// assert_eq!(kept.len(), 2); // a straight line needs only its endpoints
/// ```
#[derive(Debug, Clone)]
pub struct BqsCompressor {
    engine: BqsEngine,
}

impl BqsCompressor {
    /// Creates a buffered BQS compressor.
    ///
    /// # Panics
    /// Panics if `config` fails validation — construct configs through
    /// [`BqsConfig::new`] to get a `Result` instead.
    pub fn new(config: BqsConfig) -> BqsCompressor {
        BqsCompressor {
            engine: BqsEngine::new(config, Fallback::Scan),
        }
    }

    /// Pushes a point and returns the full decision trace (bounds, exact
    /// deviation when computed, decision kind) — the instrumentation behind
    /// the paper's Fig. 3.
    pub fn push_traced(&mut self, p: TimedPoint, out: &mut dyn Sink) -> StepTrace {
        self.engine.push(p, out)
    }

    /// The configuration in use.
    pub fn config(&self) -> &BqsConfig {
        self.engine.config()
    }

    /// Number of points currently buffered for exact scans.
    pub fn buffered_point_count(&self) -> usize {
        self.engine.buffered_point_count()
    }

    /// Number of significant points currently maintained (≤ 32).
    pub fn significant_point_count(&self) -> usize {
        self.engine.significant_point_count()
    }
}

impl StreamCompressor for BqsCompressor {
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
        "BQS"
    }
}

impl HasDecisionStats for BqsCompressor {
    fn decision_stats(&self) -> DecisionStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecisionKind, Outcome};
    use crate::stream::compress_all;
    use bqs_geo::{max_deviation_to_chord, Point2};

    fn wave(n: usize, amplitude: f64) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(a * 8.0, (a * 0.4).sin() * amplitude, a)
            })
            .collect()
    }

    #[test]
    fn output_respects_error_bound() {
        let tolerance = 5.0;
        let pts = wave(400, 20.0);
        let mut bqs = BqsCompressor::new(BqsConfig::new(tolerance).unwrap());
        let kept = compress_all(&mut bqs, pts.iter().copied());

        // Re-derive kept indices and verify every inter-anchor deviation.
        let positions: Vec<Point2> = pts.iter().map(|p| p.pos).collect();
        let mut k = 0usize;
        for w in kept.windows(2) {
            let i = pts.iter().position(|p| p == &w[0]).unwrap();
            let j = pts.iter().position(|p| p == &w[1]).unwrap();
            assert!(i < j);
            let dev = max_deviation_to_chord(&positions[i + 1..j], positions[i], positions[j]);
            assert!(
                dev <= tolerance + 1e-9,
                "segment {i}..{j} deviates {dev} > {tolerance}"
            );
            k += 1;
        }
        assert!(k >= 1);
    }

    #[test]
    fn traced_push_reports_decisions() {
        let mut bqs = BqsCompressor::new(BqsConfig::new(5.0).unwrap());
        let mut out = Vec::new();
        let first = bqs.push_traced(TimedPoint::new(0.0, 0.0, 0.0), &mut out);
        assert_eq!(first.decided_by, DecisionKind::StreamStart);
        assert_eq!(first.outcome, Outcome::Included);
        let near = bqs.push_traced(TimedPoint::new(1.0, 1.0, 1.0), &mut out);
        assert_eq!(near.decided_by, DecisionKind::Trivial);
    }

    #[test]
    fn compresses_better_at_larger_tolerance() {
        let pts = wave(500, 25.0);
        let mut sizes = Vec::new();
        for tol in [2.0, 8.0, 20.0] {
            let mut bqs = BqsCompressor::new(BqsConfig::new(tol).unwrap());
            sizes.push(compress_all(&mut bqs, pts.iter().copied()).len());
        }
        assert!(sizes[0] >= sizes[1]);
        assert!(sizes[1] >= sizes[2]);
        assert!(sizes[2] >= 2);
    }

    #[test]
    fn name_and_config_accessors() {
        let bqs = BqsCompressor::new(BqsConfig::new(7.5).unwrap());
        assert_eq!(StreamCompressor::name(&bqs), "BQS");
        assert_eq!(bqs.config().tolerance, 7.5);
        assert_eq!(bqs.buffered_point_count(), 0);
        assert_eq!(bqs.significant_point_count(), 0);
    }
}
