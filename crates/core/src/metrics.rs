//! Deviation metrics.
//!
//! The paper defines deviation with the **point-to-line** distance (§IV,
//! "for simplicity of the proof and presentation") and shows the
//! **point-to-line-segment** metric also works, with the Eq. 11 adjustment
//! to the upper bound. Every compressor in this workspace is parameterised
//! over this choice.

use bqs_geo::{point_to_line_distance, point_to_segment_distance, Point2, Vec2};
use serde::{Deserialize, Serialize};

/// Which distance kernel defines the deviation `â(τ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeviationMetric {
    /// Distance to the infinite line through the segment anchors (the
    /// paper's default).
    #[default]
    PointToLine,
    /// Distance to the closed segment between the anchors (never smaller
    /// than the line distance).
    PointToSegment,
}

impl DeviationMetric {
    /// Distance from `p` to the chord from `a` to `b` under this metric.
    #[inline]
    pub fn distance(self, p: Point2, a: Point2, b: Point2) -> f64 {
        match self {
            DeviationMetric::PointToLine => point_to_line_distance(p, a, b),
            DeviationMetric::PointToSegment => point_to_segment_distance(p, a, b),
        }
    }

    /// Maximum deviation of a buffer of interior points against the chord
    /// `a → b` (the "full computation" of Algorithm 1, line 11).
    pub fn max_deviation(self, buffer: &[Point2], a: Point2, b: Point2) -> f64 {
        let chord = Chord::new(a, b, self);
        buffer
            .iter()
            .map(|p| chord.distance(*p))
            .fold(0.0, f64::max)
    }

    /// Short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DeviationMetric::PointToLine => "point-to-line",
            DeviationMetric::PointToSegment => "point-to-segment",
        }
    }
}

/// A chord `a → b` prepared for repeated distance queries under one metric.
///
/// The direction and its length are taken once — the only square root of a
/// BQS decision — so each point-to-line [`Chord::distance`] is one cross
/// product and one division, in the same arithmetic as
/// [`point_to_line_distance`]: the values are bit-identical, which is what
/// lets the decision kernel share a chord across all its significant
/// points without moving a kept point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chord {
    a: Point2,
    b: Point2,
    dir: Vec2,
    len: f64,
    metric: DeviationMetric,
}

impl Chord {
    /// Prepares the chord from `a` to `b`.
    #[inline]
    pub fn new(a: Point2, b: Point2, metric: DeviationMetric) -> Chord {
        let dir = b - a;
        Chord {
            a,
            b,
            dir,
            len: dir.norm(),
            metric,
        }
    }

    /// The chord's end point `b`.
    #[inline]
    pub fn end(&self) -> Point2 {
        self.b
    }

    /// The metric distances are taken under.
    #[inline]
    pub fn metric(&self) -> DeviationMetric {
        self.metric
    }

    /// Distance from `p` to the chord; equals
    /// [`DeviationMetric::distance`]`(p, a, b)` to the last bit.
    #[inline]
    pub fn distance(&self, p: Point2) -> f64 {
        match self.metric {
            DeviationMetric::PointToLine => {
                if self.len <= f64::EPSILON {
                    p.distance(self.a)
                } else {
                    (self.dir.cross(p - self.a) / self.len).abs()
                }
            }
            DeviationMetric::PointToSegment => point_to_segment_distance(p, self.a, self.b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_metric_matches_geo_kernel() {
        let (a, b) = (Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        let p = Point2::new(20.0, 3.0);
        assert_eq!(DeviationMetric::PointToLine.distance(p, a, b), 3.0);
    }

    #[test]
    fn segment_metric_dominates_line_metric() {
        let (a, b) = (Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        for p in [
            Point2::new(20.0, 3.0),
            Point2::new(-5.0, 1.0),
            Point2::new(5.0, -4.0),
        ] {
            let line = DeviationMetric::PointToLine.distance(p, a, b);
            let seg = DeviationMetric::PointToSegment.distance(p, a, b);
            assert!(seg >= line);
        }
    }

    #[test]
    fn max_deviation_over_buffer() {
        let (a, b) = (Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        let buf = [
            Point2::new(2.0, 1.0),
            Point2::new(5.0, -4.0),
            Point2::new(8.0, 2.0),
        ];
        assert_eq!(DeviationMetric::PointToLine.max_deviation(&buf, a, b), 4.0);
        assert_eq!(DeviationMetric::PointToLine.max_deviation(&[], a, b), 0.0);
    }

    #[test]
    fn chord_distances_are_bit_identical_to_the_per_call_kernels() {
        let ends = [
            Point2::new(10.0, 0.0),
            Point2::new(-3.7, 12.25),
            Point2::new(1e-9, -4e3),
            Point2::ORIGIN, // degenerate: falls back to point distance
        ];
        let probes = [
            Point2::new(20.0, 3.0),
            Point2::new(-5.5, 1.125),
            Point2::new(0.3, -4.75),
            Point2::ORIGIN,
        ];
        for a in [Point2::ORIGIN, Point2::new(2.5, -1.5)] {
            for b in ends {
                for metric in [
                    DeviationMetric::PointToLine,
                    DeviationMetric::PointToSegment,
                ] {
                    let chord = Chord::new(a, b, metric);
                    assert_eq!(chord.len.to_bits(), a.distance(b).to_bits());
                    for p in probes {
                        assert_eq!(
                            chord.distance(p).to_bits(),
                            metric.distance(p, a, b).to_bits(),
                            "{metric:?} {a:?}→{b:?} at {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            DeviationMetric::PointToLine.label(),
            DeviationMetric::PointToSegment.label()
        );
    }
}
