//! The shared BQS decision engine.
//!
//! [`BqsEngine`] implements Algorithm 1's per-point state machine once; the
//! public [`crate::BqsCompressor`] (buffered, scan fallback) and
//! [`crate::FastBqsCompressor`] (no buffer, aggressive-cut fallback) are
//! thin wrappers selecting a [`Fallback`] policy.
//!
//! ## Decision pipeline for an incoming point `e`
//!
//! 1. **Segment start** — the first point of the stream opens a segment and
//!    is emitted immediately.
//! 2. **Warm-up** (data-centric rotation only) — until the configured number
//!    of *effective* points (outside the tolerance ball around the start)
//!    has arrived, decisions are made by a direct deviation scan over the
//!    constant-size warm-up buffer. When full, the frame is rotated towards
//!    the warm-up centroid and the buffered points populate the quadrants.
//! 3. **Bounds** — with the frame fixed, the ≤4 quadrant systems produce an
//!    aggregated `⟨d_lb, d_ub⟩` for the chord from the segment start to `e`
//!    (Theorems 5.3–5.5). `d_ub ≤ d` admits `e`; `d_lb > d` cuts.
//! 4. **Fallback** — when `d_lb ≤ d < d_ub`, [`Fallback::Scan`] computes the
//!    exact deviation over the segment buffer (Algorithm 1 line 11) and
//!    [`Fallback::Cut`] aggressively ends the segment (§V-E), which is what
//!    makes the fast variant O(1) per point.
//!
//! ## A note on Theorem 5.1 (and why admission is always verified)
//!
//! The paper admits points inside the tolerance ball around the segment
//! start without further checks: such a point can never *itself* deviate by
//! more than `d` from any chord through the start (Theorem 5.1, which holds
//! for both metrics since the start anchors the chord). This implementation
//! keeps the structural half of that optimisation — near points are never
//! inserted into the quadrant systems, so they never widen the hulls — but
//! still verifies the chord `start → e` against the *far* structure before
//! admitting `e`. Without that check, a near point could become a key point
//! whose chord was never validated against earlier far excursions, silently
//! breaking the error bound; with it, every admitted point is a valid
//! segment end and the bound is unconditional (see the property tests).

use crate::bounds::DeviationBounds;
use crate::config::{BoundsMode, BqsConfig, RotationMode};
use crate::metrics::Chord;
use crate::quadrant::QuadrantBounds;
use crate::rotation::SegmentFrame;
use crate::stream::{DecisionStats, Sink};
use bqs_geo::{Point2, Quadrant, TimedPoint, Vec2};

/// What the engine does when the bounds are inconclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Compute the exact deviation over the segment buffer (BQS).
    Scan,
    /// End the segment aggressively without computing (Fast BQS).
    Cut,
}

/// How a push decision was reached, for tracing and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// First point of the stream.
    StreamStart,
    /// No far structure exists; the point was admitted trivially.
    Trivial,
    /// Decided during the rotation warm-up by a constant-size scan.
    WarmupScan,
    /// Decided by the deviation bounds alone.
    Bounds,
    /// Decided by a full deviation scan (Fallback::Scan).
    FullScan,
    /// Inconclusive bounds resolved by an aggressive cut (Fallback::Cut).
    AggressiveCut,
}

/// Whether the point extended the current segment or ended it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The point joined the current segment.
    Included,
    /// The segment ended at the previous point; a new segment absorbed the
    /// incoming point.
    SegmentCut,
}

/// Per-push trace record (drives the Fig. 3 experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// Aggregated deviation bounds, when the bounds stage ran.
    pub bounds: Option<DeviationBounds>,
    /// Exact deviation, when a scan (warm-up or full) computed one.
    pub actual: Option<f64>,
    /// How the decision was made.
    pub decided_by: DecisionKind,
    /// The decision.
    pub outcome: Outcome,
}

/// Radius-growth factor between frame rebuilds: once the segment has grown
/// past `rebuild_at`, the frame re-aligns and the next rebuild is armed at
/// `radius × REBUILD_GROWTH`. Geometric spacing makes re-rotation O(1)
/// amortised per point.
const REBUILD_GROWTH: f64 = 2.0;

/// Whether `|v| > bound`, decided exactly as `v.norm() > bound` decides it
/// but from the squares whenever they are not within rounding distance of
/// each other, so the steady-state push takes no root for its near-ball
/// test or its rebuild trigger. The exact fallback matters: on an evenly
/// sampled straight run the doubled rebuild radius lands *on* a sample, and
/// which side of the tie it falls is part of the decision sequence.
#[inline]
fn norm_exceeds(v: Vec2, bound: f64) -> bool {
    let (sq, bound_sq) = (v.norm_sq(), bound * bound);
    if sq < bound_sq * (1.0 - 1e-9) {
        false
    } else if sq > bound_sq * (1.0 + 1e-9) {
        true
    } else {
        v.norm() > bound
    }
}

/// State for the segment currently being built.
#[derive(Debug, Clone)]
struct SegmentState {
    frame: SegmentFrame,
    quadrants: [Option<QuadrantBounds>; 4],
    /// Warm-up buffer of effective (far) points in world coordinates;
    /// bounded by the configured warm-up length.
    warmup: Vec<Point2>,
    /// Count of effective points admitted into this segment (post- and
    /// pre-rotation), used to decide whether far structure exists.
    far_points: usize,
    /// Local radius beyond which the frame re-rotates (∞ with rotation
    /// disabled). The initial data-centric rotation is fixed from points
    /// near the origin, so its angle carries noise of order
    /// `gps_noise / warmup_radius`; on a long straight run that tilt makes
    /// the axis-aligned boxes balloon diagonally and the bounds go
    /// inconclusive. Re-aligning at geometrically spaced radii and
    /// rebuilding the quadrants from their ≤9 hull vertices keeps the hull
    /// bloat logarithmic in segment length while staying O(1) per point
    /// and fully sound (the rebuilt hull contains the old one).
    rebuild_at: f64,
}

impl SegmentState {
    fn new(origin: Point2, rotation: RotationMode) -> SegmentState {
        let frame = match rotation {
            RotationMode::Disabled => SegmentFrame::axis_aligned(origin),
            RotationMode::DataCentric { .. } => SegmentFrame::awaiting_rotation(origin),
        };
        SegmentState {
            frame,
            quadrants: [None, None, None, None],
            warmup: Vec::new(),
            far_points: 0,
            rebuild_at: f64::INFINITY,
        }
    }

    /// Admits a far point; `local` is `world` in the current frame, already
    /// computed by the decision that admitted it.
    fn insert_far(&mut self, world: Point2, local: Point2, warmup_limit: usize) {
        self.far_points += 1;
        if self.frame.is_fixed() {
            let displacement = world - self.frame.origin();
            let local = if norm_exceeds(displacement, self.rebuild_at) {
                self.rebuild(world);
                self.rebuild_at = displacement.norm() * REBUILD_GROWTH;
                self.frame.to_local(world)
            } else {
                local
            };
            self.insert_into_quadrant(local);
        } else {
            self.warmup.push(world);
            if self.warmup.len() >= warmup_limit {
                let centroid =
                    // bqs-analyze: allow(no-unwrap-in-lib) — invariant: warm-up buffer is non-empty
                    SegmentFrame::centroid(&self.warmup).expect("warm-up buffer is non-empty");
                self.frame.fix_rotation(centroid);
                let origin = self.frame.origin();
                let r_max = self
                    .warmup
                    .iter()
                    .map(|p| (*p - origin).norm())
                    .fold(0.0f64, f64::max);
                self.rebuild_at = (r_max * REBUILD_GROWTH).max(f64::MIN_POSITIVE);
                let pending = std::mem::take(&mut self.warmup);
                for p in pending {
                    self.insert_into_quadrant(self.frame.to_local(p));
                }
            }
        }
    }

    /// Re-aligns the frame's x axis towards `toward_world` and rebuilds the
    /// quadrant systems from the hull vertices of the old ones. Sound: the
    /// new structures bound every vertex of the old convex regions, so
    /// their hulls contain everything the old hulls contained.
    fn rebuild(&mut self, toward_world: Point2) {
        let old_frame = self.frame.clone();
        let mut vertices: Vec<Point2> = Vec::with_capacity(36);
        for q in self.quadrants.iter().flatten() {
            for v in q.hull_vertices() {
                vertices.push(old_frame.to_world(v));
            }
        }
        let mut frame = SegmentFrame::awaiting_rotation(old_frame.origin());
        frame.fix_rotation(toward_world);
        self.frame = frame;
        self.quadrants = [None, None, None, None];
        for v in vertices {
            self.insert_into_quadrant(self.frame.to_local(v));
        }
    }

    fn insert_into_quadrant(&mut self, local: Point2) {
        let quadrant = Quadrant::of(local.x, local.y);
        match &mut self.quadrants[quadrant.index()] {
            Some(q) => q.insert(local),
            slot @ None => *slot = Some(QuadrantBounds::new(quadrant, local)),
        }
    }

    /// Aggregated bounds for a chord from the local origin over all
    /// occupied quadrants (Algorithm 1 lines 4–5). Only meaningful once
    /// the frame is fixed (the quadrants are empty before).
    fn aggregated_bounds(&self, chord: &Chord, mode: BoundsMode) -> DeviationBounds {
        let mut agg = DeviationBounds::EMPTY;
        for q in self.quadrants.iter().flatten() {
            agg = agg.merge(q.bounds_against(chord, mode));
        }
        agg
    }

    /// Number of significant points currently maintained — the paper's
    /// "c ≤ 32" working-set claim (§V-E).
    fn significant_point_count(&self) -> usize {
        self.quadrants
            .iter()
            .flatten()
            .map(|q| {
                let sp = q.significant_points();
                4 + sp.lower.len() + sp.upper.len()
            })
            .sum()
    }
}

/// The shared BQS/FBQS engine. See the module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct BqsEngine {
    config: BqsConfig,
    fallback: Fallback,
    state: Option<SegmentState>,
    /// Exact-scan buffer of far points (world coordinates); `Some` only for
    /// the buffered variant.
    buffer: Option<Vec<Point2>>,
    last: Option<TimedPoint>,
    last_emitted: Option<TimedPoint>,
    stats: DecisionStats,
}

impl BqsEngine {
    /// Creates an engine. `buffered` selects whether an exact-scan buffer is
    /// kept (it must be `true` for [`Fallback::Scan`] to have anything to
    /// scan).
    pub fn new(config: BqsConfig, fallback: Fallback) -> BqsEngine {
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: invalid BqsConfig
        config.validate().expect("invalid BqsConfig");
        let buffer = match fallback {
            Fallback::Scan => Some(Vec::new()),
            Fallback::Cut => None,
        };
        BqsEngine {
            config,
            fallback,
            state: None,
            buffer,
            last: None,
            last_emitted: None,
            stats: DecisionStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BqsConfig {
        &self.config
    }

    /// Decision statistics accumulated since construction (surviving
    /// `finish`, so multi-trace runs aggregate naturally).
    pub fn stats(&self) -> DecisionStats {
        self.stats
    }

    /// Significant points currently held — bounded by 32 (≤8 × 4 quadrants).
    pub fn significant_point_count(&self) -> usize {
        self.state
            .as_ref()
            .map_or(0, SegmentState::significant_point_count)
    }

    /// Points currently held in the exact-scan buffer (0 for the fast
    /// variant).
    pub fn buffered_point_count(&self) -> usize {
        self.buffer.as_ref().map_or(0, Vec::len)
    }

    /// Pushes the next stream point. Emits finalised key points into `out`
    /// and returns the decision trace.
    pub fn push(&mut self, p: TimedPoint, out: &mut dyn Sink) -> StepTrace {
        self.stats.points += 1;

        let Some(state) = self.state.as_mut() else {
            // First point of the stream: opens the first segment and is
            // always part of the output.
            self.emit(p, out);
            self.state = Some(SegmentState::new(p.pos, self.config.rotation));
            self.last = Some(p);
            self.stats.segments = 1;
            self.stats.trivial += 1;
            return StepTrace {
                bounds: None,
                actual: None,
                decided_by: DecisionKind::StreamStart,
                outcome: Outcome::Included,
            };
        };

        let tolerance = self.config.tolerance;
        let origin = state.frame.origin();
        // The point in the segment-local frame, mapped once for the bounds
        // and the insert.
        let local = state.frame.to_local(p.pos);

        // Decision stage.
        let (include, trace) = if state.far_points == 0 {
            // No far structure: any chord through the origin keeps every
            // admitted (near) point within `d` — Theorem 5.1 applied to the
            // whole segment so far.
            self.stats.trivial += 1;
            (
                true,
                StepTrace {
                    bounds: None,
                    actual: None,
                    decided_by: DecisionKind::Trivial,
                    outcome: Outcome::Included,
                },
            )
        } else if !state.frame.is_fixed() {
            // Warm-up: exact deviation over the constant-size warm-up buffer.
            let actual = self
                .config
                .metric
                .max_deviation(&state.warmup, origin, p.pos);
            self.stats.warmup_scans += 1;
            let include = actual <= tolerance;
            (
                include,
                StepTrace {
                    bounds: None,
                    actual: Some(actual),
                    decided_by: DecisionKind::WarmupScan,
                    outcome: if include {
                        Outcome::Included
                    } else {
                        Outcome::SegmentCut
                    },
                },
            )
        } else {
            // The chord's length is the one square root of a steady-state
            // push, shared by every distance in every quadrant.
            let chord = Chord::new(Point2::ORIGIN, local, self.config.metric);
            let bounds = state.aggregated_bounds(&chord, self.config.bounds_mode);
            if bounds.upper <= tolerance {
                self.stats.by_bounds += 1;
                (
                    true,
                    StepTrace {
                        bounds: Some(bounds),
                        actual: None,
                        decided_by: DecisionKind::Bounds,
                        outcome: Outcome::Included,
                    },
                )
            } else if bounds.lower > tolerance {
                self.stats.by_bounds += 1;
                (
                    false,
                    StepTrace {
                        bounds: Some(bounds),
                        actual: None,
                        decided_by: DecisionKind::Bounds,
                        outcome: Outcome::SegmentCut,
                    },
                )
            } else {
                match self.fallback {
                    Fallback::Scan => {
                        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: scan fallback keeps a buffer
                        let buffer = self.buffer.as_ref().expect("scan fallback keeps a buffer");
                        let actual = self.config.metric.max_deviation(buffer, origin, p.pos);
                        self.stats.full_scans += 1;
                        let include = actual <= tolerance;
                        (
                            include,
                            StepTrace {
                                bounds: Some(bounds),
                                actual: Some(actual),
                                decided_by: DecisionKind::FullScan,
                                outcome: if include {
                                    Outcome::Included
                                } else {
                                    Outcome::SegmentCut
                                },
                            },
                        )
                    }
                    Fallback::Cut => {
                        self.stats.aggressive_cuts += 1;
                        (
                            false,
                            StepTrace {
                                bounds: Some(bounds),
                                actual: None,
                                decided_by: DecisionKind::AggressiveCut,
                                outcome: Outcome::SegmentCut,
                            },
                        )
                    }
                }
            }
        };

        if include {
            self.admit(p, local);
        } else {
            self.cut_and_restart(p, out);
        }
        trace
    }

    /// Admits `p` into the current segment; `local` is `p` in the segment's
    /// frame.
    fn admit(&mut self, p: TimedPoint, local: Point2) {
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: segment exists
        let state = self.state.as_mut().expect("segment exists");
        let near = !norm_exceeds(p.pos - state.frame.origin(), self.config.tolerance);
        if !near {
            let warmup_limit = match self.config.rotation {
                RotationMode::Disabled => 0,
                RotationMode::DataCentric { warmup } => warmup,
            };
            state.insert_far(p.pos, local, warmup_limit);
            if let Some(buffer) = self.buffer.as_mut() {
                buffer.push(p.pos);
            }
        }
        self.last = Some(p);
    }

    /// Ends the current segment at the previous point and restarts with `p`
    /// as the first point of the fresh segment.
    fn cut_and_restart(&mut self, p: TimedPoint, out: &mut dyn Sink) {
        let key = self
            .last
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: a cut is only reachable after an admission
            .expect("a cut is only reachable after an admission");
        self.emit(key, out);
        self.stats.segments += 1;
        let state = SegmentState::new(key.pos, self.config.rotation);
        // A fresh frame is unrotated, so this is the plain displacement.
        let local = state.frame.to_local(p.pos);
        self.state = Some(state);
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.clear();
        }
        // The incoming point joins the fresh segment. Its chord is the
        // degenerate-but-valid `key → p`; with no far structure yet the
        // admission is trivially sound.
        self.admit(p, local);
    }

    /// Emits what [`BqsEngine::finish`] would emit right now — the last
    /// point pushed, unless it already went out as a key point — and leaves
    /// the stream open.
    pub fn pending_tail(&self, out: &mut dyn Sink) {
        if let Some(last) = self.last {
            if self.last_emitted != Some(last) {
                out.push(last);
            }
        }
    }

    /// Flushes the final point of the last segment and resets the stream
    /// state (statistics are preserved).
    pub fn finish(&mut self, out: &mut dyn Sink) {
        self.pending_tail(out);
        self.state = None;
        self.last = None;
        self.last_emitted = None;
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.clear();
        }
    }

    fn emit(&mut self, p: TimedPoint, out: &mut dyn Sink) {
        out.push(p);
        self.last_emitted = Some(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundsMode;

    fn engine(tolerance: f64, fallback: Fallback) -> BqsEngine {
        BqsEngine::new(BqsConfig::new(tolerance).unwrap(), fallback)
    }

    fn drive(engine: &mut BqsEngine, pts: &[(f64, f64)]) -> Vec<TimedPoint> {
        let mut out = Vec::new();
        for (i, (x, y)) in pts.iter().enumerate() {
            engine.push(TimedPoint::new(*x, *y, i as f64), &mut out);
        }
        engine.finish(&mut out);
        out
    }

    #[test]
    fn straight_line_compresses_to_two_points() {
        for fallback in [Fallback::Scan, Fallback::Cut] {
            let mut e = engine(5.0, fallback);
            let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 10.0, 0.0)).collect();
            let out = drive(&mut e, &pts);
            assert_eq!(out.len(), 2, "{fallback:?}");
            assert_eq!(out[0].pos, Point2::new(0.0, 0.0));
            assert_eq!(out[1].pos, Point2::new(990.0, 0.0));
        }
    }

    #[test]
    fn stationary_cluster_compresses_to_two_points() {
        for fallback in [Fallback::Scan, Fallback::Cut] {
            let mut e = engine(5.0, fallback);
            // Jitter within 2 m of the start: all near points.
            let pts: Vec<(f64, f64)> = (0..50)
                .map(|i| {
                    let a = i as f64;
                    (2.0 * (a * 0.7).sin(), 2.0 * (a * 1.3).cos())
                })
                .collect();
            let out = drive(&mut e, &pts);
            assert_eq!(out.len(), 2, "{fallback:?}");
        }
    }

    #[test]
    fn sharp_corner_forces_a_cut() {
        for fallback in [Fallback::Scan, Fallback::Cut] {
            let mut e = engine(5.0, fallback);
            let mut pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 20.0, 0.0)).collect();
            pts.extend((1..20).map(|i| (380.0, i as f64 * 20.0)));
            let out = drive(&mut e, &pts);
            assert!(
                out.len() >= 3,
                "{fallback:?}: corner must be kept, got {out:?}"
            );
            // The corner itself must be in the output.
            assert!(
                out.iter()
                    .any(|p| p.pos.distance(Point2::new(380.0, 0.0)) <= 5.0),
                "{fallback:?}: corner missing from {out:?}"
            );
        }
    }

    #[test]
    fn single_point_stream() {
        let mut e = engine(5.0, Fallback::Scan);
        let out = drive(&mut e, &[(3.0, 4.0)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn two_point_stream() {
        let mut e = engine(5.0, Fallback::Cut);
        let out = drive(&mut e, &[(0.0, 0.0), (100.0, 100.0)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let mut e = engine(5.0, Fallback::Scan);
        let mut out = Vec::new();
        e.finish(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_points_are_absorbed() {
        let mut e = engine(5.0, Fallback::Cut);
        let pts = vec![(1.0, 1.0); 20];
        let out = drive(&mut e, &pts);
        assert_eq!(out.len(), 2); // first and (identical) last
    }

    #[test]
    fn fast_variant_never_scans_and_keeps_no_buffer() {
        let mut e = engine(3.0, Fallback::Cut);
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let a = i as f64 * 0.1;
                (a.cos() * 300.0, a.sin() * 300.0)
            })
            .collect();
        let _ = drive(&mut e, &pts);
        let stats = e.stats();
        assert_eq!(stats.full_scans, 0);
        assert_eq!(e.buffered_point_count(), 0);
    }

    #[test]
    fn significant_point_budget_respected() {
        let mut e = engine(2.0, Fallback::Cut);
        let mut out = Vec::new();
        for i in 0..2000 {
            let a = i as f64 * 0.05;
            let p = TimedPoint::new(a.cos() * (100.0 + a), a.sin() * (100.0 + a), i as f64);
            e.push(p, &mut out);
            assert!(e.significant_point_count() <= 32);
        }
    }

    #[test]
    fn buffered_variant_counts_scans() {
        let mut e = engine(2.0, Fallback::Scan);
        let pts: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let a = i as f64 * 0.15;
                (i as f64 * 5.0, (a.sin()) * 6.0)
            })
            .collect();
        let _ = drive(&mut e, &pts);
        let stats = e.stats();
        assert!(stats.points == 300);
        assert!(stats.segments >= 2);
        // A wavy line at a tight tolerance needs at least some exact scans.
        assert!(stats.full_scans + stats.by_bounds + stats.trivial + stats.warmup_scans > 0);
    }

    #[test]
    fn output_is_subsequence_anchored_at_ends() {
        for fallback in [Fallback::Scan, Fallback::Cut] {
            let mut e = engine(4.0, fallback);
            let pts: Vec<(f64, f64)> = (0..200)
                .map(|i| {
                    let a = i as f64;
                    (a * 7.0, (a * 0.3).sin() * 30.0)
                })
                .collect();
            let out = drive(&mut e, &pts);
            assert_eq!(out.first().unwrap().t, 0.0);
            assert_eq!(out.last().unwrap().t, 199.0);
            // Strictly increasing timestamps (a subsequence).
            for w in out.windows(2) {
                assert!(w[0].t < w[1].t);
            }
        }
    }

    #[test]
    fn paper_exact_mode_runs() {
        let config = BqsConfig::new(5.0)
            .unwrap()
            .with_bounds_mode(BoundsMode::PaperExact);
        let mut e = BqsEngine::new(config, Fallback::Scan);
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 10.0, ((i as f64) * 0.5).sin() * 8.0))
            .collect();
        let out = drive(&mut e, &pts);
        assert!(out.len() >= 2);
    }

    #[test]
    fn pending_tail_is_what_finishing_a_clone_would_emit() {
        for fallback in [Fallback::Scan, Fallback::Cut] {
            let mut e = engine(4.0, fallback);
            let mut out = Vec::new();
            let mut tail = Vec::new();
            e.pending_tail(&mut tail);
            assert!(tail.is_empty(), "nothing pushed, nothing pending");
            for i in 0..300 {
                let a = i as f64;
                // Wavy enough to cut often, so both tail states occur: last
                // point still pending, and (right after the first push) last
                // point already emitted.
                let p = TimedPoint::new(a * 7.0, (a * 0.3).sin() * 30.0, a);
                e.push(p, &mut out);
                let (mut tail, mut finished) = (Vec::new(), Vec::new());
                e.pending_tail(&mut tail);
                e.clone().finish(&mut finished);
                assert_eq!(tail, finished, "{fallback:?} after point {i}");
                assert_eq!(tail.is_empty(), i == 0);
            }
        }
    }

    #[test]
    fn finish_resets_for_reuse() {
        let mut e = engine(5.0, Fallback::Scan);
        let out1 = drive(&mut e, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let out2 = drive(&mut e, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        assert_eq!(out1.len(), out2.len());
        // Stats accumulate across streams.
        assert_eq!(e.stats().points, 6);
    }
}
