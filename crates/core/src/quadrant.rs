//! The per-quadrant bounding structure (paper §V-B).
//!
//! Each quadrant of the segment-local frame carries a minimum bounding
//! rectangle of the points that fell into it plus the two angular bounding
//! lines — the rays from the origin through the inserted points of smallest
//! and greatest polar angle. The (at most 8) *significant points* are the
//! box corners and the intersections of the bounding rays with the box;
//! Theorems 5.3–5.5 derive deviation bounds from their distances to the
//! current path line.
//!
//! Everything here operates in the **segment-local frame**: the origin is
//! the segment start point and, when data-centric rotation is active, the
//! x axis points at the centroid of the warm-up points.
//!
//! No angle is ever computed. A quadrant spans at most π/2, so the sign of
//! a cross product orders two of its directions exactly as their polar
//! angles would; a bounding ray is kept as the inserted point that defines
//! it and intersected with the box from that direction vector; and "is the
//! path line in this quadrant" is a question about the signs of the chord
//! end's coordinates. `docs/architecture.md` §Decision kernel prices a
//! decision and an insert in roots, divisions and trigonometric calls.

use crate::bounds::{third_largest, DeviationBounds};
use crate::config::BoundsMode;
use crate::metrics::{Chord, DeviationMetric};
use bqs_geo::rect::RayHits;
use bqs_geo::{Point2, Quadrant, Rect, Vec2};

/// Squared angular slack (radians²) of the corner-in-wedge test: a corner
/// up to 1e-12 rad outside a bounding ray still counts as inside, which
/// absorbs corner/axis round-off. Compared against `sin²` of the angle,
/// `cross² / (|a|²·|b|²)`, so no root is needed.
const WEDGE_SLACK_SQ: f64 = 1e-24;

/// Bounding state for one quadrant of the current trajectory segment.
///
/// Plain data (`Copy`): a fleet holds thousands of these and moves them by
/// `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrantBounds {
    quadrant: Quadrant,
    bbox: Rect,
    /// The inserted point of smallest polar angle; the lower bounding ray
    /// runs from the origin through it.
    lower_ray: Point2,
    /// The inserted point of greatest polar angle (upper bounding ray).
    upper_ray: Point2,
    count: usize,
    /// Cached significant points. They depend only on the box and the two
    /// bounding rays, which change only on (some) insertions — while every
    /// incoming stream point triggers a bounds evaluation. The cache, the
    /// in-wedge flags and the near/far indices below are rebuilt together,
    /// by an insertion that grew the box or moved a ray and by nothing
    /// else, so a bounds evaluation only measures distances.
    cache: SignificantPoints,
    /// Per box corner (`c1..c4`): angularly inside the wedge between the
    /// bounding rays, i.e. a vertex of the convex region `bbox ∩ wedge`.
    in_wedge: [bool; 4],
    /// Indices into `cache.corners` of the corners nearest to / farthest
    /// from the origin.
    near: u8,
    far: u8,
}

/// The significant points of one quadrant: box corners plus the bounding
/// rays' entry/exit intersections with the box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificantPoints {
    /// The four bounding-box corners (`c1..c4`, counter-clockwise from the
    /// min corner).
    pub corners: [Point2; 4],
    /// Intersections `l1, l2` of the lower bounding ray with the box.
    pub lower: RayHits,
    /// Intersections `u1, u2` of the upper bounding ray with the box.
    pub upper: RayHits,
}

/// Whether direction `b` is at or counter-clockwise of direction `a`, up to
/// the wedge slack. Both lie in one closed quadrant, so the cross product's
/// sign is the angular order.
#[inline]
fn ccw_within_slack(a: Vec2, b: Vec2) -> bool {
    let c = a.cross(b);
    c >= 0.0 || c * c <= WEDGE_SLACK_SQ * a.norm_sq() * b.norm_sq()
}

impl QuadrantBounds {
    /// Creates the structure from the first point inserted into `quadrant`.
    ///
    /// The point must actually lie in the quadrant (callers classify with
    /// [`Quadrant::of`] on the local coordinates).
    pub fn new(quadrant: Quadrant, p: Point2) -> QuadrantBounds {
        let mut q = QuadrantBounds {
            quadrant,
            bbox: Rect::from_point(p),
            lower_ray: p,
            upper_ray: p,
            count: 1,
            cache: SignificantPoints {
                corners: [p; 4],
                lower: RayHits::default(),
                upper: RayHits::default(),
            },
            in_wedge: [true; 4],
            near: 0,
            far: 0,
        };
        q.refresh_cache();
        q
    }

    /// Recomputes everything derived from the box and the bounding rays:
    /// eight divisions (two slab intersections), no root, no trigonometry.
    fn refresh_cache(&mut self) {
        let corners = self.bbox.corners();
        let (lower, upper) = (self.lower_ray.to_vec(), self.upper_ray.to_vec());
        self.cache = SignificantPoints {
            corners,
            lower: self.bbox.ray_intersections(Point2::ORIGIN, lower),
            upper: self.bbox.ray_intersections(Point2::ORIGIN, upper),
        };
        self.in_wedge = corners.map(|c| {
            let c = c.to_vec();
            ccw_within_slack(lower, c) && ccw_within_slack(c, upper)
        });
        let (near, far) = self.bbox.extreme_corner_indices_to(Point2::ORIGIN);
        (self.near, self.far) = (near as u8, far as u8);
    }

    /// Which quadrant this structure bounds.
    #[inline]
    pub fn quadrant(&self) -> Quadrant {
        self.quadrant
    }

    /// Number of points inserted.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no point has been inserted (never the case for a
    /// constructed value, but part of the collection-like API).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The minimum bounding rectangle.
    #[inline]
    pub fn bbox(&self) -> &Rect {
        &self.bbox
    }

    /// The angular range `[theta_min, theta_max]` of inserted points, in
    /// `atan2` radians. Computed on demand for reports and tests — the
    /// structure itself never takes an angle.
    pub fn angle_range(&self) -> (f64, f64) {
        // `+ 0.0` clears a negative zero `y`, whose `atan2` would jump the
        // −x axis from π to −π.
        // bqs-analyze: allow(trig-in-kernel) — on-demand accessor for reports/tests; nothing on the push path calls it
        let angle = |p: Point2| (p.y + 0.0).atan2(p.x);
        (angle(self.lower_ray), angle(self.upper_ray))
    }

    /// Inserts a point, growing the box and widening the angular range.
    ///
    /// The local origin lies in every wedge, so it never moves a bounding
    /// ray (and yields a ray to the first real direction if it came first).
    pub fn insert(&mut self, p: Point2) {
        debug_assert_eq!(
            Quadrant::of(p.x, p.y),
            self.quadrant,
            "point {p:?} inserted into wrong quadrant"
        );
        self.count += 1;
        let mut changed = !self.bbox.contains(p);
        self.bbox.expand(p);
        let v = p.to_vec();
        if self.lower_ray.to_vec().cross(v) < 0.0 || self.lower_ray == Point2::ORIGIN {
            changed |= self.lower_ray != p;
            self.lower_ray = p;
        }
        if self.upper_ray.to_vec().cross(v) > 0.0 || self.upper_ray == Point2::ORIGIN {
            changed |= self.upper_ray != p;
            self.upper_ray = p;
        }
        if changed {
            self.refresh_cache();
        }
    }

    /// The significant points: the box corners and the bounding rays'
    /// intersections with the box.
    ///
    /// The rays emanate from the origin and each passes through at least one
    /// inserted point inside the box, so each has at least one intersection.
    pub fn significant_points(&self) -> SignificantPoints {
        self.cache
    }

    /// Lower/upper bounds on the maximum deviation of the points bounded by
    /// this quadrant system from the chord `origin → end` (Theorems
    /// 5.3–5.5; `end` in segment-local coordinates).
    pub fn deviation_bounds(
        &self,
        end: Point2,
        metric: DeviationMetric,
        mode: BoundsMode,
    ) -> DeviationBounds {
        self.bounds_against(&Chord::new(Point2::ORIGIN, end, metric), mode)
    }

    /// [`QuadrantBounds::deviation_bounds`] against a prepared chord from
    /// the local origin, so the engine takes the chord's length once for
    /// all four quadrants. Every significant point is measured exactly
    /// once: the near/far corners are corners, and each ray hit feeds both
    /// its ray's minimum and maximum.
    pub(crate) fn bounds_against(&self, chord: &Chord, mode: BoundsMode) -> DeviationBounds {
        let dist = |p: Point2| chord.distance(p);
        let corner_d = self.cache.corners.map(dist);
        if mode == BoundsMode::CoarseCorners {
            return coarse(corner_d);
        }

        // Ray lower bounds: each bounding ray carries at least one real
        // point between its box entry and exit, whose deviation is at least
        // the smaller of the two intersection distances (for non-crossing
        // chords; docs/architecture.md §Decision kernel has the crossing
        // caveat — a too-high lower bound can only cause an early cut,
        // never an error-bound breach).
        let (lb_lower_ray, ub_lower_ray) = hit_extremes(&self.cache.lower, dist);
        let (lb_upper_ray, ub_upper_ray) = hit_extremes(&self.cache.upper, dist);
        let lb_rays = lb_lower_ray.max(lb_upper_ray);
        let ub_rays = ub_lower_ray.max(ub_upper_ray);

        let near = corner_d[self.near as usize];
        let far = corner_d[self.far as usize];
        let end = chord.end();
        let line_in_quadrant = self.quadrant.contains_line_direction(end.x, end.y);

        let lower = if line_in_quadrant {
            // Theorems 5.3/5.4 share the lower bound: ray minima plus the
            // larger of the near/far corner distances.
            lb_rays.max(near.max(far))
        } else {
            // Theorem 5.5: ray minima plus the third-largest corner distance.
            lb_rays.max(third_largest(corner_d))
        };

        let upper = match mode {
            // Provably sound: every inserted point lies in the convex
            // region `bbox ∩ wedge`, whose extreme points are the ray/box
            // intersections plus the box corners angularly inside the
            // wedge. Distance to a line (or segment) is convex, so its
            // maximum over the region is attained at one of those ≤ 8
            // vertices.
            BoundsMode::Sound | BoundsMode::CoarseCorners => {
                let mut ub = ub_rays;
                for (d, inside) in corner_d.iter().zip(self.in_wedge) {
                    if inside {
                        ub = ub.max(*d);
                    }
                }
                ub
            }
            BoundsMode::PaperExact => {
                if line_in_quadrant {
                    // Theorem 5.3/5.4: max over intersection distances; the
                    // Eq. 11 segment-metric variant adds the near/far corners.
                    if chord.metric() == DeviationMetric::PointToSegment {
                        ub_rays.max(near).max(far)
                    } else {
                        ub_rays
                    }
                } else {
                    // Theorem 5.5: max over corner distances.
                    corner_d.iter().fold(0.0f64, |a, b| a.max(*b))
                }
            }
        };

        DeviationBounds::new(lower, upper)
    }

    /// The tight vertex set of the convex region guaranteed to contain all
    /// inserted points (`bbox ∩ wedge`): the bounding rays' box
    /// intersections plus the box corners angularly inside the wedge, and
    /// the origin when the box reaches it. At most 9 points; their convex
    /// hull contains every inserted point, which is what makes the
    /// re-rotation rebuild in the engine sound.
    pub fn hull_vertices(&self) -> Vec<Point2> {
        let sp = &self.cache;
        let mut out: Vec<Point2> = Vec::with_capacity(9);
        out.extend(sp.lower.iter());
        out.extend(sp.upper.iter());
        for (c, inside) in sp.corners.iter().zip(self.in_wedge) {
            if inside {
                out.push(*c);
            }
        }
        if self.bbox.contains(Point2::ORIGIN) {
            out.push(Point2::ORIGIN);
        }
        out
    }

    /// Coarse Theorem 5.2 bounds (corner distances only), kept for the
    /// ablation comparing bound tiers.
    pub fn coarse_bounds(&self, end: Point2, metric: DeviationMetric) -> DeviationBounds {
        let chord = Chord::new(Point2::ORIGIN, end, metric);
        coarse(self.cache.corners.map(|c| chord.distance(c)))
    }
}

/// Theorem 5.2 from the four corner distances.
fn coarse(corner_d: [f64; 4]) -> DeviationBounds {
    let lower = corner_d.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    let upper = corner_d.iter().fold(0.0f64, |a, b| a.max(*b));
    DeviationBounds::new(lower, upper)
}

/// Smallest and largest chord distance over one ray's box intersections.
#[inline]
fn hit_extremes(hits: &RayHits, dist: impl Fn(Point2) -> f64) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for p in hits.iter() {
        let d = dist(p);
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo, hi)
}

/// The radians kernel this module replaced, kept verbatim as the oracle of
/// the differential test below: `atan2` per insert, bounding rays rebuilt
/// from `cos`/`sin`, an `atan2` interval test per box corner and per chord,
/// every distance through [`DeviationMetric::distance`].
#[cfg(test)]
mod radians_reference {
    use super::*;
    use bqs_geo::normalize_angle;
    use std::f64::consts::PI;

    #[derive(Debug, Clone)]
    pub struct RadiansBounds {
        quadrant: Quadrant,
        bbox: Rect,
        theta_min: f64,
        theta_max: f64,
    }

    impl RadiansBounds {
        pub fn new(quadrant: Quadrant, p: Point2) -> RadiansBounds {
            let theta = p.to_vec().angle();
            RadiansBounds {
                quadrant,
                bbox: Rect::from_point(p),
                theta_min: theta,
                theta_max: theta,
            }
        }

        pub fn insert(&mut self, p: Point2) {
            self.bbox.expand(p);
            let theta = p.to_vec().angle();
            self.theta_min = self.theta_min.min(theta);
            self.theta_max = self.theta_max.max(theta);
        }

        pub fn angle_range(&self) -> (f64, f64) {
            (self.theta_min, self.theta_max)
        }

        pub fn ray_hits(&self) -> (Vec<Point2>, Vec<Point2>) {
            (
                ray_intersections(&self.bbox, self.theta_min),
                ray_intersections(&self.bbox, self.theta_max),
            )
        }

        pub fn in_wedge(&self) -> [bool; 4] {
            self.bbox.corners().map(|c| {
                let theta = c.to_vec().angle();
                theta >= self.theta_min - 1e-12 && theta <= self.theta_max + 1e-12
            })
        }

        /// `(near, far)` corner indices: first strict winner in `c1..c4`.
        pub fn near_far(&self) -> (usize, usize) {
            let d = self.bbox.corners().map(|c| Point2::ORIGIN.distance_sq(c));
            let (mut near, mut far) = (0, 0);
            for i in 1..4 {
                if d[i] < d[near] {
                    near = i;
                }
                if d[i] > d[far] {
                    far = i;
                }
            }
            (near, far)
        }

        pub fn deviation_bounds(
            &self,
            end: Point2,
            metric: DeviationMetric,
            mode: BoundsMode,
        ) -> DeviationBounds {
            let dist = |p: Point2| metric.distance(p, Point2::ORIGIN, end);
            let corners = self.bbox.corners();
            let corner_d = corners.map(dist);
            if mode == BoundsMode::CoarseCorners {
                let lower = corner_d.iter().fold(f64::INFINITY, |a, b| a.min(*b));
                let upper = corner_d.iter().fold(0.0f64, |a, b| a.max(*b));
                return DeviationBounds::new(lower, upper);
            }
            let (lower_hits, upper_hits) = self.ray_hits();
            let min_over =
                |hits: &[Point2]| hits.iter().map(|p| dist(*p)).fold(f64::INFINITY, f64::min);
            let max_over = |hits: &[Point2]| hits.iter().map(|p| dist(*p)).fold(0.0, f64::max);
            let lb_rays = min_over(&lower_hits).max(min_over(&upper_hits));
            let ub_rays = max_over(&lower_hits).max(max_over(&upper_hits));

            let (near, far) = self.near_far();
            let (near, far) = (dist(corners[near]), dist(corners[far]));
            let line_in_quadrant = contains_line_angle(self.quadrant, end.to_vec().angle());
            let lower = if line_in_quadrant {
                lb_rays.max(near.max(far))
            } else {
                let mut sorted = corner_d;
                sorted.sort_by(|a, b| b.total_cmp(a));
                lb_rays.max(sorted[2])
            };
            let upper = match mode {
                BoundsMode::Sound | BoundsMode::CoarseCorners => {
                    let mut ub = ub_rays;
                    for (d, inside) in corner_d.iter().zip(self.in_wedge()) {
                        if inside {
                            ub = ub.max(*d);
                        }
                    }
                    ub
                }
                BoundsMode::PaperExact => {
                    if !line_in_quadrant {
                        corner_d.iter().fold(0.0f64, |a, b| a.max(*b))
                    } else if metric == DeviationMetric::PointToSegment {
                        ub_rays.max(near).max(far)
                    } else {
                        ub_rays
                    }
                }
            };
            DeviationBounds::new(lower, upper)
        }
    }

    /// The paper's "line in quadrant" over half-open `atan2` ranges, with
    /// the `+π` seam folded onto `−π`.
    fn contains_line_angle(quadrant: Quadrant, theta: f64) -> bool {
        let (lo, hi) = quadrant.angle_range();
        let fold = |a: f64| if a >= PI { a - 2.0 * PI } else { a };
        let t = fold(normalize_angle(theta));
        let in_range = |a: f64| a >= lo && a < hi;
        in_range(t) || in_range(fold(normalize_angle(t + PI)))
    }

    /// Slab intersection of the ray from the origin at angle `theta`.
    fn ray_intersections(rect: &Rect, theta: f64) -> Vec<Point2> {
        let (dir_x, dir_y) = (theta.cos(), theta.sin());
        let mut t_min = 0.0f64;
        let mut t_max = f64::INFINITY;
        for (d, lo, hi) in [
            (dir_x, rect.min.x, rect.max.x),
            (dir_y, rect.min.y, rect.max.y),
        ] {
            if d.abs() < 1e-15 {
                if 0.0 < lo || 0.0 > hi {
                    return Vec::new();
                }
            } else {
                let inv = 1.0 / d;
                let (a, b) = (lo * inv, hi * inv);
                t_min = t_min.max(a.min(b));
                t_max = t_max.min(a.max(b));
                if t_min > t_max + 1e-12 * t_min.abs().max(1.0) {
                    return Vec::new();
                }
            }
        }
        let t_max = t_max.max(t_min);
        let at = |t: f64| Point2::new(t * dir_x, t * dir_y);
        let mut hits = vec![at(t_min)];
        if (t_max - t_min) > 1e-12 * t_min.abs().max(1.0) && t_max.is_finite() {
            hits.push(at(t_max));
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_geo::point_to_line_distance;

    fn metric() -> DeviationMetric {
        DeviationMetric::PointToLine
    }

    /// Brute-force maximum deviation for cross-checking bounds.
    fn brute_max(points: &[Point2], end: Point2) -> f64 {
        points
            .iter()
            .map(|p| point_to_line_distance(*p, Point2::ORIGIN, end))
            .fold(0.0, f64::max)
    }

    fn build(quadrant: Quadrant, points: &[Point2]) -> QuadrantBounds {
        let mut q = QuadrantBounds::new(quadrant, points[0]);
        for p in &points[1..] {
            q.insert(*p);
        }
        q
    }

    fn build_q1(points: &[Point2]) -> QuadrantBounds {
        build(Quadrant::Q1, points)
    }

    #[test]
    fn insert_tracks_box_and_angles() {
        let pts = [
            Point2::new(10.0, 2.0),
            Point2::new(4.0, 8.0),
            Point2::new(7.0, 5.0),
        ];
        let q = build_q1(&pts);
        assert_eq!(q.len(), 3);
        assert_eq!(q.bbox().min, Point2::new(4.0, 2.0));
        assert_eq!(q.bbox().max, Point2::new(10.0, 8.0));
        let (lo, hi) = q.angle_range();
        assert!((lo - (2.0f64 / 10.0).atan()).abs() < 1e-12);
        assert!((hi - (8.0f64 / 4.0).atan()).abs() < 1e-12);
    }

    #[test]
    fn significant_points_on_box_boundary() {
        let pts = [
            Point2::new(10.0, 2.0),
            Point2::new(4.0, 8.0),
            Point2::new(7.0, 5.0),
        ];
        let q = build_q1(&pts);
        let sp = q.significant_points();
        assert!(!sp.lower.is_empty());
        assert!(!sp.upper.is_empty());
        for p in sp.lower.iter().chain(sp.upper.iter()) {
            let r = q.bbox();
            let on_x = (p.x - r.min.x).abs() < 1e-9 || (p.x - r.max.x).abs() < 1e-9;
            let on_y = (p.y - r.min.y).abs() < 1e-9 || (p.y - r.max.y).abs() < 1e-9;
            assert!(on_x || on_y);
        }
    }

    #[test]
    fn sound_upper_dominates_brute_force_line_in_quadrant() {
        let pts = [
            Point2::new(10.0, 2.0),
            Point2::new(4.0, 8.0),
            Point2::new(7.0, 5.0),
            Point2::new(9.0, 9.0),
        ];
        let q = build_q1(&pts);
        for end in [
            Point2::new(20.0, 6.0),   // in quadrant, between bounding lines
            Point2::new(20.0, 0.5),   // in quadrant, below lower bounding line
            Point2::new(1.0, 20.0),   // in quadrant, above upper bounding line
            Point2::new(-20.0, 6.0),  // not in quadrant (Q2 direction)
            Point2::new(-5.0, -20.0), // not in quadrant (Q3 direction)
        ] {
            let b = q.deviation_bounds(end, metric(), BoundsMode::Sound);
            let actual = brute_max(&pts, end);
            assert!(
                b.upper >= actual - 1e-9,
                "upper {} < actual {} for end {:?}",
                b.upper,
                actual,
                end
            );
            assert!(b.lower <= b.upper);
        }
    }

    #[test]
    fn bounds_tight_for_single_point() {
        let p = Point2::new(5.0, 3.0);
        let q = build_q1(&[p]);
        let end = Point2::new(10.0, 0.0);
        let b = q.deviation_bounds(end, metric(), BoundsMode::Sound);
        let actual = point_to_line_distance(p, Point2::ORIGIN, end);
        // Degenerate box = the point itself: bounds collapse onto the truth.
        assert!((b.upper - actual).abs() < 1e-9);
        assert!(b.lower <= actual + 1e-9);
    }

    #[test]
    fn coarse_bounds_contain_sound_bounds() {
        let pts = [
            Point2::new(10.0, 2.0),
            Point2::new(4.0, 8.0),
            Point2::new(9.0, 9.0),
        ];
        let q = build_q1(&pts);
        let end = Point2::new(20.0, 6.0);
        let sound = q.deviation_bounds(end, metric(), BoundsMode::Sound);
        let coarse = q.coarse_bounds(end, metric());
        let actual = brute_max(&pts, end);
        assert!(coarse.upper >= actual - 1e-9);
        // The wedge-clipped upper bound is never looser than the full box.
        assert!(sound.upper <= coarse.upper + 1e-9);
    }

    #[test]
    fn segment_metric_bounds_dominate() {
        let pts = [Point2::new(10.0, 2.0), Point2::new(4.0, 8.0)];
        let q = build_q1(&pts);
        // A short chord: the segment metric punishes points beyond its end.
        let end = Point2::new(1.0, 1.0);
        let b = q.deviation_bounds(end, DeviationMetric::PointToSegment, BoundsMode::Sound);
        let actual = pts
            .iter()
            .map(|p| DeviationMetric::PointToSegment.distance(*p, Point2::ORIGIN, end))
            .fold(0.0, f64::max);
        assert!(b.upper >= actual - 1e-9);
    }

    #[test]
    fn works_in_all_quadrants() {
        for quadrant in Quadrant::ALL {
            let (sx, sy) = quadrant.signs();
            let pts = [
                Point2::new(sx * 10.0, sy * 2.0),
                Point2::new(sx * 4.0, sy * 8.0),
                Point2::new(sx * 7.0, sy * 5.0),
            ];
            let q = build(quadrant, &pts);
            for end in [
                Point2::new(sx * 20.0, sy * 6.0),
                Point2::new(-sx * 20.0, sy * 6.0),
                Point2::new(sx * 3.0, -sy * 15.0),
            ] {
                let b = q.deviation_bounds(end, metric(), BoundsMode::Sound);
                let actual = brute_max(&pts, end);
                assert!(
                    b.upper >= actual - 1e-9,
                    "quadrant {quadrant:?} end {end:?}: upper {} < actual {}",
                    b.upper,
                    actual
                );
            }
        }
    }

    #[test]
    fn paper_exact_mode_produces_bounds() {
        let pts = [
            Point2::new(10.0, 2.0),
            Point2::new(4.0, 8.0),
            Point2::new(9.0, 9.0),
        ];
        let q = build_q1(&pts);
        for end in [Point2::new(20.0, 6.0), Point2::new(-20.0, 6.0)] {
            let b = q.deviation_bounds(end, metric(), BoundsMode::PaperExact);
            assert!(b.lower <= b.upper);
            assert!(b.upper.is_finite());
        }
    }

    /// Regression for the negative-zero seam. `Quadrant::of(-50.0, -0.0)`
    /// is Q2 (`-0.0 >= 0.0`) but `atan2(-0.0, -50.0)` is −π, so the radians
    /// kernel reported the range `(-π, 3.1249…)`: rays swapped, every corner
    /// "inside the wedge", the Sound bound silently the full-box one.
    #[test]
    fn negative_zero_seam_keeps_the_wedge_narrow() {
        let on_axis = Point2::new(-50.0, -0.0);
        let off_axis = Point2::new(-60.0, 1.0);
        assert_eq!(Quadrant::of(on_axis.x, on_axis.y), Quadrant::Q2);
        for pts in [[on_axis, off_axis], [off_axis, on_axis]] {
            let q = build(Quadrant::Q2, &pts);
            let (lo, hi) = q.angle_range();
            assert!((lo - (1.0f64).atan2(-60.0)).abs() < 1e-15, "lower ray {lo}");
            assert_eq!(hi, std::f64::consts::PI, "upper ray is the −x axis");
            // c4 = (-60, 1) is the off-axis point itself, c1/c2 lie on the
            // axis ray; (-50, 1) sticks out above the lower ray.
            let c3 = Point2::new(-50.0, 1.0);
            assert_eq!(q.significant_points().corners[2], c3);
            assert_eq!(q.in_wedge, [true, true, false, true]);
            assert!(!q.hull_vertices().contains(&c3));
            // A chord the protruding corner dominates (0.58 against 0.50 for
            // every hull vertex): the bound is the wedge's, not the box's.
            let end = Point2::new(-120.0, 1.0);
            let sound = q.deviation_bounds(end, metric(), BoundsMode::Sound);
            let actual = brute_max(&pts, end);
            let coarse = q.coarse_bounds(end, metric());
            assert!(sound.upper >= actual - 1e-12);
            assert!(sound.upper < coarse.upper - 0.05, "{sound:?} vs {coarse:?}");
        }
    }

    /// The same construction mirrored onto the other three axis seams: a
    /// point on the axis with a negative-zero coordinate, one off it.
    #[test]
    fn negative_zero_on_the_other_seams() {
        for (quadrant, on_axis, off_axis, sticking_out) in [
            // +x axis from Q1 (`-0.0 >= 0.0` keeps it in Q1).
            (
                Quadrant::Q1,
                Point2::new(50.0, -0.0),
                Point2::new(60.0, 1.0),
                Point2::new(50.0, 1.0),
            ),
            // +y axis from Q1.
            (
                Quadrant::Q1,
                Point2::new(-0.0, 50.0),
                Point2::new(1.0, 60.0),
                Point2::new(1.0, 50.0),
            ),
            // −y axis from Q4.
            (
                Quadrant::Q4,
                Point2::new(-0.0, -50.0),
                Point2::new(1.0, -60.0),
                Point2::new(1.0, -50.0),
            ),
        ] {
            assert_eq!(Quadrant::of(on_axis.x, on_axis.y), quadrant);
            for pts in [[on_axis, off_axis], [off_axis, on_axis]] {
                let q = build(quadrant, &pts);
                let (lo, hi) = q.angle_range();
                assert!(
                    hi - lo < 0.02,
                    "{quadrant:?}: wedge ({lo}, {hi}) is not narrow"
                );
                let hull = q.hull_vertices();
                assert!(!hull.contains(&sticking_out), "{quadrant:?}: {hull:?}");
                assert_eq!(q.in_wedge.iter().filter(|w| **w).count(), 3);
            }
        }
    }

    #[test]
    fn the_origin_never_moves_a_ray() {
        let (a, b) = (Point2::new(10.0, 2.0), Point2::new(4.0, 8.0));
        let plain = build(Quadrant::Q1, &[a, b]);
        for pts in [
            [Point2::ORIGIN, a, b],
            [a, Point2::ORIGIN, b],
            [a, b, Point2::ORIGIN],
        ] {
            let q = build(Quadrant::Q1, &pts);
            assert_eq!((q.lower_ray, q.upper_ray), (a, b));
            assert_eq!(q.angle_range(), plain.angle_range());
            assert!(q.bbox().contains(Point2::ORIGIN));
            assert!(q.hull_vertices().contains(&Point2::ORIGIN));
        }
        // Alone, it is a one-point structure with exact zero bounds.
        let q = build(Quadrant::Q1, &[Point2::ORIGIN]);
        let b = q.deviation_bounds(Point2::new(3.0, 4.0), metric(), BoundsMode::Sound);
        assert_eq!((b.lower, b.upper), (0.0, 0.0));
    }

    /// SplitMix64: the differential test's seeded source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// A point of `quadrant`: generic, on one of its closed axes, a repeat
    /// of an earlier point, or pinned to an earlier point's row/column
    /// (zero-area boxes).
    fn arbitrary_point(rng: &mut Rng, quadrant: Quadrant, earlier: &[Point2]) -> Point2 {
        let (sx, sy) = quadrant.signs();
        loop {
            let generic = Point2::new(sx * rng.range(0.5, 2_000.0), sy * rng.range(0.5, 2_000.0));
            let p = match (rng.below(8), earlier.first()) {
                (0, _) => Point2::new(generic.x, 0.0),
                (1, _) => Point2::new(0.0, generic.y),
                (2, Some(_)) => earlier[rng.below(earlier.len() as u64) as usize],
                (3, Some(first)) => Point2::new(first.x, generic.y),
                (4, Some(first)) => Point2::new(generic.x, first.y),
                _ => generic,
            };
            // Axis points belong to one neighbour only; the local origin
            // has its own test (the radians kernel read it as angle 0).
            if Quadrant::of(p.x, p.y) == quadrant && p != Point2::ORIGIN {
                return p;
            }
        }
    }

    fn arbitrary_chord(rng: &mut Rng, q: &QuadrantBounds) -> Point2 {
        let r = rng.range(0.5, 3_000.0);
        match rng.below(10) {
            0 => Point2::ORIGIN, // zero length
            1 => Point2::new(r, 0.0),
            2 => Point2::new(-r, 0.0),
            3 => Point2::new(0.0, r),
            4 => Point2::new(0.0, -r),
            // Through the box, so the chord crosses the structure.
            5 => q.bbox().center(),
            _ => Point2::new(rng.range(-3_000.0, 3_000.0), rng.range(-3_000.0, 3_000.0)),
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// The trig-free kernel against the radians kernel it replaced, on
    /// seeded random structures in all four quadrants — axis points,
    /// duplicates, zero-area boxes; chords through every quadrant, along
    /// every axis and of zero length; both metrics, all three modes.
    #[test]
    fn agrees_with_the_radians_kernel() {
        use radians_reference::RadiansBounds;
        let mut rng = Rng(0x1ce_2015);
        let (mut lost_hits, mut slack_corners) = (0, 0);
        for case in 0..4_000 {
            let quadrant = Quadrant::from_index(case % 4);
            let mut pts: Vec<Point2> = Vec::new();
            for _ in 0..1 + rng.below(12) {
                let p = arbitrary_point(&mut rng, quadrant, &pts);
                pts.push(p);
            }
            let q = build(quadrant, &pts);
            let mut reference = RadiansBounds::new(quadrant, pts[0]);
            for p in &pts[1..] {
                reference.insert(*p);
            }
            let context = format!("case {case}: {quadrant:?} {pts:?}");

            // The incremental cache equals a from-scratch rebuild.
            let mut rebuilt = q;
            rebuilt.refresh_cache();
            assert_eq!(q, rebuilt, "{context}");

            // Near/far corners: exactly, same tie-break.
            assert_eq!(
                (q.near as usize, q.far as usize),
                reference.near_far(),
                "{context}"
            );

            // In-wedge corner sets: equal, except for a corner whose angle
            // outside the wedge is the slack itself (1e-12 rad) to within
            // rounding, which either kernel may call.
            let (theta_min, theta_max) = reference.angle_range();
            for (i, c) in q.cache.corners.iter().enumerate() {
                let theta = c.to_vec().angle();
                let outside = (theta_min - theta).max(theta - theta_max);
                if (0.5e-12..2e-12).contains(&outside) {
                    slack_corners += 1;
                } else {
                    assert_eq!(
                        q.in_wedge[i],
                        reference.in_wedge()[i],
                        "corner {i}, {context}"
                    );
                }
            }

            // Ray hits: the same points to 1e-9 of the structure's extent.
            // The radians kernel can lose a ray that only grazes the corner
            // which defines it (its cos/sin direction misses by an ulp);
            // this kernel cannot — the defining point is at t = 1 exactly.
            let extent = q.bbox.max.to_vec().norm().max(q.bbox.min.to_vec().norm());
            let (ref_lower, ref_upper) = reference.ray_hits();
            let mut reference_lost_a_hit = false;
            for (ours, theirs) in [(&q.cache.lower, &ref_lower), (&q.cache.upper, &ref_upper)] {
                assert!(!ours.is_empty(), "{context}");
                if theirs.is_empty() {
                    reference_lost_a_hit = true;
                    continue;
                }
                let near =
                    |p: Point2, set: &[Point2]| set.iter().any(|o| p.distance(*o) <= 1e-9 * extent);
                for p in ours.iter() {
                    assert!(near(p, theirs), "{p:?} vs {theirs:?}, {context}");
                }
                for p in theirs {
                    assert!(near(*p, ours.as_slice()), "{p:?} vs {ours:?}, {context}");
                }
            }
            lost_hits += usize::from(reference_lost_a_hit);

            for _ in 0..6 {
                let end = arbitrary_chord(&mut rng, &q);
                for metric in [
                    DeviationMetric::PointToLine,
                    DeviationMetric::PointToSegment,
                ] {
                    for mode in [
                        BoundsMode::Sound,
                        BoundsMode::PaperExact,
                        BoundsMode::CoarseCorners,
                    ] {
                        let ours = q.deviation_bounds(end, metric, mode);
                        let theirs = reference.deviation_bounds(end, metric, mode);
                        let what = format!("{metric:?} {mode:?} end {end:?}, {context}");
                        assert!(
                            close(ours.upper, theirs.upper),
                            "{ours:?} vs {theirs:?}, {what}"
                        );
                        // A lost hit inflates the reference's lower bound to
                        // its upper bound; ours is then the honest one.
                        if reference_lost_a_hit && mode != BoundsMode::CoarseCorners {
                            assert!(ours.lower <= theirs.lower + 1e-9, "{what}");
                        } else {
                            assert!(
                                close(ours.lower, theirs.lower),
                                "{ours:?} vs {theirs:?}, {what}"
                            );
                        }
                    }
                }
            }
        }
        // The escape hatches stay rare, or the comparison proves nothing.
        assert!(lost_hits < 40, "reference lost a hit in {lost_hits} cases");
        assert!(slack_corners < 40, "{slack_corners} corners at the slack");
    }
}
