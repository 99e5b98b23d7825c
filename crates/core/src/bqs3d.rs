//! The 3-D Bounded Quadrant System (paper §V-G).
//!
//! For 3-D tracking (altitude as `z`) or time-sensitive errors (scaled
//! timestamp as `z`), the BQS generalises per octant to a **bounding right
//! rectangular prism** plus two pairs of bounding planes:
//!
//! * the "vertical" planes `Θ_min`, `Θ_max` — both contain the z axis and
//!   track the smallest/greatest azimuth of any point;
//! * the "inclined" planes `Φ_min`, `Φ_max` — each passes through the two
//!   fixed anchor points `(sign(x), −sign(y), 0)` and `(−sign(x), sign(y),
//!   0)` of the octant and tracks the smallest/greatest inclination.
//!
//! Significant points are the planes' intersections with the prism edges
//! plus the prism vertex farthest from the origin — at most 17 per octant,
//! as the paper counts. The upper bound used for admission decisions is the
//! provably sound prism-corner bound (the 3-D analogue of Theorem 5.2);
//! the ≤17-point refined bound is exposed for the paper-exact mode. The 3-D
//! case is a generality demonstration in the paper (not part of its
//! evaluation), and this implementation follows that scope.

use crate::bounds::DeviationBounds;
use crate::config::BoundsMode;
use crate::stream::Sink;
use bqs_geo::{Line3, Plane, Point3, Prism};

/// A timestamped 3-D point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimedPoint3 {
    /// Position; `z` is altitude in metres or a scaled timestamp.
    pub pos: Point3,
    /// Seconds since the trace epoch.
    pub t: f64,
}

impl TimedPoint3 {
    /// Creates a timestamped 3-D point.
    pub const fn new(x: f64, y: f64, z: f64, t: f64) -> TimedPoint3 {
        TimedPoint3 {
            pos: Point3::new(x, y, z),
            t,
        }
    }

    /// Builds the **time-sensitive** embedding (§V-G): the z axis carries
    /// the timestamp scaled by `seconds_to_metres`, so one deviation metric
    /// bounds both spatial and temporal error.
    pub fn time_sensitive(x: f64, y: f64, t: f64, seconds_to_metres: f64) -> TimedPoint3 {
        TimedPoint3 {
            pos: Point3::new(x, y, t * seconds_to_metres),
            t,
        }
    }
}

/// One of the eight octants, indexed by the sign bits of (x, y, z):
/// bit 0 set ⇔ x < 0, bit 1 set ⇔ y < 0, bit 2 set ⇔ z < 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Octant(u8);

impl Octant {
    /// Classifies a displacement from the origin (non-negative coordinates
    /// count as positive, mirroring the 2-D convention).
    #[inline]
    pub fn of(p: Point3) -> Octant {
        Octant(((p.x < 0.0) as u8) | (((p.y < 0.0) as u8) << 1) | (((p.z < 0.0) as u8) << 2))
    }

    /// Contiguous index 0–7.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Signs `(sx, sy, sz)` of the octant, `+1` on the non-negative side.
    #[inline]
    pub fn signs(self) -> (f64, f64, f64) {
        (
            if self.0 & 1 == 0 { 1.0 } else { -1.0 },
            if self.0 & 2 == 0 { 1.0 } else { -1.0 },
            if self.0 & 4 == 0 { 1.0 } else { -1.0 },
        )
    }

    /// The two fixed Φ-plane anchor points of this octant (§V-G):
    /// `(sign(x), −sign(y), 0)` and `(−sign(x), sign(y), 0)`.
    #[inline]
    pub fn phi_anchors(self) -> (Point3, Point3) {
        let (sx, sy, _) = self.signs();
        (Point3::new(sx, -sy, 0.0), Point3::new(-sx, sy, 0.0))
    }
}

/// Bounding state for one octant: prism, Θ azimuth range and Φ inclination
/// range.
#[derive(Debug, Clone, PartialEq)]
pub struct OctantBounds {
    octant: Octant,
    prism: Prism,
    /// Azimuth (atan2(y, x)) range of inserted points. Contiguous within an
    /// octant for the same reason as the 2-D quadrants.
    azimuth_min: f64,
    azimuth_max: f64,
    /// Inclination range: the angle of the Φ plane through each point,
    /// parameterised by the signed ratio `z / s(x, y)` where `s` is the
    /// distance from the point's XY projection to the anchor line.
    incline_min: f64,
    incline_max: f64,
    count: usize,
}

impl OctantBounds {
    /// Creates the structure from the first point of an octant.
    pub fn new(octant: Octant, p: Point3) -> OctantBounds {
        let (az, inc) = Self::angles(octant, p);
        OctantBounds {
            octant,
            prism: Prism::from_point(p),
            azimuth_min: az,
            azimuth_max: az,
            incline_min: inc,
            incline_max: inc,
            count: 1,
        }
    }

    /// Azimuth and inclination parameters of a point.
    fn angles(octant: Octant, p: Point3) -> (f64, f64) {
        let az = p.y.atan2(p.x);
        // Distance from the XY projection to the anchor line (the line
        // through the two Φ anchors, which passes through the origin with
        // direction (-sx, sy)): the inclination angle of the Φ plane through
        // p is atan2(z, that distance).
        let (sx, sy, _) = octant.signs();
        // Anchor-line direction in the XY plane.
        let (dx, dy) = (-sx, sy);
        let cross = (p.x * dy - p.y * dx).abs() / (dx * dx + dy * dy).sqrt();
        let inc = p.z.atan2(cross);
        (az, inc)
    }

    /// Which octant this structure bounds.
    pub fn octant(&self) -> Octant {
        self.octant
    }

    /// Number of inserted points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when empty (never the case once constructed).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The bounding prism.
    pub fn prism(&self) -> &Prism {
        &self.prism
    }

    /// Inserts a point.
    pub fn insert(&mut self, p: Point3) {
        debug_assert_eq!(Octant::of(p), self.octant);
        self.prism.expand(p);
        let (az, inc) = Self::angles(self.octant, p);
        self.azimuth_min = self.azimuth_min.min(az);
        self.azimuth_max = self.azimuth_max.max(az);
        self.incline_min = self.incline_min.min(inc);
        self.incline_max = self.incline_max.max(inc);
        self.count += 1;
    }

    /// The four bounding planes: Θ_min, Θ_max (vertical), Φ_min, Φ_max
    /// (inclined). Degenerate Φ planes (all points on the anchor line) are
    /// omitted.
    pub fn bounding_planes(&self) -> Vec<Plane> {
        let mut planes = Vec::with_capacity(4);
        planes.push(Plane::vertical_through_z(self.azimuth_min));
        planes.push(Plane::vertical_through_z(self.azimuth_max));
        let (a1, a2) = self.octant.phi_anchors();
        for inc in [self.incline_min, self.incline_max] {
            // A third point on the Φ plane: lift the point of the anchor
            // line's perpendicular (through the origin) by the inclination.
            let (sx, sy, _) = self.octant.signs();
            // Perpendicular direction to the anchor line within XY.
            let (px, py) = (sx, sy);
            let norm = (px * px + py * py).sqrt();
            let third = Point3::new(px / norm * inc.cos(), py / norm * inc.cos(), inc.sin());
            if let Some(plane) = Plane::from_points(a1, a2, third) {
                planes.push(plane);
            }
        }
        planes
    }

    /// The paper's ≤17 significant points: each bounding plane's
    /// intersections with the prism edges, plus the prism vertex farthest
    /// from the origin.
    pub fn significant_points(&self) -> Vec<Point3> {
        let mut pts = Vec::with_capacity(17);
        for plane in self.bounding_planes() {
            pts.extend(plane.intersect_prism_edges(&self.prism));
        }
        pts.push(self.prism.farthest_corner_to(Point3::ORIGIN));
        pts
    }

    /// Whether a point satisfies the octant's angular constraints (azimuth
    /// between the Θ bounds, inclination between the Φ bounds) within a
    /// numeric slack. Points on/near the z axis have undefined azimuth and
    /// count as inside.
    fn in_wedges(&self, p: Point3, slack: f64) -> bool {
        let (az, inc) = Self::angles(self.octant, p);
        let az_ok = if p.x.abs() < 1e-9 && p.y.abs() < 1e-9 {
            true
        } else {
            az >= self.azimuth_min - slack && az <= self.azimuth_max + slack
        };
        az_ok && inc >= self.incline_min - slack && inc <= self.incline_max + slack
    }

    /// Deviation bounds for the chord `origin → end` under the 3-D
    /// point-to-line metric.
    ///
    /// Every inserted point lies in the convex region
    /// `prism ∩ Θ-wedge ∩ Φ-wedge`. In `Sound` mode the upper bound is the
    /// maximum distance over a vertex superset of that region: prism corners
    /// inside the wedges, bounding-plane/prism-edge hits inside the opposite
    /// wedge, the six plane-pair intersection lines clipped to the prism,
    /// and the origin (where any three bounding planes meet). Convexity of
    /// point-to-line distance makes the maximum over those vertices dominate
    /// every contained point. `PaperExact` mode instead uses the paper's
    /// ≤17 significant points (heuristic; not guaranteed to contain the
    /// region's protruding corners).
    ///
    /// The lower bound is the larger of the minimum corner distance and the
    /// per-plane minima over each bounding plane's prism intersections —
    /// each bounding plane carries at least one real point inside the prism.
    pub fn deviation_bounds(&self, end: Point3, mode: BoundsMode) -> DeviationBounds {
        let line = Line3::new(Point3::ORIGIN, end);
        let corners = self.prism.corners();
        let corner_d: Vec<f64> = corners.iter().map(|c| line.distance_to(*c)).collect();
        let lb_corners = corner_d.iter().fold(f64::INFINITY, |a, b| a.min(*b));

        const SLACK: f64 = 1e-9;
        let planes = self.bounding_planes();

        let mut lb = lb_corners;
        let mut ub = 0.0f64;

        // Vertex type (a): prism corners inside both wedges.
        for (c, d) in corners.iter().zip(corner_d.iter()) {
            if self.in_wedges(*c, SLACK) {
                ub = ub.max(*d);
            }
        }
        // Vertex type (b): plane/edge hits (also feed the lower bound).
        for plane in &planes {
            let hits = plane.intersect_prism_edges(&self.prism);
            if hits.is_empty() {
                continue;
            }
            let mut lo = f64::INFINITY;
            for h in &hits {
                let d = line.distance_to(*h);
                lo = lo.min(d);
                if self.in_wedges(*h, SLACK) {
                    ub = ub.max(d);
                }
            }
            lb = lb.max(lo);
        }
        // Vertex type (c): pairwise plane-intersection lines clipped to the
        // prism (unfiltered — a superset only enlarges the hull, which keeps
        // the bound sound).
        for i in 0..planes.len() {
            for j in (i + 1)..planes.len() {
                if let Some((p0, dir)) = planes[i].intersect_plane(&planes[j]) {
                    if let Some((a, b)) = self.prism.clip_line(p0, dir) {
                        ub = ub.max(line.distance_to(a)).max(line.distance_to(b));
                    }
                }
            }
        }
        // All three-plane meets collapse onto the origin, whose distance to
        // a chord anchored there is zero — included implicitly.

        let upper = match mode {
            BoundsMode::Sound => ub,
            BoundsMode::CoarseCorners => corner_d.iter().fold(0.0f64, |a, b| a.max(*b)),
            BoundsMode::PaperExact => {
                // The paper's significant points: plane/edge hits plus the
                // farthest prism vertex.
                let mut refined = line.distance_to(self.prism.farthest_corner_to(Point3::ORIGIN));
                for plane in &planes {
                    for h in plane.intersect_prism_edges(&self.prism) {
                        refined = refined.max(line.distance_to(h));
                    }
                }
                refined
            }
        };
        DeviationBounds::new(lb, upper)
    }
}

/// Configuration for the 3-D compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bqs3dConfig {
    /// Error tolerance in metres (of the embedded 3-D space).
    pub tolerance: f64,
    /// Fast mode: cut aggressively instead of scanning a buffer.
    pub fast: bool,
    /// Bound formulas (see [`OctantBounds::deviation_bounds`]).
    pub bounds_mode: BoundsMode,
}

impl Bqs3dConfig {
    /// Creates a validated configuration (buffered, sound bounds).
    pub fn new(tolerance: f64) -> Result<Bqs3dConfig, crate::config::ConfigError> {
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(crate::config::ConfigError::InvalidTolerance { tolerance });
        }
        Ok(Bqs3dConfig {
            tolerance,
            fast: false,
            bounds_mode: BoundsMode::Sound,
        })
    }

    /// Switches to the fast (O(1)-per-point) variant.
    pub fn fast(mut self) -> Self {
        self.fast = true;
        self
    }
}

/// Streaming 3-D BQS compressor over [`TimedPoint3`] streams.
#[derive(Debug, Clone)]
pub struct Bqs3dCompressor {
    config: Bqs3dConfig,
    origin: Option<Point3>,
    octants: [Option<OctantBounds>; 8],
    far_points: usize,
    buffer: Option<Vec<Point3>>,
    last: Option<TimedPoint3>,
    last_emitted: Option<TimedPoint3>,
    segments: u64,
}

impl Bqs3dCompressor {
    /// Creates a 3-D compressor.
    pub fn new(config: Bqs3dConfig) -> Bqs3dCompressor {
        Bqs3dCompressor {
            config,
            origin: None,
            octants: Default::default(),
            far_points: 0,
            buffer: if config.fast { None } else { Some(Vec::new()) },
            last: None,
            last_emitted: None,
            segments: 0,
        }
    }

    /// Segments produced so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Pushes a point; emits finalised key points into `out`.
    pub fn push(&mut self, p: TimedPoint3, out: &mut dyn Sink<TimedPoint3>) {
        let Some(origin) = self.origin else {
            self.emit(p, out);
            self.origin = Some(p.pos);
            self.last = Some(p);
            self.segments = 1;
            return;
        };

        let local_end = p.pos.sub(origin);
        let include = if self.far_points == 0 {
            true
        } else {
            let mut agg = DeviationBounds::EMPTY;
            for o in self.octants.iter().flatten() {
                agg = agg.merge(o.deviation_bounds(local_end, self.config.bounds_mode));
            }
            if agg.upper <= self.config.tolerance {
                true
            } else if agg.lower > self.config.tolerance {
                false
            } else if let Some(buffer) = self.buffer.as_ref() {
                let line = Line3::new(origin, p.pos);
                let actual = buffer
                    .iter()
                    .map(|q| line.distance_to(*q))
                    .fold(0.0, f64::max);
                actual <= self.config.tolerance
            } else {
                false
            }
        };

        if include {
            self.admit(p);
        } else {
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: cut only after an admission
            let key = self.last.expect("cut only after an admission");
            self.emit(key, out);
            self.segments += 1;
            self.origin = Some(key.pos);
            self.octants = Default::default();
            self.far_points = 0;
            if let Some(buffer) = self.buffer.as_mut() {
                buffer.clear();
            }
            self.admit(p);
        }
    }

    fn admit(&mut self, p: TimedPoint3) {
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: segment exists
        let origin = self.origin.expect("segment exists");
        let local = p.pos.sub(origin);
        if local.norm() > self.config.tolerance {
            self.far_points += 1;
            let octant = Octant::of(local);
            match &mut self.octants[octant.index()] {
                Some(o) => o.insert(local),
                slot @ None => *slot = Some(OctantBounds::new(octant, local)),
            }
            if let Some(buffer) = self.buffer.as_mut() {
                buffer.push(p.pos);
            }
        }
        self.last = Some(p);
    }

    /// Flushes the final key point and resets for reuse.
    pub fn finish(&mut self, out: &mut dyn Sink<TimedPoint3>) {
        if let Some(last) = self.last {
            if self.last_emitted != Some(last) {
                out.push(last);
            }
        }
        self.origin = None;
        self.octants = Default::default();
        self.far_points = 0;
        self.last = None;
        self.last_emitted = None;
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.clear();
        }
    }

    fn emit(&mut self, p: TimedPoint3, out: &mut dyn Sink<TimedPoint3>) {
        out.push(p);
        self.last_emitted = Some(p);
    }
}

/// Compresses a whole 3-D stream.
pub fn compress_all_3d(
    compressor: &mut Bqs3dCompressor,
    points: impl IntoIterator<Item = TimedPoint3>,
) -> Vec<TimedPoint3> {
    let mut out = Vec::new();
    for p in points {
        compressor.push(p, &mut out);
    }
    compressor.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn helix(n: usize) -> Vec<TimedPoint3> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.08;
                TimedPoint3::new(a.cos() * 200.0, a.sin() * 200.0, i as f64 * 2.0, i as f64)
            })
            .collect()
    }

    #[test]
    fn octant_classification() {
        assert_eq!(Octant::of(Point3::new(1.0, 1.0, 1.0)).index(), 0);
        assert_eq!(Octant::of(Point3::new(-1.0, 1.0, 1.0)).index(), 1);
        assert_eq!(Octant::of(Point3::new(1.0, -1.0, 1.0)).index(), 2);
        assert_eq!(Octant::of(Point3::new(1.0, 1.0, -1.0)).index(), 4);
        assert_eq!(Octant::of(Point3::new(-1.0, -1.0, -1.0)).index(), 7);
    }

    #[test]
    fn phi_anchors_match_paper_example() {
        // First octant example from §V-G: anchors (1, −1, 0) and (−1, 1, 0).
        let (a1, a2) = Octant::of(Point3::new(1.0, 1.0, 1.0)).phi_anchors();
        assert_eq!(a1, Point3::new(1.0, -1.0, 0.0));
        assert_eq!(a2, Point3::new(-1.0, 1.0, 0.0));
    }

    #[test]
    fn significant_points_capped_at_17() {
        let pts = [
            Point3::new(10.0, 2.0, 3.0),
            Point3::new(4.0, 8.0, 1.0),
            Point3::new(7.0, 5.0, 9.0),
            Point3::new(6.0, 6.0, 2.0),
        ];
        let mut o = OctantBounds::new(Octant::of(pts[0]), pts[0]);
        for p in &pts[1..] {
            o.insert(*p);
        }
        let sig = o.significant_points();
        assert!(!sig.is_empty());
        assert!(sig.len() <= 17, "got {} significant points", sig.len());
    }

    #[test]
    fn sound_upper_bound_dominates_brute_force() {
        let pts = [
            Point3::new(10.0, 2.0, 3.0),
            Point3::new(4.0, 8.0, 1.0),
            Point3::new(7.0, 5.0, 9.0),
        ];
        let mut o = OctantBounds::new(Octant::of(pts[0]), pts[0]);
        for p in &pts[1..] {
            o.insert(*p);
        }
        for end in [
            Point3::new(20.0, 6.0, 5.0),
            Point3::new(-5.0, 10.0, 2.0),
            Point3::new(0.0, 0.0, 30.0),
        ] {
            let b = o.deviation_bounds(end, BoundsMode::Sound);
            let line = Line3::new(Point3::ORIGIN, end);
            let actual = pts.iter().map(|p| line.distance_to(*p)).fold(0.0, f64::max);
            assert!(
                b.upper >= actual - 1e-9,
                "end {end:?}: ub {} < {actual}",
                b.upper
            );
            assert!(b.lower <= b.upper);
        }
    }

    #[test]
    fn straight_3d_line_compresses_to_two_points() {
        for fast in [false, true] {
            let mut config = Bqs3dConfig::new(5.0).unwrap();
            if fast {
                config = config.fast();
            }
            let mut c = Bqs3dCompressor::new(config);
            let pts: Vec<TimedPoint3> = (0..100)
                .map(|i| TimedPoint3::new(i as f64 * 5.0, i as f64 * 3.0, i as f64 * 2.0, i as f64))
                .collect();
            let out = compress_all_3d(&mut c, pts);
            assert_eq!(out.len(), 2, "fast={fast}");
        }
    }

    #[test]
    fn helix_respects_error_bound() {
        let tolerance = 10.0;
        let pts = helix(500);
        for fast in [false, true] {
            let mut config = Bqs3dConfig::new(tolerance).unwrap();
            if fast {
                config = config.fast();
            }
            let mut c = Bqs3dCompressor::new(config);
            let out = compress_all_3d(&mut c, pts.clone());
            assert!(out.len() >= 2);
            for w in out.windows(2) {
                let i = pts.iter().position(|p| p == &w[0]).unwrap();
                let j = pts.iter().position(|p| p == &w[1]).unwrap();
                let line = Line3::new(w[0].pos, w[1].pos);
                for q in &pts[i + 1..j] {
                    assert!(
                        line.distance_to(q.pos) <= tolerance + 1e-9,
                        "fast={fast} segment {i}..{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_keeps_at_least_buffered_count() {
        let pts = helix(500);
        let buffered = {
            let mut c = Bqs3dCompressor::new(Bqs3dConfig::new(10.0).unwrap());
            compress_all_3d(&mut c, pts.clone()).len()
        };
        let fast = {
            let mut c = Bqs3dCompressor::new(Bqs3dConfig::new(10.0).unwrap().fast());
            compress_all_3d(&mut c, pts).len()
        };
        assert!(fast >= buffered);
    }

    #[test]
    fn time_sensitive_embedding() {
        let p = TimedPoint3::time_sensitive(3.0, 4.0, 60.0, 0.5);
        assert_eq!(p.pos.z, 30.0);
        assert_eq!(p.t, 60.0);
    }

    #[test]
    fn config_validation() {
        assert!(Bqs3dConfig::new(-1.0).is_err());
        assert!(Bqs3dConfig::new(f64::NAN).is_err());
        assert!(Bqs3dConfig::new(2.0).unwrap().fast().fast);
    }
}
