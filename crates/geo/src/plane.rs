//! Planes and plane/prism intersections for the 3-D BQS (paper §V-G).
//!
//! The 3-D BQS bounds each octant's points with a prism plus two pairs of
//! bounding planes ("vertical" Θ planes containing the z axis, and
//! "inclined" Φ planes through two fixed anchor points). The significant
//! points of the resulting convex polyhedron are the intersections of those
//! planes with the prism edges — computed here.

use crate::point::Point3;
use crate::prism::Prism;

/// A plane in Hessian normal form: the set of points `p` with
/// `n · p = d`, where `n` is a unit normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Unit normal.
    pub normal: Point3,
    /// Signed offset along the normal.
    pub d: f64,
}

impl Plane {
    /// Builds a plane from a (not necessarily unit) normal and a point on the
    /// plane. Returns `None` for a zero normal.
    pub fn from_normal_and_point(normal: Point3, point: Point3) -> Option<Plane> {
        let len = normal.norm();
        if len <= f64::EPSILON {
            return None;
        }
        let n = normal.scale(1.0 / len);
        Some(Plane {
            normal: n,
            d: n.dot(point),
        })
    }

    /// Builds the plane through three points. Returns `None` when the points
    /// are (numerically) collinear.
    pub fn from_points(a: Point3, b: Point3, c: Point3) -> Option<Plane> {
        let n = b.sub(a).cross(c.sub(a));
        Plane::from_normal_and_point(n, a)
    }

    /// The "vertical" Θ plane of the 3-D BQS: contains the z axis and makes
    /// angle `theta` with the YZ plane — equivalently, the plane through the
    /// origin whose horizontal trace is the direction `(cos θ, sin θ)`.
    pub fn vertical_through_z(theta: f64) -> Plane {
        // Normal is horizontal and perpendicular to the trace direction.
        let normal = Point3::new(-theta.sin(), theta.cos(), 0.0);
        Plane { normal, d: 0.0 }
    }

    /// Signed distance from `p` to the plane (positive on the normal side).
    #[inline]
    pub fn signed_distance(&self, p: Point3) -> f64 {
        self.normal.dot(p) - self.d
    }

    /// Absolute distance from `p` to the plane.
    #[inline]
    pub fn distance(&self, p: Point3) -> f64 {
        self.signed_distance(p).abs()
    }

    /// Intersection of the segment `[a, b]` with the plane, if any.
    pub fn intersect_segment(&self, a: Point3, b: Point3) -> Option<Point3> {
        let da = self.signed_distance(a);
        let db = self.signed_distance(b);
        if da == 0.0 {
            return Some(a);
        }
        if db == 0.0 {
            return Some(b);
        }
        if (da > 0.0) == (db > 0.0) {
            return None;
        }
        let t = da / (da - db);
        Some(a.add(b.sub(a).scale(t)))
    }

    /// The line where two planes meet, as `(point_on_line, direction)`.
    /// `None` for (numerically) parallel planes.
    pub fn intersect_plane(&self, other: &Plane) -> Option<(Point3, Point3)> {
        let dir = self.normal.cross(other.normal);
        let len = dir.norm();
        if len <= 1e-12 {
            return None;
        }
        // Solve for a point on both planes: p = (d1·(n2×dir) + d2·(dir×n1)) / |dir|².
        let p = other
            .normal
            .cross(dir)
            .scale(self.d)
            .add(dir.cross(self.normal).scale(other.d))
            .scale(1.0 / (len * len));
        Some((p, dir.scale(1.0 / len)))
    }

    /// All intersection points of this plane with the edges of `prism`.
    ///
    /// The paper caps these at 4 per bounding plane; a plane can cross at
    /// most 6 edges of a box in general, but the BQS planes (axis-anchored)
    /// cross at most 4. We return whatever exists; callers treat the result
    /// as significant points.
    pub fn intersect_prism_edges(&self, prism: &Prism) -> Vec<Point3> {
        let corners = prism.corners();
        let mut out: Vec<Point3> = Vec::with_capacity(6);
        for (i, j) in Prism::EDGES {
            if let Some(p) = self.intersect_segment(corners[i], corners[j]) {
                // Dedup corner hits shared by adjacent edges.
                if !out.iter().any(|q| q.distance(p) < 1e-9) {
                    out.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_from_points_distance() {
        // z = 1 plane.
        let p = Plane::from_points(
            Point3::new(0.0, 0.0, 1.0),
            Point3::new(1.0, 0.0, 1.0),
            Point3::new(0.0, 1.0, 1.0),
        )
        .unwrap();
        assert!((p.distance(Point3::new(5.0, 5.0, 3.0)) - 2.0).abs() < 1e-12);
        assert!(p.distance(Point3::new(-4.0, 2.0, 1.0)) < 1e-12);
    }

    #[test]
    fn collinear_points_give_no_plane() {
        assert!(Plane::from_points(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 1.0),
            Point3::new(2.0, 2.0, 2.0),
        )
        .is_none());
    }

    #[test]
    fn vertical_plane_contains_z_axis() {
        for theta in [0.0, 0.5, 1.2, -2.0] {
            let p = Plane::vertical_through_z(theta);
            assert!(p.distance(Point3::new(0.0, 0.0, 5.0)) < 1e-12);
            assert!(p.distance(Point3::new(0.0, 0.0, -3.0)) < 1e-12);
            // The trace direction lies in the plane.
            let trace = Point3::new(theta.cos(), theta.sin(), 0.0);
            assert!(p.distance(trace) < 1e-12);
        }
    }

    #[test]
    fn segment_intersection() {
        let p = Plane::from_normal_and_point(Point3::new(0.0, 0.0, 1.0), Point3::ORIGIN).unwrap(); // z = 0
        let hit = p
            .intersect_segment(Point3::new(0.0, 0.0, -1.0), Point3::new(0.0, 0.0, 3.0))
            .unwrap();
        assert!(hit.distance(Point3::ORIGIN) < 1e-12);
        // Same side → no intersection.
        assert!(p
            .intersect_segment(Point3::new(0.0, 0.0, 1.0), Point3::new(0.0, 0.0, 3.0))
            .is_none());
        // Endpoint on plane.
        assert!(p
            .intersect_segment(Point3::new(1.0, 1.0, 0.0), Point3::new(0.0, 0.0, 3.0))
            .is_some());
    }

    #[test]
    fn plane_prism_intersection_points_are_on_both() {
        let prism = Prism::from_corners(Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 2.0, 2.0));
        // Diagonal plane x + y + z = 3 cuts through the box.
        let plane =
            Plane::from_normal_and_point(Point3::new(1.0, 1.0, 1.0), Point3::new(1.0, 1.0, 1.0))
                .unwrap();
        let pts = plane.intersect_prism_edges(&prism);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(plane.distance(*p) < 1e-9, "{p:?} not on plane");
            assert!(prism.contains(*p), "{p:?} not in prism");
        }
        // x+y+z=3 cuts a hexagon in the unit-2 cube.
        assert_eq!(pts.len(), 6);
    }

    #[test]
    fn plane_missing_prism() {
        let prism = Prism::from_corners(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
        let plane =
            Plane::from_normal_and_point(Point3::new(0.0, 0.0, 1.0), Point3::new(0.0, 0.0, 5.0))
                .unwrap(); // z = 5
        assert!(plane.intersect_prism_edges(&prism).is_empty());
    }
}
