//! Lines, segments and the distance kernels at the heart of every deviation
//! computation in the paper.
//!
//! The paper's deviation definition (§IV) uses **point-to-line** distance by
//! default and notes that **point-to-line-segment** distance "can easily be
//! used within BQS too" (with the Eq. 11 modification). Both kernels live
//! here so the compressors and the bound theorems can be parameterised over
//! them.

use crate::point::{Point2, Point3};
use crate::vec2::Vec2;

/// An infinite line through two (distinct) anchor points in the plane.
///
/// Degenerate lines (coincident anchors) are permitted and fall back to
/// point distance, matching the behaviour every compressor needs when a
/// segment's start and end coincide (e.g. a stationary animal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line2 {
    /// First anchor (the segment start point `s` in the paper).
    pub a: Point2,
    /// Second anchor (the tentative end point `e`).
    pub b: Point2,
}

impl Line2 {
    /// Creates a line through `a` and `b`.
    #[inline]
    pub const fn new(a: Point2, b: Point2) -> Self {
        Line2 { a, b }
    }

    /// Direction vector `b - a` (not normalised).
    #[inline]
    pub fn direction(self) -> Vec2 {
        self.b - self.a
    }

    /// Length of the anchor span.
    #[inline]
    pub fn anchor_span(self) -> f64 {
        self.a.distance(self.b)
    }

    /// True when the two anchors coincide (within `f64` exactness).
    #[inline]
    pub fn is_degenerate(self) -> bool {
        self.a == self.b
    }

    /// Perpendicular distance from `p` to this infinite line.
    ///
    /// Falls back to `d(p, a)` when the line is degenerate.
    #[inline]
    pub fn distance_to(self, p: Point2) -> f64 {
        point_to_line_distance(p, self.a, self.b)
    }

    /// Distance from `p` to the **segment** `[a, b]`.
    #[inline]
    pub fn segment_distance_to(self, p: Point2) -> f64 {
        point_to_segment_distance(p, self.a, self.b)
    }

    /// Signed perpendicular offset of `p`: positive on the left of `a → b`.
    ///
    /// Zero for degenerate lines.
    #[inline]
    pub fn signed_offset(self, p: Point2) -> f64 {
        let d = self.direction();
        let n = d.norm();
        if n <= f64::EPSILON {
            0.0
        } else {
            d.cross(p - self.a) / n
        }
    }

    /// Angle of the line direction from the +x axis, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.direction().angle()
    }
}

/// A finite segment; a thin wrapper distinguishing segment semantics from
/// line semantics at the type level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment2 {
    /// Start point.
    pub a: Point2,
    /// End point.
    pub b: Point2,
}

impl Segment2 {
    /// Creates a segment from `a` to `b`.
    #[inline]
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment2 { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to(self, p: Point2) -> f64 {
        point_to_segment_distance(p, self.a, self.b)
    }

    /// The supporting infinite line.
    #[inline]
    pub fn line(self) -> Line2 {
        Line2::new(self.a, self.b)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(self, t: f64) -> Point2 {
        self.a.lerp(self.b, t)
    }
}

/// Perpendicular distance from point `p` to the infinite line through `a`
/// and `b`. Falls back to `d(p, a)` when `a == b` (degenerate line).
///
/// This is the paper's deviation kernel `d(p, l_{s,e})`.
#[inline]
pub fn point_to_line_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let d = b - a;
    let n = d.norm();
    if n <= f64::EPSILON {
        p.distance(a)
    } else {
        (d.cross(p - a) / n).abs()
    }
}

/// Distance from point `p` to the closed segment `[a, b]`.
///
/// Clamps the projection parameter to `[0, 1]`, so points "behind" an
/// endpoint are measured to that endpoint.
#[inline]
pub fn point_to_segment_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq <= f64::EPSILON * f64::EPSILON {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

/// Parameter of the orthogonal projection of `p` onto the line through `a`
/// and `b` (unclamped; 0 at `a`, 1 at `b`). `None` for degenerate lines.
#[inline]
pub fn project_parameter(p: Point2, a: Point2, b: Point2) -> Option<f64> {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq <= f64::EPSILON * f64::EPSILON {
        None
    } else {
        Some((p - a).dot(ab) / len_sq)
    }
}

/// An infinite line in 3-D through two anchor points, used by the 3-D BQS
/// deviation metric (§V-G).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line3 {
    /// First anchor.
    pub a: Point3,
    /// Second anchor.
    pub b: Point3,
}

impl Line3 {
    /// Creates a 3-D line through `a` and `b`.
    #[inline]
    pub const fn new(a: Point3, b: Point3) -> Self {
        Line3 { a, b }
    }

    /// Distance from `p` to this infinite 3-D line (point distance to `a`
    /// when degenerate).
    #[inline]
    pub fn distance_to(self, p: Point3) -> f64 {
        let d = self.b.sub(self.a);
        let len = d.norm();
        if len <= f64::EPSILON {
            p.distance(self.a)
        } else {
            let ap = p.sub(self.a);
            ap.cross(d).norm() / len
        }
    }

    /// Distance from `p` to the 3-D segment `[a, b]`.
    #[inline]
    pub fn segment_distance_to(self, p: Point3) -> f64 {
        let ab = self.b.sub(self.a);
        let len_sq = ab.dot(ab);
        if len_sq <= f64::EPSILON * f64::EPSILON {
            return p.distance(self.a);
        }
        let t = (p.sub(self.a).dot(ab) / len_sq).clamp(0.0, 1.0);
        p.distance(self.a.add(ab.scale(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distance_basic() {
        // Horizontal line y = 0.
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        assert_eq!(point_to_line_distance(Point2::new(5.0, 3.0), a, b), 3.0);
        assert_eq!(point_to_line_distance(Point2::new(-100.0, -2.0), a, b), 2.0);
        assert_eq!(point_to_line_distance(Point2::new(4.0, 0.0), a, b), 0.0);
    }

    #[test]
    fn line_distance_degenerate_falls_back_to_point_distance() {
        let a = Point2::new(1.0, 1.0);
        assert_eq!(point_to_line_distance(Point2::new(4.0, 5.0), a, a), 5.0);
    }

    #[test]
    fn segment_distance_clamps_to_endpoints() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        // Beyond b: distance to b.
        assert_eq!(point_to_segment_distance(Point2::new(13.0, 4.0), a, b), 5.0);
        // Before a: distance to a.
        assert_eq!(point_to_segment_distance(Point2::new(-3.0, 4.0), a, b), 5.0);
        // Inside: perpendicular.
        assert_eq!(point_to_segment_distance(Point2::new(5.0, 2.0), a, b), 2.0);
    }

    #[test]
    fn segment_distance_never_below_line_distance() {
        let a = Point2::new(-3.0, 2.0);
        let b = Point2::new(7.0, -1.0);
        for p in [
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 100.0),
            Point2::new(-50.0, 3.0),
            Point2::new(2.0, 0.5),
        ] {
            assert!(point_to_segment_distance(p, a, b) >= point_to_line_distance(p, a, b) - 1e-12);
        }
    }

    #[test]
    fn signed_offset_sides() {
        let l = Line2::new(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        assert!(l.signed_offset(Point2::new(0.5, 1.0)) > 0.0);
        assert!(l.signed_offset(Point2::new(0.5, -1.0)) < 0.0);
        assert_eq!(l.signed_offset(Point2::new(0.5, 0.0)), 0.0);
    }

    #[test]
    fn project_parameter_values() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        assert_eq!(project_parameter(a, a, b), Some(0.0));
        assert_eq!(project_parameter(b, a, b), Some(1.0));
        assert_eq!(project_parameter(Point2::new(5.0, 7.0), a, b), Some(0.5));
        assert_eq!(project_parameter(Point2::new(20.0, 0.0), a, b), Some(2.0));
        assert_eq!(project_parameter(Point2::new(1.0, 1.0), a, a), None);
    }

    #[test]
    fn line3_distance() {
        // Line along the x axis.
        let l = Line3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 0.0, 0.0));
        assert!((l.distance_to(Point3::new(5.0, 3.0, 4.0)) - 5.0).abs() < 1e-12);
        assert_eq!(l.distance_to(Point3::new(7.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn line3_segment_distance_clamps() {
        let l = Line3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(10.0, 0.0, 0.0));
        assert!((l.segment_distance_to(Point3::new(13.0, 0.0, 4.0)) - 5.0).abs() < 1e-12);
        assert!((l.segment_distance_to(Point3::new(5.0, 0.0, 4.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_line3() {
        let p = Point3::new(1.0, 1.0, 1.0);
        let l = Line3::new(p, p);
        assert!((l.distance_to(Point3::new(1.0, 1.0, 3.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segment2_point_at() {
        let s = Segment2::new(Point2::new(0.0, 0.0), Point2::new(4.0, 8.0));
        assert_eq!(s.point_at(0.25), Point2::new(1.0, 2.0));
        assert_eq!(s.length(), (16.0f64 + 64.0).sqrt());
    }
}
