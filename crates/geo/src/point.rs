//! Point types: planar, 3-D, timestamped and geodetic.

use crate::vec2::Vec2;
use std::ops::{Add, Sub};

/// A point in a planar metric coordinate frame (UTM easting/northing metres
/// after projection, or raw simulator metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point2 {
    /// The origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        (other - self).norm_sq()
    }

    /// The point as a displacement from the origin.
    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Builds a point from a displacement vector.
    #[inline]
    pub fn from_vec(v: Vec2) -> Point2 {
        Point2::new(v.x, v.y)
    }

    /// Midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

/// A point in 3-D space. The `z` axis carries either altitude (metres) or a
/// scaled timestamp, depending on the error metric in use (paper §V-G).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
    /// Altitude in metres, or scaled time.
    pub z: f64,
}

impl Point3 {
    /// The origin.
    pub const ORIGIN: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_sq(self, other: Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Drops the z component.
    #[inline]
    pub fn xy(self) -> Point2 {
        Point2::new(self.x, self.y)
    }

    /// Dot product treating the points as displacement vectors.
    #[inline]
    pub fn dot(self, rhs: Point3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product treating the points as displacement vectors.
    #[inline]
    pub fn cross(self, rhs: Point3) -> Point3 {
        Point3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Component-wise subtraction (displacement from `rhs` to `self`).
    /// Named method rather than `impl Sub` to keep point-vs-displacement
    /// usage explicit at call sites.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }

    /// Component-wise addition.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }

    /// Scales all components.
    #[inline]
    pub fn scale(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Euclidean norm treating the point as a displacement vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// True when all coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

/// A planar point with a timestamp, the unit of work for the 2-D compressors.
///
/// Timestamps are seconds since an arbitrary epoch; only differences matter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimedPoint {
    /// Position in the metric frame.
    pub pos: Point2,
    /// Seconds since the trace epoch.
    pub t: f64,
}

impl TimedPoint {
    /// Creates a timestamped point.
    #[inline]
    pub const fn new(x: f64, y: f64, t: f64) -> Self {
        TimedPoint {
            pos: Point2::new(x, y),
            t,
        }
    }

    /// Creates a timestamped point from an existing position.
    #[inline]
    pub const fn at(pos: Point2, t: f64) -> Self {
        TimedPoint { pos, t }
    }

    /// Average speed (m/s) travelling from `self` to `next`; `None` when the
    /// timestamps coincide.
    #[inline]
    pub fn speed_to(self, next: TimedPoint) -> Option<f64> {
        let dt = next.t - self.t;
        if dt <= 0.0 {
            None
        } else {
            Some(self.pos.distance(next.pos) / dt)
        }
    }
}

/// A raw GPS fix exactly as the paper defines a location point:
/// `⟨latitude, longitude, timestamp⟩` (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationPoint {
    /// Latitude in degrees, positive north.
    pub latitude: f64,
    /// Longitude in degrees, positive east.
    pub longitude: f64,
    /// Seconds since the trace epoch.
    pub timestamp: f64,
}

impl LocationPoint {
    /// Creates a location point.
    #[inline]
    pub const fn new(latitude: f64, longitude: f64, timestamp: f64) -> Self {
        LocationPoint {
            latitude,
            longitude,
            timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn point_vector_algebra() {
        let a = Point2::new(1.0, 1.0);
        let v = Vec2::new(2.0, 3.0);
        assert_eq!(a + v, Point2::new(3.0, 4.0));
        assert_eq!((a + v) - v, a);
        assert_eq!((a + v) - a, v);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
    }

    #[test]
    fn point3_cross_is_orthogonal() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(a.dot(c).abs() < 1e-12);
        assert!(b.dot(c).abs() < 1e-12);
    }

    #[test]
    fn point3_distance() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 3.0, 6.0);
        assert_eq!(a.distance(b), 7.0);
    }

    #[test]
    fn timed_point_speed() {
        let a = TimedPoint::new(0.0, 0.0, 0.0);
        let b = TimedPoint::new(30.0, 40.0, 10.0);
        assert_eq!(a.speed_to(b), Some(5.0));
        assert_eq!(a.speed_to(a), None); // dt == 0
        assert_eq!(b.speed_to(a), None); // dt < 0
    }

    #[test]
    fn copy_and_equality_semantics() {
        let p = TimedPoint::new(1.5, -2.5, 99.0);
        let q = p;
        assert_eq!(p, q);
        assert_ne!(p, TimedPoint::new(1.5, -2.5, 98.0));
    }
}
