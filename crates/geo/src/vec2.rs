//! Planar vectors.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A two-dimensional vector with `f64` components, in metres unless stated
/// otherwise.
///
/// `Vec2` is the displacement counterpart of [`crate::Point2`]; subtracting two
/// points yields a `Vec2`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Easting component.
    pub x: f64,
    /// Northing component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector along +x.
    pub const UNIT_X: Vec2 = Vec2 { x: 1.0, y: 0.0 };

    /// Unit vector along +y.
    pub const UNIT_Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Builds the unit vector pointing at `angle` radians from the +x axis.
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// 2-D cross product (the z component of the 3-D cross product).
    ///
    /// Positive when `rhs` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm; avoids the square root on hot paths.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Angle from the +x axis in `(-pi, pi]` radians.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns the vector scaled to unit length, or `None` for the zero
    /// vector (and anything short enough to be numerically zero).
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// The vector rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x.min(rhs.x), self.y.min(rhs.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x.max(rhs.x), self.y.max(rhs.y))
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross_of_orthogonal_units() {
        assert_eq!(Vec2::UNIT_X.dot(Vec2::UNIT_Y), 0.0);
        assert_eq!(Vec2::UNIT_X.cross(Vec2::UNIT_Y), 1.0);
        assert_eq!(Vec2::UNIT_Y.cross(Vec2::UNIT_X), -1.0);
    }

    #[test]
    fn norm_matches_hypot() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
    }

    #[test]
    fn from_angle_round_trips() {
        for deg in [-179, -90, -45, 0, 30, 90, 135, 180] {
            let a = (deg as f64).to_radians();
            let v = Vec2::from_angle(a);
            assert!((v.norm() - 1.0).abs() < 1e-12);
            // angle() returns (-pi, pi]; +/-180deg are the same direction.
            let diff = (v.angle() - a).abs();
            assert!(diff < 1e-12 || (diff - 2.0 * std::f64::consts::PI).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let v = Vec2::new(10.0, 0.0).normalized().unwrap();
        assert!((v.x - 1.0).abs() < 1e-15 && v.y == 0.0);
    }

    #[test]
    fn perp_is_ccw_quarter_turn() {
        let v = Vec2::new(2.0, 1.0);
        let p = v.perp();
        assert_eq!(v.dot(p), 0.0);
        assert!(v.cross(p) > 0.0);
        assert_eq!(p, Vec2::new(-1.0, 2.0));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        assert_eq!(a + b, Vec2::new(4.0, -2.0));
        assert_eq!(a - b, Vec2::new(-2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -2.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn component_min_max() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(2.0, -3.0);
        assert_eq!(a.min(b), Vec2::new(1.0, -3.0));
        assert_eq!(a.max(b), Vec2::new(2.0, 5.0));
    }

    #[test]
    fn finiteness() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }
}
