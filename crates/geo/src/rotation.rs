//! Planar rotations, used by the BQS data-centric rotation step (paper §V-D).

use crate::point::Point2;
use crate::vec2::Vec2;

/// A rotation about the origin, stored as the cosine/sine pair so repeated
/// application costs four multiplications and no trigonometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rot2 {
    cos: f64,
    sin: f64,
}

impl Rot2 {
    /// The identity rotation.
    pub const IDENTITY: Rot2 = Rot2 { cos: 1.0, sin: 0.0 };

    /// Rotation by `angle` radians counter-clockwise.
    #[inline]
    pub fn from_angle(angle: f64) -> Rot2 {
        Rot2 {
            cos: angle.cos(),
            sin: angle.sin(),
        }
    }

    /// Rotation that maps the direction of `v` onto the +x axis (i.e. by
    /// `-v.angle()`), or identity for the zero vector.
    ///
    /// This is exactly what data-centric rotation needs: align the
    /// start-to-centroid direction with +x so buffered points straddle the
    /// axis and split into two quadrants.
    #[inline]
    pub fn aligning_to_x(v: Vec2) -> Rot2 {
        match v.normalized() {
            Some(u) => Rot2 {
                cos: u.x,
                sin: -u.y,
            },
            None => Rot2::IDENTITY,
        }
    }

    /// The rotation angle in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.sin.atan2(self.cos)
    }

    /// The inverse rotation.
    #[inline]
    pub fn inverse(self) -> Rot2 {
        Rot2 {
            cos: self.cos,
            sin: -self.sin,
        }
    }

    /// Applies the rotation to a vector.
    #[inline]
    pub fn apply_vec(self, v: Vec2) -> Vec2 {
        Vec2::new(
            self.cos * v.x - self.sin * v.y,
            self.sin * v.x + self.cos * v.y,
        )
    }

    /// Rotates `p` about `center`.
    #[inline]
    pub fn apply_about(self, center: Point2, p: Point2) -> Point2 {
        center + self.apply_vec(p - center)
    }

    /// Rotates `p` about the origin.
    #[inline]
    pub fn apply(self, p: Point2) -> Point2 {
        Point2::from_vec(self.apply_vec(p.to_vec()))
    }

    /// Composes two rotations (`self` after `other`).
    #[inline]
    pub fn compose(self, other: Rot2) -> Rot2 {
        Rot2 {
            cos: self.cos * other.cos - self.sin * other.sin,
            sin: self.sin * other.cos + self.cos * other.sin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn quarter_turn() {
        let r = Rot2::from_angle(FRAC_PI_2);
        let v = r.apply_vec(Vec2::UNIT_X);
        assert!((v.x).abs() < 1e-15 && (v.y - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rotation_preserves_norm() {
        let r = Rot2::from_angle(1.234);
        let v = Vec2::new(3.0, -7.0);
        assert!((r.apply_vec(v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn inverse_undoes() {
        let r = Rot2::from_angle(0.7);
        let p = Point2::new(2.0, 5.0);
        let q = r.inverse().apply(r.apply(p));
        assert!(p.distance(q) < 1e-12);
    }

    #[test]
    fn aligning_to_x_puts_vector_on_axis() {
        let v = Vec2::new(3.0, 4.0);
        let r = Rot2::aligning_to_x(v);
        let w = r.apply_vec(v);
        assert!(w.y.abs() < 1e-12);
        assert!((w.x - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aligning_zero_vector_is_identity() {
        assert_eq!(Rot2::aligning_to_x(Vec2::ZERO), Rot2::IDENTITY);
    }

    #[test]
    fn apply_about_center_fixes_center() {
        let c = Point2::new(10.0, -3.0);
        let r = Rot2::from_angle(PI / 3.0);
        assert!(c.distance(r.apply_about(c, c)) < 1e-15);
        let p = Point2::new(11.0, -3.0);
        assert!((r.apply_about(c, p).distance(c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compose_equals_sum_of_angles() {
        let a = Rot2::from_angle(0.4);
        let b = Rot2::from_angle(-1.1);
        let c = a.compose(b);
        assert!((c.angle() - (0.4 - 1.1)).abs() < 1e-12);
    }

    #[test]
    fn angle_round_trip() {
        for deg in [-170.0f64, -90.0, -30.0, 0.0, 60.0, 120.0, 180.0] {
            let a = deg.to_radians();
            let r = Rot2::from_angle(a);
            let diff = (r.angle() - a).abs();
            assert!(diff < 1e-12 || (diff - 2.0 * PI).abs() < 1e-12);
        }
    }
}
