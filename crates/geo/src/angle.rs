//! Angles and quadrants.
//!
//! The BQS splits the plane around the segment start point into four
//! quadrants (paper §V-A step 1). The appendix relies on the quadrant split
//! for the convex-hull properties of the bounding structure, and Theorems
//! 5.3–5.5 dispatch on whether the current path line is "in" a quadrant and
//! whether it lies between the two angular bounding lines. All of that angle
//! bookkeeping lives here.

use std::f64::consts::{FRAC_PI_2, PI};

/// One of the four quadrants of a planar coordinate system.
///
/// Quadrants are closed on their start axis and open on their end axis, so
/// every direction belongs to exactly one quadrant: `Q1 = [0, π/2)`,
/// `Q2 = [π/2, π)`, `Q3 = [−π, −π/2)`, `Q4 = [−π/2, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// x ≥ 0, y ≥ 0 — angles in `[0, π/2)`.
    Q1,
    /// x < 0, y ≥ 0 — angles in `[π/2, π)`.
    Q2,
    /// x < 0, y < 0 — angles in `[−π, −π/2)`.
    Q3,
    /// x ≥ 0, y < 0 — angles in `[−π/2, 0)`.
    Q4,
}

impl Quadrant {
    /// All four quadrants in index order.
    pub const ALL: [Quadrant; 4] = [Quadrant::Q1, Quadrant::Q2, Quadrant::Q3, Quadrant::Q4];

    /// Classifies a displacement `(x, y)` from the origin.
    ///
    /// Points on a positive axis go to the quadrant that is closed on that
    /// axis (e.g. `(1, 0)` → Q1, `(0, -1)` → Q4); the origin itself
    /// conventionally classifies as Q1 (the BQS never stores the origin in a
    /// quadrant because of the Theorem 5.1 pre-filter).
    #[inline]
    pub fn of(x: f64, y: f64) -> Quadrant {
        if y >= 0.0 {
            if x >= 0.0 {
                Quadrant::Q1
            } else {
                Quadrant::Q2
            }
        } else if x < 0.0 {
            Quadrant::Q3
        } else {
            Quadrant::Q4
        }
    }

    /// Classifies a direction angle in radians (any range; normalised
    /// internally).
    #[inline]
    pub fn of_angle(theta: f64) -> Quadrant {
        let t = normalize_angle(theta);
        if t >= FRAC_PI_2 {
            Quadrant::Q2
        } else if t >= 0.0 {
            Quadrant::Q1
        } else if t >= -FRAC_PI_2 {
            Quadrant::Q4
        } else {
            Quadrant::Q3
        }
    }

    /// Contiguous index 0–3 for array storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Quadrant::Q1 => 0,
            Quadrant::Q2 => 1,
            Quadrant::Q3 => 2,
            Quadrant::Q4 => 3,
        }
    }

    /// Inverse of [`Quadrant::index`]. Panics for `i > 3`.
    #[inline]
    pub fn from_index(i: usize) -> Quadrant {
        Quadrant::ALL[i]
    }

    /// The angle range `[start, end)` of this quadrant, in radians within
    /// `(-π, π]` normalisation.
    #[inline]
    pub fn angle_range(self) -> (f64, f64) {
        match self {
            Quadrant::Q1 => (0.0, FRAC_PI_2),
            Quadrant::Q2 => (FRAC_PI_2, PI),
            Quadrant::Q3 => (-PI, -FRAC_PI_2),
            Quadrant::Q4 => (-FRAC_PI_2, 0.0),
        }
    }

    /// The quadrant diagonally opposite.
    #[inline]
    pub fn opposite(self) -> Quadrant {
        match self {
            Quadrant::Q1 => Quadrant::Q3,
            Quadrant::Q2 => Quadrant::Q4,
            Quadrant::Q3 => Quadrant::Q1,
            Quadrant::Q4 => Quadrant::Q2,
        }
    }

    /// Whether an (undirected) line with direction `(dx, dy)` is "in" this
    /// quadrant per the paper's definition below Theorem 5.3: a line is in
    /// quadrant Q if its direction or the opposite direction falls in Q's
    /// half-open angle range. Since we use point-to-line distance, every
    /// line is "in" exactly two (opposite) quadrants.
    ///
    /// Decided from coordinate signs alone — no `atan2`, and no seam at
    /// `±π`: horizontal lines (either way, either zero sign) are in Q1/Q3,
    /// vertical lines in Q2/Q4, and the zero direction counts as horizontal.
    #[inline]
    pub fn contains_line_direction(self, dx: f64, dy: f64) -> bool {
        let in_q1_q3 = if dx > 0.0 {
            dy >= 0.0
        } else if dx < 0.0 {
            dy <= 0.0
        } else {
            dy == 0.0
        };
        match self {
            Quadrant::Q1 | Quadrant::Q3 => in_q1_q3,
            Quadrant::Q2 | Quadrant::Q4 => !in_q1_q3,
        }
    }

    /// The signs `(sign_x, sign_y)` of coordinates in this quadrant, using
    /// `+1` for the closed (≥ 0) axis side.
    #[inline]
    pub fn signs(self) -> (f64, f64) {
        match self {
            Quadrant::Q1 => (1.0, 1.0),
            Quadrant::Q2 => (-1.0, 1.0),
            Quadrant::Q3 => (-1.0, -1.0),
            Quadrant::Q4 => (1.0, -1.0),
        }
    }
}

/// Normalises an angle to `(-π, π]`.
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    if theta.is_nan() {
        return theta;
    }
    let two_pi = 2.0 * PI;
    let mut t = theta % two_pi;
    if t <= -PI {
        t += two_pi;
    } else if t > PI {
        t -= two_pi;
    }
    t
}

/// Smallest absolute difference between two angles, in `[0, π]`.
#[inline]
pub fn angle_difference(a: f64, b: f64) -> f64 {
    normalize_angle(a - b).abs()
}

/// Whether `theta` lies within the closed angular interval `[lo, hi]`
/// measured counter-clockwise from `lo` to `hi` (all radians; interval span
/// must be ≤ 2π).
#[inline]
pub fn angle_in_ccw_interval(theta: f64, lo: f64, hi: f64) -> bool {
    let span = normalize_positive(hi - lo);
    let off = normalize_positive(theta - lo);
    off <= span
}

/// Normalises an angle to `[0, 2π)`.
#[inline]
pub fn normalize_positive(theta: f64) -> f64 {
    let two_pi = 2.0 * PI;
    let t = theta % two_pi;
    if t < 0.0 {
        t + two_pi
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_of_points() {
        assert_eq!(Quadrant::of(1.0, 1.0), Quadrant::Q1);
        assert_eq!(Quadrant::of(-1.0, 1.0), Quadrant::Q2);
        assert_eq!(Quadrant::of(-1.0, -1.0), Quadrant::Q3);
        assert_eq!(Quadrant::of(1.0, -1.0), Quadrant::Q4);
        // Axis conventions.
        assert_eq!(Quadrant::of(1.0, 0.0), Quadrant::Q1);
        assert_eq!(Quadrant::of(0.0, 1.0), Quadrant::Q1);
        assert_eq!(Quadrant::of(-1.0, 0.0), Quadrant::Q2);
        assert_eq!(Quadrant::of(0.0, -1.0), Quadrant::Q4);
        assert_eq!(Quadrant::of(0.0, 0.0), Quadrant::Q1);
    }

    #[test]
    fn quadrant_of_angle_agrees_with_quadrant_of_point() {
        for deg in (-180..180).step_by(7) {
            let a = (deg as f64).to_radians();
            let (x, y) = (a.cos(), a.sin());
            // Skip angles that land exactly on an axis where cos/sin produce
            // tiny non-zero values with ambiguous sign.
            if x.abs() < 1e-12 || y.abs() < 1e-12 {
                continue;
            }
            assert_eq!(Quadrant::of_angle(a), Quadrant::of(x, y), "angle {deg}°");
        }
    }

    #[test]
    fn index_round_trip() {
        for q in Quadrant::ALL {
            assert_eq!(Quadrant::from_index(q.index()), q);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for q in Quadrant::ALL {
            assert_eq!(q.opposite().opposite(), q);
            assert_ne!(q.opposite(), q);
        }
    }

    #[test]
    fn normalize_angle_range() {
        for k in -5..=5 {
            for deg in [-179.0f64, -90.0, 0.0, 45.0, 90.0, 179.0, 180.0] {
                let theta = deg.to_radians() + (k as f64) * 2.0 * PI;
                let n = normalize_angle(theta);
                assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "{theta} → {n}");
                // Same direction.
                assert!((n.sin() - theta.sin()).abs() < 1e-9);
                assert!((n.cos() - theta.cos()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn line_in_exactly_two_quadrants() {
        let lines_in = |dx: f64, dy: f64| -> Vec<Quadrant> {
            Quadrant::ALL
                .into_iter()
                .filter(|q| q.contains_line_direction(dx, dy))
                .collect()
        };
        for deg in (-180..180).step_by(3) {
            let theta = (deg as f64).to_radians();
            let found = lines_in(theta.cos(), theta.sin());
            assert_eq!(
                found.len(),
                2,
                "line at {deg}° should be in exactly 2 quadrants"
            );
            assert_eq!(found[0].opposite(), found[1]);
        }
        // Exact axes, every zero sign, and the degenerate zero direction.
        for (dx, dy, expected) in [
            (1.0, 0.0, Quadrant::Q1),
            (1.0, -0.0, Quadrant::Q1),
            (-1.0, 0.0, Quadrant::Q1),
            (-1.0, -0.0, Quadrant::Q1),
            (0.0, 1.0, Quadrant::Q2),
            (-0.0, 1.0, Quadrant::Q2),
            (0.0, -1.0, Quadrant::Q2),
            (-0.0, -1.0, Quadrant::Q2),
            (0.0, 0.0, Quadrant::Q1),
            (-0.0, -0.0, Quadrant::Q1),
        ] {
            assert_eq!(
                lines_in(dx, dy),
                vec![expected, expected.opposite()],
                "({dx}, {dy})"
            );
        }
    }

    #[test]
    fn line_in_opposite_quadrants() {
        let theta = 30f64.to_radians();
        let (dx, dy) = (theta.cos(), theta.sin());
        assert!(Quadrant::Q1.contains_line_direction(dx, dy));
        assert!(Quadrant::Q3.contains_line_direction(dx, dy));
        assert!(!Quadrant::Q2.contains_line_direction(dx, dy));
        assert!(!Quadrant::Q4.contains_line_direction(dx, dy));
        // The opposite direction is the same line.
        assert!(Quadrant::Q1.contains_line_direction(-dx, -dy));
        assert!(!Quadrant::Q2.contains_line_direction(-dx, -dy));
    }

    #[test]
    fn angle_difference_wraps() {
        assert!(
            (angle_difference(179f64.to_radians(), -179f64.to_radians()) - 2f64.to_radians()).abs()
                < 1e-12
        );
        assert_eq!(angle_difference(1.0, 1.0), 0.0);
    }

    #[test]
    fn ccw_interval_membership() {
        let lo = -0.1;
        let hi = 0.4;
        assert!(angle_in_ccw_interval(0.0, lo, hi));
        assert!(angle_in_ccw_interval(lo, lo, hi));
        assert!(angle_in_ccw_interval(hi, lo, hi));
        assert!(!angle_in_ccw_interval(0.5, lo, hi));
        assert!(!angle_in_ccw_interval(-0.2, lo, hi));
        // Interval crossing the ±π seam.
        assert!(angle_in_ccw_interval(PI, PI - 0.1, -PI + 0.1));
        assert!(!angle_in_ccw_interval(0.0, PI - 0.1, -PI + 0.1));
    }

    #[test]
    fn signs_match_quadrant_membership() {
        for q in Quadrant::ALL {
            let (sx, sy) = q.signs();
            assert_eq!(Quadrant::of(sx, sy), q);
        }
    }
}
