//! Axis-aligned 3-D boxes ("bounding right rectangular prisms", paper §V-G).

use crate::line::Line3;
use crate::point::Point3;

/// An axis-aligned rectangular prism; the 3-D analogue of [`crate::Rect`]
/// used by the 3-D BQS to bound the buffered points of one octant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prism {
    /// Smallest corner.
    pub min: Point3,
    /// Largest corner.
    pub max: Point3,
}

impl Prism {
    /// A prism containing exactly one point.
    #[inline]
    pub const fn from_point(p: Point3) -> Prism {
        Prism { min: p, max: p }
    }

    /// Builds a prism from two opposite corners in any order.
    #[inline]
    pub fn from_corners(a: Point3, b: Point3) -> Prism {
        Prism {
            min: Point3::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: Point3::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Minimum bounding prism of a point set; `None` when empty.
    pub fn bounding(points: impl IntoIterator<Item = Point3>) -> Option<Prism> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Prism::from_point(first);
        for p in it {
            b.expand(p);
        }
        Some(b)
    }

    /// Grows the prism to cover `p`.
    #[inline]
    pub fn expand(&mut self, p: Point3) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.min.z = self.min.z.min(p.z);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
        self.max.z = self.max.z.max(p.z);
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The eight corners; index bit 0 selects x (0 = min), bit 1 selects y,
    /// bit 2 selects z.
    pub fn corners(&self) -> [Point3; 8] {
        let mut out = [Point3::ORIGIN; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Point3::new(
                if i & 1 == 0 { self.min.x } else { self.max.x },
                if i & 2 == 0 { self.min.y } else { self.max.y },
                if i & 4 == 0 { self.min.z } else { self.max.z },
            );
        }
        out
    }

    /// The twelve edges as corner-index pairs into [`Prism::corners`].
    pub const EDGES: [(usize, usize); 12] = [
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7), // x-aligned
        (0, 2),
        (1, 3),
        (4, 6),
        (5, 7), // y-aligned
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7), // z-aligned
    ];

    /// Corner farthest from `origin`.
    pub fn farthest_corner_to(&self, origin: Point3) -> Point3 {
        let mut best = self.min;
        let mut best_d = origin.distance_sq(best);
        for c in self.corners().into_iter().skip(1) {
            let d = origin.distance_sq(c);
            if d > best_d {
                best = c;
                best_d = d;
            }
        }
        best
    }

    /// Corner nearest to `origin`.
    pub fn nearest_corner_to(&self, origin: Point3) -> Point3 {
        let mut best = self.min;
        let mut best_d = origin.distance_sq(best);
        for c in self.corners().into_iter().skip(1) {
            let d = origin.distance_sq(c);
            if d < best_d {
                best = c;
                best_d = d;
            }
        }
        best
    }

    /// Maximum distance from any corner to a 3-D line — a coarse upper bound
    /// on the deviation of any contained point (3-D analogue of Theorem 5.2's
    /// upper bound).
    pub fn max_corner_distance(&self, line: Line3) -> f64 {
        self.corners()
            .into_iter()
            .map(|c| line.distance_to(c))
            .fold(0.0, f64::max)
    }

    /// Clips an infinite line `p + t·dir` against the prism (3-D slab
    /// method). Returns the entry and exit points, or `None` when the line
    /// misses. Degenerate (point-thick) prisms are handled with an
    /// ulp-scale overlap allowance.
    pub fn clip_line(&self, p: Point3, dir: Point3) -> Option<(Point3, Point3)> {
        let mut t_min = f64::NEG_INFINITY;
        let mut t_max = f64::INFINITY;
        for (o, d, lo, hi) in [
            (p.x, dir.x, self.min.x, self.max.x),
            (p.y, dir.y, self.min.y, self.max.y),
            (p.z, dir.z, self.min.z, self.max.z),
        ] {
            if d.abs() < 1e-15 {
                if o < lo - 1e-9 || o > hi + 1e-9 {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (t0, t1) = {
                    let a = (lo - o) * inv;
                    let b = (hi - o) * inv;
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                };
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max + 1e-12 * t_min.abs().max(1.0) {
                    return None;
                }
            }
        }
        if !t_min.is_finite() || !t_max.is_finite() {
            return None;
        }
        let at = |t: f64| p.add(dir.scale(t));
        Some((at(t_min), at(t_max.max(t_min))))
    }

    /// Volume (zero when degenerate).
    #[inline]
    pub fn volume(&self) -> f64 {
        (self.max.x - self.min.x) * (self.max.y - self.min.y) * (self.max.z - self.min.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prism() -> Prism {
        Prism::from_corners(Point3::new(1.0, 2.0, 3.0), Point3::new(4.0, 6.0, 8.0))
    }

    #[test]
    fn corners_cover_extremes() {
        let p = prism();
        let cs = p.corners();
        assert!(cs.contains(&p.min));
        assert!(cs.contains(&p.max));
        assert_eq!(cs.len(), 8);
        for c in cs {
            assert!(p.contains(c));
        }
    }

    #[test]
    fn edges_have_unit_axis_direction() {
        let p = prism();
        let cs = p.corners();
        for (a, b) in Prism::EDGES {
            let d = cs[b].sub(cs[a]);
            let nonzero = (d.x != 0.0) as u8 + (d.y != 0.0) as u8 + (d.z != 0.0) as u8;
            assert_eq!(nonzero, 1, "edge ({a},{b}) must be axis-aligned");
        }
    }

    #[test]
    fn bounding_and_expand() {
        let pts = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(-1.0, 5.0, 2.0),
            Point3::new(3.0, -2.0, 7.0),
        ];
        let b = Prism::bounding(pts).unwrap();
        assert_eq!(b.min, Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max, Point3::new(3.0, 5.0, 7.0));
        for p in pts {
            assert!(b.contains(p));
        }
        assert!(Prism::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn nearest_farthest_corner() {
        let p = prism();
        assert_eq!(p.nearest_corner_to(Point3::ORIGIN), p.min);
        assert_eq!(p.farthest_corner_to(Point3::ORIGIN), p.max);
    }

    #[test]
    fn max_corner_distance_bounds_content() {
        let p = prism();
        let line = Line3::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
        let bound = p.max_corner_distance(line);
        // Sample grid points inside, all must be within the corner bound.
        for i in 0..=4 {
            for j in 0..=4 {
                for k in 0..=4 {
                    let q = Point3::new(
                        p.min.x + (p.max.x - p.min.x) * i as f64 / 4.0,
                        p.min.y + (p.max.y - p.min.y) * j as f64 / 4.0,
                        p.min.z + (p.max.z - p.min.z) * k as f64 / 4.0,
                    );
                    assert!(line.distance_to(q) <= bound + 1e-9);
                }
            }
        }
    }

    #[test]
    fn volume() {
        assert_eq!(prism().volume(), 3.0 * 4.0 * 5.0);
        assert_eq!(Prism::from_point(Point3::ORIGIN).volume(), 0.0);
    }
}
