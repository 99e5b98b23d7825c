//! 4-D points, lines and hyperboxes — the substrate for the 4-D BQS the
//! paper proposes as future work (§VII: "Exploring the potential of a 4-D
//! BQS"), where a sample is `⟨x, y, altitude, scaled time⟩`.

/// A point in 4-space: planar position, altitude, and (scaled) time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point4 {
    /// Easting, metres.
    pub x: f64,
    /// Northing, metres.
    pub y: f64,
    /// Altitude, metres.
    pub z: f64,
    /// Fourth axis — usually timestamp × (metres per second of error
    /// budget).
    pub w: f64,
}

impl Point4 {
    /// The origin.
    pub const ORIGIN: Point4 = Point4 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
        w: 0.0,
    };

    /// Creates a point from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64, w: f64) -> Point4 {
        Point4 { x, y, z, w }
    }

    /// Component-wise subtraction. Named method rather than `impl Sub` to
    /// keep point-vs-displacement usage explicit at call sites.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn sub(self, rhs: Point4) -> Point4 {
        Point4::new(
            self.x - rhs.x,
            self.y - rhs.y,
            self.z - rhs.z,
            self.w - rhs.w,
        )
    }

    /// Component-wise addition.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, rhs: Point4) -> Point4 {
        Point4::new(
            self.x + rhs.x,
            self.y + rhs.y,
            self.z + rhs.z,
            self.w + rhs.w,
        )
    }

    /// Scales all components.
    #[inline]
    pub fn scale(self, s: f64) -> Point4 {
        Point4::new(self.x * s, self.y * s, self.z * s, self.w * s)
    }

    /// Dot product (as displacement vectors).
    #[inline]
    pub fn dot(self, rhs: Point4) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z + self.w * rhs.w
    }

    /// Euclidean norm (as a displacement vector).
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Point4) -> f64 {
        self.sub(rhs).norm()
    }

    /// The component by axis index 0–3.
    #[inline]
    pub fn component(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => self.w,
        }
    }
}

/// An infinite line in 4-space through two anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line4 {
    /// First anchor.
    pub a: Point4,
    /// Second anchor.
    pub b: Point4,
}

impl Line4 {
    /// Creates a 4-D line.
    #[inline]
    pub const fn new(a: Point4, b: Point4) -> Line4 {
        Line4 { a, b }
    }

    /// Distance from `p` to this line (point distance to `a` when the
    /// anchors coincide). Computed via the projection residual — no cross
    /// product exists in 4-D.
    pub fn distance_to(self, p: Point4) -> f64 {
        let d = self.b.sub(self.a);
        let len_sq = d.dot(d);
        if len_sq <= f64::EPSILON * f64::EPSILON {
            return p.distance(self.a);
        }
        let v = p.sub(self.a);
        let t = v.dot(d) / len_sq;
        v.sub(d.scale(t)).norm()
    }
}

/// An axis-aligned 4-D box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Box4 {
    /// Smallest corner.
    pub min: Point4,
    /// Largest corner.
    pub max: Point4,
}

impl Box4 {
    /// A box containing exactly one point.
    #[inline]
    pub const fn from_point(p: Point4) -> Box4 {
        Box4 { min: p, max: p }
    }

    /// Grows the box to cover `p`.
    pub fn expand(&mut self, p: Point4) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.min.z = self.min.z.min(p.z);
        self.min.w = self.min.w.min(p.w);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
        self.max.z = self.max.z.max(p.z);
        self.max.w = self.max.w.max(p.w);
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point4) -> bool {
        (0..4).all(|axis| {
            let v = p.component(axis);
            v >= self.min.component(axis) && v <= self.max.component(axis)
        })
    }

    /// The sixteen corners; bit `k` of the index selects axis `k`'s max.
    pub fn corners(&self) -> [Point4; 16] {
        let mut out = [Point4::ORIGIN; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Point4::new(
                if i & 1 == 0 { self.min.x } else { self.max.x },
                if i & 2 == 0 { self.min.y } else { self.max.y },
                if i & 4 == 0 { self.min.z } else { self.max.z },
                if i & 8 == 0 { self.min.w } else { self.max.w },
            );
        }
        out
    }

    /// Minimum and maximum corner distance to a 4-D line — sound deviation
    /// bounds for every contained point (the Theorem 5.2 analogue; distance
    /// to a line is convex, so the max over a box is attained at a corner).
    pub fn corner_distance_bounds(&self, line: Line4) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for c in self.corners() {
            let d = line.distance_to(c);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line4_distance_reduces_to_3d() {
        // Line along x; point offset in y/z: classic 3-4-5.
        let l = Line4::new(Point4::ORIGIN, Point4::new(10.0, 0.0, 0.0, 0.0));
        assert!((l.distance_to(Point4::new(5.0, 3.0, 4.0, 0.0)) - 5.0).abs() < 1e-12);
        assert_eq!(l.distance_to(Point4::new(7.0, 0.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn line4_degenerate() {
        let p = Point4::new(1.0, 1.0, 1.0, 1.0);
        let l = Line4::new(p, p);
        assert_eq!(l.distance_to(Point4::new(1.0, 1.0, 1.0, 3.0)), 2.0);
    }

    #[test]
    fn line4_uses_all_four_axes() {
        let l = Line4::new(Point4::ORIGIN, Point4::new(1.0, 0.0, 0.0, 0.0));
        let d = l.distance_to(Point4::new(0.0, 1.0, 1.0, 1.0));
        assert!((d - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn box4_corners_and_containment() {
        let mut b = Box4::from_point(Point4::new(0.0, 0.0, 0.0, 0.0));
        b.expand(Point4::new(1.0, 2.0, 3.0, 4.0));
        let cs = b.corners();
        assert_eq!(cs.len(), 16);
        for c in cs {
            assert!(b.contains(c));
        }
        assert!(b.contains(Point4::new(0.5, 1.0, 1.5, 2.0)));
        assert!(!b.contains(Point4::new(1.5, 1.0, 1.5, 2.0)));
    }

    #[test]
    fn corner_bounds_dominate_grid_samples() {
        let mut b = Box4::from_point(Point4::new(1.0, 2.0, 3.0, 4.0));
        b.expand(Point4::new(4.0, 5.0, 7.0, 6.0));
        let line = Line4::new(Point4::ORIGIN, Point4::new(1.0, 1.0, 1.0, 1.0));
        let (lo, hi) = b.corner_distance_bounds(line);
        assert!(lo <= hi);
        for i in 0..=3 {
            for j in 0..=3 {
                let p = Point4::new(
                    1.0 + 3.0 * i as f64 / 3.0,
                    2.0 + 3.0 * j as f64 / 3.0,
                    3.0 + 4.0 * (i as f64) / 3.0,
                    4.0 + 2.0 * (j as f64) / 3.0,
                );
                assert!(line.distance_to(p) <= hi + 1e-9);
            }
        }
    }
}
