//! Axis-aligned rectangles (the BQS bounding boxes).

use crate::line::Line2;
use crate::point::Point2;
use crate::vec2::Vec2;

/// An axis-aligned, possibly degenerate rectangle.
///
/// Inside a BQS quadrant this is the minimum bounding rectangle of the
/// buffered points (paper §V-A step 2); its four vertices `c1..c4` are the
/// corner significant points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x/y corner.
    pub min: Point2,
    /// Largest x/y corner.
    pub max: Point2,
}

impl Rect {
    /// A rectangle containing exactly one point.
    #[inline]
    pub const fn from_point(p: Point2) -> Rect {
        Rect { min: p, max: p }
    }

    /// Builds a rectangle from any two opposite corners.
    #[inline]
    pub fn from_corners(a: Point2, b: Point2) -> Rect {
        Rect {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Minimum bounding rectangle of a point set; `None` when empty.
    pub fn bounding(points: impl IntoIterator<Item = Point2>) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r.expand(p);
        }
        Some(r)
    }

    /// Grows the rectangle to cover `p`.
    #[inline]
    pub fn expand(&mut self, p: Point2) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the rectangle to cover another rectangle.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether the rectangles share any point (boundaries included).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// The four corners in the paper's `c1, c2, c3, c4` order:
    /// counter-clockwise starting from `min` — `(min.x, min.y)`,
    /// `(max.x, min.y)`, `(max.x, max.y)`, `(min.x, max.y)`.
    #[inline]
    pub fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }

    /// Indices into [`Rect::corners`] of the corners nearest to and
    /// farthest from `origin`, as `(nearest, farthest)`. Ties go to the
    /// first strict winner in `c1..c4` order; squared distances only, so no
    /// root is taken.
    pub fn extreme_corner_indices_to(&self, origin: Point2) -> (usize, usize) {
        let d = self.corners().map(|c| origin.distance_sq(c));
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

    /// Distances from the four corners to a line, in corner order.
    #[inline]
    pub fn corner_distances(&self, line: Line2) -> [f64; 4] {
        let cs = self.corners();
        [
            line.distance_to(cs[0]),
            line.distance_to(cs[1]),
            line.distance_to(cs[2]),
            line.distance_to(cs[3]),
        ]
    }

    /// Intersections of the ray `origin + t·dir`, `t ≥ 0`, with the
    /// rectangle boundary. Returns 0, 1 or 2 points ordered by `t`.
    ///
    /// `dir` need not be unit length: the BQS passes the inserted point
    /// that defines an angular bounding line, so locating the significant
    /// points where that line crosses the bounding box takes four
    /// divisions and neither a root nor a trigonometric call. A zero `dir`
    /// degenerates to the point `origin`.
    pub fn ray_intersections(&self, origin: Point2, dir: Vec2) -> RayHits {
        let mut hits = RayHits::default();
        // A component this small against the other runs parallel to its slab.
        let parallel = 1e-15 * dir.x.abs().max(dir.y.abs());

        // Slab method on [min, max] per axis, tracking entry/exit parameters.
        let mut t_min = 0.0f64;
        let mut t_max = f64::INFINITY;
        for (o, d, lo, hi) in [
            (origin.x, dir.x, self.min.x, self.max.x),
            (origin.y, dir.y, self.min.y, self.max.y),
        ] {
            if d.abs() <= parallel {
                if o < lo || o > hi {
                    return hits; // parallel and outside the slab
                }
            } else {
                let (t0, t1) = {
                    let a = (lo - o) / d;
                    let b = (hi - o) / d;
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                };
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                // Allow an ulp-scale overlap so rays grazing a corner or a
                // degenerate (zero-area) rectangle still report the hit.
                if t_min > t_max + 1e-12 * t_min.abs().max(1.0) {
                    return hits;
                }
            }
        }

        let t_max = t_max.max(t_min);
        let at = |t: f64| Point2::new(origin.x + t * dir.x, origin.y + t * dir.y);
        hits.push(at(t_min));
        if (t_max - t_min) > 1e-12 * t_min.abs().max(1.0) && t_max.is_finite() {
            hits.push(at(t_max));
        }
        hits
    }
}

/// Up to two ray/rectangle intersection points, ordered by ray parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RayHits {
    points: [Point2; 2],
    len: u8,
}

impl RayHits {
    #[inline]
    fn push(&mut self, p: Point2) {
        debug_assert!(self.len < 2);
        self.points[self.len as usize] = p;
        self.len += 1;
    }

    /// Number of intersection points (0–2).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the ray misses the rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The intersection points as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Point2] {
        &self.points[..self.len as usize]
    }

    /// Iterates over the intersection points.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Point2> + '_ {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_rect() -> Rect {
        Rect::from_corners(Point2::new(1.0, 1.0), Point2::new(3.0, 2.0))
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point2::new(1.0, 5.0),
            Point2::new(-2.0, 3.0),
            Point2::new(4.0, -1.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r.min, Point2::new(-2.0, -1.0));
        assert_eq!(r.max, Point2::new(4.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn corners_order_is_ccw_from_min() {
        let r = unit_rect();
        let cs = r.corners();
        assert_eq!(cs[0], Point2::new(1.0, 1.0));
        assert_eq!(cs[1], Point2::new(3.0, 1.0));
        assert_eq!(cs[2], Point2::new(3.0, 2.0));
        assert_eq!(cs[3], Point2::new(1.0, 2.0));
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = unit_rect();
        assert!(r.contains(Point2::new(2.0, 1.5)));
        assert!(r.contains(Point2::new(1.0, 1.0)));
        assert!(r.contains(Point2::new(3.0, 2.0)));
        assert!(!r.contains(Point2::new(0.99, 1.5)));
        assert!(!r.contains(Point2::new(2.0, 2.01)));
    }

    #[test]
    fn nearest_farthest_corner_from_origin() {
        let r = unit_rect();
        assert_eq!(r.extreme_corner_indices_to(Point2::ORIGIN), (0, 2));
        // Seen from beyond the max corner the roles swap.
        assert_eq!(r.extreme_corner_indices_to(Point2::new(9.0, 9.0)), (2, 0));
        // A degenerate rectangle ties everywhere: the first corner wins both.
        let dot = Rect::from_point(Point2::new(1.0, 1.0));
        assert_eq!(dot.extreme_corner_indices_to(Point2::ORIGIN), (0, 0));
    }

    #[test]
    fn ray_through_rect_hits_twice() {
        let r = unit_rect();
        // Ray from origin at the angle of the rect centre crosses entry+exit.
        let theta = (1.5f64).atan2(2.0);
        let hits = r.ray_intersections(Point2::ORIGIN, Vec2::from_angle(theta));
        assert_eq!(hits.len(), 2);
        for p in hits.iter() {
            // Hits lie on the boundary.
            let on_x = (p.x - r.min.x).abs() < 1e-9 || (p.x - r.max.x).abs() < 1e-9;
            let on_y = (p.y - r.min.y).abs() < 1e-9 || (p.y - r.max.y).abs() < 1e-9;
            assert!(on_x || on_y, "{p:?} not on boundary");
            assert!(r.contains(Point2::new(
                p.x.clamp(r.min.x, r.max.x),
                p.y.clamp(r.min.y, r.max.y)
            )));
        }
    }

    #[test]
    fn ray_missing_rect() {
        let r = unit_rect();
        let hits = r.ray_intersections(Point2::ORIGIN, Vec2::from_angle(170f64.to_radians()));
        assert!(hits.is_empty());
    }

    #[test]
    fn ray_starting_inside_hits_once_at_exit_or_twice_with_t0_zero() {
        let r = unit_rect();
        let hits = r.ray_intersections(Point2::new(2.0, 1.5), Vec2::from_angle(0.0));
        assert!(!hits.is_empty());
        let last = hits.as_slice()[hits.len() - 1];
        assert!((last.x - 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rect_ray() {
        let r = Rect::from_point(Point2::new(1.0, 1.0));
        let hits = r.ray_intersections(
            Point2::ORIGIN,
            Vec2::from_angle(std::f64::consts::FRAC_PI_4),
        );
        assert_eq!(hits.len(), 1);
        assert!((hits.as_slice()[0].x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ray_direction_need_not_be_unit() {
        let r = unit_rect();
        // Through a boundary point, any positive scale: the same two hits,
        // and the defining point itself comes back exactly.
        let through = Point2::new(3.0, 1.5);
        let unit = r.ray_intersections(Point2::ORIGIN, through.to_vec().normalized().unwrap());
        for scale in [1.0, 1e-6, 1e6] {
            let hits = r.ray_intersections(Point2::ORIGIN, through.to_vec() * scale);
            assert_eq!(hits.len(), 2);
            for (a, b) in hits.iter().zip(unit.iter()) {
                assert!(a.distance(b) < 1e-9, "{a:?} vs {b:?}");
            }
        }
        let exact = r.ray_intersections(Point2::ORIGIN, through.to_vec());
        assert_eq!(exact.as_slice()[1], through);
        // Axis-parallel directions of any length, and the zero direction.
        let along_x = r.ray_intersections(Point2::new(0.0, 1.5), Vec2::new(250.0, 0.0));
        assert_eq!(
            along_x.as_slice(),
            &[Point2::new(1.0, 1.5), Point2::new(3.0, 1.5)]
        );
        let inside = Point2::new(2.0, 1.5);
        assert_eq!(
            r.ray_intersections(inside, Vec2::ZERO).as_slice(),
            &[inside]
        );
        assert!(r.ray_intersections(Point2::ORIGIN, Vec2::ZERO).is_empty());
    }

    #[test]
    fn union_and_intersects() {
        let a = unit_rect();
        let b = Rect::from_corners(Point2::new(2.5, 1.5), Point2::new(5.0, 4.0));
        let c = Rect::from_corners(Point2::new(10.0, 10.0), Point2::new(11.0, 11.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&b);
        assert!(u.contains(a.min) && u.contains(b.max));
    }

    #[test]
    fn geometry_accessors() {
        let r = unit_rect();
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 1.0);
        assert_eq!(r.area(), 2.0);
        assert_eq!(r.center(), Point2::new(2.0, 1.5));
    }
}
