//! Property tests for the theorem machinery itself: the quadrant and octant
//! structures must produce sound deviation bounds for arbitrary point sets
//! and chords — soundness of the upper bound is what carries the error
//! guarantee when a point is admitted without an exact scan.

use bqs::core::bqs3d::{Octant, OctantBounds};
use bqs::core::metrics::DeviationMetric;
use bqs::core::quadrant::QuadrantBounds;
use bqs::core::BoundsMode;
use bqs::geo::{
    convex_hull, hull::point_in_convex_hull, point_to_line_distance, Line3, Point2, Point3,
    Quadrant,
};
use proptest::prelude::*;

fn arbitrary_quadrant() -> impl Strategy<Value = Quadrant> {
    (0usize..4).prop_map(Quadrant::from_index)
}

fn chord_end() -> impl Strategy<Value = Point2> {
    (-3_000.0f64..3_000.0, -3_000.0f64..3_000.0)
        .prop_filter("non-degenerate chord", |(x, y)| x.abs() + y.abs() > 1e-6)
        .prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sound upper bound dominates the brute-force maximum deviation
    /// for every geometry, both metrics.
    #[test]
    fn quadrant_upper_bound_is_sound(
        quadrant in arbitrary_quadrant(),
        end in chord_end(),
        seed_pts in proptest::collection::vec((0.1f64..2_000.0, 0.1f64..2_000.0), 1..40),
    ) {
        let (sx, sy) = quadrant.signs();
        let pts: Vec<Point2> =
            seed_pts.iter().map(|(x, y)| Point2::new(sx * x, sy * y)).collect();
        let mut q = QuadrantBounds::new(quadrant, pts[0]);
        for p in &pts[1..] {
            q.insert(*p);
        }
        for metric in [DeviationMetric::PointToLine, DeviationMetric::PointToSegment] {
            let bounds = q.deviation_bounds(end, metric, BoundsMode::Sound);
            let actual = pts
                .iter()
                .map(|p| metric.distance(*p, Point2::ORIGIN, end))
                .fold(0.0f64, f64::max);
            prop_assert!(
                bounds.upper >= actual - 1e-6,
                "{metric:?}: ub {} < actual {actual}",
                bounds.upper
            );
            prop_assert!(bounds.lower <= bounds.upper + 1e-9);
        }
    }

    /// Coarse (Theorem 5.2) bounds are sound too, and never tighter than
    /// the wedge-clipped upper bound.
    #[test]
    fn coarse_bounds_sound_and_dominated(
        quadrant in arbitrary_quadrant(),
        end in chord_end(),
        seed_pts in proptest::collection::vec((0.1f64..2_000.0, 0.1f64..2_000.0), 1..40),
    ) {
        let (sx, sy) = quadrant.signs();
        let pts: Vec<Point2> =
            seed_pts.iter().map(|(x, y)| Point2::new(sx * x, sy * y)).collect();
        let mut q = QuadrantBounds::new(quadrant, pts[0]);
        for p in &pts[1..] {
            q.insert(*p);
        }
        let metric = DeviationMetric::PointToLine;
        let sound = q.deviation_bounds(end, metric, BoundsMode::Sound);
        let coarse = q.deviation_bounds(end, metric, BoundsMode::CoarseCorners);
        let actual = pts
            .iter()
            .map(|p| point_to_line_distance(*p, Point2::ORIGIN, end))
            .fold(0.0f64, f64::max);
        prop_assert!(coarse.upper >= actual - 1e-6);
        prop_assert!(sound.upper <= coarse.upper + 1e-6,
            "wedge-clipped ub {} looser than box ub {}", sound.upper, coarse.upper);
    }

    /// The ≤9 hull vertices of a quadrant structure really do enclose
    /// every inserted point (the invariant the re-rotation rebuild needs).
    #[test]
    fn hull_vertices_contain_all_points(
        quadrant in arbitrary_quadrant(),
        seed_pts in proptest::collection::vec((0.1f64..2_000.0, 0.1f64..2_000.0), 1..40),
    ) {
        let (sx, sy) = quadrant.signs();
        let pts: Vec<Point2> =
            seed_pts.iter().map(|(x, y)| Point2::new(sx * x, sy * y)).collect();
        let mut q = QuadrantBounds::new(quadrant, pts[0]);
        for p in &pts[1..] {
            q.insert(*p);
        }
        let vertices = q.hull_vertices();
        prop_assert!(vertices.len() <= 9, "{} vertices", vertices.len());
        let hull = convex_hull(&vertices);
        for p in &pts {
            prop_assert!(
                point_in_convex_hull(*p, &hull, 1e-6),
                "point {p:?} escapes the hull {hull:?}"
            );
        }
    }

    /// 3-D: the octant upper bound dominates the brute-force 3-D deviation.
    #[test]
    fn octant_upper_bound_is_sound(
        signs in (0u8..8),
        end in (
            -3_000.0f64..3_000.0,
            -3_000.0f64..3_000.0,
            -3_000.0f64..3_000.0,
        ),
        seed_pts in proptest::collection::vec(
            (0.1f64..1_500.0, 0.1f64..1_500.0, 0.1f64..1_500.0),
            1..25,
        ),
    ) {
        let sx = if signs & 1 == 0 { 1.0 } else { -1.0 };
        let sy = if signs & 2 == 0 { 1.0 } else { -1.0 };
        let sz = if signs & 4 == 0 { 1.0 } else { -1.0 };
        let pts: Vec<Point3> = seed_pts
            .iter()
            .map(|(x, y, z)| Point3::new(sx * x, sy * y, sz * z))
            .collect();
        let end = Point3::new(end.0, end.1, end.2);
        prop_assume!(end.norm() > 1e-6);

        let mut o = OctantBounds::new(Octant::of(pts[0]), pts[0]);
        for p in &pts[1..] {
            o.insert(*p);
        }
        let bounds = o.deviation_bounds(end, BoundsMode::Sound);
        let line = Line3::new(Point3::ORIGIN, end);
        let actual = pts.iter().map(|p| line.distance_to(*p)).fold(0.0f64, f64::max);
        prop_assert!(
            bounds.upper >= actual - 1e-6,
            "3-D ub {} < actual {actual}",
            bounds.upper
        );
        prop_assert!(bounds.lower <= bounds.upper + 1e-9);
    }

    /// Paper-exact Theorem 5.5 upper bound (line outside the quadrant) is
    /// sound — that case reduces to the corner bound, which is provable.
    #[test]
    fn paper_exact_out_of_quadrant_upper_is_sound(
        end_scale in 10.0f64..3_000.0,
        seed_pts in proptest::collection::vec((0.1f64..2_000.0, 0.1f64..2_000.0), 1..40),
    ) {
        // Points in Q1; chord pointing into Q2/Q4 (not in Q1/Q3).
        let pts: Vec<Point2> =
            seed_pts.iter().map(|(x, y)| Point2::new(*x, *y)).collect();
        let end = Point2::new(-end_scale, end_scale * 0.2); // Q2 direction
        let mut q = QuadrantBounds::new(Quadrant::Q1, pts[0]);
        for p in &pts[1..] {
            q.insert(*p);
        }
        let bounds = q.deviation_bounds(end, DeviationMetric::PointToLine, BoundsMode::PaperExact);
        let actual = pts
            .iter()
            .map(|p| point_to_line_distance(*p, Point2::ORIGIN, end))
            .fold(0.0f64, f64::max);
        prop_assert!(bounds.upper >= actual - 1e-6);
    }
}

/// The four axis seams with a negative-zero coordinate: a point on the
/// axis that closes the quadrant, a second point just off it. On the −x
/// seam of Q2 `atan2(-0.0, -50.0)` is −π, which swapped the radians
/// kernel's bounding rays and let every box corner into the wedge; with
/// cross-product ordering there is no seam, so each of these is a thin
/// triangle whose protruding box corner is *not* a hull vertex.
#[test]
fn negative_zero_seams_keep_the_wedge_tight_and_sound() {
    for (quadrant, on_axis, off_axis, protruding) in [
        (
            Quadrant::Q2,
            Point2::new(-50.0, -0.0),
            Point2::new(-60.0, 1.0),
            Point2::new(-50.0, 1.0),
        ),
        (
            Quadrant::Q1,
            Point2::new(50.0, -0.0),
            Point2::new(60.0, 1.0),
            Point2::new(50.0, 1.0),
        ),
        (
            Quadrant::Q1,
            Point2::new(-0.0, 50.0),
            Point2::new(1.0, 60.0),
            Point2::new(1.0, 50.0),
        ),
        (
            Quadrant::Q4,
            Point2::new(-0.0, -50.0),
            Point2::new(1.0, -60.0),
            Point2::new(1.0, -50.0),
        ),
    ] {
        assert_eq!(Quadrant::of(on_axis.x, on_axis.y), quadrant);
        for pts in [[on_axis, off_axis], [off_axis, on_axis]] {
            let mut q = QuadrantBounds::new(quadrant, pts[0]);
            q.insert(pts[1]);

            let (lo, hi) = q.angle_range();
            assert!(
                lo <= hi && hi - lo < 0.02,
                "{quadrant:?}: wedge ({lo}, {hi})"
            );
            let vertices = q.hull_vertices();
            assert!(
                !vertices.contains(&protruding),
                "{quadrant:?}: {protruding:?} is a hull vertex of {vertices:?}"
            );
            let hull = convex_hull(&vertices);
            for p in pts {
                assert!(
                    point_in_convex_hull(p, &hull, 1e-9),
                    "{p:?} escapes {hull:?}"
                );
            }

            // Chords all the way round in 0.05° steps: the bound stays sound,
            // and for the chords the protruding corner would dominate (half
            // a degree off the axis) it is the tighter wedge bound, not the
            // box bound.
            let mut tightest = f64::INFINITY;
            for step in 0..7_200 {
                let a = (f64::from(step) * 0.05).to_radians();
                let end = Point2::new(200.0 * a.cos(), 200.0 * a.sin());
                for metric in [
                    DeviationMetric::PointToLine,
                    DeviationMetric::PointToSegment,
                ] {
                    let sound = q.deviation_bounds(end, metric, BoundsMode::Sound);
                    let coarse = q.deviation_bounds(end, metric, BoundsMode::CoarseCorners);
                    let actual = pts
                        .iter()
                        .map(|p| metric.distance(*p, Point2::ORIGIN, end))
                        .fold(0.0f64, f64::max);
                    assert!(
                        sound.upper >= actual - 1e-9,
                        "{quadrant:?} {metric:?} {end:?}"
                    );
                    assert!(sound.upper <= coarse.upper + 1e-9);
                    tightest = tightest.min(sound.upper - coarse.upper);
                }
            }
            assert!(tightest < -0.05, "{quadrant:?}: never tighter than the box");
        }
    }
}
