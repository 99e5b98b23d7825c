//! Property test pinning down the quantized codec's error contract: for
//! *arbitrary* in-range inputs, the round-trip error is at most half a
//! grid cell — `0.5 / xy_scale` per coordinate and `0.5 / t_scale` per
//! timestamp (up to one part in 10⁸ of floating-point slack from the
//! `v * scale` product). This is the 1 mm-grid guarantee
//! (`CodecProfile::millimetre`, `scale = 1000`) whose bytes per point
//! the codec's vehicle-data unit tests budget against; here it is
//! proved, not claimed, across scales from decimetre to 0.1 mm grids.

use bqs_geo::TimedPoint;
use bqs_tlog::codec::{decode_to_vec, encode_to_vec_with, CodecProfile};
use proptest::prelude::*;

/// The contract: half a cell, plus floating-point slack proportional to
/// the cell size (the `v * scale` product and the `k / scale` dequant
/// each round once; coordinates are bounded by 1e7 m, so the slack is
/// orders of magnitude below the half-cell term).
fn bound(scale: f64) -> f64 {
    0.5 / scale + 1e-8 / scale.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quantized_round_trip_error_is_at_most_half_a_cell(
        raw in proptest::collection::vec(
            // x, y anywhere in a ±10 000 km frame; dt keeps time
            // monotone (equal timestamps included).
            (-1e7f64..1e7, -1e7f64..1e7, 0.0f64..1e4),
            1..120,
        ),
        t0 in -1e6f64..1e6,
        scale_pick in 0usize..4,
        t_scale_pick in 0usize..4,
    ) {
        let scales = [10.0, 100.0, 1_000.0, 10_000.0];
        let (xy_scale, t_scale) = (scales[scale_pick], scales[t_scale_pick]);
        let profile = CodecProfile::Quantized { xy_scale, t_scale };

        let mut t = t0;
        let points: Vec<TimedPoint> = raw
            .iter()
            .map(|&(x, y, dt)| {
                t += dt;
                TimedPoint::new(x, y, t)
            })
            .collect();

        let bytes = encode_to_vec_with(profile, &points).expect("in-range input encodes");
        let decoded = decode_to_vec(&bytes).expect("decode");
        prop_assert_eq!(decoded.len(), points.len());

        let (xy_bound, t_bound) = (bound(xy_scale), bound(t_scale));
        for (i, (a, b)) in points.iter().zip(&decoded).enumerate() {
            prop_assert!(
                (a.pos.x - b.pos.x).abs() <= xy_bound,
                "x[{}]: {} vs {} exceeds {} (scale {})",
                i, a.pos.x, b.pos.x, xy_bound, xy_scale
            );
            prop_assert!(
                (a.pos.y - b.pos.y).abs() <= xy_bound,
                "y[{}]: {} vs {} exceeds {} (scale {})",
                i, a.pos.y, b.pos.y, xy_bound, xy_scale
            );
            prop_assert!(
                (a.t - b.t).abs() <= t_bound,
                "t[{}]: {} vs {} exceeds {} (scale {})",
                i, a.t, b.t, t_bound, t_scale
            );
        }

        // Decoded timestamps stay monotone — querying and reconstruction
        // rely on it surviving quantisation.
        prop_assert!(decoded.windows(2).all(|w| w[1].t >= w[0].t));

        // And the decoded stream is a fixed point: re-encoding loses
        // nothing further.
        let again = decode_to_vec(
            &encode_to_vec_with(profile, &decoded).expect("re-encode"),
        )
        .expect("re-decode");
        prop_assert_eq!(again, decoded);
    }

    /// The default millimetre profile specifically: the documented 1 mm
    /// grid keeps every coordinate within 0.5 mm.
    #[test]
    fn millimetre_profile_is_within_half_a_millimetre(
        raw in proptest::collection::vec(
            (-50_000.0f64..50_000.0, -50_000.0f64..50_000.0, 0.0f64..600.0),
            1..100,
        ),
    ) {
        let mut t = 0.0;
        let points: Vec<TimedPoint> = raw
            .iter()
            .map(|&(x, y, dt)| {
                t += dt;
                TimedPoint::new(x, y, t)
            })
            .collect();
        let bytes =
            encode_to_vec_with(CodecProfile::millimetre(), &points).expect("encode");
        let decoded = decode_to_vec(&bytes).expect("decode");
        for (a, b) in points.iter().zip(&decoded) {
            prop_assert!((a.pos.x - b.pos.x).abs() <= 0.5e-3 + 1e-11);
            prop_assert!((a.pos.y - b.pos.y).abs() <= 0.5e-3 + 1e-11);
            prop_assert!((a.t - b.t).abs() <= 0.5e-3 + 1e-11);
        }
    }
}
