//! End-to-end integration across the workspace: simulate → project →
//! compress on the device model → store → age → reconstruct, with the
//! paper's constraints checked at every joint.

use bqs::core::stream::{compress_all, compress_all_with_stats};
use bqs::core::{BqsCompressor, BqsConfig, FastBqsCompressor};
use bqs::eval::device::{probe_working_set, CamazotzSpec, FlashStorage, GPS_RECORD_BYTES};
use bqs::eval::verify_deviation_bound;
use bqs::geo::proj::TraceProjector;
use bqs::geo::{LocationPoint, TimedPoint};
use bqs::sim::dataset;
use bqs::store::{StoreConfig, TrajectoryStore};

const SEED: u64 = 424242;

#[test]
fn fbqs_constant_memory_on_every_dataset() {
    let spec = CamazotzSpec::paper();
    for trace in [
        dataset::bat_dataset_sized(SEED, 3, 2),
        dataset::vehicle_dataset_sized(SEED, 10),
        dataset::synthetic_dataset_sized(SEED, 8_000),
    ] {
        let report = probe_working_set(BqsConfig::new(10.0).unwrap(), trace.points.clone());
        assert!(
            report.peak_significant_points <= 32,
            "{}: peak {}",
            trace.name,
            report.peak_significant_points
        );
        assert_eq!(report.peak_buffered_points, 0, "{}", trace.name);
        assert!(
            report.fits(&spec),
            "{}: {} B",
            trace.name,
            report.peak_bytes()
        );
    }
}

#[test]
fn error_bound_verified_on_every_dataset_and_algorithm_pair() {
    for trace in [
        dataset::bat_dataset_sized(SEED, 2, 1),
        dataset::vehicle_dataset_sized(SEED, 5),
        dataset::synthetic_dataset_sized(SEED, 5_000),
    ] {
        for tolerance in [5.0, 15.0] {
            let config = BqsConfig::new(tolerance).unwrap();
            for (name, kept) in [
                ("BQS", {
                    let mut c = BqsCompressor::new(config);
                    compress_all(&mut c, trace.points.iter().copied())
                }),
                ("FBQS", {
                    let mut c = FastBqsCompressor::new(config);
                    compress_all(&mut c, trace.points.iter().copied())
                }),
            ] {
                let worst = verify_deviation_bound(
                    &trace.points,
                    &kept,
                    bqs::core::metrics::DeviationMetric::PointToLine,
                )
                .unwrap_or_else(|| panic!("{name} on {}: invalid subsequence", trace.name));
                assert!(
                    worst <= tolerance + 1e-9,
                    "{name} on {} at {tolerance} m: worst {worst}",
                    trace.name
                );
            }
        }
    }
}

#[test]
fn wgs84_codec_projection_round_trip_through_flash() {
    // Simulated fixes around the Brisbane field site, through the 12-byte
    // codec and back, then projected and compressed: the whole device path.
    let fixes: Vec<LocationPoint> = (0..2_000)
        .map(|i| {
            let t = i as f64 * 60.0;
            LocationPoint::new(
                -27.4698 + (i as f64 * 0.00001),
                153.0251 + ((i as f64) * 0.07).sin() * 0.0005,
                t,
            )
        })
        .collect();

    let mut flash = FlashStorage::new(fixes.len() * GPS_RECORD_BYTES + 64);
    for fix in &fixes {
        flash.append(*fix).expect("within budget");
    }
    let recovered = flash.read_all().expect("clean image");
    assert_eq!(recovered.len(), fixes.len());

    let mut projector = TraceProjector::new();
    let points: Vec<TimedPoint> = recovered
        .iter()
        .map(|f| projector.project(*f).expect("valid"))
        .collect();

    // Codec quantisation is ~1 cm; far below any tolerance in play.
    let mut check = TraceProjector::with_zone(projector.zone().unwrap());
    for (orig, rec) in fixes.iter().zip(points.iter()) {
        let orig_pt = check.project(*orig).unwrap();
        assert!(orig_pt.pos.distance(rec.pos) < 0.05);
    }

    let tolerance = 10.0;
    let mut fbqs = FastBqsCompressor::new(BqsConfig::new(tolerance).unwrap());
    let kept = compress_all(&mut fbqs, points.iter().copied());
    assert!(kept.len() < points.len() / 4, "kept {}", kept.len());
    let worst = verify_deviation_bound(
        &points,
        &kept,
        bqs::core::metrics::DeviationMetric::PointToLine,
    )
    .expect("valid subsequence");
    assert!(worst <= tolerance + 1e-9);
}

#[test]
fn store_ageing_preserves_composite_error_bound() {
    // Compress a raw trace at d1, age the store at d2: the aged trajectory
    // must stay within d1 + d2 of the ORIGINAL raw points.
    let trace = dataset::synthetic_dataset_sized(SEED, 4_000);
    let d1 = 8.0;
    let d2 = 24.0;

    let mut bqs = BqsCompressor::new(BqsConfig::new(d1).unwrap());
    let kept = compress_all(&mut bqs, trace.points.iter().copied());

    let store = TrajectoryStore::new(StoreConfig::default());
    store.insert_compressed(&kept, d1);
    store.age(d2);

    // Pull the aged key points back out via a full-extent query and check
    // the composite bound against the raw trace.
    let bb = trace.bounding_box().unwrap();
    let segments = store.query_rect(&bb);
    assert!(!segments.is_empty());

    // Reconstruct the aged key sequence from the segment chain.
    let mut aged_keys: Vec<TimedPoint> = segments.iter().map(|s| s.start).collect();
    aged_keys.push(segments.last().unwrap().end);
    aged_keys.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
    aged_keys.dedup_by(|a, b| a.t == b.t);

    let worst = verify_deviation_bound(
        &trace.points,
        &aged_keys,
        bqs::core::metrics::DeviationMetric::PointToLine,
    )
    .expect("aged keys remain an anchored subsequence of the raw trace");
    assert!(
        worst <= d1 + d2 + 1e-9,
        "composite deviation {worst} > {d1} + {d2}"
    );
}

#[test]
fn reconstruction_error_is_bounded_at_key_timestamps() {
    let trace = dataset::vehicle_dataset_sized(SEED, 4);
    let tolerance = 12.0;
    let mut bqs = BqsCompressor::new(BqsConfig::new(tolerance).unwrap());
    let kept = compress_all(&mut bqs, trace.points.iter().copied());

    let r = bqs::core::reconstruct::Reconstructor::uniform(kept.clone()).unwrap();
    // At every key timestamp the reconstruction is exact.
    for k in &kept {
        assert!(r.at(k.t).pos.distance(k.pos) < 1e-9);
    }
    // Between keys it lies on the chord, i.e. within the spatial tolerance
    // of the original *path shape* (not of the original point at that time
    // — the uniform progress model is a temporal approximation, as §IV
    // discusses).
    for w in kept.windows(2) {
        let mid_t = (w[0].t + w[1].t) / 2.0;
        let p = r.at(mid_t).pos;
        let on_chord = bqs::geo::point_to_segment_distance(p, w[0].pos, w[1].pos);
        assert!(on_chord < 1e-9);
    }
}

#[test]
fn fbqs_dominates_bqs_point_count_in_aggregate() {
    // The paper's "slightly more points" claim, checked across the three
    // datasets and two tolerances (sum, not per instance).
    let mut bqs_total = 0usize;
    let mut fbqs_total = 0usize;
    for trace in [
        dataset::bat_dataset_sized(SEED, 2, 1),
        dataset::vehicle_dataset_sized(SEED, 5),
        dataset::synthetic_dataset_sized(SEED, 5_000),
    ] {
        for tolerance in [5.0, 15.0] {
            let config = BqsConfig::new(tolerance).unwrap();
            let mut b = BqsCompressor::new(config);
            bqs_total += compress_all(&mut b, trace.points.iter().copied()).len();
            let mut f = FastBqsCompressor::new(config);
            fbqs_total += compress_all(&mut f, trace.points.iter().copied()).len();
        }
    }
    assert!(
        fbqs_total >= bqs_total,
        "aggregate FBQS {fbqs_total} < BQS {bqs_total}"
    );
    assert!(
        (fbqs_total as f64) < (bqs_total as f64) * 1.6,
        "FBQS overhead {fbqs_total}/{bqs_total} far above the paper's ~10%"
    );
}

#[test]
fn decision_stats_are_internally_consistent() {
    let trace = dataset::bat_dataset_sized(SEED, 2, 1);
    let mut bqs = BqsCompressor::new(BqsConfig::new(8.0).unwrap());
    let (kept, stats) = compress_all_with_stats(&mut bqs, trace.points.iter().copied());

    assert_eq!(stats.points as usize, trace.len());
    // Every push lands in exactly one decision bucket.
    assert_eq!(
        stats.trivial + stats.by_bounds + stats.full_scans + stats.warmup_scans,
        stats.points
    );
    assert_eq!(
        stats.aggressive_cuts, 0,
        "buffered BQS never cuts aggressively"
    );
    // Segments and kept points line up: first point + one per cut + final.
    assert_eq!(kept.len() as u64, stats.segments + 1);
    assert!(stats.pruning_power() <= 1.0 && stats.pruning_power() >= 0.0);
}
