//! Durability properties of the trajectory log, end to end:
//!
//! 1. codec round-trips are bit-lossless for arbitrary point streams
//!    (positions may be *any* bit pattern, timestamps any finite
//!    non-decreasing sequence), and backwards timestamps are rejected
//!    with a typed error;
//! 2. a torn tail — the file cut at any byte — loses at most the
//!    partially-written record: every fully-written record survives
//!    recovery, and the repaired log verifies clean;
//! 3. the acceptance scenario: a fleet run with spill-on-evict can be
//!    queried back from a reopened log byte-identical to solo
//!    compression of each session, including after a simulated crash
//!    (torn final record) and a compaction pass.

use bqs_core::fleet::{FleetConfig, FleetEngine, TrackId};
use bqs_core::stream::compress_all;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::TimedPoint;
use bqs_tlog::codec::{self, CodecError};
use bqs_tlog::{verify_dir, LogConfig, SpillSink, TimeRange, TrajectoryLog};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bqs-tlog-tests")
        .join(format!("durability-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a stream with arbitrary position bit patterns and finite
/// non-decreasing timestamps from raw generator output.
fn stream_from(raw: Vec<(u64, u64, f64)>) -> Vec<TimedPoint> {
    let mut t = -500.0f64;
    raw.into_iter()
        .map(|(xb, yb, dt)| {
            t += dt; // dt ≥ 0 keeps the stream monotone
            TimedPoint::at(
                bqs_geo::Point2::new(f64::from_bits(xb), f64::from_bits(yb)),
                t,
            )
        })
        .collect()
}

fn bits_eq(a: &TimedPoint, b: &TimedPoint) -> bool {
    a.pos.x.to_bits() == b.pos.x.to_bits()
        && a.pos.y.to_bits() == b.pos.y.to_bits()
        && a.t.to_bits() == b.t.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trip_is_lossless_for_arbitrary_streams(
        raw in proptest::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0.0f64..3_600.0),
            0..200,
        )
    ) {
        let points = stream_from(raw);
        let bytes = codec::encode_to_vec(&points).expect("finite monotone timestamps encode");
        let back = codec::decode_to_vec(&bytes).expect("decode");
        prop_assert_eq!(back.len(), points.len());
        for (a, b) in points.iter().zip(&back) {
            prop_assert!(bits_eq(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn codec_rejects_backwards_timestamps_anywhere(
        raw in proptest::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0.0f64..100.0),
            2..100,
        ),
        flip in 1usize..99,
        step in 0.001f64..1_000.0,
    ) {
        let mut points = stream_from(raw);
        prop_assume!(flip < points.len());
        // Push one timestamp strictly below its predecessor.
        points[flip].t = points[flip - 1].t - step;
        let index = flip;
        match codec::encode_to_vec(&points) {
            Err(CodecError::NonMonotonicTimestamps { index: got, .. }) => {
                prop_assert_eq!(got, index);
            }
            other => prop_assert!(false, "expected typed rejection, got {:?}", other),
        }
    }

    #[test]
    fn quantized_round_trip_error_is_bounded(
        raw in proptest::collection::vec(
            (-1.0e9f64..1.0e9, -1.0e9f64..1.0e9, 0.0f64..3_600.0),
            1..100,
        )
    ) {
        let mut t = 0.0;
        let points: Vec<TimedPoint> = raw
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                TimedPoint::new(x, y, t)
            })
            .collect();
        let profile = codec::CodecProfile::millimetre();
        let bytes = codec::encode_to_vec_with(profile, &points).expect("values fit a mm grid");
        let back = codec::decode_to_vec(&bytes).expect("decode");
        prop_assert_eq!(back.len(), points.len());
        for (a, b) in points.iter().zip(&back) {
            prop_assert!((a.pos.x - b.pos.x).abs() <= 0.5e-3 * (1.0 + a.pos.x.abs() * 1e-9));
            prop_assert!((a.pos.y - b.pos.y).abs() <= 0.5e-3 * (1.0 + a.pos.y.abs() * 1e-9));
            prop_assert!((a.t - b.t).abs() <= 0.5e-3 * (1.0 + a.t.abs() * 1e-9));
        }
    }
}

fn lcg_pos(s: &mut u64) -> f64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 33) % 100_000) as f64 / 50.0 - 1_000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved live appends + late backfill batches, shut down and
    /// reopened, answer `query_time_range`/`query_bbox` exactly like the
    /// same data ingested fully in order — including durable-wins dedup
    /// when a backfill batch re-sends live timestamps with different
    /// positions (the in-order copy must survive).
    #[test]
    fn backfill_reopen_equals_in_order_ingest(
        seed in 0u64..1_000_000,
        n_live in 10usize..120,
        n_old in 1usize..60,
        dup_every in 2usize..10,
    ) {
        let mut s = seed | 1;
        // The "offline" portion: old fixes the tracker buffered…
        let old: Vec<TimedPoint> = (0..n_old)
            .map(|i| TimedPoint::new(lcg_pos(&mut s), lcg_pos(&mut s), i as f64 * 5.0))
            .collect();
        // …and the live portion it sends after reconnecting.
        let live: Vec<TimedPoint> = (0..n_live)
            .map(|i| TimedPoint::new(lcg_pos(&mut s), lcg_pos(&mut s), 10_000.0 + i as f64 * 5.0))
            .collect();
        // Backfill duplicates of some live timestamps, with *different*
        // positions: dedup must keep the live copy.
        let dups: Vec<TimedPoint> = live
            .iter()
            .step_by(dup_every)
            .map(|p| TimedPoint::new(p.pos.x + 5_000.0, p.pos.y, p.t))
            .collect();

        let track = 3u64;
        let dir_a = temp_dir(&format!("bf-mixed-{seed}-{n_live}-{n_old}-{dup_every}"));
        {
            let (mut log, _) = TrajectoryLog::open(&dir_a, LogConfig::default()).unwrap();
            // Live batches interleaved with backfill batches.
            let third = (n_live / 3).max(1).min(n_live);
            let two_thirds = (2 * n_live / 3).max(third);
            log.append(track, &live[..third]).unwrap();
            let split = n_old / 2;
            if split > 0 {
                log.append_backfill(track, &old[..split]).unwrap();
            }
            if two_thirds > third {
                log.append(track, &live[third..two_thirds]).unwrap();
            }
            log.append_backfill(track, &old[split..]).unwrap();
            log.append_backfill(track, &dups).unwrap();
            if n_live > two_thirds {
                log.append(track, &live[two_thirds..]).unwrap();
            }
        } // shutdown

        // Reference: the union ingested fully in order (dups lose, so
        // the union is just old ++ live).
        let mut expected = old.clone();
        expected.extend_from_slice(&live);
        let dir_b = temp_dir(&format!("bf-ref-{seed}-{n_live}-{n_old}-{dup_every}"));
        {
            let (mut log, _) = TrajectoryLog::open(&dir_b, LogConfig::default()).unwrap();
            log.append(track, &expected).unwrap();
        }

        let (log_a, _) = TrajectoryLog::open(&dir_a, LogConfig::default()).unwrap();
        let (log_b, _) = TrajectoryLog::open(&dir_b, LogConfig::default()).unwrap();
        let range = TimeRange::new(2.0, 10_000.0 + n_live as f64 * 4.0);
        let got = log_a.query_time_range(Some(track), range).unwrap();
        let want = log_b.query_time_range(Some(track), range).unwrap();
        prop_assert_eq!(&got.slices, &want.slices);

        let area = bqs_geo::Rect::from_corners(
            bqs_geo::Point2::new(-600.0, -1_000.0),
            bqs_geo::Point2::new(700.0, 350.0),
        );
        let got = log_a.query_bbox(Some(track), area, None).unwrap();
        let want = log_b.query_bbox(Some(track), area, None).unwrap();
        prop_assert_eq!(&got.slices, &want.slices);

        // Full reads agree bit for bit, and both logs verify clean.
        let a = log_a.read_track(track).unwrap();
        prop_assert_eq!(a.len(), expected.len());
        for (x, y) in expected.iter().zip(&a) {
            prop_assert!(bits_eq(x, y), "{x:?} vs {y:?}");
        }
        verify_dir(&dir_a).unwrap();
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// Crash-truncation sweep over a mixed live/backfill segment: cutting
/// the file at *every* byte offset of (and after) a backfill record
/// still recovers — each record is intact or gone, the merged read
/// reflects exactly the surviving records, and the repaired log
/// verifies clean.
#[test]
fn backfill_record_truncation_recovers_at_every_cut() {
    let dir = temp_dir("bf-cut-sweep");
    let live1 = wave(1, 30);
    let old: Vec<TimedPoint> = (0..20)
        .map(|i| TimedPoint::new(i as f64 * 2.0, -5.0, -1_000.0 + i as f64))
        .collect();
    let live2 = wave(2, 25);

    let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    log.append(1, &live1).unwrap();
    let bf_receipt = log.append_backfill(1, &old).unwrap();
    let live2_receipt = log.append(2, &live2).unwrap();
    let seg_path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "tlg"))
        .unwrap();
    let pristine = std::fs::read(&seg_path).unwrap();
    drop(log);

    let bf_end = bf_receipt.offset + bf_receipt.bytes;
    let live2_end = live2_receipt.offset + live2_receipt.bytes;
    let mut merged = old.clone();
    merged.extend_from_slice(&live1);

    for cut in bf_receipt.offset..pristine.len() as u64 {
        std::fs::write(&seg_path, &pristine).unwrap();
        let f = OpenOptions::new().write(true).open(&seg_path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (log, report) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let track1 = log.read_track(1).unwrap();
        if cut >= bf_end {
            assert_eq!(track1, merged, "cut at {cut}: backfill record survives");
        } else {
            assert_eq!(track1, live1, "cut at {cut}: torn backfill dropped");
        }
        let track2 = log.read_track(2).unwrap();
        if cut >= live2_end {
            assert_eq!(track2, live2, "cut at {cut}");
        } else {
            assert!(track2.is_empty(), "cut at {cut}");
        }
        let on_boundary = cut == bf_receipt.offset || cut == bf_end || cut == live2_end;
        assert_eq!(
            report.truncated_segments,
            usize::from(!on_boundary),
            "cut at {cut}: {report:?}"
        );
        drop(log);
        verify_dir(&dir).unwrap();
    }
}

/// Deterministic sweep: cut the segment file at *every* byte offset past
/// the header and check that recovery keeps exactly the fully-written
/// records (a proptest over cut positions would sample; the full sweep
/// is cheap enough to be exhaustive).
#[test]
fn recovery_after_any_truncation_preserves_full_records() {
    let dir = temp_dir("cut-sweep");
    let batches: Vec<Vec<TimedPoint>> = (0..4)
        .map(|b| {
            (0..30)
                .map(|i| {
                    let a = (b * 30 + i) as f64;
                    TimedPoint::new(a * 3.0, (a * 0.4).sin() * 20.0, a * 5.0)
                })
                .collect()
        })
        .collect();

    // Write once to learn the record boundaries.
    let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    let mut boundaries = Vec::new(); // file offset at which record k ends
    for (b, batch) in batches.iter().enumerate() {
        let receipt = log.append(b as TrackId, batch).unwrap();
        boundaries.push(receipt.offset + receipt.bytes);
    }
    let seg_path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "tlg"))
        .unwrap();
    let pristine = std::fs::read(&seg_path).unwrap();
    drop(log);

    let header_len = 8u64;
    for cut in header_len..pristine.len() as u64 {
        std::fs::write(&seg_path, &pristine).unwrap();
        let f = OpenOptions::new().write(true).open(&seg_path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (log, report) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let expect_full = boundaries.iter().filter(|&&end| end <= cut).count();
        let mut recovered = 0;
        for (b, batch) in batches.iter().enumerate() {
            let got = log.read_track(b as TrackId).unwrap();
            if !got.is_empty() {
                assert_eq!(
                    got, *batch,
                    "cut at {cut}: record {b} must be intact or gone"
                );
                recovered += 1;
            }
        }
        assert_eq!(
            recovered, expect_full,
            "cut at {cut}: expected {expect_full} surviving records"
        );
        // A cut landing exactly on a record boundary leaves a valid
        // (shorter) file; anywhere else recovery must truncate.
        let on_boundary = cut == header_len || boundaries.contains(&cut);
        assert_eq!(
            report.truncated_segments,
            usize::from(!on_boundary),
            "cut at {cut}: {report:?}"
        );
        drop(log);
        // The repaired file must verify clean.
        verify_dir(&dir).unwrap();
    }
}

/// A reader that opened the log mid-append and later refreshes sees
/// exactly what a fresh read-only open sees: cut the segment at *every*
/// byte offset (an in-flight append, as a concurrent reader finds it),
/// open read-only, restore the whole image, let the writer append a
/// record, roll a segment and write a tombstone, then `refresh()`.
/// Every cut rereads the image, so the sweep is quadratic in its size;
/// CI runs it in release mode.
#[test]
fn refresh_after_any_cut_equals_a_fresh_read_only_open() {
    let dir = temp_dir("refresh-cut-sweep");
    let batches: Vec<Vec<TimedPoint>> = (0..4).map(|t| wave(t, 25)).collect();
    let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    for (t, batch) in batches.iter().enumerate() {
        log.append(t as TrackId, batch).unwrap();
    }
    drop(log);
    let seg_path = dir.join("seg-000001.tlg");
    let pristine = std::fs::read(&seg_path).unwrap();
    let extra = wave(1, 30)
        .into_iter()
        .map(|p| TimedPoint::at(p.pos, p.t + 100_000.0))
        .collect::<Vec<_>>();
    let (frame, _) = bqs_tlog::segment::build_points_frame(1, &extra).unwrap();
    // The extra record still fits the first segment; the next one rolls.
    let config = LogConfig {
        segment_max_bytes: (pristine.len() + frame.len()) as u64,
        ..LogConfig::default()
    };

    for cut in 0..=pristine.len() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&seg_path, &pristine[..cut]).unwrap();
        let (mut reader, _) = TrajectoryLog::open_read_only(&dir, LogConfig::default()).unwrap();

        std::fs::write(&seg_path, &pristine).unwrap();
        {
            let (mut writer, _) = TrajectoryLog::open(&dir, config).unwrap();
            writer.append(1, &extra).unwrap();
            let rolled = writer.append(4, &wave(4, 40)).unwrap();
            assert_eq!(rolled.segment, 2, "cut at {cut}: the second append rolls");
            assert!(writer.delete_track(2).unwrap());
        }

        let report = reader.refresh().unwrap();
        assert!(
            !report.rescanned,
            "cut at {cut}: appends never force a rescan"
        );
        let (fresh, _) = TrajectoryLog::open_read_only(&dir, LogConfig::default()).unwrap();
        assert_eq!(
            reader.track_summaries(),
            fresh.track_summaries(),
            "cut at {cut}"
        );
        assert_eq!(reader.footprint(), fresh.footprint(), "cut at {cut}");
        assert_eq!(reader.tracks(), vec![0, 1, 3, 4], "cut at {cut}");
        for track in 0..=4 {
            assert_eq!(
                reader.read_track(track).unwrap(),
                fresh.read_track(track).unwrap(),
                "cut at {cut}: track {track}"
            );
        }
        assert_eq!(reader.refresh().unwrap().bytes, 0, "cut at {cut}: idle");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn wave(track: u64, n: usize) -> Vec<TimedPoint> {
    (0..n)
        .map(|i| {
            let a = i as f64;
            TimedPoint::new(
                a * 8.0 + track as f64 * 13.0,
                (a * 0.21 + track as f64).sin() * 25.0,
                a * 60.0,
            )
        })
        .collect()
}

/// The acceptance scenario in one test: spill-on-evict fleet run →
/// reopen → per-session time-range queries byte-identical to solo
/// compression → torn final record → still identical → compaction →
/// still identical.
#[test]
fn fleet_spill_round_trip_survives_crash_and_compaction() {
    let dir = temp_dir("acceptance");
    let tolerance = 10.0;
    let sessions = 20usize;
    let config = BqsConfig::new(tolerance).unwrap();
    // Varying lengths so sessions close at different stream times.
    let traces: Vec<Vec<TimedPoint>> = (0..sessions)
        .map(|t| wave(t as u64, 120 + t * 15))
        .collect();

    // The truth: each session compressed alone (interleaving
    // equivalence makes it the fleet's output too).
    let expected: HashMap<TrackId, Vec<TimedPoint>> = traces
        .iter()
        .enumerate()
        .map(|(t, trace)| {
            let mut solo = FastBqsCompressor::new(config);
            (t as TrackId, compress_all(&mut solo, trace.iter().copied()))
        })
        .collect();
    {
        let (mut log, _) = TrajectoryLog::open(
            &dir,
            LogConfig {
                segment_max_bytes: 2_000, // force rotation mid-run
                ..LogConfig::default()
            },
        )
        .unwrap();
        let mut spill = SpillSink::new(&mut log);
        let mut fleet = FleetEngine::new(
            FleetConfig {
                idle_timeout: 1_800.0,
            },
            move || FastBqsCompressor::new(config),
        );
        let longest = traces.iter().map(Vec::len).max().unwrap();
        for i in 0..longest {
            for (t, trace) in traces.iter().enumerate() {
                if let Some(p) = trace.get(i) {
                    fleet.push_tagged(t as TrackId, *p, &mut spill);
                }
            }
            // Periodic evictions at the stream clock (every trace samples
            // once a minute): short sessions spill mid-run.
            if i % 20 == 19 {
                fleet.evict_idle(i as f64 * 60.0, &mut spill);
            }
        }
        fleet.finish_all(&mut spill);
        assert!(
            fleet.evicted_sessions() > 0,
            "scenario must exercise eviction"
        );
        let reports = spill.finish().unwrap();
        assert_eq!(reports.len(), sessions, "every session spills exactly once");
    }

    let check_all = |log: &TrajectoryLog, skip: &[TrackId]| {
        for t in 0..sessions as TrackId {
            if skip.contains(&t) {
                assert!(log.read_track(t).unwrap().is_empty());
                continue;
            }
            // Full-span time-range query must reproduce the sink output
            // byte for byte.
            let out = log.query_time_range(Some(t), TimeRange::all()).unwrap();
            assert_eq!(out.slices.len(), 1, "track {t}");
            let got = &out.slices[0].points;
            let want = &expected[&t];
            assert_eq!(got.len(), want.len(), "track {t}");
            for (a, b) in want.iter().zip(got) {
                assert!(bits_eq(a, b), "track {t}: {a:?} vs {b:?}");
            }
        }
    };

    // 1. Plain reopen.
    let (log, report) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    assert_eq!(report.truncated_segments, 0);
    assert!(report.segments > 1, "rotation must have happened");
    check_all(&log, &[]);
    drop(log);

    // 2. Simulated crash: a torn final record.
    {
        // Append a fresh record for a new track, then tear it in half:
        // recovery must drop it without touching older records.
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let receipt = log.append(999, &wave(999, 40)).unwrap();
        drop(log);
        let mut seg_paths2: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tlg"))
            .collect();
        seg_paths2.sort();
        let tail = seg_paths2.last().unwrap();
        let len = std::fs::metadata(tail).unwrap().len();
        let f = OpenOptions::new().write(true).open(tail).unwrap();
        f.set_len(len - receipt.bytes / 2).unwrap();
    }
    let (log, report) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    assert_eq!(report.truncated_segments, 1);
    assert!(
        log.read_track(999).unwrap().is_empty(),
        "torn record dropped"
    );
    check_all(&log, &[]);
    drop(log);

    // 3. Compaction pass (drop two tracks, rewrite the rest).
    let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    assert!(log.delete_track(0).unwrap());
    assert!(log.delete_track(7).unwrap());
    let compact = log.compact().unwrap();
    assert!(compact.bytes_after < compact.bytes_before);
    check_all(&log, &[0, 7]);
    drop(log);

    // 4. And the compacted log still reopens and verifies clean.
    let (log, report) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    assert_eq!(report.truncated_segments, 0);
    check_all(&log, &[0, 7]);
    verify_dir(&dir).unwrap();

    // 5. Spot-check the reconstruction layer against the sink output:
    //    at a kept point's own timestamp the reconstruction is exact.
    let probe = &expected[&3];
    let mid = probe[probe.len() / 2];
    let rec = log.reconstruct_at(3, mid.t).unwrap().unwrap();
    assert!((rec.pos.x - mid.pos.x).abs() < 1e-9);
    assert!((rec.pos.y - mid.pos.y).abs() < 1e-9);
}
