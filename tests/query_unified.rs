//! The unified query layer's end-to-end guarantees, property-tested over
//! arbitrary interleavings and worker counts:
//!
//! 1. **Hot/cold equivalence** — for 1/2/8 workers, a [`QueryEngine`]
//!    over (live fleet snapshot + partially spilled shard tree) returns,
//!    per track, exactly the point sets that `finish_all` → spill →
//!    query of the finished tree returns — backfill landed mid-run
//!    included, over the hot range and tying hot kept points. Being
//!    observed mid-run must change nothing, and nothing may be seen twice
//!    or missed.
//! 2. **Worker-count invariance** — the unified answer is identical for
//!    any worker count.
//! 3. **Manifest-pruning soundness** — track-selective queries skip
//!    every shard but the track's own (skipped > 0 observable in the
//!    stats) and the pruned answer equals the unpruned one.

use bqs::core::fleet::{FleetConfig, ParallelConfig, ParallelFleet, TrackId};
use bqs::core::{BqsConfig, FastBqsCompressor};
use bqs::geo::TimedPoint;
use bqs::tlog::{
    open_shard_logs, LogConfig, Manifest, QueryEngine, SpillSink, TimeRange, TrajectoryLog,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_root(tag: &str) -> PathBuf {
    // ordering: relaxed unique-id ticket — only atomicity matters for distinct temp dirs
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("bqs-query-unified")
        .join(format!("{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic per-track trajectory with strictly increasing
/// timestamps (t = 10·i).
fn track_trace(track: u64, seed: u64, n: usize) -> Vec<TimedPoint> {
    let mut s = seed ^ track.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
    };
    let mut x = rnd() * 1_000.0;
    let mut y = rnd() * 1_000.0;
    (0..n)
        .map(|i| {
            x += rnd() * 25.0;
            y += rnd() * 25.0;
            TimedPoint::new(x, y, i as f64 * 10.0)
        })
        .collect()
}

/// Interleaves `traces` into one record stream with a deterministic
/// shuffle.
fn interleave(traces: &[Vec<TimedPoint>], seed: u64) -> Vec<(TrackId, TimedPoint)> {
    let mut cursors: Vec<usize> = vec![0; traces.len()];
    let mut remaining: usize = traces.iter().map(Vec::len).sum();
    let mut records = Vec::with_capacity(remaining);
    let mut s = seed | 1;
    while remaining > 0 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (s >> 33) as usize % traces.len();
        for off in 0..traces.len() {
            let t = (pick + off) % traces.len();
            if cursors[t] < traces[t].len() {
                records.push((t as TrackId, traces[t][cursors[t]]));
                cursors[t] += 1;
                remaining -= 1;
                break;
            }
        }
    }
    records
}

/// A spilling parallel fleet: one owned shard log per worker.
fn spilling_fleet(
    root: &PathBuf,
    workers: usize,
    tolerance: f64,
) -> ParallelFleet<SpillSink<TrajectoryLog>> {
    let mut logs: Vec<Option<TrajectoryLog>> = open_shard_logs(root, workers, LogConfig::default())
        .expect("open tree")
        .into_iter()
        .map(|(log, _)| Some(log))
        .collect();
    let config = BqsConfig::new(tolerance).unwrap();
    ParallelFleet::new(
        ParallelConfig {
            workers,
            fleet: FleetConfig {
                // Tight timeout so a mid-run evict_idle really evicts.
                idle_timeout: 50.0,
            },
        },
        move || FastBqsCompressor::new(config),
        |shard| SpillSink::new(logs[shard].take().expect("one log per shard")),
    )
}

/// Where [`backfill_batch`] moves its tie candidates: east of every
/// trace, so only backfill points fall inside.
fn far_east() -> bqs::geo::Rect {
    bqs::geo::Rect::from_corners(
        bqs::geo::Point2::new(5_000.0, -1e9),
        bqs::geo::Point2::new(1e9, 1e9),
    )
}

/// A backfill batch for `track` over its hot (phase-2) raw fixes: three
/// fixes older than the whole trace, then every third hot fix moved
/// 10 km east (into [`far_east`]) — an exact-`t` tie whenever that fix
/// is kept, as a session's first always is — each followed by one more
/// fix 5 s later.
fn backfill_batch(track: TrackId, hot: &[TimedPoint]) -> Vec<TimedPoint> {
    let mut batch: Vec<TimedPoint> = (1..=3)
        .rev()
        .map(|i| TimedPoint::new(track as f64, -(i as f64), -10.0 * i as f64))
        .collect();
    for p in hot.iter().step_by(3) {
        batch.push(TimedPoint::new(p.pos.x + 10_000.0, p.pos.y, p.t));
        batch.push(TimedPoint::new(p.pos.x, p.pos.y + 0.5, p.t + 5.0));
    }
    batch
}

fn slices_to_map(out: &bqs::tlog::UnifiedOutput) -> BTreeMap<TrackId, Vec<TimedPoint>> {
    out.slices
        .iter()
        .map(|s| (s.track, s.points.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: live fleet + partial spill + backfill
    /// landed mid-run, queried unified, equals finish_all → spill → query
    /// of the finished tree — per track, point for point, for 1/2/8
    /// workers; and pruned track-selective queries skip shards while
    /// answering identically.
    #[test]
    fn unified_live_query_equals_finished_tree_query(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
        sessions in 6usize..12,
        // 300–1 300 points: the batch boundary (256) falls inside.
        per_track in 50usize..110,
        split_pct in 25usize..75,
    ) {
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, per_track)).collect();
        let records = interleave(&traces, seed.wrapping_add(1));
        let split = records.len() * split_pct / 100;

        let mut answers: Vec<BTreeMap<TrackId, Vec<TimedPoint>>> = Vec::new();
        for workers in [1usize, 2, 8] {
            let root = temp_root("equiv");
            let mut fleet = spilling_fleet(&root, workers, tol);

            // Phase 1: a prefix, then evict everything idle — those
            // sessions spill to the shard logs (cold) and restart on
            // their next point.
            for &(track, p) in &records[..split] {
                fleet.push(track, p);
            }
            fleet.evict_idle(1e12);

            // Phase 2: the rest stays hot (open sessions + buffers).
            // Half-way through, every even track gets a backfill batch
            // over its whole hot range, written by its worker at once.
            let middle = split + (records.len() - split) / 2;
            for &(track, p) in &records[split..middle] {
                fleet.push(track, p);
            }
            for track in (0..sessions as TrackId).step_by(2) {
                let hot: Vec<TimedPoint> = records[split..]
                    .iter()
                    .filter(|(t, _)| *t == track)
                    .map(|&(_, p)| p)
                    .collect();
                fleet.submit_backfill(track, backfill_batch(track, &hot));
            }
            for &(track, p) in &records[middle..] {
                fleet.push(track, p);
            }

            // Snapshot first, then open cold: anything spilled in
            // between would be seen cold instead of hot (durable wins).
            let snapshot = fleet.snapshot();
            let mut engine = QueryEngine::open(&root)
                .expect("open tree beside live writers")
                .with_snapshot(snapshot);
            let unified = engine
                .query_time_range(None, TimeRange::all())
                .expect("unified query");
            let unified_map = slices_to_map(&unified);
            // A tied hot point outside the box still shadows its
            // backfill twin inside it.
            let unified_east =
                slices_to_map(&engine.query_bbox(None, far_east(), None).expect("bbox query"));
            drop(engine);

            // Now close everything and read the finished tree: the
            // specification the live view must have matched.
            let join = fleet.join();
            prop_assert!(join.is_ok());
            for shard in join.shards {
                shard.sink.finish().expect("spill clean");
            }
            let mut finished = QueryEngine::open(&root).expect("reopen finished tree");
            let expected = finished
                .query_time_range(None, TimeRange::all())
                .expect("tree query");
            let expected_map = slices_to_map(&expected);
            let expected_east =
                slices_to_map(&finished.query_bbox(None, far_east(), None).expect("tree bbox"));

            prop_assert_eq!(
                &unified_map, &expected_map,
                "live view diverged from finished tree at {} workers", workers
            );
            prop_assert_eq!(unified_map.len(), sessions);
            prop_assert_eq!(&unified_east, &expected_east, "bbox at {} workers", workers);
            prop_assert!(!expected_east.is_empty());

            // Manifest pruning: write the manifest, query one track with
            // and without pruning — identical slices, shards skipped.
            Manifest::rebuild(&root).expect("manifest");
            let probe = (seed % sessions as u64) as TrackId;
            let mut engine = QueryEngine::open(&root).expect("open with manifest");
            let pruned = engine
                .query_time_range(Some(probe), TimeRange::all())
                .expect("pruned query");
            engine.set_pruning(false);
            let unpruned = engine
                .query_time_range(Some(probe), TimeRange::all())
                .expect("unpruned query");
            prop_assert_eq!(&pruned.slices, &unpruned.slices);
            prop_assert_eq!(pruned.slices.len(), 1);
            prop_assert_eq!(
                pruned.shards_pruned, workers - 1,
                "expected all shards but the probe's own to be skipped"
            );
            prop_assert_eq!(unpruned.shards_pruned, 0);

            answers.push(expected_map);
            let _ = std::fs::remove_dir_all(&root);
        }

        // Worker-count invariance of the durable answer itself.
        prop_assert_eq!(&answers[0], &answers[1]);
        prop_assert_eq!(&answers[0], &answers[2]);
    }

    /// A long-lived engine ≡ a fresh one: one engine held across a
    /// random interleaving of pushes, evictions (which spill), manifest
    /// rewrites and queries answers every query exactly as an engine
    /// opened just then, given the same snapshot — for 1/2/8 workers.
    #[test]
    fn a_long_lived_engine_answers_like_a_fresh_one(
        seed in 0u64..1_000_000,
        sessions in 4usize..9,
        // 280–1 170 points: the batch boundary (256) falls inside.
        per_track in 70usize..130,
        ops in proptest::collection::vec(0u8..10, 8..24),
    ) {
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, per_track)).collect();
        let records = interleave(&traces, seed.wrapping_add(3));
        let chunk = records.len() / ops.len() + 1;
        for workers in [1usize, 2, 8] {
            let root = temp_root("long-lived");
            let mut fleet = spilling_fleet(&root, workers, 10.0);
            let mut held = QueryEngine::open(&root).expect("open the held engine");
            let mut cursor = 0usize;
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    0..=3 => {
                        let end = (cursor + chunk).min(records.len());
                        for &(track, p) in &records[cursor..end] {
                            fleet.push(track, p);
                        }
                        cursor = end;
                    }
                    4..=5 => fleet.evict_idle(1e12),
                    6 => {
                        // Workers may still be spilling: a manifest
                        // written now can be stale, which readers must
                        // detect rather than trust.
                        Manifest::rebuild(&root).expect("manifest");
                    }
                    _ => {
                        let snapshot = fleet.snapshot();
                        let mut fresh = QueryEngine::open(&root)
                            .expect("open a fresh engine")
                            .with_snapshot(snapshot.clone());
                        let probe = (seed.wrapping_add(step as u64) % sessions as u64) as TrackId;
                        let window = TimeRange::new(
                            per_track as f64 * 2.0,
                            per_track as f64 * 2.0 + step as f64 * 40.0,
                        );
                        let area = bqs::geo::Rect::from_corners(
                            bqs::geo::Point2::new(-400.0, -400.0),
                            bqs::geo::Point2::new(400.0, 400.0),
                        );
                        // The held engine answers the way a server does:
                        // prepared under its lock, run with the snapshot.
                        let (track, range, area, b) = match op % 3 {
                            0 => (None, window, None, fresh.query_time_range(None, window)),
                            1 => (
                                Some(probe),
                                TimeRange::all(),
                                None,
                                fresh.query_time_range(Some(probe), TimeRange::all()),
                            ),
                            _ => (
                                None,
                                TimeRange::all(),
                                Some(area),
                                fresh.query_bbox(None, area, None),
                            ),
                        };
                        let a = held
                            .prepare(track, range, area)
                            .and_then(|prepared| prepared.run(Some(&snapshot)));
                        let (a, b) = (a.expect("held query"), b.expect("fresh query"));
                        prop_assert_eq!(
                            &a.slices, &b.slices,
                            "step {} (op {}) at {} workers", step, op, workers
                        );
                        prop_assert_eq!(a.hot_points, b.hot_points);
                        prop_assert_eq!(a.shards_pruned, b.shards_pruned);
                    }
                }
            }
            drop(fleet);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// Narrow time-window and bbox queries through the unified engine
    /// agree with brute-force filtering of the full per-track answer.
    #[test]
    fn filtered_unified_queries_agree_with_brute_force(
        seed in 0u64..1_000_000,
        sessions in 4usize..8,
        per_track in 30usize..50,
    ) {
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, per_track)).collect();
        let records = interleave(&traces, seed.wrapping_add(7));
        let split = records.len() / 2;

        let root = temp_root("filters");
        let mut fleet = spilling_fleet(&root, 2, 10.0);
        for &(track, p) in &records[..split] {
            fleet.push(track, p);
        }
        fleet.evict_idle(1e12);
        for &(track, p) in &records[split..] {
            fleet.push(track, p);
        }
        let snapshot = fleet.snapshot();
        let mut engine = QueryEngine::open(&root)
            .expect("open")
            .with_snapshot(snapshot.clone());
        let everything = engine
            .query_time_range(None, TimeRange::all())
            .expect("full");
        let full = slices_to_map(&everything);

        let range = TimeRange::new(per_track as f64 * 2.0, per_track as f64 * 7.0);
        let windowed = engine
            .query_time_range(None, range)
            .expect("window");
        for slice in &windowed.slices {
            let expected: Vec<TimedPoint> = full[&slice.track]
                .iter()
                .copied()
                .filter(|p| range.contains(p.t))
                .collect();
            prop_assert_eq!(&slice.points, &expected, "track {}", slice.track);
        }

        let area = bqs::geo::Rect::from_corners(
            bqs::geo::Point2::new(-500.0, -500.0),
            bqs::geo::Point2::new(500.0, 500.0),
        );
        let boxed = engine.query_bbox(None, area, None).expect("bbox");
        let mut expected_tracks = Vec::new();
        for (track, points) in &full {
            let expected: Vec<TimedPoint> = points
                .iter()
                .copied()
                .filter(|p| area.contains(p.pos))
                .collect();
            if !expected.is_empty() {
                expected_tracks.push(*track);
                let slice = boxed
                    .slices
                    .iter()
                    .find(|s| s.track == *track)
                    .expect("track present");
                prop_assert_eq!(&slice.points, &expected, "track {}", track);
            }
        }
        prop_assert_eq!(
            boxed.slices.iter().map(|s| s.track).collect::<Vec<_>>(),
            expected_tracks
        );

        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }
}
