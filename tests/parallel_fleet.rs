//! Parallel fleet runtime guarantees, property-tested end to end:
//!
//! 1. **Worker-count equivalence** — pushing 100+ tracks through a
//!    [`ParallelFleet`] in an arbitrary interleaving yields, for *every*
//!    worker count, per-track output byte-identical to compressing each
//!    track alone. Thread scheduling must never be observable in the
//!    data.
//! 2. **Per-session error bound** — every session's parallel output
//!    independently satisfies the configured deviation tolerance.
//! 3. **Durable equivalence** — with one spill log per worker shard,
//!    the `shard-<k>/` tree reopened from disk returns byte-identical
//!    per-track queries, and tree-wide verification passes.
//! 4. **Panic isolation** — a worker panic poisons only the sessions
//!    routed to that shard, and they are *reported*, never silently
//!    dropped.

use bqs::core::fleet::{worker_of, FleetConfig, ParallelConfig, ParallelFleet, TrackId};
use bqs::core::metrics::DeviationMetric;
use bqs::core::stream::{compress_all, DecisionStats, HasDecisionStats, Sink, StreamCompressor};
use bqs::core::{BqsConfig, FastBqsCompressor};
use bqs::eval::verify_deviation_bound;
use bqs::geo::TimedPoint;
use bqs::tlog::{verify_sharded, LogConfig, SpillSink, TimeRange, TrajectoryLog};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;

/// A deterministic per-track trajectory: piecewise walk whose shape is a
/// pure function of `(track, seed)`, so the solo reference recomputes it.
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

/// Interleaves `traces` into one record stream using a deterministic
/// shuffle of per-track cursors.
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

fn parallel(workers: usize, tolerance: f64) -> ParallelFleet<HashMap<TrackId, Vec<TimedPoint>>> {
    let config = BqsConfig::new(tolerance).unwrap();
    ParallelFleet::new(
        ParallelConfig {
            workers,
            fleet: FleetConfig::default(),
        },
        move || FastBqsCompressor::new(config),
        |_| HashMap::new(),
    )
}

fn merged(
    join: bqs::core::fleet::FleetJoin<HashMap<TrackId, Vec<TimedPoint>>>,
) -> HashMap<TrackId, Vec<TimedPoint>> {
    let mut all = HashMap::new();
    for shard in join.shards {
        for (track, points) in shard.sink {
            assert!(all.insert(track, points).is_none(), "track in two shards");
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ≥ 100 concurrent sessions, arbitrary interleaving, arbitrary
    /// tolerance, 1/2/8 workers: parallel output ≡ solo output, per
    /// track, byte for byte — and the merged statistics account for
    /// every point exactly once. 3 000–7 400 points: every worker ships
    /// full batches and ends on a partly filled one.
    #[test]
    fn parallel_interleaving_is_equivalent_to_solo_for_any_worker_count(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
        sessions in 100usize..124,
        per_track in 30usize..60,
    ) {
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, per_track)).collect();
        let records = interleave(&traces, seed);

        for workers in [1usize, 2, 8] {
            let mut fleet = parallel(workers, tol);
            for &(track, p) in &records {
                fleet.push(track, p);
            }
            let join = fleet.join();
            prop_assert!(join.is_ok());
            prop_assert_eq!(join.stats.points, (sessions * per_track) as u64);
            prop_assert_eq!(join.session_reports().len(), sessions);
            let all = merged(join);

            let config = BqsConfig::new(tol).unwrap();
            for (t, trace) in traces.iter().enumerate() {
                let mut solo = FastBqsCompressor::new(config);
                let solo_out = compress_all(&mut solo, trace.iter().copied());
                prop_assert_eq!(
                    &all[&(t as u64)],
                    &solo_out,
                    "track {} diverged at {} workers",
                    t,
                    workers
                );
            }
        }
    }

    /// Every session's parallel output independently satisfies the error
    /// bound.
    #[test]
    fn error_bound_holds_per_session_under_parallel_ingest(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
    ) {
        let sessions = 100usize;
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, 40)).collect();
        let records = interleave(&traces, seed.wrapping_add(3));

        let mut fleet = parallel(4, tol);
        for (track, p) in records {
            fleet.push(track, p);
        }
        let all = merged(fleet.join());

        for (t, trace) in traces.iter().enumerate() {
            let kept = &all[&(t as u64)];
            let worst = verify_deviation_bound(trace, kept, DeviationMetric::PointToLine)
                .expect("parallel output must be an anchored subsequence");
            prop_assert!(
                worst <= tol + 1e-9,
                "track {}: worst deviation {} > tolerance {}",
                t, worst, tol
            );
        }
    }
}

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bqs-parallel-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spill → reopen → byte-identical query, across the whole shard tree:
/// each worker spills its sessions into a private `shard-<k>/` log; after
/// the join, every track reads back from its shard exactly as solo
/// compression produces it, both via `read_track` and via a time-range
/// query, and tree-wide verification passes.
#[test]
fn parallel_spill_reopens_byte_identical_across_the_shard_tree() {
    let root = temp_root("spill-tree");
    let workers = 4usize;
    let sessions = 40u64;
    let tol = 12.0;
    let traces: Vec<Vec<TimedPoint>> = (0..sessions).map(|t| track_trace(t, 77, 80)).collect();

    {
        let config = BqsConfig::new(tol).unwrap();
        let logs = bqs::tlog::open_shard_logs(&root, workers, LogConfig::default()).unwrap();
        let mut logs: Vec<Option<TrajectoryLog>> =
            logs.into_iter().map(|(log, _)| Some(log)).collect();
        let mut fleet = ParallelFleet::new(
            ParallelConfig {
                workers,
                fleet: FleetConfig::default(),
            },
            move || FastBqsCompressor::new(config),
            |k| SpillSink::new(logs[k].take().expect("one log per shard")),
        );
        for (track, p) in interleave(&traces, 5) {
            fleet.push(track, p);
        }
        let join = fleet.join();
        assert!(join.is_ok());
        for shard in join.shards {
            shard.sink.finish().unwrap();
        }
    }

    // The tree verifies as a whole…
    let report = verify_sharded(&root).unwrap();
    assert_eq!(report.shards.len(), workers);
    assert_eq!(report.total.records as u64, sessions);

    // …and every track reads back byte-identical from its shard.
    let config = BqsConfig::new(tol).unwrap();
    let mut shard_logs: HashMap<usize, TrajectoryLog> = HashMap::new();
    for (t, trace) in traces.iter().enumerate() {
        let track = t as u64;
        let shard = worker_of(track, workers);
        let log = shard_logs.entry(shard).or_insert_with(|| {
            TrajectoryLog::open(bqs::tlog::shard_dir(&root, shard), LogConfig::default())
                .unwrap()
                .0
        });
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, trace.iter().copied());
        assert_eq!(log.read_track(track).unwrap(), expected, "track {track}");
        let queried = log.query_time_range(Some(track), TimeRange::all()).unwrap();
        assert_eq!(queried.slices.len(), 1);
        assert_eq!(queried.slices[0].points, expected, "query track {track}");
    }
}

/// A compressor that panics when it meets a poison coordinate.
#[derive(Clone)]
struct Poisonable(FastBqsCompressor);

impl StreamCompressor for Poisonable {
    fn push(&mut self, p: TimedPoint, out: &mut dyn Sink) {
        assert!(p.pos.x.is_finite(), "poison point");
        self.0.push(p, out);
    }
    fn finish(&mut self, out: &mut dyn Sink) {
        self.0.finish(out);
    }
    fn name(&self) -> &'static str {
        "poisonable-fbqs"
    }
}

impl HasDecisionStats for Poisonable {
    fn decision_stats(&self) -> DecisionStats {
        self.0.decision_stats()
    }
}

/// 100+ tracks across 1/2/8 workers with a poison injected into one
/// track: the panic takes down exactly the shards that saw poison, their
/// sessions are reported (not silently dropped), and every other track
/// still equals solo compression.
#[test]
fn worker_panic_poisons_only_its_shard_and_is_reported() {
    let sessions = 110u64;
    let tol = 10.0;
    let poisoned_track = 13u64;
    let traces: Vec<Vec<TimedPoint>> = (0..sessions).map(|t| track_trace(t, 21, 50)).collect();

    for workers in [1usize, 2, 8] {
        let config = BqsConfig::new(tol).unwrap();
        let mut fleet = ParallelFleet::new(
            ParallelConfig {
                workers,
                fleet: FleetConfig::default(),
            },
            move || Poisonable(FastBqsCompressor::new(config)),
            |_| HashMap::<TrackId, Vec<TimedPoint>>::new(),
        );
        for i in 0..50 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push(t as u64, trace[i]);
            }
            if i == 25 {
                fleet.push(poisoned_track, TimedPoint::new(f64::NAN, 0.0, 1e9));
                fleet.flush();
            }
        }
        let expected_shard = fleet.shard_of(poisoned_track);
        let join = fleet.join();

        assert_eq!(join.failures.len(), 1, "{workers} workers");
        let failure = &join.failures[0];
        assert_eq!(failure.shard, expected_shard);
        assert!(failure.panic.contains("poison"), "{}", failure.panic);
        assert!(failure.tracks.contains(&poisoned_track));

        let lost: BTreeSet<TrackId> = failure.tracks.iter().copied().collect();
        let all = merged(join);
        // Lost + surviving sessions cover the whole fleet: nothing is
        // silently dropped.
        assert_eq!(lost.len() + all.len(), sessions as usize);
        let config = BqsConfig::new(tol).unwrap();
        for (t, trace) in traces.iter().enumerate() {
            let track = t as u64;
            if lost.contains(&track) {
                assert!(!all.contains_key(&track));
                continue;
            }
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(
                all[&track], expected,
                "surviving track {track} / {workers} workers"
            );
        }
    }
}
