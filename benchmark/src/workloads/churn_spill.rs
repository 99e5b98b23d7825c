//! `churn_spill`: the fleet used the other way. An in-process
//! `ParallelFleet` (2 workers) over `SpillSink`s on a fresh spill tree
//! every round: thousands of short staggered sessions submitted in
//! 64-point runs from one thread, idle eviction by stream time, then
//! join → spill finish → MANIFEST. Session open/close, compressor
//! recycling, eviction, spill encode and log append dominate instead of
//! steady-state push — the only workload where a log write-path or
//! codec change can show.

use super::{
    check_tree, mismatched_tracks, repeat_setup, sample_sessions, tail, Ctx, Outcome, EVICT_IDLE_S,
    TOLERANCE_M, WORKERS,
};
use crate::driver::{micros, peak_rss_mb, reset_own_peak_rss, Res, Scratch};
use crate::gen::{
    full_track, in_order_frames, staggered_sessions, Frame, Rng, Session, SAMPLE_INTERVAL_S,
};
use crate::replay::ReplayInput;
use crate::report::RunResult;
use crate::stats::{median, Rounds};
use bqs_core::fleet::{FleetConfig, ParallelConfig, ParallelFleet};
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::TimedPoint;
use bqs_tlog::{prepare_spill_logs, LogConfig, Manifest, QueryEngine, SpillSink, TimeRange};
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAME: &str = "churn_spill";

const ROUNDS_PER_10S: usize = 16;
const SESSIONS_PER_ROUND: usize = 4000;
pub const POINTS_PER_SESSION: usize = 200;
/// `evict_idle` is called once per this many submitted runs.
const RUNS_PER_EVICT: usize = 256;
/// One write-latency sample covers this many consecutive `submit_run`
/// calls (1024 points): a single hand-off is 1–3 µs and bimodal — whether
/// the worker had to be woken — so its median flips between the modes.
const RUNS_PER_SAMPLE: usize = 16;
/// In-process reads of the finished tree after each round.
const QUERIES_PER_ROUND: usize = 60;

pub fn sessions(ctx: &Ctx, count: usize) -> Vec<Session> {
    staggered_sessions(ctx.seed, 0, count, POINTS_PER_SESSION, SAMPLE_INTERVAL_S)
}

struct RoundFacts {
    wall_s: f64,
    submit_us: Vec<f64>,
    kept_points: u64,
}

/// One round: a fresh tree and fleet, every run submitted, then the
/// whole close-down. The clock covers submit → join → spill → MANIFEST.
fn round(tree: &std::path::Path, frames: &[Frame]) -> Res<RoundFacts> {
    // `submit_run` takes its points by value: clone them before the clock.
    let runs: Vec<(u64, Vec<TimedPoint>, f64)> = frames
        .iter()
        .map(|f| (f.track, f.points.clone(), f.ready_t))
        .collect();
    let mut logs = prepare_spill_logs(tree, WORKERS, LogConfig::default())
        .map_err(|e| format!("prepare spill tree: {e}"))?
        .into_iter()
        .map(Some)
        .collect::<Vec<_>>();
    let config = BqsConfig::new(TOLERANCE_M).expect("valid tolerance");
    let mut submit_us = Vec::with_capacity(runs.len() / RUNS_PER_SAMPLE + 1);

    let start = Instant::now();
    let mut fleet = ParallelFleet::new(
        ParallelConfig {
            workers: WORKERS,
            fleet: FleetConfig {
                idle_timeout: EVICT_IDLE_S,
                ..FleetConfig::default()
            },
            ..ParallelConfig::default()
        },
        move || FastBqsCompressor::new(config),
        |shard| SpillSink::new(logs[shard].take().expect("one log per shard")),
    );
    let mut mark = Instant::now();
    for (i, (track, points, ready_t)) in runs.into_iter().enumerate() {
        fleet.submit_run(track, points);
        if i % RUNS_PER_EVICT == RUNS_PER_EVICT - 1 {
            fleet.evict_idle(ready_t);
        }
        if i % RUNS_PER_SAMPLE == RUNS_PER_SAMPLE - 1 {
            let now = Instant::now();
            submit_us.push(micros(now - mark));
            mark = now;
        }
    }
    let join = fleet.join();
    if let Some(failure) = join.failures.first() {
        return Err(format!(
            "worker shard {} panicked: {}",
            failure.shard, failure.panic
        ));
    }
    let mut kept_points = 0u64;
    for shard in join.shards {
        let reports = shard.sink.finish().map_err(|e| format!("spill: {e}"))?;
        kept_points += reports.iter().map(|r| r.points).sum::<u64>();
    }
    Manifest::rebuild(tree).map_err(|e| format!("write MANIFEST: {e}"))?;
    Ok(RoundFacts {
        wall_s: start.elapsed().as_secs_f64(),
        submit_us,
        kept_points,
    })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let count = ctx.size(SESSIONS_PER_ROUND);
    let ((input, frames), setup_s) = repeat_setup(|_| {
        let input = sessions(ctx, count);
        let frames = in_order_frames(&input);
        Ok(((input, frames), 0.0))
    })?;
    let points: u64 = input.iter().map(|s| s.points.len() as u64).sum();
    let rounds = ctx.rounds(ROUNDS_PER_10S);
    let mut rng = Rng::new(ctx.seed ^ 0x6368_7572);

    let (mut ack, mut query) = (Rounds::default(), Rounds::default());
    let mut throughput = Vec::with_capacity(rounds);
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut notes = Vec::new();
    let (mut kept_points, mut stored_bytes) = (0u64, 0u64);
    reset_own_peak_rss();
    for r in 0..rounds {
        let scratch = Scratch::new(ctx.scratch_root, NAME, r)?;
        let tree = scratch.path().join("tree");
        let facts = round(&tree, &frames)?;
        attempted += frames.len() as u64;
        throughput.push(points as f64 / facts.wall_s);
        ack.push_round(facts.submit_us);
        kept_points = facts.kept_points;

        // The in-process deployment's read: open the finished tree and
        // fetch one track, as `bqs query` does.
        let mut read_us = Vec::with_capacity(QUERIES_PER_ROUND);
        for _ in 0..QUERIES_PER_ROUND {
            let track = input[rng.below(input.len())].track;
            let start = Instant::now();
            let found = QueryEngine::open(&tree)
                .and_then(|mut e| e.query_time_range(Some(track), TimeRange::all()))
                .map(|out| out.total_points());
            read_us.push(micros(start.elapsed()));
            attempted += 1;
            if !matches!(found, Ok(n) if n >= 2) {
                failed += 1;
                notes.push(format!(
                    "check FAILED: read of track {track} gave {found:?}"
                ));
            }
        }
        query.push_round(read_us);

        if r + 1 == rounds {
            attempted += 2;
            let tree_facts = check_tree(&tree, &mut notes, &mut failed)?;
            stored_bytes = tree_facts.bytes;
            if tree_facts.stored_points != kept_points {
                failed += 1;
                notes.push(format!(
                    "check FAILED: spill reports {kept_points} points, the tree holds {}",
                    tree_facts.stored_points
                ));
            }
            let sample = sample_sessions(&input);
            attempted += sample.len() as u64;
            failed += mismatched_tracks(&tree, &sample, &mut notes)?;
        }
    }
    let peak_rss = peak_rss_mb(std::process::id())?;
    notes.push(format!(
        "{rounds} rounds x {count} sessions x {POINTS_PER_SESSION} points, {WORKERS} workers, \
         evict-idle {EVICT_IDLE_S} s every {RUNS_PER_EVICT} runs, fsync off"
    ));

    let tails = BTreeMap::from([
        ("ack_p99_us", tail(&ack, 0.99, "ack", &mut notes)?),
        ("query_p95_us", tail(&query, 0.95, "query", &mut notes)?),
    ]);
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("throughput_pts_s", median(&throughput)),
        ("ack_p50_us", ack.p50()),
        ("query_p50_us", query.p50()),
        ("compression_ratio", kept_points as f64 / points as f64),
        (
            "stored_bytes_per_point",
            stored_bytes as f64 / points as f64,
        ),
        ("peak_rss_mb", peak_rss),
    ]);
    Ok(Outcome {
        tails,
        result: RunResult {
            workload: NAME,
            attempted,
            failed,
            metrics,
            notes,
        },
        served: None,
    })
}

pub fn replay_input(ctx: &Ctx) -> Res<ReplayInput> {
    let input = sessions(ctx, ctx.size(400));
    let queries = input
        .iter()
        .step_by(10)
        .map(|s| full_track(s.track))
        .collect();
    Ok(ReplayInput::in_order(NAME, input, queries, 0.0))
}
