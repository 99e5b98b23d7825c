//! `mixed_rw`: writes beside reads at a fixed offered rate. A spawned
//! `bqs serve --lateness 60 --evict-idle`; open loop: one writer
//! connection offers 300 000 points/s of churning 200-point sessions,
//! delivered through the seeded bounded shuffle with each session's
//! oldest tenth sent afterwards as backfill and one armed too-late probe
//! per 100 sessions, while one reader connection offers 40 queries/s of
//! the `query_scan` mix. Both are timed from their due times. Snapshot
//! against submit on the fleet mutex, read-only opens beside the live
//! spill writer, reorder buffers and backfill records in the merge — a
//! gain for reads that costs writes, or the reverse, shows here only.

use super::{check_tree, preload, repeat_setup, sample_sessions, tail, Ctx, Outcome, EVICT_IDLE_S};
use crate::driver::{
    idle_rtt_us, run_queries, scrape, wait_for_metric, write_open, Conn, QueryOutcome, Res,
    Scratch, Served, ServerChild, WriteOutcome,
};
use crate::gen::{
    disordered_frames, encode_frames, plan_query, staggered_sessions, FrameKind, LateTruth,
    PlannedQuery, Rng, Session, WireFrame, FRAME_POINTS, SAMPLE_INTERVAL_S,
};
use crate::replay::ReplayInput;
use crate::report::RunResult;
use crate::stats::{median, percentile, Rounds};
use bqs_core::BqsConfig;
use bqs_eval::verify_deviation_bound;
use bqs_geo::TimedPoint;
use bqs_net::{BqsClient, QueryReport, QuerySpec};
use bqs_tlog::{QueryEngine, TimeRange};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const NAME: &str = "mixed_rw";

pub const LATENESS_S: f64 = 60.0;
const OFFERED_PTS_S: f64 = 200_000.0;
const OFFERED_QUERIES_S: f64 = 25.0;
const POINTS_PER_SESSION: usize = 200;
/// Sessions ingested and evicted during set-up, so cold data exists
/// from the first query on.
const PRELOAD_SESSIONS: usize = 3000;
/// A session counts as cold once the writer's schedule is this many
/// sessions past it: its own 200 (duration ÷ stagger), 150 of idle
/// time-out, 1500 for the server's one-second eviction tick, and slack.
const COLD_AFTER_SESSIONS: usize = 2500;

struct Prepared {
    server: ServerChild,
    scratch: Scratch,
    sessions: Vec<Session>,
    frames: Vec<WireFrame>,
    frame_due: Vec<Duration>,
    queries: Vec<PlannedQuery>,
    query_due: Vec<Duration>,
    truth: LateTruth,
    /// Live + backfill points of the whole input (probes excluded).
    accepted_points: u64,
    preload_acked: u64,
}

fn add(a: LateTruth, b: LateTruth) -> LateTruth {
    LateTruth {
        late_points: a.late_points + b.late_points,
        backfill_points: a.backfill_points + b.backfill_points,
        too_late_points: a.too_late_points + b.too_late_points,
    }
}

fn accepted(frames: &[WireFrame]) -> u64 {
    frames
        .iter()
        .filter(|f| f.kind != FrameKind::Probe)
        .map(|f| u64::from(f.points))
        .sum()
}

fn prepare(ctx: &Ctx, rep: usize) -> Res<(Prepared, f64)> {
    let rate = if ctx.quick {
        OFFERED_PTS_S / 10.0
    } else {
        OFFERED_PTS_S
    };
    let sessions_per_s = rate / POINTS_PER_SESSION as f64;
    let run_sessions = (sessions_per_s * ctx.seconds).round() as usize;
    let sessions = staggered_sessions(
        ctx.seed,
        0,
        PRELOAD_SESSIONS + run_sessions,
        POINTS_PER_SESSION,
        SAMPLE_INTERVAL_S,
    );
    let (pre, pre_truth) = disordered_frames(&sessions[..PRELOAD_SESSIONS], LATENESS_S, ctx.seed);
    let (run, run_truth) = disordered_frames(&sessions[PRELOAD_SESSIONS..], LATENESS_S, ctx.seed);
    let pre_frames = encode_frames(&pre)?;
    let frames = encode_frames(&run)?;
    drop((pre, run));

    // Frame i is due once the points before it have been offered.
    let mut offered = 0u64;
    let frame_due = frames
        .iter()
        .map(|f| {
            let due = Duration::from_secs_f64(offered as f64 / rate);
            offered += u64::from(f.points);
            due
        })
        .collect();
    let mut rng = Rng::new(ctx.seed ^ 0x6d69_7865);
    let n_queries = (OFFERED_QUERIES_S * ctx.seconds).round() as usize;
    let mut query_due = Vec::with_capacity(n_queries);
    let queries = (0..n_queries)
        .map(|j| {
            let due_s = (j as f64 + 0.5) / OFFERED_QUERIES_S;
            query_due.push(Duration::from_secs_f64(due_s));
            // Where the writer's schedule stands when this query is due.
            let at = PRELOAD_SESSIONS + (due_s * sessions_per_s) as usize;
            let cold = 0..at.saturating_sub(COLD_AFTER_SESSIONS).max(1);
            let hot = at.saturating_sub(150)..at.saturating_sub(50).max(1);
            plan_query(&mut rng, &sessions, &cold, &hot)
        })
        .collect();

    let scratch = Scratch::new(ctx.scratch_root, NAME, rep)?;
    let flags = [
        "--lateness".to_string(),
        LATENESS_S.to_string(),
        "--evict-idle".to_string(),
        EVICT_IDLE_S.to_string(),
    ];
    let server = ServerChild::spawn(ctx.bqs, scratch.path(), &flags)?;
    let loaded = preload(server.addr, &pre_frames)?;
    if loaded.failed > 0 {
        return Err(format!(
            "{} preload frames failed, first: {}",
            loaded.failed,
            loaded.first_failure.unwrap_or_default()
        ));
    }
    let idle_s = if rep + 1 == super::SETUP_REPEATS {
        let max_t = sessions[..PRELOAD_SESSIONS]
            .iter()
            .map(Session::end_t)
            .fold(f64::MIN, f64::max);
        let evictable = sessions[..PRELOAD_SESSIONS.saturating_sub(COLD_AFTER_SESSIONS).max(1)]
            .iter()
            .filter(|s| s.end_t() < max_t - EVICT_IDLE_S)
            .count();
        wait_for_metric(
            server.addr,
            "fleet_evicted_sessions_total",
            evictable as f64,
            Duration::from_secs(10),
        )?
    } else {
        0.0
    };
    let accepted_points = accepted(&pre_frames) + accepted(&frames);
    Ok((
        Prepared {
            server,
            scratch,
            sessions,
            frames,
            frame_due,
            queries,
            query_due,
            truth: add(pre_truth, run_truth),
            accepted_points,
            preload_acked: loaded.acked_points,
        },
        idle_s,
    ))
}

/// Every point a single-track answer returns must be one of that
/// session's own points: reads beside writes may see more or less of a
/// track, never something else.
fn foreign_points(report: &QueryReport, sessions: &[Session]) -> usize {
    report
        .slices
        .iter()
        .map(|slice| {
            let Some(session) = sessions.get(slice.track as usize) else {
                return slice.points.len();
            };
            slice
                .points
                .iter()
                .filter(|p| {
                    let i = session.points.partition_point(|q| q.t < p.t);
                    session.points.get(i) != Some(*p)
                })
                .count()
        })
        .sum()
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let (prepared, setup_s) = repeat_setup(|rep| prepare(ctx, rep))?;
    let Prepared {
        server,
        scratch,
        sessions,
        frames,
        frame_due,
        queries,
        query_due,
        truth,
        accepted_points,
        preload_acked,
    } = prepared;
    let addr = server.addr;
    let ready_s = server.ready_s;
    let rtt_idle_us = median(&idle_rtt_us(addr, 200)?);
    let writer = Conn::connect(addr)?;
    let mut reader = BqsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let specs: Vec<QuerySpec> = queries.iter().map(|q| q.spec.clone()).collect();
    let before = scrape(addr)?;

    let t0 = Instant::now() + Duration::from_millis(20);
    let (written, read): (Res<WriteOutcome>, QueryOutcome) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| run_queries(&mut reader, &specs, Some((&query_due, t0))));
        let written = write_open(writer, &frames, &frame_due, t0);
        (written, reads.join().expect("reader thread panicked"))
    });
    let written = written?;
    let after = scrape(addr)?;
    let peak_rss = server.peak_rss_mb()?;
    drop(reader);
    let tree = server.spill.clone();
    let down = server.shutdown()?;

    let mut notes = Vec::new();
    let mut failed = written.failed + read.failed;
    let mut attempted = (frames.len() + queries.len()) as u64;

    // The generator must have kept its own schedule, or the run says
    // nothing about the server: a median send more than one frame
    // interval late makes the run invalid, not slow. (The p99 is
    // reported, not gated: on a 2-core host it is the scheduler
    // pre-empting the sender and TCP backpressure, both of which the
    // from-due-time latencies already carry.)
    let frame_interval_us = FRAME_POINTS as f64 / OFFERED_PTS_S * 1e6;
    let lag_p50 = percentile(&written.lag_us, 0.5);
    let lag_p99 = percentile(&written.lag_us, 0.99);
    attempted += 1;
    if lag_p50 > frame_interval_us {
        failed += 1;
        notes.push(format!(
            "run INVALID: generator lag p50 {lag_p50:.0} us exceeds one frame interval \
             ({frame_interval_us:.0} us)"
        ));
    }

    // Counts: acked = sent; the server's lateness counters equal the
    // generator's ground truth with zero slack.
    let acked = preload_acked + written.acked_points;
    let live_points = accepted_points - truth.backfill_points;
    let counter = |name: &str| after.get(name).copied().unwrap_or(-1.0) as i64;
    attempted += 5;
    for (what, got, want) in [
        ("acked points", acked as i64, accepted_points as i64),
        (
            "server's appended points",
            down.appended_points as i64,
            live_points as i64,
        ),
        (
            "late-accepted points",
            counter("net_late_accepted_points_total"),
            truth.late_points as i64,
        ),
        (
            "backfilled points",
            counter("net_backfilled_points_total"),
            truth.backfill_points as i64,
        ),
        (
            "too-late points",
            counter("net_too_late_points_total"),
            truth.too_late_points as i64,
        ),
    ] {
        if got != want {
            failed += 1;
            notes.push(format!("check FAILED: {what}: {got}, ground truth {want}"));
        }
    }
    if written.refused_probes != truth.too_late_points - preload_probes(&sessions) {
        failed += 1;
        notes.push(format!(
            "check FAILED: {} probes refused during the run",
            written.refused_probes
        ));
    }
    for (i, report) in read.reports.iter().enumerate() {
        let foreign = foreign_points(report, &sessions);
        if foreign > 0 {
            failed += 1;
            notes.push(format!(
                "check FAILED: answer {i} holds {foreign} foreign points"
            ));
        }
    }

    // The stored tree: verifies, and for sampled tracks holds an
    // anchor-to-anchor subsequence of the (sorted) input within the
    // tolerance — disordered and backfilled delivery included.
    attempted += 1;
    let facts = check_tree(&tree, &mut notes, &mut failed)?;
    let config = BqsConfig::new(super::TOLERANCE_M).expect("valid tolerance");
    let mut engine = QueryEngine::open(&tree).map_err(|e| format!("open tree: {e}"))?;
    let sample = sample_sessions(&sessions);
    attempted += sample.len() as u64;
    for s in &sample {
        let stored: Vec<TimedPoint> = engine
            .query_time_range(Some(s.track), TimeRange::all())
            .map_err(|e| format!("query track {}: {e}", s.track))?
            .slices
            .into_iter()
            .flat_map(|sl| sl.points)
            .collect();
        match verify_deviation_bound(&s.points, &stored, config.metric) {
            Some(worst) if worst <= config.tolerance * (1.0 + 1e-9) => {}
            worst => {
                failed += 1;
                notes.push(format!(
                    "check FAILED: track {} stored {} points, worst deviation {worst:?}",
                    s.track,
                    stored.len()
                ));
            }
        }
    }
    let wall_s = written.wall_s();
    notes.push(format!(
        "open loop {:.0} points/s + {OFFERED_QUERIES_S} queries/s for {:.1} s after {PRELOAD_SESSIONS} \
         preloaded sessions; generator lag p50 {lag_p50:.0} us p99 {lag_p99:.0} us; ground truth {} late, \
         {} backfilled, {} too-late; reorder depth peak {}; server: --workers 2 --lateness \
         {LATENESS_S} --evict-idle {EVICT_IDLE_S}, fsync off",
        written.acked_points as f64 / wall_s,
        wall_s,
        truth.late_points,
        truth.backfill_points,
        truth.too_late_points,
        counter("net_reorder_depth_peak"),
    ));
    drop(scratch);

    // One-second rounds: each holds thousands of acks and one eviction tick.
    let mut ack = Rounds::default();
    let per_round = (written.ack_us.len() as f64 / wall_s.max(1.0)).ceil() as usize;
    for chunk in written.ack_us.chunks(per_round.max(1)) {
        ack.push_round(chunk.to_vec());
    }
    let mut query = Rounds::default();
    query.push_round(read.latency_us.clone());

    let tails = BTreeMap::from([
        ("ack_p99_us", tail(&ack, 0.99, "ack", &mut notes)?),
        ("query_p95_us", tail(&query, 0.95, "query", &mut notes)?),
    ]);
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("throughput_pts_s", written.acked_points as f64 / wall_s),
        ("ack_p50_us", ack.p50()),
        ("query_p50_us", query.p50()),
        (
            "compression_ratio",
            facts.stored_points as f64 / accepted_points as f64,
        ),
        (
            "stored_bytes_per_point",
            facts.bytes as f64 / accepted_points as f64,
        ),
        ("peak_rss_mb", peak_rss),
    ]);
    let mut lag_us = written.lag_us;
    lag_us.extend_from_slice(&read.lag_us);
    Ok(Outcome {
        tails,
        result: RunResult {
            workload: NAME,
            attempted,
            failed,
            metrics,
            notes,
        },
        served: Some(Served {
            ready_s,
            shutdown_s: down.shutdown_s,
            rtt_idle_us,
            before,
            after,
            ingest_ns_per_pt: wall_s * 1e9 / written.acked_points.max(1) as f64,
            offered_pts_s: written.acked_points as f64 / wall_s,
            offered_queries_s: read.latency_us.len() as f64 / read.wall_s.max(1e-9),
            lag_us,
        }),
    })
}

/// Probes armed among the preloaded sessions (refused during set-up).
fn preload_probes(sessions: &[Session]) -> u64 {
    (PRELOAD_SESSIONS.min(sessions.len()) / crate::gen::PROBE_EVERY) as u64
}

pub fn replay_input(ctx: &Ctx) -> Res<ReplayInput> {
    let sessions = staggered_sessions(
        ctx.seed,
        0,
        ctx.size(400).max(200),
        POINTS_PER_SESSION,
        SAMPLE_INTERVAL_S,
    );
    let mut rng = Rng::new(ctx.seed ^ 0x6d69_7865);
    let n = sessions.len();
    let queries = (0..40)
        .map(|_| plan_query(&mut rng, &sessions, &(0..n / 2), &(n - 50..n)).spec)
        .collect();
    Ok(ReplayInput::disordered(
        NAME, sessions, queries, LATENESS_S, ctx.seed,
    ))
}
