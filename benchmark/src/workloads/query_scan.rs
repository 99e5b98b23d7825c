//! `query_scan`: the read path alone. A spawned `bqs serve
//! --evict-idle`; set-up ingests thousands of staggered sessions so
//! most are evicted to disk and the last hundred-odd stay hot; then one
//! closed-loop client issues a seeded list of queries — 60 % one cold
//! track, 20 % a narrow window, 10 % a small box, 10 % one hot track.
//! Fleet snapshot under the fleet lock, a fresh `QueryEngine::open` per
//! query, prune, decode, merge, reply encode; the compressor is idle.

use super::{
    check_tree, engine_query, preload, repeat_setup, tail, Ctx, Outcome, EVICT_IDLE_S, TOLERANCE_M,
};
use crate::driver::{
    idle_rtt_us, run_queries, scrape, wait_for_metric, write_closed, Conn, Res, Scratch, Served,
    ServerChild,
};
use crate::gen::{
    encode_frames, in_order_frames, parallel_sessions, plan_query, staggered_sessions,
    PlannedQuery, Rng, Session, WireFrame, FRAME_POINTS, SAMPLE_INTERVAL_S,
};
use crate::replay::ReplayInput;
use crate::report::RunResult;
use crate::stats::{median, Rounds};
use bqs_net::{BqsClient, QueryReport, QuerySpec};
use bqs_tlog::QueryEngine;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;

pub const NAME: &str = "query_scan";

const ROUNDS_PER_10S: usize = 10;
const QUERIES_PER_ROUND: usize = 100;
const SESSIONS: usize = 4000;
const POINTS_PER_SESSION: usize = 200;
/// Single-frame appends after each round, one in flight: the write
/// latency of a read-mostly server. Outside the throughput clock.
const APPENDS_PER_ROUND: usize = 200;
const APPEND_TRACKS: usize = 4;
/// The append tracks tick this fast, so the server's stream clock — and
/// with it the hot set — stays put while the queries run.
const APPEND_TICK_S: f64 = 0.001;

/// The sessions and which of them end up cold (evicted) and hot.
pub struct Population {
    pub sessions: Vec<Session>,
    pub cold: Range<usize>,
    pub hot: Range<usize>,
    /// Sessions the server must have evicted once the preload is in.
    pub evicted: usize,
}

pub fn population(seed: u64, count: usize) -> Population {
    let sessions = staggered_sessions(seed, 0, count, POINTS_PER_SESSION, SAMPLE_INTERVAL_S);
    let max_t = sessions.iter().map(Session::end_t).fold(f64::MIN, f64::max);
    // Session ends are not quite monotone in the index (start jitter),
    // so the classes keep a margin around the eviction cutoff.
    let cutoff = max_t - EVICT_IDLE_S;
    let evicted = sessions.iter().filter(|s| s.end_t() < cutoff).count();
    let cold_end = sessions
        .iter()
        .position(|s| s.end_t() >= cutoff - 60.0)
        .unwrap_or(count);
    let hot_start = sessions
        .iter()
        .rposition(|s| s.end_t() < cutoff + 60.0)
        .map_or(0, |i| i + 1);
    Population {
        sessions,
        cold: 0..cold_end,
        hot: hot_start..count,
        evicted,
    }
}

struct Prepared {
    server: ServerChild,
    scratch: Scratch,
    population: Population,
    queries: Vec<PlannedQuery>,
    appends: Vec<WireFrame>,
    preload_points: u64,
}

fn prepare(ctx: &Ctx, rounds: usize, rep: usize) -> Res<(Prepared, f64)> {
    let population = population(ctx.seed, ctx.size(SESSIONS).max(400));
    let frames = encode_frames(&in_order_frames(&population.sessions))?;
    let mut rng = Rng::new(ctx.seed ^ 0x7175_6572);
    let queries = (0..rounds * QUERIES_PER_ROUND)
        .map(|_| {
            plan_query(
                &mut rng,
                &population.sessions,
                &population.cold,
                &population.hot,
            )
        })
        .collect();
    let max_t = population.sessions.last().map_or(0.0, Session::end_t);
    let frames_per_track = (rounds * APPENDS_PER_ROUND).div_ceil(APPEND_TRACKS);
    let mut append_sessions = parallel_sessions(
        ctx.seed,
        1 << 40,
        APPEND_TRACKS,
        frames_per_track * FRAME_POINTS,
    );
    for s in &mut append_sessions {
        for (i, p) in s.points.iter_mut().enumerate() {
            p.t = max_t + 1.0 + i as f64 * APPEND_TICK_S;
        }
    }
    let appends = encode_frames(&in_order_frames(&append_sessions))?;

    let scratch = Scratch::new(ctx.scratch_root, NAME, rep)?;
    let flags = ["--evict-idle".to_string(), EVICT_IDLE_S.to_string()];
    let server = ServerChild::spawn(ctx.bqs, scratch.path(), &flags)?;
    let loaded = preload(server.addr, &frames)?;
    // Only the last set-up is measured on, so only it waits for the
    // server's one-second eviction tick — idle time, not set-up work.
    let idle_s = if rep + 1 == super::SETUP_REPEATS {
        wait_for_metric(
            server.addr,
            "fleet_evicted_sessions_total",
            population.evicted as f64,
            Duration::from_secs(10),
        )?
    } else {
        0.0
    };
    Ok((
        Prepared {
            server,
            scratch,
            population,
            queries,
            appends,
            preload_points: loaded.acked_points,
        },
        idle_s,
    ))
}

/// A server reply and the finished tree's answer, side by side.
fn same_answer(report: &QueryReport, spec: &QuerySpec, engine: &mut QueryEngine) -> Res<bool> {
    let expected = engine_query(engine, spec).map_err(|e| format!("reference query: {e}"))?;
    Ok(report.slices == expected.slices)
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let rounds = ctx.rounds(ROUNDS_PER_10S);
    let (prepared, setup_s) = repeat_setup(|rep| prepare(ctx, rounds, rep))?;
    let Prepared {
        server,
        scratch,
        population,
        queries,
        appends,
        preload_points,
    } = prepared;
    let addr = server.addr;
    let ready_s = server.ready_s;
    let rtt_idle_us = median(&idle_rtt_us(addr, 200)?);
    let mut reader = BqsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = Conn::connect(addr)?;
    let before = scrape(addr)?;

    let (mut ack, mut query) = (Rounds::default(), Rounds::default());
    let mut throughput = Vec::with_capacity(rounds);
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut reports: Vec<QueryReport> = Vec::with_capacity(queries.len());
    let (mut appended, mut query_wall_s, mut append_wall_s) = (0u64, 0.0, 0.0);
    let mut lag_us = Vec::new();
    for r in 0..rounds {
        let specs: Vec<QuerySpec> = queries[r * QUERIES_PER_ROUND..(r + 1) * QUERIES_PER_ROUND]
            .iter()
            .map(|q| q.spec.clone())
            .collect();
        let mut q = run_queries(&mut reader, &specs, None);
        attempted += specs.len() as u64;
        failed += q.failed;
        query_wall_s += q.wall_s;
        throughput.push(q.points_returned as f64 / q.wall_s);
        query.push_round(q.latency_us);
        reports.append(&mut q.reports);

        let chunk = &appends[r * APPENDS_PER_ROUND..(r + 1) * APPENDS_PER_ROUND];
        let mut w = write_closed(&mut writer, chunk, 1)?;
        attempted += chunk.len() as u64;
        failed += w.failed;
        appended += w.acked_points;
        append_wall_s += w.wall_s();
        ack.push_round(std::mem::take(&mut w.ack_us));
        lag_us.append(&mut w.lag_us);
    }
    let after = scrape(addr)?;
    let peak_rss = server.peak_rss_mb()?;
    drop((reader, writer));
    let tree = server.spill.clone();
    let down = server.shutdown()?;

    // Hot ∪ cold ≡ the finished tree: every answer the live server gave
    // must equal the same query over what it left on disk.
    let mut notes = Vec::new();
    let sent = preload_points + appended;
    attempted += 2;
    if down.appended_points != sent {
        failed += 1;
        notes.push(format!(
            "check FAILED: sent and acked {sent}, server counted {}",
            down.appended_points
        ));
    }
    let facts = check_tree(&tree, &mut notes, &mut failed)?;
    let mut engine = QueryEngine::open(&tree).map_err(|e| format!("open tree: {e}"))?;
    if reports.len() == queries.len() {
        for (i, (report, planned)) in reports.iter().zip(&queries).enumerate() {
            if !same_answer(report, &planned.spec, &mut engine)? {
                failed += 1;
                notes.push(format!(
                    "check FAILED: answer {i} ({:?}) differs from the finished tree",
                    planned.kind
                ));
            }
        }
    }
    notes.push(format!(
        "{rounds} rounds x {QUERIES_PER_ROUND} queries over {} sessions ({} cold, {} hot, {} \
         evicted before the clock); {} answers compared with the finished tree; server: \
         --workers 2 --evict-idle {EVICT_IDLE_S}, fsync off, {TOLERANCE_M} m",
        population.sessions.len(),
        population.cold.len(),
        population.hot.len(),
        population.evicted,
        reports.len()
    ));
    drop(scratch);

    let tails = BTreeMap::from([
        ("ack_p99_us", tail(&ack, 0.99, "ack", &mut notes)?),
        ("query_p95_us", tail(&query, 0.95, "query", &mut notes)?),
    ]);
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("throughput_pts_s", median(&throughput)),
        ("ack_p50_us", ack.p50()),
        ("query_p50_us", query.p50()),
        (
            "compression_ratio",
            facts.stored_points as f64 / sent as f64,
        ),
        ("stored_bytes_per_point", facts.bytes as f64 / sent as f64),
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
        served: Some(Served {
            ready_s,
            shutdown_s: down.shutdown_s,
            rtt_idle_us,
            before,
            after,
            ingest_ns_per_pt: append_wall_s * 1e9 / appended.max(1) as f64,
            offered_pts_s: appended as f64 / append_wall_s.max(1e-9),
            offered_queries_s: queries.len() as f64 / query_wall_s.max(1e-9),
            lag_us,
        }),
    })
}

pub fn replay_input(ctx: &Ctx) -> Res<ReplayInput> {
    let population = population(ctx.seed, ctx.size(400).max(200));
    let mut rng = Rng::new(ctx.seed ^ 0x7175_6572);
    let queries = (0..40)
        .map(|_| {
            plan_query(
                &mut rng,
                &population.sessions,
                &population.cold,
                &population.hot,
            )
            .spec
        })
        .collect();
    Ok(ReplayInput::in_order(
        NAME,
        population.sessions,
        queries,
        0.0,
    ))
}
