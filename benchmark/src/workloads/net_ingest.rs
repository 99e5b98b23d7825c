//! `net_ingest`: the saturating write path. A spawned `bqs serve`, a
//! closed loop of two connections (one thread each) with eight 64-point
//! `Append` frames in flight per connection, long in-order sessions on
//! fresh track ids every round. Socket read → frame decode → watermark
//! → fleet mutex → channel hop → FBQS; the log is idle until shutdown,
//! so a codec or log change predicts no change.

use super::{
    check_tree, mismatched_tracks, repeat_setup, sample_sessions, tail, Ctx, Outcome, TOLERANCE_M,
};
use crate::driver::{
    idle_rtt_us, run_queries, scrape, write_closed_all, Conn, Res, Scratch, Served, ServerChild,
};
use crate::gen::{
    encode_frames, full_track, in_order_frames, parallel_sessions, Rng, Session, WireFrame,
};
use crate::replay::ReplayInput;
use crate::report::RunResult;
use crate::stats::{median, Rounds};
use bqs_net::{BqsClient, QuerySpec};
use std::collections::BTreeMap;

pub const NAME: &str = "net_ingest";

/// Timed rounds per 10 s, plus the one whose slices precede the query rounds.
const ROUNDS_PER_10S: usize = 25;
const TRACKS_PER_ROUND: usize = 128;
const POINTS_PER_TRACK: usize = 4096;
const CONNECTIONS: usize = 2;
const WINDOW: usize = 8;
/// Hot-track queries once every round is in: rounds of this many.
const QUERY_ROUNDS: usize = 15;
const QUERIES_PER_ROUND: usize = 32;

struct Prepared {
    /// Declared before the server so the child is reaped first on drop.
    server: ServerChild,
    scratch: Scratch,
    /// Per round, per connection, the encoded frames.
    rounds: Vec<Vec<Vec<WireFrame>>>,
    /// Round 0's sessions: the sample the stored tree is checked against.
    first_round: Vec<Session>,
    points_per_round: u64,
}

fn sessions_of_round(ctx: &Ctx, round: usize) -> Vec<Session> {
    let tracks = ctx.size(TRACKS_PER_ROUND).max(CONNECTIONS);
    parallel_sessions(ctx.seed, (round * tracks) as u64, tracks, POINTS_PER_TRACK)
}

fn prepare(ctx: &Ctx, rounds: usize, rep: usize) -> Res<Prepared> {
    let mut encoded = Vec::with_capacity(rounds);
    let mut first_round = Vec::new();
    let mut points_per_round = 0u64;
    for round in 0..rounds {
        let sessions = sessions_of_round(ctx, round);
        points_per_round = sessions.iter().map(|s| s.points.len() as u64).sum();
        let frames = in_order_frames(&sessions);
        let mut per_conn = vec![Vec::new(); CONNECTIONS];
        for (frame, wire) in frames.iter().zip(encode_frames(&frames)?) {
            per_conn[frame.track as usize % CONNECTIONS].push(wire);
        }
        encoded.push(per_conn);
        if round == 0 {
            first_round = sessions;
        }
    }
    let scratch = Scratch::new(ctx.scratch_root, NAME, rep)?;
    let server = ServerChild::spawn(ctx.bqs, scratch.path(), &[])?;
    Ok(Prepared {
        server,
        scratch,
        rounds: encoded,
        first_round,
        points_per_round,
    })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let rounds = ctx.rounds(ROUNDS_PER_10S);
    let (prepared, setup_s) = repeat_setup(|rep| Ok((prepare(ctx, rounds, rep)?, 0.0)))?;
    let Prepared {
        server,
        scratch,
        rounds: encoded,
        first_round,
        points_per_round,
    } = prepared;
    let addr = server.addr;
    let ready_s = server.ready_s;
    let rtt_idle_us = median(&idle_rtt_us(addr, 200)?);
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::connect(addr))
        .collect::<Res<_>>()?;
    let mut reader = BqsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(ctx.seed ^ 0x6e65_7469);
    let before = scrape(addr)?;

    let (mut ack, mut query) = (Rounds::default(), Rounds::default());
    let mut throughput = Vec::with_capacity(rounds);
    let (mut ingest_s, mut lag_us) = (0.0, Vec::new());
    let (mut acked, mut failed, mut attempted) = (0u64, 0u64, 0u64);
    let (timed, stir) = encoded.split_at(rounds - 1);
    for per_conn in timed {
        let frames: Vec<&[WireFrame]> = per_conn.iter().map(Vec::as_slice).collect();
        let mut o = write_closed_all(&mut conns, &frames, WINDOW)?;
        attempted += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        failed += o.failed;
        ingest_s += o.wall_s();
        acked += o.acked_points;
        throughput.push(o.acked_points as f64 / o.wall_s());
        ack.push_round(std::mem::take(&mut o.ack_us));
        lag_us.append(&mut o.lag_us);
    }

    // The read path here is the fleet snapshot: every session is hot
    // (nothing is evicted). Queries run once the timed rounds are in, so
    // the live-session count is the same on every run. Whether the two
    // workers' halves of a snapshot run side by side or one after the
    // other depends on which cores they last ran on, and that sticks
    // for as long as the server idles — so each query round is preceded
    // by a slice of one more ingest round that stirs the placement, and
    // the median over rounds reads the common case.
    let tracks = (ctx.size(TRACKS_PER_ROUND).max(CONNECTIONS) * rounds) as u64;
    let mut query_s = 0.0;
    let slice = |c: usize, i: usize| -> &[WireFrame] {
        let frames = &stir[0][c];
        let per = frames.len().div_ceil(QUERY_ROUNDS);
        &frames[(i * per).min(frames.len())..((i + 1) * per).min(frames.len())]
    };
    for i in 0..QUERY_ROUNDS {
        let frames: Vec<&[WireFrame]> = (0..CONNECTIONS).map(|c| slice(c, i)).collect();
        let o = write_closed_all(&mut conns, &frames, WINDOW)?;
        attempted += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        failed += o.failed;
        acked += o.acked_points;
        let specs: Vec<QuerySpec> = (0..QUERIES_PER_ROUND)
            .map(|_| full_track(rng.next_u64() % tracks))
            .collect();
        let q = run_queries(&mut reader, &specs, None);
        attempted += specs.len() as u64;
        failed += q.failed + q.reports.iter().filter(|r| r.hot_points == 0).count() as u64;
        query_s += q.wall_s;
        query.push_round(q.latency_us);
    }
    let after = scrape(addr)?;
    let peak_rss = server.peak_rss_mb()?;
    drop((conns, reader));
    let tree = server.spill.clone();
    let down = server.shutdown()?;

    let mut notes = Vec::new();
    let sent = points_per_round * rounds as u64;
    attempted += 3;
    if !(acked == sent && down.appended_points == sent) {
        failed += 1;
        notes.push(format!(
            "check FAILED: sent {sent}, acked {acked}, server counted {}",
            down.appended_points
        ));
    }
    let facts = check_tree(&tree, &mut notes, &mut failed)?;
    let sample = sample_sessions(&first_round);
    attempted += sample.len() as u64;
    failed += mismatched_tracks(&tree, &sample, &mut notes)?;
    notes.push(format!(
        "{rounds} rounds x {points_per_round} points, {CONNECTIONS} connections x {WINDOW} frames \
         in flight; server: --workers 2, pool runtime, fsync off, {TOLERANCE_M} m; \
         shutdown {:.3} s; {} tracks compared with the in-process fleet",
        down.shutdown_s,
        sample.len()
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
            ingest_ns_per_pt: ingest_s * 1e9 / acked.max(1) as f64,
            offered_pts_s: acked as f64 / ingest_s.max(1e-9),
            offered_queries_s: query.total() as f64 / query_s.max(1e-9),
            lag_us,
        }),
    })
}

/// A slice of one round: a few long concurrent tracks.
pub fn replay_input(ctx: &Ctx) -> Res<ReplayInput> {
    let mut sessions = sessions_of_round(ctx, 0);
    sessions.truncate(16);
    let queries = sessions.iter().map(|s| full_track(s.track)).collect();
    Ok(ReplayInput::in_order(NAME, sessions, queries, 0.0))
}
