//! `solo_compress`: the paper's device use-case. One thread, one
//! compressor at a time, no fleet, no network, no log: the paper's
//! corpus (bat + vehicle + synthetic) through FBQS and BQS at 5, 10 and
//! 20 m into a counting sink. The compressors and the `bqs-geo` kernels
//! do all the work, so a fleet, net or tlog change predicts no change.

use super::{repeat_setup, tail, Ctx, Outcome};
use crate::driver::{micros, peak_rss_mb, reset_own_peak_rss, Res};
use crate::gen::{Rng, Session, FRAME_POINTS};
use crate::replay::ReplayInput;
use crate::report::RunResult;
use crate::stats::{median, Rounds};
use bqs_core::reconstruct::Reconstructor;
use bqs_core::stream::{compress_all, CountingSink, StreamCompressor};
use bqs_core::{BqsCompressor, BqsConfig, FastBqsCompressor};
use bqs_eval::verify_deviation_bound;
use bqs_geo::TimedPoint;
use bqs_sim::{bat_dataset, synthetic_dataset, vehicle_dataset, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "solo_compress";

/// Rounds per 10 s of `--seconds`, frozen at the seed commit's speed.
const ROUNDS_PER_10S: usize = 18;
pub const TOLERANCES_M: [f64; 3] = [5.0, 10.0, 20.0];
/// Positions reconstructed per read sample, and samples per round.
const LOOKUPS_PER_SAMPLE: usize = 256;
const READ_SAMPLES_PER_ROUND: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Algo {
    Fbqs,
    Bqs,
}

fn corpus(ctx: &Ctx) -> Vec<Trace> {
    let mut traces = vec![
        bat_dataset(ctx.seed),
        vehicle_dataset(ctx.seed),
        synthetic_dataset(ctx.seed),
    ];
    if ctx.quick {
        for t in &mut traces {
            t.points.truncate(t.points.len() / 10);
        }
    }
    traces
}

/// Pushes `points` through `compressor` in frame-sized batches, one
/// latency sample per batch; returns the kept count.
fn push_batches<C: StreamCompressor>(
    mut compressor: C,
    points: &[TimedPoint],
    batch_us: &mut Vec<f64>,
) -> u64 {
    let mut sink = CountingSink::new();
    let mut mark = Instant::now();
    for batch in points.chunks(FRAME_POINTS) {
        for p in batch {
            compressor.push(*p, &mut sink);
        }
        let now = Instant::now();
        if batch.len() == FRAME_POINTS {
            batch_us.push(micros(now - mark));
        }
        mark = now;
    }
    compressor.finish(&mut sink);
    black_box(sink.count as u64)
}

fn compress(algo: Algo, tolerance: f64, points: &[TimedPoint], batch_us: &mut Vec<f64>) -> u64 {
    let config = BqsConfig::new(tolerance).expect("tolerances are positive");
    match algo {
        Algo::Fbqs => push_batches(FastBqsCompressor::new(config), points, batch_us),
        Algo::Bqs => push_batches(BqsCompressor::new(config), points, batch_us),
    }
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let (traces, setup_s) = repeat_setup(|_| Ok((corpus(ctx), 0.0)))?;
    let jobs: Vec<(Algo, f64, &Trace)> = [Algo::Fbqs, Algo::Bqs]
        .into_iter()
        .flat_map(|a| TOLERANCES_M.into_iter().map(move |t| (a, t)))
        .flat_map(|(a, t)| traces.iter().map(move |tr| (a, t, tr)))
        .collect();

    // The read side of the device use-case: positions reconstructed
    // from the kept points (the paper's Eqs. 1–3).
    let config = BqsConfig::new(super::TOLERANCE_M).expect("valid tolerance");
    let readers: Vec<Reconstructor<_>> = traces
        .iter()
        .map(|t| {
            let kept = compress_all(
                &mut FastBqsCompressor::new(config),
                t.points.iter().copied(),
            );
            Reconstructor::uniform(kept).ok_or("kept points are not time-ordered")
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(ctx.seed ^ 0x736f_6c6f);

    let rounds = ctx.rounds(ROUNDS_PER_10S);
    let (mut ack, mut query) = (Rounds::default(), Rounds::default());
    let mut throughput = Vec::with_capacity(rounds);
    let (mut kept_total, mut pushed_total) = (0u64, 0u64);
    reset_own_peak_rss();
    for _ in 0..rounds {
        let mut batch_us = Vec::with_capacity(jobs.len() * 3000);
        let (mut kept, mut pushed) = (0u64, 0u64);
        let start = Instant::now();
        for (algo, tolerance, trace) in &jobs {
            kept += compress(*algo, *tolerance, &trace.points, &mut batch_us);
            pushed += trace.points.len() as u64;
        }
        throughput.push(pushed as f64 / start.elapsed().as_secs_f64());
        ack.push_round(batch_us);
        kept_total = kept;
        pushed_total = pushed;

        let mut read_us = Vec::with_capacity(READ_SAMPLES_PER_ROUND);
        for _ in 0..READ_SAMPLES_PER_ROUND {
            let reader = &readers[rng.below(readers.len())];
            let keys = reader.keys();
            let (t0, span) = (keys[0].t, keys[keys.len() - 1].t - keys[0].t);
            let from = t0 + rng.unit() * span;
            let start = Instant::now();
            for i in 0..LOOKUPS_PER_SAMPLE {
                black_box(reader.at(black_box(from + i as f64)));
            }
            read_us.push(micros(start.elapsed()));
        }
        query.push_round(read_us);
    }
    let peak_rss = peak_rss_mb(std::process::id())?;

    // Output check, outside the clock: every compressed output honours
    // the paper's hard deviation bound.
    let mut notes = Vec::new();
    let mut failed = 0u64;
    for (algo, tolerance, trace) in &jobs {
        let config = BqsConfig::new(*tolerance).expect("valid tolerance");
        let points = trace.points.iter().copied();
        let kept = match algo {
            Algo::Fbqs => compress_all(&mut FastBqsCompressor::new(config), points),
            Algo::Bqs => compress_all(&mut BqsCompressor::new(config), points),
        };
        match verify_deviation_bound(&trace.points, &kept, config.metric) {
            Some(worst) if worst <= tolerance * (1.0 + 1e-9) => {}
            worst => {
                failed += 1;
                notes.push(format!(
                    "check FAILED: {algo:?} at {tolerance} m on {}: worst deviation {worst:?}",
                    trace.name
                ));
            }
        }
    }
    notes.push(format!(
        "{rounds} rounds x {} jobs ({} input points each round); {} deviation-bound checks",
        jobs.len(),
        pushed_total,
        jobs.len()
    ));

    let ratio = kept_total as f64 / pushed_total as f64;
    let tails = BTreeMap::from([
        ("ack_p99_us", tail(&ack, 0.99, "ack", &mut notes)?),
        ("query_p95_us", tail(&query, 0.95, "query", &mut notes)?),
    ]);
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("throughput_pts_s", median(&throughput)),
        ("ack_p50_us", ack.p50()),
        ("query_p50_us", query.p50()),
        ("compression_ratio", ratio),
        // A device stores or transmits the kept points raw.
        (
            "stored_bytes_per_point",
            ratio * std::mem::size_of::<TimedPoint>() as f64,
        ),
        ("peak_rss_mb", peak_rss),
    ]);
    Ok(Outcome {
        tails,
        result: RunResult {
            workload: NAME,
            attempted: (rounds * jobs.len() + jobs.len()) as u64,
            failed,
            metrics,
            notes,
        },
        served: None,
    })
}

/// The corpus as three long tracks.
pub fn replay_input(ctx: &Ctx) -> Res<ReplayInput> {
    let sessions: Vec<Session> = corpus(ctx)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Session {
            track: i as u64,
            points: t.points,
        })
        .collect();
    Ok(ReplayInput::in_order(NAME, sessions, Vec::new(), 0.0))
}
