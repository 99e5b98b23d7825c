//! The five workloads and what they share: sizing, repeated set-up,
//! and the in-process reference the served outputs are checked against.

pub mod churn_spill;
pub mod mixed_rw;
pub mod net_ingest;
pub mod query_scan;
pub mod solo_compress;

use crate::driver::{dir_bytes, write_closed, Conn, Res, Served, WriteOutcome};
use crate::gen::Session;
use crate::gen::WireFrame;
use crate::replay::ReplayInput;
use crate::stats::{median, Rounds};
use bqs_core::fleet::{FleetConfig, FleetEngine};
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::TimedPoint;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Tolerance every fleet and server workload compresses at — the
/// `bqs serve` default.
pub const TOLERANCE_M: f64 = 10.0;

/// Fleet worker shards, in process and behind the server (`nproc`).
pub const WORKERS: usize = 2;

/// Stream seconds a session may idle before eviction. Longer than the
/// 640 s one frame spans, so only finished sessions are ever evicted.
pub const EVICT_IDLE_S: f64 = 1500.0;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Tracks whose stored output is compared point for point against an
/// in-process reference.
pub const SAMPLED_TRACKS: usize = 32;

/// What a run needs from its caller.
pub struct Ctx<'a> {
    pub seed: u64,
    /// `--seconds`: work is fixed per round and the round count scales
    /// with this, so a run at the parent commit's speed measures for
    /// about this long.
    pub seconds: f64,
    /// 1/20-size smoke run.
    pub quick: bool,
    /// The `bqs` binary to spawn.
    pub bqs: &'a Path,
    /// Where scratch directories go.
    pub scratch_root: &'a Path,
}

impl Ctx<'_> {
    /// Rounds for a workload frozen at `per_10s` rounds per 10 s.
    pub fn rounds(&self, per_10s: usize) -> usize {
        let scaled = (per_10s as f64 * self.seconds / 10.0).round() as usize;
        if self.quick {
            (scaled / 2).max(2)
        } else {
            scaled.max(3)
        }
    }

    /// A per-round size, a tenth in `--quick` (which also halves rounds).
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each earlier product
/// before the next starts, and returns the last product with the median
/// set-up time. `setup` reports idle seconds to exclude (waiting on the
/// server's one-second eviction tick is a timer, not work).
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> Res<(T, f64)>) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let (product, idle_s) = setup(rep)?;
        times.push((start.elapsed().as_secs_f64() - idle_s).max(0.0));
        last = Some(product);
    }
    Ok((last.expect("SETUP_REPEATS ≥ 1"), median(&times)))
}

/// The kept points an in-process [`FleetEngine`] produces for
/// `sessions` — what a served or spilled tree must hold for the same
/// input, track for track.
pub fn reference_kept(sessions: &[&Session]) -> HashMap<u64, Vec<TimedPoint>> {
    let config = BqsConfig::new(TOLERANCE_M).expect("10 m is a valid tolerance");
    let mut engine = FleetEngine::new(FleetConfig::default(), move || {
        FastBqsCompressor::new(config)
    });
    let mut sink: HashMap<u64, Vec<TimedPoint>> = HashMap::new();
    // Interleaved round-robin, as a fleet sees concurrent tracks.
    let longest = sessions.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..longest {
        for s in sessions {
            if let Some(p) = s.points.get(i) {
                engine.push_tagged(s.track, *p, &mut sink);
            }
        }
    }
    engine.finish_all(&mut sink);
    sink
}

/// Runs a wire-level query spec against an in-process engine.
pub fn engine_query(
    engine: &mut bqs_tlog::QueryEngine,
    spec: &bqs_net::QuerySpec,
) -> Result<bqs_tlog::UnifiedOutput, bqs_tlog::TlogError> {
    let range = bqs_tlog::TimeRange::new(spec.from, spec.to);
    match spec.bbox {
        Some([x0, y0, x1, y1]) => engine.query_bbox(
            spec.track,
            bqs_geo::Rect::from_corners(bqs_geo::Point2::new(x0, y0), bqs_geo::Point2::new(x1, y1)),
            Some(range),
        ),
        None => engine.query_time_range(spec.track, range),
    }
}

/// An evenly spread sample of up to [`SAMPLED_TRACKS`] sessions.
pub fn sample_sessions(sessions: &[Session]) -> Vec<&Session> {
    let n = sessions.len().clamp(1, SAMPLED_TRACKS);
    (0..n).map(|i| &sessions[i * sessions.len() / n]).collect()
}

/// Compares each sampled track's stored points with the in-process
/// reference; returns how many differ.
pub fn mismatched_tracks(tree: &Path, sample: &[&Session], notes: &mut Vec<String>) -> Res<u64> {
    let reference = reference_kept(sample);
    let mut engine = bqs_tlog::QueryEngine::open(tree).map_err(|e| format!("open tree: {e}"))?;
    let mut bad = 0u64;
    for s in sample {
        let out = engine
            .query_time_range(Some(s.track), bqs_tlog::TimeRange::all())
            .map_err(|e| format!("query track {}: {e}", s.track))?;
        let stored: Vec<TimedPoint> = out.slices.into_iter().flat_map(|sl| sl.points).collect();
        if reference.get(&s.track) != Some(&stored) {
            bad += 1;
            notes.push(format!(
                "check FAILED: track {} stores {} points, the in-process fleet keeps {}",
                s.track,
                stored.len(),
                reference.get(&s.track).map_or(0, Vec::len)
            ));
        }
    }
    Ok(bad)
}

/// The tail percentile `p` of `samples`; a run too short to carry it
/// (`--quick`, a small `--seconds`) reports the highest percentile it
/// does support and says so.
pub fn tail(samples: &Rounds, p: f64, what: &str, notes: &mut Vec<String>) -> Res<f64> {
    let (value, used) = samples
        .tail_or_best(p)
        .ok_or_else(|| format!("no {what} samples"))?;
    if used < p {
        notes.push(format!(
            "{what}: p{:.1} reported in place of p{:.0} ({} samples)",
            used * 100.0,
            p * 100.0,
            samples.total()
        ));
    }
    Ok(value)
}

/// What a verified spill tree holds.
pub struct TreeFacts {
    /// Points stored across every record (backfill included).
    pub stored_points: u64,
    /// Bytes of the tree on disk: segments plus MANIFEST.
    pub bytes: u64,
}

/// `verify_sharded` must accept the tree; a rejected tree is a failed
/// operation (and leaves nothing to measure, so the run stops).
pub fn check_tree(tree: &Path, notes: &mut Vec<String>, failed: &mut u64) -> Res<TreeFacts> {
    match bqs_tlog::verify_sharded(tree) {
        Ok(report) => {
            notes.push(format!(
                "verify OK: {} shards, {} records ({} backfill), {} points, {} B, MANIFEST {:?}",
                report.shards.len(),
                report.total.records,
                report.total.backfill_records,
                report.total.points,
                report.total.file_bytes,
                report.manifest
            ));
            Ok(TreeFacts {
                stored_points: report.total.points,
                bytes: dir_bytes(tree)?,
            })
        }
        Err(e) => {
            *failed += 1;
            Err(format!(
                "check FAILED: verify_sharded rejects the tree: {e}"
            ))
        }
    }
}

/// Set-up ingest: one connection, closed loop, eight frames in flight —
/// one connection so the delivery order, and with it which sessions the
/// eviction tick finds idle, is the generator's.
pub fn preload(addr: std::net::SocketAddr, frames: &[WireFrame]) -> Res<WriteOutcome> {
    let mut conn = Conn::connect(addr)?;
    write_closed(&mut conn, frames, 8)
}

/// A run's result, plus what was observed of the spawned server (for
/// the traced pass) when the workload has one.
pub struct Outcome {
    pub result: crate::report::RunResult,
    /// `ack_p99_us` and `query_p95_us`: measured by every run, reported
    /// with the per-layer set.
    pub tails: std::collections::BTreeMap<&'static str, f64>,
    pub served: Option<Served>,
}

/// What every workload exposes to `main`.
pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Ctx) -> Res<Outcome>,
    /// The inputs the traced pass replays, a sample of the workload's own.
    pub replay_input: fn(&Ctx) -> Res<ReplayInput>,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "solo_compress",
        run: solo_compress::run,
        replay_input: solo_compress::replay_input,
    },
    Workload {
        name: "net_ingest",
        run: net_ingest::run,
        replay_input: net_ingest::replay_input,
    },
    Workload {
        name: "churn_spill",
        run: churn_spill::run,
        replay_input: churn_spill::replay_input,
    },
    Workload {
        name: "query_scan",
        run: query_scan::run,
        replay_input: query_scan::replay_input,
    },
    Workload {
        name: "mixed_rw",
        run: mixed_rw::run,
        replay_input: mixed_rw::replay_input,
    },
];
