//! The traced pass: an outside-in staged replay.
//!
//! Each workload's own inputs (a sample of them) are driven through the
//! public functions of every layer, one stage at a time, on one thread,
//! with a span around each call at frame / session / query granularity
//! — never per point. Nothing inside the crates is instrumented: a
//! layer's cost is what its public entry points cost from outside, and
//! where one public call contains another layer's work (a log append
//! encodes; a spill appends) the inner layer's separately measured time
//! on the same input is attached as a *replayed* child and subtracted.
//!
//! What no outside span can see — sockets, syscalls, lock wait, the
//! channel hop, scheduling — is the residual between a served run's
//! wall time per point and the replayed stages on the server's path.

use crate::driver::{
    idle_rtt_us, run_queries, scrape, write_closed_all, Conn, Res, Scratch, Served, ServerChild,
};
use crate::gen::{
    disordered_frames, encode_frames, in_order_frames, plan_query, Frame, FrameKind, Rng, Session,
    WireFrame,
};
use crate::spans::{self_time_by_name, self_times, Recorder, SpanId};
use crate::stats::{median, percentile};
use crate::workloads::{engine_query, Ctx, EVICT_IDLE_S, TOLERANCE_M, WORKERS};
use bqs_core::fleet::parallel::worker_of;
use bqs_core::fleet::{
    CountingFleetSink, FleetConfig, FleetEngine, FleetReorder, FlushReason, ParallelConfig,
    ParallelFleet, SessionReport,
};
use bqs_core::metrics::DeviationMetric;
use bqs_core::quadrant::QuadrantBounds;
use bqs_core::stream::{HasDecisionStats, StreamCompressor};
use bqs_core::{BoundsMode, BqsCompressor, BqsConfig, DecisionStats, FastBqsCompressor};
use bqs_geo::{point_to_line_distance, ColumnarBatch, Point2, Quadrant, TimedPoint};
use bqs_net::wire::{decode_frame, frame_to_vec, Reply};
use bqs_net::{decode_append_columns, encode_append_columns, BqsClient, QueryReport, QuerySpec};
use bqs_tlog::codec::{decode_to_vec, encode_points};
use bqs_tlog::{
    prepare_spill_logs, shard_dir, verify_sharded, LogConfig, Manifest, QueryEngine, SpillSink,
    TrajectoryLog,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the traced pass replays for one workload.
pub struct ReplayInput {
    pub workload: &'static str,
    /// Time-ordered points per track.
    pub sessions: Vec<Session>,
    /// The same points in the workload's delivery order.
    pub frames: Vec<Frame>,
    pub queries: Vec<QuerySpec>,
    /// The workload's server lateness window; 0 = strict order.
    pub lateness_s: f64,
}

impl ReplayInput {
    pub fn in_order(
        workload: &'static str,
        sessions: Vec<Session>,
        queries: Vec<QuerySpec>,
        lateness_s: f64,
    ) -> ReplayInput {
        let frames = in_order_frames(&sessions);
        ReplayInput::assemble(workload, sessions, frames, queries, lateness_s)
    }

    pub fn disordered(
        workload: &'static str,
        sessions: Vec<Session>,
        queries: Vec<QuerySpec>,
        lateness_s: f64,
        seed: u64,
    ) -> ReplayInput {
        let (frames, _) = disordered_frames(&sessions, lateness_s, seed);
        ReplayInput::assemble(workload, sessions, frames, queries, lateness_s)
    }

    /// Every per-layer metric is measured on every workload, so the
    /// query list always holds at least one track and one box query.
    fn assemble(
        workload: &'static str,
        sessions: Vec<Session>,
        frames: Vec<Frame>,
        mut queries: Vec<QuerySpec>,
        lateness_s: f64,
    ) -> ReplayInput {
        let all = 0..sessions.len();
        let mut rng = Rng::new(0x7265_706c);
        while !(queries.iter().any(|q| q.bbox.is_some())
            && queries.iter().any(|q| q.bbox.is_none()))
        {
            queries.push(plan_query(&mut rng, &sessions, &all, &all).spec);
        }
        ReplayInput {
            workload,
            sessions,
            frames,
            queries,
            lateness_s,
        }
    }

    pub fn points(&self) -> u64 {
        self.sessions.iter().map(|s| s.points.len() as u64).sum()
    }

    fn live_frames(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter().filter(|f| f.kind == FrameKind::Live)
    }
}

type Values = BTreeMap<&'static str, f64>;

/// Runs `body` as a stage under `root`; returns its duration in ns.
fn stage(
    rec: &mut Recorder,
    root: SpanId,
    name: &'static str,
    body: impl FnOnce(&mut Recorder, SpanId) -> Res<()>,
) -> Res<f64> {
    let open = rec.open(name, Some(root));
    body(rec, open.id())?;
    Ok(rec.close(open) as f64)
}

fn compress_sessions<C: StreamCompressor + HasDecisionStats>(
    rec: &mut Recorder,
    at: SpanId,
    name: &'static str,
    sessions: &[Session],
    make: impl Fn() -> C,
    mut keep: impl FnMut(&Session, &[TimedPoint]),
) -> DecisionStats {
    let mut stats = DecisionStats::default();
    let mut kept: Vec<TimedPoint> = Vec::new();
    for s in sessions {
        kept.clear();
        stats.merge(&rec.call(name, at, || {
            let mut c = make();
            for p in &s.points {
                c.push(*p, &mut kept);
            }
            c.finish(&mut kept);
            c.decision_stats()
        }));
        keep(s, &kept);
    }
    stats
}

fn tlog_err(what: &str) -> impl Fn(bqs_tlog::TlogError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One round of the staged replay. Returns the per-layer values this
/// round measured and the round's wall time in ns.
pub fn replay_round(input: &ReplayInput, rec: &mut Recorder, dir: &Path) -> Res<(Values, f64)> {
    let mut v = Values::new();
    let points = input.points() as f64;
    let sessions = &input.sessions;
    let n_sessions = sessions.len() as f64;
    let live: Vec<&Frame> = input.live_frames().collect();
    let live_points: f64 = live.iter().map(|f| f.points.len() as f64).sum();
    let ordered = in_order_frames(sessions);
    let config = BqsConfig::new(TOLERANCE_M).expect("valid tolerance");
    let root = rec.open("replay", None);
    let root_id = root.id();

    // --- net.wire + geo: what a frame costs on its way in ------------
    let mut wire: Vec<Vec<u8>> = Vec::with_capacity(live.len());
    let ns = stage(rec, root_id, "net.wire.encode_append", |rec, at| {
        for f in &live {
            wire.push(
                rec.call("net.wire.encode_append", at, || {
                    let batch = ColumnarBatch::from_points(&f.points);
                    encode_append_columns(f.track, &batch).map(|p| frame_to_vec(&p))
                })
                .map_err(|e| format!("encode append: {e}"))?,
            );
        }
        Ok(())
    })?;
    v.insert("net.wire.encode_append_ns_per_pt", ns / live_points);
    v.insert(
        "net.wire.bytes_per_pt",
        wire.iter().map(Vec::len).sum::<usize>() as f64 / live_points,
    );
    let ns = stage(rec, root_id, "net.wire.decode_append", |rec, at| {
        let mut batch = ColumnarBatch::new();
        for bytes in &wire {
            rec.call("net.wire.decode_append", at, || {
                let (payload, _) = decode_frame(bytes).map_err(|e| e.to_string())?;
                batch.clear();
                decode_append_columns(&payload, &mut batch).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("decode append: {e}"))?;
            black_box(batch.len());
        }
        Ok(())
    })?;
    v.insert("net.wire.decode_append_ns_per_pt", ns / live_points);
    let ns = stage(rec, root_id, "geo.columnar_roundtrip", |rec, at| {
        for f in &live {
            let batch = rec.call("geo.columnar.from_points", at, || {
                ColumnarBatch::from_points(&f.points)
            });
            black_box(rec.call("geo.columnar.to_points", at, || batch.to_points()));
        }
        Ok(())
    })?;
    v.insert("geo.columnar_roundtrip_ns_per_pt", ns / live_points);

    // --- core.reorder: the bounded-lateness buffer --------------------
    let window = if input.lateness_s > 0.0 {
        input.lateness_s
    } else {
        60.0
    };
    let mut depth_peak = 0usize;
    let ns = stage(rec, root_id, "core.reorder.push", |rec, at| {
        let mut reorder = FleetReorder::new(window);
        let mut released = Vec::new();
        for f in &live {
            rec.call("core.reorder.push", at, || {
                released.clear();
                for p in &f.points {
                    // The generator never exceeds the window.
                    let _ = reorder.push(f.track, *p, &mut released);
                }
            });
            depth_peak = depth_peak.max(reorder.depth());
        }
        black_box(reorder.drain_all());
        Ok(())
    })?;
    v.insert("core.reorder.push_ns_per_pt", ns / live_points);
    v.insert("core.reorder.depth_peak", depth_peak as f64);

    // --- core: the compressors alone ---------------------------------
    let mut kept: HashMap<u64, Vec<TimedPoint>> = HashMap::new();
    let mut fbqs_stats = DecisionStats::default();
    let fbqs_ns = stage(rec, root_id, "core.fbqs.push", |rec, at| {
        fbqs_stats = compress_sessions(
            rec,
            at,
            "core.fbqs.push",
            sessions,
            || FastBqsCompressor::new(config),
            |s, k| {
                kept.insert(s.track, k.to_vec());
            },
        );
        Ok(())
    })?;
    v.insert("core.fbqs.push_ns_per_pt", fbqs_ns / points);
    v.insert("core.fbqs.pruning_power", fbqs_stats.pruning_power());
    let mut bqs_stats = DecisionStats::default();
    let ns = stage(rec, root_id, "core.bqs.push", |rec, at| {
        bqs_stats = compress_sessions(
            rec,
            at,
            "core.bqs.push",
            sessions,
            || BqsCompressor::new(config),
            |_, _| {},
        );
        Ok(())
    })?;
    v.insert("core.bqs.push_ns_per_pt", ns / points);
    v.insert("core.bqs.pruning_power", bqs_stats.pruning_power());
    v.insert(
        "core.bqs.full_scan_share",
        bqs_stats.full_scans as f64 / bqs_stats.points.max(1) as f64,
    );

    // --- core.fleet: sessions multiplexed on one thread ---------------
    let fleet_config = FleetConfig {
        idle_timeout: EVICT_IDLE_S,
        ..FleetConfig::default()
    };
    let make_engine = || FleetEngine::new(fleet_config, move || FastBqsCompressor::new(config));
    let mut snapshot_ns = 0.0;
    let ns = stage(rec, root_id, "core.fleet.push", |rec, at| {
        let mut engine = make_engine();
        let mut sink: HashMap<u64, Vec<TimedPoint>> = HashMap::new();
        for (i, f) in ordered.iter().enumerate() {
            rec.call("core.fleet.push", at, || {
                for p in &f.points {
                    engine.push_tagged(f.track, *p, &mut sink);
                }
            });
            if i == ordered.len() / 2 {
                // Mid-delivery: the workload's natural live-session count.
                let open = rec.open("core.fleet.snapshot", Some(at));
                black_box(engine.snapshot(&sink));
                snapshot_ns = rec.close(open) as f64;
            }
        }
        let open = rec.open("core.fleet.finish_all", Some(at));
        black_box(engine.finish_all(&mut sink));
        rec.close(open);
        Ok(())
    })?;
    let fleet_push_ns = ns - snapshot_ns;
    v.insert("core.fleet.push_ns_per_pt", fleet_push_ns / points);
    v.insert(
        "core.fleet.overhead_ns_per_pt",
        ((fleet_push_ns - fbqs_ns) / points).max(0.0),
    );
    v.insert("core.fleet.snapshot_us", snapshot_ns / 1e3);
    let ns = stage(rec, root_id, "core.fleet.session_cycle", |_, _| {
        let mut engine = make_engine();
        let mut sink = CountingFleetSink::default();
        for s in sessions {
            engine.push_tagged(s.track, s.points[0], &mut sink);
            black_box(engine.finish_track_tagged(s.track, &mut sink));
        }
        Ok(())
    })?;
    v.insert("core.fleet.session_cycle_ns", ns / n_sessions);
    let mut evict_engine = make_engine();
    let mut evict_sink = CountingFleetSink::default();
    stage(rec, root_id, "replay.prep", |_, _| {
        for s in sessions {
            evict_engine.push_tagged(s.track, s.points[0], &mut evict_sink);
        }
        Ok(())
    })?;
    let ns = stage(rec, root_id, "core.fleet.evict", |_, _| {
        let now = sessions.iter().map(Session::start_t).fold(0.0, f64::max) + EVICT_IDLE_S + 1.0;
        let evicted = evict_engine.evict_idle(now, &mut evict_sink);
        if evicted.len() != sessions.len() {
            return Err(format!(
                "evicted {} of {} sessions",
                evicted.len(),
                sessions.len()
            ));
        }
        Ok(())
    })?;
    v.insert("core.fleet.evict_ns_per_session", ns / n_sessions);

    // --- core.parallel: the producer's side of the channel hop --------
    let parallel = || {
        ParallelFleet::new(
            ParallelConfig {
                workers: WORKERS,
                fleet: fleet_config,
                ..ParallelConfig::default()
            },
            move || FastBqsCompressor::new(config),
            |_| CountingFleetSink::default(),
        )
    };
    let mut runs: Vec<(u64, Vec<TimedPoint>)> = Vec::new();
    stage(rec, root_id, "replay.prep", |_, _| {
        runs = ordered
            .iter()
            .map(|f| (f.track, f.points.clone()))
            .collect();
        Ok(())
    })?;
    let mut join_ns = 0.0;
    let ns = stage(rec, root_id, "core.parallel.submit_run", |rec, at| {
        let mut fleet = parallel();
        for (track, pts) in runs.drain(..) {
            rec.call("core.parallel.submit_run", at, || {
                fleet.submit_run(track, pts)
            });
        }
        let open = rec.open("core.parallel.join", Some(at));
        let ok = fleet.join().is_ok();
        join_ns = rec.close(open) as f64;
        ok.then_some(())
            .ok_or_else(|| "a fleet worker panicked".to_string())
    })?;
    v.insert(
        "core.parallel.submit_run_ns_per_pt",
        (ns - join_ns) / points,
    );
    v.insert("core.parallel.join_s", join_ns / 1e9);
    let mut join_ns = 0.0;
    let ns = stage(rec, root_id, "core.parallel.push", |rec, at| {
        let mut fleet = parallel();
        for f in &ordered {
            rec.call("core.parallel.push", at, || {
                for p in &f.points {
                    fleet.push(f.track, *p);
                }
            });
        }
        let open = rec.open("core.parallel.join", Some(at));
        let ok = fleet.join().is_ok();
        join_ns = rec.close(open) as f64;
        ok.then_some(())
            .ok_or_else(|| "a fleet worker panicked".to_string())
    })?;
    v.insert("core.parallel.push_ns_per_pt", (ns - join_ns) / points);

    // --- tlog: codec, log, spill, manifest ----------------------------
    let kept_points: f64 = kept.values().map(|k| k.len() as f64).sum();
    let mut encoded: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut encode_ns: HashMap<u64, u64> = HashMap::new();
    let ns = stage(rec, root_id, "tlog.codec.encode", |rec, at| {
        for s in sessions {
            let start = Instant::now();
            let mut buf = Vec::new();
            rec.call("tlog.codec.encode", at, || {
                encode_points(&kept[&s.track], &mut buf)
            })
            .map_err(|e| format!("encode: {e}"))?;
            encode_ns.insert(s.track, start.elapsed().as_nanos() as u64);
            encoded.insert(s.track, buf);
        }
        Ok(())
    })?;
    v.insert("tlog.codec.encode_ns_per_pt", ns / kept_points);
    let payload_bytes: f64 = encoded.values().map(|b| b.len() as f64).sum();
    v.insert("tlog.codec.bytes_per_pt", payload_bytes / kept_points);
    let ns = stage(rec, root_id, "tlog.codec.decode", |rec, at| {
        for s in sessions {
            let back = rec
                .call("tlog.codec.decode", at, || {
                    decode_to_vec(&encoded[&s.track])
                })
                .map_err(|e| format!("decode: {e}"))?;
            if back != kept[&s.track] {
                return Err(format!("codec round trip changed track {}", s.track));
            }
        }
        Ok(())
    })?;
    v.insert("tlog.codec.decode_ns_per_pt", ns / kept_points);

    let mut append_ns: HashMap<u64, u64> = HashMap::new();
    let mut record_bytes = 0u64;
    let ns = stage(rec, root_id, "tlog.log.append", |rec, at| {
        let (mut log, _) = TrajectoryLog::open(dir.join("flat"), LogConfig::default())
            .map_err(tlog_err("open log"))?;
        for s in sessions {
            let start = Instant::now();
            let open = rec.calls.then(|| rec.open("tlog.log.append", Some(at)));
            let receipt = log
                .append(s.track, &kept[&s.track])
                .map_err(tlog_err("append"))?;
            if let Some(open) = open {
                rec.close(open);
                rec.replayed_child("tlog.codec.encode@append", open.id(), encode_ns[&s.track]);
            }
            append_ns.insert(s.track, start.elapsed().as_nanos() as u64);
            record_bytes += receipt.bytes;
        }
        Ok(())
    })?;
    v.insert("tlog.log.append_us_per_record", ns / 1e3 / n_sessions);
    v.insert(
        "tlog.log.overhead_bytes_per_record",
        (record_bytes as f64 - payload_bytes) / n_sessions,
    );

    let tree = dir.join("tree");
    let mut finish_ns = 0.0;
    let ns = stage(rec, root_id, "tlog.spill.session_closed", |rec, at| {
        let mut sinks: Vec<SpillSink<TrajectoryLog>> =
            prepare_spill_logs(&tree, WORKERS, LogConfig::default())
                .map_err(tlog_err("prepare tree"))?
                .into_iter()
                .map(SpillSink::new)
                .collect();
        for s in sessions {
            use bqs_core::fleet::FleetSink;
            let sink = &mut sinks[worker_of(s.track, WORKERS)];
            let report = SessionReport {
                track: s.track,
                points: s.points.len() as u64,
                stats: DecisionStats::default(),
                reason: FlushReason::Evicted,
            };
            let open = rec
                .calls
                .then(|| rec.open("tlog.spill.session_closed", Some(at)));
            for p in &kept[&s.track] {
                sink.accept(s.track, *p);
            }
            sink.session_closed(&report);
            if let Some(open) = open {
                rec.close(open);
                rec.replayed_child("tlog.log.append@spill", open.id(), append_ns[&s.track]);
            }
        }
        let open = rec.open("tlog.spill.finish", Some(at));
        for sink in sinks {
            sink.finish().map_err(|e| format!("spill finish: {e}"))?;
        }
        finish_ns = rec.close(open) as f64;
        Ok(())
    })?;
    v.insert(
        "tlog.spill.session_closed_us",
        (ns - finish_ns) / 1e3 / n_sessions,
    );
    v.insert("tlog.spill.finish_s", finish_ns / 1e9);
    let ns = stage(rec, root_id, "tlog.manifest.write", |_, _| {
        Manifest::rebuild(&tree)
            .map(|_| ())
            .map_err(tlog_err("manifest"))
    })?;
    v.insert("tlog.manifest.write_ms", ns / 1e6);
    let ns = stage(rec, root_id, "tlog.verify", |_, _| {
        let report = verify_sharded(&tree).map_err(tlog_err("verify"))?;
        (report.total.points as f64 == kept_points)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "tree holds {} points, kept {kept_points}",
                    report.total.points
                )
            })
    })?;
    v.insert("tlog.verify_s", ns / 1e9);

    // --- tlog.engine + reply encode: what a query costs ---------------
    let ns = stage(rec, root_id, "tlog.manifest.load", |_, _| {
        Manifest::load(&tree)
            .map(|m| {
                black_box(m);
            })
            .map_err(tlog_err("load manifest"))
    })?;
    v.insert("tlog.manifest.load_ms", ns / 1e6);
    let ns = stage(rec, root_id, "tlog.log.open_read_only", |rec, at| {
        for shard in 0..WORKERS {
            rec.call("tlog.log.open_read_only", at, || {
                TrajectoryLog::open_read_only(shard_dir(&tree, shard), LogConfig::default()).map(
                    |l| {
                        black_box(l);
                    },
                )
            })
            .map_err(tlog_err("open read-only"))?;
        }
        Ok(())
    })?;
    let open_shard_ns = ns / WORKERS as f64;
    v.insert("tlog.log.open_read_only_ms", open_shard_ns / 1e6);

    let (mut open_ns, mut track_ns, mut bbox_ns, mut reply_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut n_track, mut n_bbox) = (0.0, 0.0);
    let (mut candidates, mut decoded, mut decoded_pts, mut useful_pts) = (0.0, 0.0, 0.0, 0.0);
    let (mut pruned, mut shards_seen) = (0.0, 0.0);
    stage(rec, root_id, "query", |rec, at| {
        for spec in &input.queries {
            // As the server does: a fresh engine per query.
            let open = rec.open("tlog.engine.open", Some(at));
            let mut engine = QueryEngine::open(&tree).map_err(tlog_err("engine open"))?;
            open_ns += rec.close(open) as f64;
            let name = if spec.bbox.is_some() {
                "tlog.engine.query_bbox"
            } else {
                "tlog.engine.query_track"
            };
            let open = rec.open(name, Some(at));
            let out = engine_query(&mut engine, spec).map_err(tlog_err("query"))?;
            let ns = rec.close(open) as f64;
            let opened = out.shards.len() - out.shards_pruned;
            for _ in 0..opened {
                // The engine opens each surviving shard lazily, inside the query.
                rec.replayed_child(
                    "tlog.log.open_read_only@query",
                    open.id(),
                    open_shard_ns as u64,
                );
            }
            if spec.bbox.is_some() {
                bbox_ns += ns;
                n_bbox += 1.0;
            } else {
                track_ns += ns;
                n_track += 1.0;
            }
            candidates += out.stats.candidate_records as f64;
            decoded += out.stats.decoded_records as f64;
            decoded_pts += out.stats.decoded_points as f64;
            useful_pts += out.stats.kept_points as f64;
            pruned += out.shards_pruned as f64;
            shards_seen += out.shards.len() as f64;
            let report = QueryReport {
                slices: out.slices,
                shards_pruned: out.shards_pruned as u64,
                hot_points: 0,
                candidate_records: out.stats.candidate_records as u64,
                decoded_records: out.stats.decoded_records as u64,
            };
            let open = rec.open("net.wire.reply_encode", Some(at));
            let bytes = Reply::QueryResult(report)
                .encode()
                .map(|p| frame_to_vec(&p))
                .map_err(|e| format!("encode reply: {e}"))?;
            reply_ns += rec.close(open) as f64;
            black_box(bytes);
        }
        Ok(())
    })?;
    let n_queries = input.queries.len() as f64;
    v.insert("tlog.engine.open_ms", open_ns / 1e6 / n_queries);
    v.insert("tlog.engine.query_track_us", track_ns / 1e3 / n_track);
    v.insert("tlog.engine.query_bbox_us", bbox_ns / 1e3 / n_bbox);
    v.insert(
        "tlog.engine.candidate_records_per_query",
        candidates / n_queries,
    );
    v.insert("tlog.engine.decoded_records_per_query", decoded / n_queries);
    v.insert(
        "tlog.engine.useful_point_ratio",
        useful_pts / decoded_pts.max(1.0),
    );
    v.insert(
        "tlog.engine.shards_pruned_share",
        pruned / shards_seen.max(1.0),
    );
    v.insert(
        "net.wire.reply_encode_us_per_query",
        reply_ns / 1e3 / n_queries,
    );

    // --- kernels: the inner loops, on this workload's geometry ---------
    let mut calls = 0u64;
    let ns = stage(rec, root_id, "geo.point_line", |_, _| {
        let mut sum = 0.0;
        for s in sessions {
            for w in s.points.windows(3) {
                sum += point_to_line_distance(black_box(w[1].pos), w[0].pos, w[2].pos);
                calls += 1;
            }
        }
        black_box(sum);
        Ok(())
    })?;
    v.insert("geo.point_line_ns", ns / calls.max(1) as f64);
    let mut quadrants: Vec<(Point2, [Option<QuadrantBounds>; 4])> = Vec::new();
    let mut inserts = 0u64;
    let ns = stage(rec, root_id, "core.quadrant.insert", |_, _| {
        for s in sessions {
            // One segment per session, anchored at its first point.
            let origin = s.points[0].pos;
            let mut qs: [Option<QuadrantBounds>; 4] = [None, None, None, None];
            for p in &s.points[1..] {
                let local = Point2::new(p.pos.x - origin.x, p.pos.y - origin.y);
                let q = Quadrant::of(local.x, local.y);
                match &mut qs[q as usize] {
                    Some(bounds) => bounds.insert(local),
                    slot => *slot = Some(QuadrantBounds::new(q, local)),
                }
                inserts += 1;
            }
            quadrants.push((origin, qs));
        }
        Ok(())
    })?;
    v.insert("core.quadrant.insert_ns", ns / inserts.max(1) as f64);
    let mut calls = 0u64;
    let ns = stage(rec, root_id, "core.quadrant.deviation_bounds", |_, _| {
        let mut sum = 0.0;
        for (s, (origin, qs)) in sessions.iter().zip(&quadrants) {
            for p in s.points.iter().skip(1).step_by(4) {
                let end = Point2::new(p.pos.x - origin.x, p.pos.y - origin.y);
                for bounds in qs.iter().flatten() {
                    let b = bounds.deviation_bounds(
                        black_box(end),
                        DeviationMetric::PointToLine,
                        BoundsMode::Sound,
                    );
                    sum += b.upper;
                    calls += 1;
                }
            }
        }
        black_box(sum);
        Ok(())
    })?;
    v.insert(
        "core.quadrant.deviation_bounds_ns",
        ns / calls.max(1) as f64,
    );

    // --- obs: what one recording costs ---------------------------------
    const OBS_OPS: u64 = 200_000;
    let registry = bqs_obs::MetricsRegistry::new();
    let counter = registry.counter("benchmark_counter");
    let ns = stage(rec, root_id, "obs.counter_add", |_, _| {
        for i in 0..OBS_OPS {
            counter.add(black_box(i & 7));
        }
        Ok(())
    })?;
    v.insert("obs.counter_add_ns", ns / OBS_OPS as f64);
    let histogram = registry.histogram("benchmark_histogram");
    let ns = stage(rec, root_id, "obs.histogram_record", |_, _| {
        for i in 0..OBS_OPS {
            histogram.record(black_box(i.wrapping_mul(2_654_435_761) & 0xffff));
        }
        Ok(())
    })?;
    v.insert("obs.histogram_record_ns", ns / OBS_OPS as f64);
    black_box((counter.get(), histogram.snapshot().count()));

    let wall_ns = rec.close(root) as f64;
    Ok((v, wall_ns))
}

/// The served pass for a workload that has no server of its own: the
/// replay input driven through a spawned `bqs serve` — two closed-loop
/// connections, then the queries — so the server-side counters exist
/// for every workload.
pub fn served_pass(ctx: &Ctx, input: &ReplayInput) -> Res<Served> {
    let mut per_conn: Vec<Vec<WireFrame>> = vec![Vec::new(); 2];
    for (frame, wire) in input.frames.iter().zip(encode_frames(&input.frames)?) {
        per_conn[frame.track as usize % 2].push(wire);
    }
    let scratch = Scratch::new(ctx.scratch_root, input.workload, 900)?;
    let mut flags = vec!["--evict-idle".to_string(), EVICT_IDLE_S.to_string()];
    if input.lateness_s > 0.0 {
        flags.extend(["--lateness".to_string(), input.lateness_s.to_string()]);
    }
    let server = ServerChild::spawn(ctx.bqs, scratch.path(), &flags)?;
    let addr = server.addr;
    let ready_s = server.ready_s;
    let rtt_idle_us = median(&idle_rtt_us(addr, 200)?);
    let mut conns: Vec<Conn> = (0..2).map(|_| Conn::connect(addr)).collect::<Res<_>>()?;
    let before = scrape(addr)?;
    let frames: Vec<&[WireFrame]> = per_conn.iter().map(Vec::as_slice).collect();
    let ingest = write_closed_all(&mut conns, &frames, 8)?;
    if ingest.failed > 0 {
        return Err(format!(
            "{} frames failed in the served pass, first: {}",
            ingest.failed,
            ingest.first_failure.unwrap_or_default()
        ));
    }
    let (ingest_s, acked, lag_us) = (ingest.wall_s(), ingest.acked_points, ingest.lag_us);
    let mut reader = BqsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let q = run_queries(&mut reader, &input.queries, None);
    if q.failed > 0 {
        return Err(format!("{} queries failed in the served pass", q.failed));
    }
    let after = scrape(addr)?;
    drop((conns, reader));
    let down = server.shutdown()?;
    drop(scratch);
    Ok(Served {
        ready_s,
        shutdown_s: down.shutdown_s,
        rtt_idle_us,
        before,
        after,
        ingest_ns_per_pt: ingest_s * 1e9 / acked.max(1) as f64,
        offered_pts_s: acked as f64 / ingest_s,
        offered_queries_s: input.queries.len() as f64 / q.wall_s.max(1e-9),
        lag_us,
    })
}

/// Folds the replay rounds and the served observations into the full
/// per-layer metric set.
pub fn per_layer_metrics(
    input: &ReplayInput,
    rounds: &[(Values, f64)],
    traced_wall_ns: &[f64],
    untraced_wall_ns: &[f64],
    rec: &Recorder,
    served: &Served,
) -> Values {
    let mut out = Values::new();
    let names: Vec<&'static str> = rounds[0].0.keys().copied().collect();
    for name in names {
        let series: Vec<f64> = rounds
            .iter()
            .filter_map(|(v, _)| v.get(name).copied())
            .collect();
        out.insert(name, median(&series));
    }
    let delta = |name: &str| -> f64 {
        served.after.get(name).copied().unwrap_or(0.0)
            - served.before.get(name).copied().unwrap_or(0.0)
    };
    let after = |name: &str| served.after.get(name).copied().unwrap_or(0.0);
    out.insert("net.server.ready_s", served.ready_s);
    out.insert("net.server.shutdown_s", served.shutdown_s);
    out.insert("net.client.rtt_idle_us", served.rtt_idle_us);
    out.insert(
        "net.server.append_us_p50",
        after("net_request_us_append_p50"),
    );
    out.insert(
        "net.server.append_us_p99",
        after("net_request_us_append_p99"),
    );
    out.insert("net.server.query_us_p50", after("net_request_us_query_p50"));
    out.insert("net.server.io_tick_us_p99", after("net_io_tick_us_p99"));
    // The catalog's `_mean` is truncated to an integer: divide here.
    out.insert(
        "net.server.ready_events_mean",
        delta("net_io_ready_events_sum") / delta("net_io_ready_events_count").max(1.0),
    );
    out.insert(
        "obs.trace_events_dropped",
        after("trace_events_dropped_total"),
    );
    let (mut busy, mut idle, mut peak) = (0.0, 0.0, 0.0f64);
    let mut submitted = Vec::new();
    for k in 0..WORKERS {
        busy += delta(&format!("fleet_shard{k}_busy_us_total"));
        idle += delta(&format!("fleet_shard{k}_idle_us_total"));
        peak = peak.max(after(&format!("fleet_shard{k}_channel_depth_peak")));
        submitted.push(delta(&format!("fleet_shard{k}_submitted_points_total")));
    }
    out.insert(
        "core.parallel.worker_busy_share",
        busy / (busy + idle).max(1.0),
    );
    out.insert("core.parallel.queue_peak", peak);
    let mean = submitted.iter().sum::<f64>() / WORKERS as f64;
    out.insert(
        "core.parallel.shard_skew",
        submitted.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
    out.insert("gen.lag_p99_us", percentile(&served.lag_us, 0.99));
    out.insert("gen.offered_pts_s", served.offered_pts_s);
    out.insert("gen.offered_queries_s", served.offered_queries_s);

    // The server's share of a point's life that the replay can see:
    // decode, row re-materialisation, (reorder,) and the fleet push.
    let to_points_ns = {
        let last = rec.spans().last().map_or(0, |s| s.round);
        let by_name = self_time_by_name(rec.spans(), last);
        by_name.get("geo.columnar.to_points").copied().unwrap_or(0) as f64
            / input
                .live_frames()
                .map(|f| f.points.len() as f64)
                .sum::<f64>()
    };
    let mut seen =
        out["net.wire.decode_append_ns_per_pt"] + to_points_ns + out["core.fleet.push_ns_per_pt"];
    if input.lateness_s > 0.0 {
        seen += out["core.reorder.push_ns_per_pt"];
    }
    out.insert("net.residual_ns_per_pt", served.ingest_ns_per_pt - seen);

    // Coverage: how much of the replay's wall time the spans account for.
    let selfs = self_times(rec.spans());
    let (mut covered, mut walls) = (0u64, 0u64);
    for (span, own) in rec.spans().iter().zip(&selfs) {
        match span.parent {
            None => walls += span.duration_ns(),
            Some(_) => covered += own,
        }
    }
    out.insert("trace.coverage", covered as f64 / walls.max(1) as f64);
    out.insert(
        "trace.overhead_ratio",
        median(traced_wall_ns) / median(untraced_wall_ns),
    );
    out.insert("trace.replay_points", input.points() as f64);
    out.insert("trace.replay_queries", input.queries.len() as f64);
    out.insert("trace.spans", rec.spans().len() as f64);
    out
}

/// The budget table of one round: every stage's self time, per point,
/// and its share of the round.
pub fn budget_table(input: &ReplayInput, rec: &Recorder, round: u32) -> String {
    let by_name = self_time_by_name(rec.spans(), round);
    let wall = by_name.values().sum::<u64>().max(1) as f64;
    let points = input.points() as f64;
    let mut rows: Vec<(&str, u64)> = by_name
        .iter()
        .filter(|(name, _)| **name != "replay")
        .map(|(n, t)| (*n, *t))
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    let mut out = format!(
        "budget {} (round {round}: {} points, {} queries, {:.1} ms)\n  {:<34} {:>10} {:>12} {:>7}\n",
        input.workload,
        input.points(),
        input.queries.len(),
        wall / 1e6,
        "stage",
        "self ms",
        "ns/point",
        "share"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "  {:<34} {:>10.3} {:>12.1} {:>6.1}%\n",
            name,
            t as f64 / 1e6,
            t as f64 / points,
            100.0 * t as f64 / wall
        ));
    }
    out
}
