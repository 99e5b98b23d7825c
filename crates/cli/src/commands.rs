//! Command execution for the `bqs` binary.
//!
//! Every command runs through [`execute`], which returns a typed
//! [`CliError`]; [`run`] converts it to the printable message at one
//! place. User-reachable failures — I/O on named paths, the durable
//! log, the network layer, invalid requests — are never `unwrap`s.

use crate::args::{usage, Command};
use crate::error::CliError;
use bqs_baselines::{
    BufferedDpCompressor, BufferedGreedyCompressor, DeadReckoningCompressor, DpCompressor,
    MbrCompressor, SquishECompressor,
};
use bqs_core::fleet::{
    worker_of, FleetJoin, FleetSink, ParallelConfig, ParallelFleet, SessionReport, TrackId,
};
use bqs_core::stream::{compress_all, HasDecisionStats, StreamCompressor};
use bqs_core::{BqsCompressor, BqsConfig, FastBqsCompressor};
use bqs_eval::experiments;
use bqs_eval::Scale;
use bqs_sim::{dataset, Trace};

/// Runs a parsed command, returning the text to print on success. The
/// string form of [`execute`]: every typed error renders through its
/// `Display` here, and nowhere else.
pub fn run(command: &Command) -> Result<String, String> {
    execute(command).map_err(|e| e.to_string())
}

/// Runs a parsed command with typed errors.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Info => Ok(info()),
        Command::Generate {
            dataset,
            seed,
            full,
            out,
        } => generate(dataset, *seed, *full, out.as_deref()),
        Command::Compress {
            algorithm,
            input,
            tolerance,
            buffer,
            out,
        } => compress(algorithm, input, *tolerance, *buffer, out.as_deref()),
        Command::Verify {
            original,
            compressed,
            tolerance,
        } => verify(original, compressed, *tolerance),
        Command::Experiments { names, full } => run_experiments(names, *full),
        Command::Fleet {
            sessions,
            points,
            tolerance,
            algorithm,
            workers,
            seed,
            spill,
            query_after,
        } => fleet(FleetRun {
            sessions: *sessions,
            points: *points,
            tolerance: *tolerance,
            algorithm,
            workers: *workers,
            seed: *seed,
            spill: spill.as_deref(),
            query_after: *query_after,
        }),
        Command::Query {
            dir,
            track,
            from,
            to,
            bbox,
            at: Some(t),
            ..
        } => match (track, from, to, bbox) {
            // Also parser rules; re-checked because `run` is public.
            (Some(track), None, None, None) => reconstruct_at(dir, *track, *t),
            _ => Err(CliError::invalid(
                "--at needs --track and excludes --from/--to/--bbox",
            )),
        },
        Command::Query {
            dir,
            track,
            from,
            to,
            bbox,
            at: None,
            out,
        } => unified_query(dir, *track, *from, *to, *bbox, out.as_deref()),
        Command::LogAppend {
            dir,
            input,
            track,
            algorithm,
            tolerance,
        } => log_append(dir, input, *track, algorithm, *tolerance),
        Command::LogCompact { dir, drop } => log_compact(dir, drop),
        Command::LogVerify { dir } => log_verify(dir),
        Command::Serve {
            addr,
            workers,
            spill,
            tolerance,
            io_threads,
            max_connections,
            port_file,
            metrics_interval,
            lateness,
            alerts,
            prom_addr,
            evict_idle,
        } => serve(ServeRun {
            addr,
            workers: *workers,
            spill,
            tolerance: *tolerance,
            io_threads: *io_threads,
            max_connections: *max_connections,
            port_file: port_file.as_deref(),
            metrics_interval: *metrics_interval,
            lateness: *lateness,
            alerts,
            prom_addr: prom_addr.as_deref(),
            evict_idle: *evict_idle,
        }),
        Command::Loadgen {
            addr,
            sessions,
            points,
            seed,
            connections,
            batch,
            shutdown,
            disorder,
            backfill,
        } => loadgen(
            addr,
            *sessions,
            *points,
            *seed,
            *connections,
            *batch,
            *shutdown,
            *disorder,
            *backfill,
        ),
        Command::Subscribe {
            addr,
            track,
            bbox,
            out,
        } => subscribe(addr, *track, *bbox, out.as_deref()),
        Command::Metrics { addr, watch, prom } => metrics(addr, *watch, *prom),
        Command::Trace { addr, last, conn } => trace(addr, *last, *conn),
        Command::Analyze { deny, lints, root } => analyze(*deny, lints, root.as_deref()),
    }
}

/// `bqs analyze`: the project-native static analysis pass — source
/// lints plus code↔spec consistency checks — over a workspace tree.
/// With `deny`, any finding is an error (the CI gate); without it the
/// findings are the report.
fn analyze(deny: bool, lints: &[String], root: Option<&str>) -> Result<String, CliError> {
    bqs_analyze::validate_filter(lints).map_err(CliError::Invalid)?;
    let root = std::path::PathBuf::from(root.unwrap_or("."));
    if !root.join("Cargo.toml").is_file() {
        return Err(CliError::invalid(format!(
            "{} is not a workspace root (no Cargo.toml); run from the repo or pass ROOT",
            root.display()
        )));
    }
    let config = bqs_analyze::Config {
        root: root.clone(),
        only: lints.to_vec(),
    };
    let report = bqs_analyze::run(&config)
        .map_err(|e| CliError::io("analyze", root.display().to_string(), e))?;
    let mut out = String::new();
    for finding in &report.findings {
        out.push_str(&finding.to_string());
        out.push('\n');
    }
    let summary = format!(
        "analyze: {} finding(s) across {} file(s) scanned",
        report.findings.len(),
        report.files_scanned
    );
    if deny && !report.findings.is_empty() {
        return Err(CliError::Invalid(format!("{out}{summary}")));
    }
    out.push_str(&summary);
    Ok(out)
}

fn info() -> String {
    let spec = bqs_device::CamazotzSpec::paper();
    format!(
        "bqs — Bounded Quadrant System (Liu et al., ICDE 2015) reproduction\n\
         target platform: Camazotz (CC430F5137): {} B RAM, {} KB flash,\n\
         {} KB GPS budget, 1 fix/{} s, 12 B/record\n\
         uncompressed lifetime: {} days; at 5% compression: {} days\n",
        spec.ram_bytes,
        spec.flash_bytes / 1024,
        spec.gps_budget_bytes / 1024,
        spec.gps_interval_s,
        bqs_device::estimate_operational_days(1.0).unwrap_or(0),
        bqs_device::estimate_operational_days(0.05).unwrap_or(0),
    )
}

fn write_or_return(csv: String, out: Option<&str>, summary: String) -> Result<String, CliError> {
    match out {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| CliError::io("write", path, e))?;
            Ok(summary)
        }
        None => Ok(format!("{csv}\n{summary}")),
    }
}

/// The one formatter for `track,x,y,t` point rows. `bqs query` and the
/// fleet's `--query-after` output build their CSV here, so the formats
/// can never drift apart.
fn slices_csv(slices: &[bqs_tlog::TrackSlice]) -> String {
    let mut csv = String::from("track,x,y,t\n");
    for slice in slices {
        for p in &slice.points {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                slice.track, p.pos.x, p.pos.y, p.t
            ));
        }
    }
    csv
}

fn generate(name: &str, seed: u64, full: bool, out: Option<&str>) -> Result<String, CliError> {
    let trace = match (name, full) {
        ("bat", true) => dataset::bat_dataset(seed),
        ("bat", false) => dataset::bat_dataset_sized(seed, 2, 2),
        ("vehicle", true) => dataset::vehicle_dataset(seed),
        ("vehicle", false) => dataset::vehicle_dataset_sized(seed, 8),
        ("synthetic", true) => dataset::synthetic_dataset(seed),
        ("synthetic", false) => dataset::synthetic_dataset_sized(seed, 4_000),
        _ => return Err(CliError::Invalid(format!("unknown dataset: {name}"))),
    };
    let summary = format!(
        "generated {}: {} points, {:.1} km travelled",
        trace.name,
        trace.len(),
        trace.travel_distance() / 1_000.0
    );
    write_or_return(trace.to_csv(), out, summary)
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    Trace::from_csv(path.to_string(), &text).map_err(CliError::Invalid)
}

fn compress(
    algorithm: &str,
    input: &str,
    tolerance: f64,
    buffer: usize,
    out: Option<&str>,
) -> Result<String, CliError> {
    let trace = load_trace(input)?;
    let points = trace.points.clone();

    let run = |c: &mut dyn StreamCompressor| -> Vec<bqs_geo::TimedPoint> {
        let mut kept = Vec::new();
        for p in &points {
            c.push(*p, &mut kept);
        }
        c.finish(&mut kept);
        kept
    };

    let config = BqsConfig::new(tolerance).map_err(CliError::invalid)?;
    let start = std::time::Instant::now();
    let kept = match algorithm {
        "bqs" => run(&mut BqsCompressor::new(config)),
        "fbqs" => run(&mut FastBqsCompressor::new(config)),
        "bdp" => run(&mut BufferedDpCompressor::new(tolerance, buffer.max(2))),
        "bgd" => run(&mut BufferedGreedyCompressor::new(tolerance, buffer.max(1))),
        "dp" => run(&mut DpCompressor::new(tolerance)),
        "dr" => run(&mut DeadReckoningCompressor::new(tolerance)),
        "squish-e" => run(&mut SquishECompressor::new(tolerance)),
        "mbr" => run(&mut MbrCompressor::new(tolerance, buffer.max(2))),
        other => return Err(CliError::Invalid(format!("unknown algorithm: {other}"))),
    };
    let elapsed = start.elapsed();

    let compressed = Trace::new(format!("{}:{algorithm}", trace.name), kept);
    let summary = format!(
        "{algorithm}: {} → {} points (rate {:.2}%), {:.1} ms",
        trace.len(),
        compressed.len(),
        100.0 * compressed.len() as f64 / trace.len().max(1) as f64,
        elapsed.as_secs_f64() * 1_000.0
    );
    write_or_return(compressed.to_csv(), out, summary)
}

fn verify(original: &str, compressed: &str, tolerance: f64) -> Result<String, CliError> {
    let orig = load_trace(original)?;
    let comp = load_trace(compressed)?;
    let worst = bqs_eval::verify_deviation_bound(
        &orig.points,
        &comp.points,
        bqs_core::metrics::DeviationMetric::PointToLine,
    )
    .ok_or_else(|| {
        CliError::invalid("compressed trace is not an anchored subsequence of the original")
    })?;
    if worst <= tolerance + 1e-9 {
        Ok(format!(
            "OK: worst deviation {worst:.3} m ≤ tolerance {tolerance} m \
             ({} of {} points kept)",
            comp.len(),
            orig.len()
        ))
    } else {
        Err(CliError::Invalid(format!(
            "FAIL: worst deviation {worst:.3} m > tolerance {tolerance} m"
        )))
    }
}

/// Per-worker sink of the `bqs fleet` command: collects tagged output in
/// memory and, when spilling, makes closed sessions durable in the worker
/// shard's private [`bqs_tlog::TrajectoryLog`].
struct FleetShardSink {
    tagged: std::collections::HashMap<TrackId, Vec<bqs_geo::TimedPoint>>,
    spill: Option<bqs_tlog::SpillSink<bqs_tlog::TrajectoryLog>>,
}

impl FleetSink for FleetShardSink {
    fn accept(&mut self, track: TrackId, point: bqs_geo::TimedPoint) {
        self.tagged.entry(track).or_default().push(point);
        if let Some(sink) = self.spill.as_mut() {
            sink.accept(track, point);
        }
    }

    fn session_closed(&mut self, report: &SessionReport) {
        if let Some(sink) = self.spill.as_mut() {
            sink.session_closed(report);
        }
    }
}

/// Round-robin feeds every trace through a [`ParallelFleet`] and joins;
/// generic over the compressor family.
fn drive_parallel<C, F>(
    traces: &[Vec<bqs_geo::TimedPoint>],
    config: ParallelConfig,
    factory: F,
    mut logs: Vec<Option<bqs_tlog::TrajectoryLog>>,
) -> (FleetJoin<FleetShardSink>, f64)
where
    C: StreamCompressor + HasDecisionStats + Clone + Send + 'static,
    F: Fn() -> C + Clone + Send + 'static,
{
    let mut fleet = ParallelFleet::new(config, factory, |shard| FleetShardSink {
        tagged: std::collections::HashMap::new(),
        spill: logs[shard].take().map(bqs_tlog::SpillSink::new),
    });
    let n = traces.first().map_or(0, Vec::len);
    let start = std::time::Instant::now();
    for i in 0..n {
        for (t, trace) in traces.iter().enumerate() {
            fleet.push(t as TrackId, trace[i]);
        }
    }
    let join = fleet.join();
    (join, start.elapsed().as_secs_f64())
}

/// Parameters of one `bqs fleet` invocation.
struct FleetRun<'a> {
    sessions: usize,
    points: usize,
    tolerance: f64,
    algorithm: &'a str,
    workers: usize,
    seed: u64,
    spill: Option<&'a str>,
    query_after: Option<[f64; 2]>,
}

/// Drives a simulated fleet of `sessions` trackers through the parallel
/// sharded runtime ([`ParallelFleet`]; one worker reproduces the serial
/// engine), then cross-checks one session against solo compression (the
/// interleaving-equivalence guarantee). With `spill`, session output is
/// flushed on close into one [`bqs_tlog::TrajectoryLog`] per worker shard
/// (`shard-<k>/` subdirectories when `workers > 1`) and the probe session
/// is re-read from disk for the same check.
///
/// The report is deterministic for a given seed and worker count: the
/// per-shard table is sorted by (shard, track), never by join order, and
/// the compressed data itself is identical for *any* worker count.
fn fleet(run: FleetRun<'_>) -> Result<String, CliError> {
    use bqs_sim::{RandomWalkConfig, RandomWalkModel};
    use bqs_tlog::{LogConfig, TrajectoryLog};
    use std::collections::HashMap;

    let FleetRun {
        sessions,
        points,
        tolerance,
        algorithm,
        workers,
        seed,
        spill,
        query_after,
    } = run;
    let workers = workers.max(1);
    let config = BqsConfig::new(tolerance).map_err(CliError::invalid)?;
    let traces: Vec<Vec<bqs_geo::TimedPoint>> = (0..sessions)
        .map(|t| {
            let cfg = RandomWalkConfig {
                samples: points,
                ..RandomWalkConfig::default()
            };
            RandomWalkModel::new(cfg)
                .generate(seed.wrapping_add(t as u64))
                .points
        })
        .collect();

    // `prepare_spill_logs` is the one guard + open path every spill
    // writer (this command and `bqs serve`) shares: incompatible
    // layouts get their specific diagnosis, any other non-empty
    // directory is refused up front (fleet runs restart stream clocks,
    // so appending over old data would fail deep in the codec), and a
    // single worker gets a flat log while several get `shard-<k>/`
    // trees.
    let logs: Vec<Option<TrajectoryLog>> = match spill {
        Some(dir) => bqs_tlog::prepare_spill_logs(dir, workers, LogConfig::default())?
            .into_iter()
            .map(Some)
            .collect(),
        None => (0..workers).map(|_| None).collect(),
    };

    let parallel_config = ParallelConfig {
        workers,
        ..ParallelConfig::default()
    };
    let (join, elapsed) = match algorithm {
        "bqs" => drive_parallel(
            &traces,
            parallel_config,
            move || BqsCompressor::new(config),
            logs,
        ),
        "fbqs" => drive_parallel(
            &traces,
            parallel_config,
            move || FastBqsCompressor::new(config),
            logs,
        ),
        other => {
            return Err(CliError::Invalid(format!(
                "fleet supports bqs|fbqs, got {other}"
            )))
        }
    };
    if !join.is_ok() {
        let failure = &join.failures[0];
        return Err(CliError::Invalid(format!(
            "worker shard {} panicked: {} ({} sessions poisoned)",
            failure.shard,
            failure.panic,
            failure.tracks.len()
        )));
    }
    let stats = join.stats;

    // Per-shard table, deterministic: shards ascend, tracks ascend within
    // a shard — never the engines' (hash-map) close order.
    let mut shard_table = String::new();
    let mut session_rows: Vec<(usize, TrackId, u64, usize)> = Vec::new();
    for shard in &join.shards {
        let shard_points: u64 = shard.reports.iter().map(|r| r.points).sum();
        let shard_kept: usize = shard.sink.tagged.values().map(Vec::len).sum();
        shard_table.push_str(&format!(
            "  shard {:>2}: {:>5} sessions, {:>8} → {:>7} points (pruning {:.4})\n",
            shard.shard,
            shard.reports.len(),
            shard_points,
            shard_kept,
            shard.stats.pruning_power(),
        ));
        for report in &shard.reports {
            let kept = shard.sink.tagged.get(&report.track).map_or(0, Vec::len);
            session_rows.push((shard.shard, report.track, report.points, kept));
        }
    }
    session_rows.sort_unstable_by_key(|&(shard, track, ..)| (shard, track));
    let mut session_table = String::new();
    if sessions <= 24 {
        for (shard, track, pushed, kept) in &session_rows {
            session_table.push_str(&format!(
                "    shard {shard:>2} track {track:>4}: {pushed:>6} → {kept:>5} points\n"
            ));
        }
    }

    // Consume the shards: merge tagged output (tracks are disjoint across
    // shards by routing) and finish every spill sink.
    let mut tagged: HashMap<TrackId, Vec<bqs_geo::TimedPoint>> = HashMap::new();
    let mut spill_sessions = 0usize;
    let mut spill_points = 0u64;
    let mut spill_bytes = 0u64;
    for shard in join.shards {
        tagged.extend(shard.sink.tagged);
        if let Some(sink) = shard.sink.spill {
            let reports = sink.finish()?;
            spill_sessions += reports.len();
            spill_points += reports.iter().map(|r| r.points).sum::<u64>();
            spill_bytes += reports.iter().map(|r| r.bytes).sum::<u64>();
        }
    }
    let mut spill_line = match spill {
        Some(dir) => format!(
            "spilled {spill_sessions} sessions, {spill_points} points, {spill_bytes} B \
             ({:.2} B/point) to {dir}\n",
            spill_bytes as f64 / spill_points.max(1) as f64,
        ),
        None => String::new(),
    };
    if let Some(dir) = spill.filter(|_| workers > 1) {
        // Cache the tree's pruning inputs so readers never open shards
        // a query cannot touch; `bqs log verify` cross-checks it.
        let manifest = bqs_tlog::Manifest::rebuild(dir)?;
        spill_line.push_str(&format!(
            "wrote MANIFEST ({} shards, {} tracks)\n",
            manifest.shards.len(),
            manifest
                .shards
                .iter()
                .map(|s| s.tracks.len())
                .sum::<usize>(),
        ));
    }
    if let (Some(dir), Some([from, to])) = (spill, query_after) {
        // Prove the run is queryable end to end: same unified engine,
        // same answer shape, flat log or tree alike.
        let mut engine = bqs_tlog::QueryEngine::open(dir)?;
        let result = engine.query_time_range(None, bqs_tlog::TimeRange::new(from, to))?;
        spill_line.push_str(&format!(
            "query [{from}, {to}]: {} tracks, {} points \
             (decoded {} of {} records, {} of {} shards pruned)\n",
            result.slices.len(),
            result.total_points(),
            result.stats.decoded_records,
            result.stats.candidate_records,
            result.shards_pruned,
            engine.shard_count(),
        ));
    }

    // Equivalence spot-check: the session with the most output (smallest
    // track id on ties — deterministic) must be byte-identical to
    // compressing its trace alone.
    let (&probe, fleet_kept) = tagged
        .iter()
        .max_by_key(|(&track, v)| (v.len(), std::cmp::Reverse(track)))
        .ok_or_else(|| CliError::invalid("fleet produced no output"))?;
    let solo = match algorithm {
        "bqs" => compress_all(
            &mut BqsCompressor::new(config),
            traces[probe as usize].iter().copied(),
        ),
        _ => compress_all(
            &mut FastBqsCompressor::new(config),
            traces[probe as usize].iter().copied(),
        ),
    };
    if fleet_kept != &solo {
        return Err(CliError::Invalid(format!(
            "session {probe}: fleet output diverged from solo compression \
             ({} vs {} points)",
            fleet_kept.len(),
            solo.len()
        )));
    }
    if let Some(dir) = spill {
        // Reopen the probe's shard log and check the durable copy too.
        let probe_dir = if workers == 1 {
            std::path::PathBuf::from(dir)
        } else {
            bqs_tlog::shard_dir(dir, worker_of(probe, workers))
        };
        let (log, _) = TrajectoryLog::open_read_only(probe_dir, LogConfig::default())?;
        let from_disk = log.read_track(probe)?;
        if from_disk != solo {
            return Err(CliError::Invalid(format!(
                "session {probe}: spilled log diverged from solo compression \
                 ({} vs {} points)",
                from_disk.len(),
                solo.len()
            )));
        }
    }

    let total: usize = traces.iter().map(Vec::len).sum();
    let kept: usize = tagged.values().map(Vec::len).sum();
    Ok(format!(
        "fleet: {sessions} sessions × {points} points \
         ({algorithm}, {tolerance} m, {workers} workers, seed {seed})\n\
         {total} → {kept} points (rate {:.2}%), pruning power {:.4}\n\
         {shard_table}{session_table}\
         throughput {:.2} Mpts/s\n\
         session {probe} verified identical to solo compression\n\
         {spill_line}",
        100.0 * kept as f64 / total.max(1) as f64,
        stats.pruning_power(),
        total as f64 / elapsed.max(1e-9) / 1e6,
    ))
}

/// Guard for the flat-log commands: opening the *root* of a sharded
/// spill tree as a flat log would silently see an empty log (and
/// `append` would even write a rogue segment no tree tooling visits).
/// Point the user at a shard instead.
fn reject_sharded_root(dir: &str) -> Result<(), CliError> {
    if bqs_tlog::is_sharded_tree(dir) {
        return Err(CliError::Invalid(format!(
            "{dir} is a sharded spill tree (shard-<k>/ directories); \
             run this command on one shard, e.g. {dir}/shard-0 \
             (`bqs query` and `bqs log verify` accept the tree root)"
        )));
    }
    Ok(())
}

/// `bqs query`: the unified read path — one query over a flat log or a
/// whole `shard-<k>/` spill tree, fanned out across shards in parallel
/// and pruned via the tree's `MANIFEST`. CSV output plus a per-shard
/// work breakdown.
fn unified_query(
    dir: &str,
    track: Option<u64>,
    from: Option<f64>,
    to: Option<f64>,
    bbox: Option<[f64; 4]>,
    out: Option<&str>,
) -> Result<String, CliError> {
    use bqs_tlog::{QueryEngine, TimeRange};

    let mut engine = QueryEngine::open(dir)?;
    let range = TimeRange::new(
        from.unwrap_or(f64::NEG_INFINITY),
        to.unwrap_or(f64::INFINITY),
    );
    let result = match bbox {
        Some([x0, y0, x1, y1]) => {
            let area = bqs_geo::Rect::from_corners(
                bqs_geo::Point2::new(x0, y0),
                bqs_geo::Point2::new(x1, y1),
            );
            engine.query_bbox(track, area, Some(range))?
        }
        None => engine.query_time_range(track, range)?,
    };

    let csv = slices_csv(&result.slices);
    let mut summary = format!(
        "{} tracks, {} points over {} shard(s) \
         (decoded {} of {} records, {} shard(s) pruned via MANIFEST)\n",
        result.slices.len(),
        result.total_points(),
        engine.shard_count(),
        result.stats.decoded_records,
        result.stats.candidate_records,
        result.shards_pruned,
    );
    if engine.shard_count() > 1 {
        for shard in &result.shards {
            let label = shard.shard.map_or("flat".to_string(), |k| k.to_string());
            if shard.skipped {
                summary.push_str(&format!("  shard {label:>2}: pruned, never opened\n"));
            } else {
                summary.push_str(&format!(
                    "  shard {label:>2}: decoded {} of {} records, kept {} points\n",
                    shard.stats.decoded_records,
                    shard.stats.candidate_records,
                    shard.stats.kept_points,
                ));
            }
        }
    }
    match out {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| CliError::io("write", path, e))?;
            Ok(summary)
        }
        None => Ok(format!("{csv}{summary}")),
    }
}

/// `bqs query --at`: the track's position at `t`, reconstructed by the
/// one log that holds the track — the flat log itself, or the owning
/// shard of a tree. Each candidate is opened read-only, and only the
/// records bracketing `t` are decoded.
fn reconstruct_at(dir: &str, track: u64, t: f64) -> Result<String, CliError> {
    use bqs_tlog::{LogConfig, TrajectoryLog};

    let logs = if bqs_tlog::is_sharded_tree(dir) {
        bqs_tlog::shard_dirs(dir)?
            .into_iter()
            .map(|(_, shard)| shard)
            .collect()
    } else {
        vec![std::path::PathBuf::from(dir)]
    };
    for log_dir in logs {
        let (log, _) = TrajectoryLog::open_read_only(log_dir, LogConfig::default())?;
        if let Some(p) = log.reconstruct_at(track, t)? {
            return Ok(format!(
                "track {track} at t={t}: x={:.3} y={:.3}\n",
                p.pos.x, p.pos.y
            ));
        }
    }
    Err(CliError::Invalid(format!("track {track} has no data")))
}

/// `bqs log append`: optionally compress a trace, then append it to the
/// log under the given track id.
fn log_append(
    dir: &str,
    input: &str,
    track: u64,
    algorithm: &str,
    tolerance: f64,
) -> Result<String, CliError> {
    use bqs_tlog::{LogConfig, TrajectoryLog};

    reject_sharded_root(dir)?;
    let trace = load_trace(input)?;
    let config = BqsConfig::new(tolerance).map_err(CliError::invalid)?;
    let points = match algorithm {
        "none" => trace.points.clone(),
        "bqs" => compress_all(
            &mut BqsCompressor::new(config),
            trace.points.iter().copied(),
        ),
        "fbqs" => compress_all(
            &mut FastBqsCompressor::new(config),
            trace.points.iter().copied(),
        ),
        other => {
            return Err(CliError::Invalid(format!(
                "log append supports none|bqs|fbqs, got {other}"
            )))
        }
    };
    let (mut log, recovery) = TrajectoryLog::open(dir, LogConfig::default())?;
    let receipt = log.append(track, &points)?;
    let mut out = recovery_line(&recovery);
    out.push_str(&format!(
        "appended track {track}: {} → {} points ({algorithm}), {} B \
         ({:.2} B/point, naive {} B/point) into segment {:06}\n",
        trace.len(),
        receipt.points,
        receipt.bytes,
        receipt.bytes as f64 / receipt.points.max(1) as f64,
        bqs_tlog::NAIVE_POINT_BYTES,
        receipt.segment,
    ));
    Ok(out)
}

/// Describes what `TrajectoryLog::open` repaired, or `""` when nothing
/// was; every log command prints it so on-disk mutation is never silent.
fn recovery_line(recovery: &bqs_tlog::RecoveryReport) -> String {
    if recovery.truncated_segments == 0 {
        String::new()
    } else {
        format!(
            "recovered: truncated {} torn segment tail(s), {} B dropped\n",
            recovery.truncated_segments, recovery.truncated_bytes
        )
    }
}

/// `bqs log compact`: tombstone the dropped tracks, then rewrite live
/// records into fresh segments.
fn log_compact(dir: &str, drop: &[u64]) -> Result<String, CliError> {
    use bqs_tlog::{LogConfig, TrajectoryLog};

    reject_sharded_root(dir)?;
    let (mut log, recovery) = TrajectoryLog::open(dir, LogConfig::default())?;
    let mut dropped = 0usize;
    for &track in drop {
        if log.delete_track(track)? {
            dropped += 1;
        }
    }
    let report = log.compact()?;
    Ok(format!(
        "{}dropped {dropped} track(s); compacted {} → {} segments, \
         {} → {} B ({} records removed)\n",
        recovery_line(&recovery),
        report.segments_before,
        report.segments_after,
        report.bytes_before,
        report.bytes_after,
        report.records_dropped,
    ))
}

/// `bqs log verify`: strict full-scan verification (no repair). A
/// directory holding `shard-<k>/` subdirectories (a parallel fleet's
/// spill tree) is verified shard by shard; anything else is treated as
/// one flat log.
fn log_verify(dir: &str) -> Result<String, CliError> {
    if bqs_tlog::is_sharded_tree(dir) {
        let report =
            bqs_tlog::verify_sharded(dir).map_err(|e| CliError::Invalid(format!("FAIL: {e}")))?;
        let total = &report.total;
        let mut out = format!(
            "OK: {} shards{}, {} segments, {} records ({} backfill, +{} tombstones), {} points, \
             {} B ({:.2} B/point on disk, naive {} B/point)\n",
            report.shards.len(),
            match report.manifest {
                bqs_tlog::ManifestStatus::Verified => " (MANIFEST verified)",
                bqs_tlog::ManifestStatus::Absent => "",
            },
            total.segments,
            total.records,
            total.backfill_records,
            total.tombstones,
            total.points,
            total.file_bytes,
            total.file_bytes_per_point(),
            bqs_tlog::NAIVE_POINT_BYTES,
        );
        for (shard, r) in &report.shards {
            out.push_str(&format!(
                "  shard {shard:>2}: {} segments, {} records, {} points, {} B\n",
                r.segments, r.records, r.points, r.file_bytes,
            ));
        }
        return Ok(out);
    }
    let report = bqs_tlog::verify_dir(dir).map_err(|e| CliError::Invalid(format!("FAIL: {e}")))?;
    Ok(format!(
        "OK: {} segments, {} records ({} backfill, +{} tombstones), {} points, {} B \
         ({:.2} B/point on disk, naive {} B/point)\n",
        report.segments,
        report.records,
        report.backfill_records,
        report.tombstones,
        report.points,
        report.file_bytes,
        report.file_bytes_per_point(),
        bqs_tlog::NAIVE_POINT_BYTES,
    ))
}

fn run_experiments(names: &[String], full: bool) -> Result<String, CliError> {
    let scale = if full { Scale::Full } else { Scale::Quick };
    experiments::run(names, scale)
        .map_err(|name| CliError::Invalid(format!("no experiment matched {name:?}")))
}

/// Parameters of one `bqs serve` invocation.
struct ServeRun<'a> {
    addr: &'a str,
    workers: usize,
    spill: &'a str,
    tolerance: f64,
    io_threads: usize,
    max_connections: usize,
    port_file: Option<&'a str>,
    metrics_interval: Option<u64>,
    lateness: f64,
    alerts: &'a [String],
    prom_addr: Option<&'a str>,
    evict_idle: f64,
}

/// `bqs serve`: binds the framed TCP server over a parallel fleet,
/// announces the bound address (stdout line + optional `--port-file`),
/// then blocks until a client sends `Shutdown`. On exit the fleet has
/// been drained, every session spilled, and the `MANIFEST` written —
/// the directory passes `bqs log verify`.
fn serve(run: ServeRun<'_>) -> Result<String, CliError> {
    use std::io::Write;

    let ServeRun {
        addr,
        workers,
        spill,
        tolerance,
        io_threads,
        max_connections,
        port_file,
        metrics_interval,
        lateness,
        alerts,
        prom_addr,
        evict_idle,
    } = run;

    // Malformed rules are refused before the listener even binds…
    let mut rules = Vec::new();
    for raw in alerts {
        rules.push(bqs_obs::AlertRule::parse(raw).map_err(CliError::Invalid)?);
    }
    let server = bqs_net::Server::bind(bqs_net::ServerConfig {
        addr: addr.to_string(),
        workers,
        spill: spill.into(),
        tolerance,
        io_threads,
        max_connections,
        fallback_poller: false,
        lateness,
        prom_addr: prom_addr.map(String::from),
        evict_idle,
    })?;
    // …and unknown metric names or kind-mismatched stats right after
    // `bind` has registered the server's whole catalog.
    let registry = server.metrics().clone();
    let recorder = server.recorder().clone();
    for rule in &rules {
        rule.validate(&registry).map_err(CliError::Invalid)?;
    }
    let local = server.local_addr();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{local}\n")).map_err(|e| CliError::io("write", path, e))?;
    }
    // Announced eagerly (not in the returned summary): scripts and
    // operators need the port while the server is still running.
    println!("listening on {local}");
    if let Some(prom) = server.prom_addr() {
        // Scrapers need the resolved port when `--prom-addr` used 0.
        println!("prometheus on {prom}");
    }
    let _ = std::io::stdout().flush();

    let reporter = metrics_interval
        .map(|secs| spawn_metrics_reporter(&registry, workers, secs, rules, recorder.clone()));
    let run_result = server.run();
    if let Some((stop, handle)) = reporter {
        // ordering: relaxed stop flag — the reporter only needs to observe it eventually; join() below is the real synchronisation
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    let report = run_result?;
    // The recorder's last moments — drain, spill, reply flushes — are
    // exactly what a post-mortem wants; dump them on every clean exit.
    let trace_line = match dump_trace(&recorder.snapshot(), "shutdown") {
        Ok((path, events)) => format!("flight recorder: {events} event(s) dumped to {path}\n"),
        Err(e) => format!("flight recorder: dump failed ({e})\n"),
    };
    let manifest_line = if report.manifest_shards > 0 {
        format!("wrote MANIFEST ({} shards)\n", report.manifest_shards)
    } else {
        String::new()
    };
    let rejected_line = if report.rejected_connections > 0 {
        format!(
            "rejected {} connection(s) over the {max_connections}-connection cap\n",
            report.rejected_connections
        )
    } else {
        String::new()
    };
    let lateness_line = if report.late_points + report.backfill_points + report.too_late_points > 0
    {
        format!(
            "late data: {} accepted late, {} backfilled, {} refused too-late \
             (lateness window {lateness} s)\n",
            report.late_points, report.backfill_points, report.too_late_points
        )
    } else {
        String::new()
    };
    Ok(format!(
        "served {} connection(s), {} frame(s), {} points \
         ({workers} workers, {io_threads} io-threads, {tolerance} m)\n\
         {rejected_line}\
         {lateness_line}\
         spilled {} sessions, {} points, {} B ({:.2} B/point) to {spill}\n\
         {manifest_line}\
         {trace_line}\
         pruning power {:.4}\n",
        report.connections,
        report.frames,
        report.appended_points,
        report.spilled_sessions,
        report.spilled_points,
        report.spilled_bytes,
        report.spilled_bytes as f64 / report.spilled_points.max(1) as f64,
        report.stats.pruning_power(),
    ))
}

/// Writes a trace snapshot to a dump file under the system temp
/// directory (never the spill directory — dumps must not dirty the
/// durable tree). Returns `(path, events)` for the announcement line.
fn dump_trace(
    snapshot: &bqs_obs::TraceSnapshot,
    label: &str,
) -> Result<(String, usize), std::io::Error> {
    let path = std::env::temp_dir().join(format!("bqs-trace-{}-{label}.txt", std::process::id()));
    std::fs::write(&path, snapshot.render())?;
    Ok((path.to_string_lossy().into_owned(), snapshot.events.len()))
}

/// Spawns the `--metrics-interval` reporter thread: one line to stderr
/// every `secs` seconds with the ingest rate over the interval, the
/// all-time p99 append latency, live connections, and the deepest
/// per-shard queue high-water mark. It only reads the registry the
/// server writes, so the reporter costs the request path nothing.
///
/// The same tick refreshes the `process_rss_bytes` gauge and evaluates
/// the `--alert` rules: a breached rule prints one structured `alert:`
/// line to stderr, flushes the flight recorder to a dump file, and
/// bumps `alerts_tripped_total` plus its own per-rule counter — every
/// tick the breach persists, so the counters measure breach duration
/// in ticks.
fn spawn_metrics_reporter(
    registry: &bqs_obs::MetricsRegistry,
    workers: usize,
    secs: u64,
    rules: Vec<bqs_obs::AlertRule>,
    recorder: bqs_obs::FlightRecorder,
) -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let submitted = registry.counter("fleet_submitted_points_total");
    let append_us = registry.histogram("net_request_us_append");
    let live = registry.gauge("net_connections_live");
    let rss = registry.gauge("process_rss_bytes");
    let alerts_tripped = registry.counter("alerts_tripped_total");
    let rule_tripped: Vec<bqs_obs::Counter> = (0..rules.len())
        .map(|k| registry.counter(&format!("alert_rule{k}_tripped_total")))
        .collect();
    let depths: Vec<bqs_obs::Gauge> = (0..workers)
        .map(|k| registry.gauge(&format!("fleet_shard{k}_channel_depth")))
        .collect();
    let reg = registry.clone();
    let handle = std::thread::spawn(move || {
        let mut last = submitted.get();
        // Per-rule counter totals at the previous tick (`rate` stats).
        let mut prev_totals = vec![0u64; rules.len()];
        rss.set(bqs_obs::process_rss_bytes());
        loop {
            // Sleep in short slices so shutdown stays prompt.
            let woke = std::time::Instant::now();
            while woke.elapsed().as_secs() < secs {
                // ordering: relaxed stop-flag poll — a 100 ms-late observation of shutdown is fine
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            let interval = woke.elapsed().as_secs_f64();
            let now = submitted.get();
            let rate = (now.saturating_sub(last)) / secs.max(1);
            last = now;
            rss.set(bqs_obs::process_rss_bytes());
            let high_water = depths.iter().map(bqs_obs::Gauge::peak).max().unwrap_or(0);
            eprintln!(
                "metrics: ingest {rate} pts/s, append p99 {} us, {} live conn(s), \
                 queue high-water {high_water}",
                append_us.snapshot().p99(),
                live.get(),
            );
            for (k, rule) in rules.iter().enumerate() {
                // Validated at startup; a vanished metric would be a
                // registry bug, not a user error — skip, don't panic.
                let Some(sample) = reg.sample(rule.metric()) else {
                    continue;
                };
                let observed = rule.observe(&sample, prev_totals[k], interval);
                if let bqs_obs::MetricSample::Counter(total) = sample {
                    prev_totals[k] = total;
                }
                if rule.check(observed) {
                    alerts_tripped.inc();
                    rule_tripped[k].inc();
                    let dump = match dump_trace(&recorder.snapshot(), &format!("alert-{k}")) {
                        Ok((path, _)) => path,
                        Err(e) => format!("(dump failed: {e})"),
                    };
                    eprintln!(
                        "alert: rule={:?} observed={observed:.3} threshold={} dump={dump}",
                        rule.raw(),
                        rule.threshold(),
                    );
                }
            }
        }
    });
    (stop, handle)
}

/// `bqs metrics`: fetches a server's metric catalog over the wire. A
/// single shot prints the sorted `name value` text as-is; `--watch N`
/// keeps the connection open and prints changed lines (with `+delta`
/// for increases) every `N` seconds until the server goes away;
/// `--prom` fetches the Prometheus text exposition instead (one shot —
/// it cannot be combined with `--watch`).
fn metrics(addr: &str, watch: Option<u64>, prom: bool) -> Result<String, CliError> {
    use std::io::Write;

    // Also guarded in the argument parser; re-checked here because
    // `run` is a public entry point.
    if prom && watch.is_some() {
        return Err(CliError::invalid(
            "--prom and --watch are mutually exclusive \
             (--prom is a one-shot scrape; --watch prints native-format deltas)",
        ));
    }
    let mut client = bqs_net::BqsClient::connect(addr)?;
    if prom {
        return Ok(client.metrics_prom()?);
    }
    let text = client.metrics()?;
    let Some(secs) = watch else {
        return Ok(text);
    };

    println!("{}", text.trim_end());
    let _ = std::io::stdout().flush();
    let mut prev = parse_metrics(&text);
    let mut samples = 1u64;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(secs));
        let text = match client.metrics() {
            Ok(text) => text,
            // The server exiting mid-watch is the normal way out.
            Err(_) => break,
        };
        samples += 1;
        let now = parse_metrics(&text);
        println!("--- sample {samples}");
        for (name, value) in &now {
            match prev.get(name) {
                Some(old) if old == value => {}
                Some(old) if value > old => println!("{name} {value} (+{})", value - old),
                _ => println!("{name} {value}"),
            }
        }
        let _ = std::io::stdout().flush();
        prev = now;
    }
    Ok(format!("metrics: server gone after {samples} sample(s)\n"))
}

/// `bqs trace`: fetches a server's flight-recorder contents over the
/// wire and renders them one event per line, oldest first — the same
/// text the server writes to dump files on alert trips and shutdown.
fn trace(addr: &str, last: Option<u64>, conn: Option<u64>) -> Result<String, CliError> {
    let mut client = bqs_net::BqsClient::connect(addr)?;
    let (dropped, events) = client.trace_dump(last, conn)?;
    Ok(bqs_obs::TraceSnapshot { events, dropped }.render())
}

/// Parses exposition text (`name value` per line) for `--watch` deltas.
fn parse_metrics(text: &str) -> std::collections::BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `bqs loadgen`: seeded, reproducible ingest against a running server
/// — the same workload `bqs fleet --seed` drives in process, so the
/// spilled trees are comparable byte for byte.
#[allow(clippy::too_many_arguments)]
fn loadgen(
    addr: &str,
    sessions: usize,
    points: usize,
    seed: u64,
    connections: usize,
    batch: usize,
    shutdown: bool,
    disorder: f64,
    backfill: bool,
) -> Result<String, CliError> {
    let report = bqs_net::loadgen::run(&bqs_net::LoadgenConfig {
        addr: addr.to_string(),
        sessions,
        points,
        seed,
        connections,
        batch,
        shutdown,
        disorder,
        backfill,
    })?;
    let shutdown_line = match report.shutdown {
        Some(ack) => format!(
            "server acknowledged shutdown ({} connection(s), {} points served)\n",
            ack.connections, ack.appended_points
        ),
        None => String::new(),
    };
    // Percentiles over zero samples would print as zeros and read like
    // a (suspiciously perfect) measurement — say so instead.
    let latency = |kind: &str, snap: &bqs_obs::HistogramSnapshot| {
        if snap.count() == 0 {
            return format!("{kind} latency: no calls\n");
        }
        format!(
            "{kind} latency (µs over {} calls): p50 {} p90 {} p99 {} max {}\n",
            snap.count(),
            snap.p50(),
            snap.p90(),
            snap.p99(),
            snap.max(),
        )
    };
    let lateness_line = if disorder > 0.0 || backfill {
        format!(
            "lateness ground truth: {} late-accepted, {} backfilled, {} too-late point(s)\n",
            report.late_points, report.backfill_points, report.too_late_points,
        )
    } else {
        String::new()
    };
    Ok(format!(
        "loadgen: {sessions} sessions × {points} points over {} connection(s) \
         (seed {seed}, batch {batch}) against {addr}\n\
         sent {} points in {:.2} s ({:.2} Mpts/s; {} frames, {} B on the wire)\n\
         {lateness_line}{}{}{shutdown_line}",
        report.connections,
        report.points_sent,
        report.elapsed,
        report.points_per_sec() / 1e6,
        report.frames_sent,
        report.bytes_sent,
        latency("append", &report.append_latency),
        latency("flush", &report.flush_latency),
    ))
}

/// `bqs subscribe`: attaches to a running server as a live subscriber
/// and streams kept points as `track,t,x,y` CSV lines until the server
/// drains (`SubEnd`) or the connection closes.
fn subscribe(
    addr: &str,
    track: Option<u64>,
    bbox: Option<[f64; 4]>,
    out: Option<&str>,
) -> Result<String, CliError> {
    use std::io::Write;

    let client = bqs_net::BqsClient::connect(addr)?;
    let mut subscription = client.subscribe(track, bbox)?;
    let mut sink: Box<dyn Write> = match out {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| CliError::io("create", path, e))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    writeln!(sink, "track,t,x,y").map_err(|e| CliError::io("write", out.unwrap_or("-"), e))?;
    let mut received = 0u64;
    let mut batches = 0u64;
    while let Some((track, points)) = subscription.next_batch()? {
        batches += 1;
        received += points.len() as u64;
        for p in &points {
            writeln!(sink, "{track},{},{},{}", p.t, p.pos.x, p.pos.y)
                .map_err(|e| CliError::io("write", out.unwrap_or("-"), e))?;
        }
    }
    sink.flush()
        .map_err(|e| CliError::io("flush", out.unwrap_or("-"), e))?;
    drop(sink);
    Ok(format!(
        "subscribe: stream ended after {received} point(s) in {batches} batch(es)\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("bqs-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn info_mentions_the_platform() {
        let text = run(&Command::Info).unwrap();
        assert!(text.contains("Camazotz"));
        assert!(text.contains("4096 B RAM"));
    }

    #[test]
    fn generate_compress_verify_round_trip() {
        let trace_path = tmp("trace.csv");
        let out_path = tmp("compressed.csv");

        let summary = run(&Command::Generate {
            dataset: "synthetic".into(),
            seed: 5,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();
        assert!(summary.contains("generated synthetic"));

        let summary = run(&Command::Compress {
            algorithm: "fbqs".into(),
            input: trace_path.clone(),
            tolerance: 10.0,
            buffer: 32,
            out: Some(out_path.clone()),
        })
        .unwrap();
        assert!(summary.contains("fbqs:"), "{summary}");

        let verdict = run(&Command::Verify {
            original: trace_path,
            compressed: out_path,
            tolerance: 10.0,
        })
        .unwrap();
        assert!(verdict.starts_with("OK"), "{verdict}");
    }

    #[test]
    fn verify_fails_for_wrong_tolerance() {
        let trace_path = tmp("trace2.csv");
        let out_path = tmp("compressed2.csv");
        run(&Command::Generate {
            dataset: "synthetic".into(),
            seed: 6,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();
        run(&Command::Compress {
            algorithm: "bqs".into(),
            input: trace_path.clone(),
            tolerance: 50.0,
            buffer: 32,
            out: Some(out_path.clone()),
        })
        .unwrap();
        // A 50 m compression will not satisfy a 0.5 m verification.
        let err = run(&Command::Verify {
            original: trace_path,
            compressed: out_path,
            tolerance: 0.5,
        })
        .unwrap_err();
        assert!(err.starts_with("FAIL"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&Command::Compress {
            algorithm: "fbqs".into(),
            input: "/nonexistent/x.csv".into(),
            tolerance: 5.0,
            buffer: 32,
            out: None,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn end_to_end_through_the_parser() {
        let text = crate::main_with_args(&["info".to_string()]).unwrap();
        assert!(text.contains("Camazotz"));
        let (err, code) = crate::main_with_args(&["bogus".to_string()]).unwrap_err();
        assert_eq!(code, 2);
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn every_algorithm_runs_through_the_cli() {
        let trace_path = tmp("trace3.csv");
        run(&Command::Generate {
            dataset: "vehicle".into(),
            seed: 9,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();
        for algo in ["bqs", "fbqs", "bdp", "bgd", "dp", "dr", "squish-e", "mbr"] {
            let summary = run(&Command::Compress {
                algorithm: algo.into(),
                input: trace_path.clone(),
                tolerance: 15.0,
                buffer: 32,
                out: Some(tmp(&format!("out_{algo}.csv"))),
            })
            .unwrap();
            assert!(summary.contains(algo), "{summary}");
        }
    }

    #[test]
    fn fleet_subcommand_runs_and_verifies() {
        let text = run(&Command::Fleet {
            sessions: 6,
            points: 120,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 1,
            seed: 1,
            spill: None,
            query_after: None,
        })
        .unwrap();
        assert!(text.contains("6 sessions"), "{text}");
        assert!(text.contains("verified identical"), "{text}");
        let text = run(&Command::Fleet {
            sessions: 3,
            points: 80,
            tolerance: 8.0,
            algorithm: "bqs".into(),
            workers: 2,
            seed: 1,
            spill: None,
            query_after: None,
        })
        .unwrap();
        assert!(text.contains("3 sessions"), "{text}");
        assert!(text.contains("2 workers"), "{text}");
    }

    #[test]
    fn fleet_runs_are_reproducible_per_seed() {
        let fleet_cmd = |seed: u64| Command::Fleet {
            sessions: 4,
            points: 100,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 1,
            seed,
            spill: None,
            query_after: None,
        };
        // Same seed → identical point counts in the summary; a different
        // seed changes the generated traces (strip the Mpts/s timing).
        let strip = |s: String| {
            s.lines()
                .filter(|l| !l.contains("Mpts/s"))
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = strip(run(&fleet_cmd(7)).unwrap());
        let b = strip(run(&fleet_cmd(7)).unwrap());
        let c = strip(run(&fleet_cmd(8)).unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fleet_spill_makes_the_run_durable_and_queryable() {
        let dir = tmp("fleet-spill-log");
        let _ = std::fs::remove_dir_all(&dir);
        let text = run(&Command::Fleet {
            sessions: 5,
            points: 150,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 1,
            seed: 3,
            spill: Some(dir.clone()),
            query_after: None,
        })
        .unwrap();
        assert!(text.contains("spilled 5 sessions"), "{text}");

        let verdict = run(&Command::LogVerify { dir: dir.clone() }).unwrap();
        assert!(verdict.starts_with("OK"), "{verdict}");

        let listing = run(&Command::Query {
            dir: dir.clone(),
            track: None,
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(listing.contains("5 tracks"), "{listing}");

        // Re-spilling into a used directory is refused up front rather
        // than failing deep in the log with a time-order error.
        let err = run(&Command::Fleet {
            sessions: 5,
            points: 150,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 1,
            seed: 3,
            spill: Some(dir),
            query_after: None,
        })
        .unwrap_err();
        assert!(err.contains("fresh directory"), "{err}");
    }

    #[test]
    fn fleet_data_is_identical_across_worker_counts() {
        let run_with = |workers: usize| {
            run(&Command::Fleet {
                sessions: 8,
                points: 150,
                tolerance: 10.0,
                algorithm: "fbqs".into(),
                workers,
                seed: 5,
                spill: None,
                query_after: None,
            })
            .unwrap()
        };
        // Everything derived from the data (totals, rate, pruning power,
        // probe verification) is identical for any worker count; only the
        // run-config echo, the shard breakdown and timing may differ.
        let data = |text: String| {
            text.lines()
                .filter(|l| {
                    !l.contains("Mpts/s")
                        && !l.trim_start().starts_with("shard")
                        && !l.starts_with("fleet:")
                })
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = data(run_with(1));
        let two = data(run_with(2));
        let eight = data(run_with(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn fleet_report_is_deterministic_per_run_not_join_order() {
        // Session close order inside an engine follows hash-map iteration,
        // which differs between runs; the printed table must not.
        let cmd = || Command::Fleet {
            sessions: 12,
            points: 100,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 3,
            seed: 9,
            spill: None,
            query_after: None,
        };
        let strip = |s: String| {
            s.lines()
                .filter(|l| !l.contains("Mpts/s"))
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = strip(run(&cmd()).unwrap());
        let b = strip(run(&cmd()).unwrap());
        assert_eq!(a, b);
        // And the session table really is sorted by (shard, track).
        let rows: Vec<(usize, u64)> = a
            .lines()
            .filter_map(|l| {
                let l = l.trim_start();
                let rest = l.strip_prefix("shard ")?;
                let (shard, rest) = rest.split_once(" track ")?;
                let (track, _) = rest.split_once(':')?;
                Some((shard.trim().parse().ok()?, track.trim().parse().ok()?))
            })
            .collect();
        assert_eq!(rows.len(), 12, "{a}");
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn fleet_parallel_spill_builds_a_shard_tree_that_verifies() {
        let dir = tmp("fleet-pspill-log");
        let _ = std::fs::remove_dir_all(&dir);
        let text = run(&Command::Fleet {
            sessions: 10,
            points: 120,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 4,
            seed: 3,
            spill: Some(dir.clone()),
            query_after: None,
        })
        .unwrap();
        assert!(text.contains("spilled 10 sessions"), "{text}");
        // Each worker got its own shard directory…
        for k in 0..4 {
            assert!(
                std::path::Path::new(&dir)
                    .join(format!("shard-{k}"))
                    .is_dir(),
                "missing shard-{k}"
            );
        }
        // …and `log verify` dispatches to the tree-wide verification.
        let verdict = run(&Command::LogVerify { dir: dir.clone() }).unwrap();
        assert!(verdict.starts_with("OK"), "{verdict}");
        assert!(verdict.contains("4 shards"), "{verdict}");
        // A used tree is refused like a used flat directory.
        let err = run(&Command::Fleet {
            sessions: 10,
            points: 120,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 2,
            seed: 3,
            spill: Some(dir.clone()),
            query_after: None,
        })
        .unwrap_err();
        assert!(err.contains("fresh directory"), "{err}");

        // `bqs query` reads the tree root as a tree; the flat-log writers
        // must not open it as an (empty) flat log — append would write a
        // rogue segment invisible to tree tooling.
        let listing = run(&Command::Query {
            dir: dir.clone(),
            track: Some(1),
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(listing.contains("1 tracks"), "{listing}");
        let err = run(&Command::LogCompact {
            dir: dir.clone(),
            drop: vec![],
        })
        .unwrap_err();
        assert!(err.contains("sharded spill tree"), "{err}");
        let trace_path = tmp("pspill-trace.csv");
        run(&Command::Generate {
            dataset: "synthetic".into(),
            seed: 1,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();
        let err = run(&Command::LogAppend {
            dir: dir.clone(),
            input: trace_path,
            track: 999,
            algorithm: "none".into(),
            tolerance: 10.0,
        })
        .unwrap_err();
        assert!(err.contains("sharded spill tree"), "{err}");
        // But any single shard still works as a normal flat log.
        let shard0 = std::path::Path::new(&dir)
            .join("shard-0")
            .to_string_lossy()
            .into_owned();
        let listing = run(&Command::Query {
            dir: shard0,
            track: None,
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(listing.contains("tracks"), "{listing}");
    }

    #[test]
    fn unified_query_answers_identically_over_flat_logs_and_shard_trees() {
        let flat = tmp("uq-flat");
        let tree = tmp("uq-tree");
        let _ = std::fs::remove_dir_all(&flat);
        let _ = std::fs::remove_dir_all(&tree);
        let fleet_to = |dir: &str, workers: usize| Command::Fleet {
            sessions: 10,
            points: 150,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers,
            seed: 21,
            spill: Some(dir.to_string()),
            query_after: None,
        };
        run(&fleet_to(&flat, 1)).unwrap();
        let text = run(&fleet_to(&tree, 4)).unwrap();
        assert!(text.contains("wrote MANIFEST"), "{text}");

        let query = |dir: &str| Command::Query {
            dir: dir.to_string(),
            track: None,
            from: Some(0.0),
            to: Some(600.0),
            bbox: None,
            at: None,
            out: None,
        };
        // Identical data lines; only the shard breakdown differs.
        let data = |text: String| {
            text.lines()
                .filter(|l| !l.contains("shard") && !l.contains("pruned"))
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let from_flat = run(&query(&flat)).unwrap();
        let from_tree = run(&query(&tree)).unwrap();
        assert!(from_tree.contains("4 shard(s)"), "{from_tree}");
        assert_eq!(data(from_flat), data(from_tree));

        // A track-selective query prunes shards via the MANIFEST.
        let one = run(&Command::Query {
            dir: tree.clone(),
            track: Some(3),
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(one.contains("3 shard(s) pruned"), "{one}");
        assert!(one.contains("pruned, never opened"), "{one}");

        // And the tree verifies with its manifest cross-checked.
        let verdict = run(&Command::LogVerify { dir: tree }).unwrap();
        assert!(verdict.contains("MANIFEST verified"), "{verdict}");
    }

    #[test]
    fn query_after_reports_through_the_unified_engine() {
        let dir = tmp("uq-after");
        let _ = std::fs::remove_dir_all(&dir);
        let text = run(&Command::Fleet {
            sessions: 6,
            points: 100,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 2,
            seed: 5,
            spill: Some(dir),
            query_after: Some([0.0, 300.0]),
        })
        .unwrap();
        assert!(text.contains("query [0, 300]"), "{text}");
        assert!(text.contains("6 tracks"), "{text}");
    }

    #[test]
    fn incompatible_spill_layouts_are_diagnosed_specifically() {
        // A flat log refuses a multi-worker tree with a layout-specific
        // error, not the generic non-empty message.
        let dir = tmp("layout-guard");
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = |workers: usize, spill: String| Command::Fleet {
            sessions: 4,
            points: 80,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers,
            seed: 2,
            spill: Some(spill),
            query_after: None,
        };
        run(&fleet(1, dir.clone())).unwrap();
        let err = run(&fleet(4, dir.clone())).unwrap_err();
        assert!(err.contains("flat trajectory log"), "{err}");
        assert!(err.contains("fresh directory"), "{err}");

        // And a tree refuses both a flat run and a different worker
        // count, naming what it found.
        let tree = tmp("layout-guard-tree");
        let _ = std::fs::remove_dir_all(&tree);
        run(&fleet(4, tree.clone())).unwrap();
        let err = run(&fleet(1, tree.clone())).unwrap_err();
        assert!(err.contains("sharded spill tree"), "{err}");
        let err = run(&fleet(2, tree)).unwrap_err();
        assert!(err.contains("different --workers"), "{err}");
    }

    #[test]
    fn query_at_on_a_tree_root_asks_the_owning_shard() {
        use bqs_tlog::{LogConfig, TrajectoryLog};

        let tree = tmp("at-tree");
        let _ = std::fs::remove_dir_all(&tree);
        run(&Command::Fleet {
            sessions: 8,
            points: 150,
            tolerance: 10.0,
            algorithm: "fbqs".into(),
            workers: 4,
            seed: 5,
            spill: Some(tree.clone()),
            query_after: None,
        })
        .unwrap();
        let at = |track: u64, t: f64| Command::Query {
            dir: tree.clone(),
            track: Some(track),
            from: None,
            to: None,
            bbox: None,
            at: Some(t),
            out: None,
        };
        for track in [0, 3, 6] {
            let shard = bqs_tlog::shard_dir(&tree, worker_of(track, 4));
            let (log, _) = TrajectoryLog::open_read_only(shard, LogConfig::default()).unwrap();
            let p = log.reconstruct_at(track, 333.0).unwrap().unwrap();
            assert_eq!(
                run(&at(track, 333.0)).unwrap(),
                format!(
                    "track {track} at t=333: x={:.3} y={:.3}\n",
                    p.pos.x, p.pos.y
                )
            );
        }
        let err = run(&at(99, 333.0)).unwrap_err();
        assert!(err.contains("track 99 has no data"), "{err}");
    }

    #[test]
    fn query_never_writes_to_the_log_it_reads() {
        // A torn tail is the next writer's to repair: a reader that
        // truncated it would race a live writer.
        let dir = tmp("ro-query");
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = tmp("ro-query-trace.csv");
        run(&Command::Generate {
            dataset: "synthetic".into(),
            seed: 3,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();
        run(&Command::LogAppend {
            dir: dir.clone(),
            input: trace_path,
            track: 1,
            algorithm: "fbqs".into(),
            tolerance: 10.0,
        })
        .unwrap();
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "tlg"))
            .unwrap();
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&[0xA5; 17]);
        std::fs::write(&segment, &bytes).unwrap();

        let query = |at: Option<f64>| Command::Query {
            dir: dir.clone(),
            track: Some(1),
            from: None,
            to: None,
            bbox: None,
            at,
            out: None,
        };
        let listing = run(&query(None)).unwrap();
        assert!(listing.contains("1 tracks"), "{listing}");
        let position = run(&query(Some(30.0))).unwrap();
        assert!(position.contains("track 1 at t=30"), "{position}");
        assert_eq!(std::fs::read(&segment).unwrap(), bytes, "torn tail kept");
    }

    #[test]
    fn log_append_query_compact_verify_round_trip() {
        let dir = tmp("log-cli");
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = tmp("log-cli-trace.csv");
        run(&Command::Generate {
            dataset: "synthetic".into(),
            seed: 11,
            full: false,
            out: Some(trace_path.clone()),
        })
        .unwrap();

        let appended = run(&Command::LogAppend {
            dir: dir.clone(),
            input: trace_path.clone(),
            track: 1,
            algorithm: "fbqs".into(),
            tolerance: 10.0,
        })
        .unwrap();
        assert!(appended.contains("appended track 1"), "{appended}");
        run(&Command::LogAppend {
            dir: dir.clone(),
            input: trace_path,
            track: 2,
            algorithm: "none".into(),
            tolerance: 10.0,
        })
        .unwrap();

        let csv_path = tmp("log-cli-query.csv");
        let summary = run(&Command::Query {
            dir: dir.clone(),
            track: Some(2),
            from: Some(0.0),
            to: Some(1e12),
            bbox: None,
            at: None,
            out: Some(csv_path.clone()),
        })
        .unwrap();
        assert!(summary.contains("1 tracks"), "{summary}");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("track,x,y,t"), "{}", &csv[..40]);

        let at = run(&Command::Query {
            dir: dir.clone(),
            track: Some(1),
            from: None,
            to: None,
            bbox: None,
            at: Some(30.0),
            out: None,
        })
        .unwrap();
        assert!(at.contains("track 1 at t=30"), "{at}");

        let compacted = run(&Command::LogCompact {
            dir: dir.clone(),
            drop: vec![2],
        })
        .unwrap();
        assert!(compacted.contains("dropped 1 track"), "{compacted}");

        let verdict = run(&Command::LogVerify { dir: dir.clone() }).unwrap();
        assert!(verdict.starts_with("OK"), "{verdict}");

        // Track 2 is gone, track 1 remains.
        let listing = run(&Command::Query {
            dir,
            track: None,
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(listing.contains("1 tracks"), "{listing}");
    }

    #[test]
    fn serve_and_loadgen_round_trip_over_loopback() {
        let dir = tmp("serve-spill");
        let _ = std::fs::remove_dir_all(&dir);
        let port_file = tmp("serve-port");
        let _ = std::fs::remove_file(&port_file);

        let serve_cmd = Command::Serve {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            spill: dir.clone(),
            tolerance: 10.0,
            io_threads: 2,
            max_connections: 64,
            port_file: Some(port_file.clone()),
            metrics_interval: Some(1),
            lateness: 0.0,
            alerts: vec![],
            prom_addr: None,
            evict_idle: 0.0,
        };
        let server = std::thread::spawn(move || run(&serve_cmd));

        // The bound address lands in the port file once the listener is
        // up; poll briefly instead of guessing a port.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let addr = text.trim().to_string();
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let text = run(&Command::Loadgen {
            addr,
            sessions: 6,
            points: 80,
            seed: 3,
            connections: 2,
            batch: 16,
            shutdown: true,
            disorder: 0.0,
            backfill: false,
        })
        .unwrap();
        assert!(text.contains("sent 480 points"), "{text}");
        assert!(text.contains("append latency"), "{text}");
        assert!(text.contains("acknowledged shutdown"), "{text}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("spilled 6 sessions"), "{summary}");
        assert!(summary.contains("wrote MANIFEST (2 shards)"), "{summary}");

        // The spilled tree verifies and answers queries like any fleet
        // spill tree.
        let verdict = run(&Command::LogVerify { dir: dir.clone() }).unwrap();
        assert!(verdict.starts_with("OK"), "{verdict}");
        assert!(verdict.contains("2 shards"), "{verdict}");
        let listing = run(&Command::Query {
            dir,
            track: None,
            from: None,
            to: None,
            bbox: None,
            at: None,
            out: None,
        })
        .unwrap();
        assert!(listing.contains("6 tracks"), "{listing}");
    }

    #[test]
    fn serve_refuses_a_used_spill_directory() {
        let dir = tmp("serve-used");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(std::path::Path::new(&dir).join("junk"), b"x").unwrap();
        let err = run(&Command::Serve {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            spill: dir,
            tolerance: 10.0,
            io_threads: 4,
            max_connections: 4096,
            port_file: None,
            metrics_interval: None,
            lateness: 0.0,
            alerts: vec![],
            prom_addr: None,
            evict_idle: 0.0,
        })
        .unwrap_err();
        assert!(err.contains("fresh directory"), "{err}");
    }

    #[test]
    fn experiments_subcommand_quick() {
        let cmd = parse(&["experiments".to_string(), "table2".to_string()]).unwrap();
        let text = run(&cmd).unwrap();
        assert!(text.contains("Table II"));
        // A `Command` built without the parser still cannot run an
        // unknown name, even beside a known one.
        let err = run(&Command::Experiments {
            names: vec!["table2".into(), "nope".into()],
            full: false,
        })
        .unwrap_err();
        assert!(err.contains("no experiment matched \"nope\""), "{err}");
    }
}
