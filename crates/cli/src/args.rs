//! Hand-rolled argument parsing for the `bqs` binary.

use bqs_eval::experiments;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bqs generate <dataset> [--seed N] [--scale quick|full] [--out FILE]`
    Generate {
        /// Dataset name: bat, vehicle or synthetic.
        dataset: String,
        /// RNG seed.
        seed: u64,
        /// Paper-size data when true.
        full: bool,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs compress <algorithm> <input> [--tolerance M] [--buffer N] [--out FILE]`
    Compress {
        /// Algorithm label.
        algorithm: String,
        /// Input CSV path.
        input: String,
        /// Error tolerance in metres.
        tolerance: f64,
        /// Window size for buffered algorithms.
        buffer: usize,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs verify <original> <compressed> --tolerance M`
    Verify {
        /// Original trace CSV.
        original: String,
        /// Compressed trace CSV.
        compressed: String,
        /// Tolerance to verify against.
        tolerance: f64,
    },
    /// `bqs experiments [names...] [--full]`
    Experiments {
        /// Experiment names from [`experiments::names`]; empty means all.
        names: Vec<String>,
        /// Paper-size data when true.
        full: bool,
    },
    /// `bqs fleet [--sessions N] [--points N] [--tolerance M] [--algorithm bqs|fbqs] [--workers N] [--seed N] [--spill DIR] [--query-after FROM,TO|all]`
    Fleet {
        /// Concurrent simulated trackers.
        sessions: usize,
        /// Points per tracker.
        points: usize,
        /// Error tolerance in metres.
        tolerance: f64,
        /// Compressor family: "bqs" or "fbqs".
        algorithm: String,
        /// Parallel worker threads; each owns a private engine (and,
        /// with `--spill`, a private `shard-<k>/` log).
        workers: usize,
        /// Base RNG seed; session `t` walks with seed `seed + t`, so a
        /// fleet run is reproducible end-to-end.
        seed: u64,
        /// Spill session output into a trajectory log at this directory.
        spill: Option<String>,
        /// After the run, answer a time-range query over the spilled
        /// data through the unified query engine (`[from, to]`;
        /// `--query-after all` covers everything). Needs `--spill`.
        query_after: Option<[f64; 2]>,
    },
    /// `bqs query <dir> [--track N] [--from T] [--to T] [--bbox X0,Y0,X1,Y1] [--out FILE]`
    Query {
        /// A flat log directory or a `shard-<k>/` spill-tree root.
        dir: String,
        /// Restrict to one track.
        track: Option<u64>,
        /// Inclusive lower time bound.
        from: Option<f64>,
        /// Inclusive upper time bound.
        to: Option<f64>,
        /// Spatial filter `x0,y0,x1,y1` (any two opposite corners).
        bbox: Option<[f64; 4]>,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs log append <dir> <trace.csv> --track N [--algorithm none|bqs|fbqs] [--tolerance M]`
    LogAppend {
        /// Log directory.
        dir: String,
        /// Input trace CSV.
        input: String,
        /// Track id to append under.
        track: u64,
        /// Compress before appending: "none", "bqs" or "fbqs".
        algorithm: String,
        /// Error tolerance in metres (compressing algorithms only).
        tolerance: f64,
    },
    /// `bqs log query <dir> [--track N] [--from T] [--to T] [--bbox X0,Y0,X1,Y1] [--at T] [--out FILE]`
    LogQuery {
        /// Log directory.
        dir: String,
        /// Restrict to one track.
        track: Option<u64>,
        /// Inclusive lower time bound.
        from: Option<f64>,
        /// Inclusive upper time bound.
        to: Option<f64>,
        /// Spatial filter `x0,y0,x1,y1` (any two opposite corners).
        bbox: Option<[f64; 4]>,
        /// Reconstruct the track's position at this time (needs --track).
        at: Option<f64>,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs log compact <dir> [--drop TRACK]...`
    LogCompact {
        /// Log directory.
        dir: String,
        /// Tracks to tombstone before compacting.
        drop: Vec<u64>,
    },
    /// `bqs log verify <dir>`
    LogVerify {
        /// Log directory.
        dir: String,
    },
    /// `bqs serve --spill DIR [--addr HOST:PORT] [--workers N] [--tolerance M] [--io-threads N] [--max-connections N] [--port-file FILE]`
    Serve {
        /// Bind address, `host:port` (`:0` picks an ephemeral port).
        addr: String,
        /// Parallel fleet worker threads behind the server.
        workers: usize,
        /// Directory the server spills closed sessions into (must be
        /// fresh, like `bqs fleet --spill`).
        spill: String,
        /// Error tolerance in metres.
        tolerance: f64,
        /// I/O threads multiplexing the connections (≥ 1).
        io_threads: usize,
        /// Cap on concurrently served connections; accepts beyond it
        /// get a typed over-capacity error frame.
        max_connections: usize,
        /// Write the actually bound address to this file (useful with
        /// port 0 — scripts read it instead of parsing stdout).
        port_file: Option<String>,
        /// Log a one-line metrics summary to stderr every N seconds
        /// (`None` disables the reporter thread).
        metrics_interval: Option<u64>,
        /// Bounded-lateness window in seconds: points up to this far
        /// behind a track's watermark are reorder-buffered instead of
        /// rejected (0 keeps strict in-order ingest).
        lateness: f64,
        /// Declarative threshold rules (`metric:stat>threshold`),
        /// evaluated every reporter tick; repeatable. Needs
        /// `--metrics-interval`.
        alerts: Vec<String>,
        /// Serve the Prometheus text exposition over HTTP at this
        /// address (`GET /metrics`).
        prom_addr: Option<String>,
        /// Evict sessions idle longer than this many stream-clock
        /// seconds (0 disables eviction).
        evict_idle: f64,
    },
    /// `bqs loadgen --addr HOST:PORT [--sessions N] [--points N] [--seed N] [--connections N] [--batch N] [--disorder S] [--backfill] [--shutdown]`
    Loadgen {
        /// Server address, `host:port`.
        addr: String,
        /// Simulated tracker sessions.
        sessions: usize,
        /// Points per session.
        points: usize,
        /// Base RNG seed (session `t` walks with seed `seed + t`, the
        /// same workload `bqs fleet --seed` drives in process).
        seed: u64,
        /// Concurrent client connections.
        connections: usize,
        /// Points per `Append` frame.
        batch: usize,
        /// Send `Shutdown` once the load completes.
        shutdown: bool,
        /// Deliver each session's points out of order within this many
        /// seconds (seeded bounded shuffle; needs a server started with
        /// `--lateness` at least this large). 0 = strict order.
        disorder: f64,
        /// Ship each session's oldest third through the durable
        /// backfill path after its live remainder.
        backfill: bool,
    },
    /// `bqs subscribe --addr HOST:PORT [--track N] [--bbox X0,Y0,X1,Y1] [--out FILE]`
    Subscribe {
        /// Server address, `host:port`.
        addr: String,
        /// Restrict the stream to one track.
        track: Option<u64>,
        /// Spatial filter `x0,y0,x1,y1` (any two opposite corners).
        bbox: Option<[f64; 4]>,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs metrics --addr HOST:PORT [--watch N | --prom]`
    Metrics {
        /// Server address, `host:port`.
        addr: String,
        /// Re-fetch every N seconds, printing counter deltas, until
        /// interrupted (`None` fetches once).
        watch: Option<u64>,
        /// Fetch the Prometheus text exposition instead of the native
        /// `name value` catalog (mutually exclusive with `--watch`).
        prom: bool,
    },
    /// `bqs trace --addr HOST:PORT [--last N] [--conn ID]`
    Trace {
        /// Server address, `host:port`.
        addr: String,
        /// Only the most recent N events.
        last: Option<u64>,
        /// Only events belonging to one connection id.
        conn: Option<u64>,
    },
    /// `bqs analyze [--deny] [--lint ID]... [ROOT]`
    Analyze {
        /// Exit non-zero when any finding is produced (the CI gate).
        deny: bool,
        /// Restrict the run to these lint/check ids (empty = all).
        lints: Vec<String>,
        /// Workspace root to analyze (the current directory when
        /// `None`).
        root: Option<String>,
    },
    /// `bqs info`
    Info,
    /// `bqs help` (or no arguments).
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
bqs — Bounded Quadrant System trajectory compression

USAGE:
  bqs generate <bat|vehicle|synthetic> [--seed N] [--scale quick|full] [--out FILE]
  bqs compress <bqs|fbqs|bdp|bgd|dp|dr|squish-e|mbr> <trace.csv>
               [--tolerance M] [--buffer N] [--out FILE]
  bqs verify <original.csv> <compressed.csv> --tolerance M
  bqs experiments [fig3|fig6|fig7|fig8a|fig8b|table1|table2|table3|ablation|
                   extended|all]... [--full]
  bqs fleet [--sessions N] [--points N] [--tolerance M] [--algorithm bqs|fbqs]
            [--workers N] [--seed N] [--spill DIR] [--query-after FROM,TO|all]
  bqs query <dir> [--track N] [--from T] [--to T] [--bbox X0,Y0,X1,Y1]
            [--out FILE]
  bqs serve --spill DIR [--addr HOST:PORT] [--workers N] [--tolerance M]
            [--io-threads N] [--max-connections N] [--port-file FILE]
            [--metrics-interval N] [--lateness S] [--alert RULE]...
            [--prom-addr HOST:PORT] [--evict-idle S]
  bqs loadgen --addr HOST:PORT [--sessions N] [--points N] [--seed N]
              [--connections N] [--batch N] [--disorder S] [--backfill]
              [--shutdown]
              (--sessions 0 --shutdown = no ingest, just shut down)
  bqs subscribe --addr HOST:PORT [--track N] [--bbox X0,Y0,X1,Y1] [--out FILE]
  bqs metrics --addr HOST:PORT [--watch N | --prom]
  bqs trace --addr HOST:PORT [--last N] [--conn ID]
  bqs log append <dir> <trace.csv> --track N [--algorithm none|bqs|fbqs]
                 [--tolerance M]
  bqs log query <dir> [--track N] [--from T] [--to T] [--bbox X0,Y0,X1,Y1]
                [--at T] [--out FILE]
  bqs log compact <dir> [--drop TRACK]...
  bqs log verify <dir>
  bqs analyze [--deny] [--lint ID]... [ROOT]
  bqs info
  bqs help (alias: --help, -h)
";

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_f64(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<f64, String> {
    take_value(flag, it)?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

fn parse_bbox(it: &mut std::slice::Iter<'_, String>) -> Result<[f64; 4], String> {
    let raw = take_value("--bbox", it)?;
    let parts: Vec<f64> = raw
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --bbox: {e}"))?;
    let [x0, y0, x1, y1] = parts[..] else {
        return Err("--bbox needs exactly x0,y0,x1,y1".to_string());
    };
    Ok([x0, y0, x1, y1])
}

/// Parses the `bqs log <append|query|compact|verify>` family.
fn parse_log(it: &mut std::slice::Iter<'_, String>) -> Result<Command, String> {
    let sub = it.next().ok_or("log needs a subcommand")?;
    match sub.as_str() {
        "append" => {
            let mut positional: Vec<String> = Vec::new();
            let mut track: Option<u64> = None;
            let mut algorithm = "none".to_string();
            let mut tolerance = 10.0f64;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--track" => {
                        track = Some(
                            take_value("--track", it)?
                                .parse()
                                .map_err(|e| format!("bad --track: {e}"))?,
                        );
                    }
                    "--algorithm" => algorithm = take_value("--algorithm", it)?.clone(),
                    "--tolerance" => tolerance = parse_f64("--tolerance", it)?,
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if positional.len() != 2 {
                return Err("log append needs <dir> <trace.csv>".to_string());
            }
            if !["none", "bqs", "fbqs"].contains(&algorithm.as_str()) {
                return Err(format!(
                    "log append supports none|bqs|fbqs, got {algorithm}"
                ));
            }
            if !(tolerance.is_finite() && tolerance > 0.0) {
                return Err(format!("tolerance must be > 0, got {tolerance}"));
            }
            Ok(Command::LogAppend {
                dir: positional.remove(0),
                input: positional.remove(0),
                track: track.ok_or("log append needs --track")?,
                algorithm,
                tolerance,
            })
        }
        "query" => {
            let mut dir: Option<String> = None;
            let mut track: Option<u64> = None;
            let mut from: Option<f64> = None;
            let mut to: Option<f64> = None;
            let mut bbox: Option<[f64; 4]> = None;
            let mut at: Option<f64> = None;
            let mut out: Option<String> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--track" => {
                        track = Some(
                            take_value("--track", it)?
                                .parse()
                                .map_err(|e| format!("bad --track: {e}"))?,
                        );
                    }
                    "--from" => from = Some(parse_f64("--from", it)?),
                    "--to" => to = Some(parse_f64("--to", it)?),
                    "--at" => at = Some(parse_f64("--at", it)?),
                    "--out" => out = Some(take_value("--out", it)?.clone()),
                    "--bbox" => bbox = Some(parse_bbox(it)?),
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if at.is_some() && track.is_none() {
                return Err("--at requires --track".to_string());
            }
            if at.is_some() && (from.is_some() || to.is_some() || bbox.is_some()) {
                return Err("--at cannot be combined with --from/--to/--bbox".to_string());
            }
            Ok(Command::LogQuery {
                dir: dir.ok_or("log query needs <dir>")?,
                track,
                from,
                to,
                bbox,
                at,
                out,
            })
        }
        "compact" => {
            let mut dir: Option<String> = None;
            let mut drop = Vec::new();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--drop" => {
                        drop.push(
                            take_value("--drop", it)?
                                .parse()
                                .map_err(|e| format!("bad --drop: {e}"))?,
                        );
                    }
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::LogCompact {
                dir: dir.ok_or("log compact needs <dir>")?,
                drop,
            })
        }
        "verify" => {
            let mut dir: Option<String> = None;
            for arg in it {
                match arg.as_str() {
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::LogVerify {
                dir: dir.ok_or("log verify needs <dir>")?,
            })
        }
        other => Err(format!("unknown log subcommand: {other}\n\n{USAGE}")),
    }
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info),
        "generate" => {
            let mut dataset: Option<String> = None;
            let mut seed = 42u64;
            let mut full = false;
            let mut out = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--seed" => {
                        seed = take_value("--seed", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--scale" => {
                        full = match take_value("--scale", &mut it)?.as_str() {
                            "full" => true,
                            "quick" => false,
                            other => return Err(format!("bad --scale: {other}")),
                        };
                    }
                    "--out" => out = Some(take_value("--out", &mut it)?.clone()),
                    other if !other.starts_with('-') && dataset.is_none() => {
                        dataset = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            let dataset = dataset.ok_or("generate needs a dataset name")?;
            if !["bat", "vehicle", "synthetic"].contains(&dataset.as_str()) {
                return Err(format!("unknown dataset: {dataset}"));
            }
            Ok(Command::Generate {
                dataset,
                seed,
                full,
                out,
            })
        }
        "compress" => {
            let mut positional: Vec<String> = Vec::new();
            let mut tolerance = 10.0f64;
            let mut buffer = 32usize;
            let mut out = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--tolerance" => {
                        tolerance = take_value("--tolerance", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --tolerance: {e}"))?;
                    }
                    "--buffer" => {
                        buffer = take_value("--buffer", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --buffer: {e}"))?;
                    }
                    "--out" => out = Some(take_value("--out", &mut it)?.clone()),
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if positional.len() != 2 {
                return Err("compress needs <algorithm> <input.csv>".to_string());
            }
            if !(tolerance.is_finite() && tolerance > 0.0) {
                return Err(format!("tolerance must be > 0, got {tolerance}"));
            }
            let algorithm = positional.remove(0);
            let known = ["bqs", "fbqs", "bdp", "bgd", "dp", "dr", "squish-e", "mbr"];
            if !known.contains(&algorithm.as_str()) {
                return Err(format!("unknown algorithm: {algorithm}"));
            }
            Ok(Command::Compress {
                algorithm,
                input: positional.remove(0),
                tolerance,
                buffer,
                out,
            })
        }
        "verify" => {
            let mut positional: Vec<String> = Vec::new();
            let mut tolerance: Option<f64> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--tolerance" => {
                        tolerance = Some(
                            take_value("--tolerance", &mut it)?
                                .parse()
                                .map_err(|e| format!("bad --tolerance: {e}"))?,
                        );
                    }
                    other if !other.starts_with('-') => positional.push(other.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if positional.len() != 2 {
                return Err("verify needs <original.csv> <compressed.csv>".to_string());
            }
            let tolerance = tolerance.ok_or("verify needs --tolerance")?;
            Ok(Command::Verify {
                original: positional.remove(0),
                compressed: positional.remove(0),
                tolerance,
            })
        }
        "experiments" => {
            let mut names = Vec::new();
            let mut full = false;
            for arg in it {
                match arg.as_str() {
                    "--full" => full = true,
                    other if experiments::names().any(|n| n == other) => {
                        names.push(other.to_string());
                    }
                    other if !other.starts_with('-') => {
                        let known: Vec<&str> = experiments::names().collect();
                        return Err(format!(
                            "unknown experiment {other:?}; expected one of {}",
                            known.join(" ")
                        ));
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::Experiments { names, full })
        }
        "fleet" => {
            let mut sessions = 100usize;
            let mut points = 500usize;
            let mut tolerance = 10.0f64;
            let mut algorithm = "fbqs".to_string();
            let mut workers = 1usize;
            let mut seed = 1u64;
            let mut spill = None;
            let mut query_after = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--seed" => {
                        seed = take_value("--seed", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--spill" => spill = Some(take_value("--spill", &mut it)?.clone()),
                    "--query-after" => {
                        let raw = take_value("--query-after", &mut it)?;
                        query_after = Some(if raw == "all" {
                            [f64::NEG_INFINITY, f64::INFINITY]
                        } else {
                            let parts: Vec<f64> = raw
                                .split(',')
                                .map(|s| s.trim().parse::<f64>())
                                .collect::<Result<_, _>>()
                                .map_err(|e| format!("bad --query-after: {e}"))?;
                            let [from, to] = parts[..] else {
                                return Err("--query-after needs FROM,TO or \"all\"".to_string());
                            };
                            [from, to]
                        });
                    }
                    "--sessions" => {
                        sessions = take_value("--sessions", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --sessions: {e}"))?;
                    }
                    "--points" => {
                        points = take_value("--points", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --points: {e}"))?;
                    }
                    "--tolerance" => {
                        tolerance = take_value("--tolerance", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --tolerance: {e}"))?;
                    }
                    "--algorithm" => {
                        algorithm = take_value("--algorithm", &mut it)?.clone();
                    }
                    "--workers" => {
                        workers = take_value("--workers", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --workers: {e}"))?;
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            // Every counted quantity is validated the same way: a zero
            // produces an empty or nonsense run, never a report.
            for (flag, value) in [
                ("--sessions", sessions),
                ("--points", points),
                ("--workers", workers),
            ] {
                if value == 0 {
                    return Err(format!("fleet needs {flag} ≥ 1, got 0"));
                }
            }
            if !(tolerance.is_finite() && tolerance > 0.0) {
                return Err(format!("tolerance must be > 0, got {tolerance}"));
            }
            if !["bqs", "fbqs"].contains(&algorithm.as_str()) {
                return Err(format!("fleet supports bqs|fbqs, got {algorithm}"));
            }
            if query_after.is_some() && spill.is_none() {
                return Err("--query-after needs --spill (it queries the spilled log)".to_string());
            }
            Ok(Command::Fleet {
                sessions,
                points,
                tolerance,
                algorithm,
                workers,
                seed,
                spill,
                query_after,
            })
        }
        "query" => {
            let mut dir: Option<String> = None;
            let mut track: Option<u64> = None;
            let mut from: Option<f64> = None;
            let mut to: Option<f64> = None;
            let mut bbox: Option<[f64; 4]> = None;
            let mut out: Option<String> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--track" => {
                        track = Some(
                            take_value("--track", &mut it)?
                                .parse()
                                .map_err(|e| format!("bad --track: {e}"))?,
                        );
                    }
                    "--from" => from = Some(parse_f64("--from", &mut it)?),
                    "--to" => to = Some(parse_f64("--to", &mut it)?),
                    "--bbox" => bbox = Some(parse_bbox(&mut it)?),
                    "--out" => out = Some(take_value("--out", &mut it)?.clone()),
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::Query {
                dir: dir.ok_or("query needs <dir>")?,
                track,
                from,
                to,
                bbox,
                out,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:0".to_string();
            let mut workers = 4usize;
            let mut spill: Option<String> = None;
            let mut tolerance = 10.0f64;
            let mut io_threads = 4usize;
            let mut max_connections = 4096usize;
            let mut port_file: Option<String> = None;
            let mut metrics_interval: Option<u64> = None;
            let mut lateness = 0.0f64;
            let mut alerts: Vec<String> = Vec::new();
            let mut prom_addr: Option<String> = None;
            let mut evict_idle = 0.0f64;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = take_value("--addr", &mut it)?.clone(),
                    "--lateness" => lateness = parse_f64("--lateness", &mut it)?,
                    "--alert" => alerts.push(take_value("--alert", &mut it)?.clone()),
                    "--prom-addr" => prom_addr = Some(take_value("--prom-addr", &mut it)?.clone()),
                    "--evict-idle" => evict_idle = parse_f64("--evict-idle", &mut it)?,
                    "--spill" => spill = Some(take_value("--spill", &mut it)?.clone()),
                    "--port-file" => port_file = Some(take_value("--port-file", &mut it)?.clone()),
                    "--metrics-interval" => {
                        let n: u64 = take_value("--metrics-interval", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --metrics-interval: {e}"))?;
                        if n == 0 {
                            return Err("serve needs --metrics-interval ≥ 1, got 0".to_string());
                        }
                        metrics_interval = Some(n);
                    }
                    "--tolerance" => tolerance = parse_f64("--tolerance", &mut it)?,
                    "--workers" => {
                        workers = take_value("--workers", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --workers: {e}"))?;
                    }
                    "--io-threads" => {
                        io_threads = take_value("--io-threads", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --io-threads: {e}"))?;
                    }
                    "--max-connections" => {
                        max_connections = take_value("--max-connections", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --max-connections: {e}"))?;
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            for (flag, value) in [
                ("--workers", workers),
                ("--io-threads", io_threads),
                ("--max-connections", max_connections),
            ] {
                if value == 0 {
                    return Err(format!("serve needs {flag} ≥ 1, got 0"));
                }
            }
            if !(tolerance.is_finite() && tolerance > 0.0) {
                return Err(format!("tolerance must be > 0, got {tolerance}"));
            }
            if !(lateness.is_finite() && lateness >= 0.0) {
                return Err(format!("--lateness must be ≥ 0 seconds, got {lateness}"));
            }
            if !(evict_idle.is_finite() && evict_idle >= 0.0) {
                return Err(format!(
                    "--evict-idle must be ≥ 0 seconds, got {evict_idle}"
                ));
            }
            if !alerts.is_empty() && metrics_interval.is_none() {
                return Err(
                    "--alert needs --metrics-interval (the reporter evaluates the rules)"
                        .to_string(),
                );
            }
            Ok(Command::Serve {
                addr,
                workers,
                spill: spill.ok_or("serve needs --spill DIR (the durable output)")?,
                tolerance,
                io_threads,
                max_connections,
                port_file,
                metrics_interval,
                lateness,
                alerts,
                prom_addr,
                evict_idle,
            })
        }
        "loadgen" => {
            let mut addr: Option<String> = None;
            let mut sessions = 100usize;
            let mut points = 500usize;
            let mut seed = 1u64;
            let mut connections = 1usize;
            let mut batch = 64usize;
            let mut shutdown = false;
            let mut disorder = 0.0f64;
            let mut backfill = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = Some(take_value("--addr", &mut it)?.clone()),
                    "--shutdown" => shutdown = true,
                    "--backfill" => backfill = true,
                    "--disorder" => disorder = parse_f64("--disorder", &mut it)?,
                    "--seed" => {
                        seed = take_value("--seed", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--sessions" => {
                        sessions = take_value("--sessions", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --sessions: {e}"))?;
                    }
                    "--points" => {
                        points = take_value("--points", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --points: {e}"))?;
                    }
                    "--connections" => {
                        connections = take_value("--connections", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --connections: {e}"))?;
                    }
                    "--batch" => {
                        batch = take_value("--batch", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --batch: {e}"))?;
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            // `--sessions 0 --shutdown` (or `--points 0`) is the
            // pure-shutdown mode: no ingest, one Shutdown connection.
            let shutdown_only = shutdown && (sessions == 0 || points == 0);
            if !shutdown_only {
                for (flag, value) in [
                    ("--sessions", sessions),
                    ("--points", points),
                    ("--connections", connections),
                    ("--batch", batch),
                ] {
                    if value == 0 {
                        return Err(format!("loadgen needs {flag} ≥ 1, got 0"));
                    }
                }
            }
            if !(disorder.is_finite() && disorder >= 0.0) {
                return Err(format!("--disorder must be ≥ 0 seconds, got {disorder}"));
            }
            Ok(Command::Loadgen {
                addr: addr.ok_or("loadgen needs --addr HOST:PORT (a running bqs serve)")?,
                sessions,
                points,
                seed,
                connections,
                batch,
                shutdown,
                disorder,
                backfill,
            })
        }
        "subscribe" => {
            let mut addr: Option<String> = None;
            let mut track: Option<u64> = None;
            let mut bbox: Option<[f64; 4]> = None;
            let mut out: Option<String> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = Some(take_value("--addr", &mut it)?.clone()),
                    "--track" => {
                        track = Some(
                            take_value("--track", &mut it)?
                                .parse()
                                .map_err(|e| format!("bad --track: {e}"))?,
                        );
                    }
                    "--bbox" => bbox = Some(parse_bbox(&mut it)?),
                    "--out" => out = Some(take_value("--out", &mut it)?.clone()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::Subscribe {
                addr: addr.ok_or("subscribe needs --addr HOST:PORT (a running bqs serve)")?,
                track,
                bbox,
                out,
            })
        }
        "metrics" => {
            let mut addr: Option<String> = None;
            let mut watch: Option<u64> = None;
            let mut prom = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = Some(take_value("--addr", &mut it)?.clone()),
                    "--prom" => prom = true,
                    "--watch" => {
                        let n: u64 = take_value("--watch", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --watch: {e}"))?;
                        if n == 0 {
                            return Err("metrics needs --watch ≥ 1, got 0".to_string());
                        }
                        watch = Some(n);
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if prom && watch.is_some() {
                return Err("--prom and --watch are mutually exclusive \
                     (--prom is a one-shot scrape; --watch prints native-format deltas)"
                    .to_string());
            }
            Ok(Command::Metrics {
                addr: addr.ok_or("metrics needs --addr HOST:PORT (a running bqs serve)")?,
                watch,
                prom,
            })
        }
        "trace" => {
            let mut addr: Option<String> = None;
            let mut last: Option<u64> = None;
            let mut conn: Option<u64> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = Some(take_value("--addr", &mut it)?.clone()),
                    "--last" => {
                        let n: u64 = take_value("--last", &mut it)?
                            .parse()
                            .map_err(|e| format!("bad --last: {e}"))?;
                        if n == 0 {
                            return Err("trace needs --last ≥ 1, got 0".to_string());
                        }
                        last = Some(n);
                    }
                    "--conn" => {
                        conn = Some(
                            take_value("--conn", &mut it)?
                                .parse()
                                .map_err(|e| format!("bad --conn: {e}"))?,
                        );
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::Trace {
                addr: addr.ok_or("trace needs --addr HOST:PORT (a running bqs serve)")?,
                last,
                conn,
            })
        }
        "analyze" => {
            let mut deny = false;
            let mut lints: Vec<String> = Vec::new();
            let mut root: Option<String> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--deny" => deny = true,
                    "--lint" => lints.push(take_value("--lint", &mut it)?.clone()),
                    other if !other.starts_with('-') && root.is_none() => {
                        root = Some(other.to_string());
                    }
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            Ok(Command::Analyze { deny, lints, root })
        }
        "log" => parse_log(&mut it),
        other => Err(format!("unknown command: {other}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn generate_defaults_and_flags() {
        assert_eq!(
            parse(&args("generate bat")).unwrap(),
            Command::Generate {
                dataset: "bat".into(),
                seed: 42,
                full: false,
                out: None
            }
        );
        assert_eq!(
            parse(&args(
                "generate synthetic --seed 7 --scale full --out x.csv"
            ))
            .unwrap(),
            Command::Generate {
                dataset: "synthetic".into(),
                seed: 7,
                full: true,
                out: Some("x.csv".into())
            }
        );
    }

    #[test]
    fn generate_rejects_bad_input() {
        assert!(parse(&args("generate")).is_err());
        assert!(parse(&args("generate mars")).is_err());
        assert!(parse(&args("generate bat --seed nope")).is_err());
        assert!(parse(&args("generate bat --scale medium")).is_err());
    }

    #[test]
    fn compress_parses() {
        assert_eq!(
            parse(&args(
                "compress fbqs in.csv --tolerance 7.5 --buffer 64 --out out.csv"
            ))
            .unwrap(),
            Command::Compress {
                algorithm: "fbqs".into(),
                input: "in.csv".into(),
                tolerance: 7.5,
                buffer: 64,
                out: Some("out.csv".into())
            }
        );
    }

    #[test]
    fn compress_rejects_bad_input() {
        assert!(parse(&args("compress fbqs")).is_err());
        assert!(parse(&args("compress warp in.csv")).is_err());
        assert!(parse(&args("compress fbqs in.csv --tolerance -3")).is_err());
    }

    #[test]
    fn verify_requires_tolerance() {
        assert!(parse(&args("verify a.csv b.csv")).is_err());
        assert_eq!(
            parse(&args("verify a.csv b.csv --tolerance 5")).unwrap(),
            Command::Verify {
                original: "a.csv".into(),
                compressed: "b.csv".into(),
                tolerance: 5.0
            }
        );
    }

    #[test]
    fn experiments_parses() {
        assert_eq!(
            parse(&args("experiments fig7 table2 --full")).unwrap(),
            Command::Experiments {
                names: vec!["fig7".into(), "table2".into()],
                full: true
            }
        );
        assert_eq!(
            parse(&args("experiments")).unwrap(),
            Command::Experiments {
                names: vec![],
                full: false
            }
        );
    }

    #[test]
    fn experiments_rejects_unknown_names() {
        // A typo beside a valid name is a parse error, not silently dropped.
        let err = parse(&args("experiments fig3 typo")).unwrap_err();
        assert!(err.contains("unknown experiment \"typo\""), "{err}");
        assert!(err.contains("fig3") && err.contains("all"), "{err}");
        for retired in ["fleet", "storage", "query", "net"] {
            assert!(parse(&args(&format!("experiments {retired}"))).is_err());
        }
        assert!(parse(&args("experiments --quick")).is_err());
        for name in experiments::names() {
            assert!(parse(&args(&format!("experiments {name}"))).is_ok());
        }
    }

    #[test]
    fn usage_lists_exactly_the_experiment_names() {
        let synopsis: String = USAGE
            .split("bqs experiments [")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap()
            .split_whitespace()
            .collect();
        let listed: Vec<&str> = synopsis.split('|').collect();
        let names: Vec<&str> = experiments::names().collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn fleet_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&args("fleet")).unwrap(),
            Command::Fleet {
                sessions: 100,
                points: 500,
                tolerance: 10.0,
                algorithm: "fbqs".into(),
                workers: 1,
                seed: 1,
                spill: None,
                query_after: None
            }
        );
        assert_eq!(
            parse(&args(
                "fleet --sessions 8 --points 50 --tolerance 5 --algorithm bqs --workers 4 \
                 --seed 99 --spill /tmp/l --query-after 10,600"
            ))
            .unwrap(),
            Command::Fleet {
                sessions: 8,
                points: 50,
                tolerance: 5.0,
                algorithm: "bqs".into(),
                workers: 4,
                seed: 99,
                spill: Some("/tmp/l".into()),
                query_after: Some([10.0, 600.0])
            }
        );
        assert!(matches!(
            parse(&args("fleet --spill /tmp/l --query-after all")).unwrap(),
            Command::Fleet {
                query_after: Some([f, t]),
                ..
            } if f == f64::NEG_INFINITY && t == f64::INFINITY
        ));
    }

    #[test]
    fn fleet_rejects_bad_input() {
        assert!(parse(&args("fleet --tolerance -2")).is_err());
        assert!(parse(&args("fleet --tolerance inf")).is_err());
        assert!(parse(&args("fleet --algorithm dp")).is_err());
        assert!(parse(&args("fleet --frobnicate")).is_err());
        assert!(parse(&args("fleet --seed banana")).is_err());
        assert!(parse(&args("fleet --workers two")).is_err());
        // --query-after without a spill target is meaningless.
        assert!(parse(&args("fleet --query-after all")).is_err());
        assert!(parse(&args("fleet --spill /tmp/l --query-after 1,2,3")).is_err());
    }

    #[test]
    fn every_zero_count_is_rejected_with_a_uniform_message() {
        // A zero for any counted quantity would mean an empty or
        // nonsense run; all three flags fail the same way.
        for flag in ["--sessions", "--points", "--workers"] {
            let err = parse(&args(&format!("fleet {flag} 0"))).unwrap_err();
            assert_eq!(err, format!("fleet needs {flag} ≥ 1, got 0"));
        }
    }

    #[test]
    fn query_parses_filters_and_requires_dir() {
        assert_eq!(
            parse(&args(
                "query /tmp/tree --track 3 --from 10 --to 99.5 --bbox 0,0,50,50 --out q.csv"
            ))
            .unwrap(),
            Command::Query {
                dir: "/tmp/tree".into(),
                track: Some(3),
                from: Some(10.0),
                to: Some(99.5),
                bbox: Some([0.0, 0.0, 50.0, 50.0]),
                out: Some("q.csv".into())
            }
        );
        assert_eq!(
            parse(&args("query /tmp/tree")).unwrap(),
            Command::Query {
                dir: "/tmp/tree".into(),
                track: None,
                from: None,
                to: None,
                bbox: None,
                out: None
            }
        );
        assert!(parse(&args("query")).is_err());
        assert!(parse(&args("query /tmp/tree --bbox 1,2,3")).is_err());
        assert!(parse(&args("query /tmp/tree --frobnicate")).is_err());
    }

    #[test]
    fn log_append_parses_and_validates() {
        assert_eq!(
            parse(&args("log append /tmp/log trace.csv --track 7")).unwrap(),
            Command::LogAppend {
                dir: "/tmp/log".into(),
                input: "trace.csv".into(),
                track: 7,
                algorithm: "none".into(),
                tolerance: 10.0
            }
        );
        assert_eq!(
            parse(&args(
                "log append /tmp/log trace.csv --track 7 --algorithm fbqs --tolerance 5"
            ))
            .unwrap(),
            Command::LogAppend {
                dir: "/tmp/log".into(),
                input: "trace.csv".into(),
                track: 7,
                algorithm: "fbqs".into(),
                tolerance: 5.0
            }
        );
        assert!(parse(&args("log append /tmp/log trace.csv")).is_err());
        assert!(parse(&args("log append /tmp/log --track 1")).is_err());
        assert!(parse(&args("log append /tmp/log t.csv --track 1 --algorithm dp")).is_err());
    }

    #[test]
    fn log_query_parses_filters() {
        assert_eq!(
            parse(&args(
                "log query /tmp/log --track 3 --from 10 --to 99.5 --bbox 0,0,50,50"
            ))
            .unwrap(),
            Command::LogQuery {
                dir: "/tmp/log".into(),
                track: Some(3),
                from: Some(10.0),
                to: Some(99.5),
                bbox: Some([0.0, 0.0, 50.0, 50.0]),
                at: None,
                out: None
            }
        );
        assert_eq!(
            parse(&args("log query /tmp/log --track 3 --at 42")).unwrap(),
            Command::LogQuery {
                dir: "/tmp/log".into(),
                track: Some(3),
                from: None,
                to: None,
                bbox: None,
                at: Some(42.0),
                out: None
            }
        );
        assert!(parse(&args("log query")).is_err());
        assert!(
            parse(&args("log query /tmp/log --at 5")).is_err(),
            "--at needs --track"
        );
        assert!(parse(&args("log query /tmp/log --bbox 1,2,3")).is_err());
    }

    #[test]
    fn log_compact_and_verify_parse() {
        assert_eq!(
            parse(&args("log compact /tmp/log --drop 4 --drop 9")).unwrap(),
            Command::LogCompact {
                dir: "/tmp/log".into(),
                drop: vec![4, 9]
            }
        );
        assert_eq!(
            parse(&args("log verify /tmp/log")).unwrap(),
            Command::LogVerify {
                dir: "/tmp/log".into()
            }
        );
        assert!(parse(&args("log")).is_err());
        assert!(parse(&args("log frobnicate /tmp/log")).is_err());
    }

    #[test]
    fn serve_parses_with_defaults_and_validates() {
        assert_eq!(
            parse(&args("serve --spill /tmp/tree")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 4,
                spill: "/tmp/tree".into(),
                tolerance: 10.0,
                io_threads: 4,
                max_connections: 4096,
                port_file: None,
                metrics_interval: None,
                lateness: 0.0,
                alerts: vec![],
                prom_addr: None,
                evict_idle: 0.0
            }
        );
        assert_eq!(
            parse(&args(
                "serve --addr 0.0.0.0:4750 --workers 8 --spill /tmp/t --tolerance 5 \
                 --io-threads 2 --max-connections 64 --port-file /tmp/port \
                 --metrics-interval 10 --lateness 2.5 --alert append_latency_us:p99>5000 \
                 --alert fleet_queue_depth:peak>48 --prom-addr 127.0.0.1:9100 \
                 --evict-idle 30"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:4750".into(),
                workers: 8,
                spill: "/tmp/t".into(),
                tolerance: 5.0,
                io_threads: 2,
                max_connections: 64,
                port_file: Some("/tmp/port".into()),
                metrics_interval: Some(10),
                lateness: 2.5,
                alerts: vec![
                    "append_latency_us:p99>5000".into(),
                    "fleet_queue_depth:peak>48".into()
                ],
                prom_addr: Some("127.0.0.1:9100".into()),
                evict_idle: 30.0
            }
        );
        // The pool needs at least one I/O thread; 0 is refused here
        // with the same message `Server::bind` gives library callers.
        assert_eq!(
            parse(&args("serve --spill /tmp/t --io-threads 0")).unwrap_err(),
            "serve needs --io-threads ≥ 1, got 0"
        );
        assert!(parse(&args("serve")).is_err(), "spill is required");
        assert!(parse(&args("serve --spill /tmp/t --workers 0")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --max-connections 0")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --tolerance -2")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --metrics-interval 0")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --frobnicate")).is_err());
        // Eviction windows validate like the lateness window.
        assert!(parse(&args("serve --spill /tmp/t --evict-idle -1")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --evict-idle inf")).is_err());
        // Alert rules are evaluated by the reporter, so they need it.
        let err = parse(&args(
            "serve --spill /tmp/t --alert fleet_queue_depth:peak>48",
        ))
        .unwrap_err();
        assert!(err.contains("--alert needs --metrics-interval"), "{err}");
    }

    #[test]
    fn metrics_parses_and_validates() {
        assert_eq!(
            parse(&args("metrics --addr 127.0.0.1:4750")).unwrap(),
            Command::Metrics {
                addr: "127.0.0.1:4750".into(),
                watch: None,
                prom: false
            }
        );
        assert_eq!(
            parse(&args("metrics --addr h:1 --watch 5")).unwrap(),
            Command::Metrics {
                addr: "h:1".into(),
                watch: Some(5),
                prom: false
            }
        );
        assert_eq!(
            parse(&args("metrics --addr h:1 --prom")).unwrap(),
            Command::Metrics {
                addr: "h:1".into(),
                watch: None,
                prom: true
            }
        );
        assert!(parse(&args("metrics")).is_err(), "addr is required");
        assert!(parse(&args("metrics --addr h:1 --watch 0")).is_err());
        assert!(parse(&args("metrics --addr h:1 --frobnicate")).is_err());
        // One-shot Prometheus scrape and the delta-printing watch loop
        // are different output formats; combining them is refused.
        let err = parse(&args("metrics --addr h:1 --prom --watch 5")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn trace_parses_and_validates() {
        assert_eq!(
            parse(&args("trace --addr 127.0.0.1:4750")).unwrap(),
            Command::Trace {
                addr: "127.0.0.1:4750".into(),
                last: None,
                conn: None
            }
        );
        assert_eq!(
            parse(&args("trace --addr h:1 --last 50 --conn 3")).unwrap(),
            Command::Trace {
                addr: "h:1".into(),
                last: Some(50),
                conn: Some(3)
            }
        );
        assert!(parse(&args("trace")).is_err(), "addr is required");
        assert!(parse(&args("trace --addr h:1 --last 0")).is_err());
        assert!(parse(&args("trace --addr h:1 --conn banana")).is_err());
        assert!(parse(&args("trace --addr h:1 --frobnicate")).is_err());
    }

    #[test]
    fn loadgen_parses_with_defaults_and_validates() {
        assert_eq!(
            parse(&args("loadgen --addr 127.0.0.1:4750")).unwrap(),
            Command::Loadgen {
                addr: "127.0.0.1:4750".into(),
                sessions: 100,
                points: 500,
                seed: 1,
                connections: 1,
                batch: 64,
                shutdown: false,
                disorder: 0.0,
                backfill: false
            }
        );
        assert_eq!(
            parse(&args(
                "loadgen --addr h:1 --sessions 8 --points 50 --seed 9 --connections 4 \
                 --batch 32 --disorder 1.5 --backfill --shutdown"
            ))
            .unwrap(),
            Command::Loadgen {
                addr: "h:1".into(),
                sessions: 8,
                points: 50,
                seed: 9,
                connections: 4,
                batch: 32,
                shutdown: true,
                disorder: 1.5,
                backfill: true
            }
        );
        assert!(parse(&args("loadgen")).is_err(), "addr is required");
        for flag in ["--sessions", "--points", "--connections", "--batch"] {
            let err = parse(&args(&format!("loadgen --addr h:1 {flag} 0"))).unwrap_err();
            assert_eq!(err, format!("loadgen needs {flag} ≥ 1, got 0"));
        }
        // Pure-shutdown mode: zero sessions/points is legal with
        // --shutdown (no ingest, one Shutdown connection).
        assert_eq!(
            parse(&args("loadgen --addr h:1 --sessions 0 --shutdown")).unwrap(),
            Command::Loadgen {
                addr: "h:1".into(),
                sessions: 0,
                points: 500,
                seed: 1,
                connections: 1,
                batch: 64,
                shutdown: true,
                disorder: 0.0,
                backfill: false
            }
        );
        // Lateness-window flags validate like the server's.
        assert!(parse(&args("loadgen --addr h:1 --disorder -1")).is_err());
        assert!(parse(&args("loadgen --addr h:1 --disorder nan")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --lateness -0.5")).is_err());
        assert!(parse(&args("serve --spill /tmp/t --lateness inf")).is_err());
    }

    #[test]
    fn subscribe_parses_and_requires_addr() {
        assert_eq!(
            parse(&args("subscribe --addr 127.0.0.1:4750")).unwrap(),
            Command::Subscribe {
                addr: "127.0.0.1:4750".into(),
                track: None,
                bbox: None,
                out: None
            }
        );
        assert_eq!(
            parse(&args(
                "subscribe --addr h:1 --track 7 --bbox 0,0,100,50 --out pts.csv"
            ))
            .unwrap(),
            Command::Subscribe {
                addr: "h:1".into(),
                track: Some(7),
                bbox: Some([0.0, 0.0, 100.0, 50.0]),
                out: Some("pts.csv".into())
            }
        );
        assert!(parse(&args("subscribe")).is_err(), "addr is required");
        assert!(parse(&args("subscribe --addr h:1 --frobnicate")).is_err());
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = parse(&args("frobnicate")).unwrap_err();
        assert!(err.contains("USAGE"));
        // The retired perf harness is unknown too; `benchmark/` measures.
        let err = parse(&args("bench --quick")).unwrap_err();
        assert!(err.contains("USAGE"), "{err}");
    }

    #[test]
    fn retired_shards_flag_is_an_unexpected_argument() {
        // Each engine holds one session table; there is nothing to shard.
        for line in ["fleet --shards 4", "serve --spill d --shards 4"] {
            assert_eq!(
                parse(&args(line)).unwrap_err(),
                "unexpected argument: --shards",
                "{line}"
            );
        }
    }
}
