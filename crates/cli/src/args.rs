//! Argument parsing for the `bqs` binary, driven by one table.
//!
//! `COMMANDS` declares every command once: its positionals and, for each
//! flag, the name, value placeholder, default, arity and domain. [`parse`]
//! is one generic loop over that table and applies every domain check;
//! [`usage`] renders the synopsis from the same rows; and the
//! `cli-usage-doc` check of `bqs analyze` reads the rows to hold the
//! README's command reference to them. A flag therefore exists, parses,
//! validates and is documented in one place.

use bqs_eval::experiments;
use Domain::*;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bqs generate`: write a dataset's trace as CSV.
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
    /// `bqs compress`: run one compressor over a trace.
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
    /// `bqs verify`: check every original point against its kept segment.
    Verify {
        /// Original trace CSV.
        original: String,
        /// Compressed trace CSV.
        compressed: String,
        /// Tolerance to verify against.
        tolerance: f64,
    },
    /// `bqs experiments`: reproduce the paper's §VI artefacts.
    Experiments {
        /// Experiment names from [`experiments::names`]; empty means all.
        names: Vec<String>,
        /// Paper-size data when true.
        full: bool,
    },
    /// `bqs fleet`: many simulated sessions through the parallel fleet.
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
        /// Spill session output into a `shard-<k>/` spill tree (one shard
        /// per worker, plus a `MANIFEST`) at this directory.
        spill: Option<String>,
        /// After the run, answer a time-range query over the spilled
        /// data through the unified query engine (`[from, to]`;
        /// `--query-after all` covers everything). Needs `--spill`.
        query_after: Option<[f64; 2]>,
    },
    /// `bqs query`: read a flat log or a spill tree, never writing to it.
    Query {
        /// A `shard-<k>/` spill-tree root, or a flat log (one shard's
        /// directory, or what `bqs log append` writes).
        dir: String,
        /// Restrict to one track.
        track: Option<u64>,
        /// Inclusive lower time bound.
        from: Option<f64>,
        /// Inclusive upper time bound.
        to: Option<f64>,
        /// Spatial filter `x0,y0,x1,y1` (any two opposite corners).
        bbox: Option<[f64; 4]>,
        /// Reconstruct the track's position at this time (needs `track`;
        /// excludes the range and area filters).
        at: Option<f64>,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `bqs log append`: compress a trace and append it to a flat log.
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
    /// `bqs log compact`: tombstone tracks and rewrite a flat log.
    LogCompact {
        /// Log directory.
        dir: String,
        /// Tracks to tombstone before compacting.
        drop: Vec<u64>,
    },
    /// `bqs log verify`: strict scan of a flat log or a spill tree.
    LogVerify {
        /// Log directory.
        dir: String,
    },
    /// `bqs serve`: the framed TCP ingest/query server.
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
    /// `bqs loadgen`: seeded multi-connection load against a server.
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
    /// `bqs subscribe`: stream a server's kept points live.
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
    /// `bqs metrics`: fetch a server's metric catalog.
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
    /// `bqs trace`: dump a server's flight recorder.
    Trace {
        /// Server address, `host:port`.
        addr: String,
        /// Only the most recent N events.
        last: Option<u64>,
        /// Only events belonging to one connection id.
        conn: Option<u64>,
    },
    /// `bqs analyze`: the workspace's static analysis pass.
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

/// The values an argument accepts; [`Domain::read`] checks them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Domain {
    /// Any text: paths, addresses, rules.
    Text,
    /// Any unsigned integer: seeds, track and connection ids.
    Id,
    /// A count ≥ 1.
    Count,
    /// A count ≥ 1, or 0 when the named switch is given too.
    CountOrZeroWith(&'static str),
    /// Any number: time bounds.
    Real,
    /// A finite number > 0.
    Positive,
    /// A finite number ≥ 0.
    NonNegative,
    /// One word of a fixed set.
    OneOf(&'static [&'static str]),
    /// One of [`experiments::names`].
    Experiment,
    /// `X0,Y0,X1,Y1`.
    Bbox,
    /// `FROM,TO`, or `all` for the whole time axis.
    Span,
}

/// Whether an argument must, may or may repeatedly be given.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Required,
    Optional,
    /// Optional, parsed from this text when absent.
    Default(&'static str),
    /// A flag without a value.
    Switch,
    /// Given any number of times; a repeated positional takes every
    /// remaining one.
    Repeat,
}

/// One argument of a command row: a flag when its name starts with
/// `--`, else a positional, filled from the loose words in row order.
#[derive(Debug, Clone, Copy)]
struct Arg {
    /// The flag, or the positional's name in messages.
    name: &'static str,
    /// What `usage` shows for the value, unless the domain lists its
    /// words.
    placeholder: &'static str,
    domain: Domain,
    kind: Kind,
}

/// A required positional.
const fn pos(name: &'static str, domain: Domain) -> Arg {
    Arg {
        name,
        placeholder: name,
        domain,
        kind: Kind::Required,
    }
}

/// An optional argument; `None` when absent.
const fn opt(name: &'static str, placeholder: &'static str, domain: Domain) -> Arg {
    Arg {
        kind: Kind::Optional,
        placeholder,
        ..pos(name, domain)
    }
}

/// A flag taking one word of `set`, shown as `a|b|c`.
const fn choice(name: &'static str, set: &'static [&'static str]) -> Arg {
    opt(name, "", OneOf(set))
}

const fn switch(name: &'static str) -> Arg {
    Arg {
        kind: Kind::Switch,
        ..pos(name, Text)
    }
}

const fn repeat(name: &'static str, placeholder: &'static str, domain: Domain) -> Arg {
    Arg {
        kind: Kind::Repeat,
        ..opt(name, placeholder, domain)
    }
}

impl Arg {
    const fn or(self, default: &'static str) -> Arg {
        Arg {
            kind: Kind::Default(default),
            ..self
        }
    }

    const fn required(self) -> Arg {
        Arg {
            kind: Kind::Required,
            ..self
        }
    }

    fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }

    fn usage(&self) -> String {
        let value = self
            .domain
            .choices()
            .map_or(self.placeholder.to_string(), |words| words.join("|"));
        match (self.is_flag(), self.kind) {
            (true, Kind::Switch) => format!("[{}]", self.name),
            (true, Kind::Required) => format!("{} {value}", self.name),
            (true, Kind::Repeat) => format!("[{} {value}]...", self.name),
            (true, _) => format!("[{} {value}]", self.name),
            (false, Kind::Required) => format!("<{value}>"),
            (false, Kind::Repeat) => format!("[{value}]..."),
            (false, _) => format!("[{value}]"),
        }
    }
}

/// A cross-flag condition of one command.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// The first flag is meaningless without the second (reason).
    Needs(&'static str, &'static str, &'static str),
    /// The two flags cannot be combined (reason).
    Excludes(&'static str, &'static str, &'static str),
}

/// One command row: everything the parser, `usage` and the README check
/// know about a command.
struct Spec {
    /// One word, or a group and its subcommand (`log append`).
    name: &'static str,
    /// Other spellings of a one-word command.
    aliases: &'static [&'static str],
    args: &'static [Arg],
    rules: &'static [Rule],
    /// An extra `usage` line under the synopsis.
    note: &'static str,
    /// Builds the command from the row's values, in row order.
    build: fn(&mut Values) -> Result<Command, String>,
}

const BLANK: Spec = Spec {
    name: "",
    aliases: &[],
    args: &[],
    rules: &[],
    note: "",
    build: |_| Ok(Command::Help),
};

/// A row's builder: `Command::$variant` with each field taken from the
/// row's values in order.
macro_rules! build {
    ($variant:ident { $($field:ident),* }) => {
        |v| Ok(Command::$variant { $($field: v.take()?),* })
    };
}

/// Every command of the `bqs` binary, in `usage` order.
const COMMANDS: &[Spec] = &[
    Spec {
        name: "generate",
        args: &[
            pos("dataset", OneOf(&["bat", "vehicle", "synthetic"])),
            opt("--seed", "N", Id).or("42"),
            choice("--scale", &["quick", "full"]).or("quick"),
            opt("--out", "FILE", Text),
        ],
        build: |v| {
            Ok(Command::Generate {
                dataset: v.take()?,
                seed: v.take()?,
                full: v.take::<String>()? == "full",
                out: v.take()?,
            })
        },
        ..BLANK
    },
    Spec {
        name: "compress",
        args: &[
            pos(
                "algorithm",
                OneOf(&["bqs", "fbqs", "bdp", "bgd", "dp", "dr", "squish-e", "mbr"]),
            ),
            pos("trace.csv", Text),
            opt("--tolerance", "M", Positive).or("10"),
            opt("--buffer", "N", Count).or("32"),
            opt("--out", "FILE", Text),
        ],
        build: build! { Compress { algorithm, input, tolerance, buffer, out } },
        ..BLANK
    },
    Spec {
        name: "verify",
        args: &[
            pos("original.csv", Text),
            pos("compressed.csv", Text),
            opt("--tolerance", "M", Positive).required(),
        ],
        build: build! { Verify { original, compressed, tolerance } },
        ..BLANK
    },
    Spec {
        name: "experiments",
        args: &[repeat("experiment", "", Experiment), switch("--full")],
        build: build! { Experiments { names, full } },
        ..BLANK
    },
    Spec {
        name: "fleet",
        args: &[
            opt("--sessions", "N", Count).or("100"),
            opt("--points", "N", Count).or("500"),
            opt("--tolerance", "M", Positive).or("10"),
            choice("--algorithm", &["bqs", "fbqs"]).or("fbqs"),
            opt("--workers", "N", Count).or("1"),
            opt("--seed", "N", Id).or("1"),
            opt("--spill", "DIR", Text),
            opt("--query-after", "FROM,TO|all", Span),
        ],
        rules: &[Rule::Needs(
            "--query-after",
            "--spill",
            "it queries the spilled log",
        )],
        build: build! { Fleet {
            sessions, points, tolerance, algorithm, workers, seed, spill, query_after
        } },
        ..BLANK
    },
    Spec {
        name: "query",
        args: &[
            pos("dir", Text),
            opt("--track", "N", Id),
            opt("--from", "T", Real),
            opt("--to", "T", Real),
            opt("--bbox", "X0,Y0,X1,Y1", Bbox),
            opt("--at", "T", Real),
            opt("--out", "FILE", Text),
        ],
        rules: &[
            Rule::Needs("--at", "--track", "it reconstructs one track"),
            Rule::Excludes("--at", "--from", "--at answers one instant"),
            Rule::Excludes("--at", "--to", "--at answers one instant"),
            Rule::Excludes("--at", "--bbox", "--at answers one instant"),
        ],
        build: build! { Query { dir, track, from, to, bbox, at, out } },
        ..BLANK
    },
    Spec {
        name: "serve",
        args: &[
            opt("--spill", "DIR", Text).required(),
            opt("--addr", "HOST:PORT", Text).or("127.0.0.1:0"),
            opt("--workers", "N", Count).or("4"),
            opt("--tolerance", "M", Positive).or("10"),
            opt("--io-threads", "N", Count).or("4"),
            opt("--max-connections", "N", Count).or("4096"),
            opt("--port-file", "FILE", Text),
            opt("--metrics-interval", "N", Count),
            opt("--lateness", "S", NonNegative).or("0"),
            repeat("--alert", "RULE", Text),
            opt("--prom-addr", "HOST:PORT", Text),
            opt("--evict-idle", "S", NonNegative).or("0"),
        ],
        rules: &[Rule::Needs(
            "--alert",
            "--metrics-interval",
            "the reporter evaluates the rules",
        )],
        build: build! { Serve {
            spill, addr, workers, tolerance, io_threads, max_connections, port_file,
            metrics_interval, lateness, alerts, prom_addr, evict_idle
        } },
        ..BLANK
    },
    Spec {
        name: "loadgen",
        args: &[
            opt("--addr", "HOST:PORT", Text).required(),
            opt("--sessions", "N", CountOrZeroWith("--shutdown")).or("100"),
            opt("--points", "N", CountOrZeroWith("--shutdown")).or("500"),
            opt("--seed", "N", Id).or("1"),
            opt("--connections", "N", Count).or("1"),
            opt("--batch", "N", Count).or("64"),
            opt("--disorder", "S", NonNegative).or("0"),
            switch("--backfill"),
            switch("--shutdown"),
        ],
        note: "(--sessions 0 --shutdown = no ingest, just shut down)",
        build: build! { Loadgen {
            addr, sessions, points, seed, connections, batch, disorder, backfill, shutdown
        } },
        ..BLANK
    },
    Spec {
        name: "subscribe",
        args: &[
            opt("--addr", "HOST:PORT", Text).required(),
            opt("--track", "N", Id),
            opt("--bbox", "X0,Y0,X1,Y1", Bbox),
            opt("--out", "FILE", Text),
        ],
        build: build! { Subscribe { addr, track, bbox, out } },
        ..BLANK
    },
    Spec {
        name: "metrics",
        args: &[
            opt("--addr", "HOST:PORT", Text).required(),
            opt("--watch", "N", Count),
            switch("--prom"),
        ],
        rules: &[Rule::Excludes(
            "--prom",
            "--watch",
            "--prom is a one-shot scrape; --watch prints native-format deltas",
        )],
        build: build! { Metrics { addr, watch, prom } },
        ..BLANK
    },
    Spec {
        name: "trace",
        args: &[
            opt("--addr", "HOST:PORT", Text).required(),
            opt("--last", "N", Count),
            opt("--conn", "ID", Id),
        ],
        build: build! { Trace { addr, last, conn } },
        ..BLANK
    },
    Spec {
        name: "log append",
        args: &[
            pos("dir", Text),
            pos("trace.csv", Text),
            opt("--track", "N", Id).required(),
            choice("--algorithm", &["none", "bqs", "fbqs"]).or("none"),
            opt("--tolerance", "M", Positive).or("10"),
        ],
        build: build! { LogAppend { dir, input, track, algorithm, tolerance } },
        ..BLANK
    },
    Spec {
        name: "log compact",
        args: &[pos("dir", Text), repeat("--drop", "TRACK", Id)],
        build: build! { LogCompact { dir, drop } },
        ..BLANK
    },
    Spec {
        name: "log verify",
        args: &[pos("dir", Text)],
        build: build! { LogVerify { dir } },
        ..BLANK
    },
    Spec {
        name: "analyze",
        args: &[
            opt("ROOT", "ROOT", Text),
            switch("--deny"),
            repeat("--lint", "ID", Text),
        ],
        build: build! { Analyze { root, deny, lints } },
        ..BLANK
    },
    Spec {
        name: "info",
        build: |_| Ok(Command::Info),
        ..BLANK
    },
    Spec {
        name: "help",
        aliases: &["--help", "-h"],
        ..BLANK
    },
];

/// A checked argument, typed by its domain.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// An optional argument that was not given.
    Absent,
    Text(String),
    Int(u64),
    Real(f64),
    Switch(bool),
    Bbox([f64; 4]),
    Span([f64; 2]),
    List(Vec<Value>),
}

/// Conversion from a checked [`Value`] into a `Command` field; `None`
/// when the row's domain and the builder's field type disagree.
trait FromValue: Sized {
    fn from_value(value: Value) -> Option<Self>;
}

macro_rules! from_value {
    ($($ty:ty => $variant:ident),*) => {$(
        impl FromValue for $ty {
            fn from_value(value: Value) -> Option<Self> {
                match value {
                    Value::$variant(x) => Some(x),
                    _ => None,
                }
            }
        }
    )*};
}

from_value!(String => Text, u64 => Int, f64 => Real, bool => Switch, [f64; 4] => Bbox, [f64; 2] => Span);

impl FromValue for usize {
    fn from_value(value: Value) -> Option<Self> {
        u64::from_value(value).and_then(|n| usize::try_from(n).ok())
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::Absent => Some(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::List(items) => items.into_iter().map(T::from_value).collect(),
            _ => None,
        }
    }
}

/// A row's checked values, handed to its builder in row order.
struct Values(std::vec::IntoIter<Value>);

impl Values {
    fn take<T: FromValue>(&mut self) -> Result<T, String> {
        self.0
            .next()
            .and_then(T::from_value)
            .ok_or_else(|| "internal: a command row and its builder disagree".to_string())
    }
}

impl Domain {
    /// The accepted words, for the enumerated domains.
    fn choices(self) -> Option<Vec<&'static str>> {
        match self {
            OneOf(set) => Some(set.to_vec()),
            Experiment => Some(experiments::names().collect()),
            _ => None,
        }
    }

    /// Parses and checks one raw value of argument `label` of command
    /// `cmd`. `zero_ok` lifts the ≥ 1 check of `CountOrZeroWith`.
    fn read(self, cmd: &str, label: &str, raw: &str, zero_ok: bool) -> Result<Value, String> {
        let number = |s: &str| -> Result<f64, String> {
            s.trim().parse().map_err(|e| format!("bad {label}: {e}"))
        };
        let numbers = |s: &str| -> Result<Vec<f64>, String> { s.split(',').map(number).collect() };
        let named = label.trim_start_matches('-');
        match self {
            Text => Ok(Value::Text(raw.to_string())),
            OneOf(_) | Experiment => {
                let words = self.choices().unwrap_or_default();
                if !words.contains(&raw) {
                    let words = words.join(" ");
                    return Err(format!("unknown {label} {raw:?}; expected one of {words}"));
                }
                Ok(Value::Text(raw.to_string()))
            }
            Id | Count | CountOrZeroWith(_) => {
                let n: u64 = raw.parse().map_err(|e| format!("bad {label}: {e}"))?;
                if n == 0 && self != Id && !zero_ok {
                    return Err(format!("{cmd} needs {label} ≥ 1, got 0"));
                }
                Ok(Value::Int(n))
            }
            Real => number(raw).map(Value::Real),
            Positive => match number(raw)? {
                x if x.is_finite() && x > 0.0 => Ok(Value::Real(x)),
                x => Err(format!("{named} must be > 0, got {x}")),
            },
            NonNegative => match number(raw)? {
                x if x.is_finite() && x >= 0.0 => Ok(Value::Real(x)),
                x => Err(format!("{named} must be ≥ 0, got {x}")),
            },
            Bbox => match numbers(raw)?[..] {
                [x0, y0, x1, y1] => Ok(Value::Bbox([x0, y0, x1, y1])),
                _ => Err(format!("{label} needs exactly x0,y0,x1,y1")),
            },
            Span if raw == "all" => Ok(Value::Span([f64::NEG_INFINITY, f64::INFINITY])),
            Span => match numbers(raw)?[..] {
                [from, to] => Ok(Value::Span([from, to])),
                _ => Err(format!("{label} needs FROM,TO or \"all\"")),
            },
        }
    }
}

impl Spec {
    /// Parses the words after the command name. Value checks run before
    /// presence checks, so a bad value is reported as such even when a
    /// required argument is missing too.
    fn parse(&self, argv: &[String]) -> Result<Command, String> {
        let mut given: Vec<Vec<&str>> = vec![Vec::new(); self.args.len()];
        let mut loose: Vec<&str> = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let flag = self.args.iter().position(|a| a.is_flag() && a.name == word);
            match flag {
                Some(i) if self.args[i].kind == Kind::Switch => given[i].push(""),
                Some(i) => given[i].push(
                    words
                        .next()
                        .ok_or_else(|| format!("{word} requires a value"))?,
                ),
                None if word.starts_with('-') => {
                    return Err(format!("unexpected argument: {word}"))
                }
                None => loose.push(word),
            }
        }
        let mut loose = loose.into_iter();
        for (arg, raws) in self.args.iter().zip(&mut given) {
            match arg.kind {
                _ if arg.is_flag() => {}
                Kind::Repeat => raws.extend(loose.by_ref()),
                _ => raws.extend(loose.next()),
            }
        }
        if let Some(extra) = loose.next() {
            return Err(format!("unexpected argument: {extra}"));
        }
        let is_given = |name: &str| {
            let mut args = self.args.iter().zip(&given);
            args.any(|(a, raws)| a.name == name && !raws.is_empty())
        };

        let mut values = Vec::with_capacity(self.args.len());
        for (arg, raws) in self.args.iter().zip(&given) {
            let zero_ok = matches!(arg.domain, CountOrZeroWith(with) if is_given(with));
            let read = |raw: &str| arg.domain.read(self.name, arg.name, raw, zero_ok);
            values.push(match (arg.kind, raws.last()) {
                (Kind::Switch, _) => Value::Switch(!raws.is_empty()),
                (Kind::Repeat, _) => {
                    Value::List(raws.iter().map(|r| read(r)).collect::<Result<_, _>>()?)
                }
                (_, Some(raw)) => read(raw)?,
                (Kind::Default(raw), None) => read(raw)?,
                (_, None) => Value::Absent,
            });
        }
        let mut args = self.args.iter().zip(&given);
        if let Some((arg, _)) = args.find(|(a, raws)| a.kind == Kind::Required && raws.is_empty()) {
            return Err(format!("{} needs {}", self.name, arg.usage()));
        }
        for rule in self.rules {
            match *rule {
                Rule::Needs(a, b, why) if is_given(a) && !is_given(b) => {
                    return Err(format!("{a} needs {b} ({why})"));
                }
                Rule::Excludes(a, b, why) if is_given(a) && is_given(b) => {
                    return Err(format!("{a} and {b} are mutually exclusive ({why})"));
                }
                _ => {}
            }
        }
        (self.build)(&mut Values(values.into_iter()))
    }
}

/// The synopsis `bqs help` prints, rendered from the command table.
pub fn usage() -> String {
    const WIDTH: usize = 80;
    let mut out = String::from("bqs — Bounded Quadrant System trajectory compression\n\nUSAGE:\n");
    for spec in COMMANDS {
        let mut line = format!("  bqs {}", spec.name);
        let indent = " ".repeat(line.len());
        let mut words: Vec<String> = spec.args.iter().map(Arg::usage).collect();
        if !spec.aliases.is_empty() {
            words.push(format!("(alias: {})", spec.aliases.join(", ")));
        }
        for word in words {
            if line.len() + 1 + word.len() > WIDTH && line.len() > indent.len() {
                out.push_str(&line);
                out.push('\n');
                line.clone_from(&indent);
            }
            line.push(' ');
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
        if !spec.note.is_empty() {
            out.push_str(&format!("{indent} {}\n", spec.note));
        }
    }
    out
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(first) = argv.first() else {
        return Ok(Command::Help);
    };
    // A group word (`log`) takes its subcommand into the name.
    let group = COMMANDS.iter().any(|s| {
        s.name
            .strip_prefix(first.as_str())
            .is_some_and(|r| r.starts_with(' '))
    });
    let words = if group { argv.len().min(2) } else { 1 };
    let name = argv[..words].join(" ");
    let spec = COMMANDS
        .iter()
        .find(|s| s.name == name || s.aliases.contains(&name.as_str()))
        .ok_or_else(|| format!("unknown command: {name}\n\n{}", usage()))?;
    spec.parse(&argv[words..])
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
        assert!(parse(&args("compress fbqs in.csv extra.csv")).is_err());
    }

    #[test]
    fn verify_requires_tolerance() {
        assert_eq!(
            parse(&args("verify a.csv b.csv")).unwrap_err(),
            "verify needs --tolerance M"
        );
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
        let synopsis: String = usage()
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
        // nonsense run; every counted flag of every command fails the
        // same way (`compress --buffer 0` used to keep every point).
        let mut checked = 0;
        for spec in COMMANDS {
            for flag in spec.args {
                if matches!(flag.domain, Count | CountOrZeroWith(_)) {
                    let line = format!("{} {} 0", spec.name, flag.name);
                    let err = parse(&args(&line)).unwrap_err();
                    assert_eq!(err, format!("{} needs {} ≥ 1, got 0", spec.name, flag.name));
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 14, "counted flags in the table");
        assert_eq!(
            parse(&args("fleet --sessions 0")).unwrap_err(),
            "fleet needs --sessions ≥ 1, got 0"
        );
    }

    #[test]
    fn every_tolerance_must_be_finite_and_positive() {
        // `verify` once accepted any tolerance, so `--tolerance inf`
        // passed every trace; all five commands share one check now.
        let lines = [
            "compress fbqs in.csv",
            "verify a.csv b.csv",
            "fleet",
            "serve --spill /tmp/t",
            "log append /tmp/log t.csv --track 1",
        ];
        for line in lines {
            for bad in ["inf", "nan", "0", "-1"] {
                let err = parse(&args(&format!("{line} --tolerance {bad}"))).unwrap_err();
                let shown = bad.parse::<f64>().unwrap();
                assert_eq!(err, format!("tolerance must be > 0, got {shown}"), "{line}");
            }
            assert!(
                parse(&args(&format!("{line} --tolerance 0.5"))).is_ok(),
                "{line}"
            );
        }
        let with_tolerance = COMMANDS
            .iter()
            .filter(|s| s.args.iter().any(|a| a.name == "--tolerance"))
            .count();
        assert_eq!(with_tolerance, lines.len());
    }

    #[test]
    fn no_flag_leaks_into_a_command_whose_row_lacks_it() {
        let every: std::collections::BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|s| s.args.iter().filter(|a| a.is_flag()).map(|a| a.name))
            .collect();
        for spec in COMMANDS {
            for flag in every
                .iter()
                .filter(|f| spec.args.iter().all(|a| a.name != **f))
            {
                let line = format!("{} {flag} 1", spec.name);
                assert_eq!(
                    parse(&args(&line)).unwrap_err(),
                    format!("unexpected argument: {flag}"),
                    "{line}"
                );
            }
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
                at: None,
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
                at: None,
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
    fn query_at_needs_a_track_and_no_range() {
        assert_eq!(
            parse(&args("query /tmp/log --track 3 --at 42")).unwrap(),
            Command::Query {
                dir: "/tmp/log".into(),
                track: Some(3),
                from: None,
                to: None,
                bbox: None,
                at: Some(42.0),
                out: None
            }
        );
        let err = parse(&args("query /tmp/log --at 5")).unwrap_err();
        assert!(err.starts_with("--at needs --track"), "{err}");
        for range in ["--from 1", "--to 1", "--bbox 0,0,1,1"] {
            let err =
                parse(&args(&format!("query /tmp/log --track 3 --at 5 {range}"))).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{err}");
        }
        // `bqs log query` folded into `bqs query`.
        let err = parse(&args("log query /tmp/log --track 3 --at 42")).unwrap_err();
        assert!(err.starts_with("unknown command: log query"), "{err}");
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
        // The benchmark's server command line.
        assert_eq!(
            parse(&args(
                "serve --addr 127.0.0.1:0 --workers 2 --spill /b/tree --port-file /b/addr \
                 --evict-idle 20 --lateness 5"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                spill: "/b/tree".into(),
                tolerance: 10.0,
                io_threads: 4,
                max_connections: 4096,
                port_file: Some("/b/addr".into()),
                metrics_interval: None,
                lateness: 5.0,
                alerts: vec![],
                prom_addr: None,
                evict_idle: 20.0
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
