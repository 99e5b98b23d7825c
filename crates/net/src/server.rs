//! The serving runtime: an acceptor handing non-blocking sockets to a
//! small fixed pool of I/O threads, each multiplexing its share of the
//! connections via readiness polling and feeding one shared
//! [`ParallelFleet`] through the frame-grained submission path.
//!
//! ```text
//!                      ┌─ io thread 0: poller ── conns 0,2,4… ─┐
//!  clients ──► acceptor┼─ io thread 1: poller ── conns 1,3,5… ─┼─► Mutex<ParallelFleet>
//!   (TCP)    round-robin└─ …           (epoll/kqueue/fallback) ─┘        │
//!                                                                        ├─► worker shards ─► spill logs
//!                                                                        └─ snapshot() ─► QueryEngine (hot + cold)
//! ```
//!
//! * **Multiplexed ingest** — `--io-threads N` (default 4, `N ≥ 1`)
//!   I/O threads each run a level-triggered readiness loop
//!   (`polling::Poller`: epoll on Linux, kqueue on macOS, a portable
//!   round-robin fallback anywhere else). This is the only serving
//!   path: `run` → `run_pool` → `io_loop` → `service_conn` →
//!   `handle_payload`, with [`decode_frame`] the one server-side frame
//!   parser. An `Append` frame is decoded straight into a columnar
//!   batch ([`decode_append_columns`]) — timestamps validated in one
//!   contiguous pass — and submitted as a whole run in **one** channel
//!   send ([`ParallelFleet::submit_run`]): no per-point hashing, no
//!   per-point dispatch, no thread per connection.
//! * **Backpressure end to end** — an I/O thread submits while holding
//!   the fleet lock; when a worker shard's bounded channel is full the
//!   send blocks, the I/O thread stops reading *all* its sockets, the
//!   kernel's TCP windows fill, and remote `append`s block. Per
//!   connection, replies that outpace the client gate further reads
//!   (`OUT_HIGH_WATERMARK`), so no unbounded queue exists anywhere on
//!   the path.
//! * **Bounded connection table** — beyond
//!   [`ServerConfig::max_connections`] an accepted socket receives one
//!   typed [`ErrorCode::OverCapacity`] error frame and is closed
//!   gracefully, instead of hanging in a backlog.
//! * **Queries are hot + cold** — `Query` takes a consistent
//!   [`ParallelFleet::snapshot`] (every point submitted before the
//!   request is visible) and merges it with the spill tree through the
//!   server's one [`QueryEngine`], opened at bind and caught up by the
//!   bytes spilled since the previous query; a mid-run answer for a
//!   closed track is exactly the answer the finished tree will give.
//! * **Graceful shutdown** — `Shutdown` stops the acceptor and starts
//!   the drain: in-flight frames complete (mid-frame connections get
//!   a 5 s `DRAIN_GRACE`), idle connections close, the fleet joins, every
//!   session spills, the tree `MANIFEST` is written — leaving a
//!   directory `bqs log verify` accepts.
//!
//! The runtime stays `std::net` + threads + a vendored poller shim: no
//! async runtime. What lands on disk is defined by the serial stack
//! below; `tests/net_equivalence.rs` proves network runs byte-identical
//! to in-process runs at any (connections, workers, io-threads).

use crate::error::NetError;
use crate::wire::{
    decode_append_columns, decode_frame, frame_to_vec, write_frame, ErrorCode, QueryReport,
    QuerySpec, Reply, Request, ShardStat, StatsReport, WireError, HEADER_BYTES, PROTOCOL_VERSION,
    TAG_APPEND, TAG_FLUSH, TAG_QUERY, TAG_STATS,
};
use bqs_core::fleet::{
    worker_of, FleetConfig, FleetMetrics, FleetReorder, FleetSink, ParallelConfig, ParallelFleet,
    SessionReport, TooLate, TrackId,
};
use bqs_core::stream::DecisionStats;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_obs::{
    elapsed_us, Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, TraceEventKind,
};
use bqs_tlog::codec::{check_time, check_times, CodecError};
use bqs_tlog::{
    prepare_spill_logs, LogConfig, Manifest, QueryEngine, SpillMetrics, SpillSink, TimeRange,
    TrajectoryLog,
};
use polling::{source_of, Event, Poller};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a connection may keep a frame in flight after shutdown
/// before the server stops waiting for it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Back-off between retries of a failing `accept` (the acceptor and the
/// Prometheus responder), and the write timeout on an over-capacity
/// rejection frame.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// An I/O thread's poller timeout: the latency bound on noticing the
/// shutdown flag when no wake byte arrives. Admission and shutdown are
/// normally signalled instantly through each thread's wake pipe.
const POOL_TICK: Duration = Duration::from_millis(25);

/// Stack buffer for one `read` call on a connection.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes one connection may pull off its socket per poll tick —
/// fairness between connections sharing an I/O thread. Level-triggered
/// polling re-reports the socket until it is drained.
const MAX_TICK_BYTES: usize = 256 * 1024;

/// Once this many reply bytes are queued unsent, the connection stops
/// being read until the client drains them — bounding server-side
/// buffering for a client that pipelines requests but never reads.
const OUT_HIGH_WATERMARK: usize = 1 << 20;

/// The io-thread poller key reserved for the wake pipe.
const WAKE_KEY: usize = usize::MAX;

/// How often the subscriber pump thread delivers queued kept points.
const SUB_PUMP_TICK: Duration = Duration::from_millis(25);

/// Most points a subscriber may have queued undelivered before the
/// server declares it too slow and disconnects it — subscribers must
/// never be able to stall ingest workers.
const SUB_QUEUE_CAP: usize = 1 << 16;

/// Most points coalesced into one pushed `SubPoints` frame.
const SUB_BATCH_POINTS: usize = 512;

/// How long the pump may block writing to one subscriber's socket
/// before that subscriber is declared dead.
const SUB_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Events the server's flight recorder keeps before it overwrites the
/// oldest.
const TRACE_CAPACITY: usize = 65_536;

/// Default I/O threads multiplexing the connections.
pub const DEFAULT_IO_THREADS: usize = 4;

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, `host:port` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Fleet worker shards; 1 spills a flat log, more a `shard-<k>/`
    /// tree.
    pub workers: usize,
    /// Directory the fleet spills closed sessions into. Must be empty
    /// or absent (the same rule as `bqs fleet --spill`).
    pub spill: PathBuf,
    /// Compression tolerance in metres.
    pub tolerance: f64,
    /// Bounded-lateness window in seconds. `0` (the default) keeps the
    /// strict in-order ingest path: any backwards timestamp is a
    /// `BadRequest`. Positive, each track's points pass through a
    /// reorder buffer that admits anything within `lateness` seconds
    /// behind the track's watermark (older is a typed `TooLate`) and
    /// releases points to the compressor in timestamp order.
    pub lateness: f64,
    /// I/O threads multiplexing the connections
    /// ([`DEFAULT_IO_THREADS`]); must be ≥ 1.
    pub io_threads: usize,
    /// Connections served concurrently at most
    /// ([`DEFAULT_MAX_CONNECTIONS`]); beyond it, accepts are answered
    /// with a typed over-capacity error frame and closed.
    pub max_connections: usize,
    /// Force the portable fallback poller backend even where the OS
    /// offers epoll/kqueue — the knob tests use to cover the
    /// WouldBlock round-robin path on any host.
    pub fallback_poller: bool,
    /// Address for the std-only HTTP/1.1 Prometheus responder
    /// (`GET /metrics`); `None` (the default) serves no HTTP.
    pub prom_addr: Option<String>,
    /// Stream-time seconds a session may idle before the server evicts
    /// it (finalising it through the normal spill path). `0` (the
    /// default) never evicts; sessions close only at shutdown.
    pub evict_idle: f64,
}

impl ServerConfig {
    /// A config with the workspace defaults (10 m tolerance,
    /// [`DEFAULT_IO_THREADS`] I/O threads,
    /// [`DEFAULT_MAX_CONNECTIONS`] connections) for the given bind
    /// address, worker count and spill dir.
    pub fn new(addr: impl Into<String>, workers: usize, spill: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            workers,
            spill: spill.into(),
            tolerance: 10.0,
            lateness: 0.0,
            io_threads: DEFAULT_IO_THREADS,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            fallback_poller: false,
            prom_addr: None,
            evict_idle: 0.0,
        }
    }
}

/// What a completed serve run accomplished, returned by [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections refused with an over-capacity error frame.
    pub rejected_connections: u64,
    /// Frames processed across all connections.
    pub frames: u64,
    /// Points accepted into the fleet.
    pub appended_points: u64,
    /// Points accepted behind their track's watermark (reorder buffer).
    pub late_points: u64,
    /// Points accepted through the durable backfill path.
    pub backfill_points: u64,
    /// Points refused because they fell beyond the lateness window.
    pub too_late_points: u64,
    /// Sessions made durable at shutdown (plus earlier evictions).
    pub spilled_sessions: usize,
    /// Compressed points in the spill tree.
    pub spilled_points: u64,
    /// Bytes the spilled records occupy on disk.
    pub spilled_bytes: u64,
    /// Decision statistics merged across all worker engines.
    pub stats: DecisionStats,
    /// Shards named in the written `MANIFEST` (0 for a flat log).
    pub manifest_shards: usize,
}

/// The ingest state behind the connection handlers: the fleet plus the
/// per-track time watermarks that guard it.
struct FleetState {
    fleet: ParallelFleet<SubTeeSink>,
    /// Highest accepted timestamp per track. The wire decoder cannot
    /// enforce time order (only the encoder does), so the server
    /// re-validates every batch against this watermark — a crafted
    /// frame with backwards or non-finite timestamps must never reach
    /// the fleet, where it would poison the track's spill at close.
    /// Unused when a lateness window is configured (the reorder
    /// buffer's per-track watermark takes over).
    last_t: HashMap<u64, f64>,
    /// The per-track reorder buffers; `Some` iff `--lateness > 0`.
    reorder: Option<FleetReorder>,
    /// Backfill batches accepted over the wire, buffered until
    /// finalization writes them as flagged backfill records. Each inner
    /// vec is one accepted batch → one durable record.
    backfill: HashMap<TrackId, Vec<Vec<TimedPoint>>>,
    /// Highest timestamp accepted on any track — the stream clock the
    /// idle-eviction tick measures staleness against.
    max_t: f64,
}

/// The fleet sink behind every worker shard: the durable spill sink,
/// with each kept point teed into the subscriber hub first. When no
/// subscriber is connected the tee costs one relaxed atomic load.
struct SubTeeSink {
    inner: SpillSink<TrajectoryLog>,
    hub: Arc<SubHub>,
}

impl SubTeeSink {
    fn finish(self) -> Result<Vec<bqs_tlog::SpillReport>, Box<bqs_tlog::SpillFailure>> {
        self.inner.finish()
    }
}

impl FleetSink for SubTeeSink {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.hub.publish(track, point);
        self.inner.accept(track, point);
    }

    fn session_closed(&mut self, report: &SessionReport) {
        self.inner.session_closed(report);
    }

    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        self.inner.live_buffered()
    }
}

type FleetSlot = Mutex<Option<FleetState>>;

/// One live subscription, owned by the hub after the connection hands
/// off: the socket, the filters, and the batches not yet delivered.
struct Sub {
    id: u64,
    stream: TcpStream,
    track: Option<u64>,
    /// Normalized `[x_min, y_min, x_max, y_max]`.
    bbox: Option<[f64; 4]>,
    queue: Vec<(u64, Vec<TimedPoint>)>,
    queued_points: usize,
    /// Overflowed its queue cap or failed a write; reaped by the pump.
    dead: bool,
}

/// The subscriber hub: ingest workers publish every kept point here
/// (one relaxed load when nobody subscribes), a single pump thread
/// delivers queued batches as `SubPoints` frames. Only one pump runs at
/// a time — the dedicated thread while serving, then `finish` once at
/// finalization — so per-subscriber frame order is never interleaved.
struct SubHub {
    subs: Mutex<Vec<Sub>>,
    /// Live subscription count, readable without the lock.
    active: AtomicUsize,
    next_id: AtomicU64,
    subscribers_gauge: Gauge,
    queue_gauge: Gauge,
    bytes_out: Counter,
}

impl SubHub {
    fn new(registry: &MetricsRegistry) -> SubHub {
        SubHub {
            subs: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            subscribers_gauge: registry.gauge("net_subscribers_live"),
            queue_gauge: registry.gauge("net_sub_queue_points"),
            bytes_out: registry.counter("net_bytes_out_total"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Sub>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn update_gauges(&self, subs: &[Sub]) {
        self.active.store(subs.len(), Ordering::SeqCst); // ordering: seqcst count publish, ordered with the subs-lock mutation it mirrors
        self.subscribers_gauge.set(subs.len() as u64);
        self.queue_gauge
            .set(subs.iter().map(|s| s.queued_points as u64).sum());
    }

    /// Registers a handed-off connection as a subscriber.
    fn add(&self, stream: TcpStream, track: Option<u64>, bbox: Option<[f64; 4]>) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(SUB_WRITE_TIMEOUT));
        let bbox = bbox.map(|[x0, y0, x1, y1]| [x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)]);
        let mut subs = self.lock();
        subs.push(Sub {
            id: self.next_id.fetch_add(1, Ordering::Relaxed), // ordering: relaxed unique-id ticket; only atomicity matters
            stream,
            track,
            bbox,
            queue: Vec::new(),
            queued_points: 0,
            dead: false,
        });
        self.update_gauges(&subs);
    }

    /// Queues one kept point for every matching subscriber. Called from
    /// ingest workers; never blocks on a socket.
    fn publish(&self, track: TrackId, point: TimedPoint) {
        // ordering: relaxed empty check; missing a brand-new sub for one point is allowed
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut subs = self.lock();
        let mut queued_total = 0u64;
        for sub in subs.iter_mut() {
            if sub.dead || sub.track.is_some_and(|t| t != track) {
                continue;
            }
            if let Some([x0, y0, x1, y1]) = sub.bbox {
                let p = point.pos;
                if !(p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1) {
                    continue;
                }
            }
            if sub.queued_points >= SUB_QUEUE_CAP {
                // Too slow to keep: drop the subscriber, never the
                // ingest throughput.
                sub.dead = true;
                sub.queue.clear();
                sub.queued_points = 0;
                continue;
            }
            match sub.queue.last_mut() {
                Some((t, pts)) if *t == track && pts.len() < SUB_BATCH_POINTS => pts.push(point),
                _ => sub.queue.push((track, vec![point])),
            }
            sub.queued_points += 1;
            queued_total += sub.queued_points as u64;
        }
        self.queue_gauge.set(queued_total);
    }

    /// Delivers every queued batch and reaps dead subscribers. The
    /// sockets are written *outside* the lock, so a slow subscriber
    /// stalls only this pump, never a publisher.
    fn pump(&self) {
        // ordering: relaxed empty check; a stale zero only delays delivery one pump tick
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        // (subscriber id, its socket, the queued (track, points) batches).
        type Drained = (u64, TcpStream, Vec<(u64, Vec<TimedPoint>)>);
        let mut work: Vec<Drained> = Vec::new();
        {
            let mut subs = self.lock();
            for sub in subs.iter_mut() {
                if sub.dead || sub.queue.is_empty() {
                    continue;
                }
                match sub.stream.try_clone() {
                    Ok(stream) => {
                        sub.queued_points = 0;
                        work.push((sub.id, stream, std::mem::take(&mut sub.queue)));
                    }
                    Err(_) => sub.dead = true,
                }
            }
        }
        let mut failed: Vec<u64> = Vec::new();
        for (id, mut stream, batches) in work {
            for (track, points) in batches {
                let frame_ok =
                    Reply::SubPoints { track, points }
                        .encode()
                        .ok()
                        .and_then(|payload| {
                            write_frame(&mut stream, &payload).ok()?;
                            Some((HEADER_BYTES + payload.len() + 4) as u64)
                        });
                match frame_ok {
                    Some(bytes) => self.bytes_out.add(bytes),
                    None => {
                        failed.push(id);
                        break;
                    }
                }
            }
        }
        let mut subs = self.lock();
        subs.retain(|s| !s.dead && !failed.contains(&s.id));
        self.update_gauges(&subs);
    }

    /// Final drain at shutdown: deliver what remains, tell every
    /// subscriber the stream has ended, close the sockets.
    fn finish(&self) {
        self.pump();
        let mut subs = self.lock();
        if let Ok(payload) = Reply::SubEnd.encode() {
            for sub in subs.iter_mut() {
                if !sub.dead && write_frame(&mut sub.stream, &payload).is_ok() {
                    self.bytes_out
                        .add((HEADER_BYTES + payload.len() + 4) as u64);
                }
            }
        }
        subs.clear();
        self.update_gauges(&subs);
    }
}

/// The request classes the server keys its per-type metrics on.
/// Derived from a frame's tag byte alone, before decoding, so even a
/// frame whose body fails to decode is attributed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Append,
    Query,
    Stats,
    Flush,
    /// Hello, Shutdown, Metrics and unrecognised tags: rare,
    /// non-latency-critical traffic, pooled into one class.
    Other,
}

impl ReqKind {
    /// Classifies a frame payload by its leading tag byte.
    fn of(payload: &[u8]) -> ReqKind {
        match payload.first() {
            Some(&TAG_APPEND) => ReqKind::Append,
            Some(&TAG_QUERY) => ReqKind::Query,
            Some(&TAG_STATS) => ReqKind::Stats,
            Some(&TAG_FLUSH) => ReqKind::Flush,
            _ => ReqKind::Other,
        }
    }
}

/// Per-request-type metric handles: one counter and one latency
/// histogram per [`ReqKind`].
struct PerKind<T> {
    append: T,
    query: T,
    stats: T,
    flush: T,
    other: T,
}

impl<T> PerKind<T> {
    fn get(&self, kind: ReqKind) -> &T {
        match kind {
            ReqKind::Append => &self.append,
            ReqKind::Query => &self.query,
            ReqKind::Stats => &self.stats,
            ReqKind::Flush => &self.flush,
            ReqKind::Other => &self.other,
        }
    }
}

/// Every server-layer metric handle, registered once at bind time and
/// then touched lock-free. Catalogued in `docs/observability.md`.
struct ServerMetrics {
    registry: MetricsRegistry,
    /// Payload + framing bytes read off client sockets.
    bytes_in: Counter,
    /// Reply bytes written back (error frames included).
    bytes_out: Counter,
    /// Frames served, total and per request type.
    frames: Counter,
    frames_by: PerKind<Counter>,
    /// Request latency in microseconds, frame decoded → reply flushed
    /// to the socket (worst-case honest: a reply sharing a flush with
    /// slower traffic is charged the whole wait).
    request_us: PerKind<Histogram>,
    /// Points accepted behind their track's watermark.
    late_accepted: Counter,
    /// Points accepted through the durable backfill path.
    backfilled: Counter,
    /// Points refused beyond the lateness window.
    too_late: Counter,
    /// Points currently parked in the reorder buffers.
    reorder_depth: Gauge,
    conns_admitted: Counter,
    conns_rejected: Counter,
    conns_closed: Counter,
    /// Connections currently registered (peak tracked automatically).
    conns_live: Gauge,
    /// One io-pool thread's busy time per poll tick, microseconds.
    io_tick_us: Histogram,
    /// Ready events delivered per poll tick (wake pipe included).
    io_ready_events: Histogram,
    /// Query service time, snapshot → merged reply, microseconds.
    query_us: Histogram,
    query_shards_pruned: Counter,
    query_shards_opened: Counter,
    query_refresh_bytes: Counter,
    query_reopens: Counter,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> ServerMetrics {
        let c = |name: &str| registry.counter(name);
        let h = |name: &str| registry.histogram(name);
        ServerMetrics {
            registry: registry.clone(),
            bytes_in: c("net_bytes_in_total"),
            bytes_out: c("net_bytes_out_total"),
            frames: c("net_frames_total"),
            frames_by: PerKind {
                append: c("net_frames_append_total"),
                query: c("net_frames_query_total"),
                stats: c("net_frames_stats_total"),
                flush: c("net_frames_flush_total"),
                other: c("net_frames_other_total"),
            },
            request_us: PerKind {
                append: h("net_request_us_append"),
                query: h("net_request_us_query"),
                stats: h("net_request_us_stats"),
                flush: h("net_request_us_flush"),
                other: h("net_request_us_other"),
            },
            late_accepted: c("net_late_accepted_points_total"),
            backfilled: c("net_backfilled_points_total"),
            too_late: c("net_too_late_points_total"),
            reorder_depth: registry.gauge("net_reorder_depth"),
            conns_admitted: c("net_connections_admitted_total"),
            conns_rejected: c("net_connections_rejected_total"),
            conns_closed: c("net_connections_closed_total"),
            conns_live: registry.gauge("net_connections_live"),
            io_tick_us: h("net_io_tick_us"),
            io_ready_events: h("net_io_ready_events"),
            query_us: h("tlog_query_us"),
            query_shards_pruned: c("tlog_query_shards_pruned_total"),
            query_shards_opened: c("tlog_query_shards_opened_total"),
            query_refresh_bytes: c("tlog_query_refresh_bytes_total"),
            query_reopens: c("tlog_query_reopens_total"),
        }
    }

    /// Counts one served frame of `kind` (total + per type).
    fn on_frame(&self, kind: ReqKind) {
        self.frames.inc();
        self.frames_by.get(kind).inc();
    }
}

struct Shared {
    fleet: FleetSlot,
    /// The read side: one engine over the spill tree for the server's
    /// whole life, caught up by appended bytes at every query. Locked
    /// only to prepare a query (never while `fleet` is held); queries
    /// run unlocked.
    engine: Mutex<QueryEngine>,
    hub: Arc<SubHub>,
    spill: PathBuf,
    workers: usize,
    io_threads: usize,
    max_connections: usize,
    fallback_poller: bool,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Connections currently registered: the admission gate. The
    /// `net_connections_live` gauge mirrors it for readers.
    active: AtomicUsize,
    /// Points accepted into the fleet. Its registry cousin
    /// `fleet_submitted_points_total` counts at the fleet boundary,
    /// behind the reorder buffers.
    appended_points: AtomicU64,
    /// Stops the subscriber pump thread at finalization.
    pump_stop: AtomicBool,
    /// When the server was bound (drives the `Stats` uptime gauge).
    started: Instant,
    metrics: ServerMetrics,
    trace: FlightRecorder,
    /// Ticket dispenser for per-connection trace ids; ids start at 1
    /// (0 marks events not tied to any one connection).
    next_conn_id: AtomicU64,
    /// Stream-time idle-eviction threshold; 0 disables the tick.
    evict_idle: f64,
    /// Where the Prometheus HTTP responder is bound, when it runs
    /// (finalize connects here once to pop it out of `accept`).
    prom_addr: Option<SocketAddr>,
}

impl Shared {
    /// Locks the fleet slot; a poisoned lock (a handler died mid-call)
    /// still yields the fleet — worst case a worker shard is dead,
    /// which `join` reports — instead of panicking every later caller.
    fn lock_fleet(&self) -> std::sync::MutexGuard<'_, Option<FleetState>> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the query engine; a poisoned lock still yields it — every
    /// query refreshes the engine from disk before answering.
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, QueryEngine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an accepted connection: the admission gate, the serve
    /// totals and the live gauge (whose peak is the high-water mark).
    /// Returns the connection's trace id.
    fn conn_admitted(&self) -> u64 {
        let live = self.active.fetch_add(1, Ordering::SeqCst) + 1; // ordering: seqcst admission count pairs with the acceptor capacity check
        self.metrics.conns_admitted.inc();
        // `add`/`sub` commute, so the acceptor and the I/O threads can
        // never leave the gauge at a stale value (a `set(live)` could).
        self.metrics.conns_live.add(1);
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed); // ordering: relaxed unique-id ticket; only atomicity matters
        self.trace.record(TraceEventKind::Accept, id, live as u64);
        id
    }

    /// Unregisters a connection (served to completion, or admitted but
    /// dropped before service).
    fn conn_closed(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst); // ordering: seqcst release pairs with conn_admitted so capacity checks see it
        self.metrics.conns_closed.inc();
        self.metrics.conns_live.sub(1);
    }

    /// Counts an over-capacity rejection.
    fn conn_rejected(&self) {
        self.metrics.conns_rejected.inc();
        self.trace
            .record(TraceEventKind::Reject, 0, self.max_connections as u64);
    }
}

/// A bound-but-not-yet-running ingest/query server. Construct with
/// [`Server::bind`], read the actual address with
/// [`Server::local_addr`] (useful with port 0), then block in
/// [`Server::run`] until a client sends `Shutdown`.
///
/// # Examples
///
/// ```
/// use bqs_net::{BqsClient, Server, ServerConfig};
/// use bqs_geo::TimedPoint;
///
/// let dir = std::env::temp_dir().join(format!("bqs-net-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let server = Server::bind(ServerConfig::new("127.0.0.1:0", 2, &dir)).unwrap();
/// let addr = server.local_addr();
/// let handle = std::thread::spawn(move || server.run().unwrap());
///
/// let mut client = BqsClient::connect(addr).unwrap();
/// let points: Vec<TimedPoint> =
///     (0..100).map(|i| TimedPoint::new(i as f64 * 9.0, 0.0, i as f64 * 60.0)).collect();
/// client.append(7, &points).unwrap();
/// client.shutdown().unwrap();
///
/// let report = handle.join().unwrap();
/// assert_eq!(report.appended_points, 100);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    /// The Prometheus HTTP responder's listener, bound at `bind` time
    /// so a bad `--prom-addr` fails up front; taken by `run`.
    prom_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Validates the config, prepares the spill layout (flat log for 1
    /// worker, `shard-<k>/` tree above), spawns the fleet workers and
    /// binds the listener. Refuses a non-empty or layout-incompatible
    /// spill directory up front, exactly like `bqs fleet --spill`.
    pub fn bind(config: ServerConfig) -> Result<Server, NetError> {
        for (flag, value) in [
            ("--workers", config.workers),
            ("--max-connections", config.max_connections),
            ("--io-threads", config.io_threads),
        ] {
            if value == 0 {
                return Err(NetError::Config(format!("serve needs {flag} ≥ 1, got 0")));
            }
        }
        if !(config.tolerance.is_finite() && config.tolerance > 0.0) {
            return Err(NetError::Config(format!(
                "tolerance must be > 0, got {}",
                config.tolerance
            )));
        }
        if !(config.lateness.is_finite() && config.lateness >= 0.0) {
            return Err(NetError::Config(format!(
                "lateness must be a finite number of seconds ≥ 0, got {}",
                config.lateness
            )));
        }
        if !(config.evict_idle.is_finite() && config.evict_idle >= 0.0) {
            return Err(NetError::Config(format!(
                "evict-idle must be a finite number of seconds ≥ 0, got {}",
                config.evict_idle
            )));
        }
        // One shared guard + open path with `bqs fleet --spill`: the
        // layout rules and their messages cannot drift between the two
        // writers.
        let mut logs: Vec<Option<TrajectoryLog>> =
            prepare_spill_logs(&config.spill, config.workers, LogConfig::default())?
                .into_iter()
                .map(Some)
                .collect();
        let engine = QueryEngine::open(&config.spill)?;
        let bqs_config = BqsConfig::new(config.tolerance)
            .map_err(|e| NetError::Config(format!("tolerance: {e}")))?;
        // The server always observes itself: one registry and one
        // flight recorder shared by the connection handlers, the fleet
        // and the spill sinks.
        let registry = MetricsRegistry::new();
        let trace = FlightRecorder::with_counters(
            TRACE_CAPACITY,
            registry.counter("trace_events_recorded_total"),
            registry.counter("trace_events_dropped_total"),
        );
        let fleet_metrics = FleetMetrics::new(&registry, config.workers).with_trace(trace.clone());
        let spill_metrics = SpillMetrics::new(&registry).with_trace(trace.clone());
        let hub = Arc::new(SubHub::new(&registry));
        let sink_hub = Arc::clone(&hub);
        let fleet = ParallelFleet::with_metrics(
            ParallelConfig {
                workers: config.workers,
                fleet: FleetConfig {
                    idle_timeout: if config.evict_idle > 0.0 {
                        config.evict_idle
                    } else {
                        FleetConfig::default().idle_timeout
                    },
                },
                ..ParallelConfig::default()
            },
            move || FastBqsCompressor::new(bqs_config),
            |shard| SubTeeSink {
                inner: SpillSink::with_metrics(
                    // bqs-analyze: allow(no-unwrap-in-lib) — invariant: one log per shard
                    logs[shard].take().expect("one log per shard"),
                    Some(spill_metrics.clone()),
                ),
                hub: Arc::clone(&sink_hub),
            },
            Some(fleet_metrics),
        );
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| NetError::io(format!("bind {}", config.addr), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("local_addr", e))?;
        let prom_listener = match &config.prom_addr {
            Some(addr) => Some(
                TcpListener::bind(addr)
                    .map_err(|e| NetError::io(format!("bind prom {addr}"), e))?,
            ),
            None => None,
        };
        let prom_addr = match &prom_listener {
            Some(l) => Some(
                l.local_addr()
                    .map_err(|e| NetError::io("prom local_addr", e))?,
            ),
            None => None,
        };
        Ok(Server {
            listener,
            prom_listener,
            shared: Arc::new(Shared {
                fleet: Mutex::new(Some(FleetState {
                    fleet,
                    last_t: HashMap::new(),
                    reorder: (config.lateness > 0.0).then(|| FleetReorder::new(config.lateness)),
                    backfill: HashMap::new(),
                    max_t: f64::NEG_INFINITY,
                })),
                engine: Mutex::new(engine),
                hub,
                spill: config.spill,
                workers: config.workers,
                io_threads: config.io_threads,
                max_connections: config.max_connections,
                fallback_poller: config.fallback_poller,
                local_addr,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                appended_points: AtomicU64::new(0),
                pump_stop: AtomicBool::new(false),
                started: bqs_obs::now(),
                metrics: ServerMetrics::new(&registry),
                trace,
                next_conn_id: AtomicU64::new(1),
                evict_idle: config.evict_idle,
                prom_addr,
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The Prometheus responder's bound address (resolves port 0);
    /// `None` unless the config set [`ServerConfig::prom_addr`].
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.shared.prom_addr
    }

    /// The registry the server instruments itself into, with its whole
    /// catalog (`docs/observability.md`) registered at bind time. Clone
    /// it to read the live values while [`Server::run`] serves.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics.registry
    }

    /// The flight recorder the server emits trace events into: accept,
    /// frame decode, fleet submit, spill, reply flush, reject and
    /// eviction, in a 65 536-event ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.shared.trace
    }

    /// Serves until a client sends `Shutdown`, then drains connections,
    /// finishes the fleet, spills every session, writes the `MANIFEST`
    /// (multi-worker trees) and reports what happened.
    ///
    /// Transient accept failures (a client resetting mid-handshake, fd
    /// pressure) are retried; only a *persistently* failing listener
    /// (≈10 s of consecutive errors) stops the server — and even then
    /// it drains, spills and reports instead of abandoning the fleet.
    pub fn run(mut self) -> Result<ServeReport, NetError> {
        // The subscriber pump: one thread delivering queued kept points
        // to every subscriber. It is the only live
        // writer to subscriber sockets, so pushed frames never
        // interleave. The same thread drives the idle-eviction tick
        // (once per EVICT_TICK) when `--evict-idle` is set.
        let pump_shared = Arc::clone(&self.shared);
        let pump = std::thread::Builder::new()
            .name("bqs-sub-pump".into())
            .spawn(move || {
                let ticks_per_evict =
                    (EVICT_TICK.as_millis() / SUB_PUMP_TICK.as_millis()).max(1) as u64;
                let mut tick = 0u64;
                // ordering: seqcst stop flag; join() in run() is the real synchronisation
                while !pump_shared.pump_stop.load(Ordering::SeqCst) {
                    pump_shared.hub.pump();
                    tick += 1;
                    if pump_shared.evict_idle > 0.0 && tick.is_multiple_of(ticks_per_evict) {
                        evict_tick(&pump_shared);
                    }
                    std::thread::sleep(SUB_PUMP_TICK);
                }
            })
            .map_err(|e| NetError::io("spawn pump thread", e))?;
        // The Prometheus responder: one thread serving `GET /metrics`
        // over plain HTTP/1.1, one request per connection.
        let prom = match self.prom_listener.take() {
            Some(listener) => {
                let prom_shared = Arc::clone(&self.shared);
                Some(
                    std::thread::Builder::new()
                        .name("bqs-prom".into())
                        .spawn(move || prom_loop(listener, &prom_shared))
                        .map_err(|e| NetError::io("spawn prom thread", e))?,
                )
            }
            None => None,
        };
        self.run_pool(pump, prom)
    }

    /// The accept loop: admit, hand each socket round-robin to an I/O
    /// thread's readiness poller, and on shutdown drain and finalize.
    fn run_pool(
        self,
        pump: std::thread::JoinHandle<()>,
        prom: Option<std::thread::JoinHandle<()>>,
    ) -> Result<ServeReport, NetError> {
        let io_threads = self.shared.io_threads;
        let mut senders: Vec<Sender<(u64, TcpStream)>> = Vec::with_capacity(io_threads);
        let mut wakers: Vec<TcpStream> = Vec::with_capacity(io_threads);
        let mut handles = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let (tx, rx) = std::sync::mpsc::channel::<(u64, TcpStream)>();
            let (wake_tx, wake_rx) = wake_pipe()?;
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bqs-io-{i}"))
                    .spawn(move || io_loop(rx, wake_rx, &shared))
                    .map_err(|e| NetError::io("spawn io thread", e))?,
            );
            senders.push(tx);
            wakers.push(wake_tx);
        }

        const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 100;
        let mut accept_failures = 0u32;
        let mut next = 0usize;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    accept_failures = 0;
                    // ordering: seqcst pairs with the Shutdown request's store
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        // The wake-up connection (or a late client):
                        // not served.
                        drop(stream);
                        break;
                    }
                    // ordering: seqcst capacity check pairs with conn_admitted/conn_closed
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.max_connections {
                        reject_over_capacity(stream, &self.shared);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.shared.conn_admitted();
                    if senders[next].send((id, stream)).is_err() {
                        // The io thread is gone (it never exits before
                        // shutdown unless it panicked): undo and drop.
                        self.shared.conn_closed();
                    } else {
                        wake(&wakers[next]);
                    }
                    next = (next + 1) % io_threads;
                }
                Err(_) if self.shared.shutdown.load(Ordering::SeqCst) => break, // ordering: seqcst pairs with the Shutdown request's store
                Err(_) => {
                    accept_failures += 1;
                    if accept_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                        // The listener is gone for good: stop accepting
                        // but still drain and make everything durable.
                        self.shared.shutdown.store(true, Ordering::SeqCst); // ordering: seqcst so every worker agrees the server is shutting down
                        break;
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            }
        }
        // Close the admission channels and wake every io thread so the
        // drain starts immediately rather than at the next tick.
        drop(senders);
        for waker in &wakers {
            wake(waker);
        }
        for handle in handles {
            let _ = handle.join();
        }
        self.finalize(pump, prom)
    }

    fn finalize(
        &self,
        pump: std::thread::JoinHandle<()>,
        prom: Option<std::thread::JoinHandle<()>>,
    ) -> Result<ServeReport, NetError> {
        let mut state = self
            .shared
            .lock_fleet()
            .take()
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: finalize runs once, after the accept loop
            .expect("finalize runs once, after the accept loop");
        // Release whatever the reorder buffers still hold — sorted per
        // track — before the fleet joins.
        if let Some(reorder) = state.reorder.as_mut() {
            for (track, points) in reorder.drain_all() {
                if !points.is_empty() {
                    state.fleet.submit_run(track, points);
                }
            }
            self.shared.metrics.reorder_depth.set(0);
        }
        let join = state.fleet.join();
        if let Some(failure) = join.failures.first() {
            return Err(NetError::Fleet {
                shard: failure.shard,
                panic: failure.panic.clone(),
                sessions: failure.tracks.len(),
            });
        }
        let stats = join.stats;
        let mut spilled_sessions = 0usize;
        let mut spilled_points = 0u64;
        let mut spilled_bytes = 0u64;
        for shard in join.shards {
            let reports = shard
                .sink
                .finish()
                .map_err(|failure| NetError::Spill(failure.to_string()))?;
            spilled_sessions += reports.len();
            spilled_points += reports.iter().map(|r| r.points).sum::<u64>();
            spilled_bytes += reports.iter().map(|r| r.bytes).sum::<u64>();
        }
        // Every kept point has been published; let the pump deliver the
        // tail, then end and close every subscription.
        self.shared.pump_stop.store(true, Ordering::SeqCst); // ordering: seqcst stop flag; the join() below is the real synchronisation
        let _ = pump.join();
        self.shared.hub.finish();
        // Stop the Prometheus responder: every path into finalize has
        // set the shutdown flag (re-asserted here for belt and braces);
        // one wake connection pops the thread out of `accept`.
        if let Some(prom) = prom {
            self.shared.shutdown.store(true, Ordering::SeqCst); // ordering: seqcst publishes shutdown before the wake-up connect below
            if let Some(addr) = self.shared.prom_addr {
                drop(TcpStream::connect(wake_addr(addr)));
            }
            let _ = prom.join();
        }
        // Buffered backfill batches become flagged records in the same
        // shard logs the tracks' live data spilled to, *before* the
        // manifest is rebuilt so its spans cover them.
        if !state.backfill.is_empty() {
            write_backfill(&self.shared.spill, self.shared.workers, &state.backfill)?;
        }
        let manifest_shards = if self.shared.workers > 1 {
            Manifest::rebuild(&self.shared.spill)?.shards.len()
        } else {
            0
        };
        let m = &self.shared.metrics;
        Ok(ServeReport {
            connections: m.conns_admitted.get(),
            rejected_connections: m.conns_rejected.get(),
            frames: m.frames.get(),
            appended_points: self.shared.appended_points.load(Ordering::Relaxed), // ordering: relaxed final read; all writers joined above
            late_points: m.late_accepted.get(),
            backfill_points: m.backfilled.get(),
            too_late_points: m.too_late.get(),
            spilled_sessions,
            spilled_points,
            spilled_bytes,
            stats,
            manifest_shards,
        })
    }
}

/// Writes the buffered backfill batches as flagged records, each into
/// the shard log its track's live data spilled to (the fleet's worker
/// routing), reopening the logs the spill sinks just closed.
fn write_backfill(
    spill: &std::path::Path,
    workers: usize,
    backfill: &HashMap<TrackId, Vec<Vec<TimedPoint>>>,
) -> Result<(), NetError> {
    let mut by_shard: HashMap<usize, Vec<TrackId>> = HashMap::new();
    for &track in backfill.keys() {
        let shard = if workers > 1 {
            worker_of(track, workers)
        } else {
            0
        };
        by_shard.entry(shard).or_default().push(track);
    }
    for (shard, mut tracks) in by_shard {
        tracks.sort_unstable();
        let dir = if workers > 1 {
            spill.join(format!("shard-{shard}"))
        } else {
            spill.to_path_buf()
        };
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default())?;
        for track in tracks {
            for batch in &backfill[&track] {
                log.append_backfill(track, batch)?;
            }
        }
    }
    Ok(())
}

/// How often the pump thread runs the idle-eviction pass when
/// `--evict-idle` is set.
const EVICT_TICK: Duration = Duration::from_secs(1);

/// One idle-eviction pass: finalises (through the normal spill path)
/// every session that has not pushed for `evict_idle` stream-time
/// seconds, measured against the highest timestamp accepted so far.
fn evict_tick(shared: &Shared) {
    let mut guard = shared.lock_fleet();
    let Some(state) = guard.as_mut() else {
        return; // already finalizing
    };
    if state.max_t.is_finite() {
        let now = state.max_t;
        state.fleet.evict_idle(now);
    }
}

/// Serves `GET /metrics` over plain HTTP/1.1 until shutdown: accept,
/// answer one request, close. Scrapers reconnect per scrape, so one
/// sequential thread is plenty.
fn prom_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // ordering: seqcst pairs with the Shutdown request's store
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        // ordering: seqcst pairs with the Shutdown request's store
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the finalize wake-up (or a late scraper)
        }
        serve_prom_conn(stream, shared);
    }
}

/// Answers one HTTP request: `GET /metrics` gets the Prometheus text
/// exposition (0.0.4), anything else a 404.
fn serve_prom_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read up to the header terminator; only the request line matters.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let line = buf.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = std::str::from_utf8(line).unwrap_or("");
    let target = line.strip_prefix("GET ").and_then(|r| r.split(' ').next());
    let (status, body) = if target == Some("/metrics") {
        ("200 OK", shared.metrics.registry.render_prometheus())
    } else {
        ("404 Not Found", String::new())
    };
    let head = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// Answers an over-the-cap accept with one typed error frame and closes
/// the socket — a client in `connect` surfaces it as
/// `NetError::Server { code: OverCapacity, .. }` instead of hanging.
fn reject_over_capacity(mut stream: TcpStream, shared: &Shared) {
    shared.conn_rejected();
    let reply = Reply::Error {
        code: ErrorCode::OverCapacity,
        message: format!(
            "connection table full ({} connections); retry later",
            shared.max_connections
        ),
    };
    if let Ok(payload) = reply.encode() {
        let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
        if write_frame(&mut stream, &payload).is_ok() {
            shared
                .metrics
                .bytes_out
                .add((HEADER_BYTES + payload.len() + 4) as u64);
        }
    }
}

/// The blocking write end of an I/O thread's wake pipe. `std` has no
/// portable socketpair, so the pipe is a loopback TCP pair: one byte
/// written here pops the thread out of `Poller::wait` instantly.
fn wake_pipe() -> Result<(TcpStream, TcpStream), NetError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| NetError::io("wake pipe", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::io("wake pipe", e))?;
    let tx = TcpStream::connect(addr).map_err(|e| NetError::io("wake pipe", e))?;
    let (rx, _) = listener
        .accept()
        .map_err(|e| NetError::io("wake pipe", e))?;
    Ok((tx, rx))
}

fn wake(waker: &TcpStream) {
    let _ = (&*waker).write_all(&[1]);
}

/// One connection's state inside an I/O thread.
struct Conn {
    /// The server-wide trace id assigned at admission.
    id: u64,
    stream: TcpStream,
    /// Bytes read off the socket, `consumed` of which are parsed.
    inbuf: Vec<u8>,
    consumed: usize,
    /// Reply bytes queued, `outpos` of which are written.
    outbuf: Vec<u8>,
    outpos: usize,
    greeted: bool,
    /// Close once `outbuf` drains (framing violation, shutdown, EOF).
    close_after_flush: bool,
    /// Currently registered with write interest.
    want_write: bool,
    /// Peer EOF observed.
    eof: bool,
    /// Decode times of requests whose replies have not fully flushed —
    /// drained into the latency histograms when `outbuf` empties.
    pending: Vec<(Instant, ReqKind)>,
    /// A `Subscribe` was served: once the out queue drains, the socket
    /// moves to the subscriber hub instead of being polled further.
    handoff: Option<(Option<u64>, Option<[f64; 4]>)>,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: Vec::new(),
            outpos: 0,
            greeted: false,
            close_after_flush: false,
            want_write: false,
            eof: false,
            pending: Vec::new(),
            handoff: None,
        }
    }

    /// Nothing half-read, nothing half-written: safe to close at a
    /// shutdown drain point.
    fn at_boundary(&self) -> bool {
        self.consumed == self.inbuf.len() && self.outpos == self.outbuf.len()
    }
}

/// One I/O thread: admit connections from `rx`, poll readiness, parse
/// frames, serve requests, flush replies — until shutdown drains every
/// connection.
fn io_loop(rx: Receiver<(u64, TcpStream)>, wake_rx: TcpStream, shared: &Shared) {
    let poller = if shared.fallback_poller {
        Poller::with_fallback()
    } else {
        Poller::new().unwrap_or_else(|_| Poller::with_fallback())
    };
    let _ = wake_rx.set_nonblocking(true);
    let _ = poller.add(source_of(&wake_rx), Event::readable(WAKE_KEY));
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = ColumnarBatch::new();
    let mut rx_open = true;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Admit whatever the acceptor queued.
        while rx_open {
            match rx.try_recv() {
                Ok((id, stream)) => {
                    let key = next_key;
                    next_key += 1;
                    if poller.add(source_of(&stream), Event::readable(key)).is_ok() {
                        conns.insert(key, Conn::new(id, stream));
                    } else {
                        shared.conn_closed();
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    rx_open = false;
                    break;
                }
            }
        }

        let shutting = shared.shutdown.load(Ordering::SeqCst); // ordering: seqcst so drain decisions agree across workers
        if shutting {
            let deadline = *drain_deadline.get_or_insert_with(|| bqs_obs::now() + DRAIN_GRACE);
            // Final service pass: frames already in flight (kernel
            // buffers included) still complete; then close everything
            // that sits at a frame boundary — or everything, once the
            // grace expires.
            let keys: Vec<usize> = conns.keys().copied().collect();
            let expired = bqs_obs::now() >= deadline;
            for key in keys {
                // bqs-analyze: allow(no-unwrap-in-lib) — invariant: key from this map
                let conn = conns.get_mut(&key).expect("key from this map");
                let dead = service_conn(conn, shared, &mut scratch);
                if !dead && conn.handoff.is_some() && conn.outpos == conn.outbuf.len() {
                    // A freshly acked subscriber still gets its drain
                    // notice (`SubEnd`) through the hub.
                    handoff_conn(&poller, &mut conns, key, shared);
                } else if dead || conn.at_boundary() || expired {
                    close_conn(&poller, &mut conns, key, shared);
                }
            }
            if conns.is_empty() && !rx_open {
                break;
            }
        }

        let _ = poller.wait(&mut events, Some(POOL_TICK));
        // Tick telemetry: how much readiness each wait delivers, and
        // how long this thread stays busy servicing it.
        shared.metrics.io_ready_events.record(events.len() as u64);
        let tick_start = bqs_obs::now();
        for &ev in events.iter() {
            if ev.key == WAKE_KEY {
                drain_wake(&wake_rx);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if service_conn(conn, shared, &mut scratch) {
                close_conn(&poller, &mut conns, ev.key, shared);
                continue;
            }
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: still present
            let conn = conns.get_mut(&ev.key).expect("still present");
            if conn.handoff.is_some() && conn.outpos == conn.outbuf.len() {
                // `Subscribed` is on the wire: the socket now belongs
                // to the subscriber hub (and its pump thread).
                handoff_conn(&poller, &mut conns, ev.key, shared);
                continue;
            }
            // Write interest only while replies are actually pending.
            let pending = conn.outpos < conn.outbuf.len();
            if pending != conn.want_write {
                conn.want_write = pending;
                let interest = if pending {
                    Event::all(ev.key)
                } else {
                    Event::readable(ev.key)
                };
                let _ = poller.modify(source_of(&conn.stream), interest);
            }
        }
        shared.metrics.io_tick_us.record(elapsed_us(tick_start));
    }
    // Streams the acceptor queued that were never admitted.
    for (_, stream) in rx.try_iter() {
        drop(stream);
        shared.conn_closed();
    }
}

fn drain_wake(wake_rx: &TcpStream) {
    let mut buf = [0u8; 64];
    while matches!((&*wake_rx).read(&mut buf), Ok(n) if n > 0) {}
}

fn close_conn(poller: &Poller, conns: &mut HashMap<usize, Conn>, key: usize, shared: &Shared) {
    if let Some(conn) = conns.remove(&key) {
        let _ = poller.delete(source_of(&conn.stream));
        drop(conn.stream);
        shared.conn_closed();
    }
}

/// Moves a connection whose `Subscribed` ack has flushed out of the
/// poll set and into the subscriber hub. The connection stops counting
/// against `--max-connections`; it is accounted by the
/// `net_subscribers_live` gauge instead.
fn handoff_conn(poller: &Poller, conns: &mut HashMap<usize, Conn>, key: usize, shared: &Shared) {
    if let Some(conn) = conns.remove(&key) {
        let _ = poller.delete(source_of(&conn.stream));
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: caller checked
        let (track, bbox) = conn.handoff.expect("caller checked");
        shared.hub.add(conn.stream, track, bbox);
        shared.conn_closed();
    }
}

/// Reads, parses, serves and flushes one connection as far as its
/// socket allows right now. Returns `true` when the connection is done
/// (transport failure, or close-after-flush with an empty out buffer).
fn service_conn(conn: &mut Conn, shared: &Shared, scratch: &mut ColumnarBatch) -> bool {
    // 1. Pull available bytes — unless queued replies are over the
    // watermark (a client that writes but never reads): level-triggered
    // polling re-reports the socket once the replies drain.
    if !conn.eof
        && !conn.close_after_flush
        && conn.handoff.is_none()
        && conn.outbuf.len() - conn.outpos < OUT_HIGH_WATERMARK
    {
        let mut chunk = [0u8; READ_CHUNK];
        let mut read_this_tick = 0usize;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    read_this_tick += n;
                    shared.metrics.bytes_in.add(n as u64);
                    if read_this_tick >= MAX_TICK_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return true, // transport died
            }
        }
    }

    // 2. Serve every complete frame in the buffer.
    while !conn.close_after_flush && conn.handoff.is_none() {
        let buf = &conn.inbuf[conn.consumed..];
        if buf.is_empty() {
            break;
        }
        match decode_frame(buf) {
            Ok((payload, used)) => {
                conn.consumed += used;
                let kind = ReqKind::of(&payload);
                shared.metrics.on_frame(kind);
                // The decode time also anchors the ReplyFlush trace
                // event's latency payload.
                conn.pending.push((bqs_obs::now(), kind));
                shared
                    .trace
                    .record(TraceEventKind::FrameDecode, conn.id, payload.len() as u64);
                let (reply, after) =
                    handle_payload(&payload, shared, &mut conn.greeted, scratch, conn.id);
                queue_reply(conn, &reply);
                match after {
                    After::Continue => {}
                    After::Close => conn.close_after_flush = true,
                    After::Subscribe { track, bbox } => {
                        // Stop parsing: the protocol says the client
                        // sends nothing after `Subscribe`, and any
                        // pipelined leftovers are dropped at handoff.
                        conn.handoff = Some((track, bbox));
                        break;
                    }
                }
            }
            Err(WireError::Torn { .. }) => break, // incomplete: wait for more bytes
            Err(e) => {
                // The stream cannot be resynchronised after a framing
                // violation: report and close.
                queue_reply(
                    conn,
                    &Reply::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                );
                conn.close_after_flush = true;
                conn.consumed = conn.inbuf.len();
            }
        }
    }
    if conn.consumed > 0 {
        conn.inbuf.drain(..conn.consumed);
        conn.consumed = 0;
    }
    // A peer that half-closed gets its queued replies, then the close;
    // a partial frame left behind is torn — nobody is left to tell.
    if conn.eof {
        conn.close_after_flush = true;
    }

    // 3. Flush as much of the out queue as the socket takes.
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.outpos += n;
                shared.metrics.bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        // Every reply this connection owed is now on the wire: the
        // requests' decode→flush latencies are final.
        for (start, kind) in conn.pending.drain(..) {
            let us = elapsed_us(start);
            shared.metrics.request_us.get(kind).record(us);
            shared.trace.record(TraceEventKind::ReplyFlush, conn.id, us);
        }
        if conn.close_after_flush {
            return true;
        }
    }
    false
}

fn queue_reply(conn: &mut Conn, reply: &Reply) {
    let payload = match reply.encode() {
        Ok(payload) => payload,
        // A reply that cannot be encoded (a codec invariant violated by
        // query output — never expected) degrades to a typed error.
        Err(e) => Reply::Error {
            code: ErrorCode::Internal,
            message: format!("cannot encode reply: {e}"),
        }
        .encode()
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: error replies always encode
        .expect("error replies always encode"),
    };
    conn.outbuf.extend_from_slice(&frame_to_vec(&payload));
}

/// One reader's verdict after handling a frame.
enum After {
    /// Keep serving this connection.
    Continue,
    /// Close this connection (frame-level failure or shutdown).
    Close,
    /// Hand this connection to the subscriber hub once the `Subscribed`
    /// acknowledgement has flushed: the request/reply conversation is
    /// over and the socket only carries pushed frames from here on.
    Subscribe {
        track: Option<u64>,
        bbox: Option<[f64; 4]>,
    },
}

/// Validates an `Append` batch's timestamps with the codec's time-order
/// rule, the first one measured against `floor` (the track's accepted
/// watermark, or `f64::NEG_INFINITY` for none). The wire *decoder*
/// cannot enforce this (only the encoder does), so without the check a
/// crafted frame would be acked, reach the fleet, and poison the
/// track's spill at session close — losing the whole shard's durable
/// output.
fn validate_times(times: &[f64], floor: f64) -> Result<(), String> {
    check_times(times.iter().copied(), floor).map_err(|e| match e {
        CodecError::NonMonotonicTimestamps { .. } => {
            format!("{e} (the track's accepted stream is time-ordered)")
        }
        e => e.to_string(),
    })
}

/// Serves one frame payload: the columnar `Append` fast path first
/// (after the handshake), everything else through [`Request::decode`].
fn handle_payload(
    payload: &[u8],
    shared: &Shared,
    greeted: &mut bool,
    scratch: &mut ColumnarBatch,
    conn: u64,
) -> (Reply, After) {
    if *greeted {
        scratch.clear();
        match decode_append_columns(payload, scratch) {
            Ok(Some(track)) => return handle_append_columns(track, scratch, shared, conn),
            Ok(None) => {}
            Err(e) => {
                return (
                    Reply::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                    After::Close,
                )
            }
        }
    }
    match Request::decode(payload) {
        Ok(request) => handle_request(request, shared, greeted, conn),
        Err(e) => (
            Reply::Error {
                code: ErrorCode::BadFrame,
                message: e.to_string(),
            },
            After::Close,
        ),
    }
}

/// The `Append` fast path: timestamps validated in one pass over the
/// contiguous run, then the whole run submitted in one channel send.
fn handle_append_columns(
    track: u64,
    batch: &ColumnarBatch,
    shared: &Shared,
    conn: u64,
) -> (Reply, After) {
    let mut guard = shared.lock_fleet();
    let Some(state) = guard.as_mut() else {
        return (shutting_down_error(), After::Close);
    };
    let n = batch.len() as u64;
    // Bounded-lateness ingest: the batch must still be sorted within
    // itself, but its start may fall up to the window behind the track's
    // watermark instead of never — only in-order ingest seeds the check
    // with the watermark.
    let floor = match state.reorder {
        Some(_) => f64::NEG_INFINITY,
        None => state
            .last_t
            .get(&track)
            .copied()
            .unwrap_or(f64::NEG_INFINITY),
    };
    if let Err(message) = validate_times(&batch.t, floor) {
        // Semantically invalid but well-framed: the batch is rejected
        // whole and the connection survives.
        return (
            Reply::Error {
                code: ErrorCode::BadRequest,
                message,
            },
            After::Continue,
        );
    }
    if state.reorder.is_some() {
        return match submit_reordered(state, track, &batch.to_points(), shared) {
            Ok(()) => {
                drop(guard);
                shared.appended_points.fetch_add(n, Ordering::Relaxed); // ordering: relaxed stat counter, read after join()
                shared.trace.record(TraceEventKind::FleetSubmit, conn, n);
                (Reply::Appended { track, points: n }, After::Continue)
            }
            Err(e) => {
                drop(guard);
                shared.metrics.too_late.add(n);
                (
                    Reply::Error {
                        code: ErrorCode::TooLate,
                        message: e.to_string(),
                    },
                    After::Continue,
                )
            }
        };
    }
    if let Some(&last) = batch.t.last() {
        state.last_t.insert(track, last);
        state.max_t = state.max_t.max(last);
    }
    // Backpressure: this send blocks (fleet lock held, sockets unread)
    // when the track's worker shard is saturated.
    state.fleet.submit_run(track, batch.to_points());
    drop(guard);
    shared.appended_points.fetch_add(n, Ordering::Relaxed); // ordering: relaxed stat counter, read after join()
    shared.trace.record(TraceEventKind::FleetSubmit, conn, n);
    (Reply::Appended { track, points: n }, After::Continue)
}

/// Pushes an admissible batch through `track`'s reorder buffer and
/// submits whatever the advancing watermark releases, in timestamp
/// order. Atomic: the whole batch is admitted, or — when any point
/// falls beyond the window — refused without side effects.
fn submit_reordered(
    state: &mut FleetState,
    track: u64,
    points: &[TimedPoint],
    shared: &Shared,
) -> Result<(), TooLate> {
    let (late, released, depth, wm) = {
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: caller checked
        let reorder = state.reorder.as_mut().expect("caller checked");
        let window = reorder.window();
        // Admission pass: simulate the watermark over the batch in
        // arrival order, so acceptance is decided before any point is
        // parked.
        let mut wm = reorder.watermark(track).unwrap_or(f64::NEG_INFINITY);
        let mut late = 0u64;
        for p in points {
            if p.t < wm - window {
                return Err(TooLate {
                    t: p.t,
                    watermark: wm,
                    window,
                });
            }
            if wm.is_finite() && p.t < wm {
                late += 1;
            }
            wm = wm.max(p.t);
        }
        // Commit pass: every push now succeeds by construction.
        let mut released = Vec::new();
        for p in points {
            reorder
                .push(track, *p, &mut released)
                // bqs-analyze: allow(no-unwrap-in-lib) — invariant: admission pre-checked the whole batch
                .expect("admission pre-checked the whole batch");
        }
        (late, released, reorder.depth() as u64, wm)
    };
    state.max_t = state.max_t.max(wm);
    if !released.is_empty() {
        state.fleet.submit_run(track, released);
    }
    if late > 0 {
        shared.metrics.late_accepted.add(late);
    }
    shared.metrics.reorder_depth.set(depth);
    Ok(())
}

/// Serves an `AppendLate` request: the reorder-buffered late path, or
/// the durable backfill path.
fn handle_append_late(
    track: u64,
    backfill: bool,
    points: &[TimedPoint],
    shared: &Shared,
    conn: u64,
) -> (Reply, After) {
    // A late batch may be disordered — that is what the reorder buffer
    // is for — but not non-finite; a backfill batch becomes one durable
    // record, so it must also be sorted within itself.
    let times = points.iter().map(|p| p.t);
    let checked = if backfill {
        check_times(times, f64::NEG_INFINITY)
    } else {
        (0..)
            .zip(times)
            .try_for_each(|(i, t)| check_time(f64::NEG_INFINITY, t, i))
    };
    if let Err(e) = checked {
        return (
            Reply::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            },
            After::Continue,
        );
    }
    if points.is_empty() {
        return (Reply::LateAppended { track, points: 0 }, After::Continue);
    }
    let n = points.len() as u64;
    let mut guard = shared.lock_fleet();
    let Some(state) = guard.as_mut() else {
        return (shutting_down_error(), After::Close);
    };
    if backfill {
        state
            .backfill
            .entry(track)
            .or_default()
            .push(points.to_vec());
        drop(guard);
        shared.metrics.backfilled.add(n);
        return (Reply::LateAppended { track, points: n }, After::Continue);
    }
    if state.reorder.is_none() {
        return (
            Reply::Error {
                code: ErrorCode::BadRequest,
                message: "server accepts no late points (started with --lateness 0); \
                          use the backfill path"
                    .to_string(),
            },
            After::Continue,
        );
    }
    match submit_reordered(state, track, points, shared) {
        Ok(()) => {
            drop(guard);
            shared.appended_points.fetch_add(n, Ordering::Relaxed); // ordering: relaxed stat counter, read after join()
            shared.trace.record(TraceEventKind::FleetSubmit, conn, n);
            (Reply::LateAppended { track, points: n }, After::Continue)
        }
        Err(e) => {
            drop(guard);
            shared.metrics.too_late.add(n);
            (
                Reply::Error {
                    code: ErrorCode::TooLate,
                    message: e.to_string(),
                },
                After::Continue,
            )
        }
    }
}

fn handle_request(
    request: Request,
    shared: &Shared,
    greeted: &mut bool,
    conn: u64,
) -> (Reply, After) {
    // The handshake gate: only `Hello` is served before it passes.
    if !*greeted && !matches!(request, Request::Hello { .. }) {
        return (
            Reply::Error {
                code: ErrorCode::BadRequest,
                message: "expected Hello as the first message on a connection".to_string(),
            },
            After::Close,
        );
    }
    match request {
        Request::Hello { protocol } => {
            if protocol != PROTOCOL_VERSION {
                return (
                    Reply::Error {
                        code: ErrorCode::Unsupported,
                        message: format!(
                            "protocol {protocol} not supported (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                    After::Close,
                );
            }
            *greeted = true;
            (
                Reply::HelloOk {
                    protocol: PROTOCOL_VERSION,
                    workers: shared.workers as u64,
                },
                After::Continue,
            )
        }
        Request::Append { track, points } => {
            // The row-decoded path — reachable only through direct
            // `Request` handling (the server catches `Append` in the
            // columnar fast path); kept for exactness with it.
            let batch = ColumnarBatch::from_points(&points);
            handle_append_columns(track, &batch, shared, conn)
        }
        Request::Flush => {
            let mut guard = shared.lock_fleet();
            let Some(state) = guard.as_mut() else {
                return (shutting_down_error(), After::Close);
            };
            state.fleet.flush();
            (Reply::Flushed, After::Continue)
        }
        Request::Query(spec) => match run_query(&spec, shared) {
            Ok(report) => (Reply::QueryResult(report), After::Continue),
            Err(e) => (
                Reply::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
                After::Continue,
            ),
        },
        Request::Stats => {
            let mut guard = shared.lock_fleet();
            let Some(state) = guard.as_mut() else {
                return (shutting_down_error(), After::Close);
            };
            let stats = state.fleet.live_stats();
            let shards = state
                .fleet
                .shard_counters()
                .into_iter()
                .map(|c| ShardStat {
                    shard: c.shard as u64,
                    tracks: c.tracks as u64,
                    submitted_points: c.submitted_points,
                    dead: c.dead,
                })
                .collect();
            drop(guard);
            (
                Reply::StatsReply(StatsReport {
                    stats,
                    shards,
                    connections: shared.metrics.conns_admitted.get(),
                    appended_points: shared.appended_points.load(Ordering::Relaxed), // ordering: relaxed snapshot read; Stats tolerates small skew
                    uptime_s: shared.started.elapsed().as_secs(),
                    live_connections: shared.active.load(Ordering::SeqCst) as u64, // ordering: seqcst matches the admission-path accesses of `active`
                    peak_connections: shared.metrics.conns_live.peak(),
                    rejected_connections: shared.metrics.conns_rejected.get(),
                }),
                After::Continue,
            )
        }
        Request::Metrics { prom } => {
            // Renders the full catalog — native `name value` lines, or
            // the Prometheus text exposition when the client asked for
            // it.
            let registry = &shared.metrics.registry;
            let text = if prom {
                registry.render_prometheus()
            } else {
                registry.render()
            };
            (Reply::MetricsReply { text }, After::Continue)
        }
        Request::TraceDump { last, conn: want } => {
            // Filters apply oldest-first so `last` keeps the newest.
            let snapshot = shared.trace.snapshot();
            let (dropped, mut events) = (snapshot.dropped, snapshot.events);
            if let Some(id) = want {
                events.retain(|e| e.conn == id);
            }
            if let Some(last) = last {
                let keep = last.min(events.len() as u64) as usize;
                events.drain(..events.len() - keep);
            }
            (Reply::TraceReply { dropped, events }, After::Continue)
        }
        Request::AppendLate {
            track,
            backfill,
            points,
        } => handle_append_late(track, backfill, &points, shared, conn),
        Request::Subscribe { track, bbox } => {
            // The acknowledgement is queued like any reply; the runtime
            // performs the actual handoff only after it flushes, so the
            // client never sees pushed frames before `Subscribed`.
            (Reply::Subscribed, After::Subscribe { track, bbox })
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst); // ordering: seqcst publishes shutdown before the wake-up connect below
                                                           // Unblock the acceptor so the run loop can start draining.
            drop(TcpStream::connect(wake_addr(shared.local_addr)));
            (
                Reply::ShuttingDown {
                    connections: shared.metrics.conns_admitted.get(),
                    appended_points: shared.appended_points.load(Ordering::Relaxed), // ordering: relaxed snapshot read for the farewell reply
                },
                After::Close,
            )
        }
    }
}

fn shutting_down_error() -> Reply {
    Reply::Error {
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".to_string(),
    }
}

/// The address the shutdown wake-up connects to. A server bound to a
/// wildcard address (`0.0.0.0` / `::`) cannot be *connected* to at
/// that address on every platform, so the wake-up targets loopback on
/// the same port instead.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        let ip: std::net::IpAddr = match local {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        };
        SocketAddr::new(ip, local.port())
    } else {
        local
    }
}

/// Serves one query: consistent live snapshot first, under the fleet
/// lock alone; then the server's long-lived engine catches up with
/// everything spilled since, under the engine lock alone, so
/// durable-wins merging stays gap-free; then the prepared query reads
/// and merges under no lock, beside any other connection's query.
fn run_query(spec: &QuerySpec, shared: &Shared) -> Result<QueryReport, NetError> {
    let start = bqs_obs::now();
    let snapshot = {
        let mut guard = shared.lock_fleet();
        let Some(state) = guard.as_mut() else {
            return Err(NetError::Server {
                code: ErrorCode::ShuttingDown,
                message: "server is shutting down".to_string(),
            });
        };
        state.fleet.snapshot()
    };
    let range = TimeRange::new(spec.from, spec.to);
    let area = spec.bbox.map(|[x0, y0, x1, y1]| {
        bqs_geo::Rect::from_corners(bqs_geo::Point2::new(x0, y0), bqs_geo::Point2::new(x1, y1))
    });
    let prepared = shared.lock_engine().prepare(spec.track, range, area)?;
    let output = prepared.run(Some(&snapshot))?;
    let m = &shared.metrics;
    m.query_us.record(elapsed_us(start));
    m.query_shards_pruned.add(output.shards_pruned as u64);
    m.query_shards_opened
        .add((output.shards.len() - output.shards_pruned) as u64);
    m.query_refresh_bytes.add(output.refreshed_bytes);
    m.query_reopens.add(output.reopened_shards as u64);
    Ok(QueryReport {
        slices: output.slices,
        shards_pruned: output.shards_pruned as u64,
        hot_points: output.hot_points as u64,
        candidate_records: output.stats.candidate_records as u64,
        decoded_records: output.stats.decoded_records as u64,
    })
}
