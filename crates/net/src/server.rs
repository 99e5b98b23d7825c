//! The serving runtime: a small fixed pool of I/O threads, each
//! multiplexing its share of the sockets through one readiness poller
//! and feeding one shared [`ParallelFleet`] through the frame-grained
//! submission path. Every socket is in a poller: I/O thread 0 also
//! polls the client listener and the `--prom-addr` listener.
//!
//! ```text
//!  clients ──► listener ─┐ io thread 0: poller ── conns 0,2,4… + scrapes ─┐
//!  scrapers ─► listener ─┘   │ round-robin (channel + wake pipe)           ├─► Mutex<ParallelFleet>
//!                            └─► io thread 1: poller ── conns 1,3,5… ──────┘        │
//!                                (epoll/kqueue/fallback)                          ├─► worker shards ─► spill logs
//!                                                                                 └─ snapshot() ─► QueryEngine (hot + cold)
//! ```
//!
//! * **One poller per I/O thread** — `--io-threads N` (default 4,
//!   `N ≥ 1`) threads `bqs-io-<i>` each run a level-triggered readiness
//!   loop (`polling::Poller`: epoll on Linux, kqueue on macOS, a
//!   portable round-robin fallback anywhere else); beside the fleet
//!   workers they are the server's only threads. Thread 0 accepts until
//!   `WouldBlock` and hands client connections out round-robin, itself
//!   first; a Prometheus scrape stays on it as a connection of its own.
//!   The path is `io_loop` → `service_conn` → `handle_payload`, with
//!   [`decode_frame`] the one server-side frame parser. An `Append`
//!   frame is decoded straight into a columnar batch
//!   ([`decode_append_columns`]) and its columns go to the owning
//!   worker as one run in **one** channel send
//!   ([`ParallelFleet::submit_run`]): no row copy, no per-point hashing.
//! * **Backpressure end to end** — an I/O thread submits while holding
//!   the fleet lock; when a worker shard's bounded channel is full the
//!   send blocks, the I/O thread stops reading *all* its sockets, the
//!   kernel's TCP windows fill, and remote `append`s block. Per
//!   connection, replies that outpace the client gate further reads
//!   (`OUT_HIGH_WATERMARK`), so no unbounded queue exists on the path.
//! * **Subscribers stay on their I/O thread** — workers queue kept
//!   points in the `SubHub`; each loop iteration pulls a subscriber's
//!   batches into its out buffer while that holds less than
//!   `OUT_HIGH_WATERMARK`, and a reader that lets `SUB_QUEUE_CAP`
//!   points pile up is closed. I/O thread 0 also runs the
//!   `--evict-idle` tick.
//! * **Bounded connection table** — beyond
//!   [`ServerConfig::max_connections`] (subscribers included, scrapes
//!   not) an accepted socket gets one typed [`ErrorCode::OverCapacity`]
//!   frame in one non-blocking write and is closed.
//! * **Queries are hot + cold** — `Query` takes a consistent
//!   [`ParallelFleet::snapshot`] and merges it with the spill tree
//!   through the server's one [`QueryEngine`], caught up by the bytes
//!   spilled since the previous query; a mid-run answer for a closed
//!   track is exactly the answer the finished tree will give.
//! * **Graceful shutdown** — `Shutdown` wakes every I/O thread: thread
//!   0 closes the listeners, in-flight frames complete (mid-frame
//!   connections get a 5 s `DRAIN_GRACE`), idle connections close, the
//!   fleet joins and every session spills while subscribers are still
//!   served, each subscriber gets its tail and `SubEnd` (within another
//!   `DRAIN_GRACE`), and the tree `MANIFEST` is written.
//!
//! The runtime stays `std::net` + threads + a vendored poller shim: no
//! async runtime. `tests/net_equivalence.rs` proves network runs
//! byte-identical to in-process runs at any (connections, workers,
//! io-threads).

use crate::error::NetError;
use crate::wire::{
    decode_append_columns, decode_frame, frame_to_vec, ErrorCode, QueryReport, QuerySpec, Reply,
    Request, ShardStat, StatsReport, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION, TAG_APPEND,
    TAG_FLUSH, TAG_QUERY, TAG_STATS,
};
use bqs_core::fleet::{
    worker_of, FleetConfig, FleetMetrics, FleetReorder, FleetSink, ParallelConfig, ParallelFleet,
    Released, SessionReport, TooLate, TrackId,
};
use bqs_core::stream::DecisionStats;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_obs::{
    elapsed_us, Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, TraceEventKind,
};
use bqs_tlog::codec::{check_time, check_times, CodecError};
use bqs_tlog::{
    prepare_spill_logs, shard_dir, LogConfig, Manifest, QueryEngine, SpillMetrics, SpillSink,
    TimeRange, TrajectoryLog,
};
use polling::{source_of, wake_pair, Event, Poller, WakeEnd};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a connection may keep a frame in flight after shutdown
/// before the server stops waiting for it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// How long a listener whose `accept` failed stays out of I/O thread
/// 0's poller, so a level-triggered error (`EMFILE`) cannot spin it.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// How long the client listener may keep failing before the server
/// stops accepting and drains.
const ACCEPT_GIVE_UP: Duration = Duration::from_secs(10);

/// How long a Prometheus scrape may stay open, request and response
/// together, before I/O thread 0 closes it.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Most bytes of a scrape's HTTP request head; a head that does not end
/// within them is closed without a reply.
const MAX_HTTP_HEAD: usize = 8192;

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

/// I/O thread 0's poller key for the client listener.
const LISTEN_KEY: usize = usize::MAX - 1;

/// I/O thread 0's poller key for the Prometheus listener.
const PROM_KEY: usize = usize::MAX - 2;

/// Most points a subscriber may have queued undelivered before the
/// server declares it too slow and disconnects it — subscribers must
/// never be able to stall ingest workers.
const SUB_QUEUE_CAP: usize = 1 << 16;

/// Most points coalesced into one pushed `SubPoints` frame.
const SUB_BATCH_POINTS: usize = 512;

/// How often I/O thread 0 runs the idle-eviction pass when
/// `--evict-idle` is set.
const EVICT_TICK: Duration = Duration::from_secs(1);

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
    /// Fleet worker shards, each spilling to its own `shard-<k>/` log
    /// of the spill tree.
    pub workers: usize,
    /// Directory the fleet spills closed sessions into. Must be empty
    /// or absent (the same rule as `bqs fleet --spill`).
    pub spill: PathBuf,
    /// Compression tolerance in metres.
    pub tolerance: f64,
    /// Bounded-lateness window `W` in seconds. Every track's points
    /// pass through one admission table ([`FleetReorder`]) that admits
    /// anything within `W` seconds behind the track's watermark and
    /// releases points to the compressor in timestamp order. Positive,
    /// an older point is a typed `TooLate`. `0` (the default) is the
    /// same table with `W = 0`: nothing parks, and a backwards
    /// timestamp is the codec's time-order `BadRequest`.
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
    /// Shards named in the written `MANIFEST` (one per worker).
    pub manifest_shards: usize,
}

/// The ingest state behind the connection handlers: the fleet plus the
/// admission table that guards it.
struct FleetState {
    fleet: ParallelFleet<SubTeeSink>,
    /// Every track's watermark, floor and parked tail, and the stream
    /// clock the idle-eviction tick measures staleness against. The wire
    /// decoder cannot enforce time order (only the encoder does), so
    /// every batch is admitted here first — a crafted frame with
    /// backwards or non-finite timestamps must never reach the fleet,
    /// where it would poison the track's spill at close.
    reorder: FleetReorder,
    /// Backfill batches accepted over the wire, buffered until
    /// finalization writes them as flagged backfill records. Each inner
    /// vec is one accepted batch → one durable record.
    backfill: Backfill,
}

type Backfill = HashMap<TrackId, Vec<Vec<TimedPoint>>>;

/// The fleet sink behind every worker shard: the durable spill sink,
/// with each kept point teed into the subscriber hub first. When no
/// subscriber is connected the tee costs one relaxed atomic load.
struct SubTeeSink {
    inner: SpillSink<TrajectoryLog>,
    hub: Arc<SubHub>,
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

/// One live subscription: its filters and the batches its connection's
/// I/O thread has not pulled yet.
struct Sub {
    id: u64,
    track: Option<u64>,
    /// Normalized `[x_min, y_min, x_max, y_max]`.
    bbox: Option<[f64; 4]>,
    queue: VecDeque<(u64, Vec<TimedPoint>)>,
    queued_points: usize,
    /// Outgrew [`SUB_QUEUE_CAP`]: it queues nothing more, and its I/O
    /// thread closes the connection.
    overflowed: bool,
}

/// A subscriber outgrew its queue (or is no longer registered).
struct Overflowed;

/// The subscriber hub: ingest workers queue every kept point here (one
/// relaxed load when nobody subscribes) and never touch a socket; the
/// I/O thread that served each `Subscribe` pulls that subscriber's
/// batches into the connection's out buffer as `SubPoints` frames. One
/// thread pulls each subscriber, so its frames never interleave, and no
/// thread holds the hub lock together with the fleet lock.
struct SubHub {
    subs: Mutex<Vec<Sub>>,
    next_id: AtomicU64,
    /// Live subscriptions, readable without the lock.
    subscribers_gauge: Gauge,
    /// Points queued across every subscriber.
    queue_gauge: Gauge,
}

impl SubHub {
    fn new(registry: &MetricsRegistry) -> SubHub {
        SubHub {
            subs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            subscribers_gauge: registry.gauge("net_subscribers_live"),
            queue_gauge: registry.gauge("net_sub_queue_points"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Sub>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether any subscription is live: the one relaxed load a
    /// publisher or an I/O thread iteration pays when nobody subscribes.
    /// A subscription registered a moment ago is served from the next
    /// point or iteration.
    fn any(&self) -> bool {
        self.subscribers_gauge.get() > 0
    }

    /// Registers a subscription; returns its id.
    fn add(&self, track: Option<u64>, bbox: Option<[f64; 4]>) -> u64 {
        let bbox = bbox.map(|[x0, y0, x1, y1]| [x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)]);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // ordering: relaxed unique-id ticket; only atomicity matters
        let mut subs = self.lock();
        subs.push(Sub {
            id,
            track,
            bbox,
            queue: VecDeque::new(),
            queued_points: 0,
            overflowed: false,
        });
        self.subscribers_gauge.set(subs.len() as u64);
        id
    }

    /// Unregisters a subscription with whatever it still had queued.
    fn remove(&self, id: u64) {
        let mut subs = self.lock();
        if let Some(i) = subs.iter().position(|s| s.id == id) {
            let sub = subs.swap_remove(i);
            self.queue_gauge.sub(sub.queued_points as u64);
            self.subscribers_gauge.set(subs.len() as u64);
        }
    }

    /// Queues one kept point for every matching subscriber. Called from
    /// ingest workers; never blocks on a socket.
    fn publish(&self, track: TrackId, point: TimedPoint) {
        if !self.any() {
            return;
        }
        let mut subs = self.lock();
        for sub in subs.iter_mut() {
            if sub.overflowed || sub.track.is_some_and(|t| t != track) {
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
                sub.overflowed = true;
                sub.queue.clear();
                self.queue_gauge.sub(sub.queued_points as u64);
                sub.queued_points = 0;
                continue;
            }
            match sub.queue.back_mut() {
                Some((t, pts)) if *t == track && pts.len() < SUB_BATCH_POINTS => pts.push(point),
                _ => sub.queue.push_back((track, vec![point])),
            }
            sub.queued_points += 1;
            self.queue_gauge.add(1);
        }
    }

    /// Pops subscriber `id`'s oldest queued batch, `(track, points)`,
    /// when the caller has `room` for it; reports an overflow either way.
    fn pull(&self, id: u64, room: bool) -> Result<Option<(u64, Vec<TimedPoint>)>, Overflowed> {
        let mut subs = self.lock();
        let sub = subs
            .iter_mut()
            .find(|s| s.id == id && !s.overflowed)
            .ok_or(Overflowed)?;
        let batch = if room { sub.queue.pop_front() } else { None };
        if let Some((_, points)) = &batch {
            sub.queued_points -= points.len();
            self.queue_gauge.sub(points.len() as u64);
        }
        Ok(batch)
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
    /// Hello, Metrics, Shutdown, AppendLate, Subscribe, TraceDump and
    /// unrecognised tags: rare, non-latency-critical traffic, pooled
    /// into one class.
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

/// Per-request-type metric handles, one per [`ReqKind`] in declaration
/// order.
struct PerKind<T>([T; 5]);

impl<T> PerKind<T> {
    fn get(&self, kind: ReqKind) -> &T {
        &self.0[kind as usize]
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
    /// Ready events delivered per poll tick (wake pipe and listeners
    /// included).
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
            frames_by: PerKind([
                c("net_frames_append_total"),
                c("net_frames_query_total"),
                c("net_frames_stats_total"),
                c("net_frames_flush_total"),
                c("net_frames_other_total"),
            ]),
            request_us: PerKind([
                h("net_request_us_append"),
                h("net_request_us_query"),
                h("net_request_us_stats"),
                h("net_request_us_flush"),
                h("net_request_us_other"),
            ]),
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
    fleet: Mutex<Option<FleetState>>,
    /// The read side: one engine over the spill tree for the server's
    /// whole life, caught up by appended bytes at every query. Locked
    /// only to prepare a query (never while `fleet` is held); queries
    /// run unlocked.
    engine: Mutex<QueryEngine>,
    hub: Arc<SubHub>,
    spill: PathBuf,
    workers: usize,
    max_connections: usize,
    fallback_poller: bool,
    /// The write end of each I/O thread's wake pipe.
    wakers: Vec<WakeEnd>,
    shutdown: AtomicBool,
    /// Connections currently registered: the admission gate. The
    /// `net_connections_live` gauge mirrors it for readers.
    active: AtomicUsize,
    /// Points accepted into the fleet. Its registry cousin
    /// `fleet_submitted_points_total` counts at the fleet boundary,
    /// behind the reorder buffers.
    appended_points: AtomicU64,
    /// Set once the fleet has joined: every kept point is queued, so
    /// each subscriber's stream can end.
    fleet_joined: AtomicBool,
    /// When the server was bound (drives the `Stats` uptime gauge).
    started: Instant,
    metrics: ServerMetrics,
    trace: FlightRecorder,
    /// Stream-time idle-eviction threshold; 0 disables the tick.
    evict_idle: f64,
    /// The lateness window `W` of the admission table.
    lateness: f64,
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

    /// Registers accepted connection `id`: the admission gate, the serve
    /// totals and the live gauge (whose peak is the high-water mark).
    fn conn_admitted(&self, id: u64) {
        let live = self.active.fetch_add(1, Ordering::SeqCst) + 1; // ordering: seqcst admission count pairs with the acceptor capacity check
        self.metrics.conns_admitted.inc();
        // `add`/`sub` commute, so the acceptor and the I/O threads can
        // never leave the gauge at a stale value (a `set(live)` could).
        self.metrics.conns_live.add(1);
        self.trace.record(TraceEventKind::Accept, id, live as u64);
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

    /// Pops every I/O thread out of `Poller::wait`.
    fn wake_all(&self) {
        self.wakers.iter().for_each(wake);
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
    /// The Prometheus listener, bound at `bind` time so a bad
    /// `--prom-addr` fails up front.
    prom_listener: Option<TcpListener>,
    local_addr: SocketAddr,
    prom_addr: Option<SocketAddr>,
    /// The read end of each I/O thread's wake pipe.
    wake_rx: Vec<WakeEnd>,
    shared: Arc<Shared>,
}

impl Server {
    /// Validates the config, prepares the spill tree (one `shard-<k>/`
    /// log per worker), spawns the fleet workers and binds the
    /// listener. Refuses a non-empty or layout-incompatible
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
        // An idle time-out inside the lateness window would evict live
        // sessions every tick and drain the very points the window
        // exists to accept.
        if config.evict_idle > 0.0 && config.evict_idle <= config.lateness {
            return Err(NetError::Config(format!(
                "evict-idle ({} s) must exceed lateness ({} s)",
                config.evict_idle, config.lateness
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
        let fleet_metrics = FleetMetrics::new(&registry).with_trace(trace.clone());
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
            },
            move || FastBqsCompressor::new(bqs_config),
            |shard| SubTeeSink {
                inner: SpillSink::with_metrics(
                    // bqs-analyze: allow(no-unwrap-in-lib) — invariant: one log per shard
                    logs[shard].take().expect("one log per shard"),
                    spill_metrics.clone(),
                ),
                hub: Arc::clone(&sink_hub),
            },
            fleet_metrics,
        );
        // Both listeners are non-blocking: I/O thread 0 accepts on them
        // from its readiness loop.
        let listen = |addr: &str| {
            let listener = TcpListener::bind(addr)
                .and_then(|l| l.set_nonblocking(true).map(|()| l))
                .map_err(|e| NetError::io(format!("bind {addr}"), e))?;
            let local = listener
                .local_addr()
                .map_err(|e| NetError::io("local_addr", e))?;
            Ok::<_, NetError>((listener, local))
        };
        let (listener, local_addr) = listen(&config.addr)?;
        let (prom_listener, prom_addr) =
            config.prom_addr.as_deref().map(listen).transpose()?.unzip();
        let (wakers, wake_rx) = (0..config.io_threads)
            .map(|_| wake_pair())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| NetError::io("wake pipe", e))?
            .into_iter()
            .unzip();
        Ok(Server {
            listener,
            prom_listener,
            local_addr,
            prom_addr,
            wake_rx,
            shared: Arc::new(Shared {
                fleet: Mutex::new(Some(FleetState {
                    fleet,
                    reorder: FleetReorder::new(config.lateness),
                    backfill: HashMap::new(),
                })),
                engine: Mutex::new(engine),
                hub,
                spill: config.spill,
                workers: config.workers,
                max_connections: config.max_connections,
                fallback_poller: config.fallback_poller,
                wakers,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                appended_points: AtomicU64::new(0),
                fleet_joined: AtomicBool::new(false),
                started: bqs_obs::now(),
                metrics: ServerMetrics::new(&registry),
                trace,
                evict_idle: config.evict_idle,
                lateness: config.lateness,
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The Prometheus responder's bound address (resolves port 0);
    /// `None` unless the config set [`ServerConfig::prom_addr`].
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.prom_addr
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
    /// and reports what happened.
    ///
    /// Transient accept failures (a client resetting mid-handshake, fd
    /// pressure) are retried; only a *persistently* failing listener
    /// (≈10 s of consecutive errors) stops the server — and even then
    /// it drains, spills and reports instead of abandoning the fleet.
    pub fn run(self) -> Result<ServeReport, NetError> {
        let shared = self.shared;
        // Nothing is ever sent: each I/O thread drops its sender once it
        // holds no request connection at shutdown, which closes the
        // channel when the last one is done.
        let (requests_tx, requests_done) = std::sync::mpsc::channel::<()>();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..shared.wakers.len())
            .map(|_| std::sync::mpsc::channel::<Conn>())
            .unzip();
        // I/O thread 0 listens, and hands every admitted connection out
        // round-robin over the admission channels, itself first.
        let mut acceptor = Some(Acceptor {
            client: self.listener,
            prom: self.prom_listener,
            senders,
            next: 0,
            last_id: 0,
            paused_until: Some(bqs_obs::now()),
            failing_since: None,
        });
        let mut handles = Vec::with_capacity(shared.wakers.len());
        for (i, (rx, wake_rx)) in receivers.into_iter().zip(self.wake_rx).enumerate() {
            let thread_shared = Arc::clone(&shared);
            let requests = requests_tx.clone();
            let acceptor = acceptor.take();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bqs-io-{i}"))
                    .spawn(move || io_loop(rx, wake_rx, requests, acceptor, &thread_shared))
                    .map_err(|e| NetError::io("spawn io thread", e))?,
            );
        }
        drop(requests_tx);
        // Every request connection is closed: join the fleet while the
        // I/O threads keep delivering to their subscribers, then let
        // them send each subscriber its tail and `SubEnd`.
        let _ = requests_done.recv();
        let joined = join_fleet(&shared);
        shared.fleet_joined.store(true, Ordering::SeqCst); // ordering: seqcst publishes the join to the I/O threads' end-of-stream check
        shared.wake_all();
        for handle in handles {
            let _ = handle.join();
        }
        let (mut report, backfill) = joined?;
        // Buffered backfill batches become flagged records in the same
        // shard logs the tracks' live data spilled to, *before* the
        // manifest is rebuilt so its spans cover them.
        if !backfill.is_empty() {
            write_backfill(&shared.spill, shared.workers, &backfill)?;
        }
        report.manifest_shards = Manifest::rebuild(&shared.spill)?.shards.len();
        Ok(report)
    }
}

/// Releases whatever the admission table still parks, joins the fleet
/// and finishes every spill sink. Runs once every request connection is
/// closed, so the served totals are final.
fn join_fleet(shared: &Shared) -> Result<(ServeReport, Backfill), NetError> {
    let mut state = shared
        .lock_fleet()
        .take()
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: joined once, after the drain
        .expect("the fleet joins once, after the drain");
    for (track, points) in state.reorder.drain_all() {
        state.fleet.submit_run(track, points);
    }
    shared.metrics.reorder_depth.set(0);
    let join = state.fleet.join();
    if let Some(failure) = join.failures.first() {
        return Err(NetError::Fleet {
            shard: failure.shard,
            panic: failure.panic.clone(),
            sessions: failure.tracks.len(),
        });
    }
    let mut spilled = Vec::new();
    for shard in join.shards {
        let reports = shard.sink.inner.finish();
        spilled.extend(reports.map_err(|failure| NetError::Spill(failure.to_string()))?);
    }
    let m = &shared.metrics;
    let report = ServeReport {
        connections: m.conns_admitted.get(),
        rejected_connections: m.conns_rejected.get(),
        frames: m.frames.get(),
        appended_points: shared.appended_points.load(Ordering::Relaxed), // ordering: relaxed final read; every request connection has closed
        late_points: m.late_accepted.get(),
        backfill_points: m.backfilled.get(),
        too_late_points: m.too_late.get(),
        spilled_sessions: spilled.len(),
        spilled_points: spilled.iter().map(|r| r.points).sum(),
        spilled_bytes: spilled.iter().map(|r| r.bytes).sum(),
        stats: join.stats,
        manifest_shards: 0,
    };
    Ok((report, state.backfill))
}

/// Writes the buffered backfill batches as flagged records, each into
/// the shard log its track's live data spilled to (the fleet's worker
/// routing), reopening the logs the spill sinks just closed.
fn write_backfill(
    spill: &std::path::Path,
    workers: usize,
    backfill: &Backfill,
) -> Result<(), NetError> {
    let mut by_shard: HashMap<usize, Vec<TrackId>> = HashMap::new();
    for &track in backfill.keys() {
        by_shard
            .entry(worker_of(track, workers))
            .or_default()
            .push(track);
    }
    for (shard, mut tracks) in by_shard {
        tracks.sort_unstable();
        let (mut log, _) = TrajectoryLog::open(shard_dir(spill, shard), LogConfig::default())?;
        for track in tracks {
            for batch in &backfill[&track] {
                log.append_backfill(track, batch)?;
            }
        }
    }
    Ok(())
}

/// One idle-eviction pass: finalises (through the normal spill path)
/// every session that has not pushed for `evict_idle` stream-time
/// seconds, measured against the highest timestamp accepted so far.
/// A track whose reorder horizon has fallen that far behind hands its
/// parked tail to its session first, so the tail is evicted (and
/// queryable) with the session instead of outliving it.
fn evict_tick(shared: &Shared) {
    let mut guard = shared.lock_fleet();
    let Some(state) = guard.as_mut() else {
        return; // already finalizing
    };
    let Some(now) = state.reorder.clock() else {
        return; // nothing admitted yet
    };
    for (track, points) in state.reorder.drain_idle(now - shared.evict_idle) {
        state.fleet.submit_run(track, points);
    }
    shared
        .metrics
        .reorder_depth
        .set(state.reorder.depth() as u64);
    state.fleet.evict_idle(now);
}

/// I/O thread 0's listening side: the client and Prometheus listeners,
/// and each I/O thread's admission channel (dropped at shutdown).
struct Acceptor {
    client: TcpListener,
    prom: Option<TcpListener>,
    senders: Vec<Sender<Conn>>,
    /// The I/O thread the next admitted client connection goes to.
    next: usize,
    /// The last connection trace id handed out; ids start at 1 (0 marks
    /// events tied to no connection).
    last_id: u64,
    /// When the listeners join the poller (again): at once when the
    /// thread starts, [`ACCEPT_PAUSE`] after a failed accept.
    paused_until: Option<Instant>,
    /// When the client listener's current streak of failures began.
    failing_since: Option<Instant>,
}

impl Acceptor {
    /// Registers the listeners with the poller once a pause is over
    /// (re-adding one still registered fails harmlessly); at shutdown,
    /// takes them out for good.
    fn listen(&mut self, poller: &Poller, shutdown: bool) {
        if !shutdown && self.paused_until.is_none_or(|at| bqs_obs::now() < at) {
            return;
        }
        self.paused_until = None;
        let prom = self.prom.iter().map(|l| (l, PROM_KEY));
        for (listener, key) in std::iter::once((&self.client, LISTEN_KEY)).chain(prom) {
            let _ = match shutdown {
                true => poller.delete(source_of(listener)),
                false => poller.add(source_of(listener), Event::readable(key)),
            };
        }
    }

    /// Accepts on the listener polled under `key` until it would block: a
    /// client goes to the next I/O thread in turn (or is refused over
    /// capacity), a scrape stays here. A failed accept takes the listener
    /// out of the poller for [`ACCEPT_PAUSE`]; a client listener failing
    /// for [`ACCEPT_GIVE_UP`] starts the shutdown drain.
    fn accept(&mut self, key: usize, poller: &Poller, shared: &Shared) {
        // ordering: seqcst pairs with the Shutdown request's store
        while !shared.shutdown.load(Ordering::SeqCst) {
            let listener = match (key, &self.prom) {
                (PROM_KEY, Some(prom)) => prom,
                _ => &self.client,
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    let now = bqs_obs::now();
                    let _ = poller.delete(source_of(listener));
                    self.paused_until = Some(now + ACCEPT_PAUSE);
                    if key == LISTEN_KEY
                        && now >= *self.failing_since.get_or_insert(now) + ACCEPT_GIVE_UP
                    {
                        // The listener is gone for good: stop accepting
                        // but still drain and make everything durable.
                        shared.shutdown.store(true, Ordering::SeqCst); // ordering: seqcst so every I/O thread agrees the server is shutting down
                        shared.wake_all();
                    }
                    return;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if key == PROM_KEY {
                let _ = self.senders[0].send(Conn::new(0, stream, Role::Scrape));
                continue;
            }
            // ordering: seqcst capacity check pairs with conn_admitted/conn_closed
            if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
                reject_over_capacity(&stream, shared);
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.last_id += 1;
            shared.conn_admitted(self.last_id);
            let conn = Conn::new(self.last_id, stream, Role::Requests);
            if self.senders[self.next].send(conn).is_err() {
                // The io thread is gone (it never exits before shutdown
                // unless it panicked): undo and drop.
                shared.conn_closed();
            } else {
                wake(&shared.wakers[self.next]);
            }
            self.next = (self.next + 1) % self.senders.len();
        }
        if key == LISTEN_KEY {
            self.failing_since = None;
        }
    }
}

/// Answers an over-the-cap accept with one typed error frame in one
/// non-blocking write, so a client in `connect` fails instead of hanging.
fn reject_over_capacity(mut stream: &TcpStream, shared: &Shared) {
    shared.conn_rejected();
    let frame = reply_frame(&Reply::Error {
        code: ErrorCode::OverCapacity,
        message: format!(
            "connection table full ({} connections); retry later",
            shared.max_connections
        ),
    });
    if let Ok(n) = stream.write(&frame) {
        shared.metrics.bytes_out.add(n as u64);
    }
}

/// Pops an I/O thread out of `Poller::wait`. A full pipe already holds
/// a wake-up, so a failed write loses nothing.
fn wake(mut waker: &WakeEnd) {
    let _ = waker.write(&[1]);
}

/// What a connection carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Framed requests, each answered by one reply frame.
    Requests,
    /// Hub subscription `id`'s pushed frames; what the client sends is
    /// discarded.
    Subscriber(u64),
    /// One HTTP/1.1 Prometheus scrape on I/O thread 0, closed after its
    /// response or [`SCRAPE_TIMEOUT`]; it takes no connection slot and
    /// counts in no `net_connections_*` or `net_bytes_*` metric.
    Scrape,
}

/// One connection's state inside an I/O thread.
struct Conn {
    /// The server-wide trace id assigned at admission (0 for a scrape).
    id: u64,
    stream: TcpStream,
    role: Role,
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
}

impl Conn {
    fn new(id: u64, stream: TcpStream, role: Role) -> Conn {
        Conn {
            id,
            stream,
            role,
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: Vec::new(),
            outpos: 0,
            greeted: false,
            close_after_flush: false,
            want_write: false,
            eof: false,
            pending: Vec::new(),
        }
    }

    /// Nothing half-read, nothing half-written: safe to close at a
    /// shutdown drain point.
    fn at_boundary(&self) -> bool {
        self.consumed == self.inbuf.len() && self.outpos == self.outbuf.len()
    }

    /// Queued reply bytes are under the high watermark.
    fn has_room(&self) -> bool {
        self.outbuf.len() - self.outpos < OUT_HIGH_WATERMARK
    }

    fn is_subscriber(&self) -> bool {
        matches!(self.role, Role::Subscriber(_))
    }
}

/// One I/O thread: admit connections from `rx`, poll readiness, parse
/// frames, serve requests, deliver its subscribers' kept points, flush —
/// and, on thread 0 (the one given the `acceptor`), accept, serve scrapes
/// and run the idle-eviction tick. At shutdown it drains its request
/// connections and drops `requests`, `Server::run`'s cue to join the
/// fleet; then every subscriber gets its tail and `SubEnd`.
fn io_loop(
    rx: Receiver<Conn>,
    wake_rx: WakeEnd,
    requests: Sender<()>,
    mut acceptor: Option<Acceptor>,
    shared: &Shared,
) {
    let poller = if shared.fallback_poller {
        Poller::with_fallback()
    } else {
        Poller::new().unwrap_or_else(|_| Poller::with_fallback())
    };
    let _ = poller.add(source_of(&wake_rx), Event::readable(WAKE_KEY));
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = 0usize;
    // Open scrapes in accept order, with the tick each expires at.
    let mut scrapes: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = ColumnarBatch::new();
    let mut rx_open = true;
    let mut requests = Some(requests);
    let mut drain_deadline: Option<Instant> = None;
    let mut end_deadline: Option<Instant> = None;
    let mut next_evict =
        (acceptor.is_some() && shared.evict_idle > 0.0).then(|| bqs_obs::now() + EVICT_TICK);
    loop {
        // Admit whatever the acceptor queued.
        while rx_open {
            match rx.try_recv() {
                Ok(conn) => {
                    let key = next_key;
                    next_key += 1;
                    if conn.role == Role::Scrape {
                        scrapes.push_back((bqs_obs::now() + SCRAPE_TIMEOUT, key));
                    }
                    let added = poller.add(source_of(&conn.stream), Event::readable(key));
                    conns.insert(key, conn);
                    if added.is_err() {
                        close_conn(&poller, &mut conns, key, shared);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    rx_open = false;
                    break;
                }
            }
        }
        while let Some(&(deadline, key)) = scrapes.front() {
            if bqs_obs::now() < deadline {
                break;
            }
            scrapes.pop_front();
            close_conn(&poller, &mut conns, key, shared);
        }

        let shutting = shared.shutdown.load(Ordering::SeqCst); // ordering: seqcst so drain decisions agree across workers
        if let Some(acceptor) = acceptor.as_mut() {
            acceptor.listen(&poller, shutting);
        }
        if shutting {
            acceptor = None; // the listeners close, and every admission channel
            let now = bqs_obs::now();
            let expired = now >= *drain_deadline.get_or_insert(now + DRAIN_GRACE);
            // Final service pass: frames already in flight (kernel
            // buffers included) still complete; then each request
            // connection closes at a frame boundary — or every one, once
            // the grace expires. Subscribers stay.
            let keys: Vec<usize> = conns.keys().copied().collect();
            for key in keys {
                // bqs-analyze: allow(no-unwrap-in-lib) — invariant: key from this map
                let conn = conns.get_mut(&key).expect("key from this map");
                let dead = service_conn(conn, shared, &mut scratch);
                if dead || !conn.is_subscriber() && (conn.at_boundary() || expired) {
                    close_conn(&poller, &mut conns, key, shared);
                }
            }
            if !rx_open && conns.values().all(Conn::is_subscriber) {
                drop(requests.take()); // no request connection is left
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
            match (ev.key, acceptor.as_mut()) {
                (WAKE_KEY, _) => drain_wake(&wake_rx),
                (LISTEN_KEY | PROM_KEY, Some(acceptor)) => acceptor.accept(ev.key, &poller, shared),
                (key, _) => {
                    let Some(conn) = conns.get_mut(&key) else {
                        continue;
                    };
                    if service_conn(conn, shared, &mut scratch) {
                        close_conn(&poller, &mut conns, key, shared);
                    } else {
                        set_write_interest(&poller, key, conn);
                    }
                }
            }
        }
        if shared.hub.any() {
            deliver_subscribers(&poller, &mut conns, shared, &mut end_deadline);
        }
        shared.metrics.io_tick_us.record(elapsed_us(tick_start));
        if next_evict.is_some_and(|at| bqs_obs::now() >= at) {
            evict_tick(shared);
            next_evict = Some(bqs_obs::now() + EVICT_TICK);
        }
    }
}

fn drain_wake(mut wake_rx: &WakeEnd) {
    let mut buf = [0u8; 64];
    while matches!(wake_rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// Keeps write interest registered exactly while replies are pending.
fn set_write_interest(poller: &Poller, key: usize, conn: &mut Conn) {
    let pending = conn.outpos < conn.outbuf.len();
    if pending != conn.want_write {
        conn.want_write = pending;
        let interest = if pending {
            Event::all(key)
        } else {
            Event::readable(key)
        };
        let _ = poller.modify(source_of(&conn.stream), interest);
    }
}

fn close_conn(poller: &Poller, conns: &mut HashMap<usize, Conn>, key: usize, shared: &Shared) {
    if let Some(conn) = conns.remove(&key) {
        let _ = poller.delete(source_of(&conn.stream));
        if let Role::Subscriber(id) = conn.role {
            shared.hub.remove(id);
        }
        if conn.role != Role::Scrape {
            shared.conn_closed();
        }
    }
}

/// Moves every subscriber's queued kept points into its out buffer and
/// flushes it; once the fleet has joined, ends each stream with
/// `SubEnd`. Closes a subscriber that outgrew its queue, failed a
/// write, or has not taken its tail within [`DRAIN_GRACE`] of the join.
fn deliver_subscribers(
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    shared: &Shared,
    end_deadline: &mut Option<Instant>,
) {
    // ordering: seqcst pairs with the store after the fleet joins; every kept point is queued by then
    let ended = shared.fleet_joined.load(Ordering::SeqCst);
    let now = bqs_obs::now();
    let expired = ended && now >= *end_deadline.get_or_insert(now + DRAIN_GRACE);
    let mut closing = Vec::new();
    for (&key, conn) in conns.iter_mut() {
        let Role::Subscriber(id) = conn.role else {
            continue;
        };
        if expired || pull_sub(conn, id, &shared.hub, ended).is_err() || flush_conn(conn, shared) {
            closing.push(key);
        } else {
            set_write_interest(poller, key, conn);
        }
    }
    for key in closing {
        close_conn(poller, conns, key, shared);
    }
}

/// Moves subscription `id`'s queued batches into `conn`'s out buffer as
/// `SubPoints` frames while the buffer has room; once `ended` and the
/// queue is empty, queues `SubEnd` and the close.
fn pull_sub(conn: &mut Conn, id: u64, hub: &SubHub, ended: bool) -> Result<(), Overflowed> {
    loop {
        let room = !conn.close_after_flush && conn.has_room();
        let Some((track, points)) = hub.pull(id, room)? else {
            if ended && room {
                queue_reply(conn, &Reply::SubEnd);
                conn.close_after_flush = true;
            }
            return Ok(());
        };
        queue_reply(conn, &Reply::SubPoints { track, points });
    }
}

/// Reads, parses, serves and flushes one connection as far as its
/// socket allows right now. Returns `true` when the connection is done
/// (transport failure, or close-after-flush with an empty out buffer).
fn service_conn(conn: &mut Conn, shared: &Shared, scratch: &mut ColumnarBatch) -> bool {
    // 1. Pull available bytes — unless queued replies are over the
    // watermark (a client that writes but never reads): level-triggered
    // polling re-reports the socket once the replies drain. A
    // subscriber's bytes are read ungated and discarded, so its EOF is
    // seen at once.
    let discard = conn.is_subscriber();
    if !conn.eof && !conn.close_after_flush && (discard || conn.has_room()) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut read_this_tick = 0usize;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if !discard {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                    }
                    read_this_tick += n;
                    if conn.role != Role::Scrape {
                        shared.metrics.bytes_in.add(n as u64);
                    }
                    if read_this_tick >= MAX_TICK_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true, // transport died
            }
        }
    }

    // 2. Serve every complete frame in the buffer — or a scrape's
    // request, once its head is complete.
    if conn.role == Role::Scrape && !conn.close_after_flush {
        answer_scrape(conn, shared);
    }
    while !conn.close_after_flush && conn.role == Role::Requests {
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
                        // Kept points queue behind the `Subscribed` ack;
                        // pipelined leftovers are never served.
                        conn.role = Role::Subscriber(shared.hub.add(track, bbox));
                        conn.consumed = conn.inbuf.len();
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
    flush_conn(conn, shared)
}

/// Queues a scrape's response and the close once its HTTP request head
/// is complete: `GET /metrics` gets the Prometheus text exposition
/// (0.0.4), anything else a 404. A head that does not end within
/// [`MAX_HTTP_HEAD`] bytes (or before the peer's EOF) gets no reply.
fn answer_scrape(conn: &mut Conn, shared: &Shared) {
    let head = &conn.inbuf[..conn.inbuf.len().min(MAX_HTTP_HEAD)];
    if !head.windows(4).any(|w| w == b"\r\n\r\n") {
        conn.close_after_flush = conn.inbuf.len() >= MAX_HTTP_HEAD;
        return;
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = std::str::from_utf8(line).unwrap_or("");
    let target = line.strip_prefix("GET ").and_then(|r| r.split(' ').next());
    let (status, body) = if target == Some("/metrics") {
        ("200 OK", shared.metrics.registry.render_prometheus())
    } else {
        ("404 Not Found", String::new())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    conn.outbuf.extend_from_slice(response.as_bytes());
    conn.consumed = conn.inbuf.len();
    conn.close_after_flush = true;
}

/// Flushes as much of the out queue as the socket takes. Returns `true`
/// when the connection is done (transport failure, or close-after-flush
/// with an empty out buffer).
fn flush_conn(conn: &mut Conn, shared: &Shared) -> bool {
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.outpos += n;
                if conn.role != Role::Scrape {
                    shared.metrics.bytes_out.add(n as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
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
    conn.outbuf.extend_from_slice(&reply_frame(reply));
}

/// Frames `reply` for the wire. A reply that cannot be encoded (a codec
/// invariant violated by query output — never expected) or whose payload
/// exceeds [`MAX_FRAME_BYTES`] (every reader refuses such a frame)
/// degrades to a typed error frame; the connection stays usable.
fn reply_frame(reply: &Reply) -> Vec<u8> {
    let error = |code, message| {
        Reply::Error { code, message }
            .encode()
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: error replies always encode
            .expect("error replies always encode")
    };
    let payload = match reply.encode() {
        Ok(payload) if payload.len() > MAX_FRAME_BYTES => error(
            ErrorCode::BadRequest,
            format!(
                "answer of {} B exceeds the {MAX_FRAME_BYTES} B frame limit; narrow the query",
                payload.len()
            ),
        ),
        Ok(payload) => payload,
        Err(e) => error(ErrorCode::Internal, format!("cannot encode reply: {e}")),
    };
    frame_to_vec(&payload)
}

/// One reader's verdict after handling a frame.
enum After {
    /// Keep serving this connection.
    Continue,
    /// Close this connection (frame-level failure or shutdown).
    Close,
    /// Register this connection with the subscriber hub: the
    /// request/reply conversation is over, and the socket only carries
    /// pushed frames from here on.
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
/// contiguous run, then the columns submitted as one run, in one
/// channel send, without a row copy.
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
    // The batch must be sorted within itself under any lateness. At
    // `W = 0` the table's horizon is the track's watermark, so a batch
    // reaching behind it breaks the codec's time-order rule and is that
    // rule's bad request; under a window its start may fall up to `W`
    // behind, and the table refuses anything older as too late.
    let floor = match state.reorder.watermark(track) {
        Some(watermark) if shared.lateness == 0.0 => watermark,
        _ => f64::NEG_INFINITY,
    };
    if let Err(message) = validate_times(&batch.t, floor) {
        // Semantically invalid but well-framed: the batch is rejected
        // whole and the connection survives.
        return refused(ErrorCode::BadRequest, message);
    }
    let admitted = admit(state, track, batch.iter(), shared);
    drop(guard);
    admission_reply(
        admitted,
        n,
        shared,
        conn,
        Reply::Appended { track, points: n },
    )
}

/// Admits a run of `track` through the admission table and submits
/// what it releases, in timestamp order. Atomic: the whole run is
/// admitted, or — when any point falls behind the horizon — refused
/// without side effects.
fn admit(
    state: &mut FleetState,
    track: u64,
    run: impl Iterator<Item = TimedPoint> + Clone,
    shared: &Shared,
) -> Result<(), TooLate> {
    let admitted = state.reorder.admit(track, run)?;
    if admitted.late > 0 {
        shared.metrics.late_accepted.add(admitted.late);
    }
    shared.metrics.reorder_depth.set(admitted.depth as u64);
    // Backpressure: this send blocks (fleet lock held, sockets unread)
    // when the track's worker shard is saturated.
    match admitted.released {
        Released::Run(run) => state.fleet.submit_run(track, run),
        Released::Buffered(points) if points.len() > 0 => state.fleet.submit_run(track, points),
        Released::Buffered(_) => {}
    }
    Ok(())
}

/// The reply to an admission, sent after the fleet lock is released:
/// `ok` once the run is in, a `too-late` error for a refused one.
fn admission_reply(
    admitted: Result<(), TooLate>,
    n: u64,
    shared: &Shared,
    conn: u64,
    ok: Reply,
) -> (Reply, After) {
    match admitted {
        Ok(()) => {
            shared.appended_points.fetch_add(n, Ordering::Relaxed); // ordering: relaxed stat counter, read after join()
            shared.trace.record(TraceEventKind::FleetSubmit, conn, n);
            (ok, After::Continue)
        }
        Err(e) => {
            shared.metrics.too_late.add(n);
            refused(ErrorCode::TooLate, e.to_string())
        }
    }
}

/// Serves an `AppendLate` request: the admission table's late path, or
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
        return refused(ErrorCode::BadRequest, e.to_string());
    }
    if points.is_empty() {
        return (Reply::LateAppended { track, points: 0 }, After::Continue);
    }
    if !backfill && shared.lateness == 0.0 {
        let message = "server accepts no late points (started with --lateness 0); \
                       use the backfill path";
        return refused(ErrorCode::BadRequest, message.to_string());
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
    let admitted = admit(state, track, points.iter().copied(), shared);
    drop(guard);
    admission_reply(
        admitted,
        n,
        shared,
        conn,
        Reply::LateAppended { track, points: n },
    )
}

/// The reply to any request but `Hello` on a connection that has not
/// completed the handshake.
fn handshake_refused() -> (Reply, After) {
    (
        Reply::Error {
            code: ErrorCode::BadRequest,
            message: "expected Hello as the first message on a connection".to_string(),
        },
        After::Close,
    )
}

fn handle_request(
    request: Request,
    shared: &Shared,
    greeted: &mut bool,
    conn: u64,
) -> (Reply, After) {
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
        // The handshake gate: only `Hello` is served before it passes.
        // Past it, `handle_payload` serves every `Append` on the
        // columnar path, so one that reaches here came before `Hello`.
        Request::Append { .. } => handshake_refused(),
        _ if !*greeted => handshake_refused(),
        Request::Flush => {
            let mut guard = shared.lock_fleet();
            let Some(state) = guard.as_mut() else {
                return (shutting_down_error(), After::Close);
            };
            state.fleet.flush();
            (Reply::Flushed, After::Continue)
        }
        Request::Query(spec) if has_nan(&[spec.from, spec.to], spec.bbox) => nan_refused(),
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
        Request::Subscribe { bbox, .. } if has_nan(&[], bbox) => nan_refused(),
        Request::Subscribe { track, bbox } => {
            // The acknowledgement is queued like any reply; the runtime
            // registers the subscription right behind it, so the client
            // never sees pushed frames before `Subscribed`.
            (Reply::Subscribed, After::Subscribe { track, bbox })
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst); // ordering: seqcst publishes shutdown before the wake-ups below
            shared.wake_all(); // every I/O thread starts its drain now
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

/// A typed error reply to one request; the connection survives it.
fn refused(code: ErrorCode, message: String) -> (Reply, After) {
    (Reply::Error { code, message }, After::Continue)
}

/// Whether a `Query`/`Subscribe` filter holds a NaN: a NaN time bound
/// matches no point, and a NaN corner would collapse the box to a line.
fn has_nan(bounds: &[f64], bbox: Option<[f64; 4]>) -> bool {
    bounds
        .iter()
        .chain(bbox.iter().flatten())
        .any(|v| v.is_nan())
}

fn nan_refused() -> (Reply, After) {
    let message = "a NaN filter bound matches nothing; use ±inf for an open bound";
    refused(ErrorCode::BadRequest, message.to_string())
}

fn shutting_down_error() -> Reply {
    Reply::Error {
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_tlog::TrackSlice;

    #[test]
    fn an_answer_over_the_frame_limit_becomes_a_readable_error() {
        // ~1M points of random coordinates: past the 16 MiB limit
        // once encoded, since random bits defeat the delta codec.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64
        };
        let points = (0..1_000_000)
            .map(|i| TimedPoint::new(next(), next(), f64::from(i)))
            .collect();
        let reply = Reply::QueryResult(QueryReport {
            slices: vec![TrackSlice { track: 1, points }],
            shards_pruned: 0,
            hot_points: 0,
            candidate_records: 0,
            decoded_records: 0,
        });
        let size = reply.encode().unwrap().len();
        assert!(size > MAX_FRAME_BYTES, "test answer is only {size} B");

        let frame = reply_frame(&reply);
        let (payload, used) = decode_frame(&frame).expect("the client accepts the frame");
        assert_eq!(used, frame.len());
        assert_eq!(
            Reply::decode(&payload).unwrap(),
            Reply::Error {
                code: ErrorCode::BadRequest,
                message: format!(
                    "answer of {size} B exceeds the 16777216 B frame limit; narrow the query"
                ),
            }
        );
    }

    #[test]
    fn the_subscriber_backlog_gauge_sums_every_subscriber() {
        let registry = MetricsRegistry::new();
        let hub = SubHub::new(&registry);
        for track in [1, 2] {
            hub.add(Some(track), None);
        }
        for i in 0..10 {
            hub.publish(1, TimedPoint::new(f64::from(i), 0.0, f64::from(i)));
        }
        hub.publish(2, TimedPoint::new(0.0, 0.0, 0.0));
        // Ten points wait for track 1's subscriber, one for track 2's.
        assert_eq!(registry.gauge("net_sub_queue_points").get(), 11);
    }

    #[test]
    fn a_subscriber_that_outgrows_its_queue_is_dropped_never_buffered() {
        let registry = MetricsRegistry::new();
        let hub = SubHub::new(&registry);
        let queued = registry.gauge("net_sub_queue_points");
        let id = hub.add(None, None);
        let point = |i: usize| TimedPoint::new(0.0, 0.0, i as f64);
        for i in 0..SUB_QUEUE_CAP {
            hub.publish(7, point(i));
        }
        // Only the connection's room gates a pull; a full one takes
        // nothing and still hears the verdict.
        assert!(matches!(hub.pull(id, false), Ok(None)));
        hub.publish(7, point(SUB_QUEUE_CAP));
        assert!(hub.pull(id, true).is_err());
        assert_eq!(queued.peak(), SUB_QUEUE_CAP as u64);
        assert_eq!(queued.get(), 0, "an overflowed queue holds nothing");
        hub.remove(id);
        assert_eq!(registry.gauge("net_subscribers_live").get(), 0);
        assert!(!hub.any());
    }
}
