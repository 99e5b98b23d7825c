//! The multi-threaded sharded fleet runtime.
//!
//! A single [`FleetEngine`] drives every session on the caller's thread;
//! [`ParallelFleet`] scales the same engine across cores. The design is a
//! *shared-nothing shard-per-thread* pipeline:
//!
//! ```text
//!                     ┌──────────── worker shard 0 ────────────┐
//!  push(track, p) ──► │ bounded channel ─► FleetEngine ─► sink │
//!        │            └────────────────────────────────────────┘
//!   track_hash(track) ┌──────────── worker shard 1 ────────────┐
//!        └──────────► │ bounded channel ─► FleetEngine ─► sink │
//!                     └────────────────────────────────────────┘
//!                                      …                join()
//! ```
//!
//! * **Hash routing** — a track is assigned to [`worker_of`]`(track,
//!   workers)`, so every point of a stream is processed by exactly one
//!   worker, in submission order. Per-track output is therefore
//!   *identical* to the single-threaded engine (and to solo compression),
//!   regardless of the worker count — the equivalence property enforced
//!   by `tests/parallel_fleet.rs`.
//! * **Batched submission** — one buffer per worker is the only point
//!   transport: [`ParallelFleet::push`] fills it and ships it once it
//!   holds `BATCH_POINTS` (256), while [`ParallelFleet::submit_run`]
//!   appends a whole run and ships at once. Either way channel
//!   synchronisation is amortised over many points, and a track's points
//!   leave in submission order.
//! * **Backpressure** — each worker's channel holds `CHANNEL_BATCHES` (4)
//!   batches; when a worker falls behind, [`ParallelFleet::push`] blocks
//!   instead of buffering unboundedly.
//! * **Always metered** — every fleet counts into [`FleetMetrics`]
//!   handles: the caller's registry through
//!   [`ParallelFleet::with_metrics`], a private one through
//!   [`ParallelFleet::new`]. There is no unmetered data path.
//! * **Shared-nothing state** — each worker owns a private [`FleetEngine`]
//!   *and* a private [`FleetSink`] (built per shard by the sink factory),
//!   so the hot path takes no locks. A durable pipeline gives each shard
//!   its own spill log (`bqs-tlog`'s `SpillSink` over a `shard-<k>/`
//!   directory).
//! * **Merged join** — [`ParallelFleet::join`] closes the channels, drains
//!   every engine ([`FleetEngine::finish_all`]) and hands back each
//!   shard's [`SessionReport`]s, sink and [`DecisionStats`] plus the
//!   fleet-wide merge — the same per-session semantics as the serial
//!   engine.
//! * **Panic isolation** — a panicking worker poisons only its own shard.
//!   The routing side keeps the set of tracks per shard, so [`FleetJoin`]
//!   reports exactly which sessions died ([`ShardFailure`]) instead of
//!   silently dropping them; healthy shards join normally.
//!
//! ```
//! use bqs_core::fleet::{ParallelConfig, ParallelFleet, TrackId};
//! use bqs_core::{BqsConfig, FastBqsCompressor};
//! use bqs_geo::TimedPoint;
//! use std::collections::HashMap;
//!
//! let config = BqsConfig::new(10.0).unwrap();
//! let mut fleet = ParallelFleet::new(
//!     ParallelConfig { workers: 4, ..ParallelConfig::default() },
//!     move || FastBqsCompressor::new(config),
//!     |_shard| HashMap::<TrackId, Vec<TimedPoint>>::new(),
//! );
//! for i in 0..400u64 {
//!     // Eight interleaved trackers, routed to four workers.
//!     fleet.push(i % 8, TimedPoint::new(i as f64 * 4.0, 0.0, i as f64));
//! }
//! let join = fleet.join();
//! assert!(join.failures.is_empty());
//! assert_eq!(join.session_reports().len(), 8);
//! ```

use super::{
    track_hash, FleetConfig, FleetEngine, FleetSink, FleetSnapshot, FlushReason, SessionReport,
    TrackId,
};
use crate::stream::{DecisionStats, HasDecisionStats, StreamCompressor};
use bqs_geo::TimedPoint;
use bqs_obs::{elapsed_us, Counter, FlightRecorder, Gauge, MetricsRegistry, TraceEventKind};
use std::collections::HashSet;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::thread::JoinHandle;

/// The worker shard `track` is routed to in a fleet of `workers`.
///
/// Routes on the *high* 32 bits of [`track_hash`]. Keep it that way:
/// spill trees on disk are routed by this exact function (each worker
/// writes `shard-<k>/`, and `docs/format.md` specifies the rule), so any
/// other routing — low bits included — would send every existing tree's
/// tracks to the wrong shard.
pub fn worker_of(track: TrackId, workers: usize) -> usize {
    ((track_hash(track) >> 32) % workers.max(1) as u64) as usize
}

/// Points [`ParallelFleet::push`] buffers per worker before the buffer
/// ships as one channel message ([`ParallelFleet::submit_run`] ships at
/// once, whatever the fill): channel synchronisation amortised over a
/// batch, at a latency of at most one batch.
const BATCH_POINTS: usize = 256;

/// Bounded channel depth in batches per worker — the backpressure
/// window. Submission blocks once a worker is this far behind.
const CHANNEL_BATCHES: usize = 4;

/// Configuration of the parallel runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Worker shards (threads), minimum 1; any count, not only powers of
    /// two. A spill tree must be reopened with the count it was written
    /// with, since [`worker_of`] routes by it.
    pub workers: usize,
    /// Configuration for each worker's private [`FleetEngine`].
    pub fleet: FleetConfig,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fleet: FleetConfig::default(),
        }
    }
}

/// What one worker shard produced, returned by [`ParallelFleet::join`].
#[derive(Debug)]
pub struct ShardOutput<S> {
    /// The shard index (`0..workers`).
    pub shard: usize,
    /// One report per session the shard finalised (evictions included),
    /// in the engine's close order. [`FleetJoin::session_reports`] gives
    /// the deterministic (shard, track) ordering.
    pub reports: Vec<SessionReport>,
    /// Decision statistics merged across the shard's sessions.
    pub stats: DecisionStats,
    /// The shard's private sink, with everything it accepted.
    pub sink: S,
}

/// A worker shard that died mid-run, and exactly what died with it.
#[derive(Debug)]
pub struct ShardFailure {
    /// The shard index.
    pub shard: usize,
    /// The panic payload, stringified.
    pub panic: String,
    /// Every track that was routed to this shard (sorted): the sessions
    /// whose in-flight state is lost. Output spilled or emitted before
    /// the panic may survive in the shard's sink/log.
    pub tracks: Vec<TrackId>,
    /// Every point submitted for this shard over the whole run — the
    /// exact upper bound on the loss. How many had already been
    /// processed when the worker died is unknowable from outside (some
    /// may sit in the channel, and even processed points lose their
    /// in-flight session state to the panic), so the runtime reports
    /// the number it can count exactly rather than an undercount.
    pub submitted_points: u64,
}

/// One worker shard's submission-side counters, observable while the
/// fleet is still running (unlike [`ShardOutput`], which only exists
/// after [`ParallelFleet::join`]). Counted on the routing side, so the
/// numbers are exact even for a shard whose worker has died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounters {
    /// The shard index (`0..workers`).
    pub shard: usize,
    /// Distinct tracks routed to this shard so far.
    pub tracks: usize,
    /// Points submitted for this shard so far.
    pub submitted_points: u64,
    /// `true` once the shard's worker has panicked (the loss is
    /// reported in full at [`ParallelFleet::join`]).
    pub dead: bool,
}

/// The merged result of a parallel run.
#[derive(Debug)]
pub struct FleetJoin<S> {
    /// Healthy shards, ordered by shard index.
    pub shards: Vec<ShardOutput<S>>,
    /// Shards that panicked, ordered by shard index.
    pub failures: Vec<ShardFailure>,
    /// Decision statistics merged across all healthy shards.
    pub stats: DecisionStats,
}

impl<S> FleetJoin<S> {
    /// `true` when every shard joined cleanly.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every session report across all healthy shards, sorted by
    /// (shard, track) — a deterministic order independent of both thread
    /// scheduling and the engines' internal hash-map iteration.
    pub fn session_reports(&self) -> Vec<(usize, &SessionReport)> {
        let mut out: Vec<(usize, &SessionReport)> = self
            .shards
            .iter()
            .flat_map(|s| s.reports.iter().map(move |r| (s.shard, r)))
            .collect();
        out.sort_by_key(|(shard, r)| (*shard, r.track));
        out
    }
}

/// Metric handles for one fleet: per-shard submission counters,
/// channel-depth gauges and worker busy/idle time, plus fleet-wide
/// totals, all in one [`MetricsRegistry`]. Passed to
/// [`ParallelFleet::with_metrics`], which registers each shard's handles
/// as it spawns that shard, so every shard is metered whatever the
/// worker count. Every recording is a relaxed atomic, so instrumentation
/// never perturbs the data path.
///
/// Metric names are catalogued in `docs/observability.md`
/// (`fleet_submitted_points_total`, `fleet_shard<k>_channel_depth`, …).
#[derive(Clone, Debug)]
pub struct FleetMetrics {
    registry: MetricsRegistry,
    /// Flight recorder the shards emit `Evict` events into, when wired.
    trace: Option<FlightRecorder>,
}

/// One shard's handles; clones of the fleet-wide totals ride along so a
/// single recording updates both levels.
#[derive(Clone, Debug)]
struct ShardMetrics {
    submitted: Counter,
    kept: Counter,
    dropped: Counter,
    /// Data-plane messages in the shard's channel right now (+ peak).
    depth: Gauge,
    busy_us: Counter,
    idle_us: Counter,
    total_submitted: Counter,
    total_kept: Counter,
    total_dropped: Counter,
    /// Sessions reclaimed by idle eviction, fleet-wide.
    evicted: Counter,
    trace: Option<FlightRecorder>,
}

impl FleetMetrics {
    /// Handles that register in `registry`.
    pub fn new(registry: &MetricsRegistry) -> FleetMetrics {
        FleetMetrics {
            registry: registry.clone(),
            trace: None,
        }
    }

    /// Wires a flight recorder into every shard: each idle eviction then
    /// emits one `Evict` trace event alongside the counter bump.
    pub fn with_trace(mut self, trace: FlightRecorder) -> FleetMetrics {
        self.trace = Some(trace);
        self
    }

    /// Registers shard `k`'s handles (the fleet-wide totals re-attach
    /// to the same counters for every shard).
    fn shard(&self, k: usize) -> ShardMetrics {
        let registry = &self.registry;
        ShardMetrics {
            submitted: registry.counter(&format!("fleet_shard{k}_submitted_points_total")),
            kept: registry.counter(&format!("fleet_shard{k}_kept_points_total")),
            dropped: registry.counter(&format!("fleet_shard{k}_dropped_points_total")),
            depth: registry.gauge(&format!("fleet_shard{k}_channel_depth")),
            busy_us: registry.counter(&format!("fleet_shard{k}_busy_us_total")),
            idle_us: registry.counter(&format!("fleet_shard{k}_idle_us_total")),
            total_submitted: registry.counter("fleet_submitted_points_total"),
            total_kept: registry.counter("fleet_kept_points_total"),
            total_dropped: registry.counter("fleet_dropped_points_total"),
            evicted: registry.counter("fleet_evicted_sessions_total"),
            trace: self.trace.clone(),
        }
    }
}

impl ShardMetrics {
    fn on_submitted(&self, n: u64) {
        self.submitted.add(n);
        self.total_submitted.add(n);
    }

    fn on_dropped(&self, n: u64) {
        self.dropped.add(n);
        self.total_dropped.add(n);
    }
}

/// Counts points the engine keeps (emits into the sink) without
/// touching them — the data path through the inner sink is unchanged.
struct MeteredSink<S> {
    inner: S,
    metrics: ShardMetrics,
}

impl<S: FleetSink> FleetSink for MeteredSink<S> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.metrics.kept.inc();
        self.metrics.total_kept.inc();
        self.inner.accept(track, point);
    }

    fn session_closed(&mut self, report: &SessionReport) {
        if report.reason == FlushReason::Evicted {
            self.metrics.evicted.inc();
            if let Some(tr) = &self.metrics.trace {
                tr.record(TraceEventKind::Evict, 0, report.points);
            }
        }
        self.inner.session_closed(report);
    }

    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        self.inner.live_buffered()
    }

    fn backfill(&mut self, track: TrackId, points: &[TimedPoint]) {
        self.inner.backfill(track, points);
    }
}

enum Msg {
    Batch(Vec<(TrackId, TimedPoint)>),
    /// One backfill batch for the shard's sink, past the compressor.
    Backfill(TrackId, Vec<TimedPoint>),
    Evict(f64),
    /// Snapshot request: the worker answers with a consistent view of
    /// its engine + sink state after all previously queued work.
    Snapshot(SyncSender<FleetSnapshot>),
    /// Stats request: the worker answers with its engine's merged
    /// [`DecisionStats`] after all previously queued work.
    Stats(SyncSender<DecisionStats>),
}

struct WorkerOutput<S> {
    reports: Vec<SessionReport>,
    stats: DecisionStats,
    sink: S,
}

struct Worker<S> {
    sender: Option<SyncSender<Msg>>,
    handle: Option<JoinHandle<WorkerOutput<S>>>,
    buffer: Vec<(TrackId, TimedPoint)>,
    /// Tracks routed to this shard. A `HashSet` keeps the per-point
    /// cost O(1) on the submission hot path; the rare failure report
    /// sorts once in `join`.
    tracks: HashSet<TrackId>,
    /// Points routed to this shard over the run (exact, counted on the
    /// submission side — the basis of [`ShardFailure::submitted_points`]).
    submitted_points: u64,
    /// Set once a send fails: the worker panicked and its receiver is
    /// gone. Routing keeps working; delivery stops.
    dead: bool,
    /// Submission-side metric handles.
    metrics: ShardMetrics,
}

impl<S> Worker<S> {
    fn flush(&mut self) {
        if self.buffer.is_empty() || self.dead {
            self.buffer.clear();
            return;
        }
        let batch = std::mem::replace(&mut self.buffer, Vec::with_capacity(BATCH_POINTS));
        if let Err(Msg::Batch(lost)) = self.send_data(Msg::Batch(batch)) {
            self.metrics.on_dropped(lost.len() as u64);
        }
    }

    /// Sends one data-plane message (points or backfill), counted in the
    /// depth gauge while it waits. A failed send marks the worker dead
    /// and hands the message back.
    fn send_data(&mut self, msg: Msg) -> Result<(), Msg> {
        // bqs-analyze: allow(no-unwrap-in-lib) — sender is only taken in join(), which consumes self
        let sender = self.sender.as_ref().expect("sender lives until join");
        // The depth gauge rises *before* the send: the worker decrements
        // on receipt, and decrementing a not-yet-incremented gauge would
        // wrap it below zero.
        self.metrics.depth.add(1);
        sender.send(msg).map_err(|SendError(msg)| {
            self.dead = true;
            self.metrics.depth.sub(1);
            msg
        })
    }
}

fn worker_loop<C, CF, S>(
    rx: Receiver<Msg>,
    config: FleetConfig,
    factory: CF,
    sink: S,
    metrics: ShardMetrics,
) -> WorkerOutput<S>
where
    C: StreamCompressor + HasDecisionStats + Clone,
    CF: Fn() -> C,
    S: FleetSink,
{
    let mut engine = FleetEngine::new(config, factory);
    let mut sink = MeteredSink {
        inner: sink,
        metrics,
    };
    let mut reports = Vec::new();
    loop {
        let idle_from = bqs_obs::now();
        let Ok(msg) = rx.recv() else { break };
        if matches!(msg, Msg::Batch(_) | Msg::Backfill(..)) {
            sink.metrics.depth.sub(1);
        }
        sink.metrics.idle_us.add(elapsed_us(idle_from));
        let busy_from = bqs_obs::now();
        match msg {
            Msg::Batch(batch) => {
                for (track, p) in batch {
                    engine.push_tagged(track, p, &mut sink);
                }
            }
            Msg::Backfill(track, points) => sink.backfill(track, &points),
            Msg::Evict(now) => reports.extend(engine.evict_idle(now, &mut sink)),
            // The reply channel may be gone if the requester timed out;
            // a failed send just drops this shard from the snapshot.
            Msg::Snapshot(reply) => drop(reply.send(engine.snapshot(&sink))),
            Msg::Stats(reply) => drop(reply.send(engine.stats())),
        }
        sink.metrics.busy_us.add(elapsed_us(busy_from));
    }
    // Channel closed: the submission side called join (or was dropped).
    reports.extend(engine.finish_all(&mut sink));
    let stats = engine.stats();
    WorkerOutput {
        reports,
        stats,
        sink: sink.inner,
    }
}

/// A fleet of worker threads, each multiplexing the sessions routed to it
/// through a private [`FleetEngine`]. See the module docs for the design.
pub struct ParallelFleet<S> {
    workers: Vec<Worker<S>>,
}

impl<S: FleetSink + Send + 'static> ParallelFleet<S> {
    /// Spawns `config.workers` worker threads. `factory` builds one
    /// compressor per session (cloned into every worker); `sink_factory`
    /// builds each shard's private sink (called with the shard index,
    /// in order). The fleet counts into metrics of its own, in a
    /// registry nothing else reads; [`ParallelFleet::with_metrics`]
    /// chooses the registry.
    pub fn new<C, CF, SF>(config: ParallelConfig, factory: CF, sink_factory: SF) -> ParallelFleet<S>
    where
        C: StreamCompressor + HasDecisionStats + Clone + Send + 'static,
        CF: Fn() -> C + Clone + Send + 'static,
        SF: FnMut(usize) -> S,
    {
        let metrics = FleetMetrics::new(&MetricsRegistry::new());
        ParallelFleet::with_metrics(config, factory, sink_factory, metrics)
    }

    /// [`ParallelFleet::new`], counting into `metrics`: submission-side
    /// counters plus a counting sink wrapper around each shard's sink.
    pub fn with_metrics<C, CF, SF>(
        config: ParallelConfig,
        factory: CF,
        mut sink_factory: SF,
        metrics: FleetMetrics,
    ) -> ParallelFleet<S>
    where
        C: StreamCompressor + HasDecisionStats + Clone + Send + 'static,
        CF: Fn() -> C + Clone + Send + 'static,
        SF: FnMut(usize) -> S,
    {
        let workers = (0..config.workers.max(1))
            .map(|shard| {
                let (sender, rx) = sync_channel(CHANNEL_BATCHES);
                let fleet_config = config.fleet;
                let factory = factory.clone();
                let sink = sink_factory(shard);
                let shard_metrics = metrics.shard(shard);
                let worker_metrics = shard_metrics.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("bqs-fleet-{shard}"))
                    .spawn(move || worker_loop(rx, fleet_config, factory, sink, worker_metrics))
                    // bqs-analyze: allow(no-unwrap-in-lib) — invariant: spawn fleet worker thread
                    .expect("spawn fleet worker thread");
                Worker {
                    sender: Some(sender),
                    handle: Some(handle),
                    buffer: Vec::with_capacity(BATCH_POINTS),
                    tracks: HashSet::new(),
                    submitted_points: 0,
                    dead: false,
                    metrics: shard_metrics,
                }
            })
            .collect();
        ParallelFleet { workers }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shard `track` is routed to (see [`worker_of`]).
    pub fn shard_of(&self, track: TrackId) -> usize {
        worker_of(track, self.workers.len())
    }

    /// Submits the next point of `track`'s stream. Points of one track
    /// are processed in submission order by a single worker; blocks when
    /// that worker's channel is full (backpressure). If the worker has
    /// panicked, the point is still counted against the shard and the
    /// loss is reported at [`ParallelFleet::join`] instead of being
    /// silent.
    pub fn push(&mut self, track: TrackId, p: TimedPoint) {
        let shard = self.shard_of(track);
        let worker = &mut self.workers[shard];
        worker.tracks.insert(track);
        worker.submitted_points += 1;
        worker.metrics.on_submitted(1);
        if worker.dead {
            worker.metrics.on_dropped(1);
            return;
        }
        worker.buffer.push((track, p));
        if worker.buffer.len() >= BATCH_POINTS {
            worker.flush();
        }
    }

    /// Submits one track's time-ordered run and ships it at once: the
    /// track is routed once, the run joins the shard's buffer behind any
    /// points [`ParallelFleet::push`] left there, and the buffer leaves
    /// in one channel send. Equivalent to `points.into_iter().for_each(|p|
    /// self.push(track, p))` followed by a flush of that shard, byte for
    /// byte — including its ordering with interleaved pushes and its
    /// backpressure (the send blocks while the shard's channel is full).
    pub fn submit_run(&mut self, track: TrackId, points: impl IntoIterator<Item = TimedPoint>) {
        let shard = self.shard_of(track);
        let worker = &mut self.workers[shard];
        worker.tracks.insert(track);
        let n = if worker.dead {
            points.into_iter().count() as u64
        } else {
            let before = worker.buffer.len();
            worker.buffer.extend(points.into_iter().map(|p| (track, p)));
            (worker.buffer.len() - before) as u64
        };
        worker.submitted_points += n;
        worker.metrics.on_submitted(n);
        if worker.dead {
            worker.metrics.on_dropped(n);
        }
        worker.flush();
    }

    /// Sends one backfill batch of `track` straight to its worker's
    /// [`FleetSink::backfill`], blocking while the channel is full. It
    /// skips the compressor and per-track order, so the point buffer is
    /// not flushed first; channel order alone puts it ahead of any later
    /// [`ParallelFleet::snapshot`]. Not counted as submitted points; an
    /// empty batch, or one for a dead shard, is dropped.
    pub fn submit_backfill(&mut self, track: TrackId, points: Vec<TimedPoint>) {
        let shard = self.shard_of(track);
        let worker = &mut self.workers[shard];
        if !worker.dead && !points.is_empty() {
            let _ = worker.send_data(Msg::Backfill(track, points));
        }
    }

    /// Ships every partially filled batch now. Useful before a pause;
    /// `join` and `evict_idle` flush implicitly.
    pub fn flush(&mut self) {
        for worker in &mut self.workers {
            worker.flush();
        }
    }

    /// Asks every worker to finalise sessions idle past its engine's
    /// `idle_timeout` relative to `now` (stream time). Runs after all
    /// previously submitted points (per-worker order is preserved);
    /// eviction reports surface in [`ParallelFleet::join`].
    pub fn evict_idle(&mut self, now: f64) {
        for worker in &mut self.workers {
            worker.flush();
            if worker.dead {
                continue;
            }
            // bqs-analyze: allow(no-unwrap-in-lib) — sender is only taken in join(), which consumes self
            let sender = worker.sender.as_ref().expect("sender lives until join");
            if sender.send(Msg::Evict(now)).is_err() {
                worker.dead = true;
            }
        }
    }

    /// A consistent, non-destructive snapshot of every worker shard's
    /// live state: per track, the shard sink's buffered kept points
    /// plus the live compressor's pending tail (see
    /// [`FleetEngine::snapshot`]). All partially filled batches are
    /// flushed first and the snapshot request is ordered behind them in
    /// each worker's channel, so the view reflects *every point
    /// submitted before this call*; requests fan out to all workers
    /// before any reply is awaited. Tracks on a panicked shard are
    /// absent (their loss is reported at [`ParallelFleet::join`]).
    pub fn snapshot(&mut self) -> FleetSnapshot {
        FleetSnapshot::merge(self.ask_all(Msg::Snapshot))
    }

    /// Flushes every partially filled batch, then sends `request` to
    /// each live worker — ordered behind the work already in its
    /// channel — and collects the replies. All requests go out before
    /// any reply is awaited. A failed send marks the worker dead; a
    /// worker that dies before answering contributes nothing.
    fn ask_all<T>(&mut self, request: fn(SyncSender<T>) -> Msg) -> Vec<T> {
        self.flush();
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &mut self.workers {
            if worker.dead {
                continue;
            }
            let (tx, rx) = sync_channel(1);
            // bqs-analyze: allow(no-unwrap-in-lib) — sender is only taken in join(), which consumes self
            let sender = worker.sender.as_ref().expect("sender lives until join");
            if sender.send(request(tx)).is_err() {
                worker.dead = true;
                continue;
            }
            replies.push(rx);
        }
        replies
            .into_iter()
            .filter_map(|rx| rx.recv().ok())
            .collect()
    }

    /// Submission-side counters per worker shard: tracks routed, points
    /// submitted, liveness. Cheap (no worker round-trip) and exact —
    /// the same counters [`ShardFailure`] reports for a dead shard.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.workers
            .iter()
            .enumerate()
            .map(|(shard, w)| ShardCounters {
                shard,
                tracks: w.tracks.len(),
                submitted_points: w.submitted_points,
                dead: w.dead,
            })
            .collect()
    }

    /// Decision statistics merged across every live worker's engine,
    /// without ending the run. Partially filled batches are flushed
    /// first and each stats request is ordered behind them, so the
    /// merge covers every point submitted before this call; requests
    /// fan out to all workers before any reply is awaited. Dead shards
    /// contribute nothing (their loss surfaces at
    /// [`ParallelFleet::join`]).
    pub fn live_stats(&mut self) -> DecisionStats {
        let mut stats = DecisionStats::default();
        for shard in self.ask_all(Msg::Stats) {
            stats.merge(&shard);
        }
        stats
    }

    /// Flushes every batch, closes the channels, drains every engine
    /// (finishing all live sessions) and joins the worker threads.
    /// Healthy shards come back as [`ShardOutput`]s; panicked shards as
    /// [`ShardFailure`]s naming every track that was routed to them.
    pub fn join(mut self) -> FleetJoin<S> {
        let mut shards = Vec::new();
        let mut failures = Vec::new();
        for (shard, mut worker) in self.workers.drain(..).enumerate() {
            worker.flush();
            drop(worker.sender.take()); // closes the channel: worker drains and exits
                                        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: join consumes the handle
            let handle = worker.handle.take().expect("join consumes the handle");
            match handle.join() {
                Ok(output) => shards.push(ShardOutput {
                    shard,
                    reports: output.reports,
                    stats: output.stats,
                    sink: output.sink,
                }),
                Err(panic) => {
                    let mut tracks: Vec<TrackId> = worker.tracks.iter().copied().collect();
                    tracks.sort_unstable();
                    failures.push(ShardFailure {
                        shard,
                        panic: panic_message(panic.as_ref()),
                        tracks,
                        submitted_points: worker.submitted_points,
                    });
                }
            }
        }
        let mut stats = DecisionStats::default();
        for s in &shards {
            stats.merge(&s.stats);
        }
        FleetJoin {
            shards,
            failures,
            stats,
        }
    }
}

impl<S> Drop for ParallelFleet<S> {
    fn drop(&mut self) {
        // `join` drains `workers`, so this only runs for a fleet dropped
        // without joining: close the channels and reap the threads (their
        // panics, if any, are swallowed — use `join` to observe them).
        for worker in &mut self.workers {
            drop(worker.sender.take());
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BqsConfig;
    use crate::fbqs::FastBqsCompressor;
    use crate::stream::{compress_all, Sink};
    use std::collections::{BTreeSet, HashMap};

    fn wave(track: u64, n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(
                    a * 8.0 + track as f64,
                    (a * 0.21 + track as f64).sin() * 25.0,
                    a * 60.0,
                )
            })
            .collect()
    }

    fn parallel(
        workers: usize,
        tolerance: f64,
    ) -> ParallelFleet<HashMap<TrackId, Vec<TimedPoint>>> {
        let config = BqsConfig::new(tolerance).unwrap();
        ParallelFleet::new(
            ParallelConfig {
                workers,
                fleet: FleetConfig::default(),
            },
            move || FastBqsCompressor::new(config),
            |_| HashMap::new(),
        )
    }

    fn merged(
        join: FleetJoin<HashMap<TrackId, Vec<TimedPoint>>>,
    ) -> HashMap<TrackId, Vec<TimedPoint>> {
        let mut all = HashMap::new();
        for shard in join.shards {
            for (track, points) in shard.sink {
                assert!(
                    all.insert(track, points).is_none(),
                    "track split across shards"
                );
            }
        }
        all
    }

    #[test]
    fn parallel_output_equals_solo_compression_for_any_worker_count() {
        // 3 612 points: every worker count ships full batches and ends on
        // a partly filled one.
        let traces: Vec<Vec<TimedPoint>> = (0..12).map(|t| wave(t, 301)).collect();
        for workers in [1, 2, 3, 8] {
            let mut fleet = parallel(workers, 10.0);
            for i in 0..301 {
                for (t, trace) in traces.iter().enumerate() {
                    fleet.push(t as u64, trace[i]);
                }
            }
            let join = fleet.join();
            assert!(join.is_ok());
            let all = merged(join);
            let config = BqsConfig::new(10.0).unwrap();
            for (t, trace) in traces.iter().enumerate() {
                let mut solo = FastBqsCompressor::new(config);
                let expected = compress_all(&mut solo, trace.iter().copied());
                assert_eq!(all[&(t as u64)], expected, "track {t} / {workers} workers");
            }
        }
    }

    #[test]
    fn join_reports_every_session_sorted_by_shard_then_track() {
        let mut fleet = parallel(4, 10.0);
        for t in (0..40u64).rev() {
            for p in wave(t, 30) {
                fleet.push(t, p);
            }
        }
        let join = fleet.join();
        let reports = join.session_reports();
        assert_eq!(reports.len(), 40);
        let keys: Vec<(usize, TrackId)> = reports.iter().map(|(s, r)| (*s, r.track)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(reports.iter().all(|(_, r)| r.points == 30));
        assert_eq!(join.stats.points, 40 * 30);
    }

    #[test]
    fn eviction_runs_after_prior_points_and_reports_at_join() {
        let config = BqsConfig::new(10.0).unwrap();
        let mut fleet = ParallelFleet::new(
            ParallelConfig {
                workers: 2,
                fleet: FleetConfig {
                    idle_timeout: 100.0,
                },
            },
            move || FastBqsCompressor::new(config),
            |_| HashMap::<TrackId, Vec<TimedPoint>>::new(),
        );
        // Track 0 stops at t=300; track 1 runs to t=3000.
        for p in wave(0, 6) {
            fleet.push(0, p);
        }
        for p in wave(1, 51) {
            fleet.push(1, p);
        }
        fleet.evict_idle(3000.0);
        let join = fleet.join();
        let reports = join.session_reports();
        assert_eq!(reports.len(), 2);
        let evicted: Vec<TrackId> = reports
            .iter()
            .filter(|(_, r)| r.reason == super::super::FlushReason::Evicted)
            .map(|(_, r)| r.track)
            .collect();
        assert_eq!(evicted, vec![0]);
        // Evicted output still matches solo compression of the prefix.
        let all = merged(join);
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, wave(0, 6));
        assert_eq!(all[&0], expected);
    }

    /// A compressor that panics on a poison coordinate — the fault model
    /// for shard-isolation tests.
    #[derive(Clone)]
    struct Poisonable(FastBqsCompressor);

    impl StreamCompressor for Poisonable {
        fn push(&mut self, p: TimedPoint, out: &mut dyn Sink) {
            assert!(p.pos.x.is_finite(), "poison point");
            self.0.push(p, out);
        }
        fn finish(&mut self, out: &mut dyn Sink) {
            self.0.finish(out);
        }
        fn name(&self) -> &'static str {
            "poisonable-fbqs"
        }
    }

    impl HasDecisionStats for Poisonable {
        fn decision_stats(&self) -> DecisionStats {
            self.0.decision_stats()
        }
    }

    #[test]
    fn a_panicking_worker_poisons_only_its_own_shard() {
        let config = BqsConfig::new(10.0).unwrap();
        let mut fleet = ParallelFleet::new(
            ParallelConfig {
                workers: 4,
                fleet: FleetConfig::default(),
            },
            move || Poisonable(FastBqsCompressor::new(config)),
            |_| HashMap::<TrackId, Vec<TimedPoint>>::new(),
        );
        let poisoned_track = 5u64;
        let poisoned_shard = fleet.shard_of(poisoned_track);
        let traces: Vec<Vec<TimedPoint>> = (0..16).map(|t| wave(t, 60)).collect();
        for i in 0..60 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push(t as u64, trace[i]);
            }
            if i == 20 {
                fleet.push(poisoned_track, TimedPoint::new(f64::NAN, 0.0, 1e9));
                fleet.flush(); // make sure the poison is delivered promptly
            }
        }
        let join = fleet.join();
        assert_eq!(join.failures.len(), 1);
        let failure = &join.failures[0];
        assert_eq!(failure.shard, poisoned_shard);
        assert!(failure.tracks.contains(&poisoned_track));
        assert!(failure.panic.contains("poison"), "{}", failure.panic);
        // The loss report is exact: every point routed to the shard over
        // the run, and the track list comes out sorted.
        let routed: u64 = failure
            .tracks
            .iter()
            .map(|t| if *t == poisoned_track { 61 } else { 60 })
            .sum();
        assert_eq!(failure.submitted_points, routed);
        assert!(failure.tracks.windows(2).all(|w| w[0] < w[1]));
        // Healthy shards: every surviving track equals solo compression.
        let lost: BTreeSet<TrackId> = failure.tracks.iter().copied().collect();
        let all = merged(join);
        for (t, trace) in traces.iter().enumerate() {
            let t = t as u64;
            if lost.contains(&t) {
                assert!(!all.contains_key(&t));
                continue;
            }
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(all[&t], expected, "surviving track {t}");
        }
        // Lost sessions + surviving sessions cover the whole fleet.
        assert_eq!(lost.len() + all.len(), 16);
    }

    #[test]
    fn submit_run_equals_per_point_push_byte_for_byte() {
        let traces: Vec<Vec<TimedPoint>> = (0..12).map(|t| wave(t, 150)).collect();
        for workers in [1, 3, 4] {
            // Reference: the per-point path.
            let mut pushed = parallel(workers, 10.0);
            for (t, trace) in traces.iter().enumerate() {
                for p in trace {
                    pushed.push(t as u64, *p);
                }
            }
            let expected = merged(pushed.join());

            // Per-track runs submitted frame by frame, interleaved across
            // tracks.
            let mut batched = parallel(workers, 10.0);
            let chunk = 13usize; // awkward on purpose: partial tail runs
            for offset in (0..150).step_by(chunk) {
                for (t, trace) in traces.iter().enumerate() {
                    let end = (offset + chunk).min(trace.len());
                    batched.submit_run(t as u64, trace[offset..end].iter().copied());
                }
            }
            assert_eq!(merged(batched.join()), expected, "{workers} workers");
        }
    }

    #[test]
    fn submit_run_interleaves_correctly_with_push() {
        let trace = wave(5, 120);
        let mut fleet = parallel(2, 10.0);
        // Alternate the two submission paths on one track: order must hold.
        fleet.push(5, trace[0]);
        fleet.push(5, trace[1]);
        fleet.submit_run(5, trace[2..60].to_vec());
        fleet.push(5, trace[60]);
        fleet.submit_run(5, trace[61..].to_vec());
        let counters = fleet.shard_counters();
        assert_eq!(
            counters.iter().map(|c| c.submitted_points).sum::<u64>(),
            120
        );
        let all = merged(fleet.join());
        let config = BqsConfig::new(10.0).unwrap();
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, trace.iter().copied());
        assert_eq!(all[&5], expected);
    }

    #[test]
    fn points_routed_to_a_dead_shard_are_counted_dropped_exactly() {
        let registry = MetricsRegistry::new();
        let config = BqsConfig::new(10.0).unwrap();
        let mut fleet = ParallelFleet::with_metrics(
            ParallelConfig {
                workers: 2,
                fleet: FleetConfig::default(),
            },
            move || Poisonable(FastBqsCompressor::new(config)),
            |_| HashMap::<TrackId, Vec<TimedPoint>>::new(),
            FleetMetrics::new(&registry),
        );
        let dead_shard = fleet.shard_of(0);
        let (dead_tracks, live_tracks): (Vec<TrackId>, Vec<TrackId>) =
            (0..8u64).partition(|&t| fleet.shard_of(t) == dead_shard);
        assert!(dead_tracks.len() >= 2 && !live_tracks.is_empty());
        // The poison is the only point the shard sees before it dies; the
        // flush leaves its buffer empty, so nothing is in flight.
        fleet.push(dead_tracks[0], TimedPoint::new(f64::NAN, 0.0, 0.0));
        fleet.flush();
        // A stats round-trip notices the death without carrying points.
        for _ in 0..5000 {
            if fleet.shard_counters()[dead_shard].dead {
                break;
            }
            fleet.live_stats();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(fleet.shard_counters()[dead_shard].dead, "shard never died");
        // Both entry points, an empty run included, after the death.
        let mut after = 0u64;
        for &t in &dead_tracks {
            for p in wave(t, 5) {
                fleet.push(t, p);
            }
            fleet.submit_run(t, wave(t, 9));
            fleet.submit_run(t, Vec::new());
            after += 5 + 9;
        }
        for &t in &live_tracks {
            fleet.submit_run(t, wave(t, 30));
            for p in wave(t, 60).into_iter().skip(30) {
                fleet.push(t, p);
            }
        }
        let counter = |name: &str| registry.counter(name).get();
        let join = fleet.join();
        assert_eq!(join.failures.len(), 1);
        let failure = &join.failures[0];
        assert_eq!(failure.shard, dead_shard);
        assert_eq!(failure.tracks, dead_tracks);
        assert_eq!(failure.submitted_points, 1 + after);
        let live_shard = 1 - dead_shard;
        assert_eq!(
            counter(&format!("fleet_shard{dead_shard}_dropped_points_total")),
            after
        );
        assert_eq!(
            counter(&format!("fleet_shard{live_shard}_dropped_points_total")),
            0
        );
        assert_eq!(counter("fleet_dropped_points_total"), after);
        assert_eq!(
            counter("fleet_submitted_points_total"),
            1 + after + 60 * live_tracks.len() as u64
        );
        // The healthy shard is untouched by its sibling's death.
        let all = merged(join);
        assert_eq!(all.len(), live_tracks.len());
        for &t in &live_tracks {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, wave(t, 60));
            assert_eq!(all[&t], expected, "surviving track {t}");
        }
    }

    #[test]
    fn empty_runs_only_touch_the_counters() {
        let mut fleet = parallel(2, 10.0);
        fleet.submit_run(9, Vec::new());
        let counters = fleet.shard_counters();
        assert_eq!(counters.iter().map(|c| c.tracks).sum::<usize>(), 1);
        assert_eq!(counters.iter().map(|c| c.submitted_points).sum::<u64>(), 0);
        let join = fleet.join();
        assert!(join.is_ok());
        // The track was never delivered, so no session ever opened.
        assert!(join.session_reports().is_empty());
    }

    #[test]
    fn worker_routing_is_pinned_by_golden_values() {
        // Spill trees on disk are routed by `worker_of`; these values come
        // from the routing every existing tree was written with. A change
        // here misroutes every such tree.
        let golden: [(TrackId, u64, [usize; 5]); 7] = [
            (0, 0xE220_A839_7B1D_CDAF, [0, 1, 0, 1, 9]),
            (1, 0x910A_2DEC_8902_5CC1, [0, 0, 1, 0, 12]),
            (2, 0x9758_35DE_1C97_56CE, [0, 0, 1, 2, 14]),
            (7, 0x63CB_E1E4_5932_0DD7, [0, 0, 2, 0, 4]),
            (42, 0xBDD7_3226_2FEB_6E95, [0, 0, 0, 2, 6]),
            (1000, 0x3C1E_BA8B_4DCC_C148, [0, 1, 1, 3, 11]),
            (u64::MAX, 0xE4D9_7177_1B65_2C20, [0, 1, 2, 3, 7]),
        ];
        for (track, hash, workers) in golden {
            assert_eq!(track_hash(track), hash, "track_hash({track})");
            for (n, want) in [1, 2, 3, 4, 16].into_iter().zip(workers) {
                assert_eq!(worker_of(track, n), want, "worker_of({track}, {n})");
            }
        }
    }

    #[test]
    fn snapshot_sees_every_submitted_point_and_leaves_the_run_unchanged() {
        let traces: Vec<Vec<TimedPoint>> = (0..10).map(|t| wave(t, 100)).collect();
        let mut fleet = parallel(4, 10.0);
        for i in 0..60 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push(t as u64, trace[i]);
            }
        }
        let snap = fleet.snapshot();
        assert_eq!(snap.len(), 10);
        let config = BqsConfig::new(10.0).unwrap();
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace[..60].iter().copied());
            assert_eq!(
                snap.track(t as u64).unwrap().points(),
                expected,
                "track {t}"
            );
        }
        // The rest of the run is unaffected by having been observed.
        for i in 60..100 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push(t as u64, trace[i]);
            }
        }
        let all = merged(fleet.join());
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(all[&(t as u64)], expected, "track {t}");
        }
    }

    #[test]
    fn live_stats_and_shard_counters_observe_the_run_in_flight() {
        let traces: Vec<Vec<TimedPoint>> = (0..10).map(|t| wave(t, 80)).collect();
        let mut fleet = parallel(4, 10.0);
        for i in 0..80 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push(t as u64, trace[i]);
            }
        }
        // Every submitted point is visible to a mid-run stats merge…
        let stats = fleet.live_stats();
        assert_eq!(stats.points, 10 * 80);
        // …and the submission-side counters agree exactly.
        let counters = fleet.shard_counters();
        assert_eq!(counters.len(), 4);
        assert_eq!(
            counters.iter().map(|c| c.submitted_points).sum::<u64>(),
            10 * 80
        );
        assert_eq!(counters.iter().map(|c| c.tracks).sum::<usize>(), 10);
        assert!(counters.iter().all(|c| !c.dead));
        assert!(counters.iter().enumerate().all(|(i, c)| c.shard == i));
        // Observing the run changes nothing: the final merge matches.
        let join = fleet.join();
        assert_eq!(join.stats.points, 10 * 80);
    }

    #[test]
    fn live_stats_skips_dead_shards_instead_of_hanging() {
        let config = BqsConfig::new(10.0).unwrap();
        let mut fleet = ParallelFleet::new(
            ParallelConfig {
                workers: 2,
                fleet: FleetConfig::default(),
            },
            move || Poisonable(FastBqsCompressor::new(config)),
            |_| HashMap::<TrackId, Vec<TimedPoint>>::new(),
        );
        for t in 0..6u64 {
            for p in wave(t, 20) {
                fleet.push(t, p);
            }
        }
        let poisoned_shard = fleet.shard_of(0);
        fleet.push(0, TimedPoint::new(f64::NAN, 0.0, 1e9));
        fleet.flush();
        // Give the worker a moment to hit the poison and die; the stats
        // call itself must not hang or panic either way.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = fleet.live_stats();
        assert!(stats.points > 0, "healthy shards still report");
        let join = fleet.join();
        assert_eq!(join.failures.len(), 1);
        assert_eq!(join.failures[0].shard, poisoned_shard);
    }

    #[test]
    fn drop_without_join_reaps_the_threads() {
        let mut fleet = parallel(3, 10.0);
        for t in 0..9u64 {
            for p in wave(t, 25) {
                fleet.push(t, p);
            }
        }
        drop(fleet); // must not hang or leak
    }

    #[test]
    fn empty_fleet_joins_cleanly() {
        let join = parallel(2, 10.0).join();
        assert!(join.is_ok());
        assert_eq!(join.shards.len(), 2);
        assert!(join.session_reports().is_empty());
        assert_eq!(join.stats, DecisionStats::default());
    }

    #[test]
    fn backpressure_blocks_instead_of_buffering_unboundedly() {
        // The worker's sink holds its first kept point until a gate
        // opens, so the producer must fill the channel and block on it.
        struct GatedSink {
            gate: Option<Receiver<()>>,
            out: HashMap<TrackId, Vec<TimedPoint>>,
        }
        impl FleetSink for GatedSink {
            fn accept(&mut self, track: TrackId, point: TimedPoint) {
                if let Some(gate) = self.gate.take() {
                    let _ = gate.recv();
                }
                self.out.accept(track, point);
            }
        }
        let registry = MetricsRegistry::new();
        let depth = registry.gauge("fleet_shard0_channel_depth");
        let bound = CHANNEL_BATCHES as u64;
        let (open, gate) = sync_channel(1);
        let mut gate = Some(gate);
        let config = BqsConfig::new(5.0).unwrap();
        let mut fleet = ParallelFleet::with_metrics(
            ParallelConfig {
                workers: 1,
                fleet: FleetConfig::default(),
            },
            move || FastBqsCompressor::new(config),
            |_| GatedSink {
                gate: gate.take(),
                out: HashMap::new(),
            },
            FleetMetrics::new(&registry),
        );
        // Opens the gate once the producer has counted a batch beyond a
        // full channel — one whose send must block — or after 10 s, so
        // a broken bound fails the asserts below instead of hanging.
        let opener = std::thread::spawn(move || {
            let deadline = bqs_obs::now() + std::time::Duration::from_secs(10);
            while depth.get() <= bound && bqs_obs::now() < deadline {
                std::thread::yield_now();
            }
            let _ = open.send(());
        });
        let trace = wave(3, (CHANNEL_BATCHES + 4) * BATCH_POINTS + 17);
        for p in &trace {
            fleet.push(3, *p);
        }
        let mut join = fleet.join();
        opener.join().unwrap();
        // Beyond the channel's batches the gauge can count two more: the
        // one the producer counts before its send blocks, and the one the
        // worker has taken off the channel but not yet uncounted — the
        // taking frees the slot that unblocks the producer, so it can
        // count its next batch first.
        let peak = registry.gauge("fleet_shard0_channel_depth").peak();
        assert!(peak > bound, "the producer never blocked: peak {peak}");
        assert!(peak <= bound + 2, "{peak} batches queued past the bound");
        let all = join.shards.remove(0).sink.out;
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, trace);
        assert_eq!(all[&3], expected);
    }
}
