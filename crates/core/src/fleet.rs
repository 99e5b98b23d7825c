//! The multi-session fleet engine.
//!
//! The paper's deployment story is a *fleet*: hundreds of Camazotz bats or
//! thousands of vehicles, each producing an independent GPS stream that
//! must be compressed on the go. A single [`StreamCompressor`] holds the
//! state of one stream; [`FleetEngine`] multiplexes any number of
//! concurrent streams ("sessions", keyed by [`TrackId`]) over per-session
//! compressor state while sharing everything that can be shared:
//!
//! * **Hash sharding** — sessions live in power-of-two shards, routed by
//!   [`track_hash`]; the [`parallel`] submodule scales the same design
//!   across cores by giving each worker thread a private engine.
//! * **Compressor recycling** — finished sessions return their compressor
//!   (with its warm-up and scan buffers) to a bounded pool, so a fleet
//!   with churn allocates per *track lifetime*, not per track-restart.
//! * **Idle eviction** — trackers disappear (dead battery, out of range);
//!   [`FleetEngine::evict_idle`] finalises sessions that have not pushed
//!   for a configurable stream-time window and reclaims their state.
//! * **Merged statistics** — [`FleetEngine::stats`] aggregates
//!   [`DecisionStats`] across live and retired sessions, attributing a
//!   recycled compressor's monotonic counters to the right session.
//!
//! Emission goes through the same [`Sink`] layer as single-stream
//! compression: `push` routes a track's kept points to the caller's sink
//! with zero buffering, and the interleaving-equivalence property (output
//! of an interleaved fleet == output of each track compressed alone) is
//! enforced by `tests/fleet_equivalence.rs`.
//!
//! ```
//! use bqs_core::fleet::{FleetConfig, FleetEngine};
//! use bqs_core::{BqsConfig, FastBqsCompressor};
//! use bqs_geo::TimedPoint;
//!
//! let config = BqsConfig::new(10.0).unwrap();
//! let mut fleet = FleetEngine::new(FleetConfig::default(), move || {
//!     FastBqsCompressor::new(config)
//! });
//! let mut out: Vec<(u64, TimedPoint)> = Vec::new();
//! for i in 0..100u64 {
//!     // Two interleaved trackers.
//!     fleet.push_tagged(i % 2, TimedPoint::new(i as f64 * 5.0, 0.0, i as f64), &mut out);
//! }
//! fleet.finish_all(&mut out);
//! assert!(fleet.active_sessions() == 0);
//! assert!(out.iter().any(|(track, _)| *track == 1));
//! ```

use crate::stream::{DecisionStats, HasDecisionStats, Sink, StreamCompressor};
use bqs_geo::TimedPoint;
use std::collections::HashMap;

pub mod parallel;
pub mod reorder;

pub use parallel::{
    worker_of, FleetJoin, FleetMetrics, ParallelConfig, ParallelFleet, ShardCounters, ShardFailure,
    ShardOutput,
};
pub use reorder::{FleetReorder, ReorderBuffer, TooLate};

/// Identifies one tracker's stream within a fleet.
pub type TrackId = u64;

/// The fleet routing hash: a SplitMix64 finaliser over the track id.
///
/// Cheap, and it decorrelates sequential ids so load stays even for the
/// common `0..n` track-id layout. Both [`FleetEngine`]'s internal session
/// shards and [`ParallelFleet`]'s worker routing derive from this one
/// function, so a track always lands in a stable, predictable place for
/// a given shard/worker count.
pub fn track_hash(track: TrackId) -> u64 {
    let mut z = track.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A destination for kept points tagged with the session that produced
/// them — the fleet-level analogue of [`Sink`].
pub trait FleetSink {
    /// Accepts one finalised key point of `track`.
    fn accept(&mut self, track: TrackId, point: TimedPoint);

    /// Notifies the sink that a session has been finalised (finish or
    /// eviction). Called *after* the session's tail points have been
    /// emitted through [`FleetSink::accept`], so a sink buffering per
    /// track holds the session's complete output when this fires —
    /// the hook a durable spill layer (e.g. `bqs-tlog`'s `SpillSink`)
    /// flushes on. The default does nothing.
    fn session_closed(&mut self, _report: &SessionReport) {}

    /// A copy of the kept points the sink is still holding per track —
    /// accepted, but not yet handed off to durable storage (or to
    /// whatever the sink drains into on session close). This is the
    /// *hot* half of a [`FleetSnapshot`]: what a live query must see
    /// because no log holds it yet. Sinks that forward or merely count
    /// points keep the default (nothing buffered).
    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        Vec::new()
    }
}

impl FleetSink for Vec<(TrackId, TimedPoint)> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.push((track, point));
    }
}

impl FleetSink for HashMap<TrackId, Vec<TimedPoint>> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.entry(track).or_default().push(point);
    }

    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        self.iter().map(|(t, v)| (*t, v.clone())).collect()
    }
}

/// Counts kept points per fleet without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingFleetSink {
    /// Total kept points across all tracks.
    pub count: usize,
}

impl FleetSink for CountingFleetSink {
    fn accept(&mut self, _track: TrackId, _point: TimedPoint) {
        self.count += 1;
    }
}

/// Invokes a callback per tagged kept point.
#[derive(Debug)]
pub struct FnFleetSink<F> {
    f: F,
}

impl<F> FnFleetSink<F> {
    /// Wraps a callback `f(track, point)`.
    pub fn new(f: F) -> FnFleetSink<F> {
        FnFleetSink { f }
    }
}

impl<F: FnMut(TrackId, TimedPoint)> FleetSink for FnFleetSink<F> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        (self.f)(track, point);
    }
}

/// Duplicates tagged emissions (and session-close notifications) into two
/// fleet sinks — e.g. an in-memory collector plus a durable spill layer.
pub struct TeeFleetSink<'a> {
    a: &'a mut dyn FleetSink,
    b: &'a mut dyn FleetSink,
}

impl<'a> TeeFleetSink<'a> {
    /// Fans emissions out to `a` and `b` (in that order).
    pub fn new(a: &'a mut dyn FleetSink, b: &'a mut dyn FleetSink) -> TeeFleetSink<'a> {
        TeeFleetSink { a, b }
    }
}

impl FleetSink for TeeFleetSink<'_> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.a.accept(track, point);
        self.b.accept(track, point);
    }

    fn session_closed(&mut self, report: &SessionReport) {
        self.a.session_closed(report);
        self.b.session_closed(report);
    }

    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        // A tee duplicates everything, so either side alone already
        // holds a track's complete buffer; prefer `a`, fall back to `b`
        // for tracks `a` does not buffer (e.g. a counting side).
        let mut out = self.a.live_buffered();
        let seen: std::collections::HashSet<TrackId> =
            out.iter().map(|(track, _)| *track).collect();
        out.extend(
            self.b
                .live_buffered()
                .into_iter()
                .filter(|(track, _)| !seen.contains(track)),
        );
        out
    }
}

/// Adapts a [`FleetSink`] to the point-level [`Sink`] interface for one
/// fixed track.
pub struct TrackSink<'a> {
    inner: &'a mut dyn FleetSink,
    track: TrackId,
}

impl<'a> TrackSink<'a> {
    /// A sink forwarding every point to `inner` tagged with `track`.
    pub fn new(inner: &'a mut dyn FleetSink, track: TrackId) -> TrackSink<'a> {
        TrackSink { inner, track }
    }
}

impl Sink for TrackSink<'_> {
    fn push(&mut self, item: TimedPoint) {
        self.inner.accept(self.track, item);
    }
}

/// Fleet-engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of session shards; rounded up to a power of two, minimum 1.
    /// Shards bound the reach of any single rehash and are the future
    /// parallelism seam.
    pub shards: usize,
    /// Stream-time seconds without a push after which a session is
    /// eligible for [`FleetEngine::evict_idle`].
    pub idle_timeout: f64,
    /// Maximum retired compressors kept for reuse across all shards.
    pub max_pooled: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 16,
            // One hour of GPS silence: generous for 1 fix/min trackers.
            idle_timeout: 3600.0,
            max_pooled: 1024,
        }
    }
}

/// Why a session was finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The caller ended the stream ([`FleetEngine::finish_track`] or
    /// [`FleetEngine::finish_all`]).
    Finished,
    /// The session idled past the timeout and was reclaimed by
    /// [`FleetEngine::evict_idle`].
    Evicted,
}

/// Summary returned when a session is finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The finished track.
    pub track: TrackId,
    /// Points the session ingested.
    pub points: u64,
    /// Decision statistics attributed to this session alone.
    pub stats: DecisionStats,
    /// Whether the session finished or was evicted.
    pub reason: FlushReason,
}

/// One track's live (not yet durable) output at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSnapshot {
    /// The track.
    pub track: TrackId,
    /// Kept points already emitted by the compressor but still buffered
    /// in the sink (reported by [`FleetSink::live_buffered`]); empty for
    /// sinks that do not buffer.
    pub emitted: Vec<TimedPoint>,
    /// The tail the compressor *would* emit if the session closed right
    /// now — obtained by finishing a clone, so the live session is
    /// untouched. Empty for tracks that only appear in the sink buffer.
    pub pending: Vec<TimedPoint>,
    /// Whether the track has a live session in the engine (a buffered
    /// track without one is awaiting a retried spill).
    pub live: bool,
}

impl TrackSnapshot {
    /// The track's complete would-be output: emitted-but-buffered points
    /// followed by the pending tail — exactly what closing the session
    /// now would make durable.
    pub fn points(&self) -> Vec<TimedPoint> {
        let mut out = Vec::with_capacity(self.emitted.len() + self.pending.len());
        out.extend_from_slice(&self.emitted);
        out.extend_from_slice(&self.pending);
        out
    }
}

/// A consistent, non-destructive view of everything a fleet knows that
/// is not yet durable: per track, the sink-buffered kept points plus the
/// live compressor's pending tail. Produced by
/// [`FleetEngine::snapshot`] and [`ParallelFleet::snapshot`]; consumed
/// by read paths (e.g. `bqs-tlog`'s `QueryEngine`) that merge it with
/// on-disk data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSnapshot {
    /// One entry per track with live output, ascending by track id.
    pub tracks: Vec<TrackSnapshot>,
}

impl FleetSnapshot {
    /// Tracks in the snapshot.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` when nothing is live.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The snapshot of one track, if it has live output.
    pub fn track(&self, track: TrackId) -> Option<&TrackSnapshot> {
        self.tracks
            .binary_search_by_key(&track, |t| t.track)
            .ok()
            .map(|i| &self.tracks[i])
    }

    /// Folds several shard snapshots (disjoint track sets) into one.
    pub fn merge(shards: impl IntoIterator<Item = FleetSnapshot>) -> FleetSnapshot {
        let mut tracks: Vec<TrackSnapshot> = shards.into_iter().flat_map(|s| s.tracks).collect();
        tracks.sort_by_key(|t| t.track);
        FleetSnapshot { tracks }
    }
}

#[derive(Debug)]
struct Session<C> {
    compressor: C,
    /// `decision_stats()` snapshot at session start; the compressor may be
    /// recycled, so its counters are offsets, not absolutes.
    baseline: DecisionStats,
    /// Stream time of the most recent push.
    last_active: f64,
    /// Points ingested by this session.
    points: u64,
}

#[derive(Debug, Default)]
struct Shard<C> {
    sessions: HashMap<TrackId, Session<C>>,
}

/// Multiplexes many concurrent track sessions over per-session compressor
/// state. See the module docs for the design.
pub struct FleetEngine<C, F> {
    factory: F,
    config: FleetConfig,
    shard_mask: u64,
    shards: Vec<Shard<C>>,
    /// Retired-but-reusable compressors (bounded by `config.max_pooled`).
    pool: Vec<C>,
    /// Stats of sessions that have already been finalised.
    retired_stats: DecisionStats,
    /// Sessions finalised so far.
    retired_sessions: u64,
    /// Of those, sessions reclaimed by idle eviction.
    evicted_sessions: u64,
    /// Largest timestamp pushed so far (the fleet's stream clock).
    latest_time: f64,
}

impl<C, F> FleetEngine<C, F>
where
    C: StreamCompressor + HasDecisionStats,
    F: Fn() -> C,
{
    /// Creates an engine; `factory` builds one compressor per new session
    /// (recycled instances are reused first).
    pub fn new(config: FleetConfig, factory: F) -> FleetEngine<C, F> {
        let shards = config.shards.max(1).next_power_of_two();
        FleetEngine {
            factory,
            config,
            shard_mask: (shards - 1) as u64,
            shards: (0..shards)
                .map(|_| Shard {
                    sessions: HashMap::new(),
                })
                .collect(),
            pool: Vec::new(),
            retired_stats: DecisionStats::default(),
            retired_sessions: 0,
            evicted_sessions: 0,
            latest_time: f64::NEG_INFINITY,
        }
    }

    /// An engine with [`FleetConfig::default`].
    pub fn with_default_config(factory: F) -> FleetEngine<C, F> {
        FleetEngine::new(FleetConfig::default(), factory)
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of shards (power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live sessions across all shards.
    pub fn active_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// Live sessions per shard, for load-skew observability.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.sessions.len()).collect()
    }

    /// Retired compressors currently available for reuse.
    pub fn pooled_compressors(&self) -> usize {
        self.pool.len()
    }

    /// Sessions finalised so far (finish or eviction).
    pub fn retired_sessions(&self) -> u64 {
        self.retired_sessions
    }

    /// Sessions reclaimed by idle eviction so far (a subset of
    /// [`FleetEngine::retired_sessions`]).
    pub fn evicted_sessions(&self) -> u64 {
        self.evicted_sessions
    }

    /// Largest timestamp pushed so far; `None` before the first push.
    pub fn latest_time(&self) -> Option<f64> {
        (self.latest_time != f64::NEG_INFINITY).then_some(self.latest_time)
    }

    /// Decision statistics merged across retired and live sessions.
    pub fn stats(&self) -> DecisionStats {
        let mut total = self.retired_stats;
        for shard in &self.shards {
            for session in shard.sessions.values() {
                total.merge(&session.compressor.decision_stats().since(&session.baseline));
            }
        }
        total
    }

    fn shard_of(&self, track: TrackId) -> usize {
        (track_hash(track) & self.shard_mask) as usize
    }

    /// Feeds the next point of `track`'s stream, emitting that track's
    /// finalised key points into `out`. A session is created on the first
    /// push of an unknown track (reusing a pooled compressor when one is
    /// available).
    pub fn push(&mut self, track: TrackId, p: TimedPoint, out: &mut dyn Sink) {
        self.latest_time = self.latest_time.max(p.t);
        let shard = self.shard_of(track);
        // Split borrows: the pool and factory are needed while the shard
        // map entry is held.
        let pool = &mut self.pool;
        let factory = &self.factory;
        let session = self.shards[shard].sessions.entry(track).or_insert_with(|| {
            let compressor = pool.pop().unwrap_or_else(factory);
            let baseline = compressor.decision_stats();
            Session {
                compressor,
                baseline,
                last_active: p.t,
                points: 0,
            }
        });
        session.compressor.push(p, out);
        session.last_active = session.last_active.max(p.t);
        session.points += 1;
    }

    /// Like [`FleetEngine::push`] but emitting tagged points into a
    /// [`FleetSink`].
    ///
    /// # Examples
    ///
    /// Two interleaved trackers, collected per track:
    ///
    /// ```
    /// use bqs_core::fleet::{FleetEngine, TrackId};
    /// use bqs_core::{BqsConfig, FastBqsCompressor};
    /// use bqs_geo::TimedPoint;
    /// use std::collections::HashMap;
    ///
    /// let config = BqsConfig::new(10.0).unwrap();
    /// let mut fleet =
    ///     FleetEngine::with_default_config(move || FastBqsCompressor::new(config));
    /// let mut out: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
    /// for i in 0..50u64 {
    ///     let p = TimedPoint::new(i as f64 * 7.0, 0.0, i as f64 * 60.0);
    ///     fleet.push_tagged(i % 2, p, &mut out);
    /// }
    /// fleet.finish_all(&mut out);
    /// assert_eq!(out.len(), 2);
    /// assert!(out[&0].len() >= 2);
    /// ```
    pub fn push_tagged(&mut self, track: TrackId, p: TimedPoint, out: &mut dyn FleetSink) {
        self.push(track, p, &mut TrackSink::new(out, track));
    }

    /// Feeds a batch of `(track, point)` records (any interleaving),
    /// emitting tagged kept points.
    pub fn ingest(
        &mut self,
        records: impl IntoIterator<Item = (TrackId, TimedPoint)>,
        out: &mut dyn FleetSink,
    ) {
        for (track, p) in records {
            self.push_tagged(track, p, out);
        }
    }

    fn retire(
        &mut self,
        mut session: Session<C>,
        track: TrackId,
        reason: FlushReason,
        out: &mut dyn Sink,
    ) -> SessionReport {
        session.compressor.finish(out);
        let stats = session.compressor.decision_stats().since(&session.baseline);
        self.retired_stats.merge(&stats);
        self.retired_sessions += 1;
        if reason == FlushReason::Evicted {
            self.evicted_sessions += 1;
        }
        if self.pool.len() < self.config.max_pooled {
            self.pool.push(session.compressor);
        }
        SessionReport {
            track,
            points: session.points,
            stats,
            reason,
        }
    }

    /// Ends `track`'s stream: flushes its final key point into `out`,
    /// merges its statistics, recycles its compressor, and removes the
    /// session. `None` when the track has no live session.
    ///
    /// The point-level sink cannot receive a
    /// [`FleetSink::session_closed`] notification; sinks that act on
    /// session close (e.g. durable spill layers) should be driven through
    /// [`FleetEngine::finish_track_tagged`] instead.
    pub fn finish_track(&mut self, track: TrackId, out: &mut dyn Sink) -> Option<SessionReport> {
        let shard = self.shard_of(track);
        let session = self.shards[shard].sessions.remove(&track)?;
        Some(self.retire(session, track, FlushReason::Finished, out))
    }

    /// Like [`FleetEngine::finish_track`] but emitting tagged points into
    /// a [`FleetSink`] and firing its [`FleetSink::session_closed`] hook
    /// — the per-track counterpart of [`FleetEngine::finish_all`].
    pub fn finish_track_tagged(
        &mut self,
        track: TrackId,
        out: &mut dyn FleetSink,
    ) -> Option<SessionReport> {
        let report = self.finish_track(track, &mut TrackSink::new(out, track))?;
        out.session_closed(&report);
        Some(report)
    }

    /// Finalises every session whose last push is older than
    /// `config.idle_timeout` relative to `now` (stream time). Emits each
    /// evicted track's tail into `out`, notifies the sink via
    /// [`FleetSink::session_closed`], and returns one [`SessionReport`]
    /// per evicted session so per-session flush statistics are never
    /// merged away silently.
    pub fn evict_idle(&mut self, now: f64, out: &mut dyn FleetSink) -> Vec<SessionReport> {
        let cutoff = now - self.config.idle_timeout;
        let mut reports = Vec::new();
        for shard in 0..self.shards.len() {
            // Collect first: retiring mutates the pool and stats, so the
            // shard map cannot stay borrowed.
            let idle: Vec<TrackId> = self.shards[shard]
                .sessions
                .iter()
                .filter(|(_, s)| s.last_active < cutoff)
                .map(|(t, _)| *t)
                .collect();
            for track in idle {
                if let Some(session) = self.shards[shard].sessions.remove(&track) {
                    let report = self.retire(
                        session,
                        track,
                        FlushReason::Evicted,
                        &mut TrackSink::new(out, track),
                    );
                    out.session_closed(&report);
                    reports.push(report);
                }
            }
        }
        reports
    }

    /// Convenience: [`FleetEngine::evict_idle`] at the fleet's own stream
    /// clock. No-op before the first push.
    pub fn evict_idle_now(&mut self, out: &mut dyn FleetSink) -> Vec<SessionReport> {
        match self.latest_time() {
            Some(now) => self.evict_idle(now, out),
            None => Vec::new(),
        }
    }

    /// A consistent, non-destructive snapshot of every live session:
    /// the kept points `sink` still buffers per track
    /// ([`FleetSink::live_buffered`]) plus each live compressor's
    /// [`StreamCompressor::pending_tail`], which leaves the session
    /// itself untouched. The result is exactly what
    /// [`FleetEngine::finish_all`] into `sink` would make durable if it
    /// ran right now — the hot half a unified query layer merges with
    /// on-disk data.
    pub fn snapshot(&self, sink: &dyn FleetSink) -> FleetSnapshot
    where
        C: Clone,
    {
        let mut emitted: HashMap<TrackId, Vec<TimedPoint>> =
            sink.live_buffered().into_iter().collect();
        let mut tracks: Vec<TrackSnapshot> = Vec::new();
        for shard in &self.shards {
            for (&track, session) in &shard.sessions {
                let mut pending: Vec<TimedPoint> = Vec::new();
                session.compressor.pending_tail(&mut pending);
                tracks.push(TrackSnapshot {
                    track,
                    emitted: emitted.remove(&track).unwrap_or_default(),
                    pending,
                    live: true,
                });
            }
        }
        // Buffers without a live session: output awaiting a retried
        // hand-off (e.g. a spill whose append failed). Still hot data.
        for (track, points) in emitted {
            tracks.push(TrackSnapshot {
                track,
                emitted: points,
                pending: Vec::new(),
                live: false,
            });
        }
        tracks.sort_by_key(|t| t.track);
        FleetSnapshot { tracks }
    }

    /// Ends every live session (tagged emission), notifying the sink per
    /// session; returns one [`SessionReport`] per finalised session.
    pub fn finish_all(&mut self, out: &mut dyn FleetSink) -> Vec<SessionReport> {
        let mut reports = Vec::new();
        for shard in 0..self.shards.len() {
            let tracks: Vec<TrackId> = self.shards[shard].sessions.keys().copied().collect();
            for track in tracks {
                if let Some(session) = self.shards[shard].sessions.remove(&track) {
                    let report = self.retire(
                        session,
                        track,
                        FlushReason::Finished,
                        &mut TrackSink::new(out, track),
                    );
                    out.session_closed(&report);
                    reports.push(report);
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BqsConfig;
    use crate::fbqs::FastBqsCompressor;
    use crate::stream::compress_all;

    fn engine(tolerance: f64) -> FleetEngine<FastBqsCompressor, impl Fn() -> FastBqsCompressor> {
        let config = BqsConfig::new(tolerance).unwrap();
        FleetEngine::with_default_config(move || FastBqsCompressor::new(config))
    }

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

    #[test]
    fn single_track_matches_solo_compression() {
        let trace = wave(7, 300);
        let mut fleet = engine(10.0);
        let mut fleet_out: Vec<TimedPoint> = Vec::new();
        for p in &trace {
            fleet.push(7, *p, &mut fleet_out);
        }
        fleet.finish_track(7, &mut fleet_out);

        let config = BqsConfig::new(10.0).unwrap();
        let mut solo = FastBqsCompressor::new(config);
        let solo_out = compress_all(&mut solo, trace.iter().copied());
        assert_eq!(fleet_out, solo_out);
    }

    #[test]
    fn interleaved_tracks_stay_isolated() {
        let traces: Vec<Vec<TimedPoint>> = (0..8).map(|t| wave(t, 200)).collect();
        let mut fleet = engine(12.0);
        let mut tagged: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
        // Round-robin interleave all eight tracks.
        for i in 0..200 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push_tagged(t as u64, trace[i], &mut tagged);
            }
        }
        fleet.finish_all(&mut tagged);

        let config = BqsConfig::new(12.0).unwrap();
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let solo_out = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(tagged[&(t as u64)], solo_out, "track {t}");
        }
    }

    #[test]
    fn finish_all_drains_every_session() {
        let mut fleet = engine(10.0);
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        for t in 0..50u64 {
            for p in wave(t, 20) {
                fleet.push_tagged(t, p, &mut out);
            }
        }
        assert_eq!(fleet.active_sessions(), 50);
        let reports = fleet.finish_all(&mut out);
        assert_eq!(reports.len(), 50);
        assert!(reports.iter().all(|r| r.reason == FlushReason::Finished));
        assert_eq!(fleet.active_sessions(), 0);
        assert_eq!(fleet.retired_sessions(), 50);
        // Every track emitted at least its two anchors.
        for t in 0..50u64 {
            assert!(out.iter().filter(|(track, _)| *track == t).count() >= 2);
        }
    }

    #[test]
    fn idle_sessions_are_evicted_and_compressors_recycled() {
        let mut fleet = engine(10.0);
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        // Track 1 stops at t=600; track 2 keeps going to t=6000.
        for p in wave(1, 11) {
            fleet.push_tagged(1, p, &mut out);
        }
        for p in wave(2, 101) {
            fleet.push_tagged(2, p, &mut out);
        }
        assert_eq!(fleet.active_sessions(), 2);
        // Default idle timeout is 3600 s; track 1 last pushed at t=600.
        let evicted = fleet.evict_idle_now(&mut out);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].track, 1);
        assert_eq!(evicted[0].reason, FlushReason::Evicted);
        assert_eq!(evicted[0].points, 11);
        assert_eq!(fleet.evicted_sessions(), 1);
        assert_eq!(fleet.active_sessions(), 1);
        assert_eq!(fleet.pooled_compressors(), 1);
        // Track 1's tail point must have been flushed on eviction.
        let track1_last = out.iter().rev().find(|(t, _)| *t == 1).unwrap().1;
        assert_eq!(track1_last.t, 600.0);

        // A new session reuses the pooled compressor.
        fleet.push_tagged(3, TimedPoint::new(0.0, 0.0, 7000.0), &mut out);
        assert_eq!(fleet.pooled_compressors(), 0);
    }

    #[test]
    fn recycled_compressors_attribute_stats_to_the_right_session() {
        let mut fleet = engine(10.0);
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        let trace = wave(0, 100);
        for p in &trace {
            fleet.push_tagged(10, *p, &mut out);
        }
        let r1 = fleet
            .finish_track(10, &mut TrackSink::new(&mut out, 10))
            .unwrap();
        assert_eq!(r1.points, 100);
        assert_eq!(r1.stats.points, 100);

        // Second session on a recycled compressor: counters must restart.
        for p in &trace {
            fleet.push_tagged(11, *p, &mut out);
        }
        let r2 = fleet
            .finish_track(11, &mut TrackSink::new(&mut out, 11))
            .unwrap();
        assert_eq!(
            r2.stats.points, 100,
            "baseline offset must isolate sessions"
        );
        assert_eq!(fleet.stats().points, 200);
    }

    #[test]
    fn sharding_spreads_sequential_ids() {
        let mut fleet = engine(10.0);
        let mut out = CountingFleetSink::default();
        for t in 0..256u64 {
            fleet.push_tagged(t, TimedPoint::new(0.0, 0.0, 0.0), &mut out);
        }
        let loads = fleet.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 256);
        let max = *loads.iter().max().unwrap();
        // 256 ids over 16 shards: a uniform hash keeps the worst shard far
        // below a pathological pile-up.
        assert!(max <= 40, "shard skew too high: {loads:?}");
    }

    #[test]
    fn counting_sink_path_is_allocation_free_per_push() {
        let mut fleet = engine(10.0);
        let mut counter = CountingFleetSink::default();
        for p in wave(0, 500) {
            fleet.push_tagged(0, p, &mut counter);
        }
        fleet.finish_all(&mut counter);
        assert!(counter.count >= 2);
        assert!(counter.count < 500);
    }

    #[test]
    fn tee_fleet_sink_duplicates_points_and_close_notifications() {
        struct CloseCounter {
            points: usize,
            closes: Vec<(TrackId, FlushReason)>,
        }
        impl FleetSink for CloseCounter {
            fn accept(&mut self, _track: TrackId, _point: TimedPoint) {
                self.points += 1;
            }
            fn session_closed(&mut self, report: &SessionReport) {
                self.closes.push((report.track, report.reason));
            }
        }
        let mut fleet = engine(10.0);
        let mut collected: Vec<(TrackId, TimedPoint)> = Vec::new();
        let mut counter = CloseCounter {
            points: 0,
            closes: Vec::new(),
        };
        {
            let mut tee = TeeFleetSink::new(&mut collected, &mut counter);
            for p in wave(3, 50) {
                fleet.push_tagged(3, p, &mut tee);
            }
            fleet.finish_all(&mut tee);
        }
        assert!(!collected.is_empty());
        assert_eq!(collected.len(), counter.points);
        assert_eq!(counter.closes, vec![(3, FlushReason::Finished)]);
    }

    #[test]
    fn snapshot_equals_what_finishing_now_would_emit_and_is_non_destructive() {
        let traces: Vec<Vec<TimedPoint>> = (0..4).map(|t| wave(t, 120)).collect();
        let mut fleet = engine(10.0);
        let mut sink: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
        // Push a prefix, snapshot, then keep going: the snapshot must
        // match solo compression of the prefix and must not perturb the
        // final output.
        for i in 0..70 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push_tagged(t as u64, trace[i], &mut sink);
            }
        }
        let snap = fleet.snapshot(&sink);
        assert_eq!(snap.len(), 4);
        let config = BqsConfig::new(10.0).unwrap();
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace[..70].iter().copied());
            let track = snap.track(t as u64).unwrap();
            assert!(track.live);
            assert_eq!(track.points(), expected, "track {t}");
            assert_eq!(track.emitted, sink[&(t as u64)], "track {t}");
        }
        assert!(snap.track(99).is_none());

        for i in 70..120 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push_tagged(t as u64, trace[i], &mut sink);
            }
        }
        fleet.finish_all(&mut sink);
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(sink[&(t as u64)], expected, "track {t} after snapshot");
        }
    }

    #[test]
    fn snapshot_through_a_non_buffering_sink_still_reports_pending_tails() {
        let mut fleet = engine(10.0);
        let mut counter = CountingFleetSink::default();
        for p in wave(5, 40) {
            fleet.push_tagged(5, p, &mut counter);
        }
        let snap = fleet.snapshot(&counter);
        let track = snap.track(5).unwrap();
        assert!(track.emitted.is_empty(), "counting sink buffers nothing");
        assert!(!track.pending.is_empty(), "the close tail is always live");
    }

    #[test]
    fn finish_unknown_track_is_none() {
        let mut fleet = engine(10.0);
        let mut out: Vec<TimedPoint> = Vec::new();
        assert!(fleet.finish_track(99, &mut out).is_none());
    }

    #[test]
    fn pool_is_bounded() {
        let config = BqsConfig::new(10.0).unwrap();
        let mut fleet = FleetEngine::new(
            FleetConfig {
                max_pooled: 4,
                ..FleetConfig::default()
            },
            move || FastBqsCompressor::new(config),
        );
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        for t in 0..32u64 {
            fleet.push_tagged(t, TimedPoint::new(0.0, 0.0, t as f64), &mut out);
        }
        fleet.finish_all(&mut out);
        assert_eq!(fleet.pooled_compressors(), 4);
    }
}
