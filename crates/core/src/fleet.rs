//! The multi-session fleet engine.
//!
//! The paper's deployment story is a *fleet*: hundreds of Camazotz bats or
//! thousands of vehicles, each producing an independent GPS stream that
//! must be compressed on the go. A single [`StreamCompressor`] holds the
//! state of one stream; [`FleetEngine`] multiplexes any number of
//! concurrent streams ("sessions", keyed by [`TrackId`]) in one session
//! table, each session owning a fresh compressor; the [`parallel`]
//! submodule scales the same design across cores by giving each worker
//! thread a private engine:
//!
//! * **Idle eviction** — trackers disappear (dead battery, out of range);
//!   [`FleetEngine::evict_idle`] finalises sessions that have not pushed
//!   for a configurable stream-time window and reclaims their state.
//! * **Merged statistics** — [`FleetEngine::stats`] aggregates
//!   [`DecisionStats`] across live and retired sessions.
//!
//! Emission goes through the same [`Sink`] layer as single-stream
//! compression: [`FleetEngine::push_tagged`] routes a track's kept points,
//! tagged with the track, to the caller's [`FleetSink`] with zero
//! buffering, and the interleaving-equivalence property (output of an
//! interleaved fleet == output of each track compressed alone) is
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
pub use reorder::{Admitted, FleetReorder, Released, ReorderBuffer, TooLate};

/// Identifies one tracker's stream within a fleet.
pub type TrackId = u64;

/// The fleet routing hash: a SplitMix64 finaliser over the track id.
///
/// Cheap, and it decorrelates sequential ids so load stays even for the
/// common `0..n` track-id layout. [`ParallelFleet`]'s worker routing
/// ([`worker_of`]) derives from this one function, so a track always lands
/// on the same worker — and in the same on-disk spill shard — for a given
/// worker count.
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

/// Adapts a [`FleetSink`] to the point-level [`Sink`] interface for one
/// fixed track.
struct TrackSink<'a> {
    inner: &'a mut dyn FleetSink,
    track: TrackId,
}

impl Sink for TrackSink<'_> {
    fn push(&mut self, item: TimedPoint) {
        self.inner.accept(self.track, item);
    }
}

/// Fleet-engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Stream-time seconds without a push after which a session is
    /// eligible for [`FleetEngine::evict_idle`].
    pub idle_timeout: f64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            // One hour of GPS silence: generous for 1 fix/min trackers.
            idle_timeout: 3600.0,
        }
    }
}

/// Why a session was finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The caller ended the stream ([`FleetEngine::finish_track_tagged`]
    /// or [`FleetEngine::finish_all`]).
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
    /// Stream time of the most recent push.
    last_active: f64,
    /// Points ingested by this session.
    points: u64,
}

/// Multiplexes many concurrent track sessions over per-session compressor
/// state. See the module docs for the design.
pub struct FleetEngine<C, F> {
    factory: F,
    config: FleetConfig,
    sessions: HashMap<TrackId, Session<C>>,
    /// Stats of sessions that have already been finalised.
    retired_stats: DecisionStats,
    /// Sessions reclaimed by idle eviction so far.
    evicted_sessions: u64,
}

impl<C, F> FleetEngine<C, F>
where
    C: StreamCompressor + HasDecisionStats,
    F: Fn() -> C,
{
    /// Creates an engine; `factory` builds one fresh compressor per new
    /// session.
    pub fn new(config: FleetConfig, factory: F) -> FleetEngine<C, F> {
        FleetEngine {
            factory,
            config,
            sessions: HashMap::new(),
            retired_stats: DecisionStats::default(),
            evicted_sessions: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Live sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions reclaimed by idle eviction so far.
    pub fn evicted_sessions(&self) -> u64 {
        self.evicted_sessions
    }

    /// Decision statistics merged across retired and live sessions.
    pub fn stats(&self) -> DecisionStats {
        let mut total = self.retired_stats;
        for session in self.sessions.values() {
            total.merge(&session.compressor.decision_stats());
        }
        total
    }

    /// Feeds the next point of `track`'s stream, emitting that track's
    /// finalised key points, tagged with `track`, into `out`. A session,
    /// with a fresh compressor from the factory, is created on the first
    /// push of an unknown track.
    ///
    /// # Examples
    ///
    /// Two interleaved trackers, collected per track:
    ///
    /// ```
    /// use bqs_core::fleet::{FleetConfig, FleetEngine, TrackId};
    /// use bqs_core::{BqsConfig, FastBqsCompressor};
    /// use bqs_geo::TimedPoint;
    /// use std::collections::HashMap;
    ///
    /// let config = BqsConfig::new(10.0).unwrap();
    /// let mut fleet =
    ///     FleetEngine::new(FleetConfig::default(), move || FastBqsCompressor::new(config));
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
        let factory = &self.factory;
        let session = self.sessions.entry(track).or_insert_with(|| Session {
            compressor: factory(),
            last_active: p.t,
            points: 0,
        });
        session
            .compressor
            .push(p, &mut TrackSink { inner: out, track });
        session.last_active = session.last_active.max(p.t);
        session.points += 1;
    }

    /// Finishes `session`'s compressor into `out`, merges its statistics
    /// and fires the sink's [`FleetSink::session_closed`] hook.
    fn retire(
        &mut self,
        mut session: Session<C>,
        track: TrackId,
        reason: FlushReason,
        out: &mut dyn FleetSink,
    ) -> SessionReport {
        session
            .compressor
            .finish(&mut TrackSink { inner: out, track });
        let stats = session.compressor.decision_stats();
        self.retired_stats.merge(&stats);
        if reason == FlushReason::Evicted {
            self.evicted_sessions += 1;
        }
        let report = SessionReport {
            track,
            points: session.points,
            stats,
            reason,
        };
        out.session_closed(&report);
        report
    }

    /// Ends `track`'s stream: flushes its final key points into `out`,
    /// merges its statistics, removes the session and fires the sink's
    /// [`FleetSink::session_closed`] hook — the per-track counterpart of
    /// [`FleetEngine::finish_all`]. `None` when the track has no live
    /// session.
    pub fn finish_track_tagged(
        &mut self,
        track: TrackId,
        out: &mut dyn FleetSink,
    ) -> Option<SessionReport> {
        let session = self.sessions.remove(&track)?;
        Some(self.retire(session, track, FlushReason::Finished, out))
    }

    /// Finalises every session whose last push is older than
    /// `config.idle_timeout` relative to `now` (stream time). Emits each
    /// evicted track's tail into `out`, notifies the sink via
    /// [`FleetSink::session_closed`], and returns one [`SessionReport`]
    /// per evicted session so per-session flush statistics are never
    /// merged away silently.
    pub fn evict_idle(&mut self, now: f64, out: &mut dyn FleetSink) -> Vec<SessionReport> {
        let cutoff = now - self.config.idle_timeout;
        let idle: Vec<TrackId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.last_active < cutoff)
            .map(|(t, _)| *t)
            .collect();
        self.close_all(idle, FlushReason::Evicted, out)
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
        for (&track, session) in &self.sessions {
            let mut pending: Vec<TimedPoint> = Vec::new();
            session.compressor.pending_tail(&mut pending);
            tracks.push(TrackSnapshot {
                track,
                emitted: emitted.remove(&track).unwrap_or_default(),
                pending,
                live: true,
            });
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
        let tracks: Vec<TrackId> = self.sessions.keys().copied().collect();
        self.close_all(tracks, FlushReason::Finished, out)
    }

    /// Retires each of `tracks`' live sessions (tagged emission), notifying
    /// the sink per session.
    fn close_all(
        &mut self,
        tracks: Vec<TrackId>,
        reason: FlushReason,
        out: &mut dyn FleetSink,
    ) -> Vec<SessionReport> {
        let mut reports = Vec::with_capacity(tracks.len());
        for track in tracks {
            if let Some(session) = self.sessions.remove(&track) {
                reports.push(self.retire(session, track, reason, out));
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
        FleetEngine::new(FleetConfig::default(), move || {
            FastBqsCompressor::new(config)
        })
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
        let mut tagged: Vec<(TrackId, TimedPoint)> = Vec::new();
        for p in &trace {
            fleet.push_tagged(7, *p, &mut tagged);
        }
        fleet.finish_track_tagged(7, &mut tagged);
        assert!(tagged.iter().all(|(track, _)| *track == 7));
        let fleet_out: Vec<TimedPoint> = tagged.into_iter().map(|(_, p)| p).collect();

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
        // Every track emitted at least its two anchors.
        for t in 0..50u64 {
            assert!(out.iter().filter(|(track, _)| *track == t).count() >= 2);
        }
    }

    #[test]
    fn idle_sessions_are_evicted_and_flushed() {
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
        let evicted = fleet.evict_idle(6000.0, &mut out);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].track, 1);
        assert_eq!(evicted[0].reason, FlushReason::Evicted);
        assert_eq!(evicted[0].points, 11);
        assert_eq!(fleet.evicted_sessions(), 1);
        assert_eq!(fleet.active_sessions(), 1);
        // Track 1's tail point must have been flushed on eviction.
        let track1_last = out.iter().rev().find(|(t, _)| *t == 1).unwrap().1;
        assert_eq!(track1_last.t, 600.0);
    }

    #[test]
    fn successive_sessions_attribute_stats_to_the_right_session() {
        let mut fleet = engine(10.0);
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        let trace = wave(0, 100);
        for p in &trace {
            fleet.push_tagged(10, *p, &mut out);
        }
        let r1 = fleet.finish_track_tagged(10, &mut out).unwrap();
        assert_eq!(r1.points, 100);
        assert_eq!(r1.stats.points, 100);

        // A second session after the first retired: its counters start at
        // zero, and the fleet total covers both.
        for p in &trace {
            fleet.push_tagged(11, *p, &mut out);
        }
        let r2 = fleet.finish_track_tagged(11, &mut out).unwrap();
        assert_eq!(r2.stats, r1.stats, "same points, same decisions");
        assert_eq!(fleet.stats().points, 200);
    }

    /// The per-session compressor footprint on 64-bit targets. A session
    /// owns one of these plus its heap (warm-up buffer, hull scratch), so
    /// this constant is the floor of the server's bytes per live session.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn fast_bqs_compressor_footprint_is_pinned() {
        assert_eq!(
            std::mem::size_of::<FastBqsCompressor>(),
            1160,
            "FastBqsCompressor changed size: update this constant on purpose \
             and record why (and the new bytes per session) in CHANGES.md"
        );
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
        let mut out: Vec<(TrackId, TimedPoint)> = Vec::new();
        assert!(fleet.finish_track_tagged(99, &mut out).is_none());
        assert!(out.is_empty());
    }
}
