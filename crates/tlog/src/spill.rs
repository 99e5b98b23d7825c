//! Spill-on-evict / flush-on-close: the bridge from a live
//! [`FleetEngine`](bqs_core::fleet::FleetEngine) to the durable log.
//!
//! [`SpillSink`] implements [`FleetSink`]: kept points are buffered per
//! track as the engine emits them, and when the engine closes a session
//! — `finish_all`, `finish_track_tagged`, or idle eviction — the
//! [`FleetSink::session_closed`] hook fires and the track's complete
//! compressed output is encoded and appended to the [`TrajectoryLog`] as
//! one record. Long-running fleets thus become durable: an evicted
//! session's data survives process death and is queryable after reopen.
//! Every sink counts its spills into [`SpillMetrics`] handles.
//!
//! `FleetSink` methods cannot return errors, so append failures are
//! stashed (first error wins, the track's buffer is retained) and must
//! be collected with [`SpillSink::finish`] — which also reports any
//! tracks that were never closed by the engine.

use crate::error::TlogError;
use crate::log::TrajectoryLog;
use bqs_core::fleet::{FleetSink, FlushReason, SessionReport, TrackId};
use bqs_core::stream::DecisionStats;
use bqs_geo::TimedPoint;
use bqs_obs::{Counter, FlightRecorder, MetricsRegistry, TraceEventKind};
use std::borrow::BorrowMut;
use std::collections::HashMap;

/// Durability-side metric handles for a [`SpillSink`], registered under
/// the `tlog_` prefix. Cloneable: each worker shard's sink gets its own
/// clone, all feeding the same counters. [`SpillSink::new`] counts into
/// handles of its own; [`SpillSink::with_metrics`] takes the caller's.
///
/// Catalogued in `docs/observability.md`.
#[derive(Clone)]
pub struct SpillMetrics {
    /// Sessions made durable (one log record each).
    sessions: Counter,
    /// Kept (compressed) points appended to the log.
    points: Counter,
    /// Bytes appended to the log, frames included.
    bytes: Counter,
    /// Segment-file rotations observed across appends.
    rotations: Counter,
    /// Flight recorder each durable spill emits a `Spill` event into,
    /// when wired.
    trace: Option<FlightRecorder>,
}

impl SpillMetrics {
    /// Registers (or re-attaches to) the spill counters in `registry`.
    pub fn new(registry: &MetricsRegistry) -> SpillMetrics {
        SpillMetrics {
            sessions: registry.counter("tlog_spilled_sessions_total"),
            points: registry.counter("tlog_spilled_points_total"),
            bytes: registry.counter("tlog_spilled_bytes_total"),
            rotations: registry.counter("tlog_segment_rotations_total"),
            trace: None,
        }
    }

    /// Wires a flight recorder in: every durable spill then emits one
    /// `Spill` trace event (value = compressed points written).
    pub fn with_trace(mut self, trace: FlightRecorder) -> SpillMetrics {
        self.trace = Some(trace);
        self
    }
}

/// One durable flush of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillReport {
    /// The track that was spilled.
    pub track: TrackId,
    /// Kept (compressed) points written to the log.
    pub points: u64,
    /// Bytes the record occupies on disk (frame included).
    pub bytes: u64,
    /// Why the session closed.
    pub reason: FlushReason,
    /// The session's decision statistics (from the engine's report).
    pub stats: DecisionStats,
}

/// A failed spill: the underlying error plus everything that was *not*
/// made durable, so the caller can retry or salvage instead of losing
/// data with the sink.
#[derive(Debug)]
pub struct SpillFailure {
    /// The first append error encountered.
    pub error: TlogError,
    /// Buffered output that never reached the log, per track.
    pub unflushed: HashMap<TrackId, Vec<TimedPoint>>,
    /// Spills that did succeed before the failure.
    pub reports: Vec<SpillReport>,
}

impl std::fmt::Display for SpillFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let points: usize = self.unflushed.values().map(Vec::len).sum();
        write!(
            f,
            "{} ({} tracks / {points} points left unflushed)",
            self.error,
            self.unflushed.len(),
        )
    }
}

impl std::error::Error for SpillFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A [`FleetSink`] that makes session output durable. See module docs.
///
/// Generic over how the log is held: `SpillSink<&mut TrajectoryLog>`
/// borrows a log the caller keeps using afterwards, while
/// `SpillSink<TrajectoryLog>` *owns* its log — the shape a
/// [`ParallelFleet`](bqs_core::fleet::ParallelFleet) worker shard needs,
/// since each shard's sink moves onto its worker thread together with
/// that shard's private `shard-<k>/` log.
///
/// # Examples
///
/// A fleet whose sessions are spilled on close and read back from disk:
///
/// ```
/// use bqs_core::fleet::{FleetConfig, FleetEngine};
/// use bqs_core::{BqsConfig, FastBqsCompressor};
/// use bqs_geo::TimedPoint;
/// use bqs_tlog::{LogConfig, SpillSink, TrajectoryLog};
///
/// let dir = std::env::temp_dir().join(format!("spill-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
/// {
///     let mut sink = SpillSink::new(&mut log);
///     let config = BqsConfig::new(10.0).unwrap();
///     let mut fleet = FleetEngine::new(FleetConfig::default(), move || {
///         FastBqsCompressor::new(config)
///     });
///     for i in 0..100 {
///         let p = TimedPoint::new(i as f64 * 9.0, 0.0, i as f64 * 60.0);
///         fleet.push_tagged(7, p, &mut sink);
///     }
///     fleet.finish_all(&mut sink); // fires session_closed → durable append
///     let reports = sink.finish().unwrap();
///     assert_eq!(reports.len(), 1);
/// }
/// assert!(!log.read_track(7).unwrap().is_empty());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct SpillSink<L: BorrowMut<TrajectoryLog>> {
    log: L,
    buffers: HashMap<TrackId, Vec<TimedPoint>>,
    reports: Vec<SpillReport>,
    error: Option<TlogError>,
    metrics: SpillMetrics,
    /// Segment id of the last successful append; a change means the log
    /// rotated to a new segment file between appends.
    last_segment: Option<u64>,
}

impl<L: BorrowMut<TrajectoryLog>> SpillSink<L> {
    /// A sink spilling closed sessions into `log` (borrowed or owned),
    /// counting into a registry of its own that nothing else reads.
    pub fn new(log: L) -> SpillSink<L> {
        SpillSink::with_metrics(log, SpillMetrics::new(&MetricsRegistry::new()))
    }

    /// [`SpillSink::new`], counting into `metrics`: every successful
    /// append bumps the spill counters.
    pub fn with_metrics(log: L, metrics: SpillMetrics) -> SpillSink<L> {
        SpillSink {
            log,
            buffers: HashMap::new(),
            reports: Vec::new(),
            error: None,
            metrics,
            last_segment: None,
        }
    }

    /// The log this sink spills into.
    pub fn log(&mut self) -> &mut TrajectoryLog {
        self.log.borrow_mut()
    }

    /// Tracks with buffered (not yet spilled) output.
    pub fn buffered_tracks(&self) -> usize {
        self.buffers.len()
    }

    /// Points buffered across all open tracks.
    pub fn buffered_points(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Spills recorded so far.
    pub fn reports(&self) -> &[SpillReport] {
        &self.reports
    }

    /// Whether an append has failed (the error is kept for
    /// [`SpillSink::finish`]).
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    fn flush_track(&mut self, track: TrackId, reason: FlushReason, stats: DecisionStats) {
        if self.error.is_some() {
            return; // fail-stop: keep buffers intact after the first error
        }
        let Some(points) = self.buffers.remove(&track) else {
            return; // session produced no output (cannot happen today)
        };
        if points.is_empty() {
            return;
        }
        match self.log.borrow_mut().append(track, &points) {
            Ok(receipt) => {
                let m = &self.metrics;
                m.sessions.inc();
                m.points.add(receipt.points);
                m.bytes.add(receipt.bytes);
                if self.last_segment.is_some_and(|s| s != receipt.segment) {
                    m.rotations.inc();
                }
                if let Some(tr) = &m.trace {
                    tr.record(TraceEventKind::Spill, 0, receipt.points);
                }
                self.last_segment = Some(receipt.segment);
                self.reports.push(SpillReport {
                    track,
                    points: receipt.points,
                    bytes: receipt.bytes,
                    reason,
                    stats,
                });
            }
            Err(e) => {
                // Restore the buffer so no data is lost; surface via finish.
                self.buffers.insert(track, points);
                self.error = Some(e);
            }
        }
    }

    /// Consumes the sink: fails if any append failed, otherwise returns
    /// the spill reports. Tracks the engine never closed (still live at
    /// drop time) are flushed here with [`FlushReason::Finished`] and
    /// default statistics, so no buffered output is silently dropped —
    /// and on failure the un-spilled points come back to the caller
    /// inside [`SpillFailure`] instead of dying with the sink.
    pub fn finish(mut self) -> Result<Vec<SpillReport>, Box<SpillFailure>> {
        let open: Vec<TrackId> = self.buffers.keys().copied().collect();
        for track in open {
            self.flush_track(track, FlushReason::Finished, DecisionStats::default());
        }
        match self.error.take() {
            Some(error) => Err(Box::new(SpillFailure {
                error,
                unflushed: self.buffers,
                reports: self.reports,
            })),
            None => Ok(self.reports),
        }
    }
}

impl<L: BorrowMut<TrajectoryLog>> FleetSink for SpillSink<L> {
    fn accept(&mut self, track: TrackId, point: TimedPoint) {
        self.buffers.entry(track).or_default().push(point);
    }

    fn session_closed(&mut self, report: &SessionReport) {
        self.flush_track(report.track, report.reason, report.stats);
    }

    /// The spill buffers *are* the hot data: kept points of sessions the
    /// engine has not closed yet (plus any buffer retained by a failed
    /// append), none of which the log holds.
    fn live_buffered(&self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        self.buffers.iter().map(|(t, v)| (*t, v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::query::TimeRange;
    use bqs_core::fleet::{FleetConfig, FleetEngine};
    use bqs_core::stream::compress_all;
    use bqs_core::{BqsConfig, FastBqsCompressor};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    fn engine(tolerance: f64) -> FleetEngine<FastBqsCompressor, impl Fn() -> FastBqsCompressor> {
        let config = BqsConfig::new(tolerance).unwrap();
        FleetEngine::new(FleetConfig::default(), move || {
            FastBqsCompressor::new(config)
        })
    }

    #[test]
    fn finish_all_spills_every_session_identically_to_solo() {
        let dir = temp_dir("finish-all");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let traces: Vec<Vec<TimedPoint>> = (0..6).map(|t| wave(t, 300)).collect();
        {
            let mut sink = SpillSink::new(&mut log);
            let mut fleet = engine(10.0);
            for i in 0..300 {
                for (t, trace) in traces.iter().enumerate() {
                    fleet.push_tagged(t as u64, trace[i], &mut sink);
                }
            }
            fleet.finish_all(&mut sink);
            let reports = sink.finish().unwrap();
            assert_eq!(reports.len(), 6);
            assert!(reports.iter().all(|r| r.reason == FlushReason::Finished));
            assert!(reports.iter().all(|r| r.stats.points == 300));
        }
        // Every track reads back byte-identical to solo compression.
        let config = BqsConfig::new(10.0).unwrap();
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let expected = compress_all(&mut solo, trace.iter().copied());
            assert_eq!(log.read_track(t as u64).unwrap(), expected, "track {t}");
        }
    }

    #[test]
    fn eviction_spills_and_the_log_survives_reopen() {
        let dir = temp_dir("evict");
        let config = BqsConfig::new(10.0).unwrap();
        {
            let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
            let mut sink = SpillSink::new(&mut log);
            let mut fleet = engine(10.0);
            // Track 1 stops early; track 2 keeps the clock running far
            // past the idle timeout.
            for p in wave(1, 11) {
                fleet.push_tagged(1, p, &mut sink);
            }
            for p in wave(2, 101) {
                fleet.push_tagged(2, p, &mut sink);
            }
            let evicted = fleet.evict_idle(6000.0, &mut sink);
            assert_eq!(evicted.len(), 1);
            assert_eq!(sink.reports().len(), 1);
            assert_eq!(sink.reports()[0].track, 1);
            assert_eq!(sink.reports()[0].reason, FlushReason::Evicted);
            fleet.finish_all(&mut sink);
            sink.finish().unwrap();
        }
        let (log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, wave(1, 11));
        assert_eq!(log.read_track(1).unwrap(), expected);
        // And it is queryable by time.
        let out = log
            .query_time_range(Some(1), TimeRange::new(0.0, 600.0))
            .unwrap();
        assert_eq!(out.slices.len(), 1);
        assert_eq!(out.slices[0].points, expected);
    }

    #[test]
    fn finish_track_tagged_spills_immediately_with_real_stats() {
        let dir = temp_dir("finish-track");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let mut sink = SpillSink::new(&mut log);
        let mut fleet = engine(10.0);
        for p in wave(6, 80) {
            fleet.push_tagged(6, p, &mut sink);
        }
        let report = fleet.finish_track_tagged(6, &mut sink).unwrap();
        assert_eq!(report.reason, FlushReason::Finished);
        // The spill happened at close time, not at sink teardown, and
        // carries the session's real statistics.
        assert_eq!(sink.reports().len(), 1);
        assert_eq!(sink.reports()[0].stats.points, 80);
        assert_eq!(sink.buffered_tracks(), 0);
        sink.finish().unwrap();
    }

    #[test]
    fn failed_spills_hand_the_buffered_points_back() {
        let dir = temp_dir("failure");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        // Pre-existing data for track 1 far in the future: the spilled
        // session's earlier timestamps make the append fail.
        log.append(1, &[bqs_geo::TimedPoint::new(0.0, 0.0, 1e9)])
            .unwrap();
        let failure = {
            let mut sink = SpillSink::new(&mut log);
            let mut fleet = engine(10.0);
            for p in wave(1, 30) {
                fleet.push_tagged(1, p, &mut sink);
            }
            fleet.finish_all(&mut sink);
            assert!(sink.has_error());
            sink.finish().unwrap_err()
        };
        assert!(matches!(failure.error, TlogError::Codec(_)), "{failure}");
        // Every point the session produced is handed back, not dropped.
        let config = BqsConfig::new(10.0).unwrap();
        let mut solo = FastBqsCompressor::new(config);
        let expected = compress_all(&mut solo, wave(1, 30));
        assert_eq!(failure.unflushed[&1], expected);
        assert!(failure.reports.is_empty());
        // The log itself is untouched beyond the pre-existing record.
        assert_eq!(log.read_track(1).unwrap().len(), 1);
    }

    #[test]
    fn unclosed_buffers_are_flushed_by_finish() {
        let dir = temp_dir("unclosed");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        {
            let mut sink = SpillSink::new(&mut log);
            let mut fleet = engine(10.0);
            for p in wave(4, 50) {
                fleet.push_tagged(4, p, &mut sink);
            }
            // No finish_all: some points are already emitted and buffered.
            assert!(sink.buffered_points() > 0);
            let reports = sink.finish().unwrap();
            assert_eq!(reports.len(), 1);
        }
        assert!(!log.read_track(4).unwrap().is_empty());
    }
}
