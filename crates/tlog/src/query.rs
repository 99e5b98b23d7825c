//! Time-range and bounding-box queries over a [`TrajectoryLog`], plus
//! point-in-time reconstruction through [`bqs_core::reconstruct`].
//!
//! Queries never scan payloads blindly: every record's summary (time
//! span + bounding box) lives in the in-memory index, so the planner
//! first prunes to the records that can possibly contribute, decodes
//! only the survivors, and filters points exactly. [`QueryStats`] exposes
//! the pruning so tests (and operators) can see that a narrow query
//! touches a small fraction of the log.

use crate::error::TlogError;
use crate::log::{merge_live_backfill, TrajectoryLog};
use crate::segment::{RecordKind, RecordSummary};
use bqs_core::fleet::TrackId;
use bqs_core::reconstruct::Reconstructor;
use bqs_geo::{Rect, TimedPoint};

/// An inclusive time interval `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeRange {
    /// Inclusive lower bound.
    pub start: f64,
    /// Inclusive upper bound.
    pub end: f64,
}

impl TimeRange {
    /// A range covering `[start, end]` (swapped if reversed).
    pub fn new(start: f64, end: f64) -> TimeRange {
        if end < start {
            TimeRange {
                start: end,
                end: start,
            }
        } else {
            TimeRange { start, end }
        }
    }

    /// The range covering all representable times.
    pub fn all() -> TimeRange {
        TimeRange {
            start: f64::NEG_INFINITY,
            end: f64::INFINITY,
        }
    }

    /// Whether `t` lies inside the range.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t <= self.end
    }

    /// Whether the range intersects `[min, max]`.
    #[inline]
    pub fn overlaps(&self, min: f64, max: f64) -> bool {
        max >= self.start && min <= self.end
    }
}

/// How much work a query did, and how much the index saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Records of the candidate tracks considered by the planner.
    pub candidate_records: usize,
    /// Records that survived summary pruning and were decoded.
    pub decoded_records: usize,
    /// Points decoded from surviving records.
    pub decoded_points: usize,
    /// Points that matched the query exactly.
    pub kept_points: usize,
}

/// One track's matching points, in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSlice {
    /// The track.
    pub track: TrackId,
    /// Matching points in time order.
    pub points: Vec<TimedPoint>,
}

/// A query's matches plus its work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Matching tracks (ascending id), each with its matching points.
    pub slices: Vec<TrackSlice>,
    /// Pruning/work counters.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Total matching points across all tracks.
    pub fn total_points(&self) -> usize {
        self.slices.iter().map(|s| s.points.len()).sum()
    }
}

impl TrajectoryLog {
    /// Points of `track` (or of every track when `None`) whose timestamp
    /// lies in `range`. Records are pruned via the sparse time index.
    ///
    /// # Examples
    ///
    /// ```
    /// use bqs_geo::TimedPoint;
    /// use bqs_tlog::{LogConfig, TimeRange, TrajectoryLog};
    ///
    /// let dir = std::env::temp_dir().join(format!("query-doc-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    /// let points: Vec<TimedPoint> = (0..60)
    ///     .map(|i| TimedPoint::new(i as f64 * 10.0, 0.0, i as f64 * 60.0))
    ///     .collect();
    /// log.append(3, &points).unwrap();
    ///
    /// // The second half-hour of track 3, inclusive on both ends.
    /// let out = log
    ///     .query_time_range(Some(3), TimeRange::new(1800.0, 3540.0))
    ///     .unwrap();
    /// assert_eq!(out.slices.len(), 1);
    /// assert_eq!(out.slices[0].points.len(), 30);
    /// assert!(out.stats.decoded_records <= out.stats.candidate_records);
    /// # drop(log);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn query_time_range(
        &self,
        track: Option<TrackId>,
        range: TimeRange,
    ) -> Result<QueryOutput, TlogError> {
        self.query(track, range, None)
    }

    /// Points of `track` (or of every track when `None`) inside `area`
    /// (and inside `range`, when given). Records are pruned by both the
    /// per-record bounding box and the time span.
    pub fn query_bbox(
        &self,
        track: Option<TrackId>,
        area: Rect,
        range: Option<TimeRange>,
    ) -> Result<QueryOutput, TlogError> {
        self.query(track, range.unwrap_or_else(TimeRange::all), Some(area))
    }

    fn query(
        &self,
        track: Option<TrackId>,
        range: TimeRange,
        area: Option<Rect>,
    ) -> Result<QueryOutput, TlogError> {
        let mut stats = QueryStats::default();
        let mut slices = Vec::new();
        let tracks: Vec<TrackId> = match track {
            // Membership comes straight from the index — no need to
            // materialise every track id for a single-track query.
            Some(t) if self.track_records(t).is_empty() => Vec::new(),
            Some(t) => vec![t],
            None => self.tracks(),
        };
        let matches =
            |p: &TimedPoint| range.contains(p.t) && area.is_none_or(|a| a.contains(p.pos));
        let could_match = |rec: &RecordSummary| {
            range.overlaps(rec.t_min, rec.t_max) && area.is_none_or(|a| a.intersects(&rec.bbox))
        };
        let mut reader = self.reader();
        for track in tracks {
            let refs = self.track_records(track);
            stats.candidate_records += refs.len();
            let mut decode = |si, ri| {
                let decoded = reader.read_points(si, ri)?;
                stats.decoded_records += 1;
                stats.decoded_points += decoded.len();
                Ok::<_, TlogError>(decoded)
            };
            // Backfill records prune like any record. An in-order record
            // is decoded when it could match, or when its span holds a
            // matching backfill point's timestamp: an exact-timestamp
            // in-order point shadows that backfill point wherever it lies.
            let mut shadowed = Vec::new();
            for &(si, ri) in refs {
                let rec = self.record_summary(si, ri);
                if rec.kind == RecordKind::Backfill && could_match(rec) {
                    shadowed.extend(decode(si, ri)?.into_iter().filter(matches));
                }
            }
            shadowed.sort_by(|a, b| a.t.total_cmp(&b.t));
            let spans_shadowed = |rec: &RecordSummary| {
                let from = shadowed.partition_point(|p| p.t < rec.t_min);
                shadowed.get(from).is_some_and(|p| p.t <= rec.t_max)
            };
            let mut points = Vec::new();
            for &(si, ri) in refs {
                let rec = self.record_summary(si, ri);
                if rec.kind != RecordKind::Backfill && (could_match(rec) || spans_shadowed(rec)) {
                    points.extend(decode(si, ri)?);
                }
            }
            let mut points = merge_live_backfill(points, shadowed);
            points.retain(matches);
            if !points.is_empty() {
                stats.kept_points += points.len();
                slices.push(TrackSlice { track, points });
            }
        }
        Ok(QueryOutput { slices, stats })
    }

    /// Reconstructs `track`'s position at time `t` by decoding only the
    /// records bracketing `t` and interpolating between the surrounding
    /// key points with the paper's uniform progress model
    /// ([`bqs_core::reconstruct`], Eqs. 1–3). Returns `None` for unknown
    /// or deleted tracks; times outside the track's span clamp to its
    /// end points.
    pub fn reconstruct_at(&self, track: TrackId, t: f64) -> Result<Option<TimedPoint>, TlogError> {
        let refs = self.track_records(track);
        if refs.is_empty() {
            return Ok(None);
        }
        if self.track_has_backfill(track) {
            // Backfill breaks the records' bracketing order; merge the
            // whole track instead of picking bracketing records.
            let keys = self.read_track(track)?;
            let reconstructor = Reconstructor::uniform(keys).ok_or_else(|| TlogError::Corrupt {
                path: self.dir().to_path_buf(),
                offset: 0,
                reason: format!("track {track} key points are not time-ordered"),
            })?;
            return Ok(Some(reconstructor.at(t)));
        }
        // The record just before t, every record containing t, and the
        // record just after: between them they hold the bracketing keys.
        let mut wanted: Vec<(usize, usize)> = Vec::new();
        let mut before: Option<(usize, usize)> = None;
        let mut after: Option<(usize, usize)> = None;
        for &(si, ri) in refs {
            let rec = self.record_summary(si, ri);
            if rec.t_max < t {
                before = Some((si, ri));
            } else if rec.t_min > t {
                after = after.or(Some((si, ri)));
            } else {
                wanted.push((si, ri));
            }
        }
        let mut keys = Vec::new();
        let mut reader = self.reader();
        for (si, ri) in before.into_iter().chain(wanted).chain(after) {
            keys.extend(reader.read_points(si, ri)?);
        }
        let reconstructor = Reconstructor::uniform(keys).ok_or_else(|| TlogError::Corrupt {
            path: self.dir().to_path_buf(),
            offset: 0,
            reason: format!("track {track} key points are not time-ordered"),
        })?;
        Ok(Some(reconstructor.at(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use bqs_geo::Point2;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("query-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A track moving east at 1 m/s starting from `(x0, y0)` at t = t0,
    /// one fix per 10 s.
    fn line(x0: f64, y0: f64, t0: f64, n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| TimedPoint::new(x0 + i as f64 * 10.0, y0, t0 + i as f64 * 10.0))
            .collect()
    }

    fn small_segments() -> LogConfig {
        LogConfig {
            segment_max_bytes: 1_500,
            ..LogConfig::default()
        }
    }

    #[test]
    fn time_range_queries_prune_and_filter_exactly() {
        let dir = temp_dir("time-range");
        let (mut log, _) = TrajectoryLog::open(&dir, small_segments()).unwrap();
        // 10 batches of 50 points each: t spans [0, 500), [500, 1000), …
        for batch in 0..10 {
            log.append(4, &line(0.0, 0.0, batch as f64 * 500.0, 50))
                .unwrap();
        }
        let out = log
            .query_time_range(Some(4), TimeRange::new(1_200.0, 1_300.0))
            .unwrap();
        assert_eq!(out.slices.len(), 1);
        let pts = &out.slices[0].points;
        assert!(pts.iter().all(|p| (1_200.0..=1_300.0).contains(&p.t)));
        assert_eq!(out.stats.kept_points, pts.len());
        assert!(pts.len() >= 10);
        // Pruning: only a few of the 10 records overlap 100 s.
        assert_eq!(out.stats.candidate_records, 10);
        assert!(
            out.stats.decoded_records <= 3,
            "expected pruning, decoded {} of {}",
            out.stats.decoded_records,
            out.stats.candidate_records
        );
    }

    #[test]
    fn all_tracks_time_query_groups_by_track() {
        let dir = temp_dir("all-tracks");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        log.append(1, &line(0.0, 0.0, 0.0, 20)).unwrap();
        log.append(2, &line(0.0, 100.0, 0.0, 20)).unwrap();
        log.append(3, &line(0.0, 200.0, 10_000.0, 20)).unwrap();
        let out = log
            .query_time_range(None, TimeRange::new(0.0, 300.0))
            .unwrap();
        let ids: Vec<TrackId> = out.slices.iter().map(|s| s.track).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(out.total_points(), 40);
    }

    #[test]
    fn bbox_queries_prune_by_space_and_time() {
        let dir = temp_dir("bbox");
        let (mut log, _) = TrajectoryLog::open(&dir, small_segments()).unwrap();
        // Track 1 near the origin, track 2 ten km away.
        for batch in 0..5 {
            log.append(1, &line(0.0, 0.0, batch as f64 * 500.0, 50))
                .unwrap();
            log.append(2, &line(10_000.0, 10_000.0, batch as f64 * 500.0, 50))
                .unwrap();
        }
        let area = Rect::from_corners(Point2::new(-1.0, -1.0), Point2::new(200.0, 1.0));
        let out = log.query_bbox(None, area, None).unwrap();
        assert_eq!(out.slices.len(), 1);
        assert_eq!(out.slices[0].track, 1);
        assert!(out.slices[0].points.iter().all(|p| area.contains(p.pos)));
        // Track 2's records were pruned without decoding.
        assert!(out.stats.decoded_records < out.stats.candidate_records);

        let narrow = log
            .query_bbox(None, area, Some(TimeRange::new(0.0, 90.0)))
            .unwrap();
        assert!(narrow.total_points() < out.total_points());
        assert!(narrow.total_points() >= 9);
    }

    #[test]
    fn empty_results_are_not_errors() {
        let dir = temp_dir("empty");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        log.append(1, &line(0.0, 0.0, 0.0, 10)).unwrap();
        let out = log.query_time_range(Some(99), TimeRange::all()).unwrap();
        assert!(out.slices.is_empty());
        let out = log
            .query_time_range(Some(1), TimeRange::new(5_000.0, 6_000.0))
            .unwrap();
        assert!(out.slices.is_empty());
        assert_eq!(out.stats.decoded_records, 0, "index should prune all");
    }

    #[test]
    fn reconstruct_interpolates_between_key_points() {
        let dir = temp_dir("reconstruct");
        let (mut log, _) = TrajectoryLog::open(&dir, small_segments()).unwrap();
        // Key points every 10 s moving 10 m/s east; reconstruction at
        // t=15 must land exactly between the fixes at t=10 and t=20.
        log.append(8, &line(0.0, 0.0, 0.0, 200)).unwrap();
        let p = log.reconstruct_at(8, 15.0).unwrap().unwrap();
        assert!((p.pos.x - 15.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.pos.y, 0.0);
        assert_eq!(p.t, 15.0);

        // Clamping outside the span.
        let before = log.reconstruct_at(8, -100.0).unwrap().unwrap();
        assert_eq!(before.pos, Point2::new(0.0, 0.0));
        let after = log.reconstruct_at(8, 1e9).unwrap().unwrap();
        assert_eq!(after.pos.x, 1_990.0);

        // Unknown track.
        assert!(log.reconstruct_at(9, 0.0).unwrap().is_none());
    }

    #[test]
    fn reconstruct_bridges_record_gaps() {
        let dir = temp_dir("reconstruct-gap");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        // Two batches with a 1000 s hole between them.
        log.append(3, &line(0.0, 0.0, 0.0, 10)).unwrap(); // t ∈ [0, 90]
        log.append(3, &line(1_000.0, 0.0, 1_090.0, 10)).unwrap(); // t ∈ [1090, 1180]
                                                                  // t = 590 is halfway between the last key (t=90, x=90) and the
                                                                  // first key of the next batch (t=1090, x=1000).
        let p = log.reconstruct_at(3, 590.0).unwrap().unwrap();
        assert!(
            (p.pos.x - (90.0 + (1_000.0 - 90.0) * 0.5)).abs() < 1e-9,
            "{p:?}"
        );
    }
}
