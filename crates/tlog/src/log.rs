//! The append-only segmented trajectory log.
//!
//! A log is a directory of segment files (`seg-000001.tlg`, …). Appends
//! go to the highest-numbered segment and roll over to a fresh one when
//! the configured size is exceeded; nothing is ever overwritten in place,
//! so the only write hazard is a torn tail — which [`TrajectoryLog::open`]
//! repairs by truncating the last incomplete frame (CRC-verified, so a
//! half-written record can never be mistaken for data).
//!
//! Every record carries its own summary (track, count, time span,
//! bounding box); opening a log rebuilds the in-memory per-track sparse
//! time index from a header scan without decoding any payload. Tracks are
//! deleted logically with tombstone records; [`TrajectoryLog::compact`]
//! rewrites the live records into fresh segments and physically drops
//! dead data, copying frames verbatim so CRCs never need recomputing.

use crate::codec;
use crate::crc::crc32;
use crate::error::TlogError;
use crate::query::TimeRange;
use crate::segment::{self, RecordKind, RecordSummary, ScanOutcome, SEGMENT_HEADER_LEN};
use bqs_core::fleet::TrackId;
use bqs_geo::{Rect, TimedPoint};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Log tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Segment rollover threshold in bytes. A single record larger than
    /// this still fits (a segment always accepts at least one record).
    pub segment_max_bytes: u64,
    /// `fdatasync` after every append. Off by default: the tail is
    /// CRC-framed, so a lost suffix is detected and truncated on reopen.
    pub fsync: bool,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            // Small enough that compaction and index scans stay nimble,
            // large enough that a fleet's flush batches amortise headers.
            segment_max_bytes: 4 << 20,
            fsync: false,
        }
    }
}

/// What [`TrajectoryLog::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Valid records across all segments.
    pub records: usize,
    /// Segments whose tail had to be truncated.
    pub truncated_segments: usize,
    /// Bytes dropped by tail truncation.
    pub truncated_bytes: u64,
}

/// What one catch-up scan of a log's segment files read: an open (from
/// nothing) or a [`TrajectoryLog::refresh`] (from what was already
/// indexed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Segment-file bytes read: the appended tail of the last known
    /// segment plus every new segment, or every file after a rescan.
    pub bytes: u64,
    /// Whole records newly indexed, tombstones included.
    pub records: usize,
    /// `true` when the known segments no longer matched the directory —
    /// one vanished or shrank, or a segment appeared below the newest
    /// known one (compaction, repair) — and the log was rescanned from
    /// scratch.
    pub rescanned: bool,
    /// Segments whose scan stopped at a torn or still-in-flight tail.
    pub torn_segments: usize,
    /// Bytes past those tails, left for the next refresh to rescan.
    pub torn_bytes: u64,
}

/// Where an append landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Sequence number of the segment written to.
    pub segment: u64,
    /// Frame offset within the segment file.
    pub offset: u64,
    /// Frame size in bytes (prologue + body).
    pub bytes: u64,
    /// Points encoded.
    pub points: u64,
}

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment files before/after.
    pub segments_before: usize,
    /// Segment files after.
    pub segments_after: usize,
    /// Total file bytes before.
    pub bytes_before: u64,
    /// Total file bytes after.
    pub bytes_after: u64,
    /// Records (data + tombstones) physically dropped.
    pub records_dropped: usize,
}

/// Aggregate size/occupancy counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogFootprint {
    /// Segment files.
    pub segments: usize,
    /// Records across all segments (live and dead, incl. tombstones).
    pub records: usize,
    /// Live data records (reachable through the index).
    pub live_records: usize,
    /// Points in live records.
    pub live_points: u64,
    /// Total file bytes.
    pub bytes: u64,
}

/// Header-scan summary of one track's live records — counts, time span
/// and bounding box, never decoded payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSummary {
    /// The track.
    pub track: TrackId,
    /// Live records holding the track.
    pub records: usize,
    /// Points across those records.
    pub points: u64,
    /// Earliest timestamp.
    pub t_min: f64,
    /// Latest timestamp.
    pub t_max: f64,
    /// Union of the records' bounding boxes; `None` only for a track
    /// with no records (which the index never stores).
    pub bbox: Option<Rect>,
}

impl TrackSummary {
    /// Whether the track could hold a point in `range` (and `area`).
    pub(crate) fn may_contain(&self, range: TimeRange, area: Option<&Rect>) -> bool {
        range.overlaps(self.t_min, self.t_max)
            && match (area, &self.bbox) {
                (Some(area), Some(bbox)) => area.intersects(bbox),
                _ => true,
            }
    }
}

#[derive(Debug, Clone)]
struct SegmentInfo {
    seq: u64,
    path: PathBuf,
    /// Length of the valid prefix: the header plus every whole record
    /// indexed so far (0 while a read-only log has not yet seen a whole
    /// header).
    len: u64,
    records: Vec<RecordSummary>,
}

/// One `seg-*.tlg` file as listed in a log directory.
pub(crate) struct ListedSegment {
    pub(crate) seq: u64,
    pub(crate) path: PathBuf,
    /// File length at listing time, torn tail included.
    pub(crate) len: u64,
}

/// Lists `dir`'s segment files with their current lengths, ascending by
/// sequence number — file metadata only, no segment byte is read.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<ListedSegment>, TlogError> {
    let mut listed = Vec::new();
    let entries = fs::read_dir(dir).map_err(io_err(format!("read dir {}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(io_err("read dir entry"))?;
        let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) else {
            continue;
        };
        let path = entry.path();
        let len = entry
            .metadata()
            .map_err(io_err(format!("stat {}", path.display())))?
            .len();
        listed.push(ListedSegment { seq, path, len });
    }
    listed.sort_unstable_by_key(|s| s.seq);
    Ok(listed)
}

/// The durable, queryable trajectory log. See the module docs.
#[derive(Debug)]
pub struct TrajectoryLog {
    dir: PathBuf,
    config: LogConfig,
    segments: Vec<SegmentInfo>,
    /// Append handle on the tail segment; `None` for a log opened with
    /// [`TrajectoryLog::open_read_only`] (write operations then fail
    /// with [`TlogError::ReadOnly`]).
    writer: Option<File>,
    /// Held for the log's lifetime: an OS advisory lock on `LOCK` in the
    /// directory, released automatically even if the process dies. One
    /// process owns a log at a time — a second writable `open` fails
    /// fast instead of interleaving appends or compacting files out
    /// from under a writer. Read-only opens take no lock, so `Some`
    /// also marks the owner, the one opener allowed to repair torn tails.
    lock: Option<File>,
    /// Per-track sparse time index: live records in append order, as
    /// `(segment index, record index)` into `segments`.
    index: BTreeMap<TrackId, Vec<(usize, usize)>>,
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:06}.tlg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".tlg")?;
    rest.parse().ok()
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> TlogError {
    let context = context.into();
    move |e| TlogError::io(context, e)
}

fn create_segment(dir: &Path, seq: u64) -> Result<(PathBuf, File), TlogError> {
    let path = dir.join(segment_file_name(seq));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(io_err(format!("create {}", path.display())))?;
    file.write_all(&segment::segment_header())
        .map_err(io_err(format!("write header {}", path.display())))?;
    Ok((path, file))
}

/// An opening scan's outcome in the terms of crash recovery.
fn recovered((log, scan): (TrajectoryLog, RefreshReport)) -> (TrajectoryLog, RecoveryReport) {
    let report = RecoveryReport {
        segments: log.segments.len(),
        records: scan.records,
        truncated_segments: scan.torn_segments,
        truncated_bytes: scan.torn_bytes,
    };
    (log, report)
}

impl TrajectoryLog {
    /// Opens (or creates) the log at `dir`, repairing any torn tail and
    /// rebuilding the index from the record headers.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: LogConfig,
    ) -> Result<(TrajectoryLog, RecoveryReport), TlogError> {
        TrajectoryLog::open_inner(dir.into(), config, false).map(recovered)
    }

    /// Opens an *existing* log at `dir` for reading only: no advisory
    /// lock is taken, nothing on disk is created or repaired, and every
    /// write operation fails with [`TlogError::ReadOnly`].
    ///
    /// This is the concurrent read path: segments are append-only, so a
    /// lock-free scan taken while a writer is live sees a consistent
    /// prefix of the log — at worst the writer's in-flight tail frame,
    /// which the CRC scan ignores exactly like crash recovery would
    /// (the ignored bytes are counted in the [`RecoveryReport`], but
    /// the file is left untouched). It is an empty log caught up by
    /// [`TrajectoryLog::refresh`], so a reader that keeps the log and
    /// refreshes it later sees exactly what a fresh open would.
    /// `bqs-tlog`'s `QueryEngine` opens every log this way.
    pub fn open_read_only(
        dir: impl Into<PathBuf>,
        config: LogConfig,
    ) -> Result<(TrajectoryLog, RecoveryReport), TlogError> {
        TrajectoryLog::scan_read_only(dir.into(), config).map(recovered)
    }

    /// [`TrajectoryLog::open_read_only`], reporting what the opening
    /// scan read.
    pub(crate) fn scan_read_only(
        dir: PathBuf,
        config: LogConfig,
    ) -> Result<(TrajectoryLog, RefreshReport), TlogError> {
        TrajectoryLog::open_inner(dir, config, true)
    }

    fn open_inner(
        dir: PathBuf,
        config: LogConfig,
        read_only: bool,
    ) -> Result<(TrajectoryLog, RefreshReport), TlogError> {
        let lock = if read_only {
            None
        } else {
            fs::create_dir_all(&dir).map_err(io_err(format!("create dir {}", dir.display())))?;
            let lock_path = dir.join("LOCK");
            let lock = OpenOptions::new()
                .create(true)
                .truncate(false)
                .write(true)
                .open(&lock_path)
                .map_err(io_err(format!("open {}", lock_path.display())))?;
            lock.try_lock().map_err(|e| TlogError::Locked {
                dir: dir.clone(),
                reason: e.to_string(),
            })?;
            Some(lock)
        };
        let mut log = TrajectoryLog {
            dir,
            config,
            segments: Vec::new(),
            writer: None,
            lock,
            index: BTreeMap::new(),
        };
        let scan = log.catch_up()?;
        if !read_only {
            if log.segments.is_empty() {
                let (path, _) = create_segment(&log.dir, 1)?;
                log.segments.push(SegmentInfo {
                    seq: 1,
                    path,
                    len: SEGMENT_HEADER_LEN,
                    records: Vec::new(),
                });
            }
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: at least one segment
            let last = log.segments.last().expect("at least one segment");
            log.writer = Some(
                OpenOptions::new()
                    .append(true)
                    .open(&last.path)
                    .map_err(io_err(format!("open for append {}", last.path.display())))?,
            );
        }
        Ok((log, scan))
    }

    /// Catches a read-only log up with what writers did since it was
    /// opened or last refreshed, reading only bytes it has not indexed:
    /// the tail of its last known segment past the valid prefix, and
    /// any new higher-numbered segment. New records extend the index in
    /// log order, and tombstones remove entries. A torn or in-flight
    /// tail is skipped, as at open, and rescanned from the valid prefix
    /// next time. When a known segment vanished or shrank, or a segment
    /// appeared below the newest known one — compaction or repair — the
    /// log is rescanned from scratch.
    ///
    /// On a writable log this is a no-op: its index already holds every
    /// record it wrote, and its lock keeps every other writer out.
    pub fn refresh(&mut self) -> Result<RefreshReport, TlogError> {
        if self.writer.is_some() {
            return Ok(RefreshReport::default());
        }
        self.catch_up()
    }

    /// `(seq, valid length)` of every indexed segment, ascending: exactly
    /// the bytes this log has read. It equals a listing of the directory
    /// (see `list_segments`) whenever nothing was appended, torn or
    /// rewritten since.
    pub(crate) fn segment_lengths(&self) -> Vec<(u64, u64)> {
        self.segments.iter().map(|s| (s.seq, s.len)).collect()
    }

    /// A read-only copy of this log's indexed view (no writer, no lock),
    /// for a reader that must catch up while an earlier view of the same
    /// log is still being queried.
    pub(crate) fn read_only_copy(&self) -> TrajectoryLog {
        TrajectoryLog {
            dir: self.dir.clone(),
            config: self.config,
            segments: self.segments.clone(),
            writer: None,
            lock: None,
            index: self.index.clone(),
        }
    }

    /// The one scan path behind every open and every refresh: lists the
    /// segment files and indexes every whole record past what is already
    /// indexed. Writers only ever append to the newest segment and add
    /// higher ones, so anything else means the indexed view is void.
    fn catch_up(&mut self) -> Result<RefreshReport, TlogError> {
        let listed = list_segments(&self.dir)?;
        let mut report = RefreshReport::default();
        let intact = listed.len() >= self.segments.len()
            && self
                .segments
                .iter()
                .zip(&listed)
                .all(|(seg, file)| seg.seq == file.seq && file.len >= seg.len);
        if !intact {
            self.segments.clear();
            self.index.clear();
            report.rescanned = true;
        }
        let known = self.segments.len();
        if known > 0 && listed[known - 1].len > self.segments[known - 1].len {
            self.scan_tail(known - 1, &mut report)?;
        }
        for file in listed.into_iter().skip(known) {
            self.segments.push(SegmentInfo {
                seq: file.seq,
                path: file.path,
                len: 0,
                records: Vec::new(),
            });
            self.scan_tail(self.segments.len() - 1, &mut report)?;
        }
        Ok(report)
    }

    /// Reads segment `si` from its valid length to the end of the file
    /// and indexes every whole record found there. A fault stops the
    /// scan: the owner truncates the torn tail away (re-writing a header
    /// that never finished), a reader ignores it and leaves the file
    /// untouched. A *wrong* header on a file long enough to hold one is
    /// not a torn tail — that is refused, not guessed at.
    fn scan_tail(&mut self, si: usize, report: &mut RefreshReport) -> Result<(), TlogError> {
        let seg = &mut self.segments[si];
        let start = seg.len;
        let context = format!("read {}", seg.path.display());
        let mut bytes = Vec::new();
        let mut file = File::open(&seg.path).map_err(io_err(context.clone()))?;
        file.seek(SeekFrom::Start(start))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(io_err(context))?;
        report.bytes += bytes.len() as u64;
        let ScanOutcome {
            records,
            valid_len,
            fault,
        } = segment::scan_segment(&bytes, start);
        seg.len = valid_len;
        if let Some((offset, fault)) = fault {
            let file_len = start + bytes.len() as u64;
            if offset == 0 && file_len >= SEGMENT_HEADER_LEN {
                return Err(TlogError::Corrupt {
                    path: seg.path.clone(),
                    offset,
                    reason: fault.to_string(),
                });
            }
            report.torn_segments += 1;
            report.torn_bytes += file_len - valid_len;
            if self.lock.is_some() {
                let repair = |e| TlogError::io(format!("repair {}", seg.path.display()), e);
                let mut file = OpenOptions::new()
                    .write(true)
                    .open(&seg.path)
                    .map_err(repair)?;
                file.set_len(valid_len).map_err(repair)?;
                if valid_len == 0 {
                    file.write_all(&segment::segment_header()).map_err(repair)?;
                    seg.len = SEGMENT_HEADER_LEN;
                }
            }
        }
        let first = seg.records.len();
        report.records += records.len();
        seg.records.extend(records);
        for (ri, rec) in seg.records.iter().enumerate().skip(first) {
            match rec.kind {
                RecordKind::Points | RecordKind::Backfill => {
                    self.index.entry(rec.track).or_default().push((si, ri));
                }
                RecordKind::Tombstone => {
                    self.index.remove(&rec.track);
                }
            }
        }
        Ok(())
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration in use.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// Live tracks, ascending.
    pub fn tracks(&self) -> Vec<TrackId> {
        self.index.keys().copied().collect()
    }

    /// Per-track summaries (record/point counts, time span, bounding
    /// box) folded from the index's record headers — no payload is
    /// decoded. Ascending by track; the raw material of a spill tree's
    /// `MANIFEST`.
    pub fn track_summaries(&self) -> Vec<TrackSummary> {
        self.index
            .iter()
            .map(|(&track, refs)| self.summarize(track, refs))
            .collect()
    }

    /// Folds one track's live records' headers into its summary.
    fn summarize(&self, track: TrackId, refs: &[(usize, usize)]) -> TrackSummary {
        let mut summary = TrackSummary {
            track,
            records: refs.len(),
            points: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            bbox: None,
        };
        for &(si, ri) in refs {
            let rec = &self.segments[si].records[ri];
            summary.points += rec.count;
            summary.t_min = summary.t_min.min(rec.t_min);
            summary.t_max = summary.t_max.max(rec.t_max);
            summary.bbox = Some(match summary.bbox {
                Some(b) => b.union(&rec.bbox),
                None => rec.bbox,
            });
        }
        summary
    }

    /// Whether `track` (any track, when `None`) could hold a point in
    /// `range` and `area`: the answer a manifest entry folded from this
    /// log gives, without folding the tracks the question does not name.
    pub(crate) fn may_contain(
        &self,
        track: Option<TrackId>,
        range: TimeRange,
        area: Option<&Rect>,
    ) -> bool {
        let (lo, hi) = track.map_or((TrackId::MIN, TrackId::MAX), |t| (t, t));
        let mut named = self.index.range(lo..=hi);
        named.any(|(&t, refs)| self.summarize(t, refs).may_contain(range, area))
    }

    /// The end of `track`'s last in-order record: the gate
    /// [`TrajectoryLog::append`] holds the live stream to, and the line
    /// past which a live fleet's points are not on disk yet. Backfill
    /// never moves it. `None` for a track with no in-order record.
    pub(crate) fn live_watermark(&self, track: TrackId) -> Option<f64> {
        self.track_records(track)
            .iter()
            .rev()
            .map(|&(si, ri)| &self.segments[si].records[ri])
            .find(|rec| rec.kind != RecordKind::Backfill)
            .map(|rec| rec.t_max)
    }

    /// Whether any of `track`'s live records came through the backfill
    /// path — when true, reads must merge instead of concatenating.
    pub(crate) fn track_has_backfill(&self, track: TrackId) -> bool {
        self.track_records(track)
            .iter()
            .any(|&(si, ri)| self.segments[si].records[ri].kind == RecordKind::Backfill)
    }

    /// Live records of one track, in append order.
    pub(crate) fn track_records(&self, track: TrackId) -> &[(usize, usize)] {
        self.index.get(&track).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn record_summary(&self, si: usize, ri: usize) -> &RecordSummary {
        &self.segments[si].records[ri]
    }

    /// Size and occupancy counters.
    pub fn footprint(&self) -> LogFootprint {
        let mut fp = LogFootprint {
            segments: self.segments.len(),
            bytes: self.segments.iter().map(|s| s.len).sum(),
            records: self.segments.iter().map(|s| s.records.len()).sum(),
            ..LogFootprint::default()
        };
        for refs in self.index.values() {
            fp.live_records += refs.len();
            fp.live_points += refs
                .iter()
                .map(|&(si, ri)| self.segments[si].records[ri].count)
                .sum::<u64>();
        }
        fp
    }

    /// Appends one time-ordered batch of `track`'s points. Batches of the
    /// same track must not move backwards in time relative to what the
    /// log already holds — the index and reconstruction rely on it.
    pub fn append(
        &mut self,
        track: TrackId,
        points: &[TimedPoint],
    ) -> Result<AppendReceipt, TlogError> {
        if points.is_empty() {
            return Err(TlogError::EmptyAppend);
        }
        let prev_max = self.live_watermark(track).unwrap_or(f64::NEG_INFINITY);
        codec::check_time(prev_max, points[0].t, 0)?;
        let (frame, summary) = segment::build_points_frame(track, points)?;
        let (si, ri, offset) = self.write_frame(&frame, summary)?;
        self.index.entry(track).or_default().push((si, ri));
        Ok(AppendReceipt {
            segment: self.segments[si].seq,
            offset,
            bytes: frame.len() as u64,
            points: points.len() as u64,
        })
    }

    /// Appends one batch of `track`'s points through the backfill path:
    /// the batch must be time-ordered *within itself* (the codec rejects
    /// disorder) but may lie arbitrarily far behind — or overlap — what
    /// the log already holds. Reads merge backfill points into the live
    /// stream, the in-order copy winning exact-timestamp ties.
    pub fn append_backfill(
        &mut self,
        track: TrackId,
        points: &[TimedPoint],
    ) -> Result<AppendReceipt, TlogError> {
        if points.is_empty() {
            return Err(TlogError::EmptyAppend);
        }
        let (frame, summary) = segment::build_backfill_frame(track, points)?;
        let (si, ri, offset) = self.write_frame(&frame, summary)?;
        self.index.entry(track).or_default().push((si, ri));
        Ok(AppendReceipt {
            segment: self.segments[si].seq,
            offset,
            bytes: frame.len() as u64,
            points: points.len() as u64,
        })
    }

    /// Logically deletes a track by appending a tombstone. Returns `true`
    /// when the track had live data. Space is reclaimed by
    /// [`TrajectoryLog::compact`].
    pub fn delete_track(&mut self, track: TrackId) -> Result<bool, TlogError> {
        if !self.index.contains_key(&track) {
            return Ok(false);
        }
        let (frame, summary) = segment::build_tombstone_frame(track);
        self.write_frame(&frame, summary)?;
        self.index.remove(&track);
        Ok(true)
    }

    /// Writes a prepared frame to the tail segment, rotating first when
    /// the rollover threshold would be crossed. Returns the record's
    /// `(segment index, record index, offset)`.
    fn write_frame(
        &mut self,
        frame: &[u8],
        mut summary: RecordSummary,
    ) -> Result<(usize, usize, u64), TlogError> {
        // An oversized body would be written fine but classified as a
        // torn tail by the reopen scanner (its length prefix fails the
        // sanity bound) — reject it up front instead of acknowledging a
        // record that recovery would destroy.
        let body_len = frame.len() as u64 - segment::FRAME_PROLOGUE_LEN;
        if body_len > u64::from(segment::MAX_BODY_LEN) {
            return Err(TlogError::RecordTooLarge {
                bytes: body_len,
                max: u64::from(segment::MAX_BODY_LEN),
            });
        }
        if self.writer.is_none() {
            return Err(TlogError::ReadOnly {
                dir: self.dir.clone(),
            });
        }
        let needs_rotation = {
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: at least one segment
            let last = self.segments.last().expect("at least one segment");
            !last.records.is_empty()
                && last.len + frame.len() as u64 > self.config.segment_max_bytes
        };
        if needs_rotation {
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: non-empty
            let next_seq = self.segments.last().expect("non-empty").seq + 1;
            let (path, file) = create_segment(&self.dir, next_seq)?;
            self.writer = Some(file);
            self.segments.push(SegmentInfo {
                seq: next_seq,
                path,
                len: SEGMENT_HEADER_LEN,
                records: Vec::new(),
            });
        }
        let si = self.segments.len() - 1;
        let last = &mut self.segments[si];
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: checked writable above
        let writer = self.writer.as_mut().expect("checked writable above");
        let write_result = writer
            .write_all(frame)
            .map_err(io_err(format!("append to {}", last.path.display())))
            .and_then(|()| {
                if self.config.fsync {
                    writer
                        .sync_data()
                        .map_err(io_err(format!("sync {}", last.path.display())))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = write_result {
            // Roll the file back to the last known-good length so torn
            // bytes cannot interleave with a later retry's frame; if even
            // the rollback fails, reopen-time recovery still truncates
            // the (CRC-invalid) tail.
            let _ = writer.set_len(last.len);
            return Err(e);
        }
        let offset = last.len;
        summary.offset = offset;
        last.len += frame.len() as u64;
        last.records.push(summary);
        Ok((si, last.records.len() - 1, offset))
    }

    /// A reader that keeps at most one segment file open and reuses the
    /// handle across consecutive reads — queries, track reads and
    /// compaction touch many records per segment, and per-record
    /// `open`/`seek` syscalls would dominate otherwise.
    pub(crate) fn reader(&self) -> RecordReader<'_> {
        RecordReader {
            log: self,
            current: None,
        }
    }

    /// All live points of `track` in time order: the in-order records
    /// concatenated, with any backfill records merged in (the in-order
    /// copy winning exact-timestamp ties). Empty for unknown or deleted
    /// tracks.
    pub fn read_track(&self, track: TrackId) -> Result<Vec<TimedPoint>, TlogError> {
        let refs = self.track_records(track).to_vec();
        let mut live = Vec::with_capacity(
            refs.iter()
                .map(|&(si, ri)| self.record_summary(si, ri).count as usize)
                .sum(),
        );
        let mut backfill = Vec::new();
        let mut reader = self.reader();
        for (si, ri) in refs {
            let dst = if self.record_summary(si, ri).kind == RecordKind::Backfill {
                &mut backfill
            } else {
                &mut live
            };
            dst.extend(reader.read_points(si, ri)?);
        }
        Ok(merge_live_backfill(live, backfill))
    }

    /// Rewrites live records into fresh segments, physically dropping
    /// deleted tracks' data and all tombstones. Frames are copied
    /// verbatim (CRCs preserved). Not crash-atomic: a crash between the
    /// final renames and the old-file deletions can leave both copies on
    /// disk (see `docs/format.md`); all other windows are safe.
    pub fn compact(&mut self) -> Result<CompactReport, TlogError> {
        if self.writer.is_none() {
            return Err(TlogError::ReadOnly {
                dir: self.dir.clone(),
            });
        }
        let before = self.footprint();
        let live: std::collections::BTreeSet<(usize, usize)> = self
            .index
            .values()
            .flat_map(|refs| refs.iter().copied())
            .collect();

        // Stream live frames in (segment, record) order into staged
        // `.tmp` files, holding at most one segment image in memory.
        let stage = |dir: &Path, seq: u64, bytes: &[u8]| -> Result<(PathBuf, PathBuf), TlogError> {
            let final_path = dir.join(segment_file_name(seq));
            let tmp_path = dir.join(format!("{}.tmp", segment_file_name(seq)));
            let mut f = File::create(&tmp_path)
                .map_err(io_err(format!("create {}", tmp_path.display())))?;
            f.write_all(bytes)
                .map_err(io_err(format!("write {}", tmp_path.display())))?;
            f.sync_data()
                .map_err(io_err(format!("sync {}", tmp_path.display())))?;
            Ok((tmp_path, final_path))
        };
        let mut staged: Vec<(PathBuf, PathBuf)> = Vec::new();
        let mut current: Vec<u8> = segment::segment_header().to_vec();
        let mut current_records = 0usize;
        let mut seq = self.segments.last().map_or(1, |s| s.seq + 1);
        let mut reader = self.reader();
        for &(si, ri) in &live {
            let frame = reader.read_frame(si, ri)?;
            if current_records > 0
                && current.len() as u64 + frame.len() as u64 > self.config.segment_max_bytes
            {
                staged.push(stage(&self.dir, seq, &current)?);
                current.truncate(SEGMENT_HEADER_LEN as usize);
                seq += 1;
                current_records = 0;
            }
            current.extend_from_slice(&frame);
            current_records += 1;
        }
        if current_records > 0 {
            staged.push(stage(&self.dir, seq, &current)?);
        }
        drop(reader);

        // Publish the new generation, then drop the old one.
        for (tmp, final_path) in &staged {
            fs::rename(tmp, final_path).map_err(io_err(format!("rename {}", tmp.display())))?;
        }
        for seg in &self.segments {
            fs::remove_file(&seg.path).map_err(io_err(format!("remove {}", seg.path.display())))?;
        }

        // Reload from disk: revalidates the new generation end to end.
        let dir = self.dir.clone();
        let config = self.config;
        // Release our advisory lock first: the reopen takes its own (a
        // second fd on the same LOCK file would conflict).
        if let Some(lock) = &self.lock {
            let _ = lock.unlock();
        }
        let (fresh, _) = TrajectoryLog::open(dir, config)?;
        *self = fresh;

        let after = self.footprint();
        Ok(CompactReport {
            segments_before: before.segments,
            segments_after: after.segments,
            bytes_before: before.bytes,
            bytes_after: after.bytes,
            records_dropped: before.records - after.records,
        })
    }
}

/// Merges a track's backfill points into its in-order live stream.
///
/// `live` is time-ordered (the in-order records' concatenation);
/// `backfill` is each record sorted but their concatenation possibly
/// not, so it is stable-sorted first. On an exact timestamp collision
/// the live copy wins and the backfill point is dropped — the
/// "durable-wins" rule viewed from inside one log: data that passed the
/// ordered ingest gate outranks a late retransmission of the same fix.
/// The query engine merges a live fleet's unspilled points into a cold
/// answer by the same rule, so mid-run ties resolve as the finished log's.
pub(crate) fn merge_live_backfill(
    live: Vec<TimedPoint>,
    mut backfill: Vec<TimedPoint>,
) -> Vec<TimedPoint> {
    if backfill.is_empty() {
        return live;
    }
    backfill.sort_by(|a, b| a.t.total_cmp(&b.t));
    if live.is_empty() {
        return backfill;
    }
    let mut out = Vec::with_capacity(live.len() + backfill.len());
    let mut li = 0;
    let mut bi = 0;
    while li < live.len() && bi < backfill.len() {
        let lt = live[li].t;
        let bt = backfill[bi].t;
        if bt < lt {
            out.push(backfill[bi]);
            bi += 1;
        } else if bt == lt {
            // Duplicate timestamp: the in-order copy wins.
            bi += 1;
        } else {
            out.push(live[li]);
            li += 1;
        }
    }
    out.extend_from_slice(&live[li..]);
    out.extend_from_slice(&backfill[bi..]);
    out
}

/// Reads records through a cached per-segment file handle: consecutive
/// reads from the same segment reuse one open file instead of paying an
/// `open`/`seek` pair per record.
pub(crate) struct RecordReader<'a> {
    log: &'a TrajectoryLog,
    current: Option<(usize, File)>,
}

impl RecordReader<'_> {
    fn file_for(&mut self, si: usize) -> Result<&mut File, TlogError> {
        if self.current.as_ref().map(|(s, _)| *s) != Some(si) {
            let path = &self.log.segments[si].path;
            let file = File::open(path).map_err(io_err(format!("open {}", path.display())))?;
            self.current = Some((si, file));
        }
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: just set
        Ok(&mut self.current.as_mut().expect("just set").1)
    }

    /// Reads one record's raw frame (prologue + body) verbatim.
    pub(crate) fn read_frame(&mut self, si: usize, ri: usize) -> Result<Vec<u8>, TlogError> {
        let rec = *self.log.record_summary(si, ri);
        let context = format!("read {}", self.log.segments[si].path.display());
        let file = self.file_for(si)?;
        file.seek(SeekFrom::Start(rec.offset))
            .map_err(io_err(context.clone()))?;
        let mut frame = vec![0u8; rec.frame_len as usize];
        file.read_exact(&mut frame).map_err(io_err(context))?;
        Ok(frame)
    }

    /// Reads and CRC-checks one record's body.
    pub(crate) fn read_body(&mut self, si: usize, ri: usize) -> Result<Vec<u8>, TlogError> {
        let mut frame = self.read_frame(si, ri)?;
        // bqs-analyze: allow(no-unwrap-in-lib) — the slice is exactly 4 bytes by the index arithmetic
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        let body = frame.split_off(8);
        if crc32(&body) != crc {
            let rec = self.log.record_summary(si, ri);
            return Err(TlogError::Corrupt {
                path: self.log.segments[si].path.clone(),
                offset: rec.offset,
                reason: "CRC mismatch on read-back".to_string(),
            });
        }
        Ok(body)
    }

    /// Decodes one live record into points.
    pub(crate) fn read_points(
        &mut self,
        si: usize,
        ri: usize,
    ) -> Result<Vec<TimedPoint>, TlogError> {
        let body = self.read_body(si, ri)?;
        let (_track, points) = segment::decode_points_body(&body)?;
        Ok(points)
    }
}

/// What a strict full-scan verification found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segment files checked.
    pub segments: usize,
    /// Data records decoded and validated (backfill included).
    pub records: usize,
    /// Of those, records written through the backfill path.
    pub backfill_records: usize,
    /// Tombstones seen.
    pub tombstones: usize,
    /// Points decoded across all data records.
    pub points: u64,
    /// Total file bytes.
    pub file_bytes: u64,
    /// Codec payload bytes (excluding frame and summary overhead).
    pub payload_bytes: u64,
}

impl VerifyReport {
    /// Whole-file bytes per stored point (framing included).
    pub fn file_bytes_per_point(&self) -> f64 {
        self.file_bytes as f64 / (self.points.max(1)) as f64
    }
}

/// Strictly verifies every segment in `dir` without repairing anything:
/// CRC-checks and fully decodes every record, re-validating counts,
/// timestamp monotonicity and the indexed summaries. Any fault — torn
/// tail included — is an error here, where `open` would repair it.
pub fn verify_dir(dir: impl AsRef<Path>) -> Result<VerifyReport, TlogError> {
    let mut report = VerifyReport::default();
    for ListedSegment { path, .. } in list_segments(dir.as_ref())? {
        let bytes = fs::read(&path).map_err(io_err(format!("read {}", path.display())))?;
        let scan = segment::scan_segment(&bytes, 0);
        if let Some((offset, fault)) = scan.fault {
            return Err(TlogError::Corrupt {
                path,
                offset,
                reason: fault.to_string(),
            });
        }
        report.segments += 1;
        report.file_bytes += bytes.len() as u64;
        for rec in &scan.records {
            let body = &bytes[(rec.offset + segment::FRAME_PROLOGUE_LEN) as usize
                ..(rec.offset + rec.frame_len) as usize];
            match rec.kind {
                RecordKind::Tombstone => report.tombstones += 1,
                RecordKind::Points | RecordKind::Backfill => {
                    let (_, points) =
                        segment::decode_points_body(body).map_err(|e| TlogError::Corrupt {
                            path: path.clone(),
                            offset: rec.offset,
                            reason: e.to_string(),
                        })?;
                    let corrupt = |reason: &str| TlogError::Corrupt {
                        path: path.clone(),
                        offset: rec.offset,
                        reason: reason.to_string(),
                    };
                    let (Some(first), Some(last)) = (points.first(), points.last()) else {
                        return Err(corrupt("empty data record"));
                    };
                    if first.t != rec.t_min || last.t != rec.t_max {
                        return Err(corrupt("summary time span disagrees with payload"));
                    }
                    if points.windows(2).any(|w| w[1].t < w[0].t) {
                        return Err(corrupt("timestamps not monotone"));
                    }
                    if points
                        .iter()
                        .any(|p| p.pos.is_finite() && !rec.bbox.contains(p.pos))
                    {
                        return Err(corrupt("bounding box does not cover payload"));
                    }
                    report.records += 1;
                    if rec.kind == RecordKind::Backfill {
                        report.backfill_records += 1;
                    }
                    report.points += points.len() as u64;
                    // Payload = body minus kind, varints and the summary.
                    if let Ok(segment::RecordBody::Points { payload, .. }) =
                        segment::parse_body(body)
                    {
                        report.payload_bytes += payload.len() as u64;
                    }
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecError;
    use crate::TimeRange;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn walk(track: u64, n: usize, t0: f64) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(
                    a * 4.0 + track as f64 * 100.0,
                    (a * 0.2).sin() * 30.0,
                    t0 + a * 5.0,
                )
            })
            .collect()
    }

    #[test]
    fn append_read_reopen_round_trip() {
        let dir = temp_dir("round-trip");
        let (mut log, rep) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rep.records, 0);
        let a = walk(1, 100, 0.0);
        let b = walk(2, 50, 10.0);
        log.append(1, &a).unwrap();
        log.append(2, &b).unwrap();
        assert_eq!(log.tracks(), vec![1, 2]);
        assert_eq!(log.read_track(1).unwrap(), a);
        assert_eq!(log.read_track(2).unwrap(), b);

        drop(log);
        let (log, rep) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rep.records, 2);
        assert_eq!(rep.truncated_segments, 0);
        assert_eq!(log.read_track(1).unwrap(), a);
        assert_eq!(log.read_track(2).unwrap(), b);
    }

    #[test]
    fn multi_batch_tracks_concatenate_in_order() {
        let dir = temp_dir("multi-batch");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let first = walk(5, 40, 0.0);
        let second = walk(5, 40, 1_000.0);
        log.append(5, &first).unwrap();
        log.append(5, &second).unwrap();
        let all = log.read_track(5).unwrap();
        assert_eq!(all.len(), 80);
        assert_eq!(&all[..40], &first[..]);
        assert_eq!(&all[40..], &second[..]);
    }

    #[test]
    fn backwards_batches_are_rejected() {
        let dir = temp_dir("backwards");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        log.append(1, &walk(1, 10, 500.0)).unwrap();
        let err = log.append(1, &walk(1, 10, 0.0)).unwrap_err();
        assert!(matches!(
            err,
            TlogError::Codec(CodecError::NonMonotonicTimestamps { .. })
        ));
        assert!(matches!(
            log.append(1, &[]).unwrap_err(),
            TlogError::EmptyAppend
        ));
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = temp_dir("rotate");
        let config = LogConfig {
            segment_max_bytes: 2_000,
            ..LogConfig::default()
        };
        let (mut log, _) = TrajectoryLog::open(&dir, config).unwrap();
        let mut t0 = 0.0;
        for _ in 0..20 {
            log.append(7, &walk(7, 50, t0)).unwrap();
            t0 += 10_000.0;
        }
        let fp = log.footprint();
        assert!(fp.segments > 1, "expected rotation, got {fp:?}");
        assert_eq!(fp.live_points, 20 * 50);
        // Everything still reads back in order across segments.
        let all = log.read_track(7).unwrap();
        assert_eq!(all.len(), 1_000);
        assert!(all.windows(2).all(|w| w[1].t >= w[0].t));
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen_preserving_full_records() {
        let dir = temp_dir("torn");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let a = walk(1, 60, 0.0);
        let b = walk(2, 60, 0.0);
        log.append(1, &a).unwrap();
        let receipt = log.append(2, &b).unwrap();
        let path = log.segments.last().unwrap().path.clone();
        drop(log);

        // Tear the final record in half.
        let bytes = fs::read(&path).unwrap();
        let cut = receipt.offset + receipt.bytes / 2;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        assert!(fs::metadata(&path).unwrap().len() < bytes.len() as u64);

        let (log, rep) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rep.truncated_segments, 1);
        assert!(rep.truncated_bytes > 0);
        assert_eq!(log.read_track(1).unwrap(), a);
        assert!(log.read_track(2).unwrap().is_empty());
        // The repaired log verifies clean.
        verify_dir(&dir).unwrap();
    }

    #[test]
    fn delete_and_compact_reclaim_space() {
        let dir = temp_dir("compact");
        let config = LogConfig {
            segment_max_bytes: 4_000,
            ..LogConfig::default()
        };
        let (mut log, _) = TrajectoryLog::open(&dir, config).unwrap();
        let keep = walk(1, 200, 0.0);
        log.append(1, &keep).unwrap();
        let mut t0 = 0.0;
        for _ in 0..10 {
            log.append(2, &walk(2, 200, t0)).unwrap();
            t0 += 10_000.0;
        }
        assert!(log.delete_track(2).unwrap());
        assert!(!log.delete_track(99).unwrap());

        let before = log.footprint();
        let report = log.compact().unwrap();
        assert!(report.bytes_after < report.bytes_before, "{report:?}");
        assert!(report.records_dropped >= 10, "{report:?}");
        let after = log.footprint();
        assert!(after.bytes < before.bytes);
        assert_eq!(log.tracks(), vec![1]);
        assert_eq!(log.read_track(1).unwrap(), keep);
        assert!(log.read_track(2).unwrap().is_empty());
        verify_dir(&dir).unwrap();

        // The compacted log is still appendable.
        log.append(3, &walk(3, 20, 0.0)).unwrap();
        assert_eq!(log.tracks(), vec![1, 3]);
    }

    #[test]
    fn verify_reports_corruption_strictly() {
        let dir = temp_dir("verify-corrupt");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        log.append(1, &walk(1, 80, 0.0)).unwrap();
        let path = log.segments.last().unwrap().path.clone();
        drop(log);

        let ok = verify_dir(&dir).unwrap();
        assert_eq!(ok.records, 1);
        assert_eq!(ok.points, 80);
        assert!(ok.file_bytes_per_point() > 0.0);

        // Flip a payload byte: verify must fail even though open would
        // only truncate.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 5;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        assert!(matches!(err, TlogError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn read_only_open_reads_alongside_a_live_writer_without_touching_disk() {
        let dir = temp_dir("read-only");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let a = walk(1, 60, 0.0);
        log.append(1, &a).unwrap();

        // The writer's lock does not block a read-only open.
        let (ro, rep) = TrajectoryLog::open_read_only(&dir, LogConfig::default()).unwrap();
        assert!(ro.writer.is_none());
        assert_eq!(rep.records, 1);
        assert_eq!(ro.read_track(1).unwrap(), a);
        assert_eq!(ro.live_watermark(1), Some(295.0));

        // Every write path is refused with a typed error.
        let mut ro = ro;
        assert!(matches!(
            ro.append(2, &a).unwrap_err(),
            TlogError::ReadOnly { .. }
        ));
        assert!(matches!(
            ro.delete_track(1).unwrap_err(),
            TlogError::ReadOnly { .. }
        ));
        assert!(matches!(
            ro.compact().unwrap_err(),
            TlogError::ReadOnly { .. }
        ));

        // The writer is still healthy and sees its own appends.
        let b = walk(1, 10, 10_000.0);
        log.append(1, &b).unwrap();
        assert_eq!(log.read_track(1).unwrap().len(), 70);
    }

    #[test]
    fn read_only_open_ignores_a_torn_tail_without_repairing_it() {
        let dir = temp_dir("read-only-torn");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let a = walk(1, 60, 0.0);
        log.append(1, &a).unwrap();
        let receipt = log.append(2, &walk(2, 60, 0.0)).unwrap();
        let path = log.segments.last().unwrap().path.clone();
        drop(log);

        let cut = receipt.offset + receipt.bytes / 2;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let (ro, rep) = TrajectoryLog::open_read_only(&dir, LogConfig::default()).unwrap();
        assert_eq!(rep.truncated_segments, 1);
        assert!(rep.truncated_bytes > 0);
        assert_eq!(ro.read_track(1).unwrap(), a);
        assert!(ro.read_track(2).unwrap().is_empty());
        // The file was *not* truncated: the torn bytes are still there
        // for the writer's own recovery to handle.
        assert_eq!(fs::metadata(&path).unwrap().len(), cut);
    }

    #[test]
    fn track_summaries_fold_record_headers() {
        let dir = temp_dir("summaries");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        log.append(1, &walk(1, 30, 0.0)).unwrap();
        log.append(1, &walk(1, 30, 1_000.0)).unwrap();
        log.append(2, &walk(2, 10, 50.0)).unwrap();
        let summaries = log.track_summaries();
        assert_eq!(summaries.len(), 2);
        let s1 = &summaries[0];
        assert_eq!((s1.track, s1.records, s1.points), (1, 2, 60));
        assert_eq!((s1.t_min, s1.t_max), (0.0, 1_145.0));
        let bbox = s1.bbox.unwrap();
        assert!(bbox.min.x <= 100.0 && bbox.max.x >= 216.0);
        assert_eq!(summaries[1].track, 2);
    }

    #[test]
    fn second_open_is_refused_while_locked() {
        let dir = temp_dir("locked");
        let (log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let err = TrajectoryLog::open(&dir, LogConfig::default()).unwrap_err();
        assert!(matches!(err, TlogError::Locked { .. }), "{err}");
        // Dropping the first owner releases the lock.
        drop(log);
        TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
    }

    #[test]
    fn backfill_appends_merge_into_reads_with_live_winning_ties() {
        let dir = temp_dir("backfill-merge");
        let (mut log, _) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        let live = walk(1, 20, 1_000.0); // t ∈ [1000, 1095]
        log.append(1, &live).unwrap();

        // Backfill a batch older than everything, plus one exact
        // duplicate timestamp that must lose to the live copy.
        let old = walk(1, 5, 0.0); // t ∈ [0, 20]
        log.append_backfill(1, &old).unwrap();
        let dup = [TimedPoint::new(-1.0, -1.0, 1_000.0)];
        log.append_backfill(1, &dup).unwrap();

        // The live watermark is the last *in-order* record's end (1095),
        // not the backfill record's t_max: live appends continue fine…
        assert_eq!(log.live_watermark(1), Some(1_095.0));
        let more = walk(1, 5, 2_000.0); // t ∈ [2000, 2020]
        log.append(1, &more).unwrap();
        // …and a live batch behind the live watermark is still refused.
        assert!(matches!(
            log.append(1, &walk(1, 3, 1_500.0)).unwrap_err(),
            TlogError::Codec(CodecError::NonMonotonicTimestamps { .. })
        ));
        // Backfill batches must themselves be sorted.
        let unsorted = [
            TimedPoint::new(0.0, 0.0, 10.0),
            TimedPoint::new(0.0, 0.0, 5.0),
        ];
        assert!(log.append_backfill(1, &unsorted).is_err());
        assert!(matches!(
            log.append_backfill(1, &[]).unwrap_err(),
            TlogError::EmptyAppend
        ));

        let mut want = old.clone();
        want.extend_from_slice(&live);
        want.extend_from_slice(&more);
        let all = log.read_track(1).unwrap();
        assert_eq!(all, want, "duplicate dropped, rest merged in order");
        assert!(all.windows(2).all(|w| w[1].t >= w[0].t));
        assert_eq!(log.live_watermark(1), Some(2_020.0));

        // Queries take the merged path and filter exactly.
        let out = log
            .query_time_range(Some(1), TimeRange::new(0.0, 1_010.0))
            .unwrap();
        assert_eq!(out.slices.len(), 1);
        let expect: Vec<TimedPoint> = want.iter().copied().filter(|p| p.t <= 1_010.0).collect();
        assert_eq!(out.slices[0].points, expect);
        // Pruning stays exact: the in-order record past the range is
        // skipped…
        let counts = (out.stats.candidate_records, out.stats.decoded_records);
        assert_eq!(counts, (4, 3));
        // …and an in-order record outside the area is still read where
        // it shadows a backfill point inside it.
        let corner = Rect::from_corners(
            bqs_geo::Point2::new(-2.0, -2.0),
            bqs_geo::Point2::new(0.0, 0.0),
        );
        let boxed = log.query_bbox(Some(1), corner, None).unwrap();
        assert!(boxed.slices.is_empty(), "{boxed:?}");

        // Strict verification understands (and counts) backfill records.
        drop(log);
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.backfill_records, 2);
        assert_eq!(report.records, 4);

        // Reopen rebuilds the same merged view; compaction preserves
        // backfill records verbatim.
        let (mut log, rep) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rep.records, 4);
        assert_eq!(log.read_track(1).unwrap(), want);
        log.compact().unwrap();
        assert_eq!(log.read_track(1).unwrap(), want);
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.backfill_records, 2);
    }

    #[test]
    fn fsync_mode_appends_fine() {
        let dir = temp_dir("fsync");
        let config = LogConfig {
            fsync: true,
            ..LogConfig::default()
        };
        let (mut log, _) = TrajectoryLog::open(&dir, config).unwrap();
        log.append(1, &walk(1, 10, 0.0)).unwrap();
        assert_eq!(log.read_track(1).unwrap().len(), 10);
    }
}
