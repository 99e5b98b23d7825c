//! Segment-file framing: header, record frames, CRC validation and the
//! tail-tolerant scanner that powers crash recovery.
//!
//! A segment file is an 8-byte header followed by back-to-back record
//! frames (`docs/format.md` is the normative spec):
//!
//! ```text
//! header:  "BQTL"  u16 version  u16 flags
//! frame:   u32 body_len | u32 crc32(body) | body
//! body:    u8 kind | varint track | kind-specific fields
//! points:  varint count | t_min | t_max | x_min | y_min | x_max | y_max
//!          | codec payload                         (f64s little-endian)
//! ```
//!
//! The per-record summary (count, time span, bounding box) is stored
//! redundantly in the body header so the in-memory index can be rebuilt
//! from a header scan without decoding any payload; the CRC covers the
//! whole body, so a record is either fully trusted or fully rejected.

use crate::codec::{self, read_f64, write_f64, CodecError};
use crate::crc::crc32;
use bqs_core::fleet::TrackId;
use bqs_geo::{Rect, TimedPoint};

/// The four magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"BQTL";

/// On-disk format version (header `version` field).
pub const FORMAT_VERSION: u16 = 1;

/// Bytes of the segment header (magic + version + flags).
pub const SEGMENT_HEADER_LEN: u64 = 8;

/// Bytes of a frame prologue (length + CRC).
pub const FRAME_PROLOGUE_LEN: u64 = 8;

/// Upper bound accepted for one record body; larger length prefixes are
/// treated as corruption rather than attempted allocations.
pub const MAX_BODY_LEN: u32 = 1 << 30;

/// What a record contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An encoded point stream of one track.
    Points,
    /// A tombstone: all earlier data of the track is dead.
    Tombstone,
    /// An encoded point stream written by the backfill path: sorted
    /// *within* the record, but exempt from the cross-record time
    /// ordering that [`RecordKind::Points`] records obey. Readers merge
    /// backfill points into the live stream at query time, with the
    /// in-order record winning exact-timestamp ties.
    Backfill,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Points),
            2 => Some(RecordKind::Tombstone),
            3 => Some(RecordKind::Backfill),
            _ => None,
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Points => 1,
            RecordKind::Tombstone => 2,
            RecordKind::Backfill => 3,
        }
    }
}

/// Index entry for one record: everything the query planner needs to
/// prune without touching the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordSummary {
    /// Offset of the frame (its length prefix) within the segment file.
    pub offset: u64,
    /// Total frame length (prologue + body) in bytes.
    pub frame_len: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// The track the record belongs to.
    pub track: TrackId,
    /// Points in the payload (0 for tombstones).
    pub count: u64,
    /// Smallest timestamp in the payload.
    pub t_min: f64,
    /// Largest timestamp in the payload.
    pub t_max: f64,
    /// Minimum bounding rectangle of the payload's positions.
    pub bbox: Rect,
}

/// A parsed record body borrowing the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordBody<'a> {
    /// A data record — an encoded point stream with its index summary.
    /// Covers both [`RecordKind::Points`] and [`RecordKind::Backfill`]
    /// (they share a body layout; `kind` tells them apart).
    Points {
        /// [`RecordKind::Points`] or [`RecordKind::Backfill`].
        kind: RecordKind,
        /// The owning track.
        track: TrackId,
        /// Declared number of points in the payload.
        count: u64,
        /// Smallest timestamp.
        t_min: f64,
        /// Largest timestamp.
        t_max: f64,
        /// Bounding box of the positions.
        bbox: Rect,
        /// The codec payload.
        payload: &'a [u8],
    },
    /// A tombstone for `track`.
    Tombstone {
        /// The track whose earlier data is dead.
        track: TrackId,
    },
}

/// Builds a complete points-record frame (prologue + body) and its
/// summary (with `offset` left at 0 for the writer to fill in).
pub fn build_points_frame(
    track: TrackId,
    points: &[TimedPoint],
) -> Result<(Vec<u8>, RecordSummary), CodecError> {
    build_data_frame(RecordKind::Points, track, points)
}

/// Builds a backfill-record frame: the same body layout as a points
/// record, flagged so readers know it is exempt from cross-record time
/// ordering. The batch must still be sorted *within* itself (the codec
/// rejects disorder at encode time).
pub fn build_backfill_frame(
    track: TrackId,
    points: &[TimedPoint],
) -> Result<(Vec<u8>, RecordSummary), CodecError> {
    build_data_frame(RecordKind::Backfill, track, points)
}

fn build_data_frame(
    kind: RecordKind,
    track: TrackId,
    points: &[TimedPoint],
) -> Result<(Vec<u8>, RecordSummary), CodecError> {
    debug_assert!(!points.is_empty(), "caller enforces non-empty appends");
    debug_assert!(kind != RecordKind::Tombstone);
    let t_min = points.first().map_or(0.0, |p| p.t);
    let t_max = points.last().map_or(0.0, |p| p.t);
    let bbox = Rect::bounding(points.iter().map(|p| p.pos))
        .unwrap_or(Rect::from_point(bqs_geo::Point2::ORIGIN));

    let mut body = Vec::with_capacity(64 + points.len() * 4);
    body.push(kind.to_byte());
    codec::write_varint(track, &mut body);
    codec::write_varint(points.len() as u64, &mut body);
    write_f64(t_min, &mut body);
    write_f64(t_max, &mut body);
    write_f64(bbox.min.x, &mut body);
    write_f64(bbox.min.y, &mut body);
    write_f64(bbox.max.x, &mut body);
    write_f64(bbox.max.y, &mut body);
    codec::encode_points(points, &mut body)?;

    let summary = RecordSummary {
        offset: 0,
        frame_len: FRAME_PROLOGUE_LEN + body.len() as u64,
        kind,
        track,
        count: points.len() as u64,
        t_min,
        t_max,
        bbox,
    };
    Ok((frame_from_body(body), summary))
}

/// Builds a tombstone frame and its summary.
pub fn build_tombstone_frame(track: TrackId) -> (Vec<u8>, RecordSummary) {
    let mut body = Vec::with_capacity(12);
    body.push(RecordKind::Tombstone.to_byte());
    codec::write_varint(track, &mut body);
    let summary = RecordSummary {
        offset: 0,
        frame_len: FRAME_PROLOGUE_LEN + body.len() as u64,
        kind: RecordKind::Tombstone,
        track,
        count: 0,
        t_min: 0.0,
        t_max: 0.0,
        bbox: Rect::from_point(bqs_geo::Point2::ORIGIN),
    };
    (frame_from_body(body), summary)
}

fn frame_from_body(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// The 8-byte segment header.
pub fn segment_header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // h[6..8]: flags, reserved as zero.
    h
}

/// Parses a record body (the CRC-covered bytes of one frame).
pub fn parse_body(body: &[u8]) -> Result<RecordBody<'_>, CodecError> {
    let mut pos = 0usize;
    let &kind = body.first().ok_or(CodecError::Truncated { offset: 0 })?;
    pos += 1;
    let kind = RecordKind::from_byte(kind).ok_or(CodecError::Truncated { offset: 0 })?;
    let track = codec::read_varint(body, &mut pos)?;
    match kind {
        RecordKind::Tombstone => Ok(RecordBody::Tombstone { track }),
        RecordKind::Points | RecordKind::Backfill => {
            let count = codec::read_varint(body, &mut pos)?;
            let t_min = read_f64(body, &mut pos)?;
            let t_max = read_f64(body, &mut pos)?;
            let min = bqs_geo::Point2::new(read_f64(body, &mut pos)?, read_f64(body, &mut pos)?);
            let max = bqs_geo::Point2::new(read_f64(body, &mut pos)?, read_f64(body, &mut pos)?);
            Ok(RecordBody::Points {
                kind,
                track,
                count,
                t_min,
                t_max,
                bbox: Rect { min, max },
                payload: &body[pos..],
            })
        }
    }
}

/// Why a scan stopped before the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFault {
    /// Fewer bytes remain than a frame prologue.
    ShortPrologue,
    /// The length prefix points past the end of the file (torn write) or
    /// past [`MAX_BODY_LEN`].
    ShortBody,
    /// The CRC over the body did not match the prologue.
    CrcMismatch,
    /// The body header did not parse.
    MalformedBody,
    /// The segment header itself is bad (wrong magic or version).
    BadHeader,
}

impl std::fmt::Display for TailFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TailFault::ShortPrologue => "incomplete frame prologue",
            TailFault::ShortBody => "frame length overruns the file",
            TailFault::CrcMismatch => "CRC mismatch",
            TailFault::MalformedBody => "malformed record body",
            TailFault::BadHeader => "bad segment header",
        };
        f.write_str(s)
    }
}

/// Result of scanning one segment image.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Summaries of the valid records, in file order.
    pub records: Vec<RecordSummary>,
    /// Length of the valid prefix (header + whole records); the recovery
    /// truncation point when `fault` is set.
    pub valid_len: u64,
    /// The first invalid byte range, if the scan stopped early.
    pub fault: Option<(u64, TailFault)>,
}

/// Scans a segment image, collecting record summaries until the first
/// invalid frame. `bytes` is the file from byte `offset` on: offset 0
/// means the image opens with the segment header, any other offset must
/// be a frame boundary (a log catching up on appended bytes passes its
/// valid length). Offsets and `valid_len` in the outcome are absolute
/// file positions. Never panics on arbitrary bytes; the caller decides
/// whether a fault means "truncate the tail" (recovery) or "refuse the
/// file" (strict verification).
pub fn scan_segment(bytes: &[u8], offset: u64) -> ScanOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    if offset == 0 {
        if bytes.len() < SEGMENT_HEADER_LEN as usize
            || bytes[..4] != MAGIC
            || u16::from_le_bytes([bytes[4], bytes[5]]) != FORMAT_VERSION
        {
            return ScanOutcome {
                records,
                valid_len: 0,
                fault: Some((0, TailFault::BadHeader)),
            };
        }
        pos = SEGMENT_HEADER_LEN as usize;
    }
    loop {
        if pos == bytes.len() {
            return ScanOutcome {
                records,
                valid_len: offset + pos as u64,
                fault: None,
            };
        }
        let fault = |records: Vec<RecordSummary>, pos: usize, f: TailFault| ScanOutcome {
            records,
            valid_len: offset + pos as u64,
            fault: Some((offset + pos as u64, f)),
        };
        if bytes.len() - pos < FRAME_PROLOGUE_LEN as usize {
            return fault(records, pos, TailFault::ShortPrologue);
        }
        // bqs-analyze: allow(no-unwrap-in-lib) — the slice is exactly 4 bytes by the index arithmetic
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        // bqs-analyze: allow(no-unwrap-in-lib) — the slice is exactly 4 bytes by the index arithmetic
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_BODY_LEN {
            return fault(records, pos, TailFault::ShortBody);
        }
        let body_start = pos + 8;
        let body_end = match body_start.checked_add(len as usize) {
            Some(e) if e <= bytes.len() => e,
            _ => return fault(records, pos, TailFault::ShortBody),
        };
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            return fault(records, pos, TailFault::CrcMismatch);
        }
        let summary = match parse_body(body) {
            Ok(RecordBody::Points {
                kind,
                track,
                count,
                t_min,
                t_max,
                bbox,
                ..
            }) => RecordSummary {
                offset: offset + pos as u64,
                frame_len: (8 + len) as u64,
                kind,
                track,
                count,
                t_min,
                t_max,
                bbox,
            },
            Ok(RecordBody::Tombstone { track }) => RecordSummary {
                offset: offset + pos as u64,
                frame_len: (8 + len) as u64,
                kind: RecordKind::Tombstone,
                track,
                count: 0,
                t_min: 0.0,
                t_max: 0.0,
                bbox: Rect::from_point(bqs_geo::Point2::ORIGIN),
            },
            Err(_) => return fault(records, pos, TailFault::MalformedBody),
        };
        records.push(summary);
        pos = body_end;
    }
}

/// Decodes the payload of a points body into a vector, verifying that the
/// decoded count matches the header's claim.
pub fn decode_points_body(body: &[u8]) -> Result<(TrackId, Vec<TimedPoint>), CodecError> {
    match parse_body(body)? {
        RecordBody::Points {
            track,
            count,
            payload,
            ..
        } => {
            let points = codec::decode_to_vec(payload)?;
            if points.len() as u64 != count {
                return Err(CodecError::CountMismatch {
                    declared: count,
                    decoded: points.len() as u64,
                });
            }
            Ok((track, points))
        }
        RecordBody::Tombstone { .. } => Err(CodecError::Truncated { offset: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                TimedPoint::new(
                    i as f64 * 7.0,
                    (i as f64 * 0.3).sin() * 50.0,
                    i as f64 * 5.0,
                )
            })
            .collect()
    }

    fn segment_with(frames: &[&[u8]]) -> Vec<u8> {
        let mut seg = segment_header().to_vec();
        for f in frames {
            seg.extend_from_slice(f);
        }
        seg
    }

    #[test]
    fn frame_round_trips_through_scan_and_decode() {
        let points = pts(40);
        let (frame, summary) = build_points_frame(9, &points).unwrap();
        assert_eq!(frame.len() as u64, summary.frame_len);
        let seg = segment_with(&[&frame]);
        let scan = scan_segment(&seg, 0);
        assert!(scan.fault.is_none());
        assert_eq!(scan.records.len(), 1);
        let r = scan.records[0];
        assert_eq!(r.track, 9);
        assert_eq!(r.count, 40);
        assert_eq!(r.t_min, 0.0);
        assert_eq!(r.t_max, 39.0 * 5.0);
        assert_eq!(r.offset, SEGMENT_HEADER_LEN);

        let body =
            &seg[(r.offset + FRAME_PROLOGUE_LEN) as usize..(r.offset + r.frame_len) as usize];
        let (track, decoded) = decode_points_body(body).unwrap();
        assert_eq!(track, 9);
        assert_eq!(decoded, points);
    }

    #[test]
    fn scan_stops_at_torn_tail_keeping_full_records() {
        let (f1, _) = build_points_frame(1, &pts(20)).unwrap();
        let (f2, _) = build_points_frame(2, &pts(30)).unwrap();
        let full = segment_with(&[&f1, &f2]);
        // Cut anywhere inside the second frame: the first must survive.
        for cut in 1..f2.len() {
            let torn = &full[..full.len() - cut];
            let scan = scan_segment(torn, 0);
            assert_eq!(scan.records.len(), 1, "cut {cut}");
            assert_eq!(
                scan.valid_len,
                (SEGMENT_HEADER_LEN as usize + f1.len()) as u64
            );
            assert!(scan.fault.is_some());
        }
    }

    #[test]
    fn scanning_a_suffix_from_a_frame_boundary_equals_the_whole_scan() {
        let (f1, _) = build_points_frame(1, &pts(20)).unwrap();
        let (f2, _) = build_points_frame(2, &pts(30)).unwrap();
        let (f3, _) = build_tombstone_frame(1);
        let full = segment_with(&[&f1, &f2, &f3]);
        let whole = scan_segment(&full, 0);
        assert!(whole.fault.is_none());
        let boundary = SEGMENT_HEADER_LEN as usize + f1.len();
        let suffix = scan_segment(&full[boundary..], boundary as u64);
        assert_eq!(suffix.records, whole.records[1..]);
        assert_eq!(suffix.valid_len, whole.valid_len);
        // A torn suffix reports absolute positions too.
        let torn = scan_segment(&full[boundary..full.len() - 1], boundary as u64);
        let f3_at = (boundary + f2.len()) as u64;
        assert_eq!(torn.records, whole.records[1..2]);
        assert_eq!(torn.valid_len, f3_at);
        assert_eq!(torn.fault.map(|(at, _)| at), Some(f3_at));
        // Nothing past the boundary is a clean, empty scan.
        let none = scan_segment(&[], full.len() as u64);
        assert!(none.records.is_empty() && none.fault.is_none());
        assert_eq!(none.valid_len, full.len() as u64);
    }

    #[test]
    fn scan_rejects_bit_flips_via_crc() {
        let (frame, _) = build_points_frame(3, &pts(25)).unwrap();
        let seg = segment_with(&[&frame]);
        // Flip one payload bit (past the prologue).
        let mut bad = seg.clone();
        let idx = seg.len() - 3;
        bad[idx] ^= 0x10;
        let scan = scan_segment(&bad, 0);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.fault.map(|(_, f)| f), Some(TailFault::CrcMismatch));
    }

    #[test]
    fn scan_rejects_bad_header() {
        let scan = scan_segment(b"nope", 0);
        assert_eq!(scan.fault, Some((0, TailFault::BadHeader)));
        let mut seg = segment_header().to_vec();
        seg[5] = 0x7F; // absurd version
        assert_eq!(scan_segment(&seg, 0).fault, Some((0, TailFault::BadHeader)));
    }

    #[test]
    fn tombstones_scan_and_parse() {
        let (frame, summary) = build_tombstone_frame(77);
        assert_eq!(summary.kind, RecordKind::Tombstone);
        let seg = segment_with(&[&frame]);
        let scan = scan_segment(&seg, 0);
        assert!(scan.fault.is_none());
        assert_eq!(scan.records[0].kind, RecordKind::Tombstone);
        assert_eq!(scan.records[0].track, 77);
    }

    #[test]
    fn backfill_frames_scan_parse_and_decode_like_points() {
        let points = pts(25);
        let (frame, summary) = build_backfill_frame(5, &points).unwrap();
        assert_eq!(summary.kind, RecordKind::Backfill);
        let seg = segment_with(&[&frame]);
        let scan = scan_segment(&seg, 0);
        assert!(scan.fault.is_none());
        let r = scan.records[0];
        assert_eq!(r.kind, RecordKind::Backfill);
        assert_eq!(r.track, 5);
        assert_eq!(r.count, 25);
        let body =
            &seg[(r.offset + FRAME_PROLOGUE_LEN) as usize..(r.offset + r.frame_len) as usize];
        let (track, decoded) = decode_points_body(body).unwrap();
        assert_eq!(track, 5);
        assert_eq!(decoded, points);
        match parse_body(body).unwrap() {
            RecordBody::Points { kind, .. } => assert_eq!(kind, RecordKind::Backfill),
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn unknown_record_kinds_fault_the_scan() {
        let (frame, _) = build_points_frame(1, &pts(10)).unwrap();
        let mut body = frame[8..].to_vec();
        body[0] = 9; // unknown kind byte
        let bad = frame_from_body(body);
        let seg = segment_with(&[&bad]);
        let scan = scan_segment(&seg, 0);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.fault.map(|(_, f)| f), Some(TailFault::MalformedBody));
    }

    #[test]
    fn empty_segment_is_valid() {
        let seg = segment_header().to_vec();
        let scan = scan_segment(&seg, 0);
        assert!(scan.fault.is_none());
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, SEGMENT_HEADER_LEN);
    }
}
