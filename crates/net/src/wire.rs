//! The binary wire protocol: length-prefixed, CRC-framed messages.
//!
//! ## Frame layout
//!
//! Every message — request or reply — travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"BQ"
//! 2       4     payload length N, u32 little-endian (max 16 MiB)
//! 6       N     payload (tag byte + message body)
//! 6+N     4     CRC-32 (IEEE, zlib-compatible) of the payload, u32 LE
//! ```
//!
//! A frame is self-delimiting, so a reader can resynchronise only at a
//! connection boundary: any framing violation — wrong magic, an
//! oversized length, a checksum mismatch, a stream that ends mid-frame
//! — is a typed [`WireError`] and the connection must be closed.
//!
//! ## Message bodies
//!
//! The body reuses the primitives of `bqs_tlog`'s storage codec:
//! LEB128 varints ([`bqs_tlog::codec::write_varint`]) for every integer
//! field, raw little-endian IEEE-754 bits for floats
//! ([`bqs_tlog::codec::write_f64`]; infinities are legal time bounds),
//! and whole point streams as length-prefixed embedded
//! [`bqs_tlog::codec::encode_points`] payloads — the same
//! delta-of-delta encoding over the order-preserving f64 bit map that
//! the durable log stores, so a batch of GPS fixes costs a few bytes
//! per point on the wire too. Strings are varint length + UTF-8;
//! options are a presence byte.
//!
//! The full frame layout, message table and error codes are specified
//! in `docs/protocol.md`.

use bqs_core::stream::DecisionStats;
use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_obs::{TraceEvent, TraceEventKind};
use bqs_tlog::codec::{
    decode_columns_into, decode_to_vec, encode_columns, encode_points, read_f64, read_varint,
    write_f64, write_varint, CodecError,
};
use bqs_tlog::crc::crc32;
use bqs_tlog::TrackSlice;
use std::fmt;
use std::io::{Read, Write};

/// Version negotiated in `Hello`; bumped on incompatible changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// The two magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"BQ";

/// Frame header bytes: magic + payload length.
pub const HEADER_BYTES: usize = 6;

/// Hard cap on a frame's payload. Large enough for ~1M-point batches,
/// small enough that a corrupt length field cannot demand gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Everything that can go wrong while framing or (de)coding messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The two bytes found instead.
        found: [u8; 2],
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared payload length.
        len: u64,
        /// The maximum accepted.
        max: u64,
    },
    /// The payload checksum does not match the trailer.
    BadCrc {
        /// CRC-32 computed over the received payload.
        computed: u32,
        /// CRC-32 the frame trailer declared.
        declared: u32,
    },
    /// The stream ended in the middle of a frame (torn frame).
    Torn {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A message body ended in the middle of a field.
    Truncated {
        /// Byte offset inside the payload at which decoding stopped.
        offset: usize,
    },
    /// The payload's tag byte names no known message.
    UnknownTag {
        /// The tag found.
        tag: u8,
    },
    /// An `Error` reply carried a code byte this build does not know.
    UnknownErrorCode {
        /// The code byte found.
        code: u8,
    },
    /// An embedded point stream failed to decode (or encode).
    Codec(CodecError),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {FRAME_MAGIC:02x?})")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} B exceeds the {max} B limit")
            }
            WireError::BadCrc { computed, declared } => write!(
                f,
                "frame checksum mismatch: computed {computed:#010x}, frame declared {declared:#010x}"
            ),
            WireError::Torn { needed, got } => {
                write!(f, "torn frame: needed {needed} more byte(s), got {got}")
            }
            WireError::Truncated { offset } => {
                write!(f, "message truncated at payload offset {offset}")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::UnknownErrorCode { code } => {
                write!(f, "unknown error code {code} in an Error reply")
            }
            WireError::Codec(e) => write!(f, "embedded point stream: {e}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete message")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            // A torn varint inside a message body is a truncation of the
            // body, not of the embedded codec payload.
            CodecError::Truncated { offset } => WireError::Truncated { offset },
            other => WireError::Codec(other),
        }
    }
}

/// Application-level error codes carried by [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or message could not be decoded; the connection is
    /// closed after this reply (the stream cannot be resynchronised).
    BadFrame,
    /// The request decoded but was semantically invalid (e.g. an
    /// append batch whose timestamps go backwards).
    BadRequest,
    /// The client's protocol version is not supported.
    Unsupported,
    /// The server is shutting down and accepts no further work.
    ShuttingDown,
    /// An internal server error (storage, query fan-out, …).
    Internal,
    /// The server's connection table is full; the connection is closed
    /// after this reply. Retry later or against another server.
    OverCapacity,
    /// A late batch fell more than the configured lateness window
    /// behind the track's watermark and was refused atomically (no
    /// point of the batch was admitted). The connection survives.
    TooLate,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Unsupported => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::Internal => 5,
            ErrorCode::OverCapacity => 6,
            ErrorCode::TooLate => 7,
        }
    }

    fn from_byte(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            1 => Ok(ErrorCode::BadFrame),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Unsupported),
            4 => Ok(ErrorCode::ShuttingDown),
            5 => Ok(ErrorCode::Internal),
            6 => Ok(ErrorCode::OverCapacity),
            7 => Ok(ErrorCode::TooLate),
            code => Err(WireError::UnknownErrorCode { code }),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::OverCapacity => "over-capacity",
            ErrorCode::TooLate => "too-late",
        };
        f.write_str(name)
    }
}

/// A time-range / bounding-box query, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Restrict to one track (`None` = every track).
    pub track: Option<u64>,
    /// Inclusive lower time bound (may be `-inf`).
    pub from: f64,
    /// Inclusive upper time bound (may be `+inf`).
    pub to: f64,
    /// Optional spatial filter, `[x0, y0, x1, y1]` (any two opposite
    /// corners).
    pub bbox: Option<[f64; 4]>,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session; must be the first message on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u8,
    },
    /// Submits a time-ordered batch of one track's points.
    Append {
        /// The track the points belong to.
        track: u64,
        /// The batch, non-decreasing in time.
        points: Vec<TimedPoint>,
    },
    /// Submits late points for a track. Unlike `Append`, the batch may
    /// be arbitrarily disordered, so it travels as raw timestamped
    /// triples rather than the delta codec. With `backfill = false` the
    /// points enter the reorder buffer and must each land within the
    /// server's lateness window; `backfill = true` bypasses the window
    /// entirely and writes a flagged backfill record at finalization.
    AppendLate {
        /// The track the points belong to.
        track: u64,
        /// `true` routes the batch through the durable backfill path.
        backfill: bool,
        /// The late batch (sorted for backfill, any order otherwise).
        points: Vec<TimedPoint>,
    },
    /// Subscribes this connection to the live stream of kept points.
    /// After the `Subscribed` ack the server pushes `SubPoints` frames
    /// until the connection closes or the server drains (`SubEnd`).
    Subscribe {
        /// Restrict to one track (`None` = every track).
        track: Option<u64>,
        /// Optional spatial filter, `[x0, y0, x1, y1]`.
        bbox: Option<[f64; 4]>,
    },
    /// Asks the server to ship every partially filled fleet batch now.
    Flush,
    /// A unified hot/cold query over the live fleet + spill tree.
    Query(QuerySpec),
    /// Asks for merged decision statistics and per-shard counters.
    Stats,
    /// Asks for a text exposition snapshot of the metrics registry.
    Metrics {
        /// `true` requests the Prometheus text format instead of the
        /// native `name value` lines. Encoded as an optional trailing
        /// byte, so version-1 peers that omit it still speak the
        /// protocol unchanged.
        prom: bool,
    },
    /// Asks for the flight recorder's current contents.
    TraceDump {
        /// Keep only the most recent N events (`None` = whole ring).
        last: Option<u64>,
        /// Keep only events for one connection id (`None` = all).
        conn: Option<u64>,
    },
    /// Asks the server to drain, spill everything and exit.
    Shutdown,
}

/// One worker shard's counters in a [`StatsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// The shard index.
    pub shard: u64,
    /// Distinct tracks routed to the shard.
    pub tracks: u64,
    /// Points submitted to the shard.
    pub submitted_points: u64,
    /// Whether the shard's worker has died.
    pub dead: bool,
}

/// The server's answer to [`Request::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Decision statistics merged across every live worker engine.
    pub stats: DecisionStats,
    /// Submission-side counters, one entry per worker shard.
    pub shards: Vec<ShardStat>,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Points accepted over all connections.
    pub appended_points: u64,
    /// Whole seconds the server has been up.
    pub uptime_s: u64,
    /// Connections currently open.
    pub live_connections: u64,
    /// Most connections ever open at once.
    pub peak_connections: u64,
    /// Connections refused because the server was at capacity.
    pub rejected_connections: u64,
}

/// The server's answer to [`Request::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Matching tracks (ascending id), points in time order.
    pub slices: Vec<TrackSlice>,
    /// Shards skipped via the manifest without being opened.
    pub shards_pruned: u64,
    /// Matching points contributed by the live (not yet durable) side.
    pub hot_points: u64,
    /// Records the cold side considered.
    pub candidate_records: u64,
    /// Records the cold side actually decoded.
    pub decoded_records: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful handshake.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u8,
        /// Worker shards behind the server.
        workers: u64,
    },
    /// An append batch was accepted into the fleet.
    Appended {
        /// The track appended to.
        track: u64,
        /// Points accepted.
        points: u64,
    },
    /// A late or backfill batch was accepted in full.
    LateAppended {
        /// The track appended to.
        track: u64,
        /// Points accepted.
        points: u64,
    },
    /// The subscription is live; `SubPoints` frames follow.
    Subscribed,
    /// A pushed batch of kept points for one subscribed track, in the
    /// order the compressor keeps them.
    SubPoints {
        /// The track the points belong to.
        track: u64,
        /// The kept points, non-decreasing in time.
        points: Vec<TimedPoint>,
    },
    /// The server is draining; no further `SubPoints` will arrive.
    SubEnd,
    /// Every partially filled batch has been shipped to its worker.
    Flushed,
    /// A query answer.
    QueryResult(QueryReport),
    /// A statistics answer.
    StatsReply(StatsReport),
    /// A metrics snapshot: the registry's sorted `name value` text
    /// exposition, or the Prometheus text format when the request asked
    /// for it.
    MetricsReply {
        /// The exposition text; see `docs/observability.md`.
        text: String,
    },
    /// The flight recorder's contents, oldest surviving event first.
    TraceReply {
        /// Events overwritten by the ring before this dump.
        dropped: u64,
        /// The surviving events, ascending by sequence number.
        events: Vec<TraceEvent>,
    },
    /// The server acknowledges shutdown and will exit after draining.
    ShuttingDown {
        /// Connections served over the server's lifetime.
        connections: u64,
        /// Points accepted over the server's lifetime.
        appended_points: u64,
    },
    /// The request failed; see [`ErrorCode`] for whether the
    /// connection survives.
    Error {
        /// What kind of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// --- field-level encode/decode helpers -------------------------------

// Request tags are crate-visible: the server classifies a frame for its
// per-request-type metrics from the tag byte alone, before decoding.
pub(crate) const TAG_HELLO: u8 = 0x01;
pub(crate) const TAG_APPEND: u8 = 0x02;
pub(crate) const TAG_FLUSH: u8 = 0x03;
pub(crate) const TAG_QUERY: u8 = 0x04;
pub(crate) const TAG_STATS: u8 = 0x05;
pub(crate) const TAG_SHUTDOWN: u8 = 0x06;
pub(crate) const TAG_METRICS: u8 = 0x07;
pub(crate) const TAG_SUBSCRIBE: u8 = 0x08;
pub(crate) const TAG_APPEND_LATE: u8 = 0x09;
pub(crate) const TAG_TRACE_DUMP: u8 = 0x0A;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_APPENDED: u8 = 0x82;
const TAG_FLUSHED: u8 = 0x83;
const TAG_QUERY_RESULT: u8 = 0x84;
const TAG_STATS_REPLY: u8 = 0x85;
const TAG_SHUTTING_DOWN: u8 = 0x86;
const TAG_METRICS_REPLY: u8 = 0x87;
const TAG_SUB_EVENT: u8 = 0x88;
const TAG_LATE_APPENDED: u8 = 0x89;
const TAG_TRACE_REPLY: u8 = 0x8A;
const TAG_ERROR: u8 = 0xFF;

// Kind bytes inside a `TAG_SUB_EVENT` reply.
const SUB_KIND_SUBSCRIBED: u8 = 0;
const SUB_KIND_POINTS: u8 = 1;
const SUB_KIND_END: u8 = 2;

fn read_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    let &b = bytes
        .get(*pos)
        .ok_or(WireError::Truncated { offset: *pos })?;
    *pos += 1;
    Ok(b)
}

/// Writes a varint-length-prefixed codec blob of `points` points,
/// which `encode` appends to the buffer it is handed.
fn write_blob(
    points: usize,
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> Result<(), CodecError>,
) -> Result<(), WireError> {
    let mut blob = Vec::with_capacity(2 + points * 4);
    encode(&mut blob)?;
    write_varint(blob.len() as u64, out);
    out.extend_from_slice(&blob);
    Ok(())
}

/// Reads a varint-length-prefixed byte run (a codec blob or a string),
/// advancing `*pos` past it.
fn read_blob<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
    let len = read_varint(bytes, pos)? as usize;
    let blob = pos
        .checked_add(len)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or(WireError::Truncated { offset: *pos })?;
    *pos += len;
    Ok(blob)
}

fn write_points(points: &[TimedPoint], out: &mut Vec<u8>) -> Result<(), WireError> {
    write_blob(points.len(), out, |blob| encode_points(points, blob))
}

fn read_points(bytes: &[u8], pos: &mut usize) -> Result<Vec<TimedPoint>, WireError> {
    decode_to_vec(read_blob(bytes, pos)?).map_err(WireError::Codec)
}

/// Raw (uncompressed) point stream: varint count, then `t, x, y` as
/// little-endian f64 bits per point. Used where the delta codec's
/// time-order invariant cannot hold — late batches are disordered by
/// definition.
fn write_raw_points(points: &[TimedPoint], out: &mut Vec<u8>) {
    write_varint(points.len() as u64, out);
    for p in points {
        write_f64(p.t, out);
        write_f64(p.pos.x, out);
        write_f64(p.pos.y, out);
    }
}

fn read_raw_points(bytes: &[u8], pos: &mut usize) -> Result<Vec<TimedPoint>, WireError> {
    let count = read_varint(bytes, pos)? as usize;
    // Cap the pre-allocation: `count` is attacker-controlled.
    let mut points = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let t = read_f64(bytes, pos)?;
        let x = read_f64(bytes, pos)?;
        let y = read_f64(bytes, pos)?;
        points.push(TimedPoint::new(x, y, t));
    }
    Ok(points)
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let s = std::str::from_utf8(read_blob(bytes, pos)?).map_err(|_| WireError::BadUtf8)?;
    Ok(s.to_string())
}

fn write_stats(stats: &DecisionStats, out: &mut Vec<u8>) {
    for v in [
        stats.points,
        stats.trivial,
        stats.by_bounds,
        stats.full_scans,
        stats.warmup_scans,
        stats.aggressive_cuts,
        stats.segments,
    ] {
        write_varint(v, out);
    }
}

fn read_stats(bytes: &[u8], pos: &mut usize) -> Result<DecisionStats, WireError> {
    Ok(DecisionStats {
        points: read_varint(bytes, pos)?,
        trivial: read_varint(bytes, pos)?,
        by_bounds: read_varint(bytes, pos)?,
        full_scans: read_varint(bytes, pos)?,
        warmup_scans: read_varint(bytes, pos)?,
        aggressive_cuts: read_varint(bytes, pos)?,
        segments: read_varint(bytes, pos)?,
    })
}

fn write_opt_varint(v: Option<u64>, out: &mut Vec<u8>) {
    match v {
        Some(v) => {
            out.push(1);
            write_varint(v, out);
        }
        None => out.push(0),
    }
}

fn read_opt_varint(bytes: &[u8], pos: &mut usize) -> Result<Option<u64>, WireError> {
    match read_byte(bytes, pos)? {
        0 => Ok(None),
        _ => Ok(Some(read_varint(bytes, pos)?)),
    }
}

/// Trace events travel as varints (seq, at_us, conn, value) plus the
/// kind's stable wire byte.
fn write_trace_events(dropped: u64, events: &[TraceEvent], out: &mut Vec<u8>) {
    write_varint(dropped, out);
    write_varint(events.len() as u64, out);
    for e in events {
        write_varint(e.seq, out);
        write_varint(e.at_us, out);
        out.push(e.kind as u8);
        write_varint(e.conn, out);
        write_varint(e.value, out);
    }
}

fn read_trace_events(bytes: &[u8], pos: &mut usize) -> Result<(u64, Vec<TraceEvent>), WireError> {
    let dropped = read_varint(bytes, pos)?;
    let count = read_varint(bytes, pos)? as usize;
    // Cap the pre-allocation: `count` is attacker-controlled.
    let mut events = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let seq = read_varint(bytes, pos)?;
        let at_us = read_varint(bytes, pos)?;
        let kind_byte = read_byte(bytes, pos)?;
        let kind =
            TraceEventKind::from_u8(kind_byte).ok_or(WireError::UnknownTag { tag: kind_byte })?;
        let conn = read_varint(bytes, pos)?;
        let value = read_varint(bytes, pos)?;
        events.push(TraceEvent {
            seq,
            at_us,
            kind,
            conn,
            value,
        });
    }
    Ok((dropped, events))
}

fn check_consumed(bytes: &[u8], pos: usize) -> Result<(), WireError> {
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes {
            extra: bytes.len() - pos,
        })
    }
}

impl Request {
    /// Encodes the request into a frame payload (tag + body). Fails only
    /// when an append batch violates the codec's time-order invariant.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Request::Hello { protocol } => {
                out.push(TAG_HELLO);
                out.push(*protocol);
            }
            Request::Append { track, points } => {
                out.push(TAG_APPEND);
                write_varint(*track, &mut out);
                write_points(points, &mut out)?;
            }
            Request::AppendLate {
                track,
                backfill,
                points,
            } => {
                out.push(TAG_APPEND_LATE);
                write_varint(*track, &mut out);
                out.push(u8::from(*backfill));
                write_raw_points(points, &mut out);
            }
            Request::Subscribe { track, bbox } => {
                out.push(TAG_SUBSCRIBE);
                match track {
                    Some(track) => {
                        out.push(1);
                        write_varint(*track, &mut out);
                    }
                    None => out.push(0),
                }
                match bbox {
                    Some(corners) => {
                        out.push(1);
                        for c in corners {
                            write_f64(*c, &mut out);
                        }
                    }
                    None => out.push(0),
                }
            }
            Request::Flush => out.push(TAG_FLUSH),
            Request::Query(spec) => {
                out.push(TAG_QUERY);
                match spec.track {
                    Some(track) => {
                        out.push(1);
                        write_varint(track, &mut out);
                    }
                    None => out.push(0),
                }
                write_f64(spec.from, &mut out);
                write_f64(spec.to, &mut out);
                match spec.bbox {
                    Some(corners) => {
                        out.push(1);
                        for c in corners {
                            write_f64(c, &mut out);
                        }
                    }
                    None => out.push(0),
                }
            }
            Request::Stats => out.push(TAG_STATS),
            Request::Metrics { prom } => {
                out.push(TAG_METRICS);
                // The native format is the bare tag (version-1 shape);
                // the format byte is only appended when it carries
                // information, so old servers never see it.
                if *prom {
                    out.push(1);
                }
            }
            Request::TraceDump { last, conn } => {
                out.push(TAG_TRACE_DUMP);
                write_opt_varint(*last, &mut out);
                write_opt_varint(*conn, &mut out);
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
        }
        Ok(out)
    }

    /// Decodes a frame payload into a request. The whole payload must be
    /// consumed — trailing bytes are rejected, never silently ignored.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut pos = 0usize;
        let tag = read_byte(bytes, &mut pos)?;
        let request = match tag {
            TAG_HELLO => Request::Hello {
                protocol: read_byte(bytes, &mut pos)?,
            },
            TAG_APPEND => Request::Append {
                track: read_varint(bytes, &mut pos)?,
                points: read_points(bytes, &mut pos)?,
            },
            TAG_APPEND_LATE => Request::AppendLate {
                track: read_varint(bytes, &mut pos)?,
                backfill: read_byte(bytes, &mut pos)? != 0,
                points: read_raw_points(bytes, &mut pos)?,
            },
            TAG_SUBSCRIBE => {
                let track = match read_byte(bytes, &mut pos)? {
                    0 => None,
                    _ => Some(read_varint(bytes, &mut pos)?),
                };
                let bbox = match read_byte(bytes, &mut pos)? {
                    0 => None,
                    _ => Some([
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                    ]),
                };
                Request::Subscribe { track, bbox }
            }
            TAG_FLUSH => Request::Flush,
            TAG_QUERY => {
                let track = match read_byte(bytes, &mut pos)? {
                    0 => None,
                    _ => Some(read_varint(bytes, &mut pos)?),
                };
                let from = read_f64(bytes, &mut pos)?;
                let to = read_f64(bytes, &mut pos)?;
                let bbox = match read_byte(bytes, &mut pos)? {
                    0 => None,
                    _ => Some([
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                        read_f64(bytes, &mut pos)?,
                    ]),
                };
                Request::Query(QuerySpec {
                    track,
                    from,
                    to,
                    bbox,
                })
            }
            TAG_STATS => Request::Stats,
            TAG_METRICS => Request::Metrics {
                // Optional trailing format byte; absent means native.
                prom: pos < bytes.len() && read_byte(bytes, &mut pos)? != 0,
            },
            TAG_TRACE_DUMP => Request::TraceDump {
                last: read_opt_varint(bytes, &mut pos)?,
                conn: read_opt_varint(bytes, &mut pos)?,
            },
            TAG_SHUTDOWN => Request::Shutdown,
            tag => return Err(WireError::UnknownTag { tag }),
        };
        check_consumed(bytes, pos)?;
        Ok(request)
    }
}

impl Reply {
    /// Encodes the reply into a frame payload (tag + body). Fails only
    /// when a query slice violates the codec's time-order invariant
    /// (which a slice from the query engine never does).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Reply::HelloOk { protocol, workers } => {
                out.push(TAG_HELLO_OK);
                out.push(*protocol);
                write_varint(*workers, &mut out);
            }
            Reply::Appended { track, points } => {
                out.push(TAG_APPENDED);
                write_varint(*track, &mut out);
                write_varint(*points, &mut out);
            }
            Reply::LateAppended { track, points } => {
                out.push(TAG_LATE_APPENDED);
                write_varint(*track, &mut out);
                write_varint(*points, &mut out);
            }
            Reply::Subscribed => {
                out.push(TAG_SUB_EVENT);
                out.push(SUB_KIND_SUBSCRIBED);
            }
            Reply::SubPoints { track, points } => {
                out.push(TAG_SUB_EVENT);
                out.push(SUB_KIND_POINTS);
                write_varint(*track, &mut out);
                write_raw_points(points, &mut out);
            }
            Reply::SubEnd => {
                out.push(TAG_SUB_EVENT);
                out.push(SUB_KIND_END);
            }
            Reply::Flushed => out.push(TAG_FLUSHED),
            Reply::QueryResult(report) => {
                out.push(TAG_QUERY_RESULT);
                write_varint(report.shards_pruned, &mut out);
                write_varint(report.hot_points, &mut out);
                write_varint(report.candidate_records, &mut out);
                write_varint(report.decoded_records, &mut out);
                write_varint(report.slices.len() as u64, &mut out);
                for slice in &report.slices {
                    write_varint(slice.track, &mut out);
                    write_points(&slice.points, &mut out)?;
                }
            }
            Reply::StatsReply(report) => {
                out.push(TAG_STATS_REPLY);
                write_stats(&report.stats, &mut out);
                write_varint(report.connections, &mut out);
                write_varint(report.appended_points, &mut out);
                write_varint(report.uptime_s, &mut out);
                write_varint(report.live_connections, &mut out);
                write_varint(report.peak_connections, &mut out);
                write_varint(report.rejected_connections, &mut out);
                write_varint(report.shards.len() as u64, &mut out);
                for shard in &report.shards {
                    write_varint(shard.shard, &mut out);
                    write_varint(shard.tracks, &mut out);
                    write_varint(shard.submitted_points, &mut out);
                    out.push(u8::from(shard.dead));
                }
            }
            Reply::ShuttingDown {
                connections,
                appended_points,
            } => {
                out.push(TAG_SHUTTING_DOWN);
                write_varint(*connections, &mut out);
                write_varint(*appended_points, &mut out);
            }
            Reply::MetricsReply { text } => {
                out.push(TAG_METRICS_REPLY);
                write_string(text, &mut out);
            }
            Reply::TraceReply { dropped, events } => {
                out.push(TAG_TRACE_REPLY);
                write_trace_events(*dropped, events, &mut out);
            }
            Reply::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(code.to_byte());
                write_string(message, &mut out);
            }
        }
        Ok(out)
    }

    /// Decodes a frame payload into a reply; the whole payload must be
    /// consumed.
    pub fn decode(bytes: &[u8]) -> Result<Reply, WireError> {
        let mut pos = 0usize;
        let tag = read_byte(bytes, &mut pos)?;
        let reply = match tag {
            TAG_HELLO_OK => Reply::HelloOk {
                protocol: read_byte(bytes, &mut pos)?,
                workers: read_varint(bytes, &mut pos)?,
            },
            TAG_APPENDED => Reply::Appended {
                track: read_varint(bytes, &mut pos)?,
                points: read_varint(bytes, &mut pos)?,
            },
            TAG_LATE_APPENDED => Reply::LateAppended {
                track: read_varint(bytes, &mut pos)?,
                points: read_varint(bytes, &mut pos)?,
            },
            TAG_SUB_EVENT => match read_byte(bytes, &mut pos)? {
                SUB_KIND_SUBSCRIBED => Reply::Subscribed,
                SUB_KIND_POINTS => Reply::SubPoints {
                    track: read_varint(bytes, &mut pos)?,
                    points: read_raw_points(bytes, &mut pos)?,
                },
                SUB_KIND_END => Reply::SubEnd,
                kind => return Err(WireError::UnknownTag { tag: kind }),
            },
            TAG_FLUSHED => Reply::Flushed,
            TAG_QUERY_RESULT => {
                let shards_pruned = read_varint(bytes, &mut pos)?;
                let hot_points = read_varint(bytes, &mut pos)?;
                let candidate_records = read_varint(bytes, &mut pos)?;
                let decoded_records = read_varint(bytes, &mut pos)?;
                let count = read_varint(bytes, &mut pos)? as usize;
                // Cap the pre-allocation: `count` is attacker-controlled.
                let mut slices = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let track = read_varint(bytes, &mut pos)?;
                    let points = read_points(bytes, &mut pos)?;
                    slices.push(TrackSlice { track, points });
                }
                Reply::QueryResult(QueryReport {
                    slices,
                    shards_pruned,
                    hot_points,
                    candidate_records,
                    decoded_records,
                })
            }
            TAG_STATS_REPLY => {
                let stats = read_stats(bytes, &mut pos)?;
                let connections = read_varint(bytes, &mut pos)?;
                let appended_points = read_varint(bytes, &mut pos)?;
                let uptime_s = read_varint(bytes, &mut pos)?;
                let live_connections = read_varint(bytes, &mut pos)?;
                let peak_connections = read_varint(bytes, &mut pos)?;
                let rejected_connections = read_varint(bytes, &mut pos)?;
                let count = read_varint(bytes, &mut pos)? as usize;
                let mut shards = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    shards.push(ShardStat {
                        shard: read_varint(bytes, &mut pos)?,
                        tracks: read_varint(bytes, &mut pos)?,
                        submitted_points: read_varint(bytes, &mut pos)?,
                        dead: read_byte(bytes, &mut pos)? != 0,
                    });
                }
                Reply::StatsReply(StatsReport {
                    stats,
                    shards,
                    connections,
                    appended_points,
                    uptime_s,
                    live_connections,
                    peak_connections,
                    rejected_connections,
                })
            }
            TAG_SHUTTING_DOWN => Reply::ShuttingDown {
                connections: read_varint(bytes, &mut pos)?,
                appended_points: read_varint(bytes, &mut pos)?,
            },
            TAG_METRICS_REPLY => Reply::MetricsReply {
                text: read_string(bytes, &mut pos)?,
            },
            TAG_TRACE_REPLY => {
                let (dropped, events) = read_trace_events(bytes, &mut pos)?;
                Reply::TraceReply { dropped, events }
            }
            TAG_ERROR => {
                let code = ErrorCode::from_byte(read_byte(bytes, &mut pos)?)?;
                let message = read_string(bytes, &mut pos)?;
                Reply::Error { code, message }
            }
            tag => return Err(WireError::UnknownTag { tag }),
        };
        check_consumed(bytes, pos)?;
        Ok(reply)
    }
}

// --- the columnar Append fast path ------------------------------------

/// Decodes an `Append` frame payload straight into a columnar batch —
/// the ingest server's fast path. Returns `Ok(Some(track))` and fills
/// `batch` (appending — clear it first to reuse its allocations) when
/// the payload is a well-formed `Append`; `Ok(None)` when the payload
/// carries any other tag (decode it with [`Request::decode`]). Accepts
/// exactly the payloads the row path accepts, decodes to identical
/// values, and rejects trailing bytes identically — only the target
/// representation differs: three contiguous runs, no intermediate
/// `Vec<TimedPoint>` and no per-point `Sink` dispatch.
pub fn decode_append_columns(
    payload: &[u8],
    batch: &mut ColumnarBatch,
) -> Result<Option<u64>, WireError> {
    if payload.first() != Some(&TAG_APPEND) {
        return Ok(None);
    }
    let mut pos = 1usize;
    let track = read_varint(payload, &mut pos)?;
    decode_columns_into(read_blob(payload, &mut pos)?, batch).map_err(WireError::Codec)?;
    check_consumed(payload, pos)?;
    Ok(Some(track))
}

/// Encodes an `Append` frame payload from a columnar batch, producing
/// bytes **identical** to `Request::Append { track, points }.encode()`
/// on the same points in row form — the client-side mirror of
/// [`decode_append_columns`]. Fails when the batch violates the codec's
/// time-order invariant.
pub fn encode_append_columns(track: u64, batch: &ColumnarBatch) -> Result<Vec<u8>, WireError> {
    let mut out = vec![TAG_APPEND];
    write_varint(track, &mut out);
    write_blob(batch.len(), &mut out, |blob| encode_columns(batch, blob))?;
    Ok(out)
}

// --- framing ----------------------------------------------------------

/// Wraps a payload in a complete frame (magic + length + payload + CRC).
pub fn frame_to_vec(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Writes one frame to `w` (one buffered write, then flush).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_to_vec(payload))?;
    w.flush()
}

/// Decodes one frame from a byte slice, returning the payload and the
/// bytes consumed. [`WireError::Torn`] when `bytes` ends mid-frame —
/// the in-memory analogue of a connection dying mid-send.
pub fn decode_frame(bytes: &[u8]) -> Result<(Vec<u8>, usize), WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::Torn {
            needed: HEADER_BYTES - bytes.len(),
            got: bytes.len(),
        });
    }
    if bytes[..2] != FRAME_MAGIC {
        return Err(WireError::BadMagic {
            found: [bytes[0], bytes[1]],
        });
    }
    let len = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len: len as u64,
            max: MAX_FRAME_BYTES as u64,
        });
    }
    let total = HEADER_BYTES + len + 4;
    if bytes.len() < total {
        return Err(WireError::Torn {
            needed: total - bytes.len(),
            got: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + len];
    let declared = u32::from_le_bytes([
        bytes[HEADER_BYTES + len],
        bytes[HEADER_BYTES + len + 1],
        bytes[HEADER_BYTES + len + 2],
        bytes[HEADER_BYTES + len + 3],
    ]);
    let computed = crc32(payload);
    if computed != declared {
        return Err(WireError::BadCrc { computed, declared });
    }
    Ok((payload.to_vec(), total))
}

/// Reads one frame from a blocking reader. `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the connection); a stream that
/// ends anywhere else is a [`WireError::Torn`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut header = [0u8; HEADER_BYTES];
    // The first byte distinguishes clean EOF from a torn frame.
    let mut filled = 0usize;
    while filled < 1 {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    read_exact_or_torn(r, &mut header[1..], HEADER_BYTES - 1)?;
    if header[..2] != FRAME_MAGIC {
        return Err(FrameReadError::Wire(WireError::BadMagic {
            found: [header[0], header[1]],
        }));
    }
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameReadError::Wire(WireError::Oversized {
            len: len as u64,
            max: MAX_FRAME_BYTES as u64,
        }));
    }
    let mut body = vec![0u8; len + 4];
    read_exact_or_torn(r, &mut body, len + 4)?;
    let declared = u32::from_le_bytes([body[len], body[len + 1], body[len + 2], body[len + 3]]);
    body.truncate(len);
    let computed = crc32(&body);
    if computed != declared {
        return Err(FrameReadError::Wire(WireError::BadCrc {
            computed,
            declared,
        }));
    }
    Ok(Some(body))
}

fn read_exact_or_torn(
    r: &mut impl Read,
    buf: &mut [u8],
    needed: usize,
) -> Result<(), FrameReadError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameReadError::Wire(WireError::Torn {
                    needed: needed - filled,
                    got: filled,
                }))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(())
}

/// What [`read_frame`] can fail with: a transport error or a framing
/// violation.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The bytes received violate the frame format.
    Wire(WireError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport: {e}"),
            FrameReadError::Wire(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FrameReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameReadError::Io(e) => Some(e),
            FrameReadError::Wire(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| TimedPoint::new(i as f64 * 3.5, (i as f64 * 0.2).sin() * 40.0, i as f64))
            .collect()
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
            Request::Append {
                track: 42,
                points: points(50),
            },
            // Late batches round-trip even when disordered — they use
            // the raw encoding, not the monotone delta codec.
            Request::AppendLate {
                track: 42,
                backfill: false,
                points: vec![
                    TimedPoint::new(3.0, -1.0, 90.0),
                    TimedPoint::new(0.5, 2.0, 12.0),
                    TimedPoint::new(-7.0, 4.0, 55.5),
                ],
            },
            Request::AppendLate {
                track: 7,
                backfill: true,
                points: points(10),
            },
            Request::AppendLate {
                track: 0,
                backfill: false,
                points: Vec::new(),
            },
            Request::Subscribe {
                track: Some(9),
                bbox: None,
            },
            Request::Subscribe {
                track: None,
                bbox: Some([-10.0, -10.0, 10.0, 10.0]),
            },
            Request::Flush,
            Request::Query(QuerySpec {
                track: Some(7),
                from: f64::NEG_INFINITY,
                to: 1234.5,
                bbox: Some([0.0, -5.0, 100.0, 95.0]),
            }),
            Request::Query(QuerySpec {
                track: None,
                from: 0.0,
                to: f64::INFINITY,
                bbox: None,
            }),
            Request::Stats,
            Request::Metrics { prom: false },
            Request::Metrics { prom: true },
            Request::TraceDump {
                last: None,
                conn: None,
            },
            Request::TraceDump {
                last: Some(100),
                conn: Some(7),
            },
            Request::Shutdown,
        ];
        for request in requests {
            let payload = request.encode().unwrap();
            assert_eq!(Request::decode(&payload).unwrap(), request);
        }
    }

    #[test]
    fn every_reply_round_trips() {
        let replies = [
            Reply::HelloOk {
                protocol: PROTOCOL_VERSION,
                workers: 4,
            },
            Reply::Appended {
                track: 9,
                points: 128,
            },
            Reply::LateAppended {
                track: 9,
                points: 16,
            },
            Reply::Subscribed,
            Reply::SubPoints {
                track: 11,
                points: points(5),
            },
            Reply::SubPoints {
                track: 12,
                points: Vec::new(),
            },
            Reply::SubEnd,
            Reply::Flushed,
            Reply::QueryResult(QueryReport {
                slices: vec![
                    TrackSlice {
                        track: 1,
                        points: points(20),
                    },
                    TrackSlice {
                        track: 5,
                        points: points(3),
                    },
                ],
                shards_pruned: 3,
                hot_points: 17,
                candidate_records: 40,
                decoded_records: 12,
            }),
            Reply::StatsReply(StatsReport {
                stats: DecisionStats {
                    points: 1000,
                    trivial: 600,
                    by_bounds: 300,
                    full_scans: 10,
                    warmup_scans: 50,
                    aggressive_cuts: 40,
                    segments: 12,
                },
                shards: vec![
                    ShardStat {
                        shard: 0,
                        tracks: 3,
                        submitted_points: 500,
                        dead: false,
                    },
                    ShardStat {
                        shard: 1,
                        tracks: 2,
                        submitted_points: 500,
                        dead: true,
                    },
                ],
                connections: 4,
                appended_points: 1000,
                uptime_s: 3601,
                live_connections: 3,
                peak_connections: 9,
                rejected_connections: 2,
            }),
            Reply::ShuttingDown {
                connections: 2,
                appended_points: 999,
            },
            Reply::MetricsReply {
                text: "net_frames_total 12\nnet_request_us_append_p99 850\n".to_string(),
            },
            Reply::TraceReply {
                dropped: 0,
                events: Vec::new(),
            },
            Reply::TraceReply {
                dropped: 12,
                events: vec![
                    TraceEvent {
                        seq: 12,
                        at_us: 1_000,
                        kind: TraceEventKind::Accept,
                        conn: 1,
                        value: 1,
                    },
                    TraceEvent {
                        seq: 13,
                        at_us: 1_250,
                        kind: TraceEventKind::FrameDecode,
                        conn: 1,
                        value: 512,
                    },
                    TraceEvent {
                        seq: 14,
                        at_us: u64::MAX,
                        kind: TraceEventKind::Evict,
                        conn: 0,
                        value: 80,
                    },
                ],
            },
            Reply::Error {
                code: ErrorCode::BadRequest,
                message: "timestamp at index 3 goes backwards".to_string(),
            },
            Reply::Error {
                code: ErrorCode::TooLate,
                message: "t=4 is more than 30s behind the watermark 100".to_string(),
            },
        ];
        for reply in replies {
            let payload = reply.encode().unwrap();
            assert_eq!(Reply::decode(&payload).unwrap(), reply);
        }
    }

    #[test]
    fn metrics_request_stays_version_one_compatible() {
        // The native-format request is byte-identical to the old bare
        // tag, and the bare tag still decodes.
        let native = Request::Metrics { prom: false }.encode().unwrap();
        assert_eq!(native, vec![TAG_METRICS]);
        assert_eq!(
            Request::decode(&[TAG_METRICS]).unwrap(),
            Request::Metrics { prom: false }
        );
        let prom = Request::Metrics { prom: true }.encode().unwrap();
        assert_eq!(prom, vec![TAG_METRICS, 1]);
    }

    #[test]
    fn trace_reply_rejects_unknown_kind_bytes() {
        let mut payload = Reply::TraceReply {
            dropped: 0,
            events: vec![TraceEvent {
                seq: 0,
                at_us: 0,
                kind: TraceEventKind::Accept,
                conn: 0,
                value: 0,
            }],
        }
        .encode()
        .unwrap();
        // The kind byte sits after tag + dropped + count + seq + at_us.
        let kind_at = payload.len() - 3;
        assert_eq!(payload[kind_at], TraceEventKind::Accept as u8);
        payload[kind_at] = 0xEE;
        assert!(matches!(
            Reply::decode(&payload),
            Err(WireError::UnknownTag { tag: 0xEE })
        ));
    }

    #[test]
    fn frames_round_trip_through_readers() {
        let payload = Request::Append {
            track: 3,
            points: points(100),
        }
        .encode()
        .unwrap();
        let framed = frame_to_vec(&payload);
        let (decoded, consumed) = decode_frame(&framed).unwrap();
        assert_eq!(decoded, payload);
        assert_eq!(consumed, framed.len());
        let mut cursor = &framed[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_and_corrupt_frames_are_typed_errors() {
        let payload = Request::Stats.encode().unwrap();
        let framed = frame_to_vec(&payload);
        // Torn anywhere: header, payload, trailer.
        for cut in [1, HEADER_BYTES - 1, HEADER_BYTES, framed.len() - 1] {
            assert!(
                matches!(decode_frame(&framed[..cut]), Err(WireError::Torn { .. })),
                "cut {cut}"
            );
            let mut cursor = &framed[..cut];
            assert!(matches!(
                read_frame(&mut cursor),
                Err(FrameReadError::Wire(WireError::Torn { .. }))
            ));
        }
        // Bad magic.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::BadMagic { .. })
        ));
        // Oversized length prefix.
        let mut huge = framed.clone();
        huge[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&huge),
            Err(WireError::Oversized { .. })
        ));
        // Corrupted payload → CRC mismatch.
        let mut flipped = framed.clone();
        flipped[HEADER_BYTES] ^= 0x40;
        assert!(matches!(
            decode_frame(&flipped),
            Err(WireError::BadCrc { .. })
        ));
        let mut cursor = &flipped[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Wire(WireError::BadCrc { .. }))
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            Request::decode(&[0x77]),
            Err(WireError::UnknownTag { tag: 0x77 })
        ));
        assert!(matches!(
            Reply::decode(&[0x02]),
            Err(WireError::UnknownTag { tag: 0x02 })
        ));
        let mut payload = Request::Flush.encode().unwrap();
        payload.push(0xAB);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // An Error reply carrying a code byte from a future protocol
        // revision names the real problem, not a fake truncation.
        let mut error = Reply::Error {
            code: ErrorCode::Internal,
            message: "x".to_string(),
        }
        .encode()
        .unwrap();
        error[1] = 99;
        assert_eq!(
            Reply::decode(&error),
            Err(WireError::UnknownErrorCode { code: 99 })
        );
    }

    #[test]
    fn columnar_append_fast_path_mirrors_the_row_path() {
        let pts = points(80);
        let row_payload = Request::Append {
            track: 99,
            points: pts.clone(),
        }
        .encode()
        .unwrap();
        // Decode fast path: same track, same values, reusable scratch.
        let mut batch = ColumnarBatch::new();
        let track = decode_append_columns(&row_payload, &mut batch).unwrap();
        assert_eq!(track, Some(99));
        assert_eq!(batch.to_points(), pts);
        batch.clear();
        // Encode fast path: byte-identical payload.
        let col_payload = encode_append_columns(99, &ColumnarBatch::from_points(&pts)).unwrap();
        assert_eq!(col_payload, row_payload);
        // Non-Append tags fall through untouched.
        let other = Request::Stats.encode().unwrap();
        assert_eq!(decode_append_columns(&other, &mut batch).unwrap(), None);
        assert!(batch.is_empty());
        // Trailing bytes are rejected exactly like the row path.
        let mut trailing = row_payload.clone();
        trailing.push(0xCD);
        assert_eq!(
            decode_append_columns(&trailing, &mut batch),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        assert!(matches!(
            Request::decode(&trailing),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn non_monotonic_append_batches_fail_at_encode_time() {
        let request = Request::Append {
            track: 1,
            points: vec![
                TimedPoint::new(0.0, 0.0, 10.0),
                TimedPoint::new(1.0, 0.0, 5.0),
            ],
        };
        assert!(matches!(request.encode(), Err(WireError::Codec(_))));
    }
}
