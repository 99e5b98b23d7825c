//! The binary trajectory codec: varint zig-zag delta encoding of
//! [`TimedPoint`] streams.
//!
//! ## How it stays both lossless and small
//!
//! Quantising coordinates to a fixed grid would be compact but lossy; raw
//! IEEE-754 doubles are lossless but incompressible by integer deltas.
//! The codec threads the needle with an **order-preserving bit map**:
//! every `f64` is mapped to a `u64` such that the numeric order of finite
//! doubles matches the integer order ([`ulp_map`]). Nearby doubles map to
//! nearby integers (their distance is the number of representable doubles
//! between them), so consecutive GPS fixes — which differ by metres out of
//! a kilometres-scale magnitude — produce small integer deltas, while the
//! mapping itself is a bijection on all 2⁶⁴ bit patterns: decode returns
//! the exact input bits for *any* input, including negative zero, and the
//! arithmetic is wrapping so even adversarial streams round-trip.
//!
//! Per field (x, y, t) the codec stores the **second-order delta**
//! (delta-of-delta) of the mapped integers as a zig-zag LEB128 varint:
//! constant coordinates (a parked tracker, an axis-aligned road leg) cost
//! one byte, constant velocity costs a few, and evenly spaced timestamps
//! collapse to one byte per point. The first point is stored verbatim
//! (3 × 8 bytes little-endian) as the stream anchor.
//!
//! ## Profiles: exact vs. quantized
//!
//! The exact profile above is bit-lossless, but a GPS stream's low
//! mantissa bits are *noise* — the vehicle dataset carries metre-scale
//! jitter whose exact double representation costs ~40 bits per
//! coordinate, an information-theoretic floor no lossless coder can
//! beat. [`CodecProfile::Quantized`] trades those sub-noise bits away:
//! coordinates become integers on a configurable grid
//! ([`CodecProfile::millimetre`] stores 1 mm cells — three orders of
//! magnitude finer than GPS error, and 10× finer than the paper's own
//! 12-byte centimetre records), and the same delta-of-delta varints then
//! collapse to 1–3 bytes per field. Both profiles share one wire format
//! distinguished by a mode byte; the decoder is oblivious to which was
//! used.
//!
//! The payload begins with a one-byte codec version so blobs are
//! self-describing independent of the segment container (see
//! `docs/format.md` for the full wire format).
//!
//! ## One encoder, one decoder
//!
//! There is one encoder loop and one decoder loop; each profile is a
//! match arm that hands the loop its mapping (the bit map or the grid),
//! and the layouts are adapters over them. The encoder reads any
//! iterator of points — a row slice ([`encode_points`]) or a
//! [`ColumnarBatch`] ([`encode_columns`]) — so the two layouts produce
//! the same bytes by construction. The decoder hands each point to an
//! emitter closure, which pushes a row ([`decode_to_vec`],
//! [`decode_points`]) or three columns ([`decode_columns_into`]).
//! Neither side copies points into the other layout.
//!
//! ## Errors
//!
//! Encoding *rejects* streams whose timestamps go backwards or are not
//! finite — the log's index and the reconstruction layer both rely on
//! time-ordered records — with a typed [`CodecError`]. [`check_time`] is
//! that rule, and [`check_times`] applies it to a run that is checked
//! without being encoded (the ingest server's batches). Every encoder
//! entry point has one error contract: on any error, `out` is truncated
//! back to the length it had on entry, so a refused stream leaves no
//! prefix behind.

use bqs_core::stream::Sink;
use bqs_geo::{ColumnarBatch, TimedPoint};
use std::fmt;

/// Version byte prefixed to every encoded payload.
pub const CODEC_VERSION: u8 = 1;

/// Mode byte for the exact (bit-lossless) profile.
const MODE_EXACT: u8 = 0;

/// Mode byte for the quantized profile.
const MODE_QUANTIZED: u8 = 1;

/// Bytes a point occupies in the naive fixed-width representation
/// (3 × `f64`): the baseline the storage experiment compares against.
pub const NAIVE_POINT_BYTES: usize = 24;

/// How values are mapped to the integers the delta coder works on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecProfile {
    /// Bit-lossless: integers are the order-preserving bit map of the
    /// raw doubles. Any stream round-trips exactly.
    Exact,
    /// Grid-lossy: values are rounded to `1/scale`-sized cells and the
    /// cell indices are delta-coded. Decoding returns the cell centres;
    /// the round-trip error is at most `0.5/scale` per field, and
    /// re-encoding decoded output is idempotent.
    Quantized {
        /// Cells per metre for x and y (e.g. `1000.0` = 1 mm grid).
        xy_scale: f64,
        /// Cells per second for timestamps.
        t_scale: f64,
    },
}

impl CodecProfile {
    /// The quantized profile used by default where grid fidelity is
    /// acceptable: 1 mm positions, 1 ms timestamps — far below GPS noise
    /// and 10× finer than the paper's centimetre flash records.
    pub fn millimetre() -> CodecProfile {
        CodecProfile::Quantized {
            xy_scale: 1_000.0,
            t_scale: 1_000.0,
        }
    }

    /// Largest absolute quantised magnitude accepted, chosen so that
    /// round-trips through `f64` stay exact with margin.
    const MAX_CELL: f64 = 9e15; // < 2^53

    fn validate(&self) -> Result<(), CodecError> {
        match *self {
            CodecProfile::Exact => Ok(()),
            CodecProfile::Quantized { xy_scale, t_scale } => {
                if xy_scale.is_finite() && xy_scale > 0.0 && t_scale.is_finite() && t_scale > 0.0 {
                    Ok(())
                } else {
                    Err(CodecError::BadProfile { xy_scale, t_scale })
                }
            }
        }
    }
}

/// Quantises one value, rejecting anything the grid cannot hold.
#[inline]
fn quantize(v: f64, scale: f64, index: usize) -> Result<i64, CodecError> {
    let q = (v * scale).round();
    if !q.is_finite() || q.abs() > CodecProfile::MAX_CELL {
        return Err(CodecError::Unquantizable { index, value: v });
    }
    Ok(q as i64)
}

/// Everything that can go wrong while encoding or decoding a point stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecError {
    /// A timestamp went backwards: the log stores time-ordered streams.
    NonMonotonicTimestamps {
        /// Index of the offending point in the input stream.
        index: usize,
        /// The previous point's timestamp.
        prev: f64,
        /// The offending timestamp.
        next: f64,
    },
    /// A timestamp was NaN or infinite.
    NonFiniteTimestamp {
        /// Index of the offending point in the input stream.
        index: usize,
    },
    /// The payload's version byte is not one this decoder understands.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The payload's mode byte names a profile this decoder does not
    /// know.
    UnsupportedMode {
        /// The mode byte found.
        found: u8,
    },
    /// The payload ended in the middle of a point or varint.
    Truncated {
        /// Byte offset at which decoding could no longer proceed.
        offset: usize,
    },
    /// A record header's declared point count disagrees with the payload.
    CountMismatch {
        /// The count the record header declared.
        declared: u64,
        /// The count the payload actually decoded to.
        decoded: u64,
    },
    /// A quantized profile was constructed with non-positive or
    /// non-finite scales.
    BadProfile {
        /// The offending position scale.
        xy_scale: f64,
        /// The offending time scale.
        t_scale: f64,
    },
    /// A value cannot be represented on the quantized profile's grid
    /// (non-finite, or the cell index overflows).
    Unquantizable {
        /// Index of the offending point in the input stream.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::NonMonotonicTimestamps { index, prev, next } => write!(
                f,
                "timestamp at index {index} goes backwards: {next} < {prev}"
            ),
            CodecError::NonFiniteTimestamp { index } => {
                write!(f, "timestamp at index {index} is not finite")
            }
            CodecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported codec version {found} (expected {CODEC_VERSION})"
                )
            }
            CodecError::UnsupportedMode { found } => {
                write!(f, "unsupported codec mode {found} (expected 0 or 1)")
            }
            CodecError::Truncated { offset } => {
                write!(f, "payload truncated at byte offset {offset}")
            }
            CodecError::CountMismatch { declared, decoded } => {
                write!(
                    f,
                    "record declared {declared} points but payload held {decoded}"
                )
            }
            CodecError::BadProfile { xy_scale, t_scale } => {
                write!(f, "quantized profile scales must be positive and finite, got xy={xy_scale} t={t_scale}")
            }
            CodecError::Unquantizable { index, value } => {
                write!(
                    f,
                    "value {value} at index {index} does not fit the quantized grid"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Maps an `f64`'s bit pattern to a `u64` whose integer order matches the
/// numeric order of finite doubles (negative values reversed into the
/// lower half, positives shifted into the upper). A bijection on all bit
/// patterns — NaNs and infinities survive round-trips bit-exactly.
#[inline]
pub fn ulp_map(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`ulp_map`].
#[inline]
pub fn ulp_unmap(u: u64) -> f64 {
    let bits = if u & (1 << 63) != 0 {
        u & !(1 << 63)
    } else {
        !u
    };
    f64::from_bits(bits)
}

/// Zig-zag encodes a signed delta so small magnitudes of either sign get
/// short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends a LEB128 varint (1–10 bytes).
#[inline]
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint starting at `*pos`, advancing it.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        // 10 bytes cover 70 bits; anything longer is corrupt framing.
        if shift >= 64 {
            return Err(CodecError::Truncated { offset: *pos });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a double as its raw IEEE-754 bits, little-endian (8 bytes) —
/// the fixed-width field of codec anchors, profile scales and record
/// headers.
#[inline]
pub fn write_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads a double written by [`write_f64`] starting at `*pos`,
/// advancing it.
#[inline]
pub fn read_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, CodecError> {
    let field = pos
        .checked_add(8)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or(CodecError::Truncated { offset: *pos })?;
    let mut b = [0u8; 8];
    b.copy_from_slice(field);
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

/// Per-field delta-of-delta state in mapped-integer space.
#[derive(Debug, Clone, Copy, Default)]
struct FieldState {
    prev: u64,
    prev_delta: u64,
}

impl FieldState {
    #[inline]
    fn start(u: u64) -> FieldState {
        FieldState {
            prev: u,
            prev_delta: 0,
        }
    }

    /// Encoder step: the zig-zagged second-order delta for `u`.
    #[inline]
    fn encode(&mut self, u: u64) -> u64 {
        let delta = u.wrapping_sub(self.prev);
        let dd = delta.wrapping_sub(self.prev_delta);
        self.prev = u;
        self.prev_delta = delta;
        zigzag(dd as i64)
    }

    /// Decoder step: reconstructs the mapped integer from a zig-zagged
    /// second-order delta.
    #[inline]
    fn decode(&mut self, zz: u64) -> u64 {
        let dd = unzigzag(zz) as u64;
        let delta = self.prev_delta.wrapping_add(dd);
        let u = self.prev.wrapping_add(delta);
        self.prev = u;
        self.prev_delta = delta;
        u
    }
}

/// The codec's time-order rule for point `index`: its timestamp `t` must
/// be finite and not below `prev`, its predecessor's (pass
/// `f64::NEG_INFINITY` when there is none, which leaves only the
/// finiteness check).
#[inline]
pub fn check_time(prev: f64, t: f64, index: usize) -> Result<(), CodecError> {
    if !t.is_finite() {
        return Err(CodecError::NonFiniteTimestamp { index });
    }
    if t < prev {
        return Err(CodecError::NonMonotonicTimestamps {
            index,
            prev,
            next: t,
        });
    }
    Ok(())
}

/// Applies [`check_time`] to a whole timestamp run, the first one
/// measured against `floor` (a track's accepted watermark, or
/// `f64::NEG_INFINITY` for none) — for runs that are checked without
/// being encoded. Indices in the error count from the run's start.
pub fn check_times(times: impl IntoIterator<Item = f64>, floor: f64) -> Result<(), CodecError> {
    let mut prev = floor;
    for (index, t) in times.into_iter().enumerate() {
        check_time(prev, t, index)?;
        prev = t;
    }
    Ok(())
}

/// Encodes a point stream with the bit-lossless [`CodecProfile::Exact`]
/// profile — the durable log's default. Timestamps must be finite and
/// non-decreasing; positions may be any bit pattern. An empty stream
/// encodes to just the version and mode bytes. On error, `out` is left
/// as it was on entry.
pub fn encode_points(points: &[TimedPoint], out: &mut Vec<u8>) -> Result<(), CodecError> {
    encode_points_with(CodecProfile::Exact, points, out)
}

/// Encodes a point stream with an explicit profile.
pub fn encode_points_with(
    profile: CodecProfile,
    points: &[TimedPoint],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    encode(profile, points.iter().copied(), points.len(), out)
}

/// Convenience wrapper returning a fresh buffer (exact profile).
pub fn encode_to_vec(points: &[TimedPoint]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_points(points, &mut out)?;
    Ok(out)
}

/// Convenience wrapper returning a fresh buffer with an explicit profile.
pub fn encode_to_vec_with(
    profile: CodecProfile,
    points: &[TimedPoint],
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_points_with(profile, points, &mut out)?;
    Ok(out)
}

/// Encodes a columnar batch with the exact profile: the bytes
/// [`encode_points`] writes for the same points in row form, read
/// straight from the three columns — the shape the ingest client's
/// `Append` path holds. Same error contract as [`encode_points`].
///
/// # Panics
///
/// Panics when the batch's columns differ in length (a violated
/// [`ColumnarBatch`] invariant).
pub fn encode_columns(batch: &ColumnarBatch, out: &mut Vec<u8>) -> Result<(), CodecError> {
    encode_columns_with(CodecProfile::Exact, batch, out)
}

/// Encodes a columnar batch with an explicit profile; the bytes of
/// [`encode_points_with`] on the same points in row form. Panics like
/// [`encode_columns`].
pub fn encode_columns_with(
    profile: CodecProfile,
    batch: &ColumnarBatch,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    assert!(
        batch.x.len() == batch.t.len() && batch.y.len() == batch.t.len(),
        "columnar batch columns differ in length"
    );
    encode(profile, batch.iter(), batch.len(), out)
}

/// The encoder every entry point adapts: `len` points from `points`,
/// appended to `out`, which is truncated back to its entry length on
/// any error.
fn encode(
    profile: CodecProfile,
    points: impl IntoIterator<Item = TimedPoint>,
    len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let entry_len = out.len();
    encode_stream(profile, points, len, out).inspect_err(|_| out.truncate(entry_len))
}

fn encode_stream(
    profile: CodecProfile,
    points: impl IntoIterator<Item = TimedPoint>,
    len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    profile.validate()?;
    out.reserve(2 + len * 8);
    out.push(CODEC_VERSION);
    match profile {
        CodecProfile::Exact => out.push(MODE_EXACT),
        CodecProfile::Quantized { xy_scale, t_scale } => {
            out.push(MODE_QUANTIZED);
            write_f64(xy_scale, out);
            write_f64(t_scale, out);
        }
    }
    let mut points = points.into_iter();
    let Some(first) = points.next() else {
        return Ok(());
    };
    check_time(f64::NEG_INFINITY, first.t, 0)?;
    // One profile dispatch per stream: each arm writes its anchor and
    // runs its own copy of the delta loop, with its mapping inlined.
    match profile {
        CodecProfile::Exact => {
            let map = |p: TimedPoint, _| Ok([ulp_map(p.pos.x), ulp_map(p.pos.y), ulp_map(p.t)]);
            write_f64(first.pos.x, out);
            write_f64(first.pos.y, out);
            write_f64(first.t, out);
            encode_deltas(first.t, map(first, 0)?, points, map, out)
        }
        CodecProfile::Quantized { xy_scale, t_scale } => {
            let map = |p: TimedPoint, index| {
                Ok([
                    quantize(p.pos.x, xy_scale, index)? as u64,
                    quantize(p.pos.y, xy_scale, index)? as u64,
                    quantize(p.t, t_scale, index)? as u64,
                ])
            };
            let anchor = map(first, 0)?;
            write_varint(zigzag(anchor[0] as i64), out);
            write_varint(zigzag(anchor[1] as i64), out);
            write_varint(zigzag(anchor[2] as i64), out);
            encode_deltas(first.t, anchor, points, map, out)
        }
    }
}

/// The delta loop behind every encoder: each point after the anchor (at
/// time `anchor_t`, mapped to `anchor`) as the zig-zagged delta-of-delta
/// varints of the integers `map` gives it.
fn encode_deltas(
    anchor_t: f64,
    anchor: [u64; 3],
    rest: impl Iterator<Item = TimedPoint>,
    map: impl Fn(TimedPoint, usize) -> Result<[u64; 3], CodecError>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let [mut x, mut y, mut t] = anchor.map(FieldState::start);
    let mut prev_t = anchor_t;
    for (index, p) in (1..).zip(rest) {
        check_time(prev_t, p.t, index)?;
        prev_t = p.t;
        let [ux, uy, ut] = map(p, index)?;
        write_varint(x.encode(ux), out);
        write_varint(y.encode(uy), out);
        write_varint(t.encode(ut), out);
    }
    Ok(())
}

/// Decodes a payload produced by [`encode_points`], replaying every point
/// straight into `sink` (any [`Sink`] — a `Vec`, a counting sink, or a
/// live compressor's input adapter). Returns the number of points
/// decoded. The payload must be exactly one encoded stream: trailing
/// garbage surfaces as [`CodecError::Truncated`] mid-varint or a bogus
/// point, never as silent acceptance.
pub fn decode_points(bytes: &[u8], sink: &mut dyn Sink) -> Result<usize, CodecError> {
    decode(bytes, |x, y, t| sink.push(TimedPoint::new(x, y, t)))
}

/// Convenience wrapper decoding into a fresh `Vec`.
pub fn decode_to_vec(bytes: &[u8]) -> Result<Vec<TimedPoint>, CodecError> {
    let mut out = Vec::new();
    decode(bytes, |x, y, t| out.push(TimedPoint::new(x, y, t)))?;
    Ok(out)
}

/// Decodes a payload produced by any encoder in this module straight
/// into a columnar batch, **appending** to whatever `batch` already
/// holds (clear it first to reuse its allocations). Returns the number
/// of points decoded. Accepts exactly the payloads [`decode_points`]
/// accepts and produces the same values, landed in three contiguous
/// runs. On an error the batch may hold a prefix of whole points.
pub fn decode_columns_into(bytes: &[u8], batch: &mut ColumnarBatch) -> Result<usize, CodecError> {
    // A point costs at least three varint bytes after the version and
    // mode bytes; reserving that bound keeps the loop reallocation-free.
    let reserve = bytes.len().saturating_sub(2) / 3 + 1;
    batch.x.reserve(reserve);
    batch.y.reserve(reserve);
    batch.t.reserve(reserve);
    decode(bytes, |x, y, t| {
        batch.x.push(x);
        batch.y.push(y);
        batch.t.push(t);
    })
}

/// The decoder every entry point adapts: hands each point's `x, y, t`
/// to `emit`, in stream order, and returns how many it emitted.
fn decode(bytes: &[u8], emit: impl FnMut(f64, f64, f64)) -> Result<usize, CodecError> {
    let &version = bytes.first().ok_or(CodecError::Truncated { offset: 0 })?;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let &mode = bytes.get(1).ok_or(CodecError::Truncated { offset: 1 })?;
    let mut pos = 2usize;
    let profile = match mode {
        MODE_EXACT => CodecProfile::Exact,
        MODE_QUANTIZED => {
            let profile = CodecProfile::Quantized {
                xy_scale: read_f64(bytes, &mut pos)?,
                t_scale: read_f64(bytes, &mut pos)?,
            };
            profile.validate()?;
            profile
        }
        found => return Err(CodecError::UnsupportedMode { found }),
    };
    if pos == bytes.len() {
        return Ok(0);
    }
    // One profile dispatch per stream, as in the encoder.
    match profile {
        CodecProfile::Exact => {
            let anchor = [
                ulp_map(read_f64(bytes, &mut pos)?),
                ulp_map(read_f64(bytes, &mut pos)?),
                ulp_map(read_f64(bytes, &mut pos)?),
            ];
            let unmap = |[x, y, t]: [u64; 3]| (ulp_unmap(x), ulp_unmap(y), ulp_unmap(t));
            decode_deltas(bytes, pos, anchor, unmap, emit)
        }
        CodecProfile::Quantized { xy_scale, t_scale } => {
            let anchor = [
                unzigzag(read_varint(bytes, &mut pos)?) as u64,
                unzigzag(read_varint(bytes, &mut pos)?) as u64,
                unzigzag(read_varint(bytes, &mut pos)?) as u64,
            ];
            let unmap = |[x, y, t]: [u64; 3]| {
                (
                    x as i64 as f64 / xy_scale,
                    y as i64 as f64 / xy_scale,
                    t as i64 as f64 / t_scale,
                )
            };
            decode_deltas(bytes, pos, anchor, unmap, emit)
        }
    }
}

/// The delta loop behind every decoder: emits the anchor, then one point
/// per three varints from `pos` to the end of `bytes`, each field's
/// integer turned back into its value by `unmap`.
fn decode_deltas(
    bytes: &[u8],
    mut pos: usize,
    anchor: [u64; 3],
    unmap: impl Fn([u64; 3]) -> (f64, f64, f64),
    mut emit: impl FnMut(f64, f64, f64),
) -> Result<usize, CodecError> {
    let (px, py, pt) = unmap(anchor);
    emit(px, py, pt);
    let [mut x, mut y, mut t] = anchor.map(FieldState::start);
    let mut count = 1usize;
    while pos < bytes.len() {
        let ux = x.decode(read_varint(bytes, &mut pos)?);
        let uy = y.decode(read_varint(bytes, &mut pos)?);
        let ut = t.decode(read_varint(bytes, &mut pos)?);
        let (px, py, pt) = unmap([ux, uy, ut]);
        emit(px, py, pt);
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::stream::{compress_all, CountingSink};
    use bqs_core::{BqsConfig, FastBqsCompressor};
    use bqs_sim::dataset;

    fn roundtrip(points: &[TimedPoint]) -> Vec<TimedPoint> {
        let bytes = encode_to_vec(points).expect("encode");
        decode_to_vec(&bytes).expect("decode")
    }

    fn assert_bit_exact(a: &[TimedPoint], b: &[TimedPoint]) {
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b) {
            assert_eq!(p.pos.x.to_bits(), q.pos.x.to_bits());
            assert_eq!(p.pos.y.to_bits(), q.pos.y.to_bits());
            assert_eq!(p.t.to_bits(), q.t.to_bits());
        }
    }

    /// The paper's vehicle dataset (road motion under metre-scale GPS
    /// noise) at the size and seed `bqs experiments` uses by default.
    fn vehicle_points() -> Vec<TimedPoint> {
        dataset::vehicle_dataset_sized(20150413, 8).points
    }

    #[test]
    fn millimetre_profile_stays_under_half_the_naive_layout_on_vehicle_data() {
        let points = vehicle_points();
        let n = points.len() as f64;
        let exact = encode_to_vec(&points).unwrap();
        let quantized = encode_to_vec_with(CodecProfile::millimetre(), &points).unwrap();
        let exact_bpp = exact.len() as f64 / n;
        let quantized_bpp = quantized.len() as f64 / n;
        // Also undercuts the paper's 12 B centimetre flash record while
        // storing 10× finer positions.
        assert!(
            quantized_bpp < NAIVE_POINT_BYTES as f64 / 2.0,
            "mm grid: {quantized_bpp:.2} B/pt"
        );
        // The exact profile pays for the noise's entropy floor above the
        // grid, but still beats the naive layout, and stays lossless.
        assert!(
            quantized_bpp < exact_bpp && exact_bpp < NAIVE_POINT_BYTES as f64 * 0.7,
            "exact: {exact_bpp:.2} B/pt, mm grid: {quantized_bpp:.2} B/pt"
        );
        assert_bit_exact(&decode_to_vec(&exact).unwrap(), &points);
    }

    #[test]
    fn exact_profile_round_trips_the_bat_dataset_bit_exactly() {
        let bat = dataset::bat_dataset_sized(20150413, 2, 2).points;
        assert!(!bat.is_empty());
        assert_bit_exact(&roundtrip(&bat), &bat);
    }

    #[test]
    fn compressing_before_encoding_compounds_the_saving() {
        let points = vehicle_points();
        let config = BqsConfig::new(10.0).unwrap();
        let kept = compress_all(&mut FastBqsCompressor::new(config), points.iter().copied());
        assert!(kept.len() < points.len());
        let all_exact = encode_to_vec(&points).unwrap().len();
        let kept_exact = encode_to_vec(&kept).unwrap().len();
        assert!(kept_exact < all_exact, "{kept_exact} vs {all_exact} B");
        // Below a quarter of the naive layout of every input point: under
        // half of what the paper's 12 B record would take.
        assert!(
            kept_exact < NAIVE_POINT_BYTES * points.len() / 4,
            "{kept_exact} B for {} input points",
            points.len()
        );
    }

    #[test]
    fn ulp_map_is_order_preserving_and_bijective() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(ulp_map(w[0]) < ulp_map(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in values {
            assert_eq!(ulp_unmap(ulp_map(v)).to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(ulp_unmap(ulp_map(nan)).to_bits(), nan.to_bits());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX, 1 << 63];
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn empty_and_singleton_streams() {
        assert_eq!(roundtrip(&[]), vec![]);
        let one = [TimedPoint::new(-3.25, 7.5, 42.0)];
        assert_eq!(roundtrip(&one), one);
        let bytes = encode_to_vec(&[]).unwrap();
        assert_eq!(bytes, vec![CODEC_VERSION, 0]);
    }

    #[test]
    fn quantized_profile_round_trips_on_grid_values() {
        // Values already on the mm grid survive exactly.
        let points: Vec<TimedPoint> = (0..300)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(a * 1.25, 500.0 - a * 0.008, a * 5.0)
            })
            .collect();
        let bytes = encode_to_vec_with(CodecProfile::millimetre(), &points).unwrap();
        let back = decode_to_vec(&bytes).unwrap();
        assert_eq!(back, points);
        // Far below the exact profile on the same stream.
        let exact = encode_to_vec(&points).unwrap();
        assert!(bytes.len() < exact.len());
    }

    #[test]
    fn quantized_error_is_bounded_and_reencoding_is_idempotent() {
        let profile = CodecProfile::Quantized {
            xy_scale: 1_000.0,
            t_scale: 1_000.0,
        };
        let points: Vec<TimedPoint> = (0..500)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(
                    (a * 0.177).sin() * 12_345.678 + a,
                    (a * 0.093).cos() * 9_871.123,
                    a * 4.987 + 0.000_4,
                )
            })
            .collect();
        let bytes = encode_to_vec_with(profile, &points).unwrap();
        let once = decode_to_vec(&bytes).unwrap();
        for (a, b) in points.iter().zip(&once) {
            assert!((a.pos.x - b.pos.x).abs() <= 0.5e-3 + 1e-9);
            assert!((a.pos.y - b.pos.y).abs() <= 0.5e-3 + 1e-9);
            assert!((a.t - b.t).abs() <= 0.5e-3 + 1e-9);
        }
        // Decoded output is a fixed point of the quantized codec.
        let bytes2 = encode_to_vec_with(profile, &once).unwrap();
        let twice = decode_to_vec(&bytes2).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn quantized_profile_rejects_unrepresentable_values() {
        let profile = CodecProfile::millimetre();
        let nan_pos = [TimedPoint::new(f64::NAN, 0.0, 0.0)];
        assert!(matches!(
            encode_to_vec_with(profile, &nan_pos),
            Err(CodecError::Unquantizable { index: 0, .. })
        ));
        let huge = [
            TimedPoint::new(0.0, 0.0, 0.0),
            TimedPoint::new(1e300, 0.0, 1.0),
        ];
        assert!(matches!(
            encode_to_vec_with(profile, &huge),
            Err(CodecError::Unquantizable { index: 1, .. })
        ));
        let bad = CodecProfile::Quantized {
            xy_scale: -1.0,
            t_scale: 1.0,
        };
        assert!(matches!(
            encode_to_vec_with(bad, &[]),
            Err(CodecError::BadProfile { .. })
        ));
    }

    #[test]
    fn unknown_mode_byte_is_rejected() {
        assert_eq!(
            decode_to_vec(&[CODEC_VERSION, 9]),
            Err(CodecError::UnsupportedMode { found: 9 })
        );
    }

    #[test]
    fn smooth_stream_round_trips_bit_exactly() {
        let points: Vec<TimedPoint> = (0..500)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new((a * 0.13).sin() * 900.0, a * 21.7, a * 5.0)
            })
            .collect();
        assert_bit_exact(&roundtrip(&points), &points);
    }

    #[test]
    fn parked_tracker_costs_about_three_bytes_per_point() {
        let points: Vec<TimedPoint> = (0..1000)
            .map(|i| TimedPoint::new(512.375, -97.125, i as f64 * 5.0))
            .collect();
        let bytes = encode_to_vec(&points).unwrap();
        // First point 24 B + version; every later point is 3 × 1-byte
        // varints once the time delta stabilises.
        assert!(
            bytes.len() < 25 + 4 * (points.len() - 1),
            "{} bytes for {} parked points",
            bytes.len(),
            points.len()
        );
        assert_eq!(decode_to_vec(&bytes).unwrap(), points);
    }

    #[test]
    fn rejects_backwards_time_with_typed_error() {
        let points = [
            TimedPoint::new(0.0, 0.0, 10.0),
            TimedPoint::new(1.0, 0.0, 9.0),
        ];
        match encode_to_vec(&points) {
            Err(CodecError::NonMonotonicTimestamps { index, prev, next }) => {
                assert_eq!(index, 1);
                assert_eq!(prev, 10.0);
                assert_eq!(next, 9.0);
            }
            other => panic!("expected NonMonotonicTimestamps, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_time() {
        let nan = [TimedPoint::new(0.0, 0.0, f64::NAN)];
        assert_eq!(
            encode_to_vec(&nan),
            Err(CodecError::NonFiniteTimestamp { index: 0 })
        );
        let inf = [
            TimedPoint::new(0.0, 0.0, 0.0),
            TimedPoint::new(0.0, 0.0, f64::INFINITY),
        ];
        assert_eq!(
            encode_to_vec(&inf),
            Err(CodecError::NonFiniteTimestamp { index: 1 })
        );
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let points = [
            TimedPoint::new(0.0, 0.0, 5.0),
            TimedPoint::new(1.0, 2.0, 5.0),
        ];
        assert_eq!(roundtrip(&points), points);
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let points: Vec<TimedPoint> = (0..10)
            .map(|i| TimedPoint::new(i as f64 * 3.0, 1.0, i as f64))
            .collect();
        let bytes = encode_to_vec(&points).unwrap();
        for cut in [0, 1, 5, 24, bytes.len() - 1] {
            let r = decode_to_vec(&bytes[..cut]);
            assert!(
                matches!(r, Err(CodecError::Truncated { .. })) || r.as_deref() == Ok(&[]),
                "cut {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_to_vec(&[TimedPoint::new(0.0, 0.0, 0.0)]).unwrap();
        bytes[0] = 99;
        assert_eq!(
            decode_to_vec(&bytes),
            Err(CodecError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn columnar_encode_is_byte_identical_to_row_encode() {
        let points: Vec<TimedPoint> = (0..400)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new((a * 0.17).sin() * 812.0, a * 3.3 - 50.0, a * 5.0)
            })
            .collect();
        // Both profiles, and the empty and singleton anchors too.
        for profile in [CodecProfile::Exact, CodecProfile::millimetre()] {
            for n in [0, 1, points.len()] {
                let row = encode_to_vec_with(profile, &points[..n]).unwrap();
                let batch = ColumnarBatch::from_points(&points[..n]);
                let mut col = Vec::new();
                encode_columns_with(profile, &batch, &mut col).unwrap();
                assert_eq!(col, row, "{profile:?}, {n} points");
            }
        }
    }

    #[test]
    fn columnar_decode_matches_row_decode() {
        let points: Vec<TimedPoint> = (0..300)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(a * 1.25, 500.0 - a * 0.008, a * 5.0)
            })
            .collect();
        // A cleared batch is reused without stale points.
        let mut batch = ColumnarBatch::from_points(&points[..7]);
        for profile in [CodecProfile::Exact, CodecProfile::millimetre()] {
            let bytes = encode_to_vec_with(profile, &points).unwrap();
            batch.clear();
            assert_eq!(decode_columns_into(&bytes, &mut batch).unwrap(), 300);
            assert_eq!(batch.to_points(), decode_to_vec(&bytes).unwrap());
        }
        assert_eq!(batch.to_points(), points);
    }

    #[test]
    fn columnar_encode_rejects_what_the_row_encoder_rejects() {
        let backwards = [
            TimedPoint::new(0.0, 0.0, 10.0),
            TimedPoint::new(1.0, 0.0, 9.0),
        ];
        for points in [&backwards[..], &[TimedPoint::new(0.0, 0.0, f64::NAN)]] {
            let mut out = Vec::new();
            let col = encode_columns(&ColumnarBatch::from_points(points), &mut out);
            assert_eq!(col, encode_to_vec(points).map(drop));
            assert!(
                col.is_err() && out.is_empty(),
                "invalid batches write nothing"
            );
        }
        // Truncated payloads are typed errors on the columnar side too.
        let bytes = encode_to_vec(&backwards[..1]).unwrap();
        let cut = decode_columns_into(&bytes[..bytes.len() - 1], &mut ColumnarBatch::new());
        assert!(matches!(cut, Err(CodecError::Truncated { .. })), "{cut:?}");
    }

    #[test]
    fn every_encoder_leaves_out_untouched_on_error() {
        let mut points: Vec<TimedPoint> = (0..6)
            .map(|i| TimedPoint::new(i as f64, 2.0, i as f64))
            .collect();
        points[3].pos.x = f64::NAN;
        let mm = CodecProfile::millimetre();
        let mut out = vec![0xAB, 0xCD, 0xEF];
        let row = encode_points_with(mm, &points, &mut out);
        let col = encode_columns_with(mm, &ColumnarBatch::from_points(&points), &mut out);
        for r in [row, col] {
            let nan_at_3 =
                matches!(r, Err(CodecError::Unquantizable { index: 3, value }) if value.is_nan());
            assert!(nan_at_3, "{r:?}");
        }
        // The time rule and the exact profile keep the same contract.
        points[3].pos.x = 3.0;
        points[4].t = 1.0;
        assert!(encode_points(&points, &mut out).is_err());
        assert_eq!(out, [0xAB, 0xCD, 0xEF], "a refused stream left a prefix");
    }

    #[test]
    fn decoder_replays_into_any_sink() {
        let points: Vec<TimedPoint> = (0..64)
            .map(|i| TimedPoint::new(i as f64, -(i as f64), i as f64))
            .collect();
        let bytes = encode_to_vec(&points).unwrap();
        let mut counter = CountingSink::new();
        let n = decode_points(&bytes, &mut counter).unwrap();
        assert_eq!(n, 64);
        assert_eq!(counter.count, 64);
    }
}
