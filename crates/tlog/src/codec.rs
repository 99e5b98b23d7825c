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
//! Encoding *rejects* streams whose timestamps go backwards or are not
//! finite — the log's index and the reconstruction layer both rely on
//! time-ordered records — with a typed [`CodecError`].

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

/// Validates the timestamp of point `index` against its predecessor.
#[inline]
fn check_time(prev_t: f64, t: f64, index: usize) -> Result<(), CodecError> {
    if !t.is_finite() {
        return Err(CodecError::NonFiniteTimestamp { index });
    }
    if t < prev_t {
        return Err(CodecError::NonMonotonicTimestamps {
            index,
            prev: prev_t,
            next: t,
        });
    }
    Ok(())
}

/// Encodes a point stream with the bit-lossless [`CodecProfile::Exact`]
/// profile — the durable log's default. Timestamps must be finite and
/// non-decreasing; positions may be any bit pattern. An empty stream
/// encodes to just the version and mode bytes.
pub fn encode_points(points: &[TimedPoint], out: &mut Vec<u8>) -> Result<(), CodecError> {
    encode_points_with(CodecProfile::Exact, points, out)
}

/// Encodes a point stream with an explicit profile.
pub fn encode_points_with(
    profile: CodecProfile,
    points: &[TimedPoint],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    profile.validate()?;
    out.reserve(2 + points.len() * 8);
    out.push(CODEC_VERSION);
    match profile {
        CodecProfile::Exact => {
            out.push(MODE_EXACT);
            let Some(first) = points.first() else {
                return Ok(());
            };
            if !first.t.is_finite() {
                return Err(CodecError::NonFiniteTimestamp { index: 0 });
            }
            out.extend_from_slice(&first.pos.x.to_bits().to_le_bytes());
            out.extend_from_slice(&first.pos.y.to_bits().to_le_bytes());
            out.extend_from_slice(&first.t.to_bits().to_le_bytes());

            let mut x = FieldState::start(ulp_map(first.pos.x));
            let mut y = FieldState::start(ulp_map(first.pos.y));
            let mut t = FieldState::start(ulp_map(first.t));
            let mut prev_t = first.t;
            for (i, p) in points.iter().enumerate().skip(1) {
                check_time(prev_t, p.t, i)?;
                prev_t = p.t;
                write_varint(x.encode(ulp_map(p.pos.x)), out);
                write_varint(y.encode(ulp_map(p.pos.y)), out);
                write_varint(t.encode(ulp_map(p.t)), out);
            }
        }
        CodecProfile::Quantized { xy_scale, t_scale } => {
            out.push(MODE_QUANTIZED);
            out.extend_from_slice(&xy_scale.to_bits().to_le_bytes());
            out.extend_from_slice(&t_scale.to_bits().to_le_bytes());
            let Some(first) = points.first() else {
                return Ok(());
            };
            if !first.t.is_finite() {
                return Err(CodecError::NonFiniteTimestamp { index: 0 });
            }
            let kx = quantize(first.pos.x, xy_scale, 0)?;
            let ky = quantize(first.pos.y, xy_scale, 0)?;
            let kt = quantize(first.t, t_scale, 0)?;
            write_varint(zigzag(kx), out);
            write_varint(zigzag(ky), out);
            write_varint(zigzag(kt), out);

            let mut x = FieldState::start(kx as u64);
            let mut y = FieldState::start(ky as u64);
            let mut t = FieldState::start(kt as u64);
            let mut prev_t = first.t;
            for (i, p) in points.iter().enumerate().skip(1) {
                check_time(prev_t, p.t, i)?;
                prev_t = p.t;
                write_varint(x.encode(quantize(p.pos.x, xy_scale, i)? as u64), out);
                write_varint(y.encode(quantize(p.pos.y, xy_scale, i)? as u64), out);
                write_varint(t.encode(quantize(p.t, t_scale, i)? as u64), out);
            }
        }
    }
    Ok(())
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

/// Decodes a payload produced by [`encode_points`], replaying every point
/// straight into `sink` (any [`Sink`] — a `Vec`, a counting sink, or a
/// live compressor's input adapter). Returns the number of points
/// decoded. The payload must be exactly one encoded stream: trailing
/// garbage surfaces as [`CodecError::Truncated`] mid-varint or a bogus
/// point, never as silent acceptance.
pub fn decode_points(bytes: &[u8], sink: &mut dyn Sink) -> Result<usize, CodecError> {
    let mut pos = 0usize;
    let &version = bytes.get(pos).ok_or(CodecError::Truncated { offset: 0 })?;
    pos += 1;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let &mode = bytes
        .get(pos)
        .ok_or(CodecError::Truncated { offset: pos })?;
    pos += 1;
    let read_f64 = |pos: &mut usize| -> Result<f64, CodecError> {
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= bytes.len())
            .ok_or(CodecError::Truncated { offset: *pos })?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[*pos..end]);
        *pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    };
    match mode {
        MODE_EXACT => {
            if pos == bytes.len() {
                return Ok(0);
            }
            let first = TimedPoint::new(
                read_f64(&mut pos)?,
                read_f64(&mut pos)?,
                read_f64(&mut pos)?,
            );
            let mut x = FieldState::start(ulp_map(first.pos.x));
            let mut y = FieldState::start(ulp_map(first.pos.y));
            let mut t = FieldState::start(ulp_map(first.t));
            sink.push(first);
            let mut count = 1usize;
            while pos < bytes.len() {
                let px = ulp_unmap(x.decode(read_varint(bytes, &mut pos)?));
                let py = ulp_unmap(y.decode(read_varint(bytes, &mut pos)?));
                let pt = ulp_unmap(t.decode(read_varint(bytes, &mut pos)?));
                sink.push(TimedPoint::new(px, py, pt));
                count += 1;
            }
            Ok(count)
        }
        MODE_QUANTIZED => {
            let xy_scale = read_f64(&mut pos)?;
            let t_scale = read_f64(&mut pos)?;
            (CodecProfile::Quantized { xy_scale, t_scale }).validate()?;
            if pos == bytes.len() {
                return Ok(0);
            }
            let kx = unzigzag(read_varint(bytes, &mut pos)?);
            let ky = unzigzag(read_varint(bytes, &mut pos)?);
            let kt = unzigzag(read_varint(bytes, &mut pos)?);
            let dequant = |k: i64, scale: f64| k as f64 / scale;
            let mut x = FieldState::start(kx as u64);
            let mut y = FieldState::start(ky as u64);
            let mut t = FieldState::start(kt as u64);
            sink.push(TimedPoint::new(
                dequant(kx, xy_scale),
                dequant(ky, xy_scale),
                dequant(kt, t_scale),
            ));
            let mut count = 1usize;
            while pos < bytes.len() {
                let px = dequant(x.decode(read_varint(bytes, &mut pos)?) as i64, xy_scale);
                let py = dequant(y.decode(read_varint(bytes, &mut pos)?) as i64, xy_scale);
                let pt = dequant(t.decode(read_varint(bytes, &mut pos)?) as i64, t_scale);
                sink.push(TimedPoint::new(px, py, pt));
                count += 1;
            }
            Ok(count)
        }
        other => Err(CodecError::UnsupportedMode { found: other }),
    }
}

/// Convenience wrapper decoding into a fresh `Vec`.
pub fn decode_to_vec(bytes: &[u8]) -> Result<Vec<TimedPoint>, CodecError> {
    let mut out = Vec::new();
    decode_points(bytes, &mut out)?;
    Ok(out)
}

// --- columnar fast paths ---------------------------------------------

/// Validates a whole timestamp run in one contiguous pass — the
/// columnar codec's replacement for the per-point [`check_time`] calls
/// interleaved through the row encoder's hot loop.
#[inline]
fn check_time_run(t: &[f64]) -> Result<(), CodecError> {
    let mut prev = f64::NEG_INFINITY;
    for (i, &v) in t.iter().enumerate() {
        if !v.is_finite() {
            return Err(CodecError::NonFiniteTimestamp { index: i });
        }
        if v < prev {
            return Err(CodecError::NonMonotonicTimestamps {
                index: i,
                prev,
                next: v,
            });
        }
        prev = v;
    }
    Ok(())
}

/// Encodes a columnar batch with the exact profile, producing bytes
/// **identical** to [`encode_points`] on the same points in row form.
///
/// The wire format interleaves x, y, t varints per point, but the
/// columnar encoder reads each field from its own contiguous run and
/// hoists the time validation out of the per-point loop
/// (`check_time_run`) — the shape the ingest server's `Append` fast
/// path feeds straight from the socket. Unlike the row encoder, nothing
/// is written to `out` when the batch is invalid.
///
/// # Panics
///
/// Panics when the batch's columns differ in length (a violated
/// [`ColumnarBatch`] invariant).
pub fn encode_columns(batch: &ColumnarBatch, out: &mut Vec<u8>) -> Result<(), CodecError> {
    encode_columns_with(CodecProfile::Exact, batch, out)
}

/// Encodes a columnar batch with an explicit profile; bytes are
/// identical to [`encode_points_with`] on the same points in row form.
/// See [`encode_columns`] for the differences in error behaviour.
pub fn encode_columns_with(
    profile: CodecProfile,
    batch: &ColumnarBatch,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    assert!(
        batch.x.len() == batch.t.len() && batch.y.len() == batch.t.len(),
        "columnar batch columns differ in length"
    );
    profile.validate()?;
    check_time_run(&batch.t)?;
    let n = batch.len();
    out.reserve(2 + n * 8);
    out.push(CODEC_VERSION);
    match profile {
        CodecProfile::Exact => {
            out.push(MODE_EXACT);
            if n == 0 {
                return Ok(());
            }
            out.extend_from_slice(&batch.x[0].to_bits().to_le_bytes());
            out.extend_from_slice(&batch.y[0].to_bits().to_le_bytes());
            out.extend_from_slice(&batch.t[0].to_bits().to_le_bytes());
            let mut x = FieldState::start(ulp_map(batch.x[0]));
            let mut y = FieldState::start(ulp_map(batch.y[0]));
            let mut t = FieldState::start(ulp_map(batch.t[0]));
            for i in 1..n {
                write_varint(x.encode(ulp_map(batch.x[i])), out);
                write_varint(y.encode(ulp_map(batch.y[i])), out);
                write_varint(t.encode(ulp_map(batch.t[i])), out);
            }
        }
        CodecProfile::Quantized { xy_scale, t_scale } => {
            out.push(MODE_QUANTIZED);
            out.extend_from_slice(&xy_scale.to_bits().to_le_bytes());
            out.extend_from_slice(&t_scale.to_bits().to_le_bytes());
            if n == 0 {
                return Ok(());
            }
            let kx = quantize(batch.x[0], xy_scale, 0)?;
            let ky = quantize(batch.y[0], xy_scale, 0)?;
            let kt = quantize(batch.t[0], t_scale, 0)?;
            write_varint(zigzag(kx), out);
            write_varint(zigzag(ky), out);
            write_varint(zigzag(kt), out);
            let mut x = FieldState::start(kx as u64);
            let mut y = FieldState::start(ky as u64);
            let mut t = FieldState::start(kt as u64);
            for i in 1..n {
                write_varint(x.encode(quantize(batch.x[i], xy_scale, i)? as u64), out);
                write_varint(y.encode(quantize(batch.y[i], xy_scale, i)? as u64), out);
                write_varint(t.encode(quantize(batch.t[i], t_scale, i)? as u64), out);
            }
        }
    }
    Ok(())
}

/// Decodes a payload produced by any encoder in this module straight
/// into a columnar batch, **appending** to whatever `batch` already
/// holds (clear it first to reuse its allocations). Returns the number
/// of points decoded. Accepts exactly the payloads [`decode_points`]
/// accepts and produces the same values — but lands them in three
/// contiguous runs with no per-point [`Sink`] dispatch. On an error the
/// batch may hold a partially appended prefix.
pub fn decode_columns_into(bytes: &[u8], batch: &mut ColumnarBatch) -> Result<usize, CodecError> {
    let mut pos = 0usize;
    let &version = bytes.get(pos).ok_or(CodecError::Truncated { offset: 0 })?;
    pos += 1;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let &mode = bytes
        .get(pos)
        .ok_or(CodecError::Truncated { offset: pos })?;
    pos += 1;
    let read_f64 = |pos: &mut usize| -> Result<f64, CodecError> {
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= bytes.len())
            .ok_or(CodecError::Truncated { offset: *pos })?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[*pos..end]);
        *pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    };
    // A point costs at least three varint bytes after the anchor;
    // reserving the upper bound keeps the hot loop reallocation-free.
    let reserve = (bytes.len().saturating_sub(pos)) / 3 + 1;
    batch.x.reserve(reserve);
    batch.y.reserve(reserve);
    batch.t.reserve(reserve);
    match mode {
        MODE_EXACT => {
            if pos == bytes.len() {
                return Ok(0);
            }
            let fx = read_f64(&mut pos)?;
            let fy = read_f64(&mut pos)?;
            let ft = read_f64(&mut pos)?;
            let mut x = FieldState::start(ulp_map(fx));
            let mut y = FieldState::start(ulp_map(fy));
            let mut t = FieldState::start(ulp_map(ft));
            batch.x.push(fx);
            batch.y.push(fy);
            batch.t.push(ft);
            let mut count = 1usize;
            while pos < bytes.len() {
                batch
                    .x
                    .push(ulp_unmap(x.decode(read_varint(bytes, &mut pos)?)));
                batch
                    .y
                    .push(ulp_unmap(y.decode(read_varint(bytes, &mut pos)?)));
                batch
                    .t
                    .push(ulp_unmap(t.decode(read_varint(bytes, &mut pos)?)));
                count += 1;
            }
            Ok(count)
        }
        MODE_QUANTIZED => {
            let xy_scale = read_f64(&mut pos)?;
            let t_scale = read_f64(&mut pos)?;
            (CodecProfile::Quantized { xy_scale, t_scale }).validate()?;
            if pos == bytes.len() {
                return Ok(0);
            }
            let kx = unzigzag(read_varint(bytes, &mut pos)?);
            let ky = unzigzag(read_varint(bytes, &mut pos)?);
            let kt = unzigzag(read_varint(bytes, &mut pos)?);
            let dequant = |k: i64, scale: f64| k as f64 / scale;
            let mut x = FieldState::start(kx as u64);
            let mut y = FieldState::start(ky as u64);
            let mut t = FieldState::start(kt as u64);
            batch.x.push(dequant(kx, xy_scale));
            batch.y.push(dequant(ky, xy_scale));
            batch.t.push(dequant(kt, t_scale));
            let mut count = 1usize;
            while pos < bytes.len() {
                batch.x.push(dequant(
                    x.decode(read_varint(bytes, &mut pos)?) as i64,
                    xy_scale,
                ));
                batch.y.push(dequant(
                    y.decode(read_varint(bytes, &mut pos)?) as i64,
                    xy_scale,
                ));
                batch.t.push(dequant(
                    t.decode(read_varint(bytes, &mut pos)?) as i64,
                    t_scale,
                ));
                count += 1;
            }
            Ok(count)
        }
        other => Err(CodecError::UnsupportedMode { found: other }),
    }
}

/// Convenience wrapper decoding into a fresh columnar batch.
pub fn decode_columns(bytes: &[u8]) -> Result<ColumnarBatch, CodecError> {
    let mut batch = ColumnarBatch::new();
    decode_columns_into(bytes, &mut batch)?;
    Ok(batch)
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
        let batch = ColumnarBatch::from_points(&points);
        for profile in [CodecProfile::Exact, CodecProfile::millimetre()] {
            let row = encode_to_vec_with(profile, &points).unwrap();
            let mut col = Vec::new();
            encode_columns_with(profile, &batch, &mut col).unwrap();
            assert_eq!(col, row, "{profile:?}");
        }
        // Empty and singleton anchors too.
        for prefix in [0usize, 1] {
            let row = encode_to_vec(&points[..prefix]).unwrap();
            let mut col = Vec::new();
            encode_columns(&ColumnarBatch::from_points(&points[..prefix]), &mut col).unwrap();
            assert_eq!(col, row, "{prefix} points");
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
        for profile in [CodecProfile::Exact, CodecProfile::millimetre()] {
            let bytes = encode_to_vec_with(profile, &points).unwrap();
            let batch = decode_columns(&bytes).unwrap();
            assert_eq!(batch.to_points(), decode_to_vec(&bytes).unwrap());
        }
        // Reuse path appends after clear without reallocating logic away.
        let bytes = encode_to_vec(&points).unwrap();
        let mut batch = ColumnarBatch::new();
        assert_eq!(decode_columns_into(&bytes, &mut batch).unwrap(), 300);
        batch.clear();
        assert_eq!(decode_columns_into(&bytes, &mut batch).unwrap(), 300);
        assert_eq!(batch.to_points(), points);
    }

    #[test]
    fn columnar_encode_rejects_what_the_row_encoder_rejects() {
        let backwards = ColumnarBatch::from_points(&[
            TimedPoint::new(0.0, 0.0, 10.0),
            TimedPoint::new(1.0, 0.0, 9.0),
        ]);
        let mut out = Vec::new();
        assert_eq!(
            encode_columns(&backwards, &mut out),
            Err(CodecError::NonMonotonicTimestamps {
                index: 1,
                prev: 10.0,
                next: 9.0
            })
        );
        assert!(out.is_empty(), "invalid batches write nothing");
        let nan = ColumnarBatch::from_points(&[TimedPoint::new(0.0, 0.0, f64::NAN)]);
        assert_eq!(
            encode_columns(&nan, &mut out),
            Err(CodecError::NonFiniteTimestamp { index: 0 })
        );
        // Truncated payloads are typed errors on the columnar side too.
        let bytes = encode_to_vec(&[
            TimedPoint::new(0.0, 0.0, 0.0),
            TimedPoint::new(5.0, 1.0, 1.0),
        ])
        .unwrap();
        let mut batch = ColumnarBatch::new();
        assert!(matches!(
            decode_columns_into(&bytes[..bytes.len() - 1], &mut batch),
            Err(CodecError::Truncated { .. })
        ));
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
