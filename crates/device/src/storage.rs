//! GPS record encoding and the flash-budget accountant.
//!
//! The paper's Table II assumes "each GPS sample requires at least 12 bytes
//! storage (latitude, longitude, timestamp)". The codec here packs exactly
//! that: two 4-byte fixed-point coordinates (1e-7°, ≈ 1.1 cm at the
//! equator) and a 4-byte second counter — lossless for every tolerance the
//! paper considers. All three fields are big-endian.

use bqs_geo::LocationPoint;

/// Bytes per encoded GPS record (Table II's 12-byte figure).
pub const GPS_RECORD_BYTES: usize = 12;

/// Fixed-point scale for coordinates: 1e7 steps per degree.
const COORD_SCALE: f64 = 1e7;

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The flash budget is exhausted.
    Full,
    /// A record failed to decode (truncated or corrupt).
    Corrupt,
    /// A coordinate or timestamp is outside the encodable range.
    OutOfRange,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Full => write!(f, "flash budget exhausted"),
            StorageError::Corrupt => write!(f, "corrupt or truncated record"),
            StorageError::OutOfRange => write!(f, "value outside encodable range"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The 12-byte GPS record codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleCodec;

impl SampleCodec {
    /// Encodes a fix into 12 bytes. Timestamps must fit an unsigned 32-bit
    /// second counter (136 years — ample for a deployment epoch).
    pub fn encode(fix: LocationPoint, out: &mut Vec<u8>) -> Result<(), StorageError> {
        if !(-90.0..=90.0).contains(&fix.latitude) || !(-180.0..=180.0).contains(&fix.longitude) {
            return Err(StorageError::OutOfRange);
        }
        if !fix.timestamp.is_finite() || fix.timestamp < 0.0 || fix.timestamp > u32::MAX as f64 {
            return Err(StorageError::OutOfRange);
        }
        let lat = (fix.latitude * COORD_SCALE).round() as i32;
        let lon = (fix.longitude * COORD_SCALE).round() as i32;
        out.extend_from_slice(&lat.to_be_bytes());
        out.extend_from_slice(&lon.to_be_bytes());
        out.extend_from_slice(&(fix.timestamp.round() as u32).to_be_bytes());
        Ok(())
    }

    /// Decodes the record at the front of `buf` and advances `buf` past
    /// it.
    pub fn decode(buf: &mut &[u8]) -> Result<LocationPoint, StorageError> {
        let (record, rest) = buf
            .split_first_chunk::<GPS_RECORD_BYTES>()
            .ok_or(StorageError::Corrupt)?;
        *buf = rest;
        let field = |i: usize| [record[i], record[i + 1], record[i + 2], record[i + 3]];
        let lat = i32::from_be_bytes(field(0)) as f64 / COORD_SCALE;
        let lon = i32::from_be_bytes(field(4)) as f64 / COORD_SCALE;
        let ts = u32::from_be_bytes(field(8)) as f64;
        Ok(LocationPoint::new(lat, lon, ts))
    }
}

/// A budgeted append-only flash region holding encoded GPS records.
#[derive(Debug, Clone)]
pub struct FlashStorage {
    budget_bytes: usize,
    data: Vec<u8>,
}

impl FlashStorage {
    /// Creates a store with a byte budget.
    pub fn new(budget_bytes: usize) -> FlashStorage {
        FlashStorage {
            budget_bytes,
            data: Vec::with_capacity(budget_bytes.min(1 << 20)),
        }
    }

    /// Appends one record; [`StorageError::Full`] when the budget would be
    /// exceeded (the paper's "operational time without data loss" boundary).
    pub fn append(&mut self, fix: LocationPoint) -> Result<(), StorageError> {
        if self.data.len() + GPS_RECORD_BYTES > self.budget_bytes {
            return Err(StorageError::Full);
        }
        SampleCodec::encode(fix, &mut self.data)
    }

    /// Bytes used so far.
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// Records stored so far.
    pub fn record_count(&self) -> usize {
        self.data.len() / GPS_RECORD_BYTES
    }

    /// Remaining capacity in whole records.
    pub fn remaining_records(&self) -> usize {
        (self.budget_bytes - self.data.len()) / GPS_RECORD_BYTES
    }

    /// Decodes the full contents back into fixes (the base-station side of
    /// the offload).
    pub fn read_all(&self) -> Result<Vec<LocationPoint>, StorageError> {
        let mut buf = &self.data[..];
        let mut out = Vec::with_capacity(self.record_count());
        while !buf.is_empty() {
            out.push(SampleCodec::decode(&mut buf)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_exactly_12_bytes() {
        let mut buf = Vec::new();
        SampleCodec::encode(LocationPoint::new(-27.4698, 153.0251, 12345.0), &mut buf).unwrap();
        assert_eq!(buf.len(), GPS_RECORD_BYTES);
        // Big-endian fields: lat −7, lon 258 (×1e-7°), t 0xBEEF s.
        buf.clear();
        SampleCodec::encode(LocationPoint::new(-0.0000007, 0.0000258, 48879.0), &mut buf).unwrap();
        assert_eq!(buf, [0xFF, 0xFF, 0xFF, 0xF9, 0, 0, 1, 2, 0, 0, 0xBE, 0xEF]);
    }

    #[test]
    fn round_trip_preserves_centimetre_precision() {
        let fixes = [
            LocationPoint::new(-27.4698123, 153.0251456, 0.0),
            LocationPoint::new(89.9999999, -179.9999999, 4_000_000_000.0),
            LocationPoint::new(0.0, 0.0, 1.0),
        ];
        for fix in fixes {
            let mut buf = Vec::new();
            SampleCodec::encode(fix, &mut buf).unwrap();
            let mut bytes = &buf[..];
            let back = SampleCodec::decode(&mut bytes).unwrap();
            assert!(bytes.is_empty());
            assert!((back.latitude - fix.latitude).abs() < 1e-7);
            assert!((back.longitude - fix.longitude).abs() < 1e-7);
            assert_eq!(back.timestamp, fix.timestamp.round());
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let mut buf = Vec::new();
        assert_eq!(
            SampleCodec::encode(LocationPoint::new(91.0, 0.0, 0.0), &mut buf),
            Err(StorageError::OutOfRange)
        );
        assert_eq!(
            SampleCodec::encode(LocationPoint::new(0.0, 0.0, -5.0), &mut buf),
            Err(StorageError::OutOfRange)
        );
        assert_eq!(
            SampleCodec::encode(LocationPoint::new(0.0, 200.0, 0.0), &mut buf),
            Err(StorageError::OutOfRange)
        );
    }

    #[test]
    fn truncated_decode_fails() {
        let mut short = &[0u8; 5][..];
        assert_eq!(SampleCodec::decode(&mut short), Err(StorageError::Corrupt));
    }

    #[test]
    fn flash_budget_enforced() {
        // Budget for exactly 3 records.
        let mut flash = FlashStorage::new(3 * GPS_RECORD_BYTES + 5);
        for i in 0..3 {
            flash
                .append(LocationPoint::new(1.0, 2.0, i as f64))
                .unwrap();
        }
        assert_eq!(flash.record_count(), 3);
        assert_eq!(flash.remaining_records(), 0);
        assert_eq!(
            flash.append(LocationPoint::new(1.0, 2.0, 3.0)),
            Err(StorageError::Full)
        );
    }

    #[test]
    fn read_all_round_trips() {
        let mut flash = FlashStorage::new(1024);
        for i in 0..20 {
            flash
                .append(LocationPoint::new(
                    -27.0 + i as f64 * 0.001,
                    153.0,
                    i as f64 * 60.0,
                ))
                .unwrap();
        }
        let all = flash.read_all().unwrap();
        assert_eq!(all.len(), 20);
        assert!((all[7].latitude - (-27.0 + 0.007)).abs() < 1e-7);
    }

    #[test]
    fn paper_budget_capacity() {
        // 50 KB at 12 B/record = 4,266 records ≈ 2.96 days uncompressed at
        // 1 fix/min — the baseline the Table II estimates improve on.
        let flash = FlashStorage::new(50 * 1024);
        assert_eq!(flash.remaining_records(), 4_266);
    }
}
