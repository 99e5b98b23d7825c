//! Golden bytes for the point codec and the segment record frames.
//!
//! Every leg below encodes a stream and compares the CRC-32 of the bytes
//! (plus their length) against constants recorded before the codec was
//! reduced to one encoder and one decoder. A codec change that moves one
//! bit of any payload, in either profile, or of a points/backfill record
//! frame, changes a line here.
//!
//! The wire format and the on-disk format are the same bytes, so a
//! change that is *meant* to move them is a format version bump: run with
//! `--nocapture`, and the failure message prints the table in source
//! form.

use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_sim::dataset;
use bqs_tlog::codec::{
    decode_columns_into, decode_to_vec, encode_columns_with, encode_points_with, CodecProfile,
};
use bqs_tlog::crc::crc32;
use bqs_tlog::segment::{build_backfill_frame, build_points_frame};

const SEED: u64 = 20150413;

/// The special values, each in x, y and both: ±0, subnormals, and — the
/// exact profile only — NaNs and infinities. Time walks -0.0, the
/// smallest subnormal, then 5 s ticks.
fn special_points(exact: bool) -> Vec<TimedPoint> {
    let tiny = f64::from_bits(1);
    let mut values = vec![-0.0, tiny, -tiny, 0.0, 1.5];
    if exact {
        let nans = [f64::NAN, f64::from_bits(0xFFF8_0000_0000_1234)];
        values.extend(nans.into_iter().chain([f64::INFINITY, f64::NEG_INFINITY]));
    }
    let times = [-0.0, tiny]
        .into_iter()
        .chain((1..).map(|i| i as f64 * 5.0));
    let points = values
        .into_iter()
        .zip(times)
        .flat_map(|(v, t)| [(v, 1.0), (2.0, v), (v, v)].map(|(x, y)| TimedPoint::new(x, y, t)));
    points.collect()
}

/// The `x, y, t` bit patterns of a point run, little-endian.
fn bits(points: impl Iterator<Item = TimedPoint>) -> Vec<u8> {
    let values = points.flat_map(|p| [p.pos.x, p.pos.y, p.t]);
    values.flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

fn leg(label: &str, bytes: &[u8]) -> String {
    format!("{label} {} {:#010x}", bytes.len(), crc32(bytes))
}

fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    let mut streams = vec![
        ("vehicle", dataset::vehicle_dataset_sized(SEED, 8).points),
        ("bat", dataset::bat_dataset_sized(SEED, 2, 2).points),
        (
            "synthetic",
            dataset::synthetic_dataset_sized(SEED, 5_000).points,
        ),
    ];
    for (name, profile) in [
        ("exact", CodecProfile::Exact),
        ("mm", CodecProfile::millimetre()),
    ] {
        streams.push(("special", special_points(name == "exact")));
        for (corpus, points) in &streams {
            let mut bytes = Vec::new();
            encode_points_with(profile, points, &mut bytes).expect("corpus encodes");
            lines.push(leg(&format!("payload/{name}/{corpus}"), &bytes));
            let mut columns = Vec::new();
            let batch = ColumnarBatch::from_points(points);
            encode_columns_with(profile, &batch, &mut columns).expect("corpus encodes");
            assert_eq!(columns, bytes, "{name}/{corpus}: columnar ≠ row");
            // Both decoders, bit for bit (NaN payloads included).
            let rows = bits(decode_to_vec(&bytes).expect("decodes").into_iter());
            let mut batch = ColumnarBatch::new();
            decode_columns_into(&bytes, &mut batch).expect("decodes");
            assert_eq!(bits(batch.iter()), rows, "{name}/{corpus}: decoders differ");
            lines.push(leg(&format!("decoded/{name}/{corpus}"), &rows));
            // The spill shape: many short records, each its own anchor.
            let mut records = Vec::new();
            for chunk in points.chunks(8) {
                encode_points_with(profile, chunk, &mut records).expect("corpus encodes");
            }
            let label = format!("payload/{name}/{corpus}/8-point-records");
            lines.push(leg(&label, &records));
        }
        streams.pop();
        for (corpus, points) in [("empty", &[][..]), ("singleton", &streams[0].1[..1])] {
            let mut bytes = Vec::new();
            encode_points_with(profile, points, &mut bytes).expect("encodes");
            lines.push(leg(&format!("payload/{name}/{corpus}"), &bytes));
        }
    }
    for (corpus, points) in &streams {
        let head = &points[..points.len().min(500)];
        let (frame, _) = build_points_frame(7, head).expect("corpus encodes");
        lines.push(leg(&format!("frame/points/{corpus}"), &frame));
        let (frame, _) = build_backfill_frame(1 << 40, head).expect("corpus encodes");
        lines.push(leg(&format!("frame/backfill/{corpus}"), &frame));
    }
    let (frame, _) = build_points_frame(3, &special_points(true)).expect("special stream encodes");
    lines.push(leg("frame/points/special", &frame));
    lines
}

/// Recorded before `codec.rs` was rewritten; see the module docs.
const GOLDEN: &[&str] = &[
    "payload/exact/vehicle 77486 0xfe44caf9",
    "decoded/exact/vehicle 136128 0x25fe7baf",
    "payload/exact/vehicle/8-point-records 90320 0x0269a503",
    "payload/exact/bat 21875 0xc518b3c6",
    "decoded/exact/bat 35904 0x564b03ea",
    "payload/exact/bat/8-point-records 25007 0x513a218e",
    "payload/exact/synthetic 24779 0x93576cf5",
    "decoded/exact/synthetic 120000 0xd9ba1b7a",
    "payload/exact/synthetic/8-point-records 43232 0xb05f9d1b",
    "payload/exact/special 649 0xbe29c18e",
    "decoded/exact/special 648 0x71e482d9",
    "payload/exact/special/8-point-records 627 0x90c2f746",
    "payload/exact/empty 2 0x58c223be",
    "payload/exact/singleton 26 0x8feebee2",
    "payload/mm/vehicle 30295 0x70b7f3a9",
    "decoded/mm/vehicle 136128 0x64ad94ea",
    "payload/mm/vehicle/8-point-records 48833 0x18e7d4b3",
    "payload/mm/bat 8041 0x406324f7",
    "decoded/mm/bat 35904 0xfbea0803",
    "payload/mm/bat/8-point-records 13018 0x2c82dbb0",
    "payload/mm/synthetic 17368 0x24bdb9d6",
    "decoded/mm/synthetic 120000 0xc9a33966",
    "payload/mm/synthetic/8-point-records 35651 0xdbeef3b9",
    "payload/mm/special 98 0xa1c9a487",
    "decoded/mm/special 360 0xca9949b7",
    "payload/mm/special/8-point-records 114 0x56bc54a7",
    "payload/mm/empty 18 0xaa66b25f",
    "payload/mm/singleton 28 0x9038fc1c",
    "frame/points/vehicle 6928 0x4787a73e",
    "frame/backfill/vehicle 6933 0x1d658c59",
    "frame/points/bat 7397 0xb593550f",
    "frame/backfill/bat 7402 0x8dac6415",
    "frame/points/synthetic 2530 0x21d42896",
    "frame/backfill/synthetic 2535 0x7b17a2d1",
    "frame/points/special 708 0x3fa4573a",
];

#[test]
fn codec_payloads_and_record_frames_match_the_recorded_bytes() {
    let actual = actual();
    if actual != GOLDEN {
        let mut table = String::new();
        for line in &actual {
            table.push_str(&format!("    \"{line}\",\n"));
        }
        let moved = actual
            .iter()
            .zip(GOLDEN)
            .filter(|(a, e)| a != e)
            .map(|(a, _)| a)
            .next();
        panic!(
            "format golden: {} legs, {} recorded (first moved: {moved:?});\nactual table:\n{table}",
            actual.len(),
            GOLDEN.len()
        );
    }
}
