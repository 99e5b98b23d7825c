//! Golden identity test for the BQS decision kernel.
//!
//! "Without moving a single kept point", outside the benchmark's one seed:
//! every leg below compresses a generated trace and compares an FNV-1a
//! digest over the kept points' `(t, x, y)` bit patterns, plus every
//! [`DecisionStats`] field, against constants recorded on commit `96f383f`
//! — the last commit with the radians (`atan2`) kernel — before
//! `crates/core/src/quadrant.rs` was touched. A kernel change that flips
//! one decision anywhere in ~2.6 M pushes changes a digest or a counter.
//!
//! One pair of legs is allowed to differ, in the counters only — see
//! [`RELABELLED`].
//!
//! To re-record after a change that is *meant* to move kept points (a
//! separate PR that says so): run with `--nocapture`, and the failure
//! message prints the table in source form.

use bqs::core::metrics::DeviationMetric;
use bqs::core::stream::{compress_all_with_stats, DecisionStats};
use bqs::core::{BoundsMode, BqsCompressor, BqsConfig, FastBqsCompressor, RotationMode};
use bqs::geo::TimedPoint;
use bqs::sim::{bat_dataset, synthetic_dataset, vehicle_dataset, Trace};

const SEEDS: [u64; 2] = [7, 2015];
const TOLERANCES: [f64; 3] = [5.0, 10.0, 20.0];

/// FNV-1a (64-bit) over the little-endian bit patterns of `t, x, y`.
fn digest(kept: &[TimedPoint]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in kept {
        for v in [p.t, p.pos.x, p.pos.y] {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn stats_array(s: DecisionStats) -> [u64; 7] {
    [
        s.points,
        s.trivial,
        s.by_bounds,
        s.full_scans,
        s.warmup_scans,
        s.aggressive_cuts,
        s.segments,
    ]
}

/// One line of the golden table: `label digest kept [stats; 7]`.
fn run(label: &str, algorithm: &str, config: BqsConfig, trace: &Trace) -> String {
    let points = trace.points.iter().copied();
    let (kept, stats) = match algorithm {
        "fbqs" => compress_all_with_stats(&mut FastBqsCompressor::new(config), points),
        "bqs" => compress_all_with_stats(&mut BqsCompressor::new(config), points),
        other => panic!("unknown algorithm {other}"),
    };
    format!(
        "{algorithm}/{label} {:#018x} {} {:?}",
        digest(&kept),
        kept.len(),
        stats_array(stats)
    )
}

fn actual() -> Vec<String> {
    let corpus = SEEDS.map(|seed| {
        [
            bat_dataset(seed),
            vehicle_dataset(seed),
            synthetic_dataset(seed),
        ]
    });
    let mut lines = Vec::new();
    for (seed, traces) in SEEDS.iter().zip(&corpus) {
        for trace in traces {
            for tolerance in TOLERANCES {
                let config = BqsConfig::new(tolerance).unwrap();
                let label = format!("{}/seed{seed}/{tolerance}m", trace.name);
                for algorithm in ["fbqs", "bqs"] {
                    lines.push(run(&label, algorithm, config, trace));
                }
            }
        }
    }
    // One trace each for the non-default metric, bound tiers and frame.
    let [bat, vehicle, synthetic] = &corpus[0];
    let base = BqsConfig::new(10.0).unwrap();
    for (label, config, trace) in [
        (
            "vehicle/seed7/10m/segment-metric",
            base.with_metric(DeviationMetric::PointToSegment),
            vehicle,
        ),
        (
            "bat/seed7/10m/paper-exact",
            base.with_bounds_mode(BoundsMode::PaperExact),
            bat,
        ),
        (
            "synthetic/seed7/10m/coarse-corners",
            base.with_bounds_mode(BoundsMode::CoarseCorners),
            synthetic,
        ),
        (
            "vehicle/seed7/10m/rotation-disabled",
            base.with_rotation(RotationMode::Disabled),
            vehicle,
        ),
    ] {
        for algorithm in ["fbqs", "bqs"] {
            lines.push(run(label, algorithm, config, trace));
        }
    }
    lines
}

/// Recorded on the parent commit (radians kernel); see the module docs.
const GOLDEN: &[&str] = &[
    "fbqs/bat/seed7/5m 0x6d542c60463e5668 3102 [46002, 7602, 23146, 0, 13068, 2186, 3101]",
    "bqs/bat/seed7/5m 0x42834d933e656495 2342 [46002, 6533, 22196, 7172, 10101, 0, 2341]",
    "fbqs/bat/seed7/10m 0xa1425c03c8835f0c 909 [46002, 2768, 38980, 0, 3648, 606, 908]",
    "bqs/bat/seed7/10m 0xef094b0af374c506 662 [46002, 1356, 36117, 5884, 2645, 0, 661]",
    "fbqs/bat/seed7/20m 0x44bf2b5e1bc6ed51 405 [46002, 489, 43699, 0, 1617, 197, 404]",
    "bqs/bat/seed7/20m 0x8c449374a10f9e7e 367 [46002, 149, 42465, 1924, 1464, 0, 366]",
    "fbqs/vehicle/seed7/5m 0x917ba33870562707 4290 [115047, 976, 94136, 0, 17019, 2916, 4289]",
    "bqs/vehicle/seed7/5m 0x951006bf765f99d3 2097 [115047, 511, 82145, 24030, 8361, 0, 2096]",
    "fbqs/vehicle/seed7/10m 0x4cbe8de7ffa74e36 1045 [115047, 131, 110612, 0, 4170, 134, 1044]",
    "bqs/vehicle/seed7/10m 0x0457a368c16fedb1 971 [115047, 43, 108845, 2282, 3877, 0, 970]",
    "fbqs/vehicle/seed7/20m 0x2dcba2e2d515a769 922 [115047, 45, 111296, 0, 3682, 24, 921]",
    "bqs/vehicle/seed7/20m 0x0ab5f99545b1772e 921 [115047, 25, 111312, 30, 3680, 0, 920]",
    "fbqs/synthetic/seed7/5m 0xa095e2bd63ceaff7 1217 [30000, 8, 25440, 0, 4439, 113, 1216]",
    "bqs/synthetic/seed7/5m 0x342936311a757467 1212 [30000, 7, 25303, 271, 4419, 0, 1211]",
    "fbqs/synthetic/seed7/10m 0x242f2feb7e4ab4ac 1140 [30000, 95, 25512, 0, 4250, 143, 1139]",
    "bqs/synthetic/seed7/10m 0xae4a1b521a741888 1122 [30000, 89, 25123, 612, 4176, 0, 1121]",
    "fbqs/synthetic/seed7/20m 0x28466d144d1bd8c4 1017 [30000, 180, 25718, 0, 3901, 201, 1016]",
    "bqs/synthetic/seed7/20m 0x6e2ad00d6e778064 988 [30000, 174, 25104, 930, 3792, 0, 987]",
    "fbqs/bat/seed2015/5m 0xbf86cb6f8da7d625 2778 [41596, 7882, 19740, 0, 12020, 1954, 2777]",
    "bqs/bat/seed2015/5m 0xe16710ca7df39fef 2045 [41596, 7013, 19196, 6257, 9130, 0, 2044]",
    "fbqs/bat/seed2015/10m 0xe6b219fbbbb97e9c 812 [41596, 2695, 35081, 0, 3285, 535, 811]",
    "bqs/bat/seed2015/10m 0xde0cd0d5ac15e25a 576 [41596, 1351, 32086, 5859, 2300, 0, 575]",
    "fbqs/bat/seed2015/20m 0x5793687cedea6166 374 [41596, 292, 39630, 0, 1492, 182, 373]",
    "bqs/bat/seed2015/20m 0x12ce54285fb00203 352 [41596, 143, 38985, 1064, 1404, 0, 351]",
    "fbqs/vehicle/seed2015/5m 0x10d1617c7043be1b 4164 [113365, 1200, 92759, 0, 16535, 2871, 4163]",
    "bqs/vehicle/seed2015/5m 0x359a8a3db9f10e6d 2160 [113365, 593, 81792, 22405, 8575, 0, 2159]",
    "fbqs/vehicle/seed2015/10m 0x5da15ee7e3b386ec 1060 [113365, 49, 108925, 0, 4231, 160, 1059]",
    "bqs/vehicle/seed2015/10m 0x38130e733edaa9b6 976 [113365, 47, 107597, 1826, 3895, 0, 975]",
    "fbqs/vehicle/seed2015/20m 0xba1b43f981b45999 923 [113365, 25, 109631, 0, 3683, 26, 922]",
    "bqs/vehicle/seed2015/20m 0x67e3c10de1d69710 923 [113365, 25, 109624, 34, 3682, 0, 922]",
    "fbqs/synthetic/seed2015/5m 0x7440cdcdc76a9dcf 1168 [30000, 52, 25562, 0, 4278, 108, 1167]",
    "bqs/synthetic/seed2015/5m 0xa0c96bbc45656deb 1156 [30000, 52, 25314, 403, 4231, 0, 1155]",
    "fbqs/synthetic/seed2015/10m 0x3469f9cd2597443b 1096 [30000, 78, 25652, 0, 4107, 163, 1095]",
    "bqs/synthetic/seed2015/10m 0x3e5c6cb959fd8872 1080 [30000, 62, 25212, 683, 4043, 0, 1079]",
    "fbqs/synthetic/seed2015/20m 0xa86296dfdd958677 1010 [30000, 193, 25733, 0, 3872, 202, 1009]",
    "bqs/synthetic/seed2015/20m 0x928fa7ac40d48df9 982 [30000, 113, 25055, 1070, 3762, 0, 981]",
    "fbqs/vehicle/seed7/10m/segment-metric 0xe5d3f52fecfee030 1072 [115047, 131, 110527, 0, 4281, 108, 1071]",
    "bqs/vehicle/seed7/10m/segment-metric 0x52d4f3091011b822 1006 [115047, 47, 108898, 2082, 4020, 0, 1005]",
    "fbqs/bat/seed7/10m/paper-exact 0x217e39de6ab67e58 904 [46002, 2807, 38944, 0, 3628, 623, 903]",
    "bqs/bat/seed7/10m/paper-exact 0x36404fbc6660463b 650 [46002, 1380, 35765, 6259, 2598, 0, 649]",
    "fbqs/synthetic/seed7/10m/coarse-corners 0xc81e4c569075bcd5 1140 [30000, 95, 25019, 0, 4250, 636, 1139]",
    "bqs/synthetic/seed7/10m/coarse-corners 0x9ccf1e641225adf3 1109 [30000, 11, 24377, 1488, 4124, 0, 1108]",
    "fbqs/vehicle/seed7/10m/rotation-disabled 0xa518aecc82fc9a37 931 [115047, 25, 114983, 0, 0, 39, 930]",
    "bqs/vehicle/seed7/10m/rotation-disabled 0xb70e6abf6b981cb4 931 [115047, 25, 114960, 62, 0, 0, 930]",
];

/// `(parent line, line today)`: legs whose kept points are bit-identical to
/// the parent's but where one decision is reached by a different route.
///
/// The synthetic walk is noise-free — runs of exactly collinear samples —
/// so its hulls are zero-height boxes whose points sit at `y ≈ ±1e-13` in
/// the segment frame, and which *quadrant* a rebuilt hull vertex lands in
/// is the sign of that rounding residue. The trig-free kernel's ray/box
/// intersections differ from the radians kernel's in the last ulp (they
/// are the more accurate of the two: the defining point itself comes back
/// exactly), and under `CoarseCorners` — the loosest bounds, where one box
/// decides most — input point 1124 of this trace is cut by an inconclusive
/// pair `⟨4.5, 23.8⟩` where the parent cut it by `⟨15.8, 23.8⟩`: the same
/// cut, counted under `aggressive_cuts`/`full_scans` instead of
/// `by_bounds`. Every field-like (noisy) trace and every other mode is
/// identical in all counters.
const RELABELLED: &[(&str, &str)] = &[
    (
        "fbqs/synthetic/seed7/10m/coarse-corners 0xc81e4c569075bcd5 1140 [30000, 95, 25019, 0, 4250, 636, 1139]",
        "fbqs/synthetic/seed7/10m/coarse-corners 0xc81e4c569075bcd5 1140 [30000, 95, 25018, 0, 4250, 637, 1139]",
    ),
    (
        "bqs/synthetic/seed7/10m/coarse-corners 0x9ccf1e641225adf3 1109 [30000, 11, 24377, 1488, 4124, 0, 1108]",
        "bqs/synthetic/seed7/10m/coarse-corners 0x9ccf1e641225adf3 1109 [30000, 11, 24376, 1489, 4124, 0, 1108]",
    ),
];

#[test]
fn kept_points_and_decision_stats_match_the_recorded_kernel() {
    let actual = actual();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|parent| {
            let today = RELABELLED.iter().find(|(was, _)| was == parent);
            today.map_or(parent, |(_, now)| now).to_string()
        })
        .collect();
    for (was, now) in RELABELLED {
        assert!(GOLDEN.contains(was), "stale RELABELLED entry: {was}");
        // Label, digest and kept count — everything before the counters.
        let kept = |line: &str| line.split(" [").next().map(str::to_string);
        assert_eq!(kept(was), kept(now), "a relabelled leg moved kept points");
    }
    if actual != expected {
        let mut table = String::new();
        for line in &actual {
            table.push_str(&format!("    \"{line}\",\n"));
        }
        let moved: Vec<&String> = actual
            .iter()
            .zip(&expected)
            .filter(|(a, e)| a != e)
            .map(|(a, _)| a)
            .collect();
        panic!(
            "decision kernel moved {} of {} golden legs (first: {:?});\nactual table:\n{table}",
            moved.len().max(actual.len().abs_diff(expected.len())),
            expected.len(),
            moved.first()
        );
    }
}
