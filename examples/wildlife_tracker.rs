//! End-to-end wildlife-tracker simulation: the paper's motivating scenario.
//!
//! A Camazotz collar on a flying fox samples GPS, compresses with the Fast
//! BQS (O(1) memory — verified live against the 4 KB RAM budget), stores
//! 12-byte records in its 50 KB flash budget, and offloads to a base
//! station whose trajectory store deduplicates repeated commutes (merging)
//! and later re-compresses history at a coarser tolerance (ageing).
//!
//! ```text
//! cargo run --release --example wildlife_tracker
//! ```

use bqs::core::stream::StreamCompressor;
use bqs::core::{BqsConfig, FastBqsCompressor};
use bqs::eval::device::{
    estimate_operational_days, CamazotzSpec, FlashStorage, StorageError, GPS_RECORD_BYTES,
};
use bqs::geo::{LocationPoint, TimedPoint};
use bqs::sim::{BatModel, BatModelConfig};
use bqs::store::{StoreConfig, TrajectoryStore};

/// Maps the simulator's metric frame back to plausible WGS-84 around the
/// Brisbane field site so the 12-byte codec has something real to encode.
fn to_wgs84(p: TimedPoint) -> LocationPoint {
    let lat = -27.4698 + (p.pos.y - 5_000.0) / 111_320.0;
    let lon = 153.0251 + (p.pos.x - 5_000.0) / 98_300.0;
    LocationPoint::new(lat, lon, p.t)
}

fn main() {
    let spec = CamazotzSpec::paper();
    println!(
        "Camazotz platform: {} B RAM, {} KB flash ({} KB GPS budget)",
        spec.ram_bytes,
        spec.flash_bytes / 1024,
        spec.gps_budget_bytes / 1024
    );

    // --- On the animal -----------------------------------------------------
    let nights = 14;
    let trace = BatModel::new(BatModelConfig {
        nights,
        ..BatModelConfig::default()
    })
    .generate(7);
    println!("\n{} nights of tracking: {} GPS fixes", nights, trace.len());

    let tolerance = 10.0;
    let mut compressor = FastBqsCompressor::new(BqsConfig::new(tolerance).unwrap());
    let mut flash = FlashStorage::new(spec.gps_budget_bytes as usize);

    let mut kept: Vec<TimedPoint> = Vec::new();
    let mut peak_working_set = 0usize;
    let mut flash_full_at: Option<usize> = None;

    for (i, p) in trace.points.iter().enumerate() {
        let before = kept.len();
        compressor.push(*p, &mut kept);
        peak_working_set = peak_working_set.max(compressor.significant_point_count());

        // Newly finalised key points go straight to flash, like the device.
        for key in &kept[before..] {
            match flash.append(to_wgs84(*key)) {
                Ok(()) => {}
                Err(StorageError::Full) => {
                    flash_full_at.get_or_insert(i);
                }
                Err(e) => panic!("unexpected storage error: {e}"),
            }
        }
    }
    compressor.finish(&mut kept);
    if let Some(last) = kept.last() {
        let _ = flash.append(to_wgs84(*last));
    }

    let rate = kept.len() as f64 / trace.len() as f64;
    println!(
        "compressed to {} key points (rate {:.2}%)",
        kept.len(),
        rate * 100.0
    );
    println!(
        "peak working set: {} significant points ({} B of the {} B RAM)",
        peak_working_set,
        peak_working_set * 16,
        spec.ram_bytes
    );
    assert!(peak_working_set <= 32, "FBQS working-set claim violated");
    match flash_full_at {
        Some(i) => println!("flash budget filled at fix {i} — offload required"),
        None => println!(
            "flash holds {} records; {} free",
            flash.record_count(),
            flash.remaining_records()
        ),
    }
    println!(
        "estimated operational time at this rate: {} days",
        estimate_operational_days(rate).unwrap_or(0)
    );

    // --- At the base station ------------------------------------------------
    let offloaded = flash.read_all().expect("clean flash image");
    println!(
        "\noffloaded {} records ({} B)",
        offloaded.len(),
        offloaded.len() * GPS_RECORD_BYTES
    );

    // Project back into the metric frame and ingest into the store.
    let mut projector = bqs::geo::proj::TraceProjector::new();
    let keys: Vec<TimedPoint> = offloaded
        .iter()
        .map(|fix| projector.project(*fix).expect("valid fix"))
        .collect();

    let store = TrajectoryStore::new(StoreConfig {
        merge_tolerance: 60.0, // repeated commutes land within tens of metres
        ..StoreConfig::default()
    });
    // Split at night boundaries (the day-time gap) and insert per night so
    // repeated roost→site commutes can merge.
    let combined = bqs::sim::Trace::new("keys", keys.clone());
    let reports: Vec<_> = combined
        .split_at_gaps(4.0 * 3_600.0)
        .iter()
        .map(|night| store.insert_compressed(&night.points, tolerance))
        .collect();

    let stored: usize = reports.iter().map(|r| r.stored).sum();
    let merged: usize = reports.iter().map(|r| r.merged).sum();
    println!(
        "store ingest: {stored} new segments, {merged} merged into repeated paths \
         ({} distinct, total weight {})",
        store.segment_count(),
        store.total_weight()
    );

    // A second collar in the same colony follows the group along the same
    // flyways a few metres apart: its offload should mostly merge instead
    // of growing the store.
    let second_collar: Vec<TimedPoint> = keys
        .iter()
        .map(|k| TimedPoint::new(k.pos.x + 4.0, k.pos.y - 3.0, k.t + 30.0))
        .collect();
    let report = store.insert_compressed(&second_collar, tolerance);
    println!(
        "second collar, same flyways: {} merged, {} new (store still {} distinct segments)",
        report.merged,
        report.stored,
        store.segment_count()
    );

    // Months later: age the history at 3× the tolerance.
    let before = store.estimated_bytes();
    let report = store.age(3.0 * tolerance);
    println!(
        "ageing at {} m: {} → {} key points, {} B reclaimed (store now {} B, was {} B)",
        3.0 * tolerance,
        report.keys_before,
        report.keys_after,
        report.bytes_reclaimed,
        store.estimated_bytes(),
        before
    );
}
