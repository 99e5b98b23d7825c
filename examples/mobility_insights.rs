//! Mobility insights from compressed data only — the paper's §VII vision:
//! waypoint discovery, next-destination prediction, trip-duration
//! estimation, and an event-driven offload feasibility check.
//!
//! Everything here runs on **key points**, i.e. after compression: the
//! point of error-bounded compression is that the interesting structure
//! (where the animal goes, when, for how long) survives at 1–5 % of the
//! storage.
//!
//! ```text
//! cargo run --release --example mobility_insights
//! ```

use bqs::core::stream::compress_all;
use bqs::core::{BqsConfig, FastBqsCompressor};
use bqs::eval::device::{simulate_offload, CamazotzSpec};
use bqs::sim::{BatModel, BatModelConfig};
use bqs::store::waypoints::{discover, WaypointConfig};

fn main() {
    // A month of tracking with strong site fidelity.
    let trace = BatModel::new(BatModelConfig {
        nights: 30,
        ..Default::default()
    })
    .generate(2026);
    println!("raw trace: {} fixes over 30 nights", trace.len());

    // Compress on-device.
    let tolerance = 10.0;
    let mut fbqs = FastBqsCompressor::new(BqsConfig::new(tolerance).unwrap());
    let keys = compress_all(&mut fbqs, trace.points.iter().copied());
    let rate = keys.len() as f64 / trace.len() as f64;
    println!(
        "compressed: {} key points (rate {:.2}%)",
        keys.len(),
        rate * 100.0
    );

    // Discover the animal's waypoints from the key points alone.
    let model = discover(
        &keys,
        &WaypointConfig {
            dwell_radius: 150.0,
            min_dwell_s: 900.0,
            cluster_cell: 300.0,
        },
    );
    println!("\ndiscovered {} waypoints:", model.waypoints.len());
    for w in &model.waypoints {
        println!(
            "  #{:<2} at ({:>7.0}, {:>7.0})  visits {:>3}  total dwell {:>5.1} h",
            w.id,
            w.center.x,
            w.center.y,
            w.visits,
            w.total_dwell_s / 3_600.0
        );
    }

    // The roost is the most-visited waypoint; where does the animal go next?
    if let Some(roost) = model.waypoints.iter().max_by_key(|w| w.visits) {
        println!("\nmost-visited waypoint (the roost): #{}", roost.id);
        if let Some(next) = model.predict_next(roost.id) {
            println!(
                "prediction from the roost: waypoint #{} ({} observed trips), \
                 mean trip duration {:.0} min (range {:.0}–{:.0})",
                next.to,
                next.count,
                next.mean_duration_s / 60.0,
                next.duration_range_s.0 / 60.0,
                next.duration_range_s.1 / 60.0
            );
        }
    }

    // Finally: does this compression rate survive a realistic offload
    // schedule? Base station at the roost, but the animal only comes into
    // radio range some nights.
    let spec = CamazotzSpec::paper();
    for (label, period) in [("nightly", 1u32), ("weekly", 7), ("monthly", 30)] {
        let report = simulate_offload(&spec, rate, 120, |d| d % period == period - 1);
        println!(
            "offload {label:>8}: {} contacts over {} days → {} ({} records lost, peak {} B)",
            report.contacts,
            report.days,
            if report.lossless() {
                "lossless"
            } else {
                "LOSSY"
            },
            report.records_lost,
            report.peak_bytes
        );
    }
}
