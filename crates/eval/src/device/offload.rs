//! Base-station offload simulation.
//!
//! Camazotz stores trajectories "until the data can be uploaded to a base
//! station deployed at animal congregation areas using the short range
//! radio" (§III-A) — contact happens only when the animal happens to roost
//! near a gateway. This module plays a compression policy against a contact
//! schedule and reports whether the flash budget ever overflows between
//! contacts, turning Table II's steady-state estimate into an event-driven
//! check.

use super::camazotz::CamazotzSpec;
use super::storage::GPS_RECORD_BYTES;

/// The outcome of one simulated deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadReport {
    /// Days simulated.
    pub days: u32,
    /// Successful contacts (flash drained).
    pub contacts: u32,
    /// Records dropped because the flash filled between contacts.
    pub records_lost: u64,
    /// Peak flash occupancy in bytes.
    pub peak_bytes: u64,
}

impl OffloadReport {
    /// True when the deployment never lost a record.
    pub fn lossless(&self) -> bool {
        self.records_lost == 0
    }
}

/// Simulates `days` of operation: every day the device stores
/// `samples_per_day × compression_rate` records; on days where
/// `contact(day)` returns true, the flash is drained to the base station.
///
/// Records that do not fit between contacts are counted as lost — exactly
/// the "without data loss" boundary of the paper's operational-time metric.
pub fn simulate_offload(
    spec: &CamazotzSpec,
    compression_rate: f64,
    days: u32,
    mut contact: impl FnMut(u32) -> bool,
) -> OffloadReport {
    assert!(
        compression_rate > 0.0 && compression_rate <= 1.0,
        "compression rate must be in (0, 1]"
    );
    let records_per_day = spec.samples_per_day() * compression_rate;
    let capacity_records = spec.gps_budget_bytes / GPS_RECORD_BYTES as u64;

    let mut stored = 0.0f64;
    let mut lost = 0.0f64;
    let mut peak = 0.0f64;
    let mut contacts = 0u32;

    for day in 0..days {
        stored += records_per_day;
        if stored > capacity_records as f64 {
            lost += stored - capacity_records as f64;
            stored = capacity_records as f64;
        }
        peak = peak.max(stored);
        if contact(day) {
            contacts += 1;
            stored = 0.0;
        }
    }

    OffloadReport {
        days,
        contacts,
        records_lost: lost.round() as u64,
        peak_bytes: (peak * GPS_RECORD_BYTES as f64).round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_contacts_are_lossless_with_bqs_class_rates() {
        // 5 % compression, contact once a week: 7 × 1440 × 0.05 = 504
        // records between contacts ≪ 4266 capacity.
        let report = simulate_offload(&CamazotzSpec::paper(), 0.05, 90, |d| d % 7 == 6);
        assert!(report.lossless(), "{report:?}");
        assert_eq!(report.contacts, 12);
        assert!(report.peak_bytes <= CamazotzSpec::paper().gps_budget_bytes);
    }

    #[test]
    fn uncompressed_logger_loses_data_between_weekly_contacts() {
        // Raw logging fills 50 KB in under 3 days; a weekly contact cannot
        // save it.
        let report = simulate_offload(&CamazotzSpec::paper(), 1.0, 28, |d| d % 7 == 6);
        assert!(!report.lossless(), "{report:?}");
        assert!(report.records_lost > 1_000);
    }

    #[test]
    fn irregular_contacts() {
        // A migratory animal away from gateways for 40 days straight: even
        // at 5 % the budget (4266 records ≈ 59 days' worth) holds; at 10 %
        // (≈ 29 days' worth) it does not.
        let away_40 = |d: u32| d == 40;
        assert!(simulate_offload(&CamazotzSpec::paper(), 0.05, 41, away_40).lossless());
        assert!(!simulate_offload(&CamazotzSpec::paper(), 0.10, 41, away_40).lossless());
    }

    #[test]
    fn peak_occupancy_tracks_the_longest_gap() {
        let report = simulate_offload(&CamazotzSpec::paper(), 0.05, 30, |d| d == 9 || d == 29);
        // Longest gap is 20 days: 20 × 72 records × 12 B.
        let expected = (20.0 * 1_440.0 * 0.05 * 12.0) as u64;
        assert!(
            report.peak_bytes.abs_diff(expected) <= 24,
            "peak {} vs expected {expected}",
            report.peak_bytes
        );
    }

    #[test]
    #[should_panic(expected = "compression rate")]
    fn rejects_bad_rate() {
        let _ = simulate_offload(&CamazotzSpec::paper(), 0.0, 10, |_| false);
    }
}
