//! Working-set probing — software verification of the paper's
//! constant-space claim.
//!
//! §V-E: "we only need tiny memory space to store at most 32 points besides
//! the program image itself (4 corner points and 4 intersection points for
//! each quadrant)". The probe runs a compressor over a stream while
//! recording the peak working set (significant points + scan buffer) and
//! translates it into bytes against the 4 KB RAM budget.

use super::camazotz::CamazotzSpec;
use bqs_core::stream::StreamCompressor;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::TimedPoint;

/// Bytes per in-RAM point (two f64 coordinates; timestamps live with the
/// emitted keys, not the working set).
pub const POINT_BYTES: usize = 16;

/// Peak working-set measurements from a probe run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSetReport {
    /// Points pushed.
    pub points: usize,
    /// Peak significant-point count observed (≤ 32 for a correct BQS).
    pub peak_significant_points: usize,
    /// Peak scan-buffer length observed (0 for FBQS).
    pub peak_buffered_points: usize,
}

impl WorkingSetReport {
    /// Peak working set in bytes.
    pub fn peak_bytes(&self) -> usize {
        (self.peak_significant_points + self.peak_buffered_points) * POINT_BYTES
    }

    /// Whether the working set fits the platform RAM with headroom for the
    /// stack and globals (we require ≤ 25 % of RAM).
    pub fn fits(&self, spec: &CamazotzSpec) -> bool {
        (self.peak_bytes() as u64) * 4 <= spec.ram_bytes
    }
}

/// Runs the Fast BQS over a stream, recording its peak working set after
/// every push.
pub fn probe_working_set(
    config: BqsConfig,
    points: impl IntoIterator<Item = TimedPoint>,
) -> WorkingSetReport {
    let mut fbqs = FastBqsCompressor::new(config);
    let mut out = Vec::new();
    let mut report = WorkingSetReport {
        points: 0,
        peak_significant_points: 0,
        peak_buffered_points: 0,
    };
    for p in points {
        fbqs.push(p, &mut out);
        report.points += 1;
        report.peak_significant_points = report
            .peak_significant_points
            .max(fbqs.significant_point_count());
        report.peak_buffered_points = report.peak_buffered_points.max(fbqs.buffered_point_count());
    }
    fbqs.finish(&mut out);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                TimedPoint::new(
                    a * 7.0 + (a * 0.3).sin() * 10.0,
                    (a * 0.11).sin() * 200.0,
                    a,
                )
            })
            .collect()
    }

    #[test]
    fn fbqs_working_set_is_bounded_by_32_points() {
        let report = probe_working_set(BqsConfig::new(5.0).unwrap(), stream(20_000));
        assert_eq!(report.points, 20_000);
        assert!(
            report.peak_significant_points <= 32,
            "peak {}",
            report.peak_significant_points
        );
        assert_eq!(report.peak_buffered_points, 0);
    }

    #[test]
    fn fits_the_camazotz_ram_budget() {
        let report = probe_working_set(BqsConfig::new(10.0).unwrap(), stream(5_000));
        assert!(report.peak_bytes() <= 32 * POINT_BYTES);
        assert!(report.fits(&CamazotzSpec::paper()));
    }

    #[test]
    fn peak_bytes_arithmetic() {
        let r = WorkingSetReport {
            points: 10,
            peak_significant_points: 20,
            peak_buffered_points: 5,
        };
        assert_eq!(r.peak_bytes(), 25 * POINT_BYTES);
    }

    #[test]
    fn oversized_working_set_fails_the_budget() {
        let r = WorkingSetReport {
            points: 1,
            peak_significant_points: 0,
            // A BDP/BGD-style buffer of 100 points at 16 B = 1.6 KB > 1 KB
            // headroom.
            peak_buffered_points: 100,
        };
        assert!(!r.fits(&CamazotzSpec::paper()));
    }
}
