//! Fig. 8 — the synthetic dataset and the FBQS vs. Dead Reckoning
//! comparison.
//!
//! Fig. 8a plots the shape of the §VI-A correlated-random-walk trace
//! (10 km × 10 km, 30,000 points); here it becomes a summary line, and
//! `bqs generate synthetic --seed 20150413 [--scale full]` writes the
//! same trace as CSV (same generator, same [`super::SEED`]). Fig. 8b
//! compares the number of points kept by FBQS and by error-bounded Dead
//! Reckoning over tolerances 2–20 m: the paper reports DR needing ~40 %
//! more points at 2 m, widening to ~50 % at 20 m.

use crate::algorithms::Algorithm;
use crate::report::TextTable;
use crate::runner::{default_workers, parallel_map};
use crate::Scale;
use bqs_sim::Trace;

/// Fig. 8a: the synthetic trace plus summary statistics.
#[derive(Debug, Clone)]
pub struct Fig8aResult {
    /// The generated trace.
    pub trace: Trace,
    /// Bounding-box extent (metres).
    pub extent: (f64, f64),
    /// Total travel distance (metres).
    pub travel_distance: f64,
}

/// One Fig. 8b sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointsUsed {
    /// Error tolerance (metres).
    pub tolerance: f64,
    /// Points kept by FBQS.
    pub fbqs: usize,
    /// Points kept by Dead Reckoning.
    pub dr: usize,
}

impl PointsUsed {
    /// DR overhead ratio over FBQS (the paper's 1.4–1.5×).
    pub fn dr_overhead(&self) -> f64 {
        self.dr as f64 / self.fbqs as f64
    }
}

/// Fig. 8b: the sweep.
#[derive(Debug, Clone)]
pub struct Fig8bResult {
    /// Sweep points in tolerance order.
    pub points: Vec<PointsUsed>,
}

impl Fig8bResult {
    /// Renders the sweep as a table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 8b — points used on synthetic data",
            &["tolerance(m)", "FBQS", "DR", "DR/FBQS"],
        );
        for p in &self.points {
            t.row(vec![
                format!("{}", p.tolerance),
                p.fbqs.to_string(),
                p.dr.to_string(),
                format!("{:.2}", p.dr_overhead()),
            ]);
        }
        t
    }
}

/// Generates Fig. 8a.
pub fn run_8a(scale: Scale) -> Fig8aResult {
    let trace = super::synthetic_trace(scale);
    // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
    let bb = trace.bounding_box().expect("non-empty trace");
    Fig8aResult {
        extent: (bb.width(), bb.height()),
        travel_distance: trace.travel_distance(),
        trace,
    }
}

/// Runs Fig. 8b over tolerances 2–20 m.
pub fn run_8b(scale: Scale) -> Fig8bResult {
    let trace = super::synthetic_trace(scale);
    let tolerances: Vec<f64> = super::sweep(
        &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0],
        scale,
    );
    let points = parallel_map(&tolerances, default_workers(), |&tolerance| {
        let fbqs = Algorithm::Fbqs.run(&trace.points, tolerance).kept_count;
        let dr = Algorithm::DeadReckoning
            .run(&trace.points, tolerance)
            .kept_count;
        PointsUsed {
            tolerance,
            fbqs,
            dr,
        }
    });
    Fig8bResult { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_fits_the_arena() {
        let result = run_8a(Scale::Quick);
        assert!(result.extent.0 <= 10_000.0 && result.extent.1 <= 10_000.0);
        assert!(result.travel_distance > 1_000.0);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn dr_needs_meaningfully_more_points_than_fbqs() {
        let result = run_8b(Scale::Quick);
        assert!(!result.points.is_empty());
        // The paper's headline: DR ≈ 1.4× at small tolerances.
        let avg_overhead: f64 = result
            .points
            .iter()
            .map(PointsUsed::dr_overhead)
            .sum::<f64>()
            / result.points.len() as f64;
        assert!(
            avg_overhead > 1.15,
            "DR average overhead {avg_overhead:.2} too small — FBQS should win clearly"
        );
        for p in &result.points {
            assert!(p.fbqs >= 2 && p.dr >= 2);
        }
    }

    #[test]
    fn point_counts_fall_with_tolerance() {
        let result = run_8b(Scale::Quick);
        let fbqs: Vec<usize> = result.points.iter().map(|p| p.fbqs).collect();
        for w in fbqs.windows(2) {
            assert!(w[1] <= w[0] + 5, "{fbqs:?}");
        }
    }

    #[test]
    fn table_renders_with_ratio_column() {
        let result = run_8b(Scale::Quick);
        let csv = result.to_table().to_csv();
        assert!(csv.lines().next().unwrap().contains("DR/FBQS"));
    }
}
