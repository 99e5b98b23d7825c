//! Table II — estimated operational time of the tracking device.
//!
//! The paper fixes a 10 m tolerance, averages each algorithm's compression
//! rate over both field datasets, assumes Dead Reckoning needs 39 % more
//! points than FBQS (its Fig. 8b measurement at that tolerance), and feeds
//! the rates into the storage model (50 KB GPS budget, 12 B/sample,
//! 1 fix/min). Paper row: BQS 62 d, FBQS 60 d, BDP 45 d, BGD 44 d, DR 45 d
//! — a 36–41 % lifetime win for the BQS family.

use crate::algorithms::Algorithm;
use crate::device::operational::OperationalModel;
use crate::report::TextTable;
use crate::Scale;

/// One algorithm's Table II row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationalRow {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Average compression rate at the 10 m tolerance.
    pub compression_rate: f64,
    /// Estimated operational days.
    pub days: u64,
}

/// The Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in the paper's column order (BQS, FBQS, BDP, BGD, DR).
    pub rows: Vec<OperationalRow>,
}

impl Table2Result {
    /// Row by label.
    pub fn row(&self, label: &str) -> Option<&OperationalRow> {
        self.rows.iter().find(|r| r.algorithm == label)
    }

    /// Renders the table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table II — estimated operational time (10 m tolerance)",
            &["algorithm", "compression rate", "days"],
        );
        for r in &self.rows {
            t.row(vec![
                r.algorithm.to_string(),
                format!("{:.2}%", r.compression_rate * 100.0),
                r.days.to_string(),
            ]);
        }
        t
    }
}

/// DR's point overhead over FBQS assumed by the paper for this table.
pub const DR_OVERHEAD: f64 = 1.39;

/// Runs the experiment.
pub fn run(scale: Scale) -> Table2Result {
    let tolerance = 10.0;
    let bat = super::bat_trace(scale);
    let vehicle = super::vehicle_trace(scale);
    let model = OperationalModel::paper();

    let average_rate = |algo: Algorithm| -> f64 {
        let a = algo.run(&bat.points, tolerance).compression_rate();
        let b = algo.run(&vehicle.points, tolerance).compression_rate();
        (a + b) / 2.0
    };

    let mut rows = Vec::new();
    let mut fbqs_rate = 0.0;
    for algo in [
        Algorithm::Bqs,
        Algorithm::Fbqs,
        Algorithm::Bdp { buffer: 32 },
        Algorithm::Bgd { buffer: 32 },
    ] {
        let rate = average_rate(algo);
        if algo == Algorithm::Fbqs {
            fbqs_rate = rate;
        }
        rows.push(OperationalRow {
            algorithm: algo.label(),
            compression_rate: rate,
            // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
            days: model.operational_days(rate).expect("valid rate"),
        });
    }
    // DR, following the paper: 39 % more points than FBQS at 10 m.
    let dr_rate = (fbqs_rate * DR_OVERHEAD).min(1.0);
    rows.push(OperationalRow {
        algorithm: "DR",
        compression_rate: dr_rate,
        // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
        days: model.operational_days(dr_rate).expect("valid rate"),
    });

    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bqs_family_outlives_the_window_algorithms() {
        let result = run(Scale::Quick);
        let bqs = result.row("BQS").unwrap().days;
        let fbqs = result.row("FBQS").unwrap().days;
        let bdp = result.row("BDP").unwrap().days;
        let bgd = result.row("BGD").unwrap().days;
        let dr = result.row("DR").unwrap().days;
        assert!(bqs >= fbqs, "BQS {bqs} d < FBQS {fbqs} d");
        assert!(
            fbqs > bdp && fbqs > bgd && fbqs > dr,
            "FBQS {fbqs} d must beat BDP {bdp}, BGD {bgd}, DR {dr}"
        );
    }

    #[test]
    fn lifetime_improvement_is_substantial() {
        // The paper's headline: up to 41 % (BQS) / 36 % (FBQS) improvement.
        let result = run(Scale::Quick);
        let bqs = result.row("BQS").unwrap().days as f64;
        let worst = result
            .rows
            .iter()
            .filter(|r| r.algorithm != "BQS" && r.algorithm != "FBQS")
            .map(|r| r.days)
            .min()
            .unwrap() as f64;
        assert!(
            bqs / worst > 1.2,
            "BQS improvement {:.2}x below the paper's 1.3–1.4x ballpark",
            bqs / worst
        );
    }

    #[test]
    fn all_rates_plausible() {
        let result = run(Scale::Quick);
        for r in &result.rows {
            assert!(
                r.compression_rate > 0.0 && r.compression_rate < 0.5,
                "{}: rate {}",
                r.algorithm,
                r.compression_rate
            );
            assert!(r.days >= 5, "{}: {} days", r.algorithm, r.days);
        }
    }

    #[test]
    fn table_has_five_rows_in_paper_order() {
        let result = run(Scale::Quick);
        let labels: Vec<&str> = result.rows.iter().map(|r| r.algorithm).collect();
        assert_eq!(labels, vec!["BQS", "FBQS", "BDP", "BGD", "DR"]);
        assert_eq!(result.to_table().len(), 5);
    }
}
