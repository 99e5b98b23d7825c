//! Experiment runners, one per table/figure of the paper's evaluation,
//! and [`run`], the one name → runner dispatcher `bqs experiments` calls.

pub mod ablation;
pub mod extended;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::Scale;
use bqs_sim::dataset;
use bqs_sim::Trace;

/// Fixed seed so every run of the harness reproduces the same numbers.
pub const SEED: u64 = 20150413; // ICDE 2015 week

/// Renders one experiment's tables as text.
type Runner = fn(Scale) -> String;

/// The name → runner table, in the order [`run`] executes them.
const RUNNERS: [(&str, Runner); 10] = [
    ("fig3", |s| fig3::run(s).to_table().to_string()),
    ("fig6", |s| {
        let r = fig6::run(s);
        format!("{}{}", r.bat.to_table(), r.vehicle.to_table())
    }),
    ("fig7", |s| {
        let r = fig7::run(s);
        format!("{}{}", r.bat.to_table(), r.vehicle.to_table())
    }),
    ("fig8a", |s| {
        let r = fig8::run_8a(s);
        format!(
            "Fig. 8a — synthetic trace: {} points, {:.0} m × {:.0} m, {:.1} km travelled\n",
            r.trace.len(),
            r.extent.0,
            r.extent.1,
            r.travel_distance / 1_000.0
        )
    }),
    ("fig8b", |s| fig8::run_8b(s).to_table().to_string()),
    ("table1", |s| table1::run(s).to_table().to_string()),
    ("table2", |s| table2::run(s).to_table().to_string()),
    ("table3", |s| table3::run(s).to_table().to_string()),
    ("ablation", |s| ablation::run(s).to_table().to_string()),
    ("extended", |s| extended::run(s).to_table().to_string()),
];

/// The name that selects every runner.
const ALL: &str = "all";

/// Every name [`run`] accepts: one per runner in run order, then `all`.
pub fn names() -> impl Iterator<Item = &'static str> {
    RUNNERS
        .iter()
        .map(|(name, _)| *name)
        .chain(std::iter::once(ALL))
}

/// Runs the named experiments at `scale`, in [`names`] order whatever the
/// order of `wanted`, each at most once, and returns their tables. An
/// empty `wanted` or one holding `all` runs every experiment. Fails
/// with the first name not in [`names`] before running anything.
pub fn run(wanted: &[String], scale: Scale) -> Result<String, String> {
    if let Some(unknown) = wanted.iter().find(|w| !names().any(|n| n == *w)) {
        return Err(unknown.clone());
    }
    let every = wanted.is_empty() || wanted.iter().any(|w| w == ALL);
    Ok(RUNNERS
        .iter()
        .filter(|(name, _)| every || wanted.iter().any(|w| w == name))
        .map(|(_, runner)| runner(scale))
        .collect())
}

/// The bat dataset at the requested scale.
pub fn bat_trace(scale: Scale) -> Trace {
    match scale {
        Scale::Quick => dataset::bat_dataset_sized(SEED, 2, 2),
        Scale::Full => dataset::bat_dataset(SEED),
    }
}

/// The vehicle dataset at the requested scale.
pub fn vehicle_trace(scale: Scale) -> Trace {
    match scale {
        Scale::Quick => dataset::vehicle_dataset_sized(SEED, 8),
        Scale::Full => dataset::vehicle_dataset(SEED),
    }
}

/// The synthetic dataset at the requested scale.
pub fn synthetic_trace(scale: Scale) -> Trace {
    match scale {
        Scale::Quick => dataset::synthetic_dataset_sized(SEED, 4_000),
        Scale::Full => dataset::synthetic_dataset(SEED),
    }
}

/// Tolerance sweep for a dataset, thinned at `Quick` scale.
pub fn sweep(tolerances: &[f64], scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => tolerances.to_vec(),
        Scale::Quick => tolerances.iter().copied().step_by(3).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_selects_by_name_once_in_table_order() {
        let wanted = ["fig8a", "table2", "fig8a"].map(String::from);
        let text = run(&wanted, Scale::Quick).unwrap();
        let fig8a = text.find("Fig. 8a").unwrap();
        let table2 = text.find("Table II").unwrap();
        assert!(fig8a < table2, "{text}");
        assert_eq!(text.matches("Fig. 8a").count(), 1, "{text}");
        assert!(!text.contains("Fig. 3"), "{text}");
    }
}
