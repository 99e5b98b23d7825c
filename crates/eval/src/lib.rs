//! # bqs-eval — the evaluation harness
//!
//! One runner per table and figure of the paper's evaluation (§VI), each
//! producing the same rows/series the paper reports so the reproduction can
//! be compared shape-for-shape:
//!
//! | Runner | Paper artefact |
//! |---|---|
//! | [`experiments::fig3`] | Fig. 3 — bounds vs. actual deviation |
//! | [`experiments::fig6`] | Fig. 6a/6b — pruning power vs. tolerance |
//! | [`experiments::fig7`] | Fig. 7a/7b — compression rate, 5 algorithms |
//! | [`experiments::fig8`] | Fig. 8a/8b — synthetic data; FBQS vs. DR |
//! | [`experiments::table1`] | Table I — empirical complexity scaling |
//! | [`experiments::table2`] | Table II — estimated operational time |
//! | [`experiments::table3`] | Table III — run time vs. buffer size |
//! | [`experiments::ablation`] | extra — rotation / bounds-tier ablations |
//! | [`experiments::extended`] | extra — every compressor in the workspace on one table |
//!
//! [`experiments::run`] is the one name → runner dispatcher (`bqs
//! experiments` calls it); [`experiments::names`] lists the names it
//! accepts. Questions about the system rather than the paper — fleet
//! scaling, ingest, query fan-out, on-disk bytes — are measured by the
//! repo benchmark (`BENCHMARK.json`), not here.
//!
//! Supporting modules: [`device`] (the Camazotz tracker model behind
//! Table II), [`metrics`] (compression rate, error verification),
//! [`algorithms`] (a uniform factory over every compressor in the
//! workspace), [`report`] (plain-text table rendering), [`runner`]
//! (parallel tolerance sweeps on scoped threads).

#![deny(missing_docs)]

pub mod algorithms;
pub mod device;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;

pub use algorithms::{Algorithm, CompressionRun};
pub use metrics::{compression_rate, kept_indices, verify_deviation_bound};
pub use report::TextTable;

/// How much data an experiment generates: `Quick` keeps unit tests and
/// the default `bqs experiments` run snappy; `Full` matches the paper's
/// dataset sizes (`bqs experiments --full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced datasets (seconds end-to-end).
    Quick,
    /// Paper-scale datasets (~138k field samples + 30k synthetic).
    Full,
}
