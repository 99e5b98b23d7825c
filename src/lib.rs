//! # bqs — Bounded Quadrant System trajectory compression
//!
//! An open-source reproduction of *"Bounded Quadrant System: Error-bounded
//! Trajectory Compression on the Go"* (Liu, Zhao, Sommer, Shang, Kusy,
//! Jurdak — ICDE 2015): error-bounded **online** trajectory compression
//! designed for trackers with kilobytes of RAM.
//!
//! This umbrella crate re-exports the workspace crates and holds the
//! base-station trajectory store:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geo`] | `bqs-geo` | geometry substrate (points, distances, UTM, hulls) |
//! | [`obs`] | `bqs-obs` | lock-free observability primitives (counters, gauges, histograms) |
//! | [`core`] | `bqs-core` | BQS, Fast BQS, 3-D BQS, reconstruction, [`core::stream::Sink`] emission layer, [`core::fleet::FleetEngine`] multi-session engine |
//! | [`baselines`] | `bqs-baselines` | DP, BDP, BGD, Dead Reckoning, SQUISH |
//! | [`sim`] | `bqs-sim` | synthetic bat / vehicle / random-walk traces |
//! | [`store`] | (this crate) | trajectory store with merging and ageing |
//! | [`tlog`] | `bqs-tlog` | durable trajectory log: codec, segmented store, queries |
//! | [`net`] | `bqs-net` | framed TCP ingest/query server, client and load generator |
//! | [`eval`] | `bqs-eval` | harness regenerating every paper table/figure, Camazotz tracker model ([`eval::device`]) |
//!
//! ## Quickstart
//!
//! ```
//! use bqs::prelude::*;
//!
//! // A 10 m error tolerance, the paper's default for both field datasets.
//! let config = BqsConfig::new(10.0).unwrap();
//! let mut compressor = FastBqsCompressor::new(config);
//!
//! let mut kept = Vec::new();
//! for i in 0..600 {
//!     let t = i as f64 * 60.0; // one fix per minute
//!     let x = i as f64 * 9.0;
//!     let y = (i as f64 / 40.0).sin() * 30.0;
//!     compressor.push(TimedPoint::new(x, y, t), &mut kept);
//! }
//! compressor.finish(&mut kept);
//!
//! assert!(kept.len() < 60); // >90 % of the points are gone
//! ```

#![deny(missing_docs)]

pub use bqs_baselines as baselines;
pub use bqs_core as core;
pub use bqs_eval as eval;
pub use bqs_geo as geo;
pub use bqs_net as net;
pub use bqs_obs as obs;
pub use bqs_sim as sim;
pub use bqs_tlog as tlog;

pub mod store;

/// The most common imports in one place.
pub mod prelude {
    pub use bqs_baselines::{
        BufferedDpCompressor, BufferedGreedyCompressor, DeadReckoningCompressor, DpCompressor,
    };
    pub use bqs_core::prelude::*;
    pub use bqs_core::stream::{compress_all, compress_all_with_stats};
    pub use bqs_geo::{LocationPoint, Point2, TimedPoint};
}
