//! # bqs-core — the Bounded Quadrant System
//!
//! A from-scratch implementation of the trajectory-compression algorithms of
//! *"Bounded Quadrant System: Error-bounded Trajectory Compression on the
//! Go"* (Liu, Zhao, Sommer, Shang, Kusy, Jurdak — ICDE 2015).
//!
//! ## What lives here
//!
//! * [`quadrant`] — the per-quadrant bounding structure: minimum bounding
//!   rectangle, two angular bounding lines, and the ≤8 significant points
//!   from which deviation bounds are derived (paper §V-B).
//! * [`bounds`] — the deviation lower/upper bound computation implementing
//!   Theorems 5.1–5.5.
//! * [`bqs`] — the buffered BQS compressor (Algorithm 1): falls back to a
//!   full deviation scan when the bounds are inconclusive.
//! * [`fbqs`] — the Fast BQS compressor (§V-E): never scans, never buffers;
//!   O(1) time and space per point.
//! * [`rotation`] — data-centric rotation (§V-D), shared by both variants.
//! * [`metrics`] — point-to-line vs point-to-segment deviation metrics
//!   (§IV and Eq. 11).
//! * [`stream`] — the streaming-compressor trait all algorithms (including
//!   the baselines crate) implement, the [`Sink`] emission layer
//!   (`Vec`, counting, callback, chord and page adapters — zero-allocation
//!   output paths), plus decision statistics from which pruning power is
//!   computed.
//! * [`fleet`] — the multi-session [`FleetEngine`]: one session table
//!   keyed by track id, a fresh compressor per session,
//!   idle-session eviction and merged decision statistics — plus
//!   [`fleet::parallel`], the multi-threaded sharded runtime
//!   ([`ParallelFleet`]) that scales the engine across cores.
//! * [`reconstruct`] — timestamp interpolation and trajectory reconstruction
//!   (Eqs. 1–3), with uniform and online-fitted Gaussian progress models.
//! * [`bqs3d`] — the 3-D BQS (§V-G): bounding prisms, Θ/Φ bounding planes
//!   and a 3-D streaming compressor for altitude or time-sensitive errors.
//! * [`bqs4d`] — a 4-D BQS over ⟨x, y, altitude, scaled time⟩, the §VII
//!   future-work sketch made concrete.
//!
//! ## Quick example
//!
//! ```
//! use bqs_core::prelude::*;
//!
//! let config = BqsConfig::new(10.0).expect("positive tolerance");
//! let mut compressor = FastBqsCompressor::new(config);
//! let mut kept = Vec::new();
//! for i in 0..100 {
//!     // A gentle arc: mostly compressible at a 10 m tolerance.
//!     let x = i as f64 * 10.0;
//!     let y = (i as f64 / 30.0).sin() * 4.0;
//!     compressor.push(TimedPoint::new(x, y, i as f64 * 60.0), &mut kept);
//! }
//! compressor.finish(&mut kept);
//! assert!(kept.len() >= 2);
//! assert!(kept.len() < 100);
//! ```

#![deny(missing_docs)]

pub mod bounds;
pub mod bqs;
pub mod bqs3d;
pub mod bqs4d;
pub mod config;
pub mod engine;
pub mod fbqs;
pub mod fleet;
pub mod metrics;
pub mod quadrant;
pub mod reconstruct;
pub mod rotation;
pub mod segments;
pub mod stream;

pub use bounds::DeviationBounds;
pub use bqs::BqsCompressor;
pub use bqs3d::{Bqs3dCompressor, Bqs3dConfig, OctantBounds};
pub use bqs4d::{Bqs4dCompressor, Bqs4dConfig};
pub use config::{BoundsMode, BqsConfig, ConfigError, RotationMode};
pub use fbqs::FastBqsCompressor;
pub use fleet::{
    FleetConfig, FleetEngine, FleetJoin, FleetMetrics, FleetSink, FlushReason, ParallelConfig,
    ParallelFleet, SessionReport, ShardFailure, ShardOutput, TeeFleetSink, TrackId,
};
pub use metrics::DeviationMetric;
pub use quadrant::QuadrantBounds;
pub use segments::{segments, summarize, SegmentView, TrajectorySummary};
pub use stream::{
    compress_all, compress_all_with_stats, compress_into, CountingSink, DecisionStats, Sink,
    StreamCompressor,
};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::bqs::BqsCompressor;
    pub use crate::config::{BoundsMode, BqsConfig, RotationMode};
    pub use crate::fbqs::FastBqsCompressor;
    pub use crate::fleet::{FleetConfig, FleetEngine, ParallelConfig, ParallelFleet};
    pub use crate::metrics::DeviationMetric;
    pub use crate::stream::{compress_all, compress_into, CountingSink, Sink, StreamCompressor};
    pub use bqs_geo::{Point2, TimedPoint};
}
