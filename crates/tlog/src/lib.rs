//! # bqs-tlog — the durable trajectory log
//!
//! The paper's point is that BQS/FBQS make trajectories cheap enough to
//! *store and ship*; this crate is where the compressed output lands. It
//! turns the in-memory emission of `bqs-core` (sinks, the fleet engine)
//! into a durable, queryable asset:
//!
//! * [`codec`] — a compact binary codec for [`TimedPoint`](bqs_geo::TimedPoint)
//!   streams: varint zig-zag delta-of-delta encoding over an
//!   order-preserving `f64`↔`u64` bit map, bit-lossless for arbitrary
//!   doubles yet a small fraction of the naive 24 B/point on real GPS
//!   streams. The decoder replays straight into any
//!   [`Sink`](bqs_core::stream::Sink).
//! * [`segment`] — CRC-framed record layout inside segment files, and
//!   the tail-tolerant scanner behind crash recovery.
//! * [`log`] — [`TrajectoryLog`]: an append-only segmented log with
//!   rotation, a per-track sparse time index rebuilt from record
//!   headers, tombstone deletes, compaction, torn-tail repair on
//!   reopen, and [`TrajectoryLog::refresh`], which catches a read-only
//!   log up by the bytes appended since it last looked.
//! * [`query`] — time-range and bounding-box queries that prune via the
//!   index before decoding, plus point-in-time reconstruction through
//!   [`bqs_core::reconstruct`].
//! * [`spill`] — [`SpillSink`]: the
//!   [`FleetSink`](bqs_core::fleet::FleetSink) that spills sessions to
//!   the log when the engine closes them (flush-on-close,
//!   spill-on-evict). Works borrowed (`SpillSink<&mut TrajectoryLog>`)
//!   or owned (`SpillSink<TrajectoryLog>`) — the owned form is what a
//!   parallel worker shard carries onto its thread.
//! * [`sharded`] — the `shard-<k>/` spill-tree layout behind
//!   [`ParallelFleet`](bqs_core::fleet::ParallelFleet), the one layout
//!   every spill writes (one worker too): one private log per worker
//!   shard, tree-wide verification ([`verify_sharded`]), the
//!   writer-side layout guard ([`check_tree_root`]) and the readers'
//!   source listing ([`cold_sources`]), which also takes a flat log as
//!   one shard.
//! * [`manifest`] — the tree's `MANIFEST`: per-shard track sets, time
//!   spans and bounding boxes, cached so readers can prune shards
//!   without opening them (rebuilt whenever stale, cross-checked by
//!   `bqs log verify`).
//! * [`engine`] — [`QueryEngine`]: the unified hot/cold read path.
//!   Fans queries out across shard logs in parallel (read-only,
//!   lock-free opens that are safe beside a live writer, kept and
//!   refreshed across queries), prunes via the manifest, and merges the
//!   result with a live fleet's
//!   [`FleetSnapshot`](bqs_core::fleet::FleetSnapshot) — durable data
//!   wins on overlap. [`QueryEngine::prepare`] splits a query into the
//!   catch-up, which needs the engine, and a [`PreparedQuery`] that
//!   runs without it, so a shared engine serves concurrent queries.
//!
//! The on-disk format is specified in `docs/format.md`; `bqs query`
//! and `bqs log append|query|compact|verify` expose the subsystem on
//! the command line.
//!
//! ## Quick example
//!
//! ```
//! use bqs_tlog::{LogConfig, TimeRange, TrajectoryLog};
//! use bqs_geo::TimedPoint;
//!
//! let dir = std::env::temp_dir().join(format!("tlog-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (mut log, recovery) = TrajectoryLog::open(&dir, LogConfig::default()).unwrap();
//! assert_eq!(recovery.truncated_segments, 0);
//!
//! let points: Vec<TimedPoint> = (0..100)
//!     .map(|i| TimedPoint::new(i as f64 * 12.0, 0.0, i as f64 * 60.0))
//!     .collect();
//! log.append(7, &points).unwrap();
//!
//! let hits = log.query_time_range(Some(7), TimeRange::new(600.0, 1200.0)).unwrap();
//! assert_eq!(hits.slices[0].points.len(), 11);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod crc;
pub mod engine;
pub mod error;
pub mod log;
pub mod manifest;
pub mod query;
pub mod segment;
pub mod sharded;
pub mod spill;

pub use codec::{CodecError, CODEC_VERSION, NAIVE_POINT_BYTES};
pub use engine::{PreparedQuery, QueryEngine, ShardQuery, UnifiedOutput};
pub use error::TlogError;
pub use log::{
    verify_dir, AppendReceipt, CompactReport, LogConfig, LogFootprint, RecoveryReport,
    RefreshReport, TrackSummary, TrajectoryLog, VerifyReport,
};
pub use manifest::{Manifest, ManifestShard, MANIFEST_FILE};
pub use query::{QueryOutput, QueryStats, TimeRange, TrackSlice};
pub use segment::{RecordKind, RecordSummary, FORMAT_VERSION, MAGIC};
pub use sharded::{
    check_tree_root, cold_sources, is_sharded_tree, open_shard_logs, prepare_spill_logs, shard_dir,
    spill_layout, verify_sharded, ManifestStatus, ShardedVerifyReport, SpillLayout,
    SHARD_DIR_PREFIX,
};
pub use spill::{SpillFailure, SpillMetrics, SpillReport, SpillSink};
