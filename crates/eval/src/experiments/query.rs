//! Query-fanout experiment (beyond the paper): the unified
//! [`bqs_tlog::QueryEngine`] over spill trees of 1/2/4/8 shards.
//!
//! The paper's §V-F storage sketch assumes the compressed history is
//! *queryable*; this experiment measures what that costs once the
//! history is sharded. For each shard count it builds a spill tree
//! (tracks routed by [`worker_of`], exactly as `bqs fleet --workers N`
//! writes them), writes the tree's `MANIFEST`, and runs the same four
//! queries through the engine:
//!
//! * **full scan** — every track, all time: the fan-out ceiling;
//! * **time window** — a narrow interval: record-level index pruning;
//! * **one track** — track-selective: manifest pruning skips every
//!   shard but one without opening it;
//! * **bbox** — a spatial cut: manifest + per-record bbox pruning.
//!
//! The invariant the rows witness (and the tests assert): the *answer*
//! never depends on the shard count — only the amount of work done and
//! skipped does.

use crate::report::TextTable;
use crate::Scale;
use bqs_core::fleet::worker_of;
use bqs_core::stream::compress_all;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::{Point2, Rect, TimedPoint};
use bqs_sim::{RandomWalkConfig, RandomWalkModel};
use bqs_tlog::{open_shard_logs, LogConfig, Manifest, QueryEngine, TimeRange};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Tolerance used throughout (the paper's 10 m default).
pub const TOLERANCE: f64 = 10.0;

/// Shard counts for the sweep (the axis is worker shards, not data).
pub fn shard_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Sessions at each scale.
pub fn sessions(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 32,
        Scale::Full => 256,
    }
}

/// Points per session at each scale.
pub fn points_per_session(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 200,
        Scale::Full => 1_000,
    }
}

/// One query against one tree.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Shards in the tree.
    pub shards: usize,
    /// Query label ("full scan", "time window", "one track", "bbox").
    pub query: &'static str,
    /// Matching tracks.
    pub tracks: usize,
    /// Matching points — identical across shard counts per query.
    pub points: usize,
    /// Records the planners considered.
    pub candidate_records: usize,
    /// Records actually decoded.
    pub decoded_records: usize,
    /// Shards skipped via the manifest without being opened.
    pub shards_pruned: usize,
    /// Wall-clock time for the query, milliseconds.
    pub millis: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// One row per (shard count, query).
    pub rows: Vec<QueryRow>,
}

impl QueryResult {
    /// Renders the sweep as a text table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Query — unified engine over sharded spill trees (FBQS @ 10 m)",
            &[
                "shards", "query", "tracks", "points", "cand", "decoded", "pruned", "ms",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.shards.to_string(),
                r.query.to_string(),
                r.tracks.to_string(),
                r.points.to_string(),
                r.candidate_records.to_string(),
                r.decoded_records.to_string(),
                r.shards_pruned.to_string(),
                format!("{:.2}", r.millis),
            ]);
        }
        t
    }

    /// The rows of one query label, in shard-count order.
    pub fn rows_for(&self, query: &str) -> Vec<&QueryRow> {
        self.rows.iter().filter(|r| r.query == query).collect()
    }
}

/// Per-session synthetic trace, seeded per track.
fn track_points(track: u64, n: usize) -> Vec<TimedPoint> {
    let config = RandomWalkConfig {
        samples: n,
        ..RandomWalkConfig::default()
    };
    RandomWalkModel::new(config)
        .generate(track.wrapping_mul(0x9E37_79B9).wrapping_add(1))
        .points
}

/// Builds a `shards`-way spill tree of the compressed traces at `root`,
/// routed exactly like the parallel fleet routes them, plus `MANIFEST`.
fn build_tree(root: &PathBuf, shards: usize, traces: &[Vec<TimedPoint>]) {
    // bqs-analyze: allow(no-unwrap-in-lib) — tolerance is a positive constant validated at the call site
    let config = BqsConfig::new(TOLERANCE).expect("tolerance");
    // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
    let mut logs = open_shard_logs(root, shards, LogConfig::default()).expect("open tree");
    for (t, trace) in traces.iter().enumerate() {
        let kept = compress_all(&mut FastBqsCompressor::new(config), trace.iter().copied());
        let shard = worker_of(t as u64, shards);
        // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
        logs[shard].0.append(t as u64, &kept).expect("append");
    }
    drop(logs);
    // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
    Manifest::rebuild(root).expect("manifest");
}

/// Distinguishes concurrent [`run`] calls within one process (the unit
/// tests below run in parallel threads) so each owns its tree directory.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs the sweep. Trees are built under a temp directory unique to
/// this call (pid + a process-wide sequence number) and removed
/// afterwards.
pub fn run(scale: Scale) -> QueryResult {
    let traces: Vec<Vec<TimedPoint>> = (0..sessions(scale))
        .map(|t| track_points(t as u64, points_per_session(scale)))
        .collect();
    // Walks sample every 10 s, so the run spans [0, 10·points].
    let t_max = points_per_session(scale) as f64 * 10.0;
    let window = TimeRange::new(t_max * 0.45, t_max * 0.55);
    // A box around track 0's own extent: selective but non-empty.
    let bbox = Rect::bounding(traces[0].iter().map(|p| p.pos))
        // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
        .expect("non-empty trace")
        .union(&Rect::from_point(Point2::new(0.0, 0.0)));

    // ordering: relaxed unique-id ticket — only atomicity matters for distinct temp dirs
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let base = std::env::temp_dir().join(format!("bqs-eval-query-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut rows = Vec::new();
    for shards in shard_counts() {
        let root = base.join(format!("tree-{shards}"));
        build_tree(&root, shards, &traces);
        // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
        let mut engine = QueryEngine::open(&root).expect("open tree");
        let queries: Vec<(&'static str, Option<u64>, TimeRange, Option<Rect>)> = vec![
            ("full scan", None, TimeRange::all(), None),
            ("time window", None, window, None),
            ("one track", Some(0), TimeRange::all(), None),
            ("bbox", None, TimeRange::all(), Some(bbox)),
        ];
        for (label, track, range, area) in queries {
            let start = Instant::now();
            let output = match area {
                Some(area) => engine.query_bbox(track, area, Some(range)),
                None => engine.query_time_range(track, range),
            }
            // bqs-analyze: allow(no-unwrap-in-lib) — experiment harness fails fast on setup errors by design
            .expect("query");
            rows.push(QueryRow {
                shards,
                query: label,
                tracks: output.slices.len(),
                points: output.total_points(),
                candidate_records: output.stats.candidate_records,
                decoded_records: output.stats.decoded_records,
                shards_pruned: output.shards_pruned,
                millis: start.elapsed().as_secs_f64() * 1_000.0,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    QueryResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_are_identical_across_shard_counts() {
        let result = run(Scale::Quick);
        assert_eq!(result.rows.len(), shard_counts().len() * 4);
        for query in ["full scan", "time window", "one track", "bbox"] {
            let rows = result.rows_for(query);
            assert_eq!(rows.len(), shard_counts().len());
            for row in &rows {
                assert_eq!(
                    (row.tracks, row.points),
                    (rows[0].tracks, rows[0].points),
                    "{query} diverged at {} shards",
                    row.shards
                );
            }
        }
    }

    #[test]
    fn track_selective_queries_prune_shards_without_losing_points() {
        let result = run(Scale::Quick);
        for row in result.rows_for("one track") {
            assert_eq!(row.tracks, 1);
            assert!(row.points > 0);
            // All but the track's own shard are skipped unopened.
            assert_eq!(row.shards_pruned, row.shards - 1, "{row:?}");
        }
        // The full scan can never prune.
        for row in result.rows_for("full scan") {
            assert_eq!(row.shards_pruned, 0);
            assert!(row.decoded_records <= row.candidate_records);
        }
    }

    #[test]
    fn table_renders_every_row() {
        let result = run(Scale::Quick);
        assert_eq!(result.to_table().len(), result.rows.len());
    }
}
