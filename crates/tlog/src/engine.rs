//! The unified hot/cold query engine: one read path over everything the
//! system knows about a fleet's trajectories, at any moment, for any
//! worker count.
//!
//! A fleet's data lives in up to three places at once:
//!
//! 1. **cold, sharded** — records in the `shard-<k>/` spill tree that
//!    evicted/finished sessions already made durable (a flat log reads
//!    as a one-shard tree, see [`cold_sources`]);
//! 2. **hot, emitted** — kept points of *open* sessions, buffered in the
//!    spill sink until the session closes;
//! 3. **hot, in-flight** — the tail a live compressor would emit if the
//!    session closed now.
//!
//! [`QueryEngine`] answers time-range and bounding-box queries over all
//! three. Cold shards are opened **read-only** (no locks — safe next to
//! a live writer, see [`TrajectoryLog::open_read_only`]) and queried in
//! parallel, one thread per shard but one, which runs on the calling
//! thread; the hot side arrives as a [`FleetSnapshot`] taken from the
//! live fleet ([`bqs_core::fleet::ParallelFleet::snapshot`]).
//!
//! **Pruning.** The [`Manifest`] (per shard: live track set, time
//! spans, bounding boxes) lets the engine skip — never even open —
//! shards that cannot contain the query. It is loaded from the tree's
//! `MANIFEST` when that still describes every shard, and folded from a
//! scan otherwise (a flat log has none), so every engine has one.
//! Pruning is observable ([`UnifiedOutput::shards_pruned`], per-shard
//! [`ShardQuery`]) and sound: a pruned and an unpruned run return
//! identical slices, which `tests/query_unified.rs` enforces.
//!
//! **Merge rule.** Durable data wins on overlap: per track, hot points
//! are admitted only *after* the track's durable time span
//! (`t > durable t_max`), so a point that was both spilled and still
//! sitting in a stale snapshot is counted once, from disk. Take the
//! snapshot *before* the query is prepared and anything spilled in
//! between is simply seen cold instead of hot.
//!
//! **Liveness.** One engine may serve a whole run beside live writers.
//! A query runs in two steps. [`QueryEngine::prepare`] (`&mut self`)
//! catches each opened shard log up with [`TrajectoryLog::refresh`] —
//! only the bytes appended since the previous query, nothing at all on
//! an idle tree, a whole rescan only after a compaction or repair —
//! brings every changed shard's manifest entry in line with its log,
//! prunes, and pins the surviving logs. [`PreparedQuery::run`] then
//! reads only what it pinned, so it needs no access to the engine: a
//! server holds its engine lock for the catch-up alone and runs
//! concurrent queries side by side. A log still pinned by a running
//! query is caught up on a copy, never under the reader's feet. A
//! long-lived engine therefore never prunes away — or double-counts
//! against its snapshot — data spilled after it was opened, and answers
//! exactly as a freshly opened engine would (`tests/query_unified.rs`).
//!
//! The consistency guarantee, proved end to end by the hot/cold
//! equivalence property test: *snapshot + cold query ≡ the query you
//! would get by closing every session, spilling, and querying the
//! resulting tree* — for arbitrary interleavings and any worker count.

use crate::error::TlogError;
use crate::log::{LogConfig, TrajectoryLog};
use crate::manifest::{shard_fingerprint, Manifest, ManifestShard};
use crate::query::{QueryOutput, QueryStats, TimeRange, TrackSlice};
use crate::sharded::cold_sources;
use bqs_core::fleet::{FleetSnapshot, TrackId};
use bqs_geo::{Rect, TimedPoint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What one cold shard contributed to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQuery {
    /// The shard index (0 for a flat log).
    pub shard: usize,
    /// `true` when the manifest proved the shard irrelevant and it was
    /// not queried (nor opened, if it was not open yet).
    pub skipped: bool,
    /// The shard's work counters (all zero when skipped).
    pub stats: QueryStats,
}

/// A unified query's matches plus where the work (and the savings) went.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedOutput {
    /// Matching tracks (ascending id), hot and cold merged per track in
    /// time order.
    pub slices: Vec<TrackSlice>,
    /// Cold-side work counters folded across queried shards.
    pub stats: QueryStats,
    /// Per-shard breakdown, ascending by shard.
    pub shards: Vec<ShardQuery>,
    /// Shards skipped via the manifest without being queried.
    pub shards_pruned: usize,
    /// Matching points contributed by the live snapshot.
    pub hot_points: usize,
    /// Tracks with at least one hot matching point.
    pub hot_tracks: usize,
    /// Segment-file bytes read to catch the cold side up since the
    /// previous query: appended tails, plus whole logs opened or
    /// rescanned. 0 when nothing changed on disk.
    pub refreshed_bytes: u64,
    /// Shard logs scanned whole since the previous query: first opens
    /// (those of [`QueryEngine::open`] itself are reported by its first
    /// query) and rescans after a compaction or repair.
    pub reopened_shards: usize,
}

impl UnifiedOutput {
    /// Total matching points across all tracks, hot and cold.
    pub fn total_points(&self) -> usize {
        self.slices.iter().map(|s| s.points.len()).sum()
    }
}

/// What catching cold logs up cost: bytes read, and logs scanned whole.
#[derive(Debug, Clone, Copy, Default)]
struct CatchUp {
    bytes: u64,
    reopens: usize,
}

impl CatchUp {
    fn add(&mut self, other: CatchUp) {
        self.bytes += other.bytes;
        self.reopens += other.reopens;
    }
}

/// Runs `work` over every item in parallel — each item but the first on
/// its own scoped thread, the first on the calling thread, so a lone
/// item costs no spawn — and returns the results in item order.
fn fan_out<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(work(first));
        results.extend(handles.into_iter().map(|handle| {
            // bqs-analyze: allow(no-unwrap-in-lib) — propagate a worker panic instead of masking it
            handle.join().expect("shard thread panicked")
        }));
        results
    })
}

/// One cold source: a shard (or flat) log, opened read-only on first use
/// and caught up before every query from then on.
#[derive(Debug)]
struct ShardSlot {
    shard: usize,
    dir: PathBuf,
    /// Shared with the prepared queries still reading it.
    log: Option<Arc<TrajectoryLog>>,
    /// `(seq, length)` of every segment the shard's manifest entry
    /// describes: the directory listing the entry was checked against
    /// while the log is unopened, the log's indexed segments once the
    /// entry was rebuilt from it. Comparing state, not what the last
    /// catch-up reported, keeps a catch-up that failed half-way from
    /// leaving the entry stale.
    described: Vec<(u64, u64)>,
}

impl ShardSlot {
    /// Opens the slot's log read-only: one scan of every segment byte.
    fn open(&mut self, config: LogConfig) -> Result<CatchUp, TlogError> {
        let (log, scan) = TrajectoryLog::scan_read_only(self.dir.clone(), config)?;
        self.log = Some(Arc::new(log));
        Ok(CatchUp {
            bytes: scan.bytes,
            reopens: 1,
        })
    }

    /// Catches the slot up with its directory, reading nothing when the
    /// listing shows no change. An opened log is refreshed — in place
    /// when no prepared query pins it, on a copy otherwise; an unopened
    /// shard whose listing moved away from its manifest entry is opened.
    fn catch_up(&mut self, config: LogConfig) -> Result<CatchUp, TlogError> {
        let listing = shard_fingerprint(&self.dir)?;
        let Some(shared) = &mut self.log else {
            return if listing == self.described {
                Ok(CatchUp::default())
            } else {
                self.open(config)
            };
        };
        if listing == shared.segment_lengths() {
            return Ok(CatchUp::default());
        }
        if Arc::get_mut(shared).is_none() {
            *shared = Arc::new(shared.read_only_copy());
        }
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: unshared just above
        let log = Arc::get_mut(shared).expect("unshared");
        let scan = log.refresh()?;
        Ok(CatchUp {
            bytes: scan.bytes,
            reopens: usize::from(scan.rescanned),
        })
    }

    /// Rebuilds the slot's manifest entry from its log's record headers
    /// when the log has read other segment bytes than the entry
    /// describes (always, with `force`).
    fn sync_entry(&mut self, manifest: &mut Arc<Manifest>, force: bool) {
        let Some(log) = &self.log else {
            return;
        };
        let segments = log.segment_lengths();
        if !force && segments == self.described {
            return;
        }
        let entry = ManifestShard::of_log(self.shard, log, &segments);
        let shards = &mut Arc::make_mut(manifest).shards;
        match shards.iter_mut().find(|s| s.shard == self.shard) {
            Some(old) => *old = entry,
            None => shards.push(entry),
        }
        self.described = segments;
    }
}

/// The unified hot/cold query engine. See the module docs for the
/// design; construct with [`QueryEngine::open`], attach a live view with
/// [`QueryEngine::with_snapshot`], or hand each query its own snapshot
/// through [`QueryEngine::prepare`] and [`PreparedQuery::run`].
#[derive(Debug)]
pub struct QueryEngine {
    shards: Vec<ShardSlot>,
    manifest: Arc<Manifest>,
    hot: Option<FleetSnapshot>,
    config: LogConfig,
    pruning: bool,
    /// Catch-up work not yet reported by a query's output.
    unreported: CatchUp,
}

impl QueryEngine {
    /// Opens the cold sources [`cold_sources`] lists at `root`: the
    /// shards of a spill tree, or a flat log as one shard. When the
    /// root's `MANIFEST` parses and matches every source directory,
    /// logs are opened lazily, only when a query survives manifest
    /// pruning. Otherwise (missing — as for a flat log — damaged or
    /// stale) every source is scanned now, the manifest is folded from
    /// the scan, and the opened logs are kept for the queries to come.
    pub fn open(root: impl AsRef<Path>) -> Result<QueryEngine, TlogError> {
        let root = root.as_ref();
        let sources = cold_sources(root)?;
        let config = LogConfig::default();
        // A damaged manifest is never trusted: it is simply not used.
        let loaded = Manifest::load(root).ok().flatten();
        let listings = sources
            .iter()
            .map(|(_, dir)| shard_fingerprint(dir))
            .collect::<Result<Vec<_>, _>>()?;
        let fresh = loaded.filter(|m| m.describes(&sources, &listings));
        let scan = fresh.is_none();
        let mut engine = QueryEngine {
            shards: sources
                .into_iter()
                .zip(listings)
                .map(|((shard, dir), described)| ShardSlot {
                    shard,
                    dir,
                    log: None,
                    described,
                })
                .collect(),
            manifest: Arc::new(fresh.unwrap_or_default()),
            hot: None,
            config,
            pruning: true,
            unreported: CatchUp::default(),
        };
        if scan {
            for slot in &mut engine.shards {
                engine.unreported.add(slot.open(config)?);
                slot.sync_entry(&mut engine.manifest, true);
            }
        }
        Ok(engine)
    }

    /// Attaches a live fleet snapshot: subsequent queries merge its
    /// tracks with the durable data (durable wins on overlap). Take the
    /// snapshot *before* opening the engine for a gap-free view.
    pub fn with_snapshot(mut self, snapshot: FleetSnapshot) -> QueryEngine {
        self.hot = Some(snapshot);
        self
    }

    /// Disables or re-enables manifest pruning — every shard is then
    /// opened and queried. Results are identical either way (the
    /// soundness property the tests pin down); only the work differs.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
    }

    /// Cold shards (1 for a flat log).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The manifest in use: loaded from `MANIFEST` or folded from a
    /// scan, with the entries of shards that changed since rebuilt from
    /// their logs.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Points of `track` (or of every track when `None`) whose
    /// timestamp lies in `range`, merged hot + cold.
    pub fn query_time_range(
        &mut self,
        track: Option<TrackId>,
        range: TimeRange,
    ) -> Result<UnifiedOutput, TlogError> {
        self.prepare(track, range, None)?.run(self.hot.as_ref())
    }

    /// Points of `track` (or of every track when `None`) inside `area`
    /// (and inside `range`, when given), merged hot + cold.
    pub fn query_bbox(
        &mut self,
        track: Option<TrackId>,
        area: Rect,
        range: Option<TimeRange>,
    ) -> Result<UnifiedOutput, TlogError> {
        self.prepare(track, range.unwrap_or_else(TimeRange::all), Some(area))?
            .run(self.hot.as_ref())
    }

    /// The first half of a query: catches every cold source up with what
    /// writers did since the last query, decides from the manifest which
    /// shards can contribute, opens those not open yet, and pins them.
    ///
    /// An opened log is refreshed by its appended bytes (rescanned whole
    /// only after a compaction or repair); an unopened shard whose
    /// directory listing moved since its manifest entry was checked is
    /// opened. Every shard whose log read other bytes than its manifest
    /// entry describes rebuilds *that entry alone* from its log's record
    /// headers. On an idle tree this reads no segment byte. It is what
    /// lets one engine serve many queries beside live writers without
    /// pruning away (or double-counting against the hot snapshot) data
    /// spilled after the engine was opened.
    ///
    /// The returned query holds no borrow of the engine: run it after
    /// releasing whatever lock guards the engine.
    pub fn prepare(
        &mut self,
        track: Option<TrackId>,
        range: TimeRange,
        area: Option<Rect>,
    ) -> Result<PreparedQuery, TlogError> {
        let config = self.config;
        for slot in &mut self.shards {
            self.unreported.add(slot.catch_up(config)?);
            slot.sync_entry(&mut self.manifest, false);
        }
        // Plan: decide per shard, from the manifest alone, whether it
        // can possibly contribute.
        let skip: Vec<bool> = self
            .shards
            .iter()
            .map(|slot| {
                self.pruning
                    && self
                        .manifest
                        .shards
                        .iter()
                        .find(|s| s.shard == slot.shard)
                        .is_none_or(|s| !s.may_contain(track, range, area.as_ref()))
            })
            .collect();
        // Open the surviving shards not open yet, then bring their
        // entries up to date: the hot merge reads durable watermarks
        // there.
        let unopened: Vec<&mut ShardSlot> = self
            .shards
            .iter_mut()
            .zip(&skip)
            .filter(|(slot, &skipped)| !skipped && slot.log.is_none())
            .map(|(slot, _)| slot)
            .collect();
        for opened in fan_out(unopened, |slot| slot.open(config)) {
            self.unreported.add(opened?);
        }
        for slot in &mut self.shards {
            slot.sync_entry(&mut self.manifest, false);
        }
        Ok(PreparedQuery {
            track,
            range,
            area,
            shards: self
                .shards
                .iter()
                .zip(&skip)
                .map(|(slot, &skipped)| (slot.shard, slot.log.clone().filter(|_| !skipped)))
                .collect(),
            manifest: self.manifest.clone(),
            catch_up: std::mem::take(&mut self.unreported),
        })
    }
}

/// A query whose cold side is caught up and pinned by
/// [`QueryEngine::prepare`]: the surviving shards' logs and the manifest
/// as they stood then. Running it touches nothing else.
#[derive(Debug)]
pub struct PreparedQuery {
    track: Option<TrackId>,
    range: TimeRange,
    area: Option<Rect>,
    /// Per shard, ascending: its index and, unless pruned, its log.
    shards: Vec<(usize, Option<Arc<TrajectoryLog>>)>,
    manifest: Arc<Manifest>,
    catch_up: CatchUp,
}

impl PreparedQuery {
    /// The latest durable timestamp of `track` across all cold sources
    /// — the watermark below which hot points are duplicates.
    fn durable_t_max(&self, track: TrackId) -> Option<f64> {
        self.manifest.track_time_span(track).map(|(_, hi)| hi)
    }

    /// The second half of a query: queries every pinned shard in
    /// parallel and merges the answer with `hot`, a live snapshot taken
    /// before the query was prepared (durable wins on overlap).
    pub fn run(self, hot: Option<&FleetSnapshot>) -> Result<UnifiedOutput, TlogError> {
        let (track, range, area) = (self.track, self.range, self.area);
        let surviving: Vec<(usize, &TrajectoryLog)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, (_, log))| Some((i, log.as_deref()?)))
            .collect();
        let results = fan_out(surviving, |(i, log)| {
            let output = match area {
                Some(area) => log.query_bbox(track, area, Some(range)),
                None => log.query_time_range(track, range),
            };
            (i, output)
        });

        // Fold the cold side.
        let mut shard_reports: Vec<ShardQuery> = self
            .shards
            .iter()
            .map(|(shard, log)| ShardQuery {
                shard: *shard,
                skipped: log.is_none(),
                stats: QueryStats::default(),
            })
            .collect();
        let mut stats = QueryStats::default();
        let mut per_track: BTreeMap<TrackId, Vec<Vec<TimedPoint>>> = BTreeMap::new();
        for (i, result) in results {
            let output: QueryOutput = result?;
            shard_reports[i].stats = output.stats;
            stats.candidate_records += output.stats.candidate_records;
            stats.decoded_records += output.stats.decoded_records;
            stats.decoded_points += output.stats.decoded_points;
            stats.kept_points += output.stats.kept_points;
            for slice in output.slices {
                per_track.entry(slice.track).or_default().push(slice.points);
            }
        }

        // Merge the hot side: durable wins on overlap, so a track's hot
        // points are admitted only past its durable time span.
        let mut hot_points = 0usize;
        let mut hot_tracks = 0usize;
        for t in hot.iter().flat_map(|snapshot| &snapshot.tracks) {
            if track.is_some_and(|wanted| wanted != t.track) {
                continue;
            }
            let watermark = self.durable_t_max(t.track);
            let fresh: Vec<TimedPoint> = t
                .points()
                .into_iter()
                .filter(|p| watermark.is_none_or(|hi| p.t > hi))
                .filter(|p| range.contains(p.t) && area.is_none_or(|a| a.contains(p.pos)))
                .collect();
            if !fresh.is_empty() {
                hot_points += fresh.len();
                hot_tracks += 1;
                per_track.entry(t.track).or_default().push(fresh);
            }
        }

        // Assemble slices: one per track, sources merged in time order.
        let slices: Vec<TrackSlice> = per_track
            .into_iter()
            .map(|(track, mut sources)| {
                let points = if sources.len() == 1 {
                    sources.pop().unwrap_or_default()
                } else {
                    let mut all: Vec<TimedPoint> = sources.into_iter().flatten().collect();
                    all.sort_by(|a, b| a.t.total_cmp(&b.t));
                    all
                };
                TrackSlice { track, points }
            })
            .collect();

        Ok(UnifiedOutput {
            slices,
            stats,
            shards_pruned: shard_reports.iter().filter(|s| s.skipped).count(),
            shards: shard_reports,
            hot_points,
            hot_tracks,
            refreshed_bytes: self.catch_up.bytes,
            reopened_shards: self.catch_up.reopens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::open_shard_logs;
    use crate::spill::SpillSink;
    use bqs_core::fleet::{FleetConfig, FleetEngine};
    use bqs_core::stream::compress_all;
    use bqs_core::{BqsConfig, FastBqsCompressor};

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn points(track: u64, n: usize, t0: f64) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                TimedPoint::new(
                    i as f64 * 5.0 + track as f64 * 1_000.0,
                    track as f64,
                    t0 + i as f64 * 10.0,
                )
            })
            .collect()
    }

    /// A 4-shard tree with one track per shard, far apart in space.
    fn build_tree(root: &Path) {
        let mut logs = open_shard_logs(root, 4, LogConfig::default()).unwrap();
        for (k, (log, _)) in logs.iter_mut().enumerate() {
            log.append(k as u64, &points(k as u64, 50, 0.0)).unwrap();
        }
        drop(logs);
        Manifest::rebuild(root).unwrap();
    }

    #[test]
    fn tree_queries_merge_all_shards_and_prune_track_selective_ones() {
        let root = temp_root("tree");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        assert_eq!(engine.shard_count(), 4);

        // Whole-range query touches every shard.
        let all = engine.query_time_range(None, TimeRange::all()).unwrap();
        assert_eq!(all.slices.len(), 4);
        assert_eq!(all.total_points(), 200);
        assert_eq!(all.shards_pruned, 0);

        // Track-selective query opens exactly one shard.
        let one = engine.query_time_range(Some(2), TimeRange::all()).unwrap();
        assert_eq!(one.slices.len(), 1);
        assert_eq!(one.slices[0].points, points(2, 50, 0.0));
        assert_eq!(one.shards_pruned, 3);
        assert!(one.shards.iter().filter(|s| s.skipped).count() == 3);

        // Pruned and unpruned answers are identical.
        engine.set_pruning(false);
        let unpruned = engine.query_time_range(Some(2), TimeRange::all()).unwrap();
        assert_eq!(unpruned.slices, one.slices);
        assert_eq!(unpruned.shards_pruned, 0);
    }

    #[test]
    fn bbox_queries_prune_spatially_distant_shards() {
        let root = temp_root("bbox");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        // Track 3 lives around x ∈ [3000, 3245]; nothing else does.
        let area = Rect::from_corners(
            bqs_geo::Point2::new(2_990.0, -10.0),
            bqs_geo::Point2::new(3_500.0, 10.0),
        );
        let out = engine.query_bbox(None, area, None).unwrap();
        assert_eq!(out.slices.len(), 1);
        assert_eq!(out.slices[0].track, 3);
        assert_eq!(out.shards_pruned, 3);
    }

    #[test]
    fn a_flat_log_reads_as_one_shard() {
        let root = temp_root("flat");
        {
            let (mut log, _) = TrajectoryLog::open(&root, LogConfig::default()).unwrap();
            log.append(1, &points(1, 30, 0.0)).unwrap();
            log.append(2, &points(2, 30, 0.0)).unwrap();
        }
        let mut engine = QueryEngine::open(&root).unwrap();
        assert_eq!(engine.shard_count(), 1);
        // The manifest is folded from the scan: shard 0 is the flat log.
        assert_eq!(engine.manifest(), &Manifest::scan(&root).unwrap());
        assert_eq!(engine.manifest().shards[0].shard, 0);
        for (track, range) in [
            (None, TimeRange::new(0.0, 95.0)),
            (Some(2), TimeRange::all()),
            (Some(9), TimeRange::all()),
        ] {
            engine.set_pruning(true);
            let pruned = engine.query_time_range(track, range).unwrap();
            engine.set_pruning(false);
            let unpruned = engine.query_time_range(track, range).unwrap();
            assert_eq!(pruned.slices, unpruned.slices, "track {track:?}");
            assert_eq!(pruned.shards[0].shard, 0);
            assert_eq!(pruned.shards_pruned, usize::from(track == Some(9)));
        }
        let out = engine
            .query_time_range(None, TimeRange::new(0.0, 95.0))
            .unwrap();
        assert_eq!(out.slices.len(), 2);
        assert_eq!(out.total_points(), 20);
    }

    #[test]
    fn hot_points_merge_after_the_durable_watermark() {
        let root = temp_root("hot-cold");
        let config = BqsConfig::new(8.0).unwrap();
        let trace = points(7, 80, 0.0);
        {
            let (mut log, _) = TrajectoryLog::open(&root, LogConfig::default()).unwrap();
            let mut sink = SpillSink::new(&mut log);
            let mut fleet = FleetEngine::new(FleetConfig::default(), move || {
                FastBqsCompressor::new(config)
            });
            // First half evicted (spilled, cold); second half stays live.
            for p in &trace[..40] {
                fleet.push_tagged(7, *p, &mut sink);
            }
            fleet.evict_idle(1e9, &mut sink);
            for p in &trace[40..] {
                fleet.push_tagged(7, *p, &mut sink);
            }
            let snapshot = fleet.snapshot(&sink);

            // The writer is still live (lock held) — the engine reads
            // beside it and sees cold + hot seamlessly.
            let mut engine = QueryEngine::open(&root).unwrap().with_snapshot(snapshot);
            let out = engine.query_time_range(Some(7), TimeRange::all()).unwrap();
            assert!(out.hot_points > 0);
            assert_eq!(out.hot_tracks, 1);

            // Equivalent to closing everything and reading the log.
            fleet.finish_all(&mut sink);
            sink.finish().unwrap();
            assert_eq!(out.slices.len(), 1);
            assert_eq!(out.slices[0].points, log.read_track(7).unwrap());
            // And the whole thing matches solo compression of the two
            // session halves.
            let mut solo1 = FastBqsCompressor::new(config);
            let mut expected = compress_all(&mut solo1, trace[..40].iter().copied());
            let mut solo2 = FastBqsCompressor::new(config);
            expected.extend(compress_all(&mut solo2, trace[40..].iter().copied()));
            assert_eq!(out.slices[0].points, expected);
        }
    }

    #[test]
    fn stale_snapshot_points_are_not_double_counted() {
        let root = temp_root("stale-snap");
        let config = BqsConfig::new(8.0).unwrap();
        let trace = points(3, 60, 0.0);
        let (mut log, _) = TrajectoryLog::open(&root, LogConfig::default()).unwrap();
        let mut sink = SpillSink::new(&mut log);
        let mut fleet = FleetEngine::new(FleetConfig::default(), move || {
            FastBqsCompressor::new(config)
        });
        for p in &trace {
            fleet.push_tagged(3, *p, &mut sink);
        }
        // Snapshot taken, then the session closes and spills: every
        // snapshot point is now also durable.
        let snapshot = fleet.snapshot(&sink);
        fleet.finish_all(&mut sink);
        sink.finish().unwrap();
        let durable = log.read_track(3).unwrap();
        drop(log);

        let mut engine = QueryEngine::open(&root).unwrap().with_snapshot(snapshot);
        let out = engine.query_time_range(Some(3), TimeRange::all()).unwrap();
        assert_eq!(out.slices[0].points, durable, "no duplicates");
        assert_eq!(out.hot_points, 0, "durable wins on overlap");
    }

    #[test]
    fn missing_directory_is_a_clean_error() {
        let root = temp_root("missing");
        assert!(QueryEngine::open(&root).is_err());
    }

    #[test]
    fn a_directory_without_a_log_is_an_error_not_an_empty_answer() {
        // A typo'd path that happens to exist must not read as "your
        // data is gone".
        let root = temp_root("not-a-log");
        std::fs::create_dir_all(&root).unwrap();
        let err = QueryEngine::open(&root).unwrap_err();
        assert!(err.to_string().contains("no trajectory log"), "{err}");
        std::fs::write(root.join("unrelated.txt"), b"x").unwrap();
        assert!(QueryEngine::open(&root).is_err());
    }

    #[test]
    fn a_long_lived_engine_sees_data_spilled_after_it_was_opened() {
        let root = temp_root("revalidate");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        // Warm every cache: manifest, cached logs, fingerprints.
        let before = engine.query_time_range(None, TimeRange::all()).unwrap();
        assert_eq!(before.total_points(), 200);
        assert!(engine
            .query_time_range(Some(9), TimeRange::all())
            .unwrap()
            .slices
            .is_empty());

        // Every log is open now; an idle tree costs no segment byte.
        let idle = engine.query_time_range(None, TimeRange::all()).unwrap();
        assert_eq!((idle.refreshed_bytes, idle.reopened_shards), (0, 0));

        // A writer appends a brand-new track to shard 1 (stale manifest,
        // stale cached log, stale watermark — all three must refresh).
        let appended = {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-1"), LogConfig::default()).unwrap();
            log.append(9, &points(9, 25, 10_000.0)).unwrap().bytes
        };
        let after = engine.query_time_range(Some(9), TimeRange::all()).unwrap();
        assert_eq!(
            after.slices.len(),
            1,
            "stale manifest must not prune track 9"
        );
        assert_eq!(after.slices[0].points, points(9, 25, 10_000.0));
        assert_eq!(
            (after.refreshed_bytes, after.reopened_shards),
            (appended, 0),
            "caught up by the appended bytes alone"
        );
        assert_eq!(
            engine.manifest(),
            &Manifest::scan(&root).unwrap(),
            "only shard 1's entry was rebuilt, and it matches a full scan"
        );
        assert_eq!(
            engine
                .query_time_range(None, TimeRange::all())
                .unwrap()
                .total_points(),
            225
        );

        // And a snapshot that went stale the same way is deduped against
        // the *refreshed* durable span, not the open-time one.
        let snapshot = bqs_core::fleet::FleetSnapshot {
            tracks: vec![bqs_core::fleet::TrackSnapshot {
                track: 9,
                emitted: points(9, 25, 10_000.0),
                pending: Vec::new(),
                live: true,
            }],
        };
        let deduped = engine
            .prepare(Some(9), TimeRange::all(), None)
            .unwrap()
            .run(Some(&snapshot))
            .unwrap();
        assert_eq!(deduped.hot_points, 0, "durable wins after revalidation");
        assert_eq!(deduped.slices[0].points, points(9, 25, 10_000.0));
    }

    #[test]
    fn a_no_op_compaction_does_not_strand_a_cached_log() {
        // Compacting a log with nothing to drop rewrites identical bytes
        // under new segment numbers: same segment count, same byte
        // total. A cached log must still notice the old files are gone.
        let root = temp_root("noop-compact");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        let before = engine.query_time_range(Some(0), TimeRange::all()).unwrap();
        assert_eq!(before.slices[0].points, points(0, 50, 0.0));
        {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-0"), LogConfig::default()).unwrap();
            let report = log.compact().unwrap();
            assert_eq!((report.segments_before, report.segments_after), (1, 1));
            assert_eq!(report.bytes_before, report.bytes_after);
            assert_eq!(report.records_dropped, 0);
        }
        let after = engine.query_time_range(Some(0), TimeRange::all()).unwrap();
        assert_eq!(after.slices, before.slices);
        assert_eq!(
            after.reopened_shards, 1,
            "new segment numbers force a rescan"
        );
        // Shard 2 was never opened: its new listing voids its manifest
        // entry, so the next query opens it instead of trusting it.
        {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-2"), LogConfig::default()).unwrap();
            log.compact().unwrap();
        }
        let all = engine.query_time_range(None, TimeRange::all()).unwrap();
        assert_eq!(
            all.reopened_shards, 3,
            "shard 2 on its new listing, 1 and 3 lazily"
        );
        let mut fresh = QueryEngine::open(&root).unwrap();
        let expected = fresh.query_time_range(None, TimeRange::all()).unwrap();
        assert_eq!(all.slices, expected.slices);
        assert_eq!(all.total_points(), 200);
    }

    #[test]
    fn a_catch_up_that_fails_half_way_still_rebuilds_the_entry() {
        // The catch-up indexes shard 1's appended tail, then fails on a
        // new segment whose header is garbage. Once the header is fixed
        // the next catch-up finds no new record, yet shard 1's manifest
        // entry must still follow its log, or it prunes track 9 away.
        let root = temp_root("failed-catch-up");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        engine.query_time_range(None, TimeRange::all()).unwrap();
        {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-1"), LogConfig::default()).unwrap();
            log.append(9, &points(9, 25, 10_000.0)).unwrap();
        }
        let next = root.join("shard-1").join("seg-000002.tlg");
        std::fs::write(&next, [0xff; 8]).unwrap();
        let err = engine
            .query_time_range(Some(9), TimeRange::all())
            .unwrap_err();
        assert!(matches!(err, TlogError::Corrupt { .. }), "{err}");

        std::fs::write(&next, crate::segment::segment_header()).unwrap();
        let mut fresh = QueryEngine::open(&root).unwrap();
        for track in [Some(9), Some(1), None] {
            let held = engine.query_time_range(track, TimeRange::all()).unwrap();
            let expected = fresh.query_time_range(track, TimeRange::all()).unwrap();
            assert_eq!(held.slices, expected.slices, "track {track:?}");
            assert_eq!(held.shards_pruned, expected.shards_pruned);
        }
        assert_eq!(engine.manifest(), fresh.manifest());
    }

    #[test]
    fn a_prepared_query_keeps_its_view_while_the_engine_catches_up() {
        let root = temp_root("pinned");
        build_tree(&root);
        let mut engine = QueryEngine::open(&root).unwrap();
        let first = engine.prepare(Some(2), TimeRange::all(), None).unwrap();
        let appended = points(2, 10, 10_000.0);
        {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-2"), LogConfig::default()).unwrap();
            log.append(2, &appended).unwrap();
        }
        // `first` still pins shard 2's log, so this catch-up refreshes a
        // copy: neither query sees the other's view.
        let second = engine.prepare(Some(2), TimeRange::all(), None).unwrap();
        let (old, new) = (first.run(None).unwrap(), second.run(None).unwrap());
        assert_eq!(old.slices[0].points, points(2, 50, 0.0));
        let mut expected = points(2, 50, 0.0);
        expected.extend_from_slice(&appended);
        assert_eq!(new.slices[0].points, expected);
        assert!(new.refreshed_bytes > 0);
        assert_eq!(new.reopened_shards, 0, "a copy is caught up, not rescanned");

        // The engine kept the caught-up copy.
        let idle = engine.query_time_range(Some(2), TimeRange::all()).unwrap();
        assert_eq!(idle.slices, new.slices);
        assert_eq!((idle.refreshed_bytes, idle.reopened_shards), (0, 0));
    }
}
