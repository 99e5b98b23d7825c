//! The sharded spill tree: one [`TrajectoryLog`] per parallel worker.
//!
//! A [`TrajectoryLog`] is single-writer (one advisory lock per
//! directory), so a multi-threaded fleet cannot funnel every shard
//! through one log without re-serialising exactly the work the threads
//! were meant to spread. The parallel runtime instead gives worker `k`
//! its own log under `<root>/shard-<k>/` — shared-nothing on disk, just
//! like in memory:
//!
//! ```text
//! <root>/
//!   MANIFEST                    ← per-shard pruning summary
//!   shard-0/ seg-000001.tlg …   ← worker 0's private TrajectoryLog
//!   shard-1/ seg-000001.tlg …   ← worker 1's private TrajectoryLog
//!   …
//! ```
//!
//! This is the one spill layout: a single worker writes `shard-0/` and
//! a MANIFEST like any other count. A flat log is what one shard
//! directory holds; readers still accept one at a root (written by
//! `bqs log append`, or spilled by older builds) as a one-shard source
//! ([`cold_sources`]).
//!
//! Because `ParallelFleet` routes a track to exactly one worker, a track
//! appears in exactly one shard directory; queries for a single track
//! open that shard alone, and tree-wide operations (verification,
//! listing) fold over the shards. The layout is specified in
//! `docs/format.md` §"Sharded spill trees".

use crate::error::TlogError;
use crate::log::{
    list_segments, verify_dir, LogConfig, RecoveryReport, TrajectoryLog, VerifyReport,
};
use std::path::{Path, PathBuf};

/// Directory-name prefix of one shard's log inside a spill tree.
pub const SHARD_DIR_PREFIX: &str = "shard-";

/// The directory of shard `k` under `root` (`<root>/shard-<k>`).
pub fn shard_dir(root: impl AsRef<Path>, shard: usize) -> PathBuf {
    root.as_ref().join(format!("{SHARD_DIR_PREFIX}{shard}"))
}

/// What a prospective spill root currently holds on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillLayout {
    /// The directory does not exist yet.
    Missing,
    /// The directory exists and is empty.
    Empty,
    /// The directory is a flat [`TrajectoryLog`] (it holds `seg-*.tlg`
    /// segment files directly).
    FlatLog,
    /// The directory is a sharded spill tree; the payload is the sorted
    /// shard indices found (contiguous `0..N` for a healthy tree).
    ShardTree(Vec<usize>),
    /// The directory holds entries that belong to neither layout.
    Other,
}

/// Classifies `root` as a spill target. Never creates anything.
pub fn spill_layout(root: impl AsRef<Path>) -> Result<SpillLayout, TlogError> {
    let root = root.as_ref();
    if !root.exists() {
        return Ok(SpillLayout::Missing);
    }
    let entries = std::fs::read_dir(root)
        .map_err(|e| TlogError::io(format!("read dir {}", root.display()), e))?;
    let mut any = false;
    for entry in entries {
        let entry = entry.map_err(|e| TlogError::io("read dir entry", e))?;
        any = true;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("seg-") && name.ends_with(".tlg") {
                return Ok(SpillLayout::FlatLog);
            }
        }
    }
    if !any {
        return Ok(SpillLayout::Empty);
    }
    let shards: Vec<usize> = shard_dirs(root)?.into_iter().map(|(k, _)| k).collect();
    if shards.is_empty() {
        Ok(SpillLayout::Other)
    } else {
        Ok(SpillLayout::ShardTree(shards))
    }
}

/// Refuses a root whose layout cannot take a `shards`-way tree: a flat
/// log (any shard count — the tree tooling would never visit its
/// top-level segments), or a tree whose shard set is not exactly
/// `0..shards` (a different worker count would mis-route tracks and
/// leave gapped/orphaned shards).
pub fn check_tree_root(root: impl AsRef<Path>, shards: usize) -> Result<(), TlogError> {
    let root = root.as_ref();
    let incompatible = |reason: String| {
        Err(TlogError::IncompatibleLayout {
            dir: root.to_path_buf(),
            reason,
        })
    };
    match spill_layout(root)? {
        SpillLayout::Missing | SpillLayout::Empty | SpillLayout::Other => Ok(()),
        SpillLayout::FlatLog => incompatible(format!(
            "already holds a flat trajectory log (seg-*.tlg), but {shards} worker(s) \
             would write a {SHARD_DIR_PREFIX}<k>/ tree; use a fresh directory"
        )),
        SpillLayout::ShardTree(found) => {
            let expected: Vec<usize> = (0..shards).collect();
            if found == expected {
                Ok(())
            } else {
                incompatible(format!(
                    "already holds a sharded spill tree with shards {found:?}, but \
                     {shards} worker(s) need exactly {SHARD_DIR_PREFIX}0..{SHARD_DIR_PREFIX}{}; \
                     a different --workers would mis-route tracks — use a fresh directory",
                    shards - 1
                ))
            }
        }
    }
}

/// Opens (creating if needed) one log per shard, `0..workers`, under
/// `root`. Returns the logs in shard order along with each shard's
/// recovery report. Fails with [`TlogError::IncompatibleLayout`] when
/// `root` already holds a flat log (even for one worker — this function
/// always writes a tree) or a tree built with a different worker count
/// (see [`check_tree_root`]).
pub fn open_shard_logs(
    root: impl AsRef<Path>,
    workers: usize,
    config: LogConfig,
) -> Result<Vec<(TrajectoryLog, RecoveryReport)>, TlogError> {
    check_tree_root(&root, workers)?;
    (0..workers)
        .map(|k| TrajectoryLog::open(shard_dir(&root, k), config))
        .collect()
}

/// Prepares a spill destination for a *fresh* run and opens its logs:
/// any non-empty directory is refused — with the specific diagnosis of
/// [`check_tree_root`] when its layout is incompatible, else a generic
/// one (spill runs start their stream clocks at arbitrary points;
/// writing over an earlier run's data would fail the log's time-order
/// check with a cryptic error deep in the codec) — and then one
/// `shard-<k>/` log per worker is opened ([`open_shard_logs`]). One
/// worker writes `shard-0/`, like any other count.
///
/// This is the single entry point behind every spill writer
/// (`bqs fleet --spill`, `bqs serve`), so the guard rules and their
/// messages cannot drift between them.
pub fn prepare_spill_logs(
    root: impl AsRef<Path>,
    workers: usize,
    config: LogConfig,
) -> Result<Vec<TrajectoryLog>, TlogError> {
    let root = root.as_ref();
    let workers = workers.max(1);
    if !matches!(
        spill_layout(root)?,
        SpillLayout::Missing | SpillLayout::Empty
    ) {
        check_tree_root(root, workers)?;
        return Err(TlogError::IncompatibleLayout {
            dir: root.to_path_buf(),
            reason: "is not empty; use a fresh directory per spill run".to_string(),
        });
    }
    Ok(open_shard_logs(root, workers, config)?
        .into_iter()
        .map(|(log, _)| log)
        .collect())
}

/// Lists the shard directories present under `root`, sorted by shard
/// index, gaps and all (readers go through [`cold_sources`]). An empty
/// result means `root` is not a sharded tree. Entries that merely
/// *look* like shards but are files, or whose suffix is not a number,
/// are ignored.
fn shard_dirs(root: impl AsRef<Path>) -> Result<Vec<(usize, PathBuf)>, TlogError> {
    let root = root.as_ref();
    let mut out = Vec::new();
    let entries = std::fs::read_dir(root)
        .map_err(|e| TlogError::io(format!("read dir {}", root.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| TlogError::io("read dir entry", e))?;
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(index) = name
            .to_str()
            .and_then(|n| n.strip_prefix(SHARD_DIR_PREFIX))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

/// Whether (and how) a tree's `MANIFEST` was checked by
/// [`verify_sharded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ManifestStatus {
    /// No `MANIFEST` file at the root — legal, readers just rescan.
    #[default]
    Absent,
    /// A manifest was present, parsed, CRC-checked, and matched a fresh
    /// scan of every shard exactly.
    Verified,
}

/// What verifying a whole sharded tree found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedVerifyReport {
    /// One strict verification result per shard, in shard order.
    pub shards: Vec<(usize, VerifyReport)>,
    /// The shard reports folded into one.
    pub total: VerifyReport,
    /// Outcome of the `MANIFEST` cross-check (a mismatching or corrupt
    /// manifest fails verification instead of appearing here).
    pub manifest: ManifestStatus,
}

/// The shard directories under `root` (empty when there are none),
/// refused unless their indices are exactly `0..N`: a fleet always
/// writes a contiguous tree, so a gap means a shard directory is
/// *missing* (its tracks must not read or verify as absent), and a
/// duplicate like `shard-1`/`shard-01` would double-count records.
fn contiguous_shard_dirs(root: &Path) -> Result<Vec<(usize, PathBuf)>, TlogError> {
    let dirs = shard_dirs(root)?;
    // `shard_dirs` sorts by index, so contiguity reduces to a positional
    // check.
    for (position, (index, dir)) in dirs.iter().enumerate() {
        if *index != position {
            return Err(TlogError::io(
                format!(
                    "{} is not a contiguous shard tree: found {} where \
                     {SHARD_DIR_PREFIX}{position} was expected ({} shard dirs total)",
                    root.display(),
                    dir.display(),
                    dirs.len(),
                ),
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "missing or duplicate shard directory",
                ),
            ));
        }
    }
    Ok(dirs)
}

/// The cold sources a read of `root` opens, as `(shard index, log
/// directory)` pairs in index order — the one place that tells the two
/// shapes a reader may be pointed at apart:
///
/// * a spill tree gives its `shard-<k>/` directories, refused unless
///   they are exactly `0..N`;
/// * a flat log (what `bqs log append` writes, what every shard
///   directory holds, and what older builds spilled for one worker)
///   gives the single source `(0, root)`.
///
/// A missing directory, or one holding neither shape, is an error
/// rather than an empty answer.
pub fn cold_sources(root: impl AsRef<Path>) -> Result<Vec<(usize, PathBuf)>, TlogError> {
    let root = root.as_ref();
    let shards = contiguous_shard_dirs(root)?;
    if !shards.is_empty() {
        return Ok(shards);
    }
    if list_segments(root)?.is_empty() {
        return Err(TlogError::io(
            format!(
                "{} holds no trajectory log (no seg-*.tlg files and no \
                 {SHARD_DIR_PREFIX}<k> directories)",
                root.display()
            ),
            std::io::Error::new(std::io::ErrorKind::NotFound, "not a trajectory log"),
        ));
    }
    Ok(vec![(0, root.to_path_buf())])
}

/// Strictly verifies every shard log under `root` (see
/// [`verify_dir`]): any fault in any shard is an error, and so is a
/// shard set that is not exactly `0..N` (the check [`cold_sources`]
/// makes for every read). Fails with a typed I/O error when `root`
/// contains no `shard-<k>` directories — use [`verify_dir`] directly
/// for a flat log.
pub fn verify_sharded(root: impl AsRef<Path>) -> Result<ShardedVerifyReport, TlogError> {
    let root = root.as_ref();
    let dirs = contiguous_shard_dirs(root)?;
    if dirs.is_empty() {
        return Err(TlogError::io(
            format!(
                "{} holds no {SHARD_DIR_PREFIX}<k> directories",
                root.display()
            ),
            std::io::Error::new(std::io::ErrorKind::NotFound, "not a sharded spill tree"),
        ));
    }
    let mut report = ShardedVerifyReport::default();
    for (index, dir) in dirs {
        let shard = verify_dir(&dir)?;
        report.total.segments += shard.segments;
        report.total.records += shard.records;
        report.total.backfill_records += shard.backfill_records;
        report.total.tombstones += shard.tombstones;
        report.total.points += shard.points;
        report.total.file_bytes += shard.file_bytes;
        report.total.payload_bytes += shard.payload_bytes;
        report.shards.push((index, shard));
    }
    // A present MANIFEST must agree with reality: a stale or lying
    // manifest would let the query layer prune shards that *do* hold
    // matching data, which is silent data loss on the read path.
    if let Some(manifest) = crate::manifest::Manifest::load(root)? {
        let fresh = crate::manifest::Manifest::scan(root)?;
        if manifest != fresh {
            return Err(TlogError::Corrupt {
                path: root.join(crate::manifest::MANIFEST_FILE),
                offset: 0,
                reason: "MANIFEST disagrees with the shard logs; rebuild it \
                         (it is stale or was edited)"
                    .to_string(),
            });
        }
        report.manifest = ManifestStatus::Verified;
    }
    Ok(report)
}

/// `true` when `root` exists and contains at least one `shard-<k>`
/// directory — the dispatch test of the commands that act on what the
/// user pointed at (`bqs log verify`, and the flat-log writers that
/// refuse a tree root).
pub fn is_sharded_tree(root: impl AsRef<Path>) -> bool {
    matches!(shard_dirs(root), Ok(dirs) if !dirs.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_geo::TimedPoint;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("sharded-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn points(track: u64, n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| TimedPoint::new(i as f64 * 5.0 + track as f64, 0.0, i as f64 * 30.0))
            .collect()
    }

    #[test]
    fn shard_logs_open_write_and_verify_as_a_tree() {
        let root = temp_root("roundtrip");
        {
            let mut logs = open_shard_logs(&root, 3, LogConfig::default()).unwrap();
            for (k, (log, recovery)) in logs.iter_mut().enumerate() {
                assert_eq!(recovery.records, 0);
                log.append(k as u64, &points(k as u64, 50)).unwrap();
            }
        }
        assert!(is_sharded_tree(&root));
        let report = verify_sharded(&root).unwrap();
        assert_eq!(report.shards.len(), 3);
        assert_eq!(report.total.records, 3);
        assert_eq!(report.total.points, 150);
        assert_eq!(
            report.shards.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Each shard is individually reopenable and holds only its track.
        for k in 0..3u64 {
            let (log, _) =
                TrajectoryLog::open(shard_dir(&root, k as usize), LogConfig::default()).unwrap();
            assert_eq!(log.tracks(), vec![k]);
        }
    }

    #[test]
    fn flat_log_is_not_a_sharded_tree() {
        let root = temp_root("flat");
        let (mut log, _) = TrajectoryLog::open(&root, LogConfig::default()).unwrap();
        log.append(1, &points(1, 10)).unwrap();
        assert!(!is_sharded_tree(&root));
        assert!(verify_sharded(&root).is_err());
        assert!(verify_dir(&root).is_ok());
        // Readers take it as one source, shard 0.
        assert_eq!(cold_sources(&root).unwrap(), vec![(0, root.clone())]);
    }

    #[test]
    fn non_shard_entries_are_ignored() {
        let root = temp_root("mixed");
        std::fs::create_dir_all(root.join("shard-1")).unwrap();
        std::fs::create_dir_all(root.join("shard-x")).unwrap();
        std::fs::create_dir_all(root.join("other")).unwrap();
        std::fs::write(root.join("shard-2"), b"a file, not a dir").unwrap();
        let dirs = shard_dirs(&root).unwrap();
        assert_eq!(dirs.len(), 1);
        assert_eq!(dirs[0].0, 1);
    }

    #[test]
    fn missing_root_is_a_clean_error() {
        let root = temp_root("missing");
        assert!(shard_dirs(&root).is_err());
        assert!(!is_sharded_tree(&root));
    }

    #[test]
    fn a_deleted_shard_fails_tree_verification() {
        let root = temp_root("gap");
        {
            let mut logs = open_shard_logs(&root, 3, LogConfig::default()).unwrap();
            for (k, (log, _)) in logs.iter_mut().enumerate() {
                log.append(k as u64, &points(k as u64, 20)).unwrap();
            }
        }
        crate::manifest::Manifest::rebuild(&root).unwrap();
        assert!(verify_sharded(&root).is_ok());
        assert_eq!(cold_sources(&root).unwrap().len(), 3);
        // Losing a whole shard directory must not verify as OK…
        std::fs::remove_dir_all(shard_dir(&root, 1)).unwrap();
        let err = verify_sharded(&root).unwrap_err().to_string();
        assert!(err.contains("shard-1"), "{err}");
        assert!(err.contains("not a contiguous shard tree"), "{err}");
        // …nor let the rest answer as the whole: every read refuses the
        // gapped tree with the same message.
        let reads = [
            cold_sources(&root).map(drop),
            crate::QueryEngine::open(&root).map(drop),
            crate::manifest::Manifest::scan(&root).map(drop),
        ];
        for read in reads {
            assert_eq!(read.unwrap_err().to_string(), err);
        }
    }

    #[test]
    fn spill_layout_classifies_roots() {
        let root = temp_root("layout");
        assert_eq!(spill_layout(&root).unwrap(), SpillLayout::Missing);
        std::fs::create_dir_all(&root).unwrap();
        assert_eq!(spill_layout(&root).unwrap(), SpillLayout::Empty);
        std::fs::write(root.join("notes.txt"), b"unrelated").unwrap();
        assert_eq!(spill_layout(&root).unwrap(), SpillLayout::Other);

        let flat = temp_root("layout-flat");
        let (mut log, _) = TrajectoryLog::open(&flat, LogConfig::default()).unwrap();
        log.append(1, &points(1, 5)).unwrap();
        drop(log);
        assert_eq!(spill_layout(&flat).unwrap(), SpillLayout::FlatLog);

        let tree = temp_root("layout-tree");
        drop(open_shard_logs(&tree, 2, LogConfig::default()).unwrap());
        assert_eq!(
            spill_layout(&tree).unwrap(),
            SpillLayout::ShardTree(vec![0, 1])
        );
    }

    #[test]
    fn spilling_a_tree_over_a_flat_log_is_refused_up_front() {
        let root = temp_root("guard-flat");
        {
            let (mut log, _) = TrajectoryLog::open(&root, LogConfig::default()).unwrap();
            log.append(1, &points(1, 10)).unwrap();
        }
        // A multi-worker tree over a flat log would produce exactly the
        // mixed layout verify_sharded rejects — fail before writing.
        let err = open_shard_logs(&root, 4, LogConfig::default()).unwrap_err();
        assert!(matches!(err, TlogError::IncompatibleLayout { .. }), "{err}");
        assert!(err.to_string().contains("flat trajectory log"), "{err}");
        assert!(!root.join("shard-0").exists(), "nothing must be created");
        // Every writer writes a tree, so even one shard must not be
        // dropped next to the flat segments.
        let err = open_shard_logs(&root, 1, LogConfig::default()).unwrap_err();
        assert!(matches!(err, TlogError::IncompatibleLayout { .. }), "{err}");
        assert!(!root.join("shard-0").exists());
    }

    #[test]
    fn spilling_with_a_different_worker_count_is_refused_up_front() {
        let root = temp_root("guard-workers");
        drop(open_shard_logs(&root, 3, LogConfig::default()).unwrap());
        // Same worker count: fine (resume).
        assert!(check_tree_root(&root, 3).is_ok());
        // More workers would leave a part-new part-old routing; fewer
        // would orphan shards. All refused with typed errors.
        for workers in [1usize, 2, 4, 8] {
            let err = check_tree_root(&root, workers).unwrap_err();
            assert!(
                matches!(err, TlogError::IncompatibleLayout { .. }),
                "workers={workers}: {err}"
            );
        }
        assert!(open_shard_logs(&root, 4, LogConfig::default()).is_err());
        assert!(!root.join("shard-3").exists());
    }

    #[test]
    fn verify_checks_a_present_manifest_against_the_shards() {
        let root = temp_root("verify-manifest");
        {
            let mut logs = open_shard_logs(&root, 2, LogConfig::default()).unwrap();
            for (k, (log, _)) in logs.iter_mut().enumerate() {
                log.append(k as u64, &points(k as u64, 20)).unwrap();
            }
        }
        // No manifest: verification passes and says so.
        assert_eq!(
            verify_sharded(&root).unwrap().manifest,
            ManifestStatus::Absent
        );
        crate::manifest::Manifest::rebuild(&root).unwrap();
        assert_eq!(
            verify_sharded(&root).unwrap().manifest,
            ManifestStatus::Verified
        );
        // A stale manifest (append after rebuild) fails verification.
        {
            let (mut log, _) =
                TrajectoryLog::open(shard_dir(&root, 0), LogConfig::default()).unwrap();
            log.append(9, &points(9, 5)).unwrap();
        }
        let err = verify_sharded(&root).unwrap_err();
        assert!(err.to_string().contains("MANIFEST"), "{err}");
        // Rebuilding repairs it.
        crate::manifest::Manifest::rebuild(&root).unwrap();
        assert!(verify_sharded(&root).is_ok());
    }

    #[test]
    fn duplicate_shard_spellings_fail_tree_verification() {
        let root = temp_root("dup");
        {
            let _logs = open_shard_logs(&root, 2, LogConfig::default()).unwrap();
        }
        // `shard-01` parses to index 1 too: records would be counted
        // twice if the tree verified.
        std::fs::create_dir_all(root.join("shard-01")).unwrap();
        assert!(verify_sharded(&root).is_err());
    }

    #[test]
    fn prepare_spill_logs_opens_fresh_layouts_and_refuses_everything_else() {
        // One worker → a one-shard tree, never a flat log at the root.
        let single = temp_root("prep-single");
        let logs = prepare_spill_logs(&single, 1, LogConfig::default()).unwrap();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].dir(), shard_dir(&single, 0).as_path());
        drop(logs);
        assert_eq!(
            spill_layout(&single).unwrap(),
            SpillLayout::ShardTree(vec![0])
        );

        // Several workers → a shard tree.
        let tree = temp_root("prep-tree");
        let logs = prepare_spill_logs(&tree, 3, LogConfig::default()).unwrap();
        assert_eq!(logs.len(), 3);
        drop(logs);

        // Layout mismatches get the specific diagnosis…
        let flat = temp_root("prep-flat");
        let (mut log, _) = TrajectoryLog::open(&flat, LogConfig::default()).unwrap();
        log.append(1, &points(1, 10)).unwrap();
        drop(log);
        for workers in [1, 3] {
            let err = prepare_spill_logs(&flat, workers, LogConfig::default()).unwrap_err();
            assert!(err.to_string().contains("flat trajectory log"), "{err}");
        }
        let err = prepare_spill_logs(&tree, 1, LogConfig::default()).unwrap_err();
        assert!(err.to_string().contains("different --workers"), "{err}");
        let err = prepare_spill_logs(&single, 3, LogConfig::default()).unwrap_err();
        assert!(err.to_string().contains("different --workers"), "{err}");
        // …a matching-but-used layout the generic freshness refusal…
        let err = prepare_spill_logs(&tree, 3, LogConfig::default()).unwrap_err();
        assert!(err.to_string().contains("fresh directory"), "{err}");
        // …and so does any other non-empty directory.
        let junk = temp_root("prep-junk");
        std::fs::create_dir_all(&junk).unwrap();
        std::fs::write(junk.join("file.txt"), b"x").unwrap();
        let err = prepare_spill_logs(&junk, 2, LogConfig::default()).unwrap_err();
        assert!(err.to_string().contains("fresh directory"), "{err}");
    }
}
