//! The spill-tree `MANIFEST`: a per-shard summary that lets a reader
//! decide *without opening any shard log* which shards could possibly
//! answer a query.
//!
//! A sharded spill tree (`shard-<k>/`, see [`crate::sharded`]) holds one
//! single-writer [`TrajectoryLog`] per worker. A query for one track, a
//! time window, or a bounding box usually concerns a small subset of
//! shards, but discovering that subset by opening every shard costs a
//! full header scan per shard. The `MANIFEST` file at the tree root
//! caches exactly the pruning inputs — per shard: the live track set
//! with each track's record/point counts, time span and bounding box —
//! so `QueryEngine` opens only the shards that can matter.
//!
//! The manifest is a *cache*, never a source of truth:
//!
//! * it is rebuilt from lock-free header scans ([`Manifest::scan`])
//!   whenever it is missing, unparseable, CRC-invalid, or stale;
//! * staleness is detected by comparing each shard's recorded segment
//!   count and byte total against the live directory (a reader that
//!   finds it stale scans instead, and never writes the scan back —
//!   only writers persist manifests);
//! * `bqs log verify` cross-checks a present manifest against a fresh
//!   scan and fails the tree on any disagreement.
//!
//! The on-disk format is a line-based text file with a trailing CRC-32,
//! specified in `docs/format.md` §"The MANIFEST file".

use crate::crc::crc32;
use crate::error::TlogError;
use crate::log::{list_segments, LogConfig, TrackSummary, TrajectoryLog};
use crate::query::TimeRange;
use crate::sharded::cold_sources;
use bqs_core::fleet::TrackId;
use bqs_geo::{Point2, Rect};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// File name of the manifest at a spill-tree root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Magic first line (with format version) of a manifest file.
const MANIFEST_HEADER: &str = "bqs-manifest v1";

/// One shard's summary inside a [`Manifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestShard {
    /// The shard index (`shard-<k>`).
    pub shard: usize,
    /// Segment files in the shard directory when scanned.
    pub segments: usize,
    /// Total bytes of those segment files (file sizes, torn tails
    /// included) — the staleness fingerprint together with `segments`.
    pub bytes: u64,
    /// Live tracks in the shard, ascending, each with counts, time span
    /// and bounding box.
    pub tracks: Vec<TrackSummary>,
}

impl ManifestShard {
    /// Shard `shard`'s entry, folded from its open log's record headers,
    /// fingerprinted by `segments` — `(seq, length)` per segment file,
    /// listed *before* the log was scanned, so that an append racing the
    /// scan leaves the entry stale rather than wrongly fresh.
    fn of_log(shard: usize, log: &TrajectoryLog, segments: &[(u64, u64)]) -> ManifestShard {
        ManifestShard {
            shard,
            segments: segments.len(),
            bytes: segments.iter().map(|&(_, len)| len).sum(),
            tracks: log.track_summaries(),
        }
    }

    /// Whether the recorded fingerprint (segment count and byte total)
    /// matches a directory listing.
    pub(crate) fn matches(&self, listing: &[(u64, u64)]) -> bool {
        self.segments == listing.len() && self.bytes == listing.iter().map(|&(_, len)| len).sum()
    }

    /// Live records across the shard's tracks.
    pub fn records(&self) -> usize {
        self.tracks.iter().map(|t| t.records).sum()
    }

    /// Live points across the shard's tracks.
    pub fn points(&self) -> u64 {
        self.tracks.iter().map(|t| t.points).sum()
    }

    /// Whether the shard could hold any point matching the query: a
    /// track filter, a time range, and an optional area. `false` means
    /// the shard can be skipped without being opened — pruning is safe
    /// because the manifest covers every live record's summary, and a
    /// fresh manifest covers every live record.
    pub fn may_contain(
        &self,
        track: Option<TrackId>,
        range: TimeRange,
        area: Option<&Rect>,
    ) -> bool {
        self.tracks
            .iter()
            .filter(|t| track.is_none_or(|wanted| t.track == wanted))
            .any(|t| t.may_contain(range, area))
    }
}

/// The parsed (or freshly scanned) manifest of one spill tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// One entry per shard, ascending by shard index.
    pub shards: Vec<ManifestShard>,
}

/// The segment listing of one shard directory — `(seq, file length)`
/// per segment file, ascending — from file metadata alone (no log
/// open). A manifest entry records only its count and byte total; a
/// reader holding the whole listing also sees a compaction that
/// rewrote identical bytes under new sequence numbers.
pub(crate) fn shard_fingerprint(dir: &Path) -> Result<Vec<(u64, u64)>, TlogError> {
    Ok(list_segments(dir)?
        .into_iter()
        .map(|s| (s.seq, s.len))
        .collect())
}

impl Manifest {
    /// Builds a manifest by scanning every cold source under `root`
    /// ([`cold_sources`]: the shards of a tree, or a flat log as shard
    /// 0) read-only (no locks are taken; a live writer is not
    /// disturbed). Fails when `root` holds neither, or a tree whose
    /// shards are not exactly `0..N`.
    pub fn scan(root: impl AsRef<Path>) -> Result<Manifest, TlogError> {
        let sources = cold_sources(root)?;
        let mut shards = Vec::with_capacity(sources.len());
        for (shard, dir) in sources {
            let listing = shard_fingerprint(&dir)?;
            let (log, _) = TrajectoryLog::open_read_only(&dir, LogConfig::default())?;
            shards.push(ManifestShard::of_log(shard, &log, &listing));
        }
        Ok(Manifest { shards })
    }

    /// `true` when the manifest holds exactly the shards `dirs` lists, in
    /// order, each recorded fingerprint (segment count and byte total)
    /// matching its directory listing — i.e. nothing was appended,
    /// compacted or deleted since the manifest was written.
    pub(crate) fn describes(
        &self,
        dirs: &[(usize, PathBuf)],
        listings: &[Vec<(u64, u64)>],
    ) -> bool {
        self.shards.len() == dirs.len()
            && self.shards.iter().zip(dirs.iter().zip(listings)).all(
                |(entry, ((shard, _), listing))| entry.shard == *shard && entry.matches(listing),
            )
    }

    /// Serialises the manifest to its text form (header, one `shard`
    /// line per shard, one `track` line per live track, trailing CRC).
    fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        for shard in &self.shards {
            let _ = writeln!(
                body,
                "shard {} segments={} bytes={} records={} points={}",
                shard.shard,
                shard.segments,
                shard.bytes,
                shard.records(),
                shard.points(),
            );
            for t in &shard.tracks {
                let bbox = t.bbox.unwrap_or(Rect::from_point(Point2::new(0.0, 0.0)));
                let _ = writeln!(
                    body,
                    "track {} {} records={} points={} t={} {} bbox={} {} {} {}",
                    shard.shard,
                    t.track,
                    t.records,
                    t.points,
                    t.t_min,
                    t.t_max,
                    bbox.min.x,
                    bbox.min.y,
                    bbox.max.x,
                    bbox.max.y,
                );
            }
        }
        let _ = writeln!(body, "crc {:08x}", crc32(body.as_bytes()));
        body
    }

    /// Writes the manifest atomically (`MANIFEST.tmp` + rename) at the
    /// tree root.
    pub fn write(&self, root: impl AsRef<Path>) -> Result<PathBuf, TlogError> {
        let root = root.as_ref();
        let path = root.join(MANIFEST_FILE);
        let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, self.to_text())
            .map_err(|e| TlogError::io(format!("write {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| TlogError::io(format!("rename {}", tmp.display()), e))?;
        Ok(path)
    }

    /// Parses a manifest from its text form. Fails on a bad header, a
    /// malformed line, or a CRC mismatch — a reader must then fall back
    /// to [`Manifest::scan`], never trust a damaged manifest.
    pub fn parse(text: &str, path: &Path) -> Result<Manifest, TlogError> {
        let corrupt = |reason: String| TlogError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            reason,
        };
        let field = |token: Option<&str>, key: &str| -> Result<String, TlogError> {
            token
                .and_then(|t| t.strip_prefix(key))
                .and_then(|t| t.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| corrupt(format!("expected {key}=<value>")))
        };

        // The CRC line covers everything before it, byte for byte.
        let crc_start = text
            .rfind("crc ")
            .ok_or_else(|| corrupt("missing crc line".to_string()))?;
        let declared = text[crc_start..]
            .trim_end()
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("malformed crc line".to_string()))?;
        if crc32(&text.as_bytes()[..crc_start]) != declared {
            return Err(corrupt("manifest CRC mismatch".to_string()));
        }

        let mut lines = text[..crc_start].lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(corrupt(format!("expected header \"{MANIFEST_HEADER}\"")));
        }
        let mut shards: Vec<ManifestShard> = Vec::new();
        for line in lines {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("shard") => {
                    let shard = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| corrupt("bad shard index".to_string()))?;
                    let segments = field(tokens.next(), "segments")?
                        .parse()
                        .map_err(|e| corrupt(format!("bad segments: {e}")))?;
                    let bytes = field(tokens.next(), "bytes")?
                        .parse()
                        .map_err(|e| corrupt(format!("bad bytes: {e}")))?;
                    shards.push(ManifestShard {
                        shard,
                        segments,
                        bytes,
                        tracks: Vec::new(),
                    });
                }
                Some("track") => {
                    let shard: usize = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| corrupt("bad track shard".to_string()))?;
                    let entry = shards
                        .last_mut()
                        .filter(|s| s.shard == shard)
                        .ok_or_else(|| corrupt("track line outside its shard".to_string()))?;
                    let track = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| corrupt("bad track id".to_string()))?;
                    let records = field(tokens.next(), "records")?
                        .parse()
                        .map_err(|e| corrupt(format!("bad records: {e}")))?;
                    let points = field(tokens.next(), "points")?
                        .parse()
                        .map_err(|e| corrupt(format!("bad points: {e}")))?;
                    let mut f64s =
                        |prefix: Option<&str>, n: usize| -> Result<Vec<f64>, TlogError> {
                            let mut out = Vec::with_capacity(n);
                            for i in 0..n {
                                let token = tokens
                                    .next()
                                    .ok_or_else(|| corrupt("truncated track line".to_string()))?;
                                let token = match (i, prefix) {
                                    (0, Some(p)) => token
                                        .strip_prefix(p)
                                        .and_then(|t| t.strip_prefix('='))
                                        .ok_or_else(|| corrupt(format!("expected {p}=")))?,
                                    _ => token,
                                };
                                out.push(
                                    token
                                        .parse()
                                        .map_err(|e| corrupt(format!("bad float: {e}")))?,
                                );
                            }
                            Ok(out)
                        };
                    let span = f64s(Some("t"), 2)?;
                    let bbox = f64s(Some("bbox"), 4)?;
                    entry.tracks.push(TrackSummary {
                        track,
                        records,
                        points,
                        t_min: span[0],
                        t_max: span[1],
                        bbox: Some(Rect::from_corners(
                            Point2::new(bbox[0], bbox[1]),
                            Point2::new(bbox[2], bbox[3]),
                        )),
                    });
                }
                Some(other) => return Err(corrupt(format!("unknown manifest line: {other}"))),
                None => {}
            }
        }
        Ok(Manifest { shards })
    }

    /// Loads the manifest at `root`, if one exists. A manifest that
    /// fails to parse or CRC-check is an error; absence is `Ok(None)`.
    pub fn load(root: impl AsRef<Path>) -> Result<Option<Manifest>, TlogError> {
        let path = root.as_ref().join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(TlogError::io(format!("read {}", path.display()), e)),
        };
        Manifest::parse(&text, &path).map(Some)
    }

    /// Rebuilds the manifest from a fresh scan and writes it at the
    /// root — what a writer calls after finishing a spill run.
    pub fn rebuild(root: impl AsRef<Path>) -> Result<Manifest, TlogError> {
        let manifest = Manifest::scan(&root)?;
        manifest.write(&root)?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::open_shard_logs;
    use crate::QueryEngine;
    use bqs_geo::TimedPoint;

    fn is_fresh(manifest: &Manifest, root: &Path) -> bool {
        let dirs = cold_sources(root).unwrap();
        let listings: Vec<_> = dirs
            .iter()
            .map(|(_, dir)| shard_fingerprint(dir).unwrap())
            .collect();
        manifest.describes(&dirs, &listings)
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bqs-tlog-tests")
            .join(format!("manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn points(track: u64, n: usize, t0: f64) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| {
                TimedPoint::new(
                    i as f64 * 5.0 + track as f64 * 1_000.0,
                    track as f64 * 10.0,
                    t0 + i as f64 * 30.0,
                )
            })
            .collect()
    }

    fn build_tree(root: &Path, shards: usize) {
        let mut logs = open_shard_logs(root, shards, LogConfig::default()).unwrap();
        for (k, (log, _)) in logs.iter_mut().enumerate() {
            log.append(k as u64, &points(k as u64, 40, 0.0)).unwrap();
            log.append(k as u64 + 100, &points(k as u64 + 100, 10, 5_000.0))
                .unwrap();
        }
    }

    #[test]
    fn scan_write_load_round_trip() {
        let root = temp_root("round-trip");
        build_tree(&root, 3);
        let scanned = Manifest::scan(&root).unwrap();
        assert_eq!(scanned.shards.len(), 3);
        assert_eq!(scanned.shards[1].tracks.len(), 2);
        assert_eq!(scanned.shards[1].points(), 50);
        scanned.write(&root).unwrap();
        let loaded = Manifest::load(&root).unwrap().unwrap();
        assert_eq!(loaded, scanned);
        assert!(is_fresh(&loaded, &root));
        // A fresh manifest is trusted: a query opens only the shard it
        // cannot prune.
        let mut engine = QueryEngine::open(&root).unwrap();
        let out = engine.query_time_range(Some(1), TimeRange::all()).unwrap();
        assert_eq!(out.slices[0].points, points(1, 40, 0.0));
        assert_eq!((out.shards_pruned, out.reopened_shards), (2, 1));
    }

    #[test]
    fn appends_after_write_make_the_manifest_stale() {
        let root = temp_root("stale");
        build_tree(&root, 2);
        let manifest = Manifest::rebuild(&root).unwrap();
        {
            let (mut log, _) =
                TrajectoryLog::open(root.join("shard-0"), LogConfig::default()).unwrap();
            log.append(500, &points(500, 5, 90_000.0)).unwrap();
        }
        assert!(!is_fresh(&manifest, &root));
        // A reader falls back to a fresh scan that sees the append.
        let mut engine = QueryEngine::open(&root).unwrap();
        let out = engine
            .query_time_range(Some(500), TimeRange::all())
            .unwrap();
        assert_eq!(out.slices[0].points, points(500, 5, 90_000.0));
    }

    #[test]
    fn a_manifest_written_over_a_torn_tail_still_describes_its_tree() {
        // The fingerprint is file sizes, torn bytes included: what the
        // next reader's directory listing will show, not what the scan
        // managed to index.
        let root = temp_root("torn");
        build_tree(&root, 2);
        let segment = root.join("shard-0").join("seg-000001.tlg");
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&[0x2a; 5]);
        std::fs::write(&segment, &bytes).unwrap();
        let manifest = Manifest::rebuild(&root).unwrap();
        assert_eq!(manifest.shards[0].bytes, bytes.len() as u64);
        assert!(is_fresh(&manifest, &root));

        // So a reader trusts it and opens only the shard a query needs.
        let mut engine = QueryEngine::open(&root).unwrap();
        let out = engine.query_time_range(Some(1), TimeRange::all()).unwrap();
        assert_eq!(out.slices[0].points, points(1, 40, 0.0));
        assert_eq!((out.shards_pruned, out.reopened_shards), (1, 1));
    }

    #[test]
    fn a_corrupt_manifest_is_rejected_not_trusted() {
        let root = temp_root("corrupt");
        build_tree(&root, 2);
        Manifest::rebuild(&root).unwrap();
        let path = root.join(MANIFEST_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replacen("records=1", "records=9", 1);
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            Manifest::load(&root).unwrap_err(),
            TlogError::Corrupt { .. }
        ));
        // The read path silently falls back to scanning: it opens every
        // shard up front, where a trusted manifest opens only the one a
        // query needs.
        let mut engine = QueryEngine::open(&root).unwrap();
        let out = engine.query_time_range(Some(1), TimeRange::all()).unwrap();
        assert_eq!(out.slices[0].points, points(1, 40, 0.0));
        assert_eq!((out.shards_pruned, out.reopened_shards), (1, 2));
    }

    #[test]
    fn may_contain_prunes_by_track_time_and_space() {
        let root = temp_root("prune");
        build_tree(&root, 2);
        let manifest = Manifest::scan(&root).unwrap();
        let shard0 = &manifest.shards[0];
        // Track filter: shard 0 holds tracks 0 and 100, not 1.
        assert!(shard0.may_contain(Some(0), TimeRange::all(), None));
        assert!(!shard0.may_contain(Some(1), TimeRange::all(), None));
        // Time: tracks span [0, 1170] and [5000, 5270].
        assert!(!shard0.may_contain(None, TimeRange::new(1_200.0, 4_000.0), None));
        assert!(shard0.may_contain(None, TimeRange::new(100.0, 200.0), None));
        // Space: track 0 sits near x ∈ [0, 195]; 10 km away is empty.
        let far = Rect::from_corners(Point2::new(9_000.0, -1.0), Point2::new(9_500.0, 1.0));
        assert!(!shard0.may_contain(None, TimeRange::all(), Some(&far)));
        let near = Rect::from_corners(Point2::new(-1.0, -1.0), Point2::new(50.0, 1.0));
        assert!(shard0.may_contain(None, TimeRange::all(), Some(&near)));
        // Combined: right place, wrong time.
        assert!(!shard0.may_contain(Some(0), TimeRange::new(2_000.0, 3_000.0), Some(&near)));
    }

    #[test]
    fn non_finite_spans_survive_the_text_round_trip() {
        let manifest = Manifest {
            shards: vec![ManifestShard {
                shard: 0,
                segments: 1,
                bytes: 8,
                tracks: vec![TrackSummary {
                    track: 7,
                    records: 1,
                    points: 3,
                    t_min: -0.0,
                    t_max: 1e300,
                    bbox: Some(Rect::from_corners(
                        Point2::new(f64::NEG_INFINITY, -1.5),
                        Point2::new(f64::INFINITY, 2.25),
                    )),
                }],
            }],
        };
        let text = manifest.to_text();
        let parsed = Manifest::parse(&text, Path::new("MANIFEST")).unwrap();
        assert_eq!(parsed, manifest);
    }
}
