//! The historical trajectory store (paper §V-F).
//!
//! Compression alone is not the whole storage story: the paper sketches two
//! maintenance procedures over the compressed history, both implemented
//! here on top of a uniform-grid spatial index:
//!
//! * **Merging** — a newly compressed segment is used as a query against
//!   the stored segments; when an existing segment already represents the
//!   same path within a merge tolerance, the new one is folded into it
//!   (weight bump) instead of stored — deduplicating commuting-style
//!   repeated trips.
//! * **Ageing** — older trajectories are re-compressed at a greater error
//!   tolerance, trading accuracy of old data for space. Re-compression runs
//!   the BQS itself over the stored key points; the composite deviation of
//!   the aged trajectory against the *original* raw trace is bounded by
//!   `d_original + d_aged` (triangle inequality on point-to-chord
//!   distances), which the integration tests verify.
//!
//! The store is thread-safe (`std::sync::RwLock`) so a base station can
//! ingest collar offloads concurrently with queries.
//!
//! [`waypoints`] implements the paper's §VII future-work sketch on top:
//! dwell clustering into waypoints, trip-duration estimation and a Markov
//! next-destination predictor.

pub mod grid;
pub mod similarity;
pub mod waypoints;

pub use grid::UniformGrid;
pub use similarity::{chord_distance, segments_similar};
pub use waypoints::{discover, MobilityModel, TripStats, Waypoint, WaypointConfig};

use bqs_core::stream::compress_all;
use bqs_core::{BqsCompressor, BqsConfig};
use bqs_geo::{Point2, Rect, TimedPoint};
use std::sync::RwLock;

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Chord-distance tolerance under which a new segment merges into an
    /// existing one (metres).
    pub merge_tolerance: f64,
    /// Spatial-index cell size (metres).
    pub cell_size: f64,
    /// Bytes charged per stored key point (the device codec's 12 B).
    pub bytes_per_key: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            merge_tolerance: 25.0,
            cell_size: 500.0,
            bytes_per_key: 12,
        }
    }
}

/// A stored compressed segment (chord between consecutive key points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredSegment {
    /// Segment id (stable across merges, not across ageing).
    pub id: u64,
    /// Start key point.
    pub start: TimedPoint,
    /// End key point.
    pub end: TimedPoint,
    /// How many observed segments this one represents (≥ 1; grows on
    /// merge).
    pub weight: u32,
    /// Error tolerance the segment was compressed at.
    pub tolerance: f64,
}

impl StoredSegment {
    fn bbox(&self) -> Rect {
        Rect::from_corners(self.start.pos, self.end.pos)
    }

    fn chord(&self) -> (Point2, Point2) {
        (self.start.pos, self.end.pos)
    }
}

/// Result of inserting a compressed trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// Segments stored as new entries.
    pub stored: usize,
    /// Segments folded into an existing similar segment.
    pub merged: usize,
}

/// Result of an ageing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AgeReport {
    /// Key points before ageing.
    pub keys_before: usize,
    /// Key points after ageing.
    pub keys_after: usize,
    /// Estimated bytes reclaimed.
    pub bytes_reclaimed: usize,
}

#[derive(Debug)]
struct Inner {
    /// Whole trajectories (key-point sequences), kept for ageing.
    trajectories: Vec<(Vec<TimedPoint>, f64)>,
    /// Flattened segment table.
    segments: Vec<StoredSegment>,
    grid: UniformGrid,
    next_id: u64,
}

impl Inner {
    fn new(cell_size: f64) -> Inner {
        Inner {
            trajectories: Vec::new(),
            segments: Vec::new(),
            grid: UniformGrid::new(cell_size),
            next_id: 0,
        }
    }
}

/// The historical trajectory store.
#[derive(Debug)]
pub struct TrajectoryStore {
    config: StoreConfig,
    inner: RwLock<Inner>,
}

impl TrajectoryStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> TrajectoryStore {
        assert!(config.merge_tolerance >= 0.0);
        TrajectoryStore {
            config,
            inner: RwLock::new(Inner::new(config.cell_size)),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Inserts a compressed trajectory (its key points, with the tolerance
    /// it was compressed at). Each chord is first offered to merging; only
    /// unmatched chords are stored as new segments.
    pub fn insert_compressed(&self, keys: &[TimedPoint], tolerance: f64) -> InsertReport {
        let mut report = InsertReport::default();
        if keys.len() < 2 {
            return report;
        }
        // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
        let mut inner = self.inner.write().expect("store lock poisoned");
        inner.trajectories.push((keys.to_vec(), tolerance));
        for w in keys.windows(2) {
            let chord = (w[0].pos, w[1].pos);
            let probe = Rect::from_corners(chord.0, chord.1);
            let candidates = inner.grid.query(&probe);
            let similar = candidates.into_iter().find(|id| {
                inner.segments.get(*id as usize).is_some_and(|s| {
                    segments_similar(s.chord(), chord, self.config.merge_tolerance)
                })
            });
            match similar {
                Some(id) => {
                    inner.segments[id as usize].weight += 1;
                    report.merged += 1;
                }
                None => {
                    let id = inner.next_id;
                    inner.next_id += 1;
                    let seg = StoredSegment {
                        id,
                        start: w[0],
                        end: w[1],
                        weight: 1,
                        tolerance,
                    };
                    inner.grid.insert(id, &seg.bbox());
                    inner.segments.push(seg);
                    report.stored += 1;
                }
            }
        }
        report
    }

    /// Number of distinct stored segments.
    pub fn segment_count(&self) -> usize {
        self.inner
            .read()
            // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
            .expect("store lock poisoned")
            .segments
            .len()
    }

    /// Total observed segments including merged duplicates.
    pub fn total_weight(&self) -> u64 {
        self.inner
            .read()
            // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
            .expect("store lock poisoned")
            .segments
            .iter()
            .map(|s| u64::from(s.weight))
            .sum()
    }

    /// Estimated storage footprint of the key points in bytes.
    pub fn estimated_bytes(&self) -> usize {
        // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
        let inner = self.inner.read().expect("store lock poisoned");
        let keys: usize = inner.trajectories.iter().map(|(k, _)| k.len()).sum();
        keys * self.config.bytes_per_key
    }

    /// Segments whose bounding boxes intersect `rect` (exact-geometry
    /// filtered).
    pub fn query_rect(&self, rect: &Rect) -> Vec<StoredSegment> {
        // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
        let inner = self.inner.read().expect("store lock poisoned");
        inner
            .grid
            .query(rect)
            .into_iter()
            .filter_map(|id| inner.segments.get(id as usize).copied())
            .filter(|s| s.bbox().intersects(rect))
            .collect()
    }

    /// Ageing pass (§V-F): re-compresses every stored trajectory with the
    /// buffered BQS at `new_tolerance` (which should exceed the original),
    /// rebuilding the segment table. The deviation of the aged trajectory
    /// against the original raw trace is bounded by
    /// `original_tolerance + new_tolerance`.
    pub fn age(&self, new_tolerance: f64) -> AgeReport {
        // bqs-analyze: allow(no-unwrap-in-lib) — a poisoned lock means a writer panicked; propagate it loudly
        let mut inner = self.inner.write().expect("store lock poisoned");
        let keys_before: usize = inner.trajectories.iter().map(|(k, _)| k.len()).sum();

        let mut aged: Vec<(Vec<TimedPoint>, f64)> = Vec::with_capacity(inner.trajectories.len());
        for (keys, old_tol) in inner.trajectories.drain(..) {
            let tol = new_tolerance.max(old_tol);
            // bqs-analyze: allow(no-unwrap-in-lib) — tolerance is a positive constant validated at the call site
            let mut bqs = BqsCompressor::new(BqsConfig::new(tol).expect("valid tolerance"));
            let rekeyed = compress_all(&mut bqs, keys.iter().copied());
            aged.push((rekeyed, old_tol + tol));
        }

        // Rebuild the segment table and index from the aged trajectories.
        let mut fresh = Inner::new(self.config.cell_size);
        fresh.trajectories = aged;
        for (keys, tol) in fresh.trajectories.clone() {
            for w in keys.windows(2) {
                let id = fresh.next_id;
                fresh.next_id += 1;
                let seg = StoredSegment {
                    id,
                    start: w[0],
                    end: w[1],
                    weight: 1,
                    tolerance: tol,
                };
                fresh.grid.insert(id, &seg.bbox());
                fresh.segments.push(seg);
            }
        }
        let keys_after: usize = fresh.trajectories.iter().map(|(k, _)| k.len()).sum();
        *inner = fresh;

        AgeReport {
            keys_before,
            keys_after,
            bytes_reclaimed: keys_before.saturating_sub(keys_after) * self.config.bytes_per_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(points: &[(f64, f64)]) -> Vec<TimedPoint> {
        points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| TimedPoint::new(*x, *y, i as f64 * 60.0))
            .collect()
    }

    #[test]
    fn stores_segments_and_indexes_them() {
        let store = TrajectoryStore::new(StoreConfig::default());
        let report =
            store.insert_compressed(&keys(&[(0.0, 0.0), (1000.0, 0.0), (1000.0, 800.0)]), 10.0);
        assert_eq!(report.stored, 2);
        assert_eq!(report.merged, 0);
        assert_eq!(store.segment_count(), 2);
        let hits = store.query_rect(&Rect::from_corners(
            Point2::new(900.0, -10.0),
            Point2::new(1100.0, 100.0),
        ));
        assert!(!hits.is_empty());
    }

    #[test]
    fn repeated_trip_merges() {
        let store = TrajectoryStore::new(StoreConfig::default());
        let trip = keys(&[(0.0, 0.0), (2000.0, 0.0)]);
        assert_eq!(store.insert_compressed(&trip, 10.0).stored, 1);
        // The same commute next day, 5 m offset (within merge tolerance).
        let again = keys(&[(0.0, 5.0), (2000.0, 5.0)]);
        let report = store.insert_compressed(&again, 10.0);
        assert_eq!(report.stored, 0);
        assert_eq!(report.merged, 1);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.total_weight(), 2);
    }

    #[test]
    fn reverse_direction_merges_too() {
        let store = TrajectoryStore::new(StoreConfig::default());
        store.insert_compressed(&keys(&[(0.0, 0.0), (2000.0, 0.0)]), 10.0);
        let back = keys(&[(2000.0, 0.0), (0.0, 0.0)]);
        assert_eq!(store.insert_compressed(&back, 10.0).merged, 1);
    }

    #[test]
    fn distinct_paths_do_not_merge() {
        let store = TrajectoryStore::new(StoreConfig::default());
        store.insert_compressed(&keys(&[(0.0, 0.0), (2000.0, 0.0)]), 10.0);
        let other = keys(&[(0.0, 500.0), (2000.0, 500.0)]);
        assert_eq!(store.insert_compressed(&other, 10.0).stored, 1);
        assert_eq!(store.segment_count(), 2);
    }

    #[test]
    fn ageing_reduces_keys_and_reports_bytes() {
        let store = TrajectoryStore::new(StoreConfig::default());
        // A gently wavy path that a 10 m tolerance keeps but 50 m flattens.
        let wavy: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 100.0, ((i % 2) as f64) * 30.0))
            .collect();
        store.insert_compressed(&keys(&wavy), 10.0);
        let before = store.estimated_bytes();
        let report = store.age(60.0);
        assert!(report.keys_after < report.keys_before, "{report:?}");
        assert_eq!(report.bytes_reclaimed, before - store.estimated_bytes());
        assert!(store.segment_count() < 39);
    }

    #[test]
    fn ageing_tracks_composite_tolerance() {
        let store = TrajectoryStore::new(StoreConfig::default());
        store.insert_compressed(&keys(&[(0.0, 0.0), (500.0, 40.0), (1000.0, 0.0)]), 10.0);
        store.age(30.0);
        let all = store.query_rect(&Rect::from_corners(
            Point2::new(-1.0, -50.0),
            Point2::new(1100.0, 100.0),
        ));
        assert!(!all.is_empty());
        for seg in all {
            assert_eq!(seg.tolerance, 40.0); // 10 + 30 composite bound
        }
    }

    #[test]
    fn tiny_inputs_ignored() {
        let store = TrajectoryStore::new(StoreConfig::default());
        assert_eq!(store.insert_compressed(&[], 10.0), InsertReport::default());
        assert_eq!(
            store.insert_compressed(&keys(&[(1.0, 1.0)]), 10.0),
            InsertReport::default()
        );
    }

    #[test]
    fn concurrent_ingest_and_query() {
        use std::sync::Arc;
        let store = Arc::new(TrajectoryStore::new(StoreConfig::default()));
        let mut handles = Vec::new();
        for k in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let y = (k * 1_000 + i * 10) as f64;
                    store.insert_compressed(&keys(&[(0.0, y), (3_000.0, y)]), 10.0);
                    let _ = store.query_rect(&Rect::from_corners(
                        Point2::new(0.0, 0.0),
                        Point2::new(3_000.0, 5_000.0),
                    ));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.total_weight(), 200);
    }
}
