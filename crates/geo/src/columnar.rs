//! A structure-of-arrays batch of timed points: timestamps, x and y as
//! separate contiguous runs.
//!
//! The row representation (`Vec<TimedPoint>`) is what compressors and
//! sinks speak, but the hot decode/validate/submit path of the ingest
//! server wants columns: validating a frame's timestamps is then one
//! linear pass over a contiguous `f64` run (no stride, no struct field
//! loads), and the tlog codec can read each field's run without
//! per-point virtual dispatch. [`ColumnarBatch`] is that shape — a thin
//! SoA mirror of `&[TimedPoint]` with cheap conversion in both
//! directions.
//!
//! The three columns always have equal length; every mutator preserves
//! that invariant.

use crate::point::TimedPoint;

/// A batch of timed points in columnar (structure-of-arrays) form.
///
/// ```
/// use bqs_geo::{ColumnarBatch, TimedPoint};
///
/// let rows: Vec<TimedPoint> =
///     (0..4).map(|i| TimedPoint::new(i as f64, -(i as f64), i as f64 * 10.0)).collect();
/// let batch = ColumnarBatch::from_points(&rows);
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.t, vec![0.0, 10.0, 20.0, 30.0]);
/// assert_eq!(batch.to_points(), rows);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarBatch {
    /// The x coordinates, one per point.
    pub x: Vec<f64>,
    /// The y coordinates, one per point.
    pub y: Vec<f64>,
    /// The timestamps, one per point.
    pub t: Vec<f64>,
}

impl ColumnarBatch {
    /// An empty batch.
    pub fn new() -> ColumnarBatch {
        ColumnarBatch::default()
    }

    /// An empty batch with room for `capacity` points per column.
    pub fn with_capacity(capacity: usize) -> ColumnarBatch {
        ColumnarBatch {
            x: Vec::with_capacity(capacity),
            y: Vec::with_capacity(capacity),
            t: Vec::with_capacity(capacity),
        }
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` when the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Empties all three columns, keeping their allocations — the reuse
    /// path of a per-connection scratch batch.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.t.clear();
    }

    /// Appends one point.
    pub fn push(&mut self, p: TimedPoint) {
        self.x.push(p.pos.x);
        self.y.push(p.pos.y);
        self.t.push(p.t);
    }

    /// The `i`-th point, recomposed from the columns.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`, like indexing a slice.
    pub fn point(&self, i: usize) -> TimedPoint {
        TimedPoint::new(self.x[i], self.y[i], self.t[i])
    }

    /// Iterates the batch as rows, front to back.
    pub fn iter(&self) -> impl Iterator<Item = TimedPoint> + Clone + '_ {
        self.x
            .iter()
            .zip(&self.y)
            .zip(&self.t)
            .map(|((&x, &y), &t)| TimedPoint::new(x, y, t))
    }

    /// Builds a batch from a row slice.
    pub fn from_points(points: &[TimedPoint]) -> ColumnarBatch {
        let mut batch = ColumnarBatch::with_capacity(points.len());
        batch.extend_from_points(points);
        batch
    }

    /// Appends every point of a row slice.
    pub fn extend_from_points(&mut self, points: &[TimedPoint]) {
        self.x.reserve(points.len());
        self.y.reserve(points.len());
        self.t.reserve(points.len());
        for p in points {
            self.x.push(p.pos.x);
            self.y.push(p.pos.y);
            self.t.push(p.t);
        }
    }

    /// The batch as rows, in a fresh `Vec`.
    pub fn to_points(&self) -> Vec<TimedPoint> {
        self.iter().collect()
    }
}

impl FromIterator<TimedPoint> for ColumnarBatch {
    fn from_iter<I: IntoIterator<Item = TimedPoint>>(iter: I) -> ColumnarBatch {
        let mut batch = ColumnarBatch::new();
        for p in iter {
            batch.push(p);
        }
        batch
    }
}

impl Extend<TimedPoint> for ColumnarBatch {
    fn extend<I: IntoIterator<Item = TimedPoint>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<TimedPoint> {
        (0..n)
            .map(|i| TimedPoint::new(i as f64 * 1.5, (i as f64).sin(), i as f64 * 3.0))
            .collect()
    }

    #[test]
    fn round_trips_rows_exactly() {
        let points = rows(17);
        let batch = ColumnarBatch::from_points(&points);
        assert_eq!(batch.len(), 17);
        assert!(!batch.is_empty());
        assert_eq!(batch.to_points(), points);
        assert_eq!(batch.point(3), points[3]);
        let collected: ColumnarBatch = points.iter().copied().collect();
        assert_eq!(collected, batch);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut batch = ColumnarBatch::from_points(&rows(100));
        let cap = batch.t.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.t.capacity(), cap);
        batch.extend(rows(3));
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn empty_batch_behaves() {
        let batch = ColumnarBatch::new();
        assert_eq!(batch.len(), 0);
        assert!(batch.is_empty());
        assert!(batch.to_points().is_empty());
        assert_eq!(batch.iter().count(), 0);
    }
}
