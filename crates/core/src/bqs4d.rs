//! A 4-D Bounded Quadrant System — the paper's final future-work item
//! (§VII: "Exploring the potential of a 4-D BQS could be another
//! interesting extension to this work").
//!
//! Samples are `⟨x, y, altitude, scaled time⟩`, so a single deviation
//! bound covers planar error, altitude error *and* temporal error at once.
//! Space splits into 16 orthants around the segment start; each orthant
//! bounds its points with a 4-D hyperbox whose 16 corners give sound
//! deviation bounds (the Theorem 5.2 analogue — distance to a 4-D line is
//! convex, so its maximum over a box is attained at a corner). Angular
//! bounding *hyperplanes* are left as genuinely future work; the corner
//! tier alone already yields a working constant-memory compressor: the
//! working set is ≤ 16 orthants × 1 box = 16 boxes (256 corner
//! evaluations per decision, still O(1) per point).
//!
//! Known limitation of the corner tier: a hyperbox around diagonal motion
//! is fat, so the **fast** variant's bounds stay inconclusive on long
//! diagonal runs and it cuts early (the 2-D BQS solves exactly this with
//! angular bounds and data-centric rotation — their 4-D analogues are the
//! open part of the future work). The buffered variant is unaffected: its
//! exact-scan fallback recovers full compression.

use crate::bounds::DeviationBounds;
use crate::stream::Sink;
use bqs_geo::point4::{Box4, Line4, Point4};

/// A timestamped 4-D sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimedPoint4 {
    /// Position in the 4-D embedding.
    pub pos: Point4,
    /// Seconds since the trace epoch (also encoded, scaled, in `pos.w`).
    pub t: f64,
}

impl TimedPoint4 {
    /// Builds a sample from planar position, altitude and time, embedding
    /// time on the fourth axis at `seconds_to_metres`.
    pub fn new(x: f64, y: f64, altitude: f64, t: f64, seconds_to_metres: f64) -> TimedPoint4 {
        TimedPoint4 {
            pos: Point4::new(x, y, altitude, t * seconds_to_metres),
            t,
        }
    }
}

/// One of the sixteen orthants, by sign bits of (x, y, z, w).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Orthant(u8);

impl Orthant {
    /// Classifies a displacement (non-negative counts as positive).
    #[inline]
    pub fn of(p: Point4) -> Orthant {
        Orthant(
            ((p.x < 0.0) as u8)
                | (((p.y < 0.0) as u8) << 1)
                | (((p.z < 0.0) as u8) << 2)
                | (((p.w < 0.0) as u8) << 3),
        )
    }

    /// Contiguous index 0–15.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration for the 4-D compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bqs4dConfig {
    /// Error tolerance in the embedded 4-D metric.
    pub tolerance: f64,
    /// Fast mode: cut on inconclusive bounds instead of scanning.
    pub fast: bool,
}

impl Bqs4dConfig {
    /// Creates a validated configuration (buffered).
    pub fn new(tolerance: f64) -> Result<Bqs4dConfig, crate::config::ConfigError> {
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(crate::config::ConfigError::InvalidTolerance { tolerance });
        }
        Ok(Bqs4dConfig {
            tolerance,
            fast: false,
        })
    }

    /// Switches to the fast variant.
    pub fn fast(mut self) -> Self {
        self.fast = true;
        self
    }
}

/// Streaming 4-D BQS compressor.
#[derive(Debug, Clone)]
pub struct Bqs4dCompressor {
    config: Bqs4dConfig,
    origin: Option<Point4>,
    boxes: [Option<Box4>; 16],
    far_points: usize,
    buffer: Option<Vec<Point4>>,
    last: Option<TimedPoint4>,
    last_emitted: Option<TimedPoint4>,
    segments: u64,
}

impl Bqs4dCompressor {
    /// Creates a 4-D compressor.
    pub fn new(config: Bqs4dConfig) -> Bqs4dCompressor {
        Bqs4dCompressor {
            config,
            origin: None,
            boxes: [None; 16],
            far_points: 0,
            buffer: if config.fast { None } else { Some(Vec::new()) },
            last: None,
            last_emitted: None,
            segments: 0,
        }
    }

    /// Segments produced so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    fn aggregated_bounds(&self, origin: Point4, end: Point4) -> DeviationBounds {
        let line = Line4::new(Point4::ORIGIN, end.sub(origin));
        let mut agg = DeviationBounds::EMPTY;
        for b in self.boxes.iter().flatten() {
            let (lo, hi) = b.corner_distance_bounds(line);
            agg = agg.merge(DeviationBounds::new(lo, hi));
        }
        agg
    }

    /// Pushes a sample; emits finalised key points into `out`.
    pub fn push(&mut self, p: TimedPoint4, out: &mut dyn Sink<TimedPoint4>) {
        let Some(origin) = self.origin else {
            self.emit(p, out);
            self.origin = Some(p.pos);
            self.last = Some(p);
            self.segments = 1;
            return;
        };

        let include = if self.far_points == 0 {
            true
        } else {
            let bounds = self.aggregated_bounds(origin, p.pos);
            if bounds.upper <= self.config.tolerance {
                true
            } else if bounds.lower > self.config.tolerance {
                false
            } else if let Some(buffer) = self.buffer.as_ref() {
                let line = Line4::new(origin, p.pos);
                buffer
                    .iter()
                    .map(|q| line.distance_to(*q))
                    .fold(0.0, f64::max)
                    <= self.config.tolerance
            } else {
                false
            }
        };

        if include {
            self.admit(p);
        } else {
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: cut only after an admission
            let key = self.last.expect("cut only after an admission");
            self.emit(key, out);
            self.segments += 1;
            self.origin = Some(key.pos);
            self.boxes = [None; 16];
            self.far_points = 0;
            if let Some(buffer) = self.buffer.as_mut() {
                buffer.clear();
            }
            self.admit(p);
        }
    }

    fn admit(&mut self, p: TimedPoint4) {
        // bqs-analyze: allow(no-unwrap-in-lib) — invariant: segment exists
        let origin = self.origin.expect("segment exists");
        let local = p.pos.sub(origin);
        if local.norm() > self.config.tolerance {
            self.far_points += 1;
            let orthant = Orthant::of(local);
            match &mut self.boxes[orthant.index()] {
                Some(b) => b.expand(local),
                slot @ None => *slot = Some(Box4::from_point(local)),
            }
            if let Some(buffer) = self.buffer.as_mut() {
                buffer.push(p.pos);
            }
        }
        self.last = Some(p);
    }

    /// Flushes the final key point and resets.
    pub fn finish(&mut self, out: &mut dyn Sink<TimedPoint4>) {
        if let Some(last) = self.last {
            if self.last_emitted != Some(last) {
                out.push(last);
            }
        }
        self.origin = None;
        self.boxes = [None; 16];
        self.far_points = 0;
        self.last = None;
        self.last_emitted = None;
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.clear();
        }
    }

    fn emit(&mut self, p: TimedPoint4, out: &mut dyn Sink<TimedPoint4>) {
        out.push(p);
        self.last_emitted = Some(p);
    }
}

/// Compresses a whole 4-D stream.
pub fn compress_all_4d(
    compressor: &mut Bqs4dCompressor,
    points: impl IntoIterator<Item = TimedPoint4>,
) -> Vec<TimedPoint4> {
    let mut out = Vec::new();
    for p in points {
        compressor.push(p, &mut out);
    }
    compressor.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steady climb on a steady heading at steady speed: one 4-D line.
    fn linear_flight(n: usize) -> Vec<TimedPoint4> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                TimedPoint4::new(t * 8.0, t * 3.0, t * 0.5, t, 1.0)
            })
            .collect()
    }

    #[test]
    fn orthant_classification() {
        assert_eq!(Orthant::of(Point4::new(1.0, 1.0, 1.0, 1.0)).index(), 0);
        assert_eq!(Orthant::of(Point4::new(-1.0, 1.0, 1.0, 1.0)).index(), 1);
        assert_eq!(Orthant::of(Point4::new(1.0, 1.0, 1.0, -1.0)).index(), 8);
        assert_eq!(Orthant::of(Point4::new(-1.0, -1.0, -1.0, -1.0)).index(), 15);
    }

    #[test]
    fn linear_4d_motion_compresses_to_two_points_buffered() {
        // Diagonal 4-D line: corner bounds are inconclusive, but the
        // buffered fallback scans and keeps compressing.
        let mut c = Bqs4dCompressor::new(Bqs4dConfig::new(5.0).unwrap());
        let out = compress_all_4d(&mut c, linear_flight(200));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn axis_aligned_motion_compresses_in_fast_mode() {
        // Along one axis the hyperbox is thin and the corner bounds are
        // conclusive, so even the fast variant collapses the run.
        let pts: Vec<TimedPoint4> = (0..200)
            .map(|i| TimedPoint4 {
                pos: Point4::new(i as f64 * 10.0, 0.0, 0.0, 0.0),
                t: i as f64,
            })
            .collect();
        let mut c = Bqs4dCompressor::new(Bqs4dConfig::new(5.0).unwrap().fast());
        let out = compress_all_4d(&mut c, pts);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn speed_change_is_kept_in_time_sensitive_mode() {
        // Constant path, but the object pauses halfway: spatially a line,
        // temporally a knee — the 4-D embedding must keep the knee.
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(TimedPoint4::new(i as f64 * 10.0, 0.0, 0.0, i as f64, 2.0));
        }
        for i in 50..100 {
            pts.push(TimedPoint4::new(490.0, 0.0, 0.0, i as f64, 2.0));
        }
        let mut c = Bqs4dCompressor::new(Bqs4dConfig::new(8.0).unwrap());
        let out = compress_all_4d(&mut c, pts);
        assert!(out.len() >= 3, "the pause must break the 4-D line: {out:?}");
    }

    #[test]
    fn error_bound_holds_in_4d() {
        let tolerance = 6.0;
        let pts: Vec<TimedPoint4> = (0..400)
            .map(|i| {
                let t = i as f64;
                TimedPoint4::new(
                    t * 6.0 + (t * 0.21).sin() * 10.0,
                    (t * 0.13).cos() * 40.0,
                    (t * 0.05).sin() * 20.0,
                    t,
                    0.5,
                )
            })
            .collect();
        for fast in [false, true] {
            let mut config = Bqs4dConfig::new(tolerance).unwrap();
            if fast {
                config = config.fast();
            }
            let mut c = Bqs4dCompressor::new(config);
            let out = compress_all_4d(&mut c, pts.clone());
            for w in out.windows(2) {
                let i = pts.iter().position(|p| p == &w[0]).unwrap();
                let j = pts.iter().position(|p| p == &w[1]).unwrap();
                let line = Line4::new(w[0].pos, w[1].pos);
                for q in &pts[i + 1..j] {
                    assert!(
                        line.distance_to(q.pos) <= tolerance + 1e-9,
                        "fast={fast}, segment {i}..{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_never_buffers() {
        let mut c = Bqs4dCompressor::new(Bqs4dConfig::new(4.0).unwrap().fast());
        let _ = compress_all_4d(&mut c, linear_flight(500));
        assert!(c.buffer.is_none());
    }

    #[test]
    fn config_validation() {
        assert!(Bqs4dConfig::new(0.0).is_err());
        assert!(Bqs4dConfig::new(f64::NAN).is_err());
        assert!(Bqs4dConfig::new(1.0).unwrap().fast().fast);
    }
}
