//! Trace containers and (de)serialisation.

use bqs_geo::{path_length, Point2, Rect, TimedPoint};

/// A named point stream with summary statistics — the unit every generator
/// produces and every experiment consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable dataset name ("bat", "vehicle", "synthetic", ...).
    pub name: String,
    /// Sampled points ordered by timestamp.
    pub points: Vec<TimedPoint>,
}

impl Trace {
    /// Creates a trace; points must be time-ordered (checked in debug
    /// builds).
    pub fn new(name: impl Into<String>, points: Vec<TimedPoint>) -> Trace {
        debug_assert!(
            points.windows(2).all(|w| w[0].t <= w[1].t),
            "trace points must be time-ordered"
        );
        Trace {
            name: name.into(),
            points,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the trace has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Positions only.
    pub fn positions(&self) -> Vec<Point2> {
        self.points.iter().map(|p| p.pos).collect()
    }

    /// Total travel distance in metres.
    pub fn travel_distance(&self) -> f64 {
        path_length(&self.positions())
    }

    /// Spatial bounding box, `None` when empty.
    pub fn bounding_box(&self) -> Option<Rect> {
        Rect::bounding(self.points.iter().map(|p| p.pos))
    }

    /// Time span `(first, last)` in seconds, `None` when empty.
    pub fn time_span(&self) -> Option<(f64, f64)> {
        Some((self.points.first()?.t, self.points.last()?.t))
    }

    /// Concatenates traces into one stream, offsetting timestamps so the
    /// combined stream stays time-ordered with `gap_seconds` between parts —
    /// the paper "combine\[s\] all the data points into a single data stream"
    /// for its experiments.
    pub fn concatenate(name: impl Into<String>, parts: &[Trace], gap_seconds: f64) -> Trace {
        let mut points = Vec::with_capacity(parts.iter().map(Trace::len).sum());
        let mut offset = 0.0f64;
        for part in parts {
            if part.is_empty() {
                continue;
            }
            // bqs-analyze: allow(no-unwrap-in-lib) — invariant: non-empty
            let (t0, t1) = part.time_span().expect("non-empty");
            let shift = offset - t0;
            points.extend(
                part.points
                    .iter()
                    .map(|p| TimedPoint::at(p.pos, p.t + shift)),
            );
            offset += (t1 - t0) + gap_seconds;
        }
        Trace::new(name, points)
    }

    /// Splits the trace into trips at sampling gaps longer than
    /// `gap_seconds` — the inverse of [`Trace::concatenate`], used to
    /// recover per-night/per-trip structure from a combined stream (the
    /// logger is off between trips, so gaps mark boundaries).
    pub fn split_at_gaps(&self, gap_seconds: f64) -> Vec<Trace> {
        let mut out = Vec::new();
        let mut current: Vec<TimedPoint> = Vec::new();
        for p in &self.points {
            if let Some(last) = current.last() {
                if p.t - last.t > gap_seconds {
                    out.push(Trace::new(
                        format!("{}#{}", self.name, out.len()),
                        std::mem::take(&mut current),
                    ));
                }
            }
            current.push(*p);
        }
        if !current.is_empty() {
            out.push(Trace::new(format!("{}#{}", self.name, out.len()), current));
        }
        out
    }

    /// Serialises to a compact CSV (`x,y,t` per line) for external plotting
    /// (Fig. 8a).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.points.len() * 24);
        s.push_str("x,y,t\n");
        for p in &self.points {
            s.push_str(&format!("{:.3},{:.3},{:.3}\n", p.pos.x, p.pos.y, p.t));
        }
        s
    }

    /// Parses the CSV format produced by [`Trace::to_csv`].
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Trace, String> {
        let mut points = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 && line.starts_with('x') {
                continue; // header
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let mut next = |what: &str| -> Result<f64, String> {
                fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
            };
            let x = next("x")?;
            let y = next("y")?;
            let t = next("t")?;
            points.push(TimedPoint::new(x, y, t));
        }
        Ok(Trace::new(name, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            vec![
                TimedPoint::new(0.0, 0.0, 0.0),
                TimedPoint::new(30.0, 40.0, 60.0),
                TimedPoint::new(30.0, 100.0, 120.0),
            ],
        )
    }

    #[test]
    fn summary_statistics() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.travel_distance(), 50.0 + 60.0);
        assert_eq!(t.time_span(), Some((0.0, 120.0)));
        let bb = t.bounding_box().unwrap();
        assert_eq!(bb.min, Point2::new(0.0, 0.0));
        assert_eq!(bb.max, Point2::new(30.0, 100.0));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.travel_distance(), 0.0);
        assert_eq!(t.bounding_box(), None);
        assert_eq!(t.time_span(), None);
    }

    #[test]
    fn concatenation_preserves_order_and_counts() {
        let a = sample();
        let b = sample();
        let c = Trace::concatenate("both", &[a.clone(), b], 300.0);
        assert_eq!(c.len(), 6);
        assert!(c.points.windows(2).all(|w| w[0].t <= w[1].t));
        // Second part starts one gap after the first ends.
        assert_eq!(c.points[3].t, 120.0 + 300.0);
    }

    #[test]
    fn concatenation_skips_empty_parts() {
        let c = Trace::concatenate(
            "x",
            &[Trace::new("e", vec![]), sample(), Trace::new("e2", vec![])],
            60.0,
        );
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn split_at_gaps_recovers_parts() {
        let a = sample();
        let b = sample();
        let combined = Trace::concatenate("both", &[a.clone(), b.clone()], 600.0);
        let parts = combined.split_at_gaps(300.0);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), a.len());
        assert_eq!(parts[1].len(), b.len());
        // No gap larger than the threshold: one part.
        assert_eq!(sample().split_at_gaps(100.0).len(), 1);
        // Empty trace: no parts.
        assert!(Trace::new("e", vec![]).split_at_gaps(10.0).is_empty());
    }

    #[test]
    fn csv_round_trip() {
        let t = sample();
        let csv = t.to_csv();
        let back = Trace::from_csv("sample", &csv).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.points.iter().zip(back.points.iter()) {
            assert!(a.pos.distance(b.pos) < 1e-3);
            assert!((a.t - b.t).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Trace::from_csv("bad", "x,y,t\n1.0,zzz,3.0\n").is_err());
        assert!(Trace::from_csv("bad", "x,y,t\n1.0\n").is_err());
        // Blank lines are fine.
        assert!(Trace::from_csv("ok", "x,y,t\n\n1,2,3\n").is_ok());
    }
}
