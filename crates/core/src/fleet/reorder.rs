//! Bounded-lateness admission: one per-track table for every lateness.
//!
//! Real trackers buffer offline and reconnect with late fixes, so a hard
//! "timestamps only move forward" gate at the ingest edge rejects valid
//! data. A [`ReorderBuffer`] relaxes that gate to a configurable window
//! `W` behind the stream's watermark (the largest timestamp seen so
//! far): any point with `t >= watermark - W` is accepted and parked;
//! points are *released* — in strict timestamp order — once the
//! watermark has moved at least `W` past them (`t <= watermark - W`),
//! at which point nothing that could still arrive may precede them.
//! Points older than the window are refused with the typed [`TooLate`]
//! error so callers can route them to an explicit backfill path instead.
//!
//! The invariant that makes the buffer transparent to downstream
//! consumers: a released point has `t <= watermark - W`, and every
//! future accept has `t >= watermark' - W >= watermark - W`, so the
//! released stream is time-ordered and identical to the sorted input —
//! feeding it to a compressor yields byte-identical output to the
//! sorted stream (`crates/core/tests/reorder_prop.rs`). Ties keep
//! arrival order, as a stable sort of the input would.
//!
//! `W = 0` is no special case: its horizon is the watermark itself, so
//! it admits exactly what the codec's time-order rule admits and
//! releases every admitted point on arrival — nothing ever parks.
//!
//! A [`ReorderBuffer::drain`] releases points the watermark has not yet
//! cleared, so it raises the buffer's *floor* to the newest point it
//! released: from then on a point below the floor is [`TooLate`] even
//! inside the window, and the released stream stays time-ordered.

use super::TrackId;
use bqs_geo::TimedPoint;
use std::collections::{HashMap, VecDeque};

/// A point was older than the lateness window: it cannot be reordered
/// into the live stream and must take the backfill path (or be dropped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooLate {
    /// The refused point's timestamp.
    pub t: f64,
    /// The stream watermark at refusal time (largest accepted `t`).
    pub watermark: f64,
    /// The lateness window `W`.
    pub window: f64,
}

impl std::fmt::Display for TooLate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "too-late point: t={} is more than {}s behind the watermark {}",
            self.t, self.window, self.watermark
        )
    }
}

impl std::error::Error for TooLate {}

/// One stream's bounded-lateness reorder buffer. See the module docs.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    window: f64,
    /// Largest accepted timestamp; `-inf` before the first accept, so
    /// the very first point of a stream is never "too late".
    watermark: f64,
    /// Parked points, sorted by `t` with stable (arrival-order) ties.
    pending: VecDeque<TimedPoint>,
    /// Newest point a [`ReorderBuffer::drain`] released; `-inf` before
    /// any drain. Nothing below it may be accepted again.
    floor: f64,
}

impl ReorderBuffer {
    /// A buffer accepting points up to `window` seconds behind the
    /// watermark. `window` must be finite and `>= 0`; zero is the
    /// strict in-order gate (every admitted point released at once).
    pub fn new(window: f64) -> ReorderBuffer {
        debug_assert!(window.is_finite() && window >= 0.0);
        ReorderBuffer {
            window,
            watermark: f64::NEG_INFINITY,
            pending: VecDeque::new(),
            floor: f64::NEG_INFINITY,
        }
    }

    /// The largest accepted timestamp, `None` before the first accept.
    pub fn watermark(&self) -> Option<f64> {
        (self.watermark != f64::NEG_INFINITY).then_some(self.watermark)
    }

    /// Points currently parked.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether a point with timestamp `t` would be accepted right now.
    pub fn admits(&self, t: f64) -> bool {
        self.check(t, self.watermark).is_ok()
    }

    /// Refuses `t` if it lies below the acceptance horizon at watermark
    /// `watermark`: `watermark − W`, raised to the floor after a drain
    /// (the error's `window` then shrinks to the distance to the floor).
    fn check(&self, t: f64, watermark: f64) -> Result<(), TooLate> {
        let (horizon, window) = if self.floor > watermark - self.window {
            (self.floor, watermark - self.floor)
        } else {
            (watermark - self.window, self.window)
        };
        if t < horizon {
            return Err(TooLate {
                t,
                watermark,
                window,
            });
        }
        Ok(())
    }

    /// Accepts one point (or refuses it with [`TooLate`]), appending any
    /// newly releasable points — in timestamp order — to `out`.
    pub fn push(&mut self, p: TimedPoint, out: &mut Vec<TimedPoint>) -> Result<(), TooLate> {
        self.check(p.t, self.watermark)?;
        self.park(p, out);
        Ok(())
    }

    /// Parks an admitted point and releases everything at or behind the
    /// new horizon `watermark − W` to `out`.
    fn park(&mut self, p: TimedPoint, out: &mut Vec<TimedPoint>) {
        // Stable insert: after every parked point with `t <= p.t`.
        let at = self.pending.partition_point(|q| q.t <= p.t);
        self.pending.insert(at, p);
        self.watermark = self.watermark.max(p.t);
        let horizon = self.watermark - self.window;
        while let Some(q) = self.pending.front() {
            if q.t > horizon {
                break;
            }
            out.extend(self.pending.pop_front());
        }
    }

    /// Releases every parked point (in timestamp order) — the
    /// end-of-stream flush. The watermark is kept and the floor rises to
    /// the newest released point, so a stream can continue pushing
    /// afterwards without going back behind what was released.
    pub fn drain(&mut self) -> Vec<TimedPoint> {
        if let Some(last) = self.pending.back() {
            self.floor = last.t;
        }
        self.pending.drain(..).collect()
    }
}

/// The points an admitted run releases, in timestamp order.
#[derive(Debug)]
pub enum Released<'a, I> {
    /// The run itself, whole: at `W = 0` every admitted point clears
    /// the horizon on arrival, so the run passes through uncopied.
    Run(I),
    /// What the track's buffer released (possibly nothing).
    Buffered(std::vec::Drain<'a, TimedPoint>),
}

/// The outcome of [`FleetReorder::admit`].
#[derive(Debug)]
pub struct Admitted<'a, I> {
    /// Points of the run that arrived behind the track's watermark.
    pub late: u64,
    /// Points parked across every track once the run is in.
    pub depth: usize,
    /// What the run released, to hand to the compressor in order.
    pub released: Released<'a, I>,
}

/// The fleet's admission table: one [`ReorderBuffer`] per track (made
/// on its first point, kept for the table's life), all sharing one
/// lateness window, plus the fleet-wide depth and the stream clock.
#[derive(Debug)]
pub struct FleetReorder {
    window: f64,
    tracks: HashMap<TrackId, ReorderBuffer>,
    depth: usize,
    /// Largest timestamp admitted on any track; `-inf` before the first.
    clock: f64,
    /// Where an admitted run's releases land; reused across runs.
    released: Vec<TimedPoint>,
}

impl FleetReorder {
    /// Per-track buffers sharing the lateness window `window`.
    pub fn new(window: f64) -> FleetReorder {
        FleetReorder {
            window,
            tracks: HashMap::new(),
            depth: 0,
            clock: f64::NEG_INFINITY,
            released: Vec::new(),
        }
    }

    /// Total parked points across every track — the backlog gauge.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// One track's watermark, `None` for unseen tracks.
    pub fn watermark(&self, track: TrackId) -> Option<f64> {
        self.tracks.get(&track).and_then(ReorderBuffer::watermark)
    }

    /// The stream clock: the largest timestamp admitted on any track,
    /// `None` before the first admission.
    pub fn clock(&self) -> Option<f64> {
        (self.clock != f64::NEG_INFINITY).then_some(self.clock)
    }

    /// Admits a whole run of `track` atomically — every point, or, when
    /// any point falls behind the horizon, none (the refusal leaves the
    /// table untouched) — and returns what the run releases.
    pub fn admit<I>(&mut self, track: TrackId, run: I) -> Result<Admitted<'_, I>, TooLate>
    where
        I: Iterator<Item = TimedPoint> + Clone,
    {
        let window = self.window;
        let buffer = self
            .tracks
            .entry(track)
            .or_insert_with(|| ReorderBuffer::new(window));
        // Decide the whole run before parking any of it, simulating the
        // watermark over the run in arrival order.
        let (mut late, mut watermark) = (0, buffer.watermark);
        for p in run.clone() {
            buffer.check(p.t, watermark)?;
            late += u64::from(p.t < watermark);
            watermark = watermark.max(p.t);
        }
        self.clock = self.clock.max(watermark);
        if window == 0.0 {
            // The horizon is the watermark: every point is released on
            // arrival, so the run leaves whole and nothing parks.
            buffer.watermark = watermark;
            return Ok(Admitted {
                late,
                depth: self.depth,
                released: Released::Run(run),
            });
        }
        self.released.clear();
        let mut parked = 0;
        for p in run {
            buffer.park(p, &mut self.released);
            parked += 1;
        }
        self.depth = self.depth + parked - self.released.len();
        Ok(Admitted {
            late,
            depth: self.depth,
            released: Released::Buffered(self.released.drain(..)),
        })
    }

    /// Pushes one point of `track`, appending released points to `out`.
    pub fn push(
        &mut self,
        track: TrackId,
        p: TimedPoint,
        out: &mut Vec<TimedPoint>,
    ) -> Result<(), TooLate> {
        match self.admit(track, std::iter::once(p))?.released {
            Released::Run(run) => out.extend(run),
            Released::Buffered(points) => out.extend(points),
        }
        Ok(())
    }

    /// Drains every track's parked points (each in timestamp order),
    /// ascending by track id — the shutdown flush.
    pub fn drain_all(&mut self) -> Vec<(TrackId, Vec<TimedPoint>)> {
        self.drain_idle(f64::INFINITY)
    }

    /// Drains the parked points of every track whose release horizon
    /// `watermark − W` lies before `cutoff` (each in timestamp order),
    /// ascending by track id — the idle-eviction flush: such a track's
    /// session is about to be evicted, and its tail must go with it.
    /// Each drained track refuses points below its drained watermark
    /// from then on (see [`ReorderBuffer::drain`]).
    pub fn drain_idle(&mut self, cutoff: f64) -> Vec<(TrackId, Vec<TimedPoint>)> {
        let window = self.window;
        let mut out: Vec<(TrackId, Vec<TimedPoint>)> = self
            .tracks
            .iter_mut()
            .filter(|(_, b)| !b.is_empty() && b.watermark - window < cutoff)
            .map(|(&track, b)| (track, b.drain()))
            .collect();
        out.sort_by_key(|(track, _)| *track);
        self.depth -= out.iter().map(|(_, points)| points.len()).sum::<usize>();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(t: f64) -> TimedPoint {
        TimedPoint::new(t, -t, t)
    }

    fn times(points: &[TimedPoint]) -> Vec<f64> {
        points.iter().map(|q| q.t).collect()
    }

    #[test]
    fn in_order_stream_passes_through_once_the_watermark_clears_it() {
        let mut buf = ReorderBuffer::new(10.0);
        let mut out = Vec::new();
        for t in 0..6 {
            buf.push(p(t as f64 * 5.0), &mut out).unwrap();
        }
        // Watermark 25, window 10: everything at or below 15 released.
        assert_eq!(times(&out), vec![0.0, 5.0, 10.0, 15.0]);
        let rest = buf.drain();
        assert_eq!(times(&rest), vec![20.0, 25.0]);
        assert!(buf.is_empty());
    }

    #[test]
    fn a_point_at_the_exact_horizon_is_released() {
        let mut buf = ReorderBuffer::new(10.0);
        let mut out = Vec::new();
        buf.push(p(0.0), &mut out).unwrap();
        buf.push(p(5.0), &mut out).unwrap();
        assert!(out.is_empty());
        // Watermark 10, horizon 0: the point at t = 0 sits on it.
        buf.push(p(10.0), &mut out).unwrap();
        assert_eq!(times(&out), vec![0.0]);
        // A later arrival at the horizon is still admitted, and released
        // behind the first.
        let tie = TimedPoint::new(7.0, 7.0, 0.0);
        buf.push(tie, &mut out).unwrap();
        assert_eq!(out, vec![p(0.0), tie]);
        assert_eq!(times(&buf.drain()), vec![5.0, 10.0]);
    }

    #[test]
    fn disorder_within_the_window_is_released_sorted() {
        let mut buf = ReorderBuffer::new(10.0);
        let mut out = Vec::new();
        for t in [0.0, 8.0, 3.0, 12.0, 7.0, 30.0] {
            buf.push(p(t), &mut out).unwrap();
        }
        out.extend(buf.drain());
        assert_eq!(times(&out), vec![0.0, 3.0, 7.0, 8.0, 12.0, 30.0]);
    }

    #[test]
    fn beyond_window_points_get_the_exact_typed_error() {
        let mut buf = ReorderBuffer::new(5.0);
        let mut out = Vec::new();
        buf.push(p(100.0), &mut out).unwrap();
        assert!(buf.admits(95.0));
        buf.push(p(95.0), &mut out).unwrap();
        let err = buf.push(p(94.9), &mut out).unwrap_err();
        assert_eq!(
            err,
            TooLate {
                t: 94.9,
                watermark: 100.0,
                window: 5.0
            }
        );
        // A refusal leaves the buffer untouched.
        assert_eq!(buf.len(), 1);
        assert_eq!(times(&out), vec![95.0]);
        assert_eq!(times(&buf.drain()), vec![100.0]);
    }

    #[test]
    fn the_first_point_is_never_too_late() {
        let mut buf = ReorderBuffer::new(0.0);
        let mut out = Vec::new();
        buf.push(p(-1.0e12), &mut out).unwrap();
        assert_eq!(buf.watermark(), Some(-1.0e12));
    }

    #[test]
    fn equal_timestamps_release_in_arrival_order() {
        let mut buf = ReorderBuffer::new(2.0);
        let mut out = Vec::new();
        let a = TimedPoint::new(1.0, 0.0, 5.0);
        let b = TimedPoint::new(2.0, 0.0, 5.0);
        buf.push(a, &mut out).unwrap();
        buf.push(b, &mut out).unwrap();
        buf.push(p(100.0), &mut out).unwrap();
        assert_eq!(out[0], a);
        assert_eq!(out[1], b);
    }

    #[test]
    fn fleet_reorder_tracks_depth_and_isolates_tracks() {
        let mut fleet = FleetReorder::new(10.0);
        let mut out = Vec::new();
        fleet.push(1, p(0.0), &mut out).unwrap();
        fleet.push(2, p(1000.0), &mut out).unwrap();
        // Track 1's watermark is 0: t=-5 is fine there even though
        // track 2 is far ahead.
        fleet.push(1, p(-5.0), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(fleet.depth(), 3);
        assert_eq!(fleet.watermark(1), Some(0.0));
        assert_eq!(fleet.watermark(2), Some(1000.0));
        assert_eq!(fleet.watermark(3), None);
        assert_eq!(fleet.clock(), Some(1000.0));
        assert!(fleet.admit(2, [p(989.0)].into_iter()).is_err());

        fleet.push(1, p(50.0), &mut out).unwrap();
        assert_eq!(times(&out), vec![-5.0, 0.0]);
        assert_eq!(fleet.depth(), 2);

        let drained = fleet.drain_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 1);
        assert_eq!(times(&drained[0].1), vec![50.0]);
        assert_eq!(times(&drained[1].1), vec![1000.0]);
        assert_eq!(fleet.depth(), 0);
    }

    #[test]
    fn drain_idle_takes_only_stale_tracks_and_raises_their_floor() {
        let mut fleet = FleetReorder::new(30.0);
        let mut out = Vec::new();
        for t in 0..=100 {
            fleet.push(1, p(f64::from(t)), &mut out).unwrap();
        }
        fleet.push(2, p(300.0), &mut out).unwrap();
        out.clear();
        // Horizons: track 1 at 70, track 2 at 270; cut-off 240.
        let drained = fleet.drain_idle(240.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 1);
        assert_eq!(
            times(&drained[0].1),
            (71..=100).map(f64::from).collect::<Vec<_>>()
        );
        assert_eq!(fleet.depth(), 1);
        // Inside the window, but behind what the drain released.
        assert!(!fleet.tracks[&1].admits(99.0));
        assert!(fleet.tracks[&1].admits(100.0));
        let late = |fleet: &mut FleetReorder, run: &[f64]| {
            fleet
                .admit(1, run.iter().map(|&t| p(t)))
                .map(|admitted| admitted.late)
        };
        assert_eq!(
            late(&mut fleet, &[101.0, 90.0]).unwrap_err(),
            TooLate {
                t: 90.0,
                watermark: 101.0,
                window: 1.0
            }
        );
        assert_eq!(fleet.push(1, p(90.0), &mut out).unwrap_err().window, 0.0);
        // Once the watermark moves a window past the floor, the window rules again.
        assert_eq!(late(&mut fleet, &[140.0, 111.0]), Ok(1));
        assert!(fleet.admit(2, [p(280.0)].into_iter()).is_ok());
        assert_eq!(fleet.clock(), Some(300.0));
    }

    #[test]
    fn at_zero_lateness_an_admitted_run_passes_through_whole() {
        let mut fleet = FleetReorder::new(0.0);
        let run = [p(1.0), p(2.0), p(2.0), p(4.0)];
        let admitted = fleet.admit(9, run.iter().copied()).unwrap();
        assert_eq!(admitted.late, 0);
        assert!(matches!(admitted.released, Released::Run(_)));
        drop(admitted);
        assert_eq!(fleet.watermark(9), Some(4.0));
        assert_eq!(fleet.clock(), Some(4.0));
        assert_eq!(fleet.depth(), 0);
        let err = fleet.admit(9, [p(5.0), p(3.0)].into_iter()).unwrap_err();
        assert_eq!(
            err,
            TooLate {
                t: 3.0,
                watermark: 5.0,
                window: 0.0
            }
        );
        assert_eq!(fleet.watermark(9), Some(4.0), "a refusal moves nothing");
    }
}
