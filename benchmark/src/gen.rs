//! Seeded input generation: sessions, delivery schedules and query mixes.
//!
//! Everything here is a pure function of its seed. Points come from
//! `bqs-sim`'s correlated random walk (through `bqs_net::session_trace`,
//! the generator `bqs fleet` and `bqs loadgen` share) and the bounded
//! shuffle is `bqs_net::disorder_trace` — the programs under test only
//! ever see the generated inputs.

use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_net::wire::{frame_to_vec, Request};
use bqs_net::{disorder_trace, encode_append_columns, session_trace, QuerySpec};
use std::ops::Range;

/// Points per `Append` frame and per `submit_run` — the loadgen default.
pub const FRAME_POINTS: usize = 64;

/// The random walk's sampling interval, stream seconds per point.
pub const SAMPLE_INTERVAL_S: f64 = 10.0;

/// splitmix64: a small seeded generator for choices (not for points).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A uniform index from a non-empty range.
    pub fn pick(&mut self, range: &Range<usize>) -> usize {
        range.start + self.below(range.len())
    }
}

/// One tracker session: a track id and its time-ordered points.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    pub track: u64,
    pub points: Vec<TimedPoint>,
}

impl Session {
    pub fn start_t(&self) -> f64 {
        self.points[0].t
    }

    pub fn end_t(&self) -> f64 {
        self.points[self.points.len() - 1].t
    }
}

/// Session `track` of run seed `seed`. `session_trace` seeds its walk
/// with `seed + track`, so neighbouring run seeds would share all but
/// one walk; mixing the run seed first gives every seed its own walks.
fn walk(seed: u64, track: u64, points: usize) -> Vec<TimedPoint> {
    session_trace(Rng::new(seed).next_u64(), track, points)
}

/// `count` sessions of `points` points that all start at stream time 0:
/// long concurrent tracks, the steady-state ingest shape.
pub fn parallel_sessions(seed: u64, first_track: u64, count: usize, points: usize) -> Vec<Session> {
    (0..count as u64)
        .map(|i| Session {
            track: first_track + i,
            points: walk(seed, first_track + i, points),
        })
        .collect()
}

/// `count` short sessions whose start times are staggered `stagger_s`
/// stream seconds apart (plus a seeded jitter below one stagger), so at
/// any stream time about `duration / stagger_s` of them are live: the
/// churn shape. Session `i` never starts before session `i − 1`.
pub fn staggered_sessions(
    seed: u64,
    first_track: u64,
    count: usize,
    points: usize,
    stagger_s: f64,
) -> Vec<Session> {
    let mut rng = Rng::new(seed ^ 0x5eed_5747_6765_7273);
    (0..count)
        .map(|i| {
            let track = first_track + i as u64;
            let offset = (i as f64 + rng.unit()) * stagger_s;
            let mut pts = walk(seed, track, points);
            for p in &mut pts {
                p.t += offset;
            }
            Session { track, points: pts }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An `Append` frame, sorted within itself.
    Live,
    /// An `AppendLate` frame on the durable backfill path.
    Backfill,
    /// A single point a billion seconds behind its track's watermark,
    /// which the server must refuse as `too-late`.
    Probe,
}

/// One unit of delivery: up to [`FRAME_POINTS`] points of one track,
/// deliverable once stream time reaches `ready_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub track: u64,
    pub kind: FrameKind,
    pub points: Vec<TimedPoint>,
    pub ready_t: f64,
}

fn sort_for_delivery(frames: &mut [Frame]) {
    // Stable, and every track's `ready_t` is non-decreasing, so each
    // track's frames keep their relative order.
    frames.sort_by(|a, b| a.ready_t.total_cmp(&b.ready_t).then(a.track.cmp(&b.track)));
}

/// Strictly in-order delivery: each session chunked into frames, all
/// frames merged by the stream time of their newest point.
pub fn in_order_frames(sessions: &[Session]) -> Vec<Frame> {
    let mut frames: Vec<Frame> = sessions
        .iter()
        .flat_map(|s| {
            s.points.chunks(FRAME_POINTS).map(|chunk| Frame {
                track: s.track,
                kind: FrameKind::Live,
                points: chunk.to_vec(),
                ready_t: chunk[chunk.len() - 1].t,
            })
        })
        .collect();
    sort_for_delivery(&mut frames);
    frames
}

/// What the server's lateness counters must read after a disordered
/// delivery, computed by walking each track's watermark over the exact
/// delivery order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LateTruth {
    pub late_points: u64,
    pub backfill_points: u64,
    pub too_late_points: u64,
}

/// Every this-many sessions one carries an armed too-late probe.
pub const PROBE_EVERY: usize = 100;

/// Bounded-lateness delivery: each session's oldest tenth is held back
/// and sent afterwards through the backfill path; the rest goes through
/// the seeded bounded shuffle (no point more than `window` seconds
/// behind one already delivered), chunked into frames that are sorted
/// within themselves; every [`PROBE_EVERY`]-th session ends with a
/// too-late probe. The shuffle itself runs one second inside `window`:
/// session times carry a fractional offset, and a point exactly
/// `window` behind would be accepted or refused by float rounding.
pub fn disordered_frames(sessions: &[Session], window: f64, seed: u64) -> (Vec<Frame>, LateTruth) {
    let mut frames = Vec::new();
    let mut truth = LateTruth::default();
    for (i, s) in sessions.iter().enumerate() {
        let cut = s.points.len() / 10;
        let live = disorder_trace(&s.points[cut..], window - 1.0, seed ^ s.track);
        let mut watermark = f64::NEG_INFINITY;
        let mut ready_t = f64::NEG_INFINITY;
        for chunk in live.chunks(FRAME_POINTS) {
            let mut points = chunk.to_vec();
            points.sort_by(|a, b| a.t.total_cmp(&b.t));
            for p in &points {
                if watermark.is_finite() && p.t < watermark {
                    truth.late_points += 1;
                }
                watermark = watermark.max(p.t);
            }
            ready_t = ready_t.max(watermark);
            frames.push(Frame {
                track: s.track,
                kind: FrameKind::Live,
                points,
                ready_t,
            });
        }
        for chunk in s.points[..cut].chunks(FRAME_POINTS) {
            truth.backfill_points += chunk.len() as u64;
            frames.push(Frame {
                track: s.track,
                kind: FrameKind::Backfill,
                points: chunk.to_vec(),
                ready_t,
            });
        }
        if i % PROBE_EVERY == PROBE_EVERY - 1 {
            truth.too_late_points += 1;
            frames.push(Frame {
                track: s.track,
                kind: FrameKind::Probe,
                points: vec![TimedPoint {
                    t: watermark - 1e9,
                    ..s.points[0]
                }],
                ready_t,
            });
        }
    }
    sort_for_delivery(&mut frames);
    (frames, truth)
}

/// A frame as it goes on the wire, encoded before any clock starts.
#[derive(Debug, Clone)]
pub struct WireFrame {
    pub bytes: Vec<u8>,
    pub points: u32,
    pub kind: FrameKind,
}

fn encode_frame(frame: &Frame) -> Result<WireFrame, String> {
    let payload = match frame.kind {
        FrameKind::Live => {
            encode_append_columns(frame.track, &ColumnarBatch::from_points(&frame.points))
        }
        FrameKind::Backfill | FrameKind::Probe => Request::AppendLate {
            track: frame.track,
            backfill: frame.kind == FrameKind::Backfill,
            points: frame.points.clone(),
        }
        .encode(),
    }
    .map_err(|e| format!("encode frame for track {}: {e}", frame.track))?;
    Ok(WireFrame {
        bytes: frame_to_vec(&payload),
        points: frame.points.len() as u32,
        kind: frame.kind,
    })
}

pub fn encode_frames(frames: &[Frame]) -> Result<Vec<WireFrame>, String> {
    frames.iter().map(encode_frame).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// One cold (evicted, on-disk) track, full time range — 60 %.
    ColdFull,
    /// One cold track, a 300 s window — 20 %.
    Narrow,
    /// A 500 m box around a point of a cold session, every track, over
    /// that session's time span — 10 %.
    Bbox,
    /// One hot (live) track, full range — 10 %.
    Hot,
}

#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    pub kind: QueryKind,
    pub spec: QuerySpec,
}

/// Everything the server holds of one track.
pub fn full_track(track: u64) -> QuerySpec {
    QuerySpec {
        track: Some(track),
        from: f64::NEG_INFINITY,
        to: f64::INFINITY,
        bbox: None,
    }
}

/// Draws one query of the fixed 60/20/10/10 mix. `cold` and `hot` index
/// into `sessions`; an empty class falls back to the other.
pub fn plan_query(
    rng: &mut Rng,
    sessions: &[Session],
    cold: &Range<usize>,
    hot: &Range<usize>,
) -> PlannedQuery {
    let roll = rng.unit();
    let (cold, hot) = match (cold.is_empty(), hot.is_empty()) {
        (true, _) => (hot, hot),
        (_, true) => (cold, cold),
        _ => (cold, hot),
    };
    if roll < 0.6 {
        PlannedQuery {
            kind: QueryKind::ColdFull,
            spec: full_track(sessions[rng.pick(cold)].track),
        }
    } else if roll < 0.8 {
        let s = &sessions[rng.pick(cold)];
        let mid = s.points[rng.below(s.points.len())].t;
        PlannedQuery {
            kind: QueryKind::Narrow,
            spec: QuerySpec {
                track: Some(s.track),
                from: mid - 150.0,
                to: mid + 150.0,
                bbox: None,
            },
        }
    } else if roll < 0.9 {
        let s = &sessions[rng.pick(cold)];
        let c = s.points[rng.below(s.points.len())].pos;
        PlannedQuery {
            kind: QueryKind::Bbox,
            spec: QuerySpec {
                track: None,
                from: s.start_t(),
                to: s.end_t(),
                bbox: Some([c.x - 250.0, c.y - 250.0, c.x + 250.0, c.y + 250.0]),
            },
        }
    } else {
        PlannedQuery {
            kind: QueryKind::Hot,
            spec: full_track(sessions[rng.pick(hot)].track),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = staggered_sessions(7, 100, 12, 50, 10.0);
        assert_eq!(a, staggered_sessions(7, 100, 12, 50, 10.0));
        assert_ne!(a, staggered_sessions(8, 100, 12, 50, 10.0));
        let (fa, ta) = disordered_frames(&a, 60.0, 7);
        let (fb, tb) = disordered_frames(&a, 60.0, 7);
        assert_eq!(fa, fb);
        assert_eq!(ta, tb);
        assert_eq!(in_order_frames(&a), in_order_frames(&a));
        let mut r1 = Rng::new(3);
        let mut r2 = Rng::new(3);
        let q1: Vec<_> = (0..50)
            .map(|_| plan_query(&mut r1, &a, &(0..6), &(6..12)))
            .collect();
        let q2: Vec<_> = (0..50)
            .map(|_| plan_query(&mut r2, &a, &(0..6), &(6..12)))
            .collect();
        assert_eq!(q1, q2);
    }

    #[test]
    fn staggered_starts_are_ordered_and_spaced() {
        let s = staggered_sessions(1, 0, 40, 20, 10.0);
        for (i, w) in s.windows(2).enumerate() {
            assert!(w[0].start_t() <= w[1].start_t(), "session {i} starts late");
            assert!(w[1].start_t() - w[0].start_t() < 20.0);
        }
        assert!(s[39].start_t() >= 390.0 && s[39].start_t() < 400.0);
        assert!(s
            .iter()
            .all(|x| x.points.windows(2).all(|w| w[0].t <= w[1].t)));
    }

    #[test]
    fn in_order_delivery_never_goes_backwards_within_a_track() {
        let s = staggered_sessions(5, 0, 30, 200, 10.0);
        let frames = in_order_frames(&s);
        assert_eq!(
            frames.iter().map(|f| f.points.len()).sum::<usize>(),
            30 * 200
        );
        let mut last: HashMap<u64, f64> = HashMap::new();
        let mut prev_ready = f64::NEG_INFINITY;
        for f in &frames {
            assert!(f.ready_t >= prev_ready, "delivery is merged by stream time");
            prev_ready = f.ready_t;
            let l = last.entry(f.track).or_insert(f64::NEG_INFINITY);
            assert!(f.points[0].t >= *l);
            *l = f.points[f.points.len() - 1].t;
        }
    }

    #[test]
    fn bounded_shuffle_never_exceeds_its_lateness_window() {
        let window = 60.0;
        for seed in [1u64, 2, 3] {
            let s = staggered_sessions(seed, 0, 220, 200, 10.0);
            let (frames, truth) = disordered_frames(&s, window, seed);
            let mut watermark: HashMap<u64, f64> = HashMap::new();
            let (mut late, mut live, mut backfill, mut probes) = (0u64, 0usize, 0u64, 0u64);
            for f in &frames {
                match f.kind {
                    FrameKind::Live => {
                        assert!(f.points.windows(2).all(|w| w[0].t <= w[1].t));
                        let wm = watermark.entry(f.track).or_insert(f64::NEG_INFINITY);
                        for p in &f.points {
                            assert!(
                                p.t >= *wm - window,
                                "track {} point {} is {} s behind",
                                f.track,
                                p.t,
                                *wm - p.t
                            );
                            if wm.is_finite() && p.t < *wm {
                                late += 1;
                            }
                            *wm = wm.max(p.t);
                        }
                        live += f.points.len();
                    }
                    FrameKind::Backfill => {
                        // Held back until the live part is through.
                        let wm = watermark[&f.track];
                        assert!(f.points.iter().all(|p| p.t < wm));
                        backfill += f.points.len() as u64;
                    }
                    FrameKind::Probe => {
                        assert!(f.points[0].t < watermark[&f.track] - window);
                        probes += 1;
                    }
                }
            }
            assert_eq!(live, 220 * 180);
            assert!(late > 0, "the shuffle must actually disorder");
            assert_eq!(
                truth,
                LateTruth {
                    late_points: late,
                    backfill_points: backfill,
                    too_late_points: probes
                }
            );
            assert_eq!(backfill, 220 * 20);
            assert_eq!(probes, 2);
        }
    }

    #[test]
    fn query_mix_follows_the_fixed_shares() {
        let s = staggered_sessions(9, 0, 100, 50, 10.0);
        let mut rng = Rng::new(11);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let q = plan_query(&mut rng, &s, &(0..80), &(80..100));
            let track = q.spec.track;
            match q.kind {
                QueryKind::ColdFull => {
                    counts[0] += 1;
                    assert!(track.unwrap() < 80);
                }
                QueryKind::Narrow => {
                    counts[1] += 1;
                    assert!((q.spec.to - q.spec.from - 300.0).abs() < 1e-6);
                }
                QueryKind::Bbox => {
                    counts[2] += 1;
                    assert!(track.is_none() && q.spec.bbox.is_some());
                }
                QueryKind::Hot => {
                    counts[3] += 1;
                    assert!(track.unwrap() >= 80);
                }
            }
        }
        for (got, want) in counts.iter().zip([2400.0, 800.0, 400.0, 400.0]) {
            assert!((*got as f64 - want).abs() < want * 0.15, "{counts:?}");
        }
    }

    #[test]
    fn wire_frames_decode_back_to_their_points() {
        let s = staggered_sessions(2, 5, 3, 100, 10.0);
        let frames = in_order_frames(&s);
        let wire = encode_frames(&frames).unwrap();
        for (f, w) in frames.iter().zip(&wire) {
            let (payload, used) = bqs_net::wire::decode_frame(&w.bytes).unwrap();
            assert_eq!(used, w.bytes.len());
            let mut batch = ColumnarBatch::new();
            let track = bqs_net::decode_append_columns(&payload, &mut batch).unwrap();
            assert_eq!(track, Some(f.track));
            assert_eq!(batch.to_points(), f.points);
        }
    }
}
