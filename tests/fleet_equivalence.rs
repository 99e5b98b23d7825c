//! Fleet-engine guarantees, property-tested end to end:
//!
//! 1. **Interleaving equivalence** — pushing N tracks through one
//!    [`FleetEngine`] in an arbitrary interleaving yields output
//!    byte-identical to compressing each track alone with a fresh
//!    compressor. Session state must never leak across tracks, even with
//!    evictions in the mix.
//! 2. **Per-session error bound** — every session's output independently
//!    satisfies the configured deviation tolerance.
//! 3. **No silent closes** — under any mix of pushes, evictions, single
//!    finishes and `finish_all`, with track ids reopening after a close,
//!    every session opened is closed exactly once: one returned
//!    [`SessionReport`] and one `session_closed` call, carrying that
//!    session's own statistics, which sum to [`FleetEngine::stats`].
//! 4. **Zero-allocation counting path** — a whole trace compresses through
//!    [`CountingSink`] without materialising any output storage.

use bqs::core::fleet::{
    CountingFleetSink, FleetConfig, FleetEngine, FleetSink, FlushReason, SessionReport, TrackId,
};
use bqs::core::metrics::DeviationMetric;
use bqs::core::stream::{
    compress_all, compress_all_with_stats, compress_into, CountingSink, DecisionStats,
    HasDecisionStats, StreamCompressor,
};
use bqs::core::{BqsCompressor, BqsConfig, FastBqsCompressor};
use bqs::eval::verify_deviation_bound;
use bqs::geo::TimedPoint;
use proptest::prelude::*;
use std::collections::HashMap;

/// A deterministic per-track trajectory: piecewise walk whose shape is a
/// pure function of `(track, seed)`, so the solo reference recomputes it.
fn track_trace(track: u64, seed: u64, n: usize) -> Vec<TimedPoint> {
    let mut s = seed ^ track.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
    };
    let mut x = rnd() * 1_000.0;
    let mut y = rnd() * 1_000.0;
    (0..n)
        .map(|i| {
            x += rnd() * 25.0;
            y += rnd() * 25.0;
            TimedPoint::new(x, y, i as f64 * 10.0)
        })
        .collect()
}

/// Interleaves `traces` into one record stream using a deterministic
/// shuffle of per-track cursors.
fn interleave(traces: &[Vec<TimedPoint>], seed: u64) -> Vec<(TrackId, TimedPoint)> {
    let mut cursors: Vec<usize> = vec![0; traces.len()];
    let mut remaining: usize = traces.iter().map(Vec::len).sum();
    let mut records = Vec::with_capacity(remaining);
    let mut s = seed | 1;
    while remaining > 0 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (s >> 33) as usize % traces.len();
        // Advance to a track that still has points (wrapping scan keeps
        // the shuffle cheap and deterministic).
        for off in 0..traces.len() {
            let t = (pick + off) % traces.len();
            if cursors[t] < traces[t].len() {
                records.push((t as TrackId, traces[t][cursors[t]]));
                cursors[t] += 1;
                remaining -= 1;
                break;
            }
        }
    }
    records
}

/// A fleet sink that keeps every `session_closed` report, in call order.
#[derive(Default)]
struct CloseLog {
    closed: Vec<SessionReport>,
}

impl FleetSink for CloseLog {
    fn accept(&mut self, _track: TrackId, _point: TimedPoint) {}

    fn session_closed(&mut self, report: &SessionReport) {
        self.closed.push(*report);
    }
}

/// Decision statistics of one session's points compressed alone by a
/// fresh compressor: finished (a closed session) or not (a live one).
fn solo_stats<C, F>(factory: &F, points: &[TimedPoint], finished: bool) -> DecisionStats
where
    C: StreamCompressor + HasDecisionStats,
    F: Fn() -> C,
{
    let mut compressor = factory();
    if finished {
        return compress_all_with_stats(&mut compressor, points.iter().copied()).1;
    }
    let mut sink = CountingSink::new();
    for p in points {
        compressor.push(*p, &mut sink);
    }
    compressor.decision_stats()
}

/// Drives one engine through `ops` seeded calls — `push_tagged` (mostly),
/// `evict_idle_now`, `finish_track_tagged` and `finish_all`, then a final
/// `finish_all` — over a handful of track ids that keep reopening after
/// they close, against a model of each live session's points. Checks the
/// "No silent closes" invariant after every close and at the end.
fn check_no_silent_closes<C, F>(factory: F, seed: u64, ops: usize)
where
    C: StreamCompressor + HasDecisionStats,
    F: Fn() -> C + Clone,
{
    const TRACKS: u64 = 8;
    const IDLE: f64 = 60.0;
    let mut fleet = FleetEngine::new(FleetConfig { idle_timeout: IDLE }, factory.clone());
    let mut sink = CloseLog::default();
    let mut live: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
    let mut reports: Vec<SessionReport> = Vec::new();
    let (mut opened, mut clock, mut s) = (0usize, 0.0f64, seed | 1);
    let mut next = move |n: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % n
    };
    let mut pos = [(0.0f64, 0.0f64); TRACKS as usize];
    for op in 0..=ops {
        let pick = if op == ops { 19 } else { next(20) };
        // Each close op yields what it returned and the tracks it must close.
        let (returned, mut expected, reason): (Vec<SessionReport>, Vec<TrackId>, _) = match pick {
            0..=14 => {
                let track = next(TRACKS);
                clock += 1.0 + next(20) as f64;
                let (x, y) = &mut pos[track as usize];
                *x += next(50) as f64 - 20.0;
                *y += next(50) as f64 - 25.0;
                let p = TimedPoint::new(*x, *y, clock);
                live.entry(track)
                    .or_insert_with(|| {
                        opened += 1;
                        Vec::new()
                    })
                    .push(p);
                fleet.push_tagged(track, p, &mut sink);
                continue;
            }
            15 | 16 => (
                fleet.evict_idle_now(&mut sink),
                live.iter()
                    .filter(|(_, points)| points.last().unwrap().t < clock - IDLE)
                    .map(|(track, _)| *track)
                    .collect(),
                FlushReason::Evicted,
            ),
            17 | 18 => {
                let track = next(TRACKS);
                (
                    fleet
                        .finish_track_tagged(track, &mut sink)
                        .into_iter()
                        .collect(),
                    live.contains_key(&track)
                        .then_some(track)
                        .into_iter()
                        .collect(),
                    FlushReason::Finished,
                )
            }
            _ => (
                fleet.finish_all(&mut sink),
                live.keys().copied().collect(),
                FlushReason::Finished,
            ),
        };
        let mut got: Vec<TrackId> = returned.iter().map(|r| r.track).collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "closed tracks ({reason:?})");
        for report in returned {
            let points = live.remove(&report.track).expect("closed a live session");
            assert_eq!(
                (report.reason, report.points),
                (reason, points.len() as u64)
            );
            assert_eq!(
                report.stats,
                solo_stats(&factory, &points, true),
                "track {}: report stats are not this session's alone",
                report.track
            );
            reports.push(report);
        }
        let mut want = DecisionStats::default();
        let live_stats = live
            .values()
            .map(|points| solo_stats(&factory, points, false));
        for stats in reports.iter().map(|r| r.stats).chain(live_stats) {
            want.merge(&stats);
        }
        assert_eq!(fleet.stats(), want, "fleet stats ≠ reports + live sessions");
        assert_eq!(fleet.active_sessions(), live.len());
    }
    assert!(live.is_empty());
    assert_eq!(reports.len(), opened, "sessions opened ≠ reports returned");
    assert_eq!(
        sink.closed, reports,
        "session_closed calls ≠ reports returned"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// "No silent closes", for both compressor families: sessions opened
    /// = reports returned = `session_closed` calls, each report's stats
    /// are its session's alone, and the fleet total is their sum plus
    /// the live sessions.
    #[test]
    fn every_session_closes_exactly_once_with_its_own_stats(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
        ops in 200usize..400,
    ) {
        let config = BqsConfig::new(tol).unwrap();
        check_no_silent_closes(move || FastBqsCompressor::new(config), seed, ops);
        check_no_silent_closes(move || BqsCompressor::new(config), seed, ops);
    }

    /// ≥ 100 concurrent sessions, arbitrary interleaving, arbitrary
    /// tolerance: fleet output ≡ solo output, per track, byte for byte.
    #[test]
    fn interleaving_is_equivalent_to_solo_compression(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
        sessions in 100usize..140,
        per_track in 30usize..80,
    ) {
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, per_track)).collect();
        let records = interleave(&traces, seed);

        let config = BqsConfig::new(tol).unwrap();
        let mut fleet =
            FleetEngine::with_default_config(move || FastBqsCompressor::new(config));
        let mut tagged: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
        fleet.ingest(records, &mut tagged);
        fleet.finish_all(&mut tagged);

        for (t, trace) in traces.iter().enumerate() {
            let mut solo = FastBqsCompressor::new(config);
            let solo_out = compress_all(&mut solo, trace.iter().copied());
            prop_assert_eq!(
                &tagged[&(t as u64)],
                &solo_out,
                "track {} diverged under interleaving",
                t
            );
        }
    }

    /// Same property for the buffered BQS variant (exact-scan buffer is
    /// the hardest state to keep per-session).
    #[test]
    fn interleaving_equivalence_holds_for_buffered_bqs(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
    ) {
        let sessions = 100usize;
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, 40)).collect();
        let records = interleave(&traces, seed.wrapping_add(1));

        let config = BqsConfig::new(tol).unwrap();
        let mut fleet = FleetEngine::with_default_config(move || BqsCompressor::new(config));
        let mut tagged: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
        fleet.ingest(records, &mut tagged);
        fleet.finish_all(&mut tagged);

        for (t, trace) in traces.iter().enumerate() {
            let mut solo = BqsCompressor::new(config);
            let solo_out = compress_all(&mut solo, trace.iter().copied());
            prop_assert_eq!(&tagged[&(t as u64)], &solo_out, "track {} diverged", t);
        }
    }

    /// Every session's output independently satisfies the error bound.
    #[test]
    fn error_bound_holds_per_session(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
    ) {
        let sessions = 100usize;
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, 50)).collect();
        let records = interleave(&traces, seed.wrapping_add(2));

        let config = BqsConfig::new(tol).unwrap();
        let mut fleet =
            FleetEngine::with_default_config(move || FastBqsCompressor::new(config));
        let mut tagged: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();
        fleet.ingest(records, &mut tagged);
        fleet.finish_all(&mut tagged);

        for (t, trace) in traces.iter().enumerate() {
            let kept = &tagged[&(t as u64)];
            let worst = verify_deviation_bound(trace, kept, DeviationMetric::PointToLine)
                .expect("fleet output must be an anchored subsequence");
            prop_assert!(
                worst <= tol + 1e-9,
                "track {}: worst deviation {} > tolerance {}",
                t, worst, tol
            );
        }
    }

    /// Evictions mid-stream must not corrupt surviving sessions: evict the
    /// idle half, keep pushing the rest, and the survivors still match
    /// solo compression.
    #[test]
    fn eviction_does_not_disturb_live_sessions(
        seed in 0u64..1_000_000,
        tol in 2.0f64..40.0,
    ) {
        let sessions = 100usize;
        let traces: Vec<Vec<TimedPoint>> =
            (0..sessions).map(|t| track_trace(t as u64, seed, 60)).collect();

        let config = BqsConfig::new(tol).unwrap();
        let mut fleet = FleetEngine::new(
            FleetConfig { idle_timeout: 100.0 },
            move || FastBqsCompressor::new(config),
        );
        let mut tagged: HashMap<TrackId, Vec<TimedPoint>> = HashMap::new();

        // Phase 1: everyone pushes their first 20 points (t ≤ 190).
        for i in 0..20 {
            for (t, trace) in traces.iter().enumerate() {
                fleet.push_tagged(t as u64, trace[i], &mut tagged);
            }
        }
        // Phase 2: only even tracks continue (t up to 590); odd tracks go
        // idle and get evicted on the way.
        for i in 20..60 {
            for (t, trace) in traces.iter().enumerate() {
                if t % 2 == 0 {
                    fleet.push_tagged(t as u64, trace[i], &mut tagged);
                }
            }
            fleet.evict_idle_now(&mut tagged);
        }
        fleet.finish_all(&mut tagged);

        // Surviving (even) tracks saw their full trace: must equal solo.
        for (t, trace) in traces.iter().enumerate().filter(|(t, _)| t % 2 == 0) {
            let mut solo = FastBqsCompressor::new(config);
            let solo_out = compress_all(&mut solo, trace.iter().copied());
            prop_assert_eq!(&tagged[&(t as u64)], &solo_out, "surviving track {}", t);
        }
        // Evicted (odd) tracks saw a 20-point prefix: must equal solo over
        // that prefix.
        for (t, trace) in traces.iter().enumerate().filter(|(t, _)| t % 2 == 1) {
            let mut solo = FastBqsCompressor::new(config);
            let solo_out = compress_all(&mut solo, trace[..20].iter().copied());
            prop_assert_eq!(&tagged[&(t as u64)], &solo_out, "evicted track {}", t);
        }
    }
}

/// The counting path stores nothing: the sink is a bare counter (one
/// machine word of state, no heap), and compressing through it produces
/// the same count as the materialising path.
#[test]
fn counting_sink_path_allocates_no_output_vector() {
    assert_eq!(
        std::mem::size_of::<CountingSink>(),
        std::mem::size_of::<usize>()
    );

    let trace = track_trace(0, 7, 5_000);
    let config = BqsConfig::new(10.0).unwrap();

    let mut counting = FastBqsCompressor::new(config);
    let mut sink = CountingSink::new();
    compress_into(&mut counting, trace.iter().copied(), &mut sink);

    let mut materialising = FastBqsCompressor::new(config);
    let kept = compress_all(&mut materialising, trace.iter().copied());

    assert_eq!(sink.count, kept.len());
    assert!(sink.count >= 2);
}

/// Same guarantee at fleet level: a whole fleet compresses through a
/// word-sized counter.
#[test]
fn fleet_counting_path_allocates_no_output_vector() {
    assert_eq!(
        std::mem::size_of::<CountingFleetSink>(),
        std::mem::size_of::<usize>()
    );
    let config = BqsConfig::new(10.0).unwrap();
    let mut fleet = FleetEngine::with_default_config(move || FastBqsCompressor::new(config));
    let mut sink = CountingFleetSink::default();
    for t in 0..128u64 {
        for p in track_trace(t, 3, 50) {
            fleet.push_tagged(t, p, &mut sink);
        }
    }
    fleet.finish_all(&mut sink);
    assert!(sink.count >= 2 * 128);
}
