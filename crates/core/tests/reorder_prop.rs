//! Bounded-lateness reorder properties, end to end at the core layer:
//!
//! 1. **Sorted equivalence** — for arbitrary streams shuffled within a
//!    lateness window `W`, the reorder buffer's released-then-drained
//!    output is bit-identical to the sorted stream.
//! 2. **Compression transparency** — feeding the reorder buffer's
//!    releases into a [`ParallelFleet`] yields, at 1/2/8 workers,
//!    per-track kept points byte-identical to ingesting the sorted
//!    streams directly (so spill trees built from either are identical
//!    too; the durable half is asserted in `tests/net_equivalence.rs`).
//! 3. **Typed refusal** — a point more than `W` behind the watermark is
//!    rejected with the exact [`TooLate`] error and the buffer's state
//!    is untouched.
//! 4. **`W = 0` is the codec's rule** — at zero lateness the admission
//!    table admits exactly the batches `bqs_tlog::codec::check_times`
//!    admits against the track's last admitted timestamp, and parks
//!    nothing.

use bqs_core::fleet::reorder::{FleetReorder, Released, ReorderBuffer, TooLate};
use bqs_core::fleet::{FleetConfig, ParallelConfig, ParallelFleet, TrackId};
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_geo::TimedPoint;
use bqs_tlog::codec::check_times;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// A strictly time-increasing walk: shape is a pure function of
/// `(track, seed)`, so the sorted reference recomputes it.
fn track_trace(track: u64, seed: u64, n: usize) -> Vec<TimedPoint> {
    let mut s = (seed ^ track.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    let mut x = 0.0f64;
    let mut y = 0.0f64;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            x += (lcg(&mut s) % 2_000) as f64 / 100.0 - 10.0;
            y += (lcg(&mut s) % 2_000) as f64 / 100.0 - 10.0;
            t += 0.5 + (lcg(&mut s) % 1_000) as f64 / 100.0;
            TimedPoint::new(x, y, t)
        })
        .collect()
}

/// A seeded shuffle bounded to `margin` of the lateness window: each
/// emission is drawn from the sorted prefix whose timestamps lie within
/// `margin * window` of the earliest unsent point. Every emission then
/// satisfies `t >= watermark - margin * window`, so a reorder buffer
/// with window `window` accepts the whole stream.
fn bounded_shuffle(sorted: &[TimedPoint], window: f64, seed: u64) -> Vec<TimedPoint> {
    let mut rest: VecDeque<TimedPoint> = sorted.iter().copied().collect();
    let mut out = Vec::with_capacity(sorted.len());
    let mut s = seed | 1;
    while let Some(&front) = rest.front() {
        let limit = rest
            .iter()
            .take_while(|p| p.t - front.t <= 0.75 * window)
            .count()
            .max(1);
        let pick = lcg(&mut s) as usize % limit;
        out.push(rest.remove(pick).expect("pick < len"));
    }
    out
}

fn bits_eq(a: &TimedPoint, b: &TimedPoint) -> bool {
    a.pos.x.to_bits() == b.pos.x.to_bits()
        && a.pos.y.to_bits() == b.pos.y.to_bits()
        && a.t.to_bits() == b.t.to_bits()
}

fn fleet(workers: usize) -> ParallelFleet<HashMap<TrackId, Vec<TimedPoint>>> {
    let config = BqsConfig::new(10.0).unwrap();
    ParallelFleet::new(
        ParallelConfig {
            workers,
            fleet: FleetConfig::default(),
        },
        move || FastBqsCompressor::new(config),
        |_| HashMap::new(),
    )
}

fn merged(
    join: bqs_core::fleet::FleetJoin<HashMap<TrackId, Vec<TimedPoint>>>,
) -> HashMap<TrackId, Vec<TimedPoint>> {
    assert!(join.is_ok());
    let mut all = HashMap::new();
    for shard in join.shards {
        for (track, points) in shard.sink {
            assert!(all.insert(track, points).is_none(), "track in two shards");
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any ≤W-disordered stream comes out of the buffer bit-identical
    /// to the sorted stream, and nothing is refused.
    #[test]
    fn within_window_disorder_is_invisible(
        seed in 0u64..1_000_000,
        n in 1usize..300,
        window in 1.0f64..200.0,
    ) {
        let sorted = track_trace(0, seed, n);
        let shuffled = bounded_shuffle(&sorted, window, seed ^ 0xABCD);
        let mut buf = ReorderBuffer::new(window);
        let mut out = Vec::new();
        for p in &shuffled {
            prop_assert!(buf.push(*p, &mut out).is_ok());
        }
        out.extend(buf.drain());
        prop_assert_eq!(out.len(), sorted.len());
        for (a, b) in sorted.iter().zip(&out) {
            prop_assert!(bits_eq(a, b), "{a:?} vs {b:?}");
        }
    }

    /// Reorder-buffered ingest into a parallel fleet ≡ sorted ingest,
    /// per track, at 1/2/8 workers — kept points byte for byte.
    #[test]
    fn reorder_fed_fleet_equals_sorted_fleet_at_any_worker_count(
        seed in 0u64..1_000_000,
        sessions in 2usize..10,
        per_track in 20usize..120,
        window in 5.0f64..100.0,
    ) {
        let traces: Vec<Vec<TimedPoint>> = (0..sessions)
            .map(|t| track_trace(t as u64, seed, per_track))
            .collect();
        let disordered: Vec<Vec<TimedPoint>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| bounded_shuffle(trace, window, seed ^ ((t as u64) << 7)))
            .collect();

        for workers in [1usize, 2, 8] {
            // Reference: sorted streams straight into the fleet.
            let mut sorted_fleet = fleet(workers);
            for (t, trace) in traces.iter().enumerate() {
                sorted_fleet.submit_run(t as TrackId, trace.clone());
            }
            let want = merged(sorted_fleet.join());

            // Candidate: disordered streams through per-track reorder
            // buffers, released points (plus the final drain) submitted
            // in release order.
            let mut reorder = FleetReorder::new(window);
            let mut reordered_fleet = fleet(workers);
            let mut released = Vec::new();
            for (t, trace) in disordered.iter().enumerate() {
                released.clear();
                for p in trace {
                    prop_assert!(reorder.push(t as TrackId, *p, &mut released).is_ok());
                }
                if !released.is_empty() {
                    reordered_fleet.submit_run(t as TrackId, released.clone());
                }
            }
            for (track, tail) in reorder.drain_all() {
                reordered_fleet.submit_run(track, tail);
            }
            let got = merged(reordered_fleet.join());

            prop_assert_eq!(got.len(), want.len(), "workers={}", workers);
            for (track, want_points) in &want {
                let got_points = &got[track];
                prop_assert_eq!(got_points.len(), want_points.len(),
                    "workers={} track={}", workers, track);
                for (a, b) in want_points.iter().zip(got_points) {
                    prop_assert!(bits_eq(a, b),
                        "workers={workers} track={track}: {a:?} vs {b:?}");
                }
            }
        }
    }

    /// A point strictly more than W behind the watermark is refused with
    /// the exact typed error, and the refusal has no side effects.
    #[test]
    fn beyond_window_points_are_refused_with_the_exact_error(
        seed in 0u64..1_000_000,
        n in 1usize..100,
        window in 0.0f64..50.0,
        behind in 1.0f64..1_000.0,
    ) {
        let sorted = track_trace(0, seed, n);
        let mut buf = ReorderBuffer::new(window);
        let mut out = Vec::new();
        for p in &sorted {
            buf.push(*p, &mut out).unwrap();
        }
        let watermark = sorted.last().unwrap().t;
        let depth_before = buf.len();
        let t_late = watermark - window - behind;
        let err = buf
            .push(TimedPoint::new(0.0, 0.0, t_late), &mut out)
            .unwrap_err();
        prop_assert_eq!(err, TooLate { t: t_late, watermark, window });
        prop_assert_eq!(buf.len(), depth_before);
        prop_assert_eq!(buf.watermark(), Some(watermark));

        // …and the boundary itself is admitted: exactly W behind is
        // still within the window.
        prop_assert!(buf.admits(watermark - window));
    }
    /// At `W = 0` the table is the codec's time-order rule: over random
    /// batch sequences on a few tracks (finite timestamps with ties,
    /// in-batch rewinds and batches starting behind the watermark) it
    /// admits exactly the batches `check_times(batch, watermark)`
    /// admits, passes each one through whole, parks nothing, keeps each
    /// track's watermark at its last admitted `t` and the stream clock
    /// at the largest admitted `t`.
    #[test]
    fn at_zero_lateness_the_table_admits_what_the_codec_rule_admits(
        seed in 0u64..1_000_000,
        batches in 1usize..120,
    ) {
        let mut s = seed | 1;
        let mut table = FleetReorder::new(0.0);
        let mut watermarks: HashMap<TrackId, f64> = HashMap::new();
        let mut clock = f64::NEG_INFINITY;
        let mut base = 0.0f64;
        for _ in 0..batches {
            let track = lcg(&mut s) % 3;
            let len = (lcg(&mut s) % 6) as usize;
            // Whole-second steps in [-2, 4]: ties, rewinds and gaps.
            base += (lcg(&mut s) % 5) as f64 - 1.0;
            let mut t = base;
            let batch: Vec<TimedPoint> = (0..len)
                .map(|i| {
                    t += (lcg(&mut s) % 7) as f64 - 2.0;
                    TimedPoint::new(i as f64, -(i as f64), t)
                })
                .collect();
            let watermark = watermarks.get(&track).copied().unwrap_or(f64::NEG_INFINITY);
            let want = check_times(batch.iter().map(|p| p.t), watermark).is_ok();
            match table.admit(track, batch.iter().copied()) {
                Ok(admitted) => {
                    prop_assert!(want, "admitted a batch the codec refuses: {batch:?}");
                    prop_assert_eq!(admitted.late, 0);
                    prop_assert_eq!(admitted.depth, 0);
                    prop_assert!(matches!(admitted.released, Released::Run(_)));
                    if let Some(last) = batch.last() {
                        watermarks.insert(track, last.t);
                        clock = clock.max(last.t);
                    }
                }
                Err(_) => prop_assert!(!want, "refused a batch the codec admits: {batch:?}"),
            }
            prop_assert_eq!(table.depth(), 0);
            prop_assert_eq!(table.watermark(track), watermarks.get(&track).copied());
            prop_assert_eq!(table.clock(), clock.is_finite().then_some(clock));
        }
    }
}
