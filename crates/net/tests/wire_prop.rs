//! Property tests for the wire codec: every message type round-trips
//! through encode → frame → deframe → decode for arbitrary contents,
//! and every way a frame can be damaged in transit — torn anywhere,
//! truncated length prefix, corrupted payload or checksum — is a typed
//! rejection, never a panic or silent acceptance.

use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_net::wire::{
    decode_append_columns, decode_frame, encode_append_columns, frame_to_vec, ErrorCode,
    QueryReport, QuerySpec, Reply, Request, ShardStat, StatsReport, WireError, HEADER_BYTES,
    PROTOCOL_VERSION,
};
use bqs_tlog::codec::{encode_columns_with, encode_points_with, CodecProfile};
use bqs_tlog::TrackSlice;
use proptest::prelude::*;

/// A deterministic pseudo-random point stream with non-decreasing
/// timestamps (what the codec embedded in `Append`/`QueryResult`
/// requires).
fn points(seed: u64, n: usize) -> Vec<TimedPoint> {
    let mut s = seed | 1;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
    };
    let mut x = rnd() * 1_000.0;
    let mut y = rnd() * 1_000.0;
    let mut t = rnd().abs() * 100.0;
    (0..n)
        .map(|_| {
            x += rnd() * 40.0;
            y += rnd() * 40.0;
            t += rnd().abs() * 30.0;
            TimedPoint::new(x, y, t)
        })
        .collect()
}

/// One of each request kind, parameterised by the generated inputs.
fn requests(seed: u64, track: u64, n: usize) -> Vec<Request> {
    vec![
        Request::Hello {
            protocol: PROTOCOL_VERSION,
        },
        Request::Append {
            track,
            points: points(seed, n),
        },
        Request::Flush,
        Request::Query(QuerySpec {
            track: track.is_multiple_of(2).then_some(track),
            from: if track.is_multiple_of(3) {
                f64::NEG_INFINITY
            } else {
                seed as f64 * 0.25
            },
            to: seed as f64 + n as f64,
            bbox: (!track.is_multiple_of(2))
                .then(|| [-(seed as f64), 0.5, track as f64 * 3.0, n as f64 * 7.0]),
        }),
        Request::Stats,
        Request::Metrics {
            prom: track.is_multiple_of(2),
        },
        Request::TraceDump {
            last: track.is_multiple_of(2).then_some(seed % 4096),
            conn: track.is_multiple_of(3).then_some(track),
        },
        Request::Shutdown,
    ]
}

/// One of each reply kind, parameterised by the generated inputs.
fn replies(seed: u64, track: u64, n: usize) -> Vec<Reply> {
    vec![
        Reply::HelloOk {
            protocol: PROTOCOL_VERSION,
            workers: track + 1,
        },
        Reply::Appended {
            track,
            points: n as u64,
        },
        Reply::Flushed,
        Reply::QueryResult(QueryReport {
            slices: vec![
                TrackSlice {
                    track,
                    points: points(seed, n),
                },
                TrackSlice {
                    track: track + 9,
                    points: points(seed ^ 7, n / 2),
                },
            ],
            shards_pruned: track % 8,
            hot_points: seed % 1_000,
            candidate_records: seed % 500,
            decoded_records: seed % 100,
        }),
        Reply::StatsReply(StatsReport {
            stats: Default::default(),
            shards: (0..(track % 5))
                .map(|k| ShardStat {
                    shard: k,
                    tracks: k * 3,
                    submitted_points: seed.wrapping_mul(k + 1),
                    dead: k % 2 == 1,
                })
                .collect(),
            connections: track,
            appended_points: seed,
            uptime_s: seed % 86_400,
            live_connections: track % 64,
            peak_connections: track % 64 + 1,
            rejected_connections: seed % 17,
        }),
        Reply::ShuttingDown {
            connections: track,
            appended_points: seed,
        },
        Reply::MetricsReply {
            text: format!("net_frames_total {seed}\nfleet_submitted_points_total {track}\n"),
        },
        Reply::TraceReply {
            dropped: seed % 100,
            events: (0..(n as u64 % 17))
                .map(|i| bqs_obs::TraceEvent {
                    seq: seed.wrapping_add(i),
                    at_us: seed.wrapping_mul(i + 1),
                    kind: match i % 7 {
                        0 => bqs_obs::TraceEventKind::Accept,
                        1 => bqs_obs::TraceEventKind::FrameDecode,
                        2 => bqs_obs::TraceEventKind::FleetSubmit,
                        3 => bqs_obs::TraceEventKind::Spill,
                        4 => bqs_obs::TraceEventKind::ReplyFlush,
                        5 => bqs_obs::TraceEventKind::Reject,
                        _ => bqs_obs::TraceEventKind::Evict,
                    },
                    conn: track.wrapping_add(i),
                    value: seed ^ i,
                })
                .collect(),
        },
        Reply::Error {
            code: ErrorCode::Internal,
            message: format!("seed {seed} track {track} × {n} — tüv ✓"),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message type survives encode → frame → deframe → decode
    /// bit-exactly, for arbitrary tracks, batch sizes and bounds.
    #[test]
    fn every_message_round_trips_through_a_frame(
        seed in 0u64..1_000_000,
        track in 0u64..10_000,
        n in 1usize..200,
    ) {
        for request in requests(seed, track, n) {
            let payload = request.encode().expect("encode request");
            let framed = frame_to_vec(&payload);
            let (deframed, consumed) = decode_frame(&framed).expect("deframe");
            prop_assert_eq!(consumed, framed.len());
            prop_assert_eq!(Request::decode(&deframed).expect("decode"), request);
        }
        for reply in replies(seed, track, n) {
            let payload = reply.encode().expect("encode reply");
            let framed = frame_to_vec(&payload);
            let (deframed, _) = decode_frame(&framed).expect("deframe");
            prop_assert_eq!(Reply::decode(&deframed).expect("decode"), reply);
        }
    }

    /// A frame cut anywhere — inside the length prefix, the payload or
    /// the checksum trailer — is a typed torn-frame error.
    #[test]
    fn torn_frames_are_typed_errors_at_every_cut(
        seed in 0u64..1_000_000,
        track in 0u64..10_000,
        n in 1usize..60,
        cut_pct in 0usize..100,
    ) {
        let payload = Request::Append { track, points: points(seed, n) }
            .encode()
            .expect("encode");
        let framed = frame_to_vec(&payload);
        // Cuts spanning all three regions, the length prefix included.
        let cuts = [
            cut_pct % HEADER_BYTES,                  // inside magic + length prefix
            HEADER_BYTES + (framed.len() - HEADER_BYTES) * cut_pct / 100,
            framed.len() - 1,
        ];
        for cut in cuts {
            let cut = cut.min(framed.len() - 1);
            // A cut inside the header reports the header shortfall (the
            // length prefix is not yet readable); past it, the shortfall
            // of the whole frame.
            let expected_needed = if cut < HEADER_BYTES {
                HEADER_BYTES - cut
            } else {
                framed.len() - cut
            };
            match decode_frame(&framed[..cut]) {
                Err(WireError::Torn { needed, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert_eq!(needed, expected_needed);
                }
                other => prop_assert!(false, "cut {}: {:?}", cut, other),
            }
        }
    }

    /// Flipping any payload or checksum bit is a CRC mismatch; the
    /// damaged frame never decodes to a different message.
    #[test]
    fn corrupted_frames_fail_the_checksum(
        seed in 0u64..1_000_000,
        track in 0u64..10_000,
        n in 1usize..60,
        victim_pct in 0usize..100,
        bit in 0u8..8,
    ) {
        let payload = Request::Append { track, points: points(seed, n) }
            .encode()
            .expect("encode");
        let mut framed = frame_to_vec(&payload);
        // Corrupt a byte anywhere past the header: payload or trailer.
        let body = framed.len() - HEADER_BYTES;
        let victim = HEADER_BYTES + body * victim_pct / 100;
        let victim = victim.min(framed.len() - 1);
        framed[victim] ^= 1 << bit;
        prop_assert!(
            matches!(decode_frame(&framed), Err(WireError::BadCrc { .. })),
            "flip at byte {} bit {} went undetected", victim, bit
        );
    }

    /// Random garbage never panics the deframer or the decoders: every
    /// outcome is `Ok` or a typed error.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=255, 0..400),
    ) {
        let _ = decode_frame(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Reply::decode(&bytes);
        let _ = decode_append_columns(&bytes, &mut ColumnarBatch::new());
    }

    /// The columnar fast path is byte-for-byte the row path, end to
    /// end: codec blob (both profiles), `Append` payload, and the
    /// decoded batch — for arbitrary tracks and batch sizes (empty
    /// included). On an invalid batch — a backwards `t`, a NaN `t`, an
    /// x off the quantized grid — both entry points refuse with the same
    /// error and leave their output untouched.
    #[test]
    fn columnar_append_path_is_byte_identical_to_the_row_path(
        seed in 0u64..1_000_000,
        track in 0u64..10_000,
        n in 0usize..200,
    ) {
        let pts = points(seed, n);
        let batch = ColumnarBatch::from_points(&pts);

        let mut cases = vec![pts.clone()];
        if n >= 2 {
            let i = 1 + seed as usize % (n - 1);
            let mut backwards = pts.clone();
            backwards[i].t = pts[i - 1].t - 1.0;
            let mut nan = pts.clone();
            nan[i].t = f64::NAN;
            let mut off_grid = pts.clone();
            off_grid[i].pos.x = 1e300;
            cases.extend([backwards, nan, off_grid]);
        }
        let prefix = vec![0xA5; seed as usize % 5];
        for case in &cases {
            let case_batch = ColumnarBatch::from_points(case);
            // Codec layer: identical bytes, or identical refusals that
            // write nothing.
            for profile in [CodecProfile::Exact, CodecProfile::millimetre()] {
                let mut row = prefix.clone();
                let row_result = encode_points_with(profile, case, &mut row);
                let mut col = prefix.clone();
                let col_result = encode_columns_with(profile, &case_batch, &mut col);
                prop_assert_eq!(row_result, col_result);
                prop_assert_eq!(&row, &col);
                if row_result.is_err() {
                    prop_assert_eq!(&row, &prefix);
                }
            }
            // Wire layer: identical `Append` payloads or refusals.
            prop_assert_eq!(
                Request::Append { track, points: case.clone() }.encode(),
                encode_append_columns(track, &case_batch)
            );
        }

        let row_payload = Request::Append { track, points: pts.clone() }
            .encode()
            .expect("row payload");

        // ...and the fast-path decoder recovers exactly the batch.
        let mut decoded = ColumnarBatch::new();
        let got_track = decode_append_columns(&row_payload, &mut decoded)
            .expect("fast-path decode")
            .expect("payload is an Append");
        prop_assert_eq!(got_track, track);
        prop_assert_eq!(decoded, batch);
    }
}
