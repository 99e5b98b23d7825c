//! Golden bytes for the wire protocol: one fixed value per request tag
//! and per reply tag (all three `SubEvent` kinds), each framed and
//! compared byte for byte against hex recorded before the subscriber
//! delivery moved onto the I/O pool.
//!
//! `wire_prop.rs` proves that every message round-trips, which cannot
//! catch a change made the same way to the encoder and the decoder;
//! this table can. A change that is *meant* to move wire bytes is a
//! protocol change: run with `--nocapture`, and the failure message
//! prints the table in source form.

use bqs_core::stream::DecisionStats;
use bqs_geo::TimedPoint;
use bqs_net::wire::frame_to_vec;
use bqs_net::{
    ErrorCode, QueryReport, QuerySpec, Reply, Request, ShardStat, StatsReport, PROTOCOL_VERSION,
};
use bqs_obs::{TraceEvent, TraceEventKind};
use bqs_tlog::TrackSlice;

fn points() -> Vec<TimedPoint> {
    vec![
        TimedPoint::new(1.5, -2.0, 10.0),
        TimedPoint::new(3.0, 0.25, 20.0),
    ]
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "hello",
            Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
        ),
        (
            "append",
            Request::Append {
                track: 7,
                points: points(),
            },
        ),
        ("flush", Request::Flush),
        (
            "query",
            Request::Query(QuerySpec {
                track: Some(7),
                from: f64::NEG_INFINITY,
                to: 100.0,
                bbox: Some([0.0, -1.0, 5.0, 4.0]),
            }),
        ),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
        ("metrics", Request::Metrics { prom: true }),
        (
            "subscribe",
            Request::Subscribe {
                track: Some(3),
                bbox: Some([-1.0, -1.0, 1.0, 1.0]),
            },
        ),
        (
            "append-late",
            Request::AppendLate {
                track: 7,
                backfill: true,
                points: points(),
            },
        ),
        (
            "trace-dump",
            Request::TraceDump {
                last: Some(50),
                conn: Some(2),
            },
        ),
    ]
}

fn replies() -> Vec<(&'static str, Reply)> {
    vec![
        (
            "hello-ok",
            Reply::HelloOk {
                protocol: PROTOCOL_VERSION,
                workers: 4,
            },
        ),
        (
            "appended",
            Reply::Appended {
                track: 7,
                points: 64,
            },
        ),
        ("flushed", Reply::Flushed),
        (
            "query-result",
            Reply::QueryResult(QueryReport {
                slices: vec![TrackSlice {
                    track: 7,
                    points: points(),
                }],
                shards_pruned: 1,
                hot_points: 2,
                candidate_records: 3,
                decoded_records: 1,
            }),
        ),
        (
            "stats-reply",
            Reply::StatsReply(StatsReport {
                stats: DecisionStats {
                    points: 100,
                    trivial: 60,
                    by_bounds: 30,
                    full_scans: 1,
                    warmup_scans: 5,
                    aggressive_cuts: 4,
                    segments: 2,
                },
                shards: vec![ShardStat {
                    shard: 0,
                    tracks: 3,
                    submitted_points: 100,
                    dead: false,
                }],
                connections: 4,
                appended_points: 100,
                uptime_s: 61,
                live_connections: 2,
                peak_connections: 3,
                rejected_connections: 1,
            }),
        ),
        (
            "shutting-down",
            Reply::ShuttingDown {
                connections: 2,
                appended_points: 99,
            },
        ),
        (
            "metrics-reply",
            Reply::MetricsReply {
                text: "net_frames_total 12\n".to_string(),
            },
        ),
        ("sub-event/subscribed", Reply::Subscribed),
        (
            "sub-event/points",
            Reply::SubPoints {
                track: 7,
                points: points(),
            },
        ),
        ("sub-event/end", Reply::SubEnd),
        (
            "late-appended",
            Reply::LateAppended {
                track: 7,
                points: 2,
            },
        ),
        (
            "trace-reply",
            Reply::TraceReply {
                dropped: 1,
                events: vec![TraceEvent {
                    seq: 1,
                    at_us: 250,
                    kind: TraceEventKind::FrameDecode,
                    conn: 1,
                    value: 512,
                }],
            },
        ),
        (
            "error",
            Reply::Error {
                code: ErrorCode::TooLate,
                message: "too late".to_string(),
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn actual() -> Vec<String> {
    let requests = requests().into_iter().map(|(label, request)| {
        let payload = request.encode().expect("request encodes");
        (format!("request/{label}"), payload)
    });
    let replies = replies().into_iter().map(|(label, reply)| {
        let payload = reply.encode().expect("reply encodes");
        (format!("reply/{label}"), payload)
    });
    requests
        .chain(replies)
        .map(|(label, payload)| format!("{label} {}", hex(&frame_to_vec(&payload))))
        .collect()
}

/// Recorded before subscriber delivery moved onto the I/O pool; see the
/// module docs.
const GOLDEN: &[&str] = &[
    "request/hello 42510200000001012813c52f",
    "request/append 4251370000000207340100000000000000f83f00000000000000c00000000000002440808080808080801082808080808080d0ff018080808080808010f9616c46",
    "request/flush 4251010000000337be0b4b",
    "request/query 425134000000040107000000000000f0ff0000000000005940010000000000000000000000000000f0bf0000000000001440000000000000104002535238",
    "request/stats 42510100000005021b68a2",
    "request/shutdown 42510100000006b84a613b",
    "request/metrics 4251020000000701aeb49f79",
    "request/subscribe 42512400000008010301000000000000f0bf000000000000f0bf000000000000f03f000000000000f03f006acdfb",
    "request/append-late 425134000000090701020000000000002440000000000000f83f00000000000000c000000000000034400000000000000840000000000000d03f6a8db61d",
    "request/trace-dump 4251050000000a013201024ae9d4e4",
    "reply/hello-ok 425103000000810104fd5dc001",
    "reply/appended 425103000000820740abc16d24",
    "reply/flushed 42510100000083173db3a6",
    "reply/query-result 42513c00000084010203010107340100000000000000f83f00000000000000c00000000000002440808080808080801082808080808080d0ff0180808080808080104a375bb9",
    "reply/stats-reply 42511300000085643c1e0105040204643d0203010100036400becee8d8",
    "reply/shutting-down 42510300000086026340ec74fc",
    "reply/metrics-reply 42511600000087146e65745f6672616d65735f746f74616c2031320a6b5e715e",
    "reply/sub-event/subscribed 4251020000008800bc0083b2",
    "reply/sub-event/points 425134000000880107020000000000002440000000000000f83f00000000000000c000000000000034400000000000000840000000000000d03f83f08c83",
    "reply/sub-event/end 425102000000880290618d5c",
    "reply/late-appended 425103000000890702f60eeab0",
    "reply/trace-reply 42510a0000008a010101fa0102018004f6034771",
    "reply/error 42510b000000ff0708746f6f206c617465436a510b",
];

#[test]
fn every_tag_frames_to_the_recorded_bytes() {
    let actual = actual();
    if actual != GOLDEN {
        let mut table = String::new();
        for line in &actual {
            table.push_str(&format!("    \"{line}\",\n"));
        }
        let moved = actual
            .iter()
            .zip(GOLDEN)
            .find(|(a, e)| a != e)
            .map(|(a, _)| a);
        panic!(
            "wire golden: {} frames, {} recorded (first moved: {moved:?});\nactual table:\n{table}",
            actual.len(),
            GOLDEN.len()
        );
    }
}
