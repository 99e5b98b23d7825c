//! The metrics layer's acceptance property: server-side counters are
//! *exact*, not approximate. A seeded loadgen run keeps its own ground
//! truth (frames written, bytes written framing included, points
//! acknowledged), and the server's registry must equal it to the byte.
//! The flight recorder is held to the same bar: event counts equal the
//! client-side frame counts with zero slack, and ring overflow drops
//! oldest-first with an exact `trace_events_dropped_total`.

use bqs_net::loadgen::{self, LoadgenConfig};
use bqs_net::wire::frame_to_vec;
use bqs_net::{BqsClient, Request, Server, ServerConfig, PROTOCOL_VERSION};
use bqs_obs::{FlightRecorder, MetricsRegistry, TraceEventKind};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bqs-net-metrics")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.counter(name).get()
}

#[test]
fn server_counters_equal_loadgen_ground_truth() {
    let io_threads = 2usize;
    let root = temp_root(&format!("truth-{io_threads}"));
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.io_threads = io_threads;
    let server = Server::bind(config).expect("bind");
    let registry = server.metrics().clone();
    let recorder = server.recorder().clone();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // 6 sessions × 80 points over 2 connections in 16-point batches:
    // each connection writes 1 Hello + 15 Appends + 1 Flush.
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        sessions: 6,
        points: 80,
        seed: 3,
        connections: 2,
        batch: 16,
        shutdown: false,
        disorder: 0.0,
        backfill: false,
    })
    .expect("loadgen");
    assert_eq!(report.points_sent, 480);
    assert_eq!(report.frames_sent, 34);
    assert_eq!(report.append_latency.count(), 30);
    assert_eq!(report.flush_latency.count(), 2);

    // Every loadgen reply has been received, so every loadgen
    // request byte has been read and counted: exact equality, no
    // slack, no retries.
    let tag = format!("io_threads={io_threads}");
    assert_eq!(
        counter(&registry, "net_frames_total"),
        report.frames_sent,
        "{tag}"
    );
    assert_eq!(
        counter(&registry, "net_bytes_in_total"),
        report.bytes_sent,
        "{tag}"
    );
    assert_eq!(
        counter(&registry, "fleet_submitted_points_total"),
        report.points_sent,
        "{tag}"
    );
    assert_eq!(counter(&registry, "net_frames_append_total"), 30, "{tag}");
    assert_eq!(counter(&registry, "net_frames_flush_total"), 2, "{tag}");

    // The wire exposition agrees with the registry handles.
    let mut probe = BqsClient::connect(addr).expect("connect probe");
    let text = probe.metrics().expect("metrics");
    for line in [
        "net_frames_append_total 30".to_string(),
        "net_frames_flush_total 2".to_string(),
        format!("fleet_submitted_points_total {}", report.points_sent),
    ] {
        assert!(text.contains(&line), "{tag}: missing {line:?} in:\n{text}");
    }

    // The flight recorder over the wire, mid-run: by the time the
    // `TraceDump` snapshot is taken its own frame has been decoded
    // (events record before dispatch) but its reply has not yet
    // flushed — loadgen's 34 frames plus the probe's Hello, Metrics
    // and TraceDump, with exactly the first two replies flushed.
    let (dropped, events) = probe.trace_dump(None, None).expect("trace dump");
    assert_eq!(dropped, 0, "{tag}: nothing may overflow the ring");
    let kind_count = |events: &[bqs_obs::TraceEvent], kind: TraceEventKind| {
        events.iter().filter(|e| e.kind == kind).count() as u64
    };
    assert_eq!(
        kind_count(&events, TraceEventKind::FrameDecode),
        report.frames_sent + 3,
        "{tag}"
    );
    assert_eq!(kind_count(&events, TraceEventKind::Accept), 3, "{tag}");
    assert_eq!(
        kind_count(&events, TraceEventKind::ReplyFlush),
        report.frames_sent + 2,
        "{tag}"
    );
    assert_eq!(kind_count(&events, TraceEventKind::Reject), 0, "{tag}");
    // 30 accepted append batches summing to every point sent.
    let submits: Vec<&bqs_obs::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::FleetSubmit)
        .collect();
    assert_eq!(submits.len(), 30, "{tag}");
    assert_eq!(
        submits.iter().map(|e| e.value).sum::<u64>(),
        report.points_sent,
        "{tag}"
    );
    // Filtering by connection partitions the conn-tied events.
    let probe_conn = events
        .iter()
        .rfind(|e| e.kind == TraceEventKind::FrameDecode)
        .expect("probe decoded frames")
        .conn;
    let (_, probe_events) = probe
        .trace_dump(None, Some(probe_conn))
        .expect("filtered dump");
    assert!(probe_events.iter().all(|e| e.conn == probe_conn), "{tag}");
    // Hello + Metrics + first TraceDump decoded; this second dump's
    // own decode event postdates the first snapshot but predates its
    // own, so it contributes 4 decodes for the probe connection.
    assert_eq!(
        kind_count(&probe_events, TraceEventKind::FrameDecode),
        4,
        "{tag}"
    );
    // And `last` keeps exactly the most recent events.
    let (_, tail) = probe.trace_dump(Some(5), None).expect("tail dump");
    assert_eq!(tail.len(), 5, "{tag}");
    let mut seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
    let sorted = seqs.clone();
    seqs.sort_unstable();
    assert_eq!(seqs, sorted, "{tag}: dump must stay oldest-first");

    // The probe's own traffic is deterministic too: Hello, Metrics,
    // three TraceDumps, Shutdown — six frames whose encodings we
    // can price exactly.
    let probe_bytes: u64 = [
        Request::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode()
        .expect("encode"),
        Request::Metrics { prom: false }.encode().expect("encode"),
        Request::TraceDump {
            last: None,
            conn: None,
        }
        .encode()
        .expect("encode"),
        Request::TraceDump {
            last: None,
            conn: Some(probe_conn),
        }
        .encode()
        .expect("encode"),
        Request::TraceDump {
            last: Some(5),
            conn: None,
        }
        .encode()
        .expect("encode"),
        Request::Shutdown.encode().expect("encode"),
    ]
    .iter()
    .map(|payload| frame_to_vec(payload).len() as u64)
    .sum();
    probe.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    // After a drained shutdown nothing is in flight: totals cover
    // loadgen plus the probe exactly, every request latency has
    // been recorded, and the connection gauge is back to zero.
    assert_eq!(
        counter(&registry, "net_frames_total"),
        report.frames_sent + 6,
        "{tag}"
    );
    assert_eq!(
        counter(&registry, "net_bytes_in_total"),
        report.bytes_sent + probe_bytes,
        "{tag}"
    );
    assert_eq!(
        registry
            .histogram("net_request_us_append")
            .snapshot()
            .count(),
        30,
        "{tag}"
    );
    assert_eq!(
        counter(&registry, "net_connections_admitted_total"),
        3,
        "{tag}"
    );
    assert_eq!(
        counter(&registry, "net_connections_closed_total"),
        3,
        "{tag}"
    );
    assert_eq!(registry.gauge("net_connections_live").get(), 0, "{tag}");
    // Both loadgen connections were concurrent; whether the probe
    // overlapped their teardown is scheduling-dependent.
    let peak = registry.gauge("net_connections_live").peak();
    assert!((2..=3).contains(&peak), "{tag}: peak {peak}");

    // With the server drained the recorder is final and exact:
    // every decoded frame produced one FrameDecode and one
    // ReplyFlush, every admitted connection one Accept, every
    // accepted batch one FleetSubmit, every spilled session one
    // Spill — and the registry counters agree with the ring.
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.dropped, 0, "{tag}");
    assert_eq!(
        snapshot.events.len() as u64,
        counter(&registry, "trace_events_recorded_total"),
        "{tag}"
    );
    assert_eq!(counter(&registry, "trace_events_dropped_total"), 0, "{tag}");
    let total =
        |kind: TraceEventKind| snapshot.events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(
        total(TraceEventKind::FrameDecode),
        report.frames_sent + 6,
        "{tag}"
    );
    assert_eq!(
        total(TraceEventKind::ReplyFlush),
        report.frames_sent + 6,
        "{tag}"
    );
    assert_eq!(total(TraceEventKind::Accept), 3, "{tag}");
    assert_eq!(total(TraceEventKind::FleetSubmit), 30, "{tag}");
    assert_eq!(total(TraceEventKind::Spill), 6, "{tag}");
    assert_eq!(total(TraceEventKind::Reject), 0, "{tag}");
    assert_eq!(total(TraceEventKind::Evict), 0, "{tag}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ring_overflow_drops_oldest_first_with_exact_counters() {
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::with_counters(
        16,
        registry.counter("trace_events_recorded_total"),
        registry.counter("trace_events_dropped_total"),
    );
    for i in 0..100u64 {
        recorder.record(TraceEventKind::FrameDecode, i, i * 10);
    }
    let snapshot = recorder.snapshot();
    // Exactly the capacity survives, the overwritten prefix is counted.
    assert_eq!(snapshot.events.len(), 16);
    assert_eq!(snapshot.dropped, 84);
    assert_eq!(counter(&registry, "trace_events_recorded_total"), 100);
    assert_eq!(counter(&registry, "trace_events_dropped_total"), 84);
    // Oldest-first: the survivors are the last 16 records, in order,
    // payloads intact.
    let seqs: Vec<u64> = snapshot.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (84..100).collect::<Vec<u64>>());
    for e in &snapshot.events {
        assert_eq!(e.conn, e.seq);
        assert_eq!(e.value, e.seq * 10);
    }
}
