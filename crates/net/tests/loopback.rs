//! End-to-end loopback tests of the serving runtime: concurrent
//! connections, mid-run unified queries, stats, protocol violations and
//! graceful shutdown to a verified spill tree.

use bqs_core::stream::compress_all;
use bqs_core::{BqsConfig, FastBqsCompressor};
use bqs_net::wire::{frame_to_vec, read_frame, write_frame, ErrorCode, Reply};
use bqs_net::{BqsClient, NetError, Server, ServerConfig};
use bqs_obs::TraceEventKind;
use bqs_tlog::codec::{ulp_map, write_f64, write_varint, zigzag};
use bqs_tlog::{LogConfig, TrajectoryLog};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_root(tag: &str) -> PathBuf {
    // ordering: relaxed unique-id ticket — only atomicity matters for distinct temp dirs
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("bqs-net-loopback")
        .join(format!("{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wave(track: u64, n: usize) -> Vec<bqs_geo::TimedPoint> {
    (0..n)
        .map(|i| {
            let a = i as f64;
            bqs_geo::TimedPoint::new(
                a * 8.0 + track as f64,
                (a * 0.21 + track as f64).sin() * 25.0,
                a * 60.0,
            )
        })
        .collect()
}

fn start(
    workers: usize,
    root: &PathBuf,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<bqs_net::ServeReport>,
) {
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", workers, root)).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

#[test]
fn concurrent_clients_ingest_and_the_spilled_tree_matches_solo_compression() {
    let root = temp_root("ingest");
    let (addr, server) = start(4, &root);

    // Three clients, four tracks each, batches interleaved per client.
    std::thread::scope(|scope| {
        for c in 0u64..3 {
            scope.spawn(move || {
                let mut client = BqsClient::connect(addr).expect("connect");
                assert_eq!(client.workers(), 4);
                let tracks: Vec<u64> = (0..12).filter(|t| t % 3 == c).collect();
                let traces: Vec<(u64, Vec<_>)> =
                    tracks.iter().map(|&t| (t, wave(t, 120))).collect();
                for chunk in 0..(120 / 30) {
                    for (track, trace) in &traces {
                        let sent = client
                            .append(*track, &trace[chunk * 30..(chunk + 1) * 30])
                            .expect("append");
                        assert_eq!(sent, 30);
                    }
                }
                client.flush().expect("flush");
            });
        }
    });

    // Stats reflect every submitted point, per shard and merged.
    let mut probe = BqsClient::connect(addr).expect("connect");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.stats.points, 12 * 120);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(
        stats.shards.iter().map(|s| s.submitted_points).sum::<u64>(),
        12 * 120
    );
    assert_eq!(stats.appended_points, 12 * 120);
    assert!(stats.shards.iter().all(|s| !s.dead));

    // A mid-run query sees every live session (nothing spilled yet).
    let report = probe
        .query_time_range(None, f64::NEG_INFINITY, f64::INFINITY)
        .expect("query");
    assert_eq!(report.slices.len(), 12);
    assert!(report.hot_points > 0);
    let config = BqsConfig::new(10.0).unwrap();
    for slice in &report.slices {
        let expected = compress_all(&mut FastBqsCompressor::new(config), wave(slice.track, 120));
        assert_eq!(slice.points, expected, "track {}", slice.track);
    }

    let ack = probe.shutdown().expect("shutdown");
    assert_eq!(ack.appended_points, 12 * 120);
    let report = server.join().expect("server thread");
    assert_eq!(report.appended_points, 12 * 120);
    assert_eq!(report.spilled_sessions, 12);
    assert_eq!(report.manifest_shards, 4);
    assert_eq!(report.stats.points, 12 * 120);

    // The tree verifies, and every track reads back byte-identical to
    // solo compression.
    bqs_tlog::verify_sharded(&root).expect("tree verifies");
    for t in 0..12u64 {
        let shard = bqs_core::fleet::worker_of(t, 4);
        let (log, _) =
            TrajectoryLog::open(bqs_tlog::shard_dir(&root, shard), LogConfig::default()).unwrap();
        let expected = compress_all(&mut FastBqsCompressor::new(config), wave(t, 120));
        assert_eq!(log.read_track(t).unwrap(), expected, "track {t}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_worker_spills_a_one_shard_tree() {
    let root = temp_root("single");
    let (addr, server) = start(1, &root);
    let mut client = BqsClient::connect(addr).expect("connect");
    client.append(3, &wave(3, 80)).expect("append");
    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread");
    assert_eq!(report.spilled_sessions, 1);
    assert_eq!(report.manifest_shards, 1);
    assert!(bqs_tlog::shard_dir(&root, 0).is_dir());
    let verify = bqs_tlog::verify_sharded(&root).expect("one-shard tree verifies");
    assert_eq!(verify.shards.len(), 1);
    assert_eq!(verify.manifest, bqs_tlog::ManifestStatus::Verified);
    let (log, _) =
        TrajectoryLog::open(bqs_tlog::shard_dir(&root, 0), LogConfig::default()).unwrap();
    let config = BqsConfig::new(10.0).unwrap();
    let expected = compress_all(&mut FastBqsCompressor::new(config), wave(3, 80));
    assert_eq!(log.read_track(3).unwrap(), expected);
    let _ = std::fs::remove_dir_all(&root);
}

/// The server keeps one query engine for its life: idle queries read no
/// segment byte and reopen nothing, and an eviction between two queries
/// is caught up by its appended bytes alone — with the evicted track's
/// answer still exactly the finished tree's.
#[test]
fn queries_reuse_one_engine_caught_up_by_appended_bytes() {
    let root = temp_root("engine-cache");
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.evict_idle = 100.0;
    let server = Server::bind(config).expect("bind");
    let registry = server.metrics().clone();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let bytes = registry.counter("tlog_query_refresh_bytes_total");
    let reopens = registry.counter("tlog_query_reopens_total");
    let evicted = registry.counter("fleet_evicted_sessions_total");

    let mut client = BqsClient::connect(addr).expect("connect");
    client.append(1, &wave(1, 80)).expect("append"); // t ∈ [0, 4740]
    let all = |client: &mut BqsClient, track| {
        client
            .query_time_range(track, f64::NEG_INFINITY, f64::INFINITY)
            .expect("query")
    };
    let first = all(&mut client, Some(1));
    assert!(first.hot_points > 0, "nothing spilled yet");
    let (bytes0, reopens0) = (bytes.get(), reopens.get());
    assert_eq!(reopens0, 2, "the engine opened each shard once, at bind");

    for i in 0..50 {
        all(&mut client, if i % 2 == 0 { Some(1) } else { None });
    }
    assert_eq!(bytes.get(), bytes0, "idle queries read no segment byte");
    assert_eq!(reopens.get(), reopens0, "idle queries reopen nothing");

    // Track 2 moves stream time 5000 s past track 1's last point, so the
    // next eviction tick spills track 1.
    let late: Vec<_> = wave(2, 10)
        .into_iter()
        .map(|p| bqs_geo::TimedPoint::at(p.pos, p.t + 10_000.0))
        .collect();
    client.append(2, &late).expect("append");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while evicted.get() == 0 {
        assert!(std::time::Instant::now() < deadline, "no eviction");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let after = all(&mut client, Some(1));
    assert!(bytes.get() > bytes0, "the spill was read");
    assert_eq!(reopens.get(), reopens0, "…as appended bytes, not a reopen");
    assert_eq!(after.hot_points, 0, "track 1 is durable now");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let mut finished = bqs_tlog::QueryEngine::open(&root).expect("finished tree");
    let expected = finished
        .query_time_range(Some(1), bqs_tlog::TimeRange::all())
        .expect("tree query");
    assert_eq!(after.slices, expected.slices);
    assert_eq!(first.slices, expected.slices, "hot then cold, one answer");
    let _ = std::fs::remove_dir_all(&root);
}

/// An acked backfill batch is on disk while the server still runs: the
/// next `Query` from another connection holds every point of it, and so
/// does a cold engine opened on the live tree.
#[test]
fn acked_backfill_is_queryable_and_on_disk_before_shutdown() {
    let root = temp_root("backfill-live");
    let (addr, server) = start(2, &root);
    let mut a = BqsClient::connect(addr).expect("connect");
    let mut b = BqsClient::connect(addr).expect("connect");
    a.append(5, &wave(5, 40)).expect("append"); // t ∈ [0, 2340], all hot
    let history: Vec<_> = wave(5, 20)
        .into_iter()
        .map(|p| bqs_geo::TimedPoint::at(p.pos, p.t - 5_000.0))
        .collect();
    assert_eq!(a.append_backfill(5, &history).expect("backfill"), 20);

    let answer = b
        .query_time_range(Some(5), f64::NEG_INFINITY, f64::INFINITY)
        .expect("query");
    assert_eq!(answer.slices.len(), 1);
    assert_eq!(answer.slices[0].points[..20], history[..]);
    let mut cold = bqs_tlog::QueryEngine::open(&root).expect("open the live tree");
    let on_disk = cold
        .query_time_range(Some(5), bqs_tlog::TimeRange::all())
        .expect("cold query");
    assert_eq!(on_disk.slices.len(), 1, "the batch is not on disk");
    assert_eq!(on_disk.slices[0].points, history);

    b.shutdown().expect("shutdown");
    let report = server.join().expect("server thread");
    assert_eq!(report.backfill_points, 20);
    let _ = std::fs::remove_dir_all(&root);
}

/// Backfill batches with a NaN or huge position, or a huge finite time,
/// are admitted: the log stores raw doubles bit for bit, so the shard's
/// worker appends them without error, and the session that closes on
/// the same shard afterwards still spills. A batch the log cannot store
/// (a NaN time) is refused before it is acked.
#[test]
fn odd_backfill_values_do_not_stop_the_shard_spilling() {
    let root = temp_root("backfill-odd");
    let (addr, server) = start(1, &root);
    let mut client = BqsClient::connect(addr).expect("connect");
    let at = |x: f64, y: f64, t: f64| bqs_geo::TimedPoint::new(x, y, t);
    let batches = [
        (1, vec![at(f64::NAN, 0.0, 1.0), at(2.0, f64::NAN, 2.0)]),
        (2, vec![at(1e300, -1e300, 3.0), at(f64::MAX, f64::MIN, 4.0)]),
        (3, vec![at(0.0, 0.0, 1e300), at(0.0, 0.0, f64::MAX)]),
    ];
    for (track, batch) in &batches {
        assert_eq!(client.append_backfill(*track, batch).expect("acked"), 2);
    }
    let err = client
        .append_backfill(4, &[at(0.0, 0.0, f64::NAN)])
        .expect_err("a NaN time cannot be stored");
    assert!(
        matches!(
            err,
            NetError::Server {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{err}"
    );
    let mid_run = client
        .query_time_range(None, f64::NEG_INFINITY, f64::INFINITY)
        .expect("query");
    assert_eq!(mid_run.slices.len(), 3, "every odd batch is queryable");
    let live = wave(5, 40);
    client.append(5, &live).expect("append");
    client.shutdown().expect("shutdown");
    let report = server.join().expect("the run ends without a spill error");
    assert_eq!(report.backfill_points, 6);
    bqs_tlog::verify_sharded(&root).expect("tree verifies");

    let (log, _) =
        TrajectoryLog::open_read_only(root.join("shard-0"), LogConfig::default()).expect("open");
    for (track, batch) in &batches {
        let stored = log.read_track(*track).expect("read");
        let bits = |ps: &[bqs_geo::TimedPoint]| -> Vec<[u64; 3]> {
            ps.iter()
                .map(|p| [p.pos.x.to_bits(), p.pos.y.to_bits(), p.t.to_bits()])
                .collect()
        };
        assert_eq!(bits(&stored), bits(batch), "track {track}");
    }
    let mut fbqs = FastBqsCompressor::new(BqsConfig::new(10.0).unwrap());
    assert_eq!(
        log.read_track(5).expect("read"),
        compress_all(&mut fbqs, live),
        "the later session reached disk"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bad_batches_and_bad_frames_get_typed_errors() {
    let root = temp_root("errors");
    let (addr, server) = start(2, &root);

    // A well-formed frame whose append batch decodes to garbage points
    // is an application-level error; the connection survives.
    let mut client = BqsClient::connect(addr).expect("connect");
    let backwards = [
        bqs_geo::TimedPoint::new(0.0, 0.0, 10.0),
        bqs_geo::TimedPoint::new(1.0, 0.0, 5.0),
    ];
    match client.append(1, &backwards) {
        Err(NetError::Wire(_)) => {} // rejected client-side at encode
        other => panic!("expected a wire error, got {other:?}"),
    }
    client.append(1, &wave(1, 10)).expect("connection survives");

    // Raw garbage after the handshake: the server answers a typed
    // bad-frame error and closes the connection.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    write_frame(
        &mut raw,
        &bqs_net::Request::Hello {
            protocol: bqs_net::PROTOCOL_VERSION,
        }
        .encode()
        .unwrap(),
    )
    .unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let hello = read_frame(&mut reader).unwrap().expect("hello reply");
    assert!(matches!(
        Reply::decode(&hello).unwrap(),
        Reply::HelloOk { .. }
    ));
    // Corrupt a frame's payload byte: CRC mismatch on the server.
    let mut framed = frame_to_vec(&bqs_net::Request::Stats.encode().unwrap());
    let last = framed.len() - 5; // inside the payload
    framed[last] ^= 0xFF;
    raw.write_all(&framed).unwrap();
    raw.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().expect("error reply");
    match Reply::decode(&reply).unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("checksum"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closed the unsynced connection.
    assert!(read_frame(&mut reader).unwrap().is_none());

    // An unsupported protocol version is refused at handshake.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    write_frame(
        &mut raw,
        &bqs_net::Request::Hello { protocol: 99 }.encode().unwrap(),
    )
    .unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let reply = read_frame(&mut reader).unwrap().expect("reply");
    match Reply::decode(&reply).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_idle_connections() {
    let root = temp_root("drain");
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", 2, &root)).expect("bind");
    let registry = server.metrics().clone();
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run().expect("serve"));
    // An idle client that never sends anything must not wedge shutdown.
    let idle = BqsClient::connect(addr).expect("idle connect");
    let mut active = BqsClient::connect(addr).expect("active connect");
    active.append(1, &wave(1, 50)).expect("append");

    // A server built from a bare `ServerConfig` observes itself: the
    // catalog is live and the recorder holds one Accept per connection.
    let text = active.metrics().expect("metrics");
    assert!(
        text.lines().any(|l| l.starts_with("net_frames_total ")),
        "{text}"
    );
    let (_, events) = active.trace_dump(None, None).expect("trace dump");
    let accepts = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Accept)
        .count();
    assert_eq!(accepts, 2);

    active.shutdown().expect("shutdown");
    let report = server
        .join()
        .expect("server drains despite the idle client");
    assert_eq!(report.connections, 2);
    assert_eq!(report.spilled_sessions, 1);
    // Two Hellos, Append, Metrics, TraceDump, Shutdown.
    assert_eq!(report.frames, 6);
    // The report reads the same counters the catalog exposes.
    for (name, value) in [
        ("net_connections_admitted_total", report.connections),
        (
            "net_connections_rejected_total",
            report.rejected_connections,
        ),
        ("net_frames_total", report.frames),
        ("net_late_accepted_points_total", report.late_points),
        ("net_backfilled_points_total", report.backfill_points),
        ("net_too_late_points_total", report.too_late_points),
    ] {
        assert_eq!(registry.counter(name).get(), value, "{name}");
    }
    drop(idle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_live_connection_gauge_settles_under_concurrent_admits_and_closes() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let root = temp_root("conn-churn");
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", 1, &root)).expect("bind");
    let live = server.metrics().gauge("net_connections_live");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // The acceptor admits while the I/O threads close: both sides move
    // the gauge at once.
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for _ in 0..ROUNDS {
                    drop(BqsClient::connect(addr).expect("connect"));
                }
            });
        }
    });

    // The pool notices each EOF asynchronously: once only the probe is
    // left, the gauge must agree with the admission count.
    let mut probe = BqsClient::connect(addr).expect("probe");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.live_connections == 1 && live.get() == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gauge {} vs {} live connection(s)",
            live.get(),
            stats.live_connections
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let opened = (THREADS * ROUNDS + 1) as u64;
    assert!(live.peak() <= opened, "peak {} > {opened}", live.peak());

    probe.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.connections, opened);
    assert_eq!(live.get(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_used_spill_directory_is_refused_up_front() {
    let root = temp_root("used");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("junk.txt"), b"x").unwrap();
    match Server::bind(ServerConfig::new("127.0.0.1:0", 2, &root)) {
        Err(e) => assert!(e.to_string().contains("fresh directory"), "{e}"),
        Ok(_) => panic!("expected the spill guard to fire"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn zero_io_threads_is_a_typed_config_error_before_the_spill_dir_is_touched() {
    let root = temp_root("io-zero");
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.io_threads = 0;
    match Server::bind(config) {
        Err(NetError::Config(message)) => {
            assert_eq!(message, "serve needs --io-threads ≥ 1, got 0");
        }
        Err(other) => panic!("expected a config error, got {other:?}"),
        Ok(_) => panic!("a server with no I/O threads must not bind"),
    }
    assert!(!root.exists(), "validation must precede prepare_spill_logs");
}

#[test]
fn an_idle_timeout_inside_the_lateness_window_is_a_typed_config_error() {
    for evict_idle in [10.0, 30.0] {
        let root = temp_root("evict-in-window");
        let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
        config.lateness = 30.0;
        config.evict_idle = evict_idle;
        match Server::bind(config) {
            Err(NetError::Config(message)) => assert_eq!(
                message,
                format!("evict-idle ({evict_idle} s) must exceed lateness (30 s)")
            ),
            Err(other) => panic!("expected a config error, got {other:?}"),
            Ok(_) => panic!("evict-idle {evict_idle} ≤ lateness 30 must not bind"),
        }
        assert!(!root.exists());
    }
}

/// Under `--lateness 30 --evict-idle 60`, an idle track's parked tail
/// leaves the reorder buffer with its session: it is queryable after
/// the eviction, lands in the same durable record, and the track then
/// refuses points behind what it released.
#[test]
fn an_evicted_track_takes_its_parked_tail_with_it() {
    let root = temp_root("evict-tail");
    let mut config = ServerConfig::new("127.0.0.1:0", 1, &root);
    config.lateness = 30.0;
    config.evict_idle = 60.0;
    let server = Server::bind(config).expect("bind");
    let evicted = server.metrics().counter("fleet_evicted_sessions_total");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let point = |t: f64| bqs_geo::TimedPoint::new(t * 8.0, (t * 0.21).sin() * 25.0, t);
    let track_a: Vec<_> = (0..=100).map(|t| point(f64::from(t))).collect();
    let track_b: Vec<_> = (0..=30).map(|t| point(f64::from(t) * 10.0)).collect();
    let mut client = BqsClient::connect(addr).expect("connect");
    client.append(1, &track_a).expect("append A");
    client.append(2, &track_b).expect("append B"); // stream time → 300
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while evicted.get() == 0 {
        assert!(std::time::Instant::now() < deadline, "no eviction");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(evicted.get(), 1, "only track A is idle");

    let answer = client
        .query_time_range(Some(1), f64::NEG_INFINITY, f64::INFINITY)
        .expect("query");
    let last = answer.slices[0].points.last().expect("points").t;
    assert_eq!(last, 100.0, "the parked tail was evicted with the session");
    match client.append_late(1, &[point(90.0)]) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooLate),
        other => panic!("expected too-late behind the drained tail, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let (log, _) =
        TrajectoryLog::open(bqs_tlog::shard_dir(&root, 0), LogConfig::default()).unwrap();
    let summary = log.track_summaries();
    assert_eq!(summary[0].track, 1);
    assert_eq!(summary[0].records, 1, "one session, one record");
    assert_eq!(summary[0].t_max, 100.0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batches_violating_the_track_watermark_are_rejected_without_poisoning_the_spill() {
    let root = temp_root("watermark");
    let (addr, server) = start(2, &root);
    let mut client = BqsClient::connect(addr).expect("connect");

    // Establish a watermark at t = 60·49, then try to rewind the track.
    client.append(5, &wave(5, 50)).expect("append");
    let rewind = [bqs_geo::TimedPoint::new(1.0, 1.0, 3.0)];
    match client.append(5, &rewind) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("backwards"), "{message}");
        }
        other => panic!("expected a bad-request rejection, got {other:?}"),
    }
    // The connection survives, the track keeps working past the
    // watermark, and shutdown spills cleanly (nothing was poisoned).
    let more: Vec<bqs_geo::TimedPoint> = wave(5, 60).split_off(50);
    client.append(5, &more).expect("append past the watermark");
    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread");
    // 50 accepted + 10 accepted past the watermark; the rewind batch
    // contributed nothing.
    assert_eq!(report.appended_points, 60);
    assert_eq!(report.spilled_sessions, 1);
    bqs_tlog::verify_sharded(&root).expect("tree verifies");
    let _ = std::fs::remove_dir_all(&root);
}

/// An `Append` payload carrying a hand-built exact-profile blob of two
/// points, `a` then `b`: a stream the encoder refuses to write.
fn crafted_append(track: u64, a: [f64; 3], b: [f64; 3]) -> Vec<u8> {
    let mut blob = vec![bqs_tlog::CODEC_VERSION, 0]; // version, exact mode
    a.iter().for_each(|&v| write_f64(v, &mut blob));
    // The second point's delta-of-delta is its delta from the anchor.
    for (v, w) in a.into_iter().zip(b) {
        write_varint(
            zigzag(ulp_map(w).wrapping_sub(ulp_map(v)) as i64),
            &mut blob,
        );
    }
    let mut payload = vec![0x02]; // the `Append` tag, docs/protocol.md
    write_varint(track, &mut payload);
    write_varint(blob.len() as u64, &mut payload);
    payload.extend_from_slice(&blob);
    payload
}

#[test]
fn crafted_appends_breaking_the_time_rule_are_bad_requests_under_any_lateness() {
    for lateness in [0.0, 30.0] {
        let root = temp_root("crafted");
        let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
        config.lateness = lateness;
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let mut send = |payload: Vec<u8>| {
            write_frame(&mut raw, &payload).unwrap();
            Reply::decode(&read_frame(&mut reader).unwrap().expect("a reply")).unwrap()
        };
        let hello = bqs_net::Request::Hello {
            protocol: bqs_net::PROTOCOL_VERSION,
        };
        assert!(matches!(
            send(hello.encode().unwrap()),
            Reply::HelloOk { .. }
        ));

        for (a, b, message) in [
            (
                [0.0, 0.0, 20.0],
                [1.0, 0.0, 15.0],
                "timestamp at index 1 goes backwards: 15 < 20 \
                 (the track's accepted stream is time-ordered)",
            ),
            (
                [0.0, 0.0, 10.0],
                [1.0, 0.0, f64::NAN],
                "timestamp at index 1 is not finite",
            ),
        ] {
            let expected = Reply::Error {
                code: ErrorCode::BadRequest,
                message: message.to_string(),
            };
            assert_eq!(
                send(crafted_append(7, a, b)),
                expected,
                "lateness {lateness}"
            );
        }

        // The connection survives and the track still takes valid data.
        let valid = bqs_net::Request::Append {
            track: 7,
            points: wave(7, 20),
        };
        let appended = Reply::Appended {
            track: 7,
            points: 20,
        };
        assert_eq!(send(valid.encode().unwrap()), appended);
        let shutdown = bqs_net::Request::Shutdown.encode().unwrap();
        assert!(matches!(send(shutdown), Reply::ShuttingDown { .. }));
        let report = handle.join().expect("server thread");
        assert_eq!(report.appended_points, 20, "lateness {lateness}");
        bqs_tlog::verify_sharded(&root).expect("tree verifies");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn over_capacity_accepts_get_a_typed_error_and_a_graceful_close() {
    let root = temp_root("capacity");
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.io_threads = 2;
    config.max_connections = 2;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // The next connection is answered with one typed error frame,
    // then closed — not hung, not silently dropped.
    let refused = || match BqsClient::connect(addr) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::OverCapacity);
            assert!(message.contains("connection table full"), "{message}");
        }
        Err(other) => panic!("expected an over-capacity rejection, got {other:?}"),
        Ok(_) => panic!("expected an over-capacity rejection, got a connection"),
    };
    // A closed connection frees its slot once the pool notices the EOF,
    // asynchronously: retry briefly.
    let admitted = || {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match BqsClient::connect(addr) {
                Ok(client) => break client,
                Err(NetError::Server {
                    code: ErrorCode::OverCapacity,
                    ..
                }) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(other) => panic!("expected a freed slot, got {other:?}"),
            }
        }
    };

    // Fill the table.
    let mut first = BqsClient::connect(addr).expect("connect 1");
    let second = BqsClient::connect(addr).expect("connect 2");
    refused();

    // The admitted connections still work, and closing one frees a slot.
    first.append(1, &wave(1, 30)).expect("admitted still works");
    drop(second);
    let mut readmitted = admitted();
    readmitted.append(2, &wave(2, 30)).expect("append");
    drop(first);

    // A subscriber holds its slot like any other connection: it and one
    // client fill the table, and closing it frees the slot.
    let subscriber = admitted().subscribe(None, None).expect("subscribe");
    refused();
    drop(subscriber);
    drop(admitted());
    readmitted.shutdown().expect("shutdown");

    let report = handle.join().expect("server thread");
    assert!(
        report.rejected_connections >= 1,
        "rejections are counted: {report:?}"
    );
    assert_eq!(report.appended_points, 60);
    bqs_tlog::verify_sharded(&root).expect("tree verifies");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn requests_before_the_handshake_are_refused() {
    let root = temp_root("no-hello");
    let (addr, server) = start(1, &root);
    // Skip Hello entirely: the first real request must be refused and
    // the connection closed — an `Append` too, which after the handshake
    // takes its own columnar path.
    let append = bqs_net::Request::Append {
        track: 1,
        points: vec![bqs_geo::TimedPoint::new(0.0, 0.0, 0.0)],
    };
    for request in [bqs_net::Request::Stats, append] {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        write_frame(&mut raw, &request.encode().unwrap()).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let reply = read_frame(&mut reader).unwrap().expect("reply");
        match Reply::decode(&reply).unwrap() {
            Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("Hello"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(read_frame(&mut reader).unwrap().is_none(), "closed");
    }

    BqsClient::connect(addr)
        .expect("handshaking clients still work")
        .shutdown()
        .expect("shutdown");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}

/// A zig-zag run every point of which a 1 µm tolerance keeps: `n`
/// points from `t0`, `dt` seconds apart.
fn every_point_kept(track: u64, t0: f64, dt: f64, n: usize) -> Vec<bqs_geo::TimedPoint> {
    (0..n)
        .map(|i| {
            let y = if i % 2 == 0 { 5.0 } else { -5.0 };
            let t = t0 + i as f64 * dt;
            bqs_geo::TimedPoint::new(t * 3.0 + track as f64, y, t)
        })
        .collect()
}

/// Waits up to 10 s for `done`, failing with `what`.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Subscriber A never reads; subscriber B does. A's stall holds up
/// neither B's stream nor the idle-eviction tick, A's backlog stays
/// under its cap, and once A outgrows it the server closes A alone —
/// while B's stream stays exactly its track's durable kept sequence.
#[test]
fn a_subscriber_that_never_reads_is_closed_without_stalling_the_others() {
    const CHUNK: usize = 8000;
    const CAP: u64 = 1 << 16; // the server's SUB_QUEUE_CAP
    let root = temp_root("stalled-sub");
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.io_threads = 2;
    config.tolerance = 1e-6;
    config.evict_idle = 1000.0;
    let server = Server::bind(config).expect("bind");
    let registry = server.metrics().clone();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let subscribers = registry.gauge("net_subscribers_live");
    let backlog = registry.gauge("net_sub_queue_points");
    let evicted = registry.counter("fleet_evicted_sessions_total");

    // A (I/O thread 0, which also runs the eviction tick) takes every
    // track and never reads; B (thread 1) streams track 3 to the end.
    let stalled = BqsClient::connect(addr).unwrap().subscribe(None, None);
    let mut reader = BqsClient::connect(addr)
        .unwrap()
        .subscribe(Some(3), None)
        .expect("subscribe B");
    let streamed = std::thread::spawn(move || {
        let mut points = Vec::new();
        while let Some((track, batch)) = reader.next_batch().expect("B's stream") {
            assert_eq!(track, 3);
            points.extend(batch);
        }
        points
    });
    let mut client = BqsClient::connect(addr).expect("connect");
    // Track 1's `n` points and 16 of track 3's over the next `span`
    // stream-seconds; every span stays well inside the idle time-out.
    let mut sends = 0usize;
    let mut clock = 0.0;
    let mut send = |client: &mut BqsClient, span: f64, n: usize| {
        let run = every_point_kept(1, clock, span / n as f64, n);
        client.append(1, &run).expect("append 1");
        let run = every_point_kept(3, clock, span / 16.0, 16);
        client.append(3, &run).expect("append 3");
        clock += span;
        sends += 1;
        clock
    };

    // 1. Fill A's socket and out buffer: A is stalled once its backlog
    // stops moving (B's drains within a poll tick).
    let pause = || std::thread::sleep(std::time::Duration::from_millis(40));
    let mut t = 0.0;
    for round in 0.. {
        assert!(round < 200, "A never stalled");
        t = send(&mut client, 400.0, CHUNK);
        pause();
        let before = backlog.get();
        if before > 0 {
            pause();
            if backlog.get() == before {
                break;
            }
        }
    }

    // 2. Track 2 goes idle behind 1200 more stream-seconds, carried by a
    // few points: the tick on A's own I/O thread evicts it while A is
    // still stalled.
    client
        .append(2, &every_point_kept(2, t, 1.0, 10))
        .expect("append 2");
    send(&mut client, 600.0, 16);
    send(&mut client, 600.0, 16);
    wait_for("an eviction while A is stalled", || evicted.get() >= 1);
    assert_eq!(subscribers.get(), 2, "A is stalled, not closed");

    // 3. Past SUB_QUEUE_CAP queued points the server closes A alone.
    for round in 0.. {
        assert!(round < 200, "A was never closed");
        if subscribers.get() < 2 {
            break;
        }
        send(&mut client, 400.0, CHUNK);
    }
    assert_eq!(subscribers.peak(), 2);
    // A's backlog never passed its cap: the rest of the peak is B's,
    // at most a few sends of track 3.
    assert!(backlog.peak() <= CAP + 1024, "peak {}", backlog.peak());
    wait_for("A's queue to go with it", || backlog.get() < 1024);

    client.shutdown().expect("shutdown");
    let streamed = streamed.join().expect("B's reader");
    handle.join().expect("server thread");
    drop(stalled);
    let mut tree = bqs_tlog::QueryEngine::open(&root).expect("finished tree");
    let durable = tree
        .query_time_range(Some(3), bqs_tlog::TimeRange::all())
        .expect("tree query");
    assert_eq!(streamed.len(), sends * 16, "every track-3 point is kept");
    assert_eq!(streamed, durable.slices[0].points);
    let _ = std::fs::remove_dir_all(&root);
}

/// A subscriber that disconnects is unregistered at once, even when no
/// point is flowing, and until then it is a live connection.
#[test]
fn a_vanished_subscriber_is_unregistered_promptly() {
    let root = temp_root("vanished-sub");
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", 1, &root)).expect("bind");
    let subscribers = server.metrics().gauge("net_subscribers_live");
    let live = server.metrics().gauge("net_connections_live");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let sub = BqsClient::connect(addr)
        .unwrap()
        .subscribe(Some(1), None)
        .expect("subscribe");
    let mut client = BqsClient::connect(addr).expect("connect");
    assert_eq!(subscribers.get(), 1);
    assert_eq!(client.stats().expect("stats").live_connections, 2);
    drop(sub);
    wait_for("the subscriber to be unregistered", || {
        subscribers.get() == 0 && live.get() == 1
    });
    assert_eq!(client.stats().expect("stats").live_connections, 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}

/// A NaN in a `Query` or `Subscribe` filter is a `bad-request` that
/// leaves the connection open; `±inf` bounds stay legal.
#[test]
fn nan_filters_are_bad_requests_and_the_connection_survives() {
    let root = temp_root("nan-filter");
    let (addr, server) = start(1, &root);
    let mut client = BqsClient::connect(addr).expect("connect");
    client.append(1, &wave(1, 20)).expect("append");
    let nan = f64::NAN;
    let bad_request = |result: Result<bqs_net::QueryReport, NetError>| match result {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("NaN"), "{message}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    };
    bad_request(client.query_time_range(None, nan, 100.0));
    bad_request(client.query_time_range(Some(1), 0.0, nan));
    bad_request(client.query_bbox(None, [nan, 0.0, 100.0, 100.0], 0.0, 1e9));
    let all = client
        .query_time_range(Some(1), f64::NEG_INFINITY, f64::INFINITY)
        .expect("±inf bounds are legal");
    assert_eq!(all.slices[0].points.first(), wave(1, 20).first());

    // A refused `Subscribe` leaves a request/reply connection behind.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut call = |request: bqs_net::Request| {
        write_frame(&mut raw, &request.encode().unwrap()).unwrap();
        let reply = read_frame(&mut reader).unwrap().expect("reply");
        Reply::decode(&reply).unwrap()
    };
    call(bqs_net::Request::Hello {
        protocol: bqs_net::PROTOCOL_VERSION,
    });
    match call(bqs_net::Request::Subscribe {
        track: None,
        bbox: Some([0.0, nan, 100.0, 100.0]),
    }) {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    assert!(matches!(
        call(bqs_net::Request::Stats),
        Reply::StatsReply(_)
    ));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}

/// Sends `request` to the scrape endpoint and reads until the server
/// closes; returns the response text (empty when it closed without
/// replying, reset included).
fn http_exchange(prom: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::Read;
    let mut stream = TcpStream::connect(prom).expect("connect prom");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    match stream.read_to_end(&mut response) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("reading the response: {e}"),
    }
    String::from_utf8(response).expect("utf-8 response")
}

fn start_with_prom(
    root: &PathBuf,
) -> (
    std::net::SocketAddr,
    std::net::SocketAddr,
    std::thread::JoinHandle<bqs_net::ServeReport>,
) {
    let mut config = ServerConfig::new("127.0.0.1:0", 2, root);
    config.io_threads = 2;
    config.prom_addr = Some("127.0.0.1:0".to_string());
    let server = Server::bind(config).expect("bind");
    let (addr, prom) = (server.local_addr(), server.prom_addr().expect("prom bound"));
    (
        addr,
        prom,
        std::thread::spawn(move || server.run().expect("serve")),
    )
}

#[test]
fn the_scrape_endpoint_answers_metrics_404s_and_drops_oversized_heads() {
    let root = temp_root("prom");
    let (addr, prom, server) = start_with_prom(&root);
    let mut client = BqsClient::connect(addr).expect("connect");
    client.append(1, &wave(1, 40)).expect("append");

    let ok = http_exchange(prom, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    assert!(ok.contains("\n# TYPE net_frames_total counter\n"), "{ok}");
    let (head, body) = ok.split_once("\r\n\r\n").expect("head and body");
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "{head}"
    );

    let missing = http_exchange(prom, b"GET /x HTTP/1.1\r\n\r\n");
    assert!(
        missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{missing}"
    );
    assert!(missing.ends_with("Content-Length: 0\r\nConnection: close\r\n\r\n"));

    // A head that never ends within 8 KiB is closed without a reply.
    let mut oversized = b"GET /metrics HTTP/1.1\r\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 9000));
    assert_eq!(http_exchange(prom, &oversized), "");

    // Scrapes hold no connection slot and move no connection counter.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.connections, 1, "{stats:?}");
    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread");
    assert_eq!((report.connections, report.appended_points), (1, 40));
    let _ = std::fs::remove_dir_all(&root);
}

/// One scraper connects and never sends its request line. The next
/// scrape is answered at once, not after the first one's 2 s bound; the
/// silent one is closed at that bound.
#[test]
fn a_silent_scraper_does_not_delay_the_next_scrape() {
    use std::io::Read;
    let root = temp_root("prom-silent");
    let (addr, prom, server) = start_with_prom(&root);
    let mut silent = TcpStream::connect(prom).expect("connect silent scraper");
    std::thread::sleep(std::time::Duration::from_millis(100));

    let started = std::time::Instant::now();
    let response = http_exchange(prom, b"GET /metrics HTTP/1.1\r\n\r\n");
    let waited = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        waited < std::time::Duration::from_millis(500),
        "the second scrape waited {waited:?} behind the silent one"
    );

    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(silent.read(&mut buf).expect("closed, not timed out"), 0);
    assert!(started.elapsed() < std::time::Duration::from_secs(5));

    BqsClient::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}
