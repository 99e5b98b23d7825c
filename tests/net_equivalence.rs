//! The serving subsystem's end-to-end acceptance property, tested over
//! arbitrary seeds, fan-in and batch sizes:
//!
//! 1. **Network ≡ in-process** — a seeded `loadgen` run against a
//!    loopback server at 1/2/4 connections produces a spill tree whose
//!    per-track bytes ([`TrajectoryLog::read_track`]) are identical to
//!    the same seeded workload driven through an in-process
//!    [`ParallelFleet`], and `bqs query` prints an identical CSV over
//!    both trees after shutdown.
//! 2. **Mid-run queries are consistent** — a `Query` served mid-run
//!    over (live snapshot + partial spill) answers, for every track
//!    whose load has fully arrived, exactly what the finished durable
//!    tree answers after shutdown.
//! 3. **Disordered ≡ sorted** — a seeded `loadgen --disorder W` run
//!    against a server started with `--lateness W` produces, at 1/2
//!    io-threads and 1/2/8 workers, a spill tree byte-identical to the
//!    in-process *sorted* run, and the server's late/backfill/too-late
//!    counters match the load generator's ground truth with zero slack.
//! 4. **Subscribe streams the kept points** — a client subscribed to a
//!    track before ingest receives exactly the track's durable kept
//!    sequence, in order, terminated by a clean end-of-stream.
//! 5. **Backfill merges durably** — `loadgen --backfill` history lands
//!    as flagged records that verify, count exactly, and merge in front
//!    of the live remainder at read time.

use bqs::core::fleet::{worker_of, ParallelConfig, ParallelFleet, TrackId};
use bqs::core::{BqsConfig, FastBqsCompressor};
use bqs::net::{loadgen, BqsClient, LoadgenConfig, Server, ServerConfig};
use bqs::tlog::{prepare_spill_logs, LogConfig, SpillSink, TrajectoryLog};
use bqs_cli::Command;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_root(tag: &str) -> PathBuf {
    // ordering: relaxed unique-id ticket — only atomicity matters for distinct temp dirs
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("bqs-net-equivalence")
        .join(format!("{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference: the same seeded workload driven through an in-process
/// parallel fleet with per-shard spill logs — what `bqs fleet --spill`
/// does, minus the CLI. Uses the server's own layout rule: a flat log
/// at the root for one worker, `shard-<k>/` directories otherwise.
fn in_process_tree(root: &PathBuf, workers: usize, sessions: usize, points: usize, seed: u64) {
    let traces: Vec<Vec<bqs::geo::TimedPoint>> = (0..sessions)
        .map(|t| loadgen::session_trace(seed, t as u64, points))
        .collect();
    in_process_tree_traces(root, workers, &traces);
}

/// Same as [`in_process_tree`] but over caller-supplied per-track
/// traces (track IDs are the indices), so tests can compress just a
/// suffix of each session.
fn in_process_tree_traces(root: &PathBuf, workers: usize, traces: &[Vec<bqs::geo::TimedPoint>]) {
    let mut logs: Vec<Option<TrajectoryLog>> =
        prepare_spill_logs(root, workers, LogConfig::default())
            .expect("open tree")
            .into_iter()
            .map(Some)
            .collect();
    let config = BqsConfig::new(10.0).unwrap();
    let mut fleet = ParallelFleet::new(
        ParallelConfig {
            workers,
            ..ParallelConfig::default()
        },
        move || FastBqsCompressor::new(config),
        |shard| SpillSink::new(logs[shard].take().expect("one log per shard")),
    );
    let points = traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..points {
        for (t, trace) in traces.iter().enumerate() {
            if let Some(p) = trace.get(i) {
                fleet.push(t as TrackId, *p);
            }
        }
    }
    let join = fleet.join();
    assert!(join.is_ok());
    for shard in join.shards {
        shard.sink.finish().expect("spill clean");
    }
    if workers > 1 {
        bqs::tlog::Manifest::rebuild(root).expect("manifest");
    }
}

/// `bqs query` CSV + summary over a tree, with the layout-dependent
/// lines (per-shard breakdown, pruning counts) stripped — the data a
/// user actually reads.
fn query_csv(root: &std::path::Path) -> String {
    let text = bqs_cli::run(&Command::Query {
        dir: root.display().to_string(),
        track: None,
        from: None,
        to: None,
        bbox: None,
        at: None,
        out: None,
    })
    .expect("bqs query");
    text.lines()
        .filter(|l| !l.contains("shard") && !l.contains("pruned"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn read_tracks(
    root: &PathBuf,
    workers: usize,
    sessions: usize,
) -> BTreeMap<u64, Vec<bqs::geo::TimedPoint>> {
    (0..sessions as u64)
        .map(|t| {
            let dir = if workers == 1 {
                root.clone()
            } else {
                bqs::tlog::shard_dir(root, worker_of(t, workers))
            };
            let (log, _) = TrajectoryLog::open(dir, LogConfig::default()).expect("open shard");
            (t, log.read_track(t).expect("read track"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Acceptance: seeded loadgen over TCP ≡ in-process fleet, across
    /// pool sizes (1/4/2 io-threads), the OS poller and the portable
    /// fallback backend, at varying fan-in.
    /// Per-track byte-identical spill and identical `bqs query` CSV
    /// after shutdown.
    #[test]
    fn network_ingest_equals_in_process_fleet(
        seed in 0u64..1_000_000,
        sessions in 6usize..10,
        points in 40usize..80,
        batch in 8usize..64,
    ) {
        let workers = 4usize;

        // Reference tree, in process.
        let reference = temp_root("ref");
        in_process_tree(&reference, workers, sessions, points, seed);
        let expected_tracks = read_tracks(&reference, workers, sessions);
        let expected_csv = query_csv(&reference);

        for (connections, io_threads, fallback) in
            [(1usize, 1usize, false), (2, 4, false), (4, 2, true)]
        {
            let root = temp_root("net");
            let mut config = ServerConfig::new("127.0.0.1:0", workers, &root);
            config.io_threads = io_threads;
            config.fallback_poller = fallback;
            let server = Server::bind(config).expect("bind");
            let addr = server.local_addr();
            let handle = std::thread::spawn(move || server.run().expect("serve"));

            let report = loadgen::run(&LoadgenConfig {
                addr: addr.to_string(),
                sessions,
                points,
                seed,
                connections,
                batch,
                shutdown: true,
                disorder: 0.0,
                backfill: false,
            })
            .expect("loadgen");
            prop_assert_eq!(report.points_sent, (sessions * points) as u64);
            let serve_report = handle.join().expect("server thread");
            prop_assert_eq!(serve_report.appended_points, (sessions * points) as u64);
            prop_assert_eq!(serve_report.spilled_sessions, sessions);

            // The tree verifies…
            bqs::tlog::verify_sharded(&root).expect("tree verifies");
            // …every track's durable bytes equal the in-process run's…
            let got_tracks = read_tracks(&root, workers, sessions);
            prop_assert_eq!(
                &got_tracks, &expected_tracks,
                "spill diverged at {} connections / {} io-threads (fallback {})",
                connections, io_threads, fallback
            );
            // …and `bqs query` prints the identical CSV.
            prop_assert_eq!(
                query_csv(&root),
                expected_csv.clone(),
                "query CSV diverged at {} connections / {} io-threads (fallback {})",
                connections, io_threads, fallback
            );

            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&reference);
    }

    /// A query served mid-run — half the load in, sessions still open,
    /// some possibly spilled — answers for every fully loaded track
    /// exactly what the finished durable tree answers after shutdown.
    #[test]
    fn mid_run_queries_match_the_final_durable_answer(
        seed in 0u64..1_000_000,
        sessions in 5usize..9,
        points in 40usize..70,
    ) {
        let workers = 2usize;
        let root = temp_root("midrun");
        let server = Server::bind(ServerConfig::new("127.0.0.1:0", workers, &root))
            .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        let traces: Vec<Vec<bqs::geo::TimedPoint>> = (0..sessions)
            .map(|t| loadgen::session_trace(seed, t as u64, points))
            .collect();

        let mut client = BqsClient::connect(addr).expect("connect");
        // The closed set: tracks whose whole load is in before the
        // mid-run query.
        let closed = sessions / 2 + 1;
        for (t, trace) in traces.iter().enumerate().take(closed) {
            client.append(t as u64, trace).expect("append full");
        }
        // The rest are half-loaded — open sessions with pending tails.
        for (t, trace) in traces.iter().enumerate().skip(closed) {
            client.append(t as u64, &trace[..points / 2]).expect("append half");
        }

        let mid = client
            .query_time_range(None, f64::NEG_INFINITY, f64::INFINITY)
            .expect("mid-run query");
        prop_assert_eq!(mid.slices.len(), sessions);
        let mid_by_track: BTreeMap<u64, _> = mid
            .slices
            .iter()
            .map(|s| (s.track, s.points.clone()))
            .collect();

        // Finish the load and shut down.
        for (t, trace) in traces.iter().enumerate().skip(closed) {
            client.append(t as u64, &trace[points / 2..]).expect("append rest");
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");

        // The finished durable answer, straight from the tree.
        let final_tracks = read_tracks(&root, workers, sessions);
        for t in 0..closed as u64 {
            prop_assert_eq!(
                &mid_by_track[&t], &final_tracks[&t],
                "closed track {} answered differently mid-run", t
            );
        }
        // Half-loaded tracks: the mid-run answer is a prefix of the
        // final one (compression is online — the kept prefix never
        // changes as more points arrive).
        for t in closed as u64..sessions as u64 {
            let mid_points = &mid_by_track[&t];
            let final_points = &final_tracks[&t];
            prop_assert!(mid_points.len() <= final_points.len());
            // The mid-run view may end with the open session's
            // would-be-final tail point, which a longer stream replaces;
            // every point before it is final.
            let stable = mid_points.len().saturating_sub(1);
            prop_assert_eq!(
                &mid_points[..stable], &final_points[..stable],
                "open track {} rewrote history", t
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The pool at serving scale: 256 concurrent connections multiplexed
/// over 4 I/O threads still spill byte-for-byte what the in-process
/// fleet spills — the acceptance fan-in of the ingest fast path.
#[test]
fn pool_ingest_at_256_connections_is_byte_identical() {
    let (workers, sessions, points, seed) = (4usize, 256usize, 60usize, 77u64);

    let reference = temp_root("ref-256");
    in_process_tree(&reference, workers, sessions, points, seed);
    let expected_tracks = read_tracks(&reference, workers, sessions);

    let root = temp_root("net-256");
    let mut config = ServerConfig::new("127.0.0.1:0", workers, &root);
    config.io_threads = 4;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        sessions,
        points,
        seed,
        connections: 256,
        batch: 32,
        shutdown: true,
        disorder: 0.0,
        backfill: false,
    })
    .expect("loadgen");
    assert_eq!(report.points_sent, (sessions * points) as u64);
    assert_eq!(report.connections, 256);
    let serve_report = handle.join().expect("server thread");
    assert_eq!(serve_report.appended_points, (sessions * points) as u64);
    assert_eq!(serve_report.spilled_sessions, sessions);
    assert_eq!(serve_report.rejected_connections, 0);

    bqs::tlog::verify_sharded(&root).expect("tree verifies");
    assert_eq!(
        read_tracks(&root, workers, sessions),
        expected_tracks,
        "spill diverged at 256 connections"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Acceptance for bounded-lateness ingest: a seeded
    /// `loadgen --disorder W` run against a server started with
    /// `--lateness W` spills, at 1/2 io-threads and 1/2/8 workers,
    /// byte-for-byte what the in-process fleet spills for the *sorted*
    /// workload — the reorder buffer restores timestamp order exactly.
    /// The server's late-data counters (wire `Metrics` text and the
    /// final `ServeReport`) must equal the load generator's ground
    /// truth with zero slack, including one refused too-late probe per
    /// track.
    #[test]
    fn disordered_ingest_equals_sorted_ingest(
        seed in 0u64..1_000_000,
        sessions in 4usize..7,
        points in 40usize..70,
        batch in 8usize..32,
    ) {
        // Five sample intervals of admissible disorder (random-walk
        // traces tick every 10 s).
        const WINDOW: f64 = 50.0;

        for workers in [1usize, 2, 8] {
            // Reference tree: the same sessions, in timestamp order.
            let reference = temp_root("ref-late");
            in_process_tree(&reference, workers, sessions, points, seed);
            let expected_tracks = read_tracks(&reference, workers, sessions);
            let expected_csv = query_csv(&reference);

            for io_threads in [1usize, 2] {
                let root = temp_root("net-late");
                let mut config = ServerConfig::new("127.0.0.1:0", workers, &root);
                config.io_threads = io_threads;
                config.lateness = WINDOW;
                let server = Server::bind(config).expect("bind");
                let addr = server.local_addr();
                let handle = std::thread::spawn(move || server.run().expect("serve"));

                let report = loadgen::run(&LoadgenConfig {
                    addr: addr.to_string(),
                    sessions,
                    points,
                    seed,
                    connections: 2,
                    batch,
                    shutdown: false,
                    disorder: WINDOW,
                    backfill: false,
                })
                .expect("loadgen");
                prop_assert_eq!(report.points_sent, (sessions * points) as u64);
                prop_assert!(report.late_points > 0, "disorder produced no late arrivals");
                prop_assert_eq!(report.backfill_points, 0);
                prop_assert_eq!(report.too_late_points, sessions as u64);

                // Zero slack: the server's wire-visible counters are
                // exactly the generator's ground truth.
                let mut client = BqsClient::connect(addr).expect("connect");
                let text = client.metrics().expect("metrics");
                for (name, want) in [
                    ("net_late_accepted_points_total", report.late_points),
                    ("net_backfilled_points_total", report.backfill_points),
                    ("net_too_late_points_total", report.too_late_points),
                ] {
                    let line = format!("{name} {want}");
                    prop_assert!(
                        text.lines().any(|l| l == line),
                        "metrics missing exact line {:?} at {} workers / {} io-threads:\n{}",
                        line, workers, io_threads, text
                    );
                }
                client.shutdown().expect("shutdown");
                let serve_report = handle.join().expect("server thread");
                prop_assert_eq!(serve_report.appended_points, (sessions * points) as u64);
                prop_assert_eq!(serve_report.late_points, report.late_points);
                prop_assert_eq!(serve_report.backfill_points, 0);
                prop_assert_eq!(serve_report.too_late_points, report.too_late_points);
                prop_assert_eq!(serve_report.spilled_sessions, sessions);

                // The tree verifies under the layout the worker count
                // implies…
                if workers == 1 {
                    bqs::tlog::verify_dir(&root).expect("flat tree verifies");
                } else {
                    bqs::tlog::verify_sharded(&root).expect("tree verifies");
                }
                // …and is byte-identical to the sorted in-process run.
                let got_tracks = read_tracks(&root, workers, sessions);
                prop_assert_eq!(
                    &got_tracks, &expected_tracks,
                    "disordered spill diverged at {} workers / {} io-threads",
                    workers, io_threads
                );
                prop_assert_eq!(
                    query_csv(&root),
                    expected_csv.clone(),
                    "query CSV diverged at {} workers / {} io-threads",
                    workers, io_threads
                );

                let _ = std::fs::remove_dir_all(&root);
            }
            let _ = std::fs::remove_dir_all(&reference);
        }
    }
}

/// A client subscribed to one track before any ingest receives exactly
/// that track's durable kept sequence — every batch tagged with the
/// subscribed track, points in timestamp order, stream closed by a
/// clean end-of-stream at server shutdown — even when the load arrives
/// disordered through the reorder buffer.
#[test]
fn subscribe_streams_exactly_the_kept_points() {
    let (workers, sessions, points, seed) = (2usize, 4usize, 120usize, 11u64);
    let root = temp_root("subscribe");
    let mut config = ServerConfig::new("127.0.0.1:0", workers, &root);
    config.lateness = 50.0;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut sub = BqsClient::connect(addr)
        .expect("connect subscriber")
        .subscribe(Some(1), None)
        .expect("subscribe");

    loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        sessions,
        points,
        seed,
        connections: 2,
        batch: 16,
        shutdown: true,
        disorder: 50.0,
        backfill: false,
    })
    .expect("loadgen");

    let mut streamed = Vec::new();
    let mut batches = 0usize;
    while let Some((track, pts)) = sub.next_batch().expect("subscription batch") {
        assert_eq!(track, 1, "subscription leaked another track's points");
        streamed.extend(pts);
        batches += 1;
    }
    let serve_report = handle.join().expect("server thread");
    assert_eq!(serve_report.appended_points, (sessions * points) as u64);
    assert!(batches > 0, "subscriber saw no batches");

    let durable = read_tracks(&root, workers, sessions)
        .remove(&1)
        .expect("track 1 spilled");
    assert_eq!(
        streamed, durable,
        "live stream diverged from the durable kept sequence"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `loadgen --backfill` ships each session's oldest third through the
/// durable backfill path after its live remainder: the counts match
/// exactly on both sides of the wire, the tree verifies with flagged
/// backfill records, and read-time merge answers the *whole* history —
/// the raw backfilled prefix followed by the compressed live remainder.
#[test]
fn backfill_history_counts_and_merges_durably() {
    let (workers, sessions, points, seed) = (2usize, 5usize, 90usize, 23u64);
    let traces: Vec<Vec<bqs::geo::TimedPoint>> = (0..sessions)
        .map(|t| loadgen::session_trace(seed, t as u64, points))
        .collect();
    let cut = points / 3;

    // Reference: just the live remainders through an in-process fleet —
    // what the server's compressor sees when the oldest third bypasses
    // it via backfill.
    let reference = temp_root("ref-backfill");
    let live: Vec<Vec<bqs::geo::TimedPoint>> = traces.iter().map(|t| t[cut..].to_vec()).collect();
    in_process_tree_traces(&reference, workers, &live);
    let live_kept = read_tracks(&reference, workers, sessions);

    let root = temp_root("net-backfill");
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", workers, &root)).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        sessions,
        points,
        seed,
        connections: 2,
        batch: 16,
        shutdown: true,
        disorder: 0.0,
        backfill: true,
    })
    .expect("loadgen");
    assert_eq!(report.points_sent, (sessions * (points - cut)) as u64);
    assert_eq!(report.backfill_points, (sessions * cut) as u64);
    assert_eq!(report.too_late_points, 0);
    let serve_report = handle.join().expect("server thread");
    assert_eq!(serve_report.appended_points, report.points_sent);
    assert_eq!(serve_report.backfill_points, report.backfill_points);

    let verify = bqs::tlog::verify_sharded(&root).expect("tree verifies");
    assert!(
        verify.total.backfill_records > 0,
        "no backfill records in the tree"
    );

    // Read-time merge: backfilled history (raw, durable-wins) in front
    // of the live kept sequence.
    let got = read_tracks(&root, workers, sessions);
    for (t, trace) in traces.iter().enumerate() {
        let mut expected = trace[..cut].to_vec();
        expected.extend_from_slice(&live_kept[&(t as u64)]);
        assert_eq!(
            got[&(t as u64)],
            expected,
            "track {t}: merged history diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&reference);
}
