//! The load side: scratch directories, the spawned `bqs serve` child,
//! and the closed- and open-loop connection drivers.

use crate::gen::{FrameKind, WireFrame};
use bqs_net::wire::{read_frame, ErrorCode, Reply, Request, PROTOCOL_VERSION};
use bqs_net::{BqsClient, QueryReport, QuerySpec};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// A scratch directory unique to one process, workload and round,
/// removed when dropped — on success and on every error path.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path, workload: &str, round: usize) -> Res<Scratch> {
        let dir = root.join(format!(
            "bqs-benchmark-{}-{workload}-{round}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0u64;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir entry: {e}"))?;
        let meta = entry.metadata().map_err(|e| format!("stat: {e}"))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Res<f64> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Resets this process's peak-RSS watermark, so `VmHWM` afterwards
/// covers only what follows (best effort: without it the figure still
/// holds, it just includes set-up).
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A spawned `bqs serve`, killed and reaped when dropped.
pub struct ServerChild {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Spawn → listening.
    pub ready_s: f64,
    pub spill: PathBuf,
    stdout_path: PathBuf,
}

pub struct Shutdown {
    /// Points the server says it accepted over its lifetime.
    pub appended_points: u64,
    /// `Shutdown` sent → process exited (drain, spill, MANIFEST).
    pub shutdown_s: f64,
}

impl ServerChild {
    /// Spawns `bqs serve --workers 2` on an ephemeral loopback port
    /// with `extra` flags, spilling under `scratch`; everything else is
    /// the CLI default (pool runtime, fsync off).
    pub fn spawn(bqs: &Path, scratch: &Path, extra: &[String]) -> Res<ServerChild> {
        let spill = scratch.join("tree");
        let port_file = scratch.join("addr");
        let stdout_path = scratch.join("serve.out");
        let open =
            |p: &Path| std::fs::File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        let start = Instant::now();
        let child = Command::new(bqs)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--spill"])
            .arg(&spill)
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            // The shutdown flight-recorder dump goes to the temp dir:
            // keep it inside the scratch directory.
            .env("TMPDIR", scratch)
            .stdin(Stdio::null())
            .stdout(open(&stdout_path)?)
            .stderr(open(&scratch.join("serve.err"))?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bqs.display()))?;
        let pid = child.id();
        let mut server = ServerChild {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            ready_s: 0.0,
            spill,
            stdout_path,
        };
        let deadline = start + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n').and_then(|a| a.parse().ok()) {
                    server.addr = addr;
                    break;
                }
            }
            // bqs-serve exiting before it listens is an error, not a wait.
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    let err =
                        std::fs::read_to_string(scratch.join("serve.err")).unwrap_or_default();
                    return Err(format!("bqs serve exited early ({status}): {err}"));
                }
            }
            if Instant::now() > deadline {
                return Err("bqs serve never wrote its port file".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        server.ready_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn peak_rss_mb(&self) -> Res<f64> {
        peak_rss_mb(self.pid)
    }

    /// Sends `Shutdown`, waits for the process to drain and exit.
    pub fn shutdown(mut self) -> Res<Shutdown> {
        let start = Instant::now();
        let ack = BqsClient::connect(self.addr)
            .and_then(BqsClient::shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self
            .child
            .take()
            .expect("child lives until shutdown or drop");
        let deadline = start + Duration::from_secs(60);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("bqs serve did not exit within 60 s of Shutdown".to_string());
                }
                Err(e) => return Err(format!("wait for bqs serve: {e}")),
            }
        };
        let shutdown_s = start.elapsed().as_secs_f64();
        let summary = std::fs::read_to_string(&self.stdout_path).unwrap_or_default();
        if !status.success() {
            return Err(format!("bqs serve exited with {status}: {summary}"));
        }
        Ok(Shutdown {
            appended_points: ack.appended_points,
            shutdown_s,
        })
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What the benchmark observed of one spawned server from outside: the
/// traced pass turns this into the `net.server.*`, `core.parallel.*`
/// and `gen.*` metrics.
#[derive(Debug, Default, Clone)]
pub struct Served {
    pub ready_s: f64,
    pub shutdown_s: f64,
    /// Median `Stats` round trip on the idle server, µs.
    pub rtt_idle_us: f64,
    /// The metrics catalog before and after the timed section.
    pub before: BTreeMap<String, f64>,
    pub after: BTreeMap<String, f64>,
    /// Wall time of the ingest section per acknowledged point, ns.
    pub ingest_ns_per_pt: f64,
    /// How late the generator ran, per frame, µs.
    pub lag_us: Vec<f64>,
    pub offered_pts_s: f64,
    pub offered_queries_s: f64,
}

/// The server's metrics catalog (`name value` lines) as a map.
pub fn scrape(addr: SocketAddr) -> Res<BTreeMap<String, f64>> {
    let text = BqsClient::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("scrape metrics: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Polls the metrics catalog until `name` reaches `at_least`.
pub fn wait_for_metric(addr: SocketAddr, name: &str, at_least: f64, limit: Duration) -> Res<f64> {
    let start = Instant::now();
    loop {
        let got = scrape(addr)?.get(name).copied().unwrap_or(0.0);
        if got >= at_least {
            return Ok(start.elapsed().as_secs_f64());
        }
        if start.elapsed() > limit {
            return Err(format!(
                "{name} stayed at {got}, below {at_least}, for {limit:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Round-trip of a `Stats` request on an otherwise idle server, µs.
pub fn idle_rtt_us(addr: SocketAddr, samples: usize) -> Res<Vec<f64>> {
    let mut client = BqsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            client.stats().map_err(|e| format!("stats: {e}"))?;
            Ok(micros(start.elapsed()))
        })
        .collect()
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// A raw framed connection past its `Hello` handshake.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut conn = Conn { writer, reader };
        let hello = Request::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode()
        .map_err(|e| format!("encode hello: {e}"))?;
        conn.writer
            .write_all(&bqs_net::wire::frame_to_vec(&hello))
            .map_err(|e| format!("send hello: {e}"))?;
        match conn.read_reply()? {
            Reply::HelloOk { .. } => Ok(conn),
            other => Err(format!("expected HelloOk, got {other:?}")),
        }
    }

    fn read_reply(&mut self) -> Res<Reply> {
        let payload = read_frame(&mut self.reader)
            .map_err(|e| format!("read reply: {e}"))?
            .ok_or("server closed the connection")?;
        Reply::decode(&payload).map_err(|e| format!("decode reply: {e}"))
    }
}

/// What one write schedule achieved.
#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Per acknowledged frame: send (closed loop) or due (open loop)
    /// time → ack read, µs. Probes are not samples.
    pub ack_us: Vec<f64>,
    /// Per frame, how late the generator was: the write call's own
    /// duration (closed loop) or actual send − due (open loop), µs.
    pub lag_us: Vec<f64>,
    pub acked_points: u64,
    /// Armed too-late probes the server refused, as it must.
    pub refused_probes: u64,
    /// Frames answered with anything but what they were owed, and the
    /// first such answer.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub started: Option<Instant>,
    pub ended: Option<Instant>,
}

impl WriteOutcome {
    fn settle(&mut self, frame: &WireFrame, reply: Reply, latency_us: f64) {
        match (frame.kind, reply) {
            (FrameKind::Live, Reply::Appended { points, .. })
            | (FrameKind::Backfill, Reply::LateAppended { points, .. })
                if points == u64::from(frame.points) =>
            {
                self.acked_points += points;
                self.ack_us.push(latency_us);
            }
            (
                FrameKind::Probe,
                Reply::Error {
                    code: ErrorCode::TooLate,
                    ..
                },
            ) => self.refused_probes += 1,
            (kind, reply) => {
                self.failed += 1;
                self.first_failure.get_or_insert_with(|| {
                    format!("{kind:?} frame of {} points got {reply:?}", frame.points)
                });
            }
        }
    }

    pub fn wall_s(&self) -> f64 {
        match (self.started, self.ended) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Closed loop on one connection from one thread: at most `window`
/// frames in flight, the next one written as soon as a slot frees.
pub fn write_closed(conn: &mut Conn, frames: &[WireFrame], window: usize) -> Res<WriteOutcome> {
    let mut out = WriteOutcome {
        ack_us: Vec::with_capacity(frames.len()),
        lag_us: Vec::with_capacity(frames.len()),
        started: Some(Instant::now()),
        ..WriteOutcome::default()
    };
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut next_ack = 0usize;
    for frame in frames {
        if sent_at.len() == window {
            let reply = conn.read_reply()?;
            let sent = sent_at.pop_front().expect("window is non-empty");
            out.settle(&frames[next_ack], reply, micros(sent.elapsed()));
            next_ack += 1;
        }
        let start = Instant::now();
        conn.writer
            .write_all(&frame.bytes)
            .map_err(|e| format!("send frame: {e}"))?;
        out.lag_us.push(micros(start.elapsed()));
        sent_at.push_back(start);
    }
    while let Some(sent) = sent_at.pop_front() {
        let reply = conn.read_reply()?;
        out.settle(&frames[next_ack], reply, micros(sent.elapsed()));
        next_ack += 1;
    }
    out.ended = Some(Instant::now());
    Ok(out)
}

/// [`write_closed`] on several connections at once, one thread each;
/// the outcomes are merged and the wall time runs from the common start
/// to the last acknowledgement.
pub fn write_closed_all(
    conns: &mut [Conn],
    per_conn: &[&[WireFrame]],
    window: usize,
) -> Res<WriteOutcome> {
    let start = Instant::now();
    let outcomes: Vec<Res<WriteOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(per_conn)
            .map(|(conn, frames)| scope.spawn(move || write_closed(conn, frames, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("writer panicked".into())))
            .collect()
    });
    let mut all = WriteOutcome {
        started: Some(start),
        ended: Some(start),
        ..WriteOutcome::default()
    };
    for outcome in outcomes {
        let mut o = outcome?;
        all.ended = all.ended.max(o.ended);
        all.acked_points += o.acked_points;
        all.refused_probes += o.refused_probes;
        all.failed += o.failed;
        all.first_failure = all.first_failure.or(o.first_failure);
        all.ack_us.append(&mut o.ack_us);
        all.lag_us.append(&mut o.lag_us);
    }
    Ok(all)
}

/// Sleeps until `deadline`; returns how far past it the thread woke.
pub fn sleep_until(deadline: Instant) -> Duration {
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
    Instant::now().saturating_duration_since(deadline)
}

/// Open loop on one connection: a paced sender thread writes frame `i`
/// at `t0 + due[i]` whether or not earlier frames were acknowledged,
/// while this thread reads the replies. Both block in the kernel
/// between events; latency runs from the due time, so a stall lengthens
/// every later sample.
pub fn write_open(
    conn: Conn,
    frames: &[WireFrame],
    due: &[Duration],
    t0: Instant,
) -> Res<WriteOutcome> {
    assert_eq!(frames.len(), due.len());
    let Conn { mut writer, reader } = conn;
    let mut reader = Conn {
        writer: writer.try_clone().map_err(|e| format!("clone: {e}"))?,
        reader,
    };
    let mut out = WriteOutcome {
        ack_us: Vec::with_capacity(frames.len()),
        started: Some(t0),
        ..WriteOutcome::default()
    };
    let lag = std::thread::scope(|scope| -> Res<Vec<f64>> {
        let sender = scope.spawn(move || -> Res<Vec<f64>> {
            let mut lag_us = Vec::with_capacity(frames.len());
            for (frame, due) in frames.iter().zip(due) {
                lag_us.push(micros(sleep_until(t0 + *due)));
                writer
                    .write_all(&frame.bytes)
                    .map_err(|e| format!("send frame: {e}"))?;
            }
            Ok(lag_us)
        });
        let mut read_error = None;
        for (frame, due) in frames.iter().zip(due) {
            match reader.read_reply() {
                Ok(reply) => {
                    let latency = Instant::now().saturating_duration_since(t0 + *due);
                    out.settle(frame, reply, micros(latency));
                }
                Err(e) => {
                    // Unblock the sender: its next write fails.
                    let _ = reader.writer.shutdown(std::net::Shutdown::Both);
                    read_error = Some(e);
                    break;
                }
            }
        }
        let sent = sender.join().map_err(|_| "sender thread panicked")?;
        match read_error {
            Some(e) => Err(e),
            None => sent,
        }
    })?;
    out.lag_us = lag;
    out.ended = Some(Instant::now());
    Ok(out)
}

/// What a query schedule achieved.
#[derive(Debug, Default)]
pub struct QueryOutcome {
    /// Send (closed) or due (open) → reply decoded, µs; one per query.
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub reports: Vec<QueryReport>,
    pub points_returned: u64,
    pub failed: u64,
    pub wall_s: f64,
}

/// Issues `queries` one at a time on one connection. With `schedule`
/// the loop is open: query `i` is due at `t0 + due[i]` and timed from
/// then; without, each goes out as soon as the previous returned.
pub fn run_queries(
    client: &mut BqsClient,
    queries: &[QuerySpec],
    schedule: Option<(&[Duration], Instant)>,
) -> QueryOutcome {
    let mut out = QueryOutcome::default();
    let begin = Instant::now();
    for (i, spec) in queries.iter().enumerate() {
        let from = match schedule {
            Some((due, t0)) => {
                out.lag_us.push(micros(sleep_until(t0 + due[i])));
                t0 + due[i]
            }
            None => Instant::now(),
        };
        match client.query(spec.clone()) {
            Ok(report) => {
                out.latency_us
                    .push(micros(Instant::now().saturating_duration_since(from)));
                out.points_returned += report
                    .slices
                    .iter()
                    .map(|s| s.points.len() as u64)
                    .sum::<u64>();
                out.reports.push(report);
            }
            Err(_) => out.failed += 1,
        }
    }
    out.wall_s = begin.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{encode_frames, in_order_frames, parallel_sessions};
    use bqs_net::wire::write_frame;
    use std::net::TcpListener;

    /// A fake server: answers the handshake, then acknowledges `Append`
    /// frames in order, sleeping `stall` before the `stall_at`-th ack.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut seen = 0usize;
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                let reply = match Request::decode(&payload).unwrap() {
                    Request::Hello { .. } => Reply::HelloOk {
                        protocol: PROTOCOL_VERSION,
                        workers: 1,
                    },
                    Request::Append { track, points } => {
                        if seen == stall_at {
                            std::thread::sleep(stall);
                        }
                        seen += 1;
                        Reply::Appended {
                            track,
                            points: points.len() as u64,
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                };
                write_frame(&mut stream, &reply.encode().unwrap()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_due_time_so_a_stall_lengthens_later_samples() {
        let frames = encode_frames(&in_order_frames(&parallel_sessions(1, 0, 1, 64 * 12))).unwrap();
        assert_eq!(frames.len(), 12);
        let step = Duration::from_millis(5);
        let due: Vec<Duration> = (0..12).map(|i| step * i).collect();
        let stall = Duration::from_millis(60);
        let (addr, server) = fake_server(3, stall);
        let conn = Conn::connect(addr).unwrap();
        let out = write_open(conn, &frames, &due, Instant::now()).unwrap();
        server.join().unwrap();
        assert_eq!(out.failed, 0);
        assert_eq!(out.acked_points, 64 * 12);
        assert_eq!(out.ack_us.len(), 12);
        // Frames before the stall are quick…
        assert!(
            out.ack_us[..3].iter().all(|&l| l < 20_000.0),
            "{:?}",
            out.ack_us
        );
        // …the stalled one carries the stall…
        assert!(out.ack_us[3] >= 60_000.0, "{:?}", out.ack_us);
        // …and so do the frames that came due while the server slept:
        // frame 4 was due 5 ms after frame 3, so it waits ≥ 55 ms, and
        // the backlog drains one step at a time.
        assert!(out.ack_us[4] >= 50_000.0, "{:?}", out.ack_us);
        assert!(out.ack_us[8] >= 30_000.0, "{:?}", out.ack_us);
        // The generator itself kept to its schedule.
        assert!(out.lag_us.iter().all(|&l| l < 20_000.0), "{:?}", out.lag_us);
    }

    #[test]
    fn closed_loop_keeps_the_window_and_counts_every_ack() {
        let frames = encode_frames(&in_order_frames(&parallel_sessions(2, 0, 2, 64 * 10))).unwrap();
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).unwrap();
        let out = write_closed(&mut conn, &frames, 8).unwrap();
        drop(conn);
        server.join().unwrap();
        assert_eq!(out.failed, 0);
        assert_eq!(out.acked_points, 2 * 64 * 10);
        assert_eq!(out.ack_us.len(), 20);
        assert_eq!(out.lag_us.len(), 20);
        assert!(out.wall_s() > 0.0);
    }

    #[test]
    fn a_wrong_reply_is_a_failed_operation() {
        let frames = encode_frames(&in_order_frames(&parallel_sessions(3, 0, 1, 64))).unwrap();
        let mut out = WriteOutcome::default();
        out.settle(
            &frames[0],
            Reply::Appended {
                track: 0,
                points: 63,
            },
            1.0,
        );
        out.settle(&frames[0], Reply::Flushed, 1.0);
        assert_eq!(out.failed, 2);
        out.settle(
            &frames[0],
            Reply::Appended {
                track: 0,
                points: 64,
            },
            1.0,
        );
        assert_eq!((out.failed, out.acked_points), (2, 64));
    }

    #[test]
    fn scratch_directories_are_unique_and_removed_on_drop() {
        let root = std::env::temp_dir();
        let a = Scratch::new(&root, "unit", 0).unwrap();
        let b = Scratch::new(&root, "unit", 1).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"abc").unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 3);
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        drop(b);
        assert!(!pa.exists() && !pb.exists());
    }
}
