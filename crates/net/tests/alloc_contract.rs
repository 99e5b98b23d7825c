//! The serving path's allocation contract. A warm loopback server
//! ingesting steady-state `Append` frames may allocate only a pinned
//! handful of times per frame beyond what the compressor itself needs:
//! the allocations a bare `FastBqsCompressor` makes over the same
//! per-track streams are the floor, and everything the server adds —
//! decode, validation, admission, the fleet hop, the reply — must stay
//! within [`MAX_SERVER_ALLOCS_PER_FRAME`] of it, at `--lateness 0` and
//! at `--lateness 30`, where every frame parks points and releases the
//! ones the watermark clears.
//!
//! Allocations are counted process-wide by a `System`-backed global
//! allocator, so the client side of the test allocates nothing while
//! the window is open: every frame is encoded up front, and replies are
//! read into a fixed buffer. The cases take one lock for their whole
//! run, so one case's allocations never land in another's window.

use bqs_core::stream::CountingSink;
use bqs_core::{BqsConfig, FastBqsCompressor, StreamCompressor};
use bqs_geo::{ColumnarBatch, TimedPoint};
use bqs_net::wire::{frame_to_vec, HEADER_BYTES};
use bqs_net::{
    encode_append_columns, session_trace, BqsClient, Reply, Request, Server, ServerConfig,
    PROTOCOL_VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// Every method forwards its arguments unchanged to `System`; counting
// touches only an atomic, never the memory handed out.
// SAFETY: `System` upholds the `GlobalAlloc` contract this impl forwards to.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `alloc` contract is passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed event counter; the test reads it after a reply round trip
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller, who guarantees a non-zero size.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed event counter; the test reads it after a reply round trip
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller, who guarantees a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `realloc` contract is passed through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: relaxed event counter; the test reads it after a reply round trip
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `dealloc` contract is passed through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    // ordering: relaxed read; every counted allocation happened before a reply this thread has read
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Server allocations per steady-state frame beyond the bare
/// compressor's allocations per 64 points, at either lateness. About
/// 4.0 today; a row copy of each frame (one more allocation per frame)
/// breaks it, and so does a release buffer grown afresh per frame at
/// `--lateness 30` (about four more).
const MAX_SERVER_ALLOCS_PER_FRAME: f64 = 4.5;

/// Held by each case for its whole run: the allocation counter is
/// process-wide.
static ONE_CASE_AT_A_TIME: Mutex<()> = Mutex::new(());

const TRACKS: u64 = 8;
const BATCH: usize = 64;
/// Frames per track sent before the window opens: sessions exist, the
/// per-connection buffers and the fleet's maps have reached size.
const WARM_FRAMES: usize = 50;
/// Frames per track inside the window.
const MEASURED_FRAMES: usize = 400;
const SEED: u64 = 7;
const TOLERANCE: f64 = 10.0;

fn traces() -> Vec<Vec<TimedPoint>> {
    (0..TRACKS)
        .map(|track| session_trace(SEED, track, (WARM_FRAMES + MEASURED_FRAMES) * BATCH))
        .collect()
}

/// Allocations a bare FBQS makes per 64 points over the measured part
/// of every trace, after running the warm-up part untimed.
fn bare_fbqs_allocs_per_batch(traces: &[Vec<TimedPoint>]) -> f64 {
    let config = BqsConfig::new(TOLERANCE).expect("tolerance");
    let mut compressors: Vec<FastBqsCompressor> = traces
        .iter()
        .map(|_| FastBqsCompressor::new(config))
        .collect();
    let mut sink = CountingSink::new();
    let warm = WARM_FRAMES * BATCH;
    for (c, trace) in compressors.iter_mut().zip(traces) {
        for &p in &trace[..warm] {
            c.push(p, &mut sink);
        }
    }
    let before = allocations();
    // Frame order, as the client sends them: track by track per round.
    for frame in 0..MEASURED_FRAMES {
        for (c, trace) in compressors.iter_mut().zip(traces) {
            let from = warm + frame * BATCH;
            for &p in &trace[from..from + BATCH] {
                c.push(p, &mut sink);
            }
        }
    }
    let spent = allocations() - before;
    spent as f64 / (MEASURED_FRAMES as u64 * TRACKS) as f64
}

/// One `Append` frame per (round, track), ready to write.
fn encode_frames(traces: &[Vec<TimedPoint>], rounds: std::ops::Range<usize>) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for round in rounds {
        for (track, trace) in traces.iter().enumerate() {
            let run = &trace[round * BATCH..(round + 1) * BATCH];
            let payload = encode_append_columns(track as u64, &ColumnarBatch::from_points(run))
                .expect("encode append");
            frames.push(frame_to_vec(&payload));
        }
    }
    frames
}

/// Reads one reply frame into `buf` without allocating; returns its
/// payload.
fn read_reply<'a>(stream: &mut TcpStream, buf: &'a mut [u8]) -> &'a [u8] {
    stream
        .read_exact(&mut buf[..HEADER_BYTES])
        .expect("reply header");
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    let total = HEADER_BYTES + len + 4;
    assert!(total <= buf.len(), "reply of {total} bytes");
    stream
        .read_exact(&mut buf[HEADER_BYTES..total])
        .expect("reply body");
    &buf[HEADER_BYTES..HEADER_BYTES + len]
}

/// Writes every frame closed-loop, checking each reply is the expected
/// `Appended` acknowledgement.
fn send_appends(stream: &mut TcpStream, frames: &[Vec<u8>], acks: &[Vec<u8>], buf: &mut [u8]) {
    for (i, frame) in frames.iter().enumerate() {
        stream.write_all(frame).expect("write append");
        let reply = read_reply(stream, buf);
        assert!(
            reply == acks[i % acks.len()].as_slice(),
            "frame {i}: {reply:?}"
        );
    }
}

/// A `Stats` round trip: the server answers only after every worker has
/// processed everything submitted before it, so the allocations of all
/// earlier frames have happened by the time the reply is read.
fn barrier(stream: &mut TcpStream, stats: &[u8], buf: &mut [u8]) {
    stream.write_all(stats).expect("write stats");
    read_reply(stream, buf);
}

#[test]
fn serving_allocates_a_pinned_constant_per_frame_beyond_the_compressor() {
    check_allocs_per_frame(0.0);
}

#[test]
fn serving_with_a_lateness_window_allocates_a_pinned_constant_per_frame() {
    check_allocs_per_frame(30.0);
}

/// Serves the warm-up and measured frames on a server started with
/// `--lateness lateness` and asserts its allocations per frame beyond a
/// bare FBQS stay within [`MAX_SERVER_ALLOCS_PER_FRAME`].
fn check_allocs_per_frame(lateness: f64) {
    let _one = ONE_CASE_AT_A_TIME
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let traces = traces();
    let bare = bare_fbqs_allocs_per_batch(&traces);

    let root = std::env::temp_dir()
        .join("bqs-net-alloc-contract")
        .join(format!("{}-{lateness}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new("127.0.0.1:0", 2, &root);
    config.io_threads = 1;
    config.lateness = lateness;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let warm = encode_frames(&traces, 0..WARM_FRAMES);
    let measured = encode_frames(&traces, WARM_FRAMES..WARM_FRAMES + MEASURED_FRAMES);
    let acks: Vec<Vec<u8>> = (0..TRACKS)
        .map(|track| {
            Reply::Appended {
                track,
                points: BATCH as u64,
            }
            .encode()
            .expect("encode ack")
        })
        .collect();
    let hello = frame_to_vec(
        &Request::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode()
        .expect("encode hello"),
    );
    let stats = frame_to_vec(&Request::Stats.encode().expect("encode stats"));
    let mut buf = vec![0u8; 64 * 1024];

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&hello).expect("write hello");
    read_reply(&mut stream, &mut buf);
    send_appends(&mut stream, &warm, &acks, &mut buf);
    barrier(&mut stream, &stats, &mut buf);

    let before = allocations();
    send_appends(&mut stream, &measured, &acks, &mut buf);
    barrier(&mut stream, &stats, &mut buf);
    let spent = allocations() - before;
    let server = spent as f64 / measured.len() as f64;

    drop(stream);
    BqsClient::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(
        report.appended_points,
        (WARM_FRAMES + MEASURED_FRAMES) as u64 * TRACKS * BATCH as u64
    );
    let _ = std::fs::remove_dir_all(&root);

    let extra = server - bare;
    println!(
        "lateness {lateness}: allocations per frame: server {server:.2}, bare FBQS {bare:.2} \
         per {BATCH} points, difference {extra:.2} (pinned ≤ {MAX_SERVER_ALLOCS_PER_FRAME})"
    );
    assert!(
        extra <= MAX_SERVER_ALLOCS_PER_FRAME,
        "at lateness {lateness} the server allocates {server:.2} times per {BATCH}-point \
         Append frame, {extra:.2} beyond a bare FBQS's {bare:.2}; the contract is ≤ {MAX_SERVER_ALLOCS_PER_FRAME}"
    );
}
