//! # bqs-net — the framed TCP ingest/query server over the parallel fleet
//!
//! The paper's premise is compression *on the go*: points arrive from
//! remote, resource-poor devices and must be bounded-error-compressed
//! as they stream in. The workspace already models the device side
//! (`bqs_eval::device`), scales the receiving side across cores
//! ([`ParallelFleet`](bqs_core::fleet::ParallelFleet)) and makes the
//! output durable and queryable (`bqs-tlog`); this crate is the network
//! serving layer that turns those pieces into a system many clients can
//! actually talk to:
//!
//! * [`wire`] — the protocol: length-prefixed, CRC-framed binary
//!   messages (`Hello`/`Append`/`Flush`/`Query`/`Stats`/`Shutdown` and
//!   typed replies) whose bodies reuse the varint + f64-bit-map
//!   primitives of `bqs_tlog`'s storage codec. Torn, oversized and
//!   corrupt frames are typed [`WireError`]s, never silent.
//! * [`server`] — [`Server`]: a fixed pool of I/O threads
//!   (`--io-threads`, default 4) that hold every socket — thread 0 also
//!   polls the listeners and hands connections out — and multiplex them
//!   via readiness polling (epoll/kqueue through the
//!   vendored `polling` shim, with a portable fallback). `Append`
//!   frames decode straight into columnar batches and enter the fleet
//!   as whole runs — one channel send per frame. Backpressure still
//!   propagates from a saturated worker shard all the way to the
//!   remote socket; `Query` merges a live
//!   [`FleetSnapshot`](bqs_core::fleet::FleetSnapshot) with the spill
//!   tree through the unified
//!   [`QueryEngine`](bqs_tlog::QueryEngine); `Shutdown` drains
//!   connections and leaves a spill tree `bqs log verify` accepts.
//!   The pool is the only serving path; `--io-threads` sizes it. Every
//!   server instruments itself into the registry and flight recorder
//!   it creates at bind time ([`Server::metrics`],
//!   [`Server::recorder`]).
//! * [`client`] — [`BqsClient`]: the blocking client library.
//! * [`loadgen`] — seeded multi-connection load generation whose
//!   workloads match `bqs fleet`'s exactly, so network ingest is
//!   provably equivalent to in-process ingest
//!   (`tests/net_equivalence.rs`).
//!
//! `bqs serve` and `bqs loadgen` expose the subsystem on the command
//! line; `docs/protocol.md` specifies the wire format.
//!
//! Everything is `std::net` + threads + a vendored poller shim: no
//! async runtime, and readiness-gated reads preserve the exact
//! end-to-end backpressure semantics the blocking design had.

#![deny(missing_docs)]

pub mod client;
pub mod error;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{BqsClient, ShutdownAck, Subscription};
pub use error::NetError;
pub use loadgen::{disorder_trace, session_trace, LoadgenConfig, LoadgenReport};
pub use server::{ServeReport, Server, ServerConfig, DEFAULT_IO_THREADS, DEFAULT_MAX_CONNECTIONS};
pub use wire::{
    decode_append_columns, encode_append_columns, ErrorCode, QueryReport, QuerySpec, Reply,
    Request, ShardStat, StatsReport, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
