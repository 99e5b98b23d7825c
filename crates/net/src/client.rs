//! [`BqsClient`] — the blocking client half of the wire protocol.
//!
//! One request, one reply, in order, over one TCP connection; the
//! handshake (`Hello`/`HelloOk`) runs inside [`BqsClient::connect`], so
//! a connected client is always version-compatible. Server-side
//! failures come back as [`NetError::Server`] with the typed
//! [`ErrorCode`](crate::wire::ErrorCode) the server sent.

use crate::error::NetError;
use crate::wire::{
    read_frame, write_frame, QueryReport, QuerySpec, Reply, Request, StatsReport, HEADER_BYTES,
    PROTOCOL_VERSION,
};
use bqs_geo::TimedPoint;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// Totals acknowledged by the server when it accepted a shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownAck {
    /// Connections the server accepted over its lifetime.
    pub connections: u64,
    /// Points the server accepted over its lifetime.
    pub appended_points: u64,
}

/// A blocking connection to a `bqs serve` instance.
///
/// See [`Server`](crate::Server) for a round-trip example.
pub struct BqsClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Worker shards the server reported in the handshake.
    workers: u64,
    /// Frames this client has written (handshake included).
    frames_sent: u64,
    /// Bytes this client has written, framing included.
    bytes_sent: u64,
}

impl BqsClient {
    /// Connects and performs the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> Result<BqsClient, NetError> {
        let stream =
            TcpStream::connect(&addr).map_err(|e| NetError::io(format!("connect {addr}"), e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("set_nodelay", e))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| NetError::io("clone stream", e))?,
        );
        let mut client = BqsClient {
            writer: stream,
            reader,
            workers: 0,
            frames_sent: 0,
            bytes_sent: 0,
        };
        match client.call(
            &Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
            "HelloOk",
        )? {
            Reply::HelloOk { protocol, workers } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(NetError::Handshake { found: protocol });
                }
                client.workers = workers;
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Worker shards behind the connected server.
    pub fn workers(&self) -> u64 {
        self.workers
    }

    /// `(frames, bytes)` this client has written to the server, the
    /// `Hello` handshake and framing overhead included — the client's
    /// half of the ground truth the server-side `net_bytes_in_total` /
    /// `net_frames_total` counters must account for exactly.
    pub fn io_counters(&self) -> (u64, u64) {
        (self.frames_sent, self.bytes_sent)
    }

    /// Sends one request and reads its reply; a typed server error
    /// becomes `Err(NetError::Server)`.
    fn call(&mut self, request: &Request, expected: &'static str) -> Result<Reply, NetError> {
        let payload = request.encode()?;
        write_frame(&mut self.writer, &payload).map_err(|e| NetError::io("send request", e))?;
        self.frames_sent += 1;
        self.bytes_sent += (HEADER_BYTES + payload.len() + 4) as u64;
        match read_frame(&mut self.reader)? {
            Some(payload) => match Reply::decode(&payload)? {
                Reply::Error { code, message } => Err(NetError::Server { code, message }),
                reply => Ok(reply),
            },
            None => Err(NetError::ConnectionClosed { expected }),
        }
    }

    /// Appends a time-ordered batch of `track`'s points; returns the
    /// count the server accepted.
    pub fn append(&mut self, track: u64, points: &[TimedPoint]) -> Result<u64, NetError> {
        match self.call(
            &Request::Append {
                track,
                points: points.to_vec(),
            },
            "Appended",
        )? {
            Reply::Appended { points, .. } => Ok(points),
            other => Err(unexpected("Appended", &other)),
        }
    }

    /// Appends a late batch of `track`'s points. The batch may be
    /// arbitrarily disordered; every point must land within the
    /// server's lateness window or the whole batch is refused with
    /// [`ErrorCode::TooLate`](crate::wire::ErrorCode::TooLate) (the
    /// connection survives a refusal).
    pub fn append_late(&mut self, track: u64, points: &[TimedPoint]) -> Result<u64, NetError> {
        self.late_call(track, false, points)
    }

    /// Appends a batch through the durable backfill path: no lateness
    /// window applies, the batch must be time-sorted within itself, and
    /// the points are written as flagged backfill records at server
    /// finalization (merged durable-wins at query time).
    pub fn append_backfill(&mut self, track: u64, points: &[TimedPoint]) -> Result<u64, NetError> {
        self.late_call(track, true, points)
    }

    fn late_call(
        &mut self,
        track: u64,
        backfill: bool,
        points: &[TimedPoint],
    ) -> Result<u64, NetError> {
        match self.call(
            &Request::AppendLate {
                track,
                backfill,
                points: points.to_vec(),
            },
            "LateAppended",
        )? {
            Reply::LateAppended { points, .. } => Ok(points),
            other => Err(unexpected("LateAppended", &other)),
        }
    }

    /// Turns this connection into a live subscription to kept points,
    /// optionally filtered to one track and/or a bounding box
    /// (`[x0, y0, x1, y1]`). Consumes the client: after `Subscribed`
    /// the connection only carries pushed frames.
    pub fn subscribe(
        mut self,
        track: Option<u64>,
        bbox: Option<[f64; 4]>,
    ) -> Result<Subscription, NetError> {
        match self.call(&Request::Subscribe { track, bbox }, "Subscribed")? {
            Reply::Subscribed => Ok(Subscription {
                reader: self.reader,
                _writer: self.writer,
                ended: false,
            }),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Asks the server to ship every partially filled fleet batch.
    pub fn flush(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Flush, "Flushed")? {
            Reply::Flushed => Ok(()),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// A unified hot/cold query. `track = None` queries every track;
    /// the bounds are inclusive and may be infinite.
    pub fn query_time_range(
        &mut self,
        track: Option<u64>,
        from: f64,
        to: f64,
    ) -> Result<QueryReport, NetError> {
        self.query(QuerySpec {
            track,
            from,
            to,
            bbox: None,
        })
    }

    /// A unified hot/cold query with a spatial filter
    /// (`[x0, y0, x1, y1]`, any two opposite corners).
    pub fn query_bbox(
        &mut self,
        track: Option<u64>,
        bbox: [f64; 4],
        from: f64,
        to: f64,
    ) -> Result<QueryReport, NetError> {
        self.query(QuerySpec {
            track,
            from,
            to,
            bbox: Some(bbox),
        })
    }

    /// A unified hot/cold query from an explicit [`QuerySpec`].
    pub fn query(&mut self, spec: QuerySpec) -> Result<QueryReport, NetError> {
        match self.call(&Request::Query(spec), "QueryResult")? {
            Reply::QueryResult(report) => Ok(report),
            other => Err(unexpected("QueryResult", &other)),
        }
    }

    /// Merged decision statistics plus per-shard counters.
    pub fn stats(&mut self) -> Result<StatsReport, NetError> {
        match self.call(&Request::Stats, "StatsReply")? {
            Reply::StatsReply(report) => Ok(report),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// The server's metrics catalog as sorted `name value` text lines
    /// (see `docs/observability.md`).
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.metrics_text(false)
    }

    /// The server's metrics catalog in the Prometheus text exposition
    /// format — the same payload `bqs serve --prom-addr` serves over
    /// HTTP.
    pub fn metrics_prom(&mut self) -> Result<String, NetError> {
        self.metrics_text(true)
    }

    fn metrics_text(&mut self, prom: bool) -> Result<String, NetError> {
        match self.call(&Request::Metrics { prom }, "MetricsReply")? {
            Reply::MetricsReply { text } => Ok(text),
            other => Err(unexpected("MetricsReply", &other)),
        }
    }

    /// The server's flight-recorder contents as `(dropped, events)`,
    /// optionally truncated to the most recent `last` events and/or
    /// filtered to one connection id.
    pub fn trace_dump(
        &mut self,
        last: Option<u64>,
        conn: Option<u64>,
    ) -> Result<(u64, Vec<bqs_obs::TraceEvent>), NetError> {
        match self.call(&Request::TraceDump { last, conn }, "TraceReply")? {
            Reply::TraceReply { dropped, events } => Ok((dropped, events)),
            other => Err(unexpected("TraceReply", &other)),
        }
    }

    /// Asks the server to drain, spill and exit; the connection is
    /// closed after the acknowledgement.
    pub fn shutdown(mut self) -> Result<ShutdownAck, NetError> {
        match self.call(&Request::Shutdown, "ShuttingDown")? {
            Reply::ShuttingDown {
                connections,
                appended_points,
            } => Ok(ShutdownAck {
                connections,
                appended_points,
            }),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// The receiving half of a live [`BqsClient::subscribe`] call.
///
/// Yields pushed batches until the server drains (`SubEnd`) or the
/// connection closes; dropping the subscription closes the connection,
/// which the server treats as a clean unsubscribe.
pub struct Subscription {
    reader: BufReader<TcpStream>,
    // Kept alive so the server sees the socket open until drop.
    _writer: TcpStream,
    ended: bool,
}

impl Subscription {
    /// Blocks for the next pushed batch of kept points, returned as
    /// `(track, points)`. `Ok(None)` once the stream has ended — the
    /// server sent `SubEnd` while draining, or closed the connection.
    #[allow(clippy::type_complexity)]
    pub fn next_batch(&mut self) -> Result<Option<(u64, Vec<TimedPoint>)>, NetError> {
        if self.ended {
            return Ok(None);
        }
        loop {
            let Some(payload) = read_frame(&mut self.reader)? else {
                self.ended = true;
                return Ok(None);
            };
            match Reply::decode(&payload)? {
                Reply::SubPoints { points, .. } if points.is_empty() => continue,
                Reply::SubPoints { track, points } => return Ok(Some((track, points))),
                Reply::SubEnd => {
                    self.ended = true;
                    return Ok(None);
                }
                Reply::Error { code, message } => {
                    self.ended = true;
                    return Err(NetError::Server { code, message });
                }
                other => return Err(unexpected("SubPoints", &other)),
            }
        }
    }
}

fn unexpected(expected: &'static str, found: &Reply) -> NetError {
    let name = match found {
        Reply::HelloOk { .. } => "HelloOk",
        Reply::Appended { .. } => "Appended",
        Reply::LateAppended { .. } => "LateAppended",
        Reply::Subscribed => "Subscribed",
        Reply::SubPoints { .. } => "SubPoints",
        Reply::SubEnd => "SubEnd",
        Reply::Flushed => "Flushed",
        Reply::QueryResult(_) => "QueryResult",
        Reply::StatsReply(_) => "StatsReply",
        Reply::MetricsReply { .. } => "MetricsReply",
        Reply::TraceReply { .. } => "TraceReply",
        Reply::ShuttingDown { .. } => "ShuttingDown",
        Reply::Error { .. } => "Error",
    };
    NetError::UnexpectedReply {
        expected,
        found: name.to_string(),
    }
}
