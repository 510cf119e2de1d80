//! Blocking client for the serving daemon.
//!
//! [`Client`] wraps one TCP connection and offers a typed method per
//! request kind plus [`Client::pipeline`], which ships many requests in
//! one write and reads the responses back in order — that is the path
//! that exercises the server's per-connection batching (the server
//! drains all pipelined frames in one round and answers them against a
//! single pinned snapshot per shard).
//!
//! Two degradation knobs ride along:
//!
//! * [`ClientConfig`] — connect and per-op I/O timeouts, so a dead or
//!   wedged server surfaces as a timely [`ClientError::Io`] instead of
//!   hanging the caller forever.
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter. [`Client::call_with_retry`] retries an
//!   [`Overloaded`](ClientError::Overloaded) shed unconditionally (the
//!   server refused *before* executing anything) but retries transport
//!   failures only for idempotent reads — a `LoadSnapshot` or
//!   `Rollback` whose connection died mid-flight may have committed, so
//!   blind replay could double-install.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use dpsc_private_count::codec::DecodeError;

use crate::trace::TraceEvent;
use crate::wire::{
    decode_response, encode_load_snapshot, encode_request, MetricsReport, Request, Response,
    ServerStats, MAX_FRAME_LEN,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including a `ClientConfig::io_timeout` expiry,
    /// which surfaces as `WouldBlock`/`TimedOut`).
    Io(std::io::Error),
    /// The server's bytes did not decode as a response frame.
    Decode(DecodeError),
    /// The server answered with an error response.
    Server(String),
    /// The server shed this connection at admission (nothing executed);
    /// retry after backoff, e.g. via [`Client::call_with_retry`].
    Overloaded,
    /// The server answered with a well-formed response of the wrong kind.
    UnexpectedResponse(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Decode(e) => write!(f, "protocol decode error: {e}"),
            Self::Server(msg) => write!(f, "server error: {msg}"),
            Self::Overloaded => write!(f, "server overloaded (retryable)"),
            Self::UnexpectedResponse(what) => write!(f, "unexpected response (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

/// Connection-level timeouts. The default (both `None`) keeps the
/// historical blocking behavior.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Bound on TCP connection establishment per resolved address.
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket read/write (one frame may take several).
    pub io_timeout: Option<Duration>,
}

/// Capped exponential backoff with deterministic jitter for
/// [`Client::call_with_retry`]. Delay for attempt `n` is
/// `min(base_delay · 2ⁿ, max_delay)` scaled by a jitter factor in
/// `[0.5, 1.0)` derived from `jitter_seed` and `n` — deterministic, so
/// test schedules are reproducible, yet decorrelated across clients
/// with different seeds.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// First backoff delay.
    pub base_delay: Duration,
    /// Backoff growth cap.
    pub max_delay: Duration,
    /// Seed decorrelating jitter across clients.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(20));
        let capped = exp.min(self.max_delay);
        // splitmix64 of (seed, attempt) → jitter factor in [0.5, 1.0).
        let mut x = self
            .jitter_seed
            .wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let frac = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        capped.mul_f64(frac)
    }
}

/// Maps a non-matching response to the right typed error.
fn fail<T>(resp: Response, wanted: &'static str) -> Result<T, ClientError> {
    match resp {
        Response::Error { message } => Err(ClientError::Server(message)),
        Response::Overloaded => Err(ClientError::Overloaded),
        _ => Err(ClientError::UnexpectedResponse(wanted)),
    }
}

/// One blocking connection to a [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, since the protocol is
    /// request/response sized well below the MTU) with no timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts. `connect_timeout` bounds the TCP
    /// handshake per resolved address; `io_timeout` is installed as the
    /// socket read *and* write timeout for every subsequent call.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> std::io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            let attempt = match config.connect_timeout {
                Some(t) => TcpStream::connect_timeout(&candidate, t),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.io_timeout)?;
                    stream.set_write_timeout(config.io_timeout)?;
                    let peer = stream.peer_addr()?;
                    return Ok(Self { stream, peer, config });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// The server address this client is (or was) connected to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Reads exactly one response frame.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut len_bytes = [0u8; 4];
        self.stream.read_exact(&mut len_bytes)?;
        let body_len = u32::from_le_bytes(len_bytes) as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(ClientError::Decode(DecodeError::BadField {
                field: "frame length",
                detail: format!("{body_len} exceeds the {MAX_FRAME_LEN}-byte cap"),
            }));
        }
        let mut body = vec![0u8; body_len];
        self.stream.read_exact(&mut body)?;
        Ok(decode_response(&body)?)
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.stream.write_all(&encode_request(req))?;
        self.read_response()
    }

    /// Ships `requests` back-to-back and reads the responses in order.
    /// The server drains each burst in one batched round (single snapshot
    /// pin per shard, single response flush).
    ///
    /// Writes are flushed — and their responses drained — every ~32 KiB
    /// rather than all at once: with both directions buffered in the
    /// kernel, writing an unbounded burst before reading anything can
    /// deadlock once the server blocks flushing answers we are not yet
    /// reading. Bounding the unread-response backlog keeps arbitrarily
    /// large bursts safe.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        const CHUNK_BYTES: usize = 32 * 1024;
        let mut responses = Vec::with_capacity(requests.len());
        let mut buf: Vec<u8> = Vec::new();
        let mut pending = 0usize;
        for req in requests {
            buf.extend_from_slice(&encode_request(req));
            pending += 1;
            if buf.len() >= CHUNK_BYTES {
                self.stream.write_all(&buf)?;
                buf.clear();
                for _ in 0..pending {
                    responses.push(self.read_response()?);
                }
                pending = 0;
            }
        }
        if !buf.is_empty() {
            self.stream.write_all(&buf)?;
        }
        for _ in 0..pending {
            responses.push(self.read_response()?);
        }
        Ok(responses)
    }

    /// Whether replaying `req` after an ambiguous transport failure is
    /// safe: reads are, installs and shutdowns are not (they may have
    /// executed before the connection died).
    fn is_idempotent(req: &Request) -> bool {
        matches!(
            req,
            Request::Query { .. }
                | Request::QueryBatch { .. }
                | Request::Contains { .. }
                | Request::Stats
                | Request::Metrics
                | Request::Trace { .. }
                | Request::MetricsText
        )
    }

    /// [`Self::call`] under `policy`: an [`Response::Overloaded`] shed is
    /// always retried (the server refused at admission, nothing ran);
    /// transport errors are retried only for idempotent requests. Each
    /// retry sleeps the policy backoff and reconnects (the server closes
    /// shed connections). Exhausted retries surface the last outcome,
    /// with a terminal shed mapped to [`ClientError::Overloaded`].
    pub fn call_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.call(req);
            let retryable = match &outcome {
                Ok(Response::Overloaded) => true,
                Err(ClientError::Io(_)) => Self::is_idempotent(req),
                _ => false,
            };
            if !retryable || attempt >= policy.max_retries {
                return match outcome {
                    Ok(Response::Overloaded) => Err(ClientError::Overloaded),
                    other => other,
                };
            }
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
            if let Ok(fresh) = Self::connect_with(self.peer, self.config.clone()) {
                *self = fresh;
            }
        }
    }

    /// Noisy count for `pattern` on `shard` — bit-identical to a local
    /// `FrozenSynopsis::query` against the shard's resident snapshot.
    pub fn query(&mut self, shard: u32, pattern: &[u8]) -> Result<f64, ClientError> {
        match self.call(&Request::Query { shard, pattern: pattern.to_vec() })? {
            Response::Query { value } => Ok(value),
            other => fail(other, "Query"),
        }
    }

    /// [`Self::query`] with overload/transport retries under `policy`.
    pub fn query_with_retry(
        &mut self,
        shard: u32,
        pattern: &[u8],
        policy: &RetryPolicy,
    ) -> Result<f64, ClientError> {
        let req = Request::Query { shard, pattern: pattern.to_vec() };
        match self.call_with_retry(&req, policy)? {
            Response::Query { value } => Ok(value),
            other => fail(other, "Query"),
        }
    }

    /// Batched counts on one shard; `values[i]` answers `patterns[i]`,
    /// all from a single epoch.
    pub fn query_batch(&mut self, shard: u32, patterns: &[&[u8]]) -> Result<Vec<f64>, ClientError> {
        let req =
            Request::QueryBatch { shard, patterns: patterns.iter().map(|p| p.to_vec()).collect() };
        match self.call(&req)? {
            Response::QueryBatch { values } => Ok(values),
            other => fail(other, "QueryBatch"),
        }
    }

    /// Whether `pattern` has a node in the shard's synopsis.
    pub fn contains(&mut self, shard: u32, pattern: &[u8]) -> Result<bool, ClientError> {
        match self.call(&Request::Contains { shard, pattern: pattern.to_vec() })? {
            Response::Contains { present } => Ok(present),
            other => fail(other, "Contains"),
        }
    }

    /// Operator stats: per-shard epoch/size/utility bounds + cache counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => fail(other, "Stats"),
        }
    }

    /// Operator metrics: served qps, per-op counters, latency
    /// percentiles, cache hit rate, and per-shard epoch/size.
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(report) => Ok(*report),
            other => fail(other, "Metrics"),
        }
    }

    /// Drains up to `max` of the most recent structured trace events
    /// from the server's trace ring, oldest first. Non-destructive (the
    /// ring is overwrite-on-wrap, not consume-on-read) and empty when
    /// the server runs with tracing disabled. Events carry pattern
    /// fingerprints and lengths only — never pattern bytes.
    pub fn trace(&mut self, max: u32) -> Result<Vec<TraceEvent>, ClientError> {
        match self.call(&Request::Trace { max })? {
            Response::Trace { events } => Ok(events),
            other => fail(other, "Trace"),
        }
    }

    /// The Prometheus-style text exposition of the server's metrics —
    /// the same numbers as [`Self::metrics`], rendered scrapeable.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::MetricsText)? {
            Response::MetricsText { text } => Ok(text),
            other => fail(other, "MetricsText"),
        }
    }

    /// Installs (or hot-swaps) `shard` from serialized snapshot bytes;
    /// returns the new epoch. When the server runs a snapshot store the
    /// bytes are durably persisted before they start serving.
    pub fn load_snapshot(&mut self, shard: u32, snapshot: &[u8]) -> Result<u64, ClientError> {
        self.stream.write_all(&encode_load_snapshot(shard, snapshot))?;
        match self.read_response()? {
            Response::LoadSnapshot { epoch, .. } => Ok(epoch),
            other => fail(other, "LoadSnapshot"),
        }
    }

    /// Re-installs retained durable `epoch` of `shard` from the server's
    /// snapshot store; returns the fresh epoch now serving those bytes.
    /// Fails on servers running without a store.
    pub fn rollback(&mut self, shard: u32, epoch: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Rollback { shard, epoch })? {
            Response::Rollback { epoch } => Ok(epoch),
            other => fail(other, "Rollback"),
        }
    }

    /// Asks the daemon to exit; consumes the client (the connection is
    /// closed by the server after the acknowledgement).
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => fail(other, "Shutdown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            jitter_seed: 42,
        };
        let delays: Vec<Duration> = (0..8).map(|a| policy.backoff(a)).collect();
        // Jitter stays within [0.5, 1.0) of the capped exponential.
        for (a, d) in delays.iter().enumerate() {
            let nominal = Duration::from_millis(10).saturating_mul(1 << a).min(policy.max_delay);
            assert!(
                *d >= nominal.mul_f64(0.5) && *d < nominal,
                "attempt {a}: {d:?} vs {nominal:?}"
            );
        }
        // Capped: late attempts never exceed max_delay.
        assert!(delays[7] < Duration::from_millis(200));
        // Deterministic.
        assert_eq!(delays, (0..8).map(|a| policy.backoff(a)).collect::<Vec<_>>());
        // Different seeds decorrelate.
        let other = RetryPolicy { jitter_seed: 43, ..policy.clone() };
        assert_ne!(policy.backoff(0), other.backoff(0));
    }

    #[test]
    fn idempotency_classification_gates_io_retries() {
        assert!(Client::is_idempotent(&Request::Query { shard: 0, pattern: b"a".to_vec() }));
        assert!(Client::is_idempotent(&Request::QueryBatch { shard: 0, patterns: vec![] }));
        assert!(Client::is_idempotent(&Request::Contains { shard: 0, pattern: b"a".to_vec() }));
        assert!(Client::is_idempotent(&Request::Stats));
        assert!(Client::is_idempotent(&Request::Metrics));
        // Trace drains are reads: the ring is overwrite-on-wrap, never
        // consume-on-read, so replaying a drain cannot lose events.
        assert!(Client::is_idempotent(&Request::Trace { max: 64 }));
        assert!(Client::is_idempotent(&Request::MetricsText));
        assert!(!Client::is_idempotent(&Request::LoadSnapshot {
            shard: 0,
            snapshot: Vec::new().into()
        }));
        assert!(!Client::is_idempotent(&Request::Rollback { shard: 0, epoch: 1 }));
        assert!(!Client::is_idempotent(&Request::Shutdown));
    }
}
