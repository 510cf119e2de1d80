//! The versioned binary wire protocol spoken between [`crate::Server`]
//! and [`crate::Client`].
//!
//! Every message is one *frame*: a little-endian `u32` body length
//! followed by the body. The body follows the same codec discipline as
//! the `DPSF` snapshot format
//! ([`FrozenSynopsis::to_bytes`](dpsc_private_count::FrozenSynopsis::to_bytes)):
//! a 4-byte magic (`DPSQ` for requests, `DPSR` for responses), a `u16`
//! protocol version, the opcode/status bytes, the payload, and a trailing
//! FNV-1a checksum of everything before it. Decoding is defensive throughout —
//! length-checked reads, a hard frame-size cap *before* any allocation,
//! checksum verification — and reports defects through the same typed
//! [`DecodeError`] the snapshot codec uses. Accepted frames are
//! canonical: decoding then re-encoding reproduces the identical bytes.
//!
//! | opcode | request payload | ok-response payload |
//! |---|---|---|
//! | 0 `Query` | shard `u32`, pattern (`u32` len + bytes) | count `f64` |
//! | 1 `QueryBatch` | shard `u32`, count `u32`, patterns | count `u32`, `f64` × count |
//! | 2 `Contains` | shard `u32`, pattern | present `u8` |
//! | 3 `Stats` | — | cache stats + per-shard stats (see [`ServerStats`]) |
//! | 4 `LoadSnapshot` | shard `u32`, `u64` len + `DPSF` bytes | epoch `u64`, node count `u64` |
//! | 5 `Shutdown` | — | — |
//! | 6 `Metrics` | — | counters + latency percentiles + per-shard records (see [`MetricsReport`]) |
//! | 7 `Rollback` | shard `u32`, epoch `u64` | epoch `u64` (the re-installed snapshot's new serving epoch) |
//! | 8 `Trace` | max `u32` | count `u32`, fixed 68-byte [`TraceEvent`] records |
//! | 9 `MetricsText` | — | Prometheus-style UTF-8 exposition (`u32` len + bytes) |
//!
//! An error response carries status `1` and a UTF-8 message instead of
//! the ok payload. Status `2` is `Overloaded` — an empty-payload,
//! *retryable* rejection the daemon sheds load with when its admission
//! bound is hit (the connection is closed after the frame; reconnect and
//! retry with backoff). Floats travel as IEEE-754 bit patterns, so
//! served counts round-trip bit-exactly.

use std::sync::Arc;

use dpsc_private_count::codec::{fnv1a, Cursor, DecodeError};

use crate::trace::{TraceEvent, TraceKind};

/// Magic opening every request body ("DP Serve, Query direction").
pub const MAGIC_REQUEST: [u8; 4] = *b"DPSQ";
/// Magic opening every response body ("DP Serve, Reply direction").
pub const MAGIC_RESPONSE: [u8; 4] = *b"DPSR";
/// Wire protocol version.
pub const VERSION: u16 = 1;
/// Hard cap on a frame body (256 MiB — room for a ~15M-node snapshot),
/// small enough that a corrupt length field cannot OOM the peer (the cap
/// is enforced before any allocation).
pub const MAX_FRAME_LEN: usize = 1 << 28;
/// Hard cap on patterns per `QueryBatch` (and values per response).
/// Bounds the response size a request can demand: `MAX_BATCH` values of
/// 8 bytes stay far inside [`MAX_FRAME_LEN`].
pub const MAX_BATCH: usize = 1 << 20;

/// Opcodes, shared between requests and (echoed in) responses.
const OP_QUERY: u8 = 0;
const OP_QUERY_BATCH: u8 = 1;
const OP_CONTAINS: u8 = 2;
const OP_STATS: u8 = 3;
const OP_LOAD_SNAPSHOT: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_METRICS: u8 = 6;
const OP_ROLLBACK: u8 = 7;
const OP_TRACE: u8 = 8;
const OP_METRICS_TEXT: u8 = 9;

/// Wire size of one [`TraceEvent`] record inside a `Trace` response.
const TRACE_EVENT_REC: usize = 8 * 7 + 4 * 3;

/// Response status bytes.
const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;
const STATUS_OVERLOADED: u8 = 2;

/// A request frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One noisy count for `pattern` against shard `shard`.
    Query {
        /// Corpus id the query routes to.
        shard: u32,
        /// Pattern bytes.
        pattern: Vec<u8>,
    },
    /// Many counts in one round-trip, all answered from a single shard
    /// epoch (the server pins one snapshot for the whole batch).
    QueryBatch {
        /// Corpus id the batch routes to.
        shard: u32,
        /// Patterns, answered in order.
        patterns: Vec<Vec<u8>>,
    },
    /// Whether the pattern is represented in the shard's synopsis.
    Contains {
        /// Corpus id the probe routes to.
        shard: u32,
        /// Pattern bytes.
        pattern: Vec<u8>,
    },
    /// Operator stats: per-shard epoch/size/utility-bound fields plus
    /// cache counters.
    Stats,
    /// Atomically install (or hot-swap) a shard from serialized `DPSF`
    /// snapshot bytes. Decode + validation happen off the read path.
    LoadSnapshot {
        /// Corpus id to install the snapshot under.
        shard: u32,
        /// `FrozenSynopsis::to_bytes` payload. Shared ownership so the
        /// server can hand the buffer to the shard manager without
        /// copying — the snapshot is then served straight from these
        /// bytes.
        snapshot: Arc<[u8]>,
    },
    /// Ask the daemon to stop accepting connections and exit. Honored
    /// only from peers the server's shutdown policy admits (loopback by
    /// default); refused peers get an error response and stay connected.
    Shutdown,
    /// Operator metrics: served qps, per-op counters, latency
    /// percentiles from the fixed-bucket histogram, cache hit rate, and
    /// per-shard epoch/size — see [`MetricsReport`].
    Metrics,
    /// Re-install a prior retained epoch of `shard` from the daemon's
    /// snapshot store (the release-once escape hatch: a bad install is
    /// undone without rebuilding — and re-spending ε on — the synopsis).
    /// Refused when the daemon runs without a store or the epoch is no
    /// longer retained.
    Rollback {
        /// Corpus id to roll back.
        shard: u32,
        /// The *durable* epoch to re-install, as previously reported by
        /// `LoadSnapshot`/`Stats` while it was resident.
        epoch: u64,
    },
    /// Snapshot the most recent trace events from the daemon's ring
    /// buffer (see [`crate::trace::TraceRing`]). Read-only and
    /// non-destructive: the ring is not drained, so the op is idempotent
    /// and safe to retry.
    Trace {
        /// Upper bound on returned events (further capped by the ring's
        /// capacity).
        max: u32,
    },
    /// The [`MetricsReport`] rendered as a Prometheus-style text
    /// exposition — scrapeable without speaking the binary protocol
    /// beyond this one op.
    MetricsText,
}

/// A response frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query {
        /// The noisy count, bit-identical to a local `FrozenSynopsis::query`.
        value: f64,
    },
    /// Answer to [`Request::QueryBatch`]; `values[i]` answers `patterns[i]`.
    QueryBatch {
        /// Noisy counts in request order.
        values: Vec<f64>,
    },
    /// Answer to [`Request::Contains`].
    Contains {
        /// Whether the pattern has a node in the synopsis.
        present: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::LoadSnapshot`].
    LoadSnapshot {
        /// Epoch the new snapshot serves under (strictly increasing).
        epoch: u64,
        /// Node count of the installed synopsis.
        node_count: u64,
    },
    /// Acknowledges [`Request::Shutdown`].
    Shutdown,
    /// Answer to [`Request::Metrics`]. Boxed: the report (per-op
    /// latencies and all) dwarfs every other variant, and metrics is a
    /// rare admin op — one allocation keeps the common `Response` small.
    Metrics(Box<MetricsReport>),
    /// Answer to [`Request::Rollback`].
    Rollback {
        /// The new serving epoch the retained snapshot was re-installed
        /// under (strictly increasing, like every install).
        epoch: u64,
    },
    /// Answer to [`Request::Trace`]: the most recent events in ascending
    /// sequence order. Empty when tracing is disabled
    /// (`trace_capacity = 0`).
    Trace {
        /// Drained event copies (fingerprints and lengths only — never
        /// pattern bytes).
        events: Vec<TraceEvent>,
    },
    /// Answer to [`Request::MetricsText`].
    MetricsText {
        /// The exposition text (`# HELP`/`# TYPE` + `dpsc_*` samples).
        text: String,
    },
    /// The daemon's admission bound is hit: the request was *not*
    /// executed and the connection closes after this frame. Retryable by
    /// construction — reconnect with backoff (see
    /// [`crate::client::RetryPolicy`]).
    Overloaded,
    /// The request could not be served (unknown shard, corrupt
    /// snapshot, …). Carries a human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Per-request-kind counters inside [`MetricsReport`]. Each field counts
/// answered frames of that kind; `errors` counts error responses of any
/// cause (malformed frames, unknown shards, rejected snapshots, refused
/// shutdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// `Query` frames answered.
    pub query: u64,
    /// `QueryBatch` frames answered (see `patterns_total` for lookups).
    pub query_batch: u64,
    /// `Contains` frames answered.
    pub contains: u64,
    /// `Stats` frames answered.
    pub stats: u64,
    /// `LoadSnapshot` frames answered (successful installs).
    pub load_snapshot: u64,
    /// `Rollback` frames answered (successful re-installs).
    pub rollback: u64,
    /// `Metrics` frames answered.
    pub metrics: u64,
    /// `Shutdown` frames honored.
    pub shutdown: u64,
    /// `Trace` frames answered.
    pub trace: u64,
    /// `MetricsText` frames answered.
    pub metrics_text: u64,
    /// Error responses sent.
    pub errors: u64,
}

/// One resident shard's identity and serving profile inside
/// [`MetricsReport`]: *what* is serving (epoch), *how big* it is on the
/// wire, and how fast its requests complete; the full utility bounds
/// stay on the `Stats` op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsShard {
    /// Corpus id.
    pub shard_id: u32,
    /// Epoch of the resident snapshot.
    pub epoch: u64,
    /// Size of the resident snapshot's wire encoding in bytes.
    pub serialized_len: u64,
    /// Requests answered against this shard (any op that routes to it).
    pub ops: u64,
    /// Median service latency of this shard's requests, bucket
    /// resolution (0 when none were recorded).
    pub latency_p50_ns: f64,
    /// 99th-percentile service latency of this shard's requests.
    pub latency_p99_ns: f64,
}

/// Latency percentiles of one request kind, from its dedicated
/// fixed-bucket histogram (bucket resolution, like the global pair).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpLatency {
    /// Median service latency in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile service latency in nanoseconds.
    pub p99_ns: f64,
}

/// Per-op latency percentiles inside [`MetricsReport`] — one
/// [`OpLatency`] per request kind, so a slow `LoadSnapshot` no longer
/// poisons the readable `Query` p99.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpLatencies {
    /// `Query` latency percentiles.
    pub query: OpLatency,
    /// `QueryBatch` latency percentiles.
    pub query_batch: OpLatency,
    /// `Contains` latency percentiles.
    pub contains: OpLatency,
    /// `Stats` latency percentiles.
    pub stats: OpLatency,
    /// `LoadSnapshot` latency percentiles.
    pub load_snapshot: OpLatency,
    /// `Rollback` latency percentiles.
    pub rollback: OpLatency,
    /// `Metrics` latency percentiles.
    pub metrics: OpLatency,
    /// `Shutdown` latency percentiles.
    pub shutdown: OpLatency,
    /// `Trace` latency percentiles.
    pub trace: OpLatency,
    /// `MetricsText` latency percentiles.
    pub metrics_text: OpLatency,
}

/// The [`Response::Metrics`] body: a point-in-time snapshot of the
/// daemon's serving counters (see [`crate::metrics::MetricsRegistry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Nanoseconds since the daemon bound its listener.
    pub uptime_ns: u64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_accepted: u64,
    /// Connections currently open.
    pub conns_open: u64,
    /// Per-op request counters.
    pub ops: OpCounts,
    /// Individual pattern lookups answered (a `QueryBatch` of k adds k).
    pub patterns_total: u64,
    /// Connections shed with an `Overloaded` frame at the admission
    /// bound (each was closed without executing a request).
    pub overloaded_total: u64,
    /// Idle connections reaped by the idle timeout.
    pub idle_reaped_total: u64,
    /// Connections evicted for stalling mid-frame past the read deadline
    /// (slow-loris defense).
    pub deadline_evicted_total: u64,
    /// Shards re-installed from the snapshot store at startup (manifest
    /// replay recoveries).
    pub recoveries_total: u64,
    /// Successful `Rollback` re-installs over the daemon's lifetime.
    pub rollbacks_total: u64,
    /// `patterns_total` over uptime: the lifetime average served qps.
    /// Decays toward 0 on an idle daemon — use `qps_window` for "what is
    /// the daemon doing *now*".
    pub qps: f64,
    /// Windowed throughput: Δ`patterns_total` / Δuptime between this
    /// report and the previous one served by the same daemon. The first
    /// report's window spans the full uptime (equal to `qps`); an idle
    /// window reports 0 without dragging the lifetime average around.
    pub qps_window: f64,
    /// Median per-request service latency (answer computation, network
    /// excluded) from the fixed-bucket histogram — bucket resolution.
    /// p50 and p99 come from one consistent histogram snapshot.
    pub latency_p50_ns: f64,
    /// 99th-percentile service latency, same histogram snapshot.
    pub latency_p99_ns: f64,
    /// Per-op latency percentiles (each op's own histogram).
    pub op_latency: OpLatencies,
    /// Nanoseconds the event loop spent blocked in `epoll_wait`.
    pub loop_wait_ns: u64,
    /// Nanoseconds the event loop spent servicing readiness events.
    pub loop_busy_ns: u64,
    /// `loop_busy_ns / (loop_wait_ns + loop_busy_ns)` — event-loop
    /// utilization in [0, 1]; 0 when neither was recorded.
    pub loop_utilization: f64,
    /// Median accept-to-first-response latency: connection admission to
    /// the first byte of its first response handed to the socket layer.
    pub accept_to_first_p50_ns: f64,
    /// 99th percentile of the same, one consistent snapshot.
    pub accept_to_first_p99_ns: f64,
    /// Times write backpressure parked a connection's reads (pending
    /// output crossed the high-water mark).
    pub parks_total: u64,
    /// Times a parked connection resumed reading (output drained).
    pub unparks_total: u64,
    /// Requests that exceeded the slow-op threshold (0 when disabled).
    pub slow_ops_total: u64,
    /// Configured slow-op threshold in nanoseconds (0 = disabled).
    pub slow_op_threshold_ns: u64,
    /// Trace events ever emitted (including overwritten ones).
    pub trace_events_total: u64,
    /// Trace events no longer retrievable because the ring lapped them.
    pub trace_overwritten_total: u64,
    /// Query-cache counters (same numbers `Stats` reports).
    pub cache: CacheStats,
    /// `hits / (hits + misses)`, 0 when the cache is untouched.
    pub cache_hit_rate: f64,
    /// One record per resident shard, ascending by `shard_id`.
    pub shards: Vec<MetricsShard>,
}

/// Serving-cache counters, part of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to walk the synopsis.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Configured capacity (0 disables the cache).
    pub capacity: u64,
}

/// Everything an operator needs to audit one serving shard: identity,
/// epoch, size on the wire, and the utility bounds of what is actually
/// being served.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Corpus id this shard serves.
    pub shard_id: u32,
    /// Epoch of the resident snapshot.
    pub epoch: u64,
    /// Nodes in the resident synopsis.
    pub node_count: u64,
    /// Size of the snapshot's canonical `DPSF` encoding in bytes.
    pub serialized_len: u64,
    /// Documents in the corpus the synopsis was built from.
    pub n_docs: u64,
    /// Declared maximum document length ℓ.
    pub max_len: u64,
    /// Privacy budget ε of the construction.
    pub epsilon: f64,
    /// Privacy budget δ of the construction (0 for pure DP).
    pub delta: f64,
    /// Overall additive error bound α.
    pub alpha: f64,
    /// Error bound on stored counts.
    pub alpha_counts: f64,
    /// True-count bound for absent strings.
    pub alpha_absent: f64,
}

/// The [`Response::Stats`] body.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// One record per resident shard, ascending by `shard_id`.
    pub shards: Vec<ShardStats>,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_pattern(out: &mut Vec<u8>, pattern: &[u8]) {
    push_u32(out, pattern.len() as u32);
    out.extend_from_slice(pattern);
}

fn take_pattern(cur: &mut Cursor<'_>) -> Result<Vec<u8>, DecodeError> {
    let len = cur.u32()? as usize;
    Ok(cur.take(len)?.to_vec())
}

/// Seals `body` (magic + version + opcode/status + payload so far) into a
/// framed message: appends the checksum, then prefixes the length.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    assert!(body.len() <= MAX_FRAME_LEN, "frame body exceeds MAX_FRAME_LEN");
    let mut framed = Vec::with_capacity(4 + body.len());
    push_u32(&mut framed, body.len() as u32);
    framed.extend_from_slice(&body);
    framed
}

/// Checks the frame envelope shared by both directions: magic, version,
/// and trailing checksum. Returns a cursor spanning *only* the payload
/// (checksum excluded), so no inner length field — however crafted — can
/// read into or past the checksum bytes.
fn open_body<'a>(body: &'a [u8], magic: [u8; 4]) -> Result<Cursor<'a>, DecodeError> {
    let mut cur = Cursor::new(body);
    let found: [u8; 4] = cur.take(4)?.try_into().expect("4-byte magic");
    if found != magic {
        return Err(DecodeError::BadMagic { found, expected: magic });
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version, expected: VERSION });
    }
    if body.len() < cur.pos() + 8 {
        return Err(DecodeError::Truncated {
            offset: cur.pos(),
            need: 8,
            have: body.len() - cur.pos(),
        });
    }
    let payload_end = body.len() - 8;
    let stored = u64::from_le_bytes(body[payload_end..].try_into().expect("8-byte checksum"));
    let computed = fnv1a(&body[..payload_end]);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    Ok(Cursor::new(&body[cur.pos()..payload_end]))
}

/// Rejects unconsumed payload bytes — the canonical encodings have none.
fn finish(cur: &Cursor<'_>) -> Result<(), DecodeError> {
    if cur.remaining() != 0 {
        return Err(DecodeError::TrailingGarbage { extra: cur.remaining() });
    }
    Ok(())
}

/// Encodes a request into a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    body.extend_from_slice(&MAGIC_REQUEST);
    body.extend_from_slice(&VERSION.to_le_bytes());
    match req {
        Request::Query { shard, pattern } => {
            body.push(OP_QUERY);
            push_u32(&mut body, *shard);
            push_pattern(&mut body, pattern);
        }
        Request::QueryBatch { shard, patterns } => {
            body.push(OP_QUERY_BATCH);
            push_u32(&mut body, *shard);
            push_u32(&mut body, patterns.len() as u32);
            for p in patterns {
                push_pattern(&mut body, p);
            }
        }
        Request::Contains { shard, pattern } => {
            body.push(OP_CONTAINS);
            push_u32(&mut body, *shard);
            push_pattern(&mut body, pattern);
        }
        Request::Stats => body.push(OP_STATS),
        Request::LoadSnapshot { shard, snapshot } => {
            body.push(OP_LOAD_SNAPSHOT);
            push_u32(&mut body, *shard);
            push_u64(&mut body, snapshot.len() as u64);
            body.extend_from_slice(snapshot);
        }
        Request::Shutdown => body.push(OP_SHUTDOWN),
        Request::Metrics => body.push(OP_METRICS),
        Request::Rollback { shard, epoch } => {
            body.push(OP_ROLLBACK);
            push_u32(&mut body, *shard);
            push_u64(&mut body, *epoch);
        }
        Request::Trace { max } => {
            body.push(OP_TRACE);
            push_u32(&mut body, *max);
        }
        Request::MetricsText => body.push(OP_METRICS_TEXT),
    }
    seal(body)
}

/// Decodes a request frame *body* (the bytes after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    let mut cur = open_body(body, MAGIC_REQUEST)?;
    let opcode = cur.u8()?;
    let req = match opcode {
        OP_QUERY => {
            let shard = cur.u32()?;
            Request::Query { shard, pattern: take_pattern(&mut cur)? }
        }
        OP_QUERY_BATCH => {
            let shard = cur.u32()?;
            let count = cur.u32()? as usize;
            // Each pattern needs at least its 4-byte length field, so a
            // sane count is bounded by the remaining payload — checked
            // before the allocation, like the snapshot codec's size math.
            // The MAX_BATCH cap additionally keeps the *response* (8
            // bytes per value) inside MAX_FRAME_LEN: without it a ~134
            // MiB request of empty patterns would ask for a ~268 MiB
            // response and trip `seal`'s frame invariant server-side.
            if count > MAX_BATCH || count > cur.remaining() / 4 {
                return Err(DecodeError::BadField {
                    field: "batch count",
                    detail: format!("{count} patterns cannot fit the payload"),
                });
            }
            let mut patterns = Vec::with_capacity(count);
            for _ in 0..count {
                patterns.push(take_pattern(&mut cur)?);
            }
            Request::QueryBatch { shard, patterns }
        }
        OP_CONTAINS => {
            let shard = cur.u32()?;
            Request::Contains { shard, pattern: take_pattern(&mut cur)? }
        }
        OP_STATS => Request::Stats,
        OP_LOAD_SNAPSHOT => {
            let shard = cur.u32()?;
            let len = cur.usize64()?;
            // The one unavoidable copy: frame buffer → Arc. Everything
            // downstream (manager install, zero-copy snapshot decode)
            // shares it.
            Request::LoadSnapshot { shard, snapshot: cur.take(len)?.into() }
        }
        OP_SHUTDOWN => Request::Shutdown,
        OP_METRICS => Request::Metrics,
        OP_ROLLBACK => Request::Rollback { shard: cur.u32()?, epoch: cur.u64()? },
        OP_TRACE => Request::Trace { max: cur.u32()? },
        OP_METRICS_TEXT => Request::MetricsText,
        other => {
            return Err(DecodeError::BadField {
                field: "opcode",
                detail: format!("unknown opcode {other}"),
            })
        }
    };
    finish(&cur)?;
    Ok(req)
}

/// Encodes a response into a complete frame (length prefix included).
///
/// Layout after magic + version: a status byte, then — for ok responses —
/// the opcode and its payload, or — for errors — a UTF-8 message. Errors
/// carry no opcode, so equal responses have exactly one encoding.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    body.extend_from_slice(&MAGIC_RESPONSE);
    body.extend_from_slice(&VERSION.to_le_bytes());
    match resp {
        Response::Error { message } => {
            body.push(STATUS_ERROR);
            push_pattern(&mut body, message.as_bytes());
        }
        Response::Overloaded => body.push(STATUS_OVERLOADED),
        ok => {
            body.push(STATUS_OK);
            match ok {
                Response::Query { value } => {
                    body.push(OP_QUERY);
                    push_f64(&mut body, *value);
                }
                Response::QueryBatch { values } => {
                    body.push(OP_QUERY_BATCH);
                    push_u32(&mut body, values.len() as u32);
                    for v in values {
                        push_f64(&mut body, *v);
                    }
                }
                Response::Contains { present } => {
                    body.push(OP_CONTAINS);
                    body.push(*present as u8);
                }
                Response::Stats(stats) => {
                    body.push(OP_STATS);
                    push_u64(&mut body, stats.cache.hits);
                    push_u64(&mut body, stats.cache.misses);
                    push_u64(&mut body, stats.cache.entries);
                    push_u64(&mut body, stats.cache.capacity);
                    push_u32(&mut body, stats.shards.len() as u32);
                    for s in &stats.shards {
                        push_u32(&mut body, s.shard_id);
                        push_u64(&mut body, s.epoch);
                        push_u64(&mut body, s.node_count);
                        push_u64(&mut body, s.serialized_len);
                        push_u64(&mut body, s.n_docs);
                        push_u64(&mut body, s.max_len);
                        push_f64(&mut body, s.epsilon);
                        push_f64(&mut body, s.delta);
                        push_f64(&mut body, s.alpha);
                        push_f64(&mut body, s.alpha_counts);
                        push_f64(&mut body, s.alpha_absent);
                    }
                }
                Response::LoadSnapshot { epoch, node_count } => {
                    body.push(OP_LOAD_SNAPSHOT);
                    push_u64(&mut body, *epoch);
                    push_u64(&mut body, *node_count);
                }
                Response::Shutdown => body.push(OP_SHUTDOWN),
                Response::Rollback { epoch } => {
                    body.push(OP_ROLLBACK);
                    push_u64(&mut body, *epoch);
                }
                Response::Trace { events } => {
                    body.push(OP_TRACE);
                    push_u32(&mut body, events.len() as u32);
                    for ev in events {
                        push_u64(&mut body, ev.seq);
                        push_u64(&mut body, ev.ts_ns);
                        push_u32(&mut body, ev.kind.code());
                        push_u64(&mut body, ev.conn);
                        push_u32(&mut body, ev.shard);
                        push_u64(&mut body, ev.epoch);
                        push_u64(&mut body, ev.fingerprint);
                        push_u32(&mut body, ev.len);
                        push_u64(&mut body, ev.dur_ns);
                        push_u64(&mut body, ev.detail);
                    }
                }
                Response::MetricsText { text } => {
                    body.push(OP_METRICS_TEXT);
                    push_pattern(&mut body, text.as_bytes());
                }
                Response::Metrics(m) => {
                    body.push(OP_METRICS);
                    push_u64(&mut body, m.uptime_ns);
                    push_u64(&mut body, m.conns_accepted);
                    push_u64(&mut body, m.conns_open);
                    push_u64(&mut body, m.ops.query);
                    push_u64(&mut body, m.ops.query_batch);
                    push_u64(&mut body, m.ops.contains);
                    push_u64(&mut body, m.ops.stats);
                    push_u64(&mut body, m.ops.load_snapshot);
                    push_u64(&mut body, m.ops.rollback);
                    push_u64(&mut body, m.ops.metrics);
                    push_u64(&mut body, m.ops.shutdown);
                    push_u64(&mut body, m.ops.trace);
                    push_u64(&mut body, m.ops.metrics_text);
                    push_u64(&mut body, m.ops.errors);
                    push_u64(&mut body, m.patterns_total);
                    push_u64(&mut body, m.overloaded_total);
                    push_u64(&mut body, m.idle_reaped_total);
                    push_u64(&mut body, m.deadline_evicted_total);
                    push_u64(&mut body, m.recoveries_total);
                    push_u64(&mut body, m.rollbacks_total);
                    push_f64(&mut body, m.qps);
                    push_f64(&mut body, m.qps_window);
                    push_f64(&mut body, m.latency_p50_ns);
                    push_f64(&mut body, m.latency_p99_ns);
                    for ol in [
                        &m.op_latency.query,
                        &m.op_latency.query_batch,
                        &m.op_latency.contains,
                        &m.op_latency.stats,
                        &m.op_latency.load_snapshot,
                        &m.op_latency.rollback,
                        &m.op_latency.metrics,
                        &m.op_latency.shutdown,
                        &m.op_latency.trace,
                        &m.op_latency.metrics_text,
                    ] {
                        push_f64(&mut body, ol.p50_ns);
                        push_f64(&mut body, ol.p99_ns);
                    }
                    push_u64(&mut body, m.loop_wait_ns);
                    push_u64(&mut body, m.loop_busy_ns);
                    push_f64(&mut body, m.loop_utilization);
                    push_f64(&mut body, m.accept_to_first_p50_ns);
                    push_f64(&mut body, m.accept_to_first_p99_ns);
                    push_u64(&mut body, m.parks_total);
                    push_u64(&mut body, m.unparks_total);
                    push_u64(&mut body, m.slow_ops_total);
                    push_u64(&mut body, m.slow_op_threshold_ns);
                    push_u64(&mut body, m.trace_events_total);
                    push_u64(&mut body, m.trace_overwritten_total);
                    push_u64(&mut body, m.cache.hits);
                    push_u64(&mut body, m.cache.misses);
                    push_u64(&mut body, m.cache.entries);
                    push_u64(&mut body, m.cache.capacity);
                    push_f64(&mut body, m.cache_hit_rate);
                    push_u32(&mut body, m.shards.len() as u32);
                    for s in &m.shards {
                        push_u32(&mut body, s.shard_id);
                        push_u64(&mut body, s.epoch);
                        push_u64(&mut body, s.serialized_len);
                        push_u64(&mut body, s.ops);
                        push_f64(&mut body, s.latency_p50_ns);
                        push_f64(&mut body, s.latency_p99_ns);
                    }
                }
                Response::Error { .. } | Response::Overloaded => unreachable!("handled above"),
            }
        }
    }
    seal(body)
}

/// Decodes a response frame *body* (the bytes after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    let mut cur = open_body(body, MAGIC_RESPONSE)?;
    let status = cur.u8()?;
    let resp = match status {
        STATUS_ERROR => {
            let raw = take_pattern(&mut cur)?;
            let message = String::from_utf8(raw).map_err(|_| DecodeError::BadField {
                field: "error message",
                detail: "not valid UTF-8".to_string(),
            })?;
            Response::Error { message }
        }
        STATUS_OVERLOADED => Response::Overloaded,
        STATUS_OK => match cur.u8()? {
            OP_QUERY => Response::Query { value: cur.f64()? },
            OP_QUERY_BATCH => {
                let count = cur.u32()? as usize;
                if count > MAX_BATCH || count > cur.remaining() / 8 {
                    return Err(DecodeError::BadField {
                        field: "batch count",
                        detail: format!("{count} values cannot fit the payload"),
                    });
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(cur.f64()?);
                }
                Response::QueryBatch { values }
            }
            OP_CONTAINS => {
                let byte = cur.u8()?;
                if byte > 1 {
                    return Err(DecodeError::BadField {
                        field: "contains flag",
                        detail: format!("byte {byte} is not 0/1"),
                    });
                }
                Response::Contains { present: byte == 1 }
            }
            OP_STATS => {
                let cache = CacheStats {
                    hits: cur.u64()?,
                    misses: cur.u64()?,
                    entries: cur.u64()?,
                    capacity: cur.u64()?,
                };
                let count = cur.u32()? as usize;
                const SHARD_REC: usize = 4 + 8 * 10;
                if count > cur.remaining() / SHARD_REC {
                    return Err(DecodeError::BadField {
                        field: "shard count",
                        detail: format!("{count} records cannot fit the payload"),
                    });
                }
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    shards.push(ShardStats {
                        shard_id: cur.u32()?,
                        epoch: cur.u64()?,
                        node_count: cur.u64()?,
                        serialized_len: cur.u64()?,
                        n_docs: cur.u64()?,
                        max_len: cur.u64()?,
                        epsilon: cur.f64()?,
                        delta: cur.f64()?,
                        alpha: cur.f64()?,
                        alpha_counts: cur.f64()?,
                        alpha_absent: cur.f64()?,
                    });
                }
                Response::Stats(ServerStats { cache, shards })
            }
            OP_LOAD_SNAPSHOT => {
                Response::LoadSnapshot { epoch: cur.u64()?, node_count: cur.u64()? }
            }
            OP_SHUTDOWN => Response::Shutdown,
            OP_ROLLBACK => Response::Rollback { epoch: cur.u64()? },
            OP_METRICS => {
                let uptime_ns = cur.u64()?;
                let conns_accepted = cur.u64()?;
                let conns_open = cur.u64()?;
                let ops = OpCounts {
                    query: cur.u64()?,
                    query_batch: cur.u64()?,
                    contains: cur.u64()?,
                    stats: cur.u64()?,
                    load_snapshot: cur.u64()?,
                    rollback: cur.u64()?,
                    metrics: cur.u64()?,
                    shutdown: cur.u64()?,
                    trace: cur.u64()?,
                    metrics_text: cur.u64()?,
                    errors: cur.u64()?,
                };
                let patterns_total = cur.u64()?;
                let overloaded_total = cur.u64()?;
                let idle_reaped_total = cur.u64()?;
                let deadline_evicted_total = cur.u64()?;
                let recoveries_total = cur.u64()?;
                let rollbacks_total = cur.u64()?;
                let qps = cur.f64()?;
                let qps_window = cur.f64()?;
                let latency_p50_ns = cur.f64()?;
                let latency_p99_ns = cur.f64()?;
                let mut ol = [OpLatency::default(); 10];
                for o in ol.iter_mut() {
                    *o = OpLatency { p50_ns: cur.f64()?, p99_ns: cur.f64()? };
                }
                let op_latency = OpLatencies {
                    query: ol[0],
                    query_batch: ol[1],
                    contains: ol[2],
                    stats: ol[3],
                    load_snapshot: ol[4],
                    rollback: ol[5],
                    metrics: ol[6],
                    shutdown: ol[7],
                    trace: ol[8],
                    metrics_text: ol[9],
                };
                let loop_wait_ns = cur.u64()?;
                let loop_busy_ns = cur.u64()?;
                let loop_utilization = cur.f64()?;
                let accept_to_first_p50_ns = cur.f64()?;
                let accept_to_first_p99_ns = cur.f64()?;
                let parks_total = cur.u64()?;
                let unparks_total = cur.u64()?;
                let slow_ops_total = cur.u64()?;
                let slow_op_threshold_ns = cur.u64()?;
                let trace_events_total = cur.u64()?;
                let trace_overwritten_total = cur.u64()?;
                let cache = CacheStats {
                    hits: cur.u64()?,
                    misses: cur.u64()?,
                    entries: cur.u64()?,
                    capacity: cur.u64()?,
                };
                let cache_hit_rate = cur.f64()?;
                let count = cur.u32()? as usize;
                const METRICS_SHARD_REC: usize = 4 + 8 + 8 + 8 + 8 + 8;
                if count > cur.remaining() / METRICS_SHARD_REC {
                    return Err(DecodeError::BadField {
                        field: "metrics shard count",
                        detail: format!("{count} records cannot fit the payload"),
                    });
                }
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    shards.push(MetricsShard {
                        shard_id: cur.u32()?,
                        epoch: cur.u64()?,
                        serialized_len: cur.u64()?,
                        ops: cur.u64()?,
                        latency_p50_ns: cur.f64()?,
                        latency_p99_ns: cur.f64()?,
                    });
                }
                Response::Metrics(Box::new(MetricsReport {
                    uptime_ns,
                    conns_accepted,
                    conns_open,
                    ops,
                    patterns_total,
                    overloaded_total,
                    idle_reaped_total,
                    deadline_evicted_total,
                    recoveries_total,
                    rollbacks_total,
                    qps,
                    qps_window,
                    latency_p50_ns,
                    latency_p99_ns,
                    op_latency,
                    loop_wait_ns,
                    loop_busy_ns,
                    loop_utilization,
                    accept_to_first_p50_ns,
                    accept_to_first_p99_ns,
                    parks_total,
                    unparks_total,
                    slow_ops_total,
                    slow_op_threshold_ns,
                    trace_events_total,
                    trace_overwritten_total,
                    cache,
                    cache_hit_rate,
                    shards,
                }))
            }
            OP_TRACE => {
                let count = cur.u32()? as usize;
                if count > cur.remaining() / TRACE_EVENT_REC {
                    return Err(DecodeError::BadField {
                        field: "trace event count",
                        detail: format!("{count} records cannot fit the payload"),
                    });
                }
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    let seq = cur.u64()?;
                    let ts_ns = cur.u64()?;
                    let code = cur.u32()?;
                    let kind = TraceKind::from_code(code).ok_or_else(|| DecodeError::BadField {
                        field: "trace kind",
                        detail: format!("unknown trace kind {code}"),
                    })?;
                    events.push(TraceEvent {
                        seq,
                        ts_ns,
                        kind,
                        conn: cur.u64()?,
                        shard: cur.u32()?,
                        epoch: cur.u64()?,
                        fingerprint: cur.u64()?,
                        len: cur.u32()?,
                        dur_ns: cur.u64()?,
                        detail: cur.u64()?,
                    });
                }
                Response::Trace { events }
            }
            OP_METRICS_TEXT => {
                let raw = take_pattern(&mut cur)?;
                let text = String::from_utf8(raw).map_err(|_| DecodeError::BadField {
                    field: "metrics text",
                    detail: "not valid UTF-8".to_string(),
                })?;
                Response::MetricsText { text }
            }
            other => {
                return Err(DecodeError::BadField {
                    field: "opcode",
                    detail: format!("unknown opcode {other}"),
                })
            }
        },
        other => {
            return Err(DecodeError::BadField {
                field: "status",
                detail: format!("unknown status {other}"),
            })
        }
    };
    finish(&cur)?;
    Ok(resp)
}

/// Inspects `buf` for a complete frame. Returns `Ok(None)` when more
/// bytes are needed, `Ok(Some(total_len))` when `buf[4..total_len]` is a
/// complete body, and `Err` when the declared length exceeds
/// [`MAX_FRAME_LEN`] (the connection should be dropped — resynchronizing
/// an LE byte stream after a corrupt length is not possible).
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte length")) as usize;
    if body_len > MAX_FRAME_LEN {
        return Err(DecodeError::BadField {
            field: "frame length",
            detail: format!("{body_len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        });
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    Ok(Some(4 + body_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Query { shard: 0, pattern: b"acgt".to_vec() },
            Request::Query { shard: 7, pattern: Vec::new() },
            Request::QueryBatch {
                shard: 3,
                patterns: vec![b"a".to_vec(), Vec::new(), b"zzzz".to_vec()],
            },
            Request::QueryBatch { shard: 1, patterns: Vec::new() },
            Request::Contains { shard: 2, pattern: b"ab".to_vec() },
            Request::Stats,
            Request::LoadSnapshot { shard: 9, snapshot: vec![1, 2, 3, 4, 5].into() },
            Request::Shutdown,
            Request::Metrics,
            Request::Rollback { shard: 4, epoch: 17 },
            Request::Trace { max: 256 },
            Request::Trace { max: 0 },
            Request::MetricsText,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Query { value: -1.5 },
            Response::Query { value: f64::NEG_INFINITY },
            Response::QueryBatch { values: vec![0.0, -0.0, 3.25] },
            Response::QueryBatch { values: Vec::new() },
            Response::Contains { present: true },
            Response::Contains { present: false },
            Response::Stats(ServerStats {
                cache: CacheStats { hits: 10, misses: 3, entries: 5, capacity: 1024 },
                shards: vec![ShardStats {
                    shard_id: 1,
                    epoch: 42,
                    node_count: 1000,
                    serialized_len: 8096,
                    n_docs: 64,
                    max_len: 32,
                    epsilon: 2.0,
                    delta: 1e-9,
                    alpha: 12.5,
                    alpha_counts: 12.5,
                    alpha_absent: 8.0,
                }],
            }),
            Response::Stats(ServerStats { cache: CacheStats::default(), shards: Vec::new() }),
            Response::LoadSnapshot { epoch: 3, node_count: 17 },
            Response::Shutdown,
            Response::Metrics(Box::new(MetricsReport {
                uptime_ns: 123_456_789,
                conns_accepted: 4096,
                conns_open: 17,
                ops: OpCounts {
                    query: 10,
                    query_batch: 20,
                    contains: 3,
                    stats: 2,
                    load_snapshot: 4,
                    rollback: 2,
                    metrics: 1,
                    shutdown: 0,
                    trace: 6,
                    metrics_text: 2,
                    errors: 5,
                },
                patterns_total: 330,
                overloaded_total: 7,
                idle_reaped_total: 2,
                deadline_evicted_total: 1,
                recoveries_total: 3,
                rollbacks_total: 2,
                qps: 2_672_001.5,
                qps_window: 1_900_432.25,
                latency_p50_ns: 768.0,
                latency_p99_ns: 3072.0,
                op_latency: OpLatencies {
                    query: OpLatency { p50_ns: 768.0, p99_ns: 1536.0 },
                    query_batch: OpLatency { p50_ns: 6144.0, p99_ns: 24576.0 },
                    contains: OpLatency { p50_ns: 384.0, p99_ns: 768.0 },
                    stats: OpLatency { p50_ns: 1536.0, p99_ns: 1536.0 },
                    load_snapshot: OpLatency { p50_ns: 786_432.0, p99_ns: 1_572_864.0 },
                    rollback: OpLatency { p50_ns: 393_216.0, p99_ns: 393_216.0 },
                    metrics: OpLatency { p50_ns: 1536.0, p99_ns: 1536.0 },
                    shutdown: OpLatency::default(),
                    trace: OpLatency { p50_ns: 3072.0, p99_ns: 6144.0 },
                    metrics_text: OpLatency { p50_ns: 3072.0, p99_ns: 3072.0 },
                },
                loop_wait_ns: 90_000_000,
                loop_busy_ns: 33_456_789,
                loop_utilization: 33_456_789.0 / 123_456_789.0,
                accept_to_first_p50_ns: 98_304.0,
                accept_to_first_p99_ns: 393_216.0,
                parks_total: 12,
                unparks_total: 12,
                slow_ops_total: 3,
                slow_op_threshold_ns: 1_000_000,
                trace_events_total: 4_321,
                trace_overwritten_total: 225,
                cache: CacheStats { hits: 200, misses: 130, entries: 64, capacity: 8192 },
                cache_hit_rate: 200.0 / 330.0,
                shards: vec![
                    MetricsShard {
                        shard_id: 0,
                        epoch: 3,
                        serialized_len: 5120,
                        ops: 21,
                        latency_p50_ns: 768.0,
                        latency_p99_ns: 3072.0,
                    },
                    MetricsShard {
                        shard_id: 9,
                        epoch: 7,
                        serialized_len: 8008,
                        ops: 12,
                        latency_p50_ns: 384.0,
                        latency_p99_ns: 1536.0,
                    },
                ],
            })),
            Response::Metrics(Box::new(MetricsReport {
                uptime_ns: 1,
                conns_accepted: 0,
                conns_open: 0,
                ops: OpCounts::default(),
                patterns_total: 0,
                overloaded_total: 0,
                idle_reaped_total: 0,
                deadline_evicted_total: 0,
                recoveries_total: 0,
                rollbacks_total: 0,
                qps: 0.0,
                qps_window: 0.0,
                latency_p50_ns: 0.0,
                latency_p99_ns: 0.0,
                op_latency: OpLatencies::default(),
                loop_wait_ns: 0,
                loop_busy_ns: 0,
                loop_utilization: 0.0,
                accept_to_first_p50_ns: 0.0,
                accept_to_first_p99_ns: 0.0,
                parks_total: 0,
                unparks_total: 0,
                slow_ops_total: 0,
                slow_op_threshold_ns: 0,
                trace_events_total: 0,
                trace_overwritten_total: 0,
                cache: CacheStats::default(),
                cache_hit_rate: 0.0,
                shards: Vec::new(),
            })),
            Response::Rollback { epoch: 41 },
            Response::Trace {
                events: vec![
                    TraceEvent {
                        seq: 17,
                        ts_ns: 1_234_567,
                        kind: TraceKind::ConnAccepted,
                        conn: 3,
                        shard: crate::trace::NO_SHARD,
                        epoch: 0,
                        fingerprint: 0,
                        len: 0,
                        dur_ns: 0,
                        detail: 0,
                    },
                    TraceEvent {
                        seq: 18,
                        ts_ns: 1_238_901,
                        kind: TraceKind::FrameAnswered,
                        conn: 3,
                        shard: 2,
                        epoch: 0,
                        fingerprint: 0xCBF2_9CE4_8422_2325,
                        len: 4,
                        dur_ns: 812,
                        detail: 0,
                    },
                    TraceEvent {
                        seq: 19,
                        ts_ns: 1_500_000,
                        kind: TraceKind::StoreOp,
                        conn: 0,
                        shard: 2,
                        epoch: 5,
                        fingerprint: 0,
                        len: 0,
                        dur_ns: 44_000,
                        detail: 5,
                    },
                ],
            },
            Response::Trace { events: Vec::new() },
            Response::MetricsText {
                text: "# TYPE dpsc_patterns_total counter\ndpsc_patterns_total 330\n".to_string(),
            },
            Response::MetricsText { text: String::new() },
            Response::Overloaded,
            Response::Error { message: "unknown shard 12".to_string() },
        ]
    }

    #[test]
    fn requests_round_trip_canonically() {
        for req in sample_requests() {
            let framed = encode_request(&req);
            let total = frame_len(&framed).unwrap().expect("complete frame");
            assert_eq!(total, framed.len());
            let back = decode_request(&framed[4..total]).expect("decodes");
            assert_eq!(back, req);
            assert_eq!(encode_request(&back), framed, "canonical re-encode");
        }
    }

    #[test]
    fn responses_round_trip_canonically() {
        for resp in sample_responses() {
            let framed = encode_response(&resp);
            let total = frame_len(&framed).unwrap().expect("complete frame");
            assert_eq!(total, framed.len());
            let back = decode_response(&framed[4..total]).expect("decodes");
            // NaN-free samples: PartialEq is exact here.
            assert_eq!(back, resp);
            assert_eq!(encode_response(&back), framed, "canonical re-encode");
        }
    }

    #[test]
    fn float_payloads_round_trip_bitwise() {
        let value = f64::from_bits(0x7ff8_0000_0000_1234); // a signaling-ish NaN
        let framed = encode_response(&Response::Query { value });
        match decode_response(&framed[4..]).expect("decodes") {
            Response::Query { value: v } => assert_eq!(v.to_bits(), value.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn every_request_truncation_errors() {
        for req in sample_requests() {
            let framed = encode_request(&req);
            for len in 4..framed.len() {
                assert!(
                    decode_request(&framed[4..len]).is_err(),
                    "{req:?}: prefix of length {len} parsed"
                );
            }
        }
    }

    #[test]
    fn request_direction_confusion_is_rejected() {
        // Feeding a response body to the request decoder (and vice versa)
        // fails on the magic, not deeper in.
        let req = encode_request(&Request::Stats);
        let resp = encode_response(&Response::Shutdown);
        assert!(matches!(decode_response(&req[4..]), Err(DecodeError::BadMagic { .. })));
        assert!(matches!(decode_request(&resp[4..]), Err(DecodeError::BadMagic { .. })));
    }

    /// Rewrites `body[at..at+patch.len()]` and re-stamps the trailing
    /// checksum, simulating an adversary who keeps the frame valid.
    fn patch_and_restamp(body: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out[at..at + patch.len()].copy_from_slice(patch);
        let end = out.len() - 8;
        let sum = fnv1a(&out[..end]);
        out[end..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn length_field_overrunning_into_the_checksum_errors() {
        // Query body: magic(4) version(2) opcode(1) shard(4) patlen(4)
        // pat(2) checksum(8). Claiming a 6-byte pattern over 2 real
        // payload bytes reaches into the checksum region; with the
        // checksum re-stamped the envelope verifies, so only the
        // payload-bounded cursor stands between this and reading (or
        // underflowing the trailing-garbage math on) the checksum bytes.
        let framed = encode_request(&Request::Query { shard: 1, pattern: b"ab".to_vec() });
        let forged = patch_and_restamp(&framed[4..], 4 + 2 + 1 + 4, &6u32.to_le_bytes());
        match decode_request(&forged) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn batch_counts_beyond_max_batch_are_rejected() {
        // A huge declared count must fail on the count field even when
        // the frame itself is small…
        let framed = encode_request(&Request::QueryBatch { shard: 0, patterns: Vec::new() });
        let forged =
            patch_and_restamp(&framed[4..], 4 + 2 + 1 + 4, &((MAX_BATCH as u32) + 1).to_le_bytes());
        match decode_request(&forged) {
            Err(DecodeError::BadField { field: "batch count", .. }) => {}
            other => panic!("expected batch-count rejection, got {other:?}"),
        }
        // …and MAX_BATCH itself bounds the response inside MAX_FRAME_LEN.
        const { assert!(8 * MAX_BATCH + 64 <= MAX_FRAME_LEN) }
    }

    #[test]
    fn unknown_trace_kind_is_rejected() {
        let resp = Response::Trace { events: vec![TraceEvent::new(TraceKind::Flush)] };
        let framed = encode_response(&resp);
        // Body: magic(4) version(2) status(1) opcode(1) count(4) seq(8)
        // ts(8) kind(4) — forge the kind code, keeping the frame valid.
        let forged =
            patch_and_restamp(&framed[4..], 4 + 2 + 1 + 1 + 4 + 8 + 8, &999u32.to_le_bytes());
        match decode_response(&forged) {
            Err(DecodeError::BadField { field: "trace kind", .. }) => {}
            other => panic!("expected trace-kind rejection, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        assert!(frame_len(&buf).is_err());
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let framed = encode_request(&Request::Stats);
        for len in 0..framed.len() {
            assert_eq!(frame_len(&framed[..len]).unwrap(), None, "prefix {len}");
        }
        assert_eq!(frame_len(&framed).unwrap(), Some(framed.len()));
        // Extra bytes after a complete frame belong to the next frame.
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        assert_eq!(frame_len(&two).unwrap(), Some(framed.len()));
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let framed = encode_request(&Request::Query { shard: 5, pattern: b"acgt".to_vec() });
        let body = &framed[4..];
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut corrupt = body.to_vec();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    decode_request(&corrupt).is_err(),
                    "bit {bit} of body byte {pos} flipped silently"
                );
            }
        }
    }
}
