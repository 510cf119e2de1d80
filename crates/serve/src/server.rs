//! The TCP serving daemon: one event-loop thread multiplexing every
//! connection over [`crate::poll`]'s edge-triggered epoll wrapper. Like
//! `poll`, this module is Linux-only; the wire codec, client, store,
//! shard manager, cache, and metrics still build everywhere.
//!
//! Each connection is an explicit state machine
//! (`ReadingFrame → Answering → Writing{offset}`) over the incremental
//! frame decoder; accept is non-blocking; shutdown is a self-pipe write
//! (no poll interval); and a per-connection outbound high-water mark
//! provides write backpressure (reading pauses — `EPOLLIN` deregistered
//! — until the queue drains). Concurrency is bounded by fds, not
//! threads: 10k+ connections are one thread and one epoll set.
//! [`Server::bind`] creates the epoll set and the self-pipe and registers
//! the listener, so a host that cannot provide them fails the bind.
//!
//! Every request goes through `Server::answer`, the per-round snapshot
//! pinning that keeps every `QueryBatch` on exactly one epoch, the
//! [`QueryCache`], and the [`MetricsRegistry`] counters, under one
//! connection-lifecycle contract:
//!
//! * a **corrupt length prefix** — first frame or fiftieth — is answered
//!   with an error frame, the answer is flushed, and only then is the
//!   connection closed (the stream cannot be resynchronized, but the
//!   client always learns why it was dropped);
//! * **`Shutdown` is gated** by [`ShutdownPolicy`] on the peer address
//!   (loopback-only by default — a daemon bound to a wildcard address
//!   must not be killable by anyone who can reach the port); refused
//!   peers get an error response and stay connected.
//!
//! ## Consistency invariant
//! For each processing round the loop pins at most one [`ShardSnapshot`]
//! per shard id (first use pins it). An install (`LoadSnapshot` or
//! `Rollback`) ends the round, so later requests pin the new epoch
//! afresh. Every individual request — in particular every `QueryBatch`
//! — is therefore answered from exactly one epoch: a hot swap never
//! produces a blended answer. Cache entries are keyed by the pinned
//! snapshot's epoch, so a hit can only ever return bytes the same
//! epoch's synopsis produced.
//!
//! ## Durability and degradation
//! With a [`SnapshotStore`] configured ([`ServerConfig::store_dir`] or an
//! injected [`ServerConfig::store`]), `LoadSnapshot` persists bytes
//! crash-safely *before* they start serving (the daemon never serves an
//! epoch it cannot recover), startup replays the manifest and serves the
//! newest valid epoch per corpus, and the `Rollback` wire op re-installs
//! a retained prior epoch. The front door degrades instead of wedging:
//! [`ServerConfig::max_conns`] sheds connections beyond the admission
//! bound with a retryable `Overloaded` frame, and
//! [`ServerConfig::read_deadline`] / [`ServerConfig::idle_timeout`]
//! evict mid-frame stalls (slow-loris) and silent idlers. Snapshot
//! installs decode and persist on a dedicated installer thread so a
//! multi-MB `LoadSnapshot` never stalls unrelated connections.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::FrozenSynopsis;

use crate::cache::QueryCache;
use crate::metrics::{render_prometheus, MetricsRegistry, OpKind, OpObservation};
use crate::poll::{Event, Events, Interest, Poller, WakePipe, Waker};
use crate::shard::{ShardManager, ShardSnapshot};
use crate::store::SnapshotStore;
use crate::trace::{TraceEvent, TraceKind};
use crate::wire::{
    decode_request, encode_response, frame_len, CacheStats, Request, Response, ServerStats,
};

/// Who may ask the daemon to exit over the wire. The default is
/// loopback-only: a daemon bound to `0.0.0.0` serves queries to anyone
/// but takes `Shutdown` only from the local machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownPolicy {
    /// Honor `Shutdown` only from loopback peers (including
    /// IPv4-mapped-in-IPv6 loopback).
    #[default]
    LoopbackOnly,
    /// Honor `Shutdown` from any connected peer (pre-gate behavior; for
    /// deployments behind a trusted network boundary).
    AllowRemote,
    /// Refuse `Shutdown` from everyone; only [`ServerHandle::shutdown`]
    /// can stop the daemon.
    Deny,
}

/// Whether `policy` lets a peer at `peer` shut the daemon down.
fn shutdown_allowed(policy: ShutdownPolicy, peer: IpAddr) -> bool {
    match policy {
        ShutdownPolicy::AllowRemote => true,
        ShutdownPolicy::Deny => false,
        ShutdownPolicy::LoopbackOnly => match peer {
            IpAddr::V4(ip) => ip.is_loopback(),
            IpAddr::V6(ip) => {
                ip.is_loopback() || ip.to_ipv4_mapped().is_some_and(|v4| v4.is_loopback())
            }
        },
    }
}

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Total query-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Who may shut the daemon down over the wire.
    pub shutdown_policy: ShutdownPolicy,
    /// Per-connection outbound high-water mark in bytes: above it the
    /// connection stops reading (and answering) until the peer drains
    /// its responses. The budget is checked between frames, so one
    /// response can always be queued no matter how small this is
    /// (clamped to ≥ 1 KiB to keep re-arm churn sane).
    pub write_high_water: usize,
    /// Crash-safe snapshot store directory. When set, `bind` opens (and
    /// recovers) a [`SnapshotStore`] there: installs persist before they
    /// serve, startup replays the manifest, and `Rollback` works.
    /// `None` (the default) keeps the historical memory-only daemon.
    pub store_dir: Option<PathBuf>,
    /// A pre-opened store, overriding `store_dir`. The fault-injection
    /// tests use this to wire a `FaultyIo` store through a live daemon.
    pub store: Option<Arc<SnapshotStore>>,
    /// Per-corpus durable epoch retention depth (rollback window) for a
    /// store opened via `store_dir`; clamped to ≥ 1.
    pub retain_epochs: usize,
    /// Admission bound: accepted connections beyond this many open ones
    /// are shed with a retryable `Overloaded` frame instead of queueing
    /// unboundedly. `usize::MAX` (the default) disables shedding.
    pub max_conns: usize,
    /// How long a connection may sit on an *incomplete* frame before
    /// being evicted (slow-loris defense). The clock starts when the
    /// partial frame is first observed and is not reset by trickled
    /// bytes. `None` (the default) disables eviction.
    pub read_deadline: Option<Duration>,
    /// How long a connection may sit with no buffered input and no
    /// pending output before being reaped. `None` (the default)
    /// disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Capacity of the structured trace ring (rounded up to a power of
    /// two; 0 disables tracing entirely — the emit sites reduce to one
    /// branch, the counters-only mode `tests/alloc_counts.rs` compares
    /// against).
    /// Drained over the wire by the `Trace` op.
    pub trace_capacity: usize,
    /// Answers slower than this are counted and logged to the trace
    /// ring as `slow_op` events (fingerprint + latency, never pattern
    /// bytes). `None` (the default) disables the slow-op log.
    pub slow_op_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 8192,
            shutdown_policy: ShutdownPolicy::LoopbackOnly,
            write_high_water: 1 << 20,
            store_dir: None,
            store: None,
            retain_epochs: 4,
            max_conns: usize::MAX,
            read_deadline: None,
            idle_timeout: None,
            trace_capacity: 1024,
            slow_op_threshold: None,
        }
    }
}

/// The serving daemon. Bind with [`Server::bind`], then either block the
/// current thread in [`Server::run`] or detach with [`Server::spawn`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    manager: Arc<ShardManager>,
    cache: QueryCache,
    metrics: Arc<MetricsRegistry>,
    shutdown_policy: ShutdownPolicy,
    write_high_water: usize,
    store: Option<Arc<SnapshotStore>>,
    max_conns: usize,
    read_deadline: Option<Duration>,
    idle_timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
    /// The epoll set, with the listener and the wake pipe registered.
    poller: Poller,
    wake: WakePipe,
    /// Wakes the event loop from the installer thread and from
    /// [`ServerHandle::shutdown`].
    waker: Waker,
}

/// Handle to a daemon detached via [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The daemon's bound address (resolved ephemeral port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon and joins its threads: sets the shutdown flag,
    /// wakes the event loop through its self-pipe, and waits for the
    /// serving thread to drain. A flag that is already set means an
    /// admitted wire `Shutdown` has the loop exiting on its own.
    pub fn shutdown(self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
        let _ = self.join.join();
    }
}

/// After this many doublings the accept backoff stops growing:
/// 1 ms · 2⁶ = 64 ms per failed accept, enough to take a fd-exhausted
/// acceptor from a hot spin to ~16 wakeups/s while staying responsive
/// once fds free up. The shift below derives directly from this
/// constant, so the cap lives in exactly one place.
const ACCEPT_BACKOFF_CAP_DOUBLINGS: u32 = 6;

/// Exponential accept-error backoff: 1 ms, 2 ms, … capped at
/// 2^[`ACCEPT_BACKOFF_CAP_DOUBLINGS`] ms.
fn accept_backoff(consecutive_errors: u32) -> Duration {
    Duration::from_millis(
        1 << (consecutive_errors.saturating_sub(1)).min(ACCEPT_BACKOFF_CAP_DOUBLINGS),
    )
}

/// What one processing round did to a connection.
#[derive(Debug, Default)]
struct RoundStatus {
    /// A corrupt length prefix was hit: the error response is queued and
    /// the connection must close once it is flushed.
    corrupt: bool,
    /// An honored `Shutdown` request: the ack is queued; the daemon
    /// stops once it is flushed.
    shutdown: bool,
    /// An install (`LoadSnapshot`/`Rollback`): the frame is consumed,
    /// the round stopped (responses stay in request order), and the
    /// request handed back for the installer thread.
    deferred: Option<Request>,
}

impl Server {
    /// Binds the listener and builds the epoll set (no threads yet): the
    /// listener and the wake pipe are registered here, so the waker is
    /// live before [`Server::run`] starts, and a host without epoll gets
    /// the error from `bind`. When a snapshot store is configured this
    /// also replays its manifest: the newest valid epoch per corpus
    /// starts serving before the first connection is accepted, and
    /// `recoveries_total` counts the replayed corpora.
    pub fn bind(config: ServerConfig, manager: Arc<ShardManager>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let wake = WakePipe::new()?;
        let waker = wake.waker()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake.read_fd(), TOKEN_WAKE, Interest::READ)?;
        let slow_ns =
            config.slow_op_threshold.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        let metrics = Arc::new(MetricsRegistry::with_observability(config.trace_capacity, slow_ns));
        // An injected store wins (tests wire fault injection through
        // it); otherwise `store_dir` opens one on the real filesystem.
        let store = match (&config.store, &config.store_dir) {
            (Some(store), _) => Some(Arc::clone(store)),
            (None, Some(dir)) => Some(Arc::new(
                SnapshotStore::open(dir, config.retain_epochs)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            )),
            (None, None) => None,
        };
        if let Some(store) = &store {
            if let Some(ring) = metrics.tracer() {
                store.set_tracer(Arc::clone(ring));
            }
            let mut recovered = 0u64;
            for snap in store.take_recovered() {
                let (corpus, epoch) = (snap.corpus, snap.epoch);
                if manager.load_snapshot_shared_at(snap.corpus, snap.bytes, snap.epoch).is_ok() {
                    recovered += 1;
                    if let Some(ring) = metrics.tracer() {
                        ring.emit(TraceEvent {
                            shard: corpus,
                            epoch,
                            ..TraceEvent::new(TraceKind::Recovery)
                        });
                    }
                }
            }
            metrics.record_recoveries(recovered);
        }
        Ok(Self {
            listener,
            local_addr,
            manager,
            cache: QueryCache::new(config.cache_capacity),
            metrics,
            shutdown_policy: config.shutdown_policy,
            write_high_water: config.write_high_water.max(1024),
            store,
            max_conns: config.max_conns.max(1),
            read_deadline: config.read_deadline,
            idle_timeout: config.idle_timeout,
            shutdown: Arc::new(AtomicBool::new(false)),
            poller,
            wake,
            waker,
        })
    }

    /// The snapshot store this daemon persists to, if any.
    pub fn store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.as_ref()
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The daemon's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Binds and detaches the daemon onto a background thread.
    pub fn spawn(
        config: ServerConfig,
        manager: Arc<ShardManager>,
    ) -> std::io::Result<ServerHandle> {
        let server = Self::bind(config, manager)?;
        let addr = server.local_addr();
        let shutdown = Arc::clone(&server.shutdown);
        let waker = server.waker.clone();
        let join = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, shutdown, waker, join })
    }

    // ------------------------------------------------------------------
    // The request path.
    // ------------------------------------------------------------------

    /// Decodes and answers every complete frame in `buf`, appending the
    /// encoded responses to `out`, until the buffer has no complete
    /// frame, a corrupt length prefix is hit (error queued, `corrupt`
    /// set), or `out` exceeds `out_budget` (write backpressure: the
    /// remaining frames stay buffered for the next round). Snapshots are
    /// pinned per shard for the duration of the round. A
    /// `LoadSnapshot`/`Rollback` frame is consumed but *not* answered:
    /// the round stops and hands the request back in `deferred` (the
    /// installer thread runs it so multi-MB decodes never stall the
    /// event loop; later frames wait so responses stay in request order).
    fn process_round(
        &self,
        buf: &mut RecvBuf,
        out: &mut Vec<u8>,
        peer: IpAddr,
        conn: u64,
        out_budget: usize,
    ) -> RoundStatus {
        let mut status = RoundStatus::default();
        let mut pinned: HashMap<u32, Option<Arc<ShardSnapshot>>> = HashMap::new();
        loop {
            if out.len() > out_budget {
                break;
            }
            match frame_len(buf.filled()) {
                Ok(None) => break,
                Err(e) => {
                    // Unrecoverable stream: answer with the reason, then
                    // close once it is flushed. Resynchronizing an LE
                    // byte stream after a corrupt length is not possible.
                    self.metrics.record_error();
                    // detail = u64::MAX marks "no opcode ever decoded".
                    self.trace_emit(TraceEvent {
                        conn,
                        detail: u64::MAX,
                        ..TraceEvent::new(TraceKind::FrameError)
                    });
                    out.extend_from_slice(&encode_response(&Response::Error {
                        message: e.to_string(),
                    }));
                    buf.consume(buf.len());
                    status.corrupt = true;
                    break;
                }
                Ok(Some(total)) => {
                    let resp = match decode_request(&buf.filled()[4..total]) {
                        Err(e) => {
                            self.metrics.record_error();
                            self.trace_emit(TraceEvent {
                                conn,
                                len: total.min(u32::MAX as usize) as u32,
                                detail: u64::MAX,
                                ..TraceEvent::new(TraceKind::FrameError)
                            });
                            Response::Error { message: e.to_string() }
                        }
                        Ok(req @ (Request::LoadSnapshot { .. } | Request::Rollback { .. })) => {
                            buf.consume(total);
                            status.deferred = Some(req);
                            break;
                        }
                        Ok(req) => {
                            let (resp, initiate) = self.answer_timed(req, &mut pinned, peer, conn);
                            status.shutdown |= initiate;
                            resp
                        }
                    };
                    out.extend_from_slice(&encode_response(&resp));
                    buf.consume(total);
                }
            }
        }
        status
    }

    /// Answers an over-admission connection with a retryable
    /// `Overloaded` frame and closes it. Best-effort and bounded: the
    /// socket is fresh, so the ~30-byte frame either fits the empty
    /// send buffer immediately or the peer loses a race it was losing
    /// anyway.
    fn shed_overloaded(&self, mut stream: TcpStream) {
        self.metrics.record_overloaded();
        // Shed connections were never admitted, so they have no id.
        self.trace_emit(TraceEvent { ..TraceEvent::new(TraceKind::ConnShed) });
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = stream.write_all(&encode_response(&Response::Overloaded));
    }

    /// Emits a trace event when tracing is enabled; one branch otherwise.
    fn trace_emit(&self, ev: TraceEvent) {
        if let Some(ring) = self.metrics.tracer() {
            ring.emit(ev);
        }
    }

    /// Answers one request with full observability (op counter, pattern
    /// count, service latency into the global/per-op/per-shard
    /// histograms, error counter, `frame_answered`/`frame_error` trace
    /// events, the slow-op log) and the shutdown gate. Returns the
    /// response and whether an admitted `Shutdown` should stop the
    /// daemon.
    fn answer_timed(
        &self,
        req: Request,
        pinned: &mut HashMap<u32, Option<Arc<ShardSnapshot>>>,
        peer: IpAddr,
        conn: u64,
    ) -> (Response, bool) {
        let (op, patterns) = match &req {
            Request::Query { .. } => (OpKind::Query, 1),
            Request::QueryBatch { patterns, .. } => (OpKind::QueryBatch, patterns.len() as u64),
            Request::Contains { .. } => (OpKind::Contains, 1),
            Request::Stats => (OpKind::Stats, 0),
            Request::LoadSnapshot { .. } => (OpKind::LoadSnapshot, 0),
            Request::Rollback { .. } => (OpKind::Rollback, 0),
            Request::Metrics => (OpKind::Metrics, 0),
            Request::Shutdown => (OpKind::Shutdown, 0),
            Request::Trace { .. } => (OpKind::Trace, 0),
            Request::MetricsText => (OpKind::MetricsText, 0),
        };
        // Fingerprints cost a hash of the pattern bytes, so they are
        // computed only when a trace ring exists to carry them. Events
        // never carry the bytes themselves (DESIGN.md §16).
        let tracing = self.metrics.tracer().is_some();
        let (shard, fingerprint, len) = match &req {
            Request::Query { shard, pattern } | Request::Contains { shard, pattern } => (
                Some(*shard),
                if tracing { fnv1a(pattern) } else { 0 },
                pattern.len().min(u32::MAX as usize) as u32,
            ),
            Request::QueryBatch { shard, patterns } => (
                Some(*shard),
                if tracing { patterns.first().map_or(0, |p| fnv1a(p)) } else { 0 },
                patterns.len().min(u32::MAX as usize) as u32,
            ),
            Request::LoadSnapshot { shard, snapshot } => {
                (Some(*shard), 0, snapshot.len().min(u32::MAX as usize) as u32)
            }
            Request::Rollback { shard, .. } => (Some(*shard), 0, 0),
            _ => (None, 0, 0),
        };
        let t0 = Instant::now();
        let mut initiate = false;
        let resp = if matches!(req, Request::Shutdown) {
            if shutdown_allowed(self.shutdown_policy, peer) {
                initiate = true;
                Response::Shutdown
            } else {
                Response::Error {
                    message: format!(
                        "shutdown refused: peer {peer} not admitted by {:?} policy",
                        self.shutdown_policy
                    ),
                }
            }
        } else {
            self.answer(req, pinned)
        };
        let latency_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let error = matches!(resp, Response::Error { .. });
        self.metrics.observe(&OpObservation {
            op,
            patterns: if error { 0 } else { patterns },
            latency_ns,
            conn,
            shard,
            fingerprint,
            len,
            error,
        });
        (resp, initiate)
    }

    /// Answers one request. `pinned` caches the snapshot per shard for
    /// the current round (see the module docs for the invariant).
    /// `Shutdown` is handled (and gated) by [`Server::answer_timed`].
    fn answer(
        &self,
        req: Request,
        pinned: &mut HashMap<u32, Option<Arc<ShardSnapshot>>>,
    ) -> Response {
        let manager = &self.manager;
        let pin = |shard: u32,
                   pinned: &mut HashMap<u32, Option<Arc<ShardSnapshot>>>|
         -> Option<Arc<ShardSnapshot>> {
            pinned.entry(shard).or_insert_with(|| manager.snapshot(shard)).clone()
        };
        match req {
            Request::Query { shard, pattern } => match pin(shard, pinned) {
                None => unknown_shard(shard),
                Some(snap) => Response::Query { value: self.cached_query(shard, &snap, &pattern) },
            },
            Request::QueryBatch { shard, patterns } => match pin(shard, pinned) {
                None => unknown_shard(shard),
                Some(snap) => Response::QueryBatch {
                    values: patterns.iter().map(|p| self.cached_query(shard, &snap, p)).collect(),
                },
            },
            Request::Contains { shard, pattern } => match pin(shard, pinned) {
                None => unknown_shard(shard),
                Some(snap) => Response::Contains { present: snap.synopsis.contains(&pattern) },
            },
            Request::Stats => {
                let shards = self.manager.stats();
                // Stats is the one response without a payload-derived
                // bound; past ~2M shard records (~92 bytes each) the
                // frame would trip `seal`'s MAX_FRAME_LEN invariant and
                // panic the event loop — answer with an error instead.
                const MAX_STATS_SHARDS: usize = 1 << 21;
                if shards.len() > MAX_STATS_SHARDS {
                    return Response::Error {
                        message: format!(
                            "{} shards exceed the {MAX_STATS_SHARDS}-record Stats frame limit",
                            shards.len()
                        ),
                    };
                }
                Response::Stats(ServerStats { cache: self.cache_stats(), shards })
            }
            Request::Metrics => Response::Metrics(Box::new(
                self.metrics.report(self.cache_stats(), self.manager.metrics_shards()),
            )),
            Request::MetricsText => Response::MetricsText {
                text: render_prometheus(
                    &self.metrics.report(self.cache_stats(), self.manager.metrics_shards()),
                ),
            },
            // The snapshot is taken before this Trace op's own
            // frame_answered event lands, so a drain never sees itself.
            Request::Trace { max } => Response::Trace {
                events: self
                    .metrics
                    .tracer()
                    .map_or_else(Vec::new, |ring| ring.snapshot(max as usize)),
            },
            // Installs run on the installer thread and end their round
            // (`process_round`), so no pin in this round can go stale.
            Request::LoadSnapshot { shard, snapshot } => self.install_snapshot(shard, snapshot),
            Request::Rollback { shard, epoch } => self.rollback_snapshot(shard, epoch),
            Request::Shutdown => Response::Shutdown,
        }
    }

    /// The `LoadSnapshot` implementation. Without a store: the original
    /// shared-ownership install (the snapshot is served straight from
    /// the wire buffer). With a store: decode
    /// (which validates), persist crash-safely, then install the decoded
    /// synopsis under the durable epoch — in that order, so the daemon
    /// never serves an epoch it cannot recover, and a persist failure
    /// leaves the old epoch serving.
    fn install_snapshot(&self, shard: u32, snapshot: Arc<[u8]>) -> Response {
        let snap_len = snapshot.len().min(u32::MAX as usize) as u32;
        let Some(store) = &self.store else {
            return match self.manager.load_snapshot_shared(shard, snapshot) {
                Ok(snap) => {
                    self.trace_emit(TraceEvent {
                        shard,
                        epoch: snap.epoch,
                        len: snap_len,
                        ..TraceEvent::new(TraceKind::SnapshotInstalled)
                    });
                    Response::LoadSnapshot {
                        epoch: snap.epoch,
                        node_count: snap.synopsis.node_count() as u64,
                    }
                }
                Err(e) => Response::Error { message: format!("snapshot rejected: {e}") },
            };
        };
        let synopsis = match FrozenSynopsis::from_bytes_shared(Arc::clone(&snapshot)) {
            Ok(synopsis) => synopsis,
            Err(e) => return Response::Error { message: format!("snapshot rejected: {e}") },
        };
        let epoch = match store.persist(shard, &snapshot) {
            Ok(epoch) => epoch,
            Err(e) => {
                return Response::Error {
                    message: format!("snapshot not persisted (prior epoch keeps serving): {e}"),
                }
            }
        };
        let snap = self.manager.install_at(shard, synopsis, epoch);
        self.trace_emit(TraceEvent {
            shard,
            epoch: snap.epoch,
            len: snap_len,
            ..TraceEvent::new(TraceKind::SnapshotInstalled)
        });
        Response::LoadSnapshot { epoch: snap.epoch, node_count: snap.synopsis.node_count() as u64 }
    }

    /// The `Rollback` implementation: re-reads and re-validates the
    /// retained epoch's payload from the store, commits it under a fresh
    /// durable epoch, and hot-swaps it in.
    fn rollback_snapshot(&self, shard: u32, epoch: u64) -> Response {
        let Some(store) = &self.store else {
            return Response::Error {
                message: "rollback refused: the daemon runs without a snapshot store".to_string(),
            };
        };
        match store.rollback(shard, epoch) {
            Err(e) => Response::Error { message: format!("rollback refused: {e}") },
            Ok((new_epoch, bytes)) => {
                let snap_len = bytes.len().min(u32::MAX as usize) as u32;
                match self.manager.load_snapshot_shared_at(shard, bytes, new_epoch) {
                    Ok(snap) => {
                        self.metrics.record_rollback();
                        // detail carries the epoch rolled back *to*.
                        self.trace_emit(TraceEvent {
                            shard,
                            epoch: snap.epoch,
                            len: snap_len,
                            detail: epoch,
                            ..TraceEvent::new(TraceKind::SnapshotInstalled)
                        });
                        Response::Rollback { epoch: snap.epoch }
                    }
                    Err(e) => Response::Error { message: format!("rollback refused: {e}") },
                }
            }
        }
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            entries: self.cache.entries() as u64,
            capacity: self.cache.capacity() as u64,
        }
    }

    /// One pattern against one pinned snapshot, through the cache. The
    /// cache key carries the snapshot's epoch, so hits are always values
    /// this exact synopsis produced — bit-identical to a cold walk.
    fn cached_query(&self, shard: u32, snap: &ShardSnapshot, pattern: &[u8]) -> f64 {
        if let Some(v) = self.cache.get(shard, snap.epoch, pattern) {
            return v;
        }
        let v = snap.synopsis.query(pattern);
        self.cache.insert(shard, snap.epoch, pattern, v);
        v
    }
}

fn unknown_shard(shard: u32) -> Response {
    Response::Error { message: format!("unknown shard {shard}") }
}

enum ReadOutcome {
    /// ≥1 byte appended to the buffer.
    Data,
    /// Nothing available right now (`WouldBlock`).
    WouldBlock,
    /// Orderly EOF from the peer.
    Closed,
    /// Unrecoverable IO error.
    Fatal,
}

/// Read size per syscall.
const READ_CHUNK: usize = 16 * 1024;

/// The inbound frame buffer: reads land directly in the buffer's tail
/// (no intermediate stack copy) and decoded frames advance a consumed
/// offset instead of `drain`-memmoving the unread remainder on every
/// round. Compaction happens only when the writable tail runs out, and
/// then moves just the unconsumed remainder (usually a partial frame).
#[derive(Debug)]
struct RecvBuf {
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    fn new() -> Self {
        Self { data: Vec::new(), start: 0, end: 0 }
    }

    /// The unconsumed bytes.
    fn filled(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Marks `n` leading bytes of [`Self::filled`] as decoded.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One `read` into the buffer's tail, classifying the result.
    fn read_from(&mut self, stream: &mut TcpStream) -> ReadOutcome {
        if self.data.len() - self.end < READ_CHUNK {
            if self.start > 0 {
                // Reclaim the consumed prefix before growing.
                self.data.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.data.len() - self.end < READ_CHUNK {
                // Zeroing happens only on growth; steady-state reads
                // reuse the allocation.
                self.data.resize(self.end + READ_CHUNK, 0);
            }
        }
        match stream.read(&mut self.data[self.end..]) {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => {
                self.end += n;
                ReadOutcome::Data
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                ReadOutcome::WouldBlock
            }
            Err(_) => ReadOutcome::Fatal,
        }
    }
}

// ----------------------------------------------------------------------
// The event loop.
// ----------------------------------------------------------------------

/// Event-buffer capacity per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// How long shutdown waits for queued acks/errors to flush before
/// closing connections anyway.
const SHUTDOWN_FLUSH_BUDGET: Duration = Duration::from_secs(1);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// The per-connection state machine. The daemon-facing states are
/// explicit:
///
/// ```text
/// ReadingFrame ──complete frame──► Answering ──responses queued──► Writing{offset}
///      ▲                             (transient, same wake)              │
///      └──────────── outbound queue drained below high water ────────────┘
/// ```
///
/// `ReadingFrame` is "out queue empty, `EPOLLIN` armed"; `Answering`
/// happens inline while processing a wake; `Writing{offset}` is "out
/// queue non-empty, `EPOLLOUT` armed, `offset` bytes already sent" —
/// with `EPOLLIN` dropped whenever the pending output exceeds the
/// high-water mark (write backpressure).
struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    /// The accept-counter id trace events reference.
    id: u64,
    /// When the connection was admitted (accept-to-first clock).
    accepted_at: Instant,
    /// No response byte has reached the socket yet.
    first_resp_pending: bool,
    /// Reading is currently parked by write backpressure (the
    /// park/unpark counters track edges, not states).
    parked: bool,
    generation: u32,
    buf: RecvBuf,
    /// Queued output; `sent` is the `Writing{offset}` cursor.
    out: Vec<u8>,
    sent: usize,
    /// The interest set currently registered with the poller.
    interest: Interest,
    peer_closed: bool,
    /// Close once `out` is flushed (corrupt stream or honored
    /// shutdown ack).
    closing: bool,
    /// This connection carries the shutdown ack; the loop ends when
    /// it is flushed.
    shutdown_ack: bool,
    /// An install is in flight on the installer thread: reading and
    /// answering pause (responses must stay in request order) until
    /// the completion comes back through the wake pipe.
    blocked: bool,
    /// Last readiness/pump activity (idle-reap clock).
    last_activity: Instant,
    /// When the current incomplete frame was first observed by the
    /// sweeper (read-deadline clock; trickled bytes do not reset it,
    /// so a slow-loris drip still runs out the deadline).
    stall_since: Option<Instant>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.sent
    }
}

/// A deferred install travelling to the installer thread.
struct InstallJob {
    idx: usize,
    gen: u32,
    peer: IpAddr,
    conn: u64,
    req: Request,
}

/// The installer's finished, already-encoded answer travelling back.
struct InstallDone {
    idx: usize,
    gen: u32,
    resp: Vec<u8>,
}

/// What a pump pass decided about the connection.
enum Pump {
    Keep,
    Close,
}

impl Server {
    /// Serves until shutdown (via an admitted `Shutdown` frame or a
    /// [`ServerHandle`]), blocking the calling thread in the event loop:
    /// one thread, one epoll set, every connection multiplexed. See the
    /// module docs for the state machine and invariants.
    pub fn run(&self) {
        // Eviction sweeps run at a fraction of the tightest timeout,
        // so an offender is caught within ~25% past its nominal
        // deadline; None (no deadlines configured) keeps the
        // historical block-forever wait.
        let sweep_tick = [self.read_deadline, self.idle_timeout]
            .into_iter()
            .flatten()
            .min()
            .map(|d| (d / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)));

        let (inst_tx, inst_rx) = std::sync::mpsc::channel::<InstallJob>();
        let done: Mutex<Vec<InstallDone>> = Mutex::new(Vec::new());
        let done = &done;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // The installer thread: LoadSnapshot/Rollback decode,
                // validate, and persist here — off the event loop —
                // so a multi-MB install never stalls unrelated
                // connections. answer_timed records the op metrics.
                while let Ok(job) = inst_rx.recv() {
                    let (resp, _) =
                        self.answer_timed(job.req, &mut HashMap::new(), job.peer, job.conn);
                    done.lock().expect("install completions not poisoned").push(InstallDone {
                        idx: job.idx,
                        gen: job.gen,
                        resp: encode_response(&resp),
                    });
                    self.waker.wake();
                }
            });

            let mut conns: Vec<Option<Conn>> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            let mut generation: u32 = 0;
            let mut events = Events::with_capacity(EVENT_BATCH);
            let mut accept_errors = 0u32;
            let mut shutdown_deadline: Option<Instant> = None;
            let mut last_sweep = Instant::now();

            'event_loop: loop {
                let shutting_down = self.shutdown.load(Ordering::SeqCst);
                if shutting_down {
                    // Exit once no ack is pending (or the flush budget
                    // is spent); until then, poll with a short timeout
                    // so a wedged ack peer cannot hold shutdown
                    // hostage.
                    let deadline = *shutdown_deadline
                        .get_or_insert_with(|| Instant::now() + SHUTDOWN_FLUSH_BUDGET);
                    let acks_pending =
                        conns.iter().flatten().any(|c| c.shutdown_ack && c.pending_out() > 0);
                    if !acks_pending || Instant::now() >= deadline {
                        break 'event_loop;
                    }
                }
                let timeout = if shutting_down {
                    Some(50)
                } else if sweep_tick.is_some() && self.metrics.conns_open_now() > 0 {
                    sweep_tick.map(|t| (t.as_millis().max(1)) as i32)
                } else {
                    None
                };
                let wait_start = Instant::now();
                if self.poller.wait(&mut events, timeout).is_err() {
                    break 'event_loop;
                }
                // Loop utilization: time blocked in epoll_wait vs
                // time servicing the readiness batch (through the
                // sweep at the bottom of this iteration).
                let busy_start = Instant::now();
                let batch: Vec<Event> = events.iter().collect();
                for ev in batch {
                    match ev.token {
                        TOKEN_WAKE => {
                            self.wake.drain();
                            // Drain installer completions: queue the
                            // response, unblock, and pump the
                            // connection forward (it may have more
                            // buffered frames to answer).
                            let completions: Vec<InstallDone> = {
                                let mut guard =
                                    done.lock().expect("install completions not poisoned");
                                guard.drain(..).collect()
                            };
                            for d in completions {
                                let Some(slot) = conns.get_mut(d.idx) else { continue };
                                let Some(conn) = slot.as_mut() else { continue };
                                if conn.generation != d.gen || !conn.blocked {
                                    continue; // connection recycled meanwhile
                                }
                                conn.out.extend_from_slice(&d.resp);
                                conn.blocked = false;
                                if matches!(self.pump(conn, d.idx, &inst_tx), Pump::Close) {
                                    let conn = slot.take().expect("checked above");
                                    let _ = self.poller.delete(conn.stream.as_raw_fd());
                                    free.push(d.idx);
                                    self.metrics.conn_closed();
                                    self.trace_emit(TraceEvent {
                                        conn: conn.id,
                                        ..TraceEvent::new(TraceKind::ConnClosed)
                                    });
                                }
                            }
                        }
                        TOKEN_LISTENER => {
                            if self.shutdown.load(Ordering::SeqCst) {
                                continue;
                            }
                            accept_errors = self.accept_ready(
                                &mut conns,
                                &mut free,
                                &mut generation,
                                accept_errors,
                            );
                        }
                        token => {
                            let idx = (token & 0xFFFF_FFFF) as usize - TOKEN_CONN_BASE as usize;
                            let gen = (token >> 32) as u32;
                            let Some(slot) = conns.get_mut(idx) else { continue };
                            let Some(conn) = slot.as_mut() else { continue };
                            if conn.generation != gen {
                                continue; // stale event for a recycled slot
                            }
                            let verdict =
                                if ev.error { Pump::Close } else { self.pump(conn, idx, &inst_tx) };
                            if matches!(verdict, Pump::Close) {
                                let conn = slot.take().expect("checked above");
                                let _ = self.poller.delete(conn.stream.as_raw_fd());
                                free.push(idx);
                                self.metrics.conn_closed();
                                self.trace_emit(TraceEvent {
                                    conn: conn.id,
                                    ..TraceEvent::new(TraceKind::ConnClosed)
                                });
                            }
                        }
                    }
                }
                if let Some(tick) = sweep_tick {
                    let now = Instant::now();
                    if now.duration_since(last_sweep) >= tick {
                        self.sweep_conns(&mut conns, &mut free, now);
                        last_sweep = now;
                    }
                }
                self.metrics.record_loop(
                    busy_start.duration_since(wait_start).as_nanos().min(u64::MAX as u128) as u64,
                    busy_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
            }

            // Teardown: every remaining connection closes; the
            // installer sees the channel hang up and exits before the
            // scope joins it.
            for conn in conns.into_iter().flatten() {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                let id = conn.id;
                drop(conn.stream);
                self.metrics.conn_closed();
                self.trace_emit(TraceEvent { conn: id, ..TraceEvent::new(TraceKind::ConnClosed) });
            }
            drop(inst_tx);
        });
    }

    /// One timeout sweep over every connection: evict mid-frame
    /// stalls past the read deadline (slow-loris) and reap
    /// connections idle past the idle timeout. Blocked (install in
    /// flight) and closing connections are exempt — they are waiting
    /// on us, not the other way around.
    fn sweep_conns(&self, conns: &mut [Option<Conn>], free: &mut Vec<usize>, now: Instant) {
        for idx in 0..conns.len() {
            let Some(conn) = conns[idx].as_mut() else { continue };
            if conn.closing || conn.blocked {
                continue;
            }
            let mut evict = false;
            let mid_frame =
                !conn.buf.is_empty() && matches!(frame_len(conn.buf.filled()), Ok(None));
            if let Some(deadline) = self.read_deadline {
                if mid_frame {
                    // The stall clock starts when the partial frame
                    // is first observed and is *not* reset by
                    // trickled bytes: a slow-loris drip never
                    // completes the frame, so it runs out the
                    // deadline no matter how often it sends.
                    let since = *conn.stall_since.get_or_insert(now);
                    if now.duration_since(since) >= deadline {
                        evict = true;
                        self.metrics.record_deadline_evicted();
                        self.trace_emit(TraceEvent {
                            conn: conn.id,
                            dur_ns: now.duration_since(since).as_nanos().min(u64::MAX as u128)
                                as u64,
                            ..TraceEvent::new(TraceKind::ConnDeadlineEvicted)
                        });
                    }
                } else {
                    conn.stall_since = None;
                }
            }
            if !evict {
                if let Some(idle) = self.idle_timeout {
                    if conn.buf.is_empty()
                        && conn.pending_out() == 0
                        && now.duration_since(conn.last_activity) >= idle
                    {
                        evict = true;
                        self.metrics.record_idle_reaped();
                        self.trace_emit(TraceEvent {
                            conn: conn.id,
                            dur_ns: now
                                .duration_since(conn.last_activity)
                                .as_nanos()
                                .min(u64::MAX as u128) as u64,
                            ..TraceEvent::new(TraceKind::ConnIdleReaped)
                        });
                    }
                }
            }
            if evict {
                let conn = conns[idx].take().expect("checked above");
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                free.push(idx);
                self.metrics.conn_closed();
                self.trace_emit(TraceEvent {
                    conn: conn.id,
                    ..TraceEvent::new(TraceKind::ConnClosed)
                });
            }
        }
    }

    /// Accepts until `WouldBlock`, registering each connection for
    /// read interest. Returns the updated consecutive-error count
    /// (see [`accept_backoff`]).
    fn accept_ready(
        &self,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        generation: &mut u32,
        mut accept_errors: u32,
    ) -> u32 {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    accept_errors = 0;
                    // Admission bound: shed with a retryable
                    // Overloaded frame instead of multiplexing
                    // without limit.
                    if self.metrics.conns_open_now() >= self.max_conns as u64 {
                        self.shed_overloaded(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue; // a socket we cannot drive; drop it
                    }
                    let _ = stream.set_nodelay(true);
                    *generation = generation.wrapping_add(1);
                    let idx = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                    let token = conn_token(idx, *generation);
                    if self.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                        free.push(idx);
                        continue;
                    }
                    let conn_id = self.metrics.conn_opened();
                    conns[idx] = Some(Conn {
                        stream,
                        peer: peer.ip(),
                        id: conn_id,
                        accepted_at: Instant::now(),
                        first_resp_pending: true,
                        parked: false,
                        generation: *generation,
                        buf: RecvBuf::new(),
                        out: Vec::new(),
                        sent: 0,
                        interest: Interest::READ,
                        peer_closed: false,
                        closing: false,
                        shutdown_ack: false,
                        blocked: false,
                        last_activity: Instant::now(),
                        stall_since: None,
                    });
                    self.trace_emit(TraceEvent {
                        conn: conn_id,
                        ..TraceEvent::new(TraceKind::ConnAccepted)
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return accept_errors,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: the pending connection stays
                    // in the backlog. A bounded sleep (the event loop
                    // owns this thread) keeps a fd-exhausted daemon
                    // from spinning hot.
                    accept_errors = accept_errors.saturating_add(1);
                    std::thread::sleep(accept_backoff(accept_errors));
                    return accept_errors;
                }
            }
        }
    }

    /// Drives one connection as far as readiness allows: drain reads
    /// (edge-triggered contract), answer buffered frames within the
    /// write budget, flush, and re-arm the right interest set.
    fn pump(&self, conn: &mut Conn, idx: usize, inst_tx: &Sender<InstallJob>) -> Pump {
        let high_water = self.write_high_water;
        conn.last_activity = Instant::now();
        loop {
            // Answer whatever is already buffered, bounded by the
            // write budget (backpressure pauses answering too — the
            // unanswered frames stay in `buf`).
            if !conn.closing && !conn.blocked {
                // The budget bounds *pending* (unsent) output: `out`
                // may still carry a flushed-but-uncompacted prefix of
                // `sent` bytes, which must not eat the allowance.
                let budget = conn.sent.saturating_add(high_water);
                let status =
                    self.process_round(&mut conn.buf, &mut conn.out, conn.peer, conn.id, budget);
                if status.shutdown {
                    self.shutdown.store(true, Ordering::SeqCst);
                    conn.shutdown_ack = true;
                    conn.closing = true;
                }
                if status.corrupt {
                    conn.closing = true;
                }
                if let Some(req) = status.deferred {
                    // Hand the install to the installer thread and
                    // pause this connection until the completion
                    // comes back (responses stay in request order).
                    conn.blocked = true;
                    let _ = inst_tx.send(InstallJob {
                        idx,
                        gen: conn.generation,
                        peer: conn.peer,
                        conn: conn.id,
                        req,
                    });
                }
            }
            let pending_before = conn.pending_out();
            let outcome = flush_out(conn);
            let flushed = pending_before - conn.pending_out();
            if flushed > 0 {
                if conn.first_resp_pending {
                    conn.first_resp_pending = false;
                    self.metrics.record_accept_to_first(
                        conn.accepted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                    );
                }
                self.trace_emit(TraceEvent {
                    conn: conn.id,
                    len: flushed.min(u32::MAX as usize) as u32,
                    ..TraceEvent::new(TraceKind::Flush)
                });
            }
            match outcome {
                FlushOutcome::Fatal => return Pump::Close,
                FlushOutcome::Blocked | FlushOutcome::Drained => {}
            }
            if conn.pending_out() == 0 && conn.closing {
                return Pump::Close;
            }
            // Over the high-water mark, blocked on an install, or
            // closing: reading — and therefore answering — pauses.
            if conn.closing || conn.blocked || conn.pending_out() > high_water {
                break;
            }
            if conn.peer_closed {
                match frame_len(conn.buf.filled()) {
                    // Still answerable frames (or a corrupt length to
                    // report): another round.
                    Ok(Some(_)) | Err(_) => continue,
                    // Nothing left (or an unfinishable partial frame):
                    // flush whatever is queued, then close.
                    Ok(None) => {
                        conn.closing = true;
                        continue;
                    }
                }
            }
            match conn.buf.read_from(&mut conn.stream) {
                ReadOutcome::Data => continue,
                ReadOutcome::WouldBlock => match frame_len(conn.buf.filled()) {
                    // The socket is dry but the write budget left
                    // complete frames unanswered (the flush freed
                    // room since): keep answering — no readable
                    // event will come for bytes already read.
                    Ok(Some(_)) | Err(_) => continue,
                    // Settled: back to ReadingFrame.
                    Ok(None) => break,
                },
                ReadOutcome::Closed => {
                    conn.peer_closed = true;
                    continue;
                }
                ReadOutcome::Fatal => return Pump::Close,
            }
        }
        // Park/unpark edges: reading pauses exactly while the
        // pending output exceeds the high-water mark (closing and
        // blocked pauses are not backpressure).
        let backpressured = !conn.closing && !conn.blocked && conn.pending_out() > high_water;
        if backpressured && !conn.parked {
            conn.parked = true;
            self.metrics.record_park();
            self.trace_emit(TraceEvent {
                conn: conn.id,
                len: conn.pending_out().min(u32::MAX as usize) as u32,
                ..TraceEvent::new(TraceKind::Park)
            });
        } else if !backpressured && conn.parked {
            conn.parked = false;
            self.metrics.record_unpark();
            self.trace_emit(TraceEvent {
                conn: conn.id,
                len: conn.pending_out().min(u32::MAX as usize) as u32,
                ..TraceEvent::new(TraceKind::Unpark)
            });
        }
        // Re-arm: readable unless backpressured/blocked/closing,
        // writable while output is pending.
        let want = Interest {
            readable: !conn.closing
                && !conn.blocked
                && conn.pending_out() <= high_water
                && !conn.peer_closed,
            writable: conn.pending_out() > 0,
        };
        if (want.readable || want.writable) && want != conn.interest {
            let token = conn_token(idx, conn.generation);
            if self.poller.modify(conn.stream.as_raw_fd(), token, want).is_err() {
                return Pump::Close;
            }
            conn.interest = want;
        }
        Pump::Keep
    }
}

fn conn_token(idx: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | (idx as u64 + TOKEN_CONN_BASE)
}

enum FlushOutcome {
    /// Everything queued went out.
    Drained,
    /// The kernel buffer filled; `EPOLLOUT` will resume.
    Blocked,
    /// The connection is dead.
    Fatal,
}

/// Writes as much queued output as the socket accepts, advancing the
/// `Writing{offset}` cursor; resets the queue when fully drained.
fn flush_out(conn: &mut Conn) -> FlushOutcome {
    let outcome = loop {
        if conn.sent == conn.out.len() {
            break FlushOutcome::Drained;
        }
        match conn.stream.write(&conn.out[conn.sent..]) {
            Ok(0) => return FlushOutcome::Fatal,
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break FlushOutcome::Blocked,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Fatal,
        }
    };
    // Reclaim the flushed prefix: free on a full drain, an amortized
    // memmove of the (high-water-bounded) remainder when the prefix
    // gets large — without this a long-lived connection that always
    // keeps a little backlog would grow `out` without bound.
    if conn.sent == conn.out.len() {
        conn.out.clear();
        conn.sent = 0;
    } else if conn.sent >= 64 * 1024 {
        conn.out.drain(..conn.sent);
        conn.sent = 0;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_then_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(3), Duration::from_millis(4));
        // The cap is derived from the constant: one more error than the
        // doubling cap reaches the ceiling…
        let cap_ms = 1u64 << ACCEPT_BACKOFF_CAP_DOUBLINGS;
        assert_eq!(accept_backoff(ACCEPT_BACKOFF_CAP_DOUBLINGS + 1), Duration::from_millis(cap_ms));
        // …and arbitrarily long failure streaks stay there.
        assert_eq!(accept_backoff(u32::MAX), Duration::from_millis(cap_ms));
        assert_eq!(accept_backoff(u32::MAX), accept_backoff(ACCEPT_BACKOFF_CAP_DOUBLINGS + 1));
    }

    #[test]
    fn shutdown_gate_admits_loopback_rejects_remote() {
        use ShutdownPolicy::*;
        let lo4: IpAddr = "127.0.0.1".parse().unwrap();
        let lo4_high: IpAddr = "127.0.0.53".parse().unwrap();
        let lo6: IpAddr = "::1".parse().unwrap();
        let mapped_lo: IpAddr = "::ffff:127.0.0.1".parse().unwrap();
        let remote4: IpAddr = "192.0.2.7".parse().unwrap();
        let remote6: IpAddr = "2001:db8::1".parse().unwrap();
        let unspecified: IpAddr = "0.0.0.0".parse().unwrap();

        // Default policy: every loopback spelling is admitted…
        for ip in [lo4, lo4_high, lo6, mapped_lo] {
            assert!(shutdown_allowed(LoopbackOnly, ip), "{ip} is loopback");
        }
        // …and nothing else is (including the unknowable-peer sentinel).
        for ip in [remote4, remote6, unspecified] {
            assert!(!shutdown_allowed(LoopbackOnly, ip), "{ip} is not loopback");
        }

        // AllowRemote admits everyone; Deny admits no one.
        for ip in [lo4, lo6, mapped_lo, remote4, remote6] {
            assert!(shutdown_allowed(AllowRemote, ip));
            assert!(!shutdown_allowed(Deny, ip));
        }
    }

    #[test]
    fn recv_buf_consumes_without_memmove_and_compacts_on_refill() {
        let mut buf = RecvBuf::new();
        // Simulate a read landing bytes in the tail.
        buf.data = vec![0u8; 64];
        buf.data[..10].copy_from_slice(b"0123456789");
        buf.end = 10;
        assert_eq!(buf.filled(), b"0123456789");
        buf.consume(4);
        assert_eq!(buf.filled(), b"456789");
        assert_eq!(buf.len(), 6);
        // Consuming everything resets the cursors (no compaction needed).
        buf.consume(6);
        assert!(buf.is_empty());
        assert_eq!((buf.start, buf.end), (0, 0));
    }
}
