//! # dpsc-serve — the sharded query-serving daemon
//!
//! The paper's synopsis is built once under the privacy budget and then
//! *queried forever*; this crate is the process boundary that makes the
//! querying side a real service. Everything here is post-processing of
//! released synopses — no privacy accounting happens at serving time.
//!
//! Std-only (no registry dependencies). The wire codec, client, shard
//! manager, cache, metrics, trace ring, and store build on every
//! platform; the daemon itself ([`poll`] and [`server`]) is Linux-only.
//! The layers:
//!
//! * [`wire`] — the versioned length-prefixed binary protocol
//!   (`DPSQ`/`DPSR` frames: magic, LE framing, FNV-1a checksum,
//!   length-checked decode via the shared
//!   [`DecodeError`](dpsc_private_count::DecodeError)); request kinds
//!   `Query`, `QueryBatch`, `Contains`, `Stats`, `LoadSnapshot`,
//!   `Shutdown`.
//! * [`shard`] — [`ShardManager`]: corpus-id routing over
//!   `Arc<ShardSnapshot>` shards with atomic hot swap
//!   (load → validate → swap; readers pin an `Arc` and never block on a
//!   swap, every answer comes from exactly one epoch).
//! * [`cache`] — [`QueryCache`]: a sharded LRU keyed on
//!   `(shard, epoch, pattern)`, so a hot swap invalidates by
//!   construction (old epochs become unaddressable) and hits are
//!   bit-identical to cold walks of the same epoch.
//! * [`metrics`] — [`MetricsRegistry`](metrics::MetricsRegistry):
//!   lock-free per-op counters, global/per-op/per-shard fixed-bucket
//!   latency histograms, event-loop utilization, and a slow-op log,
//!   snapshotted by the `Metrics` wire op and rendered as a
//!   Prometheus-style text exposition by `MetricsText`.
//! * [`trace`] — [`TraceRing`](trace::TraceRing): a bounded lock-free
//!   ring of structured [`TraceEvent`](trace::TraceEvent)s (connection
//!   lifecycle, frame service, snapshot-store crash points, overload
//!   decisions), drained over the wire by the `Trace` op. Events carry
//!   pattern fingerprints and lengths only — never pattern bytes.
//! * [`store`] — [`SnapshotStore`]: the crash-safe on-disk snapshot
//!   store (write-temp → fsync → rename → fsync(dir) under a
//!   checksummed append-only `MANIFEST`), with epoch retention, the
//!   `Rollback` wire op's backing re-install, and a deterministic
//!   fault-injection [`StoreIo`](store::StoreIo) layer for enumerating
//!   crash points under test.
//! * [`poll`] (Linux) — a std-only edge-triggered epoll wrapper plus a
//!   self-pipe waker, the readiness layer under the daemon.
//! * [`server`] (Linux) / [`client`] — the TCP daemon (one epoll event
//!   loop plus an installer thread for snapshot loads) with
//!   per-connection request batching, and the blocking client used by
//!   the examples, tests, and the `serve_throughput` load generator.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dpsc_serve::{Client, Server, ServerConfig, ShardManager};
//!
//! let manager = Arc::new(ShardManager::new());
//! let handle = Server::spawn(ServerConfig::default(), Arc::clone(&manager)).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! # let snapshot_bytes: Vec<u8> = Vec::new();
//! client.load_snapshot(0, &snapshot_bytes).unwrap();
//! let count = client.query(0, b"acgt").unwrap();
//! # let _ = count;
//! client.shutdown_server().unwrap();
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod poll;
#[cfg(target_os = "linux")]
pub mod server;
pub mod shard;
pub mod store;
pub mod trace;
pub mod wire;

pub use cache::QueryCache;
pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use metrics::{render_prometheus, MetricsRegistry, OpKind, OpObservation};
#[cfg(target_os = "linux")]
pub use server::{Server, ServerConfig, ServerHandle, ShutdownPolicy};
pub use shard::{ShardManager, ShardSnapshot};
pub use store::{
    FaultPlan, FaultyIo, RealIo, RecoveredSnapshot, SnapshotStore, StoreError, StoreIo,
};
pub use trace::{TraceEvent, TraceKind, TraceRing, NO_SHARD};
pub use wire::{
    CacheStats, MetricsReport, MetricsShard, OpCounts, OpLatencies, OpLatency, Request, Response,
    ServerStats, ShardStats,
};
