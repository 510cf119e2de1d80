//! End-to-end contracts of the serving daemon: served answers are
//! bit-identical to local synopsis queries, a mid-traffic hot snapshot
//! swap never blocks readers or blends epochs, cache hits return exactly
//! what a cold walk returns, and `Stats` surfaces the utility bounds of
//! what is actually being served.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dp_substring_counting::prelude::*;
use dp_substring_counting::serve::wire::decode_response;
use dp_substring_counting::serve::{RealIo, Request, Response, StoreIo};
use dp_substring_counting::strkit::trie::Trie;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Theorem-1 build over a Markov corpus plus a present/absent pattern
/// mix from its documents.
fn dp_built(seed: u64) -> (FrozenSynopsis, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = markov_corpus(80, 16, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.5, 1.5);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    for doc in db.documents() {
        patterns.push(doc[..doc.len().min(5)].to_vec());
    }
    for _ in 0..40 {
        let len = rng.gen_range(2..8usize);
        patterns.push((0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect());
    }
    (s.freeze(), patterns)
}

/// A synthetic synopsis over a fixed key set whose every count is
/// `base + i` — two of these with different `base` disagree on *every*
/// stored node, which is what makes the no-blend assertion sharp.
fn synthetic(base: f64) -> FrozenSynopsis {
    let mut trie: Trie<f64> = Trie::new(base);
    let keys: Vec<Vec<u8>> = (0..50u8)
        .map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)])
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let node = trie.insert_path(key, |_| 0.0);
        *trie.value_mut(node) = base + i as f64;
    }
    PrivateCountStructure::new(
        trie,
        CountMode::Substring,
        PrivacyParams::pure(2.0),
        3.0,
        4.0,
        50,
        3,
    )
    .freeze()
}

fn spawn_daemon(manager: Arc<ShardManager>) -> dp_substring_counting::serve::ServerHandle {
    Server::spawn(ServerConfig::default(), manager).expect("daemon binds a loopback port")
}

#[test]
fn served_answers_are_bit_identical_to_local_queries() {
    let (frozen, patterns) = dp_built(31);
    let bytes = frozen.to_bytes();
    let manager = Arc::new(ShardManager::new());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // Snapshot shipped over the wire, not installed in-process.
    let epoch = client.load_snapshot(5, &bytes).expect("snapshot loads");
    assert_eq!(epoch, 1, "first install is epoch 1");

    for p in &patterns {
        let served = client.query(5, p).expect("query answered");
        assert_eq!(served.to_bits(), frozen.query(p).to_bits(), "pattern {p:?}");
        let present = client.contains(5, p).expect("contains answered");
        assert_eq!(present, frozen.contains(p), "pattern {p:?}");
    }
    let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
    let served = client.query_batch(5, &refs).expect("batch answered");
    let local = frozen.query_batch(&refs);
    assert_eq!(served.len(), local.len());
    for (s, l) in served.iter().zip(&local) {
        assert_eq!(s.to_bits(), l.to_bits());
    }
    handle.shutdown();
}

#[test]
fn pipelined_bursts_answer_in_order() {
    let (frozen, patterns) = dp_built(32);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, frozen.clone());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let requests: Vec<Request> =
        patterns.iter().map(|p| Request::Query { shard: 0, pattern: p.clone() }).collect();
    let responses = client.pipeline(&requests).expect("burst answered");
    assert_eq!(responses.len(), requests.len());
    for (resp, p) in responses.iter().zip(&patterns) {
        match resp {
            Response::Query { value } => {
                assert_eq!(value.to_bits(), frozen.query(p).to_bits(), "pattern {p:?}")
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn unknown_shards_and_corrupt_snapshots_error_without_killing_the_daemon() {
    let (frozen, _) = dp_built(33);
    let bytes = frozen.to_bytes();
    let manager = Arc::new(ShardManager::new());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // Unknown shard: typed server error, connection stays usable.
    let err = client.query(77, b"ab").expect_err("unknown shard must error");
    assert!(err.to_string().contains("unknown shard 77"), "got: {err}");

    // Corrupt snapshot: rejected by the decode path, nothing installed.
    let mut corrupt = bytes.clone();
    corrupt[20] ^= 0xFF;
    let err = client.load_snapshot(0, &corrupt).expect_err("corrupt snapshot must error");
    assert!(err.to_string().contains("snapshot rejected"), "got: {err}");
    assert!(manager.snapshot(0).is_none(), "failed load must not install");

    // The same connection still serves once a good snapshot lands.
    client.load_snapshot(0, &bytes).expect("good snapshot loads");
    assert!(client.query(0, b"").expect("query answered").is_finite());
    handle.shutdown();
}

/// The no-blend invariant: while `LoadSnapshot` hot-swaps between two
/// synopses that disagree on every stored count, every concurrently
/// served `QueryBatch` matches one generation exactly — never a mix —
/// and readers keep making progress throughout (the swap never blocks
/// them on the load/validate work).
#[test]
fn hot_swap_never_blends_epochs_for_concurrent_readers() {
    let gen_a = synthetic(1_000.0);
    let gen_b = synthetic(9_000.0);
    let bytes_a = gen_a.to_bytes();
    let bytes_b = gen_b.to_bytes();

    let probe: Vec<Vec<u8>> = (0..50u8)
        .map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)])
        .collect();
    let refs: Vec<&[u8]> = probe.iter().map(|p| p.as_slice()).collect();
    let expect_a: Vec<u64> = gen_a.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    let expect_b: Vec<u64> = gen_b.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    assert_ne!(expect_a, expect_b);

    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen_a.clone());
    let handle = spawn_daemon(Arc::clone(&manager));
    let addr = handle.addr();

    let stop = AtomicBool::new(false);
    let swaps = 40usize;
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..2 {
            readers.push(scope.spawn(|| {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut batches = 0usize;
                let mut saw = [false, false];
                while !stop.load(Ordering::Relaxed) {
                    let served = client.query_batch(0, &refs).expect("batch answered");
                    let bits: Vec<u64> = served.iter().map(|v| v.to_bits()).collect();
                    if bits == expect_a {
                        saw[0] = true;
                    } else if bits == expect_b {
                        saw[1] = true;
                    } else {
                        panic!("batch blends epochs: {bits:?}");
                    }
                    batches += 1;
                }
                (batches, saw)
            }));
        }
        // Swapper: alternate generations over a separate admin connection.
        let mut admin = Client::connect(addr).expect("admin connects");
        let mut last_epoch = 0;
        for i in 0..swaps {
            let bytes = if i % 2 == 0 { &bytes_b } else { &bytes_a };
            let epoch = admin.load_snapshot(0, bytes).expect("hot swap succeeds");
            assert!(epoch > last_epoch, "epochs strictly increase");
            last_epoch = epoch;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let mut total_batches = 0usize;
        let mut saw_any = [false, false];
        for r in readers {
            let (batches, saw) = r.join().expect("reader thread clean");
            total_batches += batches;
            saw_any[0] |= saw[0];
            saw_any[1] |= saw[1];
        }
        // Readers made progress during the swap storm, and traffic really
        // exercised both generations (not vacuously pinned to one).
        assert!(total_batches >= swaps, "readers starved: {total_batches} batches");
        assert!(saw_any[0] && saw_any[1], "swap never took effect under traffic: {saw_any:?}");
    });
    handle.shutdown();
}

#[test]
fn cache_hits_are_bit_identical_and_epoch_keyed() {
    let gen_a = synthetic(10.0);
    let gen_b = synthetic(20.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen_a.clone());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let pattern = b"aba";
    // Cold, then hot: same bits, and the hit counter moves.
    let cold = client.query(0, pattern).expect("cold query");
    let before = client.stats().expect("stats").cache;
    let hot = client.query(0, pattern).expect("hot query");
    let after = client.stats().expect("stats").cache;
    assert_eq!(hot.to_bits(), cold.to_bits(), "cache hit must be bit-identical");
    assert_eq!(cold.to_bits(), gen_a.query(pattern).to_bits());
    assert!(after.hits > before.hits, "second query must hit the cache");

    // Hot swap: the same pattern now answers from the new epoch — stale
    // cache entries are unreachable by key construction.
    client.load_snapshot(0, &gen_b.to_bytes()).expect("hot swap");
    let swapped = client.query(0, pattern).expect("post-swap query");
    assert_eq!(swapped.to_bits(), gen_b.query(pattern).to_bits());
    assert_ne!(swapped.to_bits(), cold.to_bits(), "old epoch's cached value must not leak");
    handle.shutdown();
}

#[test]
fn stats_surface_per_shard_sizes_and_utility_bounds() {
    let (frozen_a, _) = dp_built(34);
    let gen_b = synthetic(5.0);
    let bytes_a = frozen_a.to_bytes();
    let bytes_b = gen_b.to_bytes();

    let manager = Arc::new(ShardManager::new());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");
    client.load_snapshot(2, &bytes_a).expect("shard 2 loads");
    client.load_snapshot(7, &bytes_b).expect("shard 7 loads");

    let stats = client.stats().expect("stats answered");
    assert_eq!(stats.cache.capacity, ServerConfig::default().cache_capacity as u64);
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.shards[0].shard_id, 2, "shards come back ascending");
    assert_eq!(stats.shards[1].shard_id, 7);

    let s = &stats.shards[0];
    assert_eq!(s.node_count, frozen_a.node_count() as u64);
    assert_eq!(s.serialized_len, bytes_a.len() as u64);
    assert_eq!(s.alpha, frozen_a.alpha());
    assert_eq!(s.alpha_counts, frozen_a.alpha_counts());
    assert_eq!(s.alpha_absent, frozen_a.alpha_absent());
    assert_eq!(s.epsilon, frozen_a.privacy().epsilon);
    assert_eq!(s.delta, frozen_a.privacy().delta);
    let (n_docs, max_len) = frozen_a.db_params();
    assert_eq!((s.n_docs, s.max_len), (n_docs as u64, max_len as u64));

    let s = &stats.shards[1];
    assert_eq!(s.node_count, gen_b.node_count() as u64);
    assert_eq!(s.serialized_len, bytes_b.len() as u64);
    assert_eq!(s.epsilon, 2.0);
    handle.shutdown();
}

/// Shipping a snapshot over the wire installs it *borrowed*: the
/// resident synopsis answers straight out of the received frame buffer,
/// which nothing else holds, bit-identically to a local decode.
/// Hot-swapping the same shard to a second release installs that buffer
/// borrowed too, and its answers are the new release's.
#[test]
fn v2_snapshots_serve_borrowed_over_the_wire() {
    let manager = Arc::new(ShardManager::new());
    let handle = spawn_daemon(Arc::clone(&manager));
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let mut previous: Vec<u8> = Vec::new();
    for seed in [35, 36] {
        let (frozen, patterns) = dp_built(seed);
        let bytes = frozen.to_bytes();
        assert_ne!(bytes, previous, "seed {seed}: the swap must change the release");
        client.load_snapshot(1, &bytes).expect("snapshot loads");
        let resident = manager.snapshot(1).expect("shard resident");
        let served_buf = resident.synopsis.shared_bytes();
        assert_eq!(served_buf[..], bytes[..], "seed {seed}: served bytes");
        assert_eq!(Arc::strong_count(served_buf), 1, "seed {seed}: a second copy holder was kept");
        assert_eq!(resident.synopsis.serialized_len(), bytes.len());
        for p in &patterns {
            let served = client.query(1, p).expect("query answered");
            assert_eq!(served.to_bits(), frozen.query(p).to_bits(), "seed {seed}, pattern {p:?}");
        }
        previous = bytes;
    }
    handle.shutdown();
}

/// Regression: a daemon bound to the wildcard address must still shut
/// down promptly after serving traffic. `shutdown` wakes the event loop
/// through its self-pipe, so the bound address plays no part in the
/// wake.
#[test]
fn shutdown_wakes_a_wildcard_bound_acceptor() {
    let (frozen, _) = dp_built(36);
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config, Arc::clone(&manager)).expect("daemon binds wildcard");
    assert!(handle.addr().ip().is_unspecified(), "test must exercise a wildcard bind");

    // The daemon is reachable via loopback on the bound port.
    let mut client = Client::connect(("127.0.0.1", handle.addr().port())).expect("client connects");
    client.load_snapshot(0, &frozen.to_bytes()).expect("snapshot loads");
    assert!(client.query(0, b"").expect("query answered").is_finite());
    drop(client);

    // Bounded shutdown: the join must complete without an organic wake.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("wildcard-bound daemon failed to shut down within 10s");
}

/// The self-pipe waker is live from `bind`, before the event loop's
/// first `epoll_wait`: a daemon shut down right after `spawn`, with no
/// client ever connecting, must join promptly on a concrete loopback
/// bind and on a wildcard bind alike.
#[test]
fn shutdown_right_after_spawn_joins_without_any_client() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        for i in 0..32 {
            let config = ServerConfig { addr: addr.to_string(), ..ServerConfig::default() };
            let handle =
                Server::spawn(config, Arc::new(ShardManager::new())).expect("daemon binds");
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                handle.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{addr} daemon {i} failed to shut down within 10s"));
        }
    }
}

/// Regression: a corrupt length prefix in the *first* frame used to be
/// silently dropped (`break 'conn` with no response) while the same
/// corruption later in the stream was answered with an error frame. The
/// daemon now follows one contract for corruption anywhere in the
/// stream: error frame back, flush, then close.
#[test]
fn garbage_first_frame_gets_an_error_frame_then_close() {
    use dp_substring_counting::serve::wire::decode_response;
    use std::io::{Read, Write};

    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig::default();
    let handle = Server::spawn(config, manager).expect("daemon binds");

    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    // A length prefix far beyond MAX_FRAME_LEN: unrecoverable.
    raw.write_all(&[0xFF; 16]).expect("garbage written");

    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("an error frame must come back");
    let body_len = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; body_len];
    raw.read_exact(&mut body).expect("error frame body");
    match decode_response(&body).expect("well-formed response frame") {
        Response::Error { message } => {
            assert!(!message.is_empty(), "error carries a reason")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // …and then the server closes the unrecoverable stream.
    let mut rest = Vec::new();
    let n = raw.read_to_end(&mut rest).expect("clean EOF after the error frame");
    assert_eq!(n, 0, "no bytes after the error frame");

    // The daemon itself is unharmed: a fresh client still gets served.
    let mut client = Client::connect(handle.addr()).expect("fresh client connects");
    let err = client.query(9, b"x").expect_err("unknown shard errors");
    assert!(err.to_string().contains("unknown shard"), "daemon still serving");
    handle.shutdown();
}

/// The wire `Shutdown` gate: the default loopback-only policy admits a
/// local client, and `ShutdownPolicy::Deny` refuses with a typed error
/// while the daemon keeps serving (only the handle can stop it).
#[test]
fn shutdown_gate_admits_by_policy_and_refuses_with_an_error() {
    // Accept path: default policy, loopback peer → daemon stops.
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig::default();
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let client = Client::connect(handle.addr()).expect("client connects");
    client.shutdown_server().expect("loopback peer may shut the daemon down");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("daemon joins promptly after a wire shutdown");

    // Reject path: Deny policy — even loopback is refused, the
    // connection stays usable, and the daemon keeps serving.
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { shutdown_policy: ShutdownPolicy::Deny, ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    match client.call(&Request::Shutdown).expect("refusal is a response, not a hangup") {
        Response::Error { message } => {
            assert!(message.contains("shutdown refused"), "got: {message}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    // Same connection, next request: still served.
    let err = client.query(3, b"x").expect_err("unknown shard errors");
    assert!(err.to_string().contains("unknown shard 3"), "daemon survived");
    handle.shutdown();
}

/// Opens `conns` connections from a few client threads and holds every
/// one open until all have been answered. Each thread sends its request
/// on every one of its connections before it reads any answer, so all
/// `conns` requests are in flight at once and the one event-loop thread
/// finds many sockets ready per wakeup (a full 1,024-event batch at
/// 4,096). Every answer is bit-identical to the local oracle, the
/// daemon's counters match the client side exactly, and shutdown still
/// joins promptly with every connection live.
fn concurrent_connections_serve_bit_identically(conns: usize) {
    use dp_substring_counting::serve::wire::{encode_request, encode_response};

    const CLIENT_THREADS: usize = 8;
    let gen = synthetic(42.0);
    let probe: Vec<Vec<u8>> = (0..50u8)
        .map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)])
        .collect();
    let refs: Vec<&[u8]> = probe.iter().map(|p| p.as_slice()).collect();
    let request = encode_request(&Request::QueryBatch { shard: 0, patterns: probe.clone() });
    let expect = encode_response(&Response::QueryBatch { values: gen.query_batch(&refs) });

    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen);
    let handle = Server::spawn(ServerConfig::default(), manager).expect("daemon binds");
    let addr = handle.addr();

    let per_thread = conns.div_ceil(CLIENT_THREADS);
    let threads = conns.div_ceil(per_thread);
    let barrier = std::sync::Barrier::new(threads);
    let clients: Vec<TcpStream> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let n = per_thread.min(conns - t * per_thread);
                let (barrier, request, expect) = (&barrier, &request, &expect);
                scope.spawn(move || {
                    let mut streams: Vec<TcpStream> = (0..n)
                        .map(|_| {
                            let s = TcpStream::connect(addr).expect("client connects");
                            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            s
                        })
                        .collect();
                    // Everyone connects before anyone queries.
                    barrier.wait();
                    for s in &mut streams {
                        s.write_all(request).expect("request written");
                    }
                    let mut got = vec![0u8; expect.len()];
                    for s in &mut streams {
                        s.read_exact(&mut got).expect("batch answered");
                        assert!(got == *expect, "served bits must match the local oracle");
                    }
                    streams
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().expect("client thread ok")).collect()
    });
    assert_eq!(clients.len(), conns);

    // Every connection is still open: the daemon holds all of them and
    // counted exactly the lookups the clients sent.
    let mut admin = Client::connect(addr).expect("admin connects");
    let report = admin.metrics().expect("metrics answered");
    assert_eq!(report.conns_open, conns as u64 + 1, "every connection held open at once");
    assert_eq!(report.conns_accepted, conns as u64 + 1);
    assert_eq!(report.ops.query_batch, conns as u64);
    assert_eq!(report.patterns_total, (conns * probe.len()) as u64, "lookups lost or invented");
    assert_eq!(report.ops.errors, 0);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("shutdown joins promptly with {conns} connections open"));
    drop((admin, clients));
}

#[test]
fn hundreds_of_concurrent_connections_serve_bit_identically() {
    concurrent_connections_serve_bit_identically(256);
}

/// The 10k-class point: 4,096 connections held open at once. Slow in a
/// debug build, so it runs on request (`cargo test --release --test
/// serve_daemon -- --ignored`).
#[test]
#[ignore = "4,096 sockets; run in release with --ignored"]
fn thousands_of_concurrent_connections_serve_bit_identically() {
    concurrent_connections_serve_bit_identically(4096);
}

/// The `Metrics` op end to end: counters reconcile exactly with what
/// this client did, latency percentiles and qps are live, the cache hit
/// rate reflects the repeated pattern, and per-shard records carry the
/// installed epoch and serialized size.
#[test]
fn metrics_reconcile_with_client_side_counts() {
    let gen = synthetic(7.0);
    let bytes = gen.to_bytes();
    let manager = Arc::new(ShardManager::new());
    let handle = Server::spawn(ServerConfig::default(), manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let epoch = client.load_snapshot(4, &bytes).expect("snapshot loads");
    for _ in 0..5 {
        client.query(4, b"aaa").expect("query answered"); // 1 miss + 4 hits
    }
    let refs: Vec<&[u8]> = vec![b"aba", b"baa", b"abc"];
    client.query_batch(4, &refs).expect("batch answered");
    client.contains(4, b"aba").expect("contains answered");
    client.stats().expect("stats answered");
    let _ = client.query(77, b"zz").expect_err("unknown shard errors");

    let report = client.metrics().expect("metrics answered");
    // Op counters: exactly what this client sent (plus the error).
    assert_eq!(report.ops.query, 6, "5 served + 1 unknown-shard error");
    assert_eq!(report.ops.query_batch, 1);
    assert_eq!(report.ops.contains, 1);
    assert_eq!(report.ops.stats, 1);
    assert_eq!(report.ops.load_snapshot, 1);
    assert_eq!(report.ops.metrics, 0, "a report snapshots counters before its own op lands");
    assert_eq!(report.ops.shutdown, 0);
    assert_eq!(report.ops.rollback, 0);
    assert_eq!(report.ops.errors, 1);
    // Degradation counters: a healthy unstressed daemon never trips any.
    assert_eq!(report.overloaded_total, 0);
    assert_eq!(report.idle_reaped_total, 0);
    assert_eq!(report.deadline_evicted_total, 0);
    assert_eq!(report.recoveries_total, 0);
    assert_eq!(report.rollbacks_total, 0);
    // Served work: 5 single + 3 batched + 1 contains lookups (the failed
    // query adds 0).
    assert_eq!(report.patterns_total, 9);
    assert_eq!(report.conns_accepted, 1);
    assert_eq!(report.conns_open, 1);
    assert!(report.uptime_ns > 0);
    assert!(report.qps > 0.0, "patterns served over nonzero uptime");
    assert!(report.latency_p50_ns > 0.0 && report.latency_p99_ns >= report.latency_p50_ns);
    // Cache: "aaa" hit 4 times out of 9 total lookups (5+3+1... the
    // contains path does not touch the cache): 4 hits / 8 lookups.
    assert_eq!(report.cache.hits, 4);
    assert_eq!(report.cache.misses, 4);
    assert!((report.cache_hit_rate - 0.5).abs() < 1e-12, "rate = {}", report.cache_hit_rate);
    // Per-shard identity triple.
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.shards[0].shard_id, 4);
    assert_eq!(report.shards[0].epoch, epoch);
    assert_eq!(report.shards[0].serialized_len, bytes.len() as u64);
    // A second report sees the first Metrics op (and nothing else new).
    let report2 = client.metrics().expect("second metrics answered");
    assert_eq!(report2.ops.metrics, 1);
    assert_eq!(report2.patterns_total, 9, "Metrics ops serve no patterns");
    handle.shutdown();
}

/// Write backpressure: with a deliberately tiny
/// outbound high-water mark, a large pipelined burst (answers queue
/// faster than the client drains) still comes back complete, in order,
/// and bit-identical — reading pauses instead of buffering unboundedly.
#[test]
fn tiny_write_budget_backpressure_preserves_order_and_answers() {
    let gen = synthetic(3.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig { write_high_water: 2048, ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let probe: Vec<Vec<u8>> = (0..2000u32)
        .map(|i| {
            vec![b'a' + (i % 4) as u8, b'a' + ((i / 4) % 4) as u8, b'a' + ((i / 16) % 4) as u8]
        })
        .collect();
    let requests: Vec<Request> =
        probe.iter().map(|p| Request::Query { shard: 0, pattern: p.clone() }).collect();
    let responses = client.pipeline(&requests).expect("burst survives backpressure");
    assert_eq!(responses.len(), requests.len());
    for (resp, p) in responses.iter().zip(&probe) {
        match resp {
            Response::Query { value } => {
                assert_eq!(value.to_bits(), gen.query(p).to_bits(), "pattern {p:?}")
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}

/// Reads one length-prefixed response frame (then EOF) from a raw
/// socket the server shed at admission. The probe never writes, so the
/// `Overloaded` frame cannot be destroyed by a reset racing unread
/// request bytes — the shed count observed here is exact.
fn read_shed_frame(addr: std::net::SocketAddr) -> Response {
    let mut s = TcpStream::connect(addr).expect("TCP connect still succeeds");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        match s.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) => panic!("shed connection read failed: {e}"),
        }
    }
    assert!(buf.len() >= 4, "shed connection must carry a frame, got {} bytes", buf.len());
    let body_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    assert_eq!(buf.len(), 4 + body_len, "exactly one frame then close");
    decode_response(&buf[4..]).expect("well-formed response frame")
}

/// The admission bound sheds excess connections with a retryable
/// `Overloaded` frame while every admitted connection keeps answering
/// bit-identically, and `overloaded_total` reconciles exactly with the
/// observed sheds.
#[test]
fn admission_bound_sheds_overloaded_and_healthy_conns_stay_correct() {
    let gen = synthetic(11.0);
    let probe: Vec<Vec<u8>> = (0..50u8)
        .map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)])
        .collect();
    let refs: Vec<&[u8]> = probe.iter().map(|p| p.as_slice()).collect();
    let expect: Vec<u64> = gen.query_batch(&refs).iter().map(|v| v.to_bits()).collect();

    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig { max_conns: 2, ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");

    // Fill the admission bound and prove both slots are live.
    let mut healthy: Vec<Client> =
        (0..2).map(|_| Client::connect(handle.addr()).expect("admitted connection")).collect();
    for c in healthy.iter_mut() {
        c.query(0, b"aaa").expect("admitted connection answers");
    }

    // Five raw probes: each shed at accept with a typed frame.
    for i in 0..5 {
        let resp = read_shed_frame(handle.addr());
        assert!(
            matches!(resp, Response::Overloaded),
            "shed {i} got {resp:?} instead of Overloaded"
        );
    }
    // The typed client surfaces the shed as the retryable error (the
    // reset race can also surface as Io; both are retryable).
    let mut extra = Client::connect(handle.addr()).expect("TCP connect succeeds");
    let err = extra.query(0, b"aaa").expect_err("6th conn is shed");
    assert!(matches!(err, ClientError::Overloaded | ClientError::Io(_)), "got: {err}");
    drop(extra);

    // Healthy connections never noticed: answers stay bit-identical,
    // and the counter reconciles with exactly 6 observed sheds.
    for c in healthy.iter_mut() {
        let served: Vec<u64> =
            c.query_batch(0, &refs).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(served, expect, "healthy conn degraded under overload");
    }
    let report = healthy[0].metrics().expect("metrics");
    assert_eq!(report.overloaded_total, 6, "shed count reconciles");
    assert_eq!(report.conns_open, 2, "only admitted conns counted");

    // Freeing a slot lets a retrying client in.
    drop(healthy.pop());
    let policy = RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(200),
        ..RetryPolicy::default()
    };
    let mut late = Client::connect(handle.addr()).expect("TCP connect succeeds");
    let v = late.query_with_retry(0, &probe[7], &policy).expect("retry admits once capacity frees");
    assert_eq!(v.to_bits(), gen.query(&probe[7]).to_bits());
    handle.shutdown();
}

/// A slow-loris connection (partial frame, then silence) is evicted at
/// the read deadline while a healthy connection keeps answering, and
/// `deadline_evicted_total` reconciles exactly.
#[test]
fn slow_loris_is_evicted_while_healthy_conns_keep_answering() {
    let gen = synthetic(12.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config =
        ServerConfig { read_deadline: Some(Duration::from_millis(200)), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");

    // The loris: two bytes of a frame header, then nothing.
    let mut loris = TcpStream::connect(handle.addr()).expect("loris connects");
    loris.write_all(b"DP").expect("partial frame sent");

    // Healthy traffic throughout the loris's stall window.
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(800) {
        let v = client.query(0, b"abc").expect("healthy conn keeps answering");
        assert_eq!(v.to_bits(), gen.query(b"abc").to_bits());
        std::thread::sleep(Duration::from_millis(25));
    }

    // The loris must be gone: its socket reads EOF (or a reset).
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut one = [0u8; 16];
    match loris.read(&mut one) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("loris read {n} unexpected bytes"),
    }
    let report = client.metrics().expect("metrics");
    assert_eq!(report.deadline_evicted_total, 1, "exactly the loris evicted");
    assert_eq!(report.idle_reaped_total, 0, "no idle reaping configured");
    handle.shutdown();
}

/// Idle connections are reaped at `idle_timeout` while connections with
/// in-window traffic survive, and `idle_reaped_total` reconciles.
#[test]
fn idle_connections_are_reaped_but_active_ones_survive() {
    let gen = synthetic(13.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config =
        ServerConfig { idle_timeout: Some(Duration::from_millis(200)), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");

    let mut idle = Client::connect(handle.addr()).expect("idle client connects");
    idle.query(0, b"abc").expect("one query, then silence");
    let mut active = Client::connect(handle.addr()).expect("active client connects");

    // 600 ms of in-window traffic from the active client; the idle
    // one stays quiet well past the timeout.
    for _ in 0..12 {
        active.query(0, b"abc").expect("in-window traffic survives");
        std::thread::sleep(Duration::from_millis(50));
    }

    let err = idle.query(0, b"abc").expect_err("idle conn was reaped");
    assert!(matches!(err, ClientError::Io(_)), "got: {err}");
    let report = active.metrics().expect("metrics");
    assert_eq!(report.idle_reaped_total, 1, "exactly the idle conn reaped");
    assert_eq!(report.deadline_evicted_total, 0, "no deadline configured");
    handle.shutdown();
}

/// A `StoreIo` whose payload write blocks on a condvar gate, so a test
/// can hold an install mid-persist and prove the rest of the daemon
/// keeps serving.
#[derive(Debug)]
struct GatedIo {
    inner: RealIo,
    gate: Arc<(Mutex<(bool, bool)>, Condvar)>, // (blocked, entered)
}

impl StoreIo for GatedIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let (lock, cv) = &*self.gate;
        let mut st = lock.lock().unwrap();
        st.1 = true;
        cv.notify_all();
        while st.0 {
            st = cv.wait(st).unwrap();
        }
        drop(st);
        self.inner.write_file(path, bytes)
    }
    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_file(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}

/// The satellite regression: a `LoadSnapshot` stuck deep inside persist
/// must not stall other connections' queries: the install runs on the
/// installer thread, off the event loop. Queries from a second
/// connection answer within a strict timeout for the whole time the
/// install is held, and the install completes once released.
#[test]
fn queries_stay_responsive_while_an_install_is_stuck_in_persist() {
    let old_gen = synthetic(5.0);
    let new_gen = synthetic(99.0);
    let new_bytes = new_gen.to_bytes();
    let dir = std::env::temp_dir().join(format!("dpsc-gated-install-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new((Mutex::new((true, false)), Condvar::new()));
    let store = dp_substring_counting::serve::SnapshotStore::open_with(
        &dir,
        4,
        Box::new(GatedIo { inner: RealIo, gate: Arc::clone(&gate) }),
    )
    .expect("fresh store opens without touching the gate");
    let manager = Arc::new(ShardManager::new());
    manager.install(0, old_gen.clone());
    let config = ServerConfig { store: Some(Arc::new(store)), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let addr = handle.addr();

    let install_bytes = new_bytes.clone();
    let installer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("installer connects");
        c.load_snapshot(1, &install_bytes)
    });

    // Wait until the install is provably stuck inside the persist.
    {
        let (lock, cv) = &*gate;
        let mut st = lock.lock().unwrap();
        while !st.1 {
            let (next, timeout) = cv.wait_timeout(st, Duration::from_secs(10)).unwrap();
            st = next;
            assert!(!timeout.timed_out(), "install never reached the store");
        }
    }

    // While held: a second connection's queries answer promptly and
    // bit-identically to the resident epoch.
    let mut client = Client::connect_with(
        addr,
        ClientConfig { io_timeout: Some(Duration::from_secs(2)), ..ClientConfig::default() },
    )
    .expect("query client connects");
    for _ in 0..10 {
        let v = client.query(0, b"abc").expect("queries must not stall behind a stuck install");
        assert_eq!(v.to_bits(), old_gen.query(b"abc").to_bits());
    }

    // Release the gate: the install completes with a durable epoch.
    {
        let (lock, cv) = &*gate;
        lock.lock().unwrap().0 = false;
        cv.notify_all();
    }
    let epoch =
        installer.join().expect("installer thread lives").expect("released install succeeds");
    assert_eq!(epoch, 1, "first durable epoch");
    let v = client.query(1, b"abc").expect("new shard serves");
    assert_eq!(v.to_bits(), new_gen.query(b"abc").to_bits());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ClientConfig::io_timeout` bounds calls against a server that accepts
/// and then never responds — the call errors instead of hanging forever.
#[test]
fn client_io_timeout_fires_on_a_silent_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("silent listener binds");
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accepts");
        // Read (and discard) whatever arrives, never answer; exit on EOF.
        let mut buf = [0u8; 4096];
        while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
    });

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        io_timeout: Some(Duration::from_millis(200)),
    };
    let mut client = Client::connect_with(addr, config).expect("connects");
    let start = Instant::now();
    let err = client.query(0, b"abc").expect_err("silent server must not hang the client");
    match &err {
        ClientError::Io(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock),
            "got io error kind {:?}",
            e.kind()
        ),
        other => panic!("expected Io timeout, got {other}"),
    }
    assert!(start.elapsed() < Duration::from_secs(3), "timeout fired late");
    drop(client);
    silent.join().unwrap();
}

/// `call_with_retry` reconnects after `Overloaded` sheds and lands the
/// correct answer once capacity frees up — the client-side half of the
/// overload contract.
#[test]
fn retry_policy_reconnects_after_overload_and_answers_correctly() {
    let gen = synthetic(21.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig { max_conns: 1, ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let addr = handle.addr();

    // One hog holds the only slot.
    let mut hog = Client::connect(addr).expect("hog connects");
    hog.query(0, b"aaa").expect("hog is admitted");

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("TCP connect succeeds even when shed");
        let policy = RetryPolicy {
            max_retries: 12,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        c.query_with_retry(0, b"bbb", &policy)
    });

    std::thread::sleep(Duration::from_millis(250));
    drop(hog); // capacity frees mid-retry
    let v = worker.join().expect("retry thread lives").expect("retry succeeds once the slot frees");
    assert_eq!(v.to_bits(), gen.query(b"bbb").to_bits(), "retried answer is bit-identical");
    handle.shutdown();
}

/// The `Trace` wire op round-trips: the drained events are
/// dense and ordered, frame events carry the connection id, shard,
/// pattern fingerprint, and opcode that this client's traffic implies,
/// the drain never sees its own frame, and a second drain proves the
/// ring is non-destructive.
#[test]
fn trace_op_round_trips_with_exact_frame_events() {
    use dp_substring_counting::private_count::codec::fnv1a;
    use dp_substring_counting::serve::OpKind;

    let gen = synthetic(17.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig::default();
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    client.query(0, b"abc").expect("query answered");
    client.contains(0, b"ab").expect("contains answered");
    let _ = client.query(77, b"zz").expect_err("unknown shard errors");

    let events = client.trace(1024).expect("trace drains");
    assert!(!events.is_empty(), "default config records events");
    for w in events.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1, "snapshot is dense and ordered");
        assert!(w[1].ts_ns >= w[0].ts_ns, "timestamps are monotone");
    }

    // Exactly one admitted connection; its id threads through every
    // frame event below.
    let accepted: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == TraceKind::ConnAccepted).collect();
    assert_eq!(accepted.len(), 1);
    let conn = accepted[0].conn;
    assert!(conn > 0, "connection ids are dense from 1");

    let q = events
        .iter()
        .find(|e| {
            e.kind == TraceKind::FrameAnswered && e.detail == OpKind::Query.wire_code() as u64
        })
        .expect("query frame traced");
    assert_eq!(q.conn, conn);
    assert_eq!(q.shard, 0);
    assert_eq!(q.fingerprint, fnv1a(b"abc"), "fingerprint, never bytes");
    assert_eq!(q.len, 3, "length, never content");
    assert!(q.dur_ns > 0, "service latency recorded");

    let c = events
        .iter()
        .find(|e| {
            e.kind == TraceKind::FrameAnswered && e.detail == OpKind::Contains.wire_code() as u64
        })
        .expect("contains frame traced");
    assert_eq!((c.fingerprint, c.len), (fnv1a(b"ab"), 2));

    // The decoded-request error: a FrameError carrying its opcode.
    let errs: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == TraceKind::FrameError).collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].detail, OpKind::Query.wire_code() as u64);
    assert_eq!(errs[0].conn, conn);

    // A drain snapshots the ring before its own frame lands…
    let own = |evs: &[TraceEvent]| {
        evs.iter()
            .filter(|e| {
                e.kind == TraceKind::FrameAnswered && e.detail == OpKind::Trace.wire_code() as u64
            })
            .count()
    };
    assert_eq!(own(&events), 0, "a drain never sees itself");
    // …and is non-destructive: a second drain re-reads everything
    // plus exactly the first drain's own frame.
    let again = client.trace(1024).expect("second drain");
    let again_seqs: Vec<u64> = again.iter().map(|e| e.seq).collect();
    assert!(events.iter().all(|e| again_seqs.contains(&e.seq)), "drains are non-destructive");
    assert_eq!(own(&again), 1);

    // Counters reconcile with the drained events.
    let report = client.metrics().expect("metrics");
    assert_eq!(report.ops.errors, errs.len() as u64);
    assert_eq!(report.ops.trace, 2);
    assert!(report.trace_events_total >= again.len() as u64);
    assert_eq!(report.trace_overwritten_total, 0, "nothing wrapped");
    assert!(report.op_latency.query.p50_ns > 0.0, "per-op p50 live");
    assert!(report.op_latency.query.p99_ns >= report.op_latency.query.p50_ns);
    assert!(report.op_latency.trace.p99_ns > 0.0, "trace op has its own histogram");
    handle.shutdown();
}

/// Adversarial load reconciles counters with trace events exactly: an
/// undecodable frame (one error + one `FrameError` with
/// no opcode), admission sheds (`overloaded_total` == `ConnShed`
/// events), and a slow-loris eviction (`deadline_evicted_total` ==
/// `ConnDeadlineEvicted` events) — while accepted/closed connection
/// counts match the lifecycle events one for one.
#[test]
fn adversarial_load_reconciles_counters_with_trace_events() {
    let gen = synthetic(23.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig {
        max_conns: 2,
        read_deadline: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config, manager).expect("daemon binds");

    // A healthy connection that survives the whole storm.
    let mut client = Client::connect(handle.addr()).expect("client connects");
    client.query(0, b"abc").expect("healthy conn answers");

    // An undecodable frame: error frame back, then close.
    {
        let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&[0xFF; 16]).expect("garbage written");
        let mut junk = Vec::new();
        raw.read_to_end(&mut junk).expect("error frame then EOF");
        assert!(junk.len() >= 4, "an error frame came back");
    }
    // Give the close a moment to release its admission slot.
    std::thread::sleep(Duration::from_millis(100));

    // A loris takes the freed slot and stalls mid-frame.
    let mut loris = TcpStream::connect(handle.addr()).expect("loris connects");
    loris.write_all(b"DP").expect("partial frame sent");
    std::thread::sleep(Duration::from_millis(50));

    // Three probes shed at the (now full) admission bound.
    for i in 0..3 {
        let resp = read_shed_frame(handle.addr());
        assert!(matches!(resp, Response::Overloaded), "shed {i} got {resp:?}");
    }

    // Healthy traffic past the loris's deadline.
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(800) {
        client.query(0, b"abc").expect("healthy conn keeps answering");
        std::thread::sleep(Duration::from_millis(25));
    }
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut one = [0u8; 16];
    match loris.read(&mut one) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("loris read {n} unexpected bytes"),
    }

    let report = client.metrics().expect("metrics");
    let events = client.trace(1024).expect("trace drains");
    let count = |kind: TraceKind| events.iter().filter(|e| e.kind == kind).count() as u64;

    // Counter <-> trace reconciliation, category by category.
    assert_eq!(report.ops.errors, 1, "exactly the garbage frame");
    let undecoded =
        events.iter().filter(|e| e.kind == TraceKind::FrameError && e.detail == u64::MAX).count()
            as u64;
    assert_eq!(undecoded, 1, "undecodable frames trace with no opcode");
    assert_eq!(count(TraceKind::FrameError), report.ops.errors);

    assert_eq!(report.overloaded_total, 3);
    assert_eq!(count(TraceKind::ConnShed), report.overloaded_total);

    assert_eq!(report.deadline_evicted_total, 1);
    assert_eq!(count(TraceKind::ConnDeadlineEvicted), report.deadline_evicted_total);
    assert_eq!(report.idle_reaped_total, 0);
    assert_eq!(count(TraceKind::ConnIdleReaped), 0);

    // Lifecycle events match the connection counters one for one:
    // healthy + garbage + loris accepted (sheds never admit), and
    // everyone but the healthy conn has a ConnClosed.
    assert_eq!(report.conns_accepted, 3);
    assert_eq!(count(TraceKind::ConnAccepted), report.conns_accepted);
    assert_eq!(count(TraceKind::ConnClosed), report.conns_accepted - report.conns_open);
    handle.shutdown();
}

/// A wire rollback leaves an exact durable-store audit trail in the
/// trace: six `StoreOp` crash points per full persist, two
/// `PersistCommitted`, one `RollbackCommitted` whose `detail` names the
/// epoch rolled back to — and `rollbacks_total` reconciles with it.
#[test]
fn rollback_reconciles_counters_with_store_trace_events() {
    let gen_a = synthetic(10.0);
    let gen_b = synthetic(20.0);
    let dir = std::env::temp_dir().join(format!("dpsc-trace-rollback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let e1 = client.load_snapshot(0, &gen_a.to_bytes()).expect("A installs");
    let e2 = client.load_snapshot(0, &gen_b.to_bytes()).expect("B installs");
    let e3 = client.rollback(0, e1).expect("rollback to a retained epoch");
    assert!(e3 > e2, "rollback is append-only");

    let report = client.metrics().expect("metrics");
    let events = client.trace(1024).expect("trace drains");

    // Two full persists: each walks all six mutating store ops in
    // order. The rollback re-commits an existing payload, so it only
    // touches the manifest (ops 4 and 5).
    for op in 0u64..=3 {
        let n = events.iter().filter(|e| e.kind == TraceKind::StoreOp && e.detail == op).count();
        assert_eq!(n, 2, "payload op {op} runs once per full persist");
    }
    for op in 4u64..=5 {
        let n = events.iter().filter(|e| e.kind == TraceKind::StoreOp && e.detail == op).count();
        assert_eq!(n, 3, "manifest op {op} also runs for the rollback");
    }
    let persists: Vec<u64> =
        events.iter().filter(|e| e.kind == TraceKind::PersistCommitted).map(|e| e.epoch).collect();
    assert_eq!(persists, vec![e1, e2]);

    let rollbacks: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == TraceKind::RollbackCommitted).collect();
    assert_eq!(rollbacks.len() as u64, report.rollbacks_total);
    assert_eq!(report.rollbacks_total, 1);
    assert_eq!(rollbacks[0].shard, 0);
    assert_eq!(rollbacks[0].epoch, e3, "the fresh epoch");
    assert_eq!(rollbacks[0].detail, e1, "detail names the epoch rolled back to");

    // Every install (two loads + the rollback's re-install) traced.
    let installs: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == TraceKind::SnapshotInstalled).collect();
    assert_eq!(installs.len(), 3);
    assert!(
        installs.iter().any(|e| e.epoch == e3 && e.detail == e1),
        "rollback install names its source epoch"
    );
    assert_eq!(report.ops.rollback, 1);
    assert_eq!(report.ops.load_snapshot, 2);
    assert!(report.op_latency.rollback.p99_ns > 0.0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slow-op log end to end: with a 1 ns threshold every
/// successful op is slow, each `SlowOp` event carries the pattern
/// fingerprint and the threshold, errors never enter the log, and the
/// text exposition serves the same counter over the wire.
#[test]
fn slow_op_log_reconciles_and_exposes_over_the_wire() {
    use dp_substring_counting::private_count::codec::fnv1a;

    let gen = synthetic(29.0);
    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen.clone());
    let config = ServerConfig {
        slow_op_threshold: Some(Duration::from_nanos(1)),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    for _ in 0..3 {
        client.query(0, b"aba").expect("query answered");
    }
    let _ = client.query(77, b"zz").expect_err("unknown shard errors");

    let report = client.metrics().expect("metrics");
    assert_eq!(report.slow_op_threshold_ns, 1);
    assert_eq!(report.slow_ops_total, 3, "errors never enter the slow-op log");

    let events = client.trace(1024).expect("trace drains");
    let slow: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == TraceKind::SlowOp).collect();
    // The three queries, plus the Metrics op that landed after its
    // own report snapshot.
    assert_eq!(slow.len(), 4);
    assert!(
        slow.iter().take(3).all(|e| e.fingerprint == fnv1a(b"aba") && e.len == 3),
        "slow-op entries carry fingerprints and lengths only"
    );
    assert!(slow.iter().all(|e| e.detail == 1), "detail is the threshold");

    // The exposition reports the same counter (3 queries + Metrics +
    // Trace landed by the time MetricsText snapshots).
    let text = client.metrics_text().expect("exposition answered");
    assert!(text.contains("dpsc_slow_ops_total 5"), "{text}");
    assert!(text.contains("dpsc_slow_op_threshold_ns 1"), "{text}");
    assert!(text.contains("# TYPE dpsc_op_latency_ns summary"), "per-op summaries exposed");
    handle.shutdown();
}
