//! Timing, concurrency, overload and shutdown contracts of the serving
//! daemon: hot swaps under concurrent readers, thousands of connections,
//! backpressure, shedding, slow-loris eviction, idle reaping, a stuck
//! persist, and prompt shutdown. The single-client lifecycle is checked by
//! the seeded simulation in `serve_sim.rs`.

#[path = "common/serve.rs"]
mod serve_common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dp_substring_counting::prelude::*;
use dp_substring_counting::serve::wire::decode_response;
use dp_substring_counting::serve::{RealIo, Request, Response};
use serve_common::{probe_set, scratch_dir, synthetic, SharedIo};

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

    let probe = probe_set();
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
    let expect_a: Vec<u64> = gen_a.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    let expect_b: Vec<u64> = gen_b.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    assert_ne!(expect_a, expect_b);

    let manager = Arc::new(ShardManager::new());
    manager.install(0, gen_a.clone());
    let handle =
        Server::spawn(ServerConfig::default(), Arc::clone(&manager)).expect("daemon binds");
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

/// Shuts `handle` down from another thread; whether the join finished
/// within 10 s.
fn joins_within_10s(handle: ServerHandle) -> bool {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(10)).is_ok()
}

/// Regression: a daemon bound to the wildcard address must still shut
/// down promptly after serving traffic. `shutdown` wakes the event loop
/// through its self-pipe, so the bound address plays no part in the
/// wake.
#[test]
fn shutdown_wakes_a_wildcard_bound_acceptor() {
    let frozen = synthetic(36.0);
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
    assert!(joins_within_10s(handle), "wildcard-bound daemon failed to shut down within 10s");
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
            assert!(joins_within_10s(handle), "{addr} daemon {i} failed to shut down within 10s");
        }
    }
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
    assert!(joins_within_10s(handle), "daemon joins promptly after a wire shutdown");

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
    let probe = probe_set();
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
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

    assert!(joins_within_10s(handle), "shutdown joins promptly with {conns} connections open");
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
    s.read_to_end(&mut buf).unwrap_or_else(|e| panic!("shed connection read failed: {e}"));
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
    let probe = probe_set();
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
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

/// A `LoadSnapshot` stuck deep inside persist must not stall other
/// connections' queries: the install runs on the installer thread, off
/// the event loop. Queries from a second connection answer within a
/// strict timeout for the whole time the install is held, and the
/// install completes once released.
#[test]
fn queries_stay_responsive_while_an_install_is_stuck_in_persist() {
    let old_gen = synthetic(5.0);
    let new_gen = synthetic(99.0);
    let new_bytes = new_gen.to_bytes();
    let dir = scratch_dir("gated-install");
    // Payload writes block on this gate: (blocked, entered).
    static GATE: (Mutex<(bool, bool)>, Condvar) = (Mutex::new((true, false)), Condvar::new());
    fn hold_writes() {
        let (lock, cv) = &GATE;
        let mut st = lock.lock().unwrap();
        st.1 = true;
        cv.notify_all();
        while st.0 {
            st = cv.wait(st).unwrap();
        }
    }
    let io = SharedIo { inner: Arc::new(RealIo), before_write: Some(hold_writes) };
    let store = SnapshotStore::open_with(&dir, 4, Box::new(io))
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
        let (lock, cv) = &GATE;
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
        let (lock, cv) = &GATE;
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
