//! Heap work of serving, as exact counts: host load cannot move them, so
//! they gate what the serving timings used to, without their noise.
//!
//! Over the golden serving shards (`common/golden.rs`), with the counting
//! allocator (`common/counting_alloc.rs`) installed:
//! - `FrozenSynopsis::query` allocates nothing over each shard's universe;
//! - a borrowed `from_bytes_shared` install allocates nothing and holds
//!   no heap;
//! - a daemon spends a pinned number of heap allocations per 16-pattern
//!   `QueryBatch` frame, within 2%;
//! - turning tracing on (trace ring plus slow-op log) adds no allocations
//!   per frame, within one per 100 frames, with a traced and an untraced
//!   daemon serving the same frames in alternating blocks.
//!
//! This binary holds a single test, so no other test allocates while it
//! measures. The client side of the frame loop writes pre-encoded
//! requests and reads into a reused buffer, so every allocation counted
//! there is the daemon's.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/golden.rs"]
mod golden;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dp_substring_counting::prelude::*;
use dp_substring_counting::serve::wire::{encode_request, encode_response};
use dp_substring_counting::serve::{Request, Response, ServerHandle};
use golden::Shard;

/// Patterns per `QueryBatch` frame.
const FRAME_PATTERNS: usize = 16;
/// Frames in each measured window.
const FRAMES: usize = 2000;
/// Frames per turn when the two daemons alternate.
const BLOCK: usize = 100;
/// Pause before each frame; see [`allocs_serving`].
const IDLE_PAUSE: Duration = Duration::from_micros(500);
/// Heap allocations the daemon makes per frame, tracing off: 25.77
/// measured. Decoding the request's 16 patterns is 17 of them and the
/// wakeup's event batch one; the first pass over each universe adds the
/// query cache's key copies.
const ALLOCS_PER_FRAME: f64 = 25.77;

/// The frame stream: frame `k` asks shard `k % 4` for the next
/// [`FRAME_PATTERNS`] patterns of its universe, cycling. Returns each
/// encoded request with its expected encoded response.
fn frames(shards: &[Shard], count: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut next = vec![0usize; shards.len()];
    (0..count)
        .map(|k| {
            let shard = &shards[k % shards.len()];
            let at = &mut next[k % shards.len()];
            let patterns: Vec<Vec<u8>> = (0..FRAME_PATTERNS)
                .map(|j| shard.universe[(*at + j) % shard.universe.len()].clone())
                .collect();
            *at += FRAME_PATTERNS;
            let values = patterns.iter().map(|p| shard.frozen.query_naive(p)).collect();
            (
                encode_request(&Request::QueryBatch { shard: shard.id, patterns }),
                encode_response(&Response::QueryBatch { values }),
            )
        })
        .collect()
}

/// A daemon serving `shards` under `config`, with one client connection.
fn spawn_daemon(shards: &[Shard], config: ServerConfig) -> (ServerHandle, TcpStream) {
    let manager = Arc::new(ShardManager::new());
    for s in shards {
        manager.install(s.id, s.frozen.clone());
    }
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let stream = TcpStream::connect(handle.addr()).expect("client connects");
    stream.set_nodelay(true).expect("nodelay");
    (handle, stream)
}

/// Serves `frames` one round trip at a time over `stream`, checking every
/// response byte for byte against its `query_naive` encoding, and returns
/// the allocations made while it ran. Nothing in the loop allocates on
/// the client side: `buf` holds the longest response.
///
/// The event loop allocates one event batch per wakeup, and a frame that
/// arrives while the loop is still draining its socket needs no wakeup.
/// So each frame is sent only after [`IDLE_PAUSE`], by which time the
/// daemon waits in `epoll_wait` again, so every frame costs one wakeup.
/// A frame that still beat the loop would lower the count by one.
fn allocs_serving(stream: &mut TcpStream, frames: &[(Vec<u8>, Vec<u8>)], buf: &mut [u8]) -> usize {
    let before = counting_alloc::allocs();
    for (req, want) in frames {
        std::thread::sleep(IDLE_PAUSE);
        stream.write_all(req).expect("frame written");
        let got = &mut buf[..want.len()];
        stream.read_exact(got).expect("response read");
        assert!(got[..] == want[..], "response differs from query_naive's");
    }
    counting_alloc::allocs() - before
}

#[test]
fn serving_heap_work_matches_its_pinned_counts() {
    let shards: Vec<Shard> = (0..golden::SHARDS.len() as u32).map(golden::build_shard).collect();

    for shard in &shards {
        let name = shard.scenario.name;
        let patterns = shard.patterns();
        let (allocs, live) = (counting_alloc::allocs(), counting_alloc::live());
        let mut acc = 0u64;
        for p in &patterns {
            acc ^= std::hint::black_box(shard.frozen.query(p)).to_bits();
        }
        std::hint::black_box(acc);
        assert_eq!(counting_alloc::allocs(), allocs, "{name}: query allocated");
        assert_eq!(counting_alloc::live(), live, "{name}: query holds heap");
    }

    for shard in &shards {
        let name = shard.scenario.name;
        let buf: Arc<[u8]> = shard.frozen.to_bytes().into();
        let (allocs, live) = (counting_alloc::allocs(), counting_alloc::live());
        let installed = FrozenSynopsis::from_bytes_shared(Arc::clone(&buf)).expect("decodes");
        let got = (counting_alloc::allocs() - allocs, counting_alloc::live() - live);
        println!("{name}: install {got:?}");
        assert_eq!(got, (0, 0), "{name}: (allocations, bytes) of a borrowed install");
        assert!(Arc::ptr_eq(installed.shared_bytes(), &buf), "{name}: install copied");
    }

    let warmup = 4 * shards.len();
    let all_frames = frames(&shards, warmup + FRAMES);
    let off =
        ServerConfig { trace_capacity: 0, slow_op_threshold: None, ..ServerConfig::default() };
    let on = ServerConfig {
        trace_capacity: 1024,
        slow_op_threshold: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    // Both daemons serve the same frames, in alternating blocks, so host
    // load that makes the loop miss its idle wait falls on both alike.
    // The idle daemon blocks in `epoll_wait` with no timeout and
    // allocates nothing meanwhile.
    let (handle_off, mut off_stream) = spawn_daemon(&shards, off);
    let (handle_on, mut on_stream) = spawn_daemon(&shards, on);
    let mut buf = vec![0u8; all_frames.iter().map(|(_, resp)| resp.len()).max().unwrap_or(0)];
    let (warm, measured) = all_frames.split_at(warmup);
    allocs_serving(&mut off_stream, warm, &mut buf);
    allocs_serving(&mut on_stream, warm, &mut buf);
    let (mut allocs_off, mut allocs_on) = (0, 0);
    for block in measured.chunks(BLOCK) {
        allocs_off += allocs_serving(&mut off_stream, block, &mut buf);
        allocs_on += allocs_serving(&mut on_stream, block, &mut buf);
    }
    drop((off_stream, on_stream));
    handle_off.shutdown();
    handle_on.shutdown();
    let per_frame = allocs_off as f64 / FRAMES as f64;
    println!(
        "allocations per frame: {per_frame:.3} tracing off, {:.3} on",
        allocs_on as f64 / FRAMES as f64
    );
    assert!(
        (per_frame - ALLOCS_PER_FRAME).abs() <= 0.02 * ALLOCS_PER_FRAME,
        "{per_frame:.3} allocations per frame, pinned at {ALLOCS_PER_FRAME}"
    );
    assert!(
        allocs_on.abs_diff(allocs_off) <= FRAMES / 100,
        "tracing changes allocations: {allocs_on} on vs {allocs_off} off over {FRAMES} frames"
    );
}
