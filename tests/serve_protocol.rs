//! Robustness of the serving wire protocol on *real* payloads: exact
//! canonical round-trips for every request/response kind, and `Err`
//! (never a panic) on a corpus of mutated frames — truncations,
//! magic/version damage, strided bit flips, spliced garbage, and
//! unstructured noise — mirroring `tests/synopsis_serialization.rs` for
//! the snapshot codec.

use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::serve::wire::{
    decode_request, decode_response, encode_load_snapshot, encode_request, encode_response,
    frame_len,
};
use dp_substring_counting::serve::{
    CacheStats, MetricsReport, MetricsShard, OpCounts, OpLatencies, OpLatency, Request, Response,
    ServerStats, ShardStats, NO_SHARD,
};
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A genuinely constructed (Theorem 1) snapshot to carry in
/// `LoadSnapshot`, plus patterns from its corpus.
fn built_payload() -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(23);
    let db = markov_corpus(60, 16, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.5, 1.5);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    let bytes = s.freeze().to_bytes();
    let patterns = db.documents().iter().map(|d| d[..d.len().min(6)].to_vec()).collect();
    (bytes, patterns)
}

fn real_requests() -> Vec<Request> {
    let (snapshot, patterns) = built_payload();
    vec![
        Request::Query { shard: 0, pattern: patterns[0].clone() },
        Request::QueryBatch { shard: 1, patterns: patterns.clone() },
        Request::Contains { shard: 2, pattern: patterns[1].clone() },
        Request::Stats,
        Request::LoadSnapshot { shard: 3, snapshot: snapshot.into() },
        Request::Rollback { shard: 3, epoch: 0xDEAD_BEEF_u64 },
        Request::Metrics,
        Request::Trace { max: 512 },
        Request::MetricsText,
        Request::Shutdown,
    ]
}

fn real_responses() -> Vec<Response> {
    vec![
        Response::Query { value: 17.25 },
        Response::QueryBatch { values: (0..64).map(|i| i as f64 * 0.5 - 3.0).collect() },
        Response::Contains { present: true },
        Response::Stats(ServerStats {
            cache: CacheStats { hits: 1, misses: 2, entries: 3, capacity: 4096 },
            shards: vec![
                ShardStats {
                    shard_id: 0,
                    epoch: 1,
                    node_count: 100,
                    serialized_len: 2048,
                    n_docs: 60,
                    max_len: 16,
                    epsilon: 1e4,
                    delta: 0.0,
                    alpha: 2.5,
                    alpha_counts: 2.5,
                    alpha_absent: 1.5,
                },
                ShardStats {
                    shard_id: 9,
                    epoch: 7,
                    node_count: 1,
                    serialized_len: 85,
                    n_docs: 1,
                    max_len: 1,
                    epsilon: 0.5,
                    delta: 1e-9,
                    alpha: 0.0,
                    alpha_counts: 0.0,
                    alpha_absent: 0.0,
                },
            ],
        }),
        Response::LoadSnapshot { epoch: 8, node_count: 12345 },
        Response::Rollback { epoch: 9 },
        Response::Metrics(Box::new(MetricsReport {
            uptime_ns: 98_765_432,
            conns_accepted: 33,
            conns_open: 4,
            ops: OpCounts {
                query: 7,
                query_batch: 5,
                contains: 1,
                stats: 1,
                load_snapshot: 2,
                rollback: 1,
                metrics: 1,
                shutdown: 0,
                trace: 3,
                metrics_text: 1,
                errors: 2,
            },
            patterns_total: 199,
            overloaded_total: 1,
            idle_reaped_total: 0,
            deadline_evicted_total: 1,
            recoveries_total: 1,
            rollbacks_total: 1,
            qps: 1234.5,
            qps_window: 987.25,
            latency_p50_ns: 768.0,
            latency_p99_ns: 6144.0,
            op_latency: OpLatencies {
                query: OpLatency { p50_ns: 384.0, p99_ns: 768.0 },
                query_batch: OpLatency { p50_ns: 3072.0, p99_ns: 12288.0 },
                contains: OpLatency { p50_ns: 192.0, p99_ns: 384.0 },
                stats: OpLatency::default(),
                load_snapshot: OpLatency { p50_ns: 393_216.0, p99_ns: 786_432.0 },
                rollback: OpLatency { p50_ns: 98_304.0, p99_ns: 98_304.0 },
                metrics: OpLatency { p50_ns: 1536.0, p99_ns: 1536.0 },
                shutdown: OpLatency::default(),
                trace: OpLatency { p50_ns: 1536.0, p99_ns: 3072.0 },
                metrics_text: OpLatency { p50_ns: 3072.0, p99_ns: 3072.0 },
            },
            loop_wait_ns: 60_000_000,
            loop_busy_ns: 38_765_432,
            loop_utilization: 38_765_432.0 / 98_765_432.0,
            accept_to_first_p50_ns: 49_152.0,
            accept_to_first_p99_ns: 196_608.0,
            parks_total: 2,
            unparks_total: 2,
            slow_ops_total: 3,
            slow_op_threshold_ns: 500_000,
            trace_events_total: 87,
            trace_overwritten_total: 0,
            cache: CacheStats { hits: 120, misses: 79, entries: 79, capacity: 8192 },
            cache_hit_rate: 120.0 / 199.0,
            shards: vec![MetricsShard {
                shard_id: 3,
                epoch: 11,
                serialized_len: 4096,
                ops: 13,
                latency_p50_ns: 768.0,
                latency_p99_ns: 3072.0,
            }],
        })),
        Response::Trace {
            events: vec![
                TraceEvent {
                    seq: 0,
                    ts_ns: 1_000,
                    kind: TraceKind::ConnAccepted,
                    conn: 1,
                    shard: NO_SHARD,
                    epoch: 0,
                    fingerprint: 0,
                    len: 0,
                    dur_ns: 0,
                    detail: 0,
                },
                TraceEvent {
                    seq: 1,
                    ts_ns: 2_500,
                    kind: TraceKind::FrameAnswered,
                    conn: 1,
                    shard: 3,
                    epoch: 11,
                    fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                    len: 6,
                    dur_ns: 840,
                    detail: 0,
                },
                TraceEvent {
                    seq: 2,
                    ts_ns: 9_000,
                    kind: TraceKind::SlowOp,
                    conn: 1,
                    shard: 3,
                    epoch: 11,
                    fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                    len: 6,
                    dur_ns: 700_123,
                    detail: 500_000,
                },
            ],
        },
        Response::MetricsText { text: "dpsc_patterns_total 199\ndpsc_slow_ops_total 3\n".into() },
        Response::Overloaded,
        Response::Shutdown,
        Response::Error { message: "snapshot rejected: checksum mismatch".to_string() },
    ]
}

#[test]
fn real_frames_round_trip_canonically() {
    for req in real_requests() {
        let framed = encode_request(&req);
        let total = frame_len(&framed).unwrap().expect("complete");
        assert_eq!(total, framed.len(), "frame length covers the whole encoding");
        let back = decode_request(&framed[4..]).expect("request decodes");
        assert_eq!(back, req);
        assert_eq!(encode_request(&back), framed, "canonical re-encode");
        if let Request::LoadSnapshot { shard, snapshot } = &req {
            assert_eq!(encode_load_snapshot(*shard, snapshot), framed, "borrowed encode");
        }
    }
    for resp in real_responses() {
        let framed = encode_response(&resp);
        let back = decode_response(&framed[4..]).expect("response decodes");
        assert_eq!(back, resp);
        assert_eq!(encode_response(&back), framed, "canonical re-encode");
    }
}

#[test]
fn truncations_error_and_never_panic() {
    for req in real_requests() {
        let framed = encode_request(&req);
        let body = &framed[4..];
        // Stride keeps the big LoadSnapshot sweep fast; the first 64
        // offsets (envelope territory) are covered exhaustively.
        for len in (0..body.len()).filter(|&l| l < 64 || l % 37 == 0) {
            assert!(decode_request(&body[..len]).is_err(), "prefix {len} parsed");
        }
    }
}

#[test]
fn magic_version_and_direction_damage_error() {
    let framed = encode_request(&Request::Stats);
    let body = &framed[4..];
    let mut wrong_magic = body.to_vec();
    wrong_magic[0] = b'X';
    assert!(decode_request(&wrong_magic).unwrap_err().to_string().contains("magic"));
    let mut wrong_version = body.to_vec();
    wrong_version[4] = 99;
    assert!(decode_request(&wrong_version).unwrap_err().to_string().contains("version"));
    // A response body is not a request (and vice versa).
    let resp = encode_response(&Response::Shutdown);
    assert!(decode_request(&resp[4..]).unwrap_err().to_string().contains("magic"));
    assert!(decode_response(body).unwrap_err().to_string().contains("magic"));
}

#[test]
fn v1_frames_are_refused() {
    // A v1 frame as a v1 peer sealed it: version 1, and the checksum over
    // the whole body (v1 had no narrower LoadSnapshot rule).
    let as_v1 = |framed: &[u8]| {
        let mut body = framed[4..].to_vec();
        body[4..6].copy_from_slice(&1u16.to_le_bytes());
        let end = body.len() - 8;
        let sum = fnv1a(&body[..end]);
        body[end..].copy_from_slice(&sum.to_le_bytes());
        body
    };
    let (snapshot, _) = built_payload();
    let want = |got| matches!(got, Err(DecodeError::UnsupportedVersion { found: 1, expected: 2 }));
    for req in [Request::LoadSnapshot { shard: 1, snapshot: snapshot.into() }, Request::Stats] {
        assert!(want(decode_request(&as_v1(&encode_request(&req))).map(drop)), "{req:?}");
    }
    for resp in [Response::LoadSnapshot { epoch: 2, node_count: 9 }, Response::Overloaded] {
        assert!(want(decode_response(&as_v1(&encode_response(&resp))).map(drop)), "{resp:?}");
    }
}

/// Body bytes before a `LoadSnapshot`'s snapshot: magic, version,
/// opcode, shard and the `u64` snapshot length.
const LOAD_ENVELOPE: usize = 4 + 2 + 1 + 4 + 8;
/// The `DPSF` header: fixed fields, the section table, its checksum.
const DPSF_HEADER: usize = 168;
const SECTION_NAMES: [&str; 3] = ["counts", "edge_start", "edge_label"];

/// The `(offset, len)` of each section, read from a snapshot's table.
fn section_table(snapshot: &[u8]) -> [(usize, usize); 3] {
    let word = |at: usize| u64::from_le_bytes(snapshot[at..at + 8].try_into().unwrap()) as usize;
    [0, 1, 2].map(|i| (word(88 + 24 * i), word(88 + 24 * i + 8)))
}

#[test]
fn strided_bit_flips_are_rejected() {
    // Query: the checksum covers the whole body, so any single-bit flip
    // anywhere must fail.
    let small = encode_request(&Request::Query { shard: 3, pattern: b"acgt".to_vec() });
    for pos in 4..small.len() {
        for bit in 0..8 {
            let mut corrupt = small[4..].to_vec();
            corrupt[pos - 4] ^= 1 << bit;
            assert!(decode_request(&corrupt).is_err(), "byte {pos} bit {bit} slipped through");
        }
    }

    // LoadSnapshot: no flipped byte installs, and each defect has one
    // error. The frame checksum covers the envelope and the DPSF header
    // (frame bytes 4..191) and the snapshot decode covers the rest.
    let (snapshot, _) = built_payload();
    let big = encode_request(&Request::LoadSnapshot { shard: 0, snapshot: snapshot.into() });
    let body = &big[4..];
    let flipped = |pos: usize, mask: u8| {
        let mut corrupt = body.to_vec();
        corrupt[pos] ^= mask;
        decode_request(&corrupt)
    };
    // Envelope, DPSF header and the trailing checksum, exhaustively: a
    // frame error. Magic and version are read before the checksum.
    let summed = LOAD_ENVELOPE + DPSF_HEADER;
    for pos in (0..summed).chain(body.len() - 8..body.len()) {
        for bit in 0..8 {
            match (pos, flipped(pos, 1 << bit)) {
                (0..=3, Err(DecodeError::BadMagic { .. })) => {}
                (4..=5, Err(DecodeError::UnsupportedVersion { .. })) => {}
                (6.., Err(DecodeError::ChecksumMismatch { .. })) => {}
                (_, got) => panic!("frame byte {} bit {bit}: {got:?}", pos + 4),
            }
        }
    }
    // Past the header the frame decodes and carries the flip; the
    // snapshot decode refuses it. Sections strided (their first and last
    // bytes included), everything outside them exhaustively.
    let table = section_table(&body[LOAD_ENVELOPE..]);
    let snap_len = body.len() - 8 - LOAD_ENVELOPE;
    let in_section =
        |at: usize| table.iter().position(|&(off, len)| (off..off + len).contains(&at));
    let mut probes: Vec<usize> =
        (DPSF_HEADER..snap_len).filter(|&at| at % 61 == 0 || in_section(at).is_none()).collect();
    probes.extend(table.iter().flat_map(|&(off, len)| [off, off + len - 1]));
    let (mut sections_hit, mut padding_hit) = ([false; 3], false);
    for at in probes {
        let Ok(Request::LoadSnapshot { snapshot: carried, .. }) = flipped(LOAD_ENVELOPE + at, 0x10)
        else {
            panic!("snapshot byte {at}: past the header the frame check passes");
        };
        match (in_section(at), FrozenSynopsis::from_bytes(&carried)) {
            (Some(i), Err(DecodeError::SectionChecksumMismatch { section, .. }))
                if section == SECTION_NAMES[i] =>
            {
                sections_hit[i] = true
            }
            (None, Err(DecodeError::Structural(what))) if what.contains("padding") => {
                padding_hit = true
            }
            (_, got) => panic!("snapshot byte {at} (section {:?}): {got:?}", in_section(at)),
        }
    }
    assert_eq!((sections_hit, padding_hit), ([true; 3], true), "every region swept");
}

#[test]
fn random_mutations_never_panic_and_ok_is_canonical() {
    let mut rng = StdRng::seed_from_u64(4242);
    let frames: Vec<Vec<u8>> = real_requests().iter().map(encode_request).collect();
    for _ in 0..400 {
        let base = &frames[rng.gen_range(0..frames.len())];
        let mut m = base[4..].to_vec();
        match rng.gen_range(0..4u8) {
            0 => {
                // Splice random garbage at a random offset.
                let at = rng.gen_range(0..=m.len());
                let n = rng.gen_range(1..16usize);
                let garbage: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u8)).collect();
                m.splice(at..at, garbage);
            }
            1 => {
                // Delete a random slice.
                if !m.is_empty() {
                    let at = rng.gen_range(0..m.len());
                    let n = rng.gen_range(1..=(m.len() - at).min(16));
                    m.drain(at..at + n);
                }
            }
            2 => {
                // Overwrite a random byte.
                if !m.is_empty() {
                    let at = rng.gen_range(0..m.len());
                    m[at] = rng.gen_range(0..=255u8);
                }
            }
            _ => {
                // Unstructured noise of random length.
                let n = rng.gen_range(0..256usize);
                m = (0..n).map(|_| rng.gen_range(0..=255u8)).collect();
            }
        }
        // Must not panic; if it parses, it must re-encode canonically.
        if let Ok(req) = decode_request(&m) {
            let mut reframed = encode_request(&req);
            assert_eq!(reframed.split_off(4), m, "accepted mutation is non-canonical");
        }
    }
}

#[test]
fn shared_decode_error_type_spans_both_codecs() {
    // The satellite contract: one typed error for snapshot + wire decode,
    // with Display carrying the old stringly messages.
    let snapshot_err: DecodeError = FrozenSynopsis::from_bytes(b"nope").unwrap_err();
    let wire_err: DecodeError = decode_request(b"nope").unwrap_err();
    for e in [snapshot_err, wire_err] {
        // The `.map_err(|e| e.to_string())` pattern legacy callers keep.
        let legacy: Result<(), String> = Err(e).map_err(|e| e.to_string());
        assert!(!legacy.unwrap_err().is_empty());
    }
}
