//! Golden release digests and work counts: a change in what a build
//! releases, or in how much work it does, fails here exactly, whatever the
//! host's load.
//!
//! For each build scenario, a traced build pins the corpus size, the
//! digest of the released snapshot, and the item counts of the four build
//! spans. For each mode scenario (Substring and `Clipped(3)` builds, a
//! Gaussian build and the two q-gram theorems) it pins the released
//! snapshot's digest and node count. For each serving shard it pins the
//! snapshot and universe digests and the snapshot's size, checks the
//! snapshot round-trips canonically, and serves the shard's whole universe through a daemon,
//! bit-identical to `query_naive`. Every pinned figure comes from the
//! committed perf baselines these tests replace.

#[path = "common/golden.rs"]
mod golden;

use std::sync::Arc;

use dp_substring_counting::dpcore::stream::derive_stream;
use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::private_count::{build_pure_traced, SpanRecorder};
use golden::{Shard, BUILDS, BUILD_SEED, MODES, MODE_SEED, SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one build scenario releases and the work it takes.
struct BuildGolden {
    corpus_bytes: usize,
    /// Items of the `candidates` span: Step 1's candidate strings.
    candidates: u64,
    /// Items of the `count_trie` and `noise` spans: exact-count trie nodes.
    trie_nodes: u64,
    /// Items of the `prune` span: nodes kept.
    kept_nodes: u64,
    /// [`release_digest`] of the released snapshot.
    digest: u64,
}

/// The build scenarios' snapshot digest: FNV-1a over
/// `FrozenSynopsis::to_bytes`, but with multiplier `0x1000_0000_01B3`
/// rather than the FNV prime `0x100_0000_01B3` of `codec::fnv1a`. The
/// build digests were first recorded with this function, so it stays.
fn release_digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3))
}

/// By [`BUILDS`] index.
#[rustfmt::skip]
const BUILD_GOLDEN: [BuildGolden; 5] = [
    BuildGolden { corpus_bytes: 65_536, candidates: 701, trie_nodes: 1575, kept_nodes: 1575, digest: 0x91c1_4f14_45da_b4d5 },
    BuildGolden { corpus_bytes: 131_072, candidates: 993, trie_nodes: 2015, kept_nodes: 2015, digest: 0x7998_6996_2c35_fb83 },
    BuildGolden { corpus_bytes: 262_144, candidates: 768, trie_nodes: 1296, kept_nodes: 1296, digest: 0x1a80_0d52_a7c2_f2e6 },
    BuildGolden { corpus_bytes: 1_030_528, candidates: 338, trie_nodes: 484, kept_nodes: 484, digest: 0x0a9a_f87e_da1e_20dc },
    BuildGolden { corpus_bytes: 1_080_000, candidates: 240, trie_nodes: 293, kept_nodes: 293, digest: 0x3bb1_6d37_bc2b_8bf8 },
];

/// What one mode scenario releases.
struct ModeGolden {
    corpus_bytes: usize,
    node_count: usize,
    /// [`release_digest`] of the released snapshot.
    digest: u64,
}

/// By [`MODES`] index.
#[rustfmt::skip]
const MODE_GOLDEN: [ModeGolden; 5] = [
    ModeGolden { corpus_bytes: 65_536, node_count: 938, digest: 0xae1a_6204_e994_2ff4 },
    ModeGolden { corpus_bytes: 65_536, node_count: 2955, digest: 0x34b7_64b4_18db_080b },
    ModeGolden { corpus_bytes: 1_080_000, node_count: 357, digest: 0xbf9f_62c6_02a9_9530 },
    ModeGolden { corpus_bytes: 65_536, node_count: 272, digest: 0x6734_af0f_6675_0b28 },
    ModeGolden { corpus_bytes: 131_072, node_count: 199, digest: 0xdb01_09b4_1d73_53e7 },
];

/// What one serving shard releases.
struct ShardGolden {
    corpus_bytes: usize,
    node_count: usize,
    /// Snapshot size.
    serialized_len: usize,
    snapshot_digest: u64,
    universe_digest: u64,
}

/// By shard id ([`SHARDS`]).
#[rustfmt::skip]
const SHARD_GOLDEN: [ShardGolden; 4] = [
    ShardGolden { corpus_bytes: 65_536, node_count: 5857, serialized_len: 76_320, snapshot_digest: 0xb214_9770_34a7_898f, universe_digest: 0x39ee_c4f1_e1cd_4ab3 },
    ShardGolden { corpus_bytes: 131_072, node_count: 2264, serialized_len: 29_616, snapshot_digest: 0xdc89_7817_6ee6_abb4, universe_digest: 0x1444_fadd_f748_50b6 },
    ShardGolden { corpus_bytes: 1_030_528, node_count: 466, serialized_len: 6240, snapshot_digest: 0xa34e_9f80_3775_6a3a, universe_digest: 0x1ca8_ac1f_6f5e_4075 },
    ShardGolden { corpus_bytes: 1_080_000, node_count: 349, serialized_len: 4720, snapshot_digest: 0xcd6a_f943_a299_6923, universe_digest: 0x44a5_3b27_7aff_30c2 },
];

#[test]
fn build_scenarios_release_their_pinned_digests_and_span_counts() {
    for (i, (sc, want)) in BUILDS.iter().zip(&BUILD_GOLDEN).enumerate() {
        let tag = i as u64 + 1;
        let db = sc.corpus(&mut StdRng::seed_from_u64(derive_stream(BUILD_SEED, tag)));
        assert_eq!(db.total_len(), want.corpus_bytes, "{}: corpus size", sc.name);
        let idx = CorpusIndex::build(&db);

        let rec = SpanRecorder::new();
        let mut rng = StdRng::seed_from_u64(derive_stream(BUILD_SEED, tag << 8));
        let built = build_pure_traced(&idx, &sc.params(), &mut rng, &rec)
            .expect("golden regimes avoid the FAIL branch");
        let digest = release_digest(&built.freeze().to_bytes());
        assert_eq!(digest, want.digest, "{}: digest {digest:016x}", sc.name);

        let items: Vec<(&str, u64)> = rec.spans().iter().map(|s| (s.name, s.items)).collect();
        assert_eq!(
            items,
            [
                ("candidates", want.candidates),
                ("count_trie", want.trie_nodes),
                ("noise", want.trie_nodes),
                ("prune", want.kept_nodes),
            ],
            "{}: span item counts",
            sc.name
        );
    }
}

#[test]
fn mode_scenarios_release_their_pinned_digests() {
    for (i, (sc, want)) in MODES.iter().zip(&MODE_GOLDEN).enumerate() {
        let tag = i as u64 + 1;
        let db = sc.corpus.corpus(&mut StdRng::seed_from_u64(derive_stream(MODE_SEED, tag)));
        assert_eq!(db.total_len(), want.corpus_bytes, "{}: corpus size", sc.name);
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(derive_stream(MODE_SEED, tag << 8));
        let frozen = sc.release(&idx, &mut rng).freeze();
        let digest = release_digest(&frozen.to_bytes());
        assert_eq!(frozen.node_count(), want.node_count, "{}: nodes", sc.name);
        assert_eq!(digest, want.digest, "{}: digest {digest:016x}", sc.name);
    }
}

#[test]
fn serve_shards_release_their_pinned_digests_and_serve_bit_identically() {
    let shards: Vec<Shard> = (0..SHARDS.len() as u32).map(golden::build_shard).collect();
    let snapshots: Vec<Vec<u8>> = shards.iter().map(|s| s.frozen.to_bytes()).collect();
    for ((shard, bytes), want) in shards.iter().zip(&snapshots).zip(&SHARD_GOLDEN) {
        let name = shard.scenario.name;
        assert_eq!(shard.corpus_bytes, want.corpus_bytes, "{name}: corpus size");
        assert_eq!(shard.frozen.node_count(), want.node_count, "{name}: node count");
        assert_eq!(bytes.len(), want.serialized_len, "{name}: snapshot size");
        assert_eq!(fnv1a(bytes), want.snapshot_digest, "{name}: snapshot digest");
        assert_eq!(shard.universe_digest(), want.universe_digest, "{name}: universe digest");
        let back = FrozenSynopsis::from_bytes(bytes).expect("snapshot decodes");
        assert_eq!(back, shard.frozen, "{name}: decode drifted");
        assert_eq!(back.to_bytes(), *bytes, "{name}: encoding is not canonical");
    }

    // Ship the snapshots over the wire: the daemon serves each shard from
    // the received buffer, so the answers below also check zero-copy
    // serving.
    let manager = Arc::new(ShardManager::new());
    let handle =
        Server::spawn(ServerConfig::default(), Arc::clone(&manager)).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut patterns_sent = 0u64;
    for (shard, bytes) in shards.iter().zip(&snapshots) {
        let name = shard.scenario.name;
        client.load_snapshot(shard.id, bytes).expect("snapshot installs");
        let resident = manager.snapshot(shard.id).expect("shard resident");
        assert_eq!(resident.synopsis.shared_bytes()[..], bytes[..], "{name}: resident bytes");

        let patterns = shard.patterns();
        let served = client.query_batch(shard.id, &patterns).expect("universe answered");
        assert_eq!(served.len(), patterns.len());
        for (p, v) in patterns.iter().zip(&served) {
            assert_eq!(
                v.to_bits(),
                shard.frozen.query_naive(p).to_bits(),
                "{name}: served answer for {p:?} differs from query_naive"
            );
        }
        patterns_sent += patterns.len() as u64;
    }
    let report = client.metrics().expect("metrics answered");
    assert_eq!(report.patterns_total, patterns_sent, "daemon lost or invented lookups");
    assert_eq!(report.ops.errors, 0);
    // Observability is on by default: the load shows in the per-op
    // histogram and the trace ring.
    assert!(report.op_latency.query_batch.p99_ns > 0.0, "QueryBatch histogram is live");
    assert!(report.trace_events_total > 0, "trace ring recorded the load");
    drop(client);
    handle.shutdown();
}
