//! Corpora, private builds and the released snapshots every workload
//! serves. A shard is built exactly as a data curator would release it:
//! `CorpusIndex::build`, `build_pure`, `freeze`, `to_bytes_v2`. The
//! answer oracle is decoded back from the released bytes, so every check
//! runs against the same snapshot the daemon serves.

use std::collections::HashSet;
use std::time::Instant;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::stream::derive_stream;
use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::{build_pure_traced, BuildParams, CountMode, FrozenSynopsis, SpanRecorder};
use dpsc_strkit::alphabet::Database;
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::{dna_corpus, log_corpus, markov_corpus, text_corpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Spans;

/// Which generator makes a shard's corpus.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// σ = 4 reads with planted motifs.
    Dna,
    /// σ = 27 Zipf vocabulary text, 6-byte tokens.
    Text,
    /// σ = 76 access-log lines with a 13-byte planted route.
    Log,
    /// Order-1 Markov text over σ letters with a favored successor.
    Markov(u16),
}

/// One shard: its corpus shape and its release parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    pub name: &'static str,
    pub shard_id: u32,
    pub kind: Kind,
    /// Documents.
    pub n: usize,
    /// Document length ℓ.
    pub ell: usize,
    pub epsilon: f64,
    /// Candidate threshold (the prune threshold is left open).
    pub tau: f64,
}

/// FNV-1a offset basis, the start of every incremental digest.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a fold step over a 64-bit word.
pub fn fnv_fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

impl ShardSpec {
    /// The shard's corpus; `seed` is the workload seed.
    pub fn corpus(&self, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(derive_stream(seed, 0xC0 + self.shard_id as u64));
        let db = match self.kind {
            Kind::Dna => {
                dna_corpus(self.n, self.ell, 8, &[0.9, 0.8, 0.7, 0.6, 0.5, 0.4], &mut rng).db
            }
            Kind::Text => text_corpus(self.n, (self.ell + 1) / 7, 6, 512, 1.0, &mut rng).db,
            Kind::Log => log_corpus(self.n, self.ell, 13, 64, 1.0, &mut rng).db,
            Kind::Markov(sigma) => markov_corpus(self.n, self.ell, sigma, 0.6, &mut rng),
        };
        assert_eq!(db.max_len(), self.ell, "{}: corpus must realise the declared ell", self.name);
        db
    }

    fn params(&self) -> BuildParams {
        BuildParams::new(CountMode::Document, PrivacyParams::pure(self.epsilon), 0.1)
            .with_thresholds(self.tau, f64::NEG_INFINITY)
    }
}

/// Wall time of each step of one release, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub index_ns: u64,
    pub pipeline_ns: u64,
    pub freeze_ns: u64,
    pub encode_ns: u64,
}

impl BuildTimes {
    pub fn total_ns(&self) -> u64 {
        self.index_ns + self.pipeline_ns + self.freeze_ns + self.encode_ns
    }
}

/// A released shard.
pub struct Release {
    pub spec: ShardSpec,
    /// Uncompressed `DPSF` v2 bytes: what ships to the daemon.
    pub bytes: Vec<u8>,
    /// FNV-1a of `bytes`.
    pub digest: u64,
    /// The oracle, decoded from `bytes`.
    pub oracle: FrozenSynopsis,
    pub times: BuildTimes,
    /// Nodes of the candidate trie the pipeline counted.
    pub trie_nodes: u64,
    /// Nodes released after the prune.
    pub kept_nodes: u64,
    /// Pipeline phase spans (`candidates`, `count_trie`, `noise`, `prune`).
    pub phases: Vec<(&'static str, u64)>,
}

fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Builds and releases `spec` over `db` with the RNG stream `rng_tag`.
/// Spans go to `spans` under `parent` when tracing.
pub fn release(
    spec: &ShardSpec,
    db: &Database,
    seed: u64,
    rng_tag: u64,
    spans: &Spans,
    parent: u64,
) -> Release {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, rng_tag));
    let t = Instant::now();
    let idx = spans.time("index", parent, 0, || CorpusIndex::build(db));
    let index_ns = nanos(t);
    let rec = SpanRecorder::new();
    let t = Instant::now();
    let built = spans.time("pipeline", parent, 0, || {
        build_pure_traced(&idx, &spec.params(), &mut rng, &rec)
            .unwrap_or_else(|e| panic!("{}: build hit the FAIL branch: {e:?}", spec.name))
    });
    let pipeline_ns = nanos(t);
    drop(idx);
    let t = Instant::now();
    let frozen = spans.time("freeze", parent, 0, || built.freeze());
    let freeze_ns = nanos(t);
    let t = Instant::now();
    let bytes = spans.time("encode", parent, 0, || frozen.to_bytes_v2(false));
    let encode_ns = nanos(t);
    let oracle = FrozenSynopsis::from_bytes(&bytes).expect("a fresh release decodes");
    assert_eq!(oracle, frozen, "{}: v2 round trip drifted", spec.name);
    let phases: Vec<(&'static str, u64)> = rec.spans().iter().map(|s| (s.name, s.dur_ns)).collect();
    let items = |name: &str| rec.spans().iter().find(|s| s.name == name).map_or(0, |s| s.items);
    Release {
        spec: *spec,
        digest: fnv1a(&bytes),
        trie_nodes: items("count_trie"),
        kept_nodes: oracle.node_count() as u64,
        bytes,
        oracle,
        times: BuildTimes { index_ns, pipeline_ns, freeze_ns, encode_ns },
        phases,
    }
}

/// Present patterns of a corpus for the hot mix: short document
/// prefixes and infixes in first-seen order, capped at 512. The Zipf
/// sampler weights them by this rank order.
pub fn hot_universe(db: &Database) -> Vec<Vec<u8>> {
    let mut universe = Vec::new();
    let mut seen = HashSet::new();
    for doc in db.documents() {
        for (start, len) in [(0usize, 3usize), (1, 4), (2, 6), (0, 8)] {
            if doc.len() >= start + len {
                let pat = doc[start..start + len].to_vec();
                if seen.insert(pat.clone()) {
                    universe.push(pat);
                    if universe.len() >= 512 {
                        return universe;
                    }
                }
            }
        }
    }
    universe
}
