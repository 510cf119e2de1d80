//! The golden scenarios: five Theorem-1 document-count builds and four
//! serving shards over the dna, text and log workload families, with the
//! corpus and build seeds the pinned digests were taken at.
//!
//! Included (`#[path = "common/golden.rs"] mod golden;`) by
//! `golden_digests.rs`, which pins each scenario's release digest and work
//! counts, and by `alloc_counts.rs`, which counts the heap work of
//! serving the shards. Every regime is tuned to stay clear of the FAIL
//! branch (DESIGN.md §10).

// Each binary uses a subset of the scenarios.
#![allow(dead_code)]

use dp_substring_counting::dpcore::stream::derive_stream;
use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::workloads::{dna_corpus, log_corpus, text_corpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `dpsc-workloads` generator a scenario's corpus comes from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// σ = 4 genome reads with planted motifs.
    Dna,
    /// σ = 27 natural-language stand-in: six-byte Zipf vocabulary tokens
    /// joined by a separator.
    Text,
    /// σ = 76 access-log stand-in: lines with a 13-byte planted route
    /// prefix.
    Log,
}

/// One DP build regime.
#[derive(Debug)]
pub struct Scenario {
    pub name: &'static str,
    pub family: Family,
    /// Documents in the corpus.
    pub n: usize,
    /// Document length ℓ (the corpus realises it exactly).
    pub ell: usize,
    pub epsilon: f64,
    /// Candidate threshold τ as a fraction of `n`.
    pub tau_frac: f64,
}

impl Scenario {
    /// Deterministic corpus of `n` documents with `max_len == ell`. Text
    /// documents are `(ell+1)/7` six-byte tokens joined by a separator
    /// (~1.03 MB at n = 10624, ell = 97); log lines are `ell`-byte lines
    /// with a 13-byte planted route (~1.08 MB at n = 36000, ell = 30).
    pub fn corpus(&self, rng: &mut StdRng) -> Database {
        const TEXT_TOKEN_LEN: usize = 6;
        let (n, ell) = (self.n, self.ell);
        let db = match self.family {
            Family::Dna => dna_corpus(n, ell, 8, &[0.9, 0.8, 0.7, 0.6, 0.5, 0.4], rng).db,
            Family::Text => {
                let tokens_per_doc = (ell + 1) / (TEXT_TOKEN_LEN + 1);
                text_corpus(n, tokens_per_doc, TEXT_TOKEN_LEN, 512, 1.0, rng).db
            }
            Family::Log => log_corpus(n, ell, 13, 64, 1.0, rng).db,
        };
        assert_eq!(db.max_len(), ell, "{}: corpus must realise the declared ell", self.name);
        db
    }

    /// Pure-DP document counting with τ = `tau_frac · n` and no pruning.
    pub fn params(&self) -> BuildParams {
        BuildParams::new(CountMode::Document, PrivacyParams::pure(self.epsilon), 0.1)
            .with_thresholds(self.tau_frac * self.n as f64, f64::NEG_INFINITY)
    }
}

/// Base seed of the build scenarios: scenario `i` draws its corpus from
/// stream `i + 1` and its build from stream `(i + 1) << 8`.
pub const BUILD_SEED: u64 = 0xB11D_BEAC;

pub const BUILDS: [Scenario; 5] = [
    Scenario {
        name: "dna-small",
        family: Family::Dna,
        n: 1024,
        ell: 64,
        epsilon: 20.0,
        tau_frac: 0.45,
    },
    Scenario {
        name: "dna-mid",
        family: Family::Dna,
        n: 2048,
        ell: 64,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    Scenario {
        name: "dna-large",
        family: Family::Dna,
        n: 4096,
        ell: 64,
        epsilon: 16.0,
        tau_frac: 0.30,
    },
    Scenario {
        name: "text-1m",
        family: Family::Text,
        n: 10624,
        ell: 97,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    Scenario {
        name: "log-1m",
        family: Family::Log,
        n: 36_000,
        ell: 30,
        epsilon: 16.0,
        tau_frac: 0.10,
    },
];

/// Base seed of the serving shards: shard `i` draws its corpus, then its
/// build, from stream `i + 1`.
pub const SERVE_SEED: u64 = 0x5E12_7EAF;

/// The serving shards, by shard id: the same regimes as build scenarios
/// 0, 1, 3 and 4, at their own seeds.
pub const SHARDS: [&Scenario; 4] = [&BUILDS[0], &BUILDS[1], &BUILDS[3], &BUILDS[4]];

/// One built serving shard.
pub struct Shard {
    pub id: u32,
    pub scenario: &'static Scenario,
    pub frozen: FrozenSynopsis,
    /// Total corpus size (`Database::total_len`).
    pub corpus_bytes: usize,
    /// Up to 512 short document substrings — offsets and lengths
    /// `(0, 3)`, `(1, 4)`, `(2, 6)` and `(0, 8)` of each document — in
    /// first-seen order, without repeats.
    pub universe: Vec<Vec<u8>>,
}

impl Shard {
    /// FNV-1a of each universe pattern, folded in order.
    pub fn universe_digest(&self) -> u64 {
        self.universe.iter().fold(0xCBF2_9CE4_8422_2325u64, |acc, p| {
            (acc ^ fnv1a(p)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The universe as borrowed patterns.
    pub fn patterns(&self) -> Vec<&[u8]> {
        self.universe.iter().map(|p| p.as_slice()).collect()
    }
}

/// Builds serving shard `id` ([`SHARDS`]).
pub fn build_shard(id: u32) -> Shard {
    let scenario = SHARDS[id as usize];
    let mut rng = StdRng::seed_from_u64(derive_stream(SERVE_SEED, u64::from(id) + 1));
    let db = scenario.corpus(&mut rng);
    let idx = CorpusIndex::build(&db);
    let frozen = build_pure(&idx, &scenario.params(), &mut rng)
        .expect("golden regimes avoid the FAIL branch")
        .freeze();

    let mut universe: Vec<Vec<u8>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    'docs: for doc in db.documents() {
        for (start, len) in [(0usize, 3usize), (1, 4), (2, 6), (0, 8)] {
            if doc.len() >= start + len {
                let pat = doc[start..start + len].to_vec();
                if seen.insert(pat.clone()) {
                    universe.push(pat);
                    if universe.len() >= 512 {
                        break 'docs;
                    }
                }
            }
        }
    }
    Shard { id, scenario, frozen, corpus_bytes: db.total_len(), universe }
}
