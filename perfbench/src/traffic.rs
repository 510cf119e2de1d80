//! Request mixes. A mix is a deterministic pool of encoded request frames
//! with the answers the oracle expects for each; the load generator walks
//! the pool in order, wrapping around. Nothing here depends on timing.

use dpsc_dpcore::stream::derive_stream;
use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::FrozenSynopsis;
use dpsc_serve::wire::encode_request;
use dpsc_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{fnv_fold, FNV_BASIS};

/// One request frame and the answers it must get back.
pub struct Frame {
    pub shard: u32,
    pub patterns: Vec<Vec<u8>>,
    /// A `Query` frame (one pattern) rather than a `QueryBatch`.
    pub single: bool,
    /// The encoded frame, length prefix included.
    pub wire: Vec<u8>,
    /// Expected answer bits, from `query_naive` on the served bytes.
    pub expected: Vec<u64>,
    /// The other epoch's answer bits, for a shard that alternates between
    /// two snapshots while traffic runs. A reply must match one epoch in
    /// full.
    pub alt: Option<Vec<u64>>,
}

/// A shard as the mix sees it: where patterns come from and who answers.
pub struct Target<'a> {
    pub shard: u32,
    /// Present patterns in rank order (hot mix).
    pub universe: &'a [Vec<u8>],
    /// Corpus documents (bulk mix draws random substrings).
    pub docs: &'a [Vec<u8>],
    pub oracle: &'a FrozenSynopsis,
    /// The second epoch's oracle, when the shard alternates.
    pub alt: Option<&'a FrozenSynopsis>,
}

/// A deterministic pool of frames.
pub struct Pool {
    pub frames: Vec<Frame>,
    /// FNV-1a over (shard, pattern digest) in pool order.
    pub digest: u64,
}

impl Pool {
    fn new(frames: Vec<Frame>) -> Self {
        let mut digest = FNV_BASIS;
        for f in &frames {
            for p in &f.patterns {
                digest = fnv_fold(digest, fnv1a(p) ^ u64::from(f.shard));
            }
        }
        Self { frames, digest }
    }
}

fn frame(target: &Target, patterns: Vec<Vec<u8>>, single: bool) -> Frame {
    let answers = |s: &FrozenSynopsis| -> Vec<u64> {
        patterns.iter().map(|p| s.query_naive(p).to_bits()).collect()
    };
    let expected = answers(target.oracle);
    let alt = target.alt.map(answers);
    let req = if single {
        Request::Query { shard: target.shard, pattern: patterns[0].clone() }
    } else {
        Request::QueryBatch { shard: target.shard, patterns: patterns.clone() }
    };
    Frame { shard: target.shard, wire: encode_request(&req), patterns, single, expected, alt }
}

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..*self.cdf.last().expect("non-empty universe"));
        self.cdf.partition_point(|&c| c <= u)
    }
}

/// The hot mix: a uniformly chosen shard per frame; each frame carries 1
/// to 4 patterns (1 as a `Query`, more as a `QueryBatch`); 80% of the
/// patterns are Zipf(1.1)-ranked present patterns, the rest absent
/// digit strings.
pub fn hot_pool(targets: &[Target], frames: usize, seed: u64, tag: u64) -> Pool {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, tag));
    let zipfs: Vec<Zipf> = targets.iter().map(|t| Zipf::new(t.universe.len(), 1.1)).collect();
    let out = (0..frames)
        .map(|_| {
            let ti = rng.gen_range(0..targets.len());
            let k = rng.gen_range(1..=4usize);
            let patterns = (0..k)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        targets[ti].universe[zipfs[ti].sample(&mut rng)].clone()
                    } else {
                        let len = rng.gen_range(2..10usize);
                        (0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect()
                    }
                })
                .collect();
            frame(&targets[ti], patterns, k == 1)
        })
        .collect();
    Pool::new(out)
}

/// The bulk mix: `QueryBatch` frames of `batch` patterns against one
/// shard, 90% uniformly random 2–12-byte substrings of the corpus and
/// 10% absent lowercase probes, so the pattern universe dwarfs the
/// daemon's cache.
pub fn bulk_pool(target: &Target, frames: usize, batch: usize, seed: u64, tag: u64) -> Pool {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, tag));
    let docs = target.docs;
    let out = (0..frames)
        .map(|_| {
            let patterns = (0..batch)
                .map(|_| {
                    let len = rng.gen_range(2..=12usize);
                    if rng.gen_bool(0.9) {
                        let doc = &docs[rng.gen_range(0..docs.len())];
                        let len = len.min(doc.len());
                        let start = rng.gen_range(0..=doc.len() - len);
                        doc[start..start + len].to_vec()
                    } else {
                        (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
                    }
                })
                .collect();
            frame(target, patterns, false)
        })
        .collect();
    Pool::new(out)
}
