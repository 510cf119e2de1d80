//! Per-layer replays for the traced run. Each one calls a single layer's
//! public API on the workload's own inputs (its corpora, snapshots and
//! request frames) and reports what that layer alone costs, so the
//! end-to-end figures can be split by layer.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dpsc_private_count::FrozenSynopsis;
use dpsc_serve::wire::{decode_request, encode_response};
use dpsc_serve::{QueryCache, Response, ServerConfig, SnapshotStore};
use dpsc_strkit::alphabet::Database;
use dpsc_strkit::hash::RollingHash;
use dpsc_strkit::lcp::LcpArray;
use dpsc_strkit::suffix_array::SuffixArray;
use dpsc_textindex::DocDistinctCounter;

use crate::procfs;
use crate::spans::Spans;
use crate::traffic::Pool;

/// The four steps of `CorpusIndex::build`, timed apart, in nanoseconds,
/// and the peak memory the index added per corpus byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexSteps {
    pub sa_ns: u64,
    pub lcp_ns: u64,
    pub hash_ns: u64,
    pub doc_counter_ns: u64,
    pub bytes_per_corpus_byte: f64,
}

/// Replays the index construction over `db` step by step, encoding the
/// text the way `CorpusIndex::build` does: document `i`'s sentinel is
/// symbol `i`, byte `b` is `n + b`.
pub fn index_steps(db: &Database, spans: &Spans, parent: u64) -> IndexSteps {
    crate::alloc::return_freed_memory();
    let rss_before = procfs::rss_bytes();
    let fresh_peak = procfs::reset_peak_rss();
    let peak_before = procfs::peak_rss_bytes();
    let n_docs = db.n();
    let mut text: Vec<u32> = Vec::with_capacity(db.total_len() + n_docs);
    let mut doc_of: Vec<u32> = Vec::with_capacity(db.total_len() + n_docs);
    for (i, doc) in db.documents().iter().enumerate() {
        text.extend(doc.iter().map(|&b| n_docs as u32 + u32::from(b)));
        text.push(i as u32);
        doc_of.extend(std::iter::repeat_n(i as u32, doc.len() + 1));
    }
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> u64 {
        let t = Instant::now();
        spans.time(name, parent, 0, f);
        t.elapsed().as_nanos() as u64
    };
    let mut sa = None;
    let sa_ns = timed("index.sa", &mut || sa = Some(SuffixArray::from_ints(&text, n_docs + 256)));
    let sa = sa.expect("suffix array built");
    let mut lcp = None;
    let lcp_ns = timed("index.lcp", &mut || lcp = Some(LcpArray::build(&text, &sa)));
    let mut hash = None;
    let hash_ns = timed("index.hash", &mut || hash = Some(RollingHash::new(&text)));
    let mut docs = None;
    let doc_counter_ns =
        timed("index.doc_counter", &mut || docs = Some(DocDistinctCounter::build(&sa, &doc_of)));
    let peak = procfs::peak_rss_bytes();
    black_box((&lcp, &hash, &docs));
    // With a fresh watermark the peak is what this replay reached; else
    // only growth past the old peak shows.
    let added = if fresh_peak { peak.saturating_sub(rss_before) } else { peak - peak_before };
    IndexSteps {
        sa_ns,
        lcp_ns,
        hash_ns,
        doc_counter_ns,
        bytes_per_corpus_byte: added as f64 / db.total_len() as f64,
    }
}

/// Per-pattern costs of the serving layers, replayed in process over the
/// workload's own frames, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeReplay {
    /// `decode_request` per pattern.
    pub decode_ns: f64,
    /// `encode_response` per pattern.
    pub encode_ns: f64,
    /// The daemon's cache path per pattern: a `get`, and on a miss an
    /// `insert`, on a standalone `QueryCache` of the daemon's default
    /// capacity.
    pub cache_ns: f64,
    /// Share of cache lookups that missed in the replay.
    pub miss_frac: f64,
    /// `FrozenSynopsis::query` per pattern.
    pub query_ns: f64,
    /// `FrozenSynopsis::query_batch` per pattern, one call per frame.
    pub query_batch_ns: f64,
}

/// Replays `frames` frames of `pool` (from the start, wrapping) through
/// each serving layer. `synopses[shard]` serves each shard, decoded from
/// the served bytes as the daemon decodes them.
pub fn serve_replay(
    pool: &Pool,
    frames: usize,
    synopses: &[(u32, Arc<FrozenSynopsis>)],
    spans: &Spans,
    parent: u64,
) -> ServeReplay {
    let frames: Vec<_> = (0..frames.max(1)).map(|k| &pool.frames[k % pool.frames.len()]).collect();
    let patterns: usize = frames.iter().map(|f| f.patterns.len()).sum();
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / patterns as f64;
    let syn = |shard: u32| -> &FrozenSynopsis {
        &synopses.iter().find(|(s, _)| *s == shard).expect("every pool shard is served").1
    };

    let t = Instant::now();
    spans.time("wire.decode", parent, 0, || {
        for f in &frames {
            black_box(decode_request(black_box(&f.wire[4..])).expect("pool frames decode"));
        }
    });
    let decode_ns = per(t);

    let responses: Vec<Response> = frames
        .iter()
        .map(|f| {
            let values: Vec<f64> = f.expected.iter().map(|&b| f64::from_bits(b)).collect();
            if f.single {
                Response::Query { value: values[0] }
            } else {
                Response::QueryBatch { values }
            }
        })
        .collect();
    let t = Instant::now();
    spans.time("wire.encode", parent, 0, || {
        for r in &responses {
            black_box(encode_response(black_box(r)));
        }
    });
    let encode_ns = per(t);

    let cache = QueryCache::new(ServerConfig::default().cache_capacity);
    let mut misses = 0u64;
    let t = Instant::now();
    spans.time("cache.replay", parent, 0, || {
        for f in &frames {
            for (p, &v) in f.patterns.iter().zip(&f.expected) {
                if cache.get(f.shard, 1, black_box(p)).is_none() {
                    misses += 1;
                    cache.insert(f.shard, 1, p, f64::from_bits(v));
                }
            }
        }
    });
    let cache_ns = per(t);

    let t = Instant::now();
    spans.time("synopsis.query", parent, 0, || {
        for f in &frames {
            let s = syn(f.shard);
            for p in &f.patterns {
                black_box(s.query(black_box(p)));
            }
        }
    });
    let query_ns = per(t);

    let t = Instant::now();
    spans.time("synopsis.query_batch", parent, 0, || {
        for f in &frames {
            let refs: Vec<&[u8]> = f.patterns.iter().map(Vec::as_slice).collect();
            black_box(syn(f.shard).query_batch(black_box(&refs)));
        }
    });
    let query_batch_ns = per(t);

    ServeReplay {
        decode_ns,
        encode_ns,
        cache_ns,
        miss_frac: misses as f64 / patterns as f64,
        query_ns,
        query_batch_ns,
    }
}

/// `from_bytes_shared` cost per snapshot byte, in nanoseconds, over
/// `rounds` decodes of each snapshot.
pub fn load_ns_per_byte(snapshots: &[&[u8]], rounds: usize, spans: &Spans, parent: u64) -> f64 {
    let shared: Vec<Arc<[u8]>> = snapshots.iter().map(|b| Arc::from(*b)).collect();
    let bytes: usize = snapshots.iter().map(|b| b.len()).sum::<usize>() * rounds;
    let t = Instant::now();
    spans.time("codec.load", parent, 0, || {
        for _ in 0..rounds {
            for b in &shared {
                black_box(
                    FrozenSynopsis::from_bytes_shared(Arc::clone(b)).expect("snapshot loads"),
                );
            }
        }
    });
    t.elapsed().as_nanos() as f64 / bytes as f64
}

/// What the durable store costs for the workload's snapshots.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreReplay {
    /// Median `SnapshotStore::persist`, in nanoseconds.
    pub persist_ns: u64,
    /// Bytes the store adds on disk (payload file plus manifest record)
    /// per snapshot byte persisted.
    pub bytes_written_per_byte: f64,
    /// Median `SnapshotStore::open` over the filled store, in nanoseconds.
    pub open_recover_ns: u64,
}

/// Persists each snapshot `rounds` times into a fresh store at `dir`,
/// then reopens it `rounds` times.
pub fn store_replay(
    dir: &Path,
    snapshots: &[(u32, &[u8])],
    rounds: usize,
    spans: &Spans,
    parent: u64,
) -> StoreReplay {
    let _ = std::fs::remove_dir_all(dir);
    // Retention deep enough that no epoch is dropped while measuring, so
    // the directory's growth is exactly what each persist wrote.
    let store = SnapshotStore::open(dir, rounds.max(1)).expect("replay store opens");
    let mut persists = Vec::new();
    let mut payload = 0u64;
    let mut written = 0u64;
    for round in 0..rounds {
        for &(corpus, bytes) in snapshots {
            let before = dir_bytes(dir);
            let t = Instant::now();
            spans.time("store.persist", parent, round as u64, || {
                store.persist(corpus, bytes).expect("replay persist succeeds")
            });
            persists.push(t.elapsed().as_nanos() as u64);
            written += dir_bytes(dir).saturating_sub(before);
            payload += bytes.len() as u64;
        }
    }
    drop(store);
    let mut opens = Vec::new();
    for round in 0..rounds {
        let t = Instant::now();
        let reopened = spans.time("store.open", parent, round as u64, || {
            SnapshotStore::open(dir, rounds.max(1)).expect("replay store reopens")
        });
        opens.push(t.elapsed().as_nanos() as u64);
        assert_eq!(reopened.take_recovered().len(), snapshots.len(), "every corpus recovers");
    }
    let _ = std::fs::remove_dir_all(dir);
    StoreReplay {
        persist_ns: crate::stats::median_u64(&mut persists),
        bytes_written_per_byte: written as f64 / payload as f64,
        open_recover_ns: crate::stats::median_u64(&mut opens),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
