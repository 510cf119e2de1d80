//! Sharded LRU cache for repeated query patterns.
//!
//! Keys are `(shard id, shard epoch, pattern)`. The epoch component is
//! the whole cache-invalidation story: a hot snapshot swap bumps the
//! shard's epoch, so every entry cached against the old snapshot simply
//! stops being *addressable* — no flush, no scan, no coordination with
//! readers. Stale entries age out through normal LRU eviction. The
//! invariant the serving tests pin: a cache hit returns a value
//! bit-identical to what a cold walk of the *same epoch's* synopsis
//! returns, because that walk is exactly what populated it.
//!
//! Concurrency: the key space is split across segments by key
//! fingerprint, each behind its own mutex, so concurrent callers
//! looking up different patterns rarely contend. Within a segment, entries form a
//! doubly-linked LRU list over a slab; the map from fingerprint to slab
//! slot confirms the full key on every probe (same fingerprint-probe +
//! full-confirm discipline as the build path's `candidates::RowIndex`), so a
//! fingerprint collision can evict a twin but can never answer with the
//! wrong value.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dpsc_private_count::codec::fnv1a;

/// Slab index meaning "no entry".
const NIL: u32 = u32::MAX;

/// Number of independently locked segments.
const SEGMENTS: usize = 8;

struct Entry {
    /// Full key, confirmed on every probe.
    shard: u32,
    epoch: u64,
    pattern: Box<[u8]>,
    value: f64,
    /// LRU list neighbours (towards MRU / towards LRU).
    prev: u32,
    next: u32,
}

/// One locked segment: fingerprint map + LRU slab.
struct Segment {
    map: HashMap<u64, u32>,
    slab: Vec<Entry>,
    capacity: usize,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry (next eviction victim).
    tail: u32,
}

impl Segment {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            capacity,
            head: NIL,
            tail: NIL,
        }
    }

    /// Unlinks slot `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slab[i as usize].prev, self.slab[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Links slot `i` at the MRU end.
    fn link_front(&mut self, i: u32) {
        self.slab[i as usize].prev = NIL;
        self.slab[i as usize].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h as usize].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, fp: u64, shard: u32, epoch: u64, pattern: &[u8]) -> Option<f64> {
        let &i = self.map.get(&fp)?;
        let e = &self.slab[i as usize];
        if e.shard != shard || e.epoch != epoch || &*e.pattern != pattern {
            return None; // fingerprint collision: treat as a miss
        }
        let value = e.value;
        self.unlink(i);
        self.link_front(i);
        Some(value)
    }

    fn insert(&mut self, fp: u64, shard: u32, epoch: u64, pattern: &[u8], value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&fp) {
            // Same fingerprint: overwrite in place (collisions evict the
            // twin — the full key stored here keeps gets correct).
            let e = &mut self.slab[i as usize];
            e.shard = shard;
            e.epoch = epoch;
            e.pattern = pattern.into();
            e.value = value;
            self.unlink(i);
            self.link_front(i);
            return;
        }
        let i = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                shard,
                epoch,
                pattern: pattern.into(),
                value,
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1) as u32
        } else {
            // Evict the LRU entry and reuse its slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 and slab full implies a tail");
            self.unlink(victim);
            let old_fp = {
                let e = &self.slab[victim as usize];
                key_fingerprint(e.shard, e.epoch, &e.pattern)
            };
            self.map.remove(&old_fp);
            let e = &mut self.slab[victim as usize];
            e.shard = shard;
            e.epoch = epoch;
            e.pattern = pattern.into();
            e.value = value;
            victim
        };
        self.map.insert(fp, i);
        self.link_front(i);
    }
}

/// Fingerprint of a cache key: FNV-1a over shard id, epoch, and pattern
/// (all little-endian). Allocation-free, so the read path never copies
/// the pattern just to probe.
fn key_fingerprint(shard: u32, epoch: u64, pattern: &[u8]) -> u64 {
    let mut prefix = [0u8; 12];
    prefix[..4].copy_from_slice(&shard.to_le_bytes());
    prefix[4..].copy_from_slice(&epoch.to_le_bytes());
    // FNV-1a is byte-serial, so hashing prefix then pattern equals
    // hashing their concatenation.
    let mut h = fnv1a(&prefix);
    for &b in pattern {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The serving-layer query cache: [`SEGMENTS`] independently locked LRU
/// segments plus global hit/miss counters.
pub struct QueryCache {
    segments: Vec<Mutex<Segment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl QueryCache {
    /// A cache holding at most `capacity` entries, rounded up to a
    /// multiple of the segment count so every segment gets equal slots;
    /// [`Self::capacity`] (and `Stats` over the wire) report the rounded
    /// *effective* capacity, keeping `entries ≤ capacity` a true
    /// invariant. `capacity == 0` disables caching entirely: gets miss
    /// without counting and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        let per_segment = capacity.div_ceil(SEGMENTS);
        Self {
            segments: (0..SEGMENTS).map(|_| Mutex::new(Segment::new(per_segment))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: per_segment * SEGMENTS,
        }
    }

    fn segment(&self, fp: u64) -> &Mutex<Segment> {
        // High bits pick the segment so the map's low-bit buckets stay
        // well distributed within each segment.
        &self.segments[(fp >> 56) as usize % SEGMENTS]
    }

    /// Cached value for `(shard, epoch, pattern)`, updating recency and
    /// the hit/miss counters.
    pub fn get(&self, shard: u32, epoch: u64, pattern: &[u8]) -> Option<f64> {
        if self.capacity == 0 {
            return None;
        }
        let fp = key_fingerprint(shard, epoch, pattern);
        let got = self
            .segment(fp)
            .lock()
            .expect("cache segment not poisoned")
            .get(fp, shard, epoch, pattern);
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches `value` for `(shard, epoch, pattern)`, evicting the
    /// segment's LRU entry when full.
    pub fn insert(&self, shard: u32, epoch: u64, pattern: &[u8], value: f64) {
        if self.capacity == 0 {
            return;
        }
        let fp = key_fingerprint(shard, epoch, pattern);
        self.segment(fp)
            .lock()
            .expect("cache segment not poisoned")
            .insert(fp, shard, epoch, pattern, value);
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently resident (sums segment sizes; momentarily stale
    /// under concurrent writers, exact when quiescent).
    pub fn entries(&self) -> usize {
        self.segments.iter().map(|s| s.lock().expect("cache segment not poisoned").map.len()).sum()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_inserted_bits() {
        let cache = QueryCache::new(64);
        let v = f64::from_bits(0x4009_21FB_5444_2D18); // π, exact bits
        cache.insert(1, 7, b"acgt", v);
        assert_eq!(cache.get(1, 7, b"acgt").map(f64::to_bits), Some(v.to_bits()));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = QueryCache::new(64);
        cache.insert(1, 1, b"ab", 10.0);
        // Same shard + pattern, new epoch: the old entry is unreachable.
        assert_eq!(cache.get(1, 2, b"ab"), None);
        cache.insert(1, 2, b"ab", 20.0);
        assert_eq!(cache.get(1, 2, b"ab"), Some(20.0));
        assert_eq!(cache.get(1, 1, b"ab"), Some(10.0));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One segment's worth of keys that all land in the same segment is
        // hard to force through the fingerprint, so use capacity ≥ SEGMENTS
        // and check global behaviour: with capacity c, after inserting many
        // more than c distinct keys the resident count stays ≤ c.
        let cache = QueryCache::new(32);
        for i in 0..1000u64 {
            cache.insert(0, 1, &i.to_le_bytes(), i as f64);
        }
        assert!(
            cache.entries() <= cache.capacity(),
            "entries {} exceed effective capacity {}",
            cache.entries(),
            cache.capacity()
        );
        // The most recent key is still present.
        assert_eq!(cache.get(0, 1, &999u64.to_le_bytes()), Some(999.0));
    }

    #[test]
    fn recency_protects_hot_keys() {
        let cache = QueryCache::new(SEGMENTS); // one slot per segment
        cache.insert(0, 1, b"hot", 1.0);
        for i in 0..100u64 {
            // Touch the hot key between cold inserts; the cold keys spread
            // over all segments, so the hot key's segment sees evictions
            // too — recency must keep it alive whenever its segment evicts.
            let _ = cache.get(0, 1, b"hot");
            cache.insert(0, 1, &i.to_le_bytes(), 0.0);
        }
        // The hot key survives only if its own segment never evicted it
        // while cold keys shared that segment. With one slot per segment
        // that is not guaranteed — so assert the weaker, always-true
        // invariant: a get never returns a wrong value.
        if let Some(v) = cache.get(0, 1, b"hot") {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = QueryCache::new(0);
        cache.insert(0, 0, b"x", 1.0);
        assert_eq!(cache.get(0, 0, b"x"), None);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.hits() + cache.misses(), 0, "disabled cache counts nothing");
    }
}
