//! Multi-corpus shard routing with atomic hot snapshot swap.
//!
//! A *shard* is one corpus id serving one [`FrozenSynopsis`]. The
//! [`ShardManager`] maps corpus ids to reference-counted snapshots and
//! supports replacing a shard's snapshot while traffic is in flight:
//!
//! ```text
//!            LoadSnapshot bytes
//!                   │
//!            from_bytes()  ← decode + full structural validation,
//!                   │         OUTSIDE any lock (readers untouched)
//!            ShardSnapshot { epoch: E+1, synopsis }
//!                   │
//!            write-lock ── BTreeMap::insert(Arc) ── unlock
//!                              (a pointer swap)
//! ```
//!
//! Readers pin a snapshot with [`ShardManager::snapshot`] — a read-lock
//! held only for a map lookup and an `Arc` clone — and then answer any
//! number of queries against that pinned `Arc` without ever touching the
//! lock again. A request batch therefore observes exactly one epoch:
//! either entirely the old snapshot or entirely the new one, never a
//! blend. Old snapshots die when their last in-flight reader drops them.
//!
//! Epochs come from one global counter, so an `(shard, epoch)` pair
//! uniquely identifies a snapshot's *contents* for the lifetime of the
//! process — which is what makes epochs usable as cache-key components
//! (see [`crate::cache`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use dpsc_private_count::codec::DecodeError;
use dpsc_private_count::FrozenSynopsis;

use crate::wire::{MetricsShard, ShardStats};

/// One immutable epoch of one shard.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Globally unique, strictly increasing install stamp.
    pub epoch: u64,
    /// The synopsis answering this shard's queries. Its snapshot length,
    /// [`FrozenSynopsis::serialized_len`], is what `Stats` and `Metrics`
    /// report.
    pub synopsis: FrozenSynopsis,
}

/// Routes corpus ids to their current [`ShardSnapshot`] and hot-swaps
/// snapshots atomically.
#[derive(Debug)]
pub struct ShardManager {
    shards: RwLock<BTreeMap<u32, Arc<ShardSnapshot>>>,
    next_epoch: AtomicU64,
}

impl Default for ShardManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardManager {
    /// An empty manager; epochs start at 1 (0 means "never installed").
    pub fn new() -> Self {
        Self { shards: RwLock::new(BTreeMap::new()), next_epoch: AtomicU64::new(1) }
    }

    /// Pins the current snapshot of `shard`. The read lock is held only
    /// for the lookup + `Arc` clone; all queries against the returned
    /// snapshot are lock-free and see one consistent epoch.
    pub fn snapshot(&self, shard: u32) -> Option<Arc<ShardSnapshot>> {
        self.shards.read().expect("shard map not poisoned").get(&shard).cloned()
    }

    /// Installs `synopsis` as the new snapshot of `shard`, returning its
    /// epoch. The write lock is held only for the map insert (a pointer
    /// swap); in-flight readers keep their pinned `Arc` and finish on the
    /// old epoch.
    pub fn install(&self, shard: u32, synopsis: FrozenSynopsis) -> u64 {
        self.install_arc(shard, synopsis).epoch
    }

    /// Load → validate → swap: decodes `bytes` (full checksum and
    /// structural validation, no lock held), then installs the result.
    /// On `Err` the previous snapshot keeps serving untouched.
    pub fn load_snapshot(
        &self,
        shard: u32,
        bytes: &[u8],
    ) -> Result<Arc<ShardSnapshot>, DecodeError> {
        let synopsis = FrozenSynopsis::from_bytes(bytes)?;
        Ok(self.install_arc(shard, synopsis))
    }

    /// [`Self::load_snapshot`] with shared ownership of the buffer: the
    /// snapshot ([`FrozenSynopsis::to_bytes`]) is validated and then
    /// served from `bytes` itself, which the installed [`ShardSnapshot`]
    /// keeps alive through the synopsis — so installing a shard copies
    /// nothing.
    pub fn load_snapshot_shared(
        &self,
        shard: u32,
        bytes: Arc<[u8]>,
    ) -> Result<Arc<ShardSnapshot>, DecodeError> {
        let synopsis = FrozenSynopsis::from_bytes_shared(bytes)?;
        Ok(self.install_arc(shard, synopsis))
    }

    /// [`Self::load_snapshot_shared`] under an *explicit* epoch — the
    /// snapshot store's durable epoch, replayed at recovery or allocated
    /// at persist time — instead of a counter-allocated one. The internal
    /// counter is bumped past `epoch`, so later store-less installs can
    /// never collide with (or run behind) a durable epoch, and the
    /// `(shard, epoch)` cache-key uniqueness invariant holds across both
    /// allocation paths.
    pub fn load_snapshot_shared_at(
        &self,
        shard: u32,
        bytes: Arc<[u8]>,
        epoch: u64,
    ) -> Result<Arc<ShardSnapshot>, DecodeError> {
        let synopsis = FrozenSynopsis::from_bytes_shared(bytes)?;
        Ok(self.install_at(shard, synopsis, epoch))
    }

    /// Installs a pre-validated synopsis under an explicit (durable)
    /// epoch. Like [`Self::install`], but the caller owns epoch
    /// allocation; an install whose epoch is *older* than the resident
    /// snapshot's is refused (the resident snapshot is returned), so a
    /// racing pair of store persists can never leave the stale one
    /// serving.
    pub fn install_at(
        &self,
        shard: u32,
        synopsis: FrozenSynopsis,
        epoch: u64,
    ) -> Arc<ShardSnapshot> {
        let mut shards = self.shards.write().expect("shard map not poisoned");
        self.next_epoch.fetch_max(epoch + 1, Ordering::Relaxed);
        if let Some(resident) = shards.get(&shard) {
            if resident.epoch >= epoch {
                return Arc::clone(resident);
            }
        }
        let snap = Arc::new(ShardSnapshot { epoch, synopsis });
        shards.insert(shard, Arc::clone(&snap));
        snap
    }

    /// The one swap path. The epoch is allocated *inside* the write
    /// lock: concurrent installs on the same shard then agree that the
    /// snapshot left resident is the one with the highest epoch —
    /// allocating outside would let an older epoch's insert land last
    /// and silently shadow a newer snapshot whose caller was already
    /// told "success".
    fn install_arc(&self, shard: u32, synopsis: FrozenSynopsis) -> Arc<ShardSnapshot> {
        let mut shards = self.shards.write().expect("shard map not poisoned");
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(ShardSnapshot { epoch, synopsis });
        shards.insert(shard, Arc::clone(&snap));
        snap
    }

    /// Shard ids currently resident, ascending.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.read().expect("shard map not poisoned").keys().copied().collect()
    }

    /// Number of resident shards.
    pub fn len(&self) -> usize {
        self.shards.read().expect("shard map not poisoned").len()
    }

    /// Whether no shard is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One [`MetricsShard`] record per resident shard, ascending by id —
    /// the compact identity triple (`shard_id`, `epoch`,
    /// `serialized_len`) the `Metrics` op reports. The latency columns
    /// start zeroed; the
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry) fills them
    /// from its per-shard histograms when it builds the report.
    pub fn metrics_shards(&self) -> Vec<MetricsShard> {
        let shards = self.shards.read().expect("shard map not poisoned");
        shards
            .iter()
            .map(|(&shard_id, snap)| MetricsShard {
                shard_id,
                epoch: snap.epoch,
                serialized_len: snap.synopsis.serialized_len() as u64,
                ops: 0,
                latency_p50_ns: 0.0,
                latency_p99_ns: 0.0,
            })
            .collect()
    }

    /// One [`ShardStats`] record per resident shard, ascending by id —
    /// the operator's view of what is actually being served, including
    /// the utility bounds (`alpha*`) of each resident synopsis.
    pub fn stats(&self) -> Vec<ShardStats> {
        let shards = self.shards.read().expect("shard map not poisoned");
        shards
            .iter()
            .map(|(&shard_id, snap)| {
                let s = &snap.synopsis;
                let (n_docs, max_len) = s.db_params();
                let privacy = s.privacy();
                ShardStats {
                    shard_id,
                    epoch: snap.epoch,
                    node_count: s.node_count() as u64,
                    serialized_len: s.serialized_len() as u64,
                    n_docs: n_docs as u64,
                    max_len: max_len as u64,
                    epsilon: privacy.epsilon,
                    delta: privacy.delta,
                    alpha: s.alpha(),
                    alpha_counts: s.alpha_counts(),
                    alpha_absent: s.alpha_absent(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_dpcore::budget::PrivacyParams;
    use dpsc_private_count::{CountMode, PrivateCountStructure};
    use dpsc_strkit::trie::Trie;

    fn synopsis(count: f64) -> FrozenSynopsis {
        let mut trie: Trie<f64> = Trie::new(count * 2.0);
        let a = trie.insert_path(b"a", |_| 0.0);
        *trie.value_mut(a) = count;
        PrivateCountStructure::new(
            trie,
            CountMode::Substring,
            PrivacyParams::pure(1.0),
            1.0,
            1.0,
            4,
            3,
        )
        .freeze()
    }

    #[test]
    fn install_and_route() {
        let m = ShardManager::new();
        assert!(m.is_empty());
        assert!(m.snapshot(0).is_none());
        let e0 = m.install(0, synopsis(5.0));
        let e1 = m.install(1, synopsis(7.0));
        assert!(e1 > e0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.shard_ids(), vec![0, 1]);
        assert_eq!(m.snapshot(0).unwrap().synopsis.query(b"a"), 5.0);
        assert_eq!(m.snapshot(1).unwrap().synopsis.query(b"a"), 7.0);
        // A plain install ships no bytes; the reported length is still
        // the synopsis's snapshot length.
        let len = synopsis(5.0).serialized_len() as u64;
        assert!(m.stats().iter().all(|s| s.serialized_len == len));
        assert!(m.metrics_shards().iter().all(|s| s.serialized_len == len));
    }

    #[test]
    fn hot_swap_leaves_pinned_readers_on_the_old_epoch() {
        let m = ShardManager::new();
        m.install(0, synopsis(1.0));
        let pinned = m.snapshot(0).unwrap();
        let new_epoch = m.install(0, synopsis(2.0));
        // The pinned snapshot still answers from the old epoch…
        assert_eq!(pinned.synopsis.query(b"a"), 1.0);
        assert!(pinned.epoch < new_epoch);
        // …while fresh pins see the new one.
        let fresh = m.snapshot(0).unwrap();
        assert_eq!(fresh.epoch, new_epoch);
        assert_eq!(fresh.synopsis.query(b"a"), 2.0);
    }

    #[test]
    fn load_snapshot_rejects_corrupt_bytes_and_keeps_serving() {
        let m = ShardManager::new();
        m.install(3, synopsis(9.0));
        let before = m.snapshot(3).unwrap().epoch;
        let mut bytes = synopsis(1.0).to_bytes();
        bytes[10] ^= 0xFF;
        assert!(m.load_snapshot(3, &bytes).is_err());
        let after = m.snapshot(3).unwrap();
        assert_eq!(after.epoch, before, "failed load must not swap");
        assert_eq!(after.synopsis.query(b"a"), 9.0);
    }

    #[test]
    fn load_snapshot_shared_serves_borrowed_v2() {
        let m = ShardManager::new();
        let f = synopsis(6.5);
        let shared: Arc<[u8]> = f.to_bytes().into();
        let snap = m.load_snapshot_shared(4, Arc::clone(&shared)).unwrap();
        assert!(
            Arc::ptr_eq(snap.synopsis.shared_bytes(), &shared),
            "the snapshot must serve from the installed buffer"
        );
        assert_eq!(snap.synopsis.serialized_len(), shared.len());
        assert_eq!(snap.synopsis.query(b"a"), 6.5);
        assert_eq!(snap.synopsis, f, "borrowed decode is logically identical");
    }

    #[test]
    fn install_at_pins_durable_epochs_and_never_downgrades() {
        let m = ShardManager::new();
        // Recovery replay: install under the manifest's epoch.
        let bytes: Arc<[u8]> = synopsis(3.0).to_bytes().into();
        let snap = m.load_snapshot_shared_at(0, Arc::clone(&bytes), 40).unwrap();
        assert_eq!(snap.epoch, 40);
        // The counter moved past the durable epoch: a store-less install
        // cannot collide.
        assert!(m.install(1, synopsis(1.0)) > 40);
        // A stale durable epoch loses to the resident snapshot.
        let newer = m.load_snapshot_shared_at(0, synopsis(9.0).to_bytes().into(), 50).unwrap();
        assert_eq!(newer.epoch, 50);
        let stale = m.install_at(0, synopsis(2.0), 45);
        assert_eq!(stale.epoch, 50, "older epoch must not shadow a newer resident");
        assert_eq!(m.snapshot(0).unwrap().synopsis.query(b"a"), 9.0);
    }

    #[test]
    fn stats_surface_sizes_and_utility_bounds() {
        let m = ShardManager::new();
        let f = synopsis(4.0);
        let bytes = f.to_bytes();
        let snap = m.load_snapshot(2, &bytes).unwrap();
        let stats = m.stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.shard_id, 2);
        assert_eq!(s.epoch, snap.epoch);
        assert_eq!(s.node_count, f.node_count() as u64);
        assert_eq!(s.serialized_len, bytes.len() as u64);
        assert_eq!(s.alpha, f.alpha());
        assert_eq!(s.alpha_counts, f.alpha_counts());
        assert_eq!(s.alpha_absent, f.alpha_absent());
        assert_eq!(s.epsilon, 1.0);
        assert_eq!(s.delta, 0.0);
        assert_eq!((s.n_docs, s.max_len), (4, 3));
    }
}
