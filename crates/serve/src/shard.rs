//! Multi-corpus shard routing with atomic hot snapshot swap.
//!
//! A *shard* is one corpus id serving one [`FrozenSynopsis`]. The
//! [`ShardManager`] maps corpus ids to reference-counted snapshots and
//! supports replacing a shard's snapshot while traffic is in flight:
//!
//! ```text
//!            LoadSnapshot bytes
//!                   │
//!            decode  ← checksums + full structural validation,
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
    /// epoch from the manager's counter: [`Self::install_at`] with `None`.
    pub fn install(&self, shard: u32, synopsis: FrozenSynopsis) -> u64 {
        self.install_at(shard, synopsis, None).epoch
    }

    /// The one swap path. `epoch` is the snapshot store's durable epoch
    /// (replayed at recovery, or allocated at persist or rollback time);
    /// `None` takes the next one from the manager's counter. The write
    /// lock is held only for the map insert (a pointer swap); in-flight
    /// readers keep their pinned `Arc` and finish on the old epoch.
    ///
    /// A counter epoch is allocated *inside* the write lock, so concurrent
    /// installs on one shard agree that the snapshot left resident is the
    /// one with the highest epoch. A durable epoch bumps the counter past
    /// itself, so later counter installs never collide with (or run
    /// behind) it and the `(shard, epoch)` cache-key invariant holds
    /// across both sources. An install whose durable epoch is *older* than
    /// the resident snapshot's is refused (the resident snapshot is
    /// returned), so a racing pair of store persists can never leave the
    /// stale one serving.
    pub fn install_at(
        &self,
        shard: u32,
        synopsis: FrozenSynopsis,
        epoch: Option<u64>,
    ) -> Arc<ShardSnapshot> {
        let mut shards = self.shards.write().expect("shard map not poisoned");
        let epoch = match epoch {
            None => self.next_epoch.fetch_add(1, Ordering::Relaxed),
            Some(epoch) => {
                self.next_epoch.fetch_max(epoch + 1, Ordering::Relaxed);
                match shards.get(&shard) {
                    Some(resident) if resident.epoch >= epoch => return Arc::clone(resident),
                    _ => epoch,
                }
            }
        };
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

    fn synopsis(count: f64) -> FrozenSynopsis {
        let entries = vec![(Vec::new(), count * 2.0), (b"a".to_vec(), count)];
        let privacy = PrivacyParams::pure(1.0);
        PrivateCountStructure::from_entries(entries, CountMode::Substring, privacy, 1.0, 1.0, 4, 3)
            .expect("valid entries")
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
    fn install_at_pins_durable_epochs_and_never_downgrades() {
        let m = ShardManager::new();
        // Recovery replay: install under the manifest's epoch.
        let snap = m.install_at(0, synopsis(3.0), Some(40));
        assert_eq!(snap.epoch, 40);
        // The counter moved past the durable epoch: a store-less install
        // cannot collide.
        assert!(m.install(1, synopsis(1.0)) > 40);
        // A stale durable epoch loses to the resident snapshot.
        let newer = m.install_at(0, synopsis(9.0), Some(50));
        assert_eq!(newer.epoch, 50);
        let stale = m.install_at(0, synopsis(2.0), Some(45));
        assert_eq!(stale.epoch, 50, "older epoch must not shadow a newer resident");
        assert_eq!(m.snapshot(0).unwrap().synopsis.query(b"a"), 9.0);
    }

    #[test]
    fn borrowed_installs_serve_from_their_buffer_and_surface_stats() {
        let m = ShardManager::new();
        let f = synopsis(4.0);
        let bytes: Arc<[u8]> = f.to_bytes().into();
        let borrowed = FrozenSynopsis::from_bytes_shared(Arc::clone(&bytes)).unwrap();
        let snap = m.install_at(2, borrowed, None);
        assert!(
            Arc::ptr_eq(snap.synopsis.shared_bytes(), &bytes),
            "the snapshot must serve from the installed buffer"
        );
        assert_eq!(snap.synopsis, f, "borrowed decode is logically identical");
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
