//! Helpers shared by the serving tests: `serve_daemon.rs`, `serve_store.rs`
//! and `serve_sim.rs` include this file with
//! `#[path = "common/serve.rs"] mod serve_common;`.

// Each binary uses a subset of the helpers.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::serve::StoreIo;

/// The 50 three-byte keys over `abcd` that [`synthetic`] stores.
pub fn probe_set() -> Vec<Vec<u8>> {
    (0..50u8).map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)]).collect()
}

/// A synopsis over the [`probe_set`] keys whose `i`-th count is
/// `base + i` and whose root count is `base`. Two of these with different
/// `base` disagree on every stored node, which is what makes a no-blend
/// assertion sharp; their snapshots have the same length.
pub fn synthetic(base: f64) -> FrozenSynopsis {
    let mut entries: Vec<(Vec<u8>, f64)> =
        probe_set().into_iter().enumerate().map(|(i, key)| (key, base + i as f64)).collect();
    entries.push((Vec::new(), base));
    let privacy = PrivacyParams::pure(2.0);
    PrivateCountStructure::from_entries(entries, CountMode::Substring, privacy, 3.0, 4.0, 50, 3)
        .expect("distinct keys")
        .freeze()
}

/// A directory path under the system temp dir, unique per process and
/// call, with nothing at it yet.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("dpsc-serve-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `StoreIo` that forwards every call to a shared inner one, so a test
/// keeps a handle on it (a `FaultyIo`'s op counter and crash flag) while
/// the store owns the box.
#[derive(Debug)]
pub struct SharedIo {
    pub inner: Arc<dyn StoreIo>,
    /// Runs before each `write_file`: a test can hold a persist there.
    pub before_write: Option<fn()>,
}

impl StoreIo for SharedIo {
    fn write_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
        if let Some(hook) = &self.before_write {
            hook();
        }
        self.inner.write_file(p, b)
    }
    fn append_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(p, b)
    }
    fn sync_file(&self, p: &Path) -> std::io::Result<()> {
        self.inner.sync_file(p)
    }
    fn sync_dir(&self, p: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(p)
    }
    fn rename(&self, a: &Path, b: &Path) -> std::io::Result<()> {
        self.inner.rename(a, b)
    }
    fn remove_file(&self, p: &Path) -> std::io::Result<()> {
        self.inner.remove_file(p)
    }
    fn read_file(&self, p: &Path) -> std::io::Result<Arc<[u8]>> {
        self.inner.read_file(p)
    }
    fn list_dir(&self, p: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list_dir(p)
    }
}
