//! The daemon under test: an in-process `Server` on a loopback port with
//! a durable snapshot store. Its threads are found by name in `/proc` so
//! their CPU time can be read apart from the load generator's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsc_serve::{Client, Server, ServerConfig, ServerHandle, ShardManager};

use crate::procfs;

/// Name given to the thread that starts the daemon. Threads a Rust
/// program spawns without a name inherit their creator's, so the event
/// loop and the installer thread carry it too.
const DAEMON_THREAD: &str = "pb-daemon";

/// Threads the readiness core runs: the event loop and the installer.
pub const DAEMON_THREADS: usize = 2;

pub struct Daemon {
    handle: ServerHandle,
    pub addr: std::net::SocketAddr,
    /// The daemon's thread ids.
    pub tids: Vec<u32>,
}

impl Daemon {
    /// Binds a daemon over `store_dir`, recovering whatever the store
    /// holds before the first connection is accepted.
    pub fn spawn(store_dir: &Path) -> Daemon {
        let config =
            ServerConfig { store_dir: Some(store_dir.to_path_buf()), ..ServerConfig::default() };
        let handle = std::thread::Builder::new()
            .name(DAEMON_THREAD.to_string())
            .spawn(move || Server::spawn(config, Arc::new(ShardManager::new())))
            .expect("daemon starter thread spawns")
            .join()
            .expect("daemon starter thread finishes")
            .expect("daemon binds a loopback port");
        Daemon { addr: handle.addr(), handle, tids: Vec::new() }
    }

    /// Finds the daemon's threads by name, waiting for the event loop to
    /// start its installer thread.
    pub fn find_threads(&mut self) {
        let t0 = Instant::now();
        let mut tids = procfs::threads_named(DAEMON_THREAD);
        while tids.len() < DAEMON_THREADS && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
            tids = procfs::threads_named(DAEMON_THREAD);
        }
        assert_eq!(tids.len(), DAEMON_THREADS, "daemon threads not found by name: {tids:?}");
        self.tids = tids;
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr).expect("client connects to the daemon")
    }

    /// On-CPU nanoseconds of the daemon's threads so far.
    pub fn cpu_ns(&self) -> u64 {
        procfs::threads_cpu_ns(&self.tids)
    }

    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// A scratch store directory inside the checkout, removed on drop.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn new(out_dir: &Path, tag: &str) -> StoreDir {
        let dir = out_dir.join(format!("store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("store directory is creatable");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
