//! Byte-level corpora of the on-disk snapshot store: damaged manifests and
//! payloads recover to the newest valid epoch, and a manifest of another
//! version is refused untouched. Crash points, rollback, retention and
//! restarts are checked by the seeded simulation in `serve_sim.rs`.

#[path = "common/serve.rs"]
mod serve_common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::serve::store::{
    snap_file_name, MANIFEST_HEADER, MANIFEST_NAME, MANIFEST_RECORD_LEN,
};
use dp_substring_counting::serve::{SnapshotStore, StoreError};
use serve_common::{scratch_dir, synthetic};

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

/// Manifest recovery corpora: truncations at (and inside) every record
/// boundary, a bit-flipped record, duplicate epochs, a missing payload
/// file, and a corrupt header all recover to the newest *valid* epoch —
/// and an empty directory is a fresh start, not an error.
#[test]
fn manifest_corpora_recover_last_valid_prefix() {
    let gens: Vec<FrozenSynopsis> = (0..3).map(|i| synthetic(100.0 * (i + 1) as f64)).collect();
    let payloads: Vec<Vec<u8>> = gens.iter().map(|g| g.to_bytes()).collect();

    // Build a clean 3-epoch store to copy corpora from.
    let master = scratch_dir("master");
    {
        let store = SnapshotStore::open(&master, 8).unwrap();
        for bytes in &payloads {
            store.persist(7, bytes).unwrap();
        }
    }
    let master_manifest = std::fs::read(manifest_path(&master)).unwrap();
    assert_eq!(master_manifest.len(), MANIFEST_HEADER.len() + 3 * MANIFEST_RECORD_LEN);

    let clone_master = |tag: &str| -> PathBuf {
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&master).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        dir
    };
    let recovered_epoch = |dir: &Path| -> Option<(u64, Vec<u8>)> {
        let store = SnapshotStore::open(dir, 8).expect("corrupt corpora must not wedge open");
        let mut recs = store.take_recovered();
        assert!(recs.len() <= 1);
        recs.pop().map(|r| (r.epoch, r.bytes.to_vec()))
    };

    // Truncation at every record boundary, and a cut inside each record.
    for keep in 0..=3usize {
        for extra in [0usize, 17] {
            let cut = MANIFEST_HEADER.len() + keep * MANIFEST_RECORD_LEN + extra;
            if cut > master_manifest.len() || (keep == 3 && extra > 0) {
                continue;
            }
            let dir = clone_master(&format!("trunc-{keep}-{extra}"));
            let truncated = master_manifest[..cut].to_vec();
            std::fs::write(manifest_path(&dir), &truncated).unwrap();
            match (keep, recovered_epoch(&dir)) {
                (0, got) => assert!(got.is_none(), "0 whole records → fresh-ish start"),
                (k, Some((epoch, bytes))) => {
                    assert_eq!(epoch, k as u64, "cut at {cut} keeps {k} records");
                    assert_eq!(bytes, payloads[k - 1], "payload bit-identical");
                }
                (k, None) => panic!("cut at {cut} lost all {k} retained epochs"),
            }
            // The repair is durable: a second open sees the same state
            // (torn tail rewritten, not re-discovered).
            let second = SnapshotStore::open(&dir, 8).unwrap();
            assert_eq!(
                second.retained_epochs(7).len(),
                keep,
                "repaired manifest replays identically"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // A bit flip inside record 1 (0-based): the valid prefix is record 0
    // only — recovery serves epoch 1 and discards the rest.
    {
        let dir = clone_master("bitflip");
        let mut bytes = master_manifest.clone();
        bytes[MANIFEST_HEADER.len() + MANIFEST_RECORD_LEN + 5] ^= 0x40;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("prefix survives the flip");
        assert_eq!(epoch, 1);
        assert_eq!(payload, payloads[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Duplicate epochs (a half-committed retry's signature): the later
    // occurrence wins and the retained list stays duplicate-free.
    {
        let dir = clone_master("dup");
        let mut bytes = master_manifest.clone();
        let first_rec = master_manifest
            [MANIFEST_HEADER.len()..MANIFEST_HEADER.len() + MANIFEST_RECORD_LEN]
            .to_vec();
        bytes.extend_from_slice(&first_rec);
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        let store = SnapshotStore::open(&dir, 8).unwrap();
        assert_eq!(store.retained_epochs(7), vec![1, 2, 3], "no duplicate epochs");
        let rec = store.take_recovered().pop().unwrap();
        assert_eq!(rec.epoch, 3, "newest epoch still wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Missing payload file for the newest epoch: fall back to epoch 2.
    {
        let dir = clone_master("missing");
        let newest = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("snap-"))
            .max()
            .unwrap();
        std::fs::remove_file(newest).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("older epoch takes over");
        assert_eq!(epoch, 2);
        assert_eq!(payload, payloads[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Bit rot in the newest payload file: the codec rejects it, epoch 2
    // takes over. Recovery hashes each payload byte once, in the codec,
    // so the codec alone must catch a flip of any byte: every byte of
    // the 168-byte header, every 7th byte of the sections and their zero
    // padding, and the 8 tail padding bytes, one flip per run (the
    // payload is 1,104 bytes, so a sparser stride would leave the
    // padding unprobed).
    let newest_payload = |dir: &Path| dir.join(snap_file_name(7, 3));
    {
        let len = payloads[2].len();
        let offsets: Vec<usize> =
            (0..168).chain((168..len).step_by(7)).chain(len - 8..len).collect();
        for at in offsets {
            let dir = clone_master(&format!("flip-{at}"));
            let mut bytes = payloads[2].clone();
            bytes[at] ^= 0xFF;
            std::fs::write(newest_payload(&dir), &bytes).unwrap();
            let (epoch, payload) = recovered_epoch(&dir).expect("older epoch takes over");
            assert_eq!(epoch, 2, "flip at byte {at} of {len} went unnoticed");
            assert_eq!(payload, payloads[1], "flip at byte {at}: epoch 2 bit-identical");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // A different valid snapshot of the same length in place of the
    // newest payload decodes cleanly; the digest compare refuses it.
    {
        let dir = clone_master("swapped");
        let impostor = synthetic(999.0).to_bytes();
        assert_eq!(impostor.len(), payloads[2].len());
        assert_ne!(impostor, payloads[2]);
        std::fs::write(newest_payload(&dir), &impostor).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("older epoch takes over");
        assert_eq!(epoch, 2, "a swapped-in valid payload must fail the digest compare");
        assert_eq!(payload, payloads[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A corrupt header means no record was ever committed: fresh start.
    {
        let dir = clone_master("header");
        let mut bytes = master_manifest.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        assert!(recovered_epoch(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(&master);
}

/// Every file of `dir`, by name, with its bytes.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A version-1 store (the manifest recorded each payload's whole-file
/// FNV-1a where version 2 records its `DPSF` header checksum) is refused
/// with a typed error by the store and by the daemon, and its directory
/// stays byte-identical: no repair, no sweep of its payloads.
#[test]
fn other_manifest_versions_are_refused_untouched() {
    let dir = scratch_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = b"DPSM\x01\x00\x00\x00".to_vec();
    for (i, base) in [10.0, 20.0].into_iter().enumerate() {
        let epoch = i as u64 + 1;
        let payload = synthetic(base).to_bytes();
        std::fs::write(dir.join(snap_file_name(0, epoch)), &payload).unwrap();
        let start = manifest.len();
        manifest.extend_from_slice(&0u32.to_le_bytes());
        for field in [epoch, epoch, payload.len() as u64, fnv1a(&payload)] {
            manifest.extend_from_slice(&field.to_le_bytes());
        }
        let sum = fnv1a(&manifest[start..]);
        manifest.extend_from_slice(&sum.to_le_bytes());
    }
    std::fs::write(manifest_path(&dir), &manifest).unwrap();
    // Leftovers a fresh start would sweep.
    std::fs::write(dir.join("MANIFEST.tmp"), b"torn").unwrap();
    std::fs::write(dir.join(snap_file_name(0, 9)), b"unreferenced").unwrap();
    let before = dir_contents(&dir);

    match SnapshotStore::open(&dir, 4) {
        Err(StoreError::ManifestVersion(1)) => {}
        other => panic!("a version-1 manifest must be refused, got {other:?}"),
    }
    assert_eq!(dir_contents(&dir), before, "a refused store is left byte-identical");

    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let err = Server::spawn(config, Arc::new(ShardManager::new()))
        .expect_err("the daemon refuses to serve a version-1 store");
    assert!(err.to_string().contains("manifest version 1"), "got: {err}");
    assert_eq!(dir_contents(&dir), before, "the daemon left the store byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}
