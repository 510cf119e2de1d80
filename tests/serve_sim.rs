//! One seeded simulation of the serving daemon, checked against a model
//! after every step, in the style of FoundationDB's simulation testing
//! (Zhou et al., SIGMOD 2021).
//!
//! For each seed in [`SEEDS`], a `StdRng` drives one client through
//! [`STEPS`] random [`Step`]s against a live daemon: store-backed at even
//! positions, memory-only at odd ones (no `Rollback`, and a restart loses
//! every shard). A crash restart's store runs on a `FaultyIo` that kills
//! its first persist at one of eight crash points (DESIGN.md §15). After
//! every step the test asserts, against the [`Model`], that:
//! - every answer is bit-identical to the generation resident on that
//!   shard: no blended epochs, and no cache hit outlives its epoch;
//! - the shard map holds exactly the model's epochs, each served from the
//!   buffer it was installed or recovered from, with no second holder;
//! - `Stats`, `Metrics` and every trace event since boot but `Flush`
//!   (which depends on socket timing) match the model exactly;
//! - a restart recovers each corpus's newest durable epoch, and a repaired
//!   store directory holds exactly the retained payload files.
//!
//! A failure names its seed, step index and step. To replay a seed, make
//! it the only entry of [`SEEDS`]: it fails at the same step. (The
//! crash-plan coverage check after the seeds needs the full list.)

#[path = "common/serve.rs"]
mod serve_common;

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::serve::store::{snap_file_name, MANIFEST_NAME, MANIFEST_RECORD_LEN};
use dp_substring_counting::serve::wire::{decode_response, encode_request, MAX_FRAME_LEN};
use dp_substring_counting::serve::{
    CacheStats, FaultPlan, FaultyIo, OpCounts, OpKind, Request, Response, ServerStats, ShardStats,
    NO_SHARD,
};
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve_common::{probe_set, scratch_dir, synthetic, SharedIo};

/// The tier-1 seeds, run in order.
const SEEDS: [u64; 24] = [
    3, 14, 15, 92, 65, 35, 89, 79, 32, 38, 46, 26, 43, 383, 279, 50, 288, 419, 716, 939, 937, 510,
    582, 97,
];
const STEPS: usize = 64;
/// Installs land on shards `0..SHARDS`; lookups also route to shard
/// `SHARDS`, which is never loaded.
const SHARDS: u32 = 3;
/// Body bytes a `LoadSnapshot` frame's checksum covers: magic, version,
/// opcode, shard and snapshot length (19), then the 168-byte `DPSF`
/// header. The snapshot decode checks the bytes after them.
const LOAD_SUMMED: usize = 19 + 168;
/// No boot emits this many trace events, so a drain returns all of them.
const TRACE_CAPACITY: usize = 1 << 14;
/// The connection id of the client each boot connects first.
const MAIN: u64 = 1;
/// Mutating store ops of a persist into an existing store: write temp,
/// fsync temp, rename, fsync dir, append manifest record, fsync manifest.
const PERSIST_OPS: usize = 6;
/// A crash before each of the [`PERSIST_OPS`] (plans 0–5), a torn payload
/// temp write (6) and a torn manifest record (7). Only plan 5, after the
/// record is appended, leaves the new epoch durable.
const CRASH_PLANS: usize = 8;

fn crash_plan(plan: usize, partial: usize) -> FaultPlan {
    match plan {
        0..=5 => FaultPlan::crash_at(plan),
        6 => FaultPlan::crash_mid_write(0, partial),
        _ => FaultPlan::crash_mid_write(4, partial),
    }
}

/// A Theorem-1 release over a Markov corpus, with a present/absent
/// pattern mix from its documents.
fn dp_built(seed: u64) -> (FrozenSynopsis, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = markov_corpus(80, 16, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.5, 1.5);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    let mut patterns: Vec<Vec<u8>> =
        db.documents().iter().map(|doc| doc[..doc.len().min(5)].to_vec()).collect();
    for _ in 0..40 {
        let len = rng.gen_range(2..8usize);
        patterns.push((0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect());
    }
    (s.freeze(), patterns)
}

/// A release the steps install, with its canonical snapshot bytes.
struct Generation {
    synopsis: FrozenSynopsis,
    bytes: Arc<[u8]>,
}

/// One request of a [`Step::Requests`] burst. `pattern` indexes the
/// pattern pool; `Corrupt` XORs byte `at` of `gen`'s snapshot with `mask`;
/// `Batch` asks for pool patterns `first..first + n`, wrapping.
#[derive(Debug, Clone, Copy)]
enum Req {
    Load { shard: u32, gen: usize },
    Corrupt { shard: u32, gen: usize, at: usize, mask: u8 },
    Rollback { shard: u32, epoch: u64 },
    Query { shard: u32, pattern: usize },
    Batch { shard: u32, first: usize, n: usize },
    Contains { shard: u32, pattern: usize },
    Stats,
}

/// One simulation step:
/// - `Requests`: written back to back before any answer is read;
/// - `OversizedPrefix`: a raw connection whose first frame claims `len`
///   body bytes;
/// - `FlippedChecksum`: a raw connection sends a `Query` frame with
///   checksum bit `bit` flipped, then the intact frame, and stays open;
/// - `FlippedInTransit`: a raw connection sends a sealed `LoadSnapshot`
///   of `gen` whose body byte `at` is XORed with `mask` after sealing,
///   then a `QueryBatch` on the same shard, and stays open;
/// - `CrashRestart`: a restart on a store whose first persist, installing
///   `gen` on `shard`, dies under crash plan `plan`.
#[derive(Debug)]
enum Step {
    Requests(Vec<Req>),
    Metrics,
    Trace,
    OversizedPrefix { len: u32 },
    FlippedChecksum { shard: u32, pattern: usize, bit: usize },
    FlippedInTransit { shard: u32, gen: usize, at: usize, mask: u8 },
    Restart,
    CrashRestart { plan: usize, partial: usize, shard: u32, gen: usize },
}

/// The model's answer to a request: `Err(needle)` stands for an error
/// whose message contains `needle`.
type Want = Result<Response, &'static str>;

/// A durable manifest record: its epoch, the epoch whose payload file
/// holds its bytes, and the generation those bytes are.
#[derive(Debug, Clone, Copy)]
struct Record {
    epoch: u64,
    src: u64,
    gen: usize,
}

/// What the daemon must serve and report.
#[derive(Debug, Default)]
struct Model {
    store: bool,
    retain: usize,
    /// Per shard, the retained records a store reopen recovers, ascending.
    durable: BTreeMap<u32, Vec<Record>>,
    /// Per shard, epochs once committed and since pruned.
    pruned: BTreeMap<u32, Vec<u64>>,
    next_durable: u64,
    /// A crash fired in this boot: every later store operation fails.
    crashed: bool,
    /// A crash fired since the store directory was last repaired.
    dirty: bool,
    // Everything below restarts with each boot.
    /// Shard → (epoch, generation).
    resident: BTreeMap<u32, (u64, usize)>,
    /// The shard manager's next epoch (memory-only installs).
    next_epoch: u64,
    next_conn: u64,
    /// Query-cache keys: (shard, epoch, pattern).
    cached: HashSet<(u32, u64, Vec<u8>)>,
    hits: u64,
    misses: u64,
    /// Trace events but `Flush`, with `seq`, `ts_ns` and `dur_ns` zeroed.
    events: Vec<TraceEvent>,
}

impl Model {
    /// A new boot: per-boot state restarts, a store-backed daemon
    /// recovers each shard's newest durable record, the client connects.
    fn boot(&mut self) {
        let (durable, pruned) =
            (std::mem::take(&mut self.durable), std::mem::take(&mut self.pruned));
        *self =
            Model { store: self.store, retain: self.retain, durable, pruned, ..Model::default() };
        self.apply_retention();
        (self.next_epoch, self.next_conn) = (1, 1);
        self.next_durable =
            1 + self.durable.values().flatten().map(|r| r.epoch.max(r.src)).max().unwrap_or(0);
        let newest: Vec<(u32, Record)> =
            self.durable.iter().map(|(&shard, recs)| (shard, recs[recs.len() - 1])).collect();
        for (shard, rec) in newest {
            self.resident.insert(shard, (rec.epoch, rec.gen));
            self.push(TraceKind::Recovery, 0, shard, rec.epoch, 0, 0);
        }
        assert_eq!(self.connect(), MAIN);
    }

    fn connect(&mut self) -> u64 {
        let conn = self.next_conn;
        self.next_conn += 1;
        self.push(TraceKind::ConnAccepted, conn, NO_SHARD, 0, 0, 0);
        conn
    }

    /// Appends a predicted trace event (`seq`, `ts_ns` and `dur_ns` stay 0).
    fn push(
        &mut self,
        kind: TraceKind,
        conn: u64,
        shard: u32,
        epoch: u64,
        len: usize,
        detail: u64,
    ) {
        let len = len as u32;
        self.events.push(TraceEvent { conn, shard, epoch, len, detail, ..TraceEvent::new(kind) });
    }

    /// One decoded request answered: its frame event, which carries the
    /// wire opcode in `detail`. `len` is the pattern length, the batch size
    /// or the snapshot length.
    fn answered(&mut self, op: OpKind, conn: u64, shard: u32, fp: u64, len: usize, err: bool) {
        let kind = if err { TraceKind::FrameError } else { TraceKind::FrameAnswered };
        self.push(kind, conn, shard, 0, len, op.wire_code() as u64);
        self.events.last_mut().expect("just pushed").fingerprint = fp;
    }

    /// The `Metrics` counters the predicted events imply: op counts; then
    /// lookups served, recoveries, rollbacks, connections accepted and
    /// open; then requests per shard id. A frame that never decoded has
    /// `detail` `u64::MAX` and counts as an error of no op.
    fn counters(&self) -> (OpCounts, [u64; 5], BTreeMap<u32, u64>) {
        let (mut o, mut n, mut per_shard) = (OpCounts::default(), [0u64; 5], BTreeMap::new());
        for e in &self.events {
            match e.kind {
                TraceKind::Recovery => n[1] += 1,
                TraceKind::RollbackCommitted => n[2] += 1,
                TraceKind::ConnAccepted => (n[3], n[4]) = (n[3] + 1, n[4] + 1),
                TraceKind::ConnClosed => n[4] -= 1,
                TraceKind::FrameError => o.errors += 1,
                _ => {}
            }
            let answered = e.kind == TraceKind::FrameAnswered;
            if !(answered || e.kind == TraceKind::FrameError) || e.detail == u64::MAX {
                continue;
            }
            // Indexed by wire opcode (DESIGN.md §11, §16).
            let ops = [
                &mut o.query,
                &mut o.query_batch,
                &mut o.contains,
                &mut o.stats,
                &mut o.load_snapshot,
                &mut o.shutdown,
                &mut o.metrics,
                &mut o.rollback,
                &mut o.trace,
                &mut o.metrics_text,
            ];
            *ops.into_iter().nth(e.detail as usize).expect("a wire opcode") += 1;
            if answered {
                // Lookups: one per Query (opcode 0) and Contains (2), the
                // batch size per QueryBatch (1).
                n[0] += [1, u64::from(e.len), 1].get(e.detail as usize).copied().unwrap_or(0);
            }
            if e.shard != NO_SHARD {
                *per_shard.entry(e.shard).or_default() += 1;
            }
        }
        (o, n, per_shard)
    }

    /// One lookup through the cache; `None` for an unknown shard.
    fn lookup(&mut self, gens: &[Generation], shard: u32, pattern: &[u8]) -> Option<f64> {
        let &(epoch, gen) = self.resident.get(&shard)?;
        if self.cached.insert((shard, epoch, pattern.to_vec())) {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        Some(gens[gen].synopsis.query(pattern))
    }

    /// A committed manifest record, then retention over every shard.
    fn commit(&mut self, shard: u32, rec: Record) {
        self.durable.entry(shard).or_default().push(rec);
        self.apply_retention();
    }

    /// Prunes each shard's oldest records beyond the retention depth, as
    /// a commit and a store reopen both do.
    fn apply_retention(&mut self) {
        for (&shard, recs) in self.durable.iter_mut() {
            while recs.len() > self.retain {
                self.pruned.entry(shard).or_default().push(recs.remove(0).epoch);
            }
        }
    }

    /// A snapshot swapped in; `detail` is the epoch a rollback restored.
    fn install(&mut self, shard: u32, epoch: u64, gen: usize, len: usize, detail: u64) {
        self.resident.insert(shard, (epoch, gen));
        self.push(TraceKind::SnapshotInstalled, 0, shard, epoch, len, detail);
    }

    fn load(&mut self, gens: &[Generation], shard: u32, gen: usize) -> Want {
        if self.crashed {
            self.next_durable += 1;
            return Err("not persisted");
        }
        let len = gens[gen].bytes.len();
        let epoch = if self.store {
            let epoch = self.next_durable;
            self.next_durable += 1;
            for op in 0..PERSIST_OPS as u64 {
                self.push(TraceKind::StoreOp, 0, shard, epoch, 0, op);
            }
            self.push(TraceKind::PersistCommitted, 0, shard, epoch, len, 0);
            self.commit(shard, Record { epoch, src: epoch, gen });
            epoch
        } else {
            self.next_epoch += 1;
            self.next_epoch - 1
        };
        self.install(shard, epoch, gen, len, 0);
        Ok(Response::LoadSnapshot { epoch, node_count: gens[gen].synopsis.node_count() as u64 })
    }

    fn rollback(&mut self, gens: &[Generation], shard: u32, epoch: u64) -> Want {
        if !self.store {
            return Err("without a snapshot store");
        } else if self.crashed {
            return Err("rollback refused");
        }
        let target =
            self.durable.get(&shard).and_then(|recs| recs.iter().find(|r| r.epoch == epoch));
        let Some(&rec) = target else { return Err("not retained") };
        let new = self.next_durable;
        self.next_durable += 1;
        self.push(TraceKind::StoreOp, 0, shard, new, 0, 4);
        self.push(TraceKind::StoreOp, 0, shard, new, 0, 5);
        self.push(TraceKind::RollbackCommitted, 0, shard, new, 0, epoch);
        self.commit(shard, Record { epoch: new, ..rec });
        self.install(shard, new, rec.gen, gens[rec.gen].bytes.len(), epoch);
        Ok(Response::Rollback { epoch: new })
    }

    fn cache_stats(&self) -> CacheStats {
        let (hits, misses, entries) = (self.hits, self.misses, self.cached.len() as u64);
        CacheStats {
            hits,
            misses,
            entries,
            capacity: ServerConfig::default().cache_capacity as u64,
        }
    }
}

/// One boot of the daemon under simulation.
struct Daemon {
    handle: ServerHandle,
    manager: Arc<ShardManager>,
    client: Client,
    /// Raw connections left open by [`Step::FlippedChecksum`] and
    /// [`Step::FlippedInTransit`].
    raws: Vec<TcpStream>,
}

struct Sim<'a> {
    gens: &'a [Generation],
    pool: &'a [Vec<u8>],
    rng: StdRng,
    /// The store directory of a store-backed daemon.
    dir: Option<PathBuf>,
    model: Model,
    daemon: Option<Daemon>,
    /// Crash plans that fired.
    fired: BTreeSet<usize>,
}

impl Sim<'_> {
    fn daemon(&mut self) -> &mut Daemon {
        self.daemon.as_mut().expect("the daemon is up")
    }

    /// Boots a daemon on the store, if any: on the real filesystem, or
    /// through `faulty`.
    fn boot(&mut self, faulty: Option<&Arc<FaultyIo>>) {
        let manager = Arc::new(ShardManager::new());
        let mut config = ServerConfig { trace_capacity: TRACE_CAPACITY, ..ServerConfig::default() };
        let retain = self.model.retain;
        match (&self.dir, faulty) {
            (None, _) => {}
            (Some(dir), None) => {
                (config.store_dir, config.retain_epochs) = (Some(dir.clone()), retain)
            }
            (Some(dir), Some(io)) => {
                let shared = Box::new(SharedIo { inner: Arc::clone(io) as _, before_write: None });
                let store = SnapshotStore::open_with(dir, retain, shared).expect("store opens");
                assert_eq!(io.ops_executed(), 0, "recovery of a repaired store mutated it");
                config.store = Some(Arc::new(store));
            }
        }
        let handle = Server::spawn(config, Arc::clone(&manager)).expect("daemon binds");
        let client = Client::connect(handle.addr()).expect("client connects");
        self.daemon = Some(Daemon { handle, manager, client, raws: Vec::new() });
        self.model.boot();
    }

    fn call(&mut self, req: Req) -> Response {
        let wire = self.request(req);
        self.daemon().client.call(&wire).expect("the daemon answers")
    }

    fn shut_down(&mut self) {
        let daemon = self.daemon.take().expect("the daemon is up");
        drop((daemon.client, daemon.raws));
        daemon.handle.shutdown();
    }

    fn raw_connect(&mut self) -> (TcpStream, u64) {
        let raw = TcpStream::connect(self.daemon().handle.addr()).expect("raw connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        (raw, self.model.connect())
    }

    fn pick(&mut self) -> Step {
        let (load_shard, gen) =
            (self.rng.gen_range(0..SHARDS), self.rng.gen_range(0..self.gens.len()));
        match self.rng.gen_range(0..17u32) {
            0..=8 => self.pick_requests(),
            9 => Step::Metrics,
            10 => Step::Trace,
            11 => Step::OversizedPrefix {
                len: self.rng.gen_range(MAX_FRAME_LEN as u64 + 1..1 << 32) as u32,
            },
            12 => {
                let (shard, pattern) =
                    (self.rng.gen_range(0..=SHARDS), self.rng.gen_range(0..self.pool.len()));
                Step::FlippedChecksum { shard, pattern, bit: self.rng.gen_range(0..64) }
            }
            13 => Step::Restart,
            14 => {
                // Half the flips land in the checksummed prefix.
                let body_len = 19 + self.gens[gen].bytes.len() + 8;
                let end = if self.rng.gen() { LOAD_SUMMED } else { body_len };
                let (at, mask) = (self.rng.gen_range(0..end), 1u8 << self.rng.gen_range(0..8u32));
                Step::FlippedInTransit { shard: load_shard, gen, at, mask }
            }
            _ if !self.model.store => self.pick_requests(),
            // After a crash, the next boot repairs the store.
            _ if self.model.dirty => Step::Restart,
            _ => {
                let plan = self.rng.gen_range(0..CRASH_PLANS);
                let torn = if plan == 6 { self.gens[gen].bytes.len() } else { MANIFEST_RECORD_LEN };
                Step::CrashRestart {
                    plan,
                    partial: self.rng.gen_range(1..torn),
                    shard: load_shard,
                    gen,
                }
            }
        }
    }

    fn pick_requests(&mut self) -> Step {
        let n = self.rng.gen_range(1..=4);
        Step::Requests((0..n).map(|_| self.pick_req()).collect())
    }

    fn pick_req(&mut self) -> Req {
        let rng = &mut self.rng;
        let (shard, load_shard) = (rng.gen_range(0..=SHARDS), rng.gen_range(0..SHARDS));
        let (gen, pattern) = (rng.gen_range(0..self.gens.len()), rng.gen_range(0..self.pool.len()));
        match rng.gen_range(0..16u32) {
            0..=2 => Req::Load { shard: load_shard, gen },
            3 => {
                let (at, mask) =
                    (rng.gen_range(0..self.gens[gen].bytes.len()), 1u8 << rng.gen_range(0..8u32));
                Req::Corrupt { shard: load_shard, gen, at, mask }
            }
            4..=5 => {
                let retained = self.model.durable.get(&load_shard).map_or(&[][..], |r| &r[..]);
                let pruned = self.model.pruned.get(&load_shard).map_or(&[][..], |p| &p[..]);
                let epoch = match rng.gen_range(0..4) {
                    0 | 1 if !retained.is_empty() => {
                        retained[rng.gen_range(0..retained.len())].epoch
                    }
                    2 if !pruned.is_empty() => pruned[rng.gen_range(0..pruned.len())],
                    _ => (1 << 40) + rng.gen_range(0..1000u64),
                };
                Req::Rollback { shard: load_shard, epoch }
            }
            6..=8 => Req::Query { shard, pattern },
            9..=11 => Req::Batch { shard, first: pattern, n: rng.gen_range(1..=16) },
            12..=14 => Req::Contains { shard, pattern },
            _ => Req::Stats,
        }
    }

    fn request(&self, req: Req) -> Request {
        let gens = self.gens;
        match req {
            Req::Load { shard, gen } => {
                Request::LoadSnapshot { shard, snapshot: Arc::clone(&gens[gen].bytes) }
            }
            Req::Corrupt { shard, gen, at, mask } => {
                let mut bytes = gens[gen].bytes.to_vec();
                bytes[at] ^= mask;
                Request::LoadSnapshot { shard, snapshot: bytes.into() }
            }
            Req::Rollback { shard, epoch } => Request::Rollback { shard, epoch },
            Req::Query { shard, pattern } => {
                Request::Query { shard, pattern: self.pool[pattern].clone() }
            }
            Req::Batch { shard, first, n } => {
                Request::QueryBatch { shard, patterns: batch_patterns(self.pool, first, n) }
            }
            Req::Contains { shard, pattern } => {
                Request::Contains { shard, pattern: self.pool[pattern].clone() }
            }
            Req::Stats => Request::Stats,
        }
    }

    /// The model's answer to `req` from connection `conn`, recorded.
    fn expect(&mut self, conn: u64, req: Req) -> Want {
        let (gens, pool, m) = (self.gens, self.pool, &mut self.model);
        let (op, shard, fp, len) = match req {
            Req::Load { shard, gen } | Req::Corrupt { shard, gen, .. } => {
                (OpKind::LoadSnapshot, shard, 0, gens[gen].bytes.len())
            }
            Req::Rollback { shard, .. } => (OpKind::Rollback, shard, 0, 0),
            Req::Query { shard, pattern: p } => {
                (OpKind::Query, shard, fnv1a(&pool[p]), pool[p].len())
            }
            Req::Batch { shard, first, n } => {
                (OpKind::QueryBatch, shard, fnv1a(&pool[first % pool.len()]), n)
            }
            Req::Contains { shard, pattern: p } => {
                (OpKind::Contains, shard, fnv1a(&pool[p]), pool[p].len())
            }
            Req::Stats => (OpKind::Stats, NO_SHARD, 0, 0),
        };
        let known = |r: Option<Response>| Ok(r.unwrap_or_else(|| unknown_shard(shard)));
        let want = match req {
            Req::Load { gen, .. } => m.load(gens, shard, gen),
            Req::Corrupt { .. } => Err("snapshot rejected"),
            Req::Rollback { epoch, .. } => m.rollback(gens, shard, epoch),
            Req::Query { pattern: p, .. } => {
                known(m.lookup(gens, shard, &pool[p]).map(|value| Response::Query { value }))
            }
            Req::Batch { first, n, .. } => {
                let batch = batch_patterns(pool, first, n);
                let values: Option<Vec<f64>> =
                    batch.iter().map(|p| m.lookup(gens, shard, p)).collect();
                known(values.map(|values| Response::QueryBatch { values }))
            }
            Req::Contains { pattern: p, .. } => known(m.resident.get(&shard).map(|&(_, g)| {
                Response::Contains { present: gens[g].synopsis.contains(&pool[p]) }
            })),
            Req::Stats => {
                let shards = m.resident.iter().map(|(&s, &(e, g))| shard_stats(s, e, &gens[g]));
                Ok(Response::Stats(ServerStats {
                    cache: m.cache_stats(),
                    shards: shards.collect(),
                }))
            }
        };
        m.answered(op, conn, shard, fp, len, matches!(want, Err(_) | Ok(Response::Error { .. })));
        want
    }

    fn apply(&mut self, step: &Step) {
        match *step {
            Step::Requests(ref reqs) => {
                let wire: Vec<Request> = reqs.iter().map(|&req| self.request(req)).collect();
                let got = self.daemon().client.pipeline(&wire).expect("the daemon answers");
                assert_eq!(got.len(), reqs.len());
                for (got, &req) in got.iter().zip(reqs) {
                    check(got, self.expect(MAIN, req));
                }
            }
            Step::Metrics => {
                let report = self.daemon().client.metrics().expect("metrics answered");
                self.check_metrics(&report);
                self.model.answered(OpKind::Metrics, MAIN, NO_SHARD, 0, 0, false);
            }
            Step::Trace => {
                let events = self.daemon().client.trace(u32::MAX).expect("trace answered");
                self.check_trace(&events);
                self.model.answered(OpKind::Trace, MAIN, NO_SHARD, 0, 0, false);
            }
            Step::OversizedPrefix { len } => {
                let (mut raw, conn) = self.raw_connect();
                // One write: bytes arriving after the close would reset it.
                let garbage = [&len.to_le_bytes()[..], &[0xFF; 12]].concat();
                raw.write_all(&garbage).expect("garbage written");
                check(&read_frame(&mut raw), Err(""));
                let eof = raw.read(&mut [0u8; 16]).expect("clean EOF");
                assert_eq!(eof, 0, "bytes after the error frame");
                self.model.push(TraceKind::FrameError, conn, NO_SHARD, 0, 0, u64::MAX);
                self.model.push(TraceKind::ConnClosed, conn, NO_SHARD, 0, 0, 0);
            }
            Step::FlippedChecksum { shard, pattern, bit } => {
                let (mut raw, conn) = self.raw_connect();
                let frame = encode_request(&self.request(Req::Query { shard, pattern }));
                let mut bad = frame.clone();
                bad[frame.len() - 8 + bit / 8] ^= 1 << (bit % 8);
                raw.write_all(&bad).expect("damaged frame written");
                check(&read_frame(&mut raw), Err(""));
                self.model.push(TraceKind::FrameError, conn, NO_SHARD, 0, bad.len(), u64::MAX);
                raw.write_all(&frame).expect("intact frame written");
                check(&read_frame(&mut raw), self.expect(conn, Req::Query { shard, pattern }));
                self.daemon().raws.push(raw);
            }
            Step::FlippedInTransit { shard, gen, at, mask } => {
                let (mut raw, conn) = self.raw_connect();
                let mut bad = encode_request(&self.request(Req::Load { shard, gen }));
                bad[4 + at] ^= mask;
                raw.write_all(&bad).expect("damaged install written");
                // The frame check refuses a flip in the envelope, the DPSF
                // header or the checksum; the snapshot decode one in the
                // sections or padding. Either way the prior epoch serves.
                let body_len = bad.len() - 4;
                if at < LOAD_SUMMED || at >= body_len - 8 {
                    let needle = match at {
                        0..=3 => "magic",
                        4..=5 => "version",
                        _ => "checksum mismatch",
                    };
                    check(&read_frame(&mut raw), Err(needle));
                    self.model.push(TraceKind::FrameError, conn, NO_SHARD, 0, bad.len(), u64::MAX);
                } else {
                    let req = Req::Corrupt { shard, gen, at: at - 19, mask };
                    check(&read_frame(&mut raw), self.expect(conn, req));
                }
                let req = Req::Batch { shard, first: 0, n: 16 };
                raw.write_all(&encode_request(&self.request(req))).expect("batch written");
                check(&read_frame(&mut raw), self.expect(conn, req));
                self.daemon().raws.push(raw);
            }
            Step::Restart => {
                self.shut_down();
                self.boot(None);
            }
            Step::CrashRestart { plan, partial, shard, gen } => {
                self.shut_down();
                let faulty = Arc::new(FaultyIo::new(crash_plan(plan, partial)));
                self.boot(Some(&faulty));
                check(&self.call(Req::Load { shard, gen }), Err("not persisted"));
                assert!(faulty.is_dead(), "crash plan {plan} never fired");
                self.fired.insert(plan);
                let m = &mut self.model;
                let epoch = m.next_durable;
                m.next_durable += 1;
                let done = [0, 1, 2, 3, 4, 5, 0, 4][plan];
                (0..done).for_each(|op| m.push(TraceKind::StoreOp, 0, shard, epoch, 0, op));
                let len = self.gens[gen].bytes.len();
                m.answered(OpKind::LoadSnapshot, MAIN, shard, 0, len, true);
                // Plan 5 dies after the record's append: the epoch is
                // durable, and the next boot's recovery applies retention.
                if plan == 5 {
                    m.durable.entry(shard).or_default().push(Record { epoch, src: epoch, gen });
                }
                (m.crashed, m.dirty) = (true, true);
                // The live daemon keeps serving what it served before.
                let req = Req::Batch { shard, first: 0, n: 50 };
                check(&self.call(req), self.expect(MAIN, req));
            }
        }
    }

    fn check_metrics(&self, r: &MetricsReport) {
        let m = &self.model;
        let (o, [patterns, recoveries, rollbacks, accepted, open], per_shard) = m.counters();
        assert_eq!(r.ops, o, "op counters");
        let got = (r.patterns_total, r.recoveries_total, r.rollbacks_total);
        assert_eq!(got, (patterns, recoveries, rollbacks), "lookups, recoveries, rollbacks");
        assert_eq!((r.conns_accepted, r.conns_open), (accepted, open), "connections");
        let quiet =
            (r.overloaded_total, r.idle_reaped_total, r.deadline_evicted_total, r.slow_ops_total);
        assert_eq!(
            quiet,
            (0, 0, 0, 0),
            "an unstressed daemon sheds, reaps, evicts and logs nothing"
        );
        assert_eq!(r.trace_overwritten_total, 0);
        assert!(r.trace_events_total >= m.events.len() as u64);
        assert_eq!(r.cache, m.cache_stats(), "cache counters");
        let lookups = m.hits + m.misses;
        assert_eq!(
            r.cache_hit_rate,
            if lookups == 0 { 0.0 } else { m.hits as f64 / lookups as f64 }
        );
        assert!(r.uptime_ns > 0);
        assert_eq!(r.qps > 0.0, patterns > 0, "qps is live exactly when patterns were served");
        let l = &r.op_latency;
        let ran = [o.query, o.query_batch, o.contains, o.load_snapshot, o.rollback, o.trace];
        let lat = [l.query, l.query_batch, l.contains, l.load_snapshot, l.rollback, l.trace];
        for (i, (n, lat)) in ran.into_iter().zip(lat).enumerate() {
            assert_eq!(lat.p50_ns > 0.0, n > 0, "op {i}: p50 is live exactly when the op ran");
            assert!(lat.p99_ns >= lat.p50_ns, "op {i}: p99 below p50");
        }
        assert!(r.latency_p99_ns >= r.latency_p50_ns);
        let want: Vec<(u32, u64, u64, u64)> = (m.resident.iter())
            .map(|(&s, &(e, g))| {
                (s, e, self.gens[g].bytes.len() as u64, per_shard.get(&s).copied().unwrap_or(0))
            })
            .collect();
        let got: Vec<(u32, u64, u64, u64)> =
            r.shards.iter().map(|s| (s.shard_id, s.epoch, s.serialized_len, s.ops)).collect();
        assert_eq!(got, want, "per-shard (id, epoch, serialized_len, ops)");
        assert!(r.shards.iter().all(|s| s.latency_p99_ns >= s.latency_p50_ns));
    }

    fn check_trace(&self, events: &[TraceEvent]) {
        assert_eq!(events.first().map(|e| e.seq), Some(0), "the ring holds every event since boot");
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "a drain is dense and ordered");
            assert!(w[1].ts_ns >= w[0].ts_ns, "timestamps are monotone");
        }
        let mut answered = events.iter().filter(|e| e.kind == TraceKind::FrameAnswered);
        assert!(answered.all(|e| e.dur_ns > 0), "service latency recorded");
        let got: Vec<TraceEvent> = (events.iter().filter(|e| e.kind != TraceKind::Flush))
            .map(|e| TraceEvent { seq: 0, ts_ns: 0, dur_ns: 0, ..*e })
            .collect();
        let want = &self.model.events;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "trace event {i} of {}", want.len());
        }
        assert_eq!(got.len(), want.len(), "trace events");
    }

    /// The shard map against the model, and a repaired store directory
    /// against the retained records.
    fn check_invariants(&self) {
        let daemon = self.daemon.as_ref().expect("the daemon is up");
        for shard in 0..=SHARDS {
            match (daemon.manager.snapshot(shard), self.model.resident.get(&shard)) {
                (None, None) => {}
                (Some(snap), Some(&(epoch, gen))) => {
                    assert_eq!(snap.epoch, epoch, "shard {shard}: resident epoch");
                    let buf = snap.synopsis.shared_bytes();
                    assert!(
                        buf[..] == self.gens[gen].bytes[..],
                        "shard {shard}: not generation {gen}"
                    );
                    assert_eq!(Arc::strong_count(buf), 1, "shard {shard}: a second copy holder");
                }
                (live, want) => {
                    panic!("shard {shard}: resident {:?}, model {want:?}", live.map(|s| s.epoch))
                }
            }
        }
        if let (Some(dir), false) = (&self.dir, self.model.dirty) {
            let want: BTreeSet<String> = (self.model.durable.iter())
                .flat_map(|(&shard, recs)| recs.iter().map(move |r| snap_file_name(shard, r.src)))
                .collect();
            assert_eq!(store_files(dir), want, "payload files on disk");
        }
    }
}

/// The file names in `dir` but the manifest: payloads and any temp file.
fn store_files(dir: &Path) -> BTreeSet<String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return BTreeSet::new() };
    let names = entries.map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned());
    names.filter(|name| name != MANIFEST_NAME).collect()
}

fn unknown_shard(shard: u32) -> Response {
    Response::Error { message: format!("unknown shard {shard}") }
}

/// `got` against the model's answer: equal, with every served count equal
/// bit for bit, or an error containing the expected needle.
fn check(got: &Response, want: Want) {
    let bits = |r: &Response| match r {
        Response::Query { value } => vec![value.to_bits()],
        Response::QueryBatch { values } => values.iter().map(|v| v.to_bits()).collect(),
        _ => Vec::new(),
    };
    match (got, want) {
        (got, Ok(want)) => {
            assert_eq!(*got, want);
            assert_eq!(bits(got), bits(&want), "answers are not bit-identical");
        }
        (Response::Error { message }, Err(needle)) if message.contains(needle) => {}
        (got, Err(needle)) => panic!("expected an error containing {needle:?}, got {got:?}"),
    }
}

fn shard_stats(shard_id: u32, epoch: u64, gen: &Generation) -> ShardStats {
    let s = &gen.synopsis;
    let (n_docs, max_len) = s.db_params();
    let (node_count, serialized_len) = (s.node_count() as u64, gen.bytes.len() as u64);
    let (epsilon, delta) = (s.privacy().epsilon, s.privacy().delta);
    let (alpha, alpha_counts, alpha_absent) = (s.alpha(), s.alpha_counts(), s.alpha_absent());
    let (n_docs, max_len) = (n_docs as u64, max_len as u64);
    ShardStats {
        shard_id,
        epoch,
        node_count,
        serialized_len,
        n_docs,
        max_len,
        epsilon,
        delta,
        alpha,
        alpha_counts,
        alpha_absent,
    }
}

/// Pool patterns `first..first + n`, wrapping.
fn batch_patterns(pool: &[Vec<u8>], first: usize, n: usize) -> Vec<Vec<u8>> {
    (first..first + n).map(|i| pool[i % pool.len()].clone()).collect()
}

fn read_frame(raw: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("a response frame");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut body).expect("the frame body");
    decode_response(&body).expect("a well-formed response frame")
}

/// A follow-up persist into an existing store is exactly [`PERSIST_OPS`]
/// mutating ops. If the protocol grows an op, this fails until the crash
/// enumeration grows with it.
fn check_persist_op_count(gen: &Generation) {
    let dir = scratch_dir("count");
    let counter = Arc::new(FaultyIo::new(FaultPlan::counting()));
    let io = Box::new(SharedIo { inner: Arc::clone(&counter) as _, before_write: None });
    let store = SnapshotStore::open_with(&dir, 4, io).unwrap();
    store.persist(0, &gen.bytes).unwrap();
    let first = counter.ops_executed();
    store.persist(0, &gen.bytes).unwrap();
    assert_eq!(counter.ops_executed() - first, PERSIST_OPS, "extend the crash enumeration");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_daemon_simulation_matches_its_model() {
    let (dp, dp_patterns) = dp_built(31);
    let gens: Vec<Generation> = [dp, synthetic(1_000.0), synthetic(9_000.0), synthetic(-3.5)]
        .into_iter()
        .map(|synopsis| Generation { bytes: synopsis.to_bytes().into(), synopsis })
        .collect();
    check_persist_op_count(&gens[1]);

    // The synthetic keys come first: the crash step batches pool[..50].
    let mut pool = probe_set();
    pool.extend(dp_patterns);
    pool.extend([Vec::new(), b"abcda".to_vec(), b"zz".to_vec()]);

    // Two lanes of seeds run side by side; each seed is deterministic alone.
    let lane = |lane: usize| -> BTreeSet<usize> {
        let seeds = SEEDS.iter().enumerate().filter(|(i, _)| i / 2 % 2 == lane);
        seeds.flat_map(|(i, &seed)| run_seed(seed, i % 2 == 0, &gens, &pool)).collect()
    };
    let fired: BTreeSet<usize> = std::thread::scope(|s| {
        let other = s.spawn(|| lane(1));
        lane(0).into_iter().chain(other.join().expect("no seed failed")).collect()
    });
    assert_eq!(fired.len(), CRASH_PLANS, "the seeds must fire every crash plan: {fired:?}");
}

/// Runs one seed against a fresh daemon; returns the crash plans it fired.
fn run_seed(seed: u64, store: bool, gens: &[Generation], pool: &[Vec<u8>]) -> BTreeSet<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let retain = rng.gen_range(1..=3usize);
    let dir = store.then(|| scratch_dir(&format!("sim-{seed}")));
    let model = Model { store, retain, ..Model::default() };
    let mut sim = Sim { gens, pool, rng, dir, model, daemon: None, fired: BTreeSet::new() };
    sim.boot(None);
    for step_index in 0..STEPS {
        let step = sim.pick();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            sim.apply(&step);
            sim.check_invariants();
        }));
        if outcome.is_err() {
            let kind = if store { "store-backed" } else { "memory-only" };
            panic!("seed {seed} ({kind}, retain {retain}), step {step_index} {step:?} failed");
        }
    }
    sim.shut_down();
    if let Some(dir) = &sim.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    sim.fired
}
