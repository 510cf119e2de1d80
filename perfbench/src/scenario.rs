//! The four workloads. Every workload runs the same stages so that every
//! end-to-end metric is measured on every workload; what differs is the
//! data and where the time goes:
//!
//! 1. set-up, repeated [`SETUPS`] times (`setup_s` is the median): make
//!    the corpora, release the served shards (`build_s` on the serve
//!    workloads), start a daemon over a fresh durable store, install
//!    every shard over the wire and check a probe batch per shard;
//! 2. `build` only: the first release job, then its release is served;
//! 3. [`ROUNDS`] rounds, each of which runs, in order:
//!    - the choice of the CPU for the traffic (see [`Placement`]);
//!    - `build` only: one more release job;
//!    - traffic at the workload's nominal rate (latency, server CPU);
//!    - installs: beside the traffic on `serve-reload`, after it on the
//!      others;
//!    - cold restarts over the store until the first bit-identical
//!      answer;
//! 4. traced runs only, in the last round after its traffic: a ladder of
//!    rates (the highest that holds the p99 limit).
//!
//! A shared host slows the whole machine in bursts of milliseconds to
//! spells of minutes, so the timed figures other than `setup_s` are taken
//! from the run's quiet moments: latency and server CPU are the
//! [`QUIET`] quantile over the rounds' short traffic windows; installs
//! and restarts are the median of the fastest round; builds are the
//! fastest build.
//!
//! With tracing on, the same run also replays each layer on the
//! workload's own inputs (see `layers`) and reports per-layer metrics.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsc_private_count::FrozenSynopsis;
use dpsc_serve::Client;
use dpsc_strkit::alphabet::Database;

use crate::corpus::{hot_universe, release, Kind, Release, ShardSpec};
use crate::daemon::{Daemon, StoreDir};
use crate::gen::{run_phase, PhaseResult};
use crate::layers;
use crate::procfs;
use crate::spans::Spans;
use crate::stats::{median_u64, quantile};
use crate::traffic::{bulk_pool, hot_pool, Pool, Target};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Rounds per run; on `build` each round also runs one release job. The
/// rounds spread every kind of timed work over the whole run, so that
/// each kind meets the host's quiet moments as well as its busy ones.
pub const ROUNDS: usize = 12;
/// Untimed traffic before each round's timed traffic. After a release
/// job has swept the caches, the first ~250 ms of traffic run ~1.7×
/// slower.
const WARMUP: Duration = Duration::from_millis(200);
/// A phase in which the generator wrote more than a tenth of its
/// requests later than this after their due time did not keep to its
/// schedule: its numbers are invalid. (The p99 is reported, not bounded:
/// while the daemon's event loop decodes a megabyte install on the CPU
/// the generator shares with it, a few percent of requests go out late,
/// and their latency still counts from their due time.)
pub const LAG_BOUND_US: f64 = 250.0;
/// A phase's p99 is the lower quartile of the p99s of its sub-windows
/// (the workload's `p99_window` long, at least [`MIN_WINDOWS`] of them):
/// on a busy shared VM the host stalls the CPU for a few ms several times
/// a second, and a plain p99 measures those stalls, not the daemon. It is
/// the p99 the daemon holds in the quieter quarter of the phase.
const MIN_WINDOWS: u64 = 1;
/// Ladder: rates grow by this factor until two rungs in a row fail, then
/// the gap above the highest rung that held is bisected [`LADDER_REFINE`]
/// times, so the ladder's rungs sit 1.25^(1/8) ≈ 2.8% apart.
const LADDER_STEP: f64 = 1.25;
const LADDER_REFINE: usize = 3;
const LADDER_MAX_RUNGS: usize = 16;
/// Length of one timed window of traffic. A round's timed traffic is a
/// run of windows, and each window gives one sample of latency and of
/// server CPU.
const WINDOW: Duration = Duration::from_millis(250);
/// The quantile of a run's samples that its traffic figures report. On
/// a shared VM the neighbours on a core thrash its caches in bursts of
/// tens to hundreds of milliseconds: a system call or a walk over 1 MB
/// then takes 2–6× longer. A median over the run measures how busy the
/// neighbours were; the 10th percentile of short windows measures the
/// daemon in the run's quietest moments.
const QUIET: f64 = 0.1;
/// Round trips per CPU of the probe that places each round's traffic.
const PLACEMENT_TRIPS: usize = 2000;
/// How long a phase may take to drain after its last due request.
const DRAIN: Duration = Duration::from_secs(2);

const fn shard(
    name: &'static str,
    shard_id: u32,
    kind: Kind,
    n: usize,
    ell: usize,
    epsilon: f64,
    tau: f64,
) -> ShardSpec {
    ShardSpec { name, shard_id, kind, n, ell, epsilon, tau }
}

/// The hot shards: two σ = 4 read sets and the ≈ 1 MB text and
/// access-log corpora.
const HOT_SHARDS: [ShardSpec; 4] = [
    shard("dna-small", 0, Kind::Dna, 1024, 64, 20.0, 0.45 * 1024.0),
    shard("dna-mid", 1, Kind::Dna, 2048, 64, 16.0, 0.35 * 2048.0),
    shard("text-1m", 2, Kind::Text, 10624, 97, 16.0, 0.35 * 10624.0),
    shard("log-1m", 3, Kind::Log, 36_000, 30, 16.0, 0.10 * 36_000.0),
];
/// The deep shard of the bulk mix: ≈ 540k nodes, a ≈ 9 MB snapshot and
/// ≈ 20 MB of query acceleration, far past the L2 cache. Markov text at a
/// high ε keeps the node count within ±2% across seeds, where the DP
/// noise of a low-ε release swings it by ±20%.
const DEEP_SHARD: ShardSpec = shard("markov-deep", 0, Kind::Markov(16), 36_000, 30, 256.0, 70.0);
/// The shard `serve-reload` re-installs under traffic (two epochs of a
/// ≈ 1.3 MB snapshot), and the reference shard of `serve-hot` and
/// `build`.
const RELOAD_SHARD: ShardSpec = shard("markov-1m", 4, Kind::Markov(16), 36_000, 30, 64.0, 170.0);
/// The `build` workload's release: a 2 MB σ = 27 text corpus at ε = 16.
const RELEASE_SHARD: ShardSpec = shard("text-2m", 0, Kind::Text, 21_248, 97, 16.0, 0.35 * 21_248.0);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mix {
    Hot,
    /// `QueryBatch` frames of this many patterns.
    Bulk(usize),
}

/// What a workload runs.
struct Plan {
    served: &'static [ShardSpec],
    /// `build`: the shard whose release job is the measured work.
    release: Option<ShardSpec>,
    /// `serve-reload`: the shard re-installed under traffic.
    reload: Option<ShardSpec>,
    /// A ≈ 1 MB shard served with the others that the installs after the
    /// traffic re-install. The hot shards' snapshots are a few KB, so
    /// persisting one is three `fsync`s and nothing else; their installs
    /// and restarts would time the disk, not the codec and store.
    reference: Option<ShardSpec>,
    mix: Mix,
    /// Patterns per second of the nominal-rate phase.
    nominal_pps: f64,
    /// First rung of the ladder.
    ladder_start_pps: f64,
    p99_limit_us: f64,
    /// Length of the windows a phase's p99 is taken over.
    p99_window: Duration,
    /// Shares of `--seconds` for the timed traffic of all rounds together
    /// and for each rung.
    fixed_share: f64,
    rung_share: f64,
    /// Installs per round after its traffic, when there are none beside
    /// it.
    installs: usize,
    /// Interval between installs beside the traffic.
    install_every: Option<Duration>,
    /// Cold restarts per round.
    restarts: usize,
}

fn plan(workload: &str) -> Option<Plan> {
    let base = Plan {
        served: &HOT_SHARDS,
        release: None,
        reload: None,
        reference: Some(RELOAD_SHARD),
        mix: Mix::Hot,
        nominal_pps: 80_000.0,
        ladder_start_pps: 400_000.0,
        p99_limit_us: 1000.0,
        p99_window: Duration::from_millis(25),
        fixed_share: 0.6,
        rung_share: 0.03,
        installs: 3,
        install_every: None,
        restarts: 3,
    };
    Some(match workload {
        // Each round's release job takes about a second on top of its
        // traffic.
        "build" => Plan {
            served: &[],
            release: Some(RELEASE_SHARD),
            fixed_share: 0.4,
            rung_share: 0.015,
            ..base
        },
        "serve-hot" => base,
        "serve-bulk" => Plan {
            served: std::slice::from_ref(&DEEP_SHARD),
            mix: Mix::Bulk(256),
            nominal_pps: 300_000.0,
            p99_limit_us: 5000.0,
            p99_window: Duration::from_millis(100),
            rung_share: 0.025,
            reference: None,
            installs: 2,
            restarts: 2,
            ..base
        },
        "serve-reload" => Plan {
            reload: Some(RELOAD_SHARD),
            nominal_pps: 20_000.0,
            ladder_start_pps: 200_000.0,
            p99_limit_us: 5000.0,
            // Each window holds two installs: they are this workload's tail.
            p99_window: Duration::from_millis(200),
            reference: None,
            installs: 0,
            install_every: Some(Duration::from_millis(100)),
            ..base
        },
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 4] = ["build", "serve-hot", "serve-bulk", "serve-reload"];

/// One shard as served: its corpus, its release, and for the reload
/// shard the second epoch.
struct Served {
    db: Database,
    universe: Vec<Vec<u8>>,
    rel: Release,
    alt: Option<Release>,
}

/// Everything one set-up produced.
struct Stand {
    shards: Vec<Served>,
    /// The `build` workload's corpus, released after set-up.
    release_db: Option<Database>,
    pool: Pool,
    store: StoreDir,
    daemon: Daemon,
    /// Patterns the daemon has answered to this process so far.
    answered: u64,
    /// Error and `Overloaded` replies the generator has seen.
    refused: u64,
    /// Build time of each release, in set-up order.
    build_ns: Vec<u64>,
    /// How long this set-up took.
    setup_ns: u64,
}

/// The result line's parts.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Run-wide bookkeeping.
struct Run<'a> {
    seed: u64,
    seconds: f64,
    spans: &'a Spans,
    out_dir: PathBuf,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[perfbench] CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(0.05))
    }
}

/// The [`QUIET`] quantile of `values` (nearest rank); infinite when
/// empty.
fn quiet(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::INFINITY;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * QUIET).round() as usize]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asks the daemon for `probe` on `shard` and checks the answers against
/// `oracle`. Returns the answered pattern count.
fn probe(
    run: &mut Run,
    client: &mut Client,
    shard: u32,
    probe: &[Vec<u8>],
    oracle: &FrozenSynopsis,
) -> u64 {
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
    match client.query_batch(shard, &refs) {
        Ok(values) => {
            let want: Vec<u64> = refs.iter().map(|p| oracle.query_naive(p).to_bits()).collect();
            run.check(bits(&values) == want, || format!("shard {shard}: probe answers drifted"));
            values.len() as u64
        }
        Err(e) => {
            run.check(false, || format!("shard {shard}: probe failed: {e}"));
            0
        }
    }
}

fn probe_set(s: &Served) -> Vec<Vec<u8>> {
    s.universe.iter().take(32).cloned().collect()
}

/// One set-up: corpora, releases, request pool, store, daemon, installs.
fn stand_up(run: &mut Run, plan: &Plan, iter: u64) -> Stand {
    let spans = run.spans;
    let t0 = Instant::now();
    spans.nest("setup", 0, iter, |setup_span| {
        let mut shards = Vec::new();
        let mut build_ns = Vec::new();
        for spec in plan.served.iter().chain(&plan.reload).chain(&plan.reference) {
            let db = spans.time("corpus", setup_span, iter, || spec.corpus(run.seed));
            let rel = spans
                .nest("release", setup_span, iter, |p| release(spec, &db, run.seed, 1, spans, p));
            build_ns.push(rel.times.total_ns());
            let alt =
                (plan.reload.as_ref().map(|r| r.shard_id) == Some(spec.shard_id)).then(|| {
                    let alt = spans.nest("release", setup_span, iter, |p| {
                        release(spec, &db, run.seed, 2, spans, p)
                    });
                    build_ns.push(alt.times.total_ns());
                    alt
                });
            let universe = hot_universe(&db);
            shards.push(Served { db, universe, rel, alt });
        }
        let release_db = plan
            .release
            .map(|spec| spans.time("corpus", setup_span, iter, || spec.corpus(run.seed)));
        let pool = spans.time("pool", setup_span, iter, || make_pool(plan, &shards, run.seed));
        let store = StoreDir::new(&run.out_dir, &format!("setup{iter}"));
        let daemon = spans.time("daemon.spawn", setup_span, iter, || Daemon::spawn(&store.0));
        let mut stand = Stand {
            shards,
            release_db,
            pool,
            store,
            daemon,
            answered: 0,
            refused: 0,
            build_ns,
            setup_ns: 0,
        };
        let mut admin = stand.daemon.connect();
        for s in &stand.shards {
            spans.time("install", setup_span, iter, || {
                admin
                    .load_snapshot(s.rel.spec.shard_id, &s.rel.bytes)
                    .expect("set-up install succeeds")
            });
            run.attempted += 1;
            let n = probe(run, &mut admin, s.rel.spec.shard_id, &probe_set(s), &s.rel.oracle);
            stand.answered += n;
        }
        stand.setup_ns = t0.elapsed().as_nanos() as u64;
        stand
    })
}

fn make_pool(plan: &Plan, shards: &[Served], seed: u64) -> Pool {
    let targets: Vec<Target> = shards
        .iter()
        .map(|s| Target {
            shard: s.rel.spec.shard_id,
            universe: &s.universe,
            docs: s.db.documents(),
            oracle: &s.rel.oracle,
            alt: s.alt.as_ref().map(|a| &a.oracle),
        })
        .collect();
    match plan.mix {
        Mix::Hot => hot_pool(&targets, 32_768, seed, 0x1107),
        Mix::Bulk(batch) => bulk_pool(&targets[0], 1024, batch, seed, 0xB0C),
    }
}

/// Latency and health figures of one traffic phase.
struct PhaseStats {
    p50_us: f64,
    /// Lower quartile of the window p99s (see [`MIN_WINDOWS`]).
    p99_us: f64,
    /// The generator's lag: p90 (bounded by [`LAG_BOUND_US`]) and p99.
    lag_p90_us: f64,
    lag_p99_us: f64,
    achieved_pps: f64,
}

/// Median over the phase's windows of each window's p99 of `values`,
/// where `due_ns` places each value in its window.
fn windowed_p99_us(due_ns: &[u64], values: &[u64], schedule_ns: u64, window: Duration) -> f64 {
    let windows = (schedule_ns / window.as_nanos() as u64).max(MIN_WINDOWS);
    let width = (schedule_ns / windows).max(1);
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows as usize];
    for (&d, &v) in due_ns.iter().zip(values) {
        per_window[((d / width) as usize).min(windows as usize - 1)].push(v);
    }
    let mut p99s: Vec<u64> =
        per_window.iter_mut().filter(|w| !w.is_empty()).map(|w| quantile(w, 0.99)).collect();
    quantile(&mut p99s, 0.25) as f64 / 1e3
}

fn phase_stats(r: &PhaseResult, window: Duration) -> PhaseStats {
    let mut lat = r.latency_ns.clone();
    let mut lag = r.lag_ns.clone();
    PhaseStats {
        p50_us: quantile(&mut lat, 0.5) as f64 / 1e3,
        p99_us: windowed_p99_us(&r.due_ns, &r.latency_ns, r.schedule_ns, window),
        lag_p90_us: quantile(&mut lag, 0.9) as f64 / 1e3,
        lag_p99_us: quantile(&mut lag, 0.99) as f64 / 1e3,
        achieved_pps: r.patterns_answered as f64 / (r.schedule_ns as f64 / 1e9),
    }
}

/// One window of a round's timed traffic.
struct Window {
    result: PhaseResult,
    stats: PhaseStats,
    /// On-CPU time of the daemon's threads per pattern answered.
    cpu_ns_per_pattern: f64,
}

/// Generator-side totals over every traffic phase of the run.
#[derive(Default)]
struct GenTotals {
    sent: u64,
    completed: u64,
    patterns_answered: u64,
    refused: u64,
    failed: u64,
    mismatches: u64,
    invalid_phases: u64,
}

impl GenTotals {
    fn merge(&mut self, o: &GenTotals) {
        self.sent += o.sent;
        self.completed += o.completed;
        self.patterns_answered += o.patterns_answered;
        self.refused += o.refused;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.invalid_phases += o.invalid_phases;
    }

    fn add(&mut self, r: &PhaseResult) {
        self.sent += r.sent;
        self.completed += r.completed;
        self.patterns_answered += r.patterns_answered;
        self.refused += r.errors + r.overloaded;
        self.failed += r.failed();
        self.mismatches += r.mismatches;
    }
}

/// Traffic on one connection, phase after phase, with a cursor into the
/// pool so no phase replays the previous one's frames.
struct Traffic<'a> {
    conn: TcpStream,
    pool: &'a Pool,
    cursor: usize,
    totals: GenTotals,
}

impl Traffic<'_> {
    fn phase(&mut self, rate: f64, dur: Duration) -> PhaseResult {
        let r = run_phase(&mut self.conn, self.pool, self.cursor, rate, dur, DRAIN);
        self.cursor = (self.cursor + r.sent as usize) % self.pool.frames.len();
        self.totals.add(&r);
        r
    }
}

/// Whether a rung held: everything answered correctly, p99 within the
/// limit, no backlog beyond what the limit allows in flight, and the
/// generator on schedule (a late generator makes the rung invalid).
fn rung_holds(r: &PhaseResult, st: &PhaseStats, limit_us: f64) -> (bool, bool) {
    let valid = st.lag_p90_us <= LAG_BOUND_US;
    let allowed_backlog = (r.frames_per_s * limit_us / 1e6).max(4.0);
    let holds = r.failed() == 0
        && r.mismatches == 0
        && st.p99_us <= limit_us
        && (r.backlog_at_end as f64) <= allowed_backlog;
    (valid, valid && holds)
}

/// Climbs the ladder and returns the achieved rate of the highest rung
/// that held (0 when none did) and the rungs run.
fn ladder(run: &Run, t: &mut Traffic, plan: &Plan, parent: u64) -> (f64, usize) {
    let dur = run.secs(plan.rung_share);
    let mut rungs = 0usize;
    let try_rate =
        |t: &mut Traffic, rungs: &mut usize, rate: f64| -> (bool, f64) {
            *rungs += 1;
            let mut r = t.phase(rate, dur);
            let mut st = phase_stats(&r, plan.p99_window);
            if !rung_holds(&r, &st, plan.p99_limit_us).1 {
                // A rung gets a second try: on a shared host a stall of a few
                // milliseconds can sink one try at any rate.
                if !rung_holds(&r, &st, plan.p99_limit_us).0 {
                    t.totals.invalid_phases += 1;
                }
                r = t.phase(rate, dur);
                st = phase_stats(&r, plan.p99_window);
            }
            push_request_spans(run.spans, "rung", parent, &r);
            let (valid, holds) = rung_holds(&r, &st, plan.p99_limit_us);
            eprintln!(
            "[perfbench] rung {rate:.0} patterns/s: p50 {:.1} us, p99 {:.1} us, lag p99 {:.1} us, \
             backlog {}, {}",
            st.p50_us,
            st.p99_us,
            st.lag_p99_us,
            r.backlog_at_end,
            if !valid { "invalid" } else if holds { "holds" } else { "fails" }
        );
            if !valid {
                t.totals.invalid_phases += 1;
            }
            (holds, st.achieved_pps)
        };
    // Walk up until two rungs in a row fail, so that one bad rung low on
    // the ladder does not end the climb; walk down only if nothing held.
    let mut pass: Option<(f64, f64)> = None; // (rate, achieved)
    let mut fail: Option<f64> = None;
    let mut rate = plan.ladder_start_pps;
    let mut fails_in_row = 0;
    while rungs < LADDER_MAX_RUNGS - LADDER_REFINE && fails_in_row < 2 {
        let (ok, got) = try_rate(t, &mut rungs, rate);
        if ok {
            pass = Some((rate, got));
            fail = None;
            fails_in_row = 0;
        } else {
            fail = fail.or(Some(rate));
            fails_in_row += 1;
        }
        rate *= LADDER_STEP;
    }
    rate = plan.ladder_start_pps;
    while pass.is_none() && rungs < LADDER_MAX_RUNGS - LADDER_REFINE {
        fail = Some(rate);
        rate /= LADDER_STEP;
        if let (true, got) = try_rate(t, &mut rungs, rate) {
            pass = Some((rate, got));
        }
    }
    if let (Some(_), Some(_)) = (pass, fail) {
        for _ in 0..LADDER_REFINE {
            let (lo, hi) = (pass.expect("a rung held").0, fail.expect("a rung failed"));
            let mid = (lo * hi).sqrt();
            let (ok, got) = try_rate(t, &mut rungs, mid);
            if ok {
                pass = Some((mid, got));
            } else {
                fail = Some(mid);
            }
        }
    }
    (pass.map_or(0.0, |p| p.1), rungs)
}

/// Requests of a phase that get a span: one in this many (a nominal
/// phase runs hundreds of thousands of requests).
const REQUEST_SPAN_EVERY: usize = 64;

fn push_request_spans(spans: &Spans, name: &'static str, parent: u64, r: &PhaseResult) {
    if !spans.enabled() {
        return;
    }
    let start = r.start.expect("phase started");
    spans.nest(name, parent, 0, |phase| {
        let requests = r.due_ns.iter().zip(&r.latency_ns).enumerate();
        for (k, (&due, &lat)) in requests.step_by(REQUEST_SPAN_EVERY) {
            let due_at = start + Duration::from_nanos(due);
            spans.push("request", phase, k as u64, due_at, due_at + Duration::from_nanos(lat));
        }
    });
}

/// Installs `sequence` round robin at a fixed interval until `stop`,
/// from its own connection. Returns each install's round trip in
/// nanoseconds, the failed installs, and the index in `sequence` of the
/// last install that succeeded.
fn installs_beside(
    addr: std::net::SocketAddr,
    sequence: &[(u32, &[u8])],
    every: Duration,
    stop: &AtomicBool,
) -> (Vec<u64>, u64, Option<usize>) {
    let mut client = Client::connect(addr).expect("install connection opens");
    let mut times = Vec::new();
    let mut errors = 0u64;
    let mut last = None;
    let mut next = Instant::now();
    for k in (0..sequence.len()).cycle() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (shard, bytes) = sequence[k];
        let t = Instant::now();
        match client.load_snapshot(shard, bytes) {
            Ok(_) => {
                times.push(t.elapsed().as_nanos() as u64);
                last = Some(k);
            }
            Err(_) => errors += 1,
        }
        next += every;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        } else {
            next = now;
        }
    }
    (times, errors, last)
}

/// One timed release job of the `build` workload.
fn release_job(
    run: &mut Run,
    spec: &ShardSpec,
    db: &Database,
    iter: u64,
    times: &mut Vec<crate::corpus::BuildTimes>,
) -> Release {
    let spans = run.spans;
    let rel = spans.nest("release", 0, iter, |p| release(spec, db, run.seed, 1, spans, p));
    run.attempted += 1;
    times.push(rel.times);
    rel
}

/// A shard, a probe batch for it, and the answer bits it must get.
type Probe = (u32, Vec<Vec<u8>>, Vec<u64>);

/// Restarts the daemon cold over its store `n` times; each time clocks
/// bind-and-recover to the first bit-identical answer. `expected` holds
/// per shard a probe and its answer bits. Returns the recovery times in
/// nanoseconds, the last daemon and the patterns it has answered.
fn restarts(
    run: &mut Run,
    store: &StoreDir,
    mut daemon: Daemon,
    expected: &[Probe],
    n: usize,
    parent: u64,
) -> (Vec<u64>, Daemon, u64) {
    let spans = run.spans;
    let query = |client: &mut Client, shard: u32, pats: &[Vec<u8>]| {
        let refs: Vec<&[u8]> = pats.iter().map(Vec::as_slice).collect();
        client.query_batch(shard, &refs).map(|v| bits(&v))
    };
    let mut times = Vec::new();
    let mut answered = 0;
    for i in 0..n {
        daemon.shutdown();
        let (t, next, mut client, first) = spans.nest("restart", parent, i as u64, |_| {
            let t0 = Instant::now();
            let next = Daemon::spawn(&store.0);
            let mut client = next.connect();
            let (shard, pats, _) = &expected[0];
            let first = query(&mut client, *shard, pats);
            (t0.elapsed().as_nanos() as u64, next, client, first)
        });
        daemon = next;
        run.attempted += 1;
        if first.as_ref().ok() != Some(&expected[0].2) {
            run.failed += 1;
            run.check(false, || format!("restart {i}: first answer not bit-identical"));
        }
        answered = expected[0].1.len() as u64;
        for (shard, pats, want) in &expected[1..] {
            let ok = query(&mut client, *shard, pats).as_ref().ok() == Some(want);
            run.check(ok, || format!("restart {i}: shard {shard} drifted"));
            answered += pats.len() as u64;
        }
        match client.metrics() {
            Ok(m) => {
                run.check(m.patterns_total == answered, || {
                    format!(
                        "restart {i}: daemon counted {} patterns, client {answered}",
                        m.patterns_total
                    )
                });
                run.check(m.recoveries_total == expected.len() as u64, || {
                    format!(
                        "restart {i}: {} shards recovered of {}",
                        m.recoveries_total,
                        expected.len()
                    )
                });
            }
            Err(e) => run.check(false, || format!("restart {i}: metrics failed: {e}")),
        }
        times.push(t);
    }
    (times, daemon, answered)
}

/// CPU placement during traffic: the daemon's event loop and the traffic
/// generator share the last allowed CPU; the daemon's installer thread
/// and the install client get the others. Sharing a CPU, a woken thread
/// runs at once on a CPU that is already awake; apart, every request
/// waits for an idle virtual CPU to wake, which on a shared host swings
/// the latency tail by 10× between runs (and a generator alone on a CPU
/// was seen to stall for milliseconds). The price: near capacity the
/// generator competes with the daemon for the CPU, so `max_rate_pps` is
/// the capacity of the pair.
///
/// Each round places the pair afresh on the CPU where a loopback round
/// trip is fastest at that moment: the vCPUs share their cores with other
/// tenants, and a busy neighbour can slow one core and not the other.
struct Placement {
    serving: Vec<usize>,
    rest: Vec<usize>,
}

impl Placement {
    /// Probes every allowed CPU and picks the fastest for serving; `None`
    /// with fewer than two CPUs or without the `taskset` tool.
    fn choose() -> Option<(Placement, u64)> {
        let cpus = procfs::allowed_cpus();
        if cpus.len() < 2 {
            return None;
        }
        let me = procfs::current_tid();
        let probed: Option<Vec<(usize, u64)>> = cpus
            .iter()
            .map(|&cpu| {
                procfs::pin(me, &[cpu]).then(|| (cpu, crate::host::rtt_ns(PLACEMENT_TRIPS)))
            })
            .collect();
        procfs::pin(me, &cpus);
        let (cpu, rtt) = probed?.into_iter().min_by_key(|&(_, rtt)| rtt)?;
        let rest = cpus.into_iter().filter(|&c| c != cpu).collect();
        Some((Placement { serving: vec![cpu], rest }, rtt))
    }

    /// Pins the calling thread (the generator) and the daemon's threads;
    /// false if the `taskset` tool is missing or refuses.
    fn apply(&self, daemon: &Daemon) -> bool {
        // The event loop starts the installer, so it has the lower id.
        let (event_loop, installer) = (daemon.tids[0], daemon.tids[1]);
        procfs::pin(procfs::current_tid(), &self.serving)
            && procfs::pin(event_loop, &self.serving)
            && procfs::pin(installer, &self.rest)
    }

    fn release(&self) {
        let all: Vec<usize> = self.rest.iter().chain(&self.serving).copied().collect();
        procfs::pin(procfs::current_tid(), &all);
    }
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    spans: &Spans,
    out_dir: &Path,
) -> Option<Outcome> {
    let plan = plan(workload)?;
    let nproc = procfs::nproc();
    let gen_threads = 1 + usize::from(plan.install_every.is_some());
    let connections = gen_threads;
    assert!(
        gen_threads <= nproc,
        "{workload} needs {gen_threads} generator threads and connections; this host has {nproc}"
    );
    eprintln!(
        "[perfbench] {workload} seed {seed}: nproc {nproc}, build threads 1, generator threads \
         {gen_threads}, traffic connections {connections}, daemon threads {}",
        crate::daemon::DAEMON_THREADS
    );
    let mut run = Run {
        seed,
        seconds,
        spans,
        out_dir: out_dir.to_path_buf(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // ---- 1. set-up, several times --------------------------------------
    let mut setup_ns = Vec::new();
    let mut build_ns = Vec::new();
    let mut digests: Option<(Vec<u64>, u64)> = None;
    let mut stand = None;
    let mut setup_peak = 0;
    for iter in 0..SETUPS as u64 {
        if let Some(old) = stand.take() {
            let old: Stand = old;
            old.daemon.shutdown();
        }
        let s = stand_up(&mut run, &plan, iter);
        if iter == 0 {
            setup_peak = procfs::peak_rss_bytes();
        }
        setup_ns.push(s.setup_ns);
        build_ns.push(s.build_ns.clone());
        let d: Vec<u64> = s
            .shards
            .iter()
            .flat_map(|x| std::iter::once(x.rel.digest).chain(x.alt.as_ref().map(|a| a.digest)))
            .collect();
        let now = (d, s.pool.digest);
        if let Some(first) = &digests {
            run.check(*first == now, || {
                "snapshot or workload digests differ between set-ups of one seed".into()
            });
        } else {
            digests = Some(now);
        }
        stand = Some(s);
    }
    let mut stand = stand.expect("at least one set-up");

    // ---- 2. the release job (build): once now, then once per round -------
    let mut release_times = Vec::new();
    if let Some(spec) = plan.release {
        let db = stand.release_db.take().expect("the build set-up makes the corpus");
        let rel = release_job(&mut run, &spec, &db, 0, &mut release_times);
        let universe = hot_universe(&db);
        stand.shards.insert(0, Served { db, universe, rel, alt: None });
        stand.pool = make_pool(&plan, &stand.shards, seed);
        let mut admin = stand.daemon.connect();
        let s = &stand.shards[0];
        admin.load_snapshot(s.rel.spec.shard_id, &s.rel.bytes).expect("release installs");
        run.attempted += 1;
        stand.answered +=
            probe(&mut run, &mut admin, s.rel.spec.shard_id, &probe_set(s), &s.rel.oracle);
    }
    // Peak memory of the work a user does once: the first set-up, and on
    // `build` the first release job. Later set-ups run on heap the process
    // kept (see `alloc`), which can only add fragmentation to the peak.
    let peak_rss_bytes = if plan.release.is_some() { procfs::peak_rss_bytes() } else { setup_peak };

    // ---- 3–6. rounds: traffic, installs, restarts -------------------------
    // Each round's probe round trip on the CPU it chose for the traffic.
    let mut round_trips = Vec::new();
    let mut totals = GenTotals::default();
    let mut cursor = 0;
    let stop = AtomicBool::new(false);
    // What the install client installs beside the traffic: the reload
    // shard's second and first epochs in turn.
    let sequence: Option<Vec<(u32, &[u8])>> = plan.reload.map(|spec| {
        let s = stand
            .shards
            .iter()
            .find(|s| s.rel.spec.shard_id == spec.shard_id)
            .expect("reload shard served");
        let alt = s.alt.as_ref().expect("second epoch");
        vec![(spec.shard_id, alt.bytes.as_slice()), (spec.shard_id, s.rel.bytes.as_slice())]
    });
    let round_traffic = run.secs(plan.fixed_share / ROUNDS as f64);
    let windows_per_round =
        (round_traffic.as_secs_f64() / WINDOW.as_secs_f64()).round().max(1.0) as usize;
    let mut all_windows: Vec<Window> = Vec::new();
    // Every install and restart, and each round's median of them.
    let (mut install_ns, mut recovery_ns) = (Vec::new(), Vec::new());
    let (mut install_p50s, mut recovery_p50s) = (Vec::new(), Vec::new());
    // Whether the reload shard's second epoch is the one serving now.
    let mut alt_live = false;
    let (mut max_rate, mut rungs) = (0.0, 0);
    let mut last_report = None;
    for round in 0..ROUNDS as u64 {
        let placement = Placement::choose();
        stand.daemon.find_threads();
        let pinned = placement.as_ref().is_some_and(|(p, _)| p.apply(&stand.daemon));
        eprintln!(
            "[perfbench] round {round}: {}",
            match &placement {
                Some((p, rtt)) if pinned => format!(
                    "event loop and generator on CPU {:?} (probe round trip {:.2} us), installer \
                     and install client on {:?}",
                    p.serving,
                    *rtt as f64 / 1e3,
                    p.rest
                ),
                _ => "unpinned".to_string(),
            }
        );
        let placement = placement.map(|(p, rtt)| {
            round_trips.push(rtt);
            p
        });
        // The release job runs on the generator's CPU, which the probe
        // found the least disturbed.
        if let Some(spec) = plan.release {
            let s = &stand.shards[0];
            let again = release_job(&mut run, &spec, &s.db, round + 1, &mut release_times);
            run.check(again.digest == s.rel.digest, || {
                "release digest differs between builds of one seed".into()
            });
        }
        let conn = TcpStream::connect(stand.daemon.addr).expect("traffic connection opens");
        conn.set_nodelay(true).expect("nodelay");
        let mut traffic = Traffic { conn, pool: &stand.pool, cursor, totals: GenTotals::default() };
        let t = &mut traffic;
        let addr = stand.daemon.addr;
        stop.store(false, Ordering::SeqCst);
        let (windows, beside) = std::thread::scope(|scope| {
            let installer = sequence.as_ref().zip(plan.install_every).map(|(sequence, every)| {
                let stop = &stop;
                let rest = placement.as_ref().map(|p| p.rest.clone());
                scope.spawn(move || {
                    if let Some(rest) = rest {
                        procfs::pin(procfs::current_tid(), &rest);
                    }
                    installs_beside(addr, sequence, every, stop)
                })
            });
            // A window in which the generator fell behind is dropped: a
            // stall of the host, not a slow daemon.
            let windows: Vec<Window> = spans.nest("round", 0, round, |p| {
                t.phase(plan.nominal_pps, WARMUP);
                (0..windows_per_round)
                    .filter_map(|_| {
                        let cpu0 = stand.daemon.cpu_ns();
                        let r = t.phase(plan.nominal_pps, WINDOW);
                        let cpu_ns = stand.daemon.cpu_ns() - cpu0;
                        push_request_spans(spans, "round.traffic", p, &r);
                        let stats = phase_stats(&r, plan.p99_window);
                        if stats.lag_p90_us > LAG_BOUND_US {
                            t.totals.invalid_phases += 1;
                            return None;
                        }
                        let cpu_ns_per_pattern = cpu_ns as f64 / r.patterns_answered.max(1) as f64;
                        Some(Window { result: r, stats, cpu_ns_per_pattern })
                    })
                    .collect()
            });
            // The ladder's figures are per-layer metrics: only the traced
            // run climbs it, in its last round.
            if spans.enabled() && round + 1 == ROUNDS as u64 {
                (max_rate, rungs) = spans.nest("ladder", 0, 0, |p| ladder(&run, t, &plan, p));
            }
            stop.store(true, Ordering::SeqCst);
            (windows, installer.map(|h| h.join().expect("install thread finishes")))
        });
        if let Some(p) = &placement {
            p.release();
        }
        cursor = traffic.cursor;
        let got = traffic.totals;
        drop(traffic.conn);
        stand.answered += got.patterns_answered;
        stand.refused += got.refused;
        run.attempted += got.sent;
        run.failed += got.failed;
        totals.merge(&got);

        let mut installs = Vec::new();
        if let Some((times, errors, last)) = beside {
            run.attempted += times.len() as u64 + errors;
            run.failed += errors;
            stand.refused += errors;
            installs = times;
            if let Some(last) = last {
                alt_live = last == 0;
            }
        }
        {
            let mut admin = stand.daemon.connect();
            let target = plan.reference.map_or(stand.shards[0].rel.spec.shard_id, |r| r.shard_id);
            let s =
                stand.shards.iter().find(|s| s.rel.spec.shard_id == target).expect("target served");
            for i in 0..plan.installs {
                let t = Instant::now();
                let ok = spans.time("install", 0, round * 100 + i as u64, || {
                    admin.load_snapshot(s.rel.spec.shard_id, &s.rel.bytes)
                });
                installs.push(t.elapsed().as_nanos() as u64);
                run.attempted += 1;
                if ok.is_err() {
                    run.failed += 1;
                    stand.refused += 1;
                }
            }
        }

        // Reconcile the daemon with the generator before restarting it.
        let (report, stats) = {
            let mut admin = stand.daemon.connect();
            (admin.metrics().expect("metrics answered"), admin.stats().expect("stats answered"))
        };
        if got.failed == got.refused {
            run.check(report.patterns_total == stand.answered, || {
                format!(
                    "round {round}: daemon answered {} patterns, generator saw {}",
                    report.patterns_total, stand.answered
                )
            });
        }
        run.check(report.ops.errors + report.overloaded_total == stand.refused, || {
            format!(
                "round {round}: daemon refused {} requests, generator saw {}",
                report.ops.errors + report.overloaded_total,
                stand.refused
            )
        });
        last_report = Some((report, stats));

        let expected: Vec<Probe> = stand
            .shards
            .iter()
            .map(|s| {
                let oracle = match &s.alt {
                    Some(alt) if alt_live => &alt.oracle,
                    _ => &s.rel.oracle,
                };
                let pats = probe_set(s);
                let want = pats.iter().map(|p| oracle.query_naive(p).to_bits()).collect();
                (s.rel.spec.shard_id, pats, want)
            })
            .collect();
        let (mut recoveries, daemon, answered) = spans.nest("restarts", 0, round, |p| {
            restarts(&mut run, &stand.store, stand.daemon, &expected, plan.restarts, p)
        });
        stand.daemon = daemon;
        stand.answered = answered;
        stand.refused = 0;

        // A round whose installs all failed has no install figure; the
        // failures count against the run.
        let install_p50 = if installs.is_empty() { 0 } else { median_u64(&mut installs.clone()) };
        let recovery_p50 = median_u64(&mut recoveries);
        if !windows.is_empty() {
            eprintln!(
                "[perfbench] round {round}: {} windows, quiet p50 {:.2} us, quiet server cpu {:.0} \
                 ns/pattern, install p50 {:.2} ms, recovery p50 {:.2} ms{}",
                windows.len(),
                quiet(windows.iter().map(|w| w.stats.p50_us)),
                quiet(windows.iter().map(|w| w.cpu_ns_per_pattern)),
                install_p50 as f64 / 1e6,
                recovery_p50 as f64 / 1e6,
                release_times.last().map_or(String::new(), |t| format!(
                    ", build {:.3} s",
                    t.total_ns() as f64 / 1e9
                ))
            );
        }
        all_windows.extend(windows);
        install_p50s.extend((!installs.is_empty()).then_some(install_p50));
        recovery_p50s.push(recovery_p50);
        install_ns.extend(installs);
        recovery_ns.extend(recoveries);
    }
    let (report, stats) = last_report.expect("at least one round");
    run.check(totals.mismatches == 0, || {
        format!("{} served answers differ from the oracle", totals.mismatches)
    });
    run.check(!install_p50s.is_empty(), || "no install succeeded".into());
    run.check(!all_windows.is_empty(), || {
        "invalid run: the generator fell behind its schedule in every window".into()
    });
    if spans.enabled() {
        run.check(max_rate > 0.0, || "no ladder rung held the p99 limit".into());
    }
    let latency_p50_us = quiet(all_windows.iter().map(|w| w.stats.p50_us));
    let latency_p99_us = quiet(all_windows.iter().map(|w| w.stats.p99_us));
    let server_cpu_ns_per_pattern = quiet(all_windows.iter().map(|w| w.cpu_ns_per_pattern));

    // `build`: the fastest release job. Serve workloads: each release's
    // fastest build over the set-ups, summed.
    let build_ns: u64 = match release_times.iter().map(|t| t.total_ns()).min() {
        Some(fastest) => fastest,
        None => (0..build_ns[0].len())
            .map(|k| build_ns.iter().map(|b| b[k]).min().expect("at least one set-up"))
            .sum(),
    };
    let build_s = build_ns as f64 / 1e9;

    // ---- end-to-end metrics -----------------------------------------------
    let mut lag: Vec<u64> =
        all_windows.iter().flat_map(|s| s.result.lag_ns.iter().copied()).collect();
    let lag_p99_us = quantile(&mut lag, 0.99) as f64 / 1e3;
    let install_p90_ms = quantile(&mut install_ns, 0.9) as f64 / 1e6;
    let e2e: Vec<(String, f64, &'static str)> = [
        ("setup_s", median_u64(&mut setup_ns) as f64 / 1e9, "s"),
        ("build_s", build_s, "s"),
        ("peak_rss_mb", peak_rss_bytes as f64 / (1 << 20) as f64, "MB"),
        ("install_p50_ms", install_p50s.iter().min().map_or(f64::INFINITY, |&ns| ms(ns)), "ms"),
        ("recovery_ms", ms(*recovery_p50s.iter().min().expect("rounds ran")), "ms"),
    ]
    .into_iter()
    .map(|(name, v, unit)| (name.to_string(), v, unit))
    .collect();
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    eprintln!(
        "[perfbench] {workload}: {} frames sent, {} answered, failed_frac {failed_frac}, \
         nominal {} patterns/s in {} valid windows over {ROUNDS} rounds (quiet latency p50 \
         {latency_p50_us:.2} us, p99 {latency_p99_us:.1} us, server cpu \
         {server_cpu_ns_per_pattern:.0} ns/pattern), max rate {max_rate:.0} patterns/s at a p99 limit of {} us over \
         {rungs} ladder rungs, windows' lag p99 {lag_p99_us:.1} us, {} installs \
         (p90 {install_p90_ms:.2} ms), {} restarts, cache hit rate {:.3}",
        totals.sent,
        totals.completed,
        plan.nominal_pps,
        all_windows.len(),
        plan.p99_limit_us,
        install_ns.len(),
        recovery_ns.len(),
        report.cache_hit_rate
    );

    let metrics = if spans.enabled() {
        let replayed = all_windows.iter().map(|s| s.result.sent as usize).sum();
        let mut m =
            per_layer(&run, &stand, replayed, &totals, &report, &stats, server_cpu_ns_per_pattern);
        m.push(("gen.lag_p99_us".into(), lag_p99_us, "us"));
        // How disturbed the host was: this moves nothing.
        let rtt = if round_trips.is_empty() { 0 } else { median_u64(&mut round_trips) };
        m.push(("host.rtt_ns".into(), rtt as f64, "ns"));
        m.push(("latency_p50_us".into(), latency_p50_us, "us"));
        m.push(("server_cpu_ns_per_pattern".into(), server_cpu_ns_per_pattern, "ns"));
        m.push(("latency_p99_us".into(), latency_p99_us, "us"));
        m.push(("max_rate_pps".into(), max_rate, "patterns/s"));
        m.push(("install_p90_ms".into(), install_p90_ms, "ms"));
        m.push(("trace.spans".into(), spans.len() as f64, "count"));
        m.extend(e2e.into_iter().map(|(name, v, unit)| (format!("traced.{name}"), v, unit)));
        m
    } else {
        e2e
    };
    stand.daemon.shutdown();
    Some(Outcome {
        correct: run.problems.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

/// The per-layer metrics of a traced run.
fn per_layer(
    run: &Run,
    stand: &Stand,
    replayed: usize,
    totals: &GenTotals,
    report: &dpsc_serve::MetricsReport,
    stats: &dpsc_serve::ServerStats,
    server_cpu_ns_per_pattern: f64,
) -> Vec<(String, f64, &'static str)> {
    let spans = run.spans;
    let shards = &stand.shards;
    spans.nest("layers", 0, 0, |p| {
        // index: every served corpus, step by step; memory from the largest.
        let mut idx = layers::IndexSteps::default();
        let largest = shards.iter().map(|s| s.db.total_len()).max().unwrap_or(0);
        for s in shards {
            let st = layers::index_steps(&s.db, spans, p);
            idx.sa_ns += st.sa_ns;
            idx.lcp_ns += st.lcp_ns;
            idx.hash_ns += st.hash_ns;
            idx.doc_counter_ns += st.doc_counter_ns;
            if s.db.total_len() == largest {
                idx.bytes_per_corpus_byte = st.bytes_per_corpus_byte;
            }
        }
        // pipeline and synopsis: the releases being served.
        let rels: Vec<&Release> =
            shards.iter().flat_map(|s| std::iter::once(&s.rel).chain(s.alt.as_ref())).collect();
        let phase = |name: &str| -> f64 {
            rels.iter()
                .flat_map(|r| r.phases.iter())
                .filter(|(n, _)| *n == name)
                .map(|(_, d)| *d)
                .sum::<u64>() as f64
                / 1e6
        };
        let trie_nodes: u64 = rels.iter().map(|r| r.trie_nodes).sum();
        let kept: u64 = rels.iter().map(|r| r.kept_nodes).sum();
        let synopses: Vec<(u32, Arc<FrozenSynopsis>)> = shards
            .iter()
            .map(|s| {
                let shared: Arc<[u8]> = Arc::from(s.rel.bytes.as_slice());
                (
                    s.rel.spec.shard_id,
                    Arc::new(FrozenSynopsis::from_bytes_shared(shared).expect("served bytes load")),
                )
            })
            .collect();
        let replay = layers::serve_replay(&stand.pool, replayed, &synopses, spans, p);
        let snapshots: Vec<&[u8]> = rels.iter().map(|r| r.bytes.as_slice()).collect();
        let load = layers::load_ns_per_byte(&snapshots, 3, spans, p);
        let persisted: Vec<(u32, &[u8])> =
            shards.iter().map(|s| (s.rel.spec.shard_id, s.rel.bytes.as_slice())).collect();
        let store = layers::store_replay(
            &run.out_dir.join(format!("store-replay-{}", std::process::id())),
            &persisted,
            3,
            spans,
            p,
        );
        let walk_ns = replay.miss_frac * replay.query_ns;
        let attributed = replay.decode_ns + replay.encode_ns + replay.cache_ns + walk_ns;
        let metrics: Vec<(&str, f64, &'static str)> = vec![
            ("index.sa_ms", ms(idx.sa_ns), "ms"),
            ("index.lcp_ms", ms(idx.lcp_ns), "ms"),
            ("index.hash_ms", ms(idx.hash_ns), "ms"),
            ("index.doc_counter_ms", ms(idx.doc_counter_ns), "ms"),
            ("index.bytes_per_corpus_byte", idx.bytes_per_corpus_byte, "B/B"),
            ("pipeline.candidates_ms", phase("candidates"), "ms"),
            ("pipeline.count_trie_ms", phase("count_trie"), "ms"),
            ("pipeline.noise_ms", phase("noise"), "ms"),
            ("pipeline.prune_ms", phase("prune"), "ms"),
            ("pipeline.trie_nodes", trie_nodes as f64, "count"),
            ("pipeline.kept_frac", kept as f64 / trie_nodes.max(1) as f64, "frac"),
            ("synopsis.freeze_ms", ms(rels.iter().map(|r| r.times.freeze_ns).sum()), "ms"),
            ("synopsis.nodes", kept as f64, "count"),
            (
                "synopsis.snapshot_bytes",
                snapshots.iter().map(|b| b.len()).sum::<usize>() as f64,
                "B",
            ),
            (
                "synopsis.accel_bytes",
                rels.iter().map(|r| r.oracle.accel_memory_bytes()).sum::<usize>() as f64,
                "B",
            ),
            ("synopsis.query_ns", replay.query_ns, "ns"),
            ("synopsis.query_batch_ns", replay.query_batch_ns, "ns"),
            ("codec.encode_ms", ms(rels.iter().map(|r| r.times.encode_ns).sum()), "ms"),
            ("codec.load_ns_per_byte", load, "ns/B"),
            ("wire.decode_ns_per_pattern", replay.decode_ns, "ns"),
            ("wire.encode_ns_per_pattern", replay.encode_ns, "ns"),
            (
                "cache.hit_rate",
                stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64,
                "frac",
            ),
            ("cache.get_ns", replay.cache_ns, "ns"),
            ("server.loop_utilization", report.loop_utilization, "frac"),
            ("server.service_p50_ns", report.latency_p50_ns, "ns"),
            ("server.service_p99_ns", report.latency_p99_ns, "ns"),
            ("server.patterns", report.patterns_total as f64, "count"),
            ("server.errors", report.ops.errors as f64, "count"),
            ("server.overloaded", report.overloaded_total as f64, "count"),
            ("server.unattributed_ns_per_pattern", server_cpu_ns_per_pattern - attributed, "ns"),
            ("store.persist_ms", ms(store.persist_ns), "ms"),
            ("store.bytes_written_per_byte", store.bytes_written_per_byte, "B/B"),
            ("store.open_recover_ms", ms(store.open_recover_ns), "ms"),
            ("gen.sent", totals.sent as f64, "count"),
            ("gen.completed", totals.completed as f64, "count"),
            ("gen.invalid_phases", totals.invalid_phases as f64, "count"),
        ];
        metrics.into_iter().map(|(name, v, unit)| (name.to_string(), v, unit)).collect()
    })
}
