//! The measured process: boots from the artefacts alone, drives the
//! request path over the plan's op list, checks every answer, and reports
//! the serving-side metrics. Started by the set-up process as a fresh
//! `exec`, so its peak memory and boot time are a restarted server's.
//!
//! Every time reported from here is read on the calibrated clock
//! ([`crate::calibrate`]); the wall-clock values are printed beside them.

use crate::calibrate::{calibrated, Probe, Timeline, CHUNK_KERNELS, LONG_KERNELS};
use crate::setup::boot_durable;
use crate::stats::{better_half_mean, median, p99, peak_rss_mib, HostSample};
use crate::workload::{
    has_patterns, ingest_body, ingest_mark, probe_every, search_body, stable_digest, Op, Plan,
    QueryCase, Scale, Workload, DATA_DIR, GRAPH_FILE, INDEX_FILE, PLAN_FILE,
};
use patternkb_search::{EngineBuilder, SharedEngine, StorageBackend};
use patternkb_serve::api;
use patternkb_text::SynonymTable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many failure descriptions are kept for the log.
const VIOLATIONS_KEPT: usize = 8;

/// What the measured process hands back to the set-up process.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed or invariants broke (the first few).
    pub violations: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Measured {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(why);
        }
    }

    fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = VIOLATIONS_KEPT.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
    }
}

/// `/search`, bytes in to bytes out: the calls `serve::server`'s
/// connection thread and worker make, minus the socket and hand-offs.
pub fn search_op(shared: &SharedEngine, body: &[u8]) -> Result<String, String> {
    let parsed = api::parse_search(body).map_err(|e| e.to_string())?;
    let snapshot = shared.snapshot();
    let response = shared
        .respond_on(&snapshot, &parsed.request)
        .map_err(|e| e.to_string())?;
    Ok(api::render_response(&snapshot, &response).render())
}

/// `/admin/ingest`, request bytes to durable ack; also returns the
/// acknowledged version.
pub fn ingest_op(shared: &SharedEngine, body: &[u8]) -> Result<(String, u64), String> {
    let batch = api::parse_ingest(body).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let outcome = shared
        .ingest_with(batch.mode, |s| api::compile_delta(s.graph(), &batch))
        .map_err(|e| e.to_string())?;
    Ok((
        api::render_ingest(&outcome, t0.elapsed()).render(),
        outcome.version,
    ))
}

/// What one pass records while it runs: the wall-clock interval of every
/// op, and the probes taken between them.
#[derive(Default)]
pub struct PassRecord {
    searches: Vec<(Instant, Instant)>,
    ingests: Vec<(Instant, Instant)>,
    probes: Vec<Probe>,
    /// Versions acknowledged by this pass's ingests.
    pub acked: Vec<u64>,
    /// Ops attempted and failed, with the first few reasons.
    pub tally: Measured,
}

impl PassRecord {
    fn merge(&mut self, other: PassRecord) {
        self.searches.extend(other.searches);
        self.ingests.extend(other.ingests);
        self.probes.extend(other.probes);
        self.acked.extend(other.acked);
        self.tally.absorb(other.tally);
    }
}

/// One finished pass, read on the calibrated clock.
pub struct PassOutcome {
    /// Latency of every search / ingest, in the order a driver issued them.
    pub search_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    /// The pass from its first op to its last.
    pub wall_s: f64,
    /// The same on the wall clock, probes included.
    pub raw_wall_s: f64,
    /// Wall-clock durations of the ops, summed (the traced run's reference).
    pub raw_ops_ms: f64,
    /// Mean slow-down factor the pass's probes read.
    pub factor: f64,
    /// Stolen share of all CPU time, and the main thread's run-queue
    /// delay per unit of time it ran, while the pass lasted: they tell an
    /// interfered pass from a slow one.
    pub steal_ratio: f64,
    pub run_delay_ratio: f64,
}

impl PassOutcome {
    fn new(record: PassRecord, start: Instant, end: Instant, host: (f64, f64)) -> PassOutcome {
        let timeline = Timeline::new(record.probes);
        let ms = |ops: &[(Instant, Instant)]| -> Vec<f64> {
            ops.iter()
                .map(|&(a, b)| timeline.seconds(a, b) * 1e3)
                .collect()
        };
        PassOutcome {
            search_ms: ms(&record.searches),
            ingest_ms: ms(&record.ingests),
            wall_s: timeline.seconds(start, end),
            raw_wall_s: (end - start).as_secs_f64(),
            raw_ops_ms: record
                .searches
                .iter()
                .chain(&record.ingests)
                .map(|&(a, b)| (b - a).as_secs_f64() * 1e3)
                .sum(),
            factor: timeline.mean_factor(),
            steal_ratio: host.0,
            run_delay_ratio: host.1,
        }
    }

    pub fn ops(&self) -> usize {
        self.search_ms.len() + self.ingest_ms.len()
    }
}

/// What a driver needs to issue and judge ops; shared with the driver
/// threads.
pub struct Traffic {
    pub plan: Plan,
    /// Whether answers still equal the set-up digests: true until the
    /// first ingest starts on the current engine's lineage.
    pub digests_hold: AtomicBool,
    /// The op list's searches, in order (what the throughput drivers
    /// share), and for each of its ingests the number of searches that
    /// precede it (when the throughput writer issues it).
    searches: Vec<u32>,
    ingest_after: Vec<usize>,
    /// Searches a driver issues between two probes.
    probe_every: usize,
    /// Throughput passes: the next search to hand out, the searches
    /// completed, and whether the writer is inside an ingest.
    next_search: AtomicUsize,
    searches_done: AtomicUsize,
    ingest_in_flight: AtomicBool,
}

impl Traffic {
    pub fn new(plan: Plan) -> Traffic {
        let mut searches = Vec::new();
        let mut ingest_after = Vec::new();
        for op in &plan.ops {
            match op {
                Op::Search(q) => searches.push(*q),
                Op::Ingest => ingest_after.push(searches.len()),
            }
        }
        Traffic {
            probe_every: probe_every(plan.workload),
            plan,
            digests_hold: AtomicBool::new(true),
            searches,
            ingest_after,
            next_search: AtomicUsize::new(0),
            searches_done: AtomicUsize::new(0),
            ingest_in_flight: AtomicBool::new(false),
        }
    }

    fn timed_search(&self, shared: &SharedEngine, q: u32, out: &mut PassRecord) {
        let case = &self.plan.queries[q as usize];
        let t0 = Instant::now();
        let answer = search_op(shared, case.body.as_bytes());
        out.searches.push((t0, Instant::now()));
        self.check_answer(case, answer, &mut out.tally);
    }

    fn timed_ingest(&self, shared: &SharedEngine, body: &str, out: &mut PassRecord) {
        self.digests_hold.store(false, Ordering::SeqCst);
        let t0 = Instant::now();
        let ack = ingest_op(shared, body.as_bytes());
        out.ingests.push((t0, Instant::now()));
        out.tally.attempted += 1;
        match ack {
            Ok((_, version)) => out.acked.push(version),
            Err(e) => out.tally.fail(format!("ingest: {e}")),
        }
    }

    /// Judge one search answer. Only an answer that completed before any
    /// ingest began is held to the set-up digest (answers legitimately
    /// change afterwards); later ones must still be well-formed and
    /// non-empty. Call *after* the op finished, so the flag read covers
    /// the whole op.
    pub fn check_answer(
        &self,
        case: &QueryCase,
        answer: Result<String, String>,
        tally: &mut Measured,
    ) {
        tally.attempted += 1;
        let pinned = self.digests_hold.load(Ordering::SeqCst);
        match answer {
            Ok(body) if pinned && stable_digest(&body) != Some(case.digest) => {
                tally.fail(format!("answer of {} differs from set-up", case.body))
            }
            Ok(body) if !has_patterns(&body) => {
                tally.fail(format!("{} answered without patterns", case.body))
            }
            Ok(_) => {}
            Err(e) => tally.fail(format!("{}: {e}", case.body)),
        }
    }

    /// A latency pass: the whole op list, in order, on the calling thread,
    /// with a probe after every `probe_every` searches and a long one on
    /// each side of an ingest. `bodies` holds one ingest body per
    /// `Op::Ingest`.
    fn drive(&self, shared: &SharedEngine, bodies: &[String]) -> PassRecord {
        let mut out = PassRecord::default();
        let mut bodies = bodies.iter();
        out.probes.push(Probe::take(CHUNK_KERNELS));
        let mut since_probe = 0;
        for op in &self.plan.ops {
            match op {
                Op::Search(q) => {
                    self.timed_search(shared, *q, &mut out);
                    since_probe += 1;
                    if since_probe == self.probe_every {
                        out.probes.push(Probe::take(CHUNK_KERNELS));
                        since_probe = 0;
                    }
                }
                Op::Ingest => {
                    let body = bodies.next().expect("one body per ingest op");
                    out.probes.push(Probe::take(LONG_KERNELS));
                    self.timed_ingest(shared, body, &mut out);
                    out.probes.push(Probe::take(LONG_KERNELS));
                    since_probe = 0;
                }
            }
        }
        if since_probe > 0 {
            out.probes.push(Probe::take(CHUNK_KERNELS));
        }
        out
    }

    /// One driver's part of a throughput pass. The drivers advance in
    /// rounds of `probe_every` searches per driver, taken one at a time
    /// from the shared op list, and meet at a barrier between rounds to
    /// probe together: with every driver idle a probe reads the machine,
    /// not the load of the other drivers' shard threads. A probe that
    /// overlaps the writer's ingest is dropped for the same reason.
    fn drive_rounds(&self, shared: &SharedEngine, barrier: &Barrier, drivers: usize) -> PassRecord {
        let mut out = PassRecord::default();
        let total = self.searches.len();
        let mut round_end = 0;
        loop {
            barrier.wait();
            let start = Instant::now();
            let quiet = !self.ingest_in_flight.load(Ordering::SeqCst);
            let factor = quiet.then(|| Probe::take(CHUNK_KERNELS).factor);
            // Nobody starts the next round while another driver probes;
            // the wait is part of the probe's window, not of the pass.
            barrier.wait();
            if let Some(factor) = factor.filter(|_| !self.ingest_in_flight.load(Ordering::SeqCst)) {
                out.probes.push(Probe {
                    start,
                    end: Instant::now(),
                    factor,
                });
            }
            if round_end == total {
                return out;
            }
            round_end = (round_end + self.probe_every * drivers).min(total);
            while let Ok(i) =
                self.next_search
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |i| {
                        (i < round_end).then_some(i + 1)
                    })
            {
                self.timed_search(shared, self.searches[i], &mut out);
                self.searches_done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// The `nproc` driver threads of the throughput passes, alive for the
/// whole phase (a fresh thread would land on an arbitrary allocator
/// arena each pass). A throughput pass is a closed loop of `nproc`
/// readers plus one writer: the drivers share the op list's searches
/// (see [`Traffic::drive_rounds`]), and the calling thread issues each
/// ingest as soon as the drivers have together completed the searches
/// that precede it in the op list. The writer is the calling (main)
/// thread on purpose: an ingest builds a whole index in the heap of the
/// thread that runs it, and the main thread's heap already grew to that
/// size in the latency passes (see README, "Memory").
pub struct DriverPool {
    jobs: Vec<mpsc::Sender<Arc<SharedEngine>>>,
    done: mpsc::Receiver<PassRecord>,
    threads: Vec<JoinHandle<()>>,
}

impl DriverPool {
    pub fn new(traffic: &Arc<Traffic>, threads: usize) -> DriverPool {
        let threads = threads.max(1);
        let (done_tx, done) = mpsc::channel();
        let barrier = Arc::new(Barrier::new(threads));
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<Arc<SharedEngine>>();
            let traffic = Arc::clone(traffic);
            let barrier = Arc::clone(&barrier);
            let done_tx = done_tx.clone();
            jobs.push(tx);
            handles.push(std::thread::spawn(move || {
                for engine in rx {
                    let out = traffic.drive_rounds(&engine, &barrier, threads);
                    if done_tx.send(out).is_err() {
                        return;
                    }
                }
            }));
        }
        DriverPool {
            jobs,
            done,
            threads: handles,
        }
    }

    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// One throughput pass.
    fn run(&self, traffic: &Traffic, engine: &Arc<SharedEngine>, bodies: &[String]) -> PassRecord {
        traffic.next_search.store(0, Ordering::SeqCst);
        traffic.searches_done.store(0, Ordering::SeqCst);
        for tx in &self.jobs {
            tx.send(Arc::clone(engine))
                .expect("driver thread exited early");
        }
        let mut merged = PassRecord::default();
        for (due_after, body) in traffic.ingest_after.iter().zip(bodies) {
            while traffic.searches_done.load(Ordering::SeqCst) < *due_after {
                std::thread::sleep(Duration::from_micros(200));
            }
            traffic.ingest_in_flight.store(true, Ordering::SeqCst);
            traffic.timed_ingest(engine, body, &mut merged);
            traffic.ingest_in_flight.store(false, Ordering::SeqCst);
            // Once the drivers are through their searches this thread is
            // the only load, and probes between the ingests here.
            if traffic.searches_done.load(Ordering::SeqCst) == traffic.searches.len() {
                merged.probes.push(Probe::take(LONG_KERNELS));
            }
        }
        for _ in 0..self.jobs.len() {
            merged.merge(self.done.recv().expect("driver thread panicked"));
        }
        merged
    }

    /// Stop the drivers and wait for each.
    pub fn join(self) {
        drop(self.jobs);
        for t in self.threads {
            t.join().expect("driver thread panicked");
        }
    }
}

pub struct Runner {
    pub traffic: Arc<Traffic>,
    pub scale: Scale,
    pub dir: PathBuf,
    pub out: Measured,
    /// Ingest bodies minted so far (`bench vendor <n>`).
    pub ingests_minted: u64,
    /// Every boot so far, on the calibrated clock and on the wall clock.
    pub boot_s: Vec<f64>,
    pub boot_wall_s: Vec<f64>,
}

impl Runner {
    pub fn new(dir: &Path, scale: Scale) -> Result<Runner, String> {
        let plan = Plan::load(&dir.join(PLAN_FILE))?;
        Ok(Runner {
            ingests_minted: plan.ingests_done,
            traffic: Arc::new(Traffic::new(plan)),
            scale,
            dir: dir.to_path_buf(),
            out: Measured::default(),
            boot_s: Vec::new(),
            boot_wall_s: Vec::new(),
        })
    }

    pub fn plan(&self) -> &Plan {
        &self.traffic.plan
    }

    pub fn workload(&self) -> Workload {
        self.plan().workload
    }

    /// Artefacts on disk → `build_shared()` returned; the time is one
    /// `boot_s` sample.
    pub fn boot(&mut self) -> Result<Arc<SharedEngine>, String> {
        let workload = self.workload();
        let dir = &self.dir;
        let (shared, cal_s, wall_s) = calibrated(|| -> Result<SharedEngine, String> {
            let graph = patternkb_graph::snapshot::load(&dir.join(GRAPH_FILE))
                .map_err(|e| format!("graph snapshot: {e}"))?;
            match workload {
                Workload::MixedWrite => boot_durable(graph, &dir.join(DATA_DIR)),
                w => EngineBuilder::new()
                    .graph(graph)
                    .synonyms(SynonymTable::default_english())
                    .index_snapshot(dir.join(INDEX_FILE))
                    .storage(if w == Workload::Coldstart {
                        StorageBackend::Mmap
                    } else {
                        StorageBackend::Heap
                    })
                    .build_shared()
                    .map_err(|e| format!("boot: {e}")),
            }
        });
        let shared = shared?;
        self.boot_s.push(cal_s);
        self.boot_wall_s.push(wall_s);
        // A fresh engine from the read-only artefacts answers as set-up
        // recorded; the durable directory keeps this process's writes.
        if workload != Workload::MixedWrite {
            self.traffic.digests_hold.store(true, Ordering::SeqCst);
        }
        Ok(Arc::new(shared))
    }

    /// Release `engine` (if any), then boot: two engines never coexist,
    /// as in a real restart.
    pub fn reboot(&mut self, engine: &mut Option<Arc<SharedEngine>>) -> Result<(), String> {
        *engine = None;
        *engine = Some(self.boot()?);
        Ok(())
    }

    /// Bodies for the next `count` ingests, minted ahead so rendering
    /// them stays out of the timed loop.
    pub fn mint_ingest_bodies(&mut self, count: usize) -> Vec<String> {
        let first = self.ingests_minted;
        self.ingests_minted += count as u64;
        let plan = self.plan();
        (first..first + count as u64)
            .map(|seq| ingest_body(&plan.ingest_type, &plan.ingest_attr, seq))
            .collect()
    }

    /// One pass over the whole op list: on the calling thread (a latency
    /// pass), or shared by `drivers` (a throughput pass).
    pub fn pass(
        &mut self,
        shared: &Arc<SharedEngine>,
        drivers: Option<&DriverPool>,
    ) -> PassOutcome {
        self.pass_with(shared, |traffic, bodies| match drivers {
            None => traffic.drive(shared, bodies),
            Some(pool) => pool.run(traffic, shared, bodies),
        })
    }

    /// A pass whose ops are executed by `drive`, with the pass-level
    /// bookkeeping around it: its interval, and the write invariants —
    /// every ack bumped the version by exactly one, and the pass's last
    /// write is searchable.
    pub fn pass_with(
        &mut self,
        shared: &SharedEngine,
        drive: impl FnOnce(&Traffic, &[String]) -> PassRecord,
    ) -> PassOutcome {
        let ingests = self
            .plan()
            .ops
            .iter()
            .filter(|op| **op == Op::Ingest)
            .count();
        let bodies = self.mint_ingest_bodies(ingests);
        let version_before = shared.version();
        let host = HostSample::now();
        let start = Instant::now();
        let mut record = drive(&self.traffic, &bodies);
        let end = Instant::now();
        let host = host.ratios_until(&HostSample::now());

        if ingests > 0 {
            record.acked.sort_unstable();
            let expected: Vec<u64> =
                (version_before + 1..=version_before + ingests as u64).collect();
            record.tally.attempted += 2;
            if record.acked != expected || shared.version() != version_before + ingests as u64 {
                record.tally.fail(format!(
                    "acked versions {:?}, expected {expected:?}, serving v{}",
                    record.acked,
                    shared.version()
                ));
            }
            let mark = search_body(&[ingest_mark(self.ingests_minted - 1)]);
            if !search_op(shared, mark.as_bytes()).is_ok_and(|body| has_patterns(&body)) {
                record
                    .tally
                    .fail(format!("{mark} not searchable after its ack"));
            }
        }
        self.out.absorb(std::mem::take(&mut record.tally));
        PassOutcome::new(record, start, end, host)
    }

    /// `count` passes of one kind. `coldstart` re-boots before each, so
    /// each of its passes is a cold-start cycle.
    pub fn passes(
        &mut self,
        engine: &mut Option<Arc<SharedEngine>>,
        count: usize,
        mut pass: impl FnMut(&mut Runner, &Arc<SharedEngine>) -> PassOutcome,
    ) -> Result<Vec<PassOutcome>, String> {
        let mut done = Vec::with_capacity(count);
        for _ in 0..count {
            if self.workload() == Workload::Coldstart {
                self.reboot(engine)?;
            }
            let shared = engine.as_ref().ok_or("no engine booted")?;
            done.push(pass(self, shared));
        }
        Ok(done)
    }

    /// One ingest outside the op list, checked like the ones inside it.
    /// Returns the latency in calibrated ms if the ack was right.
    pub fn checked_ingest(&mut self, shared: &SharedEngine, body: &str) -> Option<f64> {
        let before = shared.version();
        self.traffic.digests_hold.store(false, Ordering::SeqCst);
        self.out.attempted += 1;
        let (ack, cal_s, _) = calibrated(|| ingest_op(shared, body.as_bytes()));
        match ack {
            Ok((_, v)) if v == before + 1 && shared.version() == v => Some(cal_s * 1e3),
            Ok((_, v)) => {
                self.out
                    .fail(format!("ingest acked v{v} on top of v{before}"));
                None
            }
            Err(e) => {
                self.out.fail(format!("ingest: {e}"));
                None
            }
        }
    }

    /// `mixed-write` only, after the last pass: checkpoint, ack one more
    /// write, then recover from the same directory the way a restarted
    /// server would. The recovered engine must serve exactly the acked
    /// high-water version, and that last write. (Checkpointing first
    /// keeps recovery from replaying every ingest of the run — each
    /// replayed record costs a full index refresh.) Returns the
    /// checkpoint's `(seconds, bytes)`.
    pub fn durability_check(&mut self, shared: Arc<SharedEngine>) -> Result<(f64, u64), String> {
        let durability = shared
            .durability()
            .cloned()
            .ok_or("mixed-write engine has no durability handle")?;
        let t0 = Instant::now();
        let path = durability
            .checkpoint_now(&shared.snapshot())
            .map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_s = t0.elapsed().as_secs_f64();
        let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

        let body = self.mint_ingest_bodies(1).remove(0);
        self.checked_ingest(&shared, &body);
        let acked = shared.version();
        drop(durability);
        drop(shared);

        self.out.attempted += 1;
        let graph = patternkb_graph::snapshot::load(&self.dir.join(GRAPH_FILE))
            .map_err(|e| format!("graph snapshot: {e}"))?;
        let recovered = boot_durable(graph, &self.dir.join(DATA_DIR))?;
        let mark = search_body(&[ingest_mark(self.ingests_minted - 1)]);
        let found = search_op(&recovered, mark.as_bytes()).is_ok_and(|b| has_patterns(&b));
        if recovered.version() != acked || !found {
            self.out.fail(format!(
                "recovery serves v{} (acked v{acked}), last write found: {found}",
                recovered.version()
            ));
        }
        Ok((checkpoint_s, checkpoint_bytes))
    }
}

pub fn driver_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn show(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(dir: &Path, scale: Scale) -> Result<Measured, String> {
    let host0 = HostSample::now();
    let mut r = Runner::new(dir, scale)?;
    let workload = r.workload();

    // Boot several times, dropping the engine in between; serve from the
    // last one.
    let mut engine = None;
    for _ in 0..r.scale.boots {
        r.reboot(&mut engine)?;
    }
    // Each phase starts with one unreported pass of its own kind: it
    // fills the result cache and grows each driver's heap to the size the
    // reported passes then re-use.
    let (p, t) = (r.scale.latency_passes, r.scale.throughput_passes);
    r.passes(&mut engine, 1, |r, s| r.pass(s, None))?;
    let latency = r.passes(&mut engine, p, |r, s| r.pass(s, None))?;
    let drivers = DriverPool::new(&r.traffic, driver_threads());
    r.passes(&mut engine, 1, |r, s| r.pass(s, Some(&drivers)))?;
    let throughput = r.passes(&mut engine, t, |r, s| r.pass(s, Some(&drivers)))?;
    let threads = drivers.threads();
    drivers.join();
    let shared = engine.take().expect("booted above");
    // What a server restarted on these artefacts and given this traffic
    // peaks at. Read before the writes below: on a read-only workload
    // they are an appendix, and each builds a second copy of the index.
    let rss_mb = peak_rss_mib();

    // Writes on a read-only workload come last, as an epilogue: so that
    // `ingest_p50_ms` exists on every workload (the driver's contract)
    // without a write ever invalidating the cache during a read pass.
    // The first ones are unreported: they grow the heap by the second
    // index copy an ingest needs.
    let mut ingest_ms: Vec<f64> = latency
        .iter()
        .flat_map(|p| p.ingest_ms.iter().copied())
        .collect();
    if workload == Workload::MixedWrite {
        r.durability_check(shared)?;
    } else {
        let warmups = r.scale.epilogue_warmups;
        let bodies = r.mint_ingest_bodies(warmups + r.scale.epilogue_ingests);
        for (i, body) in bodies.iter().enumerate() {
            let ms = r.checked_ingest(&shared, body);
            if i >= warmups {
                ingest_ms.extend(ms);
            }
        }
        drop(shared);
    }
    if ingest_ms.is_empty() {
        return Err("no ingest was acknowledged".into());
    }

    // Within a pass the median and the 99th percentile of its searches
    // (≥ 1 000 per pass; see `stats::p99`); across the passes, and over the
    // ingests, the median. Boots can only be held up, so the better half
    // of them counts; the first pays for the process's memory and is
    // left out.
    let per_pass = |f: &dyn Fn(&PassOutcome) -> f64, passes: &[PassOutcome]| -> Vec<f64> {
        passes.iter().map(f).collect()
    };
    let p50 = per_pass(&|p| median(&p.search_ms), &latency);
    let p99s = per_pass(&|p| p99(&p.search_ms), &latency);
    let qps = per_pass(&|p| p.ops() as f64 / p.wall_s, &throughput);
    let raw_qps = per_pass(&|p| p.ops() as f64 / p.raw_wall_s, &throughput);
    let all = || latency.iter().chain(&throughput);
    let factors: Vec<f64> = all().map(|p| p.factor).collect();
    let steals: Vec<f64> = all().map(|p| p.steal_ratio).collect();
    let delays: Vec<f64> = all().map(|p| p.run_delay_ratio).collect();
    let (steal, delay) = host0.ratios_until(&HostSample::now());
    println!(
        "# {}: {p} latency + {t} throughput passes of {} ops, {threads} driver threads; \
         host.steal_ratio {steal:.4} host.run_delay_ratio {delay:.4}",
        workload.name(),
        r.plan().ops.len(),
    );
    println!(
        "#   per pass: clock factor [{}] p50 ms [{}] p99 ms [{}] qps [{}] (wall-clock qps [{}])",
        show(&factors),
        show(&p50),
        show(&p99s),
        show(&qps),
        show(&raw_qps)
    );
    println!(
        "#   per pass: host.steal_ratio [{}] host.run_delay_ratio [{}]",
        show(&steals),
        show(&delays)
    );
    println!(
        "#   boots s [{}] (wall-clock [{}]) ingests ms [{}]",
        show(&r.boot_s),
        show(&r.boot_wall_s),
        show(&ingest_ms)
    );
    r.out.metrics = vec![
        ("qps".into(), median(&qps)),
        ("search_p50_ms".into(), median(&p50)),
        ("search_p99_ms".into(), median(&p99s)),
        ("ingest_p50_ms".into(), median(&ingest_ms)),
        (
            "boot_s".into(),
            better_half_mean(&r.boot_s[1.min(r.boot_s.len() - 1)..]),
        ),
        ("rss_mb".into(), rss_mb),
        (
            "index_bytes_per_posting".into(),
            r.plan().index_bytes as f64 / r.plan().postings as f64,
        ),
    ];
    Ok(r.out)
}
