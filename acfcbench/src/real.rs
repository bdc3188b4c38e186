//! The `acfc run --real` operation: parse a generated ring program,
//! build its coordinator and backend, and run it with kills at seeded
//! virtual times: timed on the deterministic scheduler (`run_det`), and
//! in the traced run also on live worker threads (`run_free`). Every run
//! is checked for completion, for final variables equal to a kill-free
//! deterministic reference, and for a consistent restored cut at every
//! recovery, judged from the snapshots the backend decorator saw.

use crate::analysis::Case;
use crate::gen::Ring;
use crate::stats::{median, percentile, ratio, timing, Metric};
use crate::{Outcome, Phase};
use acfc::mpsl::parse;
use acfc::protocols::ProtocolKind;
use acfc::runtime::{
    backend_for, coordinator_for, crc32, run_det, run_free, CheckpointCoordinator, FailureInjector,
    FreeConfig, InMemoryBackend, RunEvent, RunReport,
};
use acfc::sim::{
    compile, BackendError, CkptTrigger, Compiled, CoordinationCost, CutPicker, FailurePlan,
    NetworkModel, Outcome as RunOutcome, RecvAction, SimConfig, SimTime, StateBackend,
    StateSnapshot,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workers per run (threads, under `run_free`).
pub const NPROCS: usize = 4;

/// Keep one committed snapshot in this many for the encode/decode/CRC
/// figures of the traced run.
const CAPTURE_EVERY: u64 = 8;

/// A generated program with everything its runs are checked against.
pub struct RealProgram {
    ring: Ring,
    /// `final_vars` of a kill-free deterministic run.
    reference: Vec<Vec<(String, i64)>>,
    kills: Vec<(u64, usize)>,
    interval_us: u64,
    sim_seed: u64,
    /// Encoded size of one of its snapshots.
    snapshot_bytes: usize,
}

impl RealProgram {
    /// Set-up for one program: a kill-free `run_det` reference, whose
    /// virtual makespan places the kills (fractions `kill_at` of it, on
    /// distinct seeded victims) and sets the timer interval of the
    /// other protocols to one checkpoint per iteration, the placement
    /// the application-driven protocol uses.
    pub fn prepare(
        ring: Ring,
        iters: u64,
        kill_at: &[f64],
        victims: &[usize],
        sim_seed: u64,
    ) -> Result<RealProgram, String> {
        let program = parse(&ring.src).map_err(|e| e.to_string())?;
        let mut prep = coordinator_for(
            ProtocolKind::AppDriven,
            &program,
            NPROCS,
            1,
            1,
            NetworkModel::default(),
        )?;
        let cfg = SimConfig::new(NPROCS).with_seed(sim_seed);
        let mut backend = InMemoryBackend::new();
        let det = run_det(
            &prep.compiled,
            &cfg,
            prep.coordinator.as_mut(),
            &mut backend,
            FailurePlan::none(),
        );
        if !det.trace.completed() {
            return Err(format!("reference run ended {:?}", det.trace.outcome));
        }
        let makespan = det.trace.finished_at.as_micros();
        let snapshot_bytes = det
            .trace
            .checkpoints
            .first()
            .map_or(0, |c| StateSnapshot::from_record(c).encode().len());
        Ok(RealProgram {
            ring,
            reference: det.final_vars,
            kills: kill_at
                .iter()
                .zip(victims)
                .map(|(&f, &p)| ((f * makespan as f64) as u64, p))
                .collect(),
            interval_us: (makespan / iters).max(1),
            sim_seed,
            snapshot_bytes,
        })
    }
}

/// Checkpoint-free runs: never intervenes, never checkpoints on a timer.
/// Run on the twin program, which has no checkpoint statements.
struct Bare;

impl CheckpointCoordinator for Bare {
    fn name(&self) -> &'static str {
        "none"
    }
    fn passive(&mut self) -> bool {
        true
    }
    fn uses_timers(&mut self) -> bool {
        false
    }
    fn piggyback(&mut self, _p: usize, _to: usize, ckpt_seq: u64, _now: SimTime) -> u64 {
        ckpt_seq
    }
    fn on_recv(&mut self, _p: usize, _pb: u64, _own: u64, _now: SimTime) -> RecvAction {
        RecvAction::Deliver
    }
    fn take_app_checkpoint(&mut self, _p: usize, _now: SimTime) -> bool {
        true
    }
    fn timer_due(&mut self, _p: usize, _now: SimTime) -> bool {
        false
    }
    fn timer_trigger(&mut self, _p: usize) -> CkptTrigger {
        CkptTrigger::Timer
    }
    fn coordination_cost(&mut self, _p: usize, _now: SimTime) -> CoordinationCost {
        CoordinationCost::default()
    }
    fn checkpoint_taken(&mut self, _p: usize, _t: CkptTrigger, _now: SimTime) {}
    fn picker(&self) -> CutPicker {
        CutPicker::AlignedSeq
    }
}

/// Wall-clock intervals `(start, end)` in ns since the run started.
type Spans = Vec<(u64, u64)>;

fn since(epoch: Instant, t: Instant) -> u64 {
    (t - epoch).as_nanos() as u64
}

/// One recovery as the backend saw it: both schedulers end a recovery
/// by calling `discard_after(q, seq)` for every worker `q` in order,
/// naming its restored checkpoint (0 = its initial state).
#[derive(Default)]
struct Recovery {
    restored: Vec<(usize, u64)>,
    /// Snapshots reloaded (the free scheduler reloads every committed
    /// snapshot; the deterministic one keeps its own copies), and the
    /// time spent in `committed()` and `load`.
    loads: u64,
    secs: f64,
}

/// The `StateBackend` decorator. It always keeps the vector clock of
/// every committed snapshot and the restored line of every recovery,
/// for the cut check; in a traced run it also times every call and
/// keeps a sample of committed snapshots.
struct Watched {
    inner: Box<dyn StateBackend + Send>,
    traced: bool,
    epoch: Instant,
    clocks: BTreeMap<(usize, u64), Vec<(u32, u64)>>,
    recoveries: Vec<Recovery>,
    commit_us: Vec<f64>,
    load_us: Vec<f64>,
    spans: Spans,
    commits: u64,
    captured: Vec<StateSnapshot>,
}

impl Watched {
    fn new(inner: Box<dyn StateBackend + Send>, traced: bool, epoch: Instant) -> Watched {
        Watched {
            inner,
            traced,
            epoch,
            clocks: BTreeMap::new(),
            recoveries: Vec::new(),
            commit_us: Vec::new(),
            load_us: Vec::new(),
            spans: Vec::new(),
            commits: 0,
            captured: Vec::new(),
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut dyn StateBackend) -> R) -> (R, f64) {
        if !self.traced {
            return (f(&mut *self.inner), 0.0);
        }
        let t = Instant::now();
        let r = f(&mut *self.inner);
        let end = Instant::now();
        self.spans
            .push((since(self.epoch, t), since(self.epoch, end)));
        (r, (end - t).as_secs_f64())
    }

    /// Every restored line is a consistent cut: no restored snapshot
    /// has seen more of worker `i` than worker `i`'s own restored
    /// snapshot records.
    fn check_cuts(&self) -> Result<(), String> {
        for (k, rec) in self.recoveries.iter().enumerate() {
            let mut cut = Vec::with_capacity(rec.restored.len());
            for &(q, seq) in &rec.restored {
                if seq == 0 {
                    cut.push(None);
                    continue;
                }
                let vc = self.clocks.get(&(q, seq)).ok_or(format!(
                    "recovery {k} restored P{q} to seq {seq}, which was never committed"
                ))?;
                cut.push(Some(vc));
            }
            let own = |i: usize| {
                cut.get(i)
                    .copied()
                    .flatten()
                    .and_then(|vc| vc.iter().find(|&&(p, _)| p as usize == i))
                    .map_or(0, |&(_, c)| c)
            };
            for (j, vc) in cut.iter().enumerate() {
                for &(i, seen) in vc.iter().copied().flatten() {
                    if i as usize != j && seen > own(i as usize) {
                        return Err(format!(
                            "recovery {k}: P{j}'s restored snapshot saw {seen} events of P{i}, \
                             P{i}'s own restored snapshot records {}",
                            own(i as usize)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl StateBackend for Watched {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        self.commits += 1;
        if self.traced && self.commits % CAPTURE_EVERY == 1 {
            self.captured.push(snap.clone());
        }
        let (r, secs) = self.time(|b| b.commit(snap));
        if self.traced {
            self.commit_us.push(secs * 1e6);
        }
        if r.is_ok() {
            self.clocks.insert((snap.proc, snap.seq), snap.vc.clone());
        }
        r
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        let (r, secs) = self.time(|b| b.load(proc, seq));
        if self.traced {
            self.load_us.push(secs * 1e6);
        }
        if let Some(rec) = self.recoveries.last_mut() {
            rec.loads += 1;
            rec.secs += secs;
        }
        r
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        let (r, secs) = self.time(|b| b.committed());
        self.recoveries.push(Recovery {
            secs,
            ..Recovery::default()
        });
        r
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        // Worker 0's discard starts a recovery, unless `committed()`
        // already opened it.
        if proc == 0
            && self
                .recoveries
                .last()
                .is_none_or(|r| !r.restored.is_empty())
        {
            self.recoveries.push(Recovery::default());
        }
        if let Some(rec) = self.recoveries.last_mut() {
            rec.restored.push((proc, seq));
        }
        self.time(|b| b.discard_after(proc, seq)).0
    }
}

/// The `CheckpointCoordinator` decorator of the traced run: counts and
/// times every call (all made under the runtime's coordinator lock).
struct TimedCoordinator {
    inner: Box<dyn CheckpointCoordinator>,
    epoch: Instant,
    calls: u64,
    spans: Spans,
}

impl TimedCoordinator {
    fn time<R>(&mut self, f: impl FnOnce(&mut dyn CheckpointCoordinator) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.calls += 1;
        self.spans
            .push((since(self.epoch, t), since(self.epoch, Instant::now())));
        r
    }
}

impl CheckpointCoordinator for TimedCoordinator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn passive(&mut self) -> bool {
        self.inner.passive()
    }
    fn uses_timers(&mut self) -> bool {
        self.inner.uses_timers()
    }
    fn piggyback(&mut self, p: usize, to: usize, ckpt_seq: u64, now: SimTime) -> u64 {
        self.time(|c| c.piggyback(p, to, ckpt_seq, now))
    }
    fn on_recv(&mut self, p: usize, piggyback: u64, own_seq: u64, now: SimTime) -> RecvAction {
        self.time(|c| c.on_recv(p, piggyback, own_seq, now))
    }
    fn take_app_checkpoint(&mut self, p: usize, now: SimTime) -> bool {
        self.time(|c| c.take_app_checkpoint(p, now))
    }
    fn timer_due(&mut self, p: usize, now: SimTime) -> bool {
        self.time(|c| c.timer_due(p, now))
    }
    fn timer_trigger(&mut self, p: usize) -> CkptTrigger {
        self.time(|c| c.timer_trigger(p))
    }
    fn coordination_cost(&mut self, p: usize, now: SimTime) -> CoordinationCost {
        self.time(|c| c.coordination_cost(p, now))
    }
    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger, now: SimTime) {
        self.time(|c| c.checkpoint_taken(p, trigger, now))
    }
    fn picker(&self) -> CutPicker {
        self.inner.picker()
    }
}

/// Total length of the union of two sets of intervals.
fn union_ns(a: &Spans, b: &Spans) -> u64 {
    let mut all: Spans = a.iter().chain(b).copied().collect();
    all.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in all {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Traced totals of the live probe runs on one backend.
#[derive(Default)]
struct BackendLayer {
    runs: u64,
    wall: f64,
    busy: f64,
    commit_us: Vec<f64>,
    load_us: Vec<f64>,
    captured: Vec<StateSnapshot>,
}

/// Traced-run totals.
#[derive(Default)]
struct Layers {
    /// Snapshots captured in deterministic runs.
    det_captured: Vec<StateSnapshot>,
    /// Live probe runs (`run_free`), per backend and in total.
    backends: BTreeMap<&'static str, BackendLayer>,
    live_runs: u64,
    live_wall: f64,
    coord_calls: u64,
    coord: f64,
    locked: f64,
    messages: u64,
    recoveries: u64,
    loads: u64,
    reload: f64,
    redelivered: u64,
    lost_us: u64,
}

/// The backends the traced run's live probe rotates through.
pub const LIVE_BACKENDS: [&str; 3] = ["mem", "file", "log"];

/// One entry of the run schedule.
#[derive(Clone, Copy)]
enum Slot {
    Run(usize, ProtocolKind),
    Twin(usize),
}

struct RunOut {
    secs: f64,
    commits: u64,
}

/// Which `acfc run --real` scheduler runs a program.
#[derive(Clone, Copy, PartialEq)]
enum Scheduler {
    /// `run_free`: one live OS thread per worker.
    Free,
    /// `run_det` (`--det`): the deterministic single-threaded scheduler.
    Det,
}

/// Timed runs use the deterministic scheduler on the mem backend: on a
/// shared two-core host the live scheduler's wall time follows the
/// host's thread wake-up latency and CPU steal, and moved by 1.5-3x
/// between runs minutes apart, more than any bound a gate could use.
/// The traced run adds a live probe, `run_free` on each backend in
/// turn, for the per-layer numbers of the live runtime.
pub struct RealPhase {
    pool: Vec<RealProgram>,
    schedule: Vec<Slot>,
    next: usize,
    probes: usize,
    tmp: PathBuf,
    dirs: u64,
    run_ms: Vec<f64>,
    twin_ms: Vec<f64>,
    /// Commits per second of each run.
    rates: Vec<f64>,
    layers: Layers,
    attempted: u64,
    failed: u64,
    paired: (f64, f64),
}

impl RealPhase {
    /// Cycles through `pool` × `kinds`, each run followed by one of its
    /// program's checkpoint-free twin. File and log backends of the
    /// live probe live in fresh directories under `tmp`.
    pub fn new(pool: Vec<RealProgram>, kinds: &[ProtocolKind], tmp: PathBuf) -> RealPhase {
        let mut schedule = Vec::new();
        for p in 0..pool.len() {
            for &k in kinds {
                schedule.push(Slot::Run(p, k));
                schedule.push(Slot::Twin(p));
            }
        }
        RealPhase {
            pool,
            schedule,
            next: 0,
            probes: 0,
            tmp,
            dirs: 0,
            run_ms: Vec::new(),
            twin_ms: Vec::new(),
            rates: Vec::new(),
            layers: Layers::default(),
            attempted: 0,
            failed: 0,
            paired: (0.0, 0.0),
        }
    }

    fn check(prog: &RealProgram, report: &RunReport) -> Result<(), String> {
        if report.outcome != RunOutcome::Completed {
            return Err(format!("run ended {:?}", report.outcome));
        }
        if report.final_vars != prog.reference {
            return Err("final_vars differ from the kill-free deterministic reference".into());
        }
        Ok(())
    }

    /// One run of program `p` under `kind`; `traced` adds the timing
    /// decorators.
    fn run(
        &mut self,
        p: usize,
        kind: ProtocolKind,
        backend: &'static str,
        scheduler: Scheduler,
        traced: bool,
    ) -> Result<RunOut, String> {
        let dir = (backend != "mem").then(|| {
            self.dirs += 1;
            self.tmp.join(format!("run-{}", self.dirs))
        });
        let prog = &self.pool[p];
        let epoch = Instant::now();
        let program = parse(&prog.ring.src).map_err(|e| e.to_string())?;
        let mut prep = coordinator_for(
            kind,
            &program,
            NPROCS,
            prog.interval_us,
            prog.interval_us / 3,
            NetworkModel::default(),
        )?;
        let inner = match &dir {
            Some(d) => {
                std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
                backend_for(backend, d)
            }
            None => backend_for(backend, Path::new("")),
        }
        .map_err(|e| e.to_string())?;
        let mut watched = Watched::new(inner, traced, epoch);
        let (report, coord) = if traced {
            let mut coord = TimedCoordinator {
                inner: prep.coordinator,
                epoch,
                calls: 0,
                spans: Vec::new(),
            };
            let r = execute(
                prog,
                &prep.compiled,
                &mut coord,
                &mut watched,
                scheduler,
                true,
            );
            (r, Some(coord))
        } else {
            let coord = prep.coordinator.as_mut();
            let r = execute(prog, &prep.compiled, coord, &mut watched, scheduler, true);
            (r, None)
        };
        let wall = epoch.elapsed().as_secs_f64();
        if let Some(d) = &dir {
            std::fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        Self::check(prog, &report)?;
        watched.check_cuts()?;
        let commits = report
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Checkpoint { .. }))
            .count() as u64;
        if let Some(coord) = coord {
            self.absorb(scheduler, backend, wall, &report, watched, coord);
        }
        Ok(RunOut {
            secs: wall,
            commits,
        })
    }

    fn absorb(
        &mut self,
        scheduler: Scheduler,
        backend: &'static str,
        wall: f64,
        report: &RunReport,
        w: Watched,
        c: TimedCoordinator,
    ) {
        let l = &mut self.layers;
        if scheduler == Scheduler::Det {
            l.det_captured.extend(w.captured);
            return;
        }
        let busy = |spans: &Spans| spans.iter().map(|(s, e)| e - s).sum::<u64>() as f64 / 1e9;
        let b = l.backends.entry(backend).or_default();
        b.runs += 1;
        b.wall += wall;
        b.busy += busy(&w.spans);
        b.commit_us.extend(&w.commit_us);
        b.load_us.extend(&w.load_us);
        l.live_runs += 1;
        l.live_wall += wall;
        l.coord += busy(&c.spans);
        l.locked += union_ns(&w.spans, &c.spans) as f64 / 1e9;
        l.coord_calls += c.calls;
        for rec in &w.recoveries {
            l.recoveries += 1;
            l.loads += rec.loads;
            l.reload += rec.secs;
        }
        b.captured.extend(w.captured);
        for e in &report.events {
            match e {
                RunEvent::Recovery {
                    redelivered,
                    lost_us,
                    ..
                } => {
                    l.redelivered += *redelivered as u64;
                    l.lost_us += lost_us;
                }
                RunEvent::RunEnd { messages, .. } => l.messages += messages,
                _ => {}
            }
        }
    }

    /// The checkpoint-free, kill-free twin of program `p`.
    fn twin(&self, p: usize) -> Result<f64, String> {
        let prog = &self.pool[p];
        let t = Instant::now();
        let program = parse(&prog.ring.twin_src).map_err(|e| e.to_string())?;
        let compiled = compile(&program);
        let mut backend = Watched::new(Box::new(InMemoryBackend::new()), false, t);
        let report = execute(
            prog,
            &compiled,
            &mut Bare,
            &mut backend,
            Scheduler::Det,
            false,
        );
        let secs = t.elapsed().as_secs_f64();
        Self::check(prog, &report)?;
        Ok(secs)
    }

    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                crate::report_failure(&format!("run {what}: {e}"));
                None
            }
        }
    }

    /// The pool's programs as analysis inputs at the live-run size.
    pub fn analysis_cases(&self) -> Vec<Case> {
        self.pool
            .iter()
            .map(|p| Case {
                name: format!("ring_state(V={})", p.ring.vars),
                src: p.ring.src.clone(),
                n: NPROCS,
            })
            .collect()
    }

    /// State variables of pool program `k`.
    pub fn vars(&self, k: usize) -> usize {
        self.pool[k].ring.vars
    }

    /// Snapshot sizes of the pool, bytes.
    pub fn snapshot_bytes(&self) -> (usize, usize) {
        let sizes = self.pool.iter().map(|p| p.snapshot_bytes);
        (sizes.clone().min().unwrap_or(0), sizes.max().unwrap_or(0))
    }
}

/// Runs `compiled` on `scheduler`, with the program's kills when
/// `kills` is set.
fn execute(
    prog: &RealProgram,
    compiled: &Compiled,
    coord: &mut dyn CheckpointCoordinator,
    backend: &mut Watched,
    scheduler: Scheduler,
    kills: bool,
) -> RunReport {
    let cfg = SimConfig::new(NPROCS).with_seed(prog.sim_seed);
    let injector = if kills {
        FailureInjector::at(prog.kills.clone())
    } else {
        FailureInjector::none()
    };
    match scheduler {
        Scheduler::Free => run_free(
            compiled,
            &cfg,
            coord,
            backend,
            &injector,
            &FreeConfig::default(),
        ),
        Scheduler::Det => {
            let name = coord.name();
            let backend_name = backend.name();
            run_det(compiled, &cfg, coord, backend, injector.plan()).into_report(name, backend_name)
        }
    }
}

impl Phase for RealPhase {
    fn step(&mut self, trace: bool) {
        let slot = self.schedule[self.next];
        self.next = (self.next + 1) % self.schedule.len();
        let (p, kind) = match slot {
            Slot::Twin(p) => {
                let r = crate::guard(|| self.twin(p));
                if let Some(secs) = self.record("twin", r) {
                    self.twin_ms.push(secs * 1e3);
                }
                return;
            }
            Slot::Run(p, kind) => (p, kind),
        };
        let r = crate::guard(|| self.run(p, kind, "mem", Scheduler::Det, false));
        let Some(plain) = self.record(&format!("{kind}/det"), r) else {
            return;
        };
        if !trace {
            self.run_ms.push(plain.secs * 1e3);
            self.rates.push(plain.commits as f64 / plain.secs);
            return;
        }
        let r = crate::guard(|| self.run(p, kind, "mem", Scheduler::Det, true));
        if let Some(traced) = self.record(&format!("{kind}/det"), r) {
            self.paired.0 += plain.secs;
            self.paired.1 += traced.secs;
        }
        let backend = LIVE_BACKENDS[self.probes % LIVE_BACKENDS.len()];
        self.probes += 1;
        let r = crate::guard(|| self.run(p, kind, backend, Scheduler::Free, true));
        self.record(&format!("{kind}/free/{backend}"), r);
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            paired: self.paired,
        }
    }

    fn end_to_end(&self, out: &mut Vec<Metric>) {
        out.extend(timing("run_ms", &self.run_ms, "ms", 0.90, "p90"));
        out.push(Metric::new(
            "commits_per_s",
            median(&self.rates),
            "1/s",
            format!("median over {} runs", self.rates.len()),
        ));
        let twin = median(&self.twin_ms);
        out.push(Metric::new(
            "ckpt_overhead_ratio",
            median(&self.run_ms) / twin - 1.0,
            "ratio",
            format!(
                "median run over median checkpoint-free twin ({twin:.3} ms, n={}) - 1",
                self.twin_ms.len()
            ),
        ));
    }

    fn per_layer(&self, out: &mut Vec<Metric>) {
        let l = &self.layers;
        for name in LIVE_BACKENDS {
            let b = l.backends.get(name);
            let commit_us = b.map_or(&[][..], |b| &b.commit_us[..]);
            let load_us = b.map_or(&[][..], |b| &b.load_us[..]);
            let key = format!("runtime.backend.{name}");
            let n = format!("n={}", commit_us.len());
            out.push(Metric::new(
                format!("{key}.commit_us_p50"),
                median(commit_us),
                "us",
                n.clone(),
            ));
            out.push(Metric::new(
                format!("{key}.commit_us_p90"),
                percentile(commit_us, 0.9),
                "us",
                n,
            ));
            out.push(Metric::new(
                format!("{key}.load_us_p50"),
                median(load_us),
                "us",
                format!("n={}", load_us.len()),
            ));
            out.push(Metric::new(
                format!("{key}.busy_share"),
                b.map_or(0.0, |b| ratio(b.busy, b.wall)),
                "ratio",
                format!("{} live runs", b.map_or(0, |b| b.runs)),
            ));
            let captured = b.map_or(&[][..], |b| &b.captured[..]);
            let bytes: usize = captured.iter().map(|s| s.encode().len()).sum();
            out.push(Metric::new(
                format!("{key}.bytes_per_commit"),
                ratio(bytes as f64, captured.len() as f64),
                "B-computed",
                format!(
                    "computed: encoded payload of {} captured snapshots, frame excluded",
                    captured.len()
                ),
            ));
        }
        // Encode, decode and CRC the captured snapshots outside the runs.
        let captured: Vec<&StateSnapshot> = l
            .det_captured
            .iter()
            .chain(l.backends.values().flat_map(|b| &b.captured))
            .collect();
        let encoded: Vec<Vec<u8>> = captured.iter().map(|s| s.encode()).collect();
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        let reps = 5;
        let each = |f: &dyn Fn()| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / (reps * encoded.len().max(1)) as f64
        };
        let encode_us = each(&|| {
            for s in &captured {
                black_box(s.encode());
            }
        });
        let decode_us = each(&|| {
            for e in &encoded {
                black_box(StateSnapshot::decode(e).is_ok());
            }
        });
        let crc_us = each(&|| {
            for e in &encoded {
                black_box(crc32(e));
            }
        });
        let note = format!("mean over {} captured snapshots", encoded.len());
        out.push(Metric::new(
            "runtime.snapshot.encode_us",
            encode_us,
            "us",
            note.clone(),
        ));
        out.push(Metric::new(
            "runtime.snapshot.decode_us",
            decode_us,
            "us",
            note.clone(),
        ));
        out.push(Metric::new(
            "runtime.crc32_mb_per_s",
            ratio(ratio(bytes as f64, encoded.len() as f64), crc_us),
            "MB/s",
            note,
        ));
        let rec = l.recoveries.max(1) as f64;
        let per_rec = format!("mean per live recovery, {} recoveries", l.recoveries);
        for (name, value, unit) in [
            ("runtime.recovery.loads", l.loads as f64 / rec, "count"),
            ("runtime.recovery.reload_ms", l.reload * 1e3 / rec, "ms"),
            (
                "runtime.recovery.redelivered",
                l.redelivered as f64 / rec,
                "count",
            ),
            (
                "runtime.recovery.lost_us",
                l.lost_us as f64 / rec,
                "us-virtual",
            ),
        ] {
            out.push(Metric::new(name, value, unit, per_rec.clone()));
        }
        let runs = format!("{} live runs", l.live_runs);
        out.push(Metric::new(
            "runtime.coord.calls",
            l.coord_calls as f64 / l.live_runs.max(1) as f64,
            "count",
            format!("mean per run, {runs}"),
        ));
        out.push(Metric::new(
            "runtime.coord.busy_share",
            ratio(l.coord, l.live_wall),
            "ratio",
            runs.clone(),
        ));
        out.push(Metric::new(
            "runtime.other_share",
            1.0 - ratio(l.locked, l.live_wall),
            "ratio",
            format!("wall outside backend and coordinator calls, {runs}"),
        ));
        out.push(Metric::new(
            "runtime.msgs_per_s",
            ratio(l.messages as f64, l.live_wall),
            "1/s",
            runs,
        ));
    }

    fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        vec![("runtime", 1.0)]
    }
}
