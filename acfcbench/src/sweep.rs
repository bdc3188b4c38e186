//! The `acfc compare --sweep` operation: one `run_sweep_threads` over a
//! seeded plan, checked against a one-thread reference digest and the
//! paper's control-message formulas. The traced run adds a probe pass
//! that drives the simulator directly with timing `Hooks` decorators.

use crate::stats::{fnv1a, median, ratio, timing, Metric, FNV_OFFSET};
use crate::{Outcome, Phase};
use acfc::core::attr::MAX_ANALYSIS_RANKS;
use acfc::protocols::{
    cl_control_messages, max_consistent_picker, run_sweep_threads, sas_control_messages,
    uncoordinated_hooks, uncoordinated_picker, AggRow, AppDriven, ChandyLamport, CicProtocol,
    Progress, ProtocolKind, RowSink, SweepPlan, SyncAndStop,
};
use acfc::sim::{
    compile, run, run_with_failures, CkptTrigger, Compiled, CoordinationCost, CutPicker,
    FailurePlan, Hooks, NoHooks, RecvAction, SimConfig, SimTime,
};
use acfc::util::rng::mix64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Collects what one sweep streams out: per-cell worker wall time, the
/// row digest, and the rows themselves for the formula gates.
#[derive(Default)]
struct Collect {
    cell_us: Vec<u64>,
    digest: u64,
    rows: Vec<AggRow>,
}

impl RowSink for Collect {
    fn row(&mut self, row: &AggRow, progress: &Progress) {
        self.cell_us.push(progress.cell_wall_us);
        self.digest = fnv1a(self.digest, format!("{row:?}").as_bytes());
        self.rows.push(row.clone());
    }
}

fn sweep(plan: &SweepPlan, threads: usize) -> (f64, Collect) {
    let mut sink = Collect {
        digest: FNV_OFFSET,
        ..Collect::default()
    };
    let t = Instant::now();
    run_sweep_threads(plan, threads, &mut [&mut sink]);
    (t.elapsed().as_secs_f64(), sink)
}

/// The control messages SaS and C-L charge per wave: `5(n−1)` and
/// `2n(n−1)`, the paper's §4 formulas.
fn per_wave(r: &AggRow) -> Option<u64> {
    match r.protocol {
        ProtocolKind::ChandyLamport => Some(cl_control_messages(r.n)),
        ProtocolKind::SyncAndStop => Some(sas_control_messages(r.n)),
        _ => None,
    }
}

/// Checks every row: all trials completed; on failure-free rows the
/// application-driven protocol paid no control messages, forced
/// checkpoints or coordination stall, and SaS and C-L paid exactly the
/// paper's count per wave. The initiator charges each wave, so a row's
/// control messages are a whole number `W` of waves. A wave checkpoints
/// every process, except that at the end of a run a process may halt
/// before the last wave reaches it, or outlive the initiator and take
/// one more; so the row's checkpoints are within `n − 1` per trial of
/// `nW`. Returns how many SaS and C-L rows meet the paper's identity
/// `ctrl = per-wave × ckpts / n` exactly, and how many were checked.
fn gate(rows: &[AggRow]) -> Result<(u64, u64), String> {
    let (mut exact, mut checked) = (0, 0);
    for r in rows {
        let at = format!(
            "{} n={} lambda={} {}",
            r.workload, r.n, r.lambda, r.protocol
        );
        if r.completed != r.seeds {
            return Err(format!(
                "{at}: {} of {} trials completed",
                r.completed, r.seeds
            ));
        }
        if r.lambda != 0.0 {
            continue;
        }
        if let Some(per_wave) = per_wave(r) {
            let trials = r.seeds as f64;
            let n = r.n as f64;
            let waves = r.control_messages.mean * trials / per_wave as f64;
            let ckpts = r.checkpoints.mean * trials;
            if (waves - waves.round()).abs() > 1e-6 || (ckpts - n * waves).abs() >= n * trials {
                return Err(format!(
                    "{at}: {} control messages and {} checkpoints per trial are not whole \
                     waves of {per_wave} messages and {n} checkpoints",
                    r.control_messages.mean, r.checkpoints.mean
                ));
            }
            checked += 1;
            exact += u64::from((ckpts - n * waves).abs() < 1e-6);
        }
        if r.protocol == ProtocolKind::AppDriven
            && (r.control_messages.mean != 0.0
                || r.forced.mean != 0.0
                || r.coord_stall_ms.mean != 0.0)
        {
            return Err(format!(
                "{at}: appl-driven paid {} control messages, {} forced checkpoints, {} ms stall",
                r.control_messages.mean, r.forced.mean, r.coord_stall_ms.mean
            ));
        }
    }
    Ok((exact, checked))
}

/// Times every `Hooks` call of the wrapped protocol. It forwards
/// `passive` and `uses_timers`, so the engine takes the same paths as
/// without it; for a passive protocol it is never called at all.
struct TimedHooks<'a> {
    inner: &'a mut dyn Hooks,
    busy: Duration,
}

impl TimedHooks<'_> {
    fn time<R>(&mut self, f: impl FnOnce(&mut dyn Hooks) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.busy += t.elapsed();
        r
    }
}

impl Hooks for TimedHooks<'_> {
    fn piggyback(&mut self, p: usize, to: usize, ckpt_seq: u64, now: SimTime) -> u64 {
        self.time(|h| h.piggyback(p, to, ckpt_seq, now))
    }
    fn on_recv(&mut self, p: usize, piggyback: u64, own_seq: u64, now: SimTime) -> RecvAction {
        self.time(|h| h.on_recv(p, piggyback, own_seq, now))
    }
    fn take_app_checkpoint(&mut self, p: usize, now: SimTime) -> bool {
        self.time(|h| h.take_app_checkpoint(p, now))
    }
    fn timer_checkpoint_due(&mut self, p: usize, now: SimTime) -> bool {
        self.time(|h| h.timer_checkpoint_due(p, now))
    }
    fn uses_timers(&mut self) -> bool {
        self.inner.uses_timers()
    }
    fn passive(&mut self) -> bool {
        self.inner.passive()
    }
    fn timer_trigger(&mut self, p: usize) -> CkptTrigger {
        self.time(|h| h.timer_trigger(p))
    }
    fn coordination_cost(&mut self, p: usize, now: SimTime) -> CoordinationCost {
        self.time(|h| h.coordination_cost(p, now))
    }
    fn checkpoint_taken(&mut self, p: usize, trigger: CkptTrigger, now: SimTime) {
        self.time(|h| h.checkpoint_taken(p, trigger, now))
    }
}

/// The protocol dispatch of `acfc compare`, rebuilt from public parts:
/// what to run, with which hooks, restoring which recovery line.
fn protocol(
    kind: ProtocolKind,
    program: &acfc::mpsl::Program,
    sim: &SimConfig,
    interval_us: u64,
) -> (Option<Compiled>, Box<dyn Hooks>, CutPicker) {
    let n = sim.nprocs;
    let skew_us = interval_us / 3;
    match kind {
        ProtocolKind::AppDriven => {
            let ad = AppDriven::prepare(program, n.min(MAX_ANALYSIS_RANKS))
                .unwrap_or_else(|e| panic!("analysis failed: {e}"));
            let picker = ad.picker();
            (Some(ad.compiled), Box::new(NoHooks), picker)
        }
        ProtocolKind::Uncoordinated => (
            None,
            Box::new(uncoordinated_hooks(n, interval_us, skew_us)),
            uncoordinated_picker(),
        ),
        ProtocolKind::SyncAndStop => (
            None,
            Box::new(SyncAndStop::new(n, interval_us, sim.net.clone())),
            max_consistent_picker(),
        ),
        ProtocolKind::ChandyLamport => (
            None,
            Box::new(ChandyLamport::new(n, interval_us, sim.net.clone())),
            max_consistent_picker(),
        ),
        ProtocolKind::Cic(v) => {
            let hooks = CicProtocol::new(v, n, interval_us, skew_us);
            let picker = hooks.picker();
            (None, Box::new(hooks), picker)
        }
    }
}

/// Per-protocol probe totals, seconds.
#[derive(Default, Clone)]
struct KindProbe {
    /// Failure-free hooked runs and the bare runs at the same `n`.
    hooked_ff: f64,
    bare_ff: f64,
    /// All hooked runs, and the time spent inside `Hooks`.
    hooked: f64,
    in_hooks: f64,
}

#[derive(Default)]
struct Probe {
    passes: u64,
    programs: u64,
    compile: f64,
    bare: f64,
    bare_events: u64,
    failure: f64,
    failure_events: u64,
    /// Events and rollbacks of the first pass (deterministic counts).
    events: Option<(u64, u64)>,
    kinds: BTreeMap<&'static str, KindProbe>,
}

pub struct SweepPhase {
    plan: SweepPlan,
    threads: usize,
    /// Row digest of a one-thread sweep of the plan, from set-up.
    reference: Result<u64, String>,
    cell_ms: Vec<f64>,
    /// Cells per second of each sweep.
    rates: Vec<f64>,
    /// Traced-run totals: cell wall over threads × sweep wall.
    busy_cells: f64,
    busy_capacity: f64,
    /// SaS and C-L rows meeting the paper's identity exactly, of those
    /// checked (see `gate`).
    identity: (u64, u64),
    /// Per-protocol counts (per-trial means summed over the plan's cells).
    counts: Option<BTreeMap<&'static str, [f64; 3]>>,
    probe: Probe,
    attempted: u64,
    failed: u64,
    paired: (f64, f64),
}

impl SweepPhase {
    /// Set-up: the one-thread reference digest every sweep must match.
    pub fn new(plan: SweepPlan, threads: usize) -> SweepPhase {
        let reference = crate::guard(|| Ok(sweep(&plan, 1).1.digest));
        SweepPhase {
            plan,
            threads,
            reference,
            cell_ms: Vec::new(),
            rates: Vec::new(),
            busy_cells: 0.0,
            busy_capacity: 0.0,
            identity: (0, 0),
            counts: None,
            probe: Probe::default(),
            attempted: 0,
            failed: 0,
            paired: (0.0, 0.0),
        }
    }

    fn one(&mut self) -> Option<(f64, Collect)> {
        self.attempted += 1;
        let out = crate::guard(|| Ok(sweep(&self.plan, self.threads))).and_then(|(secs, c)| {
            let reference = self.reference.clone().map_err(|e| format!("set-up: {e}"))?;
            if c.digest != reference {
                return Err(format!(
                    "row digest {:016x} differs from the one-thread reference {reference:016x}",
                    c.digest
                ));
            }
            let identity = gate(&c.rows)?;
            Ok((secs, c, identity))
        });
        match out {
            Ok((secs, c, identity)) => {
                self.identity = identity;
                Some((secs, c))
            }
            Err(e) => {
                self.failed += 1;
                crate::report_failure(&format!("sweep: {e}"));
                None
            }
        }
    }

    /// One trial of every (workload, n, λ, protocol) cell, run through
    /// the simulator's public entry points with timing decorators.
    fn probe_pass(&mut self) {
        let plan = &self.plan;
        let p = &mut self.probe;
        let mut events = 0u64;
        let mut rollbacks = 0u64;
        for (w, workload) in plan.workloads().iter().enumerate() {
            for &n in plan.ns() {
                let program = workload.program(n);
                let seed = mix64(plan.seed() ^ ((w as u64) << 40) ^ n as u64);
                let sim = SimConfig::new(n).with_seed(seed);
                let t = Instant::now();
                let compiled = compile(&program);
                p.compile += t.elapsed().as_secs_f64();
                p.programs += 1;
                let t = Instant::now();
                let bare = run(&compiled, &sim);
                let bare_s = t.elapsed().as_secs_f64();
                p.bare += bare_s;
                p.bare_events += bare.metrics.instructions;
                events += bare.metrics.instructions;
                let horizon = SimTime(bare.finished_at.as_micros().max(1));
                for (li, &lambda) in plan.failure_rates().iter().enumerate() {
                    let failures = if lambda > 0.0 {
                        FailurePlan::exponential(n, lambda, horizon, mix64(seed ^ li as u64))
                    } else {
                        FailurePlan::none()
                    };
                    for kind in plan.protocols() {
                        let (own, mut hooks, picker) =
                            protocol(kind, &program, &sim, plan.interval_us());
                        let code = own.as_ref().unwrap_or(&compiled);
                        let mut timed = TimedHooks {
                            inner: hooks.as_mut(),
                            busy: Duration::ZERO,
                        };
                        let t = Instant::now();
                        let trace =
                            run_with_failures(code, &sim, &mut timed, failures.clone(), picker);
                        let wall = t.elapsed().as_secs_f64();
                        let k = p.kinds.entry(kind.name()).or_default();
                        k.hooked += wall;
                        k.in_hooks += timed.busy.as_secs_f64();
                        if lambda == 0.0 {
                            k.hooked_ff += wall;
                            k.bare_ff += bare_s;
                        } else {
                            p.failure += wall;
                            p.failure_events += trace.metrics.instructions;
                        }
                        events += trace.metrics.instructions;
                        rollbacks += trace.failures.len() as u64;
                    }
                }
            }
        }
        p.passes += 1;
        p.events.get_or_insert((events, rollbacks));
    }
}

impl Phase for SweepPhase {
    fn step(&mut self, trace: bool) {
        let Some((secs, c)) = self.one() else {
            return;
        };
        if !trace {
            self.cell_ms
                .extend(c.cell_us.iter().map(|&us| us as f64 / 1e3));
            self.rates.push(c.cell_us.len() as f64 / secs);
            return;
        }
        // Traced: the sweep itself cannot take decorators, so it runs
        // as is (paired with a second plain sweep for the overhead
        // figure) and a probe pass measures the layers beside it.
        self.busy_cells += c.cell_us.iter().sum::<u64>() as f64 / 1e6;
        self.busy_capacity += self.threads as f64 * secs;
        if self.counts.is_none() {
            let mut counts: BTreeMap<&'static str, [f64; 3]> = BTreeMap::new();
            for r in &c.rows {
                let e = counts.entry(r.protocol.name()).or_default();
                e[0] += r.control_messages.mean;
                e[1] += r.forced.mean;
                e[2] += r.piggyback_bits.mean;
            }
            self.counts = Some(counts);
        }
        if let Some((plain, _)) = self.one() {
            self.paired.0 += plain;
            self.paired.1 += secs;
        }
        if let Err(e) = crate::guard(|| {
            self.probe_pass();
            Ok(())
        }) {
            self.attempted += 1;
            self.failed += 1;
            crate::report_failure(&format!("sweep probe: {e}"));
        }
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            paired: self.paired,
        }
    }

    fn end_to_end(&self, out: &mut Vec<Metric>) {
        out.push(Metric::new(
            "sweep_cells_per_s",
            median(&self.rates),
            "1/s",
            format!(
                "median over {} sweeps of {} cells; ctrl = per-wave x ckpts / n exactly on \
                 {} of {} failure-free SaS/C-L rows",
                self.rates.len(),
                self.plan.total_cells(),
                self.identity.0,
                self.identity.1
            ),
        ));
        out.extend(timing("sweep_cell_ms", &self.cell_ms, "ms", 0.90, "p90"));
    }

    fn per_layer(&self, out: &mut Vec<Metric>) {
        let p = &self.probe;
        let pass = format!("probe, {} pass(es)", p.passes);
        out.push(Metric::new(
            "sim.compile_us",
            ratio(p.compile * 1e6, p.programs as f64),
            "us",
            format!("mean over {} compiles", p.programs),
        ));
        out.push(Metric::new(
            "sim.bare_events_per_s",
            ratio(p.bare_events as f64, p.bare),
            "1/s",
            pass.clone(),
        ));
        out.push(Metric::new(
            "sim.failure_events_per_s",
            ratio(p.failure_events as f64, p.failure),
            "1/s",
            pass.clone(),
        ));
        let (events, rollbacks) = p.events.unwrap_or_default();
        out.push(Metric::new(
            "sim.events",
            events as f64,
            "count",
            "one probe pass",
        ));
        out.push(Metric::new(
            "sim.rollbacks",
            rollbacks as f64,
            "count",
            "one probe pass",
        ));
        let counts = self.counts.clone().unwrap_or_default();
        for kind in self.plan.protocols() {
            let k = kind.name();
            let kp = p.kinds.get(k).cloned().unwrap_or_default();
            out.push(Metric::new(
                format!("protocols.hooks_ratio.{k}"),
                ratio(kp.hooked_ff, kp.bare_ff),
                "ratio",
                "failure-free hooked wall over bare wall",
            ));
            out.push(Metric::new(
                format!("protocols.hooks_share.{k}"),
                ratio(kp.in_hooks, kp.hooked),
                "ratio",
                "time inside Hooks over hooked run wall",
            ));
            let c = counts.get(k).copied().unwrap_or_default();
            let note = "per-trial means summed over the plan's cells";
            out.push(Metric::new(
                format!("protocols.ctrl_msgs.{k}"),
                c[0],
                "count",
                note,
            ));
            out.push(Metric::new(
                format!("protocols.forced.{k}"),
                c[1],
                "count",
                note,
            ));
            out.push(Metric::new(
                format!("protocols.pb_bits.{k}"),
                c[2],
                "count",
                note,
            ));
        }
        out.push(Metric::new(
            "protocols.sweep.worker_busy_share",
            ratio(self.busy_cells, self.busy_capacity),
            "ratio",
            format!("cell wall over {} threads x sweep wall", self.threads),
        ));
    }

    fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        // The probe's share of simulator time spent inside protocol hooks.
        let (hooked, in_hooks) = self
            .probe
            .kinds
            .values()
            .fold((0.0, 0.0), |(h, i), k| (h + k.hooked, i + k.in_hooks));
        let share = ratio(in_hooks, hooked);
        vec![("sim", 1.0 - share), ("protocols", share)]
    }
}
