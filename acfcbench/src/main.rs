//! End-to-end and per-layer benchmark of the three commands users run:
//! `acfc analyze` (`acfc::core::analyze`), `acfc compare --sweep`
//! (`acfc::protocols::run_sweep_threads`) and `acfc run --real`
//! (`acfc::runtime::run_det`, and `run_free` in the traced run).
//!
//! ```text
//! cargo run --release --offline -q --manifest-path acfcbench/Cargo.toml -- \
//!     --workload analyze-repair --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every workload runs all three operations, closed loop from one
//! caller: its own operation for most of the time and lighter inputs
//! for the other two, so every end-to-end metric exists on every
//! workload. `--trace 0` reports the end-to-end metrics, timed with no
//! decorators; `--trace 1` pairs each operation with a traced twin and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object with the result.

mod analysis;
mod gen;
mod real;
mod stats;
mod sweep;

use acfc::protocols::{CicVariant, ProtocolKind, SweepPlan, Workload};
use acfc::util::rng::Rng;
use analysis::{AnalysisPhase, Case};
use real::{RealPhase, RealProgram};
use stats::{median, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use sweep::SweepPhase;

/// What one phase reports about its operations.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of plain and of traced operations on the same inputs
    /// (traced run only).
    pub paired: (f64, f64),
}

/// One of the three operations, driven closed loop.
pub trait Phase {
    /// One operation; with `trace`, the same input again through the
    /// traced path.
    fn step(&mut self, trace: bool);
    fn outcome(&self) -> Outcome;
    fn end_to_end(&self, out: &mut Vec<Metric>);
    fn per_layer(&self, out: &mut Vec<Metric>);
    /// How the traced run splits this operation's time between layers.
    fn layer_shares(&self) -> Vec<(&'static str, f64)>;
}

/// Runs an operation, turning a panic inside the program into a failed
/// operation instead of ending the benchmark.
pub fn guard<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into()))
    })
}

static FAILURES: AtomicU64 = AtomicU64::new(0);

/// Prints the first few failures to standard error.
pub fn report_failure(msg: &str) {
    if FAILURES.fetch_add(1, Ordering::Relaxed) < 20 {
        eprintln!("FAILED: {msg}");
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Analyze,
    Sweep,
    Real,
}

struct Spec {
    name: &'static str,
    why: &'static str,
    heavy: Op,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "analyze-repair",
        why: "analyze() back to back on repair-heavy, safe and generated many_exchanges(30) programs at n=8,32,128: Phase II matching and Phase III repair in mpsl/cfg/core",
        heavy: Op::Analyze,
    },
    Spec {
        name: "sweep-storm",
        why: "run_sweep_threads back to back: jacobi+jacobi_odd_even, n=16,64,256, lambda 0 and 0.5, 8 protocols, 8 seeds: sim engine and protocol hooks, with and without rollback",
        heavy: Op::Sweep,
    },
    Spec {
        name: "real-mem",
        why: "acfc run --real --det on mem, n=4, appl-driven/C-L/CIC-hmnr, one kill per run: interpreter, coordinator, snapshots, recovery; traced run adds run_free on mem/file/log",
        heavy: Op::Real,
    },
];

/// Share of the measured time the workload's own operation gets; the
/// other two split the rest.
const HEAVY_SHARE: f64 = 0.6;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Sweep workload over generated source text.
fn source_workload(name: &str, src: String) -> Workload {
    Workload::new(name, move |_| {
        acfc::mpsl::parse(&src).expect("generated source parses")
    })
}

/// The protocols the live-runtime operation rotates through.
const REAL_KINDS: [ProtocolKind; 3] = [
    ProtocolKind::AppDriven,
    ProtocolKind::ChandyLamport,
    ProtocolKind::Cic(CicVariant::Hmnr),
];

/// `count` ring programs, program `k` with the state variables and
/// iterations `shape(k)` gives, each with `kills` kills at seeded
/// fractions in `window` of its makespan.
fn ring_pool(
    rng: &mut Rng,
    count: usize,
    shape: impl Fn(usize) -> (usize, u64),
    kills: usize,
    window: (f64, f64),
) -> Result<Vec<RealProgram>, String> {
    (0..count)
        .map(|k| {
            let (vars, iters) = shape(k);
            let ring = gen::ring(rng, vars, iters as usize);
            let at: Vec<f64> = (0..kills)
                .map(|_| rng.gen_f64_range(window.0, window.1))
                .collect();
            let first = rng.gen_index(real::NPROCS);
            let victims: Vec<usize> = (0..kills).map(|i| (first + i) % real::NPROCS).collect();
            RealProgram::prepare(ring, iters, &at, &victims, rng.next_u64())
        })
        .collect()
}

/// A small sweep plan for the workloads whose own operation is not the
/// sweep: one program, n = 8, 16, 32, both failure rates, 4 seeds.
fn light_plan(name: &str, src: String, seed: u64) -> Result<SweepPlan, String> {
    SweepPlan::builder()
        .workload(source_workload(name, src))
        .ns(vec![8, 16, 32])
        .failure_rates(vec![0.0, 0.5])
        .seeds_per_cell(4)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

struct Setup {
    phases: Vec<(Op, Box<dyn Phase>)>,
    /// Encoded snapshot sizes of the live-run programs, bytes.
    snapshot_bytes: (usize, usize),
}

fn setup(spec: &Spec, seed: u64, threads: usize, tmp: &Path) -> Result<Setup, String> {
    let mut rng = Rng::stream(seed, 0xacfc);

    // Five ring programs with 8 state variables; the last runs twice
    // as many iterations, so a fifth of the runs are long ones and
    // `run_ms_p90` measures them instead of the noise in the tail.
    let mem_real = |rng: &mut Rng| -> Result<RealPhase, String> {
        let pool = ring_pool(
            rng,
            5,
            |k| (8, if k == 4 { 600 } else { 300 }),
            1,
            (0.3, 0.7),
        )?;
        Ok(RealPhase::new(pool, &REAL_KINDS, tmp.to_path_buf()))
    };

    let (analysis, sweep, real) = match spec.heavy {
        Op::Analyze => {
            let mut sources: Vec<(String, String)> = gen::stock_sources()
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect();
            sources.push((
                format!("many_exchanges({})", gen::EXCHANGE_BLOCKS),
                gen::many_exchanges(&mut rng, gen::EXCHANGE_BLOCKS),
            ));
            // A fixed order: what ran just before an analysis (a large
            // one leaves the caches cold) moves its time.
            let cases: Vec<Case> = sources
                .iter()
                .flat_map(|(name, src)| {
                    [8, 32, 128].map(|n| Case {
                        name: format!("{name}@{n}"),
                        src: src.clone(),
                        n,
                    })
                })
                .collect();
            let odd_even = acfc::mpsl::to_source(&acfc::mpsl::programs::jacobi_odd_even(10));
            let plan = light_plan("jacobi_odd_even", odd_even, rng.next_u64())?;
            (cases, plan, mem_real(&mut rng)?)
        }
        Op::Sweep => {
            let jacobi = acfc::mpsl::to_source(&acfc::mpsl::programs::jacobi(10));
            let odd_even = acfc::mpsl::to_source(&acfc::mpsl::programs::jacobi_odd_even(10));
            let cases = light_cases(
                vec![Case {
                    name: "jacobi_odd_even".into(),
                    src: odd_even.clone(),
                    n: 16,
                }],
                128,
            );
            let plan = SweepPlan::builder()
                .workloads(vec![
                    source_workload("jacobi", jacobi),
                    source_workload("jacobi_odd_even", odd_even),
                ])
                .ns(vec![16, 64, 256])
                .failure_rates(vec![0.0, 0.5])
                .seeds_per_cell(8)
                .seed(rng.next_u64())
                .build()
                .map_err(|e| e.to_string())?;
            (cases, plan, mem_real(&mut rng)?)
        }
        Op::Real => {
            let phase = mem_real(&mut rng)?;
            // The sweep simulates a short ring of the same shape: a
            // sweep runs 192 trials, each as long as the whole program.
            let short = gen::ring(&mut rng, phase.vars(0), 20);
            let plan = light_plan("ring_state", short.src, rng.next_u64())?;
            let cases = light_cases(phase.analysis_cases(), 32);
            (cases, plan, phase)
        }
    };
    let snapshot_bytes = real.snapshot_bytes();
    Ok(Setup {
        phases: vec![
            (
                Op::Analyze,
                Box::new(AnalysisPhase::new(analysis, rng.next_u64())) as Box<dyn Phase>,
            ),
            (Op::Sweep, Box::new(SweepPhase::new(sweep, threads))),
            (Op::Real, Box::new(real)),
        ],
        snapshot_bytes,
    })
}

/// The light analysis mix: the workload's own programs in 49 analyses
/// of 50, and the first of them at `heavy_n` processes in the 50th. The
/// heavy case is 2% of the analyses, so `analyze_ms_p99` is its typical
/// time rather than the noise in the tail of the light ones.
fn light_cases(light: Vec<Case>, heavy_n: usize) -> Vec<Case> {
    let case = |c: &Case, n: usize| Case {
        name: format!("{}@{n}", c.name),
        src: c.src.clone(),
        n,
    };
    let mut cases: Vec<Case> = (0..49)
        .map(|i| &light[i % light.len()])
        .map(|c| case(c, c.n))
        .collect();
    cases.push(case(&light[0], heavy_n));
    cases
}

/// Formats a number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acfcbench: {e}");
            eprintln!("usage: acfcbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "acfcbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Backend directories live inside the working directory, one fresh
    // directory per run, removed after it.
    let tmp = PathBuf::from(".acfcbench-tmp").join(format!("{}", std::process::id()));
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match setup(spec, args.seed, threads, &tmp) {
            Ok(s) => built = Some(s),
            Err(e) => {
                eprintln!("acfcbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        mut phases,
        snapshot_bytes: (lo, hi),
    } = built.expect("set-up ran");

    println!(
        "acfcbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("why: {}", spec.why);
    println!(
        "host: nproc={threads} (available_parallelism); sweeps use {threads} threads; \
         runs have {} workers (one thread under run_det, one thread each under the traced \
         run's run_free probe); one closed-loop caller",
        real::NPROCS
    );
    println!(
        "flush policy of the traced run's live probe: file = write tmp, one fsync per commit, \
         rename, no directory fsync; log = append, one fsync per commit; mem = none. \
         The figures reflect this host's file system and scheduler, not the device alone."
    );
    println!("snapshot sizes: {lo}..{hi} bytes encoded, measured on reference checkpoints");

    // Interleave the operations, always running the one furthest behind
    // its share of the time, so a transient slowdown of the machine
    // lands on all of them alike.
    let shares: Vec<f64> = phases
        .iter()
        .map(|(op, _)| {
            if *op == spec.heavy {
                HEAVY_SHARE
            } else {
                (1.0 - HEAVY_SHARE) / 2.0
            }
        })
        .collect();
    let mut used = vec![0.0f64; phases.len()];
    let total = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < total {
        let i = (0..phases.len())
            .min_by(|&a, &b| (used[a] / shares[a]).total_cmp(&(used[b] / shares[b])))
            .expect("three phases");
        let t = Instant::now();
        phases[i].1.step(args.trace);
        used[i] += t.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(tmp.parent().expect("tmp has a parent"));

    let (mut attempted, mut failed, mut plain, mut traced) = (0, 0, 0.0, 0.0);
    for (_, phase) in &phases {
        let o = phase.outcome();
        attempted += o.attempted;
        failed += o.failed;
        plain += o.paired.0;
        traced += o.paired.1;
    }
    let mut metrics = Vec::new();
    if args.trace {
        for (_, phase) in &phases {
            phase.per_layer(&mut metrics);
        }
        metrics.push(Metric::new(
            "trace.overhead_pct",
            (traced / plain - 1.0) * 100.0,
            "%",
            format!("traced over plain on the same inputs, {plain:.3} s plain"),
        ));
        // Each operation's share of an untraced run, split by the layer
        // shares the traced run measured.
        let mut split: Vec<(&str, f64)> = Vec::new();
        for ((_, phase), share) in phases.iter().zip(&shares) {
            split.extend(
                phase
                    .layer_shares()
                    .into_iter()
                    .map(|(l, f)| (l, f * share)),
            );
        }
        let sum: f64 = split.iter().map(|(_, s)| s).sum();
        let parts: Vec<String> = split
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s / sum))
            .collect();
        println!("layer split of an untraced run: {}", parts.join(", "));
    } else {
        metrics.push(Metric::new(
            "setup_s",
            median(&setup_secs),
            "s",
            format!("median of {SETUPS} set-ups"),
        ));
        for (_, phase) in &phases {
            phase.end_to_end(&mut metrics);
        }
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    for m in &metrics {
        println!(
            "  {:<40} {:>16} {:<10} ({})",
            m.name,
            num(m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "  {:<40} {:>16} {:<10} ({failed} of {attempted} operations)",
        "failed_frac",
        num(failed_frac),
        "ratio"
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
