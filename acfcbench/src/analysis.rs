//! The `acfc analyze` operation: parse MPSL source and run the three
//! phases, checked by Condition 1 on the result and by simulating the
//! transformed program and testing every straight cut.

use crate::stats::{ratio, timing, Metric};
use crate::{Outcome, Phase};
use acfc::cfg::build_cfg_prelowered;
use acfc::core::{
    analyze, analyze_iddep, check_condition1, compute_attrs, condition1_holds,
    ensure_recovery_lines, equalize_checkpoints, index_checkpoints, insert_checkpoints,
    match_send_recv, AnalysisConfig, ExtendedCfg, InsertionConfig, LoopPolicy, MatchingMode,
    Phase3Config,
};
use acfc::mpsl::{parse, validate, Program};
use acfc::sim::{compile, consistency::all_straight_cuts_consistent, run, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// One analysis input: a source text analysed at `n` processes.
pub struct Case {
    pub name: String,
    pub src: String,
    pub n: usize,
}

/// Wall time per layer of the traced analyses, seconds.
#[derive(Default)]
struct Layers {
    ops: u64,
    parse: f64,
    phase1: f64,
    cfg: f64,
    phase2: f64,
    condition1: f64,
    phase3: f64,
    moves: u64,
}

pub struct AnalysisPhase {
    cases: Vec<Case>,
    next: usize,
    ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    layers: Layers,
    /// Relocations and message edges of each case (traced runs), so the
    /// reported counts cover one pass over the inputs exactly.
    counts: Vec<Option<(u64, u64)>>,
    /// Each case's transformed program, verified in set-up.
    verified: Vec<Result<Program, String>>,
    paired: (f64, f64),
}

/// A traced analysis: total and per-layer wall seconds (parse, phase I,
/// CFG, phase II, Condition 1, phase III) and its result.
struct Traced {
    secs: f64,
    layers: [f64; 6],
    edges: u64,
    result: Transformed,
}

/// What both the plain and the traced path produce and the check reads.
struct Transformed {
    program: Program,
    extended: ExtendedCfg,
    moves: usize,
}

impl AnalysisPhase {
    /// Set-up: analyses every case once and verifies Theorem 3.2 by
    /// execution, simulating the transformed program at the analysed
    /// `n` and testing that every straight cut is consistent. The
    /// analysis is deterministic, so each later result must equal the
    /// verified program; a case that fails here fails every analysis.
    pub fn new(cases: Vec<Case>, sim_seed: u64) -> AnalysisPhase {
        let verify = |case: &Case| -> Result<Program, String> {
            let (_, r) = crate::guard(|| Self::plain(case))?;
            let trace = run(
                &compile(&r.program),
                &SimConfig::new(case.n).with_seed(sim_seed),
            );
            if !trace.completed() {
                return Err(format!("simulated run ended {:?}", trace.outcome));
            }
            if !all_straight_cuts_consistent(&trace) {
                return Err("a straight cut of the transformed program is inconsistent".into());
            }
            Ok(r.program)
        };
        AnalysisPhase {
            counts: vec![None; cases.len()],
            verified: cases.iter().map(verify).collect(),
            cases,
            next: 0,
            ms: Vec::new(),
            attempted: 0,
            failed: 0,
            layers: Layers::default(),
            paired: (0.0, 0.0),
        }
    }

    fn plain(case: &Case) -> Result<(f64, Transformed), String> {
        let t = Instant::now();
        let program = parse(&case.src).map_err(|e| e.to_string())?;
        let a =
            analyze(&program, &AnalysisConfig::for_nprocs(case.n)).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        let moves = a.moves.len();
        Ok((
            secs,
            Transformed {
                program: a.program,
                extended: a.extended,
                moves,
            },
        ))
    }

    /// The same pipeline as `analyze`, called layer by layer through the
    /// public functions so each layer's wall time is seen from outside.
    /// Phase III rebuilds the CFG and reruns Phase II itself, so this
    /// path does that work twice; `trace.overhead_pct` shows the cost.
    fn traced(case: &Case) -> Result<Traced, String> {
        let t0 = Instant::now();
        let program = parse(&case.src).map_err(|e| e.to_string())?;
        let errors = validate(&program);
        if !errors.is_empty() {
            return Err(format!("{} validation error(s)", errors.len()));
        }
        let t1 = Instant::now();
        let mut prepared = program.clone();
        if prepared.has_collectives() {
            prepared.lower_collectives();
        }
        insert_checkpoints(&mut prepared, &InsertionConfig::default());
        equalize_checkpoints(&mut prepared);
        let t2 = Instant::now();
        let cfg = build_cfg_prelowered(&prepared);
        let t3 = Instant::now();
        let iddep = analyze_iddep(&cfg, &prepared);
        let attrs = compute_attrs(&cfg, case.n, &iddep);
        let matching = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::FifoOrdered);
        let t4 = Instant::now();
        let index = index_checkpoints(&cfg, &prepared);
        let extended = ExtendedCfg::build(cfg, &matching);
        black_box(check_condition1(&extended, &index, LoopPolicy::Optimized));
        let t5 = Instant::now();
        let p3 = Phase3Config {
            nprocs: case.n,
            ..Phase3Config::default()
        };
        let r = ensure_recovery_lines(&prepared, &p3).map_err(|e| e.to_string())?;
        let t6 = Instant::now();
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        Ok(Traced {
            secs: secs(t0, t6),
            layers: [
                secs(t0, t1),
                secs(t1, t2),
                secs(t2, t3),
                secs(t3, t4),
                secs(t4, t5),
                secs(t5, t6),
            ],
            edges: r.extended.message_edges.len() as u64,
            result: Transformed {
                moves: r.moves.len(),
                program: r.program,
                extended: r.extended,
            },
        })
    }

    /// Condition 1 on the result, which must also equal the program
    /// verified by execution in set-up.
    fn check(&self, i: usize, r: &Transformed) -> Result<(), String> {
        let index = index_checkpoints(&r.extended.cfg, &r.program);
        if !condition1_holds(&r.extended, &index, LoopPolicy::Optimized) {
            return Err("Condition 1 fails on the transformed program".into());
        }
        match &self.verified[i] {
            Err(e) => Err(format!("set-up verification failed: {e}")),
            Ok(p) if *p != r.program => {
                Err("the transformed program differs from the verified one".into())
            }
            Ok(_) => Ok(()),
        }
    }

    fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            crate::report_failure(&format!("analyze {name}: {e}"));
        }
    }
}

impl Phase for AnalysisPhase {
    fn step(&mut self, trace: bool) {
        let i = self.next;
        self.next = (i + 1) % self.cases.len();
        let name = self.cases[i].name.clone();
        let plain = crate::guard(|| Self::plain(&self.cases[i]))
            .and_then(|(secs, r)| self.check(i, &r).map(|()| secs));
        if let (Ok(secs), false) = (&plain, trace) {
            self.ms.push(secs * 1e3);
        }
        self.record(&name, plain.as_ref().map(|_| ()).map_err(Clone::clone));
        if !trace {
            return;
        }
        let traced = crate::guard(|| Self::traced(&self.cases[i]))
            .and_then(|t| self.check(i, &t.result).map(|()| t));
        if let Ok(t) = &traced {
            let l = &mut self.layers;
            l.ops += 1;
            for (acc, secs) in [
                &mut l.parse,
                &mut l.phase1,
                &mut l.cfg,
                &mut l.phase2,
                &mut l.condition1,
                &mut l.phase3,
            ]
            .into_iter()
            .zip(t.layers)
            {
                *acc += secs;
            }
            l.moves += t.result.moves as u64;
            self.counts[i] = Some((t.result.moves as u64, t.edges));
            if let Ok(p) = plain {
                self.paired.0 += p;
                self.paired.1 += t.secs;
            }
        }
        self.record(&name, traced.map(|_| ()));
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            paired: self.paired,
        }
    }

    fn end_to_end(&self, out: &mut Vec<Metric>) {
        out.extend(timing("analyze_ms", &self.ms, "ms", 0.99, "p99"));
    }

    fn per_layer(&self, out: &mut Vec<Metric>) {
        let l = &self.layers;
        let ops = l.ops.max(1) as f64;
        let per_op = format!("mean per analysis, n={}", l.ops);
        for (name, secs) in [
            ("mpsl.parse_us", l.parse),
            ("cfg.build_us", l.cfg),
            ("core.phase1_us", l.phase1),
            ("core.phase2_us", l.phase2),
            ("core.condition1_us", l.condition1),
            ("core.phase3_us", l.phase3),
        ] {
            out.push(Metric::new(name, secs * 1e6 / ops, "us", per_op.clone()));
        }
        out.push(Metric::new(
            "core.phase3_us_per_move",
            ratio(l.phase3 * 1e6, l.moves as f64),
            "us",
            format!("phase III time over {} relocations", l.moves),
        ));
        let (moves, edges) = self
            .counts
            .iter()
            .flatten()
            .fold((0, 0), |(m, e), &(cm, ce)| (m + cm, e + ce));
        let cover = format!(
            "one pass over {} inputs",
            self.counts.iter().flatten().count()
        );
        out.push(Metric::new(
            "core.phase3_moves",
            moves as f64,
            "count",
            cover.clone(),
        ));
        out.push(Metric::new(
            "core.message_edges",
            edges as f64,
            "count",
            cover,
        ));
    }

    fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let l = &self.layers;
        let core = l.phase1 + l.phase2 + l.condition1 + l.phase3;
        let total = l.parse + l.cfg + core;
        vec![
            ("mpsl", ratio(l.parse, total)),
            ("cfg", ratio(l.cfg, total)),
            ("core", ratio(core, total)),
        ]
    }
}
