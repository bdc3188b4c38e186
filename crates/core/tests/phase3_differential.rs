//! Phase III differential: Algorithm 3.2 with the incremental re-analysis
//! (Phase II replayed, checkpoints re-placed on a cached extended-CFG
//! skeleton) against the full rebuild on every iteration
//! (`Phase3Config::incremental = false`).
//!
//! Both must produce the same transformed program, the same relocations
//! (index, label, description) and the same message edges — or the same
//! error — and Condition 1 must hold on the result.

mod common;

use acfc_cfg::build_cfg;
use acfc_core::phase1::equalize_checkpoints;
use acfc_core::{
    analyze_iddep, compute_attrs, condition1_holds, ensure_recovery_lines, index_checkpoints,
    match_send_recv, ExtendedCfg, LoopPolicy, Phase3Config, Phase3Result,
};
use acfc_mpsl::{parse, programs, to_source, Program};
use acfc_util::check::{forall, Gen};
use common::{many_exchanges, Template};
use std::fmt::Write;

/// The transformed source, the relocations as (index, label,
/// description) and the message edges.
type Summary = (String, Vec<(u32, Option<String>, String)>, Vec<String>);

fn summary(r: &Phase3Result) -> Summary {
    let moves = r
        .moves
        .iter()
        .map(|m| (m.index, m.label.clone(), m.description.clone()))
        .collect();
    let edges = r
        .extended
        .message_edges
        .iter()
        .map(|e| format!("{}->{}", e.send, e.recv))
        .collect();
    (to_source(&r.program), moves, edges)
}

/// Runs both paths on `p` at `n`; returns the number of relocations.
fn assert_paths_agree(p: &Program, n: usize, what: &str) -> usize {
    let config = Phase3Config {
        nprocs: n,
        ..Phase3Config::default()
    };
    let incremental = ensure_recovery_lines(p, &config);
    let full = ensure_recovery_lines(
        p,
        &Phase3Config {
            incremental: false,
            ..config.clone()
        },
    );
    match (incremental, full) {
        (Ok(a), Ok(b)) => {
            assert_eq!(summary(&a), summary(&b), "{what}\n{}", to_source(p));
            // Condition 1 holds on the returned graph and on one built
            // from scratch for the returned program.
            let index = index_checkpoints(&a.extended.cfg, &a.program);
            assert!(
                condition1_holds(&a.extended, &index, config.policy),
                "{what}"
            );
            let (cfg, lowered) = build_cfg(&a.program);
            let iddep = analyze_iddep(&cfg, &lowered);
            let attrs = compute_attrs(&cfg, n, &iddep);
            let m = match_send_recv(&cfg, &attrs, &iddep, config.matching);
            let index = index_checkpoints(&cfg, &lowered);
            let fresh = ExtendedCfg::build(cfg, &m);
            assert!(condition1_holds(&fresh, &index, config.policy), "{what}");
            a.moves.len()
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{what}\n{}", to_source(p));
            0
        }
        (a, b) => panic!(
            "{what}: incremental {:?} vs full {:?}\n{}",
            a.map(|r| r.moves.len()),
            b.map(|r| r.moves.len()),
            to_source(p)
        ),
    }
}

#[test]
fn stock_programs_agree() {
    let mut moves = 0;
    for p in programs::all_stock() {
        for n in [2, 3, 8, 32, 128] {
            moves += assert_paths_agree(&p, n, &format!("{} n={n}", p.name));
        }
    }
    assert!(moves > 0, "some stock program needs a relocation");
}

#[test]
fn checked_in_many_exchanges_agrees() {
    let p = parse(include_str!("../../../programs/many_exchanges.mpsl")).unwrap();
    for n in [8, 128] {
        assert_eq!(assert_paths_agree(&p, n, &format!("n={n}")), 30);
    }
}

#[test]
fn benchmark_style_many_exchanges_agree() {
    forall("phase3_differential_many_exchanges", 12, |g| {
        let m = g.usize_in(1, 31);
        let p = many_exchanges(g, m);
        let n = *g.pick(&[2usize, 3, 8, 32, 128]);
        let moves = assert_paths_agree(&p, n, &format!("case {} m={m} n={n}", g.case));
        assert_eq!(moves, m, "one relocation per exchange");
    });
}

/// A skewed exchange: the checkpoint sits before the exchange in one
/// role and inside it in the other, so Algorithm 3.2 must move one.
/// `ckpts` checkpoints stand in a row where one would.
fn exchange(g: &mut Gen, ckpts: usize) -> String {
    let c = "checkpoint; ".repeat(ckpts);
    let (lead, up, down) = if g.bool() {
        (0, "rank + 1", "rank - 1")
    } else {
        (1, "rank - 1", "rank + 1")
    };
    format!(
        "if rank % 2 == {lead} {{ {c}send to {up}; recv from {up}; }} \
         else {{ recv from {down}; {c}send to {down}; }}\n"
    )
}

/// A program of random pieces, each exercising one placement shape:
/// a plain skewed exchange, loops whose body ends in a checkpoint (on
/// the `while`, a back edge leaves a checkpoint), if-arms holding only a checkpoint
/// (rebalancing removes or pads one), several checkpoints in a row on
/// one edge, and nested loops.
fn shaped_program(g: &mut Gen) -> Program {
    let mut src = String::from("program shaped;\nvar i0, i1;\n");
    for _ in 0..g.usize_in(1, 6) {
        let piece = match g.weighted(&[3, 2, 2, 2, 2, 2]) {
            0 => exchange(g, 1),
            1 => format!(
                "i0 := 0;\nwhile i0 < 3 {{\ni0 := i0 + 1;\n{}compute 1;\ncheckpoint;\n}}\n",
                exchange(g, 1)
            ),
            5 => format!("for i0 in 0..3 {{\n{}checkpoint;\n}}\n", exchange(g, 1)),
            2 => {
                let arm = if g.bool() { "checkpoint;" } else { "" };
                format!(
                    "if rank % 2 == {} {{ checkpoint; }} else {{ {arm} }}\n{}",
                    g.usize_in(0, 2),
                    exchange(g, 1)
                )
            }
            3 => {
                let ckpts = g.usize_in(2, 4);
                exchange(g, ckpts)
            }
            _ => format!(
                "for i0 in 0..2 {{\nfor i1 in 0..2 {{\n{}}}\ncheckpoint;\n}}\n",
                exchange(g, 1)
            ),
        };
        src.push_str(&piece);
        if g.prob(0.3) {
            let _ = writeln!(src, "compute {};", g.usize_in(1, 9));
        }
    }
    let mut p = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    if g.bool() {
        equalize_checkpoints(&mut p);
    }
    p
}

#[test]
fn shaped_programs_agree() {
    let mut moves = 0;
    forall("phase3_differential_shaped", 150, |g| {
        let p = shaped_program(g);
        let n = *g.pick(&[2usize, 3, 4, 8]);
        moves += assert_paths_agree(&p, n, &format!("case {} n={n}", g.case));
    });
    assert!(
        moves > 100,
        "the shapes must make Algorithm 3.2 work: {moves} moves"
    );
}

#[test]
fn random_programs_agree() {
    forall("phase3_differential_random", 150, |g| {
        let t = Template::arbitrary(g, 3);
        let mut p = t.render(&t.fill(g));
        if g.bool() {
            equalize_checkpoints(&mut p);
        }
        let n = *g.pick(&[2usize, 3, 4, 8]);
        assert_paths_agree(&p, n, &format!("case {} n={n}", g.case));
    });
}

#[test]
fn strict_policy_agrees() {
    for p in [
        programs::fig5(),
        programs::jacobi_odd_even(2),
        programs::fig6(3),
    ] {
        let config = Phase3Config {
            nprocs: 4,
            policy: LoopPolicy::Strict,
            ..Phase3Config::default()
        };
        let a = ensure_recovery_lines(&p, &config).map(|r| summary(&r));
        let b = ensure_recovery_lines(
            &p,
            &Phase3Config {
                incremental: false,
                ..config
            },
        )
        .map(|r| summary(&r));
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}", p.name),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{}", p.name),
            _ => panic!("{}: the paths disagree on success", p.name),
        }
    }
}
