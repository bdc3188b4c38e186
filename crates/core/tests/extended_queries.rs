//! The extended CFG's queries against their definitions.
//!
//! `ExtendedCfg` answers from a checkpoint-free skeleton plus a
//! per-CFG checkpoint placement. For every node pair, each public query
//! must equal the naive closure (`Reach::compute_naive`) over the
//! graph's own adjacency lists, both on a freshly built graph and after
//! the checkpoints of a checkpoint-edited variant are re-placed on the
//! original's skeleton.

mod common;

use acfc_cfg::{build_cfg, loop_info, Cfg, NodeId, Reach};
use acfc_core::{
    analyze_iddep, compute_attrs, match_send_recv, ExtendedCfg, Matching, MatchingMode,
};
use acfc_mpsl::{programs, Program};
use acfc_util::check::forall;
use common::{many_exchanges, Template};

fn cfg_and_matching(p: &Program, n: usize, mode: MatchingMode) -> (Cfg, Matching) {
    let (cfg, lowered) = build_cfg(p);
    let iddep = analyze_iddep(&cfg, &lowered);
    let attrs = compute_attrs(&cfg, n, &iddep);
    let m = match_send_recv(&cfg, &attrs, &iddep, mode);
    (cfg, m)
}

/// Every query of `g` equals its definition over `g`'s own graph.
fn assert_queries_match_naive(g: &ExtendedCfg, what: &str) {
    let loops = loop_info(&g.cfg);
    // The forward adjacency, classified independently of `g`.
    let mut forward: Vec<Vec<usize>> = vec![Vec::new(); g.cfg.len()];
    for (a, b, _) in g.cfg.edges() {
        assert_eq!(
            g.is_back_edge(a, b),
            loops.is_back_edge(a, b),
            "{what}: back edge {a}->{b}"
        );
        if !loops.is_back_edge(a, b) {
            forward[a.index()].push(b.index());
        }
    }
    for e in &g.message_edges {
        forward[e.send.index()].push(e.recv.index());
    }
    assert_eq!(g.adjacency_forward(), forward, "{what}: forward adjacency");
    let full = Reach::compute_naive(&g.adjacency_full());
    let fwd = Reach::compute_naive(&forward);
    // `reaches_via_message`: some message edge `e` with `a ⇝= e.send`
    // and `e.recv ⇝= b`.
    let via = |r: &Reach, a: NodeId, b: NodeId| {
        g.message_edges.iter().any(|e| {
            r.reachable_or_eq(a.index(), e.send.index())
                && r.reachable_or_eq(e.recv.index(), b.index())
        })
    };
    for a in g.cfg.node_ids() {
        assert_eq!(g.in_loop(a), loops.in_loop(a), "{what}: in_loop({a})");
        for b in g.cfg.node_ids() {
            let at = || format!("{what}: ({a},{b})");
            assert_eq!(
                g.reaches(a, b),
                full.reachable(a.index(), b.index()),
                "{}",
                at()
            );
            assert_eq!(
                g.reaches_forward(a, b),
                fwd.reachable(a.index(), b.index()),
                "{} forward",
                at()
            );
            assert_eq!(
                g.reaches_via_message(a, b),
                via(&full, a, b),
                "{} via",
                at()
            );
            assert_eq!(
                g.reaches_forward_via_message(a, b),
                via(&fwd, a, b),
                "{} forward via",
                at()
            );
        }
    }
}

#[test]
fn stock_programs_answer_like_the_naive_closure() {
    for p in programs::all_stock() {
        for n in [2, 5, 8] {
            for mode in [MatchingMode::FifoOrdered, MatchingMode::Conservative] {
                let (cfg, m) = cfg_and_matching(&p, n, mode);
                let checkpoints = cfg.checkpoint_nodes().len();
                let g = ExtendedCfg::build(cfg, &m);
                assert_eq!(
                    g.skeleton().node_count(),
                    g.cfg.len() - checkpoints,
                    "{}: every checkpoint contracts",
                    p.name
                );
                assert_queries_match_naive(&g, &format!("{} n={n} {mode:?}", p.name));
            }
        }
    }
}

#[test]
fn random_programs_answer_like_the_naive_closure() {
    forall("extended_random_programs", 200, |g| {
        let t = Template::arbitrary(g, 3);
        let fill = t.fill(g);
        let p = t.render(&fill);
        let n = *g.pick(&[2usize, 3, 4, 7]);
        let mode = *g.pick(&[MatchingMode::FifoOrdered, MatchingMode::Conservative]);
        let (cfg, m) = cfg_and_matching(&p, n, mode);
        let x = ExtendedCfg::build(cfg, &m);
        assert_queries_match_naive(&x, &format!("case {} fill {fill:?}", g.case));
    });
}

#[test]
fn re_placed_checkpoints_answer_like_the_naive_closure() {
    forall("extended_re_placed_checkpoints", 200, |g| {
        let t = Template::arbitrary(g, 3);
        let n = *g.pick(&[2usize, 3, 4, 7]);
        let base = t.render(&t.fill(g));
        let (cfg, m) = cfg_and_matching(&base, n, MatchingMode::FifoOrdered);
        let first = ExtendedCfg::build(cfg, &m);
        for _ in 0..3 {
            let fill = t.fill(g);
            let (cfg, m) = cfg_and_matching(&t.render(&fill), n, MatchingMode::FifoOrdered);
            let what = format!("case {} fill {fill:?}", g.case);
            let placed = ExtendedCfg::place(cfg, &m, first.skeleton())
                .unwrap_or_else(|_| panic!("{what}: a checkpoint edit keeps the skeleton"));
            assert_queries_match_naive(&placed, &what);
        }
    });
}

#[test]
fn many_exchanges_answers_like_the_naive_closure() {
    forall("extended_many_exchanges", 8, |g| {
        let m = g.usize_in(1, 12);
        let p = many_exchanges(g, m);
        let (cfg, matching) = cfg_and_matching(&p, 8, MatchingMode::FifoOrdered);
        let x = ExtendedCfg::build(cfg, &matching);
        assert_queries_match_naive(&x, &format!("case {}", g.case));
    });
}

#[test]
fn a_changed_communication_structure_is_refused() {
    let (cfg, m) = cfg_and_matching(&programs::fig5(), 4, MatchingMode::FifoOrdered);
    let g = ExtendedCfg::build(cfg, &m);
    let (other, m2) = cfg_and_matching(&programs::jacobi(3), 4, MatchingMode::FifoOrdered);
    assert!(ExtendedCfg::place(other, &m2, g.skeleton()).is_err());
}
