//! Golden pin for Phase II (rank attributes and Algorithm 3.1 matching).
//!
//! For every stock program plus a fixed 30-exchange workload, at a
//! spread of process counts up to the 128-rank analysis limit, the pin
//! records what Phase II decides and what the pipeline makes of it:
//!
//! * the transformed program's source after [`analyze`];
//! * the extended CFG's message edges;
//! * every node's rank attribute (as a hex bitmask);
//! * the witnesses and unmatched receives of a fresh matching in
//!   `FifoOrdered` mode, plus `Conservative` and `PreferUnmatched` at
//!   `n ≤ 33`.
//!
//! Any change to Phase II's evaluation strategy must leave this file
//! byte-identical. Regenerate (only on an *intentional* change to the
//! analysis) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_phase2
//! ```

use acfc::cfg::{build_cfg, Cfg};
use acfc::core::{analyze, analyze_iddep, compute_attrs, match_send_recv, AnalysisConfig};
use acfc::core::{Matching, MatchingMode};
use acfc::mpsl::{parse, programs, to_source, Program};
use std::fmt::Write;
use std::path::PathBuf;

const NPROCS: [usize; 11] = [2, 3, 4, 5, 7, 8, 16, 33, 64, 127, 128];

/// Largest `n` at which the all-pairs modes are pinned too.
const ALL_PAIRS_MAX_N: usize = 33;

fn many_exchanges(m: usize) -> Program {
    let mut src = String::from("program many_exchanges;\n");
    for _ in 0..m {
        src.push_str(
            "if rank % 2 == 0 { checkpoint; send to rank + 1; recv from rank + 1; }\n\
             else { recv from rank - 1; checkpoint; send to rank - 1; }\n",
        );
    }
    parse(&src).expect("workload parses")
}

/// The last text pinned per section label, so a section that repeats
/// the previous `n`'s verbatim is pinned by reference instead of in full.
type Previous = Vec<(&'static str, usize, String)>;

/// Writes `header`, then either `text` or a back-reference to the last
/// `n` whose `label` section was identical.
fn pin_section(
    out: &mut String,
    prev: &mut Previous,
    label: &'static str,
    header: &str,
    n: usize,
    text: String,
) {
    out.push_str(header);
    match prev.iter_mut().find(|(l, _, _)| *l == label) {
        Some((_, at, last)) if *last == text => {
            let _ = writeln!(out, ", same as n={at}");
        }
        slot => {
            out.push('\n');
            out.push_str(&text);
            match slot {
                Some(entry) => *entry = (label, n, text),
                None => prev.push((label, n, text)),
            }
        }
    }
}

/// One witness per line: `send->recv @(p,q)`, `!` marking irregular.
fn render_matching(m: &Matching) -> String {
    let mut out = String::new();
    for w in &m.witnesses {
        let (s, r) = (w.edge.send, w.edge.recv);
        let irregular = if w.irregular { " !" } else { "" };
        let _ = writeln!(
            out,
            "    {s}->{r} @({},{}){irregular}",
            w.witness.0, w.witness.1
        );
    }
    let unmatched: Vec<String> = m.unmatched_recvs.iter().map(|r| r.to_string()).collect();
    let _ = writeln!(out, "    unmatched [{}]", unmatched.join(" "));
    out
}

fn render_phase2(out: &mut String, prev: &mut Previous, cfg: &Cfg, lowered: &Program, n: usize) {
    let iddep = analyze_iddep(cfg, lowered);
    let attrs = compute_attrs(cfg, n, &iddep);
    let _ = writeln!(out, "  attrs:");
    for id in cfg.node_ids() {
        let bits = attrs.of(id).iter().fold(0u128, |b, r| b | 1u128 << r);
        let _ = writeln!(out, "    {id} {bits:x}");
    }
    let mut modes = vec![("fifo", MatchingMode::FifoOrdered)];
    if n <= ALL_PAIRS_MAX_N {
        modes.push(("conservative", MatchingMode::Conservative));
        modes.push(("prefer-unmatched", MatchingMode::PreferUnmatched));
    }
    for (label, mode) in modes {
        let m = match_send_recv(cfg, &attrs, &iddep, mode);
        let header = format!("  match {label}: {} edges", m.edges.len());
        pin_section(out, prev, label, &header, n, render_matching(&m));
    }
}

fn render(out: &mut String, prev: &mut Previous, program: &Program, n: usize) {
    let _ = writeln!(out, "== {} n={n}", program.name);
    match analyze(program, &AnalysisConfig::for_nprocs(n)) {
        Ok(a) => {
            let mut source = String::new();
            for line in to_source(&a.program).lines() {
                let _ = writeln!(source, "  | {line}");
            }
            let edges: Vec<String> = a
                .extended
                .message_edges
                .iter()
                .map(|e| format!("{}->{}", e.send, e.recv))
                .collect();
            let _ = writeln!(source, "  message_edges [{}]", edges.join(" "));
            let header = format!("  moves {}", a.moves.len());
            pin_section(out, prev, "program", &header, n, source);
            let (cfg, lowered) = build_cfg(&a.program);
            render_phase2(out, prev, &cfg, &lowered, n);
        }
        Err(e) => {
            let _ = writeln!(out, "  error {e}");
            let (cfg, lowered) = build_cfg(program);
            render_phase2(out, prev, &cfg, &lowered, n);
        }
    }
}

#[test]
fn phase2_matches_pinned_snapshot() {
    let mut workloads = programs::all_stock();
    workloads.push(many_exchanges(30));
    let mut rendered = String::new();
    for p in &workloads {
        let mut prev = Previous::new();
        for n in NPROCS {
            render(&mut rendered, &mut prev, p, n);
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/phase2.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write pin");
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pin {}: {e}", path.display()));
    if rendered != pinned {
        let line = rendered
            .lines()
            .zip(pinned.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| rendered.lines().count().min(pinned.lines().count()) + 1);
        panic!("phase2.txt diverged from pin at line {line}");
    }
}
