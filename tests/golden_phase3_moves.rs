//! Golden pin for Phase III (Algorithm 3.2's relocations).
//!
//! For every stock program plus `programs/many_exchanges.mpsl` (a
//! seeded 30-exchange workload that needs one relocation per block), at
//! n ∈ {8, 32, 128}, the pin records the `MoveRecord` list of
//! [`analyze`]: each move's straight-cut index, the moved checkpoint's
//! label and the description of its old and new positions.
//!
//! Any change to how Phase III represents or rebuilds the extended CFG
//! must leave this file byte-identical. Regenerate (only on an
//! *intentional* change to the repair) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_phase3_moves
//! ```

use acfc::core::{analyze, AnalysisConfig};
use acfc::mpsl::{parse, programs, Program};
use std::fmt::Write;
use std::path::PathBuf;

const NPROCS: [usize; 3] = [8, 32, 128];

fn many_exchanges() -> Program {
    parse(include_str!("../programs/many_exchanges.mpsl")).expect("workload parses")
}

fn render(out: &mut String, program: &Program, n: usize) {
    let _ = writeln!(out, "== {} n={n}", program.name);
    match analyze(program, &AnalysisConfig::for_nprocs(n)) {
        Ok(a) => {
            let _ = writeln!(out, "  moves {}", a.moves.len());
            for m in &a.moves {
                let label = m.label.as_deref().unwrap_or("-");
                let _ = writeln!(out, "    S_{} {label}: {}", m.index, m.description);
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  error {e}");
        }
    }
}

#[test]
fn phase3_moves_match_pinned_snapshot() {
    let mut workloads = programs::all_stock();
    workloads.push(many_exchanges());
    let mut rendered = String::new();
    for p in &workloads {
        for n in NPROCS {
            render(&mut rendered, p, n);
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/phase3_moves.txt");
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
        panic!("phase3_moves.txt diverged from pin at line {line}");
    }
}
