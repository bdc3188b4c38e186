//! Seeded input generation. Every MPSL source, kill schedule and sweep
//! seed the benchmark feeds the program comes from here, drawn from one
//! `--seed`; the program under test only ever sees the generated text.

use acfc::mpsl::{programs, to_source};
use acfc::util::rng::Rng;
use std::fmt::Write as _;

/// Phase III caps its fixpoint at 32 iterations and `many_exchanges(m)`
/// needs one relocation per block, so 30 is the largest `m` it repairs.
/// The block count stays fixed: the `analyze_ms_p99` tail follows `m`
/// steeply, and a seeded `m` would move it between seeds by more than
/// the metric's bound. The seed varies each block's contents instead.
pub const EXCHANGE_BLOCKS: usize = 30;

/// `many_exchanges(m)`: `m` back-to-back pairwise exchanges, each with
/// the checkpoint on opposite sides of the exchange in the two roles, so
/// every block needs one Phase III relocation. The seed picks, per
/// block, which parity leads, the message size, an optional compute
/// step and the checkpoint labels; none of these change the work.
pub fn many_exchanges(rng: &mut Rng, m: usize) -> String {
    let mut src = String::from("program many_exchanges;\n");
    for k in 0..m {
        if rng.gen_bool(0.5) {
            let _ = writeln!(src, "compute {};", rng.gen_i64_range(5, 80));
        }
        let size = 64 * rng.gen_i64_range(1, 64);
        let label = if rng.gen_bool(0.5) {
            format!(" \"x{k}\"")
        } else {
            String::new()
        };
        let (lead, peer_up, peer_down) = if rng.gen_bool(0.5) {
            (0, "rank + 1", "rank - 1")
        } else {
            (1, "rank - 1", "rank + 1")
        };
        let _ = writeln!(
            src,
            "if rank % 2 == {lead} {{ checkpoint{label}; send to {peer_up} size {size}; \
             recv from {peer_up}; }} else {{ recv from {peer_down}; checkpoint{label}; \
             send to {peer_down} size {size}; }}"
        );
    }
    src
}

/// The stock programs of the analysis workload, as source text: four
/// that Phase III must repair and two that are already safe. Their
/// iteration counts stay fixed because Phase I's cost estimate, and so
/// the analysis time, depends on them.
pub fn stock_sources() -> Vec<(&'static str, String)> {
    vec![
        ("jacobi_odd_even", to_source(&programs::jacobi_odd_even(10))),
        ("pipeline_skewed", to_source(&programs::pipeline_skewed(10))),
        ("pingpong_skewed", to_source(&programs::pingpong_skewed(10))),
        ("fig6", to_source(&programs::fig6(10))),
        ("jacobi", to_source(&programs::jacobi(10))),
        ("stencil_1d", to_source(&programs::stencil_1d(10))),
    ]
}

/// A generated ring program for the live runtime.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The program as run (one checkpoint per iteration).
    pub src: String,
    /// The same program with its checkpoint statements left out: the
    /// checkpoint-free twin behind `ckpt_overhead_ratio`.
    pub twin_src: String,
    /// State variables besides the loop counter.
    pub vars: usize,
}

/// A ring program with `vars` state variables: each iteration computes,
/// updates a seeded handful of the variables, passes a message to the
/// right neighbour, receives from the left and checkpoints. The updates
/// make every variable's final value depend on the whole execution, so
/// a recovery that restores the wrong state shows in `final_vars`. The
/// compute cost and message size are fixed: they set the virtual
/// makespan, and with it how many failures a sweep injects.
pub fn ring(rng: &mut Rng, vars: usize, iters: usize) -> Ring {
    let updates: Vec<(usize, i64)> = (0..8)
        .map(|_| (rng.gen_index(vars), rng.gen_i64_range(1, 9)))
        .collect();
    let build = |checkpoint: bool| {
        let mut s = format!("program ring_state;\nparam iters = {iters};\nvar i");
        for k in 0..vars {
            let _ = write!(s, ", v{k}");
        }
        s.push_str(";\nfor i in 0..iters {\n  compute 40;\n");
        for &(k, c) in &updates {
            let _ = writeln!(s, "  v{k} := v{k} + i * {c} + rank;");
        }
        s.push_str("  send to (rank + 1) % nprocs size 2048;\n");
        let _ = writeln!(s, "  recv from (rank - 1) % nprocs;");
        if checkpoint {
            s.push_str("  checkpoint;\n");
        }
        s.push_str("}\n");
        s
    };
    Ring {
        src: build(true),
        twin_src: build(false),
        vars,
    }
}
