//! Random MPSL programs for the extended-CFG and Phase III tests.
//!
//! A program is drawn as a *template*: statements plus checkpoint slots.
//! Rendering the same template with different slot fillings gives
//! variants that differ only in checkpoint placement — exactly the
//! edits Algorithm 3.2 makes — so a test can build the extended CFG of
//! one and re-place the checkpoints of another on its skeleton.

#![allow(dead_code)]

use acfc_mpsl::{parse, Program};
use acfc_util::check::Gen;
use std::fmt::Write;

/// A statement of a template.
#[derive(Debug, Clone)]
pub enum Tpl {
    Compute(i64),
    Send(&'static str),
    Recv(&'static str),
    /// A checkpoint slot: rendered as `fill[slot]` checkpoints in a row.
    Slot(usize),
    If(&'static str, Vec<Tpl>, Vec<Tpl>),
    /// `for i<k> in 0..2 { body }`: the body ends on the increment.
    For(usize, Vec<Tpl>),
    /// `while i<k> < 2 { i<k> := i<k> + 1; body }`: the body ends on the
    /// backward edge.
    While(usize, Vec<Tpl>),
}

/// A template and its number of checkpoint slots.
#[derive(Debug, Clone)]
pub struct Template {
    pub body: Vec<Tpl>,
    pub slots: usize,
}

const PEERS: [&str; 4] = [
    "rank + 1",
    "rank - 1",
    "(rank + 1) % nprocs",
    "(rank - 1) % nprocs",
];
const RECV_SRCS: [&str; 5] = [
    "rank - 1",
    "rank + 1",
    "(rank - 1) % nprocs",
    "(rank + 1) % nprocs",
    "any",
];
const CONDS: [&str; 4] = ["rank % 2 == 0", "rank % 2 == 1", "rank == 0", "rank < 2"];

impl Template {
    /// A random template: straight-line code, branches (including arms
    /// that hold nothing but a checkpoint slot), loops (including bodies
    /// that end in one — on a `while`, a back edge then leaves a
    /// checkpoint) and nesting up to `depth`.
    pub fn arbitrary(g: &mut Gen, depth: u32) -> Template {
        let mut t = Template {
            body: Vec::new(),
            slots: 0,
        };
        t.body = t.block(g, depth, 1, 6);
        t
    }

    fn slot(&mut self) -> Tpl {
        self.slots += 1;
        Tpl::Slot(self.slots - 1)
    }

    fn block(&mut self, g: &mut Gen, depth: u32, lo: usize, hi: usize) -> Vec<Tpl> {
        let len = g.usize_in(lo, hi);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.stmt(g, depth));
        }
        out
    }

    fn stmt(&mut self, g: &mut Gen, depth: u32) -> Tpl {
        let kinds: &[u32] = if depth == 0 {
            &[2, 3, 3, 4, 0, 0]
        } else {
            &[2, 3, 3, 4, 2, 2]
        };
        match g.weighted(kinds) {
            0 => Tpl::Compute(g.i64_in(1, 9)),
            1 => Tpl::Send(PEERS[g.usize_in(0, PEERS.len())]),
            2 => Tpl::Recv(RECV_SRCS[g.usize_in(0, RECV_SRCS.len())]),
            3 => self.slot(),
            4 => {
                let cond = *g.pick(&CONDS);
                let arm = |t: &mut Template, g: &mut Gen| match g.usize_in(0, 4) {
                    0 => Vec::new(),
                    1 => vec![t.slot()],
                    _ => t.block(g, depth - 1, 1, 4),
                };
                let then = arm(self, g);
                let els = arm(self, g);
                Tpl::If(cond, then, els)
            }
            _ => {
                let mut body = self.block(g, depth - 1, 1, 4);
                if g.bool() {
                    body.push(self.slot());
                }
                if g.bool() {
                    Tpl::For(depth as usize, body)
                } else {
                    Tpl::While(depth as usize, body)
                }
            }
        }
    }

    /// Renders the template with `fill[k]` checkpoints in slot `k`.
    pub fn render(&self, fill: &[usize]) -> Program {
        let mut src = String::from("program random;\nvar i0, i1, i2, i3, i4;\n");
        render_block(&self.body, fill, 0, &mut src);
        parse(&src).unwrap_or_else(|e| panic!("generated source must parse: {e}\n{src}"))
    }

    /// A random filling: 0–3 checkpoints per slot, mostly 0 or 1.
    pub fn fill(&self, g: &mut Gen) -> Vec<usize> {
        (0..self.slots).map(|_| g.weighted(&[4, 5, 2, 1])).collect()
    }
}

fn render_block(block: &[Tpl], fill: &[usize], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for s in block {
        match s {
            Tpl::Compute(c) => {
                let _ = writeln!(out, "{pad}compute {c};");
            }
            Tpl::Send(p) => {
                let _ = writeln!(out, "{pad}send to {p};");
            }
            Tpl::Recv(p) => {
                let _ = writeln!(out, "{pad}recv from {p};");
            }
            Tpl::Slot(k) => {
                for _ in 0..fill[*k] {
                    let _ = writeln!(out, "{pad}checkpoint;");
                }
            }
            Tpl::If(cond, then, els) => {
                let _ = writeln!(out, "{pad}if {cond} {{");
                render_block(then, fill, indent + 1, out);
                let _ = writeln!(out, "{pad}}} else {{");
                render_block(els, fill, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            Tpl::For(v, body) => {
                let _ = writeln!(out, "{pad}for i{v} in 0..2 {{");
                render_block(body, fill, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            Tpl::While(v, body) => {
                let _ = writeln!(out, "{pad}i{v} := 0;");
                let _ = writeln!(out, "{pad}while i{v} < 2 {{");
                let _ = writeln!(out, "{pad}  i{v} := i{v} + 1;");
                render_block(body, fill, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// A benchmark-style `many_exchanges(m)`: `m` pairwise exchanges, each
/// with the checkpoint on opposite sides of the exchange in the two
/// roles; per block the lead parity, message size, checkpoint label and
/// an optional compute step before it are drawn at random.
pub fn many_exchanges(g: &mut Gen, m: usize) -> Program {
    let mut src = String::from("program many_exchanges;\n");
    for k in 0..m {
        if g.bool() {
            let _ = writeln!(src, "compute {};", g.i64_in(5, 80));
        }
        let size = 64 * g.i64_in(1, 64);
        let label = if g.bool() {
            format!(" \"x{k}\"")
        } else {
            String::new()
        };
        let (lead, up, down) = if g.bool() {
            (0, "rank + 1", "rank - 1")
        } else {
            (1, "rank - 1", "rank + 1")
        };
        let _ = writeln!(
            src,
            "if rank % 2 == {lead} {{ checkpoint{label}; send to {up} size {size}; \
             recv from {up}; }} else {{ recv from {down}; checkpoint{label}; \
             send to {down} size {size}; }}"
        );
    }
    parse(&src).expect("many_exchanges parses")
}
