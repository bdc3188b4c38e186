//! The extended CFG `Ĝ`: the CFG plus message edges.
//!
//! §2: *we extend a CFG representation to include message edges that
//! represent the communication between every two corresponding send and
//! receive nodes* (Figure 4). Phase III's Condition 1 is a reachability
//! question over `Ĝ`; this module answers it from two parts:
//!
//! * a checkpoint-free [`Skeleton`]: `Ĝ` with every checkpoint node
//!   contracted onto the CFG edge it sits on. It carries the back-edge
//!   classification, the reachability closures with and without CFG
//!   backward edges (which the loop optimization distinguishes), and
//!   the message-reach rows. Its nodes are the CFG's other nodes, keyed
//!   by ordinal (the k-th non-checkpoint node in creation order);
//! * a per-CFG *placement* that puts each checkpoint on its skeleton
//!   edge, in path order.
//!
//! A checkpoint node has exactly one predecessor and one successor, so
//! the contraction changes no reachability among the other nodes, and
//! every query is a constant-time probe of a skeleton row. Algorithm 3.2
//! only moves, removes or adds checkpoint nodes, so one skeleton serves
//! every iteration of a repair: [`ExtendedCfg::place`] re-places the
//! checkpoints of a rebuilt CFG on it, after checking that the CFG
//! contracts onto exactly the same skeleton.

use crate::matching::{Matching, MessageEdge};
use acfc_cfg::{loop_info, to_dot, Cfg, EdgeLabel, LoopInfo, NodeId, NodeKind, Reach};
use std::sync::Arc;

/// Where a node of the current CFG sits relative to the skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// A skeleton node, by ordinal.
    Node(u32),
    /// A checkpoint on skeleton edge `edge`, the `pos`-th (from 0)
    /// along it from the edge's source.
    OnEdge {
        /// Index into [`Skeleton::edges`].
        edge: u32,
        /// Position along the edge's checkpoint chain.
        pos: u32,
    },
}

/// One CFG edge of the skeleton: a direct edge, or a chain of
/// checkpoint nodes contracted into one edge (labelled like its first
/// hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SkeletonEdge {
    from: u32,
    to: u32,
    label: EdgeLabel,
}

/// A skeleton's graph: what two CFGs must share for one to be placed on
/// the other's skeleton.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    /// Contracted CFG edges, grouped by source ordinal; within a source,
    /// in the CFG's successor order.
    edges: Vec<SkeletonEdge>,
    /// `edges[first_edge[x]..first_edge[x + 1]]` leave node `x`.
    first_edge: Vec<u32>,
    /// Message edges as `(send ordinal, recv ordinal)`.
    messages: Vec<(u32, u32)>,
}

/// How a checkpoint placed on a skeleton edge relates to loops.
#[derive(Debug, Clone, Copy)]
struct EdgeClass {
    /// The edge is a CFG backward edge. On a contracted chain only the
    /// last hop can be one (its target dominates the chain's source, and
    /// no checkpoint dominates its own predecessor), so the whole edge
    /// inherits that hop's class.
    back: bool,
    /// A checkpoint on the edge lies in a natural loop: the edge is a
    /// backward edge, or its target is a non-header member of a loop.
    in_loop: bool,
}

/// Dense bitset rows, one per skeleton node.
#[derive(Debug)]
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn get(&self, row: u32, col: u32) -> bool {
        let col = col as usize;
        self.bits[row as usize * self.words + col / 64] & (1u64 << (col % 64)) != 0
    }
}

/// The checkpoint-free part of `Ĝ` (see the module docs): shared, via
/// [`ExtendedCfg::skeleton`], by every CFG whose checkpoints contract
/// onto it.
#[derive(Debug)]
pub struct Skeleton {
    shape: Shape,
    /// Per edge of `shape`.
    class: Vec<EdgeClass>,
    /// Per node: whether it lies in a natural loop.
    node_in_loop: Vec<bool>,
    /// Reachability over all skeleton edges plus message edges.
    reach_full: Reach,
    /// The same without CFG backward edges.
    reach_forward: Reach,
    /// Message-reach rows over `reach_full`: bit `y` of row `x` is set
    /// iff some message edge `(s, r)` has `x ⇝= s` and `r ⇝= y`.
    msg_full: BitRows,
    /// Same rows over `reach_forward`.
    msg_forward: BitRows,
}

impl Skeleton {
    /// Number of skeleton nodes (the CFG's nodes minus its contracted
    /// checkpoints).
    pub fn node_count(&self) -> usize {
        self.node_in_loop.len()
    }

    fn edge(&self, e: u32) -> SkeletonEdge {
        self.shape.edges[e as usize]
    }

    fn back(&self, e: u32) -> bool {
        self.class[e as usize].back
    }
}

/// A CFG contracted onto skeleton form, before any closure is computed.
struct Contraction {
    place: Vec<Place>,
    shape: Shape,
    /// Per edge: the CFG node its last hop leaves from.
    last_hop: Vec<NodeId>,
    /// Ordinal → CFG node.
    nodes: Vec<NodeId>,
}

/// Contracts the checkpoints of `cfg` onto the edges they sit on (when
/// `fold`), or maps `cfg` one-to-one (when not). Returns `None` when a
/// checkpoint cannot be folded: it lacks exactly one predecessor and one
/// successor, lies on a checkpoint-only cycle, or ends a message edge.
fn contract(cfg: &Cfg, messages: &[MessageEdge], fold: bool) -> Option<Contraction> {
    let n = cfg.len();
    let chain = |x: NodeId| fold && matches!(cfg.node(x).kind, NodeKind::Checkpoint { .. });
    const UNPLACED: Place = Place::Node(u32::MAX);
    let mut place = vec![UNPLACED; n];
    let mut nodes = Vec::with_capacity(n);
    for x in cfg.node_ids() {
        if chain(x) {
            if cfg.preds(x).len() != 1 || cfg.succs(x).len() != 1 {
                return None;
            }
        } else {
            place[x.index()] = Place::Node(nodes.len() as u32);
            nodes.push(x);
        }
    }
    let mut edges = Vec::with_capacity(cfg.edge_count());
    let mut last_hop = Vec::with_capacity(cfg.edge_count());
    let mut first_edge = Vec::with_capacity(nodes.len() + 1);
    for (from, &x) in nodes.iter().enumerate() {
        first_edge.push(edges.len() as u32);
        for &(first, label) in cfg.succs(x) {
            let (mut prev, mut y, mut pos) = (x, first, 0u32);
            while chain(y) {
                if place[y.index()] != UNPLACED {
                    return None; // unreachable for 1-in/1-out chains; guards the walk
                }
                place[y.index()] = Place::OnEdge {
                    edge: edges.len() as u32,
                    pos,
                };
                pos += 1;
                prev = y;
                y = cfg.succs(y)[0].0;
            }
            let Place::Node(to) = place[y.index()] else {
                unreachable!("chains end at skeleton nodes")
            };
            edges.push(SkeletonEdge {
                from: from as u32,
                to,
                label,
            });
            last_hop.push(prev);
        }
    }
    first_edge.push(edges.len() as u32);
    if place.contains(&UNPLACED) {
        return None; // a checkpoint no chain reaches
    }
    let ordinal = |x: NodeId| match place[x.index()] {
        Place::Node(k) => Some(k),
        Place::OnEdge { .. } => None,
    };
    let messages = messages
        .iter()
        .map(|e| Some((ordinal(e.send)?, ordinal(e.recv)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Contraction {
        place,
        shape: Shape {
            edges,
            first_edge,
            messages,
        },
        last_hop,
        nodes,
    })
}

/// Message-reach rows (see [`Skeleton::msg_full`]) over each closure in
/// `reaches`: per node `x`, the union of `{r} ∪ row(r)` over the message
/// edges `(s, r)` whose send `x` reaches or is — whole-row ORs over the
/// sends set in `x`'s row.
fn message_rows<const K: usize>(messages: &[(u32, u32)], reaches: [&Reach; K]) -> [BitRows; K] {
    let n = reaches[0].len();
    let words = reaches[0].row_words();
    let mut slot = vec![usize::MAX; n];
    let mut send_mask = vec![0u64; words];
    let mut sends = 0;
    for &(s, _) in messages {
        let s = s as usize;
        if slot[s] == usize::MAX {
            slot[s] = sends;
            sends += 1;
            send_mask[s / 64] |= 1u64 << (s % 64);
        }
    }
    reaches.map(|reach| {
        // Per send: the union of `{r} ∪ row(r)` over its message edges.
        let mut outs = vec![0u64; sends * words];
        for &(s, r) in messages {
            let r = r as usize;
            let out = &mut outs[slot[s as usize] * words..][..words];
            out[r / 64] |= 1u64 << (r % 64);
            for (dst, src) in out.iter_mut().zip(reach.row(r)) {
                *dst |= src;
            }
        }
        let mut bits = vec![0u64; n * words];
        for (x, row) in bits.chunks_exact_mut(words).enumerate() {
            let mut or_send = |s: usize| {
                for (dst, src) in row.iter_mut().zip(&outs[slot[s] * words..][..words]) {
                    *dst |= src;
                }
            };
            if slot[x] != usize::MAX {
                or_send(x);
            }
            for (w, (&reach_word, &mask)) in reach.row(x).iter().zip(&send_mask).enumerate() {
                let mut hit = reach_word & mask;
                while hit != 0 {
                    or_send(w * 64 + hit.trailing_zeros() as usize);
                    hit &= hit - 1;
                }
            }
        }
        BitRows { words, bits }
    })
}

impl Skeleton {
    /// Computes the closures of a contraction's shape, classifying its
    /// edges with the loop structure of the CFG it came from.
    fn new(shape: Shape, last_hop: &[NodeId], nodes: &[NodeId], loops: &LoopInfo) -> Skeleton {
        let n = nodes.len();
        let class: Vec<EdgeClass> = shape
            .edges
            .iter()
            .zip(last_hop)
            .map(|(e, &hop)| {
                let to = nodes[e.to as usize];
                let back = loops.is_back_edge(hop, to);
                EdgeClass {
                    back,
                    in_loop: back || loops.loops.iter().any(|l| l.contains(to) && l.header != to),
                }
            })
            .collect();
        let mut full: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut forward: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e, c) in shape.edges.iter().zip(&class) {
            full[e.from as usize].push(e.to as usize);
            if !c.back {
                forward[e.from as usize].push(e.to as usize);
            }
        }
        for &(s, r) in &shape.messages {
            full[s as usize].push(r as usize);
            forward[s as usize].push(r as usize);
        }
        let reach_full = Reach::compute(&full);
        let reach_forward = Reach::compute(&forward);
        let [msg_full, msg_forward] = message_rows(&shape.messages, [&reach_full, &reach_forward]);
        Skeleton {
            shape,
            class,
            node_in_loop: nodes.iter().map(|&x| loops.in_loop(x)).collect(),
            reach_full,
            reach_forward,
            msg_full,
            msg_forward,
        }
    }
}

/// The extended CFG of a program.
#[derive(Debug, Clone)]
pub struct ExtendedCfg {
    /// The underlying CFG (unchanged).
    pub cfg: Cfg,
    /// Message edges from Phase II.
    pub message_edges: Vec<MessageEdge>,
    /// The checkpoint-free closures, shared across re-placements.
    skeleton: Arc<Skeleton>,
    /// Per CFG node: its skeleton node or checkpoint position.
    place: Vec<Place>,
}

impl ExtendedCfg {
    /// Builds `Ĝ` from a CFG and a matching.
    pub fn build(cfg: Cfg, matching: &Matching) -> ExtendedCfg {
        let loops = loop_info(&cfg);
        let c = contract(&cfg, &matching.edges, true)
            .or_else(|| contract(&cfg, &matching.edges, false))
            .expect("an unfolded CFG always contracts");
        let skeleton = Skeleton::new(c.shape, &c.last_hop, &c.nodes, &loops);
        ExtendedCfg {
            cfg,
            message_edges: matching.edges.clone(),
            skeleton: Arc::new(skeleton),
            place: c.place,
        }
    }

    /// Builds `Ĝ` on an existing skeleton: places `cfg`'s checkpoints on
    /// `skeleton`'s edges without recomputing any closure. Succeeds iff
    /// `cfg` and `matching` contract onto exactly `skeleton` — e.g. `cfg`
    /// is a checkpoint-edited variant of the program `skeleton` came
    /// from; otherwise hands `cfg` back for a full [`ExtendedCfg::build`].
    ///
    /// # Errors
    ///
    /// Returns `cfg` unchanged when it does not contract onto `skeleton`.
    pub fn place(
        cfg: Cfg,
        matching: &Matching,
        skeleton: &Arc<Skeleton>,
    ) -> Result<ExtendedCfg, Cfg> {
        match contract(&cfg, &matching.edges, true) {
            Some(c) if c.shape == skeleton.shape => Ok(ExtendedCfg {
                cfg,
                message_edges: matching.edges.clone(),
                skeleton: Arc::clone(skeleton),
                place: c.place,
            }),
            _ => Err(cfg),
        }
    }

    /// The checkpoint-free skeleton this graph answers queries from.
    pub fn skeleton(&self) -> &Arc<Skeleton> {
        &self.skeleton
    }

    fn place_of(&self, n: NodeId) -> Place {
        self.place[n.index()]
    }

    /// Path query of length ≥ 1 over `reach`; `forward` forbids leaving
    /// a checkpoint chain over a backward edge.
    fn path(&self, a: NodeId, b: NodeId, reach: &Reach, forward: bool) -> bool {
        let s = &*self.skeleton;
        // Where the path must arrive at the skeleton to end at `b`.
        let (b_node, b_edge) = match self.place_of(b) {
            Place::Node(y) => (y as usize, None),
            Place::OnEdge { edge, pos } => (s.edge(edge).from as usize, Some((edge, pos))),
        };
        match self.place_of(a) {
            Place::Node(x) if b_edge.is_none() => reach.reachable(x as usize, b_node),
            Place::Node(x) => reach.reachable_or_eq(x as usize, b_node),
            Place::OnEdge { edge, pos } => {
                matches!(b_edge, Some((e, p)) if e == edge && p > pos)
                    || (!(forward && s.back(edge))
                        && reach.reachable_or_eq(s.edge(edge).to as usize, b_node))
            }
        }
    }

    /// Message-crossing path query over `rows`.
    fn via_message(&self, a: NodeId, b: NodeId, rows: &BitRows, forward: bool) -> bool {
        let s = &*self.skeleton;
        let src = match self.place_of(a) {
            Place::Node(x) => x,
            Place::OnEdge { edge, .. } if forward && s.back(edge) => return false,
            Place::OnEdge { edge, .. } => s.edge(edge).to,
        };
        let dst = match self.place_of(b) {
            Place::Node(y) => y,
            Place::OnEdge { edge, .. } => s.edge(edge).from,
        };
        rows.get(src, dst)
    }

    /// `true` iff a path of length ≥ 1 exists from `a` to `b` in `Ĝ`
    /// (backward edges included).
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.path(a, b, &self.skeleton.reach_full, false)
    }

    /// `true` iff a path exists from `a` to `b` in `Ĝ` that uses **no
    /// CFG backward edge** (message edges allowed).
    pub fn reaches_forward(&self, a: NodeId, b: NodeId) -> bool {
        self.path(a, b, &self.skeleton.reach_forward, true)
    }

    /// `true` iff a `Ĝ`-path from `a` to `b` exists that crosses at
    /// least one **message edge**: some message edge `e` has
    /// `a ⇝= e.send` and `e.recv ⇝= b` (`⇝=`: equal, or a path of
    /// length ≥ 1). Happened-before between checkpoints of *different*
    /// processes (the only pairs a cut contains) always involves a
    /// message, so Condition 1 only needs these paths; message-free CFG
    /// paths between checkpoints with disjoint rank attributes are not
    /// cross-process causality.
    pub fn reaches_via_message(&self, a: NodeId, b: NodeId) -> bool {
        self.via_message(a, b, &self.skeleton.msg_full, false)
    }

    /// Like [`ExtendedCfg::reaches_via_message`], using no CFG backward
    /// edges: `a ⇝= e.send` and `e.recv ⇝= b` over `Ĝ` minus the CFG's
    /// backward edges.
    pub fn reaches_forward_via_message(&self, a: NodeId, b: NodeId) -> bool {
        self.via_message(a, b, &self.skeleton.msg_forward, true)
    }

    /// `true` iff `n` lies in a natural loop of the CFG.
    pub fn in_loop(&self, n: NodeId) -> bool {
        match self.place_of(n) {
            Place::Node(x) => self.skeleton.node_in_loop[x as usize],
            Place::OnEdge { edge, .. } => self.skeleton.class[edge as usize].in_loop,
        }
    }

    /// `true` iff the CFG edge `a → b` is a backward edge (`b`
    /// dominates `a`).
    pub fn is_back_edge(&self, a: NodeId, b: NodeId) -> bool {
        let s = &*self.skeleton;
        let Place::Node(y) = self.place_of(b) else {
            return false; // no checkpoint dominates its predecessor
        };
        let mut out = match self.place_of(a) {
            Place::OnEdge { edge, .. } => edge..edge + 1,
            Place::Node(x) => s.shape.first_edge[x as usize]..s.shape.first_edge[x as usize + 1],
        };
        out.any(|e| s.edge(e).to == y && s.back(e))
    }

    /// Adjacency of `Ĝ` (all edges) as raw lists, for path finding.
    pub fn adjacency_full(&self) -> Vec<Vec<usize>> {
        self.adjacency(|_, _| true)
    }

    /// Adjacency of `Ĝ` minus CFG backward edges.
    pub fn adjacency_forward(&self) -> Vec<Vec<usize>> {
        self.adjacency(|a, b| !self.is_back_edge(a, b))
    }

    fn adjacency(&self, keep: impl Fn(NodeId, NodeId) -> bool) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.cfg.len()];
        for (a, b, _) in self.cfg.edges() {
            if keep(a, b) {
                adj[a.index()].push(b.index());
            }
        }
        for e in &self.message_edges {
            adj[e.send.index()].push(e.recv.index());
        }
        adj
    }

    /// Graphviz rendering with message edges dashed (Figure 4 style).
    pub fn to_dot(&self) -> String {
        let extra: Vec<(NodeId, NodeId)> = self
            .message_edges
            .iter()
            .map(|e| (e.send, e.recv))
            .collect();
        to_dot(&self.cfg, &extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::iddep::analyze_iddep;
    use crate::matching::{match_send_recv, MatchingMode};
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn only_edges(edges: Vec<MessageEdge>) -> Matching {
        Matching {
            edges,
            witnesses: Vec::new(),
            unmatched_recvs: Vec::new(),
        }
    }

    fn extended(src: &str, n: usize) -> ExtendedCfg {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        ExtendedCfg::build(cfg, &m)
    }

    #[test]
    fn message_edge_creates_cross_path_reachability() {
        let g = extended(
            "program t;
             if rank % 2 == 0 { checkpoint; send to rank + 1; }
             else { recv from rank - 1; checkpoint; }",
            4,
        );
        let chks = g.cfg.checkpoint_nodes();
        let (even_c, odd_c) = (chks[0], chks[1]);
        // Without the message edge there is no path between branch arms;
        // with it, the even checkpoint reaches the odd one (Figure 5).
        assert!(g.reaches(even_c, odd_c));
        assert!(g.reaches_forward(even_c, odd_c));
        assert!(!g.reaches(odd_c, even_c));
    }

    #[test]
    fn forward_reach_excludes_back_edges() {
        let g = extended(
            "program t; var i;
             for i in 0..3 { compute 1; checkpoint; }",
            2,
        );
        let c = g.cfg.checkpoint_nodes()[0];
        // Via the back edge the checkpoint reaches itself...
        assert!(g.reaches(c, c));
        // ...but not on forward edges alone.
        assert!(!g.reaches_forward(c, c));
        assert!(g.in_loop(c));
    }

    #[test]
    fn fig6_back_edge_path_detected() {
        let g = {
            let p = acfc_mpsl::programs::fig6(3);
            let (cfg, lowered) = build_cfg(&p);
            let iddep = analyze_iddep(&cfg, &lowered);
            let attrs = compute_attrs(&cfg, 4, &iddep);
            let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
            ExtendedCfg::build(cfg, &m)
        };
        let chks = g.cfg.checkpoint_nodes();
        assert_eq!(chks.len(), 2);
        // Path A's checkpoint (in the loop) vs B's (before its loop):
        // B reaches A only through a backward edge.
        let a = chks[0]; // loop checkpoint ("A" arm appears first)
        let b = chks[1];
        assert!(g.reaches(b, a), "B must reach A through the loop");
        assert!(
            !g.reaches_forward(b, a),
            "the only path crosses the back edge"
        );
    }

    #[test]
    fn dot_includes_dashed_message_edges() {
        let g = extended(
            "program t; if rank == 0 { send to 1; } else { recv from 0; }",
            2,
        );
        assert_eq!(g.message_edges.len(), 1);
        let dot = g.to_dot();
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn checkpoints_are_contracted_out_of_the_skeleton() {
        let g = extended(
            "program t; var i;
             checkpoint; checkpoint;
             for i in 0..3 { if rank % 2 == 0 { checkpoint; } else { checkpoint; } }",
            2,
        );
        let chks = g.cfg.checkpoint_nodes();
        assert_eq!(chks.len(), 4);
        assert_eq!(g.skeleton().node_count(), g.cfg.len() - chks.len());
        // Two checkpoints in a row on one edge: the first reaches the
        // second, not the other way round without the loop.
        assert!(g.reaches_forward(chks[0], chks[1]));
        assert!(!g.reaches(chks[1], chks[0]));
        // If-arms that hold only a checkpoint stay apart forward, but
        // meet through the loop's back edge.
        assert!(!g.reaches_forward(chks[2], chks[3]));
        assert!(g.reaches(chks[2], chks[3]));
    }

    #[test]
    fn a_detached_checkpoint_falls_back_to_the_uncontracted_graph() {
        let mut g = extended("program t; compute 1; checkpoint; compute 2;", 2);
        let c = g.cfg.checkpoint_nodes()[0];
        let mut cfg = g.cfg.clone();
        cfg.unlink_passthrough(c);
        g = ExtendedCfg::build(cfg, &only_edges(Vec::new()));
        assert_eq!(g.skeleton().node_count(), g.cfg.len(), "nothing contracted");
        assert!(!g.reaches(c, g.cfg.exit()));
        assert!(g.reaches(g.cfg.entry(), g.cfg.exit()));
    }

    #[test]
    fn placement_refuses_a_different_skeleton() {
        let g = extended(
            "program t; if rank == 0 { checkpoint; send to 1; } else { recv from 0; }",
            2,
        );
        let other = extended(
            "program t; if rank == 0 { send to 1; compute 1; } else { recv from 0; }",
            2,
        );
        let m = only_edges(other.message_edges.clone());
        assert!(ExtendedCfg::place(other.cfg.clone(), &m, g.skeleton()).is_err());
        assert!(ExtendedCfg::place(other.cfg.clone(), &m, other.skeleton()).is_ok());
    }

    #[test]
    fn message_rows_agree_with_edge_scan() {
        let g = extended(
            "program t; var i;
             for i in 0..3 {
               if rank % 2 == 0 { checkpoint; send to rank + 1; recv from rank + 1; }
               else { recv from rank - 1; checkpoint; send to rank - 1; }
             }",
            4,
        );
        assert!(!g.message_edges.is_empty());
        let full = Reach::compute(&g.adjacency_full());
        let fwd = Reach::compute(&g.adjacency_forward());
        let scan = |r: &Reach, a: NodeId, b: NodeId| {
            g.message_edges.iter().any(|e| {
                r.reachable_or_eq(a.index(), e.send.index())
                    && r.reachable_or_eq(e.recv.index(), b.index())
            })
        };
        for a in g.cfg.node_ids() {
            for b in g.cfg.node_ids() {
                assert_eq!(
                    g.reaches_via_message(a, b),
                    scan(&full, a, b),
                    "full ({a},{b})"
                );
                assert_eq!(
                    g.reaches_forward_via_message(a, b),
                    scan(&fwd, a, b),
                    "forward ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn adjacency_shapes_agree_with_reach() {
        let g = extended(
            "program t; var i; for i in 0..2 { send to (rank+1)%nprocs; recv from (rank-1)%nprocs; checkpoint; }",
            4,
        );
        let full = g.adjacency_full();
        let fwd = g.adjacency_forward();
        let edge_count_full: usize = full.iter().map(|v| v.len()).sum();
        let edge_count_fwd: usize = fwd.iter().map(|v| v.len()).sum();
        assert!(edge_count_fwd < edge_count_full, "back edge removed");
        let r_full = acfc_cfg::Reach::compute(&full);
        for a in 0..full.len() {
            for b in 0..full.len() {
                assert_eq!(
                    r_full.reachable(a, b),
                    g.reaches(NodeId(a as u32), NodeId(b as u32))
                );
            }
        }
    }
}
