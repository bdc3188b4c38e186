//! Phase II — matching send and receive nodes (Algorithm 3.1).
//!
//! For every `recv` node, find the `send` node(s) that could have
//! produced the message it consumes, by comparing the *source attribute*
//! (which ranks can execute the receive, and which sender its `source`
//! parameter names) against each candidate send's *destination
//! attribute*. A pair matches when the attributes do not contradict:
//!
//! > ∃ sender rank `p`, receiver rank `q`, `p ≠ q`, such that `p` can
//! > execute the send, `q` can execute the receive, the send's
//! > destination at `p` is `q` (or irregular/unresolvable), and the
//! > receive's source at `q` is `p` (or irregular/unresolvable).
//!
//! Irregular patterns (§3.2) — parameters involving `input(·)` or
//! `recv from any` — match every non-contradicting candidate; regular
//! patterns can optionally follow the paper's "prefer not-yet-matched
//! sends" rule ([`MatchingMode::PreferUnmatched`]). The default,
//! [`MatchingMode::Conservative`], matches all non-contradicting pairs —
//! an over-approximation that preserves Lemma 3.1 (the true sender is
//! always among the matches) and errs toward more message edges, i.e.
//! toward *more* conservative checkpoint placement in Phase III.

use crate::attr::{NodeAttrs, RankSet};
use crate::iddep::IdDepInfo;
use acfc_cfg::{dfs, Cfg, NodeId, NodeKind};
use acfc_mpsl::{rank_eval, Expr, RankEnv, RankVal, RecvSrc};

/// How aggressively to match (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchingMode {
    /// Match every non-contradicting (send, recv) pair. Sound
    /// over-approximation, but imprecise: in programs with several
    /// communication phases it cross-matches phase `k`'s sends with
    /// phase `j ≠ k`'s receives, which FIFO channels rule out, and the
    /// spurious edges can make Condition 1 unsatisfiable.
    Conservative,
    /// Algorithm 3.1 as written: a regular receive prefers send nodes
    /// that are not yet matched, falling back to matched ones only when
    /// no unmatched candidate exists (preserving Lemma 3.1).
    PreferUnmatched,
    /// Per-channel FIFO sequence matching (the default). Under the §2
    /// model — reliable FIFO channels, blocking receives, deterministic
    /// SPMD — the `k`-th receive on channel `(p, q)` consumes exactly
    /// the `k`-th send on it. For every concrete rank pair the matcher
    /// therefore lists the channel's send and receive statements in
    /// program order and pairs them positionally; a channel whose
    /// statements cannot all be resolved exactly (irregular or unknown
    /// patterns) or whose send/receive statement counts differ falls
    /// back to all-pairs matching, preserving Lemma 3.1.
    #[default]
    FifoOrdered,
}

/// A message edge `send → recv` in the extended CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageEdge {
    /// The send node.
    pub send: NodeId,
    /// The recv node.
    pub recv: NodeId,
}

/// One matching decision with its witness, for diagnostics.
#[derive(Debug, Clone)]
pub struct MatchWitness {
    /// The matched edge.
    pub edge: MessageEdge,
    /// A `(sender_rank, receiver_rank)` pair realising the match.
    pub witness: (usize, usize),
    /// `true` if either side's pattern was irregular or unresolvable.
    pub irregular: bool,
}

/// Result of Phase II.
#[derive(Debug, Clone)]
pub struct Matching {
    /// All message edges found.
    pub edges: Vec<MessageEdge>,
    /// Witnesses, parallel to `edges`.
    pub witnesses: Vec<MatchWitness>,
    /// Receive nodes with no matching send at all (in a correct SPMD
    /// program this indicates a receive that can never be satisfied at
    /// this `n` — surfaced as a diagnostic).
    pub unmatched_recvs: Vec<NodeId>,
}

impl Matching {
    /// Message edges leaving `send`.
    pub fn sends_of(&self, send: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.send == send)
            .map(|e| e.recv)
            .collect()
    }

    /// Message edges entering `recv`.
    pub fn matches_of(&self, recv: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.recv == recv)
            .map(|e| e.send)
            .collect()
    }
}

/// Where a send's destination (or a receive's source) points when the
/// node executes at one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    /// The node does not execute at this rank, or the expression
    /// resolves outside `0..n`.
    None,
    /// Irregular or unresolvable: any rank.
    Any,
    /// Exactly this rank.
    Exactly(u8),
}

impl Peer {
    /// Whether this side can be talking to `rank`.
    fn admits(self, rank: usize) -> bool {
        match self {
            Peer::None => false,
            Peer::Any => true,
            Peer::Exactly(v) => usize::from(v) == rank,
        }
    }
}

/// One side of Algorithm 3.1 — every send node or every recv node, in
/// program order — with its peer expression resolved once per rank.
struct Side {
    nodes: Vec<NodeId>,
    /// `peers[rank * nodes.len() + k]`: the peer of `nodes[k]` at `rank`.
    peers: Vec<Peer>,
    /// `reach[rank]`: every rank some node of this side, executed at
    /// `rank`, can be talking to.
    reach: Vec<RankSet>,
}

impl Side {
    /// Resolves `peer_of(node)` at every rank in the node's attribute
    /// (`None` as the expression means "from any").
    fn resolve<'c>(
        nodes: Vec<NodeId>,
        attrs: &NodeAttrs,
        iddep: &IdDepInfo,
        peer_of: impl Fn(NodeId) -> Option<&'c Expr>,
    ) -> Side {
        let n = attrs.nprocs();
        let mut peers = vec![Peer::None; n * nodes.len()];
        let mut reach = vec![RankSet::empty(n); n];
        for (k, &node) in nodes.iter().enumerate() {
            let expr = peer_of(node);
            for rank in attrs.of(node).iter() {
                let peer = match expr {
                    None => Peer::Any,
                    Some(e) => {
                        let env = RankEnv {
                            rank: rank as i64,
                            nprocs: n as i64,
                            params: &iddep.params,
                            var_exprs: iddep.env_at(node),
                        };
                        match rank_eval(e, &env) {
                            RankVal::Known(v) if v >= 0 && (v as usize) < n => {
                                Peer::Exactly(v as u8)
                            }
                            RankVal::Known(_) => Peer::None,
                            RankVal::Unknown | RankVal::Irregular => Peer::Any,
                        }
                    }
                };
                match peer {
                    Peer::None => {}
                    Peer::Any => reach[rank] = RankSet::full(n),
                    Peer::Exactly(v) => reach[rank].insert(usize::from(v)),
                }
                peers[rank * nodes.len() + k] = peer;
            }
        }
        Side {
            nodes,
            peers,
            reach,
        }
    }

    /// The peers of every node at `rank`, parallel to `nodes`.
    fn at(&self, rank: usize) -> &[Peer] {
        let len = self.nodes.len();
        &self.peers[rank * len..(rank + 1) * len]
    }

    /// The nodes executable at `rank` that can be talking to `peer`, in
    /// program order, each with whether it names `peer` exactly.
    fn channel(&self, rank: usize, peer: usize) -> Vec<(usize, bool)> {
        self.at(rank)
            .iter()
            .enumerate()
            .filter(|&(_, p)| p.admits(peer))
            .map(|(k, &p)| (k, p != Peer::Any))
            .collect()
    }
}

/// The send and recv sides of `cfg`. Scan reachable nodes (DFS from
/// entry, as the algorithm prescribes), but order each side by
/// *statement* id — i.e. source order. CFG depth-first preorder dives
/// through one branch arm into everything after the join before visiting
/// the sibling arm, which is not the order in which a process executes
/// statements; FIFO pairing must follow program order.
fn sides(cfg: &Cfg, attrs: &NodeAttrs, iddep: &IdDepInfo) -> (Side, Side) {
    let order = dfs(cfg).preorder;
    let in_program_order = |keep: fn(&NodeKind) -> bool| {
        let mut v: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&id| keep(&cfg.node(id).kind))
            .collect();
        v.sort_by_key(|&id| cfg.node(id).stmt.expect("comm nodes carry stmt ids"));
        v
    };
    let sends = in_program_order(|k| matches!(k, NodeKind::Send { .. }));
    let recvs = in_program_order(|k| matches!(k, NodeKind::Recv { .. }));
    let sends = Side::resolve(sends, attrs, iddep, |s| match &cfg.node(s).kind {
        NodeKind::Send { dest, .. } => Some(dest),
        _ => unreachable!(),
    });
    let recvs = Side::resolve(recvs, attrs, iddep, |r| match &cfg.node(r).kind {
        NodeKind::Recv {
            src: RecvSrc::Rank(e),
        } => Some(e),
        NodeKind::Recv { src: RecvSrc::Any } => None,
        _ => unreachable!(),
    });
    (sends, recvs)
}

/// Runs Algorithm 3.1 on a CFG with precomputed attributes.
///
/// Every send's destination and every receive's source is evaluated once
/// per rank in its attribute — `O(n·(S+R))` rank evaluations for `S`
/// sends and `R` receives — and the pairing works on that table alone.
pub fn match_send_recv(
    cfg: &Cfg,
    attrs: &NodeAttrs,
    iddep: &IdDepInfo,
    mode: MatchingMode,
) -> Matching {
    let (sends, recvs) = sides(cfg, attrs, iddep);
    if mode == MatchingMode::FifoOrdered {
        return match_fifo_ordered(&sends, &recvs);
    }
    let n = attrs.nprocs();
    let mut edges = Vec::new();
    let mut witnesses = Vec::new();
    let mut unmatched_recvs = Vec::new();
    let mut send_matched = vec![false; sends.nodes.len()];
    let send_irregular: Vec<bool> = sends
        .nodes
        .iter()
        .map(|&s| match &cfg.node(s).kind {
            NodeKind::Send { dest, .. } => dest.mentions_input(),
            _ => unreachable!(),
        })
        .collect();

    for (kr, &r) in recvs.nodes.iter().enumerate() {
        let NodeKind::Recv { src } = &cfg.node(r).kind else {
            unreachable!()
        };
        let recv_irregular = src.is_irregular();
        // The receiver ranks whose source admits each sender rank `p`:
        // `from_any` for every `p`, plus `from[p]` for `p` alone.
        let mut from_any = RankSet::empty(n);
        let mut from = vec![RankSet::empty(n); n];
        for q in 0..n {
            match recvs.at(q)[kr] {
                Peer::None => {}
                Peer::Any => from_any.insert(q),
                Peer::Exactly(p) => from[usize::from(p)].insert(q),
            }
        }
        // Candidate evaluation for every send: the lexicographically
        // first `(p, q)`, `p ≠ q`, on which the attributes agree.
        let mut candidates: Vec<(usize, (usize, usize), bool)> = Vec::new();
        for (ks, &send_irregular) in send_irregular.iter().enumerate() {
            let found = (0..n).find_map(|p| {
                let accept = from_any.union(&from[p]);
                let q = match sends.at(p)[ks] {
                    Peer::None => None,
                    Peer::Exactly(q) => {
                        Some(usize::from(q)).filter(|&q| q != p && accept.contains(q))
                    }
                    Peer::Any => accept.iter().find(|&q| q != p),
                };
                q.map(|q| (p, q))
            });
            if let Some(w) = found {
                candidates.push((ks, w, recv_irregular || send_irregular));
            }
        }
        if candidates.is_empty() {
            unmatched_recvs.push(r);
            continue;
        }
        let chosen = match mode {
            MatchingMode::Conservative => candidates,
            MatchingMode::PreferUnmatched => {
                if recv_irregular {
                    // Irregular receives match all candidates (step 3,
                    // first bullet).
                    candidates
                } else {
                    let unmatched: Vec<_> = candidates
                        .iter()
                        .filter(|&&(ks, _, irr)| irr || !send_matched[ks])
                        .cloned()
                        .collect();
                    if unmatched.is_empty() {
                        // Fall back to everything so Lemma 3.1 holds.
                        candidates
                    } else {
                        unmatched
                    }
                }
            }
            MatchingMode::FifoOrdered => {
                unreachable!("handled by match_fifo_ordered")
            }
        };
        for (ks, witness, irregular) in chosen {
            send_matched[ks] = true;
            let edge = MessageEdge {
                send: sends.nodes[ks],
                recv: r,
            };
            edges.push(edge);
            witnesses.push(MatchWitness {
                edge,
                witness,
                irregular,
            });
        }
    }
    Matching {
        edges,
        witnesses,
        unmatched_recvs,
    }
}

/// Per-channel FIFO sequence matching (see [`MatchingMode::FifoOrdered`]).
///
/// Channels are visited in `(p, q)` order, but only those on which some
/// send at `p` can target `q` and some receive at `q` can name `p`; the
/// rest are skipped by a bit test.
fn match_fifo_ordered(sends: &Side, recvs: &Side) -> Matching {
    let n = sends.reach.len();
    let mut edges: Vec<MessageEdge> = Vec::new();
    let mut witnesses: Vec<MatchWitness> = Vec::new();
    let mut seen = vec![false; sends.nodes.len() * recvs.nodes.len()];
    let mut matched = vec![false; recvs.nodes.len()];
    let mut push = |ks: usize, kr: usize, p: usize, q: usize, irregular: bool| {
        let slot = &mut seen[ks * recvs.nodes.len() + kr];
        if !*slot {
            *slot = true;
            matched[kr] = true;
            let edge = MessageEdge {
                send: sends.nodes[ks],
                recv: recvs.nodes[kr],
            };
            edges.push(edge);
            witnesses.push(MatchWitness {
                edge,
                witness: (p, q),
                irregular,
            });
        }
    };

    for p in 0..n {
        for q in sends.reach[p].iter() {
            if q == p || !recvs.reach[q].contains(p) {
                continue;
            }
            // The channel's send statements at sender rank p and receive
            // statements at receiver rank q, with whether each names its
            // peer exactly.
            let chan_sends = sends.channel(p, q);
            let chan_recvs = recvs.channel(q, p);
            let all_exact =
                chan_sends.iter().all(|&(_, e)| e) && chan_recvs.iter().all(|&(_, e)| e);
            if all_exact && chan_sends.len() == chan_recvs.len() {
                // FIFO positional pairing.
                for (&(ks, _), &(kr, _)) in chan_sends.iter().zip(&chan_recvs) {
                    push(ks, kr, p, q, false);
                }
            } else {
                // Irregular membership or count mismatch: all pairs
                // (Lemma 3.1 fallback).
                for &(ks, se) in &chan_sends {
                    for &(kr, re) in &chan_recvs {
                        push(ks, kr, p, q, !(se && re));
                    }
                }
            }
        }
    }
    let unmatched_recvs = recvs
        .nodes
        .iter()
        .zip(&matched)
        .filter(|&(_, &m)| !m)
        .map(|(&r, _)| r)
        .collect();
    Matching {
        edges,
        witnesses,
        unmatched_recvs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::compute_attrs;
    use crate::iddep::analyze_iddep;
    use acfc_cfg::build_cfg;
    use acfc_mpsl::parse;

    fn matched(src: &str, n: usize, mode: MatchingMode) -> (acfc_cfg::Cfg, Matching) {
        let p = parse(src).unwrap();
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, n, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, mode);
        (cfg, m)
    }

    #[test]
    fn simple_pair_matches() {
        let (cfg, m) = matched(
            "program t;
             if rank == 0 { send to 1; } else { recv from 0; }",
            2,
            MatchingMode::Conservative,
        );
        assert_eq!(m.edges.len(), 1);
        assert_eq!(m.edges[0].send, cfg.send_nodes()[0]);
        assert_eq!(m.edges[0].recv, cfg.recv_nodes()[0]);
        assert_eq!(m.witnesses[0].witness, (0, 1));
        assert!(m.unmatched_recvs.is_empty());
    }

    #[test]
    fn contradicting_parameters_do_not_match() {
        // The recv names source 2, but the send targets rank 1.
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to 1; } else { recv from 2; }",
            4,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
        assert_eq!(m.unmatched_recvs.len(), 1);
    }

    #[test]
    fn self_messages_never_match() {
        // dest == source rank for every rank: p == q always.
        let (_, m) = matched(
            "program t; send to rank; recv from rank;",
            4,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
    }

    #[test]
    fn jacobi_ring_matches_neighbours() {
        // Uniform Jacobi: sends to both neighbours, recvs from both.
        let (cfg, m) = matched(
            "program t; var i;
             for i in 0..3 {
               send to (rank + 1) % nprocs;
               send to (rank - 1) % nprocs;
               recv from (rank - 1) % nprocs;
               recv from (rank + 1) % nprocs;
             }",
            4,
            MatchingMode::Conservative,
        );
        // Each recv matches exactly the one compatible send.
        assert_eq!(m.edges.len(), 2, "{:?}", m.edges);
        let sends = cfg.send_nodes();
        let recvs = cfg.recv_nodes();
        // send-to-right matches recv-from-left and vice versa.
        assert!(m.edges.contains(&MessageEdge {
            send: sends[0],
            recv: recvs[0]
        }));
        assert!(m.edges.contains(&MessageEdge {
            send: sends[1],
            recv: recvs[1]
        }));
    }

    #[test]
    fn recv_any_matches_all_sends() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { recv from any; recv from any; } else { send to 0; }",
            3,
            MatchingMode::Conservative,
        );
        // Both `recv from any` match the one send node.
        assert_eq!(m.edges.len(), 2);
        assert!(m.witnesses.iter().all(|w| w.irregular));
    }

    #[test]
    fn irregular_send_matches_conservatively() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to 1 + input(0); } else { recv from 0; }",
            4,
            MatchingMode::Conservative,
        );
        assert_eq!(m.edges.len(), 1);
        assert!(m.witnesses[0].irregular);
    }

    #[test]
    fn prefer_unmatched_limits_regular_fanout() {
        // Two identical regular sends, two identical regular recvs.
        let src = "program t;
             if rank == 0 { send to 1; send to 1; } else {
               if rank == 1 { recv from 0; recv from 0; } }";
        let (_, conservative) = matched(src, 2, MatchingMode::Conservative);
        let (_, prefer) = matched(src, 2, MatchingMode::PreferUnmatched);
        // Conservative: all 4 pairs. PreferUnmatched: first recv takes
        // both unmatched sends? No: it matches all unmatched candidates
        // (2), then the second recv falls back to matched ones (2).
        assert_eq!(conservative.edges.len(), 4);
        assert!(prefer.edges.len() <= conservative.edges.len());
        // Lemma 3.1: every recv retains at least one match.
        assert!(prefer.unmatched_recvs.is_empty());
    }

    #[test]
    fn fig4_odd_even_jacobi_cross_matches() {
        // Figure 4: even sends match odd recvs and vice versa (plus
        // even-even / odd-odd neighbour pairs where they exist at n=4:
        // with ring neighbours, parity alternates, so matches are
        // strictly cross-parity).
        let p = acfc_mpsl::programs::jacobi_odd_even(2);
        let (cfg, lowered) = build_cfg(&p);
        let iddep = analyze_iddep(&cfg, &lowered);
        let attrs = compute_attrs(&cfg, 4, &iddep);
        let m = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::Conservative);
        assert!(!m.edges.is_empty());
        assert!(m.unmatched_recvs.is_empty());
        // Every edge crosses the parity branch: the send and recv are in
        // different arms of the odd/even if.
        for e in &m.edges {
            let s_even = attrs.of(e.send).contains(0);
            let r_even = attrs.of(e.recv).contains(0);
            assert_ne!(s_even, r_even, "edge {:?} does not cross parity arms", e);
        }
    }

    #[test]
    fn out_of_range_destination_never_matches() {
        let (_, m) = matched(
            "program t;
             if rank == 0 { send to nprocs + 5; } else { recv from 0; }",
            3,
            MatchingMode::Conservative,
        );
        assert!(m.edges.is_empty());
    }
}
