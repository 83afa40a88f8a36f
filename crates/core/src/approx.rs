//! The ultra-fast approximate tier: provably 2×-bounded covers, each
//! with a lower-bound certificate.
//!
//! Two algorithms, both linear-ish and both carrying a *certificate*:
//!
//! * **Round-compressed maximal matching** (cardinality mode, after
//!   the round-based matchings of arXiv 1709.04599): synchronous
//!   handshake rounds — every unmatched vertex picks its minimum-id
//!   unmatched neighbor, mutual picks match — whose per-round scans
//!   run through the [`ParallelExecutor`] seam as flat passes. The
//!   globally minimal unmatched vertex with an unmatched neighbor
//!   always handshakes, so every round matches at least one edge; once
//!   fewer than [`COMPRESS_BELOW`] vertices stay active, the tail
//!   rounds are *compressed* into one serial greedy sweep (the
//!   low-degree endgame where synchronous scans stop paying). Both
//!   endpoints of the resulting maximal matching form a cover within
//!   2× of the optimum, and the matching size is the matching lower
//!   bound. A final prune drops endpoints whose edges are already
//!   covered — validity and the 2× band survive, the seed only
//!   improves.
//! * **Primal-dual weighted cover** (Bar-Yehuda–Even, arXiv
//!   cs/0205037): [`parvc_graph::matching::primal_dual_cover`] — tight
//!   vertices cover at weight `≤ 2·dual`, and the dual is a lower
//!   bound on *every* cover, strictly dominating
//!   [`min_weight_matching_bound`](parvc_graph::matching::min_weight_matching_bound)
//!   whenever an edge can raise its dual past the cheaper endpoint of
//!   a matched neighbor.
//!
//! ## Executor invariance
//!
//! The matching passes obey the seam's chunking-invariance contract:
//! pick slots are written once per vertex from the *previous* round's
//! matched state (a pure function, so any chunking writes the same
//! values), handshake flags are symmetric single-slot writes, and the
//! active count is an associative sum of per-chunk subtotals. Cycle
//! charges ([`Activity::ApproxMatching`]) are computed from instance
//! quantities only — a pooled run bit-matches a serial run's cover,
//! round count, and counters, and both bit-match the serial reference
//! [`parvc_graph::matching::handshake_matching`].
//!
//! ## Where it plugs in
//!
//! The tier answers on its own: `parvc approx`, the server's
//! `SOLVE --approx` and its load-shedding path. It does not seed the
//! exact engine, which starts from the greedy sweep (§II-B) at launch
//! and in every split component. The weighted split path takes
//! `max(matching, dual)` as its per-component lower bound via
//! [`parvc_prep::weighted_lower_bound`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parvc_graph::{matching, CsrGraph, VertexId};
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::exec::ParallelExecutor;

/// Active-vertex threshold below which the remaining handshake rounds
/// collapse into one serial greedy sweep. Matches the serial reference
/// so executor and reference runs stay bit-identical.
pub const COMPRESS_BELOW: usize = 64;

/// "No pick" sentinel in the handshake pick array.
const NIL: u32 = u32::MAX;

/// An approximate cover plus its quality certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxCover {
    /// Cover vertices, ascending.
    pub cover: Vec<VertexId>,
    /// Cover cost in the instance's objective: cardinality for
    /// unweighted graphs, total weight for weighted ones.
    pub cost: u64,
    /// The certificate: a valid lower bound on the optimum (matching
    /// size / primal-dual value). Always `cost ≤ 2 × lower_bound`.
    pub lower_bound: u64,
    /// Handshake rounds executed (1 for the weighted primal-dual
    /// pass).
    pub rounds: u32,
    /// Whether the matching tail was compressed into a serial sweep.
    pub compressed: bool,
}

/// The approximate tier's entry point: the 2×-bounded cover for `g`
/// under either objective. Unweighted instances run the
/// round-compressed matching on `exec`; weighted ones run the serial
/// primal-dual pass (already `O(|V| + |E|)` — there is nothing to
/// parallelize past the edge scan's dependency chain).
pub fn approx_cover(
    g: &CsrGraph,
    weighted: bool,
    exec: &dyn ParallelExecutor,
    counters: &mut BlockCounters,
) -> ApproxCover {
    if weighted {
        weighted_approx_cover(g, counters)
    } else {
        matching_cover_exec(g, exec, counters)
    }
}

/// The primal-dual weighted 2-approximation, repackaged as an
/// [`ApproxCover`]: `cost ≤ 2 × dual ≤ 2 × OPT`, and the dual is
/// itself a valid lower bound. Charged to
/// [`Activity::ApproxMatching`] as one pass over the edges.
pub fn weighted_approx_cover(g: &CsrGraph, counters: &mut BlockCounters) -> ApproxCover {
    let pd = matching::primal_dual_cover(g);
    counters.charge(
        Activity::ApproxMatching,
        u64::from(g.num_vertices()) + g.num_edges(),
    );
    ApproxCover {
        cover: pd.cover,
        cost: pd.weight,
        lower_bound: pd.dual,
        rounds: 1,
        compressed: false,
    }
}

/// Round-compressed maximal-matching 2-approximation with the
/// per-round scans dispatched on `exec`.
///
/// Bit-matches [`matching::handshake_matching`] with
/// [`COMPRESS_BELOW`] under any executor: same matching, same round
/// count — the conformance tests cross-check all three (serial
/// reference, serial executor, pooled executor). The returned cover is
/// the matching's endpoint set after a deterministic redundancy prune;
/// `lower_bound` is the matching size.
pub fn matching_cover_exec(
    g: &CsrGraph,
    exec: &dyn ParallelExecutor,
    counters: &mut BlockCounters,
) -> ApproxCover {
    let n = g.num_vertices() as usize;
    let matched: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let pick: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NIL)).collect();
    let mut matching: Vec<(VertexId, VertexId)> = Vec::new();
    let mut rounds = 0u32;
    let mut compressed = false;
    loop {
        // Active = unmatched vertices with an unmatched neighbor; an
        // associative per-chunk sum, so executor-invariant.
        let active_total = AtomicU64::new(0);
        let matched_ro: &[AtomicBool] = &matched;
        exec.dispatch(n, &|_, start, end| {
            let mut local = 0u64;
            for v in start as u32..end as u32 {
                if !matched_ro[v as usize].load(Ordering::Relaxed)
                    && g.neighbors(v)
                        .iter()
                        .any(|&u| !matched_ro[u as usize].load(Ordering::Relaxed))
                {
                    local += 1;
                }
            }
            active_total.fetch_add(local, Ordering::Relaxed);
        });
        counters.charge(Activity::ApproxMatching, n as u64);
        let active = active_total.load(Ordering::Relaxed) as usize;
        if active == 0 {
            break;
        }
        rounds += 1;
        if active < COMPRESS_BELOW {
            // Round compression: one serial greedy sweep finishes the
            // low-degree tail (identical to the serial reference).
            for u in 0..n as u32 {
                if matched[u as usize].load(Ordering::Relaxed) {
                    continue;
                }
                let free = g
                    .neighbors(u)
                    .iter()
                    .find(|&&v| !matched[v as usize].load(Ordering::Relaxed));
                if let Some(&v) = free {
                    matched[u as usize].store(true, Ordering::Relaxed);
                    matched[v as usize].store(true, Ordering::Relaxed);
                    matching.push((u, v));
                }
            }
            counters.charge(Activity::ApproxMatching, active as u64);
            compressed = true;
            break;
        }
        // Pass 1: every unmatched vertex picks its minimum-id
        // unmatched neighbor. Each slot is written exactly once, from
        // the previous round's matched state only.
        exec.dispatch(n, &|_, start, end| {
            for v in start as u32..end as u32 {
                let p = if matched_ro[v as usize].load(Ordering::Relaxed) {
                    NIL
                } else {
                    g.neighbors(v)
                        .iter()
                        .copied()
                        .find(|&u| !matched_ro[u as usize].load(Ordering::Relaxed))
                        .unwrap_or(NIL)
                };
                pick[v as usize].store(p, Ordering::Relaxed);
            }
        });
        counters.charge(Activity::ApproxMatching, n as u64);
        // Pass 2: mutual picks match. The handshake predicate is
        // symmetric and reads only `pick`, so each vertex flags itself.
        let pick_ro: &[AtomicU32] = &pick;
        exec.dispatch(n, &|_, start, end| {
            for v in start as u32..end as u32 {
                let u = pick_ro[v as usize].load(Ordering::Relaxed);
                if u != NIL && pick_ro[u as usize].load(Ordering::Relaxed) == v {
                    matched_ro[v as usize].store(true, Ordering::Relaxed);
                }
            }
        });
        counters.charge(Activity::ApproxMatching, n as u64);
        // Collect this round's pairs in ascending-v order (serial —
        // the pairs are already determined).
        for v in 0..n as u32 {
            let u = pick[v as usize].load(Ordering::Relaxed);
            if u != NIL && v < u && pick[u as usize].load(Ordering::Relaxed) == v {
                matching.push((v, u));
            }
        }
    }
    let lower_bound = matching.len() as u64;
    // Endpoint cover, then the deterministic redundancy prune: drop a
    // cover vertex when all its neighbors are covered (ascending id —
    // at most one endpoint per matched edge can fall).
    let mut in_cover = vec![false; n];
    for &(u, v) in &matching {
        in_cover[u as usize] = true;
        in_cover[v as usize] = true;
    }
    for v in 0..n as u32 {
        if in_cover[v as usize] && g.neighbors(v).iter().all(|&u| in_cover[u as usize]) {
            in_cover[v as usize] = false;
        }
    }
    let cover: Vec<VertexId> = (0..n as u32).filter(|&v| in_cover[v as usize]).collect();
    ApproxCover {
        cost: cover.len() as u64,
        cover,
        lower_bound,
        rounds,
        compressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;
    use parvc_simgpu::exec::{ExecutorSpec, SERIAL};

    #[test]
    fn matching_cover_bit_matches_the_serial_reference() {
        let pooled = ExecutorSpec::Pooled { threads: Some(3) }.build();
        for seed in 0..6 {
            let g = gen::gnp(80, 0.08, seed);
            let reference = matching::handshake_matching(&g, COMPRESS_BELOW);
            for exec in [&SERIAL as &dyn ParallelExecutor, &*pooled] {
                let mut c = BlockCounters::new(0);
                let got = matching_cover_exec(&g, exec, &mut c);
                assert_eq!(got.rounds, reference.rounds, "seed {seed}");
                assert_eq!(got.compressed, reference.compressed, "seed {seed}");
                assert_eq!(
                    got.lower_bound,
                    reference.matching.len() as u64,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn matching_cover_is_valid_and_two_approx() {
        for seed in 0..8 {
            let g = gen::gnp(16, 0.25, seed);
            let mut c = BlockCounters::new(0);
            let a = matching_cover_exec(&g, &SERIAL, &mut c);
            assert!(is_vertex_cover(&g, &a.cover), "seed {seed}");
            let (opt, _) = brute_force_mvc(&g);
            assert!(a.cost <= 2 * u64::from(opt), "seed {seed}");
            assert!(a.lower_bound <= u64::from(opt), "seed {seed}");
            assert!(a.cost <= 2 * a.lower_bound, "seed {seed}");
        }
    }

    #[test]
    fn matching_cover_prune_recovers_the_star_optimum() {
        // Matching (0,1) covers {0,1}; the leaf endpoint is redundant
        // once the hub is in — the prune must find the optimum {0}.
        let g = gen::star(8);
        let mut c = BlockCounters::new(0);
        let a = matching_cover_exec(&g, &SERIAL, &mut c);
        assert_eq!(a.cover, vec![0]);
        assert_eq!(a.cost, 1);
        assert_eq!(a.lower_bound, 1);
    }

    #[test]
    fn weighted_cover_carries_the_dual_certificate() {
        for seed in 0..6 {
            let g = gen::with_uniform_weights(gen::gnp(14, 0.3, seed), 8, seed ^ 0x7e);
            let mut c = BlockCounters::new(0);
            let a = weighted_approx_cover(&g, &mut c);
            assert!(is_vertex_cover(&g, &a.cover), "seed {seed}");
            assert_eq!(a.cost, g.cover_weight(&a.cover), "seed {seed}");
            assert!(a.cost <= 2 * a.lower_bound, "seed {seed}");
            let (opt, _) = crate::brute::weighted_brute_force(&g);
            assert!(a.lower_bound <= opt, "seed {seed}: dual exceeds optimum");
            assert!(a.cost <= 2 * opt, "seed {seed}: 2x band broken");
        }
    }

    #[test]
    fn approx_cover_dispatches_on_mode() {
        let g = gen::with_uniform_weights(gen::gnp(20, 0.2, 3), 6, 9);
        let mut c = BlockCounters::new(0);
        let w = approx_cover(&g, true, &SERIAL, &mut c);
        let u = approx_cover(&g, false, &SERIAL, &mut c);
        assert_eq!(w.rounds, 1, "weighted mode is the one-pass primal-dual");
        assert_eq!(
            u.cost,
            u.cover.len() as u64,
            "unweighted cost is cardinality"
        );
        assert!(is_vertex_cover(&g, &w.cover));
        assert!(is_vertex_cover(&g, &u.cover));
    }

    #[test]
    fn edgeless_graphs_yield_empty_covers() {
        let g = parvc_graph::CsrGraph::from_edges(9, &[]).unwrap();
        let mut c = BlockCounters::new(0);
        let a = matching_cover_exec(&g, &SERIAL, &mut c);
        assert_eq!(a.cover, Vec::<u32>::new());
        assert_eq!((a.cost, a.lower_bound, a.rounds), (0, 0, 0));
    }
}
