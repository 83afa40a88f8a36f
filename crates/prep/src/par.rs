//! Hopcroft–Karp on the implicit double cover: prep's one maximum
//! matching, behind the crown rule and both LP bounds.
//!
//! The *double cover* of a graph has a left copy `Lv` and a right copy
//! `Rv` of each vertex `v`; each edge `uv` becomes `Lu–Rv` and `Lv–Ru`.
//! Nothing here builds it. Both copies of `v` are indexed by `v`, the
//! right neighbors of `Lu` are the live CSR neighbors of `u`, and a
//! liveness predicate restricts the graph to the residual instance
//! (the crown rule) or admits every vertex (the LP bounds). A matching
//! is two mate arrays, one per side.
//!
//! * **Warm start** — a greedy maximal matching, so the phases only
//!   repair what greedy missed.
//! * **Layer pass** — expand the current left frontier: every edge
//!   `(u, v)` whose right endpoint is matched claims the partner
//!   `mate_r[v]` for layer `d + 1`. A frontier that fits one executor
//!   chunk is expanded on the calling thread and the next frontier is
//!   built from that layer's claims, so a phase stays `O(|V| + |E|)`.
//!   A larger frontier is dispatched through the [`ParallelExecutor`]:
//!   claims race benignly with a compare-exchange (every winner writes
//!   the same layer number), and [`gather_indices`] compacts the
//!   claimed vertices into the next frontier in ascending id. The
//!   distance array is identical either way.
//! * **Augment phase** — serial, like the textbook algorithm: one
//!   iterative DFS per free left vertex, in ascending id, along
//!   strictly layer-increasing alternating paths.
//!
//! **Why any maximum matching gives the same kernel.** `konig_copies`
//! reads a minimum vertex cover of the double cover off the matching
//! (Kőnig): with `Z` the vertices reachable from free left vertices by
//! alternating paths, the cover is `(L ∖ Z) ∪ (R ∩ Z)`. `Z ∩ L` is
//! exactly the set of left vertices that *some* maximum matching
//! leaves free, and `Z ∩ R = N(Z ∩ L)` — the Dulmage–Mendelsohn
//! decomposition — so every maximum matching yields the same cover:
//! cold or warm start, any executor, any chunking. The LP bounds read
//! only the matching's size, which is unique anyway.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use parvc_graph::{CsrGraph, VertexId};
use parvc_simgpu::exec::{gather_indices, ChunkSlots, ParallelExecutor};

/// "Unmatched" sentinel in the mate arrays and "unreached" sentinel in
/// the distance array.
const NIL: u32 = u32::MAX;

/// [`crate::lp_lower_bound`] with the Hopcroft–Karp layer passes
/// dispatched on `exec`.
///
/// Returns exactly the serial bound for every executor: the bound is
/// `ceil(|M| / 2)` for a maximum matching `M` of the double cover, and
/// maximum-matching size is unique regardless of which maximum
/// matching a schedule happens to find.
pub fn lp_lower_bound_exec(g: &CsrGraph, exec: &dyn ParallelExecutor) -> u64 {
    if g.num_edges() == 0 {
        return 0;
    }
    let all = |_| true;
    (max_matching(g, &all, exec, Matching::greedy(g, &all)).size as u64).div_ceil(2)
}

/// A matching of the double cover of a graph's live part.
pub(crate) struct Matching {
    /// `mate_l[u]`: the right copy `Lu` is matched to, or [`NIL`].
    mate_l: Vec<u32>,
    /// `mate_r[v]`: the left copy `Rv` is matched to, or [`NIL`].
    mate_r: Vec<u32>,
    /// Matched edges.
    size: usize,
}

impl Matching {
    /// The empty matching on `n` vertices.
    pub(crate) fn empty(n: usize) -> Self {
        Matching {
            mate_l: vec![NIL; n],
            mate_r: vec![NIL; n],
            size: 0,
        }
    }

    /// A greedy maximal matching — the warm start: each live left
    /// vertex, in ascending id, takes its first free live right
    /// neighbor.
    pub(crate) fn greedy<L>(g: &CsrGraph, live: &L) -> Self
    where
        L: Fn(VertexId) -> bool,
    {
        let mut m = Matching::empty(g.num_vertices() as usize);
        for u in g.vertices().filter(|&u| live(u)) {
            if let Some(&v) = g
                .neighbors(u)
                .iter()
                .find(|&&v| m.mate_r[v as usize] == NIL && live(v))
            {
                m.mate_l[u as usize] = v;
                m.mate_r[v as usize] = u;
                m.size += 1;
            }
        }
        m
    }
}

/// Grows `m` into a maximum matching of the double cover of `g`
/// restricted to the vertices `live` admits, by Hopcroft–Karp with the
/// layer passes on `exec` (see the module docs). `m` must be a
/// matching of that live double cover: [`Matching::greedy`] is the
/// warm start, [`Matching::empty`] a cold one.
pub(crate) fn max_matching<L>(
    g: &CsrGraph,
    live: &L,
    exec: &dyn ParallelExecutor,
    mut m: Matching,
) -> Matching
where
    L: Fn(VertexId) -> bool + Sync,
{
    let n = g.num_vertices() as usize;
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NIL)).collect();
    let mut layers = Layers {
        frontier: Vec::new(),
        next: Vec::new(),
        slots: ChunkSlots::new(),
    };
    let mut stack = Vec::new();
    while layers.run(g, live, exec, &m, &dist) {
        let mut augmented = 0usize;
        for u in 0..n as u32 {
            if m.mate_l[u as usize] == NIL
                && live(u)
                && try_augment(g, live, u, &mut m, &dist, &mut stack)
            {
                augmented += 1;
            }
        }
        if augmented == 0 {
            break;
        }
        m.size += augmented;
    }
    m
}

/// Frontier buffers of the BFS phase, reused across phases.
struct Layers {
    frontier: Vec<u32>,
    next: Vec<u32>,
    slots: ChunkSlots,
}

impl Layers {
    /// One BFS phase: layers the left side from its free vertices into
    /// `dist`, stopping after the first layer that reaches a free right
    /// vertex. Returns whether one was reached (an augmenting path
    /// exists).
    fn run<L>(
        &mut self,
        g: &CsrGraph,
        live: &L,
        exec: &dyn ParallelExecutor,
        m: &Matching,
        dist: &[AtomicU32],
    ) -> bool
    where
        L: Fn(VertexId) -> bool + Sync,
    {
        for d in dist {
            d.store(NIL, Ordering::Relaxed);
        }
        let (mate_l, mate_r) = (&m.mate_l, &m.mate_r);
        gather_indices(
            exec,
            dist.len(),
            &|u| mate_l[u as usize] == NIL && live(u),
            &mut self.slots,
            &mut self.frontier,
        );
        for &u in &self.frontier {
            dist[u as usize].store(0, Ordering::Relaxed);
        }
        let mut layer = 0u32;
        while !self.frontier.is_empty() {
            let reached_free = if exec.chunks_for(self.frontier.len()) <= 1 {
                // One chunk: expand inline and collect the claims.
                self.next.clear();
                let mut reached_free = false;
                for &u in &self.frontier {
                    for &v in g.neighbors(u) {
                        if !live(v) {
                            continue;
                        }
                        let w = mate_r[v as usize];
                        if w == NIL {
                            reached_free = true;
                        } else if dist[w as usize].load(Ordering::Relaxed) == NIL {
                            dist[w as usize].store(layer + 1, Ordering::Relaxed);
                            self.next.push(w);
                        }
                    }
                }
                std::mem::swap(&mut self.frontier, &mut self.next);
                reached_free
            } else {
                let reached_free = AtomicBool::new(false);
                let frontier: &[u32] = &self.frontier;
                exec.dispatch(frontier.len(), &|_, start, end| {
                    for &u in &frontier[start..end] {
                        for &v in g.neighbors(u) {
                            if !live(v) {
                                continue;
                            }
                            let w = mate_r[v as usize];
                            if w == NIL {
                                reached_free.store(true, Ordering::Relaxed);
                            } else {
                                // Claim v's partner for the next layer.
                                let _ = dist[w as usize].compare_exchange(
                                    NIL,
                                    layer + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                );
                            }
                        }
                    }
                });
                let reached_free = reached_free.load(Ordering::Relaxed);
                if !reached_free {
                    gather_indices(
                        exec,
                        dist.len(),
                        &|u| dist[u as usize].load(Ordering::Relaxed) == layer + 1,
                        &mut self.slots,
                        &mut self.frontier,
                    );
                }
                reached_free
            };
            if reached_free {
                // Shortest augmenting length found: stop layering.
                return true;
            }
            layer += 1;
        }
        false
    }
}

/// One iterative DFS along strictly layer-increasing alternating paths
/// from the free left vertex `u0`; flips the path's edges on success.
/// Dead ends poison their distance slot so later DFS runs skip them —
/// the standard Hopcroft–Karp phase semantics. `stack` is reused
/// scratch; its frames are `(left vertex, next neighbor index, chosen
/// right vertex)`.
fn try_augment<L>(
    g: &CsrGraph,
    live: &L,
    u0: u32,
    m: &mut Matching,
    dist: &[AtomicU32],
    stack: &mut Vec<(u32, usize, u32)>,
) -> bool
where
    L: Fn(VertexId) -> bool,
{
    stack.clear();
    stack.push((u0, 0, NIL));
    loop {
        let top = stack.len() - 1;
        let u = stack[top].0;
        let nbrs = g.neighbors(u);
        if stack[top].1 < nbrs.len() {
            let v = nbrs[stack[top].1];
            stack[top].1 += 1;
            if !live(v) {
                continue;
            }
            let w = m.mate_r[v as usize];
            if w == NIL {
                // Free right endpoint: flip every frame's chosen edge.
                stack[top].2 = v;
                for &(uu, _, vv) in stack.iter() {
                    m.mate_l[uu as usize] = vv;
                    m.mate_r[vv as usize] = uu;
                }
                return true;
            }
            let du = dist[u as usize].load(Ordering::Relaxed);
            if du != NIL && dist[w as usize].load(Ordering::Relaxed) == du + 1 {
                stack[top].2 = v;
                stack.push((w, 0, NIL));
            }
            continue;
        }
        // Dead end: never retry this vertex within the phase.
        dist[u as usize].store(NIL, Ordering::Relaxed);
        stack.pop();
        if stack.is_empty() {
            return false;
        }
    }
}

/// How many copies of each vertex the Kőnig cover of `m` holds — the
/// optimal half-integral LP value, doubled: 2 (`x_v = 1`), 1 (`½`) or
/// 0 (`x_v = 0`). `m` must be a maximum matching of the same live
/// double cover; vertices `live` rejects read 1.
pub(crate) fn konig_copies<L>(g: &CsrGraph, live: &L, m: &Matching) -> Vec<u8>
where
    L: Fn(VertexId) -> bool,
{
    const LEFT: u8 = 1;
    const RIGHT: u8 = 2;
    let n = g.num_vertices() as usize;
    // Z membership per vertex: LEFT for `Lv ∈ Z`, RIGHT for `Rv ∈ Z`.
    let mut z = vec![0u8; n];
    let mut stack: Vec<u32> = (0..n as u32)
        .filter(|&u| m.mate_l[u as usize] == NIL && live(u))
        .collect();
    for &u in &stack {
        z[u as usize] = LEFT;
    }
    // Left to right over non-matching edges, right to left over the
    // matching edge.
    while let Some(u) = stack.pop() {
        for &v in g.neighbors(u) {
            if v == m.mate_l[u as usize] || z[v as usize] & RIGHT != 0 || !live(v) {
                continue;
            }
            z[v as usize] |= RIGHT;
            let w = m.mate_r[v as usize];
            debug_assert_ne!(w, NIL, "a free right vertex in Z ends an augmenting path");
            if w != NIL && z[w as usize] & LEFT == 0 {
                z[w as usize] |= LEFT;
                stack.push(w);
            }
        }
    }
    // Cover = (L ∖ Z) ∪ (R ∩ Z).
    z.into_iter()
        .map(|b| u8::from(b & LEFT == 0) + u8::from(b & RIGHT != 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;
    use parvc_simgpu::exec::{ExecutorSpec, SERIAL};

    #[test]
    fn exec_bound_matches_serial_on_random_graphs() {
        let pooled = ExecutorSpec::Pooled { threads: Some(3) }.build();
        for seed in 0..12 {
            let g = gen::gnp(40, 0.12, seed);
            let serial = crate::lp_lower_bound(&g);
            assert_eq!(lp_lower_bound_exec(&g, &SERIAL), serial, "seed {seed}");
            assert_eq!(lp_lower_bound_exec(&g, &*pooled), serial, "seed {seed}");
        }
    }

    #[test]
    fn exec_bound_on_known_shapes() {
        let pooled = ExecutorSpec::Pooled { threads: Some(2) }.build();
        // C5: LP optimum 5/2 rounds to 3; C7: 7/2 rounds to 4.
        assert_eq!(lp_lower_bound_exec(&gen::cycle(5), &*pooled), 3);
        assert_eq!(lp_lower_bound_exec(&gen::cycle(7), &*pooled), 4);
        // Edgeless: no matching, no bound.
        let edgeless = CsrGraph::from_edges(5, &[]).unwrap();
        assert_eq!(lp_lower_bound_exec(&edgeless, &*pooled), 0);
        // Complete bipartite K_{3,3}: perfect matching of 3 in each
        // cover direction doubles to 6, bound 3 = the MVC.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        )
        .unwrap();
        assert_eq!(lp_lower_bound_exec(&g, &*pooled), crate::lp_lower_bound(&g));
    }

    /// A greedy matching built from the other end: highest left id
    /// first, each taking its last free right neighbor.
    fn reverse_greedy(g: &CsrGraph, live: &dyn Fn(u32) -> bool) -> Matching {
        let mut m = Matching::empty(g.num_vertices() as usize);
        for u in (0..g.num_vertices()).rev().filter(|&u| live(u)) {
            if let Some(&v) = g
                .neighbors(u)
                .iter()
                .rev()
                .find(|&&v| m.mate_r[v as usize] == NIL && live(v))
            {
                m.mate_l[u as usize] = v;
                m.mate_r[v as usize] = u;
                m.size += 1;
            }
        }
        m
    }

    /// The property the crown rule rests on: different maximum
    /// matchings — a cold start, and warm starts from two different
    /// greedy matchings — give the same Kőnig cover, under full and
    /// partial liveness.
    #[test]
    fn different_maximum_matchings_give_one_konig_cover() {
        let mut differed = 0;
        for seed in 0..12 {
            for g in [
                gen::gnp(40, 0.08, seed),
                gen::barabasi_albert(60, 2, seed),
                gen::power_grid_like(80, 12, seed),
            ] {
                let n = g.num_vertices() as usize;
                let odd = |v: u32| v % 7 != 3;
                for live in [&(|_| true) as &(dyn Fn(u32) -> bool + Sync), &odd] {
                    let cold = max_matching(&g, &live, &SERIAL, Matching::empty(n));
                    let warm = max_matching(&g, &live, &SERIAL, Matching::greedy(&g, &live));
                    let other = max_matching(&g, &live, &SERIAL, reverse_greedy(&g, &live));
                    assert_eq!(cold.size, warm.size, "seed {seed}");
                    assert_eq!(cold.size, other.size, "seed {seed}");
                    differed += usize::from(cold.mate_l != other.mate_l);
                    let cover = konig_copies(&g, &live, &cold);
                    assert_eq!(konig_copies(&g, &live, &warm), cover, "seed {seed}");
                    assert_eq!(konig_copies(&g, &live, &other), cover, "seed {seed}");
                }
            }
        }
        assert!(
            differed > 0,
            "no two matchings differed: the test proves nothing"
        );
    }

    #[test]
    fn frontier_matching_reaches_the_maximum_on_paths_and_stars() {
        // A long path exercises multi-layer BFS phases; the HK answer
        // must be the exact maximum matching size.
        let pooled = ExecutorSpec::Pooled { threads: Some(4) }.build();
        for n in [2u32, 3, 9, 16, 33] {
            let g = gen::path(n);
            assert_eq!(
                lp_lower_bound_exec(&g, &*pooled),
                crate::lp_lower_bound(&g),
                "path({n})"
            );
        }
        assert_eq!(
            lp_lower_bound_exec(&gen::star(12), &*pooled),
            crate::lp_lower_bound(&gen::star(12))
        );
    }
}
