//! Incremental residual connectivity — the connectivity check of
//! in-search component branching (see [`crate::split`]).
//!
//! A search from scratch re-derives the residual's component structure
//! at every candidate node: `O(|V| + |E|)` per check, paid even when
//! the check concludes "still connected" — which is the common case,
//! and exactly the overhead arXiv 2512.18334 identifies as the
//! difference between component-aware branching paying for itself and
//! drowning in bookkeeping.
//!
//! [`Connectivity`] instead *caches* the component labels of the last
//! checked node and updates them incrementally. The engine's traversal
//! has strong locality — after a branch it continues in place with the
//! remove-`vmax` child, so consecutive checks usually see a node whose
//! live set **shrank** from the previous one. The update then is:
//!
//! 1. One scan of the degree array diffs the live sets. Any vertex
//!    that *came back to life* proves the node is not a descendant of
//!    the last-checked one (a stack pop or steal jumped elsewhere in
//!    the tree) — the **checkpoint crossing** — and triggers the
//!    dirty-region fallback: a full label rebuild, counted in
//!    [`SplitCounters::uf_rebuilds`](parvc_simgpu::counters::SplitCounters).
//! 2. Otherwise only vertices *died*. Vertex deletions can only split
//!    the components that contained them, so the re-scan is localized:
//!    the **seeds** — live neighbors of the newly dead vertices — start
//!    a multi-source BFS whose fronts are merged with a union-find
//!    (path compression, `O(α)` amortized per operation).
//! 3. The decisive shortcut: if every affected component's seeds merge
//!    into a single region, the component *provably* did not split —
//!    any two survivors were connected through paths whose dead
//!    detours entered and left the dead set via seeds, and the seeds
//!    are mutually connected — so the scan stops immediately, having
//!    touched only the neighborhoods around the deletions. A deletion
//!    whose dead set has a single live neighbor costs `O(1)` beyond
//!    the diff scan: one seed is trivially "all merged".
//!
//! Only when the seeds remain in ≥ 2 regions after the frontier is
//! exhausted did a component genuinely split, and then the work done
//! equals the work of enumerating the new components — which the
//! caller was about to pay for extraction anyway.
//!
//! Every query returns a component count and per-vertex labels that
//! partition the live vertices exactly as
//! [`parvc_graph::ops::induced_components`] does;
//! `tests/split_safety.rs` pins that at every node of seeded
//! traversals, cardinality and weighted, across the generator corpus.

use parvc_graph::{CsrGraph, VertexId};
use parvc_simgpu::exec::{gather_indices, ChunkSlots, ParallelExecutor};
use std::sync::atomic::{AtomicBool, Ordering};

/// Label of a vertex outside the residual (removed into the cover, or
/// live but isolated — degree ≤ 0 either way).
const DEAD: u32 = u32::MAX;

/// Scratch marker: not visited in the current incremental pass.
const UNSET: u32 = u32::MAX;

/// The incremental connectivity tracker. One instance per traversal
/// driver (thread block or bounded sub-search); it is purely a cache —
/// any node may be queried at any time, and the tracker falls back to
/// a full rebuild whenever its history does not cover the node.
#[derive(Debug)]
pub struct Connectivity {
    /// Component label per vertex as of the last completed check
    /// (`DEAD` = outside the residual). Labels are arbitrary `u32`s,
    /// unique per component, *not* necessarily dense.
    label: Vec<u32>,
    /// Number of components at the last check.
    count: u32,
    /// Next unused label value.
    next_label: u32,
    /// Whether `label`/`count` describe any node at all.
    valid: bool,
    /// Full rebuilds performed (the dirty-region fallback).
    rebuilds: u64,
    /// Scratch: per-vertex region id for the current incremental pass
    /// (`UNSET` = untouched); entries are reset via `touched`.
    region: Vec<u32>,
    /// Scratch: vertices whose `region` entry needs resetting.
    touched: Vec<VertexId>,
    /// Scratch: union-find parents over region ids.
    parent: Vec<u32>,
    /// Scratch: BFS queue.
    queue: Vec<VertexId>,
    /// Scratch: the newly-dead vertices of the current diff scan,
    /// reused across updates.
    dead_buf: Vec<VertexId>,
    /// Scratch: per-chunk gather slots for the pooled diff scan.
    slots: ChunkSlots,
}

impl Connectivity {
    /// A fresh, empty tracker.
    pub fn new() -> Self {
        Connectivity {
            label: Vec::new(),
            count: 0,
            next_label: 0,
            valid: false,
            rebuilds: 0,
            region: Vec::new(),
            touched: Vec::new(),
            parent: Vec::new(),
            queue: Vec::new(),
            dead_buf: Vec::new(),
            slots: ChunkSlots::new(),
        }
    }

    /// Full rebuilds performed so far (drained by the caller into
    /// [`SplitCounters::uf_rebuilds`](parvc_simgpu::counters::SplitCounters)).
    pub fn take_rebuilds(&mut self) -> u64 {
        std::mem::take(&mut self.rebuilds)
    }

    /// Drops the cached labels; the next query rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Updates the tracker to the residual described by `live_degree`
    /// (live = degree ≥ 1 over `graph`'s vertex set) and returns
    /// `(component count, work)`, where `work` is vertex reads plus
    /// adjacency entries traversed (the caller charges it and counts
    /// it in `SplitCounters::check_work`).
    /// `live_degree(v)` must be the tree node's current degree of `v`;
    /// the tracker is generic over the node representation so bounded
    /// sub-searches on extracted component graphs reuse it.
    ///
    /// After the call, [`label`](Self::label) exposes the per-vertex
    /// component labels.
    pub fn update(
        &mut self,
        graph: &CsrGraph,
        live_degree: impl Fn(VertexId) -> i32 + Sync,
        exec: &dyn ParallelExecutor,
    ) -> (u32, u64) {
        let n = graph.num_vertices() as usize;
        let mut work = n as u64; // the diff / classification scan
        if !self.valid || self.label.len() != n {
            work += self.rebuild(graph, &live_degree);
            return (self.count, work);
        }
        // Diff the live sets: a flat classify pass over the degree
        // array (chunked across the executor; `work` is charged as the
        // full scan either way, so the accounting is path-invariant).
        // A resurrection (live now, dead at last check) means this
        // node is not a descendant of the last-checked one: checkpoint
        // crossed, rebuild.
        let resurrected = AtomicBool::new(false);
        let label = &self.label;
        gather_indices(
            exec,
            n,
            &|v| {
                let live = live_degree(v) > 0;
                let was_live = label[v as usize] != DEAD;
                if live && !was_live {
                    resurrected.store(true, Ordering::Relaxed);
                }
                !live && was_live
            },
            &mut self.slots,
            &mut self.dead_buf,
        );
        if resurrected.load(Ordering::Relaxed) {
            work += self.rebuild(graph, &live_degree);
            return (self.count, work);
        }
        if self.dead_buf.is_empty() {
            return (self.count, work);
        }
        let newly_dead = std::mem::take(&mut self.dead_buf);
        work += self.remove(graph, &live_degree, &newly_dead);
        self.dead_buf = newly_dead; // hand the buffer back for reuse
        (self.count, work)
    }

    /// `v`'s component label as of the last [`update`](Self::update),
    /// or `None` when `v` is outside the residual (or the tracker has
    /// never been updated). Labels are unique per component but not
    /// necessarily dense.
    pub fn label(&self, v: VertexId) -> Option<u32> {
        let l = *self.label.get(v as usize)?;
        (l != DEAD).then_some(l)
    }

    /// From-scratch relabeling: BFS per component over the live
    /// residual. Returns the work performed (adjacency entries).
    fn rebuild(&mut self, graph: &CsrGraph, live_degree: &impl Fn(VertexId) -> i32) -> u64 {
        let n = graph.num_vertices() as usize;
        self.rebuilds += 1;
        self.label.clear();
        self.label.resize(n, DEAD);
        self.region.clear();
        self.region.resize(n, UNSET);
        self.touched.clear();
        self.queue.clear();
        let mut work = 0u64;
        let mut count = 0u32;
        for v in 0..n as u32 {
            if live_degree(v) <= 0 || self.label[v as usize] != DEAD {
                continue;
            }
            self.label[v as usize] = count;
            self.queue.push(v);
            while let Some(w) = self.queue.pop() {
                work += graph.neighbors(w).len() as u64;
                for &u in graph.neighbors(w) {
                    if live_degree(u) > 0 && self.label[u as usize] == DEAD {
                        self.label[u as usize] = count;
                        self.queue.push(u);
                    }
                }
            }
            count += 1;
        }
        self.count = count;
        self.next_label = count;
        self.valid = true;
        work
    }

    /// Incremental update for a pure-deletion diff: localized re-scan
    /// of the neighborhoods the deletions touched. Returns the work
    /// performed.
    fn remove(
        &mut self,
        graph: &CsrGraph,
        live_degree: &impl Fn(VertexId) -> i32,
        newly_dead: &[VertexId],
    ) -> u64 {
        let mut work = 0u64;
        // Which components lost vertices, and the seeds (live
        // neighbors of the dead set) that anchor the re-scan. A
        // component is fully dead when it lost vertices but has no
        // seeds. The per-pass component sets are tiny (deletions
        // between checks touch few components), so linear scans beat
        // hashing.
        let mut affected: Vec<u32> = Vec::new();
        let mut comps_with_seeds: Vec<u32> = Vec::new();
        let mut seed_count = 0usize;
        for &v in newly_dead {
            let old = self.label[v as usize];
            debug_assert_ne!(old, DEAD);
            self.label[v as usize] = DEAD;
            if !affected.contains(&old) {
                affected.push(old);
            }
        }
        self.queue.clear();
        for &v in newly_dead {
            work += graph.neighbors(v).len() as u64;
            for &u in graph.neighbors(v) {
                if live_degree(u) > 0 && self.region[u as usize] == UNSET {
                    let c = self.label[u as usize];
                    debug_assert_ne!(c, DEAD, "live vertex without a label");
                    if !comps_with_seeds.contains(&c) {
                        comps_with_seeds.push(c);
                    }
                    let region = self.parent.len() as u32;
                    self.parent.push(region);
                    self.region[u as usize] = region;
                    self.touched.push(u);
                    self.queue.push(u);
                    seed_count += 1;
                }
            }
        }
        let fully_dead = affected
            .iter()
            .filter(|c| !comps_with_seeds.contains(c))
            .count() as u32;
        // `pending` = unions still needed before every affected
        // component's seeds form a single region — the proof that no
        // component split and the scan can stop.
        let mut pending = seed_count - comps_with_seeds.len();
        let mut head = 0usize;
        while pending > 0 && head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let rv = find(&mut self.parent, self.region[v as usize]);
            work += graph.neighbors(v).len() as u64;
            for &u in graph.neighbors(v) {
                if live_degree(u) <= 0 {
                    continue;
                }
                if self.region[u as usize] == UNSET {
                    self.region[u as usize] = rv;
                    self.touched.push(u);
                    self.queue.push(u);
                } else {
                    let ru = find(&mut self.parent, self.region[u as usize]);
                    let rv = find(&mut self.parent, self.region[v as usize]);
                    if ru != rv {
                        self.parent[ru as usize] = rv;
                        pending -= 1;
                        if pending == 0 {
                            break;
                        }
                    }
                }
            }
        }
        if pending == 0 {
            // Early exit: every affected component's survivors are
            // still mutually connected — labels stay as they were.
            self.count -= fully_dead;
        } else {
            // The frontier is exhausted with ≥ 2 regions somewhere: the
            // affected components' survivors are exactly the visited
            // vertices (every survivor reaches a seed through a path
            // whose first dead vertex has a live predecessor), so the
            // final regions ARE the new components. Relabel them.
            debug_assert_eq!(head, self.queue.len());
            let mut fresh: Vec<(u32, u32)> = Vec::new(); // root → new label
            for i in 0..self.touched.len() {
                let v = self.touched[i];
                let root = find(&mut self.parent, self.region[v as usize]);
                let new = match fresh.iter().find(|(r, _)| *r == root) {
                    Some(&(_, l)) => l,
                    None => {
                        let l = self.next_label;
                        self.next_label += 1;
                        fresh.push((root, l));
                        l
                    }
                };
                self.label[v as usize] = new;
            }
            self.count = self.count - affected.len() as u32 + fresh.len() as u32;
            // Label space is effectively inexhaustible (one label per
            // new region), but fall back to dense labels defensively.
            if self.next_label >= DEAD - 1 {
                self.valid = false;
            }
        }
        // Reset the scratch for the next pass.
        for &v in &self.touched {
            self.region[v as usize] = UNSET;
        }
        self.touched.clear();
        self.queue.clear();
        self.parent.clear();
        work
    }
}

impl Default for Connectivity {
    fn default() -> Self {
        Self::new()
    }
}

/// Union-find root with path compression (halving).
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// A reuse pool of [`Connectivity`] trackers for nested sub-searches.
///
/// A budgeted component sub-search ([`crate::split`]) runs on its own
/// extracted graph, so its tracker's *labels* can never be shared with
/// the caller's — but the tracker's backing buffers (labels, union-find
/// scratch, BFS queue, gather slots) can. Acquiring from the pool hands
/// back an invalidated tracker whose first check rebuilds into the
/// already-sized allocations instead of growing fresh `Vec`s, so deeply
/// nested splits (and `ComponentSteal`'s per-component sub-searches)
/// stop paying an allocation storm per sub-search.
#[derive(Debug, Default)]
pub struct ConnPool {
    free: Vec<Connectivity>,
}

impl ConnPool {
    /// An empty pool.
    pub fn new() -> Self {
        ConnPool::default()
    }

    /// A tracker for a new sub-search: recycled when one is free,
    /// freshly built otherwise. Always invalidated — the first
    /// connectivity check on the sub-search's graph rebuilds.
    pub fn acquire(&mut self) -> Connectivity {
        let mut conn = self.free.pop().unwrap_or_default();
        conn.invalidate();
        conn
    }

    /// Returns a tracker (and its allocations) to the pool when its
    /// sub-search finishes.
    pub fn release(&mut self, conn: Connectivity) {
        self.free.push(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeNode;
    use parvc_graph::{gen, ops};
    use parvc_simgpu::exec::SERIAL;

    /// Oracle: component count of the residual via the graph library.
    fn oracle_count(g: &CsrGraph, node: &TreeNode) -> u32 {
        let live: Vec<u32> = (0..node.len()).filter(|&v| node.degree(v) > 0).collect();
        if live.is_empty() {
            return 0;
        }
        let (sub, _) = ops::induced_subgraph(g, &live);
        ops::connected_components(&sub).1
    }

    /// Oracle: the partition of live vertices into component member
    /// sets, canonically ordered.
    fn oracle_partition(g: &CsrGraph, node: &TreeNode) -> Vec<Vec<u32>> {
        let live: Vec<u32> = (0..node.len()).filter(|&v| node.degree(v) > 0).collect();
        let (sub, _) = ops::induced_subgraph(g, &live);
        let (comp, count) = ops::connected_components(&sub);
        let mut members = vec![Vec::new(); count as usize];
        for (i, &v) in live.iter().enumerate() {
            members[comp[i] as usize].push(v);
        }
        members.sort();
        members
    }

    /// The tracker's partition after its latest update, canonically
    /// ordered for comparison with the oracle.
    fn tracker_partition(g: &CsrGraph, conn: &Connectivity) -> Vec<Vec<u32>> {
        let mut by_label: Vec<(u32, Vec<u32>)> = Vec::new();
        for v in 0..g.num_vertices() {
            if let Some(l) = conn.label(v) {
                match by_label.iter_mut().find(|(x, _)| *x == l) {
                    Some((_, m)) => m.push(v),
                    None => by_label.push((l, vec![v])),
                }
            }
        }
        let mut members: Vec<Vec<u32>> = by_label.into_iter().map(|(_, m)| m).collect();
        members.sort();
        members
    }

    #[test]
    fn tracks_a_descent_with_splits() {
        // Two triangles joined by a path: removing the path's middle
        // disconnects.
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        )
        .unwrap();
        let mut node = TreeNode::root(&g);
        let mut conn = Connectivity::new();
        let (count, _) = conn.update(&g, |v| node.degree(v), &SERIAL);
        assert_eq!(count, 1);
        node.remove_into_cover(&g, 3);
        node.remove_into_cover(&g, 4);
        let (count, _) = conn.update(&g, |v| node.degree(v), &SERIAL);
        assert_eq!(count, 2, "removing the bridge path must split");
        assert_eq!(tracker_partition(&g, &conn), oracle_partition(&g, &node));
    }

    #[test]
    fn resurrection_triggers_the_rebuild_fallback() {
        let g = gen::cycle(8);
        let mut conn = Connectivity::new();
        let mut node = TreeNode::root(&g);
        node.remove_into_cover(&g, 0);
        conn.update(&g, |v| node.degree(v), &SERIAL);
        conn.take_rebuilds();
        // Jump to an unrelated node where vertex 0 is live again.
        let fresh = TreeNode::root(&g);
        let (count, _) = conn.update(&g, |v| fresh.degree(v), &SERIAL);
        assert_eq!(count, 1);
        assert_eq!(conn.take_rebuilds(), 1, "the jump must rebuild");
    }

    #[test]
    fn local_deletions_skip_the_full_scan() {
        // A large grid: removing one interior vertex leaves the grid
        // connected, and its four neighbors reconnect around the hole
        // within a few hops — the incremental pass must stop there
        // instead of re-scanning the whole grid.
        let g = gen::grid2d(16, 16);
        let mut conn = Connectivity::new();
        let mut node = TreeNode::root(&g);
        let (_, full) = conn.update(&g, |v| node.degree(v), &SERIAL);
        node.remove_into_cover(&g, 8 * 16 + 8); // an interior vertex
        let (count, incr) = conn.update(&g, |v| node.degree(v), &SERIAL);
        assert_eq!(count, 1, "a grid minus one vertex stays connected");
        assert_eq!(conn.take_rebuilds(), 1, "only the initial build");
        assert!(
            incr < full / 2,
            "incremental pass ({incr}) must beat the full scan ({full})"
        );
    }

    #[test]
    fn random_descents_match_the_oracle() {
        for seed in 0..12u64 {
            let g = gen::sparse_components(40 + (seed % 13) as u32, 7, 0.4, seed);
            let mut node = TreeNode::root(&g);
            let mut conn = Connectivity::new();
            let mut order: Vec<u32> = (0..g.num_vertices()).collect();
            // Deterministic pseudo-shuffle.
            for i in 0..order.len() {
                let j = (seed as usize * 31 + i * 17) % order.len();
                order.swap(i, j);
            }
            for &v in &order {
                if node.degree(v) >= 0 {
                    node.remove_into_cover(&g, v);
                }
                let (count, _) = conn.update(&g, |v| node.degree(v), &SERIAL);
                assert_eq!(
                    count,
                    oracle_count(&g, &node),
                    "seed {seed}: count diverged"
                );
                assert_eq!(
                    tracker_partition(&g, &conn),
                    oracle_partition(&g, &node),
                    "seed {seed}: partition diverged"
                );
            }
        }
    }

    #[test]
    fn empty_and_isolated_residuals() {
        let g = CsrGraph::from_edges(4, &[]).unwrap();
        let mut conn = Connectivity::new();
        let node = TreeNode::root(&g);
        assert_eq!(conn.update(&g, |v| node.degree(v), &SERIAL).0, 0);

        let g = gen::star(4);
        let mut node = TreeNode::root(&g);
        let mut conn = Connectivity::new();
        assert_eq!(conn.update(&g, |v| node.degree(v), &SERIAL).0, 1);
        node.remove_into_cover(&g, 0); // leaves become isolated
        assert_eq!(
            conn.update(&g, |v| node.degree(v), &SERIAL).0,
            0,
            "isolated survivors are outside the residual"
        );
    }
}
