//! The degree-array intermediate graph (§IV-B).
//!
//! A tree node `(G', S)` of the vertex-cover search tree is represented
//! *jointly* by a degree array over the original vertices: a live vertex
//! stores its degree in the current intermediate graph; a vertex removed
//! into the solution stores the sentinel [`REMOVED`]. Together with the
//! immutable CSR original this is **self-contained** — any thread block
//! can pick the node up from the global worklist and reconstruct every
//! adjacency — and **compact** (`O(|V|)`), which is what keeps the
//! per-block stacks and the worklist from exhausting device memory.
//!
//! Two counters ride along, both paper optimizations: the cover size
//! `|S|` (instead of counting sentinels with a reduction) and the live
//! edge count `|E'|` (for the stopping condition's edge test).
//!
//! A bitmask of the live vertices rides along too, in the degree
//! array's allocation. On a graph with
//! [`AdjacencyRows`](parvc_graph::AdjacencyRows), a row masked with it
//! gives a vertex's live neighbors without touching the removed ones.

use parvc_graph::{AdjacencyRows, CsrGraph, VertexId};

/// Sentinel degree marking a vertex removed from the graph and added to
/// the cover.
pub const REMOVED: i32 = -1;

/// One node of the search tree: an intermediate graph plus its partial
/// cover, in degree-array form.
#[derive(Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The degree array (`len` slots), then the live mask: bit `v % 64`
    /// of word `v / 64` is set while `v` is live, each word stored as
    /// two `i32` halves, low half first. One allocation, so a clone
    /// copies one buffer.
    slots: Box<[i32]>,
    len: u32,
    cover_size: u32,
    cover_weight: u64,
    num_edges: u64,
}

impl TreeNode {
    /// The root node: the whole graph, empty cover.
    pub fn root(g: &CsrGraph) -> Self {
        let n = g.num_vertices() as usize;
        let halves = 2 * n.div_ceil(64);
        let mut slots = Vec::with_capacity(n + halves);
        slots.extend(g.vertices().map(|v| g.degree(v) as i32));
        // Every vertex is live: all-ones halves, the last cut at `n`.
        slots.extend((0..halves).map(|h| {
            let live = n.saturating_sub(32 * h).min(32);
            (u64::from(u32::MAX) >> (32 - live)) as u32 as i32
        }));
        TreeNode {
            slots: slots.into_boxed_slice(),
            len: n as u32,
            cover_size: 0,
            cover_weight: 0,
            num_edges: g.num_edges(),
        }
    }

    /// Number of vertex slots (original `|V|`).
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the original graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current degree of `v`, or [`REMOVED`].
    #[inline]
    pub fn degree(&self, v: VertexId) -> i32 {
        debug_assert!(v < self.len, "vertex {v} out of range");
        self.slots[v as usize]
    }

    /// The whole degree array: each slot is a live degree or
    /// [`REMOVED`]. For flat passes that fold over every vertex.
    #[inline]
    pub fn degrees(&self) -> &[i32] {
        &self.slots[..self.len as usize]
    }

    /// Word `i` of the live mask: bit `v % 64` of word `v / 64` is set
    /// while `v` is live. Bits past the last vertex are clear.
    #[inline]
    pub fn live_word(&self, i: usize) -> u64 {
        let at = self.len as usize + 2 * i;
        mask_word(&self.slots[at..at + 2])
    }

    /// The live mask, word by word; see [`live_word`](Self::live_word).
    pub fn live_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots[self.len as usize..]
            .chunks_exact(2)
            .map(mask_word)
    }

    /// Whether `v` has been removed into the cover.
    #[inline]
    pub fn is_removed(&self, v: VertexId) -> bool {
        self.degree(v) == REMOVED
    }

    /// `|S|` — vertices removed into the cover so far.
    #[inline]
    pub fn cover_size(&self) -> u32 {
        self.cover_size
    }

    /// `w(S)` — total weight of the cover so far, maintained from the
    /// graph's weight channel by
    /// [`remove_into_cover`](Self::remove_into_cover). Equals
    /// [`cover_size`](Self::cover_size) on unweighted graphs (every
    /// weight is 1), so weighted and unweighted bound arithmetic share
    /// this one counter.
    #[inline]
    pub fn cover_weight(&self) -> u64 {
        self.cover_weight
    }

    /// `|E'|` — edges remaining in the intermediate graph.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Whether the intermediate graph is edgeless — i.e. `S` is now a
    /// vertex cover (Figure 1 line 7 / Figure 4 line 17).
    #[inline]
    pub fn is_edgeless(&self) -> bool {
        self.num_edges == 0
    }

    /// Removes live vertex `v` into the cover, decrementing its live
    /// neighbors' degrees. Returns the degree `v` had.
    ///
    /// This is the *mechanism* shared by branching and every reduction
    /// rule; callers charge its cost to the appropriate activity.
    ///
    /// On a graph with [`AdjacencyRows`](parvc_graph::AdjacencyRows),
    /// `v`'s row masked with the live mask yields exactly the live
    /// neighbors, and each loses one. Otherwise every CSR neighbor slot
    /// is written, the way the paper's block threads decrement the
    /// neighbors together (§IV-B): a live slot loses one and a
    /// [`REMOVED`] slot subtracts zero and keeps the sentinel. On dense
    /// graphs about half the neighbors are removed, so a branch on
    /// liveness would be mispredicted about half the time; the
    /// unconditional store has no branch to mispredict.
    pub fn remove_into_cover(&mut self, g: &CsrGraph, v: VertexId) -> u32 {
        let d = self.degree(v);
        debug_assert!(d >= 0, "removing already-removed vertex {v}");
        let (degrees, mask) = self.slots.split_at_mut(self.len as usize);
        degrees[v as usize] = REMOVED;
        mask[v as usize / 32] &= !(1 << (v % 32));
        self.cover_size += 1;
        self.cover_weight += g.weight(v);
        self.num_edges -= d as u64;
        if d > 0 {
            match g.adjacency_rows() {
                Some(rows) => {
                    for (i, (&r, live)) in rows.row(v).iter().zip(mask.chunks_exact(2)).enumerate()
                    {
                        let mut bits = r & mask_word(live);
                        while bits != 0 {
                            degrees[i * 64 + bits.trailing_zeros() as usize] -= 1;
                            bits &= bits - 1;
                        }
                    }
                }
                None => {
                    for &u in g.neighbors(v) {
                        let du = &mut degrees[u as usize];
                        *du -= i32::from(*du >= 0);
                    }
                }
            }
        }
        d as u32
    }

    /// Removes every live neighbor of `v` into the cover and returns
    /// `Σ (d + 1)` over them, `d` each one's degree at its removal
    /// when they go one at a time in ascending order (Figure 4 lines
    /// 21–22). The sum is the number of edges removed plus the number
    /// of vertices.
    ///
    /// Without [`AdjacencyRows`](parvc_graph::AdjacencyRows) each
    /// neighbor goes through [`remove_into_cover`](Self::remove_into_cover).
    /// With rows, two passes leave the same node, and each call takes
    /// the one with the smaller count:
    /// `remove_neighbors_in_turn` decrements about `Σ d` slots over the
    /// removed vertices, and `remove_neighbors_as_a_set` takes one
    /// popcount per mask word for each other live vertex.
    pub fn remove_neighbors(&mut self, g: &CsrGraph, v: VertexId) -> u64 {
        let Some(rows) = g.adjacency_rows() else {
            let mut updates = 0;
            for &u in g.neighbors(v) {
                if !self.is_removed(u) {
                    updates += u64::from(self.remove_into_cover(g, u)) + 1;
                }
            }
            return updates;
        };
        if self.set_pass_is_cheaper(rows.row(v)) {
            self.remove_neighbors_as_a_set(g, rows, v)
        } else {
            self.remove_neighbors_in_turn(g, rows.row(v))
        }
    }

    /// Whether removing the live vertices of `row` as a set takes fewer
    /// popcounts than removing them in turn takes decrements: one per
    /// mask word for each live vertex outside the row, against the
    /// summed degrees of those inside it. The sum stops as soon as it
    /// passes the popcount count.
    pub(crate) fn set_pass_is_cheaper(&self, row: &[u64]) -> bool {
        let inside: u32 = row
            .iter()
            .zip(self.live_words())
            .map(|(&r, live)| (r & live).count_ones())
            .sum();
        let popcounts = u64::from(self.len - self.cover_size - inside) * row.len() as u64;
        let degrees = self.degrees();
        let mut walk = 0u64;
        for (i, (&r, live)) in row.iter().zip(self.live_words()).enumerate() {
            let mut bits = r & live;
            while bits != 0 {
                walk += degrees[i * 64 + bits.trailing_zeros() as usize] as u64;
                if walk > popcounts {
                    return true;
                }
                bits &= bits - 1;
            }
        }
        false
    }

    /// [`remove_neighbors`](Self::remove_neighbors) one neighbor at a
    /// time, in ascending order; `row` is `v`'s adjacency row. Removing
    /// a neighbor clears only its own live bit, so a mask word read
    /// before its first removal still lists the rest.
    pub(crate) fn remove_neighbors_in_turn(&mut self, g: &CsrGraph, row: &[u64]) -> u64 {
        let mut updates = 0;
        for (i, &r) in row.iter().enumerate() {
            let mut bits = r & self.live_word(i);
            while bits != 0 {
                let u = (i * 64) as VertexId + bits.trailing_zeros();
                bits &= bits - 1;
                updates += u64::from(self.remove_into_cover(g, u)) + 1;
            }
        }
        updates
    }

    /// [`remove_neighbors`](Self::remove_neighbors) in one pass over
    /// the live mask, the way the paper's block removes a neighborhood
    /// together (§IV-B). With `M = row(v) & live`, each live `w`
    /// outside `M` loses `popcount(row(w) & M)`, its edges into `M`;
    /// `M`'s words are read before the live mask changes, so `M` needs
    /// no buffer. Then `M` leaves the live mask. The removed edges are
    /// `(Σ_{u∈M} d(u) + cross) / 2`, `cross` the sum of the losses:
    /// each edge inside `M` counts twice in the degree sum, each edge
    /// out of `M` once there and once in `cross`.
    pub(crate) fn remove_neighbors_as_a_set(
        &mut self,
        g: &CsrGraph,
        rows: &AdjacencyRows,
        v: VertexId,
    ) -> u64 {
        let row = rows.row(v);
        let (degrees, mask) = self.slots.split_at_mut(self.len as usize);
        let mut cross = 0u64;
        for (i, (&r, live)) in row.iter().zip(mask.chunks_exact(2)).enumerate() {
            let mut outside = mask_word(live) & !r;
            while outside != 0 {
                let w = i * 64 + outside.trailing_zeros() as usize;
                outside &= outside - 1;
                let lost: u32 = rows
                    .row(w as VertexId)
                    .iter()
                    .zip(row)
                    .zip(mask.chunks_exact(2))
                    .map(|((&a, &r), live)| (a & r & mask_word(live)).count_ones())
                    .sum();
                degrees[w] -= lost as i32;
                cross += u64::from(lost);
            }
        }
        let (mut count, mut degree_sum, mut weight) = (0u32, 0u64, 0u64);
        for (i, (&r, live)) in row.iter().zip(mask.chunks_exact_mut(2)).enumerate() {
            let word = mask_word(live);
            let mut bits = r & word;
            count += bits.count_ones();
            while bits != 0 {
                let u = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                degree_sum += degrees[u] as u64;
                degrees[u] = REMOVED;
                weight += g.weight(u as VertexId);
            }
            let rest = word & !r;
            live[0] = rest as u32 as i32;
            live[1] = (rest >> 32) as u32 as i32;
        }
        let edges = (degree_sum + cross) / 2;
        self.cover_size += count;
        self.cover_weight += weight;
        self.num_edges -= edges;
        edges + u64::from(count)
    }

    /// First live neighbor of `v` (for the degree-one rule), if any.
    pub fn live_neighbor(&self, g: &CsrGraph, v: VertexId) -> Option<VertexId> {
        self.live_neighbors(g, v).next()
    }

    /// The live neighbors of `v`, in ascending order.
    pub fn live_neighbors<'a>(&'a self, g: &'a CsrGraph, v: VertexId) -> LiveNeighbors<'a> {
        self.live_neighbors_from(g, v, 0)
    }

    /// The live neighbors of `v` above `v`, in ascending order.
    pub fn live_neighbors_above<'a>(&'a self, g: &'a CsrGraph, v: VertexId) -> LiveNeighbors<'a> {
        self.live_neighbors_from(g, v, v + 1)
    }

    fn live_neighbors_from<'a>(
        &'a self,
        g: &'a CsrGraph,
        v: VertexId,
        from: VertexId,
    ) -> LiveNeighbors<'a> {
        let walk = match g.adjacency_rows() {
            Some(rows) => {
                let row = rows.row(v);
                let word = from as usize / 64;
                let bits = row
                    .get(word)
                    .map_or(0, |&r| r & self.live_word(word) & (u64::MAX << (from % 64)));
                Walk::Rows { row, word, bits }
            }
            None => {
                let adj = g.neighbors(v);
                Walk::Csr(adj[adj.partition_point(|&u| u < from)..].iter())
            }
        };
        LiveNeighbors { node: self, walk }
    }

    /// The cover vertices (every slot holding [`REMOVED`]).
    pub fn cover_vertices(&self) -> Vec<VertexId> {
        (0..self.len()).filter(|&v| self.is_removed(v)).collect()
    }

    /// Bytes this node occupies — the §III-C memory-pressure quantity:
    /// the degree array and the counters. The live mask is a host-side
    /// index, `|V| / 8` bytes, and is not counted.
    pub fn memory_bytes(&self) -> usize {
        self.len as usize * std::mem::size_of::<i32>() + 16
    }

    /// Verifies the counters, degrees and live mask against a
    /// recomputation from the CSR graph. Test / debug aid.
    pub fn check_consistency(&self, g: &CsrGraph) -> Result<(), String> {
        if g.num_vertices() != self.len() {
            return Err("vertex count mismatch".into());
        }
        let words = (self.len as usize).div_ceil(64);
        if !self.len.is_multiple_of(64) && self.live_word(words - 1) >> (self.len % 64) != 0 {
            return Err("live bits set past the last vertex".into());
        }
        let mut edges = 0u64;
        let mut removed = 0u32;
        let mut removed_weight = 0u64;
        for v in g.vertices() {
            let live_bit = self.live_word(v as usize / 64) >> (v % 64) & 1 == 1;
            if live_bit == self.is_removed(v) {
                return Err(format!(
                    "vertex {v}: degree {} but live bit {live_bit}",
                    self.degree(v)
                ));
            }
            if self.is_removed(v) {
                removed += 1;
                removed_weight += g.weight(v);
                continue;
            }
            let live_deg = g
                .neighbors(v)
                .iter()
                .filter(|&&u| !self.is_removed(u))
                .count() as i32;
            if live_deg != self.degree(v) {
                return Err(format!(
                    "vertex {v}: stored degree {} but {live_deg} live neighbors",
                    self.degree(v)
                ));
            }
            edges += live_deg as u64;
        }
        if removed != self.cover_size {
            return Err(format!(
                "cover_size {} but {removed} sentinels",
                self.cover_size
            ));
        }
        if removed_weight != self.cover_weight {
            return Err(format!(
                "cover_weight {} but sentinels weigh {removed_weight}",
                self.cover_weight
            ));
        }
        if edges / 2 != self.num_edges {
            return Err(format!(
                "num_edges {} but recount {}",
                self.num_edges,
                edges / 2
            ));
        }
        Ok(())
    }
}

/// Word of a live mask stored as two `i32` halves, low half first.
#[inline]
fn mask_word(halves: &[i32]) -> u64 {
    u64::from(halves[0] as u32) | u64::from(halves[1] as u32) << 32
}

/// The live neighbors of a vertex in ascending order; see
/// [`TreeNode::live_neighbors`].
pub struct LiveNeighbors<'a> {
    node: &'a TreeNode,
    walk: Walk<'a>,
}

enum Walk<'a> {
    /// The CSR list, skipping removed entries one at a time.
    Csr(std::slice::Iter<'a, VertexId>),
    /// The bitset row: `bits` holds the live neighbors of word `word`
    /// not visited yet.
    Rows {
        row: &'a [u64],
        word: usize,
        bits: u64,
    },
}

impl Iterator for LiveNeighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        let node = self.node;
        match &mut self.walk {
            Walk::Csr(adj) => adj.find(|&&u| !node.is_removed(u)).copied(),
            Walk::Rows { row, word, bits } => {
                while *bits == 0 {
                    *word += 1;
                    *bits = row.get(*word)? & node.live_word(*word);
                }
                let u = *word * 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                Some(u as VertexId)
            }
        }
    }
}

impl std::fmt::Debug for TreeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeNode")
            .field("len", &self.len())
            .field("cover_size", &self.cover_size)
            .field("cover_weight", &self.cover_weight)
            .field("num_edges", &self.num_edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    #[test]
    fn root_mirrors_graph() {
        let g = gen::paper_example();
        let n = TreeNode::root(&g);
        assert_eq!(n.len(), 5);
        assert_eq!(n.cover_size(), 0);
        assert_eq!(n.num_edges(), 6);
        assert_eq!(n.degree(2), 4);
        n.check_consistency(&g).unwrap();
    }

    #[test]
    fn remove_updates_neighbors_and_counters() {
        let g = gen::paper_example();
        let mut n = TreeNode::root(&g);
        let d = n.remove_into_cover(&g, 2); // the hub c
        assert_eq!(d, 4);
        assert_eq!(n.cover_size(), 1);
        assert_eq!(n.num_edges(), 2); // ab and de remain
        assert!(n.is_removed(2));
        assert_eq!(n.degree(0), 1);
        assert_eq!(n.degree(3), 1);
        n.check_consistency(&g).unwrap();
    }

    #[test]
    fn removing_all_yields_edgeless() {
        let g = gen::complete(4);
        let mut n = TreeNode::root(&g);
        for v in 0..3 {
            n.remove_into_cover(&g, v);
        }
        assert!(n.is_edgeless());
        assert_eq!(n.cover_size(), 3);
        assert_eq!(n.degree(3), 0); // live but isolated
        assert_eq!(n.cover_vertices(), vec![0, 1, 2]);
        n.check_consistency(&g).unwrap();
    }

    /// Removes every vertex of random graphs, sparse to dense, weighted
    /// and not, in random orders. After each removal the node is
    /// consistent, the returned degree is the live-neighbor count taken
    /// just before, and no slot falls below the sentinel: a removed
    /// neighbor keeps [`REMOVED`] however often its neighbors go.
    #[test]
    fn removing_every_vertex_in_random_orders_keeps_the_degrees_exact() {
        for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for seed in 0..4u64 {
                let plain = gen::gnp(20 + 3 * seed as u32, p, seed);
                let weighted = gen::with_uniform_weights(plain.clone(), 9, seed);
                for (i, g) in [plain, weighted].into_iter().enumerate() {
                    let ctx = format!("p={p} seed={seed} weighted={}", i == 1);
                    // Sorting by random keys gives a random order.
                    let keys = gen::uniform_weights(g.num_vertices(), u64::MAX, seed + 100);
                    let mut order: Vec<VertexId> = g.vertices().collect();
                    order.sort_by_key(|&v| keys[v as usize]);
                    let mut n = TreeNode::root(&g);
                    for &v in &order {
                        let live = g.neighbors(v).iter().filter(|&&u| !n.is_removed(u)).count();
                        assert_eq!(n.remove_into_cover(&g, v), live as u32, "{ctx}: vertex {v}");
                        assert!(
                            n.degrees().iter().all(|&d| d >= REMOVED),
                            "{ctx}: a slot fell below the sentinel removing {v}"
                        );
                        n.check_consistency(&g)
                            .unwrap_or_else(|e| panic!("{ctx}: removing {v}: {e}"));
                    }
                    assert!(n.is_edgeless(), "{ctx}");
                    assert_eq!(n.cover_size(), g.num_vertices(), "{ctx}");
                }
            }
        }
    }

    /// On both sides of the row threshold and on random partial
    /// covers, the live-neighbor walks list exactly the CSR neighbors
    /// whose slots are live, in CSR order, and removing a vertex
    /// returns that many.
    #[test]
    fn live_neighbors_match_a_csr_scan_on_both_sides_of_the_threshold() {
        for (i, g) in testing::graphs().iter().enumerate() {
            for node in testing::partial_covers(g, i as u64) {
                node.check_consistency(g).unwrap();
                for v in g.vertices() {
                    let naive: Vec<VertexId> = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&u| !node.is_removed(u))
                        .collect();
                    let above: Vec<VertexId> = naive.iter().copied().filter(|&u| u > v).collect();
                    let ctx = format!("graph {i}, vertex {v}");
                    assert_eq!(
                        node.live_neighbors(g, v).collect::<Vec<_>>(),
                        naive,
                        "{ctx}"
                    );
                    assert_eq!(node.live_neighbor(g, v), naive.first().copied(), "{ctx}");
                    let got: Vec<VertexId> = node.live_neighbors_above(g, v).collect();
                    assert_eq!(got, above, "{ctx}");
                    if !node.is_removed(v) {
                        let mut after = node.clone();
                        assert_eq!(after.remove_into_cover(g, v), naive.len() as u32, "{ctx}");
                        after.check_consistency(g).unwrap();
                    }
                }
            }
        }
    }

    /// On random partial covers of graphs with rows, the choice equals
    /// the rule with the whole degree sum: popcounts < Σ d.
    #[test]
    fn set_pass_choice_matches_the_full_degree_sum() {
        for (i, g) in testing::graphs().iter().enumerate() {
            let Some(rows) = g.adjacency_rows() else {
                continue;
            };
            for node in testing::partial_covers(g, i as u64) {
                for v in g.vertices() {
                    let row = rows.row(v);
                    let inside: Vec<VertexId> = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&u| !node.is_removed(u))
                        .collect();
                    let walk: u64 = inside.iter().map(|&u| node.degree(u) as u64).sum();
                    let outside = node.len() - node.cover_size() - inside.len() as u32;
                    let popcounts = u64::from(outside) * row.len() as u64;
                    assert_eq!(
                        node.set_pass_is_cheaper(row),
                        popcounts < walk,
                        "graph {i}, vertex {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn consistency_checks_the_live_mask() {
        let g = gen::complete(70);
        let mut n = TreeNode::root(&g);
        n.remove_into_cover(&g, 66);
        n.check_consistency(&g).unwrap();
        let mut stale = n.clone();
        stale.slots[70 + 66 / 32] |= 1 << (66 % 32);
        assert!(
            stale.check_consistency(&g).is_err(),
            "a removed vertex marked live"
        );
        let mut past_end = n.clone();
        past_end.slots[70 + 3] |= 1 << 31;
        assert!(
            past_end.check_consistency(&g).is_err(),
            "a live bit past the end"
        );
    }

    #[test]
    fn cover_weight_tracks_graph_weights() {
        let g = gen::path(4).with_weights(vec![2, 7, 3, 1]).unwrap();
        let mut n = TreeNode::root(&g);
        assert_eq!(n.cover_weight(), 0);
        n.remove_into_cover(&g, 1);
        n.remove_into_cover(&g, 2);
        assert_eq!(n.cover_size(), 2);
        assert_eq!(n.cover_weight(), 10);
        n.check_consistency(&g).unwrap();

        // Unweighted: weight mirrors size.
        let u = gen::path(4);
        let mut n = TreeNode::root(&u);
        n.remove_into_cover(&u, 1);
        assert_eq!(n.cover_weight(), n.cover_size() as u64);
    }

    #[test]
    fn live_neighbor_skips_removed() {
        let g = gen::path(4); // 0-1-2-3
        let mut n = TreeNode::root(&g);
        n.remove_into_cover(&g, 1);
        assert_eq!(n.live_neighbor(&g, 2), Some(3));
        assert_eq!(n.live_neighbor(&g, 0), None);
    }

    #[test]
    fn clone_is_independent() {
        let g = gen::cycle(5);
        let a = TreeNode::root(&g);
        let mut b = a.clone();
        b.remove_into_cover(&g, 0);
        assert_eq!(a.cover_size(), 0);
        assert_eq!(b.cover_size(), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn consistency_catches_corruption() {
        let g = gen::cycle(5);
        let mut n = TreeNode::root(&g);
        n.num_edges = 99;
        assert!(n.check_consistency(&g).is_err());
    }

    #[test]
    fn empty_graph_root() {
        let g = parvc_graph::CsrGraph::from_edges(0, &[]).unwrap();
        let n = TreeNode::root(&g);
        assert!(n.is_empty());
        assert!(n.is_edgeless());
    }
}

/// Random graphs on both sides of the [`AdjacencyRows`] threshold and
/// random partial covers of them, for the tests of the primitives that
/// walk either the rows or the CSR lists.
///
/// [`AdjacencyRows`]: parvc_graph::AdjacencyRows
#[cfg(test)]
pub(crate) mod testing {
    use super::TreeNode;
    use parvc_graph::{gen, CsrGraph, VertexId};

    /// `gnp` graphs from sparse to dense with one to three mask words,
    /// each plain and with uniform weights. Some have rows, some not.
    pub fn graphs() -> Vec<CsrGraph> {
        let mut out = Vec::new();
        let shapes = [
            (40, 0.05),
            (40, 0.5),
            (64, 0.9),
            (70, 0.03),
            (70, 0.3),
            (130, 0.02),
            (130, 0.2),
        ];
        for (seed, (n, p)) in (0u64..).zip(shapes) {
            let g = gen::gnp(n, p, seed);
            out.push(gen::with_uniform_weights(g.clone(), 9, seed));
            out.push(g);
        }
        let with_rows = out.iter().filter(|g| g.adjacency_rows().is_some()).count();
        assert!(with_rows > 0 && with_rows < out.len(), "one side only");
        out
    }

    /// The root and four partial covers of `g`, each vertex removed
    /// with probability 1/4, 1/2, 3/4 or 7/8, in a random order.
    pub fn partial_covers(g: &CsrGraph, seed: u64) -> Vec<TreeNode> {
        let keys = gen::uniform_weights(g.num_vertices(), u64::MAX, seed);
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| keys[v as usize]);
        [0, 2, 4, 6, 7]
            .into_iter()
            .map(|eighths| {
                let mut node = TreeNode::root(g);
                for &v in &order {
                    if keys[v as usize] % 8 < eighths {
                        node.remove_into_cover(g, v);
                    }
                }
                node
            })
            .collect()
    }
}
