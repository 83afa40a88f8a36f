//! Compressed Sparse Row graph representation.
//!
//! The CSR graph is the paper's *original graph* (§IV-B): a single
//! immutable copy shared by all thread blocks. Intermediate graphs are
//! never materialized in CSR form — they live as degree arrays layered on
//! top of this structure (see `parvc-core::node`).

use std::sync::OnceLock;

use crate::{GraphError, VertexId};

/// An immutable, simple, undirected graph in Compressed Sparse Row form.
///
/// Each undirected edge `{u, v}` is stored twice (once in each endpoint's
/// adjacency list). Adjacency lists are sorted ascending, enabling
/// `O(log d)` adjacency tests — the degree-two-triangle reduction rule
/// relies on this.
///
/// Memory: `O(|V| + |E|)`, matching the paper's requirement that the
/// baseline representation stay compact. A dense graph also gets
/// [`AdjacencyRows`], built on first use and never larger than
/// `col_idx`; equality, [`content_hash`](Self::content_hash) and
/// [`memory_bytes`](Self::memory_bytes) ignore them.
#[derive(Clone)]
pub struct CsrGraph {
    /// `row_ptr[v]..row_ptr[v+1]` indexes `col_idx` for vertex `v`.
    row_ptr: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    col_idx: Vec<VertexId>,
    /// Optional per-vertex weights for the **weighted** MVC variant.
    /// `None` means the unweighted problem; every accessor then reports
    /// weight 1, so unweighted graphs behave as all-ones instances.
    weights: Option<Box<[u64]>>,
    /// The bitset rows of [`adjacency_rows`](Self::adjacency_rows):
    /// unset until its first call, then `None` for a sparse graph.
    rows: OnceLock<Option<AdjacencyRows>>,
}

/// Bitset adjacency rows: row `v` has one bit per vertex, set for each
/// neighbor of `v`, in `⌈|V| / 64⌉` words (bit `u % 64` of word
/// `u / 64`). A search masks a row with its live vertices and visits
/// the set bits in ascending order, which is the CSR list's order, so
/// it skips removed neighbors 64 at a time.
///
/// Only a dense graph gets rows: `⌈|V| / 64⌉ · |V| ≤ |E|`, so that a
/// row has at most half as many words as the average vertex has
/// neighbors and the rows take no more memory than `col_idx`.
#[derive(Clone)]
pub struct AdjacencyRows {
    words: usize,
    bits: Box<[u64]>,
}

impl AdjacencyRows {
    /// Whether a graph with `n` vertices and `m` edges gets rows.
    fn dense_enough(n: u32, m: u64) -> bool {
        u64::from(n).div_ceil(64) * u64::from(n) <= m
    }

    fn build(g: &CsrGraph) -> Self {
        let words = (g.num_vertices() as usize).div_ceil(64);
        let mut bits = vec![0u64; words * g.num_vertices() as usize].into_boxed_slice();
        for (v, row) in bits.chunks_exact_mut(words).enumerate() {
            for &u in g.neighbors(v as VertexId) {
                row[u as usize / 64] |= 1 << (u % 64);
            }
        }
        AdjacencyRows { words, bits }
    }

    /// The row of `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u64] {
        let start = v as usize * self.words;
        &self.bits[start..start + self.words]
    }

    /// Whether the edge `{u, v}` exists: one bit test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.row(u)[v as usize / 64] >> (v % 64) & 1 != 0
    }
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Duplicate edges (in either orientation) are deduplicated. Self
    /// loops and out-of-range endpoints are rejected.
    ///
    /// # Examples
    ///
    /// ```
    /// use parvc_graph::CsrGraph;
    /// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (1, 0)]).unwrap();
    /// assert_eq!(g.num_edges(), 2);
    /// assert_eq!(g.degree(1), 2);
    /// ```
    pub fn from_edges(n: u32, edges: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        let mut builder = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds directly from pre-validated CSR arrays.
    ///
    /// Used by [`crate::GraphBuilder`] and the generators; callers must
    /// guarantee symmetry, sortedness, and absence of self loops —
    /// violations are caught by a debug assertion.
    pub(crate) fn from_parts(row_ptr: Vec<usize>, col_idx: Vec<VertexId>) -> Self {
        let g = CsrGraph {
            row_ptr,
            col_idx,
            weights: None,
            rows: OnceLock::new(),
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        g
    }

    /// Attaches per-vertex weights, turning the graph into a weighted
    /// MVC instance. Requires one weight per vertex, every weight ≥ 1
    /// (zero-weight vertices would break the engine's budget
    /// arithmetic, which relies on each cover vertex costing at least
    /// one weight unit), and a total weight of at most `i64::MAX` —
    /// every cover weighs at most the total, so this bound is what
    /// keeps the engine's signed budget arithmetic (and the unchecked
    /// `cover_weight` accumulation) overflow-free.
    ///
    /// # Examples
    ///
    /// ```
    /// use parvc_graph::CsrGraph;
    /// let g = CsrGraph::from_edges(2, &[(0, 1)])
    ///     .unwrap()
    ///     .with_weights(vec![5, 2])
    ///     .unwrap();
    /// assert!(g.is_weighted());
    /// assert_eq!(g.weight(0), 5);
    /// ```
    pub fn with_weights(mut self, weights: Vec<u64>) -> Result<Self, GraphError> {
        if weights.len() != self.num_vertices() as usize {
            return Err(GraphError::WeightCountMismatch {
                weights: weights.len(),
                num_vertices: self.num_vertices(),
            });
        }
        if let Some(v) = weights.iter().position(|&w| w == 0) {
            return Err(GraphError::ZeroWeight(v as VertexId));
        }
        let mut total: u64 = 0;
        for &w in &weights {
            total = total
                .checked_add(w)
                .filter(|&t| t <= i64::MAX as u64)
                .ok_or(GraphError::WeightSumOverflow)?;
        }
        self.weights = Some(weights.into_boxed_slice());
        Ok(self)
    }

    /// Drops the weight channel, returning the unweighted graph.
    pub fn without_weights(mut self) -> Self {
        self.weights = None;
        self
    }

    /// Whether a weight channel is attached.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weight of `v`: the attached weight, or 1 for unweighted graphs.
    #[inline]
    pub fn weight(&self, v: VertexId) -> u64 {
        match &self.weights {
            Some(w) => w[v as usize],
            None => 1,
        }
    }

    /// The attached weight array, if any.
    #[inline]
    pub fn weights(&self) -> Option<&[u64]> {
        self.weights.as_deref()
    }

    /// Total weight of `cover` (its length for unweighted graphs) —
    /// the objective the weighted MVC variant minimizes.
    pub fn cover_weight(&self, cover: &[VertexId]) -> u64 {
        cover.iter().map(|&v| self.weight(v)).sum()
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.row_ptr.len() - 1) as u32
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        (self.col_idx.len() / 2) as u64
    }

    /// Degree of `v` in the original graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.row_ptr[v + 1] - self.row_ptr[v]) as u32
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Whether the edge `{u, v}` exists. `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The graph's [`AdjacencyRows`] if it is dense enough to get them
    /// (see there), else `None`. The first call builds them, in
    /// `O(|V|²/64 + |E|)`; construction does not, so generating an
    /// instance costs the same as without them.
    #[inline]
    pub fn adjacency_rows(&self) -> Option<&AdjacencyRows> {
        self.rows
            .get_or_init(|| {
                AdjacencyRows::dense_enough(self.num_vertices(), self.num_edges())
                    .then(|| AdjacencyRows::build(self))
            })
            .as_ref()
    }

    /// Maximum degree `Δ(G)`.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.col_idx.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Checks structural invariants: monotone `row_ptr`, sorted + unique
    /// adjacency lists, no self loops, symmetric edges, endpoints in range.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if *self.row_ptr.first().unwrap_or(&1) != 0 {
            return Err("row_ptr[0] != 0".into());
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err("row_ptr[n] != col_idx.len()".into());
        }
        for v in 0..n as usize {
            if self.row_ptr[v] > self.row_ptr[v + 1] {
                return Err(format!("row_ptr not monotone at {v}"));
            }
        }
        for u in 0..n {
            let adj = self.neighbors(u);
            for w in adj.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {u} not sorted/unique"));
                }
            }
            for &v in adj {
                if v >= n {
                    return Err(format!("edge ({u},{v}) out of range"));
                }
                if v == u {
                    return Err(format!("self loop on {u}"));
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("asymmetric edge ({u},{v})"));
                }
            }
        }
        if let Some(w) = &self.weights {
            if w.len() != n as usize {
                return Err(format!("{} weights for {n} vertices", w.len()));
            }
            if let Some(v) = w.iter().position(|&x| x == 0) {
                return Err(format!("zero weight on vertex {v}"));
            }
        }
        Ok(())
    }

    /// Content hash of the instance: a 64-bit FNV-1a digest over the
    /// canonical CSR arrays (`row_ptr`, `col_idx`) and the optional
    /// weight channel.
    ///
    /// Because construction canonicalizes the structure (sorted,
    /// deduplicated adjacency; edges stored symmetrically), two graphs
    /// describing the same instance hash identically regardless of how
    /// they were built — from an edge list, a DIMACS file, or a
    /// generator spec. The serving tier uses this as the **cache key**
    /// for the persisted result cache (`parvc serve`): repeat traffic
    /// for the same content is answered from cache without re-solving.
    ///
    /// The hash is a stable function of the content only (no pointer or
    /// build-order dependence), so it is safe to persist across runs.
    /// Equal hashes are treated as equal instances; at 64 bits,
    /// accidental collisions are negligible for cache sizing.
    ///
    /// # Examples
    ///
    /// ```
    /// use parvc_graph::CsrGraph;
    /// // Same instance, different construction order: one cache key.
    /// let a = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// let b = CsrGraph::from_edges(3, &[(2, 1), (0, 1), (1, 0)]).unwrap();
    /// assert_eq!(a.content_hash(), b.content_hash());
    ///
    /// // The weight channel is part of the instance, so weighting the
    /// // same structure yields a distinct key.
    /// let w = a.clone().with_weights(vec![2, 1, 1]).unwrap();
    /// assert_ne!(a.content_hash(), w.content_hash());
    /// ```
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        // A leading tag keeps the digest versioned: changing the layout
        // below must change every key, invalidating stale disk caches.
        eat(0x7061_7276_6373_7231); // "parvcsr1"
        eat(self.num_vertices() as u64);
        for &p in &self.row_ptr {
            eat(p as u64);
        }
        for &v in &self.col_idx {
            eat(v as u64);
        }
        match &self.weights {
            None => eat(0),
            Some(w) => {
                eat(1);
                for &x in w.iter() {
                    eat(x);
                }
            }
        }
        h
    }

    /// Approximate heap footprint in bytes — the quantity the paper's
    /// memory-capacity reasoning (§III-C) cares about.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<u64>())
    }
}

/// Equal content: the arrays and weights, not whether the rows are
/// built yet.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.weights == other.weights
    }
}

impl Eq for CsrGraph {}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("max_degree", &self.max_degree())
            .field("weighted", &self.is_weighted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        g.validate().unwrap();
    }

    #[test]
    fn deduplicates_edges() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            CsrGraph::from_edges(2, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop(1)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            CsrGraph::from_edges(2, &[(0, 5)]).unwrap_err(),
            GraphError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            }
        ));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn edgeless_graph_with_vertices() {
        let g = CsrGraph::from_edges(4, &[]).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn weights_attach_and_default_to_one() {
        let g = triangle();
        assert!(!g.is_weighted());
        assert_eq!(g.weight(1), 1);
        assert_eq!(g.cover_weight(&[0, 2]), 2);
        let w = g.clone().with_weights(vec![3, 1, 7]).unwrap();
        assert!(w.is_weighted());
        assert_eq!(w.weight(2), 7);
        assert_eq!(w.cover_weight(&[0, 2]), 10);
        assert_eq!(w.weights(), Some(&[3, 1, 7][..]));
        w.validate().unwrap();
        assert_ne!(w, triangle(), "weights participate in equality");
        assert_eq!(w.without_weights(), triangle());
    }

    #[test]
    fn weights_reject_bad_inputs() {
        let g = triangle();
        assert_eq!(
            g.clone().with_weights(vec![1, 2]).unwrap_err(),
            GraphError::WeightCountMismatch {
                weights: 2,
                num_vertices: 3
            }
        );
        assert_eq!(
            g.clone().with_weights(vec![1, 0, 2]).unwrap_err(),
            GraphError::ZeroWeight(1)
        );
        // The total-weight cap: any cover weighs at most the total, so
        // i64::MAX totals are the bound the solvers' arithmetic needs.
        assert_eq!(
            g.clone()
                .with_weights(vec![u64::MAX / 2, u64::MAX / 2, 2])
                .unwrap_err(),
            GraphError::WeightSumOverflow
        );
        assert_eq!(
            g.clone()
                .with_weights(vec![i64::MAX as u64, 1, 1])
                .unwrap_err(),
            GraphError::WeightSumOverflow
        );
        assert!(g.with_weights(vec![i64::MAX as u64 - 2, 1, 1]).is_ok());
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        let g2 = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(!g2.has_edge(0, 2));
        assert!(!g2.has_edge(1, 2));
    }

    #[test]
    fn edge_iterator_yields_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn content_hash_is_content_only() {
        let g = triangle();
        // Stable across clones and rebuilds with shuffled input order.
        assert_eq!(g.content_hash(), g.clone().content_hash());
        let shuffled = CsrGraph::from_edges(3, &[(2, 0), (1, 0), (2, 1), (0, 1)]).unwrap();
        assert_eq!(g.content_hash(), shuffled.content_hash());
        // Sensitive to structure, vertex count, and weights.
        let path = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_ne!(g.content_hash(), path.content_hash());
        let padded = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_ne!(g.content_hash(), padded.content_hash());
        let weighted = g.clone().with_weights(vec![1, 1, 1]).unwrap();
        assert_ne!(g.content_hash(), weighted.content_hash());
        let reweighted = g.clone().with_weights(vec![1, 1, 2]).unwrap();
        assert_ne!(weighted.content_hash(), reweighted.content_hash());
    }

    /// Rows exist exactly at `⌈n/64⌉·n ≤ |E|`, hold the CSR lists, and
    /// leave equality, the content hash and the footprint alone.
    #[test]
    fn adjacency_rows_follow_the_density_rule() {
        let dense = crate::gen::gnp(70, 0.3, 1);
        let sparse = crate::gen::gnp(70, 0.01, 1);
        let (hash, bytes) = (dense.content_hash(), dense.memory_bytes());
        let rows = dense.adjacency_rows().expect("2·70 ≤ |E|");
        assert_eq!(rows.row(69).len(), 2);
        for u in dense.vertices() {
            for v in dense.vertices() {
                assert_eq!(rows.has_edge(u, v), dense.has_edge(u, v), "{u} {v}");
            }
        }
        assert!(sparse.adjacency_rows().is_none());
        assert_eq!((dense.content_hash(), dense.memory_bytes()), (hash, bytes));
        assert_eq!(dense, crate::gen::gnp(70, 0.3, 1));
        // K3 has 3 = 1·3 edges, a path on 3 vertices 2.
        assert!(triangle().adjacency_rows().is_some());
        assert!(crate::gen::path(3).adjacency_rows().is_none());
        for n in [63, 64, 65, 128, 129] {
            let need = u64::from(n).div_ceil(64) * u64::from(n);
            assert!(AdjacencyRows::dense_enough(n, need), "{n}");
            assert!(!AdjacencyRows::dense_enough(n, need - 1), "{n}");
        }
    }

    #[test]
    fn degree_and_max_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }
}
