//! The kernelization rules, each a [`ReduceRule`] implementation.
//!
//! Every rule is **optimum-preserving**: after its application there is
//! an optimal cover of the original graph consisting of the forced
//! vertices plus an optimal cover of the residual instance, and the
//! excluded vertices appear in none of its edges. The rules reuse the
//! §IV-D conflict-resolution semantics of `parvc_core::reduce`:
//! eligible vertices are snapshotted, then applied in ascending id with
//! a liveness/degree recheck, so a vertex invalidated by an earlier
//! (smaller-id) application is skipped.
//!
//! The crown rule runs on the *implicit* double cover: Hopcroft–Karp
//! and the Kőnig reachability walk the residual CSR directly under the
//! liveness mask ([`crate::par`]), so no round builds a graph.
//!
//! # Safety of the high-degree rule
//!
//! Let `ub` be the size of a known cover of the residual (the greedy
//! one) and `OPT ≤ ub` its optimum. A live vertex `v` of degree
//! `d(v) > ub` is in every optimal residual cover: a cover without `v`
//! holds all `d(v) > OPT` of its neighbors. The rule snapshots every
//! such vertex and forces them all **without a degree recheck**.
//! Forcing `k` snapshot entries lowers the residual optimum by exactly
//! `k` (each forced vertex is in some optimal cover, so
//! `OPT' = OPT − k`) and any snapshot degree by at most `k`, so a later
//! entry still has `d − k > ub − k ≥ OPT − k = OPT'`: it must still be
//! forced.
//!
//! The rule skips the greedy pass altogether when `Δ² ≤ |E|`, where
//! `Δ` is the maximum live degree. Every cover of the residual needs
//! at least `|E| / Δ` vertices (each covers at most `Δ` edges), so then
//! `d(v) ≤ Δ ≤ |E| / Δ ≤ OPT ≤ ub` for every `v`: no vertex can
//! exceed the greedy bound, and the skip changes no decision.

use parvc_graph::VertexId;
use parvc_simgpu::exec::SERIAL;

use crate::par;
use crate::state::PrepState;

/// Per-rule firing statistics, reported in
/// [`PrepStats`](crate::PrepStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's display name.
    pub name: &'static str,
    /// Vertices the rule forced into the cover.
    pub covered: u64,
    /// Vertices the rule dropped as avoidable.
    pub excluded: u64,
    /// Pipeline passes the rule ran in. A pass the pipeline skipped,
    /// because the instance had not changed since the rule was last
    /// known to be a no-op on it, is not counted.
    pub passes: u32,
    /// Why the rule did not run, when the pipeline disabled it (e.g.
    /// weight-unsound rules under
    /// [`PrepConfig::weighted`](crate::PrepConfig::weighted)).
    /// `None` for rules that ran.
    pub note: Option<&'static str>,
}

impl RuleStats {
    /// Zeroed stats for `name`.
    pub fn new(name: &'static str) -> Self {
        RuleStats {
            name,
            covered: 0,
            excluded: 0,
            passes: 0,
            note: None,
        }
    }

    /// Total vertices this rule eliminated.
    pub fn eliminated(&self) -> u64 {
        self.covered + self.excluded
    }
}

/// One stage of the preprocessing pipeline. Stages are individually
/// toggleable through [`PrepConfig`](crate::PrepConfig) and run
/// round-robin until none of them changes the instance. A rule's pass
/// is skipped while the instance is one the rule is known to leave
/// unchanged (see [`idempotent`](Self::idempotent)).
pub trait ReduceRule {
    /// Display name used in stats and CLI output.
    fn name(&self) -> &'static str;

    /// Runs the rule once over the current state (a rule may iterate to
    /// its own internal fixpoint). Returns whether anything changed.
    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool;

    /// Whether a pass on the state this rule's own last pass left
    /// changes nothing, so that only other rules' eliminations can give
    /// it work again. The default, `false`, re-runs the rule after every
    /// pass that eliminated something, which suits a rule whose
    /// threshold moves with the instance.
    fn idempotent(&self) -> bool {
        false
    }
}

/// Exhaustive degree-0/1/2 elimination — the up-front counterpart of
/// the engine's in-loop rules (Figure 1 lines 14–30):
///
/// * degree 0: the vertex covers nothing — drop it;
/// * degree 1: taking the neighbor is never worse than taking the leaf;
/// * degree 2 in a triangle: two of the triangle must be covered and
///   the two neighbors are never worse.
///
/// With `weighted` set, the degree-1 and degree-2 inclusion shortcuts
/// apply only when the taken vertices cost no more than the vertex
/// they stand in for (`w(u) ≤ w(v)`) — the same gates as the engine's
/// weighted `reduce` (see `parvc_core::reduce`). Degree-0 elimination
/// needs no gate: an isolated vertex is in no minimum-weight cover.
pub struct LowDegreeRule {
    /// Preserve the weighted optimum (gate the inclusion shortcuts).
    pub weighted: bool,
}

impl ReduceRule for LowDegreeRule {
    fn name(&self) -> &'static str {
        "degree-0/1/2"
    }

    /// A pass drains its pools to its own fixpoint.
    fn idempotent(&self) -> bool {
        true
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        // One full scan seeds the per-degree pools; afterwards a vertex
        // can only (re-)enter a rule's range through a degree
        // decrement, and every decrement re-pools it at its new degree.
        // Each round *drains* its pool into the ascending-id snapshot:
        // entries that fail the liveness/degree recheck are stale
        // forever at that degree (degrees only fall), and a degree-2
        // vertex that fails the triangle test keeps the same two
        // neighbors for as long as its degree stays 2, so dropping it
        // is equivalent to the full rescan — while peeling a
        // 100k-vertex chain stays linear instead of quadratic.
        let mut pools = Pools::seed(st);
        let mut changed_any = false;
        loop {
            let mut changed = false;
            while degree_zero_round(st, &mut pools, stats) {
                changed = true;
            }
            while degree_one_round(st, &mut pools, stats, self.weighted) {
                changed = true;
            }
            while degree_two_triangle_round(st, &mut pools, stats, self.weighted) {
                changed = true;
            }
            if !changed {
                return changed_any;
            }
            changed_any = true;
        }
    }
}

/// Candidate vertices per rule degree, in push order and possibly
/// repeated. Each round sorts and deduplicates its drained snapshot,
/// so it is processed in ascending id order — the §IV-D tie-break.
struct Pools {
    by_degree: [Vec<VertexId>; 3],
}

impl Pools {
    fn seed(st: &PrepState<'_>) -> Self {
        let mut by_degree: [Vec<VertexId>; 3] = Default::default();
        for v in st.live_ids() {
            let d = st.degree(v);
            if d <= 2 {
                by_degree[d as usize].push(v);
            }
        }
        Pools { by_degree }
    }

    /// Forces `u` into the cover and re-pools its neighbors whose
    /// degree dropped into rule range.
    fn take_into_cover(&mut self, st: &mut PrepState<'_>, u: VertexId) {
        st.take_into_cover(u);
        for &w in st.graph().neighbors(u) {
            if st.is_live(w) {
                let d = st.degree(w);
                if d <= 2 {
                    self.by_degree[d as usize].push(w);
                }
            }
        }
    }

    /// The pool for `degree`, ascending and without repeats, leaving
    /// it empty.
    fn drain(&mut self, degree: usize) -> Vec<VertexId> {
        let mut snapshot = std::mem::take(&mut self.by_degree[degree]);
        snapshot.sort_unstable();
        snapshot.dedup();
        snapshot
    }
}

fn degree_zero_round(st: &mut PrepState<'_>, pools: &mut Pools, stats: &mut RuleStats) -> bool {
    let mut changed = false;
    for v in pools.drain(0) {
        if st.is_live(v) && st.degree(v) == 0 {
            st.exclude_isolated(v);
            stats.excluded += 1;
            changed = true;
        }
    }
    changed
}

fn degree_one_round(
    st: &mut PrepState<'_>,
    pools: &mut Pools,
    stats: &mut RuleStats,
    weighted: bool,
) -> bool {
    let mut changed = false;
    for v in pools.drain(1) {
        // Recheck: an earlier (smaller-id) application may have removed
        // v's neighbor or isolated v — the §IV-D tie-break.
        if !st.is_live(v) || st.degree(v) != 1 {
            continue;
        }
        let u = st
            .live_neighbors(v)
            .next()
            .expect("degree-one vertex has a live neighbor");
        // Weighted gate: swapping the leaf for its neighbor must not
        // increase the cover weight.
        if weighted && st.graph().weight(u) > st.graph().weight(v) {
            continue;
        }
        pools.take_into_cover(st, u);
        stats.covered += 1;
        changed = true;
    }
    changed
}

fn degree_two_triangle_round(
    st: &mut PrepState<'_>,
    pools: &mut Pools,
    stats: &mut RuleStats,
    weighted: bool,
) -> bool {
    let mut changed = false;
    for v in pools.drain(2) {
        if !st.is_live(v) || st.degree(v) != 2 {
            continue;
        }
        let mut live = st.live_neighbors(v);
        let u = live.next().expect("degree-two vertex has live neighbors");
        let w = live.next().expect("degree-two vertex has live neighbors");
        drop(live);
        // Weighted gate: both triangle partners must cost ≤ w(v) for
        // the swap argument to bound the weight.
        if weighted && st.graph().weight(u).max(st.graph().weight(w)) > st.graph().weight(v) {
            continue;
        }
        // Both are live, so the edge survives iff it existed originally.
        if st.graph().has_edge(u, w) {
            pools.take_into_cover(st, u);
            pools.take_into_cover(st, w);
            stats.covered += 2;
            changed = true;
        }
    }
    changed
}

/// Crown decomposition via the LP / Nemhauser–Trotter relaxation.
///
/// Takes a minimum vertex cover `C` of the bipartite *double cover* of
/// the residual instance (left and right copy per live vertex, each
/// live edge `{u, v}` becoming `{Lu, Rv}` and `{Lv, Ru}`) through the
/// Kőnig construction, and reads off the optimal half-integral LP
/// solution `x_v = |{Lv, Rv} ∩ C| / 2`. The NT theorem gives
/// persistence for any such optimum: every `x_v = 1` vertex is in
/// *some* minimum cover, every `x_v = 0` vertex is avoidable, and the
/// optimum of the residual drops by exactly the number of forced
/// vertices.
///
/// The double cover stays implicit ([`crate::par`]): both copies of
/// `v` are indexed by `v`, and the matching runs on the serial
/// executor from a greedy warm start. `C` is the same for every
/// maximum matching (see the module docs of [`crate::par`]), so the
/// decisions do not depend on which one Hopcroft–Karp finds.
pub struct CrownRule;

impl ReduceRule for CrownRule {
    fn name(&self) -> &'static str {
        "crown (LP/NT)"
    }

    /// After a pass the residual's LP optimum is all-½: its double
    /// cover has a perfect matching, so the Kőnig cover forces and
    /// excludes nothing.
    fn idempotent(&self) -> bool {
        true
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        if st.live_edges() == 0 {
            return false;
        }
        let g = st.graph();
        let copies = {
            let live = |v: VertexId| st.is_live(v);
            let m = par::max_matching(g, &live, &SERIAL, par::Matching::greedy(g, &live));
            par::konig_copies(g, &live, &m)
        };
        let mut changed = false;
        // x = 1: force first — this is what isolates the x = 0 side.
        // Dead vertices read 1, so neither pass touches them.
        for v in g.vertices() {
            if copies[v as usize] == 2 {
                st.take_into_cover(v);
                stats.covered += 1;
                changed = true;
            }
        }
        // x = 0: every remaining neighbor carries x = 1 (LP
        // feasibility), so these are isolated now and safely avoidable.
        for v in g.vertices() {
            if copies[v as usize] == 0 {
                debug_assert_eq!(st.degree(v), 0, "x=0 vertex still has live edges");
                st.exclude_isolated(v);
                stats.excluded += 1;
                changed = true;
            }
        }
        changed
    }
}

/// High-degree (Buss-style) rule against a greedy upper bound: a live
/// vertex whose degree exceeds the size of a *known* cover of the
/// residual must be in every optimal residual cover (excluding it would
/// force all of its neighbors in, already beating the known cover), so
/// it joins the cover.
///
/// This is deliberately stricter than the engine's in-loop
/// `d(v) > best − |S| − 1` threshold: preprocessing must preserve the
/// exact optimum, not merely the ability to improve on `best`.
///
/// Not [`idempotent`](ReduceRule::idempotent): forcing hubs shrinks
/// the greedy bound, which can push more vertices over it.
pub struct HighDegreeRule;

impl ReduceRule for HighDegreeRule {
    fn name(&self) -> &'static str {
        "high-degree"
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        if st.live_edges() == 0 {
            return false;
        }
        // Δ² ≤ |E|: no degree can exceed the greedy bound (see the
        // module docs), so skip the greedy pass.
        let max_degree = st
            .graph()
            .vertices()
            .filter(|&v| st.is_live(v))
            .map(|v| st.degree(v) as u64)
            .max()
            .unwrap_or(0);
        if max_degree * max_degree <= st.live_edges() {
            return false;
        }
        let ub = greedy_cover_upper_bound(st) as i64;
        let snapshot: Vec<VertexId> = st
            .live_ids()
            .into_iter()
            .filter(|&v| st.degree(v) as i64 > ub)
            .collect();
        let mut changed = false;
        // Forcing earlier snapshot entries lowers the residual optimum
        // by exactly, and the snapshot degrees by at most, the number
        // of applications, so the remaining entries stay safe without
        // a degree recheck (see the safety note in the module docs).
        for v in snapshot {
            if !st.is_live(v) {
                continue;
            }
            st.take_into_cover(v);
            stats.covered += 1;
            changed = true;
        }
        changed
    }
}

/// Size of the greedy max-degree cover of the residual instance — the
/// upper bound the high-degree rule compares against. Bucket-queue
/// implementation, `O(|V| + |E| + max_degree)`.
fn greedy_cover_upper_bound(st: &PrepState<'_>) -> u32 {
    let g = st.graph();
    let n = g.num_vertices() as usize;
    // -1 = not part of the residual (or already taken by the greedy).
    let mut deg: Vec<i64> = (0..n as u32)
        .map(|v| {
            if st.is_live(v) {
                st.degree(v) as i64
            } else {
                -1
            }
        })
        .collect();
    let maxd = deg.iter().copied().max().unwrap_or(0).max(0) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); maxd + 1];
    for (v, &d) in deg.iter().enumerate() {
        if d > 0 {
            buckets[d as usize].push(v as VertexId);
        }
    }
    let mut cover = 0u32;
    let mut d = maxd;
    while d >= 1 {
        let Some(v) = buckets[d].pop() else {
            d -= 1;
            continue;
        };
        if deg[v as usize] != d as i64 {
            continue; // stale entry: the vertex was re-bucketed lower
        }
        deg[v as usize] = -1;
        cover += 1;
        for &u in g.neighbors(v) {
            if deg[u as usize] > 0 {
                deg[u as usize] -= 1;
                if deg[u as usize] > 0 {
                    buckets[deg[u as usize] as usize].push(u);
                }
            }
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::{gen, matching};

    fn run(rule: &mut dyn ReduceRule, st: &mut PrepState<'_>) -> RuleStats {
        let mut stats = RuleStats::new(rule.name());
        while rule.apply(st, &mut stats) {}
        st.check_consistency().unwrap();
        stats
    }

    #[test]
    fn low_degree_solves_paths_and_stars() {
        let g = gen::path(10);
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.live_vertices(), 0);
        assert_eq!(st.forced().len(), 5); // optimal for P10

        let g = gen::star(8);
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[0], "the hub joins the cover");
        assert_eq!(st.live_vertices(), 0);
    }

    #[test]
    fn low_degree_conflict_resolution_matches_reduce() {
        // Isolated edge: both endpoints degree one; vertex 0 acts first,
        // covering its neighbor 1 — the §IV-D tie-break.
        let g = parvc_graph::CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[1]);
        assert_eq!(st.excluded(), &[0]);
    }

    #[test]
    fn triangle_rule_takes_the_partners() {
        // K3: only the smallest id applies; its neighbors {1,2} join.
        let g = gen::complete(3);
        let mut st = PrepState::new(&g);
        let stats = run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[1, 2]);
        assert_eq!(stats.covered, 2);
    }

    #[test]
    fn crown_clears_stars_and_leaves_cycles_alone() {
        // Star: LP puts x=1 on the hub, x=0 on the leaves.
        let g = gen::star(9);
        let mut st = PrepState::new(&g);
        let stats = run(&mut CrownRule, &mut st);
        assert_eq!(st.forced(), &[0]);
        assert_eq!(stats.excluded, 8);
        assert_eq!(st.live_vertices(), 0);

        // Odd cycle: all-half is the unique LP optimum — nothing fires.
        let g = gen::cycle(5);
        let mut st = PrepState::new(&g);
        let stats = run(&mut CrownRule, &mut st);
        assert_eq!(stats.eliminated(), 0);
        assert_eq!(st.live_vertices(), 5);
    }

    #[test]
    fn high_degree_takes_outlier_hubs() {
        // A hub joined to 9 leaves that also form a sparse cycle among
        // themselves: greedy UB is small, hub degree exceeds it.
        let mut edges: Vec<(u32, u32)> = (1..10).map(|v| (0, v)).collect();
        edges.extend((1..9).map(|v| (v, v + 1)));
        let g = parvc_graph::CsrGraph::from_edges(10, &edges).unwrap();
        let mut st = PrepState::new(&g);
        let stats = run(&mut HighDegreeRule, &mut st);
        assert!(st.forced().contains(&0), "hub must be forced");
        assert!(stats.covered >= 1);
    }

    #[test]
    fn idempotent_rules_leave_their_own_output_unchanged() {
        let graphs = (0..12u64).flat_map(|seed| {
            [
                gen::gnp(40, 0.08, seed),
                gen::sparse_components(60, 6, 0.3, seed),
                gen::power_grid_like(80, 12, seed),
                gen::barabasi_albert(50, 2, seed),
                gen::pace_like(60, 5, seed),
            ]
        });
        for g in graphs {
            let rules: [Box<dyn ReduceRule>; 3] = [
                Box::new(LowDegreeRule { weighted: false }),
                Box::new(LowDegreeRule { weighted: true }),
                Box::new(CrownRule),
            ];
            for mut rule in rules {
                assert!(rule.idempotent());
                let mut st = PrepState::new(&g);
                let mut stats = RuleStats::new(rule.name());
                rule.apply(&mut st, &mut stats);
                let live = st.live_vertices();
                assert!(!rule.apply(&mut st, &mut stats), "{}", rule.name());
                assert_eq!(st.live_vertices(), live, "{}", rule.name());
            }
        }
        assert!(!HighDegreeRule.idempotent());
    }

    #[test]
    fn greedy_upper_bound_is_a_cover_size() {
        for seed in 0..6 {
            let g = gen::gnp(30, 0.2, seed);
            let st = PrepState::new(&g);
            let ub = greedy_cover_upper_bound(&st);
            // The greedy bound can never beat the matching lower bound.
            let lb = matching::greedy_maximal_matching(&g).len() as u32;
            assert!(ub >= lb, "seed {seed}: ub {ub} below matching bound {lb}");
            assert!(ub <= g.num_vertices());
        }
    }
}
