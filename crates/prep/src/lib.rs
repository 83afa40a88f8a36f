//! # parvc-prep — kernelization and component decomposition
//!
//! The engine in `parvc-core` applies its reduction rules *per tree
//! node*; on massive sparse graphs the winning move is to shrink the
//! instance **once, up front**. Kernelization is what makes MVC
//! tractable on real-world massive graphs (arXiv 1509.05870), and
//! splitting the remainder into connected components multiplies
//! parallelism: each component is an independent sub-search whose
//! optima simply add up (arXiv 2512.18334).
//!
//! The pipeline is a list of [`ReduceRule`] stages, each individually
//! toggleable through [`PrepConfig`] and reporting into [`PrepStats`]:
//!
//! 1. [`LowDegreeRule`] — exhaustive degree-0/1/2 elimination with the
//!    §IV-D conflict-resolution semantics of `parvc_core::reduce`;
//! 2. [`CrownRule`] — crown decomposition via the LP / Nemhauser–
//!    Trotter relaxation, by Hopcroft–Karp and the Kőnig construction
//!    on the implicit double cover of the residual ([`par`]);
//! 3. [`HighDegreeRule`] — Buss-style elimination against a greedy
//!    upper bound.
//!
//! The stages run round-robin until none of them changes the instance,
//! skipping any stage whose input has not changed since it was last
//! known to be a no-op ([`ReduceRule::idempotent`]). Then the residual
//! is split into connected components in one pass
//! ([`ReducedInstance`]s, relabeled to `0..n` by
//! [`parvc_graph::ops::induced_components`]). The resulting [`Kernel`]
//! carries a [`LiftTrace`]; [`Kernel::lift`] turns one sub-cover per
//! component back into a cover of the original graph, optimal whenever
//! the sub-covers are.
//!
//! Every stage is **optimum-preserving**:
//! `opt(G) = |forced| + Σ_c opt(component_c)`, which the workspace
//! property tests check against brute force for every rule subset.
//!
//! ```
//! use parvc_graph::gen;
//! use parvc_prep::{preprocess, PrepConfig};
//!
//! // A star is fully solved by preprocessing alone.
//! let g = gen::star(10);
//! let kernel = preprocess(&g, &PrepConfig::default());
//! assert!(kernel.is_fully_reduced());
//! assert_eq!(kernel.lift(&[]), vec![0]); // the hub
//! ```
//!
//! Part of the `parvc` workspace — see `ARCHITECTURE.md` at the
//! repository root for the prep → solve → lift data flow.

#![warn(missing_docs)]

mod kernel;
pub mod par;
mod rules;
mod state;

pub use kernel::{Kernel, LiftTrace, ReducedInstance};
pub use par::lp_lower_bound_exec;
pub use rules::{CrownRule, HighDegreeRule, LowDegreeRule, ReduceRule, RuleStats};
pub use state::{PrepState, VertexState};

use parvc_graph::{matching, CsrGraph};

/// The LP / Nemhauser–Trotter lower bound on `g`'s minimum vertex
/// cover: the optimum of the half-integral LP relaxation, rounded up.
///
/// This is the same machinery [`CrownRule`] uses to kernelize — a
/// maximum matching of the bipartite *double cover* of `g`, which by
/// Kőnig's theorem has twice the LP optimum's size, found by the
/// implicit-double-cover Hopcroft–Karp in [`par`] — but exposed as a
/// standalone bound for callers that need a tighter lower bound than a
/// maximal matching: the in-search component branching of `parvc-core`
/// uses it to budget cardinality sibling sub-searches.
/// [`lp_lower_bound_exec`] is the same bound with the layer passes on
/// an executor.
///
/// Dominates the maximal-matching bound on every graph (any matching
/// is a feasible dual solution of the LP), at the cost of a
/// Hopcroft–Karp run on the doubled instance. Cardinality-only: for
/// vertex-weighted objectives use
/// [`parvc_graph::matching::min_weight_matching_bound`], which is
/// weight-sound.
///
/// ```
/// use parvc_graph::gen;
/// use parvc_prep::lp_lower_bound;
///
/// // C5: the LP optimum is 5/2 (all-half), so the bound rounds to 3
/// // — exactly the MVC — where a maximal matching only certifies 2.
/// assert_eq!(lp_lower_bound(&gen::cycle(5)), 3);
/// ```
pub fn lp_lower_bound(g: &CsrGraph) -> u64 {
    lp_lower_bound_exec(g, &parvc_simgpu::exec::SERIAL)
}

/// The weight-sound lower bound on `g`'s minimum **weight** vertex
/// cover: the better of the min-weight matching bound and the
/// primal-dual LP dual value
/// ([`parvc_graph::matching::primal_dual_cover`]).
///
/// Both are sound (a matching's cheaper endpoints must be paid; the
/// dual is feasible for the covering LP, so weak duality bounds every
/// cover), so their maximum is too. The dual strictly wins whenever
/// edges outside the matching can still raise duals (e.g. paths with a
/// heavy middle); taking the max keeps the bound no worse than the old
/// matching-only budget on every instance. The in-search component
/// branching budgets weighted sibling sub-searches with this bound.
///
/// ```
/// use parvc_graph::{matching, CsrGraph};
/// use parvc_prep::weighted_lower_bound;
///
/// // Path 0-1-2, weights (1, 2, 1): the matching bound certifies 1,
/// // the primal-dual dual certifies the true optimum 2.
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)])
///     .unwrap()
///     .with_weights(vec![1, 2, 1])
///     .unwrap();
/// assert_eq!(matching::min_weight_matching_bound(&g), 1);
/// assert_eq!(weighted_lower_bound(&g), 2);
/// ```
pub fn weighted_lower_bound(g: &CsrGraph) -> u64 {
    matching::min_weight_matching_bound(g).max(matching::primal_dual_cover(g).dual)
}

/// Which pipeline stages run, and how long the fixpoint may iterate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepConfig {
    /// Stage 1: exhaustive degree-0/1/2 elimination.
    pub low_degree: bool,
    /// Stage 2: crown decomposition / LP-based Nemhauser–Trotter.
    pub crown: bool,
    /// Stage 3: high-degree rule against a greedy upper bound.
    pub high_degree: bool,
    /// Stage 4: split the kernel into connected components.
    pub split_components: bool,
    /// Safety valve on the outer fixpoint (rarely reached: the rules
    /// monotonically shrink the instance).
    pub max_rounds: u32,
    /// Preserve the **weighted** optimum instead of the cardinality
    /// one. Degree-1/2 inclusion shortcuts gain weight-comparison
    /// gates, and the rules whose safety argument is inherently
    /// cardinality-based — crown/LP-NT (the unweighted double-cover
    /// relaxation) and the Buss high-degree rule (degree vs. a
    /// cardinality upper bound) — are *skipped*, each with an explicit
    /// [`RuleStats::note`] in the report rather than silently
    /// misapplied. Degree-0 and component splitting stay fully active
    /// (an isolated vertex is never in a minimum-weight cover; weights
    /// are carried through the component relabeling).
    pub weighted: bool,
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig {
            low_degree: true,
            crown: true,
            high_degree: true,
            split_components: true,
            max_rounds: 64,
            weighted: false,
        }
    }
}

impl PrepConfig {
    /// A config with every stage disabled except component splitting —
    /// useful as a baseline and in rule-subset tests.
    pub fn split_only() -> Self {
        PrepConfig {
            low_degree: false,
            crown: false,
            high_degree: false,
            split_components: true,
            max_rounds: 1,
            weighted: false,
        }
    }
}

/// Statistics from one [`preprocess`] run.
#[derive(Debug, Clone)]
pub struct PrepStats {
    /// `|V|` of the input graph.
    pub original_vertices: u32,
    /// `|E|` of the input graph.
    pub original_edges: u64,
    /// Total vertices across the kernel components.
    pub kernel_vertices: u32,
    /// Total edges across the kernel components.
    pub kernel_edges: u64,
    /// Vertices forced into the cover by the rules.
    pub forced: u32,
    /// Vertices proven avoidable by the rules (plus edgeless residual
    /// vertices dropped at the split, which no cover needs).
    pub excluded: u32,
    /// Number of kernel components.
    pub components: u32,
    /// Vertices in the largest kernel component.
    pub largest_component: u32,
    /// Outer fixpoint rounds executed, counting the last one, in which
    /// no pass changed the instance (its passes may all be skipped).
    pub rounds: u32,
    /// Per-rule fire counts, in pipeline order.
    pub rules: Vec<RuleStats>,
}

impl PrepStats {
    /// Fraction of the original vertices eliminated before search
    /// (1.0 = the rules solved the instance outright).
    pub fn elimination(&self) -> f64 {
        if self.original_vertices == 0 {
            return 1.0;
        }
        1.0 - self.kernel_vertices as f64 / self.original_vertices as f64
    }
}

/// Runs the staged preprocessing pipeline on `g`.
///
/// The returned [`Kernel`] holds the reduced instance split into
/// connected components plus the [`LiftTrace`] that maps per-component
/// sub-covers back to the original graph (the same walkthrough as
/// `examples/kernelize.rs`, in miniature):
///
/// ```
/// use parvc_graph::{gen, ops};
/// use parvc_prep::{preprocess, PrepConfig};
///
/// // A reduction-fodder path next to two dense communities.
/// let g = ops::disjoint_union(
///     &gen::path(30),
///     &gen::sparse_components(24, 2, 0.9, 7),
/// );
/// let kernel = preprocess(&g, &PrepConfig::default());
///
/// // The path is fully eliminated; the dense communities survive as
/// // independent relabeled sub-instances.
/// assert!(kernel.stats.elimination() > 0.0);
/// assert_eq!(kernel.components.len(), 2);
///
/// // Solving each component (here: its full vertex set — any valid
/// // sub-cover works) lifts back to a cover of the ORIGINAL graph.
/// let sub_covers: Vec<Vec<u32>> = kernel
///     .components
///     .iter()
///     .map(|c| (0..c.graph.num_vertices()).collect())
///     .collect();
/// let cover = kernel.lift(&sub_covers);
/// assert!(g.edges().all(|(u, v)| cover.contains(&u) || cover.contains(&v)));
/// ```
pub fn preprocess(g: &CsrGraph, cfg: &PrepConfig) -> Kernel {
    preprocess_traced(g, cfg, &parvc_obs::NOOP)
}

/// [`preprocess`] with a telemetry sink: records one `"prep"` span per
/// rule pass that ran (named after the rule; a skipped pass records
/// nothing) plus the whole-pipeline span, a
/// `"split"` span around the residual component split, and the
/// headline reduction numbers as gauges. With the no-op sink this is
/// exactly [`preprocess`].
pub fn preprocess_traced(g: &CsrGraph, cfg: &PrepConfig, sink: &dyn parvc_obs::Sink) -> Kernel {
    let t_all = parvc_obs::SpanTimer::start(sink);
    let mut st = PrepState::new(g);
    // Rules whose safety argument only holds for the cardinality
    // objective are *skipped* in weighted mode, each leaving a noted
    // zero-fire stats row so the report shows the decision instead of
    // a silently misapplied rule.
    const WEIGHT_UNSOUND: &str = "skipped: unsound under vertex weights";
    let mut rules: Vec<Box<dyn ReduceRule>> = Vec::new();
    let mut skipped: Vec<RuleStats> = Vec::new();
    if cfg.low_degree {
        rules.push(Box::new(LowDegreeRule {
            weighted: cfg.weighted,
        }));
    }
    if cfg.crown {
        if cfg.weighted {
            let mut s = RuleStats::new(CrownRule.name());
            s.note = Some(WEIGHT_UNSOUND);
            skipped.push(s);
        } else {
            rules.push(Box::new(CrownRule));
        }
    }
    if cfg.high_degree {
        if cfg.weighted {
            let mut s = RuleStats::new(HighDegreeRule.name());
            s.note = Some(WEIGHT_UNSOUND);
            skipped.push(s);
        } else {
            rules.push(Box::new(HighDegreeRule));
        }
    }
    let mut rule_stats: Vec<RuleStats> = rules.iter().map(|r| RuleStats::new(r.name())).collect();

    // Every rule decision removes a live vertex, so the live count is an
    // exact change stamp. `fresh[i]` is the stamp at which rule `i` is
    // known to change nothing: the end of its last pass for an
    // idempotent rule, the start of it for any other. A pass at that
    // stamp is skipped, which leaves every round's outcome, and so the
    // kernel and the round count, as if it had run.
    let mut fresh: Vec<Option<u32>> = vec![None; rules.len()];
    let mut rounds = 0;
    while !rules.is_empty() {
        rounds += 1;
        let mut changed = false;
        for ((rule, stats), fresh) in rules.iter_mut().zip(&mut rule_stats).zip(&mut fresh) {
            let stamp = st.live_vertices();
            if *fresh == Some(stamp) {
                continue;
            }
            stats.passes += 1;
            let before = stats.eliminated();
            let t_pass = parvc_obs::SpanTimer::start(sink);
            if rule.apply(&mut st, stats) {
                changed = true;
            }
            t_pass.finish(sink, "prep", rule.name(), 0, stats.eliminated() - before);
            *fresh = Some(if rule.idempotent() {
                st.live_vertices()
            } else {
                stamp
            });
        }
        if !changed || rounds >= cfg.max_rounds {
            break;
        }
    }
    rule_stats.extend(skipped);
    debug_assert!(st.check_consistency().is_ok());

    let live = st.live_ids();
    let t_split = parvc_obs::SpanTimer::start(sink);
    let components = kernel::split_residual(g, &live, cfg.split_components);
    t_split.finish(sink, "split", "split-residual", 0, components.len() as u64);
    let (forced, excluded) = st.into_decisions();
    let kernel_vertices: u32 = components.iter().map(|c| c.graph.num_vertices()).sum();
    let kernel_edges: u64 = components.iter().map(|c| c.graph.num_edges()).sum();
    let stats = PrepStats {
        original_vertices: g.num_vertices(),
        original_edges: g.num_edges(),
        kernel_vertices,
        kernel_edges,
        forced: forced.len() as u32,
        excluded: g.num_vertices() - kernel_vertices - forced.len() as u32,
        components: components.len() as u32,
        largest_component: components
            .iter()
            .map(|c| c.graph.num_vertices())
            .max()
            .unwrap_or(0),
        rounds,
        rules: rule_stats,
    };
    t_all.finish(sink, "prep", "preprocess", 0, stats.kernel_vertices as u64);
    if sink.enabled() {
        sink.gauge("prep.rounds", rounds as u64);
        sink.gauge("prep.forced", stats.forced as u64);
        sink.gauge("prep.excluded", stats.excluded as u64);
        sink.gauge("prep.components", stats.components as u64);
        for c in &components {
            sink.observe("prep.component_size", c.graph.num_vertices() as u64);
        }
    }
    Kernel {
        components,
        trace: LiftTrace {
            forced,
            excluded,
            original_vertices: g.num_vertices(),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    /// Bitmask brute force for the safety oracle (n ≤ 20).
    fn brute_opt(g: &CsrGraph) -> u32 {
        let n = g.num_vertices();
        assert!(n <= 20, "brute force oracle limited to 20 vertices");
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut best = n;
        for mask in 0u32..(1 << n) {
            let size = mask.count_ones();
            if size >= best {
                continue;
            }
            if edges
                .iter()
                .all(|&(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
            {
                best = size;
            }
        }
        best
    }

    fn is_cover(g: &CsrGraph, cover: &[u32]) -> bool {
        let mut in_cover = vec![false; g.num_vertices() as usize];
        for &v in cover {
            in_cover[v as usize] = true;
        }
        g.edges()
            .all(|(u, v)| in_cover[u as usize] || in_cover[v as usize])
    }

    /// Exhaustively solve the kernel components and lift.
    fn solve_via_prep(g: &CsrGraph, cfg: &PrepConfig) -> Vec<u32> {
        let kernel = preprocess(g, cfg);
        let subs: Vec<Vec<u32>> = kernel
            .components
            .iter()
            .map(|inst| {
                let opt = brute_opt(&inst.graph);
                // Recover a witness of that size.
                let n = inst.graph.num_vertices();
                let edges: Vec<(u32, u32)> = inst.graph.edges().collect();
                (0u32..(1 << n))
                    .find(|mask| {
                        mask.count_ones() == opt
                            && edges
                                .iter()
                                .all(|&(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
                    })
                    .map(|mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect())
                    .expect("a witness of optimal size exists")
            })
            .collect();
        kernel.lift(&subs)
    }

    #[test]
    fn preprocessing_preserves_the_optimum_for_every_rule_subset() {
        let graphs: Vec<(String, CsrGraph)> = (0..4u64)
            .flat_map(|seed| {
                vec![
                    (format!("gnp-{seed}"), gen::gnp(13, 0.3, seed)),
                    (format!("ba-{seed}"), gen::barabasi_albert(14, 2, seed)),
                    (format!("grid-{seed}"), gen::grid2d(3, 4)),
                    (
                        format!("comp-{seed}"),
                        gen::sparse_components(15, 3, 0.5, seed),
                    ),
                ]
            })
            .collect();
        for (name, g) in &graphs {
            let opt = brute_opt(g);
            for mask in 0..8u32 {
                let cfg = PrepConfig {
                    low_degree: mask & 1 != 0,
                    crown: mask & 2 != 0,
                    high_degree: mask & 4 != 0,
                    split_components: true,
                    ..PrepConfig::default()
                };
                let cover = solve_via_prep(g, &cfg);
                assert!(is_cover(g, &cover), "{name} mask {mask}: not a cover");
                assert_eq!(
                    cover.len() as u32,
                    opt,
                    "{name} mask {mask}: lifted cover not optimal"
                );
            }
        }
    }

    /// Bitmask brute force over vertex weights (n ≤ 20).
    fn brute_weighted_opt(g: &CsrGraph) -> u64 {
        let n = g.num_vertices();
        assert!(
            n <= 20,
            "weighted brute force oracle limited to 20 vertices"
        );
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut best: u64 = (0..n).map(|v| g.weight(v)).sum();
        for mask in 0u32..(1 << n) {
            if edges
                .iter()
                .all(|&(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
            {
                let w = (0..n)
                    .filter(|&v| mask & (1 << v) != 0)
                    .map(|v| g.weight(v))
                    .sum();
                best = best.min(w);
            }
        }
        best
    }

    #[test]
    fn weighted_prep_preserves_the_weighted_optimum() {
        // Weighted pipeline: forced + optimally-solved components must
        // reproduce the weighted optimum, with degree-derived weights
        // (hubs expensive — the regime where the unweighted rules
        // would be wrong) and uniform random weights.
        for seed in 0..4u64 {
            for g in [
                parvc_graph::gen::with_degree_weights(parvc_graph::gen::gnp(13, 0.25, seed)),
                parvc_graph::gen::with_uniform_weights(
                    parvc_graph::gen::sparse_components(15, 3, 0.5, seed),
                    10,
                    seed,
                ),
                parvc_graph::gen::with_degree_weights(parvc_graph::gen::barabasi_albert(
                    14, 2, seed,
                )),
            ] {
                let opt = brute_weighted_opt(&g);
                let cfg = PrepConfig {
                    weighted: true,
                    ..PrepConfig::default()
                };
                let kernel = preprocess(&g, &cfg);
                // Components carry the relabeled weights.
                for inst in &kernel.components {
                    for (new, &old) in inst.old_ids.iter().enumerate() {
                        assert_eq!(inst.graph.weight(new as u32), g.weight(old));
                    }
                }
                // Solve each component by weighted brute force, lift.
                let subs: Vec<Vec<u32>> = kernel
                    .components
                    .iter()
                    .map(|inst| {
                        let sub_opt = brute_weighted_opt(&inst.graph);
                        let n = inst.graph.num_vertices();
                        let edges: Vec<(u32, u32)> = inst.graph.edges().collect();
                        (0u32..(1 << n))
                            .find(|mask| {
                                edges
                                    .iter()
                                    .all(|&(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0)
                                    && (0..n)
                                        .filter(|&v| mask & (1 << v) != 0)
                                        .map(|v| inst.graph.weight(v))
                                        .sum::<u64>()
                                        == sub_opt
                            })
                            .map(|mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect())
                            .expect("a witness of optimal weight exists")
                    })
                    .collect();
                let cover = kernel.lift(&subs);
                assert!(is_cover(&g, &cover), "seed {seed}: not a cover");
                assert_eq!(
                    g.cover_weight(&cover),
                    opt,
                    "seed {seed}: weighted prep changed the optimum"
                );
                // The weight-unsound rules must be reported as skipped.
                for r in &kernel.stats.rules {
                    if r.name != "degree-0/1/2" {
                        assert!(r.note.is_some(), "{} ran in weighted mode", r.name);
                        assert_eq!(r.eliminated(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn lp_bound_sandwiches_between_matching_and_optimum() {
        for seed in 0..8 {
            let g = gen::gnp(14, 0.3, seed);
            let lp = lp_lower_bound(&g);
            let matching = parvc_graph::matching::greedy_maximal_matching(&g).len() as u64;
            let opt = brute_opt(&g) as u64;
            assert!(
                lp >= matching,
                "seed {seed}: LP bound {lp} below matching bound {matching}"
            );
            assert!(
                lp <= opt,
                "seed {seed}: LP bound {lp} exceeds optimum {opt}"
            );
        }
        // Odd cycles are the classic case where LP strictly beats
        // matching: ceil(n/2) vs floor(n/2).
        assert_eq!(lp_lower_bound(&gen::cycle(7)), 4);
        assert_eq!(
            parvc_graph::matching::greedy_maximal_matching(&gen::cycle(7)).len(),
            3
        );
        assert_eq!(lp_lower_bound(&CsrGraph::from_edges(5, &[]).unwrap()), 0);
    }

    #[test]
    fn full_pipeline_solves_trees_outright() {
        let g = gen::barabasi_albert(200, 1, 5); // BA with m=1 is a tree
        let kernel = preprocess(&g, &PrepConfig::default());
        assert!(kernel.is_fully_reduced());
        assert!(kernel.stats.elimination() >= 0.999);
        let cover = kernel.lift(&[]);
        assert!(is_cover(&g, &cover));
    }

    #[test]
    fn tree_elimination_scales_to_large_instances() {
        // The Scale::Massive acceptance family in miniature: ≥90%
        // elimination on tree-like graphs, at any size.
        let g = gen::barabasi_albert(50_000, 1, 9);
        let kernel = preprocess(&g, &PrepConfig::default());
        assert!(
            kernel.stats.elimination() >= 0.9,
            "only {:.1}% eliminated",
            kernel.stats.elimination() * 100.0
        );
        assert!(is_cover(
            &g,
            &kernel.lift(&vec![Vec::new(); kernel.components.len()])
        ));
    }

    #[test]
    fn component_split_produces_independent_instances() {
        let g = gen::sparse_components(60, 6, 0.6, 3);
        let kernel = preprocess(
            &g,
            &PrepConfig {
                low_degree: false,
                crown: false,
                high_degree: false,
                ..PrepConfig::default()
            },
        );
        assert!(kernel.components.len() >= 6);
        assert_eq!(kernel.stats.components as usize, kernel.components.len());
        // Relabelings are disjoint and in range.
        let mut seen = vec![false; g.num_vertices() as usize];
        for inst in &kernel.components {
            for &old in &inst.old_ids {
                assert!(!seen[old as usize], "vertex {old} in two components");
                seen[old as usize] = true;
            }
        }
    }

    #[test]
    fn stats_account_for_every_vertex() {
        for seed in 0..4 {
            let g = gen::pace_like(80, 4, seed);
            let kernel = preprocess(&g, &PrepConfig::default());
            let s = &kernel.stats;
            assert_eq!(
                s.forced + s.excluded + s.kernel_vertices,
                s.original_vertices,
                "seed {seed}"
            );
            assert_eq!(s.forced as usize, kernel.trace.forced.len());
            assert!(s.elimination() >= 0.0 && s.elimination() <= 1.0);
        }
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        let empty = CsrGraph::from_edges(0, &[]).unwrap();
        let kernel = preprocess(&empty, &PrepConfig::default());
        assert!(kernel.is_fully_reduced());
        assert_eq!(kernel.lift(&[]), Vec::<u32>::new());
        assert_eq!(kernel.stats.elimination(), 1.0);

        let edgeless = CsrGraph::from_edges(9, &[]).unwrap();
        let kernel = preprocess(&edgeless, &PrepConfig::default());
        assert!(kernel.is_fully_reduced());
        assert_eq!(kernel.lift(&[]), Vec::<u32>::new());
    }
}
