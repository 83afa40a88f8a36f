//! Kernelization safety: for **every** rule subset,
//! `lift(prep(G), optimal sub-covers)` must be a valid cover of `G`
//! whose size equals the brute-force optimum — i.e. every pipeline
//! stage is optimum-preserving, alone and in combination, across the
//! gnp/ba/grid/components generator corpus.
//!
//! Reference suites pin prep's fast paths to the constructions they
//! replaced: the crown rule and the LP bounds (Hopcroft–Karp on the
//! implicit double cover) against an explicitly built double cover
//! plus [`matching::konig_cover`], and the one-pass component split
//! against `induced_subgraph` + `connected_components` + one
//! `induced_subgraph` per component.

use parvc::core::brute::brute_force_mvc;
use parvc::core::{is_vertex_cover, Algorithm, Solver};
use parvc::graph::{gen, matching, ops, CsrGraph, GraphBuilder};
use parvc::prep::{
    lp_lower_bound, lp_lower_bound_exec, preprocess, CrownRule, PrepConfig, PrepState, ReduceRule,
    RuleStats,
};
use parvc::simgpu::exec::{ExecutorSpec, SERIAL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All 16 stage subsets: low-degree × crown × high-degree × split.
fn rule_subsets() -> Vec<PrepConfig> {
    (0..16u32)
        .map(|mask| PrepConfig {
            low_degree: mask & 1 != 0,
            crown: mask & 2 != 0,
            high_degree: mask & 4 != 0,
            split_components: mask & 8 != 0,
            ..PrepConfig::default()
        })
        .collect()
}

/// Solves each kernel component exactly (sequential engine, already
/// brute-force-validated elsewhere) and lifts.
fn solve_via_prep(g: &CsrGraph, cfg: &PrepConfig) -> Vec<u32> {
    let kernel = preprocess(g, cfg);
    let solver = Solver::builder().algorithm(Algorithm::Sequential).build();
    let subs: Vec<Vec<u32>> = kernel
        .components
        .iter()
        .map(|inst| solver.solve_mvc(&inst.graph).cover)
        .collect();
    kernel.lift(&subs)
}

/// A random instance from the generator corpus, small enough for the
/// brute-force oracle.
fn arb_corpus_graph() -> impl Strategy<Value = (&'static str, CsrGraph)> {
    (0u8..4, 0u64..1_000).prop_map(|(family, seed)| match family {
        0 => ("gnp", gen::gnp(12 + (seed % 4) as u32, 0.3, seed)),
        1 => ("ba", gen::barabasi_albert(14, 2, seed)),
        2 => (
            "grid",
            gen::grid2d(2 + (seed % 3) as u32, 3 + (seed / 7 % 2) as u32),
        ),
        _ => ("components", gen::sparse_components(15, 3, 0.5, seed)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lift_of_prep_is_an_optimal_cover_for_every_rule_subset(
        (family, g) in arb_corpus_graph()
    ) {
        let (opt, _) = brute_force_mvc(&g);
        for (i, cfg) in rule_subsets().iter().enumerate() {
            let cover = solve_via_prep(&g, cfg);
            prop_assert!(
                is_vertex_cover(&g, &cover),
                "{family} subset {i}: lift produced a non-cover"
            );
            prop_assert_eq!(
                cover.len() as u32,
                opt,
                "{} subset {}: lifted size differs from brute-force optimum",
                family, i
            );
        }
    }

    /// End-to-end: the solver façade with preprocessing on matches the
    /// brute-force optimum through every scheduling policy.
    #[test]
    fn preprocessed_policies_match_brute_force((family, g) in arb_corpus_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        for algorithm in [
            Algorithm::Sequential,
            Algorithm::StackOnly { start_depth: 4 },
            Algorithm::Hybrid,
            Algorithm::WorkStealing,
        ] {
            let solver = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(4))
                .preprocess(PrepConfig::default())
                .build();
            let r = solver.solve_mvc(&g);
            prop_assert_eq!(r.size, opt, "{} with prep on {}", algorithm, family);
            prop_assert!(is_vertex_cover(&g, &r.cover));
        }
    }
}

#[test]
fn prep_stats_consistency_across_named_families() {
    let cases: Vec<(&str, CsrGraph)> = vec![
        ("petersen", gen::petersen()),
        ("paper_example", gen::paper_example()),
        ("grid_4x5", gen::grid2d(4, 5)),
        ("ba_tree", gen::barabasi_albert(400, 1, 3)),
        ("ws", gen::watts_strogatz(60, 4, 0.2, 3)),
        ("components", gen::sparse_components(48, 6, 0.4, 3)),
        ("pace", gen::pace_like(80, 4, 3)),
        ("bipartite", gen::bipartite_gnp(15, 20, 0.2, 3)),
    ];
    for (name, g) in cases {
        let kernel = preprocess(&g, &PrepConfig::default());
        let s = &kernel.stats;
        assert_eq!(
            s.forced + s.excluded + s.kernel_vertices,
            s.original_vertices,
            "{name}: stats must account for every vertex"
        );
        assert_eq!(
            s.kernel_vertices,
            kernel.kernel_vertices(),
            "{name}: stats vs component totals"
        );
        // The lifted forced set alone covers everything outside the
        // kernel components.
        let cover = solve_via_prep(&g, &PrepConfig::default());
        assert!(is_vertex_cover(&g, &cover), "{name}");
    }
}

#[test]
fn trees_are_fully_kernelized() {
    let g = gen::barabasi_albert(5_000, 1, 11);
    let kernel = preprocess(&g, &PrepConfig::default());
    assert!(kernel.is_fully_reduced(), "a tree must kernelize away");
    assert!(kernel.stats.elimination() >= 0.9);
    let cover = kernel.lift(&[]);
    assert!(is_vertex_cover(&g, &cover));
}

/// The Scale::Massive acceptance scenario in-process (the full ≥100k
/// instance runs in the `massive` bench binary; this keeps the shape
/// under test at a tier-1-friendly size): preprocessing + work-stealing
/// proves the optimum on a component-shattered sparse instance.
///
/// No unpreprocessed reference here — solving hundreds of disjoint
/// hard components through one branch-and-bound tree is exactly the
/// multiplicative blowup the decomposition avoids, so the reference is
/// the preprocessed *sequential* solve (the per-component engine is
/// brute-force-validated by the properties above).
#[test]
fn component_instance_prep_agrees_with_reference() {
    let g = gen::sparse_components(4_000, 200, 0.3, 9);
    let prep = Solver::builder()
        .algorithm(Algorithm::WorkStealing)
        .grid_limit(Some(8))
        .preprocess(PrepConfig::default())
        .build()
        .solve_mvc(&g);
    assert!(is_vertex_cover(&g, &prep.cover));
    assert!(!prep.stats.timed_out);
    let reference = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .preprocess(PrepConfig::default())
        .build()
        .solve_mvc(&g);
    assert_eq!(prep.size, reference.size);
    let stats = prep.stats.prep.expect("prep stats recorded");
    assert!(stats.components > 100, "the instance must shatter");

    // A small sibling instance keeps an unpreprocessed cross-check.
    let small = gen::sparse_components(120, 10, 0.4, 9);
    let plain = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&small);
    let kerned = Solver::builder()
        .algorithm(Algorithm::WorkStealing)
        .grid_limit(Some(4))
        .preprocess(PrepConfig::default())
        .build()
        .solve_mvc(&small);
    assert_eq!(plain.size, kerned.size);
}

/// A random instance for the reference suites: sparse and dense
/// families, bipartite ones, and graphs with isolated vertices.
fn reference_graph(family: u8, seed: u64) -> CsrGraph {
    let n = 8 + (seed % 53) as u32;
    match family % 6 {
        0 => gen::gnp(n, 0.08 + (seed % 5) as f64 * 0.06, seed),
        1 => gen::barabasi_albert(n, 1 + (seed % 3) as u32, seed),
        2 => gen::power_grid_like(n, n / 4, seed),
        3 => gen::sparse_components(n, 1 + n / 9, 0.4, seed),
        4 => gen::bipartite_gnp(n / 2, n - n / 2, 0.15, seed),
        _ => ops::disjoint_union(&gen::cycle(3 + (seed % 6) as u32), &gen::gnp(n, 0.05, seed)),
    }
}

/// A random ascending subset of `g`'s vertices (about `keep` of them).
fn random_live(g: &CsrGraph, keep: f64, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    g.vertices().filter(|_| rng.gen_bool(keep)).collect()
}

/// The double cover of `g[live]` built as a graph — the construction
/// prep used before its Hopcroft–Karp ran on the residual CSR: left
/// copy of `live[i]` at `i`, right copy at `|live| + i`.
fn explicit_double_cover(g: &CsrGraph, live: &[u32]) -> CsrGraph {
    let l = live.len() as u32;
    let mut pos = vec![u32::MAX; g.num_vertices() as usize];
    for (i, &v) in live.iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    let mut b = GraphBuilder::new(2 * l);
    for &u in live {
        for &v in g.neighbors(u) {
            if u < v && pos[v as usize] != u32::MAX {
                b.add_edge(pos[u as usize], l + pos[v as usize]).unwrap();
                b.add_edge(pos[v as usize], l + pos[u as usize]).unwrap();
            }
        }
    }
    b.build()
}

/// Crown decisions by the oracle: `(forced, excluded)`, ascending.
fn oracle_crown(g: &CsrGraph, live: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let l = live.len();
    let dc = explicit_double_cover(g, live);
    if dc.num_edges() == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut copies = vec![0u8; l];
    for id in matching::konig_cover(&dc).expect("double cover is bipartite") {
        copies[id as usize % l] += 1;
    }
    let pick = |k: u8| {
        (0..l)
            .filter(|&i| copies[i] == k)
            .map(|i| live[i])
            .collect()
    };
    (pick(2), pick(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One crown pass on a random residual (random vertices already
    /// taken into the cover) forces and excludes exactly what the
    /// explicit double cover's Kőnig cover says.
    #[test]
    fn crown_on_the_implicit_double_cover_matches_the_explicit_one(
        family in 0u8..6,
        seed in 0u64..100_000,
        keep in 0u32..4,
    ) {
        let g = reference_graph(family, seed);
        let mut st = PrepState::new(&g);
        let keep = [1.0, 0.9, 0.7, 0.5][keep as usize];
        let live = random_live(&g, keep, seed ^ 0x5eed);
        let mut is_live = vec![false; g.num_vertices() as usize];
        for &v in &live {
            is_live[v as usize] = true;
        }
        for v in g.vertices().filter(|&v| !is_live[v as usize]) {
            st.take_into_cover(v);
        }
        let (forced, excluded) = oracle_crown(&g, &live);
        let before = st.forced().len();
        let mut stats = RuleStats::new(CrownRule.name());
        let changed = CrownRule.apply(&mut st, &mut stats);
        prop_assert_eq!(&st.forced()[before..], &forced[..], "family {} seed {}", family, seed);
        prop_assert_eq!(st.excluded(), &excluded[..], "family {} seed {}", family, seed);
        prop_assert_eq!(changed, !forced.is_empty() || !excluded.is_empty());
        prop_assert!(st.check_consistency().is_ok());
    }

    /// The LP bound equals the explicit double cover's Kőnig cover
    /// size, halved and rounded up.
    #[test]
    fn lp_bound_matches_the_explicit_double_cover(family in 0u8..6, seed in 0u64..100_000) {
        let g = reference_graph(family, seed);
        let all: Vec<u32> = g.vertices().collect();
        let dc = explicit_double_cover(&g, &all);
        let want = (matching::konig_cover(&dc).unwrap().len() as u64).div_ceil(2);
        prop_assert_eq!(lp_lower_bound(&g), want, "family {} seed {}", family, seed);
        prop_assert_eq!(lp_lower_bound_exec(&g, &SERIAL), want);
    }

    /// The one-pass split equals the three-step construction it
    /// replaced — component order, `old_ids`, rows and weights — on
    /// weighted and unweighted graphs under random live sets.
    #[test]
    fn one_pass_split_matches_induced_subgraph_per_component(
        family in 0u8..6,
        seed in 0u64..100_000,
        keep in 0u32..4,
        weighted in 0u8..2,
    ) {
        let mut g = reference_graph(family, seed);
        if weighted == 1 {
            g = gen::with_uniform_weights(g, 9, seed);
        }
        let live = random_live(&g, [1.0, 0.9, 0.6, 0.3][keep as usize], seed ^ 0x11);
        let (residual, _) = ops::induced_subgraph(&g, &live);
        let (comp_of, count) = ops::connected_components(&residual);
        let mut members = vec![Vec::new(); count as usize];
        for (rid, &c) in comp_of.iter().enumerate() {
            members[c as usize].push(rid as u32);
        }
        let want: Vec<(CsrGraph, Vec<u32>)> = members
            .into_iter()
            .filter(|m| m.len() > 1)
            .map(|m| {
                let (sub, _) = ops::induced_subgraph(&residual, &m);
                (sub, m.iter().map(|&rid| live[rid as usize]).collect())
            })
            .collect();
        let got = ops::induced_components(&g, &live);
        prop_assert_eq!(got.len(), want.len(), "family {} seed {}", family, seed);
        for ((gs, gi), (ws, wi)) in got.iter().zip(&want) {
            prop_assert_eq!(gi, wi);
            prop_assert!(gs == ws, "family {} seed {}: component graphs differ", family, seed);
            prop_assert_eq!(gs.content_hash(), ws.content_hash());
        }
    }
}

/// On graphs of 4,096 vertices and more the pooled executor splits the
/// frontier gathers into chunks — and on the stars, whose thousands of
/// leaves stay free after the greedy warm start, the layer passes too
/// — yet the bound equals the serial one.
#[test]
fn pooled_lp_bound_matches_serial_at_dispatch_scale() {
    let pooled = ExecutorSpec::Pooled { threads: Some(3) }.build();
    let graphs = [
        gen::star(6_000),
        ops::disjoint_union(&gen::star(5_000), &gen::gnp(2_000, 0.002, 3)),
        gen::power_grid_like(6_000, 900, 5),
        gen::sparse_components(8_000, 400, 0.3, 7),
        gen::barabasi_albert(5_000, 2, 9),
        gen::path(4_500),
    ];
    for (i, g) in graphs.iter().enumerate() {
        assert!(g.num_vertices() >= 4_096);
        let serial = lp_lower_bound(g);
        assert_eq!(lp_lower_bound_exec(g, &*pooled), serial, "graph {i}");
        assert_eq!(lp_lower_bound_exec(g, &SERIAL), serial, "graph {i}");
    }
}
