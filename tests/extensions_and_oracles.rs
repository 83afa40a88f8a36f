//! The optional matching lower bound must preserve exactness — and the Kőnig-theorem polynomial oracle lets us
//! check all solvers on bipartite instances far beyond brute force.

use parvc::core::brute::brute_force_mvc;
use parvc::core::{is_vertex_cover, Algorithm, Extensions, Solver};
use parvc::graph::{gen, matching, CsrGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (4u32..=13).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..36).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            CsrGraph::from_edges(n, &edges).expect("filtered edges are valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn extensions_keep_all_algorithms_exact(g in arb_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        for ext in [
            Extensions { matching_lower_bound: true, ..Extensions::NONE },
            Extensions::ALL,
        ] {
            for algorithm in [
                Algorithm::Sequential,
                Algorithm::StackOnly { start_depth: 4 },
                Algorithm::Hybrid,
            ] {
                let solver = Solver::builder()
                    .algorithm(algorithm)
                    .extensions(ext)
                    .grid_limit(Some(4))
                    .build();
                let r = solver.solve_mvc(&g);
                prop_assert_eq!(r.size, opt, "{} with {:?}", algorithm, ext);
                prop_assert!(is_vertex_cover(&g, &r.cover));
            }
        }
    }

    #[test]
    fn extensions_keep_pvc_exact(g in arb_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .extensions(Extensions::ALL)
            .grid_limit(Some(4))
            .build();
        if opt > 0 {
            prop_assert!(!solver.solve_pvc(&g, opt - 1).found());
        }
        prop_assert!(solver.solve_pvc(&g, opt).found());
    }
}

#[test]
fn extensions_never_explore_more_than_baseline_on_average() {
    // The extensions strictly strengthen pruning/reduction, so across a
    // batch of instances total explored nodes must not grow.
    let mut base_nodes = 0u64;
    let mut ext_nodes = 0u64;
    for seed in 0..6 {
        let g = gen::gnp(26, 0.25, seed + 70);
        let base = Solver::builder().algorithm(Algorithm::Sequential).build();
        let ext = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .extensions(Extensions::ALL)
            .build();
        let rb = base.solve_mvc(&g);
        let re = ext.solve_mvc(&g);
        assert_eq!(rb.size, re.size, "seed {seed}");
        base_nodes += rb.stats.tree_nodes;
        ext_nodes += re.stats.tree_nodes;
    }
    assert!(
        ext_nodes <= base_nodes,
        "extensions explored more nodes overall ({ext_nodes} > {base_nodes})"
    );
}

#[test]
fn konig_oracle_validates_solvers_on_large_bipartite_graphs() {
    // 300+ vertex bipartite instances: brute force is hopeless, Kőnig
    // is exact in polynomial time.
    for seed in 0..4 {
        let g = gen::bipartite_gnp(60, 90, 0.08, seed + 11);
        let oracle = matching::konig_cover(&g).expect("bipartite by construction");
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(8))
            .build();
        let r = solver.solve_mvc(&g);
        assert_eq!(
            r.size as usize,
            oracle.len(),
            "seed {seed}: solver disagrees with Kőnig's theorem"
        );
        assert!(is_vertex_cover(&g, &r.cover));
    }
}

#[test]
fn konig_oracle_validates_on_grids_and_forests() {
    // Structured bipartite families with known covers.
    let cases: Vec<CsrGraph> = vec![
        gen::grid2d(7, 9),
        gen::path(101),
        gen::star(64),
        gen::cycle(30),
    ];
    let solver = Solver::builder().algorithm(Algorithm::Sequential).build();
    for g in cases {
        let oracle = matching::konig_cover(&g).expect("bipartite families");
        assert_eq!(solver.solve_mvc(&g).size as usize, oracle.len());
    }
}

#[test]
fn matching_lower_bound_tightens_the_greedy_gap() {
    // On a disjoint union of edges (perfect matching graph), the
    // matching bound makes the root immediately tight: the solver
    // proves optimality after the root node.
    let edges: Vec<(u32, u32)> = (0..30).map(|i| (2 * i, 2 * i + 1)).collect();
    let g = CsrGraph::from_edges(60, &edges).unwrap();
    let solver = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .matching_lower_bound(true)
        .build();
    let r = solver.solve_mvc(&g);
    assert_eq!(r.size, 30);
}
