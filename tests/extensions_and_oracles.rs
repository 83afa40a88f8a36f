//! The matching lower bound, on by default, must preserve exactness
//! and never grow the search tree — and the Kőnig-theorem polynomial
//! oracle lets us check all solvers on bipartite instances far beyond
//! brute force.

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
        for ext in [Extensions::NONE, Extensions::default()] {
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
            .grid_limit(Some(4))
            .build();
        if opt > 0 {
            prop_assert!(!solver.solve_pvc(&g, opt - 1).found());
        }
        prop_assert!(solver.solve_pvc(&g, opt).found());
    }
}

/// At one block a sound extra prune only removes subtrees that hold no
/// improving cover, so the incumbents are found in the same order and
/// the tree can only shrink: per instance, `seq` with the matching
/// bound visits no more tree nodes than with the paper's bounds alone,
/// in MVC, PVC at opt − 1 and weighted MVC.
#[test]
fn the_matching_bound_never_explores_more_than_the_paper_bounds() {
    let seq = Solver::builder().algorithm(Algorithm::Sequential);
    let paper = seq.clone().extensions(Extensions::NONE);
    let pairs = [
        (paper.clone().build(), seq.clone().build()),
        (paper.weighted().build(), seq.weighted().build()),
    ];
    let mut corpus = Vec::new();
    for seed in 0..6 {
        corpus.push((
            format!("gnp:26:0.25@{}", seed + 70),
            gen::gnp(26, 0.25, seed + 70),
        ));
        corpus.push((
            format!("phat:50:2@{seed}"),
            gen::p_hat_complement(50, 2, seed),
        ));
    }
    let mut fewer = 0;
    for (name, g) in &corpus {
        let weighted_g = gen::with_uniform_weights(g.clone(), 10, 5);
        let (paper, bound) = &pairs[0];
        let (rp, rb) = (paper.solve_mvc(g), bound.solve_mvc(g));
        assert_eq!(rp.size, rb.size, "{name}: MVC optimum");
        let mut nodes = vec![("MVC", rp.stats.tree_nodes, rb.stats.tree_nodes)];
        if let Some(k) = rp.size.checked_sub(1) {
            let (pp, pb) = (paper.solve_pvc(g, k), bound.solve_pvc(g, k));
            assert!(!pp.found() && !pb.found(), "{name}: PVC at opt - 1");
            nodes.push(("PVC", pp.stats.tree_nodes, pb.stats.tree_nodes));
        }
        let (paper, bound) = &pairs[1];
        let (wp, wb) = (paper.solve_mvc(&weighted_g), bound.solve_mvc(&weighted_g));
        assert_eq!(wp.weight, wb.weight, "{name}: weighted optimum");
        nodes.push(("weighted", wp.stats.tree_nodes, wb.stats.tree_nodes));
        for (mode, without, with) in nodes {
            assert!(
                with <= without,
                "{name} {mode}: {with} tree nodes with the bound > {without} without"
            );
            fewer += usize::from(with < without);
        }
    }
    assert!(fewer > 0, "the bound never pruned a node");
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
    let solver = Solver::builder().algorithm(Algorithm::Sequential).build();
    let r = solver.solve_mvc(&g);
    assert_eq!(r.size, 30);
}
