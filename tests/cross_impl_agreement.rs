//! Cross-policy agreement: every scheduling policy of the engine —
//! Sequential, StackOnly, Hybrid, WorkStealing, Batched,
//! ComponentSteal — must
//! produce identical MVC sizes (and consistent PVC answers, and
//! identical weighted-MVC weights) on randomized instances, all
//! validated against the brute-force oracles.

use parvc::core::brute::{brute_force_mvc, weighted_brute_force};
use parvc::core::{is_vertex_cover, Algorithm, PrepConfig, Solver};
use parvc::graph::{gen, CsrGraph};
use proptest::prelude::*;

fn solvers() -> Vec<(&'static str, Solver)> {
    vec![
        (
            "sequential",
            Solver::builder().algorithm(Algorithm::Sequential).build(),
        ),
        (
            "stackonly",
            Solver::builder()
                .algorithm(Algorithm::StackOnly { start_depth: 5 })
                .grid_limit(Some(6))
                .build(),
        ),
        (
            "hybrid",
            Solver::builder()
                .algorithm(Algorithm::Hybrid)
                .grid_limit(Some(6))
                .build(),
        ),
        (
            "worksteal",
            Solver::builder()
                .algorithm(Algorithm::WorkStealing)
                .grid_limit(Some(6))
                .build(),
        ),
        (
            "batch",
            Solver::builder()
                .algorithm(Algorithm::Batched)
                .grid_limit(Some(6))
                .build(),
        ),
        (
            "compsteal",
            Solver::builder()
                .algorithm(Algorithm::ComponentSteal)
                .grid_limit(Some(6))
                .build(),
        ),
    ]
}

/// Arbitrary simple graph on up to 14 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (4u32..=14).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..40).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            CsrGraph::from_edges(n, &edges).expect("filtered edges are valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_implementations_find_the_optimum(g in arb_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        for (name, solver) in solvers() {
            let r = solver.solve_mvc(&g);
            prop_assert_eq!(r.size, opt, "{} disagrees with brute force", name);
            prop_assert!(is_vertex_cover(&g, &r.cover), "{} returned a non-cover", name);
            prop_assert_eq!(r.cover.len() as u32, r.size, "{} cover/size mismatch", name);
        }
    }

    #[test]
    fn pvc_answers_match_the_optimum(g in arb_graph(), dk in 0u32..3) {
        let (opt, _) = brute_force_mvc(&g);
        // Query around the optimum: k < opt must fail, k >= opt succeed.
        let k = (opt + dk).saturating_sub(1);
        for (name, solver) in solvers() {
            let r = solver.solve_pvc(&g, k);
            if k >= opt {
                let cover = r.cover.expect("feasible k must yield a cover");
                prop_assert!(cover.len() as u32 <= k, "{} cover exceeds k", name);
                prop_assert!(is_vertex_cover(&g, &cover), "{} returned a non-cover", name);
            } else {
                prop_assert!(r.cover.is_none(), "{} found an impossible cover", name);
            }
        }
    }

    /// Weighted agreement on arbitrary graphs: every policy matches
    /// the weighted oracle, using Sequential as the cross-check.
    #[test]
    fn weighted_mode_agrees_across_policies(g in arb_graph(), wseed in 0u64..1000) {
        let g = gen::with_uniform_weights(g, 10, wseed);
        let (opt, _) = weighted_brute_force(&g);
        for (name, solver) in solvers() {
            let solver = Solver::builder()
                .algorithm(solver.algorithm())
                .grid_limit(Some(6))
                .weighted()
                .build();
            let r = solver.solve_mvc(&g);
            prop_assert_eq!(r.weight, opt, "{} disagrees with the weighted oracle", name);
            prop_assert!(is_vertex_cover(&g, &r.cover), "{} returned a non-cover", name);
            prop_assert_eq!(r.weight, g.cover_weight(&r.cover), "{} weight/cover mismatch", name);
        }
    }

    #[test]
    fn mis_complements_mvc(g in arb_graph()) {
        let solver = Solver::builder().algorithm(Algorithm::Sequential).build();
        let mis = solver.solve_mis(&g);
        let mvc = solver.solve_mvc(&g);
        prop_assert_eq!(mis.size + mvc.size, g.num_vertices());
        prop_assert!(parvc::core::is_independent_set(&g, &mis.set));
    }
}

/// A random instance from the generator corpus the engine's policies
/// must agree on: G(n,p), Barabási–Albert, 2-D grids, and sparse
/// multi-component graphs (the families with the most dissimilar
/// search-tree shapes).
fn arb_corpus_graph() -> impl Strategy<Value = (&'static str, CsrGraph)> {
    (0u8..4, 0u64..1_000).prop_map(|(family, seed)| match family {
        0 => ("gnp", gen::gnp(20 + (seed % 15) as u32, 0.25, seed)),
        1 => ("ba", gen::barabasi_albert(30 + (seed % 20) as u32, 3, seed)),
        2 => (
            "grid",
            gen::grid2d(3 + (seed % 4) as u32, 3 + (seed / 7 % 4) as u32),
        ),
        _ => (
            "components",
            gen::sparse_components(36 + (seed % 12) as u32, 5, 0.35, seed),
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: every scheduling policy returns the
    /// same optimal MVC size and a verified cover across the corpus —
    /// with kernelization **off and on** — using Sequential (itself
    /// brute-force-validated above) as the reference.
    #[test]
    fn all_policies_agree_across_generator_corpus((family, g) in arb_corpus_graph()) {
        let reference = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        prop_assert!(is_vertex_cover(&g, &reference.cover), "sequential non-cover on {}", family);
        for (name, solver) in solvers() {
            let algorithm = solver.algorithm();
            let r = solver.solve_mvc(&g);
            prop_assert_eq!(r.size, reference.size, "{} vs sequential on {}", name, family);
            prop_assert!(is_vertex_cover(&g, &r.cover), "{} non-cover on {}", name, family);
            prop_assert_eq!(r.cover.len() as u32, r.size, "{} cover/size mismatch", name);

            let prepped = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(6))
                .preprocess(PrepConfig::default())
                .build()
                .solve_mvc(&g);
            prop_assert_eq!(
                prepped.size, reference.size,
                "{} (prep) vs sequential on {}", name, family
            );
            prop_assert!(
                is_vertex_cover(&g, &prepped.cover),
                "{} (prep) non-cover on {}", name, family
            );
        }
    }
}

#[test]
fn agreement_on_every_named_family() {
    let cases: Vec<(&str, CsrGraph)> = vec![
        ("petersen", gen::petersen()),
        ("paper_example", gen::paper_example()),
        ("grid_4x5", gen::grid2d(4, 5)),
        ("p_hat_comp", gen::p_hat_complement(40, 2, 3)),
        ("ba", gen::barabasi_albert(60, 3, 3)),
        ("ws", gen::watts_strogatz(50, 4, 0.2, 3)),
        ("geometric", gen::random_geometric(50, 0.18, 3)),
        ("bipartite", gen::bipartite_gnp(15, 20, 0.2, 3)),
        ("components", gen::sparse_components(48, 6, 0.4, 3)),
        ("pace", gen::pace_like(60, 4, 3)),
        ("regular3", gen::random_regular(40, 3, 3)),
        ("regular4", gen::random_regular(36, 4, 3)),
    ];
    for (name, g) in cases {
        let seq = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        for (impl_name, solver) in solvers() {
            let r = solver.solve_mvc(&g);
            assert_eq!(r.size, seq.size, "{impl_name} vs sequential on {name}");
            assert!(
                is_vertex_cover(&g, &r.cover),
                "{impl_name} non-cover on {name}"
            );
        }
    }
}

/// The mode-separation regression: a graph whose weighted optimum
/// differs from its unweighted one in *both* objective and witness
/// size, so a solver that silently runs the wrong mode cannot pass
/// either assertion. Two expensive bridged hubs, each with cheap
/// leaves: cardinality takes both hubs (size 2, weight 40); weight
/// keeps one hub for the bridge and swaps the other for its four
/// leaves (size 5, weight 24).
#[test]
fn weighted_optimum_differs_from_unweighted_on_the_regression_instance() {
    let mut edges: Vec<(u32, u32)> = (1..5).map(|v| (0, v)).collect(); // hub 0
    edges.extend((6..10).map(|v| (5, v))); // hub 5
    edges.push((0, 5)); // bridge between the hubs
    let g = CsrGraph::from_edges(10, &edges)
        .unwrap()
        .with_weights(vec![20, 1, 1, 1, 1, 20, 1, 1, 1, 1])
        .unwrap();
    let (w_opt, _) = weighted_brute_force(&g);
    let (c_opt, _) = brute_force_mvc(&g);
    assert_eq!(c_opt, 2, "cardinality: the two hubs");
    assert_eq!(
        w_opt, 24,
        "weight: one hub for the bridge + the other's leaves"
    );
    assert_ne!(
        w_opt, c_opt as u64,
        "the construction must separate the modes"
    );

    for (name, solver) in solvers() {
        let algorithm = solver.algorithm();
        let cardinality = solver.solve_mvc(&g);
        assert_eq!(cardinality.size, c_opt, "{name} (cardinality)");
        assert_eq!(cardinality.weight, 40, "{name}: two weight-20 hubs");

        for prep in [false, true] {
            let mut b = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(6))
                .weighted();
            if prep {
                b = b.preprocess(PrepConfig::default());
            }
            let weighted = b.build().solve_mvc(&g);
            assert_eq!(weighted.weight, w_opt, "{name} (weighted, prep={prep})");
            assert!(
                weighted.size > cardinality.size,
                "{name}: the weighted witness must be the bigger cover"
            );
            assert!(is_vertex_cover(&g, &weighted.cover), "{name}");
        }
    }
}

#[test]
fn stackonly_depths_agree() {
    let g = gen::p_hat_complement(50, 2, 9);
    let expect = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&g)
        .size;
    for depth in [0, 1, 3, 7, 10] {
        let solver = Solver::builder()
            .algorithm(Algorithm::StackOnly { start_depth: depth })
            .grid_limit(Some(4))
            .build();
        assert_eq!(solver.solve_mvc(&g).size, expect, "start_depth {depth}");
    }
}

#[test]
fn hybrid_grid_sizes_agree() {
    let g = gen::barabasi_albert(70, 4, 11);
    let expect = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&g)
        .size;
    for grid in [1, 2, 8, 24] {
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(grid))
            .build();
        assert_eq!(solver.solve_mvc(&g).size, expect, "grid {grid}");
    }
}

#[test]
fn batch_sizes_and_grids_agree() {
    // Hybrid (batch 1) and Batched (batch 8) must stay exact across
    // grid widths, and the batched hand-off must actually engage on a
    // multi-block run (the search tree must be deep enough for the
    // local stack to fill a batch).
    let g = gen::p_hat_complement(60, 2, 5);
    let expect = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&g)
        .size;
    for algorithm in [Algorithm::Hybrid, Algorithm::Batched] {
        for grid in [1, 4, 8] {
            let r = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(grid))
                .build()
                .solve_mvc(&g);
            assert_eq!(r.size, expect, "{algorithm} grid {grid}");
            assert!(is_vertex_cover(&g, &r.cover));
            if algorithm == Algorithm::Batched && grid == 8 {
                let donated: u64 = r.stats.report.blocks.iter().map(|b| b.nodes_donated).sum();
                assert!(donated > 0, "batched policy never handed off a batch");
            }
        }
    }
}

#[test]
fn worksteal_grid_sizes_agree() {
    let g = gen::barabasi_albert(70, 4, 11);
    let expect = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&g)
        .size;
    for grid in [1, 2, 8, 24] {
        let solver = Solver::builder()
            .algorithm(Algorithm::WorkStealing)
            .grid_limit(Some(grid))
            .build();
        assert_eq!(solver.solve_mvc(&g).size, expect, "grid {grid}");
    }
}

/// Many small kernel components at grid 8: the solver's component pool
/// searches them on several blocks at once, under every multi-block
/// policy. The optimum must match `seq`'s, and a solve whose deadline
/// has already passed must still return a valid cover (each component
/// falls back to its seed) and report the timeout instead of hanging.
#[test]
fn pooled_components_agree_and_time_out_cleanly() {
    let policies = [
        Algorithm::StackOnly { start_depth: 8 },
        Algorithm::Hybrid,
        Algorithm::WorkStealing,
        Algorithm::Batched,
        Algorithm::ComponentSteal,
    ];
    let prep = |a: Algorithm| {
        Solver::builder()
            .algorithm(a)
            .grid_limit(Some(8))
            .preprocess(PrepConfig::default())
    };
    for seed in [1u64, 2, 3, 4] {
        let g = gen::sparse_components(3_000, 150, 0.3, seed);
        let opt = prep(Algorithm::Sequential).build().solve_mvc(&g).size;
        for algorithm in policies {
            let r = prep(algorithm).build().solve_mvc(&g);
            assert_eq!(r.size, opt, "{algorithm} seed {seed}");
            assert!(is_vertex_cover(&g, &r.cover), "{algorithm} seed {seed}");
        }
    }
    let g = gen::sparse_components(3_000, 150, 0.3, 1);
    for algorithm in policies {
        let r = prep(algorithm)
            .deadline(Some(std::time::Duration::ZERO))
            .build()
            .solve_mvc(&g);
        assert!(r.stats.timed_out, "{algorithm}: the deadline was not hit");
        assert!(is_vertex_cover(&g, &r.cover), "{algorithm}: not a cover");
    }
}
