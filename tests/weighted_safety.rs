//! Safety of the **weighted MVC** mode: the engine must reproduce the
//! `weighted_brute_force` oracle under every scheduling policy, with
//! preprocessing off and on, across the generator corpus with uniform
//! random weights in `1..=10` — and a weighted run over all-1 weights
//! must match the unweighted `SearchMode::Mvc` cover sizes exactly
//! (unit-weight equivalence), so a silent unit mix-up in either
//! direction cannot pass.

use parvc::core::brute::{brute_force_mvc, weighted_brute_force};
use parvc::core::{is_vertex_cover, Algorithm, PrepConfig, Solver};
use parvc::graph::{gen, CsrGraph};
use proptest::prelude::*;

/// Every scheduling policy of the engine.
fn policies() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("sequential", Algorithm::Sequential),
        ("stackonly", Algorithm::StackOnly { start_depth: 4 }),
        ("hybrid", Algorithm::Hybrid),
        ("worksteal", Algorithm::WorkStealing),
        ("compsteal", Algorithm::ComponentSteal),
    ]
}

fn weighted_solver(algorithm: Algorithm, prep: bool) -> Solver {
    let mut b = Solver::builder()
        .algorithm(algorithm)
        .grid_limit(Some(6))
        .weighted();
    if prep {
        b = b.preprocess(PrepConfig::default());
    }
    b.build()
}

/// A corpus instance (gnp/ba/grid/components — the families with the
/// most dissimilar search trees) with uniform random weights in
/// `1..=10`, kept small enough for the subset-enumeration oracle.
fn arb_weighted_corpus_graph() -> impl Strategy<Value = (&'static str, CsrGraph)> {
    (0u8..4, 0u64..1_000).prop_map(|(family, seed)| {
        let (name, g) = match family {
            0 => ("gnp", gen::gnp(14 + (seed % 6) as u32, 0.25, seed)),
            1 => ("ba", gen::barabasi_albert(15 + (seed % 5) as u32, 2, seed)),
            2 => (
                "grid",
                gen::grid2d(3 + (seed % 2) as u32, 3 + (seed / 7 % 3) as u32),
            ),
            _ => (
                "components",
                gen::sparse_components(16 + (seed % 4) as u32, 4, 0.4, seed),
            ),
        };
        (name, gen::with_uniform_weights(g, 10, seed ^ 0xabcd))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: engine == weighted brute force for all
    /// five policies, prep-off AND prep-on, weights ∈ {1..10}.
    #[test]
    fn engine_matches_weighted_brute_force((family, g) in arb_weighted_corpus_graph()) {
        let (opt, _) = weighted_brute_force(&g);
        for (name, algorithm) in policies() {
            for prep in [false, true] {
                let r = weighted_solver(algorithm, prep).solve_mvc(&g);
                prop_assert_eq!(
                    r.weight, opt,
                    "{} (prep={}) vs weighted brute force on {}", name, prep, family
                );
                prop_assert!(
                    is_vertex_cover(&g, &r.cover),
                    "{} (prep={}) non-cover on {}", name, prep, family
                );
                prop_assert_eq!(r.weight, g.cover_weight(&r.cover));
                prop_assert_eq!(r.size as usize, r.cover.len());
            }
        }
    }

    /// Unit-weight equivalence: a weighted run over all-1 weights must
    /// report the same cover size as the unweighted `SearchMode::Mvc`
    /// traversal on the same instance, for every policy — the two
    /// modes' arithmetic is identical at weight 1, so any divergence
    /// is a unit bug.
    #[test]
    fn unit_weights_bit_match_the_unweighted_mode((family, g) in arb_weighted_corpus_graph()) {
        let plain = g.clone().without_weights();
        let unit = plain
            .clone()
            .with_weights(vec![1; plain.num_vertices() as usize])
            .expect("unit weights are valid");
        let (opt, _) = brute_force_mvc(&plain);
        for (name, algorithm) in policies() {
            let unweighted = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(6))
                .build()
                .solve_mvc(&plain);
            let weighted = weighted_solver(algorithm, false).solve_mvc(&unit);
            prop_assert_eq!(
                weighted.weight, opt as u64,
                "{} weighted(all-1) vs brute force on {}", name, family
            );
            prop_assert_eq!(
                weighted.size, unweighted.size,
                "{} unit-weight size mismatch on {}", name, family
            );
            prop_assert_eq!(weighted.weight, weighted.size as u64);
            prop_assert!(is_vertex_cover(&plain, &weighted.cover));
        }
    }
}

/// The weighted optimum on a graph the cardinality mode gets "wrong":
/// an expensive hub forces the weighted solver away from the size-1
/// cover, under every policy and through prep — a mode mix-up (weight
/// arithmetic silently falling back to cardinality) cannot pass.
#[test]
fn expensive_hub_separates_the_modes() {
    let g = gen::star(8)
        .with_weights(vec![50, 1, 1, 1, 1, 1, 1, 1])
        .unwrap();
    let (opt, _) = weighted_brute_force(&g);
    assert_eq!(opt, 7, "seven weight-1 leaves beat the weight-50 hub");
    assert_eq!(
        brute_force_mvc(&g).0,
        1,
        "cardinality still prefers the hub"
    );
    for (name, algorithm) in policies() {
        for prep in [false, true] {
            let r = weighted_solver(algorithm, prep).solve_mvc(&g);
            assert_eq!(r.weight, 7, "{name} (prep={prep})");
            assert_eq!(r.size, 7, "{name} (prep={prep})");
            assert!(is_vertex_cover(&g, &r.cover));
        }
    }
}

/// Weighted solves through in-search component branching: every
/// policy (ComponentSteal donates whole components) must stay exact
/// on a multi-component weighted instance.
#[test]
fn weighted_component_branching_stays_exact() {
    for seed in 0..3u64 {
        let g = gen::with_uniform_weights(gen::sparse_components(18, 4, 0.45, seed), 10, seed);
        let (opt, _) = weighted_brute_force(&g);
        for (name, algorithm) in policies() {
            let r = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(6))
                .weighted()
                .component_branching(true)
                .build()
                .solve_mvc(&g);
            assert_eq!(r.weight, opt, "{name} (split) seed {seed}");
            assert!(is_vertex_cover(&g, &r.cover), "{name} seed {seed}");
        }
    }
}

/// Weighted mode composes with the matching lower bound (on by
/// default; it runs in weight units).
#[test]
fn weighted_extensions_stay_exact() {
    for seed in 0..4u64 {
        let g = gen::with_uniform_weights(gen::gnp(14, 0.3, seed), 10, seed + 99);
        let (opt, _) = weighted_brute_force(&g);
        let r = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .weighted()
            .build()
            .solve_mvc(&g);
        assert_eq!(r.weight, opt, "seed {seed}");
        assert!(is_vertex_cover(&g, &r.cover));
    }
}

/// The degree-weight channel (`w(v) = d(v) + 1`) makes hubs expensive
/// across a whole Barabási–Albert graph — a structured stress for the
/// weight gates, validated against the oracle.
#[test]
fn degree_weights_on_preferential_attachment() {
    for seed in 0..3u64 {
        let g = gen::with_degree_weights(gen::barabasi_albert(16, 2, seed));
        let (opt, _) = weighted_brute_force(&g);
        for (name, algorithm) in policies() {
            let r = weighted_solver(algorithm, false).solve_mvc(&g);
            assert_eq!(r.weight, opt, "{name} seed {seed}");
        }
    }
}
