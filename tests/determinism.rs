//! Determinism guarantees: what must be reproducible, and what may
//! legitimately vary between runs.
//!
//! Deterministic: generators (seeded), the Sequential traversal (fixed
//! child order), reductions (id-ordered rounds), occupancy planning.
//! Nondeterministic by design: the parallel traversals' work order —
//! but never their *answers*.

use parvc::core::{Algorithm, Solver};
use parvc::graph::{gen, io, kcore, ops};

#[test]
fn sequential_solver_is_fully_deterministic() {
    let g = gen::p_hat_complement(70, 2, 55);
    let run = || {
        let r = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        (r.size, r.cover.clone(), r.stats.tree_nodes)
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(
            run(),
            first,
            "sequential traversal must be bit-for-bit repeatable"
        );
    }
}

#[test]
fn parallel_answers_are_stable_across_runs() {
    let g = gen::barabasi_albert(90, 4, 55);
    let expect = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .build()
        .solve_mvc(&g)
        .size;
    for run in 0..4 {
        for algorithm in [Algorithm::Hybrid, Algorithm::StackOnly { start_depth: 5 }] {
            let r = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(8))
                .build()
                .solve_mvc(&g);
            assert_eq!(r.size, expect, "run {run}: {algorithm} answer drifted");
        }
    }
}

#[test]
fn generators_are_run_to_run_stable() {
    // Byte-identical regeneration (the suite's reproducibility rests on
    // this; exact |E| pins live in `suite_fingerprints_match...`).
    assert_eq!(
        gen::p_hat_complement(60, 2, 3075),
        gen::p_hat_complement(60, 2, 3075)
    );
    assert_eq!(gen::pace_like(120, 5, 4), gen::pace_like(120, 5, 4));
    assert_eq!(
        gen::watts_strogatz(100, 4, 0.2, 9),
        gen::watts_strogatz(100, 4, 0.2, 9)
    );
    // BA's edge count is determined analytically, not by the RNG:
    // C(m+1, 2) seed-clique edges + m per later vertex.
    assert_eq!(gen::barabasi_albert(100, 3, 7).num_edges(), 6 + 96 * 3);
}

#[test]
fn suite_fingerprints_match_experiments_doc() {
    // The bench tables print |V|/|E| per suite instance; pin them so
    // a generator or RNG change cannot shift the suite unnoticed.
    use parvc_bench_fingerprints::*;
    for (name, v, e) in EXPECTED {
        let inst = find(name);
        assert_eq!(
            (inst.graph.num_vertices(), inst.graph.num_edges()),
            (*v, *e),
            "instance {name} drifted from the documented shape"
        );
    }
}

/// Tiny helper module so the fingerprint test reads cleanly.
mod parvc_bench_fingerprints {
    pub use parvc_bench::suite::{suite, Instance, Scale};

    pub const EXPECTED: &[(&str, u32, u64)] = &[
        ("p_hat_100_1", 100, 3765),
        ("p_hat_200_3", 200, 4757),
        ("wiki_link_lo_like", 150, 1722),
        ("power_grid_like", 350, 700),
        ("vc_exact_023_like", 170, 584),
        ("vc_exact_009_like", 180, 630),
    ];

    pub fn find(name: &str) -> Instance {
        suite(Scale::Small)
            .into_iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("instance {name} missing from suite"))
    }
}

#[test]
fn dimacs_serialization_is_canonical() {
    // Same graph, two construction orders → identical DIMACS bytes.
    let a = parvc::graph::CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    let b = parvc::graph::CsrGraph::from_edges(5, &[(4, 3), (2, 1), (1, 0)]).unwrap();
    let mut buf_a = Vec::new();
    let mut buf_b = Vec::new();
    io::write_dimacs(&a, "edge", &mut buf_a).unwrap();
    io::write_dimacs(&b, "edge", &mut buf_b).unwrap();
    assert_eq!(buf_a, buf_b);
}

#[test]
fn complement_and_core_are_pure_functions() {
    let g = gen::gnp(50, 0.2, 77);
    assert_eq!(ops::complement(&g), ops::complement(&g));
    assert_eq!(kcore::core_decomposition(&g), kcore::core_decomposition(&g));
}
