//! Safety of the approximate tier (`parvc_core::approx`):
//!
//! * every cover it returns is valid and within 2× of the brute-force
//!   optimum (cardinality *and* weighted) across the generator corpus;
//! * its lower-bound certificate (matching size / primal-dual dual)
//!   never exceeds the optimum, and neither does
//!   `parvc_prep::weighted_lower_bound`;
//! * the round counters are executor-invariant: a pooled run
//!   bit-matches a serial run — cover, rounds, and the
//!   `Activity::ApproxMatching` cycle charge — on instances big enough
//!   (≥ 4096 vertices) that the pooled executor really chunks;
//! * the greedy seeds at launch and in every split component keep the
//!   brute-force optimum under every policy.

use parvc::core::approx::{approx_cover, matching_cover_exec, weighted_approx_cover};
use parvc::core::brute::{brute_force_mvc, weighted_brute_force};
use parvc::core::{is_vertex_cover, Algorithm, ExecutorSpec, Solver};
use parvc::graph::{gen, matching, CsrGraph};
use parvc::simgpu::counters::{Activity, BlockCounters};
use parvc::simgpu::exec::SERIAL;

/// The gnp/ba/grid/components small-instance corpus, within
/// brute-force range, in both unweighted and weighted flavors.
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp_sparse", gen::gnp(16, 0.15, 5)),
        ("gnp_dense", gen::gnp(14, 0.4, 9)),
        ("ba", gen::barabasi_albert(16, 2, 3)),
        ("grid", gen::grid2d(4, 4)),
        ("components", gen::sparse_components(18, 3, 0.5, 7)),
    ]
}

fn weighted_corpus() -> Vec<(&'static str, CsrGraph)> {
    corpus()
        .into_iter()
        .enumerate()
        .map(|(i, (name, g))| (name, gen::with_uniform_weights(g, 9, 0xab + i as u64)))
        .collect()
}

#[test]
fn cardinality_covers_are_valid_and_two_approx() {
    for (name, g) in corpus() {
        let mut c = BlockCounters::new(0);
        let a = matching_cover_exec(&g, &SERIAL, &mut c);
        assert!(is_vertex_cover(&g, &a.cover), "{name}: non-cover");
        assert_eq!(a.cost, a.cover.len() as u64, "{name}");
        let (opt, _) = brute_force_mvc(&g);
        assert!(
            a.cost <= 2 * u64::from(opt),
            "{name}: {} > 2 x {opt}",
            a.cost
        );
        assert!(
            a.lower_bound <= u64::from(opt),
            "{name}: certificate {} above optimum {opt}",
            a.lower_bound
        );
        assert!(a.cost <= 2 * a.lower_bound, "{name}: certificate band");
    }
}

#[test]
fn weighted_covers_are_valid_and_two_approx() {
    for (name, g) in weighted_corpus() {
        let mut c = BlockCounters::new(0);
        let a = weighted_approx_cover(&g, &mut c);
        assert!(is_vertex_cover(&g, &a.cover), "{name}: non-cover");
        assert_eq!(a.cost, g.cover_weight(&a.cover), "{name}");
        let (opt, _) = weighted_brute_force(&g);
        assert!(
            a.cost <= 2 * opt,
            "{name}: weight {} > 2 x optimum {opt}",
            a.cost
        );
        assert!(
            a.lower_bound <= opt,
            "{name}: dual {} above optimum {opt}",
            a.lower_bound
        );
    }
}

#[test]
fn lower_bounds_never_exceed_the_optimum() {
    for (name, g) in weighted_corpus() {
        let (opt, _) = weighted_brute_force(&g);
        let dual = matching::primal_dual_cover(&g).dual;
        let lb = parvc::prep::weighted_lower_bound(&g);
        assert!(dual <= opt, "{name}: dual {dual} > optimum {opt}");
        assert!(lb <= opt, "{name}: weighted LB {lb} > optimum {opt}");
        assert!(
            lb >= matching::min_weight_matching_bound(&g),
            "{name}: the combined bound must dominate the matching bound"
        );
    }
}

/// Serial-vs-pooled bit-match on instances big enough that the pooled
/// executor genuinely splits the passes (≥ 4096 vertices, above
/// `MIN_PARALLEL`): same cover, same rounds, same compression, and the
/// same `ApproxMatching` cycle charge.
#[test]
fn round_counters_are_executor_invariant_at_scale() {
    let pooled3 = ExecutorSpec::Pooled { threads: Some(3) }.build();
    let pooled7 = ExecutorSpec::Pooled { threads: Some(7) }.build();
    for (name, g) in [
        ("ba_large", gen::barabasi_albert(5000, 2, 11)),
        ("gnp_large", gen::gnp(4500, 0.001, 13)),
    ] {
        assert!(g.num_vertices() >= 4096, "{name}: instance too small");
        let mut serial_c = BlockCounters::new(0);
        let reference = matching_cover_exec(&g, &SERIAL, &mut serial_c);
        assert!(is_vertex_cover(&g, &reference.cover), "{name}");
        // The executor version must also bit-match the serial
        // reference algorithm in the graph crate.
        let hs = matching::handshake_matching(&g, parvc::core::approx::COMPRESS_BELOW);
        assert_eq!(reference.rounds, hs.rounds, "{name}: reference rounds");
        assert_eq!(
            reference.lower_bound,
            hs.matching.len() as u64,
            "{name}: reference matching size"
        );
        for (exec_name, exec) in [("pooled:3", &pooled3), ("pooled:7", &pooled7)] {
            let mut c = BlockCounters::new(0);
            let got = matching_cover_exec(&g, &**exec, &mut c);
            assert_eq!(got.cover, reference.cover, "{name}/{exec_name}: cover");
            assert_eq!(got.rounds, reference.rounds, "{name}/{exec_name}: rounds");
            assert_eq!(
                got.compressed, reference.compressed,
                "{name}/{exec_name}: compression"
            );
            assert_eq!(
                c.cycles(Activity::ApproxMatching),
                serial_c.cycles(Activity::ApproxMatching),
                "{name}/{exec_name}: cycle charge must be executor-invariant"
            );
        }
    }
}

/// The seeds set the starting bound, never the optimum: every policy,
/// both modes, with component branching exercising the split-path
/// seeds too.
#[test]
fn greedy_seeds_preserve_the_optimum_under_every_policy() {
    let policies = [
        ("sequential", Algorithm::Sequential),
        ("stackonly", Algorithm::StackOnly { start_depth: 4 }),
        ("hybrid", Algorithm::Hybrid),
        ("worksteal", Algorithm::WorkStealing),
        ("compsteal", Algorithm::ComponentSteal),
    ];
    let solver = |alg: Algorithm, weighted: bool| {
        let mut b = Solver::builder()
            .algorithm(alg)
            .grid_limit(Some(2))
            .component_branching(true);
        if weighted {
            b = b.weighted();
        }
        b.build()
    };
    for (name, g) in weighted_corpus() {
        let (opt, _) = weighted_brute_force(&g);
        let (card_opt, _) = brute_force_mvc(&g);
        for (policy, alg) in policies {
            let w = solver(alg, true).solve_mvc(&g);
            assert_eq!(w.weight, opt, "{name}/{policy}: weighted optimum");
            assert!(is_vertex_cover(&g, &w.cover), "{name}/{policy}");
            let u = solver(alg, false).solve_mvc(&g);
            assert_eq!(u.size, card_opt, "{name}/{policy}: cardinality optimum");
        }
    }
}

/// The dispatcher respects the mode and the timed-out greedy fallback
/// verifies (satellite regression riding with the suite).
#[test]
fn timed_out_seeds_still_verify() {
    use std::time::Duration;
    for (name, g) in weighted_corpus() {
        let deadline = parvc::core::shared::Deadline::new(Some(Duration::ZERO));
        let (weight, cover) = parvc::core::greedy::greedy_weighted_mvc_bounded(&g, &deadline);
        assert!(is_vertex_cover(&g, &cover), "{name}: timed-out non-cover");
        assert_eq!(weight, g.cover_weight(&cover), "{name}");
        let mut c = BlockCounters::new(0);
        let a = approx_cover(&g, true, &SERIAL, &mut c);
        assert!(
            a.cost <= 2 * a.lower_bound,
            "{name}: approx must keep its band even where greedy times out"
        );
    }
}
