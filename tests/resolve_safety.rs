//! Incremental re-solve safety property suite.
//!
//! The contract of `parvc_core::resolve` (see its module docs): for
//! ANY edit script, the incremental answer must equal a from-scratch
//! solve of the edited graph — same optimum (size for cardinality,
//! weight for weighted) with a verified cover — while touching only
//! the components the script dirties. The suite pins that across the
//! full solver matrix (all 6 policies × prep on/off × MVC/weighted),
//! on scripts that merge components, split them, and churn at random;
//! plus the PR 7 telemetry contract (a full recording sink must not
//! change a single bit of the result) and the connectivity-reuse
//! guarantee (session labels are built once, not per call).

use parvc::core::{is_vertex_cover, Algorithm, Solver, SolverBuilder, TelemetryConfig};
use parvc::graph::gen;
use parvc::graph::ops::connected_components;
use parvc::graph::{CsrGraph, Edit, EditScript};
use parvc::prep::PrepConfig;

fn policies() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("sequential", Algorithm::Sequential),
        ("stackonly", Algorithm::StackOnly { start_depth: 4 }),
        ("hybrid", Algorithm::Hybrid),
        ("worksteal", Algorithm::WorkStealing),
        ("batched", Algorithm::Batched),
        ("compsteal", Algorithm::ComponentSteal),
    ]
}

/// Small instances spanning the families that stress different edit
/// behaviours: dense-ish random, scale-free, grid (splits into long
/// pieces), and a many-component graph (the reuse showcase).
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp", gen::gnp(24, 0.18, 3)),
        ("ba", gen::barabasi_albert(30, 2, 5)),
        ("grid", gen::grid2d(5, 5)),
        ("components", gen::sparse_components(48, 8, 0.5, 3)),
    ]
}

fn builder(algorithm: Algorithm, prep: bool, weighted: bool) -> SolverBuilder {
    let mut b = Solver::builder().algorithm(algorithm).grid_limit(Some(1));
    if prep {
        b = b.preprocess(PrepConfig::default());
    }
    if weighted {
        b = b.weighted();
    }
    b
}

/// The objective in the solve's own units.
fn objective(r: &parvc::core::MvcResult, weighted: bool) -> u64 {
    if weighted {
        r.weight
    } else {
        r.size as u64
    }
}

/// The tentpole property over the full matrix: 6 policies × prep
/// on/off × MVC/weighted × 4 families, each against a seeded random
/// edit script (insert-heavy scripts merge components, delete-heavy
/// ones split them; the seed varies per cell so the suite samples a
/// spread of both).
#[test]
fn incremental_matches_scratch_across_the_matrix() {
    for (gi, (gname, base)) in corpus().into_iter().enumerate() {
        for (pi, (pname, algorithm)) in policies().into_iter().enumerate() {
            for prep in [false, true] {
                for weighted in [false, true] {
                    let g = if weighted {
                        gen::with_uniform_weights(base.clone(), 9, gi as u64)
                    } else {
                        base.clone()
                    };
                    let seed = (gi * 100 + pi * 10 + prep as usize * 2 + weighted as usize) as u64;
                    // Insert fraction sweeps with the seed so the cell
                    // grid covers merge-heavy and split-heavy scripts.
                    let frac = [0.2, 0.5, 0.8][seed as usize % 3];
                    let edits = gen::edit_script(&g, 12, frac, seed);
                    let ctx = format!("{gname}/{pname}/prep={prep}/weighted={weighted}");

                    let solver = builder(algorithm, prep, weighted).build();
                    let prev = solver.solve_mvc(&g);
                    let r = solver
                        .resolve(&g, &prev, &edits)
                        .unwrap_or_else(|e| panic!("{ctx}: script must apply: {e}"));
                    let scratch = solver.solve_mvc(&r.graph);

                    assert_eq!(
                        objective(&r.result, weighted),
                        objective(&scratch, weighted),
                        "{ctx}: incremental and from-scratch optima differ"
                    );
                    assert!(
                        is_vertex_cover(&r.graph, &r.result.cover),
                        "{ctx}: incremental cover is not a cover of the edited graph"
                    );
                    assert_eq!(
                        r.stats.components_reused + r.stats.components_invalidated,
                        r.stats.components_total,
                        "{ctx}: reuse accounting must partition the components"
                    );
                }
            }
        }
    }
}

/// A session absorbing several consecutive batches stays correct call
/// after call — each round's answer matches a from-scratch solve of
/// that round's graph.
#[test]
fn chained_batches_stay_exact() {
    let g = gen::sparse_components(48, 8, 0.5, 3);
    for (pname, algorithm) in [
        ("sequential", Algorithm::Sequential),
        ("compsteal", Algorithm::ComponentSteal),
    ] {
        let solver = builder(algorithm, false, false).build();
        let prev = solver.solve_mvc(&g);
        let mut session = solver.resolve_session(&g, &prev);
        for round in 0..3u64 {
            let edits = gen::edit_script(session.graph(), 10, 0.5, round * 7 + 1);
            let r = session
                .resolve(&edits)
                .unwrap_or_else(|e| panic!("{pname} round {round}: {e}"));
            let scratch = solver.solve_mvc(&r.graph);
            assert_eq!(r.result.size, scratch.size, "{pname} round {round}");
            assert!(is_vertex_cover(&r.graph, &r.result.cover));
        }
    }
}

/// An insert bridging two components must merge their invalidation
/// sets: both are dirtied, everything else is reused, and the next
/// call sees one fewer component.
#[test]
fn merge_script_invalidates_both_sides() {
    let g = gen::sparse_components(48, 8, 0.5, 3);
    let (label, count) = connected_components(&g);
    // A vertex from component 0 and one from component 1.
    let a = (0..g.num_vertices())
        .find(|&v| label[v as usize] == 0)
        .unwrap();
    let b = (0..g.num_vertices())
        .find(|&v| label[v as usize] == 1)
        .unwrap();

    let solver = builder(Algorithm::Sequential, false, false).build();
    let prev = solver.solve_mvc(&g);
    let mut session = solver.resolve_session(&g, &prev);
    let bridge = EditScript::from_ops(vec![Edit::InsertEdge(a, b)]);
    let r = session.resolve(&bridge).unwrap();
    assert_eq!(r.stats.components_total, count);
    assert_eq!(
        r.stats.components_invalidated, 2,
        "both endpoints' components"
    );
    assert_eq!(r.stats.components_reused, count - 2);
    let scratch = solver.solve_mvc(&r.graph);
    assert_eq!(r.result.size, scratch.size);

    // The merge is visible to the next call: one fewer component.
    let r2 = session.resolve(&EditScript::new()).unwrap();
    assert_eq!(r2.stats.components_total, count - 1);
}

/// Deleting a cut edge splits a component; the relabel step must
/// discover the new pieces (the next call counts one more component)
/// and the answer must stay exact.
#[test]
fn split_script_discovers_new_components() {
    // A 1×10 grid is a path: every edge is a bridge.
    let g = gen::grid2d(1, 10);
    let solver = builder(Algorithm::Sequential, false, false).build();
    let prev = solver.solve_mvc(&g);
    let mut session = solver.resolve_session(&g, &prev);
    let cut = EditScript::from_ops(vec![Edit::DeleteEdge(4, 5)]);
    let r = session.resolve(&cut).unwrap();
    assert_eq!(r.stats.components_total, 1);
    assert_eq!(r.stats.components_invalidated, 1);
    let scratch = solver.solve_mvc(&r.graph);
    assert_eq!(r.result.size, scratch.size);
    assert!(is_vertex_cover(&r.graph, &r.result.cover));

    let r2 = session.resolve(&EditScript::new()).unwrap();
    assert_eq!(
        r2.stats.components_total, 2,
        "the split must be visible after relabeling"
    );
}

/// Builds a small valid script confined to one component: delete one
/// of its edges, then re-insert it (net-zero churn, maximal locality).
fn confined_script(g: &CsrGraph, label: &[u32], comp: u32) -> EditScript {
    let (u, v) = g
        .edges()
        .find(|&(u, _)| label[u as usize] == comp)
        .expect("component has an edge");
    EditScript::from_ops(vec![Edit::DeleteEdge(u, v), Edit::InsertEdge(u, v)])
}

/// The counter-pinned reuse property (satellite of the PR 7 telemetry
/// contract): an edit confined to one component leaves every other
/// component's cached optimum untouched — `components_reused` is
/// asserted exactly — and attaching a full recording sink changes
/// nothing about the result while exposing the resolve span category
/// and reuse counters in the snapshot.
#[test]
fn single_component_edit_reuses_all_others_bit_for_bit() {
    let g = gen::sparse_components(60, 10, 0.5, 7);
    let (label, count) = connected_components(&g);
    let comp = label[0];
    let edits = confined_script(&g, &label, comp);

    // Telemetry off.
    let off = builder(Algorithm::Sequential, false, false).build();
    let prev_off = off.solve_mvc(&g);
    let r_off = off.resolve(&g, &prev_off, &edits).unwrap();

    // Full sink attached.
    let on = builder(Algorithm::Sequential, false, false)
        .telemetry(TelemetryConfig::default())
        .build();
    let prev_on = on.solve_mvc(&g);
    let r_on = on.resolve(&g, &prev_on, &edits).unwrap();

    // Exact reuse accounting: only vertex 0's component re-solved.
    for (ctx, r) in [("off", &r_off), ("on", &r_on)] {
        assert_eq!(r.stats.components_total, count, "{ctx}");
        assert_eq!(r.stats.components_invalidated, 1, "{ctx}");
        assert_eq!(r.stats.components_reused, count - 1, "{ctx}");
    }

    // Bit-match: same optimum, same cover, same reuse stats.
    assert_eq!(r_off.result.size, r_on.result.size);
    assert_eq!(r_off.result.weight, r_on.result.weight);
    assert_eq!(r_off.result.cover, r_on.result.cover);
    assert_eq!(r_off.stats, r_on.stats);
    assert!(r_off.result.stats.telemetry.is_none(), "phantom snapshot");

    // The recording run's snapshot carries the resolve taxonomy.
    let snap = r_on.result.stats.telemetry.as_ref().expect("sink was on");
    assert!(
        snap.span_categories().contains("resolve"),
        "missing resolve spans: {:?}",
        snap.span_categories()
    );
    assert_eq!(
        snap.counters.get("resolve.components_reused").copied(),
        Some((count - 1) as u64),
        "reuse counter must flow into the metrics registry"
    );
    assert_eq!(
        snap.counters.get("resolve.components_invalidated").copied(),
        Some(1)
    );

    // And the cached optima really were reused: the other components'
    // cover vertices are carried over verbatim.
    let untouched: Vec<u32> = prev_off
        .cover
        .iter()
        .copied()
        .filter(|&v| label[v as usize] != comp)
        .collect();
    let carried: Vec<u32> = r_off
        .result
        .cover
        .iter()
        .copied()
        .filter(|&v| label[v as usize] != comp)
        .collect();
    assert_eq!(untouched, carried, "clean components' optima must survive");
}

/// The carried-forward connectivity item: a session reuses its
/// component labels across calls (one full build at construction,
/// localized relabels after). The reference each round is a fresh
/// session opened on the previous round's graph and result, which
/// labels the whole graph again: one full build per call. Asserted on
/// the bench suite's `massive_components` instance.
#[test]
fn label_reuse_beats_rebuild_baseline_on_massive_components() {
    // bench/suite.rs `massive_components`: 6000 communities, 120k
    // vertices — the instance where only the kernelized path
    // completes, and exactly the shape incremental re-solve targets.
    let g = gen::sparse_components(120_000, 6_000, 0.3, 0xfee3);
    let solver = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .preprocess(PrepConfig::default())
        .build();
    let mut previous = solver.solve_mvc(&g);
    assert!(!previous.stats.timed_out);

    let mut reuse = solver.resolve_session(&g, &previous);
    const ROUNDS: u64 = 4;
    let mut reuse_rebuilds = 0;
    let mut baseline_rebuilds = 0;
    for round in 0..ROUNDS {
        let edits = gen::edit_script(reuse.graph(), 6, 0.5, round ^ 0xabc);
        let b = solver
            .resolve_session(reuse.graph(), &previous)
            .resolve(&edits)
            .unwrap();
        let a = reuse.resolve(&edits).unwrap();
        assert_eq!(a.result.size, b.result.size, "round {round}");
        assert_eq!(
            a.stats.components_invalidated, b.stats.components_invalidated,
            "round {round}: label maintenance must not change invalidation"
        );
        reuse_rebuilds = a.stats.uf_rebuilds;
        baseline_rebuilds += b.stats.uf_rebuilds;
        previous = a.result;
    }
    assert_eq!(reuse_rebuilds, 1, "reuse: the construction-time build only");
    assert_eq!(baseline_rebuilds, ROUNDS, "baseline: one build per call");
    assert!(
        reuse_rebuilds < baseline_rebuilds,
        "label reuse must strictly beat a full build per call \
         ({reuse_rebuilds} >= {baseline_rebuilds})"
    );
}
