//! Telemetry non-interference property suite.
//!
//! The observability layer's core contract (`crates/obs`): a sink
//! *observes* the solve, it never steers it. Spans and metrics are
//! recorded strictly after the observed operation completes, the
//! heartbeat only reads shared atomics, and the `ObservedExec`
//! decorator delegates every scheduling decision to the wrapped
//! executor. Consequence: with the traversal pinned deterministic
//! (`grid_limit(1)`, like the executor-agreement suite), a solve with
//! a full recording sink attached must reproduce the telemetry-off
//! solve **bit for bit** — same cover, same tree shape, same
//! per-block `BlockCounters` and `SplitCounters` — across every
//! policy, with and without preprocessing, under both executors.
//!
//! The weighted objective and the incremental re-solve session record
//! through the same sink and are held to the same contract: a weighted
//! MVC solve and one `ResolveSession` edit batch per objective.
//!
//! The multi-block arms solve a kernel of tiny components at grid 2,
//! where the solver's component pool searches components on two
//! threads at once. Each component search is a single block, so the
//! counters stay deterministic, and the spans of concurrent searches
//! must land on their own blocks' tracks. A kernel of two tiny
//! components must stay on the calling thread at grid 2.

use parvc::core::{
    Algorithm, ExecutorSpec, MvcResult, Resolved, Solver, SolverBuilder, TelemetryConfig,
};
use parvc::graph::gen;
use parvc::graph::{CsrGraph, EditScript};
use parvc::obs::{Lane, SpanRecord};
use parvc::prep::PrepConfig;
use parvc::simgpu::counters::{Activity, BlockCounters, SplitCounters};

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

fn corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp", gen::gnp(26, 0.17, 9)),
        ("components", gen::sparse_components(48, 8, 0.5, 3)),
    ]
}

/// `BlockCounters` has no `PartialEq` (the span log is not part of its
/// identity), so identity is asserted on an exhaustive projection:
/// every public counter plus the full per-activity cycle vector.
#[derive(Debug, PartialEq)]
struct BlockFingerprint {
    block_id: u32,
    cycles: Vec<u64>,
    tree_nodes_visited: u64,
    nodes_donated: u64,
    nodes_from_worklist: u64,
    donations_bounced: u64,
    max_stack_depth: u64,
    steals_by_victim: Vec<(u32, u64)>,
    splits: SplitCounters,
}

fn block_fingerprint(c: &BlockCounters) -> BlockFingerprint {
    BlockFingerprint {
        block_id: c.block_id,
        cycles: Activity::ALL.iter().map(|&a| c.cycles(a)).collect(),
        tree_nodes_visited: c.tree_nodes_visited,
        nodes_donated: c.nodes_donated,
        nodes_from_worklist: c.nodes_from_worklist,
        donations_bounced: c.donations_bounced,
        max_stack_depth: c.max_stack_depth,
        steals_by_victim: c.steals_by_victim.iter().map(|(&k, &v)| (k, v)).collect(),
        splits: c.splits.clone(),
    }
}

#[derive(Debug, PartialEq)]
struct SolveFingerprint {
    size: u32,
    weight: u64,
    cover: Vec<u32>,
    tree_nodes: u64,
    device_cycles: u64,
    blocks: Vec<BlockFingerprint>,
}

fn fingerprint(r: &MvcResult) -> SolveFingerprint {
    SolveFingerprint {
        size: r.size,
        weight: r.weight,
        cover: r.cover.clone(),
        tree_nodes: r.stats.tree_nodes,
        device_cycles: r.stats.device_cycles,
        blocks: r
            .stats
            .report
            .blocks
            .iter()
            .map(block_fingerprint)
            .collect(),
    }
}

fn builder(algorithm: Algorithm, exec: ExecutorSpec, prep: bool) -> SolverBuilder {
    let mut b = Solver::builder()
        .algorithm(algorithm)
        .grid_limit(Some(1))
        .component_branching(true)
        .executor(exec);
    if prep {
        b = b.preprocess(PrepConfig::default());
    }
    b
}

/// The full matrix: 6 policies × prep on/off × serial/pooled, each
/// compared telemetry-off vs telemetry-on with the default (full)
/// recording configuration.
#[test]
fn full_sink_never_perturbs_the_solve() {
    let execs = [
        ("serial", ExecutorSpec::Serial),
        ("pooled", ExecutorSpec::Pooled { threads: Some(3) }),
    ];
    for (gname, g) in corpus() {
        for (pname, algorithm) in policies() {
            for prep in [false, true] {
                for (ename, exec) in execs {
                    let ctx = format!("{gname}/{pname}/prep={prep}/{ename}");
                    let off = builder(algorithm, exec, prep).build().solve_mvc(&g);
                    let on = builder(algorithm, exec, prep)
                        .telemetry(TelemetryConfig::default())
                        .build()
                        .solve_mvc(&g);
                    assert!(off.stats.telemetry.is_none(), "{ctx}: phantom snapshot");
                    assert!(on.stats.telemetry.is_some(), "{ctx}: missing snapshot");
                    assert_eq!(fingerprint(&off), fingerprint(&on), "{ctx}");
                }
            }
        }
    }
}

/// One MVC solve, then `edits` through a `ResolveSession` seeded with
/// its result.
fn solve_then_resolve(b: SolverBuilder, g: &CsrGraph, edits: &EditScript) -> (MvcResult, Resolved) {
    let solver = b.build();
    let solved = solver.solve_mvc(g);
    let resolved = solver
        .resolve_session(g, &solved)
        .resolve(edits)
        .expect("a generated edit script applies");
    (solved, resolved)
}

/// The weighted and re-solve paths under a full recording sink: for
/// each objective (cardinality and weighted), an MVC solve and one
/// edit batch through the re-solve session, telemetry off vs on,
/// under every policy. Grid 1 runs the corpus with prep off and on.
/// Grid 2 runs a tiny-component kernel through the component pool;
/// its batch only deletes, which splits components and never merges
/// them, so every re-solved component stays in the pool too.
#[test]
fn weighted_and_resolve_paths_are_never_perturbed() {
    let mut arms: Vec<(String, u32, bool, CsrGraph, f64)> = Vec::new();
    for (gname, g) in corpus() {
        for prep in [false, true] {
            let arm = format!("{gname}/grid=1/prep={prep}");
            arms.push((arm, 1, prep, g.clone(), 0.5));
        }
    }
    let pool = gen::sparse_components(600, 30, 0.3, 5);
    arms.push(("pool/grid=2/prep=true".to_string(), 2, true, pool, 0.0));
    for (arm, grid, prep, g, insert_frac) in arms {
        for weighted in [false, true] {
            let g = if weighted {
                gen::with_uniform_weights(g.clone(), 9, 4)
            } else {
                g.clone()
            };
            let edits = gen::edit_script(&g, 6, insert_frac, 7);
            for (pname, algorithm) in policies() {
                let ctx = format!("{arm}/weighted={weighted}/{pname}");
                let mut b = Solver::builder()
                    .algorithm(algorithm)
                    .grid_limit(Some(grid));
                if prep {
                    b = b.preprocess(PrepConfig::default());
                }
                if weighted {
                    b = b.weighted();
                }
                let (solved, resolved) = solve_then_resolve(b.clone(), &g, &edits);
                let traced = b.telemetry(TelemetryConfig::default());
                let (t_solved, t_resolved) = solve_then_resolve(traced, &g, &edits);
                for (r, t) in [(&solved, &t_solved), (&resolved.result, &t_resolved.result)] {
                    assert!(r.stats.telemetry.is_none(), "{ctx}: phantom snapshot");
                    assert!(t.stats.telemetry.is_some(), "{ctx}: missing snapshot");
                    if grid > 1 {
                        assert!(r.stats.launch.is_none(), "{ctx}: a component launched");
                    }
                }
                assert_eq!(fingerprint(&solved), fingerprint(&t_solved), "{ctx}: solve");
                assert_eq!(
                    fingerprint(&resolved.result),
                    fingerprint(&t_resolved.result),
                    "{ctx}: re-solve"
                );
                assert_eq!(resolved.stats, t_resolved.stats, "{ctx}: reuse accounting");
            }
        }
    }
}

/// The recording run's snapshot is substantive, not an empty shell:
/// engine spans and node counters always appear, and the preprocessed
/// arm adds the prep/component taxonomy.
#[test]
fn recording_runs_capture_the_span_taxonomy() {
    let g = gen::sparse_components(48, 8, 0.5, 3);
    let r = builder(Algorithm::Hybrid, ExecutorSpec::Serial, true)
        .telemetry(TelemetryConfig::default())
        .build()
        .solve_mvc(&g);
    let snap = r.stats.telemetry.as_ref().expect("telemetry was on");
    let cats = snap.span_categories();
    for cat in ["prep", "component", "engine"] {
        assert!(cats.contains(cat), "missing category {cat}: {cats:?}");
    }
    assert!(snap.has_model_lane(), "model-cycle track missing");
    assert_eq!(
        snap.counters.get("engine.nodes").copied(),
        Some(r.stats.tree_nodes),
        "engine.nodes must agree with the report's tree-node total"
    );
}

/// The heartbeat counts every tick without touching the search (its
/// printing is interval-gated; a huge interval keeps stderr silent),
/// so a progress-enabled solve is bit-identical too.
#[test]
fn progress_heartbeat_never_perturbs_the_solve() {
    let g = gen::gnp(26, 0.17, 9);
    for (pname, algorithm) in policies() {
        let plain = builder(algorithm, ExecutorSpec::Serial, false)
            .build()
            .solve_mvc(&g);
        let beating = builder(algorithm, ExecutorSpec::Serial, false)
            .progress(std::time::Duration::from_secs(3600))
            .build()
            .solve_mvc(&g);
        assert_eq!(fingerprint(&plain), fingerprint(&beating), "{pname}");
    }
}

/// Dispatch-seam spans appear exactly when the pooled executor fans
/// out: the serial executor never crosses the seam (flat passes run
/// inline below the parallel cutoff), and `ObservedExec` must not
/// invent work the executor didn't do.
#[test]
fn dispatch_spans_follow_the_executor() {
    let g = gen::gnp(26, 0.17, 9);
    let serial = builder(Algorithm::Hybrid, ExecutorSpec::Serial, false)
        .telemetry(TelemetryConfig::default())
        .build()
        .solve_mvc(&g);
    let snap = serial.stats.telemetry.as_ref().unwrap();
    assert_eq!(
        snap.counters.get("exec.dispatches"),
        None,
        "serial flat passes must not cross the dispatch seam"
    );
}

/// Asserts that the wall-lane spans of each track nest: any two are
/// disjoint or one contains the other. Spans of concurrent searches on
/// one track would overlap without nesting.
fn assert_tracks_nest(spans: &[SpanRecord], ctx: &str) {
    let mut wall: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.lane == Lane::Wall && !s.instant)
        .collect();
    wall.sort_by_key(|s| {
        (
            s.track,
            s.start_us,
            std::cmp::Reverse(s.start_us + s.dur_us),
        )
    });
    let mut open: Vec<&SpanRecord> = Vec::new();
    for s in wall {
        let end = s.start_us + s.dur_us;
        while let Some(top) = open.last() {
            if top.track != s.track || top.start_us + top.dur_us <= s.start_us {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(top) = open.last() {
            assert!(
                end <= top.start_us + top.dur_us,
                "{ctx}: {}/{} overlaps {}/{} on track {}",
                s.cat,
                s.name,
                top.cat,
                top.name,
                s.track
            );
        }
        open.push(s);
    }
}

/// Grid 2 with prep on: the kernel's many tiny components go to the
/// component pool, whose two blocks search them concurrently. A full
/// recording sink must still leave every counter as the telemetry-off
/// solve has it, record one `component`/`sub-search` span per counted
/// sub-search, and keep each block's spans on its own track.
#[test]
fn pooled_component_spans_stay_on_their_blocks_tracks() {
    let g = gen::sparse_components(1_200, 60, 0.3, 5);
    for (pname, algorithm) in policies() {
        let builder = Solver::builder()
            .algorithm(algorithm)
            .grid_limit(Some(2))
            .preprocess(PrepConfig::default());
        let off = builder.clone().build().solve_mvc(&g);
        let on = builder
            .telemetry(TelemetryConfig::default())
            .build()
            .solve_mvc(&g);
        assert!(on.stats.launch.is_none(), "{pname}: a component launched");
        assert_eq!(fingerprint(&off), fingerprint(&on), "{pname}");
        let snap = on.stats.telemetry.as_ref().expect("telemetry was on");
        let sub_searches = snap
            .spans
            .iter()
            .filter(|s| s.cat == "component" && s.name == "sub-search")
            .count() as u64;
        assert!(sub_searches > 1, "{pname}: {sub_searches} sub-searches");
        assert_eq!(
            snap.counters.get("component.sub_searches").copied(),
            Some(sub_searches),
            "{pname}"
        );
        assert_tracks_nest(&snap.spans, pname);
    }
}

/// The pool takes one block per 64 pooled vertices, so a kernel of two
/// ~20-vertex components stays on the calling thread even at grid 2:
/// every `component`/`sub-search` span is on block 0's track.
#[test]
fn a_few_tiny_components_stay_on_the_calling_thread() {
    let g = gen::sparse_components(40, 2, 0.3, 1);
    for (pname, algorithm) in policies() {
        let r = Solver::builder()
            .algorithm(algorithm)
            .grid_limit(Some(2))
            .preprocess(PrepConfig::default())
            .telemetry(TelemetryConfig::default())
            .build()
            .solve_mvc(&g);
        let snap = r.stats.telemetry.as_ref().expect("telemetry was on");
        let tracks: Vec<u32> = snap
            .spans
            .iter()
            .filter(|s| s.cat == "component" && s.name == "sub-search")
            .map(|s| s.track)
            .collect();
        assert_eq!(tracks, [1, 1], "{pname}: component spans by track");
    }
}
