//! Shape regression: the paper's qualitative claims, as assertions.
//!
//! These tests pin the *direction* of the paper's headline
//! comparisons (Table I, Figures 5 and 6, which the `table1`, `fig5`
//! and `fig6` bench binaries reproduce) with wide margins, so a future
//! refactor that quietly breaks the load-balancing story (without
//! breaking correctness) fails CI. All margins are several-fold below
//! the measured gaps.

use parvc::core::{Algorithm, Solver};
use parvc::graph::gen;
use parvc::simgpu::counters::{Activity, ActivityFamily};
use parvc::simgpu::DeviceSpec;

/// A difficult high-degree instance (p_hat-style dense complement with
/// a non-trivial tree) used across the shape checks.
fn difficult_instance() -> parvc::graph::CsrGraph {
    gen::p_hat_complement(150, 3, 0x9a1 + 1503)
}

fn solver(algorithm: Algorithm) -> Solver {
    Solver::builder()
        .algorithm(algorithm)
        .device(DeviceSpec::scaled(8))
        .grid_limit(Some(16))
        .build()
}

#[test]
fn hybrid_beats_stackonly_in_device_cycles_on_difficult_mvc() {
    // Paper Table II: Hybrid over StackOnly, high-degree MVC — 167×.
    // Our ablation measured 2.5–6× in model device time; require 1.3×.
    let g = difficult_instance();
    let hybrid = solver(Algorithm::Hybrid).solve_mvc(&g);
    let stack = solver(Algorithm::StackOnly { start_depth: 8 }).solve_mvc(&g);
    assert_eq!(hybrid.size, stack.size);
    assert!(
        (hybrid.stats.device_cycles as f64) < stack.stats.device_cycles as f64 / 1.3,
        "hybrid {} cycles vs stackonly {} — load-balancing advantage lost",
        hybrid.stats.device_cycles,
        stack.stats.device_cycles
    );
}

#[test]
fn hybrid_load_is_flatter_than_stackonly_on_difficult_mvc() {
    // Paper Figure 5: StackOnly max 63.98× vs Hybrid 1.07×. Measured
    // 7.5× vs 1.18×; require a 2× imbalance gap.
    let g = difficult_instance();
    let hybrid = solver(Algorithm::Hybrid).solve_mvc(&g);
    let stack = solver(Algorithm::StackOnly { start_depth: 8 }).solve_mvc(&g);
    let hi = hybrid.stats.report.sm_load.imbalance();
    let si = stack.stats.report.sm_load.imbalance();
    assert!(
        si > 2.0 * hi,
        "imbalance gap collapsed: stackonly {si:.3} vs hybrid {hi:.3}"
    );
}

#[test]
fn reduction_rules_dominate_hybrid_time() {
    // Paper Figure 6: 65.2% of kernel time in the rules; measured 67%.
    // Require a plurality (> 40%) on the difficult instance.
    let g = difficult_instance();
    let r = solver(Algorithm::Hybrid).solve_mvc(&g);
    let reducing: f64 = r
        .stats
        .report
        .activity_breakdown()
        .iter()
        .filter(|(a, _)| a.family() == ActivityFamily::Reducing)
        .map(|(_, s)| s)
        .sum();
    assert!(
        reducing > 0.40,
        "reducing share fell to {:.1}%",
        reducing * 100.0
    );
}

#[test]
fn donations_flow_on_difficult_instances() {
    // The hybrid mechanism must actually engage: blocks donate and
    // peers consume (seed + donations, each exactly once).
    let g = difficult_instance();
    let r = solver(Algorithm::Hybrid).solve_mvc(&g);
    let donated: u64 = r.stats.report.blocks.iter().map(|b| b.nodes_donated).sum();
    let consumed: u64 = r
        .stats
        .report
        .blocks
        .iter()
        .map(|b| b.nodes_from_worklist)
        .sum();
    assert!(
        donated > 100,
        "only {donated} donations on a difficult instance"
    );
    assert_eq!(consumed, donated + 1);
    // More than one block must have obtained work (true distribution).
    let active = r
        .stats
        .report
        .blocks
        .iter()
        .filter(|b| b.nodes_from_worklist > 0)
        .count();
    assert!(active > 1, "a single block consumed everything");
}

#[test]
fn stackonly_pays_redundant_descent() {
    // Paper §III-A: StackOnly revisits shared path prefixes. Under a
    // FIXED bound (PVC k = min−1 searches the whole tree: no solution,
    // no best-improvement races), the explored tree is identical for
    // all implementations, so StackOnly's node count must strictly
    // exceed Sequential's — the excess is exactly the re-descents
    // (e.g. the root alone is visited once per surviving sub-tree
    // index instead of once).
    let g = gen::p_hat_complement(100, 2, 0x9a1 + 1002);
    let min = solver(Algorithm::Sequential).solve_mvc(&g).size;
    let seq = solver(Algorithm::Sequential).solve_pvc(&g, min - 1);
    let stack = solver(Algorithm::StackOnly { start_depth: 10 }).solve_pvc(&g, min - 1);
    assert!(!seq.found() && !stack.found());
    assert!(
        stack.stats.tree_nodes > seq.stats.tree_nodes,
        "stackonly {} nodes vs sequential {} — where did the redundancy go?",
        stack.stats.tree_nodes,
        seq.stats.tree_nodes
    );
}

#[test]
fn easy_pvc_instances_stay_easy_for_everyone() {
    // Paper observation 2: PVC k=min+1 is fast on all implementations.
    let g = gen::p_hat_complement(100, 1, 0x9a1 + 1001);
    let min = solver(Algorithm::Sequential).solve_mvc(&g).size;
    for algorithm in [
        Algorithm::Sequential,
        Algorithm::StackOnly { start_depth: 8 },
        Algorithm::Hybrid,
    ] {
        let r = solver(algorithm).solve_pvc(&g, min + 1);
        assert!(r.found(), "{algorithm}");
        assert!(
            r.stats.wall_time < std::time::Duration::from_secs(30),
            "{algorithm} took {:?} on an easy instance",
            r.stats.wall_time
        );
    }
}

#[test]
fn worklist_wait_cycles_show_up_in_the_breakdown() {
    // Figure 6's biggest distribution cost is remove-from-worklist;
    // the accounting must attribute nonzero cycles there.
    let g = difficult_instance();
    let r = solver(Algorithm::Hybrid).solve_mvc(&g);
    let remove: u64 = r
        .stats
        .report
        .blocks
        .iter()
        .map(|b| b.cycles(Activity::RemoveFromWorklist))
        .sum();
    assert!(remove > 0);
}
