//! Report generators: one function per table/figure of the paper.

use parvc_core::{
    is_vertex_cover, Algorithm, ExecutorSpec, Extensions, PrepConfig, Solver, SplitParams,
};
use parvc_graph::CsrGraph;
use parvc_simgpu::counters::{Activity, SmLoad};
use parvc_simgpu::occupancy::{candidate_block_sizes, LaunchRequest};
use parvc_simgpu::DeviceSpec;

use crate::cli::BenchArgs;
use crate::format::{fmt_seconds, geomean, Table};
use crate::runner::{self, compute_min, make_solver, run_instance, InstanceRow, Problem, COLUMNS};
use crate::suite::{fig5_pair, phat_suite, suite, Instance, Scale};

/// Runs the full Table I grid once (shared by `table1` and `table2`).
pub fn run_grid(args: &BenchArgs) -> Vec<(Instance, InstanceRow)> {
    suite(args.scale)
        .into_iter()
        .map(|inst| {
            eprintln!("[grid] {} ...", inst.name);
            let row = run_instance(&inst, args);
            (inst, row)
        })
        .collect()
}

/// **Table I** — execution time (seconds) of each implementation for
/// MVC and the three PVC instances across the suite.
pub fn table1(args: &BenchArgs, grid: &[(Instance, InstanceRow)]) {
    println!("\n=== Table I: execution time (seconds) ===");
    println!(
        "scale={:?}  budget={:.1}s/solve  blocks={}  sms={}  StackOnly depth={}",
        args.scale,
        args.deadline.as_secs_f64(),
        args.grid,
        args.sms,
        args.start_depth
    );
    let mut headers = vec![
        "graph".to_string(),
        "|V|".to_string(),
        "|E|".to_string(),
        "|E|/|V|".to_string(),
        "min".to_string(),
    ];
    for p in Problem::ALL {
        for a in COLUMNS {
            headers.push(format!("{}:{}", short_problem(p), a.name()));
        }
    }
    let mut t = Table::new(headers);
    let mut last_class = None;
    for (inst, row) in grid {
        if last_class != Some(inst.class) {
            t.separator();
            last_class = Some(inst.class);
        }
        let mut cells = vec![
            inst.name.clone(),
            inst.graph.num_vertices().to_string(),
            inst.graph.num_edges().to_string(),
            format!("{:.2}", inst.ratio()),
            row.min.map_or("?".into(), |m| m.to_string()),
        ];
        for c in row.cells.iter().flatten() {
            cells.push(fmt_seconds(c.seconds, c.timed_out));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "(>budget = wall-clock budget hit, the analogue of the paper's \">2 hrs\" cells; \
         min '?' = exact MVC unknown within --min-budget)"
    );
}

/// **Table II** — aggregate geometric-mean speedups by degree class.
pub fn table2(grid: &[(Instance, InstanceRow)]) {
    println!("\n=== Table II: aggregate speedup (geometric mean, wall-clock) ===");
    println!("Timed-out cells are scored at the budget — a lower bound on the true speedup.");
    let mut t = Table::new(vec![
        "category",
        "Hyb/Stack MVC",
        "Hyb/Stack k=min-1",
        "Hyb/Stack k=min",
        "Hyb/Stack k=min+1",
        "Hyb/Seq MVC",
        "Hyb/Seq k=min-1",
        "Hyb/Seq k=min",
        "Hyb/Seq k=min+1",
    ]);
    for split in [
        Some(parvc_graph::analysis::DegreeClass::High),
        Some(parvc_graph::analysis::DegreeClass::Low),
        None,
    ] {
        let rows: Vec<&(Instance, InstanceRow)> = grid
            .iter()
            .filter(|(i, _)| split.is_none() || Some(i.class) == split)
            .collect();
        let mut cells = vec![split.map_or("Overall".to_string(), |c| c.to_string())];
        for base in ["stack", "seq"] {
            for (pi, _) in Problem::ALL.iter().enumerate() {
                let ratios: Vec<f64> = rows
                    .iter()
                    .map(|(_, r)| {
                        let hybrid = &r.cells[pi][column("hybrid")];
                        let baseline = &r.cells[pi][column(base)];
                        (baseline.seconds / hybrid.seconds.max(1e-6)).max(1e-6)
                    })
                    .collect();
                cells.push(format!("{:.2}x", geomean(&ratios)));
            }
        }
        t.row(cells);
    }
    t.print();
}

/// The index of the policy named `name` in [`COLUMNS`].
fn column(name: &str) -> usize {
    COLUMNS
        .iter()
        .position(|a| a.name() == name)
        .expect("a table column")
}

fn short_problem(p: Problem) -> &'static str {
    match p {
        Problem::Mvc => "MVC",
        Problem::PvcMinMinus1 => "k-1",
        Problem::PvcMin => "k0",
        Problem::PvcMinPlus1 => "k+1",
    }
}

/// **Table III** — PVC k=min on the p_hat suite: our three
/// implementations, with the paper's published numbers for context.
pub fn table3(args: &BenchArgs) {
    println!("\n=== Table III: PVC k=min on the p_hat suite (seconds) ===");
    println!(
        "Prior-work column quotes Abu-Khzam et al. [15] as reported by the paper \
         (different hardware and full-size instances — context only)."
    );
    // The paper's Table III numbers for the full-size instances.
    let prior: &[(&str, f64)] = &[
        ("p_hat_300_1", 4.4),
        ("p_hat_300_2", 5.0),
        ("p_hat_300_3", 2.8),
        ("p_hat_500_1", 10.7),
        ("p_hat_500_2", 10.1),
        ("p_hat_500_3", 6.0),
        ("p_hat_700_1", 21.0),
        ("p_hat_700_2", 14.8),
        ("p_hat_1000_1", 48.3),
        ("p_hat_1000_2", 30.8),
    ];
    let mut headers = vec!["graph"];
    headers.extend(COLUMNS.map(Algorithm::name));
    headers.push("paper: Abu-Khzam et al. [15]");
    let mut t = Table::new(headers);
    for inst in phat_suite(args.scale) {
        let Some(min) = compute_min(&inst, args) else {
            let mut cells = vec![inst.name.clone()];
            cells.extend(COLUMNS.map(|_| "?".to_string()));
            cells.push(String::new());
            t.row(cells);
            continue;
        };
        let mut cells = vec![inst.name.clone()];
        for algorithm in COLUMNS {
            let solver = make_solver(algorithm, args, Some(args.deadline));
            let r = solver.solve_pvc(&inst.graph, min);
            cells.push(fmt_seconds(r.stats.seconds(), r.stats.timed_out));
        }
        cells.push(
            prior
                .iter()
                .find(|(n, _)| *n == inst.name)
                .map_or(String::from("-"), |(_, s)| format!("{s:.1}")),
        );
        t.row(cells);
    }
    t.print();
}

/// **Figure 5** — distribution of load (tree nodes visited per SM,
/// normalized to the mean) for StackOnly vs Hybrid on the suite's two
/// degree extremes × the four problem instances.
pub fn fig5(args: &BenchArgs) {
    println!("\n=== Figure 5: per-SM load distribution (normalized to mean) ===");
    println!(
        "blocks={} on {} SMs; load = tree nodes visited per SM / mean",
        args.grid, args.sms
    );
    let (high, low) = fig5_pair(args.scale);
    let mut t = Table::new(vec![
        "graph",
        "problem",
        "impl",
        "min",
        "q25",
        "median",
        "q75",
        "max",
        "imbalance",
    ]);
    for inst in [&high, &low] {
        let Some(min) = compute_min(inst, args) else {
            eprintln!("[fig5] {}: exact MVC unknown, skipping", inst.name);
            continue;
        };
        for p in Problem::ALL {
            let stack = Algorithm::StackOnly {
                start_depth: args.start_depth,
            };
            for algorithm in [stack, Algorithm::Hybrid] {
                let solver = make_solver(algorithm, args, Some(args.deadline));
                let report = match p.k(min) {
                    None => solver.solve_mvc(&inst.graph).stats.report,
                    Some(k) => solver.solve_pvc(&inst.graph, k).stats.report,
                };
                let load: &SmLoad = &report.sm_load;
                t.row(vec![
                    inst.name.clone(),
                    p.label().to_string(),
                    algorithm.name().to_string(),
                    format!("{:.2}", load.min()),
                    format!("{:.2}", load.quantile(0.25)),
                    format!("{:.2}", load.quantile(0.5)),
                    format!("{:.2}", load.quantile(0.75)),
                    format!("{:.2}", load.max()),
                    format!("{:.3}", load.imbalance()),
                ]);
            }
        }
        t.separator();
    }
    t.print();
    println!("(imbalance = coefficient of variation across SMs; 0 = perfectly balanced)");
}

/// **Figure 6** — breakdown of the Hybrid MVC kernel's time across the
/// eleven activities, per graph, with the cross-graph mean.
pub fn fig6(args: &BenchArgs) {
    println!("\n=== Figure 6: breakdown of Hybrid MVC execution time ===");
    let instances = suite(args.scale);
    let mut per_graph: Vec<(String, Vec<(Activity, f64)>)> = Vec::new();
    for inst in &instances {
        let solver = make_solver(Algorithm::Hybrid, args, Some(args.deadline));
        let r = solver.solve_mvc(&inst.graph);
        per_graph.push((inst.name.clone(), r.stats.report.activity_breakdown()));
    }
    let mut headers = vec!["activity".to_string()];
    headers.extend(per_graph.iter().map(|(n, _)| shorten(n)));
    headers.push("Mean".to_string());
    let mut t = Table::new(headers);
    for (ai, a) in Activity::ALL.iter().enumerate() {
        let mut cells = vec![a.label().to_string()];
        let mut sum = 0.0;
        for (_, shares) in &per_graph {
            let s = shares[ai].1;
            sum += s;
            cells.push(format!("{:.1}%", s * 100.0));
        }
        cells.push(format!(
            "{:.1}%",
            sum / per_graph.len().max(1) as f64 * 100.0
        ));
        t.row(cells);
    }
    // Family subtotals, matching the paper's three groups.
    t.separator();
    for family in [
        parvc_simgpu::counters::ActivityFamily::WorkDistribution,
        parvc_simgpu::counters::ActivityFamily::Reducing,
        parvc_simgpu::counters::ActivityFamily::Branching,
    ] {
        let mut cells = vec![format!("[{}]", family.label())];
        let mut sum = 0.0;
        for (_, shares) in &per_graph {
            let s: f64 = shares
                .iter()
                .filter(|(a, _)| a.family() == family)
                .map(|(_, s)| s)
                .sum();
            sum += s;
            cells.push(format!("{:.1}%", s * 100.0));
        }
        cells.push(format!(
            "{:.1}%",
            sum / per_graph.len().max(1) as f64 * 100.0
        ));
        t.row(cells);
    }
    t.print();
}

/// **Steal locality** — the per-victim steal counters of the
/// WorkStealing policy, aggregated onto SMs as a Figure-5-style
/// locality table: row = thief SM, column = victim SM, cell = steals.
/// A heavy column is an SM whose blocks' sub-trees fed the rest of the
/// device; the same-SM share on the diagonal is the locality the
/// paper's Figure 5 load histogram cannot show.
pub fn steal_locality(args: &BenchArgs) {
    println!("\n=== Steal locality: per-victim steal traffic (WorkStealing) ===");
    println!(
        "blocks={} on {} SMs; cell = steals by a thief on SM (row) from a victim on SM (col)",
        args.grid, args.sms
    );
    let device = DeviceSpec::scaled(args.sms);
    let (high, low) = fig5_pair(args.scale);
    for inst in [&high, &low] {
        let solver = make_solver(Algorithm::WorkStealing, args, Some(args.deadline));
        let r = solver.solve_mvc(&inst.graph);
        let sms = args.sms as usize;
        let mut matrix = vec![vec![0u64; sms]; sms];
        let mut total = 0u64;
        let mut same_sm = 0u64;
        for b in &r.stats.report.blocks {
            let thief = device.sm_of_block(b.block_id) as usize;
            for (&victim, &count) in &b.steals_by_victim {
                let victim = device.sm_of_block(victim) as usize;
                matrix[thief][victim] += count;
                total += count;
                if thief == victim {
                    same_sm += count;
                }
            }
        }
        let mut headers = vec![format!("{}: thief\\victim", inst.name)];
        headers.extend((0..sms).map(|s| format!("SM{s}")));
        headers.push("total".into());
        let mut t = Table::new(headers);
        for (thief, row) in matrix.iter().enumerate() {
            let mut cells = vec![format!("SM{thief}")];
            cells.extend(row.iter().map(u64::to_string));
            cells.push(row.iter().sum::<u64>().to_string());
            t.row(cells);
        }
        t.separator();
        let mut victims = vec!["[victim total]".to_string()];
        victims.extend((0..sms).map(|v| matrix.iter().map(|r| r[v]).sum::<u64>().to_string()));
        victims.push(total.to_string());
        t.row(victims);
        t.print();
        println!(
            "{}: {} steals, {:.1}% same-SM (locality), load imbalance {:.3}",
            inst.name,
            total,
            if total > 0 {
                same_sm as f64 / total as f64 * 100.0
            } else {
                0.0
            },
            r.stats.report.sm_load.imbalance()
        );
    }
}

/// **Scale::Massive** — the reduction-heavy regime (arXiv 1509.05870):
/// kernelize + decompose + per-component sub-searches vs the
/// unpreprocessed baseline under the same wall-clock budget. The
/// unpreprocessed *parallel* paths cannot even be planned at this
/// scale (per-block state exceeds the simulated device's memory, the
/// §III-C limit), so the baseline is Sequential.
pub fn massive(args: &BenchArgs) {
    println!(
        "\n=== Scale::Massive: kernelized vs unpreprocessed (budget {:.1}s) ===",
        args.deadline.as_secs_f64()
    );
    let mut t = Table::new(vec![
        "graph",
        "|V|",
        "|E|",
        "elim%",
        "comps",
        "largest",
        "prep+steal",
        "proven",
        "exec serial",
        "exec pooled",
        "work (Mcyc)",
        "seq (no prep)",
    ]);
    for inst in suite(Scale::Massive) {
        eprintln!("[massive] {} ...", inst.name);
        let prep_solver = solver_with(Algorithm::WorkStealing, args, |b| {
            b.preprocess(PrepConfig::default())
        });
        let r = prep_solver.solve_mvc(&inst.graph);
        assert!(
            is_vertex_cover(&inst.graph, &r.cover),
            "{}: kernelized path returned a non-cover",
            inst.name
        );
        let prep = r.stats.prep.as_ref().expect("prep stats present");
        // Executor A/B on the deterministic kernelized Sequential arm:
        // identical flat passes, dispatched inline vs chunked across
        // the shared worker pool. Model-cycle charges are computed from
        // instance quantities only, so the counters must bit-match and
        // the work column is one number, valid for both arms; only
        // wall-clock may differ.
        let exec_arm = |spec: ExecutorSpec| {
            solver_with(Algorithm::Sequential, args, |b| {
                b.preprocess(PrepConfig::default()).executor(spec)
            })
            .solve_mvc(&inst.graph)
        };
        let es = exec_arm(ExecutorSpec::Serial);
        let ep = exec_arm(ExecutorSpec::Pooled { threads: None });
        if !es.stats.timed_out && !ep.stats.timed_out {
            assert_eq!(
                es.size, ep.size,
                "{}: executor changed the answer",
                inst.name
            );
            assert_eq!(
                (es.stats.tree_nodes, es.stats.device_cycles),
                (ep.stats.tree_nodes, ep.stats.device_cycles),
                "{}: executor leaked into the search counters",
                inst.name
            );
        }
        let base = solver_with(Algorithm::Sequential, args, |b| b).solve_mvc(&inst.graph);
        t.row(vec![
            inst.name.clone(),
            inst.graph.num_vertices().to_string(),
            inst.graph.num_edges().to_string(),
            format!("{:.1}%", prep.elimination() * 100.0),
            prep.components.to_string(),
            prep.largest_component.to_string(),
            fmt_seconds(r.stats.seconds(), r.stats.timed_out),
            if r.stats.timed_out {
                "no (budget)"
            } else {
                "yes"
            }
            .to_string(),
            fmt_seconds(es.stats.seconds(), es.stats.timed_out),
            fmt_seconds(ep.stats.seconds(), ep.stats.timed_out),
            format!("{:.1}", es.stats.device_cycles as f64 / 1e6),
            fmt_seconds(base.stats.seconds(), base.stats.timed_out),
        ]);
    }
    t.print();
    println!(
        "(proven = cover verified and optimality proven within budget; \
         seq column is expected to hit the budget — that is the point. \
         exec serial/pooled = the kernelized Sequential arm under either \
         intra-block executor: counters bit-match by construction, only \
         wall-clock may differ)"
    );
}

/// **Component branching** — the split-on / split-off comparison of
/// arXiv 2512.18334's in-search component branching across the
/// gnp/ba/grid/components corpus plus the `massive_components`
/// instance (the latter through the prep pipeline, whose kernel
/// components are themselves re-split in-search).
///
/// Three arms per instance: the WorkStealing policy with splitting
/// off, the same policy with splitting on (inline component-sum
/// nodes), and the ComponentSteal policy (components donated to the
/// steal pool). All arms must agree on the cover size; the headline
/// columns are tree nodes explored relative to split-off and the
/// split-check cost (`check work` = vertex reads + adjacency entries
/// traversed by the union-find connectivity tracker).
pub fn components_report(args: &BenchArgs) {
    println!(
        "\n=== Component branching: split-on vs split-off (budget {:.1}s/solve) ===",
        args.deadline.as_secs_f64()
    );
    // The massive row reuses the named suite instance so the report
    // never drifts from what `massive`/`Scale::Massive` benchmark.
    let massive_components = crate::suite::massive_suite()
        .into_iter()
        .find(|i| i.name == "massive_components")
        .expect("massive suite defines massive_components")
        .graph;
    let corpus: Vec<(&str, CsrGraph, bool)> = vec![
        ("gnp", parvc_graph::gen::gnp(60, 0.15, 7), false),
        ("ba", parvc_graph::gen::barabasi_albert(80, 2, 7), false),
        ("grid", parvc_graph::gen::grid2d(8, 8), false),
        (
            "components",
            parvc_graph::gen::sparse_components(260, 22, 0.32, 7),
            false,
        ),
        ("massive_components", massive_components, true),
    ];
    let mut t = Table::new(vec![
        "graph",
        "|V|",
        "|E|",
        "arm",
        "size",
        "tree nodes",
        "time(s)",
        "splits",
        "comps",
        "check work",
        "nodes vs off",
    ]);
    for (name, graph, prep) in &corpus {
        eprintln!("[components] {name} ...");
        let arm = |algorithm: Algorithm, split: Option<SplitParams>| {
            let solver = solver_with(algorithm, args, |mut b| {
                b = match split {
                    Some(params) => b.component_branching_params(params),
                    None => b.component_branching(false),
                };
                if *prep {
                    b = b.preprocess(PrepConfig::default());
                }
                b
            });
            solver.solve_mvc(graph)
        };
        let runs = [
            ("split-off", arm(Algorithm::WorkStealing, None)),
            (
                "split-on",
                arm(Algorithm::WorkStealing, Some(SplitParams::default())),
            ),
            (
                "compsteal",
                arm(Algorithm::ComponentSteal, Some(SplitParams::default())),
            ),
        ];
        let baseline_nodes = runs[0].1.stats.tree_nodes.max(1);
        for (label, r) in &runs {
            assert!(
                is_vertex_cover(graph, &r.cover),
                "{name}/{label}: returned a non-cover"
            );
            let splits = r.stats.report.split_totals();
            t.row(vec![
                name.to_string(),
                graph.num_vertices().to_string(),
                graph.num_edges().to_string(),
                label.to_string(),
                r.size.to_string(),
                r.stats.tree_nodes.to_string(),
                fmt_seconds(r.stats.seconds(), r.stats.timed_out),
                splits.taken.to_string(),
                splits.components.to_string(),
                splits.check_work.to_string(),
                format!("{:.2}x", r.stats.tree_nodes as f64 / baseline_nodes as f64),
            ]);
        }
        // The agreement / strictly-fewer-nodes properties only hold
        // for completed solves: a timed-out arm reports best-so-far,
        // which the table renders as a >budget cell instead.
        if runs.iter().all(|(_, r)| !r.stats.timed_out) {
            let sizes: Vec<u32> = runs.iter().map(|(_, r)| r.size).collect();
            assert!(
                sizes.windows(2).all(|w| w[0] == w[1]),
                "{name}: arms disagree on the cover size ({sizes:?})"
            );
            // The headline property: splitting explores strictly fewer
            // tree nodes on component-structured instances.
            if name.contains("components") {
                assert!(
                    runs[1].1.stats.tree_nodes < runs[0].1.stats.tree_nodes,
                    "{name}: split-on must explore strictly fewer nodes \
                     ({} >= {})",
                    runs[1].1.stats.tree_nodes,
                    runs[0].1.stats.tree_nodes,
                );
            }
        } else {
            eprintln!("[components] {name}: budget hit — agreement checks skipped");
        }
        t.separator();
    }
    t.print();
    let hist_note: Vec<String> = (0..parvc_simgpu::counters::SplitCounters::HIST_BUCKETS)
        .map(|i| parvc_simgpu::counters::SplitCounters::bucket_label(i).to_string())
        .collect();
    println!(
        "(splits = component-sum nodes taken; comps = sub-searches spawned; \
         check work = vertex reads + adjacency entries traversed by the \
         connectivity tracker; size histogram buckets: {})",
        hist_note.join(", ")
    );
}

/// **Weighted MVC** — the vertex-weighted workload across every
/// scheduling policy, on the gnp/ba/grid/components corpus with
/// uniform random weights in `1..=10` plus a degree-weighted
/// preferential-attachment row (hubs expensive — the regime where the
/// weighted optimum diverges hardest from the cardinality one). Each
/// row reports the cardinality baseline's weight next to the weighted
/// optimum, so the table shows what running the *right* objective
/// buys; completed arms are asserted to agree across policies and
/// prep-on/prep-off.
pub fn weighted_report(args: &BenchArgs) {
    println!(
        "\n=== Weighted MVC: every policy, weight units (budget {:.1}s/solve) ===",
        args.deadline.as_secs_f64()
    );
    let corpus: Vec<(&str, CsrGraph)> = vec![
        (
            "gnp:w=uniform",
            parvc_graph::gen::with_uniform_weights(parvc_graph::gen::gnp(60, 0.15, 7), 10, 7),
        ),
        (
            "ba:w=uniform",
            parvc_graph::gen::with_uniform_weights(
                parvc_graph::gen::barabasi_albert(80, 2, 7),
                10,
                7,
            ),
        ),
        (
            "grid:w=uniform",
            parvc_graph::gen::with_uniform_weights(parvc_graph::gen::grid2d(8, 8), 10, 7),
        ),
        (
            "components:w=uniform",
            parvc_graph::gen::with_uniform_weights(
                parvc_graph::gen::sparse_components(260, 22, 0.32, 7),
                10,
                7,
            ),
        ),
        (
            "ba:w=degree",
            parvc_graph::gen::with_degree_weights(parvc_graph::gen::barabasi_albert(70, 2, 9)),
        ),
    ];
    let policies: Vec<Algorithm> = COLUMNS
        .into_iter()
        .chain([Algorithm::ComponentSteal])
        .collect();
    let mut t = Table::new(vec![
        "graph",
        "|V|",
        "|E|",
        "arm",
        "weight",
        "|S|",
        "card. weight",
        "tree nodes",
        "time(s)",
    ]);
    for (name, graph) in &corpus {
        eprintln!("[weighted] {name} ...");
        // The cardinality baseline: what ignoring the weights costs.
        let baseline = solver_with(Algorithm::Sequential, args, |b| b).solve_mvc(graph);
        let mut completed: Vec<(String, u64)> = Vec::new();
        for &algorithm in &policies {
            for prep in [false, true] {
                let solver = solver_with(algorithm, args, |mut b| {
                    b = b.weighted();
                    if prep {
                        b = b.preprocess(PrepConfig::default());
                    }
                    b
                });
                let r = solver.solve_mvc(graph);
                assert!(
                    is_vertex_cover(graph, &r.cover),
                    "{name}/{}: returned a non-cover",
                    algorithm.name()
                );
                assert_eq!(r.weight, graph.cover_weight(&r.cover));
                let arm = format!("{}{}", algorithm.name(), if prep { "+prep" } else { "" });
                t.row(vec![
                    name.to_string(),
                    graph.num_vertices().to_string(),
                    graph.num_edges().to_string(),
                    arm.clone(),
                    r.weight.to_string(),
                    r.size.to_string(),
                    baseline.weight.to_string(),
                    r.stats.tree_nodes.to_string(),
                    fmt_seconds(r.stats.seconds(), r.stats.timed_out),
                ]);
                if !r.stats.timed_out {
                    completed.push((arm, r.weight));
                }
            }
        }
        if let Some((first_arm, first)) = completed.first().cloned() {
            for (arm, w) in &completed {
                assert_eq!(
                    *w, first,
                    "{name}: {arm} disagrees with {first_arm} on the optimum weight"
                );
            }
            assert!(
                first <= baseline.weight,
                "{name}: the weighted optimum cannot exceed the cardinality cover's weight"
            );
        } else {
            eprintln!("[weighted] {name}: budget hit on every arm — agreement checks skipped");
        }
        t.separator();
    }
    t.print();
    println!(
        "(weight = minimized objective; card. weight = what the size-minimal cover weighs — \
         the gap is the payoff of weight-aware search)"
    );
}

fn shorten(name: &str) -> String {
    name.replace("p_hat_", "ph")
        .replace("_like", "")
        .replace("wiki_link_", "wiki_")
        .replace("vc_exact_", "vce_")
        .replace("power_grid", "pgrid")
        .replace("sister_cities", "sister")
}

/// **§V-A sensitivity** — robustness to sub-optimal block size,
/// StackOnly start depth, and Hybrid worklist size/threshold. Reported
/// as geomean and worst-case slowdown of the worst configuration vs the
/// best, mirroring the paper's in-text numbers.
pub fn sensitivity(args: &BenchArgs) {
    println!("\n=== §V-A sensitivity analysis ===");
    let reps = representative_subset(args);
    println!(
        "subset: {}",
        reps.iter()
            .map(|i| i.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // (a) Block size: affects model device time via ceil(n/B); the
    // metric is simulated device cycles.
    let stack_only = Algorithm::StackOnly {
        start_depth: args.start_depth,
    };
    for algorithm in [stack_only, Algorithm::Hybrid] {
        let stack = algorithm == stack_only;
        let mut worst_over_best = Vec::new();
        let mut worst_case: f64 = 0.0;
        for inst in &reps {
            let req = LaunchRequest {
                num_vertices: inst.graph.num_vertices(),
                stack_depth: 32,
                worklist_entries: 0,
                force_variant: None,
                force_block_size: None,
            };
            let device = DeviceSpec::scaled(args.sms);
            let mut cycles = Vec::new();
            for bs in candidate_block_sizes(&device, &req) {
                let solver = solver_with(algorithm, args, |b| b.block_size(bs));
                let r = solver.solve_mvc(&inst.graph);
                if !r.stats.timed_out {
                    cycles.push(r.stats.device_cycles.max(1) as f64);
                }
            }
            if cycles.len() >= 2 {
                let best = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
                let worst = cycles.iter().cloned().fold(0.0, f64::max);
                worst_over_best.push(worst / best);
                worst_case = worst_case.max(worst / best);
            }
        }
        println!(
            "block size ({}): worst-config slowdown geomean {:.2}x, worst case {:.2}x \
             (paper: {} avg / {} worst)",
            algorithm.name(),
            geomean(&worst_over_best),
            worst_case,
            if stack { "1.55x" } else { "1.39x" },
            if stack { "2.40x" } else { "1.80x" },
        );
    }

    // (b) StackOnly start depth (wall time, like the paper).
    {
        let mut ratios = Vec::new();
        let mut worst: f64 = 0.0;
        for inst in &reps {
            let mut times = Vec::new();
            for depth in [4u32, 8, 12] {
                let swept = BenchArgs {
                    start_depth: depth,
                    ..args.clone()
                };
                let solver =
                    solver_with(Algorithm::StackOnly { start_depth: depth }, &swept, |b| b);
                let r = solver.solve_mvc(&inst.graph);
                if !r.stats.timed_out {
                    times.push(r.stats.seconds().max(1e-4));
                }
            }
            if times.len() >= 2 {
                let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
                let worst_t = times.iter().cloned().fold(0.0, f64::max);
                ratios.push(worst_t / best);
                worst = worst.max(worst_t / best);
            }
        }
        println!(
            "StackOnly start depth {{4,8,12}}: worst-config slowdown geomean {:.2}x, worst case \
             {:.2}x (paper: 1.18x avg / 1.37x worst)",
            geomean(&ratios),
            worst
        );
    }

    // (c) Hybrid worklist capacity × threshold (wall time).
    {
        let mut ratios = Vec::new();
        let mut worst: f64 = 0.0;
        for inst in &reps {
            let mut times = Vec::new();
            for cap in [1usize << 10, 1 << 12, 1 << 14] {
                for frac in [0.25, 0.5, 0.75, 1.0] {
                    let solver = solver_with(Algorithm::Hybrid, args, |b| {
                        b.worklist_capacity(cap).threshold_frac(frac)
                    });
                    let r = solver.solve_mvc(&inst.graph);
                    if !r.stats.timed_out {
                        times.push(r.stats.seconds().max(1e-4));
                    }
                }
            }
            if times.len() >= 2 {
                let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
                let worst_t = times.iter().cloned().fold(0.0, f64::max);
                ratios.push(worst_t / best);
                worst = worst.max(worst_t / best);
            }
        }
        println!(
            "Hybrid worklist size x threshold: worst-config slowdown geomean {:.2}x, worst case \
             {:.2}x (paper: 1.18x avg / 1.32x worst)",
            geomean(&ratios),
            worst
        );
    }
}

fn solver_with(
    algorithm: Algorithm,
    args: &BenchArgs,
    f: impl FnOnce(parvc_core::SolverBuilder) -> parvc_core::SolverBuilder,
) -> Solver {
    f(runner::builder(algorithm, args, Some(args.deadline))).build()
}

/// Medium-hard instances used for sweeps (hard enough to measure,
/// finishing well within the budget).
fn representative_subset(args: &BenchArgs) -> Vec<Instance> {
    let names = [
        "p_hat_150_3",
        "p_hat_200_2",
        "wiki_link_lo_like",
        "sister_cities_like",
    ];
    suite(args.scale)
        .into_iter()
        .filter(|i| names.contains(&i.name.as_str()))
        .collect()
}

/// **Extensions ablation** — the paper-faithful rule set vs the
/// matching lower bound (the solver's default): how much smaller does
/// the search tree get, and at what overhead?
pub fn extensions_ablation(args: &BenchArgs) {
    println!("\n=== Ablation: optional extensions beyond the paper's rules ===");
    let reps = representative_subset(args);
    let mut t = Table::new(vec![
        "graph",
        "extensions",
        "time(s)",
        "tree nodes",
        "vs baseline",
    ]);
    for inst in &reps {
        let mut baseline_nodes = 0u64;
        for (label, ext) in [
            ("none (paper-faithful)", Extensions::NONE),
            ("+matching LB", Extensions::default()),
        ] {
            let solver = solver_with(Algorithm::Hybrid, args, |b| b.extensions(ext));
            let r = solver.solve_mvc(&inst.graph);
            if ext == Extensions::NONE {
                baseline_nodes = r.stats.tree_nodes.max(1);
            }
            t.row(vec![
                inst.name.clone(),
                label.to_string(),
                fmt_seconds(r.stats.seconds(), r.stats.timed_out),
                r.stats.tree_nodes.to_string(),
                format!(
                    "{:.2}x nodes",
                    r.stats.tree_nodes as f64 / baseline_nodes as f64
                ),
            ]);
        }
        t.separator();
    }
    t.print();
}

/// **Ablation** — the Hybrid scheme vs its two degenerate extremes,
/// quantifying §IV-A's trade-off: a pure global worklist explodes and
/// serializes on the queue; pure local stacks starve idle blocks.
pub fn ablation(args: &BenchArgs) {
    println!("\n=== Ablation: donation policy (threshold) extremes ===");
    let reps = representative_subset(args);
    let mut t = Table::new(vec![
        "graph",
        "policy",
        "time(s)",
        "device cycles",
        "tree nodes",
        "donated",
        "bounced",
        "imbalance",
    ]);
    for inst in &reps {
        for (label, frac, cap) in [
            ("never-donate (pure stacks)", 0.0, 1usize << 14),
            ("hybrid (0.25 x 16K)", 0.25, 1 << 14),
            ("hybrid (0.75 x 16K)", 0.75, 1 << 14),
            ("always-donate (pure worklist)", 1.0, 1 << 20),
        ] {
            let solver = solver_with(Algorithm::Hybrid, args, |b| {
                b.worklist_capacity(cap).threshold_frac(frac)
            });
            let r = solver.solve_mvc(&inst.graph);
            let donated: u64 = r.stats.report.blocks.iter().map(|b| b.nodes_donated).sum();
            let bounced: u64 = r
                .stats
                .report
                .blocks
                .iter()
                .map(|b| b.donations_bounced)
                .sum();
            t.row(vec![
                inst.name.clone(),
                label.to_string(),
                fmt_seconds(r.stats.seconds(), r.stats.timed_out),
                r.stats.device_cycles.to_string(),
                r.stats.tree_nodes.to_string(),
                donated.to_string(),
                bounced.to_string(),
                format!("{:.3}", r.stats.report.sm_load.imbalance()),
            ]);
        }
        t.separator();
    }
    t.print();
}
