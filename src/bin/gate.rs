//! `gate` — the deterministic CI gates, one suite per run.
//!
//! ```text
//! gate <suite> [--json <report>] [--baseline <baseline>]
//!              [--exec serial|pooled[:threads]]
//!              [--trace-out <chrome trace>] [--metrics-out <metrics>]
//! ```
//!
//! | suite | what it solves | baseline |
//! |---|---|---|
//! | `components` | every policy on a component-structured corpus; split counters | `bench/baselines/components.json` |
//! | `resolve` | a seeded edit batch re-solved incrementally, checked against a from-scratch solve | `bench/baselines/resolve.json` |
//! | `approx` | weighted solves, each optimum bracketed by the 2-approximation's certificate | `bench/baselines/approx.json` |
//! | `serve` | a pinned request script against an in-process server, then forced overload | `bench/baselines/serve.json` |
//! | `multiblock` | every policy at grid 2 and 8, MVC / weighted MVC / PVC at opt−1 | none |
//!
//! The first four solve at one block, so every count is deterministic
//! and executor-invariant. Each prints its JSON report, writes it with
//! `--json`, and with `--baseline` compares it against the committed
//! file: a suite names which numeric fields are **exact** (optima,
//! reuse accounting, cache totals, sheds: any change fails) and which
//! are **monotone** (tree nodes: more fails, fewer prints a note);
//! every other number (latency, throughput, split counters) is
//! informational. Rows are matched by `name` and `policy`, and a
//! baseline row the report lacks fails. Refresh a baseline by running
//! its suite with `--json bench/baselines/<file>` and committing.
//!
//! `multiblock` has no baseline: multi-block tree shapes depend on the
//! interleaving, so it prints each cell's tree-node range and each
//! instance's coverage (the share of parallel solves in which two or
//! more blocks visited tree nodes), and asserts only that every answer
//! is optimal by the grid-1 `seq` solve.
//!
//! Exit status: 0 on a pass, 1 on a baseline regression, 2 on bad
//! arguments; a failed suite assertion panics.

use std::process::ExitCode;

use parvc::core::approx::{weighted_approx_cover, ApproxCover};
use parvc::core::{
    is_vertex_cover, Algorithm, ExecutorSpec, Solver, SolverBuilder, SplitParams, TelemetryConfig,
    TelemetrySnapshot,
};
use parvc::graph::gen::{self, spec};
use parvc::graph::{CsrGraph, EditScript};
use parvc::serve::{ServeConfig, Server};
use parvc::simgpu::counters::BlockCounters;
use parvc_bench::json::{obj, parse, Value};

/// One gate suite: what it runs, the report it writes, and how the
/// report's fields compare against a baseline.
struct Suite {
    name: &'static str,
    /// The report's `bench` value.
    bench: &'static str,
    /// The flags the suite honours; any other is an error.
    flags: &'static [&'static str],
    /// Numeric fields that must equal the baseline's.
    exact: &'static [&'static str],
    /// Numeric fields that may fall but must not rise.
    monotone: &'static [&'static str],
    /// Runs the suite, asserting its own invariants, and returns the
    /// report's fields other than `schema` and `bench`.
    run: fn(&Opts) -> Vec<(&'static str, Value)>,
}

const SUITES: &[Suite] = &[
    Suite {
        name: "components",
        bench: "components-smoke",
        flags: &["json", "baseline", "exec", "trace-out", "metrics-out"],
        exact: &["size"],
        monotone: &["tree_nodes"],
        run: components,
    },
    Suite {
        name: "resolve",
        bench: "resolve-smoke",
        flags: &["json", "baseline", "exec"],
        exact: &[
            "size",
            "components_reused",
            "components_invalidated",
            "warm_skips",
        ],
        monotone: &["initial_tree_nodes", "resolve_tree_nodes"],
        run: resolve,
    },
    Suite {
        name: "approx",
        bench: "approx-smoke",
        flags: &["json", "baseline", "exec"],
        exact: &["weight"],
        monotone: &["greedy_tree_nodes"],
        run: approx,
    },
    Suite {
        name: "serve",
        bench: "serve-load",
        flags: &["json", "baseline"],
        exact: &["requests", "cache_hits", "cache_misses", "sheds", "cost"],
        monotone: &[],
        run: serve,
    },
    Suite {
        name: "multiblock",
        bench: "multiblock",
        flags: &["json", "exec"],
        exact: &[],
        monotone: &[],
        run: multiblock,
    },
];

const USAGE: &str = "usage: gate <components|resolve|approx|serve|multiblock> \
                     [--json <report>] [--baseline <baseline>] \
                     [--exec serial|pooled[:threads]] \
                     [--trace-out <chrome trace>] [--metrics-out <metrics>]\n";

/// The parsed flags of one run.
struct Opts {
    json: Option<String>,
    baseline: Option<String>,
    /// A pure wall-clock knob: counts are executor-invariant, so a
    /// pooled run gates against the same serial baseline.
    exec: ExecutorSpec,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<(&'static Suite, Opts), String> {
    let (name, flags) = args.split_first().ok_or("missing suite")?;
    let suite = SUITES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown suite '{name}'"))?;
    let mut opts = Opts {
        json: None,
        baseline: None,
        exec: ExecutorSpec::Serial,
        trace_out: None,
        metrics_out: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|key| suite.flags.contains(key))
            .ok_or_else(|| {
                format!(
                    "suite {name} does not take '{flag}' (it takes --{})",
                    suite.flags.join(", --")
                )
            })?;
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?
            .clone();
        match key {
            "json" => opts.json = Some(value),
            "baseline" => opts.baseline = Some(value),
            "trace-out" => opts.trace_out = Some(value),
            "metrics-out" => opts.metrics_out = Some(value),
            "exec" => {
                opts.exec = ExecutorSpec::parse(&value).map_err(|e| format!("--exec: {e}"))?
            }
            _ => unreachable!("suites list only the flags above"),
        }
    }
    Ok((suite, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (suite, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprint!("gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let baseline = match opts.baseline.as_deref().map(read_report).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("gate: {e}");
            return ExitCode::from(2);
        }
    };
    let mut fields = (suite.run)(&opts);
    fields.push(("schema", Value::Num(1)));
    fields.push(("bench", Value::Str(suite.bench.into())));
    let report = obj(fields);
    let text = report.to_pretty();
    print!("{text}");
    if let Some(path) = &opts.json {
        write_file(path, &text);
        eprintln!("[gate {}] report written to {path}", suite.name);
    }
    if let (Some(base), Some(path)) = (&baseline, &opts.baseline) {
        let regressions = compare(suite, "", base, &report);
        if regressions > 0 {
            eprintln!(
                "[gate {}] FAILED: {regressions} regression(s) against {path}",
                suite.name
            );
            return ExitCode::FAILURE;
        }
        eprintln!("[gate {}] ok: no regressions against {path}", suite.name);
    }
    ExitCode::SUCCESS
}

fn read_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

// ---- the one compare ----------------------------------------------

/// Counts the regressions of the object `current` against `base`,
/// printing one line per finding; `at` names the row being compared.
/// Strings are identities (`bench`, `name`, `policy`) and must match;
/// arrays hold rows, matched by their `name` or `policy` and compared
/// in turn; numbers compare by the suite's class for their key, and
/// nested objects (latency) are informational.
fn compare(suite: &Suite, at: &str, base: &Value, current: &Value) -> u32 {
    let Value::Obj(fields) = base else {
        return 0;
    };
    let fail = |what: String| {
        eprintln!("[gate {}] REGRESSION {at}{what}", suite.name);
        1
    };
    let mut regressions = 0;
    for (key, was) in fields {
        let monotone = suite.monotone.contains(&key.as_str());
        let gated = monotone || suite.exact.contains(&key.as_str());
        regressions += match (was, current.get(key)) {
            (Value::Arr(rows), Some(Value::Arr(now_rows))) => rows
                .iter()
                .map(|row| {
                    let id = row_id(row);
                    match now_rows.iter().find(|r| row_id(r) == id) {
                        Some(now) => compare(suite, &format!("{at}{id}/"), row, now),
                        None => fail(format!("{id}: missing from the report")),
                    }
                })
                .sum(),
            (Value::Num(was), Some(Value::Num(now))) if monotone && now < was => {
                eprintln!(
                    "[gate {}] improvement {at}{key}: {was} -> {now} \
                     (refresh the baseline to lock it in)",
                    suite.name
                );
                0
            }
            (Value::Num(was), Some(Value::Num(now))) if gated && now != was => {
                fail(format!("{key}: {was} -> {now}"))
            }
            (Value::Str(was), Some(Value::Str(now))) if now != was => {
                fail(format!("{key}: {was} -> {now}"))
            }
            (Value::Num(_), Some(Value::Num(_))) | (Value::Str(_), Some(Value::Str(_))) => 0,
            (Value::Num(_), _) if !gated => 0,
            (Value::Obj(_), _) => 0,
            _ => fail(format!("{key}: missing or mistyped in the report")),
        };
    }
    regressions
}

/// A row's identity: its `name`, or its `policy` in a policy row.
fn row_id(row: &Value) -> &str {
    row.get("name")
        .or_else(|| row.get("policy"))
        .and_then(Value::str)
        .unwrap_or("?")
}

// ---- what the suites share ----------------------------------------

/// Every scheduling policy, in report order. StackOnly starts at
/// depth 4, not the CLI's 8: the committed baselines pin its rows at
/// depth 4.
fn policies() -> impl Iterator<Item = (&'static str, Algorithm)> {
    Algorithm::NAMES
        .into_iter()
        .map(|(name, algorithm)| match algorithm {
            Algorithm::StackOnly { .. } => (name, Algorithm::StackOnly { start_depth: 4 }),
            _ => (name, algorithm),
        })
}

/// The gates' solver: in-search splitting from four live vertices,
/// on `grid` blocks. At one block every parallel policy runs
/// deterministically.
fn builder(algorithm: Algorithm, grid: u32, exec: ExecutorSpec) -> SolverBuilder {
    Solver::builder()
        .algorithm(algorithm)
        .grid_limit(Some(grid))
        .component_branching_params(SplitParams { min_live: 4 })
        .executor(exec)
}

/// Runs `cell` under every policy on every instance and returns the
/// report's `instances` rows. Each cell returns the instance's
/// optimum, which every policy must agree on and the row records as
/// `optimum`, and the fields of its policy row.
fn matrix<T>(
    suite: &str,
    corpus: Vec<(&'static str, T)>,
    optimum: &'static str,
    mut cell: impl FnMut(&str, &T, Algorithm) -> (u64, Vec<(&'static str, Value)>),
) -> Value {
    let mut instances = Vec::new();
    for (name, case) in corpus {
        eprintln!("[gate {suite}] {name}...");
        let mut agreed: Option<u64> = None;
        let mut rows = Vec::new();
        for (policy, algorithm) in policies() {
            let (value, mut fields) = cell(&format!("{name}/{policy}"), &case, algorithm);
            let first = *agreed.get_or_insert(value);
            assert_eq!(
                value, first,
                "{name}: policy {policy} disagrees on the {optimum}"
            );
            fields.push(("policy", Value::Str(policy.into())));
            rows.push(obj(fields));
        }
        instances.push(obj(vec![
            ("name", Value::Str(name.into())),
            (optimum, Value::Num(agreed.expect("six policies ran"))),
            ("policies", Value::Arr(rows)),
        ]));
    }
    Value::Arr(instances)
}

/// Component-structured instances small enough for exhaustive solves
/// in seconds, plus a dense complement instance with a four-digit
/// tree that gates raw search, not just the split machinery.
fn components_corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("components", gen::sparse_components(120, 12, 0.5, 3)),
        ("components_wide", gen::sparse_components(96, 8, 0.42, 11)),
        ("grid", gen::grid2d(6, 6)),
        ("ba", gen::barabasi_albert(70, 2, 7)),
        ("gnp_sparse", gen::gnp(34, 0.12, 5)),
        ("phat_dense", gen::p_hat_complement(40, 2, 5)),
    ]
}

/// Weighted instances. Degree-correlated weights (hubs expensive) are
/// where the primal-dual dual pulls ahead of the matching bound, so
/// split budgets tighten; uniform weights gate the no-worse direction.
fn approx_corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "components_deg",
            gen::with_degree_weights(gen::sparse_components(120, 12, 0.5, 3)),
        ),
        (
            "components_uni",
            gen::with_uniform_weights(gen::sparse_components(96, 8, 0.42, 23), 9, 3),
        ),
        (
            "ba_deg",
            gen::with_degree_weights(gen::barabasi_albert(60, 2, 3)),
        ),
        (
            "grid_uni",
            gen::with_uniform_weights(gen::grid2d(6, 6), 5, 0xa2),
        ),
        ("gnp_deg", gen::with_degree_weights(gen::gnp(36, 0.15, 16))),
        (
            "gnp_uni",
            gen::with_uniform_weights(gen::gnp(40, 0.1, 26), 20, 26 ^ 0x77),
        ),
    ]
}

// ---- components ----------------------------------------------------

/// With `--trace-out` / `--metrics-out` every solve runs with a full
/// recording sink and still gates against the sink-free baseline: a
/// sink that moved any count fails the compare.
fn components(opts: &Opts) -> Vec<(&'static str, Value)> {
    let telemetry = opts.trace_out.is_some() || opts.metrics_out.is_some();
    let mut merged = TelemetrySnapshot::default();
    let mut trace = None;
    let instances = matrix(
        "components",
        components_corpus(),
        "size",
        |label, g, algorithm| {
            let mut b = builder(algorithm, 1, opts.exec);
            if telemetry {
                b = b.telemetry(TelemetryConfig::default());
            }
            let r = b.build().solve_mvc(g);
            if let Some(snap) = &r.stats.telemetry {
                merge_snapshot(&mut merged, snap);
                // The trace artifact is one representative solve with
                // the richest span taxonomy.
                if label == "components/compsteal" {
                    trace = Some(snap.chrome_trace());
                }
            }
            assert!(
                is_vertex_cover(g, &r.cover),
                "{label}: returned a non-cover"
            );
            let splits = r.stats.report.split_totals();
            (
                u64::from(r.size),
                vec![
                    ("tree_nodes", Value::Num(r.stats.tree_nodes)),
                    ("split_checks", Value::Num(splits.checks)),
                    ("splits_taken", Value::Num(splits.taken)),
                    ("split_check_work", Value::Num(splits.check_work)),
                ],
            )
        },
    );
    if let Some(path) = &opts.trace_out {
        write_file(path, &trace.expect("the components/compsteal solve ran"));
        eprintln!("[gate components] chrome trace written to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_file(path, &merged.metrics_json());
        eprintln!("[gate components] merged metrics written to {path}");
    }
    vec![("instances", instances)]
}

/// Folds one solve's snapshot into the run-wide aggregate: counters
/// and histogram populations are summed (they are per-solve totals),
/// gauges keep their maximum (the run's high-water mark).
fn merge_snapshot(agg: &mut TelemetrySnapshot, snap: &TelemetrySnapshot) {
    agg.dropped_spans += snap.dropped_spans;
    agg.push_spans(snap.spans.iter().copied());
    for (&k, &v) in &snap.counters {
        *agg.counters.entry(k).or_insert(0) += v;
    }
    for (&k, &v) in &snap.gauges {
        let slot = agg.gauges.entry(k).or_insert(0);
        *slot = (*slot).max(v);
    }
    for (&k, h) in &snap.histograms {
        agg.histograms.entry(k).or_default().merge(h);
    }
}

// ---- resolve -------------------------------------------------------

/// The seeded edit script (ops, seed) each re-solved instance of the
/// components corpus takes: about half inserts, so scripts both merge
/// and split components; `grid` and `gnp_sparse` are single
/// components, where a re-solve degenerates to a full one.
const EDITS: [(&str, usize, u64); 4] = [
    ("components", 12, 0xd1),
    ("components_wide", 10, 0xd2),
    ("grid", 8, 0xd3),
    ("gnp_sparse", 8, 0xd4),
];

fn resolve(opts: &Opts) -> Vec<(&'static str, Value)> {
    let corpus: Vec<(&'static str, (CsrGraph, EditScript))> = components_corpus()
        .into_iter()
        .filter_map(|(name, g)| {
            let &(_, ops, seed) = EDITS.iter().find(|e| e.0 == name)?;
            let edits = gen::edit_script(&g, ops, 0.5, seed);
            Some((name, (g, edits)))
        })
        .collect();
    let instances = matrix("resolve", corpus, "size", |label, (g, edits), algorithm| {
        let s = builder(algorithm, 1, opts.exec).build();
        let initial = s.solve_mvc(g);
        let r = s
            .resolve(g, &initial, edits)
            .unwrap_or_else(|e| panic!("{label}: script must apply: {e}"));
        assert!(
            is_vertex_cover(&r.graph, &r.result.cover),
            "{label}: resolve returned a non-cover"
        );
        assert_eq!(
            r.result.size,
            s.solve_mvc(&r.graph).size,
            "{label}: incremental and from-scratch optima disagree"
        );
        (
            u64::from(r.result.size),
            vec![
                ("initial_tree_nodes", Value::Num(initial.stats.tree_nodes)),
                ("resolve_tree_nodes", Value::Num(r.stats.resolve_tree_nodes)),
                (
                    "components_reused",
                    Value::Num(u64::from(r.stats.components_reused)),
                ),
                (
                    "components_invalidated",
                    Value::Num(u64::from(r.stats.components_invalidated)),
                ),
                ("warm_skips", Value::Num(u64::from(r.stats.warm_skips))),
            ],
        )
    });
    vec![("instances", instances)]
}

// ---- approx --------------------------------------------------------

/// Each cell solves once from the greedy seed. The approximate tier's
/// certificate must bracket every optimum:
/// `lower_bound ≤ weight ≤ cost ≤ 2·lower_bound`, with a valid cover.
fn approx(opts: &Opts) -> Vec<(&'static str, Value)> {
    let corpus: Vec<(&'static str, (CsrGraph, ApproxCover))> = approx_corpus()
        .into_iter()
        .map(|(name, g)| {
            let a = weighted_approx_cover(&g, &mut BlockCounters::new(0));
            assert!(
                is_vertex_cover(&g, &a.cover),
                "{name}: the approx tier returned a non-cover"
            );
            (name, (g, a))
        })
        .collect();
    let instances = matrix("approx", corpus, "weight", |label, (g, a), algorithm| {
        let r = builder(algorithm, 1, opts.exec)
            .weighted()
            .build()
            .solve_mvc(g);
        assert!(
            is_vertex_cover(g, &r.cover),
            "{label}: solve returned a non-cover"
        );
        assert!(
            a.lower_bound <= r.weight && r.weight <= a.cost && a.cost <= 2 * a.lower_bound,
            "{label}: the certificate [{}, {}] does not bracket the optimum {}",
            a.lower_bound,
            a.cost,
            r.weight
        );
        (
            r.weight,
            vec![("greedy_tree_nodes", Value::Num(r.stats.tree_nodes))],
        )
    });
    vec![("instances", instances)]
}

// ---- serve ---------------------------------------------------------

/// The replayed request stream: six rounds over three instances (`a`
/// and `w` share structure, `w` carries degree weights; `b` takes an
/// edit stream), with repeats that hit the cache and a certificate
/// request mixed in. Every seed is pinned.
fn serve_script() -> Vec<String> {
    let mut lines = vec![
        "LOAD a gnp:60:0.08@5".to_string(),
        "LOAD b components:90:10:0.45@3".to_string(),
        "LOAD w gnp:60:0.08@5:w=degree".to_string(),
    ];
    for round in 0..6 {
        lines.push("SOLVE a".to_string());
        lines.push("SOLVE b".to_string());
        lines.push("SOLVE w --weighted".to_string());
        lines.push("SOLVE a --approx".to_string());
        if round % 2 == 1 {
            // Advance b and re-ask: the re-solve primes the cache for
            // the post-edit graph, so the SOLVE right after must hit.
            lines.push(format!("RESOLVE b --edits gen:3@{round}"));
            lines.push("SOLVE b".to_string());
        }
    }
    lines.push("STATS".to_string());
    lines
}

fn response(server: &Server, line: &str) -> Value {
    let text = server
        .handle(line)
        .unwrap_or_else(|| panic!("no response for '{line}'"));
    let doc = parse(&text).unwrap_or_else(|e| panic!("bad response for '{line}': {e}"));
    assert_eq!(
        doc.get("ok"),
        Some(&Value::Bool(true)),
        "request '{line}' failed: {text}"
    );
    doc
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::num)
        .unwrap_or_else(|| panic!("response missing numeric field '{key}': {v:?}"))
}

/// Replays the script on a default server, then forces overload (a
/// high-water mark of 0) so every exact solve is shed: each shed
/// answer must be a valid cover within twice its certified lower
/// bound. Latency and throughput vary by machine and are reported
/// only.
fn serve(_: &Opts) -> Vec<(&'static str, Value)> {
    use std::time::Instant;

    let server = Server::new(ServeConfig::default());
    let lines = serve_script();
    let mut latencies_us = Vec::with_capacity(lines.len());
    let mut last_cost = std::collections::BTreeMap::new();
    let started = Instant::now();
    for line in &lines {
        let t0 = Instant::now();
        let doc = response(&server, line);
        latencies_us.push(t0.elapsed().as_micros() as u64);
        if let Some(rest) = line.strip_prefix("SOLVE ") {
            if !line.contains("--approx") {
                let name = rest.split_whitespace().next().expect("SOLVE names");
                last_cost.insert(name.to_string(), num(&doc, "cost"));
            }
        }
    }
    let elapsed = started.elapsed();
    let stats = response(&server, "STATS");
    let cache = stats.get("cache").expect("STATS has a cache object");
    let (hits, misses) = (num(cache, "hits"), num(cache, "misses"));
    assert!(hits > 0, "a workload with repeats produced no cache hit");
    assert_eq!(
        num(&stats, "sheds"),
        0,
        "a single-threaded workload under the default high-water shed requests"
    );
    latencies_us.sort_unstable();
    let pct = |p: usize| latencies_us[(latencies_us.len() - 1) * p / 100];
    let throughput = (lines.len() as f64 / elapsed.as_secs_f64()) as u64;
    eprintln!(
        "[gate serve] {} requests in {elapsed:?}: p50 {}us p99 {}us, ~{throughput} req/s, \
         cache {hits} hits / {misses} misses",
        lines.len(),
        pct(50),
        pct(99),
    );

    let shed_server = Server::new(ServeConfig {
        high_water: 0,
        ..ServeConfig::default()
    });
    let shed_spec = "gnp:50:0.1@11";
    let shed_graph = spec::parse(shed_spec)
        .expect("shed spec parses")
        .expect("shed spec is a generator");
    response(&shed_server, &format!("LOAD s {shed_spec}"));
    let sheds = 3;
    for _ in 0..sheds {
        let doc = response(&shed_server, "SOLVE s");
        assert_eq!(doc.get("degraded"), Some(&Value::Bool(true)), "not shed");
        assert_eq!(doc.get("certified"), Some(&Value::Bool(true)));
        let (cost, lb) = (num(&doc, "cost"), num(&doc, "lower_bound"));
        assert!(
            cost <= 2 * lb,
            "shed certificate broke its bound: cost {cost} > 2 x {lb}"
        );
        let cover: Vec<u32> = doc
            .get("cover")
            .and_then(Value::arr)
            .expect("shed response carries the cover")
            .iter()
            .filter_map(Value::num)
            .map(|v| v as u32)
            .collect();
        assert!(
            is_vertex_cover(&shed_graph, &cover),
            "shed certificate is not a vertex cover"
        );
    }
    let shed_stats = response(&shed_server, "STATS");
    assert_eq!(num(&shed_stats, "sheds"), sheds, "STATS undercounts sheds");
    eprintln!("[gate serve] {sheds} forced sheds, every certificate within 2x and valid");

    let checks = last_cost
        .into_iter()
        .map(|(name, cost)| obj(vec![("name", Value::Str(name)), ("cost", Value::Num(cost))]))
        .collect();
    vec![
        ("requests", Value::Num(lines.len() as u64 + 1)),
        ("cache_hits", Value::Num(hits)),
        ("cache_misses", Value::Num(misses)),
        ("sheds", Value::Num(sheds)),
        ("checks", Value::Arr(checks)),
        (
            "latency_us",
            obj(vec![
                ("p50", Value::Num(pct(50))),
                ("p99", Value::Num(pct(99))),
            ]),
        ),
        ("throughput_rps", Value::Num(throughput)),
    ]
}

// ---- multiblock ----------------------------------------------------

/// The grids the multi-block arm runs at, and how often each cell
/// repeats: enough interleavings to catch a rare premature
/// termination, few enough for a CI step of seconds.
const GRIDS: [u32; 2] = [2, 8];
const REPS: usize = 5;

/// A multi-block instance with its grid-1 `seq` optima.
struct Case {
    /// Position in the corpus.
    index: usize,
    /// Carries weights; the cardinality solves ignore them.
    graph: CsrGraph,
    size: u32,
    weight: u64,
}

/// Every instance of the `components` and `approx` corpora, plus one
/// of each dense `dense-search` family of the benchmark and
/// `gnp:100:0.15@1`, whose search spreads over the blocks. Each must be
/// solved to the grid-1 `seq` optimum in MVC and weighted MVC, and
/// PVC at that optimum minus one must answer "no".
///
/// Coverage, per instance and overall, is the share of the parallel
/// policies' solves in which two or more blocks visited tree nodes. It
/// is printed and reported, never gated.
fn multiblock(opts: &Opts) -> Vec<(&'static str, Value)> {
    let dense = ["phat:70:2@1", "gnp:55:0.25@1", "gnp:100:0.15@1"].map(|s| {
        let g = spec::parse(s).expect("spec parses").expect("a generator");
        (s, g)
    });
    let corpus: Vec<(&'static str, Case)> = components_corpus()
        .into_iter()
        .chain(approx_corpus())
        .chain(dense)
        .enumerate()
        .map(|(i, (name, g))| {
            let graph = if g.is_weighted() {
                g
            } else {
                gen::with_uniform_weights(g, 10, i as u64)
            };
            let seq = builder(Algorithm::Sequential, 1, opts.exec);
            let size = seq.clone().build().solve_mvc(&graph).size;
            let weight = seq.weighted().build().solve_mvc(&graph).weight;
            (
                name,
                Case {
                    index: i,
                    graph,
                    size,
                    weight,
                },
            )
        })
        .collect();
    let names: Vec<&str> = corpus.iter().map(|&(name, _)| name).collect();
    // Per instance: parallel solves spread over two or more blocks, and
    // parallel solves.
    let mut spread = vec![(0u64, 0u64); corpus.len()];
    let instances = matrix("multiblock", corpus, "size", |label, case, algorithm| {
        let g = &case.graph;
        let mut grids = Vec::new();
        for grid in GRIDS {
            let cardinality = builder(algorithm, grid, opts.exec).build();
            let weighted = builder(algorithm, grid, opts.exec).weighted().build();
            // (min, max) tree nodes per mode: MVC, weighted, PVC.
            let mut nodes = [(u64::MAX, 0u64); 3];
            for _ in 0..REPS {
                let mvc = cardinality.solve_mvc(g);
                assert!(
                    is_vertex_cover(g, &mvc.cover) && mvc.size == case.size,
                    "{label} grid {grid}: MVC answered {} (seq at grid 1: {})",
                    mvc.size,
                    case.size
                );
                let w = weighted.solve_mvc(g);
                assert!(
                    is_vertex_cover(g, &w.cover) && w.weight == case.weight,
                    "{label} grid {grid}: weighted MVC answered {} (seq at grid 1: {})",
                    w.weight,
                    case.weight
                );
                let pvc = cardinality.solve_pvc(g, case.size - 1);
                assert!(
                    pvc.cover.is_none() && !pvc.stats.timed_out,
                    "{label} grid {grid}: PVC at k = {} did not answer no",
                    case.size - 1
                );
                let counts = [
                    mvc.stats.tree_nodes,
                    w.stats.tree_nodes,
                    pvc.stats.tree_nodes,
                ];
                for (range, n) in nodes.iter_mut().zip(counts) {
                    *range = (range.0.min(n), range.1.max(n));
                }
                if algorithm != Algorithm::Sequential {
                    let (spread, solves) = &mut spread[case.index];
                    for stats in [&mvc.stats, &w.stats, &pvc.stats] {
                        let blocks = &stats.report.blocks;
                        let working = blocks.iter().filter(|b| b.tree_nodes_visited > 0).count();
                        *spread += u64::from(working > 1);
                        *solves += 1;
                    }
                }
            }
            let [m, w, p] = nodes;
            eprintln!(
                "[gate multiblock] {label} grid {grid}: tree nodes mvc {}..{}, \
                 weighted {}..{}, pvc {}..{}",
                m.0, m.1, w.0, w.1, p.0, p.1
            );
            let range = |(lo, hi): (u64, u64)| Value::Arr(vec![Value::Num(lo), Value::Num(hi)]);
            grids.push(obj(vec![
                ("grid", Value::Num(u64::from(grid))),
                ("mvc_tree_nodes", range(m)),
                ("weighted_tree_nodes", range(w)),
                ("pvc_tree_nodes", range(p)),
            ]));
        }
        (u64::from(case.size), vec![("grids", Value::Arr(grids))])
    });
    let share = |(spread, solves): (u64, u64)| {
        vec![
            ("spread", Value::Num(spread)),
            ("solves", Value::Num(solves)),
        ]
    };
    let mut rows = Vec::new();
    for (name, &tally) in names.iter().zip(&spread) {
        eprintln!(
            "[gate multiblock] coverage {name}: {} of {} solves spread over two or more blocks",
            tally.0, tally.1
        );
        let mut row = share(tally);
        row.push(("name", Value::Str(name.to_string())));
        rows.push(obj(row));
    }
    let total = spread.iter().fold((0, 0), |(a, b), &(s, n)| (a + s, b + n));
    eprintln!(
        "[gate multiblock] coverage overall: {} of {} solves spread over two or more blocks",
        total.0, total.1
    );
    vec![
        ("instances", instances),
        ("coverage", Value::Arr(rows)),
        ("coverage_overall", obj(share(total))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(name: &str) -> &'static Suite {
        SUITES.iter().find(|s| s.name == name).expect("a suite")
    }

    fn baseline(file: &str) -> Value {
        let path = format!("{}/bench/baselines/{file}", env!("CARGO_MANIFEST_DIR"));
        read_report(&path).expect("committed baselines parse")
    }

    /// The field `key` of the first row down `path` (row ids), or of
    /// the report itself when `path` is empty.
    fn field<'a>(report: &'a mut Value, path: &[&str], key: &str) -> &'a mut Value {
        let mut v = report;
        for id in path {
            let Value::Obj(fields) = v else {
                panic!("rows are objects")
            };
            let rows = fields
                .values_mut()
                .find_map(|f| match f {
                    Value::Arr(rows) if rows.iter().any(|r| row_id(r) == *id) => Some(rows),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no row {id}"));
            v = rows
                .iter_mut()
                .find(|r| row_id(r) == *id)
                .expect("found above");
        }
        let Value::Obj(fields) = v else {
            panic!("rows are objects")
        };
        fields
            .get_mut(key)
            .unwrap_or_else(|| panic!("no field {key}"))
    }

    fn bump(v: &mut Value, up: bool) {
        let Value::Num(n) = v else { panic!("a number") };
        *n = if up { *n + 1 } else { *n - 1 };
    }

    /// Compares `baseline` against a copy edited by `edit`.
    fn regressions(name: &str, file: &str, edit: impl FnOnce(&mut Value)) -> u32 {
        let base = baseline(file);
        let mut current = base.clone();
        edit(&mut current);
        compare(suite(name), "", &base, &current)
    }

    /// A field: the row ids down to its row, and its key.
    type At = (&'static [&'static str], &'static str);

    /// Each committed baseline with its suite, a monotone field (none
    /// in `serve`) and exact fields.
    const BASELINES: [(&str, &str, Option<At>, &[At]); 4] = [
        (
            "components",
            "components.json",
            Some((&["phat_dense", "steal"], "tree_nodes")),
            &[(&["ba"], "size")],
        ),
        (
            "resolve",
            "resolve.json",
            Some((&["components", "compsteal"], "resolve_tree_nodes")),
            &[
                (&["grid"], "size"),
                (&["components_wide", "hybrid"], "components_reused"),
            ],
        ),
        (
            "approx",
            "approx.json",
            Some((&["gnp_deg", "seq"], "greedy_tree_nodes")),
            &[(&["grid_uni"], "weight")],
        ),
        (
            "serve",
            "serve.json",
            None,
            &[(&["b"], "cost"), (&[], "cache_hits"), (&[], "sheds")],
        ),
    ];

    #[test]
    fn every_baseline_passes_against_itself() {
        for (name, file, ..) in BASELINES {
            assert_eq!(regressions(name, file, |_| {}), 0, "{file}");
        }
    }

    #[test]
    fn a_risen_tree_node_count_fails_and_a_fallen_one_does_not() {
        for (name, file, monotone, _) in BASELINES {
            let Some((row, key)) = monotone else { continue };
            let bumped = |up| regressions(name, file, |r| bump(field(r, row, key), up));
            assert_eq!(bumped(true), 1, "{file}: {key} raised");
            assert_eq!(bumped(false), 0, "{file}: {key} lowered");
        }
    }

    #[test]
    fn a_changed_exact_field_fails() {
        for (name, file, _, exact) in BASELINES {
            for &(row, key) in exact {
                for up in [true, false] {
                    let n = regressions(name, file, |r| bump(field(r, row, key), up));
                    assert_eq!(n, 1, "{file}: {key} changed");
                }
            }
        }
    }

    #[test]
    fn a_missing_row_fails() {
        let dropped = |name, file, path: &[&str], rows, id| {
            regressions(name, file, |r| {
                let Value::Arr(rows) = field(r, path, rows) else {
                    panic!("{rows} is an array")
                };
                rows.retain(|row| row_id(row) != id);
            })
        };
        for (name, file, rows, id) in [
            ("components", "components.json", "instances", "grid"),
            ("approx", "approx.json", "instances", "ba_deg"),
            ("resolve", "resolve.json", "instances", "gnp_sparse"),
            ("serve", "serve.json", "checks", "w"),
        ] {
            assert_eq!(
                dropped(name, file, &[], rows, id),
                1,
                "{file}: {id} dropped"
            );
        }
        for (name, file, instance) in [
            ("components", "components.json", "components"),
            ("approx", "approx.json", "gnp_uni"),
            ("resolve", "resolve.json", "grid"),
        ] {
            let n = dropped(name, file, &[instance], "policies", "batch");
            assert_eq!(n, 1, "{file}: {instance}/batch dropped");
        }
    }

    #[test]
    fn latency_and_throughput_are_informational() {
        let n = regressions("serve", "serve.json", |r| {
            bump(field(r, &[], "throughput_rps"), true);
            let Value::Obj(latency) = field(r, &[], "latency_us") else {
                panic!("latency_us is an object")
            };
            latency.values_mut().for_each(|v| bump(v, true));
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn a_flag_a_suite_cannot_honour_is_an_error() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("serve --exec pooled:3")).is_err());
        assert!(parse_args(&args("resolve --trace-out t.json")).is_err());
        assert!(parse_args(&args("multiblock --baseline b.json")).is_err());
        assert!(parse_args(&args("serve --rounds 6")).is_err());
        assert!(parse_args(&args("smoke")).is_err());
        assert!(parse_args(&args("components --json")).is_err());
        let (suite, opts) = parse_args(&args("components --exec pooled:3 --json r.json"))
            .expect("components takes --exec and --json");
        assert_eq!(suite.name, "components");
        assert_eq!(opts.json.as_deref(), Some("r.json"));
        assert_ne!(opts.exec, ExecutorSpec::Serial);
    }
}
