//! The solver workloads: `dense-search` and `massive-prep`.
//!
//! Both run a fixed list of jobs, one `Solver::solve_mvc` /
//! `solve_pvc` call each, one job at a time. An untimed warm-up pass
//! solves every instance once with the reference policy: its answers
//! are the optima every timed job is checked against, and its times
//! set each job's deadline (10× the warm-up time, with a floor).
//!
//! A traced pass records a `job` span with a `core.solve` child around
//! every call. After the pass, [`crate::probe::probe`] calls the layers
//! the solve hides on each job's input.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parvc_core::{is_vertex_cover, Algorithm, PrepConfig, SolveStats, Solver};
use parvc_graph::gen::{self, spec};
use parvc_graph::CsrGraph;
use parvc_simgpu::counters::{Activity, ActivityFamily};

use crate::probe::{probe, Target};
use crate::trace::Recorder;
use crate::{
    finish, mix, timed_setup, Config, EndToEnd, Layers, Outcome, PassSamples, Verdict, POLICIES,
};

/// Setup is repeated this many times and its median reported.
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    Mvc,
    /// Exhaustive PVC at k = optimum − 1: the answer must be "no".
    Pvc,
    Weighted,
}

impl Mode {
    fn metric(self) -> &'static str {
        match self {
            Mode::Mvc => "engine.mode.mvc.s",
            Mode::Pvc => "engine.mode.pvc.s",
            Mode::Weighted => "engine.mode.weighted.s",
        }
    }
}

const POLICY_METRICS: [&str; 6] = [
    "engine.policy.seq.s",
    "engine.policy.stack.s",
    "engine.policy.hybrid.s",
    "engine.policy.batch.s",
    "engine.policy.steal.s",
    "engine.policy.compsteal.s",
];

fn algorithm(policy: usize) -> Algorithm {
    match POLICIES[policy] {
        "seq" => Algorithm::Sequential,
        "stack" => Algorithm::StackOnly { start_depth: 8 },
        "hybrid" => Algorithm::Hybrid,
        "batch" => Algorithm::Batched,
        "steal" => Algorithm::WorkStealing,
        _ => Algorithm::ComponentSteal,
    }
}

/// How one instance is generated.
enum Source {
    /// A generator spec; the weighted copy appends `:w=uniform`.
    Spec(String),
    /// `gen::power_grid_like(n, extra_edges, seed)`, which has no spec.
    PowerGrid(u32, u32, u64),
}

struct Instance {
    graph: CsrGraph,
    weighted: Option<CsrGraph>,
}

impl Instance {
    fn graph(&self, mode: Mode) -> &CsrGraph {
        match mode {
            Mode::Weighted => self.weighted.as_ref().expect("weighted copy generated"),
            _ => &self.graph,
        }
    }
}

/// A workload's definition.
struct Plan {
    sources: Vec<Source>,
    modes: &'static [Mode],
    policies: &'static [usize],
    prep: bool,
    /// Index into `POLICIES` of the warm-up's reference policy.
    reference: usize,
    /// Smallest per-job deadline, in seconds.
    deadline_floor: f64,
}

/// `dense-search`: the paper's Table I regime. Prep off, so the
/// engine, reduce, worklist and split layers do the work.
pub fn run_dense(cfg: &Config) -> Outcome {
    // (spec body, instances): why each family is in the workload is
    // in the README.
    let families: &[(&str, usize)] = if cfg.tiny {
        &[
            ("phat:30:2", 1),
            ("gnp:24:0.3", 1),
            ("ba:30:4", 1),
            ("bipartite:15:30:0.3", 1),
        ]
    } else {
        &[
            ("phat:70:2", 16),
            ("phat:70:3", 16),
            ("gnp:55:0.25", 16),
            ("ba:70:5", 12),
            ("bipartite:60:150:0.15", 12),
        ]
    };
    let bodies: Vec<&str> = families
        .iter()
        .flat_map(|&(body, count)| std::iter::repeat_n(body, count))
        .collect();
    let sources = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| Source::Spec(format!("{body}@{}", mix(cfg.seed, i as u64))))
        .collect();
    run_plan(
        cfg,
        Plan {
            sources,
            modes: &[Mode::Mvc, Mode::Pvc, Mode::Weighted],
            policies: &[0, 1, 2, 3, 4, 5],
            prep: false,
            reference: 0,
            deadline_floor: 0.5,
        },
    )
}

/// `massive-prep`: sparse ≥20k-vertex instances through the
/// kernelization pipeline, where prep, the component sub-searches and
/// the lift do most of the work.
pub fn run_massive(cfg: &Config) -> Outcome {
    let n: u32 = if cfg.tiny { 2_000 } else { 20_000 };
    let mut sources = Vec::new();
    for rep in 0..4u64 {
        let s = |family: u64| mix(cfg.seed, 4 * family + rep);
        sources.push(Source::Spec(format!(
            "components:{n}:{}:0.3@{}",
            n / 20,
            s(0)
        )));
        sources.push(Source::Spec(format!("ba:{n}:1@{}", s(1))));
        sources.push(Source::PowerGrid(n, n * 3 / 20, s(2)));
    }
    run_plan(
        cfg,
        Plan {
            sources,
            modes: &[Mode::Mvc],
            policies: &[2, 5],
            prep: true,
            reference: 2,
            deadline_floor: 2.0,
        },
    )
}

struct Job {
    inst: usize,
    mode: Mode,
    policy: usize,
    solver: Solver,
    /// PVC parameter (optimum − 1).
    k: u32,
}

/// A job's answer, kept until the pass is checked.
struct Answer {
    secs: f64,
    cover: Option<Vec<u32>>,
    size: u32,
    weight: u64,
    stats: SolveStats,
}

/// The warm-up reference per `(instance, mode)`.
struct Reference {
    size: u32,
    weight: u64,
    secs: f64,
}

fn generate(
    plan: &Plan,
    weighted: bool,
    rec: Option<&Recorder>,
    layers: &mut Layers,
) -> Vec<Instance> {
    plan.sources
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let span = rec.map(|r| r.open("graph.gen", i as u64 + 1, 0));
            let t = Instant::now();
            let (graph, weighted) = match source {
                Source::Spec(s) => (
                    spec::parse(s)
                        .expect("benchmark specs are well-formed")
                        .expect("benchmark specs name a generator family"),
                    weighted.then(|| {
                        spec::parse(&format!("{s}:w=uniform"))
                            .expect("benchmark specs are well-formed")
                            .expect("benchmark specs name a generator family")
                    }),
                ),
                Source::PowerGrid(n, extra, seed) => {
                    (gen::power_grid_like(*n, *extra, *seed), None)
                }
            };
            layers.add("graph.gen_s", t.elapsed().as_secs_f64());
            if let (Some(r), Some(span)) = (rec, span) {
                r.close(span);
            }
            layers.add("graph.vertices", f64::from(graph.num_vertices()));
            layers.add("graph.edges", graph.num_edges() as f64);
            Instance { graph, weighted }
        })
        .collect()
}

fn build_solver(plan: &Plan, cfg: &Config, policy: usize, weighted: bool) -> Solver {
    let mut b = Solver::builder()
        .algorithm(algorithm(policy))
        .grid_limit(Some(cfg.blocks));
    if plan.prep {
        b = b.preprocess(PrepConfig::default());
    }
    if weighted {
        b = b.weighted();
    }
    b.build()
}

fn run_plan(cfg: &Config, plan: Plan) -> Outcome {
    let rec = Recorder::default();
    let want_weighted = plan.modes.contains(&Mode::Weighted);
    let mut layers = Layers::default();
    let ((instances, solvers), setup_s) =
        timed_setup(SETUP_REPS, cfg.schedule.trace.then_some(&rec), |r| {
            layers = Layers::default();
            let instances = generate(&plan, want_weighted, r, &mut layers);
            // solvers[policy] = (cardinality, weighted)
            let solvers: BTreeMap<usize, (Solver, Option<Solver>)> = plan
                .policies
                .iter()
                .map(|&p| {
                    let weighted = want_weighted.then(|| build_solver(&plan, cfg, p, true));
                    (p, (build_solver(&plan, cfg, p, false), weighted))
                })
                .collect();
            (instances, solvers)
        });
    let solver = |policy: usize, mode: Mode| {
        let (card, weighted) = &solvers[&policy];
        match mode {
            Mode::Weighted => weighted.as_ref().expect("weighted solvers built"),
            _ => card,
        }
    };

    // Warm-up: reference optima and typical times. PVC at k =
    // optimum − 1 must answer "no".
    let mut out = Outcome::default();
    let mut refs: BTreeMap<(usize, Mode), Reference> = BTreeMap::new();
    for (i, inst) in instances.iter().enumerate() {
        for &mode in plan.modes {
            let g = inst.graph(mode);
            let s = solver(plan.reference, mode);
            let t = Instant::now();
            let (size, weight, ok) = match mode {
                Mode::Pvc => {
                    let r = s.solve_pvc(g, refs[&(i, Mode::Mvc)].size - 1);
                    (0, 0, !r.found())
                }
                _ => {
                    let r = s.solve_mvc(g);
                    (r.size, r.weight, is_vertex_cover(g, &r.cover))
                }
            };
            let secs = t.elapsed().as_secs_f64();
            out.wrong += u64::from(!ok);
            refs.insert((i, mode), Reference { size, weight, secs });
        }
    }

    let mut jobs = Vec::new();
    for (inst, _) in instances.iter().enumerate() {
        for &mode in plan.modes {
            let r = &refs[&(inst, mode)];
            let deadline = (10.0 * r.secs).clamp(plan.deadline_floor, 30.0);
            for &policy in plan.policies {
                jobs.push(Job {
                    inst,
                    mode,
                    policy,
                    solver: solver(policy, mode)
                        .with_deadline(Some(Duration::from_secs_f64(deadline))),
                    k: refs[&(inst, Mode::Mvc)].size - 1,
                });
            }
        }
    }

    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut traced_makespans = Vec::new();
    let mut elapsed = 0.0;
    let mut pass = 0;
    while let Some(traced) = cfg.schedule.next(pass, elapsed) {
        let r = traced.then_some(&rec);
        let base_id = (pass * jobs.len()) as u64 + 1_000_000;
        let t_pass = Instant::now();
        let answers: Vec<Answer> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| run_job(job, &instances[job.inst], r, base_id + j as u64))
            .collect();
        let makespan = t_pass.elapsed().as_secs_f64();
        elapsed += makespan;
        pass += 1;

        for (job, answer) in jobs.iter().zip(&answers) {
            out.count(check(job, answer, &instances[job.inst], &refs));
        }
        if traced {
            traced_makespans.push(makespan);
            for (j, (job, answer)) in jobs.iter().zip(&answers).enumerate() {
                record_layers(&mut layers, job, answer);
                let r = &refs[&(job.inst, job.mode)];
                let optimum = match job.mode {
                    Mode::Mvc => Some(u64::from(r.size)),
                    Mode::Weighted => Some(r.weight),
                    Mode::Pvc => None,
                };
                let target = Target {
                    g: instances[job.inst].graph(job.mode),
                    weighted: job.mode == Mode::Weighted,
                    prep: plan.prep,
                    cover: answer.cover.as_deref(),
                    optimum,
                };
                let p = probe(&rec, base_id + j as u64, &target, &mut layers);
                if plan.prep {
                    // Derived: the product solve minus its standalone
                    // prep and lift on the same graph.
                    layers.add("engine.components_s", answer.secs - p.prep_s - p.lift_s);
                }
                if !p.lifted_ok {
                    out.wrong += 1;
                    out.failed += 1;
                }
            }
        } else {
            let secs: Vec<f64> = answers.iter().map(|a| a.secs).collect();
            e2e.passes.push(PassSamples {
                makespan,
                req: secs.clone(),
                solve: secs,
            });
        }
    }
    out.metrics = finish(cfg, &e2e, &traced_makespans, &layers, &rec);
    out
}

fn run_job(job: &Job, inst: &Instance, rec: Option<&Recorder>, id: u64) -> Answer {
    let g = inst.graph(job.mode);
    let job_span = rec.map(|r| r.open("job", id, 0));
    let solve_span = rec
        .zip(job_span.as_ref())
        .map(|(r, s)| r.open("core.solve", id, s.id()));
    let t = Instant::now();
    let answer = match job.mode {
        Mode::Pvc => {
            let r = job.solver.solve_pvc(g, job.k);
            let secs = t.elapsed().as_secs_f64();
            Answer {
                secs,
                size: r.cover.as_ref().map_or(0, |c| c.len() as u32),
                weight: 0,
                cover: r.cover,
                stats: r.stats,
            }
        }
        _ => {
            let r = job.solver.solve_mvc(g);
            let secs = t.elapsed().as_secs_f64();
            Answer {
                secs,
                size: r.size,
                weight: r.weight,
                cover: Some(r.cover),
                stats: r.stats,
            }
        }
    };
    if let Some(r) = rec {
        if let Some(s) = solve_span {
            r.close(s);
        }
        if let Some(s) = job_span {
            r.close(s);
        }
    }
    answer
}

fn check(
    job: &Job,
    a: &Answer,
    inst: &Instance,
    refs: &BTreeMap<(usize, Mode), Reference>,
) -> Verdict {
    let g = inst.graph(job.mode);
    let r = &refs[&(job.inst, job.mode)];
    if a.stats.timed_out {
        return Verdict::Failed;
    }
    Verdict::from_good(match (job.mode, &a.cover) {
        (Mode::Pvc, cover) => cover.is_none(),
        (_, None) => false,
        (Mode::Mvc, Some(c)) => {
            is_vertex_cover(g, c) && c.len() as u32 == a.size && a.size == r.size
        }
        (Mode::Weighted, Some(c)) => {
            is_vertex_cover(g, c) && g.cover_weight(c) == a.weight && a.weight == r.weight
        }
    })
}

/// Folds one traced job's solve statistics into the engine, worklist,
/// split and simgpu layers.
fn record_layers(layers: &mut Layers, job: &Job, a: &Answer) {
    layers.add("engine.solve_s", a.secs);
    layers.add(POLICY_METRICS[job.policy], a.secs);
    layers.add(job.mode.metric(), a.secs);
    layers.add("engine.tree_nodes", a.stats.tree_nodes as f64);
    layers.add("engine.timeouts", f64::from(u8::from(a.stats.timed_out)));
    layers.add("simgpu.device_cycles", a.stats.device_cycles as f64);
    let blocks = &a.stats.report.blocks;
    let mut per_block: BTreeMap<u32, u64> = BTreeMap::new();
    for b in blocks {
        layers.add("worklist.nodes_donated", b.nodes_donated as f64);
        layers.add("worklist.nodes_from_worklist", b.nodes_from_worklist as f64);
        layers.add("worklist.donations_bounced", b.donations_bounced as f64);
        layers.add(
            "worklist.steals",
            b.steals_by_victim.values().sum::<u64>() as f64,
        );
        *per_block.entry(b.block_id).or_insert(0) += b.tree_nodes_visited;
        for a in Activity::ALL {
            let family = match a.family() {
                ActivityFamily::WorkDistribution => "simgpu.cycles.work_distribution",
                ActivityFamily::Reducing => "simgpu.cycles.reducing",
                ActivityFamily::Branching => "simgpu.cycles.branching",
            };
            layers.add(family, b.cycles(a) as f64);
        }
        layers.add("simgpu.cycles.total", b.total_cycles() as f64);
    }
    let total: u64 = per_block.values().sum();
    if per_block.len() > 1 && total > 0 {
        let max = *per_block.values().max().expect("non-empty") as f64;
        layers.sample(
            "worklist.block_load_max",
            max / (total as f64 / per_block.len() as f64),
        );
    }
    let split = a.stats.report.split_totals();
    layers.add("split.checks", split.checks as f64);
    layers.add("split.taken", split.taken as f64);
    layers.add("split.check_work", split.check_work as f64);
}
