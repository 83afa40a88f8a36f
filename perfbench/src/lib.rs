//! `perfbench` — the parvc workspace's end-to-end and per-layer
//! benchmark.
//!
//! Three workloads, each generated from a seed in one process:
//!
//! * `dense-search` ([`solve::run_dense`]) — the paper's Table I
//!   regime: dense and high-degree instances, prep off, MVC / PVC at
//!   k = min − 1 / weighted MVC under all six policies.
//! * `massive-prep` ([`solve::run_massive`]) — ≥20k-vertex sparse
//!   instances solved through the kernelization pipeline under
//!   `hybrid` and `compsteal`.
//! * `serve-mixed` ([`serve::run`]) — closed-loop clients replaying
//!   seeded request streams against one in-process `Server`.
//!
//! A run repeats its workload's fixed job list in passes until
//! `--seconds` of pass time have been measured, checks every answer
//! outside the timed region, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced). The metric names and
//! units are [`END_TO_END`] and [`PER_LAYER`]; `BENCHMARK.json` at the
//! repository root lists the same names.

use std::collections::BTreeMap;
use std::path::PathBuf;

pub mod probe;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod trace;

use stats::{median, percentile, ratio, windowed_percentile};
use trace::Recorder;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_p90", "s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Policies in the order the per-policy metrics name them.
pub const POLICIES: [&str; 6] = ["seq", "stack", "hybrid", "batch", "steal", "compsteal"];

/// Per-layer metrics `(name, unit)`, measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("prep.preprocess_s", "s"),
    ("prep.preprocess_s_p50", "s"),
    ("prep.rule.d012.s", "s"),
    ("prep.rule.crown.s", "s"),
    ("prep.rule.highdeg.s", "s"),
    ("prep.split.s", "s"),
    ("prep.lift_s", "s"),
    ("prep.eliminated_frac", "fraction"),
    ("prep.components", "count"),
    ("prep.kernel_vertices", "count"),
    ("prep.rounds", "count"),
    ("prep.rule.d012.eliminated", "count"),
    ("prep.rule.crown.eliminated", "count"),
    ("prep.rule.highdeg.eliminated", "count"),
    ("seed.greedy_s", "s"),
    ("seed.gap", "fraction"),
    ("engine.solve_s", "s"),
    ("engine.policy.seq.s", "s"),
    ("engine.policy.stack.s", "s"),
    ("engine.policy.hybrid.s", "s"),
    ("engine.policy.batch.s", "s"),
    ("engine.policy.steal.s", "s"),
    ("engine.policy.compsteal.s", "s"),
    ("engine.mode.mvc.s", "s"),
    ("engine.mode.pvc.s", "s"),
    ("engine.mode.weighted.s", "s"),
    ("engine.tree_nodes", "count"),
    ("engine.nodes_per_s", "1/s"),
    ("engine.timeouts", "count"),
    ("engine.components_s", "s"),
    ("worklist.nodes_donated", "count"),
    ("worklist.nodes_from_worklist", "count"),
    ("worklist.donations_bounced", "count"),
    ("worklist.steals", "count"),
    ("worklist.block_load_max", "ratio"),
    ("split.checks", "count"),
    ("split.taken", "count"),
    ("split.check_work", "count"),
    ("simgpu.device_cycles", "cycles"),
    ("simgpu.cycles.work_distribution_frac", "fraction"),
    ("simgpu.cycles.reducing_frac", "fraction"),
    ("simgpu.cycles.branching_frac", "fraction"),
    ("resolve.ms_p50", "ms"),
    ("resolve.ms_p99", "ms"),
    ("resolve.reused_frac", "fraction"),
    ("resolve.tree_nodes", "count"),
    ("serve.load.ms_p50", "ms"),
    ("serve.load.ms_p99", "ms"),
    ("serve.solve_hit.ms_p50", "ms"),
    ("serve.solve_hit.ms_p99", "ms"),
    ("serve.solve_miss.ms_p50", "ms"),
    ("serve.solve_miss.ms_p99", "ms"),
    ("serve.solve_weighted.ms_p50", "ms"),
    ("serve.solve_weighted.ms_p99", "ms"),
    ("serve.approx.ms_p50", "ms"),
    ("serve.approx.ms_p99", "ms"),
    ("serve.resolve.ms_p50", "ms"),
    ("serve.resolve.ms_p99", "ms"),
    ("serve.stats.ms_p50", "ms"),
    ("serve.stats.ms_p99", "ms"),
    ("serve.cache.hit_frac", "fraction"),
    ("serve.cache.evictions", "count"),
    ("serve.sheds", "count"),
    ("serve.errors", "count"),
    ("samples.solve", "count"),
    ("samples.req", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("selftime.job_s", "s"),
    ("selftime.graph.gen_s", "s"),
    ("selftime.core.solve_s", "s"),
    ("selftime.serve.handle_s", "s"),
    ("selftime.prep.preprocess_s", "s"),
    ("selftime.prep.lift_s", "s"),
    ("selftime.seed.greedy_s", "s"),
];

/// Per-layer sums reported per traced pass (divided by the number of
/// traced passes).
const PER_PASS_SUMS: &[&str] = &[
    "prep.components",
    "prep.kernel_vertices",
    "prep.rounds",
    "prep.rule.d012.eliminated",
    "prep.rule.crown.eliminated",
    "prep.rule.highdeg.eliminated",
    "engine.solve_s",
    "engine.policy.seq.s",
    "engine.policy.stack.s",
    "engine.policy.hybrid.s",
    "engine.policy.batch.s",
    "engine.policy.steal.s",
    "engine.policy.compsteal.s",
    "engine.mode.mvc.s",
    "engine.mode.pvc.s",
    "engine.mode.weighted.s",
    "engine.tree_nodes",
    "engine.timeouts",
    "engine.components_s",
    "worklist.nodes_donated",
    "worklist.nodes_from_worklist",
    "worklist.donations_bounced",
    "worklist.steals",
    "split.checks",
    "split.taken",
    "split.check_work",
    "simgpu.device_cycles",
    "resolve.tree_nodes",
    "serve.cache.evictions",
    "serve.sheds",
    "serve.errors",
];

/// Span names whose summed duration is a per-layer time metric.
const SPAN_TIMES: &[(&str, &str)] = &[
    ("prep.preprocess_s", "prep.preprocess"),
    ("prep.rule.d012.s", "prep.rule.d012"),
    ("prep.rule.crown.s", "prep.rule.crown"),
    ("prep.rule.highdeg.s", "prep.rule.highdeg"),
    ("prep.split.s", "prep.split"),
    ("prep.lift_s", "prep.lift"),
    ("seed.greedy_s", "seed.greedy"),
];

/// Span names whose self time is reported as `selftime.<name>_s`.
const SELF_TIMES: &[(&str, &str)] = &[
    ("selftime.job_s", "job"),
    ("selftime.core.solve_s", "core.solve"),
    ("selftime.serve.handle_s", "serve.handle"),
    ("selftime.prep.preprocess_s", "prep.preprocess"),
    ("selftime.prep.lift_s", "prep.lift"),
    ("selftime.seed.greedy_s", "seed.greedy"),
];

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseSearch,
    MassivePrep,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DenseSearch,
        Workload::MassivePrep,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSearch => "dense-search",
            Workload::MassivePrep => "massive-prep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How many passes a run makes. Pass `i` is traced when tracing is on
/// and `i` is odd, so a traced run alternates untraced and traced
/// passes and can compare their makespans.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Measured pass time after which no new pass starts.
    seconds: f64,
    min_passes: usize,
    pub trace: bool,
}

impl Schedule {
    pub fn new(seconds: f64, trace: bool) -> Self {
        Schedule {
            seconds,
            // A traced run needs two passes of each kind.
            min_passes: if trace { 4 } else { 3 },
            trace,
        }
    }

    /// Whether pass `done` (0-based) runs after `elapsed_s` seconds of
    /// measured passes, and if so whether it is traced.
    pub fn next(&self, done: usize, elapsed_s: f64) -> Option<bool> {
        if done >= self.min_passes && elapsed_s >= self.seconds {
            return None;
        }
        Some(self.trace && done % 2 == 1)
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub schedule: Schedule,
    /// Shrinks every instance and stream (the benchmark's own tests).
    pub tiny: bool,
    /// Resident blocks per launch (solver threads).
    pub blocks: u32,
    /// Closed-loop clients of `serve-mixed`.
    pub clients: usize,
}

impl Config {
    /// The benchmark's configuration: two solver blocks and two
    /// clients, capped at the host's available parallelism.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = nproc.clamp(1, 2);
        Config {
            workload,
            seed,
            schedule: Schedule::new(seconds, trace),
            tiny: false,
            blocks: threads as u32,
            clients: threads,
        }
    }
}

/// How one checked job or request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A failure that is not a wrong answer: a deadline hit, a shed
    /// exact request, an error line, or no reference optimum to check
    /// against.
    Failed,
    Wrong,
}

impl Verdict {
    pub fn from_good(good: bool) -> Self {
        if good {
            Verdict::Ok
        } else {
            Verdict::Wrong
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Jobs or requests that failed: wrong answers, deadlines hit,
    /// error lines, and shed exact requests.
    pub failed: u64,
    /// Failures that were wrong answers.
    pub wrong: u64,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one attempted job or request.
    pub fn count(&mut self, verdict: Verdict) {
        self.attempted += 1;
        self.failed += u64::from(verdict != Verdict::Ok);
        self.wrong += u64::from(verdict == Verdict::Wrong);
    }

    /// The result line: the end-to-end metrics of an untraced run or
    /// the per-layer metrics of a traced one.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = match cfg.workload {
        Workload::DenseSearch => solve::run_dense(cfg),
        Workload::MassivePrep => solve::run_massive(cfg),
        Workload::ServeMixed => serve::run(cfg),
    };
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic 64-bit mix of the run seed and a stream index, so
/// every instance and request stream has its own seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Repeats `setup` `reps` times and returns the last result with the
/// median wall time. The last repetition records its spans when a
/// recorder is given.
pub fn timed_setup<T>(
    reps: usize,
    rec: Option<&Recorder>,
    mut setup: impl FnMut(Option<&Recorder>) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let t = std::time::Instant::now();
        let value = setup(if i + 1 == reps { rec } else { None });
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one setup repetition"), median(&times))
}

/// One untraced pass's samples.
#[derive(Debug, Default)]
pub struct PassSamples {
    pub makespan: f64,
    /// Latency of every job or request, in seconds.
    pub req: Vec<f64>,
    /// Latency of every job that ran an exact solve, in seconds.
    pub solve: Vec<f64>,
}

/// End-to-end samples from the untraced passes.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub passes: Vec<PassSamples>,
}

impl EndToEnd {
    /// Latencies are per-window percentiles (see
    /// [`stats::windowed_percentile`]); makespan and throughput are
    /// medians over passes.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let req: Vec<Vec<f64>> = self.passes.iter().map(|p| p.req.clone()).collect();
        let solve: Vec<Vec<f64>> = self.passes.iter().map(|p| p.solve.clone()).collect();
        let makespans: Vec<f64> = self.passes.iter().map(|p| p.makespan).collect();
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| ratio(p.req.len() as f64, p.makespan))
            .collect();
        BTreeMap::from([
            ("setup_s", self.setup_s),
            ("makespan_s", median(&makespans)),
            ("solve_s_p50", windowed_percentile(&solve, 0.5)),
            ("solve_s_p90", windowed_percentile(&solve, 0.9)),
            ("req_ms_p50", 1e3 * windowed_percentile(&req, 0.5)),
            ("req_ms_p99", 1e3 * windowed_percentile(&req, 0.99)),
            ("throughput_rps", median(&rates)),
        ])
    }

    pub fn makespans(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.makespan).collect()
    }

    pub fn requests(&self) -> usize {
        self.passes.iter().map(|p| p.req.len()).sum()
    }

    pub fn solves(&self) -> usize {
        self.passes.iter().map(|p| p.solve.len()).sum()
    }

    /// One stderr line stating the sample counts behind the percentiles.
    pub fn describe(&self, workload: Workload) -> String {
        format!(
            "perfbench {}: {} passes, {} requests, {} exact solves",
            workload.name(),
            self.passes.len(),
            self.requests(),
            self.solves()
        )
    }
}

/// Per-layer accumulators filled by the traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every [`PER_LAYER`] metric. Sums are per traced pass; `overhead`
    /// is the traced makespan over the untraced one, minus one.
    pub fn metrics(
        &self,
        rec: &Recorder,
        traced_passes: usize,
        e2e: &EndToEnd,
        overhead: f64,
    ) -> BTreeMap<&'static str, f64> {
        let passes = traced_passes.max(1) as f64;
        let durations = rec.durations();
        let span_total = |name: &str| durations.get(name).map_or(0.0, |d| d.iter().sum::<f64>());
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for name in ["graph.gen_s", "graph.vertices", "graph.edges"] {
            m.insert(name, self.sum(name));
        }
        for &name in PER_PASS_SUMS {
            m.insert(name, self.sum(name) / passes);
        }
        for &(metric, span) in SPAN_TIMES {
            m.insert(metric, span_total(span) / passes);
        }
        m.insert(
            "prep.preprocess_s_p50",
            durations.get("prep.preprocess").map_or(0.0, |d| median(d)),
        );
        m.insert(
            "prep.eliminated_frac",
            ratio(
                self.sum("prep.eliminated"),
                self.sum("prep.original_vertices"),
            ),
        );
        m.insert(
            "seed.gap",
            ratio(self.sum("seed.excess"), self.sum("seed.optimum")),
        );
        m.insert(
            "engine.nodes_per_s",
            ratio(self.sum("engine.tree_nodes"), self.sum("engine.solve_s")),
        );
        let loads = self.samples("worklist.block_load_max");
        m.insert(
            "worklist.block_load_max",
            ratio(loads.iter().sum(), loads.len() as f64),
        );
        let cycles = self.sum("simgpu.cycles.total");
        for (metric, family) in [
            (
                "simgpu.cycles.work_distribution_frac",
                "simgpu.cycles.work_distribution",
            ),
            ("simgpu.cycles.reducing_frac", "simgpu.cycles.reducing"),
            ("simgpu.cycles.branching_frac", "simgpu.cycles.branching"),
        ] {
            m.insert(metric, ratio(self.sum(family), cycles));
        }
        let resolve = self.samples("resolve.ms");
        m.insert("resolve.ms_p50", percentile(resolve, 0.5));
        m.insert("resolve.ms_p99", percentile(resolve, 0.99));
        m.insert(
            "resolve.reused_frac",
            ratio(
                self.sum("resolve.components_reused"),
                self.sum("resolve.components_total"),
            ),
        );
        for (p50, p99, class) in SERVE_LATENCIES {
            let s = self.samples(class);
            m.insert(p50, percentile(s, 0.5));
            m.insert(p99, percentile(s, 0.99));
        }
        let hits = self.sum("serve.cache.hits");
        m.insert(
            "serve.cache.hit_frac",
            ratio(hits, hits + self.sum("serve.cache.misses")),
        );
        m.insert("samples.solve", e2e.solves() as f64);
        m.insert("samples.req", e2e.requests() as f64);
        m.insert("trace.overhead_frac", overhead);
        m.insert(
            "trace.spans",
            durations.values().map(Vec::len).sum::<usize>() as f64 / passes,
        );
        let self_times = rec.self_times();
        let self_time = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
        // Instances are generated once per run, not once per pass.
        m.insert("selftime.graph.gen_s", self_time("graph.gen"));
        for &(metric, span) in SELF_TIMES {
            m.insert(metric, self_time(span) / passes);
        }
        m
    }
}

/// `(p50 metric, p99 metric, sample name)` per serve request class;
/// samples are in milliseconds.
const SERVE_LATENCIES: [(&str, &str, &str); 7] = [
    ("serve.load.ms_p50", "serve.load.ms_p99", "serve.load.ms"),
    (
        "serve.solve_hit.ms_p50",
        "serve.solve_hit.ms_p99",
        "serve.solve_hit.ms",
    ),
    (
        "serve.solve_miss.ms_p50",
        "serve.solve_miss.ms_p99",
        "serve.solve_miss.ms",
    ),
    (
        "serve.solve_weighted.ms_p50",
        "serve.solve_weighted.ms_p99",
        "serve.solve_weighted.ms",
    ),
    (
        "serve.approx.ms_p50",
        "serve.approx.ms_p99",
        "serve.approx.ms",
    ),
    (
        "serve.resolve.ms_p50",
        "serve.resolve.ms_p99",
        "serve.resolve.ms",
    ),
    ("serve.stats.ms_p50", "serve.stats.ms_p99", "serve.stats.ms"),
];

/// Finishes a run: end-to-end metrics always (the traced run needs the
/// untraced makespan for its overhead), and when traced the per-layer
/// metrics and the span file `.bench_out/spans-<workload>-<seed>.jsonl`.
pub fn finish(
    cfg: &Config,
    e2e: &EndToEnd,
    traced_makespans: &[f64],
    layers: &Layers,
    rec: &Recorder,
) -> BTreeMap<&'static str, f64> {
    eprintln!("{}", e2e.describe(cfg.workload));
    let mut m = e2e.metrics();
    if cfg.schedule.trace {
        let overhead = ratio(median(traced_makespans), median(&e2e.makespans())) - 1.0;
        m.extend(layers.metrics(rec, traced_makespans.len(), e2e, overhead));
        let path = PathBuf::from(format!(
            ".bench_out/spans-{}-{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_alternates_when_traced() {
        let s = Schedule::new(1.0, true);
        assert_eq!(s.next(0, 0.0), Some(false));
        assert_eq!(s.next(1, 0.0), Some(true));
        assert_eq!(s.next(3, 5.0), Some(true), "minimum passes run");
        assert_eq!(s.next(4, 5.0), None);
        assert_eq!(Schedule::new(1.0, false).next(1, 0.0), Some(false));
    }

    #[test]
    fn mix_spreads_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
