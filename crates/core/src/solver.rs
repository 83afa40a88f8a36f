//! The public solver façade.
//!
//! ```
//! use parvc_core::{Algorithm, Solver};
//! use parvc_graph::gen;
//!
//! let g = gen::petersen();
//! let solver = Solver::builder().algorithm(Algorithm::Hybrid).build();
//! let result = solver.solve_mvc(&g);
//! assert_eq!(result.size, 6);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use parvc_graph::CsrGraph;
use parvc_prep::PrepConfig;
use parvc_simgpu::counters::{BlockCounters, LaunchReport};
use parvc_simgpu::exec::{ExecutorSpec, ParallelExecutor};
use parvc_simgpu::occupancy::{select_launch, LaunchRequest};
use parvc_simgpu::runtime::run_resident;
use parvc_simgpu::{CostModel, DeviceSpec, KernelVariant, LaunchConfig};

use crate::compsteal::CompStealFactory;
use parvc_obs::{RecordingSink, Sink, SpanTimer};

use crate::engine::{Engine, EngineObs, PolicyFactory, SearchMode, SearchOutcome};
use crate::extensions::Extensions;
use crate::greedy::{greedy_mvc_bounded, greedy_weighted_mvc_bounded};
use crate::hybrid::{HybridFactory, HybridParams, DEFAULT_BATCH};
use crate::sequential::SequentialFactory;
use crate::shared::Deadline;
use crate::split::SplitParams;
use crate::stackonly::{StackOnlyFactory, StackOnlyParams};
use crate::stats::{MvcResult, PvcResult, SolveStats};

/// Kernel components smaller than this are searched inline, one
/// single-block search per component under the same scheduling policy:
/// launching a resident grid per 20-vertex component (a thread handoff
/// per block) would cost more than the whole sub-search. The component
/// pool (see `Solver::run_pool`) spreads these inline searches over
/// the resident blocks instead, one block per this many pooled
/// vertices; each pool block keeps one worklist ring for all of its
/// components, and the larger components' launches reuse block 0's
/// (see `run_engine`).
const PREP_INLINE_BELOW: u32 = 64;

/// The host's available parallelism, read once per process: it caps
/// the component pool's width.
fn host_threads() -> u32 {
    static HOST: OnceLock<u32> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u32))
}

/// Which scheduling policy drives the engine — the three code versions
/// of §V-A plus the steal-pool extension. Six names, four
/// implementations: Batched is Hybrid with a batch, and WorkStealing is
/// ComponentSteal without split adoption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Single-CPU-thread branch-and-reduce (the reference baseline).
    Sequential,
    /// Prior work's fixed-depth sub-tree distribution with per-block
    /// local stacks.
    StackOnly {
        /// Depth of the sub-tree roots (`2^start_depth` sub-trees).
        start_depth: u32,
    },
    /// The paper's hybrid local-stack + global-worklist scheme.
    Hybrid,
    /// Per-block deques with steal-based balancing (beyond the paper;
    /// see [`crate::compsteal`]): the steal pool with split adoption
    /// off, so component-sum nodes are solved inline.
    WorkStealing,
    /// Hybrid's worklist with donations amortized in batches of
    /// [`DEFAULT_BATCH`](crate::hybrid::DEFAULT_BATCH) children per
    /// queue negotiation (see [`crate::hybrid`]).
    Batched,
    /// Work stealing where adopted component-sum nodes donate **whole
    /// components** to the steal pool — the natural work unit of
    /// arXiv 2512.18334 (see [`crate::compsteal`]). Implies in-search
    /// component branching: [`SolverBuilder::build`] enables it with
    /// default [`SplitParams`] unless configured explicitly.
    ComponentSteal,
}

impl Algorithm {
    /// Parses a `--policy` name: `seq`, `stack`, `hybrid`, `steal`,
    /// `batch` or `compsteal`, or one of their long forms. `stack`
    /// starts at depth 8.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hybrid" => Ok(Algorithm::Hybrid),
            "seq" | "sequential" => Ok(Algorithm::Sequential),
            "stack" | "stackonly" => Ok(Algorithm::StackOnly { start_depth: 8 }),
            "steal" | "worksteal" | "workstealing" => Ok(Algorithm::WorkStealing),
            "batch" | "batched" => Ok(Algorithm::Batched),
            "compsteal" | "componentsteal" => Ok(Algorithm::ComponentSteal),
            _ => Err(format!(
                "unknown policy '{s}' (seq|stack|hybrid|steal|batch|compsteal)"
            )),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Sequential => write!(f, "Sequential"),
            Algorithm::StackOnly { start_depth } => write!(f, "StackOnly(d={start_depth})"),
            Algorithm::Hybrid => write!(f, "Hybrid"),
            Algorithm::WorkStealing => write!(f, "WorkStealing"),
            Algorithm::Batched => write!(f, "Batched"),
            Algorithm::ComponentSteal => write!(f, "ComponentSteal"),
        }
    }
}

/// Builder for [`Solver`].
///
/// Every knob defaults to the paper-faithful configuration, except
/// that the matching lower bound prunes on top of the paper's bounds
/// (see [`Extensions`]; `.extensions(Extensions::NONE)` turns it off).
/// The other extensions opt in per solve. The full pipeline —
/// kernelization in front, work stealing with whole-component
/// donation, in-search splitting, a wall-clock budget — composes like
/// this:
///
/// ```
/// use std::time::Duration;
/// use parvc_core::{Algorithm, PrepConfig, Solver, is_vertex_cover};
/// use parvc_graph::gen;
///
/// let g = gen::sparse_components(120, 12, 0.5, 3);
/// let solver = Solver::builder()
///     .algorithm(Algorithm::ComponentSteal)   // implies component branching
///     .preprocess(PrepConfig::default())      // kernelize + decompose up front
///     .deadline(Some(Duration::from_secs(5))) // ">2 hrs" cells, in miniature
///     .grid_limit(Some(4))                    // cap the resident grid
///     .build();
///
/// let r = solver.solve_mvc(&g);
/// assert!(is_vertex_cover(&g, &r.cover));
/// assert!(!r.stats.timed_out, "this instance finishes well within budget");
/// assert!(r.stats.prep.is_some(), "kernelization stats are reported");
/// ```
#[derive(Debug, Clone)]
pub struct SolverBuilder {
    algorithm: Algorithm,
    device: DeviceSpec,
    cost: CostModel,
    hybrid: HybridParams,
    force_variant: Option<KernelVariant>,
    force_block_size: Option<u32>,
    grid_limit: Option<u32>,
    deadline: Option<std::time::Duration>,
    ext: Extensions,
    record_trace: bool,
    prep: Option<PrepConfig>,
    pub(crate) weighted: bool,
    executor: ExecutorSpec,
    telemetry: Option<parvc_obs::TelemetryConfig>,
    progress: Option<std::time::Duration>,
    /// Whether the caller explicitly configured component branching
    /// (so `build()` can tell "disabled on purpose" from "never set"
    /// when ComponentSteal implies a default).
    split_configured: bool,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder {
            algorithm: Algorithm::Hybrid,
            // 8 SMs keeps a resident grid a sane number of OS threads on
            // laptop-class hosts; use DeviceSpec::v100() to model the
            // paper's full device.
            device: DeviceSpec::scaled(8),
            cost: CostModel::default(),
            hybrid: HybridParams::default(),
            force_variant: None,
            force_block_size: None,
            grid_limit: Some(32),
            deadline: None,
            ext: Extensions::default(),
            record_trace: false,
            prep: None,
            weighted: false,
            executor: ExecutorSpec::default(),
            telemetry: None,
            progress: None,
            split_configured: false,
        }
    }
}

impl SolverBuilder {
    /// Selects the scheduling policy (default: Hybrid).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Selects the simulated device (default: an 8-SM V100 slice).
    pub fn device(mut self, d: DeviceSpec) -> Self {
        self.device = d;
        self
    }

    /// Overrides the cycle cost model.
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Global worklist capacity in entries (Hybrid; default 16384).
    pub fn worklist_capacity(mut self, entries: usize) -> Self {
        self.hybrid.worklist_capacity = entries;
        self
    }

    /// Donation threshold as a fraction of capacity (Hybrid;
    /// default 0.75).
    pub fn threshold_frac(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "threshold fraction must be in [0,1]"
        );
        self.hybrid.threshold_frac = frac;
        self
    }

    /// Forces the shared- or global-memory kernel variant instead of
    /// the §IV-E automatic choice.
    pub fn kernel_variant(mut self, v: KernelVariant) -> Self {
        self.force_variant = Some(v);
        self
    }

    /// Forces a block size instead of the §IV-E automatic choice.
    pub fn block_size(mut self, threads: u32) -> Self {
        self.force_block_size = Some(threads);
        self
    }

    /// Caps the number of thread blocks (OS threads) per launch.
    /// `None` launches the device's full resident capacity.
    pub fn grid_limit(mut self, limit: Option<u32>) -> Self {
        self.grid_limit = limit;
        self
    }

    /// Wall-clock budget per solve. When it expires the solve returns
    /// best-so-far with [`SolveStats::timed_out`] set — the mechanism
    /// behind the paper's ">2 hrs" table cells.
    pub fn deadline(mut self, limit: Option<std::time::Duration>) -> Self {
        self.deadline = limit;
        self
    }

    /// Records per-charge activity spans during parallel launches for
    /// timeline rendering with [`parvc_simgpu::trace`].
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Sets the extensions beyond the paper's rules (see
    /// [`Extensions`]). Default: [`Extensions::default`], the matching
    /// lower bound on; [`Extensions::NONE`] keeps the paper's bounds
    /// alone.
    ///
    /// Component branching configured earlier on this builder (via
    /// [`component_branching`](Self::component_branching)) survives
    /// unless `ext` sets its own — the two toggles compose in either
    /// order.
    pub fn extensions(mut self, ext: Extensions) -> Self {
        let keep_split = self.ext.component_branching;
        self.ext = ext;
        if self.ext.component_branching.is_none() {
            self.ext.component_branching = keep_split;
        }
        self
    }

    /// Runs the `parvc-prep` kernelization + component-decomposition
    /// pipeline before every solve: the instance is shrunk once, the
    /// residual split into connected components, and each component
    /// scheduled as an independent [`Engine::solve`] sub-search under
    /// the configured policy and the shared wall-clock budget. The
    /// per-component results are lifted back to a cover of the
    /// original graph (optimal when every sub-search finished).
    ///
    /// Default: off (paper-faithful per-node reduction only).
    pub fn preprocess(mut self, cfg: PrepConfig) -> Self {
        self.prep = Some(cfg);
        self
    }

    /// Solves the **vertex-weighted** MVC variant: the objective
    /// becomes the total weight of the cover under the graph's weight
    /// channel ([`parvc_graph::CsrGraph::with_weights`]), the engine's
    /// bound arithmetic and reduction thresholds run in weight units,
    /// and [`MvcResult::weight`] carries the minimized objective.
    /// Every scheduling policy works unchanged; on a graph without
    /// weights (all weights 1) the result matches the cardinality
    /// solve exactly. When preprocessing is configured, only
    /// weight-sound kernelization rules run (see
    /// [`PrepConfig::weighted`]).
    ///
    /// ```
    /// use parvc_core::{Algorithm, Solver, is_vertex_cover};
    /// use parvc_graph::gen;
    ///
    /// // A star whose hub costs more than all five leaves together:
    /// // the cardinality optimum {hub} is the weighted pessimum.
    /// let g = gen::star(6)
    ///     .with_weights(vec![100, 1, 1, 1, 1, 1])
    ///     .unwrap();
    ///
    /// let weighted = Solver::builder().weighted().build().solve_mvc(&g);
    /// assert_eq!(weighted.weight, 5); // the five leaves
    /// assert_eq!(weighted.size, 5);
    /// assert!(is_vertex_cover(&g, &weighted.cover));
    ///
    /// let cardinality = Solver::builder().build().solve_mvc(&g);
    /// assert_eq!(cardinality.size, 1); // the hub
    /// assert_eq!(cardinality.weight, 100);
    /// ```
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Selects how each block's intra-block flat passes execute
    /// (default: [`ExecutorSpec::Serial`], inline on the block's own
    /// thread). [`ExecutorSpec::Pooled`] runs the phase-split kernels —
    /// the reduce-fixpoint degree scan, the LP-bound BFS layers, the
    /// connectivity diff scan — chunked across a shared worker pool.
    /// Results, tree shape, and model-cycle counters are identical
    /// under every executor (see `parvc_simgpu::exec`); only wall-clock
    /// changes.
    pub fn executor(mut self, spec: ExecutorSpec) -> Self {
        self.executor = spec;
        self
    }

    /// Records structured telemetry on every solve: wall-clock spans
    /// across prep → engine → split → executor, the metrics registry,
    /// and (when [`TelemetryConfig::model_cycles`] is set, the
    /// default) the per-block model-cycle span log bridged onto a
    /// synthetic trace track. The snapshot lands in
    /// [`SolveStats::telemetry`]; export it as Chrome trace-event JSON
    /// or a flat metrics table. Observation only — results, tree
    /// shape, and counters are identical with telemetry on or off.
    ///
    /// ```
    /// use parvc_core::{Solver, TelemetryConfig};
    /// use parvc_graph::gen;
    ///
    /// let solver = Solver::builder()
    ///     .telemetry(TelemetryConfig::default())
    ///     .build();
    /// let r = solver.solve_mvc(&gen::petersen());
    /// let snap = r.stats.telemetry.expect("telemetry was on");
    /// assert!(snap.span_categories().contains("engine"));
    /// let trace = snap.chrome_trace(); // open in Perfetto
    /// assert!(trace.starts_with("{\"traceEvents\":["));
    /// ```
    ///
    /// [`TelemetryConfig`]: parvc_obs::TelemetryConfig
    /// [`TelemetryConfig::model_cycles`]: parvc_obs::TelemetryConfig::model_cycles
    pub fn telemetry(mut self, cfg: parvc_obs::TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Prints a progress heartbeat to stderr every `interval` during
    /// solves: best-so-far bound, tree nodes visited, and nodes/sec.
    /// Clock checks are strided exactly like the deadline machinery's,
    /// so the heartbeat does not perturb the search.
    pub fn progress(mut self, interval: std::time::Duration) -> Self {
        self.progress = Some(interval);
        self
    }

    /// Enables in-search component branching with default
    /// [`SplitParams`]: whenever a tree node's reduction fixpoint
    /// disconnects the residual graph, the node is split into
    /// independent per-component sub-searches whose optima sum (see
    /// [`crate::split`]). Works under every scheduling policy; the
    /// [`Algorithm::ComponentSteal`] policy additionally donates the
    /// components to its steal pool.
    ///
    /// Default: off (paper-faithful single-residual traversal).
    pub fn component_branching(mut self, on: bool) -> Self {
        self.ext.component_branching = on.then(SplitParams::default);
        self.split_configured = true;
        self
    }

    /// Like [`component_branching`](Self::component_branching), with
    /// explicit trigger/recursion parameters.
    pub fn component_branching_params(mut self, params: SplitParams) -> Self {
        self.ext.component_branching = Some(params);
        self.split_configured = true;
        self
    }

    /// Finalizes the solver.
    pub fn build(mut self) -> Solver {
        // ComponentSteal without the split hook would never see a
        // component to donate — it implies the default parameters,
        // unless the caller explicitly turned splitting off (then it
        // degrades to plain work stealing).
        if self.algorithm == Algorithm::ComponentSteal
            && self.ext.component_branching.is_none()
            && !self.split_configured
        {
            self.ext.component_branching = Some(SplitParams::default());
        }
        // The synthetic model-cycle trace track is built from the
        // per-block span logs, so asking for it implies recording them.
        if let Some(t) = &self.telemetry {
            self.record_trace |= t.model_cycles;
        }
        Solver {
            exec: self.executor.build(),
            cfg: self,
        }
    }
}

/// A configured vertex-cover solver. See [`Solver::builder`].
pub struct Solver {
    pub(crate) cfg: SolverBuilder,
    /// The built intra-block executor (shared by every launch of this
    /// solver; the pooled backend keeps its workers warm across
    /// solves).
    exec: Arc<dyn ParallelExecutor>,
}

impl Solver {
    /// Starts building a solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.cfg.algorithm
    }

    /// A solver with this solver's exact configuration but a different
    /// wall-clock budget, **sharing the built executor** (the pooled
    /// backend's warm workers are reused, not respawned). This is the
    /// per-request deadline hook the serving tier rides: one solver is
    /// configured at startup and each request that carries its own
    /// budget derives a view instead of rebuilding.
    pub fn with_deadline(&self, limit: Option<std::time::Duration>) -> Solver {
        let mut cfg = self.cfg.clone();
        cfg.deadline = limit;
        Solver {
            cfg,
            exec: Arc::clone(&self.exec),
        }
    }

    /// The launch configuration this solver would use for `g` with the
    /// given search-depth bound (exposed for the evaluation harness).
    pub fn plan_launch(&self, g: &CsrGraph, stack_depth: u32) -> LaunchConfig {
        self.try_plan_launch(g, stack_depth)
            .unwrap_or_else(|e| panic!("cannot launch on {}: {e}", self.cfg.device.name))
    }

    /// [`plan_launch`](Self::plan_launch) without the panic: `Err`
    /// when the graph's per-block state cannot fit the device (the
    /// §III-C limit the engine degrades to inline execution on).
    fn try_plan_launch(
        &self,
        g: &CsrGraph,
        stack_depth: u32,
    ) -> Result<LaunchConfig, parvc_simgpu::occupancy::LaunchError> {
        let mut cfg = select_launch(&self.cfg.device, &self.launch_request(g, stack_depth))?;
        if let Some(limit) = self.cfg.grid_limit {
            cfg.grid_blocks = cfg.grid_blocks.min(limit.max(1));
        }
        cfg.record_trace = self.cfg.record_trace;
        Ok(cfg)
    }

    fn launch_request(&self, g: &CsrGraph, stack_depth: u32) -> LaunchRequest {
        LaunchRequest {
            num_vertices: g.num_vertices(),
            stack_depth,
            worklist_entries: match self.cfg.algorithm {
                Algorithm::Hybrid | Algorithm::Batched => self.cfg.hybrid.worklist_capacity as u64,
                _ => 0,
            },
            force_variant: self.cfg.force_variant,
            force_block_size: self.cfg.force_block_size,
        }
    }

    /// Solves MINIMUM VERTEX COVER on `g` — minimum cardinality by
    /// default, minimum *weight* when the solver was built with
    /// [`SolverBuilder::weighted`].
    ///
    /// When the graph's per-block state cannot fit the simulated
    /// device's global memory (the §III-C limit) no resident grid can
    /// be launched and the solve degrades to single-block inline
    /// execution — enable [`SolverBuilder::preprocess`] (or use a
    /// larger [`DeviceSpec`]) for instances of that scale.
    pub fn solve_mvc(&self, g: &CsrGraph) -> MvcResult {
        let (sink, heartbeat) = self.solve_observers();
        let obs = SolveObs::new(sink.as_ref(), heartbeat.as_ref());
        let mut r = self.solve_mvc_with(g, None, obs);
        self.finish_telemetry(sink, &mut r.stats);
        r
    }

    /// [`solve_mvc`](Self::solve_mvc) with caller-supplied observers
    /// and an optional **warm incumbent**: a valid cover of `g` (the
    /// incremental re-solve driver's patched previous cover) that
    /// replaces the greedy seed when its objective is better, so the
    /// search starts with the tight upper bound churn usually leaves
    /// intact. The kernelized path ignores the seed (prep relabels the
    /// instance under the warm cover's feet); callers that need the
    /// guarantee take the min with their warm cover afterwards.
    /// [`SolveStats::greedy_size`] always reports the greedy's own
    /// size, so the stat stays comparable across warm and cold solves.
    pub(crate) fn solve_mvc_with(
        &self,
        g: &CsrGraph,
        warm: Option<&[u32]>,
        obs: SolveObs<'_>,
    ) -> MvcResult {
        let (cover, stats) = self.solve_goal(g, Goal::Mvc, warm, obs);
        let cover = cover.expect("an MVC goal always ends with a cover");
        MvcResult {
            size: cover.len() as u32,
            weight: g.cover_weight(&cover),
            cover,
            stats,
        }
    }

    /// Solves PARAMETERIZED VERTEX COVER on `g` with parameter `k`.
    /// PVC is a cardinality question ("is there a cover of ≤ k
    /// *vertices*?"), so [`SolverBuilder::weighted`] does not change
    /// it.
    ///
    /// Degrades to inline execution on over-sized graphs exactly like
    /// [`solve_mvc`](Self::solve_mvc).
    pub fn solve_pvc(&self, g: &CsrGraph, k: u32) -> PvcResult {
        let (sink, heartbeat) = self.solve_observers();
        let obs = SolveObs::new(sink.as_ref(), heartbeat.as_ref());
        let (cover, mut stats) = self.solve_goal(g, Goal::Pvc { k }, None, obs);
        self.finish_telemetry(sink, &mut stats);
        PvcResult { k, cover, stats }
    }

    /// The one solve driver. With prep on, `g` is kernelized and each
    /// kernel component gets its own engine search; with prep off, `g`
    /// itself is the only component. Every search runs under the
    /// solve's one deadline, and the sub-covers are lifted back to `g`.
    ///
    /// * Only an MVC goal on a weighted solver minimizes weight, and
    ///   it forces [`PrepConfig::weighted`]: PVC counts vertices.
    /// * The `warm` incumbent seeds only a prep-off search, because
    ///   prep relabels the instance.
    /// * Kernel components below [`PREP_INLINE_BELOW`] vertices are
    ///   searched inline by the component pool (see `run_pool`); every
    ///   other component, `g` itself included, gets its grid launch
    ///   from the calling thread.
    /// * Each component's results land in its own [`Slot`] and are
    ///   aggregated in component order, so the cover, the block
    ///   counters and `greedy_size` do not depend on which pool block
    ///   searched what.
    /// * PVC: more than `k` forced vertices is a conclusive *no*. One
    ///   component (`g` itself, or a one-component kernel) runs the PVC
    ///   search on the budget the forced vertices leave, stopping at
    ///   the first cover that fits. Several components are each solved
    ///   as MVC, and the lifted cover is checked against `k`.
    ///
    /// The cover is `None` when a PVC goal has no cover of at most
    /// `k` vertices.
    fn solve_goal(
        &self,
        g: &CsrGraph,
        goal: Goal,
        warm: Option<&[u32]>,
        obs: SolveObs<'_>,
    ) -> (Option<Vec<u32>>, SolveStats) {
        let start = Instant::now();
        let deadline = Deadline::new(self.cfg.deadline);
        if g.num_edges() == 0 {
            let agg = ComponentAggregate::default();
            return (Some(Vec::new()), self.stats(start, agg, &deadline, None));
        }
        let weighted = self.cfg.weighted && goal == Goal::Mvc;
        let kernel = self.cfg.prep.as_ref().map(|cfg| {
            let mut cfg = cfg.clone();
            cfg.weighted |= weighted;
            parvc_prep::preprocess_traced(g, &cfg, obs.sink)
        });
        let forced = kernel.as_ref().map_or(0, |k| k.trace.forced.len() as u32);
        let mut agg = ComponentAggregate {
            greedy_size: forced,
            ..ComponentAggregate::default()
        };
        if let Goal::Pvc { k } = goal {
            if forced > k {
                let prep = kernel.map(|k| k.stats);
                return (None, self.stats(start, agg, &deadline, prep));
            }
        }
        let (components, warm): (Vec<&CsrGraph>, _) = match &kernel {
            Some(kernel) => (kernel.components.iter().map(|c| &c.graph).collect(), None),
            None => (vec![g], warm),
        };
        let search = ComponentSearch {
            weighted,
            pvc_k: match goal {
                Goal::Pvc { k } if components.len() == 1 => Some(k - forced),
                _ => None,
            },
            warm,
            deadline: &deadline,
            obs,
        };

        let mut slots: Vec<Mutex<Slot>> = components.iter().map(|_| Mutex::default()).collect();
        let pooled = |c: &CsrGraph| kernel.is_some() && c.num_vertices() < PREP_INLINE_BELOW;
        let mut ring = None;
        let mut pool = Vec::new();
        for (idx, (comp, slot)) in components.iter().zip(&mut slots).enumerate() {
            if comp.num_edges() == 0 {
                continue;
            }
            if pooled(comp) {
                pool.push(idx);
            } else {
                let slot = slot.get_mut().expect("no block holds a slot");
                self.search_component(&search, idx, comp, None, &mut ring, slot);
            }
        }
        if !pool.is_empty() {
            // Largest first, so the last components to start are short.
            pool.sort_by_key(|&idx| std::cmp::Reverse(components[idx].num_vertices()));
            self.run_pool(&search, &components, &pool, &mut slots, ring);
        }

        let mut sub_covers = Vec::with_capacity(components.len());
        for slot in slots {
            let slot = slot.into_inner().expect("no block holds a slot");
            agg.greedy_size += slot.greedy_size;
            // Moved, not extended: extending an empty vector leaves a
            // capacity of at least 4, and callers keep many reports.
            if agg.blocks.is_empty() {
                agg.blocks = slot.blocks;
            } else {
                agg.blocks.extend(slot.blocks);
            }
            agg.launch = agg.launch.or(slot.launch);
            sub_covers.push(slot.found.then_some(slot.cover));
        }
        let sub_covers: Option<Vec<Vec<u32>>> = sub_covers.into_iter().collect();
        let cover = match &kernel {
            Some(kernel) => sub_covers.map(|subs| kernel.lift(&subs)),
            // Prep off: the one sub-cover is already a cover of `g`.
            None => sub_covers.and_then(|mut subs| subs.pop()),
        };
        let cover = match goal {
            Goal::Mvc => cover,
            Goal::Pvc { k } => cover.filter(|c| c.len() <= k as usize),
        };
        let prep = kernel.map(|k| k.stats);
        (cover, self.stats(start, agg, &deadline, prep))
    }

    /// The component pool: searches the inline components `order`
    /// (largest first) on resident blocks that each take the next
    /// component from one shared cursor. Block 0 is the calling thread
    /// and blocks 1.. are its parked helpers, like the blocks of a grid
    /// launch, but the pool is not a grid launch: each component is
    /// one single-block search whose counters keep block id 0, and
    /// nothing of the pool shows in [`SolveStats::launch`].
    ///
    /// The width is the grid this solver would launch for the largest
    /// component, capped by the host's parallelism and by one block per
    /// [`PREP_INLINE_BELOW`] pooled vertices, so a handful of tiny
    /// components stays on the calling thread; Sequential runs one
    /// block. Each Hybrid/Batched block owns one worklist ring, built
    /// here on the calling thread (block 0 keeps `ring`, the one the
    /// launched components used) and reset for every component it
    /// searches. The components' output buffers are reserved here too
    /// (see [`Slot`]).
    fn run_pool(
        &self,
        search: &ComponentSearch<'_>,
        components: &[&CsrGraph],
        order: &[usize],
        slots: &mut [Mutex<Slot>],
        ring: Option<HybridFactory>,
    ) {
        let largest = components[order[0]];
        let grid = match self.cfg.algorithm {
            Algorithm::Sequential => 1,
            _ => self
                .try_plan_launch(largest, largest.num_vertices() + 2)
                .map_or(1, |l| l.grid_blocks),
        };
        // A block costs a thread handoff and, for Hybrid/Batched, a
        // ring, which less than PREP_INLINE_BELOW vertices of work
        // does not repay.
        let work: u32 = order
            .iter()
            .map(|&idx| components[idx].num_vertices())
            .sum();
        let width = grid
            .min(host_threads())
            .min(work / PREP_INLINE_BELOW)
            .max(1);
        let rings: Vec<Mutex<Option<HybridFactory>>> = std::iter::once(ring)
            .chain((1..width).map(|_| self.new_ring()))
            .map(Mutex::new)
            .collect();
        for &idx in order {
            let slot = slots[idx].get_mut().expect("no block holds a slot");
            slot.cover
                .reserve_exact(components[idx].num_vertices() as usize);
            slot.blocks.reserve_exact(1);
        }
        let slots = &*slots;
        // The cursor only hands out indices: the slots and rings carry
        // their own locks, so it publishes no data.
        let cursor = AtomicUsize::new(0);
        run_resident(width, |b| {
            let mut ring = rings[b as usize].lock().expect("one block per ring");
            while let Some(&idx) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let mut slot = slots[idx].lock().expect("one block per slot");
                self.search_component(search, idx, components[idx], Some(b), &mut ring, &mut slot);
            }
        });
    }

    /// Searches component `idx` into its slot: seeds it for the goal
    /// and runs the engine. `pool_block` is the pool block running an
    /// inline search, which copies its results into the slot's reserved
    /// buffers and records its spans on that block's track. `None` is
    /// a component that gets its own launch from the calling thread: it
    /// hands its cover and counters over, and its `component` span goes
    /// on track 0.
    fn search_component(
        &self,
        search: &ComponentSearch<'_>,
        idx: usize,
        comp: &CsrGraph,
        pool_block: Option<u32>,
        ring: &mut Option<HybridFactory>,
        slot: &mut Slot,
    ) {
        let sink = search.obs.sink;
        let t_comp = SpanTimer::start(sink);
        sink.counter("component.sub_searches", 1);
        // The component graphs carry the original's vertex weights
        // through the prep relabeling, so a weighted sub-search
        // minimizes exactly the lifted objective.
        let mode = match search.pvc_k {
            Some(k) => SearchMode::Pvc { k },
            None if search.weighted => {
                let mut seed = greedy_weighted_mvc_bounded(comp, search.deadline);
                slot.greedy_size = seed.1.len() as u32;
                if let Some(w) = search.warm {
                    let w_weight = comp.cover_weight(w);
                    if w_weight < seed.0 {
                        seed = (w_weight, w.to_vec());
                    }
                }
                SearchMode::WeightedMvc { initial: seed }
            }
            None => {
                let mut seed = greedy_mvc_bounded(comp, search.deadline);
                slot.greedy_size = seed.0;
                if let Some(w) = search.warm {
                    if (w.len() as u32) < seed.0 {
                        seed = (w.len() as u32, w.to_vec());
                    }
                }
                SearchMode::Mvc { initial: seed }
            }
        };
        let (outcome, launch) =
            self.run_engine(comp, mode, search.deadline, pool_block, ring, search.obs);
        let (cover, blocks) = outcome.into_parts();
        slot.found = cover.is_some();
        match pool_block {
            Some(_) => {
                slot.cover.extend(cover.into_iter().flatten());
                slot.blocks.extend(blocks);
            }
            None => {
                slot.cover = cover.unwrap_or_default();
                slot.blocks = blocks;
            }
        }
        slot.launch = launch;
        let track = pool_block.map_or(0, |b| b + 1);
        t_comp.finish(sink, "component", "sub-search", track, idx as u64);
    }

    /// The one parameterized dispatch: builds the policy factory for
    /// the configured [`Algorithm`] and hands `mode` to the engine.
    /// `pool_block` forces single-block execution on the calling thread
    /// for a component pool block, with its spans on the block's track
    /// `b + 1`; Sequential always runs inline. Hybrid and Batched build
    /// their worklist ring into `ring` on its first search and reset it
    /// for every later one, so a solve allocates one ring per pool
    /// block however many components it searches.
    fn run_engine(
        &self,
        g: &CsrGraph,
        mode: SearchMode,
        deadline: &Deadline,
        pool_block: Option<u32>,
        ring: &mut Option<HybridFactory>,
        obs: SolveObs<'_>,
    ) -> (SearchOutcome, Option<LaunchConfig>) {
        let depth_bound = mode.depth_bound(g);
        let launch = match self.cfg.algorithm {
            Algorithm::Sequential => None,
            _ if pool_block.is_some() => None,
            // §III-C: when the per-block state cannot fit the device's
            // memory, a resident grid cannot be planned — degrade to
            // single-block inline execution instead of failing the
            // whole solve (the occupancy-aware memory planner is
            // follow-on work; the kernelized path avoids this entirely
            // by shrinking the instance first). The degrade is counted
            // so operators see it: the serving tier surfaces
            // `engine.oversize_inline` in `STATS`, and the gauge keeps
            // the size of the last offender visible in metrics dumps.
            _ => match self.try_plan_launch(g, depth_bound as u32) {
                Ok(cfg) => Some(cfg),
                Err(_) => {
                    obs.sink.counter("engine.oversize_inline", 1);
                    obs.sink
                        .gauge("engine.oversize_last_vertices", u64::from(g.num_vertices()));
                    None
                }
            },
        };
        let owned: Box<dyn PolicyFactory>;
        let factory: &dyn PolicyFactory = match self.cfg.algorithm {
            Algorithm::Hybrid | Algorithm::Batched => {
                if ring.is_none() {
                    *ring = self.new_ring();
                }
                let ring = ring.as_mut().expect("Hybrid and Batched build a ring");
                ring.reset();
                ring
            }
            Algorithm::Sequential => {
                owned = Box::new(SequentialFactory::new());
                owned.as_ref()
            }
            Algorithm::StackOnly { start_depth } => {
                owned = Box::new(StackOnlyFactory::new(StackOnlyParams { start_depth }));
                owned.as_ref()
            }
            Algorithm::WorkStealing | Algorithm::ComponentSteal => {
                let workers = launch.as_ref().map_or(1, |l| l.grid_blocks);
                owned = Box::new(CompStealFactory::new(
                    workers as usize,
                    depth_bound,
                    self.cfg.algorithm == Algorithm::ComponentSteal,
                ));
                owned.as_ref()
            }
        };
        let engine = Engine {
            graph: g,
            device: &self.cfg.device,
            config: launch.as_ref(),
            cost: &self.cfg.cost,
            deadline,
            ext: self.cfg.ext,
            exec: &*self.exec,
            obs: EngineObs {
                sink: obs.sink,
                progress: obs.progress,
                model_trace: self.cfg.record_trace,
                track: pool_block.map_or(1, |b| b + 1),
            },
        };
        let outcome = engine.solve(factory, mode);
        (outcome, launch)
    }

    /// A fresh worklist ring for Hybrid (a batch of 1) and Batched;
    /// `None` for the policies that use none.
    fn new_ring(&self) -> Option<HybridFactory> {
        let batch = match self.cfg.algorithm {
            Algorithm::Hybrid => 1,
            Algorithm::Batched => DEFAULT_BATCH,
            _ => return None,
        };
        Some(HybridFactory::new(&self.cfg.hybrid, batch))
    }

    /// The stats of a solve whose searches `agg` sums up. The report
    /// is laid out on the configured device when any search launched
    /// a grid, on a one-SM device otherwise.
    fn stats(
        &self,
        start: Instant,
        agg: ComponentAggregate,
        deadline: &Deadline,
        prep: Option<parvc_prep::PrepStats>,
    ) -> SolveStats {
        let report = if agg.launch.is_some() {
            LaunchReport::new(&self.cfg.device, agg.blocks)
        } else {
            LaunchReport::new(&DeviceSpec::scaled(1), agg.blocks)
        };
        SolveStats::new(
            start.elapsed(),
            agg.launch,
            report,
            agg.greedy_size,
            deadline.was_hit(),
            prep,
        )
    }

    /// Builds the per-solve observers from the builder configuration:
    /// a [`RecordingSink`] when telemetry was requested, a
    /// [`Heartbeat`](crate::progress::Heartbeat) when progress
    /// reporting was. Both `None` on the default build, keeping the
    /// hot path on the no-op sink.
    pub(crate) fn solve_observers(
        &self,
    ) -> (Option<RecordingSink>, Option<crate::progress::Heartbeat>) {
        (
            self.cfg.telemetry.as_ref().map(RecordingSink::new),
            self.cfg.progress.map(crate::progress::Heartbeat::new),
        )
    }

    /// Drains the recording sink (if any) into `stats.telemetry`,
    /// bridging the per-block model-cycle span logs onto the synthetic
    /// model lane.
    pub(crate) fn finish_telemetry(&self, sink: Option<RecordingSink>, stats: &mut SolveStats) {
        let Some(sink) = sink else { return };
        let mut snap = sink.into_snapshot();
        if self.cfg.telemetry.as_ref().is_some_and(|t| t.model_cycles) {
            snap.push_spans(parvc_simgpu::obs::model_cycle_records(&stats.report.blocks));
            let dropped: u64 = stats.report.blocks.iter().map(|b| b.trace_dropped).sum();
            if dropped > 0 {
                snap.gauges.insert("model.spans_dropped", dropped);
            }
        }
        stats.telemetry = Some(snap);
    }
}

/// What a solve asks for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Goal {
    /// A minimum cover (of weight, on a weighted solver).
    Mvc,
    /// Any cover of at most `k` vertices.
    Pvc { k: u32 },
}

/// The per-solve observation context threaded from the public entry
/// points down to the engine: a borrowed sink (the no-op static when
/// telemetry is off) plus the optional progress heartbeat.
#[derive(Clone, Copy)]
pub(crate) struct SolveObs<'a> {
    pub(crate) sink: &'a dyn Sink,
    pub(crate) progress: Option<&'a crate::progress::Heartbeat>,
}

impl<'a> SolveObs<'a> {
    pub(crate) fn new(
        sink: Option<&'a RecordingSink>,
        progress: Option<&'a crate::progress::Heartbeat>,
    ) -> Self {
        SolveObs {
            sink: sink.map_or(&parvc_obs::NOOP as &dyn Sink, |s| s as &dyn Sink),
            progress,
        }
    }
}

/// What a solve's engine searches add up to: every block's counters in
/// component order, the first grid launch, and the greedy-seed size
/// (forced vertices plus each searched component's seed).
#[derive(Default)]
struct ComponentAggregate {
    blocks: Vec<BlockCounters>,
    launch: Option<LaunchConfig>,
    greedy_size: u32,
}

/// What every component search of one solve shares.
struct ComponentSearch<'a> {
    /// Minimize weight (an MVC goal on a weighted solver).
    weighted: bool,
    /// The budget a one-component PVC solve has left after the forced
    /// vertices: that component runs the PVC search. `None` solves
    /// every component as MVC.
    pvc_k: Option<u32>,
    /// The warm incumbent (prep off only).
    warm: Option<&'a [u32]>,
    deadline: &'a Deadline,
    obs: SolveObs<'a>,
}

/// One component's search results. A pooled component's cover buffer
/// (capacity: its vertex count) and counters vector are reserved by the
/// calling thread before the pool starts, and a pool block only fills
/// them in: memory a helper thread allocates is freed before its
/// component ends, instead of lingering in that thread's allocator
/// arena. A launched component, searched on the calling thread, hands
/// its own vectors over.
struct Slot {
    /// The sub-cover.
    cover: Vec<u32>,
    /// Whether the search found a cover (a PVC search may not; an
    /// edgeless component needs none).
    found: bool,
    /// The search's block counters.
    blocks: Vec<BlockCounters>,
    /// The component's own grid launch, if it had one.
    launch: Option<LaunchConfig>,
    /// The size of the component's greedy seed.
    greedy_size: u32,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            cover: Vec::new(),
            found: true,
            blocks: Vec::new(),
            launch: None,
            greedy_size: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;

    fn solvers() -> Vec<Solver> {
        vec![
            Solver::builder().algorithm(Algorithm::Sequential).build(),
            Solver::builder()
                .algorithm(Algorithm::StackOnly { start_depth: 4 })
                .grid_limit(Some(8))
                .build(),
            Solver::builder()
                .algorithm(Algorithm::Hybrid)
                .grid_limit(Some(8))
                .build(),
            Solver::builder()
                .algorithm(Algorithm::WorkStealing)
                .grid_limit(Some(8))
                .build(),
            Solver::builder()
                .algorithm(Algorithm::Batched)
                .grid_limit(Some(8))
                .build(),
            Solver::builder()
                .algorithm(Algorithm::ComponentSteal)
                .grid_limit(Some(8))
                .build(),
        ]
    }

    #[test]
    fn every_policy_name_parses() {
        let names = [
            ("hybrid", Algorithm::Hybrid),
            ("seq", Algorithm::Sequential),
            ("sequential", Algorithm::Sequential),
            ("stack", Algorithm::StackOnly { start_depth: 8 }),
            ("stackonly", Algorithm::StackOnly { start_depth: 8 }),
            ("steal", Algorithm::WorkStealing),
            ("worksteal", Algorithm::WorkStealing),
            ("workstealing", Algorithm::WorkStealing),
            ("batch", Algorithm::Batched),
            ("batched", Algorithm::Batched),
            ("compsteal", Algorithm::ComponentSteal),
            ("componentsteal", Algorithm::ComponentSteal),
        ];
        for (name, algorithm) in names {
            assert_eq!(Algorithm::parse(name), Ok(algorithm), "{name}");
        }
        assert_eq!(
            Algorithm::parse("Hybrid"),
            Err("unknown policy 'Hybrid' (seq|stack|hybrid|steal|batch|compsteal)".to_string())
        );
    }

    #[test]
    fn all_algorithms_agree_with_brute_force() {
        for seed in 0..4 {
            let g = gen::gnp(13, 0.35, seed);
            let (opt, _) = brute_force_mvc(&g);
            for solver in solvers() {
                let r = solver.solve_mvc(&g);
                assert_eq!(r.size, opt, "{} seed {seed}", solver.algorithm());
                assert!(
                    is_vertex_cover(&g, &r.cover),
                    "{} seed {seed}",
                    solver.algorithm()
                );
                assert_eq!(r.cover.len() as u32, r.size);
            }
        }
    }

    #[test]
    fn pvc_three_instances_all_algorithms() {
        let g = gen::gnp(14, 0.3, 77);
        let min = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g)
            .size;
        assert!(min >= 1);
        for solver in solvers() {
            let below = solver.solve_pvc(&g, min - 1);
            assert!(
                !below.found(),
                "{}: found below-optimal cover",
                solver.algorithm()
            );
            for dk in 0..2 {
                let r = solver.solve_pvc(&g, min + dk);
                let cover = r.cover.unwrap_or_else(|| {
                    panic!("{}: no cover at k = min + {dk}", solver.algorithm())
                });
                assert!(cover.len() as u32 <= min + dk);
                assert!(is_vertex_cover(&g, &cover));
            }
        }
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        for solver in solvers() {
            let empty = CsrGraph::from_edges(0, &[]).unwrap();
            assert_eq!(solver.solve_mvc(&empty).size, 0);
            let edgeless = CsrGraph::from_edges(7, &[]).unwrap();
            assert_eq!(solver.solve_mvc(&edgeless).size, 0);
            assert_eq!(solver.solve_pvc(&edgeless, 0).cover, Some(vec![]));
        }
    }

    #[test]
    fn hybrid_on_denser_graph() {
        let g = gen::p_hat_complement(40, 3, 5);
        let seq = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        let hyb = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(8))
            .build();
        let r = hyb.solve_mvc(&g);
        assert_eq!(r.size, seq.size);
        assert!(is_vertex_cover(&g, &r.cover));
        assert!(r.stats.tree_nodes > 0);
    }

    #[test]
    fn work_stealing_on_denser_graph() {
        // Trees of a few hundred nodes each. One solve can finish on
        // one block before a peer is scheduled, so whether stealing
        // engaged is judged over the whole batch, not per solve.
        let ws = Solver::builder()
            .algorithm(Algorithm::WorkStealing)
            .grid_limit(Some(8))
            .build();
        let seq = Solver::builder().algorithm(Algorithm::Sequential).build();
        let mut stolen = 0;
        for seed in 5..13 {
            let g = gen::p_hat_complement(60, 2, seed);
            let r = ws.solve_mvc(&g);
            assert_eq!(r.size, seq.solve_mvc(&g).size, "seed {seed}");
            assert!(is_vertex_cover(&g, &r.cover));
            // Steals show up in the worklist-consumption counter.
            stolen += r
                .stats
                .report
                .blocks
                .iter()
                .map(|b| b.nodes_from_worklist)
                .sum::<u64>();
        }
        assert!(stolen > 0, "no block stole in eight non-trivial solves");
    }

    #[test]
    fn stats_are_populated_for_parallel_runs() {
        let g = gen::gnp(30, 0.25, 9);
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(4))
            .build();
        let r = solver.solve_mvc(&g);
        assert!(r.stats.launch.is_some());
        assert!(r.stats.device_cycles > 0);
        assert!(r.stats.tree_nodes > 0);
        assert_eq!(r.stats.report.blocks.len(), 4);
        let total: f64 = r
            .stats
            .report
            .activity_breakdown()
            .iter()
            .map(|(_, s)| s)
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "breakdown sums to {total}");
    }

    #[test]
    fn pvc_k_zero_and_k_huge() {
        let g = gen::cycle(6);
        for solver in solvers() {
            assert!(!solver.solve_pvc(&g, 0).found(), "{}", solver.algorithm());
            let r = solver.solve_pvc(&g, 100);
            assert!(r.found());
            assert!(is_vertex_cover(&g, &r.cover.unwrap()));
        }
    }

    #[test]
    fn threshold_zero_and_one_still_correct() {
        // threshold 0 → never donate (degenerates toward StackOnly-ish
        // single-consumer); threshold 1.0 → donate until full.
        let g = gen::gnp(16, 0.4, 21);
        let (opt, _) = brute_force_mvc(&g);
        for frac in [0.0, 1.0] {
            let solver = Solver::builder()
                .algorithm(Algorithm::Hybrid)
                .threshold_frac(frac)
                .grid_limit(Some(4))
                .build();
            assert_eq!(solver.solve_mvc(&g).size, opt, "frac {frac}");
        }
    }

    #[test]
    fn preprocessed_solves_agree_with_brute_force() {
        for seed in 0..4 {
            let g = gen::gnp(13, 0.35, seed);
            let (opt, _) = brute_force_mvc(&g);
            for solver in solvers() {
                let solver = solver.cfg.preprocess(PrepConfig::default()).build();
                let r = solver.solve_mvc(&g);
                assert_eq!(r.size, opt, "{} seed {seed} (prep)", solver.algorithm());
                assert!(is_vertex_cover(&g, &r.cover));
                assert_eq!(r.cover.len() as u32, r.size);
                assert!(r.stats.prep.is_some(), "prep stats must be reported");
            }
        }
    }

    #[test]
    fn preprocessed_pvc_is_exact() {
        let g = gen::gnp(14, 0.3, 77);
        let min = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g)
            .size;
        let solver = Solver::builder()
            .algorithm(Algorithm::WorkStealing)
            .grid_limit(Some(4))
            .preprocess(PrepConfig::default())
            .build();
        assert!(!solver.solve_pvc(&g, min - 1).found());
        let r = solver.solve_pvc(&g, min);
        let cover = r.cover.expect("k = min is feasible");
        assert!(cover.len() as u32 <= min);
        assert!(is_vertex_cover(&g, &cover));
    }

    #[test]
    fn preprocessed_pvc_on_one_component_stops_at_the_first_fit() {
        // Prep leaves this instance one kernel component, so the PVC
        // search runs on it with the budget the forced vertices leave
        // instead of solving it to optimality first.
        let g = gen::p_hat_complement(60, 2, 5);
        let seq = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .grid_limit(Some(1));
        let opt = seq.clone().build().solve_mvc(&g).size;
        let off = seq.clone().build().solve_pvc(&g, opt);
        let on = seq
            .preprocess(PrepConfig::default())
            .build()
            .solve_pvc(&g, opt);
        let cover = on.cover.expect("k = opt is feasible");
        assert!(off.found());
        assert!(cover.len() as u32 <= opt);
        assert!(is_vertex_cover(&g, &cover));
        assert!(
            on.stats.tree_nodes <= off.stats.tree_nodes,
            "prep on visited {} tree nodes, prep off {}",
            on.stats.tree_nodes,
            off.stats.tree_nodes
        );
    }

    #[test]
    fn preprocessing_splits_component_instances() {
        // Many independent communities: the kernel must split, and the
        // lifted cover must match the unpreprocessed optimum.
        let g = gen::sparse_components(120, 12, 0.5, 3);
        let plain = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        let solver = Solver::builder()
            .algorithm(Algorithm::WorkStealing)
            .grid_limit(Some(4))
            .preprocess(PrepConfig::default())
            .build();
        let r = solver.solve_mvc(&g);
        assert_eq!(r.size, plain.size);
        assert!(is_vertex_cover(&g, &r.cover));
        let prep = r.stats.prep.expect("prep stats present");
        assert!(prep.elimination() > 0.0);
    }

    #[test]
    fn preprocessing_with_rules_disabled_still_exact() {
        let g = gen::gnp(12, 0.3, 5);
        let (opt, _) = brute_force_mvc(&g);
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(4))
            .preprocess(PrepConfig::split_only())
            .build();
        let r = solver.solve_mvc(&g);
        assert_eq!(r.size, opt);
        assert!(is_vertex_cover(&g, &r.cover));
    }

    #[test]
    fn component_branching_agrees_and_splits() {
        // Loosely-coupled communities disconnect under reduction:
        // splitting must fire, and every policy must stay exact.
        let g = gen::sparse_components(120, 12, 0.5, 3);
        let opt = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g)
            .size;
        for base in solvers() {
            let solver = base.cfg.component_branching(true).build();
            let r = solver.solve_mvc(&g);
            assert_eq!(r.size, opt, "{} (split on)", solver.algorithm());
            assert!(is_vertex_cover(&g, &r.cover));
            let splits = r.stats.report.split_totals();
            assert!(
                splits.taken >= 1,
                "{}: no split taken on a components graph",
                solver.algorithm()
            );
            assert_eq!(
                splits.size_hist.iter().sum::<u64>(),
                splits.components,
                "histogram must partition the component count"
            );
        }
    }

    #[test]
    fn component_branching_explores_fewer_nodes() {
        let g = gen::sparse_components(80, 10, 0.5, 7);
        let off = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        let on = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .component_branching(true)
            .build()
            .solve_mvc(&g);
        assert_eq!(on.size, off.size);
        assert!(
            on.stats.tree_nodes < off.stats.tree_nodes,
            "splitting must shrink the tree on a components graph ({} >= {})",
            on.stats.tree_nodes,
            off.stats.tree_nodes
        );
    }

    #[test]
    fn component_steal_with_splitting_explicitly_disabled() {
        // ComponentSteal implies splitting by default, but an explicit
        // disable wins: the policy degrades to plain work stealing
        // (useful for A/B-ing the scheduling alone).
        let g = gen::sparse_components(60, 10, 0.5, 3);
        let seq = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        let solver = Solver::builder()
            .algorithm(Algorithm::ComponentSteal)
            .component_branching(false)
            .grid_limit(Some(4))
            .build();
        let r = solver.solve_mvc(&g);
        assert_eq!(r.size, seq.size);
        assert!(is_vertex_cover(&g, &r.cover));
        assert_eq!(
            r.stats.report.split_totals().checks,
            0,
            "explicit disable must suppress the split hook entirely"
        );
    }

    #[test]
    fn component_steal_donates_components() {
        let g = gen::sparse_components(80, 10, 0.5, 5);
        let seq = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .build()
            .solve_mvc(&g);
        let solver = Solver::builder()
            .algorithm(Algorithm::ComponentSteal)
            .grid_limit(Some(8))
            .build();
        let r = solver.solve_mvc(&g);
        assert_eq!(r.size, seq.size);
        assert!(is_vertex_cover(&g, &r.cover));
        let donated: u64 = r.stats.report.blocks.iter().map(|b| b.nodes_donated).sum();
        assert!(donated > 0, "ComponentSteal never donated a component");
        assert!(r.stats.report.split_totals().taken >= 1);
    }

    #[test]
    fn forced_variants_agree() {
        let g = gen::gnp(15, 0.3, 33);
        let (opt, _) = brute_force_mvc(&g);
        for v in [KernelVariant::SharedMem, KernelVariant::GlobalMem] {
            for algorithm in [Algorithm::Hybrid, Algorithm::WorkStealing] {
                let solver = Solver::builder()
                    .algorithm(algorithm)
                    .kernel_variant(v)
                    .grid_limit(Some(4))
                    .build();
                assert_eq!(solver.solve_mvc(&g).size, opt, "{algorithm} variant {v}");
            }
        }
    }

    #[test]
    fn with_deadline_shares_executor_and_changes_budget_only() {
        let g = gen::gnp(13, 0.3, 9);
        let base = Solver::builder().algorithm(Algorithm::Hybrid).build();
        let derived = base.with_deadline(Some(std::time::Duration::from_secs(30)));
        assert!(
            Arc::ptr_eq(&base.exec, &derived.exec),
            "derived solver must reuse the built executor"
        );
        assert_eq!(base.cfg.deadline, None);
        assert_eq!(
            derived.cfg.deadline,
            Some(std::time::Duration::from_secs(30))
        );
        // Same configuration otherwise: identical outcomes.
        assert_eq!(base.solve_mvc(&g).size, derived.solve_mvc(&g).size);
        // Clearing the budget again round-trips.
        assert_eq!(derived.with_deadline(None).cfg.deadline, None);
    }

    #[test]
    fn oversize_degrade_is_counted() {
        // An instance whose per-block stack state exceeds the tiny
        // device's global memory (stack bytes grow with n·depth, so a
        // 600-vertex cycle oversizes the 1 MiB device while staying
        // trivially reducible): the §III-C degrade path must run
        // inline AND surface the operator-visible counter.
        let g = gen::cycle(600);
        let solver = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .device(parvc_simgpu::DeviceSpec::test_tiny())
            .telemetry(parvc_obs::TelemetryConfig {
                spans: false,
                metrics: true,
                ..Default::default()
            })
            .build();
        let r = solver.solve_mvc(&g);
        assert!(is_vertex_cover(&g, &r.cover));
        assert!(
            r.stats.launch.is_none(),
            "oversize instance must degrade to inline execution"
        );
        let snap = r.stats.telemetry.as_ref().expect("telemetry requested");
        assert!(
            snap.counters.get("engine.oversize_inline").copied() >= Some(1),
            "degrade path must be counted; got {:?}",
            snap.counters
        );
        assert!(snap.gauges.contains_key("engine.oversize_last_vertices"));

        // A device that fits the instance must NOT count a degrade.
        let fits = Solver::builder()
            .algorithm(Algorithm::Hybrid)
            .grid_limit(Some(4))
            .telemetry(parvc_obs::TelemetryConfig {
                spans: false,
                metrics: true,
                ..Default::default()
            })
            .build();
        let r2 = fits.solve_mvc(&g);
        let snap2 = r2.stats.telemetry.as_ref().unwrap();
        assert!(!snap2.counters.contains_key("engine.oversize_inline"));
        assert_eq!(r2.size, r.size, "degraded solve stays exact");
    }
}
