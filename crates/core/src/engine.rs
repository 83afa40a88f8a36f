//! The unified branch-and-reduce engine with pluggable scheduling.
//!
//! The paper's three code versions (Sequential, StackOnly, Hybrid —
//! §V-A) run the *same* traversal step on every tree node — reduce,
//! check the bound, find `vmax`, branch — and differ **only** in where
//! the next node comes from and where the branched child goes. This
//! module owns that shared loop ([`drive_block`]) and delegates the
//! scheduling decisions to a [`SchedulePolicy`]:
//!
//! * [`SchedulePolicy::next`] — *acquire*: produce the block's next
//!   tree node (local stack, fixed-depth sub-tree descent, global
//!   worklist, stolen from a peer, …) or signal that the block is out
//!   of work for good.
//! * [`SchedulePolicy::dispose`] — *distribute*: place the branched
//!   remove-`N(vmax)` child (push it, donate it, leave it stealable).
//! * [`SchedulePolicy::on_exit`] — *quiesce*: propagate termination to
//!   peers and settle the block's Figure 5/6 accounting.
//!
//! MVC and PVC share the loop too: [`SearchMode`] carries what differs
//! (the bound, the solution sink, and whether the first solution ends
//! the search), and [`Engine::solve`] is the one parameterized entry
//! point every [`Algorithm`](crate::Algorithm) goes through.
//!
//! Adding a scheme — component-aware branching, weighted variants,
//! batched sub-tree hand-off — is a policy file or a parameter of one
//! (see [`hybrid`](crate::hybrid) for the template, whose batch size
//! is the batched variant) instead of a fork of the whole traversal.

use parvc_graph::{CsrGraph, VertexId};
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::exec::ParallelExecutor;
use parvc_simgpu::obs::ObservedExec;
use parvc_simgpu::runtime::{run_blocks, BlockCtx};
use parvc_simgpu::{CostModel, DeviceSpec, LaunchConfig};

use crate::connect::{ConnPool, Connectivity};
use crate::extensions::Extensions;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::shared::{
    BoundKind, BoundSrc, Deadline, GlobalBest, PvcFound, RawParallel, RawParallelPvc, RawWeighted,
    WeightedBest,
};
use crate::split::{self, PendingSplit, SplitVerdict};
use crate::TreeNode;

/// Which problem a traversal solves, and what ends it: MVC (weighted
/// or not) improves a global best until the tree is exhausted; PVC
/// stops at the first cover of size ≤ `k` (§II-B).
#[derive(Debug, Clone)]
pub enum SearchMode {
    /// Minimum vertex cover, seeded with an initial `(size, cover)`
    /// upper bound (normally the greedy approximation, Figure 1
    /// line 1).
    Mvc {
        /// The seed `(size, witness)` for the global best.
        initial: (u32, Vec<VertexId>),
    },
    /// Minimum **weight** vertex cover over the graph's weight channel
    /// ([`CsrGraph::weight`]), seeded with an initial
    /// `(weight, cover)` upper bound (normally
    /// [`greedy_weighted_mvc`](crate::greedy::greedy_weighted_mvc)).
    /// The traversal loop is byte-for-byte the MVC loop; only the
    /// bound arithmetic and the reduction rules' inclusion gates run
    /// in weight units (see [`crate::bound::SearchBound::WeightedMvc`]).
    /// On a graph without weights this degenerates to MVC exactly.
    WeightedMvc {
        /// The seed `(weight, witness)` for the global best.
        initial: (u64, Vec<VertexId>),
    },
    /// Parameterized vertex cover: find any cover of size ≤ `k`.
    Pvc {
        /// The parameter `k`.
        k: u32,
    },
}

impl SearchMode {
    /// The §IV-E per-block stack depth bound: the search can add at
    /// most `budget + 1` branch levels below the root (and never more
    /// than `|V|` — in weighted mode a weight budget of `t` admits at
    /// most `t` vertices, each weighing ≥ 1), so pre-allocating this
    /// much can never overflow.
    pub fn depth_bound(&self, g: &CsrGraph) -> usize {
        let budget: u64 = match *self {
            SearchMode::Mvc { initial: (size, _) } => size as u64,
            SearchMode::WeightedMvc {
                initial: (weight, _),
            } => weight,
            SearchMode::Pvc { k } => k as u64,
        };
        budget.min(g.num_vertices() as u64) as usize + 2
    }

    /// Whether this mode's bound runs in weight units.
    pub fn is_weighted(&self) -> bool {
        matches!(self, SearchMode::WeightedMvc { .. })
    }
}

/// What [`Engine::solve`] returns: the raw launch result of the mode
/// it ran.
pub enum SearchOutcome {
    /// Result of a [`SearchMode::Mvc`] run.
    Mvc(RawParallel),
    /// Result of a [`SearchMode::WeightedMvc`] run.
    Weighted(RawWeighted),
    /// Result of a [`SearchMode::Pvc`] run.
    Pvc(RawParallelPvc),
}

impl SearchOutcome {
    /// The cover and the per-block counters. The cover is always
    /// `Some` for the MVC modes; a PVC run yields `None` when it found
    /// no cover of at most `k` vertices.
    pub fn into_parts(self) -> (Option<Vec<VertexId>>, Vec<BlockCounters>) {
        match self {
            SearchOutcome::Mvc(raw) => (Some(raw.best_cover), raw.blocks),
            SearchOutcome::Weighted(raw) => (Some(raw.best_cover), raw.blocks),
            SearchOutcome::Pvc(raw) => (raw.cover, raw.blocks),
        }
    }
}

/// Why a block's traversal loop ended — policies translate this into
/// their termination protocol (signal peers, charge the Figure 6
/// `Terminate` activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCause {
    /// The deadline expired or a peer ended the search (PVC found
    /// flag) — checked at the top of every iteration, like the
    /// paper's extra PVC condition "before line 4".
    Aborted,
    /// [`SchedulePolicy::next`] produced nothing: this block can never
    /// obtain work again.
    Exhausted,
    /// This block's own solution ended the whole search (PVC).
    SolutionFound,
}

/// Where the next tree node comes from and where branched children go
/// — the *only* thing that distinguishes the paper's code versions.
///
/// One policy instance exists per thread block and lives for the whole
/// launch; shared scheduling state (worklists, steal targets, sub-tree
/// counters) lives in the corresponding [`PolicyFactory`].
pub trait SchedulePolicy {
    /// Produces the block's next tree node, or `None` when the block
    /// is permanently out of work. May traverse on its own account
    /// (StackOnly's root-to-sub-tree descent does, charging its visits
    /// to `counters`) and may block (the Hybrid worklist's §IV-C wait
    /// loop does).
    fn next(
        &mut self,
        kernel: &Kernel<'_>,
        bound: BoundSrc<'_>,
        counters: &mut BlockCounters,
    ) -> Option<TreeNode>;

    /// Places the branched remove-`N(vmax)` child produced by the last
    /// acquired node. Called while the block still owns in-flight work,
    /// so queue-based policies may rely on their outstanding-work token
    /// being held.
    fn dispose(&mut self, child: TreeNode, kernel: &Kernel<'_>, counters: &mut BlockCounters);

    /// The block is exiting for `cause`; settle termination signalling
    /// and final accounting.
    fn on_exit(&mut self, cause: ExitCause, kernel: &Kernel<'_>, counters: &mut BlockCounters);

    /// Offered a tree node whose residual graph disconnected (a
    /// **component-sum node** — see [`crate::split`]), before the
    /// engine solves its components inline.
    ///
    /// Return `Ok(())` to take ownership: the policy must then ensure
    /// every component is eventually solved and the combined solution
    /// re-enters the traversal (the `ComponentSteal` policy queues the
    /// components as stealable work units). Return `Err(split)` — the
    /// default — to decline, and the engine solves the components
    /// inline on this block.
    fn adopt_split(
        &mut self,
        split: PendingSplit,
        _kernel: &Kernel<'_>,
        _counters: &mut BlockCounters,
    ) -> Result<(), PendingSplit> {
        Err(split)
    }
}

/// Per-launch constructor and shared state of a scheduling scheme.
///
/// The engine calls [`seed`](PolicyFactory::seed) once with the root
/// tree node before any block runs, then
/// [`block_policy`](PolicyFactory::block_policy) once per block.
pub trait PolicyFactory: Sync {
    /// Receives the root node before launch. Queue-backed policies
    /// enqueue it; policies that re-derive roots (StackOnly descends
    /// from the root itself) drop it.
    fn seed(&self, root: TreeNode);

    /// Builds the per-block policy. `depth_bound` is the §IV-E stack
    /// sizing (see [`SearchMode::depth_bound`]).
    fn block_policy<'s>(
        &'s self,
        ctx: BlockCtx,
        depth_bound: usize,
    ) -> Box<dyn SchedulePolicy + 's>;
}

/// Observation hooks threaded through the engine (and into every
/// block's [`Kernel`]): the telemetry sink, the progress heartbeat,
/// and whether blocks record their model-cycle span log. Pure
/// observation — results, charges, and counters are identical whether
/// these are on or [`OFF`](EngineObs::OFF) (the telemetry-safety suite
/// pins this).
#[derive(Clone, Copy)]
pub struct EngineObs<'a> {
    /// Telemetry sink for wall-clock spans and metrics.
    pub sink: &'a dyn parvc_obs::Sink,
    /// Progress heartbeat, ticked once per tree node.
    pub progress: Option<&'a crate::progress::Heartbeat>,
    /// Record per-block model-cycle span logs
    /// ([`BlockCounters::enable_tracing`]) even on inline single-block
    /// runs, where no [`LaunchConfig`] carries the flag.
    pub model_trace: bool,
    /// The wall-lane track an inline single-block run records its
    /// spans on. 1, block 0's track, unless the caller runs several
    /// inline searches at once and gives each its own. A launch
    /// records block `b` on track `b + 1` regardless.
    pub track: u32,
}

impl EngineObs<'static> {
    /// Everything off: the no-op sink, no heartbeat, no model trace.
    pub const OFF: EngineObs<'static> = EngineObs {
        sink: &parvc_obs::NOOP,
        progress: None,
        model_trace: false,
        track: 1,
    };
}

impl Default for EngineObs<'static> {
    fn default() -> Self {
        EngineObs::OFF
    }
}

/// One block's whole traversal: the Figure 1 / Figure 4 loop with the
/// scheduling decisions delegated to `policy`.
///
/// Child order follows Figure 1: the remove-`N(vmax)` child is handed
/// to [`SchedulePolicy::dispose`] and the block continues in place
/// with the remove-`vmax` child.
pub fn drive_block(
    kernel: &Kernel<'_>,
    bound: BoundSrc<'_>,
    policy: &mut dyn SchedulePolicy,
    counters: &mut BlockCounters,
) {
    let mut current: Option<TreeNode> = None;
    // The block's incremental connectivity tracker (the union-find
    // split backend): stays warm along in-place descents, falls back
    // to a rebuild when a policy-acquired node jumps elsewhere in the
    // tree. Unused (and never updated) by the BFS backend.
    let mut conn = Connectivity::new();
    // Per-block phase scratch and the tracker-reuse pool for nested
    // component sub-searches: allocated once per block, reused across
    // every tree node this block processes.
    let mut scratch = BlockScratch::new();
    let mut pool = ConnPool::new();
    loop {
        if bound.should_abort() {
            policy.on_exit(ExitCause::Aborted, kernel, counters);
            return;
        }
        // Next node: the in-flight remove-vmax child, else ask the
        // policy (Figure 4 lines 4–10).
        let mut node = match current.take() {
            Some(n) => n,
            None => match policy.next(kernel, bound, counters) {
                Some(n) => n,
                None => {
                    policy.on_exit(ExitCause::Exhausted, kernel, counters);
                    return;
                }
            },
        };

        // The shared step: reduce, check, branch (lines 11 onward).
        counters.tree_nodes_visited += 1;
        if let Some(hb) = kernel.progress {
            hb.tick(&bound);
        }
        let track = kernel.track;
        let t_reduce = parvc_obs::SpanTimer::start(kernel.sink);
        kernel.reduce(&mut node, bound.bound(), &mut scratch, counters);
        t_reduce.finish(kernel.sink, "engine", "reduce", track, node.len() as u64);
        if kernel.prune(&node, bound.bound(), &mut scratch) {
            continue;
        }
        // Component-sum nodes (see [`crate::split`]): when the
        // reductions disconnected the residual graph, the components
        // are independent sub-problems whose optima sum. The policy may
        // adopt the split (donate components as work units); otherwise
        // the block solves them inline and the combined cover flows
        // through the ordinary solution machinery.
        if let Some(params) = kernel.ext.component_branching {
            if let Some(comps) = split::detect_components(
                kernel,
                &node,
                params,
                &mut conn,
                counters,
                bound.bound().is_weighted(),
            ) {
                let pending = PendingSplit {
                    parent: node,
                    comps,
                };
                match policy.adopt_split(pending, kernel, counters) {
                    Ok(()) => continue,
                    Err(pending) => {
                        let verdict = split::solve_split(
                            kernel,
                            &pending.parent,
                            bound.bound(),
                            &pending.comps,
                            &mut || bound.should_abort(),
                            &mut scratch,
                            &mut pool,
                            counters,
                            split::MAX_DEPTH,
                        );
                        if let SplitVerdict::Solved(combined) = verdict {
                            if !kernel.prune(&combined, bound.bound(), &mut scratch)
                                && bound.on_solution(&combined)
                            {
                                policy.on_exit(ExitCause::SolutionFound, kernel, counters);
                                return;
                            }
                        }
                        continue;
                    }
                }
            }
        }
        let vmax = match kernel.find_max_degree(&node, counters) {
            // Zero-vertex graph, or an edgeless intermediate graph:
            // S is a cover (Figure 4 lines 17–19).
            None => {
                if bound.on_solution(&node) {
                    policy.on_exit(ExitCause::SolutionFound, kernel, counters);
                    return;
                }
                continue;
            }
            Some(v) if node.degree(v) == 0 => {
                if bound.on_solution(&node) {
                    policy.on_exit(ExitCause::SolutionFound, kernel, counters);
                    return;
                }
                continue;
            }
            Some(v) => v,
        };

        // Branch (lines 20–29): the remove-N(vmax) child goes to the
        // policy, the remove-vmax child continues in place.
        let t_branch = parvc_obs::SpanTimer::start(kernel.sink);
        let mut left = node.clone();
        kernel.remove_neighbors(&mut left, vmax, Activity::RemoveNeighbors, counters);
        policy.dispose(left, kernel, counters);
        kernel.remove_vertex(&mut node, vmax, Activity::RemoveMaxVertex, counters);
        t_branch.finish(kernel.sink, "engine", "branch", track, vmax as u64);
        current = Some(node);
    }
}

/// The parameterized solve entry point: a graph, an execution shape,
/// and a scheduling policy.
///
/// `config: None` runs a single block inline on the calling thread
/// with `B = 1` (the Sequential baseline's execution shape);
/// `config: Some(_)` launches the full resident grid via
/// [`run_blocks`].
pub struct Engine<'a> {
    /// The immutable original graph.
    pub graph: &'a CsrGraph,
    /// The simulated device (SM count feeds per-SM aggregation).
    pub device: &'a DeviceSpec,
    /// The launch shape, or `None` for inline single-block execution.
    pub config: Option<&'a LaunchConfig>,
    /// Cycle prices.
    pub cost: &'a CostModel,
    /// Wall-clock budget shared by every block.
    pub deadline: &'a Deadline,
    /// Optional reduction/pruning extensions.
    pub ext: Extensions,
    /// How each block's intra-block flat passes actually execute
    /// ([`crate::ExecutorSpec`]): inline, or chunked across a worker
    /// pool. Purely a wall-clock knob — results and counters are
    /// executor-invariant by the `parvc_simgpu::exec` contract.
    pub exec: &'a dyn ParallelExecutor,
    /// Observation hooks ([`EngineObs::OFF`] = fully silent).
    pub obs: EngineObs<'a>,
}

impl Engine<'_> {
    /// Runs `mode` under `factory`'s scheduling scheme.
    ///
    /// This is the layer below [`Solver`](crate::Solver): you pick the
    /// policy factory and execution shape yourself. Inline single-block
    /// execution with the Sequential policy is the minimal setup:
    ///
    /// ```
    /// use parvc_core::engine::{Engine, SearchMode, SearchOutcome};
    /// use parvc_core::greedy::greedy_mvc;
    /// use parvc_core::sequential::SequentialFactory;
    /// use parvc_core::shared::Deadline;
    /// use parvc_core::Extensions;
    /// use parvc_graph::gen;
    /// use parvc_simgpu::{CostModel, DeviceSpec};
    ///
    /// let g = gen::petersen();
    /// let (device, cost) = (DeviceSpec::scaled(1), CostModel::default());
    /// let deadline = Deadline::new(None);
    /// let engine = Engine {
    ///     graph: &g,
    ///     device: &device,
    ///     config: None, // single block, inline on this thread
    ///     cost: &cost,
    ///     deadline: &deadline,
    ///     ext: Extensions::NONE,
    ///     exec: &parvc_simgpu::exec::SERIAL,
    ///     obs: parvc_core::engine::EngineObs::OFF,
    /// };
    /// let mode = SearchMode::Mvc { initial: greedy_mvc(&g) };
    /// let SearchOutcome::Mvc(raw) = engine.solve(&SequentialFactory::new(), mode) else {
    ///     unreachable!("MVC mode returns an MVC outcome");
    /// };
    /// assert_eq!(raw.best_size, 6); // Petersen's minimum vertex cover
    /// ```
    pub fn solve(&self, factory: &dyn PolicyFactory, mode: SearchMode) -> SearchOutcome {
        let depth_bound = mode.depth_bound(self.graph);
        match mode {
            SearchMode::Mvc { initial } => {
                let best = GlobalBest::new(initial.0, initial.1);
                let bound = BoundSrc {
                    kind: BoundKind::Mvc(&best),
                    deadline: self.deadline,
                };
                let blocks = self.run(factory, bound, depth_bound);
                let (best_size, best_cover) = best.into_result();
                SearchOutcome::Mvc(RawParallel {
                    best_size,
                    best_cover,
                    blocks,
                })
            }
            SearchMode::WeightedMvc { initial } => {
                let best = WeightedBest::new(initial.0, initial.1);
                let bound = BoundSrc {
                    kind: BoundKind::WeightedMvc(&best),
                    deadline: self.deadline,
                };
                let blocks = self.run(factory, bound, depth_bound);
                let (best_weight, best_cover) = best.into_result();
                SearchOutcome::Weighted(RawWeighted {
                    best_weight,
                    best_cover,
                    blocks,
                })
            }
            SearchMode::Pvc { k } => {
                let found = PvcFound::new();
                let bound = BoundSrc {
                    kind: BoundKind::Pvc { k, found: &found },
                    deadline: self.deadline,
                };
                let blocks = self.run(factory, bound, depth_bound);
                SearchOutcome::Pvc(RawParallelPvc {
                    cover: found.into_result(),
                    blocks,
                })
            }
        }
    }

    /// [`solve`](Self::solve) for MVC, unwrapped.
    pub fn solve_mvc(
        &self,
        factory: &dyn PolicyFactory,
        initial: (u32, Vec<VertexId>),
    ) -> RawParallel {
        match self.solve(factory, SearchMode::Mvc { initial }) {
            SearchOutcome::Mvc(raw) => raw,
            _ => unreachable!("MVC mode returns an MVC outcome"),
        }
    }

    /// [`solve`](Self::solve) for weighted MVC, unwrapped.
    pub fn solve_weighted_mvc(
        &self,
        factory: &dyn PolicyFactory,
        initial: (u64, Vec<VertexId>),
    ) -> RawWeighted {
        match self.solve(factory, SearchMode::WeightedMvc { initial }) {
            SearchOutcome::Weighted(raw) => raw,
            _ => unreachable!("weighted mode returns a weighted outcome"),
        }
    }

    /// [`solve`](Self::solve) for PVC, unwrapped.
    pub fn solve_pvc(&self, factory: &dyn PolicyFactory, k: u32) -> RawParallelPvc {
        match self.solve(factory, SearchMode::Pvc { k }) {
            SearchOutcome::Pvc(raw) => raw,
            _ => unreachable!("PVC mode returns a PVC outcome"),
        }
    }

    fn run(
        &self,
        factory: &dyn PolicyFactory,
        bound: BoundSrc<'_>,
        depth_bound: usize,
    ) -> Vec<BlockCounters> {
        factory.seed(TreeNode::root(self.graph));
        let obs = self.obs;
        match self.config {
            None => {
                // Observed runs route the executor through the
                // recording decorator; disabled runs keep the bare
                // reference — zero extra hops on the default path.
                let oexec;
                let exec: &dyn ParallelExecutor = if obs.sink.enabled() {
                    oexec = ObservedExec::new(self.exec, obs.sink, obs.track);
                    &oexec
                } else {
                    self.exec
                };
                let kernel = Kernel {
                    ext: self.ext,
                    exec,
                    sink: obs.sink,
                    progress: obs.progress,
                    track: obs.track,
                    ..Kernel::sequential(self.graph, self.cost)
                };
                let ctx = BlockCtx {
                    block_id: 0,
                    sm_id: 0,
                    block_size: 1,
                };
                let mut counters = BlockCounters::new(0);
                if obs.model_trace {
                    counters.enable_tracing();
                }
                let mut policy = factory.block_policy(ctx, depth_bound);
                let t_block = parvc_obs::SpanTimer::start(obs.sink);
                drive_block(&kernel, bound, policy.as_mut(), &mut counters);
                t_block.finish(
                    obs.sink,
                    "engine",
                    "block",
                    obs.track,
                    counters.tree_nodes_visited,
                );
                obs.sink
                    .counter("engine.nodes", counters.tree_nodes_visited);
                vec![counters]
            }
            Some(config) => run_blocks(self.device, config, |ctx, counters| {
                let oexec;
                let exec: &dyn ParallelExecutor = if obs.sink.enabled() {
                    oexec = ObservedExec::new(self.exec, obs.sink, ctx.block_id + 1);
                    &oexec
                } else {
                    self.exec
                };
                let kernel = Kernel {
                    graph: self.graph,
                    cost: self.cost,
                    block_size: ctx.block_size,
                    variant: config.variant,
                    ext: self.ext,
                    exec,
                    sink: obs.sink,
                    progress: obs.progress,
                    track: ctx.block_id + 1,
                };
                let mut policy = factory.block_policy(ctx, depth_bound);
                let t_block = parvc_obs::SpanTimer::start(obs.sink);
                drive_block(&kernel, bound, policy.as_mut(), counters);
                t_block.finish(
                    obs.sink,
                    "engine",
                    "block",
                    ctx.block_id + 1,
                    counters.tree_nodes_visited,
                );
                obs.sink
                    .counter("engine.nodes", counters.tree_nodes_visited);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::greedy::greedy_mvc;
    use crate::sequential::SequentialFactory;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;
    use parvc_simgpu::exec::SERIAL;

    fn engine<'a>(
        g: &'a CsrGraph,
        device: &'a DeviceSpec,
        cost: &'a CostModel,
        deadline: &'a Deadline,
    ) -> Engine<'a> {
        Engine {
            graph: g,
            device,
            config: None,
            cost,
            deadline,
            ext: Extensions::NONE,
            exec: &SERIAL,
            obs: EngineObs::OFF,
        }
    }

    fn seq_mvc(g: &CsrGraph, initial: (u32, Vec<u32>)) -> RawParallel {
        let device = DeviceSpec::scaled(1);
        let cost = CostModel::default();
        let deadline = Deadline::new(None);
        engine(g, &device, &cost, &deadline).solve_mvc(&SequentialFactory::new(), initial)
    }

    #[test]
    fn depth_bound_caps_at_vertex_count() {
        let g = gen::cycle(6);
        let mode = SearchMode::Mvc {
            initial: (u32::MAX, (0..6).collect()),
        };
        assert_eq!(mode.depth_bound(&g), 8);
        assert_eq!(SearchMode::Pvc { k: 2 }.depth_bound(&g), 4);
    }

    #[test]
    fn engine_matches_brute_force_through_sequential_policy() {
        for seed in 0..8 {
            let g = gen::gnp(13, 0.35, seed);
            let (opt, _) = brute_force_mvc(&g);
            let raw = seq_mvc(&g, greedy_mvc(&g));
            assert_eq!(raw.best_size, opt, "seed {seed}");
            assert!(is_vertex_cover(&g, &raw.best_cover));
        }
    }

    #[test]
    fn pvc_mode_stops_at_first_cover() {
        let g = gen::petersen();
        let device = DeviceSpec::scaled(1);
        let cost = CostModel::default();
        let deadline = Deadline::new(None);
        let raw = engine(&g, &device, &cost, &deadline).solve_pvc(&SequentialFactory::new(), 6);
        let cover = raw.cover.expect("petersen has a 6-cover");
        assert!(cover.len() <= 6);
        assert!(is_vertex_cover(&g, &cover));
        let none = engine(&g, &device, &cost, &deadline).solve_pvc(&SequentialFactory::new(), 5);
        assert!(none.cover.is_none(), "petersen has no 5-cover");
    }

    #[test]
    fn expired_deadline_returns_the_seed_bound() {
        let g = gen::p_hat_complement(60, 2, 5);
        let device = DeviceSpec::scaled(1);
        let cost = CostModel::default();
        let deadline = Deadline::new(Some(std::time::Duration::ZERO));
        let greedy = greedy_mvc(&g);
        let raw = engine(&g, &device, &cost, &deadline)
            .solve_mvc(&SequentialFactory::new(), greedy.clone());
        assert!(deadline.was_hit());
        assert_eq!(
            raw.best_size, greedy.0,
            "no better cover can appear in zero time"
        );
        // At most the root is visited before the abort check fires.
        assert!(raw.blocks[0].tree_nodes_visited <= 1);
    }
}
