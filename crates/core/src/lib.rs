//! # parvc-core — branch-and-reduce vertex cover solvers
//!
//! The primary contribution of *"Parallel Vertex Cover Algorithms on
//! GPUs"* (IPDPS 2022), reproduced on the `parvc-simgpu` execution
//! model:
//!
//! * [`TreeNode`] — the degree-array intermediate graph (§IV-B):
//!   compact and self-contained, so tree nodes can move through the
//!   global worklist.
//! * [`ops::Kernel`] — block-cooperative graph operations with Figure 6
//!   cycle accounting; [`reduce`] adds the three reduction rules with
//!   the §IV-D parallel conflict-resolution semantics.
//! * [`engine`] — the shared branch-and-reduce traversal loop, with
//!   scheduling delegated to a [`SchedulePolicy`] and MVC / weighted
//!   MVC / PVC termination unified by [`SearchMode`]. Every algorithm
//!   is a thin policy over this one engine; the weighted variant
//!   ([`SolverBuilder::weighted`]) changes only the bound arithmetic
//!   and the reduction rules' inclusion gates to weight units (see
//!   [`bound::SearchBound::WeightedMvc`]), so every policy solves
//!   it unchanged.
//! * [`sequential`], [`stackonly`], [`hybrid`] — the paper's three
//!   code versions as policies: the CPU baseline (Figure 1), prior
//!   work's fixed-depth sub-tree scheme, and the contribution — local
//!   stacks plus a threshold-gated global worklist (Figure 4).
//!   [`Algorithm::Batched`] is the Hybrid policy handing off
//!   [`hybrid::DEFAULT_BATCH`] children per queue negotiation.
//! * [`connect`] — the incremental union-find residual-connectivity
//!   tracker behind [`split`]'s default backend.
//! * [`split`] — in-search component branching (arXiv 2512.18334):
//!   when reductions disconnect the intermediate graph, the node
//!   becomes a *component-sum node* whose per-component optima are
//!   summed by independent budgeted sub-searches. Available under every
//!   policy via [`SolverBuilder::component_branching`].
//! * [`compsteal`] — the steal-pool policy beyond the paper: per-block
//!   work-stealing deques. [`Algorithm::ComponentSteal`] adopts
//!   component-sum nodes and donates whole components to the pool;
//!   [`Algorithm::WorkStealing`] is the same policy solving splits
//!   inline.
//! * [`Solver`] — the public façade: pick an [`Algorithm`], a
//!   [`parvc_simgpu::DeviceSpec`], and call
//!   [`solve_mvc`](Solver::solve_mvc) / [`solve_pvc`](Solver::solve_pvc)
//!   (or [`Solver::solve_mis`] via the MVC↔MIS equivalence).
//!   [`SolverBuilder::preprocess`] additionally runs the `parvc-prep`
//!   kernelization + component-decomposition pipeline up front and
//!   schedules each kernel component as an independent engine
//!   sub-search under any of the policies.
//! * [`resolve`] — incremental re-solve for dynamic graphs: apply an
//!   [`parvc_graph::EditScript`] batch, keep every untouched
//!   component's cached optimum, and re-solve only the dirty region
//!   under warm bounds seeded from the previous result.
//! * [`approx`] — the ultra-fast approximate tier: round-compressed
//!   maximal matching through the executor seam and the primal-dual
//!   weighted cover, both provably within 2× of the optimum and both
//!   carrying a lower-bound certificate.
//! * [`greedy`] (the initial bounds, cardinality and weighted),
//!   [`brute`] (the test oracles, including
//!   [`brute::weighted_brute_force`]), [`verify`] (solution checking).
//!
//! The cross-crate picture — engine contract, component-sum node
//! lifecycle, prep→solve→lift flow — is documented in
//! `ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]

pub mod approx;
pub mod bound;
pub mod brute;
pub mod compsteal;
pub mod connect;
pub mod engine;
pub mod extensions;
pub mod greedy;
pub mod hybrid;
pub mod mis;
mod node;
pub mod ops;
pub mod progress;
pub mod reduce;
pub mod resolve;
pub mod scratch;
pub mod sequential;
pub mod shared;
mod solver;
pub mod split;
pub mod stackonly;
mod stats;
pub mod verify;

pub use approx::ApproxCover;
pub use connect::{ConnPool, Connectivity};
pub use engine::{
    Engine, EngineObs, ExitCause, PolicyFactory, SchedulePolicy, SearchMode, SearchOutcome,
};
pub use extensions::Extensions;
pub use node::{TreeNode, REMOVED};
pub use parvc_obs::{RecordingSink, Sink, TelemetryConfig, TelemetrySnapshot};
pub use parvc_prep::{PrepConfig, PrepStats};
pub use parvc_simgpu::exec::ExecutorSpec;
pub use progress::Heartbeat;
pub use resolve::{ResolveSession, ResolveStats, Resolved};
pub use scratch::BlockScratch;
pub use solver::{Algorithm, Solver, SolverBuilder};
pub use split::{PendingSplit, SplitParams, SubInstance};
pub use stats::{MisResult, MvcResult, PvcResult, SolveStats};
pub use verify::{is_independent_set, is_vertex_cover};
