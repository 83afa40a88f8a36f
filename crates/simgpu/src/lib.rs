//! # parvc-simgpu — the GPU execution model
//!
//! The paper runs CUDA kernels on a Volta V100; this reproduction has no
//! GPU, so this crate models the parts of GPU execution that the paper's
//! claims actually depend on:
//!
//! * [`DeviceSpec`] — the architectural parameters §IV-E reasons about
//!   (SM count, resident thread/block limits, shared memory, global
//!   memory), with a [`DeviceSpec::v100`] preset matching the paper.
//! * [`occupancy`] — the paper's block-size and kernel-variant selection
//!   procedure, implemented verbatim from §IV-E.
//! * [`CostModel`] / [`counters`] — model-cycle accounting. A thread
//!   block's intra-block parallelism (reduction trees over the degree
//!   array, cooperative neighborhood removals) is *charged* rather than
//!   executed: an op over `n` items with block size `B` costs
//!   `ceil(n/B)` parallel steps. Per-activity cycle counters regenerate
//!   the paper's Figure 6 breakdown; per-SM aggregation regenerates
//!   Figure 5.
//! * [`runtime`] — thread blocks as resident OS threads, mapped
//!   round-robin onto virtual SMs.
//! * [`exec`] — the intra-block data-parallel seam: accounting always
//!   follows the `ceil(n/B)` model above, but the flat passes behind
//!   it can *actually execute* chunked across a worker pool
//!   ([`PooledExec`]) instead of inline ([`SerialExec`]), with
//!   bit-identical results and counters by construction.
//!
//! What is deliberately *not* modeled: warp divergence, memory
//! coalescing, bank conflicts. The paper's performance story is about
//! work distribution and load balance of an irregular tree search; those
//! micro-architectural effects perturb constants, not the comparisons
//! this reproduction targets.
//!
//! Part of the `parvc` workspace — see `ARCHITECTURE.md` at the
//! repository root for how the cost/counter accounting threads through
//! the solver engine.

#![warn(missing_docs)]

mod cost;
pub mod counters;
mod device;
pub mod exec;
pub mod obs;
pub mod occupancy;
pub mod runtime;
pub mod trace;

pub use cost::CostModel;
pub use device::DeviceSpec;
pub use exec::{ExecutorSpec, ParallelExecutor, PooledExec, SerialExec};
pub use occupancy::{KernelVariant, LaunchConfig};
