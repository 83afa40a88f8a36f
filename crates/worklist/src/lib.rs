//! # parvc-worklist — GPU-style dynamic work distribution
//!
//! The substrate behind the paper's Hybrid traversal (§IV-A, §IV-C):
//!
//! * [`BrokerQueue`] — a from-scratch implementation of the Broker Work
//!   Distributor (Kerbl et al., ICS'18 \[21\]): a bounded, linearizable
//!   MPMC ring buffer where producers and consumers first *negotiate* on
//!   an element count before touching slots, so a failed operation never
//!   disturbs the ring.
//! * [`Worklist`] — the paper's §IV-C modification layered on top: a
//!   `remove` wrapped in a wait loop with exact quiescence detection, so
//!   blocks keep waiting while work may still arrive and all terminate
//!   together once the traversal is provably finished. A starved block
//!   parks until a donation, a termination signal or the release of the
//!   last work token wakes it.
//! * [`LocalStack`] — the pre-allocated per-block DFS stack whose depth
//!   bound comes from the greedy approximation (§IV-E).
//! * [`StealPool`] — per-block work-stealing deques: each block's DFS
//!   stack doubles as a steal target (own back LIFO, peers steal the
//!   front), with the same token-based quiescence protocol. The
//!   substrate of the engine's fourth scheduling policy.
//!
//! Part of the `parvc` workspace — see `ARCHITECTURE.md` at the
//! repository root for how these substrates back the scheduling
//! policies.

#![warn(missing_docs)]

mod broker;
mod park;
mod stack;
mod steal;
mod termination;

pub use broker::BrokerQueue;
pub use stack::LocalStack;
pub use steal::{StealHandle, StealOutcome, StealPool, StealSource};
pub use termination::{PopOutcome, PopStats, WorkerHandle, Worklist};

/// The longest a starved block waits between polls of the [`Worklist`]
/// or scans of the [`StealPool`] — the paper's "let the thread block
/// sleep for some time" (§IV-C). A donation or termination wakes it
/// sooner; the bound only caps what a missed wakeup can cost.
const POLL_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);
