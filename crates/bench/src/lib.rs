//! # parvc-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (§V):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — execution times, 3 implementations × 4 problem instances |
//! | `table2` | Table II — aggregate geometric-mean speedups by degree class |
//! | `table3` | Table III — PVC k=min on the p_hat suite vs prior work |
//! | `fig5` | Figure 5 — per-SM load distribution, StackOnly vs Hybrid, plus the WorkStealing per-victim steal-locality table |
//! | `fig6` | Figure 6 — breakdown of Hybrid kernel time by activity |
//! | `sensitivity` | §V-A in-text robustness numbers (block size, depth, worklist) |
//! | `ablation` | hybrid vs its two degenerate extremes (pure stacks / pure worklist) |
//! | `massive` | `Scale::Massive` — kernelization + component decomposition vs the unpreprocessed baseline on ≥100k-vertex sparse instances |
//! | `components` | in-search component branching (arXiv 2512.18334): split-on vs split-off tree-node counts, the union-find check's cost, WorkStealing vs ComponentSteal |
//! | `all` | everything above (except `massive` and `components`) in sequence |
//!
//! Run e.g. `cargo run -p parvc-bench --release --bin table1 -- --scale small --deadline 5`.
//! The CI gates are the root package's `gate` binary.
//!
//! Part of the `parvc` workspace — see `ARCHITECTURE.md` at the
//! repository root and `README.md` for a results tour.

#![warn(missing_docs)]

pub mod cli;
pub mod format;
pub mod json;
pub mod reports;
pub mod runner;
pub mod suite;
