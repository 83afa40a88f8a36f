//! # parvc-graph — static graphs for the vertex-cover suite
//!
//! This crate provides everything the solvers in `parvc-core` need from a
//! graph substrate:
//!
//! * [`CsrGraph`] — an immutable, compact Compressed Sparse Row graph.
//!   This is the paper's "original graph" representation (§IV-B): built
//!   once, shared read-only by every thread block, never modified.
//! * [`GraphBuilder`] — incremental construction with deduplication.
//! * [`gen`] — deterministic instance generators reproducing the families
//!   used in the paper's evaluation (DIMACS `p_hat` complements, KONECT /
//!   SNAP-style sparse graphs, PACE-2019-style exact-track instances).
//! * [`ops`] — whole-graph operations (complement, induced subgraph,
//!   connected components, relabeling).
//! * [`EditScript`] — validated batches of vertex/edge insertions and
//!   deletions, the delta representation behind the incremental
//!   re-solve pipeline (`parvc_core::resolve`), with a seeded fuzz
//!   generator at [`gen::edit_script`].
//! * [`io`] — DIMACS and edge-list parsing/serialization so real instances
//!   can be dropped into the benchmark suite, and
//!   [`io::load_instance`], the one loader every front end calls: a
//!   generator spec or a file in a [`io::Format`], with a malformed
//!   spec told apart from an unreadable file.
//! * [`analysis`] — degree statistics used to classify instances into the
//!   paper's "high-degree" and "low-degree" categories.
//!
//! Part of the `parvc` workspace — see `ARCHITECTURE.md` at the
//! repository root for how this crate slots under the solver engine.

#![warn(missing_docs)]

pub mod analysis;
mod builder;
mod csr;
mod edit;
mod error;
pub mod gen;
pub mod io;
pub mod kcore;
pub mod matching;
pub mod ops;

pub use builder::GraphBuilder;
pub use csr::{AdjacencyRows, CsrGraph};
pub use edit::{Edit, EditError, EditScript, EditSummary};
pub use error::GraphError;

/// Vertex identifier. Graphs in this suite comfortably fit in `u32`
/// (the paper's largest instance has 38,453 vertices).
pub type VertexId = u32;
