//! Solver-as-a-service: `parvc serve`'s line protocol, keyed result
//! cache, and admission control.
//!
//! The paper's solver is a batch program: one graph in, one cover
//! out. This crate wraps it as a long-running service for the
//! workloads the incremental tier (PR 8) and the approximation tier
//! (PR 9) were built for — streams of related instances, repeat
//! content, and bursty demand:
//!
//! - [`proto`] — the newline-delimited request/response protocol
//!   (`LOAD` / `SOLVE` / `RESOLVE` / `STATS` / `EVICT`), serde-free
//!   over [`parvc_bench::json`];
//! - [`cache`] — the LRU result cache keyed by
//!   `(content hash, objective)`, persisted to disk;
//! - [`server`] — the transport-agnostic core: instance registry,
//!   per-instance [`ResolveSession`]s, per-request deadlines, and
//!   overload shedding to 2-approximation certificates;
//! - [`tcp`] — the TCP front end over a bounded worker pool.
//!
//! The full protocol reference lives in `docs/serve.md`; the
//! operator's guide in `docs/operations.md`.
//!
//! ```
//! use parvc_serve::{ServeConfig, Server};
//!
//! let server = Server::new(ServeConfig::default());
//! let loaded = server.handle("LOAD demo gnp:40:0.1@7").unwrap();
//! assert!(loaded.contains("\"ok\":true"));
//! let first = server.handle("SOLVE demo").unwrap();
//! assert!(first.contains("\"cached\":false"));
//! let again = server.handle("SOLVE demo").unwrap();
//! assert!(again.contains("\"cached\":true"));
//! ```
//!
//! [`ResolveSession`]: parvc_core::ResolveSession

#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod server;
pub mod tcp;

pub use cache::{CacheEntry, CacheKey, Objective, ResultCache};
pub use proto::{parse_request, verb_table_markdown, Request, SolveFlags, VerbHelp, VERBS};
pub use server::{parse_edit_spec, ServeConfig, Server};
pub use tcp::serve_listener;
