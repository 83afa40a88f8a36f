//! The in-process server core: instance registry, per-instance
//! resolve sessions, admission control, and the cache-backed solve
//! path.
//!
//! [`Server`] is transport-agnostic: [`Server::handle`] maps one
//! request line to one response line and is safe to call from many
//! threads at once (the TCP front end in [`crate::tcp`] does exactly
//! that from a bounded worker pool; tests and the `gate serve` suite
//! call it directly). Internally:
//!
//! - a **registry** maps names to loaded instances; each instance
//!   carries its own lock, so solves on different instances run
//!   concurrently while requests against one instance serialize;
//! - the **result cache** ([`crate::cache`]) answers repeat content
//!   without re-solving and persists across runs;
//! - **admission control** sheds exact-solve load once the number of
//!   in-flight exact solves reaches the configured high-water mark:
//!   shed requests get the bounded 2-approximation's certificate
//!   answer (`cost ≤ 2 × lower_bound ≤ 2 × OPT`) in linear time
//!   instead of queueing without bound;
//! - per-request deadlines ride [`Solver::with_deadline`], the same
//!   wall-clock budget machinery `parvc solve --deadline` uses.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parvc_core::approx::approx_cover;
use parvc_core::{
    Algorithm, ExecutorSpec, MvcResult, PrepConfig, ResolveSession, SolveStats, Solver,
    TelemetryConfig, TelemetrySnapshot,
};
use parvc_graph::gen::spec;
use parvc_graph::{io, CsrGraph, EditScript};
use parvc_obs::{RecordingSink, Sink, SpanTimer};
use parvc_simgpu::counters::BlockCounters;
use parvc_simgpu::exec::SERIAL;

use crate::cache::{CacheEntry, CacheKey, Objective, ResultCache};
use crate::proto::{self, Request, SolveFlags};

use parvc_bench::json::Value;

/// Server configuration. `Default` is the recommended starting point:
/// the Hybrid policy with kernelization on, a serial intra-block
/// executor, and a 128-entry in-memory cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Schedule policy for exact solves.
    pub algorithm: Algorithm,
    /// Intra-block executor spec.
    pub executor: ExecutorSpec,
    /// Kernelize + decompose ahead of every exact solve.
    pub prep: bool,
    /// Cap on resident blocks per launch (None = device-sized).
    pub grid_limit: Option<u32>,
    /// Admission high-water mark: once this many exact solves are in
    /// flight, further `SOLVE` requests are shed to certificate-only
    /// answers. `0` sheds everything (useful in tests); cache hits
    /// are served even under overload.
    pub high_water: usize,
    /// Default wall-clock budget per exact solve; a request's
    /// `--deadline` overrides it.
    pub default_deadline: Option<Duration>,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Persist the result cache to this file (loaded at startup,
    /// rewritten on every mutation).
    pub cache_path: Option<PathBuf>,
    /// Attach a recording sink to the server: every request gets a
    /// `serve`-category span and the `serve.*` counters, exported via
    /// [`Server::into_telemetry`].
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            algorithm: Algorithm::Hybrid,
            executor: ExecutorSpec::Serial,
            prep: true,
            grid_limit: None,
            high_water: 4,
            default_deadline: None,
            cache_capacity: 128,
            cache_path: None,
            telemetry: false,
        }
    }
}

/// A [`ResolveSession`] that owns (via `Arc`) the solver it borrows,
/// so the registry can hold sessions for as long as instances live.
struct OwnedSession {
    /// SAFETY invariant: `session` borrows the `Solver` behind
    /// `solver`'s heap allocation. The `Arc` keeps that allocation
    /// alive and at a stable address for this struct's whole life,
    /// and field order drops `session` before `solver`, so the
    /// erased borrow never dangles. The solver itself is never
    /// mutated (sessions take `&Solver`).
    session: ResolveSession<'static>,
    /// Never read — held purely to keep the solver allocation alive
    /// for the session's erased borrow.
    #[allow(dead_code)]
    solver: Arc<Solver>,
    weighted: bool,
}

impl OwnedSession {
    fn new(solver: Arc<Solver>, weighted: bool, g: &CsrGraph, prev: &MvcResult) -> Self {
        let solver_ref: &Solver = &solver;
        // SAFETY: see the field invariant above — the referent lives
        // behind the Arc held by this same struct and outlives the
        // session by drop order.
        let solver_static: &'static Solver = unsafe { std::mem::transmute(solver_ref) };
        let session = ResolveSession::from_solved(solver_static, g, prev);
        OwnedSession {
            session,
            solver,
            weighted,
        }
    }
}

/// A registry entry: the instance behind its lock, which a SOLVE or
/// RESOLVE holds for its whole search, and what `STATS` reports about
/// it, which never waits on that lock.
struct Entry {
    source: String,
    summary: Mutex<Summary>,
    state: Mutex<Instance>,
}

/// An instance's `STATS` fields as the last completed LOAD or RESOLVE
/// left them.
#[derive(Clone, Copy)]
struct Summary {
    vertices: u32,
    edges: u64,
    session: bool,
}

impl Summary {
    fn of(inst: &Instance) -> Self {
        Summary {
            vertices: inst.graph.num_vertices(),
            edges: inst.graph.num_edges(),
            session: inst.session.is_some(),
        }
    }
}

impl Entry {
    fn new(source: &str, inst: Instance) -> Self {
        Entry {
            source: source.to_string(),
            summary: Mutex::new(Summary::of(&inst)),
            state: Mutex::new(inst),
        }
    }

    /// Refreshes the summary from `inst`, which the caller has locked.
    fn publish(&self, inst: &Instance) {
        *self.summary.lock().expect(SUMMARY_LOCK) = Summary::of(inst);
    }
}

/// A summary's lock is held only to copy a `Copy` value, so no panic
/// can poison it.
const SUMMARY_LOCK: &str = "summary lock poisoned";

struct Instance {
    graph: CsrGraph,
    /// `graph.content_hash()`, the cache key's hash: computed by LOAD
    /// and again by each RESOLVE that edits `graph`, never per SOLVE.
    hash: u64,
    session: Option<OwnedSession>,
}

#[derive(Default)]
struct RequestCounts {
    load: AtomicU64,
    solve: AtomicU64,
    resolve: AtomicU64,
    stats: AtomicU64,
    evict: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
}

/// The in-process `parvc serve` core. See the module docs.
pub struct Server {
    cfg: ServeConfig,
    /// Exact solvers: cardinality, then weighted.
    solvers: [Arc<Solver>; 2],
    registry: Mutex<BTreeMap<String, Arc<Entry>>>,
    cache: Mutex<ResultCache>,
    /// Solver counters merged across every request's telemetry
    /// snapshot (`engine.*`, `resolve.*`, …) — the `STATS` payload.
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    in_flight: AtomicUsize,
    reqs: RequestCounts,
    sink: Option<RecordingSink>,
}

/// Decrements the in-flight gauge when an exact solve finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Builds a server from `cfg`, loading the persisted cache if one
    /// is configured.
    pub fn new(cfg: ServeConfig) -> Self {
        let build = |weighted: bool| -> Arc<Solver> {
            let mut b = Solver::builder()
                .algorithm(cfg.algorithm)
                .executor(cfg.executor)
                .grid_limit(cfg.grid_limit)
                .deadline(cfg.default_deadline)
                // Metrics-only telemetry on every solve: this is what
                // surfaces `engine.oversize_inline` and the `resolve.*`
                // reuse counters in STATS. The sink contract pins this
                // as non-interfering (tests/telemetry_safety.rs).
                .telemetry(TelemetryConfig {
                    spans: false,
                    metrics: true,
                    model_cycles: false,
                    ..Default::default()
                });
            if cfg.prep {
                b = b.preprocess(PrepConfig::default());
            }
            if weighted {
                b = b.weighted();
            }
            Arc::new(b.build())
        };
        let cache = match &cfg.cache_path {
            Some(path) => ResultCache::persisted(cfg.cache_capacity, path),
            None => ResultCache::new(cfg.cache_capacity),
        };
        let sink = cfg.telemetry.then(|| {
            RecordingSink::new(&TelemetryConfig {
                spans: true,
                metrics: true,
                model_cycles: false,
                ..Default::default()
            })
        });
        Server {
            solvers: [build(false), build(true)],
            registry: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(cache),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            in_flight: AtomicUsize::new(0),
            reqs: RequestCounts::default(),
            sink,
            cfg,
        }
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Consumes the server and returns the recorded `serve` telemetry
    /// (spans per request, `serve.*` counters), if
    /// [`ServeConfig::telemetry`] was on.
    pub fn into_telemetry(self) -> Option<TelemetrySnapshot> {
        self.sink.map(RecordingSink::into_snapshot)
    }

    /// Handles one request line, returning the one response line —
    /// or `None` for blank/comment lines, which get no response.
    /// Callable from many threads at once.
    pub fn handle(&self, line: &str) -> Option<String> {
        let req = match proto::parse_request(line) {
            Ok(None) => return None,
            Ok(Some(req)) => req,
            Err(e) => {
                self.reqs.errors.fetch_add(1, Ordering::Relaxed);
                self.count("serve.error");
                return Some(proto::err_line(&e));
            }
        };
        let verb = match &req {
            Request::Load { .. } => "load",
            Request::Solve { .. } => "solve",
            Request::Resolve { .. } => "resolve",
            Request::Stats => "stats",
            Request::EvictInstance { .. } | Request::EvictCache => "evict",
        };
        let timer = self.sink.as_ref().map(|s| SpanTimer::start(s));
        self.count("serve.request");
        let start = Instant::now();
        let result = match req {
            Request::Load { name, instance } => {
                self.reqs.load.fetch_add(1, Ordering::Relaxed);
                self.count("serve.load");
                self.do_load(&name, &instance)
            }
            Request::Solve { name, flags } => {
                self.reqs.solve.fetch_add(1, Ordering::Relaxed);
                self.count("serve.solve");
                self.do_solve(&name, &flags)
            }
            Request::Resolve {
                name,
                edits,
                weighted,
            } => {
                self.reqs.resolve.fetch_add(1, Ordering::Relaxed);
                self.count("serve.resolve");
                self.do_resolve(&name, &edits, weighted)
            }
            Request::Stats => {
                self.reqs.stats.fetch_add(1, Ordering::Relaxed);
                self.count("serve.stats");
                Ok(self.do_stats())
            }
            Request::EvictInstance { name } => {
                self.reqs.evict.fetch_add(1, Ordering::Relaxed);
                self.count("serve.evict");
                self.do_evict_instance(&name)
            }
            Request::EvictCache => {
                self.reqs.evict.fetch_add(1, Ordering::Relaxed);
                self.count("serve.evict");
                let dropped = self.cache.lock().unwrap().clear();
                Ok(vec![
                    ("evicted", Value::Str("cache".into())),
                    ("entries_dropped", Value::Num(dropped as u64)),
                ])
            }
        };
        if let (Some(sink), Some(timer)) = (self.sink.as_ref(), timer) {
            match verb {
                "load" => timer.finish(sink, "serve", "load", 0, 0),
                "solve" => timer.finish(sink, "serve", "solve", 0, 0),
                "resolve" => timer.finish(sink, "serve", "resolve", 0, 0),
                "stats" => timer.finish(sink, "serve", "stats", 0, 0),
                _ => timer.finish(sink, "serve", "evict", 0, 0),
            }
        }
        Some(match result {
            Ok(mut fields) => {
                fields.push(("micros", Value::Num(start.elapsed().as_micros() as u64)));
                proto::ok_line(verb, fields)
            }
            Err(e) => {
                self.reqs.errors.fetch_add(1, Ordering::Relaxed);
                self.count("serve.error");
                proto::err_line(&e)
            }
        })
    }

    fn count(&self, name: &'static str) {
        if let Some(sink) = &self.sink {
            sink.counter(name, 1);
        }
    }

    fn solver(&self, weighted: bool) -> &Arc<Solver> {
        &self.solvers[usize::from(weighted)]
    }

    fn instance(&self, name: &str) -> Result<Arc<Entry>, String> {
        self.registry
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown instance '{name}' (LOAD it first)"))
    }

    fn merge_solve_telemetry(&self, stats: &SolveStats) {
        if let Some(snap) = &stats.telemetry {
            let mut counters = self.counters.lock().unwrap();
            for (k, v) in &snap.counters {
                *counters.entry((*k).to_string()).or_insert(0) += v;
            }
            drop(counters);
            let mut gauges = self.gauges.lock().unwrap();
            for (k, v) in &snap.gauges {
                gauges.insert((*k).to_string(), *v);
            }
        }
    }

    fn merge_resolve_stats(&self, stats: &parvc_core::ResolveStats) {
        let mut counters = self.counters.lock().unwrap();
        for (name, value) in [
            (
                "resolve.components_total",
                u64::from(stats.components_total),
            ),
            (
                "resolve.components_reused",
                u64::from(stats.components_reused),
            ),
            (
                "resolve.components_resolved",
                u64::from(stats.components_resolved),
            ),
            ("resolve.warm_bound_hits", u64::from(stats.warm_bound_hits)),
            ("resolve.uf_rebuilds", stats.uf_rebuilds),
            ("resolve.tree_nodes", stats.resolve_tree_nodes),
        ] {
            *counters.entry(name.to_string()).or_insert(0) += value;
        }
    }

    // ---- LOAD ----------------------------------------------------

    fn do_load(&self, name: &str, instance: &str) -> Result<Vec<(&'static str, Value)>, String> {
        let graph = io::load_instance(instance, None).map_err(|e| e.to_string())?;
        let hash = graph.content_hash();
        let fields = vec![
            ("instance", Value::Str(proto::sanitize(name))),
            ("vertices", Value::Num(u64::from(graph.num_vertices()))),
            ("edges", Value::Num(graph.num_edges())),
            ("weighted", Value::Bool(graph.is_weighted())),
            ("hash", Value::Str(format!("{hash:016x}"))),
        ];
        let entry = Arc::new(Entry::new(
            instance,
            Instance {
                graph,
                hash,
                session: None,
            },
        ));
        let replaced = self
            .registry
            .lock()
            .unwrap()
            .insert(name.to_string(), entry)
            .is_some();
        let mut fields = fields;
        fields.push(("replaced", Value::Bool(replaced)));
        Ok(fields)
    }

    // ---- SOLVE ---------------------------------------------------

    fn do_solve(
        &self,
        name: &str,
        flags: &SolveFlags,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let entry = self.instance(name)?;
        let inst = entry.state.lock().unwrap();
        let g = &inst.graph;

        if let Some(k) = flags.k {
            return self.solve_pvc(g, k, flags);
        }
        if flags.approx_only {
            return Ok(self.certificate_answer(g, flags.weighted, false));
        }

        let key = cache_key(inst.hash, flags.weighted);
        if !flags.no_cache {
            if let Some(hit) = self.cache.lock().unwrap().lookup(key) {
                self.count("serve.cache_hit");
                return Ok(vec![
                    ("cached", Value::Bool(true)),
                    ("size", Value::Num(hit.cover.len() as u64)),
                    ("cost", Value::Num(hit.cost)),
                    ("tree_nodes_saved", Value::Num(hit.tree_nodes)),
                    ("cover", cover_value(&hit.cover)),
                ]);
            }
            self.count("serve.cache_miss");
        }

        // Admission control: past the high-water mark the exact tier
        // is saturated — answer with the certified 2-approximation
        // instead of queueing (linear time, never enters the pool).
        let prior = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _guard = InFlightGuard(&self.in_flight);
        if prior >= self.cfg.high_water {
            self.reqs.sheds.fetch_add(1, Ordering::Relaxed);
            self.count("serve.shed");
            return Ok(self.certificate_answer(g, flags.weighted, true));
        }

        let base = self.solver(flags.weighted);
        let r = match flags.deadline {
            Some(limit) => base.with_deadline(Some(limit)).solve_mvc(g),
            None => base.solve_mvc(g),
        };
        self.merge_solve_telemetry(&r.stats);
        let cost = cost(&r, flags.weighted);
        if !r.stats.timed_out && !flags.no_cache {
            self.cache.lock().unwrap().insert(
                key,
                CacheEntry {
                    cover: r.cover.clone(),
                    cost,
                    tree_nodes: r.stats.tree_nodes,
                },
            );
        }
        Ok(vec![
            ("cached", Value::Bool(false)),
            ("size", Value::Num(u64::from(r.size))),
            ("cost", Value::Num(cost)),
            ("tree_nodes", Value::Num(r.stats.tree_nodes)),
            ("timed_out", Value::Bool(r.stats.timed_out)),
            ("cover", cover_value(&r.cover)),
        ])
    }

    fn solve_pvc(
        &self,
        g: &CsrGraph,
        k: u32,
        flags: &SolveFlags,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        // PVC answers depend on k, so they bypass the cache; they are
        // also never shed (the certificate only answers some ks).
        let base = self.solver(false);
        let r = match flags.deadline {
            Some(limit) => base.with_deadline(Some(limit)).solve_pvc(g, k),
            None => base.solve_pvc(g, k),
        };
        self.merge_solve_telemetry(&r.stats);
        let mut fields = vec![
            ("k", Value::Num(u64::from(k))),
            ("found", Value::Bool(r.found())),
            ("timed_out", Value::Bool(r.stats.timed_out)),
        ];
        if let Some(cover) = &r.cover {
            fields.push(("size", Value::Num(cover.len() as u64)));
            fields.push(("cover", cover_value(cover)));
        }
        Ok(fields)
    }

    /// The certificate-only answer: a valid cover with
    /// `cost ≤ 2 × lower_bound ≤ 2 × OPT`, produced in linear time by
    /// the PR 9 approximation tier. Used for explicit `--approx`
    /// requests and for overload shedding (`degraded: true`).
    fn certificate_answer(
        &self,
        g: &CsrGraph,
        weighted: bool,
        shed: bool,
    ) -> Vec<(&'static str, Value)> {
        let mut counters = BlockCounters::new(0);
        let a = approx_cover(g, weighted, &SERIAL, &mut counters);
        vec![
            ("degraded", Value::Bool(shed)),
            ("certified", Value::Bool(true)),
            ("cost", Value::Num(a.cost)),
            ("lower_bound", Value::Num(a.lower_bound)),
            ("rounds", Value::Num(u64::from(a.rounds))),
            ("size", Value::Num(a.cover.len() as u64)),
            ("cover", cover_value(&a.cover)),
        ]
    }

    // ---- RESOLVE -------------------------------------------------

    fn do_resolve(
        &self,
        name: &str,
        edits: &str,
        weighted: bool,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let entry = self.instance(name)?;
        let mut inst = entry.state.lock().unwrap();
        if let Some(session) = &inst.session {
            if session.weighted != weighted {
                let have = if session.weighted {
                    "weighted"
                } else {
                    "cardinality"
                };
                return Err(format!(
                    "instance '{name}' has an open {have} session; EVICT and reLOAD to switch objective"
                ));
            }
        }
        if inst.session.is_none() {
            // Seed the session with an exact baseline for the current
            // graph: from cache when the content is known (counted as
            // a hit), otherwise by solving once (counted as a miss and
            // cached like any other solve).
            let key = cache_key(inst.hash, weighted);
            let cached = self.cache.lock().unwrap().lookup(key);
            let baseline = match cached {
                Some(hit) => {
                    self.count("serve.cache_hit");
                    synthetic_result(&inst.graph, &hit)
                }
                None => {
                    self.count("serve.cache_miss");
                    let r = self.solver(weighted).solve_mvc(&inst.graph);
                    self.merge_solve_telemetry(&r.stats);
                    if r.stats.timed_out {
                        return Err(format!(
                            "baseline solve for '{name}' hit the deadline; no exact session to seed"
                        ));
                    }
                    self.cache.lock().unwrap().insert(
                        key,
                        CacheEntry {
                            cover: r.cover.clone(),
                            cost: cost(&r, weighted),
                            tree_nodes: r.stats.tree_nodes,
                        },
                    );
                    r
                }
            };
            let solver = Arc::clone(self.solver(weighted));
            inst.session = Some(OwnedSession::new(solver, weighted, &inst.graph, &baseline));
            entry.publish(&inst);
        }

        let script = parse_edit_spec(edits, &inst.graph)?;
        let session = inst.session.as_mut().expect("session just ensured");
        let resolved = session
            .session
            .resolve(&script)
            .map_err(|e| format!("edit batch failed: {e}"))?;
        self.merge_resolve_stats(&resolved.stats);
        self.merge_solve_telemetry(&resolved.result.stats);

        let r = &resolved.result;
        let cost = cost(r, weighted);
        // The session's graph advanced; keep the registry copy (and
        // the cache) in step so a follow-up SOLVE hits.
        inst.graph = resolved.graph;
        inst.hash = inst.graph.content_hash();
        entry.publish(&inst);
        if !r.stats.timed_out {
            self.cache.lock().unwrap().insert(
                cache_key(inst.hash, weighted),
                CacheEntry {
                    cover: r.cover.clone(),
                    cost,
                    tree_nodes: resolved.stats.resolve_tree_nodes,
                },
            );
        }
        Ok(vec![
            ("edits", Value::Num(script.len() as u64)),
            ("size", Value::Num(u64::from(r.size))),
            ("cost", Value::Num(cost)),
            ("vertices", Value::Num(u64::from(inst.graph.num_vertices()))),
            (
                "components_total",
                Value::Num(u64::from(resolved.stats.components_total)),
            ),
            (
                "components_reused",
                Value::Num(u64::from(resolved.stats.components_reused)),
            ),
            (
                "components_resolved",
                Value::Num(u64::from(resolved.stats.components_resolved)),
            ),
            ("tree_nodes", Value::Num(resolved.stats.resolve_tree_nodes)),
            ("timed_out", Value::Bool(r.stats.timed_out)),
            ("cover", cover_value(&r.cover)),
        ])
    }

    // ---- STATS / EVICT ------------------------------------------

    /// Reports each instance's last completed state: it reads the
    /// summaries, never an instance's lock, so an in-flight solve
    /// delays neither this reply nor, through the registry lock, any
    /// other request.
    fn do_stats(&self) -> Vec<(&'static str, Value)> {
        let entries: Vec<(String, Arc<Entry>)> = self
            .registry
            .lock()
            .unwrap()
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            .collect();
        let instances: Vec<Value> = entries
            .iter()
            .map(|(name, entry)| {
                let summary = *entry.summary.lock().expect(SUMMARY_LOCK);
                parvc_bench::json::obj(vec![
                    ("name", Value::Str(proto::sanitize(name))),
                    ("source", Value::Str(proto::sanitize(&entry.source))),
                    ("vertices", Value::Num(u64::from(summary.vertices))),
                    ("edges", Value::Num(summary.edges)),
                    ("session", Value::Bool(summary.session)),
                ])
            })
            .collect();
        let cache = self.cache.lock().unwrap();
        let cache_obj = parvc_bench::json::obj(vec![
            ("entries", Value::Num(cache.len() as u64)),
            ("capacity", Value::Num(cache.capacity() as u64)),
            ("hits", Value::Num(cache.hits())),
            ("misses", Value::Num(cache.misses())),
            ("evictions", Value::Num(cache.evictions())),
            ("persist_failures", Value::Num(cache.persist_failures())),
        ]);
        drop(cache);
        let counters = self.counters.lock().unwrap();
        let degraded_oversize = counters.get("engine.oversize_inline").copied().unwrap_or(0);
        let counters_obj = Value::Obj(
            counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        );
        drop(counters);
        let gauges_obj = Value::Obj(
            self.gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        );
        let load = Ordering::Relaxed;
        vec![
            ("instances", Value::Arr(instances)),
            ("cache", cache_obj),
            (
                "requests",
                parvc_bench::json::obj(vec![
                    ("load", Value::Num(self.reqs.load.load(load))),
                    ("solve", Value::Num(self.reqs.solve.load(load))),
                    ("resolve", Value::Num(self.reqs.resolve.load(load))),
                    ("stats", Value::Num(self.reqs.stats.load(load))),
                    ("evict", Value::Num(self.reqs.evict.load(load))),
                    ("errors", Value::Num(self.reqs.errors.load(load))),
                ]),
            ),
            ("sheds", Value::Num(self.reqs.sheds.load(load))),
            ("degraded_oversize", Value::Num(degraded_oversize)),
            (
                "in_flight",
                Value::Num(self.in_flight.load(Ordering::SeqCst) as u64),
            ),
            ("high_water", Value::Num(self.cfg.high_water as u64)),
            ("counters", counters_obj),
            ("gauges", gauges_obj),
        ]
    }

    fn do_evict_instance(&self, name: &str) -> Result<Vec<(&'static str, Value)>, String> {
        match self.registry.lock().unwrap().remove(name) {
            Some(_) => Ok(vec![
                ("evicted", Value::Str(proto::sanitize(name))),
                ("entries_dropped", Value::Num(1)),
            ]),
            None => Err(format!("unknown instance '{name}'")),
        }
    }
}

/// The cache key of content `hash` under the request's objective.
fn cache_key(hash: u64, weighted: bool) -> CacheKey {
    let objective = if weighted {
        Objective::Weighted
    } else {
        Objective::Cardinality
    };
    CacheKey { hash, objective }
}

/// An exact result's cost under the request's objective: its weight
/// when weighted, its size otherwise.
fn cost(r: &MvcResult, weighted: bool) -> u64 {
    if weighted {
        r.weight
    } else {
        u64::from(r.size)
    }
}

fn cover_value(cover: &[u32]) -> Value {
    Value::Arr(cover.iter().map(|&v| Value::Num(u64::from(v))).collect())
}

/// Parses a `RESOLVE --edits` operand: a `gen:<ops>[:<insert_frac>][@seed]`
/// spec ([`spec::parse_edits`], seeded against the instance's current
/// graph) or inline ops in the `EditScript` text format with `;`
/// between ops and `:` inside them (`+e:0:5;-v:3` ⇒ "insert edge
/// {0,5}, delete vertex 3").
pub fn parse_edit_spec(spec: &str, g: &CsrGraph) -> Result<EditScript, String> {
    if let Some(script) = spec::parse_edits(spec, g)? {
        return Ok(script);
    }
    let text: String = spec
        .split(';')
        .map(|op| op.replace(':', " "))
        .collect::<Vec<_>>()
        .join("\n");
    EditScript::parse(&text).map_err(|e| format!("bad inline edits '{spec}': {e}"))
}

/// An exact baseline reconstructed from a cache entry: the cover is
/// bit-identical to the solve that filled the entry, which is all a
/// [`ResolveSession`] needs (stats are zeroed — no new search ran).
fn synthetic_result(g: &CsrGraph, entry: &CacheEntry) -> MvcResult {
    MvcResult {
        size: entry.cover.len() as u32,
        weight: g.cover_weight(&entry.cover),
        cover: entry.cover.clone(),
        stats: SolveStats::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// `STATS` and a `LOAD` of another instance answer while a solve
    /// holds an instance's lock: neither waits on it, and `STATS`
    /// still reports the held instance.
    #[test]
    fn stats_and_load_do_not_wait_on_a_held_instance() {
        let server = Server::new(ServeConfig::default());
        let loaded = server.handle("LOAD busy gnp:30:0.2@1").unwrap();
        assert!(loaded.contains("\"ok\":true"), "{loaded}");
        let entry = server.instance("busy").unwrap();
        let held = entry.state.lock().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                for line in ["STATS", "LOAD other gnp:20:0.2@2"] {
                    tx.send(server.handle(line).unwrap()).unwrap();
                }
            });
            let timeout = Duration::from_secs(10);
            let stats = rx
                .recv_timeout(timeout)
                .expect("STATS waited on the held lock");
            assert!(
                stats.contains("\"busy\"") && stats.contains("gnp:30:0.2@1"),
                "{stats}"
            );
            let load = rx.recv_timeout(timeout).expect("LOAD waited behind STATS");
            assert!(load.contains("\"ok\":true"), "{load}");
            drop(held);
        });
    }

    /// A deadline past the clock's range never expires and leaves the
    /// instance usable; one past `Duration`'s range is refused as an
    /// error.
    #[test]
    fn out_of_range_deadlines_leave_the_instance_usable() {
        let server = Server::new(ServeConfig::default());
        let parsed = |line: &str| {
            let response = server.handle(line).expect("one response per request");
            parvc_bench::json::parse(&response).expect("responses are JSON")
        };
        assert_eq!(
            parsed("LOAD a gnp:20:0.2@1").get("ok"),
            Some(&Value::Bool(true))
        );
        for line in [
            "SOLVE a --deadline 1e19 --no-cache",
            "SOLVE a --k 3 --deadline 1e19",
            "SOLVE a",
        ] {
            let r = parsed(line);
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{line}: {r:?}");
            assert_eq!(
                r.get("timed_out").or(r.get("cached")),
                Some(&Value::Bool(false))
            );
        }
        let refused = parsed("SOLVE a --deadline 1e20");
        assert_eq!(refused.get("ok"), Some(&Value::Bool(false)), "{refused:?}");
        let stats = parsed("STATS");
        let errors = stats.get("requests").and_then(|r| r.get("errors"));
        assert_eq!(errors, Some(&Value::Num(1)), "{stats:?}");
    }
}
