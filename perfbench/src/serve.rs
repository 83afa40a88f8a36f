//! `serve-mixed`: closed-loop clients against one in-process `Server`.
//!
//! Each client replays its own seeded request stream and sends its next
//! request only after the previous reply (a closed loop with
//! `cfg.clients` clients). A stream LOADs its instances, then mixes
//! Zipf-popular `SOLVE` reads (most hit the result cache), `--weighted`
//! and `--approx` variants, occasional re-LOADs and `STATS`, and
//! `RESOLVE` edit batches at about 1 request in 8. Every `RESOLVE`
//! creates new graph content, so a pass touches more distinct contents
//! than the cache holds and entries get evicted.
//!
//! Every pass starts from a fresh server, so passes are identical. The
//! replies are checked after the pass against the benchmark's own copy
//! of every graph, advanced by the same `EditScript`s, and against an
//! exact optimum the benchmark computes itself (memoized per content).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parvc_bench::json::{self, Value};
use parvc_core::{is_vertex_cover, Algorithm, PrepConfig, Solver};
use parvc_graph::gen::spec;
use parvc_graph::CsrGraph;
use parvc_serve::{parse_edit_spec, ServeConfig, Server};

use crate::probe::{probe, Target};
use crate::trace::Recorder;
use crate::{finish, mix, timed_setup, Config, EndToEnd, Layers, Outcome, PassSamples, Verdict};

/// Setup is repeated this many times and its median reported.
const SETUP_REPS: usize = 9;
/// Result-cache entries (tiny runs: 4): fewer than the distinct
/// contents of a pass.
const CACHE_CAPACITY: usize = 64;
/// Per-request solve deadline, about 10× a typical cache miss.
const DEADLINE_S: f64 = 1.0;
/// Deadline of the benchmark's own reference solves.
const REFERENCE_DEADLINE_S: f64 = 5.0;
/// Instance families `(spec body, weighted)`, cycled over a client's
/// instances; weighted instances carry `:w=uniform` weights and are
/// always requested with `--weighted`.
const FAMILIES: [(&str, bool); 5] = [
    ("components:800:50:0.35", false),
    ("components:900:45:0.3", false),
    ("gnp:80:0.06", false),
    ("components:800:50:0.35", true),
    ("components:900:45:0.3", true),
];
/// Zipf exponent of instance popularity.
const ZIPF_S: f64 = 0.9;

enum Kind {
    Load,
    Solve { approx: bool },
    Resolve { edits: String },
    Stats,
}

struct Request {
    kind: Kind,
    /// The instance the request names (unused by `STATS`).
    inst: usize,
    line: String,
}

struct ClientInstance {
    weighted: bool,
    graph: CsrGraph,
}

struct Client {
    instances: Vec<ClientInstance>,
    requests: Vec<Request>,
}

/// A uniform draw in `[0, 1)` from stream position `i`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

fn client(cfg: &Config, c: usize, rec: Option<&Recorder>, layers: &mut Layers) -> Client {
    let (n_inst, n_req) = if cfg.tiny { (5, 40) } else { (60, 2400) };
    let seed = mix(cfg.seed, 1_000 + c as u64);
    let mut instances = Vec::new();
    let mut loads = Vec::new();
    for j in 0..n_inst {
        let (body, weighted) = FAMILIES[j % FAMILIES.len()];
        let mut s = format!("{body}@{}", mix(seed, j as u64));
        if weighted {
            s.push_str(":w=uniform");
        }
        let id = (c * n_inst + j) as u64 + 1;
        let span = rec.map(|r| r.open("graph.gen", id, 0));
        let t = Instant::now();
        let graph = spec::parse(&s)
            .expect("benchmark specs are well-formed")
            .expect("benchmark specs name a generator family");
        layers.add("graph.gen_s", t.elapsed().as_secs_f64());
        if let (Some(r), Some(span)) = (rec, span) {
            r.close(span);
        }
        layers.add("graph.vertices", f64::from(graph.num_vertices()));
        layers.add("graph.edges", graph.num_edges() as f64);
        loads.push(Request {
            kind: Kind::Load,
            inst: j,
            line: format!("LOAD c{c}i{j} {s}"),
        });
        instances.push(ClientInstance { weighted, graph });
    }

    let zipf: Vec<f64> = (0..n_inst)
        .map(|j| 1.0 / ((j + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = zipf.iter().sum();
    let mut requests = loads;
    for r in 0..n_req as u64 {
        let mut pick = unit(seed, 20_000 + r) * total;
        let inst = zipf
            .iter()
            .position(|&w| {
                pick -= w;
                pick < 0.0
            })
            .unwrap_or(n_inst - 1);
        let name = format!("c{c}i{inst}");
        let weighted = if instances[inst].weighted {
            " --weighted"
        } else {
            ""
        };
        let u = unit(seed, 10_000 + r);
        let (kind, line) = if u < 1.0 / 8.0 {
            let edits = format!("gen:3:0.25@{}", mix(seed, 30_000 + r) % 1_000_000);
            let line = format!("RESOLVE {name} --edits {edits}{weighted}");
            (Kind::Resolve { edits }, line)
        } else if u < 1.0 / 8.0 + 1.0 / 16.0 {
            (
                Kind::Solve { approx: true },
                format!("SOLVE {name} --approx{weighted}"),
            )
        } else if u < 1.0 / 8.0 + 1.0 / 16.0 + 1.0 / 8.0 {
            let s = &requests[inst].line;
            let spec = s.rsplit(' ').next().expect("LOAD line has a spec");
            (Kind::Load, format!("LOAD {name} {spec}"))
        } else if u < 1.0 / 8.0 + 1.0 / 16.0 + 1.0 / 8.0 + 1.0 / 64.0 {
            (Kind::Stats, "STATS".to_string())
        } else {
            (
                Kind::Solve { approx: false },
                format!("SOLVE {name}{weighted}"),
            )
        };
        requests.push(Request { kind, inst, line });
    }
    Client {
        instances,
        requests,
    }
}

fn server(cfg: &Config) -> Server {
    Server::new(ServeConfig {
        grid_limit: Some(1),
        cache_capacity: if cfg.tiny { 4 } else { CACHE_CAPACITY },
        default_deadline: Some(Duration::from_secs_f64(DEADLINE_S)),
        high_water: cfg.clients.max(4),
        ..ServeConfig::default()
    })
}

/// One client's pass: every request in order, each waiting for its
/// reply. Returns `(latency, reply)` per request.
fn replay(
    server: &Server,
    client: &Client,
    rec: Option<&Recorder>,
    id_base: u64,
) -> Vec<(f64, String)> {
    client
        .requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let id = id_base + i as u64;
            let job = rec.map(|r| r.open("job", id, 0));
            let handle = rec
                .zip(job.as_ref())
                .map(|(r, j)| r.open("serve.handle", id, j.id()));
            let t = Instant::now();
            let reply = server.handle(&req.line).unwrap_or_default();
            let secs = t.elapsed().as_secs_f64();
            if let Some(r) = rec {
                if let Some(h) = handle {
                    r.close(h);
                }
                if let Some(j) = job {
                    r.close(j);
                }
            }
            (secs, reply)
        })
        .collect()
}

/// Exact optima computed by the benchmark, keyed by content and
/// objective. `None` when the reference solve hit its deadline, so the
/// answer cannot be checked.
struct Optima {
    card: Solver,
    weighted: Solver,
    memo: BTreeMap<(u64, bool), Option<u64>>,
}

impl Optima {
    fn new() -> Self {
        let build = |weighted: bool| {
            let b = Solver::builder()
                .algorithm(Algorithm::Sequential)
                .preprocess(PrepConfig::default())
                .grid_limit(Some(1))
                .deadline(Some(Duration::from_secs_f64(REFERENCE_DEADLINE_S)));
            if weighted {
                b.weighted().build()
            } else {
                b.build()
            }
        };
        Optima {
            card: build(false),
            weighted: build(true),
            memo: BTreeMap::new(),
        }
    }

    fn get(&mut self, g: &CsrGraph, weighted: bool) -> Option<u64> {
        let key = (g.content_hash(), weighted);
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let r = if weighted {
            self.weighted.solve_mvc(g)
        } else {
            self.card.solve_mvc(g)
        };
        let v = (!r.stats.timed_out).then_some(if weighted {
            r.weight
        } else {
            u64::from(r.size)
        });
        self.memo.insert(key, v);
        v
    }
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::num).unwrap_or(0)
}

fn flag(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

fn cover_of(v: &Value) -> Vec<u32> {
    v.get("cover")
        .and_then(Value::arr)
        .map(|a| a.iter().filter_map(Value::num).map(|x| x as u32).collect())
        .unwrap_or_default()
}

/// Checks an exact answer on `g`: a cover whose cost is the cost the
/// reply states and, unless the request was shed or timed out, the
/// optimum.
fn check_exact(g: &CsrGraph, v: &Value, weighted: bool, optima: &mut Optima) -> Verdict {
    let cover = cover_of(v);
    let cost = num(v, "cost");
    if !is_vertex_cover(g, &cover) || g.cover_weight(&cover) != cost {
        return Verdict::Wrong;
    }
    if flag(v, "degraded") || flag(v, "timed_out") {
        return Verdict::Failed;
    }
    match optima.get(g, weighted) {
        None => Verdict::Failed,
        Some(opt) => Verdict::from_good(cost == opt),
    }
}

/// Per-pass bookkeeping the checker fills.
struct Tally<'a> {
    out: &'a mut Outcome,
    optima: &'a mut Optima,
    /// The pass's end-to-end samples (untraced passes only).
    pass: &'a mut PassSamples,
    layers: &'a mut Layers,
    /// `Some` on a traced pass.
    rec: Option<&'a Recorder>,
}

/// Checks one client's replies in order, replaying its edits on the
/// benchmark's own copies of its graphs.
fn check(client: &Client, replies: &[(f64, String)], id_base: u64, t: &mut Tally<'_>) {
    let mut graphs: Vec<CsrGraph> = client.instances.iter().map(|i| i.graph.clone()).collect();
    for (i, (req, (secs, reply))) in client.requests.iter().zip(replies).enumerate() {
        let inst = &client.instances[req.inst];
        let Ok(v) = json::parse(reply) else {
            t.out.count(Verdict::Wrong);
            continue;
        };
        if !flag(&v, "ok") {
            // An error line.
            t.out.count(Verdict::Failed);
            continue;
        }
        let mut exact = false;
        let (verdict, class) = match &req.kind {
            Kind::Load => {
                graphs[req.inst] = inst.graph.clone();
                (Verdict::Ok, "serve.load.ms")
            }
            Kind::Stats => (Verdict::Ok, "serve.stats.ms"),
            Kind::Solve { approx: true } => {
                let g = &graphs[req.inst];
                let cover = cover_of(&v);
                let cost = num(&v, "cost");
                let good = is_vertex_cover(g, &cover)
                    && g.cover_weight(&cover) == cost
                    && cost <= 2 * num(&v, "lower_bound");
                (Verdict::from_good(good), "serve.approx.ms")
            }
            Kind::Solve { approx: false } => {
                let cached = flag(&v, "cached");
                exact = !cached;
                let class = if inst.weighted {
                    "serve.solve_weighted.ms"
                } else if cached {
                    "serve.solve_hit.ms"
                } else {
                    "serve.solve_miss.ms"
                };
                (
                    check_exact(&graphs[req.inst], &v, inst.weighted, t.optima),
                    class,
                )
            }
            Kind::Resolve { edits } => {
                exact = true;
                let edited = parse_edit_spec(edits, &graphs[req.inst])
                    .and_then(|s| s.apply(&graphs[req.inst]).map_err(|e| e.to_string()));
                let verdict = match edited {
                    Ok(g) if num(&v, "vertices") == u64::from(g.num_vertices()) => {
                        let verdict = check_exact(&g, &v, inst.weighted, t.optima);
                        graphs[req.inst] = g;
                        verdict
                    }
                    _ => Verdict::Wrong,
                };
                (verdict, "serve.resolve.ms")
            }
        };
        t.out.count(verdict);
        match t.rec {
            None => {
                t.pass.req.push(*secs);
                if exact {
                    t.pass.solve.push(*secs);
                }
            }
            Some(rec) => {
                t.layers.sample(class, secs * 1e3);
                if let Kind::Resolve { .. } = req.kind {
                    record_resolve(t.layers, *secs, &v);
                }
                if exact {
                    let g = &graphs[req.inst];
                    let cover = cover_of(&v);
                    let target = Target {
                        g,
                        weighted: inst.weighted,
                        prep: true,
                        cover: Some(&cover),
                        optimum: t.optima.get(g, inst.weighted),
                    };
                    let p = probe(rec, id_base + i as u64, &target, t.layers);
                    if !p.lifted_ok {
                        t.out.failed += 1;
                        t.out.wrong += 1;
                    }
                }
            }
        }
    }
}

/// The resolve layer of one `RESOLVE` reply. A reply's time is a
/// request time, so it goes to `serve.*` and `resolve.*` only and the
/// `engine.*` metrics stay 0 on this workload.
fn record_resolve(layers: &mut Layers, secs: f64, v: &Value) {
    layers.sample("resolve.ms", secs * 1e3);
    layers.add("resolve.tree_nodes", num(v, "tree_nodes") as f64);
    layers.add(
        "resolve.components_total",
        num(v, "components_total") as f64,
    );
    layers.add(
        "resolve.components_reused",
        num(v, "components_reused") as f64,
    );
}

/// Folds the server's own `STATS` after a traced pass into the serve
/// layer.
fn record_stats(layers: &mut Layers, server: &Server) {
    let reply = server.handle("STATS").unwrap_or_default();
    let Ok(v) = json::parse(&reply) else {
        return;
    };
    let cache = v.get("cache").cloned().unwrap_or(Value::Null);
    layers.add("serve.cache.hits", num(&cache, "hits") as f64);
    layers.add("serve.cache.misses", num(&cache, "misses") as f64);
    layers.add("serve.cache.evictions", num(&cache, "evictions") as f64);
    layers.add("serve.sheds", num(&v, "sheds") as f64);
    let requests = v.get("requests").cloned().unwrap_or(Value::Null);
    layers.add("serve.errors", num(&requests, "errors") as f64);
}

pub fn run(cfg: &Config) -> Outcome {
    let rec = Recorder::default();
    let mut layers = Layers::default();
    let ((clients, first_server), setup_s) =
        timed_setup(SETUP_REPS, cfg.schedule.trace.then_some(&rec), |r| {
            layers = Layers::default();
            let clients: Vec<Client> = (0..cfg.clients)
                .map(|c| client(cfg, c, r, &mut layers))
                .collect();
            (clients, server(cfg))
        });

    let mut out = Outcome::default();
    let mut optima = Optima::new();
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut traced_makespans = Vec::new();
    let mut next_server = Some(Arc::new(first_server));
    // The client threads live for the whole run, so each keeps reusing
    // its own allocator arena; threads spawned per pass made the peak
    // RSS drift upward with the number of passes.
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter()
            .map(|client| {
                let (start_tx, start_rx) = mpsc::channel::<(Arc<Server>, bool, u64)>();
                let (done_tx, done_rx) = mpsc::channel();
                let rec = &rec;
                s.spawn(move || {
                    for (server, traced, id) in start_rx {
                        let replies = replay(&server, client, traced.then_some(rec), id);
                        drop(server);
                        if done_tx.send(replies).is_err() {
                            break;
                        }
                    }
                });
                (start_tx, done_rx)
            })
            .collect();

        let mut elapsed = 0.0;
        let mut pass = 0;
        while let Some(traced) = cfg.schedule.next(pass, elapsed) {
            let server = next_server.take().unwrap_or_else(|| Arc::new(server(cfg)));
            let ids: Vec<u64> = (0..clients.len())
                .map(|c| ((pass * clients.len() + c) as u64 + 1) << 20)
                .collect();
            let t_pass = Instant::now();
            for ((start, _), &id) in workers.iter().zip(&ids) {
                start
                    .send((Arc::clone(&server), traced, id))
                    .expect("client thread is running");
            }
            let replies: Vec<Vec<(f64, String)>> = workers
                .iter()
                .map(|(_, done)| done.recv().expect("client thread finished its pass"))
                .collect();
            let makespan = t_pass.elapsed().as_secs_f64();
            elapsed += makespan;
            pass += 1;
            if traced {
                traced_makespans.push(makespan);
                record_stats(&mut layers, &server);
            }
            drop(server);

            let mut samples = PassSamples {
                makespan,
                ..PassSamples::default()
            };
            let mut tally = Tally {
                out: &mut out,
                optima: &mut optima,
                pass: &mut samples,
                layers: &mut layers,
                rec: traced.then_some(&rec),
            };
            for ((client, replies), &id) in clients.iter().zip(&replies).zip(&ids) {
                check(client, replies, id, &mut tally);
            }
            if !traced {
                e2e.passes.push(samples);
            }
        }
        // Dropping the senders ends the client threads; the scope
        // joins them.
        drop(workers);
    });
    out.metrics = finish(cfg, &e2e, &traced_makespans, &layers, &rec);
    out
}
