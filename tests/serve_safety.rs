//! The serving tier's safety contract, exercised through the public
//! request/response surface (`Server::handle`, one line in, one JSON
//! line out) plus one real TCP round trip:
//!
//! * the LOAD → SOLVE (miss) → SOLVE (hit) → RESOLVE → STATS loop,
//!   with the hit's cover **bit-identical** to the miss's and every
//!   step counted;
//! * cache keys are content, not names: the same graph loaded from a
//!   DIMACS file and from a generator spec shares one cache entry;
//! * LRU eviction and the disk persistence round trip — a restarted
//!   server answers from yesterday's cache file, and a cache file that
//!   cannot be written only counts failures;
//! * a `LOAD` of a generator spec with out-of-range arguments is an
//!   error line, counted, and the server keeps answering;
//! * overload shedding returns certified 2-approximations: valid
//!   covers within 2× of the brute-force optimum, with sound lower
//!   bounds (the oracle contract `tests/approx_safety.rs` pins for
//!   the tier itself).

use parvc::core::brute::{brute_force_mvc, weighted_brute_force};
use parvc::graph::{gen, io};
use parvc::serve::{ServeConfig, Server};
use parvc_bench::json::{parse, Value};

fn handle(server: &Server, line: &str) -> Value {
    let response = server
        .handle(line)
        .unwrap_or_else(|| panic!("no response for '{line}'"));
    let doc = parse(&response).unwrap_or_else(|e| panic!("bad response for '{line}': {e}"));
    assert!(
        matches!(doc.get("ok"), Some(Value::Bool(true))),
        "request '{line}' failed: {response}"
    );
    doc
}

fn num(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::num)
        .unwrap_or_else(|| panic!("missing numeric field '{key}' in {doc:?}"))
}

fn cover(doc: &Value) -> Vec<u32> {
    doc.get("cover")
        .and_then(Value::arr)
        .unwrap_or_else(|| panic!("missing cover in {doc:?}"))
        .iter()
        .filter_map(Value::num)
        .map(|v| v as u32)
        .collect()
}

fn is_true(doc: &Value, key: &str) -> bool {
    matches!(doc.get(key), Some(Value::Bool(true)))
}

/// A temp path unique to this test process.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("parvc-serve-test-{}-{name}", std::process::id()))
}

#[test]
fn load_solve_hit_resolve_stats_round_trip() {
    let server = Server::new(ServeConfig::default());
    handle(&server, "LOAD demo gnp:50:0.1@7");

    let miss = handle(&server, "SOLVE demo");
    assert!(!is_true(&miss, "cached"), "first solve must miss");
    let first_cover = cover(&miss);
    assert!(parvc::core::is_vertex_cover(
        &gen::gnp(50, 0.1, 7),
        &first_cover
    ));

    let hit = handle(&server, "SOLVE demo");
    assert!(is_true(&hit, "cached"), "repeat solve must hit");
    assert_eq!(
        cover(&hit),
        first_cover,
        "a cache hit must reproduce the original cover bit for bit"
    );
    assert_eq!(num(&hit, "cost"), num(&miss, "cost"));

    let resolved = handle(&server, "RESOLVE demo --edits gen:6:0.5@9");
    assert_eq!(num(&resolved, "edits"), 6);
    assert!(num(&resolved, "components_total") >= 1);

    // The re-solve primed the cache for the post-edit graph: the next
    // SOLVE of the same name must hit and agree with RESOLVE's answer.
    let after = handle(&server, "SOLVE demo");
    assert!(
        is_true(&after, "cached"),
        "post-edit solve must hit the resolve-primed entry"
    );
    assert_eq!(cover(&after), cover(&resolved));

    let stats = handle(&server, "STATS");
    let cache = stats.get("cache").expect("STATS has a cache object");
    // Hits: repeat SOLVE + RESOLVE's cache-seeded baseline + post-edit
    // SOLVE. Misses: the first SOLVE only.
    assert_eq!(num(cache, "hits"), 3, "stats: {stats:?}");
    assert_eq!(num(cache, "misses"), 1);
    assert_eq!(num(&stats, "sheds"), 0);
    let requests = stats.get("requests").expect("STATS has request counts");
    assert_eq!(num(requests, "solve"), 3);
    assert_eq!(num(requests, "resolve"), 1);
    assert_eq!(num(requests, "errors"), 0);
}

/// Each instance keeps the content hash its cache key is built from:
/// LOAD computes it and each RESOLVE recomputes it for the edited
/// graph. So a SOLVE after two RESOLVEs hits the second one's entry,
/// re-LOADing the original spec finds the original entry again, and
/// the persisted key carries the hash LOAD reported.
#[test]
fn the_cache_key_follows_load_and_every_resolve() {
    let path = temp_path("hash-keys.json");
    std::fs::remove_file(&path).ok();
    let server = Server::new(ServeConfig {
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let spec = "gnp:40:0.12@5";
    let loaded = handle(&server, &format!("LOAD h {spec}"));
    let hash = loaded
        .get("hash")
        .and_then(Value::str)
        .expect("LOAD reports a hash")
        .to_string();
    let original = handle(&server, "SOLVE h");
    assert!(!is_true(&original, "cached"));

    handle(&server, "RESOLVE h --edits gen:4:0.5@1");
    let second = handle(&server, "RESOLVE h --edits gen:4:0.5@2");
    let after = handle(&server, "SOLVE h");
    assert!(
        is_true(&after, "cached"),
        "a SOLVE after two RESOLVEs must hit the second one's entry"
    );
    assert_eq!(cover(&after), cover(&second));

    handle(&server, &format!("LOAD h {spec}"));
    let back = handle(&server, "SOLVE h");
    assert!(
        is_true(&back, "cached"),
        "re-LOADing the original spec must find the original entry"
    );
    assert_eq!(cover(&back), cover(&original));

    let stats = handle(&server, "STATS");
    let cache = stats.get("cache").expect("cache object");
    // The original graph and the graph after each RESOLVE.
    assert_eq!(num(cache, "entries"), 3);
    assert_eq!(num(cache, "misses"), 1);

    let text = std::fs::read_to_string(&path).expect("the cache file was written");
    let doc = parse(&text).expect("the cache file parses");
    let keys: Vec<&str> = doc
        .get("entries")
        .and_then(Value::arr)
        .expect("persisted entries")
        .iter()
        .filter_map(|e| e.get("key").and_then(Value::str))
        .collect();
    assert!(
        keys.contains(&format!("{hash}:mvc").as_str()),
        "the persisted keys {keys:?} must carry LOAD's hash {hash}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_and_spec_share_one_cache_entry() {
    let spec = "components:60:6:0.5@11";
    let g = gen::sparse_components(60, 6, 0.5, 11);
    let path = temp_path("file-vs-spec.dimacs");
    let file = std::fs::File::create(&path).expect("create temp dimacs");
    io::write_dimacs(&g, "edge", std::io::BufWriter::new(file)).expect("write dimacs");

    let server = Server::new(ServeConfig::default());
    let from_file = handle(&server, &format!("LOAD f {}", path.display()));
    let from_spec = handle(&server, &format!("LOAD s {spec}"));
    assert_eq!(
        from_file.get("hash"),
        from_spec.get("hash"),
        "same content must hash identically regardless of how it loads"
    );

    let miss = handle(&server, "SOLVE f");
    let hit = handle(&server, "SOLVE s");
    assert!(!is_true(&miss, "cached"));
    assert!(
        is_true(&hit, "cached"),
        "the spec-loaded twin must hit the file-loaded instance's entry"
    );
    assert_eq!(cover(&hit), cover(&miss));

    let stats = handle(&server, "STATS");
    assert_eq!(
        num(stats.get("cache").expect("cache object"), "entries"),
        1,
        "one graph content ⇒ one cache entry, whatever its names"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn eviction_and_disk_persistence_round_trip() {
    let path = temp_path("cache-persist.json");
    std::fs::remove_file(&path).ok();
    let cfg = || ServeConfig {
        cache_capacity: 2,
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    };

    let first_cover;
    {
        let server = Server::new(cfg());
        handle(&server, "LOAD a gnp:30:0.15@1");
        handle(&server, "LOAD b gnp:30:0.15@2");
        handle(&server, "LOAD c gnp:30:0.15@3");
        handle(&server, "SOLVE a");
        handle(&server, "SOLVE b");
        first_cover = cover(&handle(&server, "SOLVE c")); // evicts a's entry
        let stats = handle(&server, "STATS");
        let cache = stats.get("cache").expect("cache object");
        assert_eq!(num(cache, "entries"), 2, "capacity 2 holds 2 entries");
        assert_eq!(num(cache, "evictions"), 1, "third insert evicted the LRU");
        assert_eq!(num(cache, "persist_failures"), 0, "every write landed");
        let again = handle(&server, "SOLVE a");
        assert!(!is_true(&again, "cached"), "evicted entry must re-miss");
    }

    // A fresh server over the same cache file answers from disk.
    let server = Server::new(cfg());
    handle(&server, "LOAD c gnp:30:0.15@3");
    let warm = handle(&server, "SOLVE c");
    assert!(
        is_true(&warm, "cached"),
        "restarted server must answer from the persisted cache"
    );
    assert_eq!(
        cover(&warm),
        first_cover,
        "the persisted cover must round-trip bit for bit"
    );
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "the temporary file is renamed over the cache file"
    );
    std::fs::remove_file(&path).ok();
}

/// A cache file that cannot be written, because its directory does not
/// exist: the server keeps answering from memory, and each failed
/// write counts in `STATS`.
#[test]
fn a_cache_file_that_cannot_be_written_counts_its_failures() {
    let path = temp_path("missing-dir").join("cache.json");
    let server = Server::new(ServeConfig {
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let failures = |server: &Server| {
        let stats = handle(server, "STATS");
        num(
            stats.get("cache").expect("cache object"),
            "persist_failures",
        )
    };
    assert_eq!(failures(&server), 0);
    handle(&server, "LOAD a gnp:30:0.15@1");
    let miss = handle(&server, "SOLVE a");
    assert_eq!(failures(&server), 1, "the insert's write failed");
    let hit = handle(&server, "SOLVE a");
    assert!(is_true(&hit, "cached"), "the entry stays in memory");
    assert_eq!(cover(&hit), cover(&miss));
    handle(&server, "LOAD b gnp:30:0.15@2");
    handle(&server, "SOLVE b");
    assert_eq!(failures(&server), 2, "every failed write counts");
    assert!(!path.exists());
}

#[test]
fn shed_answers_are_certified_two_approximations() {
    let server = Server::new(ServeConfig {
        high_water: 0, // shed every exact solve
        ..ServeConfig::default()
    });
    let corpus = [
        ("gnp", "gnp:14:0.3@5", false),
        ("comp", "components:21:3:0.5@2", false),
        ("wgnp", "gnp:12:0.3@8:w=degree", true),
    ];
    for (name, spec, weighted) in corpus {
        let g = gen::spec::parse(spec)
            .expect("corpus spec parses")
            .expect("corpus spec is a generator");
        handle(&server, &format!("LOAD {name} {spec}"));
        let flag = if weighted { " --weighted" } else { "" };
        let doc = handle(&server, &format!("SOLVE {name}{flag}"));
        assert!(
            is_true(&doc, "degraded"),
            "{name}: overloaded solve must shed"
        );
        assert!(is_true(&doc, "certified"));
        let c = cover(&doc);
        assert!(
            parvc::core::is_vertex_cover(&g, &c),
            "{name}: shed answer is not a cover"
        );
        let (cost, lb) = (num(&doc, "cost"), num(&doc, "lower_bound"));
        let opt = if weighted {
            weighted_brute_force(&g).0
        } else {
            brute_force_mvc(&g).0 as u64
        };
        assert!(
            lb <= opt,
            "{name}: certificate lower bound {lb} exceeds OPT {opt}"
        );
        assert!(
            cost <= 2 * opt,
            "{name}: shed cover cost {cost} breaks the 2x bound (OPT {opt})"
        );
        assert!(
            cost <= 2 * lb,
            "{name}: certificate is internally inconsistent"
        );
    }
    // A cache hit is still served under overload: prime via --no-cache
    // bypass? No — the shed path never fills the cache, so prove the
    // other half instead: RESOLVE is never shed.
    let resolved = handle(&server, "RESOLVE gnp --edits +e:0:5");
    assert!(
        resolved.get("degraded").is_none(),
        "RESOLVE must never shed"
    );

    let stats = handle(&server, "STATS");
    assert_eq!(num(&stats, "sheds"), 3, "every exact SOLVE was shed");
}

#[test]
fn cache_hits_survive_overload() {
    // Prime the cache under normal admission, then force overload:
    // the hit must still be served exactly (lookup precedes shedding).
    let warm = Server::new(ServeConfig::default());
    handle(&warm, "LOAD a gnp:30:0.15@4");
    let exact = cover(&handle(&warm, "SOLVE a"));

    let path = temp_path("overload-hits.json");
    std::fs::remove_file(&path).ok();
    let shared = |high_water: usize| ServeConfig {
        high_water,
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    {
        let server = Server::new(shared(4));
        handle(&server, "LOAD a gnp:30:0.15@4");
        handle(&server, "SOLVE a"); // fills the shared cache file
    }
    let overloaded = Server::new(shared(0));
    handle(&overloaded, "LOAD a gnp:30:0.15@4");
    let hit = handle(&overloaded, "SOLVE a");
    assert!(
        is_true(&hit, "cached"),
        "cache hit must be served under overload"
    );
    assert_eq!(
        cover(&hit),
        exact,
        "overload must not change the cached answer"
    );
    let stats = handle(&overloaded, "STATS");
    assert_eq!(num(&stats, "sheds"), 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tcp_round_trip_on_an_ephemeral_port() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(ServeConfig::default());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope
            .spawn(|| parvc::serve::serve_listener(&server, &listener, 2, &stop).expect("serve"));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> Value {
            writeln!(writer, "{line}").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            parse(&response).unwrap_or_else(|e| panic!("bad response for '{line}': {e}"))
        };

        let loaded = ask("LOAD net gnp:40:0.1@2");
        assert!(is_true(&loaded, "ok"));
        let miss = ask("SOLVE net");
        let hit = ask("SOLVE net");
        assert!(!is_true(&miss, "cached"));
        assert!(is_true(&hit, "cached"));
        assert_eq!(cover(&hit), cover(&miss));
        let bad = ask("SOLVE nosuch");
        assert!(
            !is_true(&bad, "ok"),
            "unknown instance must error, not hang"
        );
        writeln!(writer, "QUIT").expect("quit");

        // Unblock the accept loop so the serving thread can observe stop.
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let served = serving.join().expect("serving thread");
        assert!(served >= 1, "at least our connection was served");
    });
}

/// A request line over the 1 MiB cap gets one error line and its
/// connection is closed, without the server reading the line to its
/// end; a new connection is still answered.
#[test]
fn an_over_long_request_line_is_refused_and_the_server_stays_up() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(ServeConfig::default());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope
            .spawn(|| parvc::serve::serve_listener(&server, &listener, 2, &stop).expect("serve"));
        // A failed check must still stop the server, or the scope would
        // wait for it forever.
        let checks = catch_unwind(AssertUnwindSafe(|| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("read timeout");
            let mut writer = stream.try_clone().expect("clone stream");
            // Twice the cap and no newline. The server stops reading at
            // the cap, so the write may fail once it closes the
            // connection.
            let line = vec![b'x'; 2 * parvc::serve::tcp::MAX_LINE_BYTES as usize];
            let sending = std::thread::spawn(move || {
                let _ = writer.write_all(&line);
            });
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .expect("receive the refusal");
            let refused = parse(&response).unwrap_or_else(|e| panic!("bad refusal: {e}"));
            assert!(!is_true(&refused, "ok"), "{response}");
            let mut rest = String::new();
            assert!(
                matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
                "the connection must be closed after the refusal, got '{rest}'"
            );
            sending.join().expect("sender");

            let stream = TcpStream::connect(addr).expect("reconnect");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            writeln!(writer, "STATS").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            let stats = parse(&response).unwrap_or_else(|e| panic!("bad STATS answer: {e}"));
            assert!(is_true(&stats, "ok"), "{response}");
            writeln!(writer, "QUIT").expect("quit");
        }));

        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        serving.join().expect("serving thread");
        if let Err(failure) = checks {
            resume_unwind(failure);
        }
    });
}

/// Generator specs whose arguments are out of range, one per argument
/// a generator checks.
const OUT_OF_RANGE_SPECS: &[&str] = &[
    "gnp:30:2",
    "gnp:30:-0.5",
    "gnp:30:NaN",
    "bipartite:5:5:2",
    "phat:30:0",
    "ba:5:0",
    "ba:10:20",
    "ws:10:3:0.5",
    "ws:30:40:0.1",
    "ws:30:4:2",
    "components:60:0:0.4",
    "pace:5:6",
];

/// A `LOAD` of an out-of-range spec answers an error line and counts
/// as an error; the `LOAD` and `SOLVE` after it answer, in process and
/// on the same TCP connection.
#[test]
fn an_out_of_range_spec_is_refused_and_the_server_stays_up() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = Server::new(ServeConfig::default());
    for spec in OUT_OF_RANGE_SPECS {
        let line = format!("LOAD bad {spec}");
        let response = server.handle(&line).expect("LOAD answers");
        let refused = parse(&response).unwrap_or_else(|e| panic!("bad answer to {line}: {e}"));
        assert!(!is_true(&refused, "ok"), "{line}: {response}");
    }
    handle(&server, "LOAD good gnp:30:0.2@1");
    let solved = handle(&server, "SOLVE good");
    assert!(parvc::core::is_vertex_cover(
        &gen::gnp(30, 0.2, 1),
        &cover(&solved)
    ));
    let stats = handle(&server, "STATS");
    let requests = stats.get("requests").expect("STATS has request counts");
    assert_eq!(num(requests, "errors"), OUT_OF_RANGE_SPECS.len() as u64);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(ServeConfig::default());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope
            .spawn(|| parvc::serve::serve_listener(&server, &listener, 2, &stop).expect("serve"));
        // A failed check must still stop the server, or the scope would
        // wait for it forever.
        let checks = catch_unwind(AssertUnwindSafe(|| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("read timeout");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut ask = |line: &str| -> Value {
                writeln!(writer, "{line}").expect("send");
                let mut response = String::new();
                reader.read_line(&mut response).expect("receive");
                parse(&response).unwrap_or_else(|e| panic!("bad answer to '{line}': {e}"))
            };
            for spec in OUT_OF_RANGE_SPECS {
                assert!(!is_true(&ask(&format!("LOAD bad {spec}")), "ok"), "{spec}");
            }
            assert!(is_true(&ask("LOAD good gnp:30:0.2@1"), "ok"));
            assert!(is_true(&ask("SOLVE good"), "ok"));
            writeln!(writer, "QUIT").expect("quit");
        }));
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        serving.join().expect("serving thread");
        if let Err(failure) = checks {
            resume_unwind(failure);
        }
    });
}
