//! Exporter well-formedness: the Chrome trace and metrics snapshot
//! emitted by `parvc-obs` are valid documents, not just plausible
//! strings.
//!
//! Both exporters hand-roll their JSON (the workspace is offline and
//! serde-free), so the checks parse everything back with
//! `parvc_bench::json` — the same reader the CI `gate` binary
//! trusts — and then assert the structural invariants Perfetto
//! and chrome://tracing rely on: complete events carry `ts`/`dur`,
//! timestamps are monotone per `(pid, tid)` thread, and spans on a
//! thread nest properly. A hand-built snapshot is additionally pinned
//! byte-for-byte against a committed fixture so format drift is a
//! reviewed diff, not an accident.

use parvc::core::{Algorithm, Solver, TelemetryConfig};
use parvc::graph::gen;
use parvc::obs::{Histogram, Lane, SpanRecord, TelemetrySnapshot};
use parvc::prep::PrepConfig;
use parvc_bench::json::{self, Value};

/// A snapshot from a real preprocessed solve (components family, so
/// the prep → component → engine taxonomy all fires).
fn solved_snapshot() -> TelemetrySnapshot {
    let g = gen::sparse_components(48, 8, 0.5, 3);
    let r = Solver::builder()
        .algorithm(Algorithm::Hybrid)
        .grid_limit(Some(1))
        .component_branching(true)
        .preprocess(PrepConfig::default())
        .telemetry(TelemetryConfig::default())
        .build()
        .solve_mvc(&g);
    r.stats.telemetry.expect("telemetry was on")
}

/// The non-metadata trace events, as `(pid, tid, ts, dur, ph)`.
fn events(trace: &Value) -> Vec<(u64, u64, u64, u64, String)> {
    trace
        .get("traceEvents")
        .and_then(Value::arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::str) != Some("M"))
        .map(|e| {
            (
                e.get("pid").and_then(Value::num).expect("pid"),
                e.get("tid").and_then(Value::num).expect("tid"),
                e.get("ts").and_then(Value::num).expect("ts"),
                e.get("dur").and_then(Value::num).unwrap_or(0),
                e.get("ph").and_then(Value::str).expect("ph").to_string(),
            )
        })
        .collect()
}

#[test]
fn chrome_trace_parses_and_is_track_monotone() {
    let snap = solved_snapshot();
    let trace = json::parse(&snap.chrome_trace()).expect("exporter emits parseable JSON");
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Value::str),
        Some("ms")
    );
    let events = events(&trace);
    assert!(!events.is_empty(), "a preprocessed solve records spans");
    // Timestamps monotone per (pid, tid): the exporter sorts per
    // track, so any regression here is a sorting bug.
    let mut last: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    for (pid, tid, ts, _, _) in &events {
        let prev = last.entry((*pid, *tid)).or_insert(0);
        assert!(ts >= prev, "ts regressed on track ({pid},{tid})");
        *prev = *ts;
    }
    // Complete events on a thread nest: a span starting inside an
    // open span must also end inside it (exact in µs because children
    // finish before their parents by call order).
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<u64>> = Default::default();
    for (pid, tid, ts, dur, ph) in &events {
        if ph != "X" {
            continue;
        }
        let stack = stacks.entry((*pid, *tid)).or_default();
        while stack.last().is_some_and(|&end| end <= *ts) {
            stack.pop();
        }
        if let Some(&end) = stack.last() {
            assert!(
                ts + dur <= end,
                "span [{ts}, {}] overflows its enclosing span (ends {end}) on ({pid},{tid})",
                ts + dur
            );
        }
        stack.push(ts + dur);
    }
    // Both lanes present: wall-clock (pid 0) and model-cycle (pid 1).
    assert!(events.iter().any(|e| e.0 == 0), "wall lane missing");
    assert!(events.iter().any(|e| e.0 == 1), "model lane missing");
}

#[test]
fn solve_taxonomy_covers_at_least_four_categories() {
    let snap = solved_snapshot();
    let cats = snap.span_categories();
    assert!(
        cats.len() >= 4,
        "expected >= 4 span categories, got {cats:?}"
    );
    assert!(snap.has_model_lane());
}

#[test]
fn metrics_snapshot_round_trips_through_bench_json() {
    let snap = solved_snapshot();
    let text = snap.metrics_json();
    let v = json::parse(&text).expect("metrics JSON parses");
    // Re-serializing the parsed value and re-parsing reaches a fixed
    // point — the exporter stays inside the bench reader's subset.
    let v2 = json::parse(&v.to_pretty()).expect("pretty form re-parses");
    assert_eq!(v, v2);
    // The flat fields survive the trip.
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("engine.nodes"))
            .and_then(Value::num),
        snap.counters.get("engine.nodes").copied()
    );
    assert_eq!(
        v.get("spans").and_then(Value::num),
        Some(snap.spans.len() as u64)
    );
    // The text table renders every metric name the JSON carries.
    let table = snap.metrics_table();
    for name in snap.counters.keys().chain(snap.gauges.keys()) {
        assert!(table.contains(name), "table is missing {name}");
    }
}

/// A deterministic snapshot with every record shape the exporter
/// handles: wall + model lanes, instants, and all three metric kinds.
fn fixture_snapshot() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    snap.push_spans([
        SpanRecord {
            cat: "prep",
            name: "preprocess",
            track: 0,
            lane: Lane::Wall,
            start_us: 10,
            dur_us: 120,
            arg: 30,
            instant: false,
        },
        SpanRecord {
            cat: "prep",
            name: "degree-0/1/2",
            track: 0,
            lane: Lane::Wall,
            start_us: 12,
            dur_us: 40,
            arg: 7,
            instant: false,
        },
        SpanRecord {
            cat: "engine",
            name: "block",
            track: 1,
            lane: Lane::Wall,
            start_us: 140,
            dur_us: 60,
            arg: 5,
            instant: false,
        },
        SpanRecord {
            cat: "steal",
            name: "steal",
            track: 1,
            lane: Lane::Wall,
            start_us: 150,
            dur_us: 0,
            arg: 2,
            instant: true,
        },
        SpanRecord {
            cat: "model",
            name: "FindMaxDegree",
            track: 0,
            lane: Lane::Model,
            start_us: 0,
            dur_us: 48,
            arg: 0,
            instant: false,
        },
    ]);
    snap.dropped_spans = 3;
    snap.counters.insert("engine.nodes", 42);
    snap.counters.insert("steal.steals", 1);
    snap.gauges.insert("prep.rounds", 2);
    let mut h = Histogram::default();
    for v in [1, 17, 900] {
        h.record(v);
    }
    snap.histograms.insert("prep.component_size", h);
    snap
}

/// `tests/fixtures/telemetry_chrome_trace.json` is the committed
/// output of the exporter on [`fixture_snapshot`]. If this fails, the
/// trace format changed — regenerate with
/// `cargo test --test telemetry_export regenerate_fixture -- --ignored`
/// and review the diff.
#[test]
fn chrome_trace_fixture_is_current() {
    let committed = include_str!("fixtures/telemetry_chrome_trace.json");
    assert_eq!(
        committed,
        fixture_snapshot().chrome_trace(),
        "trace format drifted — regenerate the fixture and review the diff"
    );
}

#[test]
fn metrics_fixture_is_current() {
    let committed = include_str!("fixtures/telemetry_metrics.json");
    assert_eq!(
        committed,
        fixture_snapshot().metrics_json(),
        "metrics format drifted — regenerate the fixture and review the diff"
    );
}

/// Regenerates both fixtures in place (run from the repo root):
/// `cargo test --test telemetry_export regenerate_fixture -- --ignored`
#[test]
#[ignore]
fn regenerate_fixture() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(
        format!("{dir}/telemetry_chrome_trace.json"),
        fixture_snapshot().chrome_trace(),
    )
    .unwrap();
    std::fs::write(
        format!("{dir}/telemetry_metrics.json"),
        fixture_snapshot().metrics_json(),
    )
    .unwrap();
}
