//! The benchmark's own tests: metric names match `BENCHMARK.json`,
//! tiny runs of every workload pass their answer checks, and the
//! deterministic counts repeat exactly at one block and one client.

use perfbench::{run, Config, Outcome, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric object in `section` of
/// `BENCHMARK.json` (one object per line, as the file is written).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is closed")];
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\": \"");
        let at = line.find(&tag)? + tag.len();
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn emitted_names_are_listed_with_units() {
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = listed(section);
        let emitted: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(emitted, listed, "{section} differs from BENCHMARK.json");
        for (name, _) in &emitted {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name}"
            );
        }
    }
}

/// A tiny run with zero seconds: the minimum number of passes.
fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.0, trace);
    cfg.tiny = true;
    cfg
}

/// Every metric of the result line's table, parsed back.
fn result_metrics(out: &Outcome, trace: bool) -> Vec<(String, f64)> {
    let line = out.result_line(trace);
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let tag = format!("\"{name}\": {{\"value\": ");
            let at = line.find(&tag).unwrap_or_else(|| panic!("{name} missing")) + tag.len();
            let rest = &line[at..];
            let value: f64 = rest[..rest.find(',').expect("value ends")]
                .parse()
                .expect("numeric value");
            assert!(rest.contains(&format!("\"unit\": \"{unit}\"")));
            (name.to_string(), value)
        })
        .collect()
}

#[test]
fn tiny_runs_pass_their_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace));
            assert!(out.attempted > 0, "{}: nothing attempted", workload.name());
            assert_eq!(out.wrong, 0, "{}: wrong answers", workload.name());
            assert_eq!(out.failed, 0, "{}: fail_frac > 0", workload.name());
            let metrics = result_metrics(&out, trace);
            assert!(metrics.iter().all(|(_, v)| v.is_finite()));
            if !trace {
                for (name, v) in &metrics {
                    assert!(*v > 0.0, "{}: {name} is 0", workload.name());
                }
            }
        }
    }
}

#[test]
fn counts_repeat_at_one_block_and_one_client() {
    const COUNTS: [&str; 10] = [
        "engine.tree_nodes",
        "prep.components",
        "prep.kernel_vertices",
        "prep.rounds",
        "prep.rule.d012.eliminated",
        "prep.rule.crown.eliminated",
        "prep.rule.highdeg.eliminated",
        "serve.cache.hit_frac",
        "serve.cache.evictions",
        "resolve.tree_nodes",
    ];
    for workload in Workload::ALL {
        let counts = || {
            let mut cfg = tiny(workload, true);
            cfg.blocks = 1;
            cfg.clients = 1;
            let out = run(&cfg);
            COUNTS.map(|name| out.metrics[name])
        };
        let first = counts();
        assert_eq!(first, counts(), "{} counts moved", workload.name());
        // serve-mixed reports its search under resolve.tree_nodes.
        assert!(
            first[0] + first[9] > 0.0,
            "{} searched nothing",
            workload.name()
        );
    }
}
