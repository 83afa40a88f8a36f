//! Alternating A/B pairs of two built `perfbench` binaries.
//!
//! ```text
//! ab_pairs --parent <perfbench> --change <perfbench> --workload <name>
//!          --seed <n> --seconds <s> --pairs <n>
//! ```
//!
//! Runs `--pairs` pairs of untraced runs, each a fresh process. Odd
//! pairs run the parent first and even pairs the change first, so a
//! drift in host load does not favour one side. For every end-to-end
//! metric it prints both sides' quartiles (inclusive method over that
//! side's runs), the pairs the change won, and the ratio of the
//! medians; then each side's failed and attempted jobs. The last line
//! is the same summary as one JSON object. Exits non-zero when any run
//! exits non-zero, reports a wrong answer or fails a job.

use std::process::{Command, ExitCode};

/// End-to-end metrics where more is better (`BENCHMARK.json`'s
/// `"better": "higher"`); every other metric is better lower.
const HIGHER_IS_BETTER: &[&str] = &["throughput_rps"];

/// One run's result line.
#[derive(Debug, PartialEq)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Each metric's value, in the line's order.
    metrics: Vec<(String, f64)>,
}

/// Parses `perfbench`'s result line:
/// `{"correct": b, "attempted": n, "failed": n, "metrics": {"m": {"value": x, "unit": "u"}, ...}}`.
fn parse_line(line: &str) -> Result<Run, String> {
    let field = |key: &str| -> Result<&str, String> {
        let tag = format!("\"{key}\": ");
        let start = line.find(&tag).ok_or(format!("no \"{key}\" in {line}"))? + tag.len();
        let rest = &line[start..];
        Ok(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let number = |key: &str| -> Result<u64, String> {
        field(key)?
            .parse()
            .map_err(|e| format!("bad \"{key}\": {e}"))
    };
    let (_, body) = line
        .split_once("\"metrics\": {")
        .ok_or(format!("no metrics in {line}"))?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let mut quoted = entry.split('"');
        let name = quoted.nth(1).ok_or(format!("bad metric entry {entry}"))?;
        let (_, value) = entry
            .split_once("\"value\": ")
            .ok_or(format!("no value in {entry}"))?;
        let value = value[..value.find(',').unwrap_or(value.len())]
            .parse()
            .map_err(|e| format!("bad value of {name}: {e}"))?;
        metrics.push((name.to_string(), value));
    }
    Ok(Run {
        correct: field("correct")? == "true",
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// The `q`-quantile of `sorted` by the inclusive method: linear
/// interpolation at position `q · (n − 1)`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&sorted, q))
}

/// Runs `bin` once; `Err` carries why the run counts as failed.
fn run(bin: &str, workload: &str, seed: &str, seconds: &str) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", seed])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{bin} exited with {}: {line}", out.status));
    }
    let parsed = parse_line(line)?;
    if !parsed.correct || parsed.failed > 0 {
        return Err(format!("{bin}: wrong answers or failed jobs: {line}"));
    }
    Ok(parsed)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ab_pairs: {msg}");
    eprintln!(
        "usage: ab_pairs --parent <perfbench> --change <perfbench> --workload <name> \
         --seed <n> --seconds <s> --pairs <n>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = [
        ("--parent", None),
        ("--change", None),
        ("--workload", None),
        ("--seed", None),
        ("--seconds", None),
        ("--pairs", None),
    ];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(slot) = opts.iter_mut().find(|(name, _)| *name == flag) else {
            return usage(&format!("unknown flag '{flag}'"));
        };
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        slot.1 = Some(value);
    }
    if let Some((name, _)) = opts.iter().find(|(_, v)| v.is_none()) {
        return usage(&format!("{name} is required"));
    }
    let [parent, change, workload, seed, seconds, pairs] =
        opts.map(|(_, v)| v.expect("every option was checked above"));
    let Ok(pairs) = pairs.parse::<usize>() else {
        return usage(&format!("bad pair count '{pairs}'"));
    };
    if pairs == 0 || seconds.parse::<f64>().is_err() {
        return usage("--pairs must be positive and --seconds a number");
    }

    // runs[0] is the parent's, runs[1] the change's.
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut errors = Vec::new();
    for pair in 1..=pairs {
        let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = [&parent, &change][side];
            match run(bin, &workload, &seed, &seconds) {
                Ok(r) => runs[side].push(r),
                Err(e) => errors.push(format!("pair {pair}: {e}")),
            }
        }
        eprintln!("ab_pairs: pair {pair}/{pairs} done");
    }
    for e in &errors {
        eprintln!("ab_pairs: {e}");
    }
    let complete = runs[0].len().min(runs[1].len());
    if complete == 0 {
        eprintln!("ab_pairs: no complete pair");
        return ExitCode::FAILURE;
    }

    println!("{workload} seed {seed}, {seconds} s runs, {complete} pairs (odd pairs parent first)");
    println!(
        "{:<16} {:>38} {:>38} {:>6} {:>8}",
        "metric", "parent q1 / median / q3", "change q1 / median / q3", "won", "ratio"
    );
    let mut json = Vec::new();
    for (m, (name, _)) in runs[0][0].metrics.iter().enumerate() {
        let values = |side: usize| -> Vec<f64> {
            runs[side][..complete]
                .iter()
                .map(|r| r.metrics[m].1)
                .collect()
        };
        let (a, b) = (values(0), values(1));
        let higher = HIGHER_IS_BETTER.contains(&name.as_str());
        let won = a
            .iter()
            .zip(&b)
            .filter(|&(p, c)| if higher { c > p } else { c < p })
            .count();
        let (qa, qb) = (quartiles(&a), quartiles(&b));
        let ratio = qb[1] / qa[1];
        let fmt = |q: [f64; 3]| format!("{:.6} / {:.6} / {:.6}", q[0], q[1], q[2]);
        println!(
            "{name:<16} {:>38} {:>38} {won:>3}/{complete:<2} {ratio:>8.4}",
            fmt(qa),
            fmt(qb)
        );
        json.push(format!(
            "\"{name}\": {{\"better\": \"{}\", \"parent\": {qa:?}, \"change\": {qb:?}, \
             \"pairs_won\": {won}, \"change_over_parent\": {ratio}}}",
            if higher { "higher" } else { "lower" }
        ));
    }
    let totals = |side: usize, f: fn(&Run) -> u64| -> u64 { runs[side].iter().map(f).sum() };
    let (attempted, failed) = (
        [totals(0, |r| r.attempted), totals(1, |r| r.attempted)],
        [totals(0, |r| r.failed), totals(1, |r| r.failed)],
    );
    println!(
        "failed/attempted: parent {}/{}, change {}/{}; failed runs: {}",
        failed[0],
        attempted[0],
        failed[1],
        attempted[1],
        errors.len()
    );
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"run_seconds\": {seconds}, \
         \"pairs_run\": {complete}, \"attempted\": {attempted:?}, \"failed\": {failed:?}, \
         \"failed_runs\": {}, \"metrics\": {{{}}}}}",
        errors.len(),
        json.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 72, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.02697609, \"unit\": \"s\"}, \
                    \"throughput_rps\": {\"value\": 114.5, \"unit\": \"1/s\"}}}";
        assert_eq!(
            parse_line(line).unwrap(),
            Run {
                correct: true,
                attempted: 72,
                failed: 0,
                metrics: vec![
                    ("setup_s".into(), 0.02697609),
                    ("throughput_rps".into(), 114.5)
                ],
            }
        );
        assert!(parse_line("perfbench: 3 wrong answers").is_err());
    }

    #[test]
    fn quartiles_interpolate_inclusively() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
