//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one JSON result line as the last line
//! of standard output. Exits non-zero on a wrong answer or bad
//! arguments. See `perfbench/README.md`.

use std::process::ExitCode;

use perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <dense-search|massive-prep|serve-mixed> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag '{value}'")),
            },
            other => return usage(&format!("unknown flag '{other}'")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let outcome = run(&Config::new(workload, seed, seconds, trace));
    println!("{}", outcome.result_line(trace));
    if outcome.wrong > 0 {
        eprintln!("perfbench: {} wrong answers", outcome.wrong);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
