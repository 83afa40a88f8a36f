//! The `parvc serve` line protocol: request grammar and responses.
//!
//! One request is one line of UTF-8 text: a verb, then
//! whitespace-separated operands (no operand may contain whitespace).
//! One response is exactly one line of JSON (the serde-free subset in
//! `parvc_bench::json`, written compactly): `{"ok":true,...}` on
//! success, `{"ok":false,"error":"..."}` on failure. The full
//! protocol reference lives in `docs/serve.md`, whose verb table is
//! pinned against [`VERBS`] by a test — extend both together.

use std::collections::BTreeMap;
use std::time::Duration;

use parvc_bench::json::{obj, Value};

/// One protocol verb: the row rendered into `docs/serve.md`.
#[derive(Debug, Clone, Copy)]
pub struct VerbHelp {
    /// The verb keyword, uppercase.
    pub name: &'static str,
    /// Usage line: the verb with its operands.
    pub usage: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every verb the server accepts, in documentation order. The docs
/// verb table is generated from this array and pinned by test, so the
/// protocol reference cannot drift from the implementation.
pub const VERBS: &[VerbHelp] = &[
    VerbHelp {
        name: "LOAD",
        usage: "LOAD <name> <dimacs-file|gen-spec>",
        summary: "Register an instance under a name (a graph file or a generator spec)",
    },
    VerbHelp {
        name: "SOLVE",
        usage: "SOLVE <name> [--weighted] [--k <n>] [--deadline <secs>] [--approx] [--no-cache]",
        summary:
            "Solve the named instance exactly (cache-backed), or certificate-only with --approx",
    },
    VerbHelp {
        name: "RESOLVE",
        usage: "RESOLVE <name> --edits <inline-ops|gen-spec> [--weighted]",
        summary: "Apply an edit batch through the instance's incremental session and re-solve",
    },
    VerbHelp {
        name: "STATS",
        usage: "STATS",
        summary: "Report instances, cache hits/misses/evictions, sheds, and merged solver counters",
    },
    VerbHelp {
        name: "EVICT",
        usage: "EVICT <name>|--cache",
        summary: "Drop a named instance (and its session), or clear the result cache",
    },
];

/// The `docs/serve.md` verb table, generated from [`VERBS`]. The doc
/// must contain this text verbatim (the pin test checks `contains`),
/// mirroring how `docs/cli.md` pins the CLI help.
pub fn verb_table_markdown() -> String {
    let mut out = String::from("| Verb | Usage | Summary |\n|---|---|---|\n");
    for v in VERBS {
        out.push_str(&format!(
            "| `{}` | `{}` | {} |\n",
            v.name, v.usage, v.summary
        ));
    }
    out
}

/// Per-request solve options (`SOLVE` flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveFlags {
    /// Minimize total vertex weight instead of cardinality.
    pub weighted: bool,
    /// Parameterized question: is there a cover of size ≤ k?
    /// (Cardinality only; never cached.)
    pub k: Option<u32>,
    /// Per-request wall-clock budget, riding
    /// [`Solver::with_deadline`](parvc_core::Solver::with_deadline).
    pub deadline: Option<Duration>,
    /// Answer with the 2× certificate only — no exact search at all
    /// (the same answer shape overload shedding produces).
    pub approx_only: bool,
    /// Bypass the result cache for this request (no lookup, no fill).
    pub no_cache: bool,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `LOAD <name> <dimacs-file|gen-spec>`
    Load {
        /// Registry name.
        name: String,
        /// File path or generator spec.
        instance: String,
    },
    /// `SOLVE <name> [flags]`
    Solve {
        /// Registry name.
        name: String,
        /// Request options.
        flags: SolveFlags,
    },
    /// `RESOLVE <name> --edits <spec> [--weighted]`
    Resolve {
        /// Registry name.
        name: String,
        /// Edit spec: inline ops or `gen:<ops>[:<frac>][@seed]`.
        edits: String,
        /// Minimize total vertex weight instead of cardinality.
        weighted: bool,
    },
    /// `STATS`
    Stats,
    /// `EVICT <name>` — drop one instance.
    EvictInstance {
        /// Registry name.
        name: String,
    },
    /// `EVICT --cache` — clear the result cache.
    EvictCache,
}

/// Parses one request line. Blank lines and `#` comments parse to
/// `None` (no response is sent). Errors describe the offending token.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().expect("non-empty line has a first token");
    let rest: Vec<&str> = tokens.collect();
    let req = match verb {
        "LOAD" => match rest.as_slice() {
            [name, instance] => Request::Load {
                name: (*name).to_string(),
                instance: (*instance).to_string(),
            },
            _ => return Err("usage: LOAD <name> <dimacs-file|gen-spec>".into()),
        },
        "SOLVE" => {
            let [name, flag_tokens @ ..] = rest.as_slice() else {
                return Err("usage: SOLVE <name> [flags]".into());
            };
            Request::Solve {
                name: (*name).to_string(),
                flags: parse_solve_flags(flag_tokens)?,
            }
        }
        "RESOLVE" => {
            let [name, flag_tokens @ ..] = rest.as_slice() else {
                return Err("usage: RESOLVE <name> --edits <spec> [--weighted]".into());
            };
            let mut edits = None;
            let mut weighted = false;
            let mut it = flag_tokens.iter();
            while let Some(&tok) = it.next() {
                match tok {
                    "--edits" => {
                        let v = it.next().ok_or("--edits needs a value")?;
                        edits = Some((*v).to_string());
                    }
                    "--weighted" => weighted = true,
                    other => {
                        return Err(format!(
                            "RESOLVE does not take '{other}' (only --edits <spec> and --weighted)"
                        ))
                    }
                }
            }
            Request::Resolve {
                name: (*name).to_string(),
                edits: edits.ok_or("RESOLVE requires --edits <spec>")?,
                weighted,
            }
        }
        "STATS" => {
            if !rest.is_empty() {
                return Err("STATS takes no operands".into());
            }
            Request::Stats
        }
        "EVICT" => match rest.as_slice() {
            ["--cache"] => Request::EvictCache,
            [name] if !name.starts_with("--") => Request::EvictInstance {
                name: (*name).to_string(),
            },
            _ => return Err("usage: EVICT <name>|--cache".into()),
        },
        other => {
            return Err(format!(
                "unknown verb '{other}' (LOAD|SOLVE|RESOLVE|STATS|EVICT)"
            ))
        }
    };
    Ok(Some(req))
}

fn parse_solve_flags(tokens: &[&str]) -> Result<SolveFlags, String> {
    let mut flags = SolveFlags::default();
    let mut it = tokens.iter();
    while let Some(&tok) = it.next() {
        match tok {
            "--weighted" => flags.weighted = true,
            "--approx" => flags.approx_only = true,
            "--no-cache" => flags.no_cache = true,
            "--k" => {
                let v = it.next().ok_or_else(|| "--k needs a value".to_string())?;
                flags.k = Some(v.parse().map_err(|_| format!("bad --k value '{v}'"))?);
            }
            "--deadline" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--deadline needs a value".to_string())?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline value '{v}'"))?;
                if secs <= 0.0 {
                    return Err(format!("--deadline must be positive, got '{v}'"));
                }
                let limit = Duration::try_from_secs_f64(secs)
                    .map_err(|e| format!("bad --deadline value '{v}': {e}"))?;
                flags.deadline = Some(limit);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if flags.k.is_some() && flags.weighted {
        return Err("--k is a cardinality question; drop --weighted".into());
    }
    Ok(flags)
}

/// An error response line: `{"error":"...","ok":false}`.
pub fn err_line(message: &str) -> String {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(sanitize(message))),
    ])
    .to_line()
}

/// A success response line from `fields`, with `"ok":true` and the
/// verb tag added.
pub fn ok_line(verb: &str, fields: Vec<(&str, Value)>) -> String {
    let mut map: BTreeMap<String, Value> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    map.insert("ok".into(), Value::Bool(true));
    map.insert("verb".into(), Value::Str(verb.to_string()));
    Value::Obj(map).to_line()
}

/// Makes arbitrary text safe for the escape-free JSON writer: quotes,
/// backslashes, and control characters become `'`/`/`/spaces.
pub fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("LOAD g1 gnp:40:0.1@7").unwrap(),
            Some(Request::Load {
                name: "g1".into(),
                instance: "gnp:40:0.1@7".into()
            })
        );
        assert_eq!(
            parse_request("SOLVE g1 --weighted --deadline 2.5 --no-cache").unwrap(),
            Some(Request::Solve {
                name: "g1".into(),
                flags: SolveFlags {
                    weighted: true,
                    deadline: Some(Duration::from_millis(2500)),
                    no_cache: true,
                    ..Default::default()
                }
            })
        );
        assert_eq!(
            parse_request("RESOLVE g1 --edits gen:8@3 --weighted").unwrap(),
            Some(Request::Resolve {
                name: "g1".into(),
                edits: "gen:8@3".into(),
                weighted: true,
            })
        );
        assert_eq!(parse_request("STATS").unwrap(), Some(Request::Stats));
        assert_eq!(
            parse_request("EVICT g1").unwrap(),
            Some(Request::EvictInstance { name: "g1".into() })
        );
        assert_eq!(
            parse_request("EVICT --cache").unwrap(),
            Some(Request::EvictCache)
        );
    }

    #[test]
    fn blank_and_comment_lines_are_silent() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("   ").unwrap(), None);
        assert_eq!(parse_request("# a comment").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("FROB g1")
            .unwrap_err()
            .contains("unknown verb"));
        assert!(parse_request("LOAD g1").unwrap_err().contains("usage"));
        assert!(parse_request("SOLVE").unwrap_err().contains("usage"));
        assert!(parse_request("SOLVE g1 --k").unwrap_err().contains("--k"));
        assert!(parse_request("SOLVE g1 --k 3 --weighted")
            .unwrap_err()
            .contains("cardinality"));
        assert!(parse_request("SOLVE g1 --deadline -1")
            .unwrap_err()
            .contains("positive"));
        for v in ["1e20", "inf", "NaN"] {
            assert!(parse_request(&format!("SOLVE g1 --deadline {v}"))
                .unwrap_err()
                .contains("--deadline"));
        }
        for seed in ["--seed approx", "--seed greedy"] {
            assert_eq!(
                parse_request(&format!("SOLVE g1 {seed}")).unwrap_err(),
                "unknown flag '--seed'"
            );
        }
        assert!(parse_request("SOLVE g1 --frobnicate")
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_request("RESOLVE g1").unwrap_err().contains("--edits"));
        for flag in [
            "--approx",
            "--deadline 1",
            "--no-cache",
            "--k 3",
            "--seed approx",
        ] {
            let err = parse_request(&format!("RESOLVE g1 --edits x {flag}")).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.contains("RESOLVE") && err.contains(&format!("'{name}'")),
                "{err}"
            );
        }
        assert!(parse_request("STATS now")
            .unwrap_err()
            .contains("no operands"));
        assert!(parse_request("EVICT").unwrap_err().contains("usage"));
        assert!(parse_request("EVICT --everything")
            .unwrap_err()
            .contains("usage"));
    }

    #[test]
    fn verb_table_lists_every_verb_once() {
        let table = verb_table_markdown();
        for v in VERBS {
            assert_eq!(table.matches(&format!("| `{}` |", v.name)).count(), 1);
        }
        assert_eq!(table.lines().count(), 2 + VERBS.len());
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = ok_line("solve", vec![("size", Value::Num(3))]);
        assert!(ok.contains("\"ok\":true") && ok.contains("\"verb\":\"solve\""));
        let err = err_line("bad \"quoted\"\nthing");
        assert!(!err.contains('\n') && !err.contains('"') || !err.contains("\\"));
        assert!(parvc_bench::json::parse(&err).is_ok());
        assert!(parvc_bench::json::parse(&ok).is_ok());
    }
}
