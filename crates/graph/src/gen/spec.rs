//! The generator-spec grammar: `family:arg1:arg2[...][@seed][:w=<weights>]`.
//!
//! One string names a deterministic instance — `gnp:200:0.05@7:w=uniform`
//! is a 200-vertex G(n,p) graph at p = 0.05 under seed 7 with uniform
//! random vertex weights. The grammar is shared by every front end that
//! accepts instances (the `parvc` CLI's positional `<instance>`
//! arguments, the `parvc serve` `LOAD` verb, and the bench bins), so a
//! spec that works in one place works everywhere and hashes to the same
//! [`CsrGraph::content_hash`] cache key.
//!
//! The same module parses the `gen:<ops>[:<insert_frac>][@seed]`
//! edit-batch grammar ([`parse_edits`]) that `parvc resolve --edits`
//! and the `RESOLVE` verb accept.
//!
//! Everything here returns `Result` instead of exiting or panicking,
//! out-of-range arguments included: callers that talk to a terminal
//! print the message and exit, callers that talk to a socket turn it
//! into an error line. Sizes are not capped, so a spec can still ask
//! for more than memory holds. [`crate::io::load_instance`] is the
//! entry point that also reads files.

use crate::gen;
use crate::{CsrGraph, EditScript};

/// Generator family names the spec grammar recognizes. A leading
/// segment outside this list means "not a spec" (probably a file path).
pub const FAMILIES: &[&str] = &[
    "phat",
    "gnp",
    "ba",
    "ws",
    "geometric",
    "pace",
    "components",
    "bipartite",
    "grid",
];

/// Default seed when a spec carries no `@seed` suffix.
pub const DEFAULT_SEED: u64 = 42;

/// Parses `family:arg1:arg2[...][@seed][:w=<weights>]` into a generated
/// graph.
///
/// Returns `Ok(None)` when the leading segment is not a generator
/// family — a file path may legitimately contain `:` or `@`, so nothing
/// is rejected before the family name matches. Returns `Err` for a
/// recognized family with malformed arguments.
///
/// Numeric arguments separate with `:` or `,` interchangeably
/// (`gnp:2000:0.002@1` == `gnp:2000,0.002@1`). The optional `:w=`
/// suffix attaches a vertex-weight channel (see [`attach_weights`]),
/// turning the instance into a weighted MVC input.
pub fn parse(spec: &str) -> Result<Option<CsrGraph>, String> {
    // Split a trailing weight channel off first: it may follow the
    // seed (`...@7:w=uniform`) or the last family argument.
    let (core, wspec) = match spec.split_once(":w=") {
        Some((core, w)) => (core, Some(w)),
        None => (spec, None),
    };
    let Some((family, rest)) = core.split_once(':') else {
        return Ok(None);
    };
    if !FAMILIES.contains(&family) {
        return Ok(None);
    }
    let (body, seed) = match rest.split_once('@') {
        Some((body, s)) => (
            body,
            s.parse()
                .map_err(|_| format!("bad seed '{s}' in spec '{spec}'"))?,
        ),
        None => (rest, DEFAULT_SEED),
    };
    let args = body
        .split([':', ','])
        .map(|t| {
            t.parse()
                .map_err(|_| format!("bad numeric argument '{t}' in spec '{spec}'"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let g = generate(family, seed, &args).map_err(|e| format!("spec '{spec}': {e}"))?;
    Ok(Some(match wspec {
        Some(w) => attach_weights(g, w, seed)?,
        None => g,
    }))
}

/// The family dispatch shared by the spec grammar and `parvc generate`:
/// builds `family` from its positional numeric arguments under `seed`.
///
/// The arguments come from outside the program, so every range a
/// generator asserts is checked here first and reported as an `Err`
/// that names the argument. Counts are truncated to integers before
/// the check, as the generators take them.
pub fn generate(family: &str, seed: u64, args: &[f64]) -> Result<CsrGraph, String> {
    let arg = |i: usize| -> Result<f64, String> {
        args.get(i)
            .copied()
            .ok_or_else(|| format!("family {family} needs more arguments"))
    };
    let count = |i: usize| arg(i).map(|x| x as u32);
    Ok(match family {
        "phat" => {
            let class = arg(1)? as u8;
            if !(1..=3).contains(&class) {
                return Err(format!("class must be 1, 2 or 3, got {class}"));
            }
            gen::p_hat_complement(count(0)?, class, seed)
        }
        "gnp" => gen::gnp(count(0)?, probability("p", arg(1)?)?, seed),
        "ba" => {
            let (n, m) = (count(0)?, count(1)?);
            if m < 1 || n <= m {
                return Err(format!("need m >= 1 and n > m, got n={n}, m={m}"));
            }
            gen::barabasi_albert(n, m, seed)
        }
        "ws" => {
            let (n, k) = (count(0)?, count(1)?);
            if k < 2 || !k.is_multiple_of(2) || n <= k {
                return Err(format!("need k even, k >= 2 and n > k, got n={n}, k={k}"));
            }
            gen::watts_strogatz(n, k, probability("beta", arg(2)?)?, seed)
        }
        "geometric" => gen::random_geometric(count(0)?, arg(1)?, seed),
        "pace" => {
            let n = count(0)?;
            gen::pace_like(n, part_count("communities", count(1)?, n)?, seed)
        }
        "components" => {
            let n = count(0)?;
            gen::sparse_components(n, part_count("parts", count(1)?, n)?, arg(2)?, seed)
        }
        "bipartite" => gen::bipartite_gnp(count(0)?, count(1)?, probability("p", arg(2)?)?, seed),
        "grid" => gen::grid2d(count(0)?, count(1)?),
        other => return Err(format!("unknown family '{other}'")),
    })
}

/// `p` if it is a probability (NaN is not).
fn probability(name: &str, p: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{name} must be in [0, 1], got {p}"))
    }
}

/// `k` if it is a part count for `n` vertices, in `1..=n`.
fn part_count(name: &str, k: u32, n: u32) -> Result<u32, String> {
    if (1..=n).contains(&k) {
        Ok(k)
    } else {
        Err(format!("{name} must be in 1..={n}, got {k}"))
    }
}

/// Attaches the weight channel a `w=` suffix or `--weights` flag names:
/// `uniform[:max]` (random in `1..=max`, default max 10, seeded like
/// the generator), `unit` (all-1), or `degree` (`d(v)+1`).
pub fn attach_weights(g: CsrGraph, spec: &str, seed: u64) -> Result<CsrGraph, String> {
    let (kind, param) = match spec.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (spec, None),
    };
    match (kind, param) {
        ("uniform", max) => {
            let max: u64 = match max {
                Some(m) => m
                    .parse()
                    .map_err(|_| format!("bad uniform weight bound '{m}'"))?,
                None => 10,
            };
            if max == 0 {
                return Err("uniform weight bound must be >= 1 (weights are >= 1)".into());
            }
            // Keep n·max within the i64::MAX total-weight cap the
            // graph layer enforces.
            let cap = i64::MAX as u64 / u64::from(g.num_vertices().max(1));
            if max > cap {
                return Err(format!(
                    "uniform weight bound {max} too large for {} vertices (max {cap})",
                    g.num_vertices()
                ));
            }
            Ok(gen::with_uniform_weights(g, max, seed))
        }
        ("unit", None) => {
            let n = g.num_vertices() as usize;
            Ok(g.with_weights(vec![1; n]).expect("unit weights are valid"))
        }
        ("degree", None) => Ok(gen::with_degree_weights(g)),
        _ => Err(format!(
            "unknown weight spec '{spec}' (uniform[:max]|unit|degree)"
        )),
    }
}

/// Parses a `gen:<ops>[:<insert_frac>][@seed]` edit spec into the
/// seeded batch [`gen::edit_script`] draws against `g`: `ops`
/// operations, a share `insert_frac` (default 0.5) of them insertions,
/// under `seed` (default [`DEFAULT_SEED`]).
///
/// Returns `Ok(None)` when `spec` does not start with `gen:` (it names
/// a script file or inline ops instead), and `Err` for a malformed
/// `gen:` body.
pub fn parse_edits(spec: &str, g: &CsrGraph) -> Result<Option<EditScript>, String> {
    let Some(body) = spec.strip_prefix("gen:") else {
        return Ok(None);
    };
    let (body, seed) = match body.split_once('@') {
        Some((b, s)) => (
            b,
            s.parse()
                .map_err(|_| format!("bad seed '{s}' in edit spec '{spec}'"))?,
        ),
        None => (body, DEFAULT_SEED),
    };
    let mut parts = body.split(':');
    let ops: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("edit spec '{spec}': expected gen:<ops>[:<insert_frac>][@seed]"))?;
    let frac: f64 = match parts.next() {
        Some(t) => t
            .parse()
            .map_err(|_| format!("bad insert fraction '{t}' in edit spec '{spec}'"))?,
        None => 0.5,
    };
    Ok(Some(gen::edit_script(g, ops, frac, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn non_family_is_none() {
        assert_eq!(parse("graphs/foo.dimacs").unwrap(), None);
        assert_eq!(parse("no-colon-at-all").unwrap(), None);
        assert_eq!(parse("unknownfam:10:0.5").unwrap(), None);
        assert_eq!(parse("notafamily:1:2:w=uniform").unwrap(), None);
    }

    #[test]
    fn spec_round_trips_and_seeds() {
        let a = parse("gnp:40:0.1@7").unwrap().unwrap();
        let b = parse("gnp:40,0.1@7").unwrap().unwrap();
        assert_eq!(a, b, "`:` and `,` separators are interchangeable");
        let default_seed = parse("gnp:40:0.1").unwrap().unwrap();
        let explicit = parse(&format!("gnp:40:0.1@{DEFAULT_SEED}"))
            .unwrap()
            .unwrap();
        assert_eq!(default_seed, explicit);
        assert_ne!(a, explicit, "seed changes the instance");
    }

    #[test]
    fn weight_suffix_attaches() {
        let g = parse("grid:4:4:w=degree").unwrap().unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.weight(0), 3); // corner: degree 2 + 1
        let u = parse("gnp:20:0.2@3:w=uniform:5").unwrap().unwrap();
        assert!(u.weights().unwrap().iter().all(|&w| (1..=5).contains(&w)));
        let default_max = parse("gnp:20:0.2@3:w=uniform").unwrap().unwrap();
        let weights = default_max.weights().unwrap();
        assert!(weights.iter().all(|&w| (1..=10).contains(&w)));
        assert!(weights.iter().any(|&w| w > 5), "the default maximum is 10");
        let plain = parse("gnp:20:0.2@3").unwrap().unwrap();
        assert_eq!(default_max.without_weights(), plain, "structure unchanged");
        let unit = parse("gnp:20:0.2@3:w=unit").unwrap().unwrap();
        assert!(unit.weights().unwrap().iter().all(|&w| w == 1));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        assert!(parse("gnp:40:0.1@nope").unwrap_err().contains("bad seed"));
        assert!(parse("gnp:forty:0.1").unwrap_err().contains("numeric"));
        assert!(parse("gnp:40").unwrap_err().contains("more arguments"));
        assert!(parse("gnp:40:0.1:w=bogus")
            .unwrap_err()
            .contains("weight spec"));
        assert!(attach_weights(gen::grid2d(2, 2), "uniform:0", 1).is_err());
    }

    /// Each argument a generator asserts on is refused by name, and the
    /// boundary values on the accepting side still build.
    #[test]
    fn out_of_range_arguments_are_errors_that_name_them() {
        for (spec, names) in [
            ("gnp:30:2", "p must be in [0, 1]"),
            ("gnp:30:-0.5", "p must be in [0, 1]"),
            ("gnp:30:NaN", "p must be in [0, 1]"),
            ("bipartite:5:5:2", "p must be in [0, 1]"),
            ("phat:30:0", "class must be 1, 2 or 3"),
            ("phat:30:4", "class must be 1, 2 or 3"),
            ("ba:5:0", "m >= 1"),
            ("ba:10:20", "n > m"),
            ("ws:10:3:0.5", "k even"),
            ("ws:30:40:0.1", "n > k"),
            ("ws:30:4:2", "beta must be in [0, 1]"),
            ("components:60:0:0.4", "parts must be in 1..=60"),
            ("pace:5:6", "communities must be in 1..=5"),
        ] {
            let err = parse(spec).expect_err(spec);
            assert!(err.contains(names), "{spec}: {err}");
        }
        for spec in [
            "gnp:30:0",
            "gnp:30:1",
            "phat:30:3",
            "ba:2:1",
            "ws:3:2:1",
            "components:5:5:0.5",
            "pace:5:1",
        ] {
            assert!(parse(spec).unwrap().is_some(), "{spec}");
        }
    }

    #[test]
    fn edit_specs_parse_or_fall_through() {
        let g = gen::gnp(20, 0.2, 1);
        assert_eq!(parse_edits("+e 0 1", &g).unwrap(), None);
        assert_eq!(parse_edits("edits.txt", &g).unwrap(), None);
        let defaults = parse_edits("gen:6", &g).unwrap().unwrap();
        assert_eq!(defaults, gen::edit_script(&g, 6, 0.5, DEFAULT_SEED));
        let given = parse_edits("gen:6:0.8@7", &g).unwrap().unwrap();
        assert_eq!(given, gen::edit_script(&g, 6, 0.8, 7));
        for (spec, says) in [
            ("gen:x", "expected gen:<ops>"),
            ("gen:", "expected gen:<ops>"),
            ("gen:3:y", "bad insert fraction"),
            ("gen:3@z", "bad seed"),
        ] {
            let err = parse_edits(spec, &g).expect_err(spec);
            assert!(err.contains(says), "{spec}: {err}");
        }
    }

    #[test]
    fn every_family_parses() {
        for spec in [
            "phat:30:2@1",
            "gnp:30:0.2@1",
            "ba:30:2@1",
            "ws:30:4:0.1@1",
            "geometric:30:0.3@1",
            "pace:30:4@1",
            "components:60:6:0.4@1",
            "bipartite:10:12:0.3@1",
            "grid:5:6",
        ] {
            let g = parse(spec)
                .unwrap()
                .unwrap_or_else(|| panic!("{spec} not a spec?"));
            assert!(g.num_vertices() > 0, "{spec}");
        }
    }

    /// Numeric tokens for the totality properties: in range, at and
    /// past the bounds, negative, fractional and NaN. None asks for
    /// more than 64 vertices per argument.
    const TOKENS: &[&str] = &["0", "1", "2", "3", "0.5", "-1", "1.5", "NaN", "17", "64"];

    /// `family:t1[:|,]t2...[@seed][:w=...]` from 1–4 [`TOKENS`].
    fn arb_spec() -> impl Strategy<Value = String> {
        const SEEDS: &[&str] = &["", "@7", "@0", "@x", "@", "@-1"];
        const WEIGHTS: &[&str] = &[
            "",
            ":w=uniform",
            ":w=uniform:3",
            ":w=uniform:0",
            ":w=unit",
            ":w=degree",
            ":w=bogus",
        ];
        (
            0..FAMILIES.len(),
            proptest::collection::vec((0..TOKENS.len(), 0..2usize), 1..5),
            0..SEEDS.len(),
            0..WEIGHTS.len(),
        )
            .prop_map(|(family, args, seed, weights)| {
                let mut spec = FAMILIES[family].to_string();
                for (i, (token, comma)) in args.into_iter().enumerate() {
                    spec.push(if i > 0 && comma == 1 { ',' } else { ':' });
                    spec.push_str(TOKENS[token]);
                }
                spec + SEEDS[seed] + WEIGHTS[weights]
            })
    }

    /// `gen:<ops>[:<frac>][:<extra>][@seed]` over [`TOKENS`] and a few
    /// non-numbers.
    fn arb_edit_spec() -> impl Strategy<Value = String> {
        const PARTS: &[&str] = &["", ":0", ":1", ":0.5", ":-1", ":2", ":NaN", ":y", ":0.5:9"];
        const SEEDS: &[&str] = &["", "@7", "@x", "@"];
        (0..TOKENS.len() + 1, 0..PARTS.len(), 0..SEEDS.len()).prop_map(|(ops, part, seed)| {
            let ops = TOKENS.get(ops).copied().unwrap_or("x");
            format!("gen:{ops}{}{}", PARTS[part], SEEDS[seed])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any spec over the families gives `Ok` or `Err`, never a
        /// panic, and what it builds is a valid graph.
        #[test]
        fn spec_parsing_is_total(spec in arb_spec()) {
            if let Ok(Some(g)) = parse(&spec) {
                prop_assert!(g.validate().is_ok(), "{spec} built an invalid graph");
            }
        }

        /// Any `gen:` edit spec gives `Ok` or `Err` on any graph, down
        /// to the empty one, and an `Ok` batch applies to that graph.
        #[test]
        fn edit_spec_parsing_is_total(spec in arb_edit_spec(), graph in 0usize..6) {
            let g = match graph {
                0 => gen::path(0),
                1 => gen::path(1),
                2 => gen::path(2),
                3 => gen::complete(4),
                4 => gen::with_degree_weights(gen::gnp(12, 0.3, 1)),
                _ => gen::gnp(12, 0.3, 1),
            };
            match parse_edits(&spec, &g) {
                Ok(None) => prop_assert!(false, "{spec} is a gen: spec"),
                Ok(Some(script)) => {
                    prop_assert!(script.apply(&g).is_ok(), "{spec} does not apply");
                }
                Err(e) => prop_assert!(!e.is_empty()),
            }
        }
    }
}
