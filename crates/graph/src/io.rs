//! Graph serialization: DIMACS and whitespace edge-list formats.
//!
//! The paper's instances come from DIMACS \[22\] (`.clq`, `p edge` header,
//! 1-based `e u v` lines), KONECT/SNAP (plain edge lists), and PACE 2019
//! (`p td n m` header, 1-based edge lines). These parsers let real
//! downloads drop straight into the benchmark suite in place of the
//! generated stand-ins.
//!
//! [`load_instance`] is the one entry point every front end uses to
//! turn an `<instance>` operand into a graph: a generator spec or a
//! file in a [`Format`].

use std::fmt;
use std::io::{BufRead, BufReader, Write};

use crate::gen::spec;
use crate::{CsrGraph, GraphBuilder, GraphError};

/// A graph file's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// DIMACS, read by [`parse_dimacs`].
    Dimacs,
    /// A whitespace edge list, read by [`parse_edge_list`].
    EdgeList,
}

impl Format {
    /// Parses a `--format` name: `dimacs` or `edgelist`.
    pub fn parse(name: &str) -> Result<Format, String> {
        match name {
            "dimacs" => Ok(Format::Dimacs),
            "edgelist" => Ok(Format::EdgeList),
            other => Err(format!("unknown format '{other}' (dimacs|edgelist)")),
        }
    }

    /// The format a path's extension implies: DIMACS for `.dimacs`,
    /// `.clq` and `.col`, an edge list otherwise.
    fn of_path(path: &str) -> Format {
        if [".dimacs", ".clq", ".col"]
            .iter()
            .any(|e| path.ends_with(e))
        {
            Format::Dimacs
        } else {
            Format::EdgeList
        }
    }
}

/// Why [`load_instance`] built no graph. `Display` gives the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The source names a generator family but its arguments are
    /// malformed or out of range.
    Spec(String),
    /// The source is a file that cannot be opened or parsed.
    File(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Spec(m) | LoadError::File(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LoadError {}

/// Builds the graph an `<instance>` operand names: a generator spec
/// (see [`spec::parse`]) when its leading segment is a known family,
/// and otherwise a file in `format`. With no `format`, the extension
/// picks it: DIMACS for `.dimacs`, `.clq` and `.col`, an edge list
/// otherwise.
pub fn load_instance(source: &str, format: Option<Format>) -> Result<CsrGraph, LoadError> {
    if let Some(g) = spec::parse(source).map_err(LoadError::Spec)? {
        return Ok(g);
    }
    let file = std::fs::File::open(source)
        .map_err(|e| LoadError::File(format!("cannot open {source}: {e}")))?;
    let reader = BufReader::new(file);
    let parsed = match format.unwrap_or_else(|| Format::of_path(source)) {
        Format::Dimacs => parse_dimacs(reader),
        Format::EdgeList => parse_edge_list(reader, None),
    };
    parsed.map_err(|e| LoadError::File(format!("cannot parse {source}: {e}")))
}

/// Parses a DIMACS graph (`c` comments, one `p <format> <n> <m>` line,
/// `e u v` edge lines with 1-based vertex ids).
///
/// Accepts any `<format>` token (`edge`, `col`, `clq`, `td`), since the
/// collections disagree on it. Duplicate edges are tolerated.
///
/// **Vertex weights**: `n <v> <w>` lines (the weighted-benchmark
/// convention; `v <v> <w>` is accepted as an alias) attach weight `w`
/// to 1-based vertex `v`. If any weight line appears the graph becomes
/// a weighted instance, with unmentioned vertices defaulting to
/// weight 1; weights must be ≥ 1.
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut weights: Vec<(u32, u64)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        match tokens.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: "duplicate problem line".into(),
                    });
                }
                let _format = tokens.next().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    message: "missing format token".into(),
                })?;
                let n: u32 = parse_token(tokens.next(), lineno, "vertex count")?;
                let _m_declared: u64 = parse_token(tokens.next(), lineno, "edge count")?;
                builder = Some(GraphBuilder::new(n));
            }
            Some("e") => {
                let b = builder.as_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    message: "edge before problem line".into(),
                })?;
                let u: u32 = parse_token(tokens.next(), lineno, "edge endpoint")?;
                let v: u32 = parse_token(tokens.next(), lineno, "edge endpoint")?;
                if u == 0 || v == 0 {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: "DIMACS vertex ids are 1-based".into(),
                    });
                }
                b.add_edge(u - 1, v - 1)?;
            }
            Some("n") | Some("v") => {
                let b = builder.as_ref().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    message: "weight before problem line".into(),
                })?;
                let v: u32 = parse_token(tokens.next(), lineno, "weighted vertex")?;
                let w: u64 = parse_token(tokens.next(), lineno, "vertex weight")?;
                if v == 0 || v > b.num_vertices() {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!("weighted vertex {v} out of 1-based range"),
                    });
                }
                if w == 0 {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!("zero weight on vertex {v}"),
                    });
                }
                weights.push((v - 1, w));
            }
            Some(other) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("unexpected line type '{other}'"),
                });
            }
            None => unreachable!("trimmed non-empty line has a token"),
        }
    }
    let g = builder.map(GraphBuilder::build).ok_or(GraphError::Parse {
        line: 0,
        message: "no problem line found".into(),
    })?;
    if weights.is_empty() {
        return Ok(g);
    }
    let mut full = vec![1u64; g.num_vertices() as usize];
    for (v, w) in weights {
        full[v as usize] = w;
    }
    g.with_weights(full)
}

/// Writes `g` in DIMACS format with the given format token. Weighted
/// graphs additionally emit one `n <v> <w>` line per vertex (1-based),
/// which [`parse_dimacs`] round-trips.
pub fn write_dimacs<W: Write>(g: &CsrGraph, format: &str, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "p {format} {} {}", g.num_vertices(), g.num_edges())?;
    if let Some(weights) = g.weights() {
        for (v, wt) in weights.iter().enumerate() {
            writeln!(w, "n {} {wt}", v + 1)?;
        }
    }
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

/// Parses a whitespace-separated edge list (`u v` per line, `#` or `%`
/// comments, 0-based ids). The vertex count is `max id + 1` unless a
/// larger `num_vertices` is supplied.
pub fn parse_edge_list<R: BufRead>(
    reader: R,
    num_vertices: Option<u32>,
) -> Result<CsrGraph, GraphError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let u: u32 = parse_token(tokens.next(), lineno, "edge endpoint")?;
        let v: u32 = parse_token(tokens.next(), lineno, "edge endpoint")?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = match num_vertices {
        Some(n) => n,
        None if edges.is_empty() => 0,
        None => max_id + 1,
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Writes `g` as a 0-based edge list, one `u v` per line.
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> Result<(), GraphError> {
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

fn parse_token<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    let tok = token.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("bad {what} '{tok}'"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn dimacs_roundtrip() {
        let g = crate::gen::petersen();
        let mut buf = Vec::new();
        write_dimacs(&g, "edge", &mut buf).unwrap();
        let parsed = parse_dimacs(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn dimacs_parses_comments_and_blank_lines() {
        let text = "c a comment\n\np edge 3 2\ne 1 2\nc another\ne 2 3\n";
        let g = parse_dimacs(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn weighted_dimacs_roundtrip() {
        let g = crate::gen::petersen()
            .with_weights((1..=10).collect())
            .unwrap();
        let mut buf = Vec::new();
        write_dimacs(&g, "edge", &mut buf).unwrap();
        let parsed = parse_dimacs(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed.weight(9), 10);
    }

    #[test]
    fn dimacs_partial_weights_default_to_one() {
        let text = "p edge 3 2\nn 2 7\ne 1 2\ne 2 3\nv 3 4\n";
        let g = parse_dimacs(Cursor::new(text)).unwrap();
        assert_eq!(g.weights(), Some(&[1, 7, 4][..]));
    }

    #[test]
    fn dimacs_rejects_bad_weight_lines() {
        for text in [
            "n 1 5\np edge 2 1\ne 1 2\n",  // weight before header
            "p edge 2 1\ne 1 2\nn 0 5\n",  // 0-based vertex
            "p edge 2 1\ne 1 2\nn 9 5\n",  // out of range
            "p edge 2 1\ne 1 2\nn 1 0\n",  // zero weight
            "p edge 2 1\ne 1 2\nn 1\n",    // missing weight
            "p edge 2 1\ne 1 2\nn 1 -3\n", // negative weight
        ] {
            assert!(
                parse_dimacs(Cursor::new(text)).is_err(),
                "accepted: {text:?}"
            );
        }
    }

    #[test]
    fn dimacs_rejects_edge_before_header() {
        let err = parse_dimacs(Cursor::new("e 1 2\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn dimacs_rejects_zero_based_ids() {
        let err = parse_dimacs(Cursor::new("p edge 3 1\ne 0 1\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn dimacs_rejects_garbage() {
        let err = parse_dimacs(Cursor::new("p edge 3 1\nq 1 2\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn dimacs_rejects_missing_header() {
        let err = parse_dimacs(Cursor::new("c nothing here\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 0, .. }));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = crate::gen::gnp(40, 0.15, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = parse_edge_list(Cursor::new(buf), Some(40)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn edge_list_infers_vertex_count() {
        let g =
            parse_edge_list(Cursor::new("# comment\n0 3\n% other comment\n1 2\n"), None).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_empty_input() {
        let g = parse_edge_list(Cursor::new(""), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn load_instance_tells_specs_from_files() {
        let spec = "gnp:20:0.3@4";
        assert_eq!(
            load_instance(spec, None),
            Ok(crate::gen::spec::parse(spec).unwrap().unwrap())
        );
        assert!(matches!(
            load_instance("gnp:20:2", Some(Format::Dimacs)),
            Err(LoadError::Spec(m)) if m.contains("p must be in [0, 1]")
        ));

        let g = crate::gen::gnp(12, 0.3, 2);
        let dir = std::env::temp_dir();
        let stem = format!("parvc-load-{}", std::process::id());
        let dimacs = dir.join(format!("{stem}.clq"));
        let mut text = Vec::new();
        write_dimacs(&g, "edge", &mut text).unwrap();
        std::fs::write(&dimacs, &text).unwrap();
        let dimacs = dimacs.to_str().unwrap();
        assert_eq!(load_instance(dimacs, None), Ok(g.clone()));
        assert_eq!(load_instance(dimacs, Some(Format::Dimacs)), Ok(g.clone()));
        let forced = load_instance(dimacs, Some(Format::EdgeList));
        assert!(matches!(forced, Err(LoadError::File(m)) if m.starts_with("cannot parse")));

        let edges = dir.join(format!("{stem}.txt"));
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        std::fs::write(&edges, &text).unwrap();
        let loaded = load_instance(edges.to_str().unwrap(), None).unwrap();
        assert_eq!(
            loaded.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );

        let missing = dir.join(format!("{stem}-missing.dimacs"));
        let missing = load_instance(missing.to_str().unwrap(), None);
        assert!(matches!(missing, Err(LoadError::File(m)) if m.starts_with("cannot open")));
        for path in [dimacs, edges.to_str().unwrap()] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn formats_parse_and_follow_the_extension() {
        assert_eq!(Format::parse("dimacs"), Ok(Format::Dimacs));
        assert_eq!(Format::parse("edgelist"), Ok(Format::EdgeList));
        assert!(Format::parse("bogus")
            .unwrap_err()
            .contains("dimacs|edgelist"));
        for (path, format) in [
            ("a.dimacs", Format::Dimacs),
            ("a.clq", Format::Dimacs),
            ("a.col", Format::Dimacs),
            ("a.txt", Format::EdgeList),
            ("a", Format::EdgeList),
        ] {
            assert_eq!(Format::of_path(path), format, "{path}");
        }
    }

    #[test]
    fn edge_list_isolated_tail_vertices() {
        let g = parse_edge_list(Cursor::new("0 1\n"), Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }
}
