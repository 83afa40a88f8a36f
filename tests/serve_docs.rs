//! Pins `docs/serve.md` against the protocol implementation, the same
//! way `docs/cli.md` is pinned against the CLI help: the verb table is
//! generated from `parvc_serve::proto::VERBS` and must appear in the
//! doc verbatim, so the protocol reference cannot drift from the code.

use std::path::Path;

fn serve_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/serve.md");
    std::fs::read_to_string(&path).expect("docs/serve.md must exist (the protocol reference)")
}

#[test]
fn verb_table_is_current() {
    let doc = serve_doc();
    let table = parvc::serve::verb_table_markdown();
    assert!(
        doc.contains(&table),
        "docs/serve.md is stale — its verb table must contain, verbatim, \
         the output of parvc_serve::proto::verb_table_markdown():\n{table}"
    );
}

#[test]
fn every_verb_has_a_reference_section() {
    let doc = serve_doc();
    for v in parvc::serve::VERBS {
        assert!(
            doc.contains(&format!("### `{}", v.name)),
            "docs/serve.md: verb {} has no reference section",
            v.name
        );
    }
}

#[test]
fn doc_examples_parse_as_requests() {
    // The concrete request lines the docs and README show must stay
    // parseable — a grammar change that breaks them must update the
    // prose too.
    for line in [
        "LOAD a gnp:200:0.05@7",
        "SOLVE a",
        "SOLVE a --weighted",
        "SOLVE a --k 230",
        "SOLVE a --deadline 2.5 --no-cache",
        "SOLVE a --approx",
        "RESOLVE a --edits gen:12:0.5@7",
        "RESOLVE a --edits +e:0:5;-v:3 --weighted",
        "STATS",
        "EVICT a",
        "EVICT --cache",
    ] {
        let parsed = parvc::serve::parse_request(line)
            .unwrap_or_else(|e| panic!("documented request '{line}' no longer parses: {e}"));
        assert!(
            parsed.is_some(),
            "documented request '{line}' parsed to a comment"
        );
    }
}
