//! A PACE-challenge-style exact vertex cover solver driver.
//!
//! Reads a DIMACS-format graph from a file (or generates a PACE-like
//! instance when no path is given), solves MVC exactly with the Hybrid
//! scheme under a time budget, and prints the solution in the PACE
//! output convention (size, then one vertex per line, 1-based).
//!
//! ```text
//! cargo run --release --example pace_solver -- [graph.dimacs] [budget-secs]
//! ```

use std::time::Duration;

use parvc::graph::{gen, io};
use parvc::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next();
    let budget = args
        .next()
        .map(|s| s.parse::<f64>().expect("budget must be seconds"))
        .unwrap_or(30.0);

    let graph = match &path {
        Some(p) => io::load_instance(p, Some(io::Format::Dimacs)).unwrap_or_else(|e| panic!("{e}")),
        None => {
            eprintln!("no input file; generating a PACE-2019-style instance");
            gen::pace_like(160, 7, 4)
        }
    };
    eprintln!(
        "c instance: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let solver = Solver::builder()
        .algorithm(Algorithm::Hybrid)
        .grid_limit(Some(16))
        .deadline(Some(Duration::from_secs_f64(budget)))
        .build();

    let result = solver.solve_mvc(&graph);
    assert!(
        is_vertex_cover(&graph, &result.cover),
        "solver returned a non-cover"
    );

    // PACE output format: `s vc <n> <size>`, then the cover, 1-based.
    if result.stats.timed_out {
        eprintln!(
            "c budget of {budget}s exhausted — best cover found has size {} (not proven optimal)",
            result.size
        );
    } else {
        eprintln!(
            "c optimum proven in {:.2}s ({} tree nodes)",
            result.stats.seconds(),
            result.stats.tree_nodes
        );
    }
    println!("s vc {} {}", graph.num_vertices(), result.size);
    let mut out = String::new();
    for v in &result.cover {
        out.push_str(&(v + 1).to_string());
        out.push('\n');
    }
    print!("{out}");
}
