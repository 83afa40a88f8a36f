//! Maintenance tool: probe the hardness of every suite instance.
//!
//! Prints per-instance exact MVC size and solve time per implementation
//! so the Small scale can be kept within a sane total budget.

use parvc_bench::cli::BenchArgs;
use parvc_bench::format::{fmt_seconds, Table};
use parvc_bench::runner::make_solver;
use parvc_bench::suite::suite;
use parvc_core::Algorithm;

fn main() {
    let args = BenchArgs::parse();
    let mut table = Table::new(vec![
        "graph",
        "|V|",
        "|E|",
        "|E|/|V|",
        "class",
        "greedy",
        "min",
        "seq MVC",
        "hyb MVC",
        "nodes(hyb)",
    ]);
    for inst in suite(args.scale) {
        let hybrid = make_solver(Algorithm::Hybrid, &args, Some(args.deadline));
        let hy = hybrid.solve_mvc(&inst.graph);
        let seq = make_solver(Algorithm::Sequential, &args, Some(args.deadline));
        let sq = seq.solve_mvc(&inst.graph);
        table.row(vec![
            inst.name.clone(),
            inst.graph.num_vertices().to_string(),
            inst.graph.num_edges().to_string(),
            format!("{:.2}", inst.ratio()),
            inst.class.to_string(),
            hy.stats.greedy_size.to_string(),
            if hy.stats.timed_out {
                format!(">{}", hy.size)
            } else {
                hy.size.to_string()
            },
            fmt_seconds(sq.stats.seconds(), sq.stats.timed_out),
            fmt_seconds(hy.stats.seconds(), hy.stats.timed_out),
            hy.stats.tree_nodes.to_string(),
        ]);
    }
    table.print();
}
