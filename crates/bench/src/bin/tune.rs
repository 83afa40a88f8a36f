//! Maintenance tool: sweep generator parameters to locate instances in
//! the hardness bands the paper's Table I exhibits (trivial / medium /
//! hybrid-only / infeasible).

use parvc_bench::cli::BenchArgs;
use parvc_bench::format::{fmt_seconds, Table};
use parvc_bench::runner::make_solver;
use parvc_core::Algorithm;
use parvc_graph::{gen, CsrGraph};

fn main() {
    let args = BenchArgs::parse();
    let candidates: Vec<(String, CsrGraph)> = vec![
        (
            "phat_100_3".into(),
            gen::p_hat_complement(100, 3, 0x9a1 + 1003),
        ),
        ("ba_130_12".into(), gen::barabasi_albert(130, 12, 2)),
        ("ba_150_12".into(), gen::barabasi_albert(150, 12, 2)),
        ("ba_160_14".into(), gen::barabasi_albert(160, 14, 2)),
        ("ba_120_11".into(), gen::barabasi_albert(120, 11, 2)),
        ("pace_160_7".into(), gen::pace_like(160, 7, 4)),
        ("pace_170_7".into(), gen::pace_like(170, 7, 4)),
        ("pace_180_7".into(), gen::pace_like(180, 7, 4)),
        ("pace_190_8".into(), gen::pace_like(190, 8, 4)),
        (
            "comp_260_22".into(),
            gen::sparse_components(260, 22, 0.32, 7),
        ),
        (
            "comp_280_20".into(),
            gen::sparse_components(280, 20, 0.30, 7),
        ),
        ("ws_250_4_.1".into(), gen::watts_strogatz(250, 4, 0.1, 6)),
        ("ws_350_4_.15".into(), gen::watts_strogatz(350, 4, 0.15, 6)),
    ];

    let mut table = Table::new(vec![
        "candidate",
        "|V|",
        "|E|/|V|",
        "seq",
        "stack",
        "hyb",
        "nodes(hyb)",
        "min(long)",
    ]);
    for (name, g) in candidates {
        let hy = make_solver(Algorithm::Hybrid, &args, Some(args.deadline)).solve_mvc(&g);
        let sq = make_solver(Algorithm::Sequential, &args, Some(args.deadline)).solve_mvc(&g);
        let so = make_solver(
            Algorithm::StackOnly {
                start_depth: args.start_depth,
            },
            &args,
            Some(args.deadline),
        )
        .solve_mvc(&g);
        let long = make_solver(Algorithm::Hybrid, &args, Some(args.min_budget)).solve_mvc(&g);
        table.row(vec![
            name,
            g.num_vertices().to_string(),
            format!("{:.2}", g.num_edges() as f64 / g.num_vertices() as f64),
            fmt_seconds(sq.stats.seconds(), sq.stats.timed_out),
            fmt_seconds(so.stats.seconds(), so.stats.timed_out),
            fmt_seconds(hy.stats.seconds(), hy.stats.timed_out),
            hy.stats.tree_nodes.to_string(),
            if long.stats.timed_out {
                format!("≥{} (long)", long.size)
            } else {
                format!(
                    "{} @{}",
                    long.size,
                    fmt_seconds(long.stats.seconds(), false)
                )
            },
        ]);
    }
    table.print();
}
