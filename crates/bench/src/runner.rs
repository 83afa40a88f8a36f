//! Shared execution machinery for the table/figure binaries.

use std::time::Duration;

use parvc_core::{Algorithm, Extensions, MvcResult, PvcResult, Solver, SolverBuilder};
use parvc_simgpu::DeviceSpec;

use crate::cli::BenchArgs;
use crate::suite::Instance;

/// The four problem instances of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Minimum vertex cover.
    Mvc,
    /// PVC with k = min − 1 (exhaustive, infeasible).
    PvcMinMinus1,
    /// PVC with k = min (feasible, stops at first solution).
    PvcMin,
    /// PVC with k = min + 1 (easier feasible).
    PvcMinPlus1,
}

impl Problem {
    /// All four, in Table I's column order.
    pub const ALL: [Problem; 4] = [
        Problem::Mvc,
        Problem::PvcMinMinus1,
        Problem::PvcMin,
        Problem::PvcMinPlus1,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Problem::Mvc => "MVC",
            Problem::PvcMinMinus1 => "PVC k=min-1",
            Problem::PvcMin => "PVC k=min",
            Problem::PvcMinPlus1 => "PVC k=min+1",
        }
    }

    /// The k for this PVC variant given `min` (None for MVC).
    pub fn k(self, min: u32) -> Option<u32> {
        match self {
            Problem::Mvc => None,
            Problem::PvcMinMinus1 => Some(min.saturating_sub(1)),
            Problem::PvcMin => Some(min),
            Problem::PvcMinPlus1 => Some(min + 1),
        }
    }

    /// Whether this is one of the paper's "difficult instances with
    /// long run-times" (MVC and PVC k=min−1 search exhaustively).
    pub fn is_difficult(self) -> bool {
        matches!(self, Problem::Mvc | Problem::PvcMinMinus1)
    }
}

/// The classic table columns: Table I's three code versions of §V-A,
/// then the work-stealing extension. StackOnly runs at the harness's
/// `--depth`.
pub const COLUMNS: [Algorithm; 4] = [
    Algorithm::Sequential,
    Algorithm::StackOnly { start_depth: 8 },
    Algorithm::Hybrid,
    Algorithm::WorkStealing,
];

/// One measured cell of Table I.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Whether the per-solve budget expired.
    pub timed_out: bool,
    /// Tree nodes visited.
    pub tree_nodes: u64,
    /// Simulated device cycles (busiest SM).
    pub device_cycles: u64,
}

/// A solver builder for one policy under the harness settings, with
/// StackOnly at `--depth`. It pins [`Extensions::NONE`], the
/// paper's bounds alone, so the reproduced tables and figures stay
/// comparable with the paper.
pub(crate) fn builder(
    algorithm: Algorithm,
    args: &BenchArgs,
    deadline: Option<Duration>,
) -> SolverBuilder {
    let algorithm = match algorithm {
        Algorithm::StackOnly { .. } => Algorithm::StackOnly {
            start_depth: args.start_depth,
        },
        other => other,
    };
    Solver::builder()
        .algorithm(algorithm)
        .device(DeviceSpec::scaled(args.sms))
        .grid_limit(Some(args.grid))
        .deadline(deadline)
        .executor(args.exec)
        .extensions(Extensions::NONE)
}

/// Builds a solver for one policy under the harness settings, with
/// the paper's bounds alone.
pub fn make_solver(algorithm: Algorithm, args: &BenchArgs, deadline: Option<Duration>) -> Solver {
    builder(algorithm, args, deadline).build()
}

/// Establishes `min` (the exact MVC size) for an instance, used to set
/// the PVC parameters. Runs Hybrid under the (generous) `--min-budget`;
/// returns `None` if even that times out — the paper's vc-exact rows,
/// where min came from the PACE organizers instead.
pub fn compute_min(inst: &Instance, args: &BenchArgs) -> Option<u32> {
    let solver = make_solver(Algorithm::Hybrid, args, Some(args.min_budget));
    let r = solver.solve_mvc(&inst.graph);
    (!r.stats.timed_out).then_some(r.size)
}

/// Runs one (instance, problem, policy) cell.
///
/// `min` must be `Some` for the PVC problems; MVC cells ignore it.
pub fn run_cell(
    inst: &Instance,
    problem: Problem,
    algorithm: Algorithm,
    min: Option<u32>,
    args: &BenchArgs,
) -> Cell {
    let solver = make_solver(algorithm, args, Some(args.deadline));
    match problem.k(min.unwrap_or(0)) {
        None => cell_from_mvc(solver.solve_mvc(&inst.graph)),
        Some(k) => cell_from_pvc(solver.solve_pvc(&inst.graph, k)),
    }
}

fn cell_from_mvc(r: MvcResult) -> Cell {
    Cell {
        seconds: r.stats.seconds(),
        timed_out: r.stats.timed_out,
        tree_nodes: r.stats.tree_nodes,
        device_cycles: r.stats.device_cycles,
    }
}

fn cell_from_pvc(r: PvcResult) -> Cell {
    Cell {
        seconds: r.stats.seconds(),
        timed_out: r.stats.timed_out,
        tree_nodes: r.stats.tree_nodes,
        device_cycles: r.stats.device_cycles,
    }
}

/// All of Table I's measurements for one instance.
pub struct InstanceRow {
    /// The instance.
    pub min: Option<u32>,
    /// `cells[problem][column]`, in [`Problem::ALL`] and [`COLUMNS`]
    /// order.
    pub cells: Vec<Vec<Cell>>,
}

/// Runs the full problem × column grid for one instance.
pub fn run_instance(inst: &Instance, args: &BenchArgs) -> InstanceRow {
    let min = compute_min(inst, args);
    let cells = Problem::ALL
        .iter()
        .map(|&p| {
            COLUMNS
                .iter()
                .map(|&algorithm| {
                    if p != Problem::Mvc && min.is_none() {
                        // No exact min available: PVC variants are
                        // undefined — report the budget as spent.
                        Cell {
                            seconds: args.deadline.as_secs_f64(),
                            timed_out: true,
                            tree_nodes: 0,
                            device_cycles: 0,
                        }
                    } else {
                        run_cell(inst, p, algorithm, min, args)
                    }
                })
                .collect()
        })
        .collect();
    InstanceRow { min, cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{suite, Scale};

    fn quick_args() -> BenchArgs {
        BenchArgs {
            deadline: Duration::from_secs(3),
            min_budget: Duration::from_secs(10),
            grid: 4,
            sms: 2,
            start_depth: 4,
            ..BenchArgs::default()
        }
    }

    #[test]
    fn problems_map_k_correctly() {
        assert_eq!(Problem::Mvc.k(7), None);
        assert_eq!(Problem::PvcMinMinus1.k(7), Some(6));
        assert_eq!(Problem::PvcMin.k(7), Some(7));
        assert_eq!(Problem::PvcMinPlus1.k(7), Some(8));
        assert_eq!(Problem::PvcMinMinus1.k(0), Some(0));
    }

    #[test]
    fn one_small_instance_full_grid() {
        let args = quick_args();
        let inst = &suite(Scale::Small)[2]; // p_hat_60_3: lightest p_hat
        let row = run_instance(inst, &args);
        let min = row.min.expect("p_hat_60_3 must solve within budget");
        assert!(min > 0);
        // All three implementations agree on feasibility per problem.
        for (pi, p) in Problem::ALL.iter().enumerate() {
            for cell in &row.cells[pi] {
                assert!(cell.seconds >= 0.0);
                if !p.is_difficult() {
                    assert!(!cell.timed_out, "{} should be easy", p.label());
                }
            }
        }
    }
}
