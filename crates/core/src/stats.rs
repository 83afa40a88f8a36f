//! Solve statistics: everything the evaluation harness reports.

use std::time::Duration;

use parvc_simgpu::counters::LaunchReport;
use parvc_simgpu::{DeviceSpec, LaunchConfig};

/// Statistics attached to every solve result.
#[derive(Debug)]
pub struct SolveStats {
    /// End-to-end wall time, including the greedy approximation and
    /// (for the parallel algorithms) the launch.
    pub wall_time: Duration,
    /// Total search-tree nodes visited (including StackOnly's redundant
    /// descent revisits).
    pub tree_nodes: u64,
    /// Simulated device time: the busiest SM's model-cycle total.
    pub device_cycles: u64,
    /// The launch configuration (None for Sequential).
    pub launch: Option<LaunchConfig>,
    /// Per-block / per-SM instrumentation for Figures 5 and 6.
    pub report: LaunchReport,
    /// Size of the greedy approximation that seeded the search (for
    /// preprocessed solves: forced vertices plus per-component seeds).
    /// A PVC search has no seed and adds nothing.
    pub greedy_size: u32,
    /// Whether the solve hit its wall-clock deadline; if so, MVC results
    /// are best-so-far (not proven optimal) and PVC results are
    /// inconclusive when `cover` is `None`.
    pub timed_out: bool,
    /// Kernelization statistics, when the solver ran with
    /// [`SolverBuilder::preprocess`](crate::SolverBuilder::preprocess).
    pub prep: Option<parvc_prep::PrepStats>,
    /// Structured telemetry (wall-clock spans, bridged model-cycle
    /// spans, and the metrics registry), when the solver ran with
    /// [`SolverBuilder::telemetry`](crate::SolverBuilder::telemetry).
    /// Export it with [`TelemetrySnapshot::chrome_trace`] /
    /// [`TelemetrySnapshot::metrics_json`] /
    /// [`TelemetrySnapshot::metrics_table`].
    ///
    /// [`TelemetrySnapshot::chrome_trace`]: parvc_obs::TelemetrySnapshot::chrome_trace
    /// [`TelemetrySnapshot::metrics_json`]: parvc_obs::TelemetrySnapshot::metrics_json
    /// [`TelemetrySnapshot::metrics_table`]: parvc_obs::TelemetrySnapshot::metrics_table
    pub telemetry: Option<parvc_obs::TelemetrySnapshot>,
}

impl SolveStats {
    /// The stats of a solve whose searches `report` lays out; the
    /// tree-node and device-cycle totals are read off the report.
    pub(crate) fn new(
        wall_time: Duration,
        launch: Option<LaunchConfig>,
        report: LaunchReport,
        greedy_size: u32,
        timed_out: bool,
        prep: Option<parvc_prep::PrepStats>,
    ) -> Self {
        SolveStats {
            wall_time,
            tree_nodes: report.total_tree_nodes,
            device_cycles: report.device_cycles,
            launch,
            report,
            greedy_size,
            timed_out,
            prep,
            telemetry: None,
        }
    }

    /// The stats of a result no search produced: no time, no blocks,
    /// no seed, no prep.
    pub fn empty() -> Self {
        let report = LaunchReport::new(&DeviceSpec::scaled(1), Vec::new());
        Self::new(Duration::ZERO, None, report, 0, false, None)
    }

    /// Wall time in seconds, as the paper's tables report.
    pub fn seconds(&self) -> f64 {
        self.wall_time.as_secs_f64()
    }
}

/// Result of a minimum-vertex-cover solve (cardinality or weighted —
/// see [`SolverBuilder::weighted`](crate::SolverBuilder::weighted)).
#[derive(Debug)]
pub struct MvcResult {
    /// Number of vertices in `cover`. For cardinality solves this is
    /// the minimized objective; for weighted solves it is merely the
    /// witness's size ([`weight`](Self::weight) is the objective).
    pub size: u32,
    /// Total weight of `cover` under the graph's weight channel (equal
    /// to `size` on unweighted graphs). For weighted solves this is
    /// the minimized objective.
    pub weight: u64,
    /// The optimal cover (minimum cardinality, or minimum weight for
    /// weighted solves).
    pub cover: Vec<u32>,
    /// Instrumentation.
    pub stats: SolveStats,
}

/// Result of a parameterized-vertex-cover solve.
#[derive(Debug)]
pub struct PvcResult {
    /// The parameter the solve ran with.
    pub k: u32,
    /// A cover of size ≤ k, or `None` if none exists.
    pub cover: Option<Vec<u32>>,
    /// Instrumentation.
    pub stats: SolveStats,
}

impl PvcResult {
    /// Whether a cover of size ≤ k was found.
    pub fn found(&self) -> bool {
        self.cover.is_some()
    }
}

/// Result of a maximum-independent-set solve (see [`crate::mis`]).
#[derive(Debug)]
pub struct MisResult {
    /// Maximum independent set size (`|V| − MVC`).
    pub size: u32,
    /// A maximum independent set.
    pub set: Vec<u32>,
    /// Instrumentation from the underlying MVC solve.
    pub stats: SolveStats,
}
