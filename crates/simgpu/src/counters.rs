//! Per-activity cycle counters and per-SM load aggregation.
//!
//! The paper instruments its kernels with SM clocks to attribute cycles
//! to eleven activities (Figure 6) and counts tree nodes visited per SM
//! to measure load balance (Figure 5). This module is that
//! instrumentation: each block owns a [`BlockCounters`] (no atomics —
//! merged after the launch), and [`LaunchReport`] reproduces both
//! aggregations.

use crate::DeviceSpec;

/// The activities the paper's Figure 6 breaks kernel time into, plus an
/// explicit idle bucket for starvation waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Activity {
    /// Adding a donated tree node to the global worklist.
    AddToWorklist = 0,
    /// Removing a tree node from the global worklist (includes
    /// contention and waiting — the paper's biggest distribution cost).
    RemoveFromWorklist,
    /// Pushing a tree node to the per-block local stack.
    PushToStack,
    /// Popping a tree node from the per-block local stack.
    PopFromStack,
    /// Termination detection (the §IV-C empty-worklist protocol).
    Terminate,
    /// The degree-one reduction rule.
    DegreeOneRule,
    /// The degree-two-triangle reduction rule.
    DegreeTwoTriangleRule,
    /// The high-degree reduction rule.
    HighDegreeRule,
    /// Finding the maximum-degree vertex (parallel reduction tree).
    FindMaxDegree,
    /// Removing the max-degree vertex (right branch of Figure 4).
    RemoveMaxVertex,
    /// Removing all neighbors of the max-degree vertex (left branch).
    RemoveNeighbors,
    /// In-search component branching: the residual-connectivity check
    /// and, when it fires, extracting the per-component sub-instances
    /// (beyond the paper — see `parvc_core::split`).
    ComponentSplit,
    /// The approximate tier's round-matching passes: per-round pick /
    /// handshake scans and the compressed serial tail (see
    /// `parvc_core::approx`).
    ApproxMatching,
}

impl Activity {
    /// All activities: Figure 6's eleven in presentation order, plus
    /// the component-split and approximate-tier extensions.
    pub const ALL: [Activity; 13] = [
        Activity::AddToWorklist,
        Activity::RemoveFromWorklist,
        Activity::PushToStack,
        Activity::PopFromStack,
        Activity::Terminate,
        Activity::DegreeOneRule,
        Activity::DegreeTwoTriangleRule,
        Activity::HighDegreeRule,
        Activity::FindMaxDegree,
        Activity::RemoveMaxVertex,
        Activity::RemoveNeighbors,
        Activity::ComponentSplit,
        Activity::ApproxMatching,
    ];

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Activity::AddToWorklist => "Add to worklist",
            Activity::RemoveFromWorklist => "Remove from worklist",
            Activity::PushToStack => "Push to stack",
            Activity::PopFromStack => "Pop from stack",
            Activity::Terminate => "Terminate",
            Activity::DegreeOneRule => "Degree-one rule",
            Activity::DegreeTwoTriangleRule => "Degree-two-triangle rule",
            Activity::HighDegreeRule => "High-degree rule",
            Activity::FindMaxDegree => "Find max degree vertex",
            Activity::RemoveMaxVertex => "Remove max-degree vertex",
            Activity::RemoveNeighbors => "Remove neighbors of max-degree vertex",
            Activity::ComponentSplit => "Component split check/extract",
            Activity::ApproxMatching => "Approx matching rounds",
        }
    }

    /// The paper groups the eleven activities into three families.
    pub fn family(self) -> ActivityFamily {
        match self {
            Activity::AddToWorklist
            | Activity::RemoveFromWorklist
            | Activity::PushToStack
            | Activity::PopFromStack
            | Activity::Terminate
            | Activity::ComponentSplit
            | Activity::ApproxMatching => ActivityFamily::WorkDistribution,
            Activity::DegreeOneRule
            | Activity::DegreeTwoTriangleRule
            | Activity::HighDegreeRule => ActivityFamily::Reducing,
            Activity::FindMaxDegree | Activity::RemoveMaxVertex | Activity::RemoveNeighbors => {
                ActivityFamily::Branching
            }
        }
    }
}

/// Figure 6's three activity groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityFamily {
    /// Work distribution and load balancing.
    WorkDistribution,
    /// Applying the reduction rules.
    Reducing,
    /// Branching (find max, remove vertex / neighborhood).
    Branching,
}

impl ActivityFamily {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            ActivityFamily::WorkDistribution => "Work distribution and load balancing",
            ActivityFamily::Reducing => "Reducing",
            ActivityFamily::Branching => "Branching",
        }
    }
}

/// In-search component-branching instrumentation: how often the
/// residual-connectivity check ran, how often it actually split a tree
/// node, and the size distribution of the components produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitCounters {
    /// Connectivity checks run (the trigger condition passed).
    pub checks: u64,
    /// Checks that found ≥ 2 components and split the node.
    pub taken: u64,
    /// Total components produced across all splits taken.
    pub components: u64,
    /// Units of work the union-find connectivity tracker performed
    /// across all checks: vertex-array reads plus adjacency entries
    /// traversed — the `components` bench's split-cost column.
    pub check_work: u64,
    /// Full label rebuilds the union-find tracker performed (the
    /// dirty-region fallback when a stack pop / steal jumps to a node
    /// that is not a descendant of the last-checked one).
    pub uf_rebuilds: u64,
    /// Component-size histogram, bucketed by `log2(|V|)`:
    /// `1, 2–3, 4–7, …, 128+` vertices.
    pub size_hist: [u64; Self::HIST_BUCKETS],
}

impl SplitCounters {
    /// Number of histogram buckets.
    pub const HIST_BUCKETS: usize = 8;

    /// Human label of histogram bucket `i`.
    pub fn bucket_label(i: usize) -> &'static str {
        [
            "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
        ][i.min(7)]
    }

    /// Records one taken split over components of the given sizes.
    pub fn record_split(&mut self, sizes: impl IntoIterator<Item = u32>) {
        self.taken += 1;
        for s in sizes {
            self.components += 1;
            let bucket = (32 - (s.max(1)).leading_zeros() as usize - 1).min(Self::HIST_BUCKETS - 1);
            self.size_hist[bucket] += 1;
        }
    }

    /// Accumulates `other` into `self` (cross-block aggregation).
    pub fn merge(&mut self, other: &SplitCounters) {
        self.checks += other.checks;
        self.taken += other.taken;
        self.components += other.components;
        self.check_work += other.check_work;
        self.uf_rebuilds += other.uf_rebuilds;
        for (a, b) in self.size_hist.iter_mut().zip(other.size_hist) {
            *a += b;
        }
    }
}

/// One contiguous charge to an activity, on the block's model-cycle
/// clock — recorded only when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The activity charged.
    pub activity: Activity,
    /// Block-local cycle at which the span starts.
    pub start_cycle: u64,
    /// Length in model cycles.
    pub cycles: u64,
}

/// Hard cap on a block's span log. Tracing pushes ~24 bytes per
/// charge, and a long solve charges billions of times — without a cap
/// the log (not the search) becomes the memory bound. The prefix is
/// kept (enough for [`crate::trace::render_launch`] and the
/// Chrome-trace model lane) and everything past it is counted in
/// [`BlockCounters::trace_dropped`].
pub const MODEL_TRACE_CAP: usize = 1 << 14;

/// Per-block instrumentation, owned exclusively by the block's thread.
#[derive(Debug, Clone)]
pub struct BlockCounters {
    /// Which block these counters belong to.
    pub block_id: u32,
    /// Model cycles per activity, indexed by `Activity as usize`.
    cycles: [u64; Activity::ALL.len()],
    /// Span log, populated when tracing is enabled (prefix only, up to
    /// [`MODEL_TRACE_CAP`] spans).
    trace: Option<Vec<Span>>,
    /// Spans dropped once the log hit [`MODEL_TRACE_CAP`].
    pub trace_dropped: u64,
    /// Tree nodes this block visited (the Figure 5 load metric).
    pub tree_nodes_visited: u64,
    /// Nodes this block donated to the global worklist.
    pub nodes_donated: u64,
    /// Nodes this block obtained from the global worklist.
    pub nodes_from_worklist: u64,
    /// Donations bounced because the worklist was full.
    pub donations_bounced: u64,
    /// Deepest local-stack depth observed.
    pub max_stack_depth: u64,
    /// For steal-based policies: successful steals by this block,
    /// keyed by the victim block id (the Figure-5-style locality
    /// breakdown; empty for non-stealing policies).
    pub steals_by_victim: std::collections::BTreeMap<u32, u64>,
    /// In-search component-branching activity (all zero unless the
    /// solve ran with component branching enabled).
    pub splits: SplitCounters,
}

impl BlockCounters {
    /// Fresh counters for `block_id`.
    pub fn new(block_id: u32) -> Self {
        BlockCounters {
            block_id,
            cycles: [0; Activity::ALL.len()],
            trace: None,
            trace_dropped: 0,
            tree_nodes_visited: 0,
            nodes_donated: 0,
            nodes_from_worklist: 0,
            donations_bounced: 0,
            max_stack_depth: 0,
            steals_by_victim: std::collections::BTreeMap::new(),
            splits: SplitCounters::default(),
        }
    }

    /// Records one successful steal from `victim`'s deque.
    pub fn record_steal(&mut self, victim: u32) {
        *self.steals_by_victim.entry(victim).or_insert(0) += 1;
    }

    /// Starts recording a [`Span`] per charge (timeline tracing).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded span log, if tracing was enabled.
    pub fn trace(&self) -> Option<&[Span]> {
        self.trace.as_deref()
    }

    /// Charges `cycles` to `activity`.
    #[inline]
    pub fn charge(&mut self, activity: Activity, cycles: u64) {
        if let Some(trace) = &mut self.trace {
            if cycles > 0 {
                if trace.len() < MODEL_TRACE_CAP {
                    let start_cycle = self.cycles.iter().sum();
                    trace.push(Span {
                        activity,
                        start_cycle,
                        cycles,
                    });
                } else {
                    self.trace_dropped += 1;
                }
            }
        }
        self.cycles[activity as usize] += cycles;
    }

    /// Cycles charged to `activity` so far.
    pub fn cycles(&self, activity: Activity) -> u64 {
        self.cycles[activity as usize]
    }

    /// Total cycles across all activities.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Per-SM load distribution — Figure 5's data.
#[derive(Debug, Clone, PartialEq)]
pub struct SmLoad {
    /// Tree nodes visited per SM.
    pub nodes_per_sm: Vec<u64>,
    /// Each SM's load normalized to the mean (Figure 5's y-axis).
    pub normalized: Vec<f64>,
}

impl SmLoad {
    /// Aggregates block counters onto their SMs.
    pub fn from_blocks(device: &DeviceSpec, blocks: &[BlockCounters]) -> Self {
        let mut nodes_per_sm = vec![0u64; device.num_sms as usize];
        for b in blocks {
            nodes_per_sm[device.sm_of_block(b.block_id) as usize] += b.tree_nodes_visited;
        }
        let mean = nodes_per_sm.iter().sum::<u64>() as f64 / nodes_per_sm.len().max(1) as f64;
        let normalized = if mean > 0.0 {
            nodes_per_sm.iter().map(|&n| n as f64 / mean).collect()
        } else {
            vec![0.0; nodes_per_sm.len()]
        };
        SmLoad {
            nodes_per_sm,
            normalized,
        }
    }

    /// Smallest normalized SM load (Figure 5's whisker bottom).
    pub fn min(&self) -> f64 {
        self.normalized
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest normalized SM load (the overloaded-SM spike the paper
    /// reports as 63.98× for StackOnly on p_hat1000-1).
    pub fn max(&self) -> f64 {
        self.normalized.iter().copied().fold(0.0, f64::max)
    }

    /// Quantile of the normalized loads (q in \[0,1\], nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.normalized.is_empty() {
            return 0.0;
        }
        let mut sorted = self.normalized.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// Coefficient of variation of per-SM loads — a single imbalance
    /// score (0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let n = self.normalized.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.normalized.iter().sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .normalized
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Merged view of one kernel launch: the inputs for Figures 5 and 6 and
/// the simulated device time.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Every block's counters.
    pub blocks: Vec<BlockCounters>,
    /// Per-SM load aggregation.
    pub sm_load: SmLoad,
    /// Simulated device time: the busiest SM's total cycles (SMs run
    /// concurrently; the slowest one finishes last).
    pub device_cycles: u64,
    /// Total tree nodes visited across all blocks.
    pub total_tree_nodes: u64,
}

impl LaunchReport {
    /// Builds the report from per-block counters.
    pub fn new(device: &DeviceSpec, blocks: Vec<BlockCounters>) -> Self {
        let sm_load = SmLoad::from_blocks(device, &blocks);
        let mut cycles_per_sm = vec![0u64; device.num_sms as usize];
        for b in &blocks {
            cycles_per_sm[device.sm_of_block(b.block_id) as usize] += b.total_cycles();
        }
        let device_cycles = cycles_per_sm.iter().copied().max().unwrap_or(0);
        let total_tree_nodes = blocks.iter().map(|b| b.tree_nodes_visited).sum();
        LaunchReport {
            blocks,
            sm_load,
            device_cycles,
            total_tree_nodes,
        }
    }

    /// Component-branching counters summed across every block of the
    /// launch (all zero unless the solve ran with splitting enabled).
    pub fn split_totals(&self) -> SplitCounters {
        let mut total = SplitCounters::default();
        for b in &self.blocks {
            total.merge(&b.splits);
        }
        total
    }

    /// Figure 6's metric: per-activity share of block time, normalized
    /// *per block* then averaged across blocks ("we normalize the cycle
    /// counts to the total number of cycles executed by the thread block
    /// and take the mean across all thread blocks").
    pub fn activity_breakdown(&self) -> Vec<(Activity, f64)> {
        let mut shares = vec![0.0f64; Activity::ALL.len()];
        let mut counted = 0usize;
        for b in &self.blocks {
            let total = b.total_cycles();
            if total == 0 {
                continue;
            }
            counted += 1;
            for &a in &Activity::ALL {
                shares[a as usize] += b.cycles(a) as f64 / total as f64;
            }
        }
        if counted > 0 {
            for s in &mut shares {
                *s /= counted as f64;
            }
        }
        Activity::ALL
            .iter()
            .map(|&a| (a, shares[a as usize]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: u32, nodes: u64, cycles: &[(Activity, u64)]) -> BlockCounters {
        let mut b = BlockCounters::new(id);
        b.tree_nodes_visited = nodes;
        for &(a, c) in cycles {
            b.charge(a, c);
        }
        b
    }

    #[test]
    fn charge_accumulates() {
        let mut b = BlockCounters::new(0);
        b.charge(Activity::DegreeOneRule, 10);
        b.charge(Activity::DegreeOneRule, 5);
        assert_eq!(b.cycles(Activity::DegreeOneRule), 15);
        assert_eq!(b.total_cycles(), 15);
    }

    #[test]
    fn sm_load_normalization() {
        let d = DeviceSpec::scaled(2);
        // Blocks 0,2 → SM0 (30 nodes); blocks 1,3 → SM1 (10 nodes).
        let blocks = vec![
            block(0, 20, &[]),
            block(1, 5, &[]),
            block(2, 10, &[]),
            block(3, 5, &[]),
        ];
        let load = SmLoad::from_blocks(&d, &blocks);
        assert_eq!(load.nodes_per_sm, vec![30, 10]);
        assert!((load.normalized[0] - 1.5).abs() < 1e-12);
        assert!((load.normalized[1] - 0.5).abs() < 1e-12);
        assert!((load.max() - 1.5).abs() < 1e-12);
        assert!(load.imbalance() > 0.0);
    }

    #[test]
    fn perfectly_balanced_has_zero_imbalance() {
        let d = DeviceSpec::scaled(4);
        let blocks: Vec<_> = (0..4).map(|i| block(i, 100, &[])).collect();
        let load = SmLoad::from_blocks(&d, &blocks);
        assert_eq!(load.imbalance(), 0.0);
        assert_eq!(load.min(), 1.0);
        assert_eq!(load.max(), 1.0);
    }

    #[test]
    fn device_cycles_is_busiest_sm() {
        let d = DeviceSpec::scaled(2);
        let blocks = vec![
            block(0, 1, &[(Activity::DegreeOneRule, 100)]),
            block(1, 1, &[(Activity::DegreeOneRule, 10)]),
            block(2, 1, &[(Activity::FindMaxDegree, 50)]), // SM0 again
        ];
        let report = LaunchReport::new(&d, blocks);
        assert_eq!(report.device_cycles, 150);
        assert_eq!(report.total_tree_nodes, 3);
    }

    #[test]
    fn breakdown_is_mean_of_per_block_shares() {
        let d = DeviceSpec::scaled(1);
        // Block A: 100% rule-1. Block B: 50% rule-1, 50% find-max.
        let blocks = vec![
            block(0, 1, &[(Activity::DegreeOneRule, 80)]),
            block(
                1,
                1,
                &[(Activity::DegreeOneRule, 10), (Activity::FindMaxDegree, 10)],
            ),
        ];
        let report = LaunchReport::new(&d, blocks);
        let shares = report.activity_breakdown();
        let get = |a: Activity| {
            shares
                .iter()
                .find(|(x, _)| *x == a)
                .expect("activity present")
                .1
        };
        assert!((get(Activity::DegreeOneRule) - 0.75).abs() < 1e-12);
        assert!((get(Activity::FindMaxDegree) - 0.25).abs() < 1e-12);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_cover_range() {
        let d = DeviceSpec::scaled(4);
        let blocks: Vec<_> = (0..4).map(|i| block(i, (i as u64 + 1) * 10, &[])).collect();
        let load = SmLoad::from_blocks(&d, &blocks);
        assert!(load.quantile(0.0) <= load.quantile(0.5));
        assert!(load.quantile(0.5) <= load.quantile(1.0));
    }

    #[test]
    fn families_partition_activities() {
        use ActivityFamily::*;
        let mut counts = [0; 3];
        for a in Activity::ALL {
            match a.family() {
                WorkDistribution => counts[0] += 1,
                Reducing => counts[1] += 1,
                Branching => counts[2] += 1,
            }
        }
        assert_eq!(counts, [7, 3, 3]);
    }
}
