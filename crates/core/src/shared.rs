//! Cross-block shared solver state: the atomic `best` and the PVC
//! found-flag.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parvc_graph::VertexId;

use crate::TreeNode;

/// The global best solution for MVC: an atomic size (what the kernels
/// compare against, Figure 4 line 12/18) plus the witness cover guarded
/// by a lock (updated only on improvement, so contention is negligible).
pub struct GlobalBest {
    size: AtomicU32,
    witness: Mutex<(u32, Vec<VertexId>)>,
}

impl GlobalBest {
    /// Starts from the greedy approximation (Figure 1 line 1).
    pub fn new(size: u32, cover: Vec<VertexId>) -> Self {
        GlobalBest {
            size: AtomicU32::new(size),
            witness: Mutex::new((size, cover)),
        }
    }

    /// Current best size (a relaxed read, like a kernel load of the
    /// global; staleness only costs extra exploration, never
    /// correctness).
    pub fn load(&self) -> u32 {
        self.size.load(Ordering::Relaxed)
    }

    /// Records `node`'s cover if strictly better (Figure 4 line 18's
    /// atomic min). Returns whether this call improved the best.
    pub fn try_improve(&self, node: &TreeNode) -> bool {
        let new = node.cover_size();
        let mut cur = self.size.load(Ordering::Relaxed);
        loop {
            if new >= cur {
                return false;
            }
            match self
                .size
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut witness = self.witness.lock();
        if new < witness.0 {
            *witness = (new, node.cover_vertices());
        }
        true
    }

    /// Final answer: the smallest cover recorded.
    pub fn into_result(self) -> (u32, Vec<VertexId>) {
        self.witness.into_inner()
    }
}

/// The global best solution for **weighted** MVC: [`GlobalBest`] with
/// the atomic ordered on cover *weight* ([`TreeNode::cover_weight`])
/// instead of cover size. Kept as its own type so the unweighted hot
/// path stays a 32-bit atomic, exactly as the paper's kernels load it.
pub struct WeightedBest {
    weight: AtomicU64,
    witness: Mutex<(u64, Vec<VertexId>)>,
}

impl WeightedBest {
    /// Starts from the weighted greedy approximation.
    pub fn new(weight: u64, cover: Vec<VertexId>) -> Self {
        WeightedBest {
            weight: AtomicU64::new(weight),
            witness: Mutex::new((weight, cover)),
        }
    }

    /// Current best cover weight (relaxed read; staleness only costs
    /// extra exploration, never correctness).
    pub fn load(&self) -> u64 {
        self.weight.load(Ordering::Relaxed)
    }

    /// Records `node`'s cover if its weight is strictly better.
    /// Returns whether this call improved the best.
    pub fn try_improve(&self, node: &TreeNode) -> bool {
        let new = node.cover_weight();
        let mut cur = self.weight.load(Ordering::Relaxed);
        loop {
            if new >= cur {
                return false;
            }
            match self
                .weight
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut witness = self.witness.lock();
        if new < witness.0 {
            *witness = (new, node.cover_vertices());
        }
        true
    }

    /// Final answer: the lightest cover recorded.
    pub fn into_result(self) -> (u64, Vec<VertexId>) {
        self.witness.into_inner()
    }
}

/// The PVC early-exit flag (§IV-A): the first block to find a cover of
/// size ≤ k publishes it and every block drains out.
pub struct PvcFound {
    flag: AtomicBool,
    witness: Mutex<Option<Vec<VertexId>>>,
}

impl PvcFound {
    /// No solution found yet.
    pub fn new() -> Self {
        PvcFound {
            flag: AtomicBool::new(false),
            witness: Mutex::new(None),
        }
    }

    /// Checked at the top of every block iteration (the condition the
    /// paper adds "at the beginning of the loop, before line 4").
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Publishes a solution; the first writer wins.
    pub fn publish(&self, node: &TreeNode) {
        let mut witness = self.witness.lock();
        if witness.is_none() {
            *witness = Some(node.cover_vertices());
        }
        self.flag.store(true, Ordering::Release);
    }

    /// The published cover, if any.
    pub fn into_result(self) -> Option<Vec<VertexId>> {
        self.witness.into_inner()
    }
}

impl Default for PvcFound {
    fn default() -> Self {
        Self::new()
    }
}

/// A wall-clock budget shared by every block of a launch. The paper's
/// Table I reports ">2 hrs" cells — timeouts are part of the evaluation
/// protocol, so they are part of the solver: when the deadline passes,
/// blocks drain out and the solve reports best-so-far with a
/// `timed_out` flag.
pub struct Deadline {
    end: Option<std::time::Instant>,
    hit: AtomicBool,
}

impl Deadline {
    /// A deadline `limit` from now; `None`, or a limit past the
    /// clock's range, never expires.
    pub fn new(limit: Option<std::time::Duration>) -> Self {
        Deadline {
            end: limit.and_then(|d| std::time::Instant::now().checked_add(d)),
            hit: AtomicBool::new(false),
        }
    }

    /// Whether the budget is spent (sticky once observed).
    pub fn expired(&self) -> bool {
        if self.hit.load(Ordering::Relaxed) {
            return true;
        }
        match self.end {
            None => false,
            Some(end) if std::time::Instant::now() >= end => {
                self.hit.store(true, Ordering::Relaxed);
                true
            }
            Some(_) => false,
        }
    }

    /// Whether expiry was ever observed during the run.
    pub fn was_hit(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }
}

/// The problem kind a traversal is bounded by.
#[derive(Clone, Copy)]
pub enum BoundKind<'a> {
    /// MVC: bound against the live global best.
    Mvc(&'a GlobalBest),
    /// Weighted MVC: bound against the live global best *weight*.
    WeightedMvc(&'a WeightedBest),
    /// PVC: bound against fixed `k`, with the early-exit flag.
    Pvc {
        /// The parameter.
        k: u32,
        /// Cross-block found flag.
        found: &'a PvcFound,
    },
}

/// A block's view of the problem bound — the only place MVC and PVC
/// traversals differ, so the traversal loops are shared through it.
#[derive(Clone, Copy)]
pub struct BoundSrc<'a> {
    /// MVC-vs-PVC specifics.
    pub kind: BoundKind<'a>,
    /// The launch's wall-clock budget.
    pub deadline: &'a Deadline,
}

impl<'a> BoundSrc<'a> {
    /// The bound as of now (MVC re-reads the atomic best, like a kernel
    /// load from global memory).
    pub fn bound(&self) -> crate::bound::SearchBound {
        match self.kind {
            BoundKind::Mvc(best) => crate::bound::SearchBound::Mvc { best: best.load() },
            BoundKind::WeightedMvc(best) => {
                crate::bound::SearchBound::WeightedMvc { best: best.load() }
            }
            BoundKind::Pvc { k, .. } => crate::bound::SearchBound::Pvc { k },
        }
    }

    /// Records a solution node. Returns `true` if the whole traversal
    /// should stop (PVC: first cover ≤ k ends the search).
    pub fn on_solution(&self, node: &TreeNode) -> bool {
        match self.kind {
            BoundKind::Mvc(best) => {
                best.try_improve(node);
                false
            }
            BoundKind::WeightedMvc(best) => {
                best.try_improve(node);
                false
            }
            BoundKind::Pvc { found, .. } => {
                found.publish(node);
                true
            }
        }
    }

    /// Whether the traversal must end: a peer found a PVC solution
    /// (checked at the top of every block iteration — the paper's PVC
    /// extra condition) or the wall-clock budget is spent.
    pub fn should_abort(&self) -> bool {
        let kind_abort = match self.kind {
            BoundKind::Mvc(_) | BoundKind::WeightedMvc(_) => false,
            BoundKind::Pvc { found, .. } => found.is_set(),
        };
        kind_abort || self.deadline.expired()
    }
}

/// Raw result of a parallel MVC launch, before report assembly.
pub struct RawParallel {
    /// Best cover size.
    pub best_size: u32,
    /// Witness cover.
    pub best_cover: Vec<VertexId>,
    /// Per-block instrumentation.
    pub blocks: Vec<parvc_simgpu::counters::BlockCounters>,
}

/// Raw result of a parallel **weighted** MVC launch.
pub struct RawWeighted {
    /// Best cover weight.
    pub best_weight: u64,
    /// Witness cover.
    pub best_cover: Vec<VertexId>,
    /// Per-block instrumentation.
    pub blocks: Vec<parvc_simgpu::counters::BlockCounters>,
}

/// Raw result of a parallel PVC launch.
pub struct RawParallelPvc {
    /// A cover of size ≤ k, if one was found.
    pub cover: Option<Vec<VertexId>>,
    /// Per-block instrumentation.
    pub blocks: Vec<parvc_simgpu::counters::BlockCounters>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    fn node_covering(g: &parvc_graph::CsrGraph, vs: &[u32]) -> TreeNode {
        let mut n = TreeNode::root(g);
        for &v in vs {
            n.remove_into_cover(g, v);
        }
        n
    }

    #[test]
    fn a_deadline_past_the_clocks_range_never_expires() {
        let d = Deadline::new(Some(std::time::Duration::MAX));
        assert!(!d.expired() && !d.was_hit());
        assert!(Deadline::new(Some(std::time::Duration::ZERO)).expired());
    }

    #[test]
    fn improves_monotonically() {
        let g = gen::complete(6);
        let best = GlobalBest::new(6, (0..6).collect());
        assert!(best.try_improve(&node_covering(&g, &[0, 1, 2, 3, 4])));
        assert_eq!(best.load(), 5);
        assert!(
            !best.try_improve(&node_covering(&g, &[0, 1, 2, 3, 4])),
            "equal is not better"
        );
        let (size, cover) = best.into_result();
        assert_eq!(size, 5);
        assert_eq!(cover.len(), 5);
    }

    #[test]
    fn concurrent_improvements_keep_smallest_witness() {
        let g = gen::complete(10);
        let best = GlobalBest::new(10, (0..10).collect());
        std::thread::scope(|s| {
            for take in 5..9u32 {
                let best = &best;
                let g = &g;
                s.spawn(move || {
                    let n = node_covering(g, &(0..take).collect::<Vec<_>>());
                    best.try_improve(&n);
                });
            }
        });
        let (size, cover) = best.into_result();
        assert_eq!(size, 5);
        assert_eq!(cover.len(), 5, "witness must match the recorded size");
    }

    #[test]
    fn weighted_best_orders_on_weight_not_size() {
        // A star whose hub is expensive: {hub} is the smaller cover,
        // the five leaves are the lighter one.
        let g = gen::star(6).with_weights(vec![100, 1, 1, 1, 1, 1]).unwrap();
        let best = WeightedBest::new(u64::MAX, vec![]);
        assert!(best.try_improve(&node_covering(&g, &[0])));
        assert_eq!(best.load(), 100);
        assert!(
            best.try_improve(&node_covering(&g, &[1, 2, 3, 4, 5])),
            "5 vertices of weight 1 beat 1 vertex of weight 100"
        );
        let (w, cover) = best.into_result();
        assert_eq!(w, 5);
        assert_eq!(cover, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pvc_first_writer_wins() {
        let g = gen::complete(4);
        let found = PvcFound::new();
        assert!(!found.is_set());
        found.publish(&node_covering(&g, &[0, 1, 2]));
        found.publish(&node_covering(&g, &[1, 2, 3]));
        assert!(found.is_set());
        assert_eq!(found.into_result().unwrap(), vec![0, 1, 2]);
    }
}
