//! Policy parity: the folded policy implementations reproduce the
//! standalone ones they replaced.
//!
//! `Batched` is the Hybrid policy with a batch of 8, and `WorkStealing`
//! is the ComponentSteal steal pool with split adoption off. The
//! constants below were captured from the standalone `batch` and
//! `stealing` policies on the same instances. At `grid_limit(1)` the
//! traversal is deterministic, so:
//!
//! * Hybrid (batch 1) and WorkStealing must reproduce the full
//!   per-block fingerprint — every counter, the per-activity cycle
//!   vector and the split counters (the projection
//!   `telemetry_safety.rs` uses) — folded into one digest.
//! * Batched must reproduce the search and its donation traffic: tree
//!   nodes, donated, taken from the worklist and bounced. Its cycle
//!   vector is not pinned: the child it hands off no longer pays a
//!   push to and pop from the local stack first.

use parvc::core::{Algorithm, SolveStats, Solver, SolverBuilder};
use parvc::graph::{gen, CsrGraph};
use parvc::simgpu::counters::{Activity, BlockCounters};

/// `(instance, mode, policy, [tree nodes, donated, from worklist,
/// bounced], fingerprint digest)`. Batched rows carry no digest.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    [u64; 4],
    Option<u64>,
);

#[rustfmt::skip]
const CAPTURED: &[Row] = &[
    ("gnp", "mvc", "hybrid", [89, 44, 45, 0], Some(14411102600186025094)),
    ("gnp", "weighted", "hybrid", [217, 108, 109, 0], Some(898077867232775866)),
    ("gnp", "pvc", "hybrid", [89, 44, 45, 0], Some(11509263902642379432)),
    ("gnp", "mvc", "steal", [89, 0, 0, 0], Some(8465887061986658989)),
    ("gnp", "weighted", "steal", [217, 0, 0, 0], Some(6524960592875217682)),
    ("gnp", "pvc", "steal", [89, 0, 0, 0], Some(7871295091243536371)),
    ("gnp", "mvc", "batch", [89, 8, 9, 0], None),
    ("gnp", "weighted", "batch", [235, 16, 17, 0], None),
    ("gnp", "pvc", "batch", [89, 8, 9, 0], None),
    ("components", "mvc", "hybrid", [259, 129, 130, 0], Some(8838259994388570737)),
    ("components", "weighted", "hybrid", [2985, 1492, 1493, 0], Some(1730717449646725200)),
    ("components", "pvc", "hybrid", [259, 129, 130, 0], Some(6415861942127884991)),
    ("components", "mvc", "steal", [259, 0, 0, 0], Some(9903313635132569482)),
    ("components", "weighted", "steal", [2363, 0, 0, 0], Some(6259946593289622816)),
    ("components", "pvc", "steal", [259, 0, 0, 0], Some(15760696708616752940)),
    ("components", "mvc", "batch", [259, 16, 17, 0], None),
    ("components", "weighted", "batch", [2721, 112, 113, 0], None),
    ("components", "pvc", "batch", [259, 16, 17, 0], None),
    ("phat", "mvc", "hybrid", [435, 217, 218, 0], Some(16041879589419281876)),
    ("phat", "weighted", "hybrid", [731, 365, 366, 0], Some(6131279118063860361)),
    ("phat", "pvc", "hybrid", [371, 185, 186, 0], Some(1618979664925143071)),
    ("phat", "mvc", "steal", [395, 0, 0, 0], Some(78291837691625152)),
    ("phat", "weighted", "steal", [733, 0, 0, 0], Some(1995994881862678379)),
    ("phat", "pvc", "steal", [371, 0, 0, 0], Some(12414434654202435656)),
    ("phat", "mvc", "batch", [441, 72, 73, 0], None),
    ("phat", "weighted", "batch", [737, 152, 153, 0], None),
    ("phat", "pvc", "batch", [371, 48, 49, 0], None),
    ("components+split", "mvc", "hybrid", [8, 0, 1, 0], Some(4519679827680261724)),
    ("components+split", "weighted", "hybrid", [45, 0, 1, 0], Some(17003566723236462131)),
    ("components+split", "pvc", "hybrid", [8, 0, 1, 0], Some(3954029585731557974)),
    ("components+split", "mvc", "steal", [8, 0, 0, 0], Some(6900200393575954439)),
    ("components+split", "weighted", "steal", [45, 0, 0, 0], Some(2847153746424084446)),
    ("components+split", "pvc", "steal", [8, 0, 0, 0], Some(18391095006613497901)),
    ("components+split", "mvc", "batch", [8, 0, 1, 0], None),
    ("components+split", "weighted", "batch", [45, 0, 1, 0], None),
    ("components+split", "pvc", "batch", [8, 0, 1, 0], None),
];

/// The three instances with splitting off, plus the components
/// instance again with splitting on (where WorkStealing must decline
/// every split and solve it inline).
fn corpus() -> Vec<(&'static str, CsrGraph, bool)> {
    let components = gen::sparse_components(64, 8, 0.5, 3);
    vec![
        ("gnp", gen::gnp(40, 0.2, 9), false),
        ("components", components.clone(), false),
        ("phat", gen::p_hat_complement(60, 2, 5), false),
        ("components+split", components, true),
    ]
}

fn policies() -> [(&'static str, Algorithm); 3] {
    [
        ("hybrid", Algorithm::Hybrid),
        ("steal", Algorithm::WorkStealing),
        ("batch", Algorithm::Batched),
    ]
}

fn builder(algorithm: Algorithm, split: bool) -> SolverBuilder {
    Solver::builder()
        .algorithm(algorithm)
        .grid_limit(Some(1))
        .component_branching(split)
}

/// FNV-1a over a stream of words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Every public `BlockCounters` field plus the full cycle vector.
fn block(d: &mut Digest, c: &BlockCounters) {
    d.word(u64::from(c.block_id));
    d.words(Activity::ALL.iter().map(|&a| c.cycles(a)));
    d.words([
        c.tree_nodes_visited,
        c.nodes_donated,
        c.nodes_from_worklist,
        c.donations_bounced,
        c.max_stack_depth,
    ]);
    for (&victim, &n) in &c.steals_by_victim {
        d.words([u64::from(victim), n]);
    }
    let s = &c.splits;
    d.words([s.checks, s.taken, s.components, s.check_work, s.uf_rebuilds]);
    d.words(s.size_hist);
}

fn row(
    instance: &'static str,
    mode: &'static str,
    policy: &'static str,
    answer: &[u64],
    stats: &SolveStats,
) -> Row {
    let blocks = &stats.report.blocks;
    let sum = |f: fn(&BlockCounters) -> u64| blocks.iter().map(f).sum::<u64>();
    let counts = [
        stats.tree_nodes,
        sum(|b| b.nodes_donated),
        sum(|b| b.nodes_from_worklist),
        sum(|b| b.donations_bounced),
    ];
    let digest = (policy != "batch").then(|| {
        let mut d = Digest::new();
        d.words(answer.iter().copied());
        d.words([stats.tree_nodes, stats.device_cycles]);
        for b in blocks {
            block(&mut d, b);
        }
        d.0
    });
    (instance, mode, policy, counts, digest)
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, g, split) in corpus() {
        let weighted_g = gen::with_uniform_weights(g.clone(), 10, 7);
        for (policy, algorithm) in policies() {
            let mvc = builder(algorithm, split).build().solve_mvc(&g);
            let mut answer = vec![u64::from(mvc.size), mvc.weight];
            answer.extend(mvc.cover.iter().map(|&v| u64::from(v)));
            rows.push(row(name, "mvc", policy, &answer, &mvc.stats));

            let w = builder(algorithm, split)
                .weighted()
                .build()
                .solve_mvc(&weighted_g);
            let mut answer = vec![u64::from(w.size), w.weight];
            answer.extend(w.cover.iter().map(|&v| u64::from(v)));
            rows.push(row(name, "weighted", policy, &answer, &w.stats));

            // k = opt − 1: no cover exists, so the search is exhaustive.
            let pvc = builder(algorithm, split)
                .build()
                .solve_pvc(&g, mvc.size - 1);
            assert!(
                pvc.cover.is_none(),
                "{name}/{policy}: cover below the optimum"
            );
            rows.push(row(name, "pvc", policy, &[], &pvc.stats));
        }
    }
    rows
}

#[test]
fn folded_policies_reproduce_the_standalone_ones() {
    let rows = measure();
    let table: String = rows
        .iter()
        .map(|(i, m, p, c, d)| format!("    ({i:?}, {m:?}, {p:?}, {c:?}, {d:?}),\n"))
        .collect();
    assert_eq!(rows.len(), CAPTURED.len(), "actual rows:\n{table}");
    for (got, want) in rows.iter().zip(CAPTURED) {
        assert_eq!(got, want, "actual rows:\n{table}");
    }
}

/// With splitting off, ComponentSteal never sees a component to adopt,
/// so it runs exactly the WorkStealing traversal.
#[test]
fn compsteal_without_splitting_is_work_stealing() {
    for (name, g, _) in corpus() {
        let solve = |algorithm| {
            let r = builder(algorithm, false).build().solve_mvc(&g);
            let answer: Vec<u64> = r.cover.iter().map(|&v| u64::from(v)).collect();
            row(name, "mvc", "steal", &answer, &r.stats)
        };
        assert_eq!(
            solve(Algorithm::WorkStealing),
            solve(Algorithm::ComponentSteal),
            "{name}"
        );
    }
}
