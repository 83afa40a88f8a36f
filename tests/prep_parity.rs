//! Kernel parity: prep's output and the prep-on solves are pinned to
//! constants, so a change to how prep computes its kernel (matching,
//! component split, degree pools) or to how `solve_components` runs
//! its sub-searches cannot move a single bit of the result.
//!
//! * **Kernels.** Each row digests the forced and excluded lists in
//!   application order, every component's `old_ids` and
//!   `content_hash`, each rule's covered/excluded/passes counts and
//!   the round count, under three configs: the default pipeline, the
//!   weighted pipeline on a uniformly weighted copy, and crown alone.
//! * **Solves.** Each row digests a prep-on `solve_mvc` at
//!   `grid_limit(1)` under seq, hybrid, batch and compsteal, with the
//!   default and the crown-only pipeline (whose kernels keep hundreds
//!   of tiny components on the tree-like families): the
//!   cover, the tree-node count and every
//!   `BlockCounters` field of every component sub-search (the
//!   projection `policy_parity.rs` uses).
//!
//! The corpus is the `massive-prep` benchmark's three families at
//! 20,000 and 2,000 vertices plus `pace_like` and `gnp` instances. On
//! a mismatch the assertion prints the whole measured table, in the
//! form the constants below are written in.

use parvc::core::{Algorithm, MvcResult, Solver};
use parvc::graph::{gen, CsrGraph};
use parvc::prep::{preprocess, Kernel, PrepConfig};
use parvc::simgpu::counters::{Activity, BlockCounters};

/// `(instance, config, [forced, excluded, kernel vertices,
/// components], digest)`.
type KernelRow = (&'static str, &'static str, [u64; 4], u64);

/// `(instance, policy, [cover size, tree nodes], digest)`.
type SolveRow = (&'static str, &'static str, [u64; 2], u64);

#[rustfmt::skip]
const KERNELS: &[KernelRow] = &[
    ("components:20000:1000:0.3@1", "default", [992, 725, 18283, 981], 2978471080162405535),
    ("components:20000:1000:0.3@1", "weighted", [367, 290, 19343, 998], 16171702681424079874),
    ("components:20000:1000:0.3@1", "crown", [2, 36, 19962, 1000], 2292915505134803678),
    ("ba:20000:1@1", "default", [6006, 13994, 0, 0], 5735165230546306449),
    ("ba:20000:1@1", "weighted", [4918, 11803, 3279, 677], 11584036898790399363),
    ("ba:20000:1@1", "crown", [3152, 11140, 5708, 2305], 10117699674623564698),
    ("powergrid:20000:3000@1", "default", [8536, 11464, 0, 0], 16656541008207597893),
    ("powergrid:20000:3000@1", "weighted", [4953, 6664, 8383, 352], 9559643296116659794),
    ("powergrid:20000:3000@1", "crown", [4650, 7578, 7772, 1250], 861903428142208229),
    ("components:20000:1000:0.3@7", "default", [972, 693, 18335, 980], 5485894367542079267),
    ("components:20000:1000:0.3@7", "weighted", [314, 232, 19454, 1000], 5932226036544072331),
    ("components:20000:1000:0.3@7", "crown", [2, 19, 19979, 1000], 7065735437234178691),
    ("ba:20000:1@7", "default", [5968, 14032, 0, 0], 10852285393203979585),
    ("ba:20000:1@7", "weighted", [4881, 11760, 3359, 676], 10943897526144295273),
    ("ba:20000:1@7", "crown", [3145, 11209, 5646, 2275], 10792629476959419605),
    ("powergrid:20000:3000@7", "default", [8525, 11475, 0, 0], 16939749241978459189),
    ("powergrid:20000:3000@7", "weighted", [4899, 6586, 8515, 372], 11911546654583986036),
    ("powergrid:20000:3000@7", "crown", [4840, 7790, 7370, 1403], 3956636157428120224),
    ("components:2000:100:0.3@1", "default", [120, 87, 1793, 98], 13651000774164673025),
    ("components:2000:100:0.3@1", "weighted", [49, 35, 1916, 100], 3630289908203411308),
    ("components:2000:100:0.3@1", "crown", [0, 3, 1997, 100], 14387413720660474876),
    ("ba:2000:1@1", "default", [586, 1414, 0, 0], 3301216726425207929),
    ("ba:2000:1@1", "weighted", [481, 1198, 321, 59], 24473955560771863),
    ("ba:2000:1@1", "crown", [306, 1134, 560, 223], 17949374207868253186),
    ("powergrid:2000:300@1", "default", [852, 1148, 0, 0], 14399671179281911505),
    ("powergrid:2000:300@1", "weighted", [476, 649, 875, 31], 4829571713326079841),
    ("powergrid:2000:300@1", "crown", [481, 777, 742, 142], 15210946728126617283),
    ("components:2000:100:0.3@7", "default", [73, 54, 1873, 98], 6011193382279570059),
    ("components:2000:100:0.3@7", "weighted", [28, 22, 1950, 100], 459541654684395984),
    ("components:2000:100:0.3@7", "crown", [0, 2, 1998, 100], 2230983440731203026),
    ("ba:2000:1@7", "default", [599, 1401, 0, 0], 5263107615684779969),
    ("ba:2000:1@7", "weighted", [494, 1164, 342, 51], 13997185787228555797),
    ("ba:2000:1@7", "crown", [296, 1098, 606, 234], 13064389213999478251),
    ("powergrid:2000:300@7", "default", [852, 1148, 0, 0], 5466673173445271165),
    ("powergrid:2000:300@7", "weighted", [474, 648, 878, 30], 13103269110547925801),
    ("powergrid:2000:300@7", "crown", [432, 728, 840, 142], 10126276307977247519),
    ("pace:600:12@3", "default", [13, 8, 579, 1], 15316393743034928529),
    ("pace:600:12@3", "weighted", [6, 4, 590, 1], 7024949512145620292),
    ("pace:600:12@3", "crown", [0, 1, 599, 1], 15706426636467096769),
    ("gnp:300:0.012@3", "default", [52, 58, 190, 1], 14676770643607558562),
    ("gnp:300:0.012@3", "weighted", [20, 23, 257, 1], 9154628764763341745),
    ("gnp:300:0.012@3", "crown", [5, 11, 284, 2], 11492299813500361354),
    ("gnp:120:0.05@3", "default", [1, 3, 116, 1], 16630624923878707074),
    ("gnp:120:0.05@3", "weighted", [0, 2, 118, 1], 2803261064328385597),
    ("gnp:120:0.05@3", "crown", [0, 2, 118, 1], 13407455834667992499),
    ("pace:600:12@11", "default", [5, 4, 591, 1], 5357125335121598725),
    ("pace:600:12@11", "weighted", [0, 0, 600, 1], 3890233076581645675),
    ("pace:600:12@11", "crown", [0, 0, 600, 1], 12846676430309575418),
    ("gnp:300:0.012@11", "default", [35, 45, 220, 1], 6857697614455176814),
    ("gnp:300:0.012@11", "weighted", [23, 32, 245, 1], 2799830101962282394),
    ("gnp:300:0.012@11", "crown", [6, 17, 277, 1], 8838377319322006818),
    ("gnp:120:0.05@11", "default", [1, 1, 118, 1], 12473860084462984924),
    ("gnp:120:0.05@11", "weighted", [1, 1, 118, 1], 10685120055650771470),
    ("gnp:120:0.05@11", "crown", [0, 0, 120, 1], 16646569732894258322),
];

#[rustfmt::skip]
const SOLVES: &[SolveRow] = &[
    ("components:2000:100:0.3@1/default", "seq", [1244, 884], 1540077485102469576),
    ("components:2000:100:0.3@1/default", "hybrid", [1244, 888], 5290325090669110830),
    ("components:2000:100:0.3@1/default", "batch", [1244, 884], 8418458669913950375),
    ("components:2000:100:0.3@1/default", "compsteal", [1244, 884], 13777293138810207385),
    ("components:2000:100:0.3@1/crown", "seq", [1244, 886], 10227248923250811788),
    ("components:2000:100:0.3@1/crown", "hybrid", [1244, 890], 1040080605872260477),
    ("components:2000:100:0.3@1/crown", "batch", [1244, 886], 13741065773144848765),
    ("components:2000:100:0.3@1/crown", "compsteal", [1244, 886], 12233967338898868585),
    ("ba:2000:1@1/default", "seq", [586, 0], 7840180560706559272),
    ("ba:2000:1@1/default", "hybrid", [586, 0], 7840180560706559272),
    ("ba:2000:1@1/default", "batch", [586, 0], 7840180560706559272),
    ("ba:2000:1@1/default", "compsteal", [586, 0], 7840180560706559272),
    ("ba:2000:1@1/crown", "seq", [586, 223], 13542375863226785618),
    ("ba:2000:1@1/crown", "hybrid", [586, 223], 123867366827584755),
    ("ba:2000:1@1/crown", "batch", [586, 223], 123867366827584755),
    ("ba:2000:1@1/crown", "compsteal", [586, 223], 13723720077014963146),
    ("powergrid:2000:300@1/default", "seq", [852, 0], 7248428610195776785),
    ("powergrid:2000:300@1/default", "hybrid", [852, 0], 7248428610195776785),
    ("powergrid:2000:300@1/default", "batch", [852, 0], 7248428610195776785),
    ("powergrid:2000:300@1/default", "compsteal", [852, 0], 7248428610195776785),
    ("powergrid:2000:300@1/crown", "seq", [852, 142], 7756060526119480881),
    ("powergrid:2000:300@1/crown", "hybrid", [852, 142], 18185627912424628246),
    ("powergrid:2000:300@1/crown", "batch", [852, 142], 18185627912424628246),
    ("powergrid:2000:300@1/crown", "compsteal", [852, 142], 12190556877520529673),
    ("components:2000:100:0.3@7/default", "seq", [1252, 946], 11800752488000195208),
    ("components:2000:100:0.3@7/default", "hybrid", [1252, 944], 5787651268772539065),
    ("components:2000:100:0.3@7/default", "batch", [1252, 944], 3132925889851278054),
    ("components:2000:100:0.3@7/default", "compsteal", [1252, 946], 3898099317510205270),
    ("components:2000:100:0.3@7/crown", "seq", [1252, 948], 1878850827238689885),
    ("components:2000:100:0.3@7/crown", "hybrid", [1252, 946], 11184978720551412865),
    ("components:2000:100:0.3@7/crown", "batch", [1252, 946], 12940660194441371094),
    ("components:2000:100:0.3@7/crown", "compsteal", [1252, 948], 3786524886660830014),
    ("ba:2000:1@7/default", "seq", [599, 0], 11057422748907980334),
    ("ba:2000:1@7/default", "hybrid", [599, 0], 11057422748907980334),
    ("ba:2000:1@7/default", "batch", [599, 0], 11057422748907980334),
    ("ba:2000:1@7/default", "compsteal", [599, 0], 11057422748907980334),
    ("ba:2000:1@7/crown", "seq", [599, 234], 7975730393202569873),
    ("ba:2000:1@7/crown", "hybrid", [599, 234], 2121498693880430282),
    ("ba:2000:1@7/crown", "batch", [599, 234], 2121498693880430282),
    ("ba:2000:1@7/crown", "compsteal", [599, 234], 10384301408782765484),
    ("powergrid:2000:300@7/default", "seq", [852, 0], 15383193473540818763),
    ("powergrid:2000:300@7/default", "hybrid", [852, 0], 15383193473540818763),
    ("powergrid:2000:300@7/default", "batch", [852, 0], 15383193473540818763),
    ("powergrid:2000:300@7/default", "compsteal", [852, 0], 15383193473540818763),
    ("powergrid:2000:300@7/crown", "seq", [852, 142], 17232238203676789522),
    ("powergrid:2000:300@7/crown", "hybrid", [852, 142], 6480898760992448895),
    ("powergrid:2000:300@7/crown", "batch", [852, 142], 6480898760992448895),
    ("powergrid:2000:300@7/crown", "compsteal", [852, 142], 16834334015001410054),
];

/// The massive-prep families at `n` vertices, two seeds each.
fn massive(n: u32) -> Vec<(String, CsrGraph)> {
    let mut out = Vec::new();
    for seed in [1u64, 7] {
        out.push((
            format!("components:{n}:{}:0.3@{seed}", n / 20),
            gen::sparse_components(n, n / 20, 0.3, seed),
        ));
        out.push((format!("ba:{n}:1@{seed}"), gen::barabasi_albert(n, 1, seed)));
        out.push((
            format!("powergrid:{n}:{}@{seed}", n * 3 / 20),
            gen::power_grid_like(n, n * 3 / 20, seed),
        ));
    }
    out
}

fn kernel_corpus() -> Vec<(String, CsrGraph)> {
    let mut out = massive(20_000);
    out.extend(massive(2_000));
    for seed in [3u64, 11] {
        out.push((format!("pace:600:12@{seed}"), gen::pace_like(600, 12, seed)));
        out.push((format!("gnp:300:0.012@{seed}"), gen::gnp(300, 0.012, seed)));
        out.push((format!("gnp:120:0.05@{seed}"), gen::gnp(120, 0.05, seed)));
    }
    out
}

fn configs() -> [(&'static str, PrepConfig); 3] {
    [
        ("default", PrepConfig::default()),
        (
            "weighted",
            PrepConfig {
                weighted: true,
                ..PrepConfig::default()
            },
        ),
        (
            "crown",
            PrepConfig {
                low_degree: false,
                high_degree: false,
                ..PrepConfig::default()
            },
        ),
    ]
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

    /// A length-prefixed list, so adjacent lists cannot trade entries.
    fn list(&mut self, ids: &[u32]) {
        self.word(ids.len() as u64);
        self.words(ids.iter().map(|&v| u64::from(v)));
    }
}

fn kernel_row(instance: &'static str, config: &'static str, k: &Kernel) -> KernelRow {
    let mut d = Digest::new();
    d.list(&k.trace.forced);
    d.list(&k.trace.excluded);
    d.word(k.components.len() as u64);
    for c in &k.components {
        d.list(&c.old_ids);
        d.word(c.graph.content_hash());
    }
    for r in &k.stats.rules {
        d.words([r.covered, r.excluded, u64::from(r.passes)]);
    }
    d.word(u64::from(k.stats.rounds));
    let counts = [
        u64::from(k.stats.forced),
        u64::from(k.stats.excluded),
        u64::from(k.stats.kernel_vertices),
        u64::from(k.stats.components),
    ];
    (instance, config, counts, d.0)
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

fn solve_row(instance: &'static str, policy: &'static str, r: &MvcResult) -> SolveRow {
    let mut d = Digest::new();
    d.list(&r.cover);
    d.words([r.stats.tree_nodes, r.stats.device_cycles]);
    for b in &r.stats.report.blocks {
        block(&mut d, b);
    }
    (
        instance,
        policy,
        [u64::from(r.size), r.stats.tree_nodes],
        d.0,
    )
}

/// Leaks the instance name so rows can hold `&'static str` like the
/// captured constants do.
fn name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn assert_rows<R: PartialEq + std::fmt::Debug>(what: &str, got: &[R], want: &[R]) {
    let table: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
    assert_eq!(got.len(), want.len(), "{what}: actual rows:\n{table}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}: actual rows:\n{table}");
    }
}

#[test]
fn kernels_match_the_captured_digests() {
    let mut rows = Vec::new();
    for (inst, g) in kernel_corpus() {
        let inst = name(inst);
        let weighted = gen::with_uniform_weights(g.clone(), 10, 5);
        for (config, cfg) in configs() {
            let input = if cfg.weighted { &weighted } else { &g };
            rows.push(kernel_row(inst, config, &preprocess(input, &cfg)));
        }
    }
    assert_rows("kernels", &rows, KERNELS);
}

#[test]
fn prep_on_solves_match_the_captured_digests() {
    let policies = [
        ("seq", Algorithm::Sequential),
        ("hybrid", Algorithm::Hybrid),
        ("batch", Algorithm::Batched),
        ("compsteal", Algorithm::ComponentSteal),
    ];
    let mut rows = Vec::new();
    for (inst, g) in massive(2_000) {
        for (config, cfg) in [&configs()[0], &configs()[2]] {
            let inst = name(format!("{inst}/{config}"));
            for (policy, algorithm) in policies {
                let r = Solver::builder()
                    .algorithm(algorithm)
                    .grid_limit(Some(1))
                    .preprocess(cfg.clone())
                    .build()
                    .solve_mvc(&g);
                rows.push(solve_row(inst, policy, &r));
            }
        }
    }
    assert_rows("solves", &rows, SOLVES);
}
