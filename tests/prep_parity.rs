//! Kernel and solve-path parity: prep's output and the solves are
//! pinned to constants, so a change to how prep computes its kernel
//! (matching, component split, degree pools) or to how the solve
//! driver runs its searches cannot move a single bit of the result.
//!
//! * **Kernels.** Each row digests the forced and excluded lists in
//!   application order, every component's `old_ids` and
//!   `content_hash`, and each rule's covered/excluded counts, under
//!   three configs: the default pipeline, the weighted pipeline on a
//!   uniformly weighted copy, and crown alone. The rule loop's work —
//!   each rule's pass count and the round count — is a visible column
//!   outside the digest, so a change to how often prep runs a rule
//!   shows there without touching the kernel content.
//! * **Solves.** Each row digests a prep-on `solve_mvc` at
//!   `grid_limit(1)` under seq, hybrid, batch and compsteal, with the
//!   default and the crown-only pipeline (whose kernels keep hundreds
//!   of tiny components on the tree-like families): the
//!   cover, the tree-node count and every
//!   `BlockCounters` field of every component sub-search (the
//!   projection `policy_parity.rs` uses).
//! * **Solve paths.** Each row digests every public solve on one small
//!   instance under one policy at `grid_limit(1)`, with prep off or
//!   on: MVC, weighted MVC on a uniformly weighted copy, PVC at
//!   opt − 1 and at opt, PVC on a weighted solver, and one edit-script
//!   re-solve. Besides the answers and the block counters it covers
//!   the `SolveStats` fields no other parity digest does:
//!   `greedy_size`, the launch's grid and block size, `timed_out` and
//!   whether prep stats are present.
//! * **The component pool.** A prep-on solve whose kernel components
//!   all went through the component pool must digest the same at
//!   grid 2 and 4 as at grid 1, where the pool is the serial loop.
//!
//! The kernel and solve corpus is the `massive-prep` benchmark's three
//! families at 20,000 and 2,000 vertices plus `pace_like` and `gnp`
//! instances. On a mismatch the assertion prints the whole measured
//! table, in the form the constants below are written in.

use parvc::core::{Algorithm, MvcResult, SolveStats, Solver};
use parvc::graph::{gen, CsrGraph};
use parvc::prep::{preprocess, Kernel, PrepConfig};
use parvc::simgpu::counters::{Activity, BlockCounters};

/// `(instance, config, [forced, excluded, kernel vertices,
/// components], [degree-0/1/2 passes, crown passes, high-degree
/// passes, rounds], digest)`.
type KernelRow = (&'static str, &'static str, [u64; 4], [u32; 4], u64);

/// `(instance, policy, [cover size, tree nodes], digest)`.
type SolveRow = (&'static str, &'static str, [u64; 2], u64);

/// `(instance, prep, policy, tree nodes of [MVC, weighted MVC,
/// PVC at opt − 1, PVC at opt, weighted-solver PVC, re-solve],
/// digest)`.
type PathRow = (&'static str, &'static str, &'static str, [u64; 6], u64);

#[rustfmt::skip]
const KERNELS: &[KernelRow] = &[
    ("components:20000:1000:0.3@1", "default", [992, 725, 18283, 981], [2, 1, 1, 2], 1195114107662685247),
    ("components:20000:1000:0.3@1", "weighted", [367, 290, 19343, 998], [1, 0, 0, 2], 17501586517385394370),
    ("components:20000:1000:0.3@1", "crown", [2, 36, 19962, 1000], [0, 1, 0, 2], 16889091844851007390),
    ("ba:20000:1@1", "default", [6006, 13994, 0, 0], [1, 1, 1, 2], 16334131823623672849),
    ("ba:20000:1@1", "weighted", [4918, 11803, 3279, 677], [1, 0, 0, 2], 5205415821467101635),
    ("ba:20000:1@1", "crown", [3152, 11140, 5708, 2305], [0, 1, 0, 2], 2601464502086185306),
    ("powergrid:20000:3000@1", "default", [8536, 11464, 0, 0], [1, 1, 1, 2], 12961574698936616389),
    ("powergrid:20000:3000@1", "weighted", [4953, 6664, 8383, 352], [1, 0, 0, 2], 17782554755982637842),
    ("powergrid:20000:3000@1", "crown", [4650, 7578, 7772, 1250], [0, 1, 0, 2], 6475870254515595109),
    ("components:20000:1000:0.3@7", "default", [972, 693, 18335, 980], [2, 1, 1, 2], 10010697557888724451),
    ("components:20000:1000:0.3@7", "weighted", [314, 232, 19454, 1000], [1, 0, 0, 2], 770200488613589707),
    ("components:20000:1000:0.3@7", "crown", [2, 19, 19979, 1000], [0, 1, 0, 2], 1020342484827397635),
    ("ba:20000:1@7", "default", [5968, 14032, 0, 0], [1, 1, 1, 2], 4651607487366126529),
    ("ba:20000:1@7", "weighted", [4881, 11760, 3359, 676], [1, 0, 0, 2], 12494505546279329577),
    ("ba:20000:1@7", "crown", [3145, 11209, 5646, 2275], [0, 1, 0, 2], 15005897300981191509),
    ("powergrid:20000:3000@7", "default", [8525, 11475, 0, 0], [1, 1, 1, 2], 12108935259289948341),
    ("powergrid:20000:3000@7", "weighted", [4899, 6586, 8515, 372], [1, 0, 0, 2], 9846982945270714292),
    ("powergrid:20000:3000@7", "crown", [4840, 7790, 7370, 1403], [0, 1, 0, 2], 1464325782304327264),
    ("components:2000:100:0.3@1", "default", [120, 87, 1793, 98], [2, 1, 1, 2], 1884018478166407841),
    ("components:2000:100:0.3@1", "weighted", [49, 35, 1916, 100], [1, 0, 0, 2], 9519636119204828076),
    ("components:2000:100:0.3@1", "crown", [0, 3, 1997, 100], [0, 1, 0, 2], 3228013263740407996),
    ("ba:2000:1@1", "default", [586, 1414, 0, 0], [1, 1, 1, 2], 12605556674295717625),
    ("ba:2000:1@1", "weighted", [481, 1198, 321, 59], [1, 0, 0, 2], 3194248393506706263),
    ("ba:2000:1@1", "crown", [306, 1134, 560, 223], [0, 1, 0, 2], 4711028644894945218),
    ("powergrid:2000:300@1", "default", [852, 1148, 0, 0], [1, 1, 1, 2], 18190025408552795473),
    ("powergrid:2000:300@1", "weighted", [476, 649, 875, 31], [1, 0, 0, 2], 9468599407538184481),
    ("powergrid:2000:300@1", "crown", [481, 777, 742, 142], [0, 1, 0, 2], 13696023638675839555),
    ("components:2000:100:0.3@7", "default", [73, 54, 1873, 98], [1, 1, 1, 2], 854075091927696907),
    ("components:2000:100:0.3@7", "weighted", [28, 22, 1950, 100], [1, 0, 0, 2], 16698225371134063632),
    ("components:2000:100:0.3@7", "crown", [0, 2, 1998, 100], [0, 1, 0, 2], 8211959301426670994),
    ("ba:2000:1@7", "default", [599, 1401, 0, 0], [1, 1, 1, 2], 12349737333178373697),
    ("ba:2000:1@7", "weighted", [494, 1164, 342, 51], [1, 0, 0, 2], 11998883385852326357),
    ("ba:2000:1@7", "crown", [296, 1098, 606, 234], [0, 1, 0, 2], 4362793364152184683),
    ("powergrid:2000:300@7", "default", [852, 1148, 0, 0], [1, 1, 1, 2], 13515685578500486909),
    ("powergrid:2000:300@7", "weighted", [474, 648, 878, 30], [1, 0, 0, 2], 10747613632232630505),
    ("powergrid:2000:300@7", "crown", [432, 728, 840, 142], [0, 1, 0, 2], 11026048038983427999),
    ("pace:600:12@3", "default", [13, 8, 579, 1], [1, 1, 1, 2], 7040571347490348049),
    ("pace:600:12@3", "weighted", [6, 4, 590, 1], [1, 0, 0, 2], 392526347974188420),
    ("pace:600:12@3", "crown", [0, 1, 599, 1], [0, 1, 0, 2], 15256707439399143489),
    ("gnp:300:0.012@3", "default", [52, 58, 190, 1], [1, 1, 1, 2], 2143640359860613538),
    ("gnp:300:0.012@3", "weighted", [20, 23, 257, 1], [1, 0, 0, 2], 1495307256410856817),
    ("gnp:300:0.012@3", "crown", [5, 11, 284, 2], [0, 1, 0, 2], 16243809054745408586),
    ("gnp:120:0.05@3", "default", [1, 3, 116, 1], [1, 1, 1, 2], 10175586514277496706),
    ("gnp:120:0.05@3", "weighted", [0, 2, 118, 1], [1, 0, 0, 2], 10198966892600616957),
    ("gnp:120:0.05@3", "crown", [0, 2, 118, 1], [0, 1, 0, 2], 18087884896581995827),
    ("pace:600:12@11", "default", [5, 4, 591, 1], [1, 1, 1, 2], 11463141633191914885),
    ("pace:600:12@11", "weighted", [0, 0, 600, 1], [1, 0, 0, 1], 1673782440529825483),
    ("pace:600:12@11", "crown", [0, 0, 600, 1], [0, 1, 0, 1], 9029194457089472090),
    ("gnp:300:0.012@11", "default", [35, 45, 220, 1], [1, 1, 1, 2], 5014349129191338094),
    ("gnp:300:0.012@11", "weighted", [23, 32, 245, 1], [1, 0, 0, 2], 6194902056474875482),
    ("gnp:300:0.012@11", "crown", [6, 17, 277, 1], [0, 1, 0, 2], 13090177300962535650),
    ("gnp:120:0.05@11", "default", [1, 1, 118, 1], [1, 1, 1, 2], 7561397982962403292),
    ("gnp:120:0.05@11", "weighted", [1, 1, 118, 1], [1, 0, 0, 2], 3854206879887943886),
    ("gnp:120:0.05@11", "crown", [0, 0, 120, 1], [0, 1, 0, 1], 11308835032625412594),
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

#[rustfmt::skip]
const PATHS: &[PathRow] = &[
    ("gnp:40:0.2@9", "off", "seq", [89, 409, 89, 15, 15, 57], 7257581103116183350),
    ("gnp:40:0.2@9", "off", "stack", [1268, 1802, 1268, 15, 15, 1162], 1287158428317524343),
    ("gnp:40:0.2@9", "off", "hybrid", [89, 409, 89, 15, 15, 57], 13987862901058849936),
    ("gnp:40:0.2@9", "off", "steal", [89, 409, 89, 15, 15, 57], 4782938092145520576),
    ("gnp:40:0.2@9", "off", "batch", [89, 409, 89, 15, 15, 57], 8794781432713836187),
    ("gnp:40:0.2@9", "off", "compsteal", [89, 381, 89, 15, 15, 57], 10087180145958208447),
    ("gnp:40:0.2@9", "on", "seq", [89, 409, 89, 15, 15, 57], 17790628219375482185),
    ("gnp:40:0.2@9", "on", "stack", [1268, 1802, 1268, 15, 15, 1162], 8201633506500609781),
    ("gnp:40:0.2@9", "on", "hybrid", [89, 409, 89, 15, 15, 57], 10795556336136593423),
    ("gnp:40:0.2@9", "on", "steal", [89, 409, 89, 15, 15, 57], 15999756841658467487),
    ("gnp:40:0.2@9", "on", "batch", [89, 409, 89, 15, 15, 57], 6810011561989265995),
    ("gnp:40:0.2@9", "on", "compsteal", [89, 381, 89, 15, 15, 57], 17654286285981147487),
    ("components:64:8:0.5@3", "off", "seq", [259, 3507, 259, 14, 14, 5], 944230719659981507),
    ("components:64:8:0.5@3", "off", "stack", [1840, 5222, 1840, 14, 14, 640], 15537106945797542559),
    ("components:64:8:0.5@3", "off", "hybrid", [259, 3653, 259, 14, 14, 5], 6902112856379203995),
    ("components:64:8:0.5@3", "off", "steal", [259, 3507, 259, 14, 14, 5], 5718822235150183131),
    ("components:64:8:0.5@3", "off", "batch", [259, 3911, 259, 14, 14, 5], 5065560486829879064),
    ("components:64:8:0.5@3", "off", "compsteal", [7, 50, 7, 9, 9, 5], 16879015836785433662),
    ("components:64:8:0.5@3", "on", "seq", [7, 48, 7, 7, 7, 5], 2018803215685202760),
    ("components:64:8:0.5@3", "on", "stack", [1792, 5248, 1792, 1792, 1792, 640], 12895458118097989865),
    ("components:64:8:0.5@3", "on", "hybrid", [7, 48, 7, 7, 7, 5], 9445746421334904285),
    ("components:64:8:0.5@3", "on", "steal", [7, 48, 7, 7, 7, 5], 261353673693255846),
    ("components:64:8:0.5@3", "on", "batch", [7, 48, 7, 7, 7, 5], 802711092139697629),
    ("components:64:8:0.5@3", "on", "compsteal", [7, 48, 7, 7, 7, 5], 2060733364120501724),
    ("phat:60:2@5", "off", "seq", [395, 755, 371, 102, 102, 363], 3970146637827003821),
    ("phat:60:2@5", "off", "stack", [1196, 1920, 1172, 102, 102, 1136], 3827668729262821210),
    ("phat:60:2@5", "off", "hybrid", [435, 765, 371, 138, 138, 363], 14164015765792869335),
    ("phat:60:2@5", "off", "steal", [395, 755, 371, 102, 102, 363], 8522304768949437548),
    ("phat:60:2@5", "off", "batch", [441, 807, 371, 201, 201, 363], 4358225676036558273),
    ("phat:60:2@5", "off", "compsteal", [395, 747, 371, 102, 102, 363], 2318602230024113385),
    ("phat:60:2@5", "on", "seq", [395, 755, 371, 102, 102, 369], 8114031671563635071),
    ("phat:60:2@5", "on", "stack", [1196, 1920, 1172, 102, 102, 1142], 16144541139790864051),
    ("phat:60:2@5", "on", "hybrid", [435, 765, 371, 138, 138, 471], 10574743243051883796),
    ("phat:60:2@5", "on", "steal", [395, 755, 371, 102, 102, 369], 8995989019921298276),
    ("phat:60:2@5", "on", "batch", [441, 807, 371, 201, 201, 439], 4533789239838406005),
    ("phat:60:2@5", "on", "compsteal", [395, 747, 371, 102, 102, 369], 541309276311433809),
    ("phat:70:2@1", "off", "seq", [643, 1237, 643, 51, 51, 651], 13027140578155775767),
    ("phat:70:2@1", "off", "stack", [1540, 2430, 1540, 51, 51, 1570], 12060119872323301257),
    ("phat:70:2@1", "off", "hybrid", [643, 1237, 643, 51, 51, 651], 14188179870032968118),
    ("phat:70:2@1", "off", "steal", [643, 1237, 643, 51, 51, 651], 2442761238350658928),
    ("phat:70:2@1", "off", "batch", [643, 1237, 643, 51, 51, 651], 3413242140872818083),
    ("phat:70:2@1", "off", "compsteal", [643, 1235, 643, 51, 51, 651], 6405909013216769212),
    ("phat:70:2@1", "on", "seq", [643, 1237, 643, 51, 51, 651], 12120331225005762252),
    ("phat:70:2@1", "on", "stack", [1540, 2430, 1540, 51, 51, 1570], 17194529748175674226),
    ("phat:70:2@1", "on", "hybrid", [643, 1237, 643, 51, 51, 675], 4955621609906935934),
    ("phat:70:2@1", "on", "steal", [643, 1237, 643, 51, 51, 651], 12457455706270908835),
    ("phat:70:2@1", "on", "batch", [643, 1237, 643, 51, 51, 677], 13282841119769750233),
    ("phat:70:2@1", "on", "compsteal", [643, 1235, 643, 51, 51, 651], 1127996567981270989),
    ("ba:60:2@4", "off", "seq", [1, 33, 1, 1, 1, 1], 18051472687156427559),
    ("ba:60:2@4", "off", "stack", [256, 1112, 256, 1, 1, 256], 17553235068904556505),
    ("ba:60:2@4", "off", "hybrid", [1, 33, 1, 1, 1, 1], 17912033910585330443),
    ("ba:60:2@4", "off", "steal", [1, 33, 1, 1, 1, 1], 12745427506054298790),
    ("ba:60:2@4", "off", "batch", [1, 33, 1, 1, 1, 1], 1009445601324953721),
    ("ba:60:2@4", "off", "compsteal", [1, 22, 1, 1, 1, 1], 11043875529826172386),
    ("ba:60:2@4", "on", "seq", [0, 22, 0, 0, 0, 0], 11925194520349676909),
    ("ba:60:2@4", "on", "stack", [0, 1408, 0, 0, 0, 0], 2656712976638386917),
    ("ba:60:2@4", "on", "hybrid", [0, 22, 0, 0, 0, 0], 16701943531054673467),
    ("ba:60:2@4", "on", "steal", [0, 22, 0, 0, 0, 0], 10362327356242866243),
    ("ba:60:2@4", "on", "batch", [0, 22, 0, 0, 0, 0], 7733110464116791787),
    ("ba:60:2@4", "on", "compsteal", [0, 21, 0, 0, 0, 0], 13272184609318723358),
    ("pace:80:6@3", "off", "seq", [519, 19187, 519, 21, 21, 357], 1507682734993247321),
    ("pace:80:6@3", "off", "stack", [1928, 20972, 1928, 21, 21, 1682], 5812725897885240858),
    ("pace:80:6@3", "off", "hybrid", [519, 19311, 519, 21, 21, 357], 8537102937205465836),
    ("pace:80:6@3", "off", "steal", [519, 19187, 519, 21, 21, 357], 8815612367262068825),
    ("pace:80:6@3", "off", "batch", [519, 20137, 519, 21, 21, 357], 18055844031117673776),
    ("pace:80:6@3", "off", "compsteal", [356, 3330, 356, 21, 21, 317], 15327729505377501487),
    ("pace:80:6@3", "on", "seq", [519, 19187, 519, 21, 21, 357], 4116121493463367420),
    ("pace:80:6@3", "on", "stack", [1928, 20972, 1928, 21, 21, 1682], 15398303737707378855),
    ("pace:80:6@3", "on", "hybrid", [519, 19311, 519, 21, 21, 357], 9623909740786593416),
    ("pace:80:6@3", "on", "steal", [519, 19187, 519, 21, 21, 357], 17171757730042389765),
    ("pace:80:6@3", "on", "batch", [519, 20137, 519, 21, 21, 357], 15277439423544594758),
    ("pace:80:6@3", "on", "compsteal", [356, 3330, 356, 21, 21, 317], 13172655420772546407),
    ("edgeless:7", "off", "seq", [0, 0, 0, 0, 0, 1], 7760359967210286023),
    ("edgeless:7", "off", "stack", [0, 0, 0, 0, 0, 256], 4230893342013119962),
    ("edgeless:7", "off", "hybrid", [0, 0, 0, 0, 0, 1], 13471884197482443222),
    ("edgeless:7", "off", "steal", [0, 0, 0, 0, 0, 1], 14860917497007587863),
    ("edgeless:7", "off", "batch", [0, 0, 0, 0, 0, 1], 13471884197482443222),
    ("edgeless:7", "off", "compsteal", [0, 0, 0, 0, 0, 1], 14860917497007587863),
    ("edgeless:7", "on", "seq", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("edgeless:7", "on", "stack", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("edgeless:7", "on", "hybrid", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("edgeless:7", "on", "steal", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("edgeless:7", "on", "batch", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("edgeless:7", "on", "compsteal", [0, 0, 0, 0, 0, 0], 9978699060554895864),
    ("star:10", "off", "seq", [1, 1, 1, 1, 1, 1], 3169812619945484420),
    ("star:10", "off", "stack", [256, 256, 256, 1, 1, 256], 8758672875416319570),
    ("star:10", "off", "hybrid", [1, 1, 1, 1, 1, 1], 12836916177130241552),
    ("star:10", "off", "steal", [1, 1, 1, 1, 1, 1], 7131129684564401300),
    ("star:10", "off", "batch", [1, 1, 1, 1, 1, 1], 12836916177130241552),
    ("star:10", "off", "compsteal", [1, 1, 1, 1, 1, 1], 7131129684564401300),
    ("star:10", "on", "seq", [0, 0, 0, 0, 0, 0], 14746806931736093560),
    ("star:10", "on", "stack", [0, 0, 0, 0, 0, 0], 14746806931736093560),
    ("star:10", "on", "hybrid", [0, 0, 0, 0, 0, 0], 14746806931736093560),
    ("star:10", "on", "steal", [0, 0, 0, 0, 0, 0], 14746806931736093560),
    ("star:10", "on", "batch", [0, 0, 0, 0, 0, 0], 14746806931736093560),
    ("star:10", "on", "compsteal", [0, 0, 0, 0, 0, 0], 14746806931736093560),
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
        d.words([r.covered, r.excluded]);
    }
    let counts = [
        u64::from(k.stats.forced),
        u64::from(k.stats.excluded),
        u64::from(k.stats.kernel_vertices),
        u64::from(k.stats.components),
    ];
    let passes = |rule: &str| {
        k.stats
            .rules
            .iter()
            .find(|r| r.name == rule)
            .map_or(0, |r| r.passes)
    };
    let work = [
        passes("degree-0/1/2"),
        passes("crown (LP/NT)"),
        passes("high-degree"),
        k.stats.rounds,
    ];
    (instance, config, counts, work, d.0)
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

/// Small instances whose solves stay in the hundreds of tree nodes at
/// one block with prep off: a 70-vertex kernel component that is
/// launched rather than inlined, split-prone and tree-like families,
/// and the edgeless and star corner cases.
fn path_corpus() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp:40:0.2@9", gen::gnp(40, 0.2, 9)),
        (
            "components:64:8:0.5@3",
            gen::sparse_components(64, 8, 0.5, 3),
        ),
        ("phat:60:2@5", gen::p_hat_complement(60, 2, 5)),
        ("phat:70:2@1", gen::p_hat_complement(70, 2, 1)),
        ("ba:60:2@4", gen::barabasi_albert(60, 2, 4)),
        ("pace:80:6@3", gen::pace_like(80, 6, 3)),
        ("edgeless:7", CsrGraph::from_edges(7, &[]).unwrap()),
        ("star:10", gen::star(10)),
    ]
}

/// The answer-independent part of a solve: its counters and the stats
/// fields the other tables leave out.
fn stats(d: &mut Digest, s: &SolveStats) {
    d.words([
        s.tree_nodes,
        s.device_cycles,
        u64::from(s.greedy_size),
        u64::from(s.timed_out),
        u64::from(s.prep.is_some()),
    ]);
    match &s.launch {
        Some(l) => d.words([1, u64::from(l.grid_blocks), u64::from(l.block_size)]),
        None => d.word(0),
    }
    for b in &s.report.blocks {
        block(d, b);
    }
}

fn mvc(d: &mut Digest, r: &MvcResult) {
    d.words([u64::from(r.size), r.weight]);
    d.list(&r.cover);
    stats(d, &r.stats);
}

#[test]
fn every_solve_path_matches_the_captured_digests() {
    let mut rows = Vec::new();
    for (inst, g) in path_corpus() {
        let weighted_g = gen::with_uniform_weights(g.clone(), 10, 5);
        let edits = gen::edit_script(&g, 8, 0.5, 1);
        for prep in ["off", "on"] {
            for policy in ["seq", "stack", "hybrid", "steal", "batch", "compsteal"] {
                let mut builder = Solver::builder()
                    .algorithm(Algorithm::parse(policy).unwrap())
                    .grid_limit(Some(1));
                if prep == "on" {
                    builder = builder.preprocess(PrepConfig::default());
                }
                let solver = builder.clone().build();
                let weighted = builder.weighted().build();
                let mut d = Digest::new();
                let mut nodes = [0; 6];

                let opt = solver.solve_mvc(&g);
                mvc(&mut d, &opt);
                nodes[0] = opt.stats.tree_nodes;

                let w = weighted.solve_mvc(&weighted_g);
                mvc(&mut d, &w);
                nodes[1] = w.stats.tree_nodes;

                let pvcs = [
                    opt.size.checked_sub(1).map(|k| solver.solve_pvc(&g, k)),
                    Some(solver.solve_pvc(&g, opt.size)),
                    Some(weighted.solve_pvc(&weighted_g, opt.size)),
                ];
                for (slot, pvc) in pvcs.iter().enumerate() {
                    let Some(pvc) = pvc else {
                        d.word(u64::MAX);
                        continue;
                    };
                    // Below the optimum there is no cover; at it, there is.
                    assert_eq!(
                        pvc.found(),
                        slot > 0,
                        "{inst}/{prep}/{policy} k = {}",
                        pvc.k
                    );
                    d.word(u64::from(pvc.k));
                    match &pvc.cover {
                        Some(c) => d.list(c),
                        None => d.word(u64::MAX),
                    }
                    stats(&mut d, &pvc.stats);
                    nodes[2 + slot] = pvc.stats.tree_nodes;
                }

                let re = solver.resolve(&g, &opt, &edits).unwrap();
                mvc(&mut d, &re.result);
                let s = &re.stats;
                d.words([
                    u64::from(s.components_resolved),
                    u64::from(s.warm_bound_hits),
                    u64::from(s.warm_skips),
                    s.resolve_tree_nodes,
                ]);
                nodes[5] = re.result.stats.tree_nodes;

                rows.push((inst, prep, policy, nodes, d.0));
            }
        }
    }
    assert_rows("solve paths", &rows, PATHS);
}

/// One solve's answer and every stats field `stats` digests.
fn solve_digest(cover: Option<&[u32]>, s: &SolveStats) -> u64 {
    let mut d = Digest::new();
    match cover {
        Some(c) => d.list(c),
        None => d.word(u64::MAX),
    }
    stats(&mut d, s);
    d.0
}

/// The component pool against the serial loop. Every `massive(2_000)`
/// instance is solved under the default and the crown-only pipeline,
/// under each multi-block policy, as MVC, weighted MVC and PVC at
/// opt − 1 and at opt, at `grid_limit` 1, 2 and 4. At grid 1 the pool
/// is one block on the calling thread, which is the serial loop. A
/// solve without a launch (`stats.launch` is `None`) searched every
/// component in the pool, so its grid-2 and grid-4 digests must equal
/// grid 1's; a solve with a launch only has to agree on the answer.
#[test]
fn the_component_pool_matches_the_serial_loop() {
    // Left out: weighted MVC on the power-grid instances, and on the BA
    // trees under the crown-only pipeline (crown is weight-unsound, so
    // there it only splits). Those weighted searches run for minutes
    // under every policy, on big components that are launched, not
    // pooled.
    let slow = |inst: &str, config: &str| {
        inst.starts_with("powergrid") || (inst.starts_with("ba") && config == "crown")
    };
    let mut pooled = 0;
    for (inst, g) in massive(2_000) {
        let weighted_g = gen::with_uniform_weights(g.clone(), 10, 5);
        for (config, cfg) in [&configs()[0], &configs()[2]] {
            for policy in ["stack", "hybrid", "batch", "steal", "compsteal"] {
                let mut first: Option<Vec<(u64, u64)>> = None;
                for grid in [1, 2, 4] {
                    let ctx = format!("{inst}/{config}/{policy}/grid {grid}");
                    let builder = Solver::builder()
                        .algorithm(Algorithm::parse(policy).unwrap())
                        .grid_limit(Some(grid))
                        .preprocess(cfg.clone());
                    let solver = builder.clone().build();
                    let opt = solver.solve_mvc(&g);
                    let mut cells = vec![(
                        opt.stats.launch.is_none(),
                        u64::from(opt.size),
                        solve_digest(Some(&opt.cover), &opt.stats),
                    )];
                    if !slow(&inst, config) {
                        let w = builder.weighted().build().solve_mvc(&weighted_g);
                        cells.push((
                            w.stats.launch.is_none(),
                            w.weight,
                            solve_digest(Some(&w.cover), &w.stats),
                        ));
                    }
                    for k in [opt.size - 1, opt.size] {
                        let p = solver.solve_pvc(&g, k);
                        assert_eq!(p.found(), k == opt.size, "{ctx} k = {k}");
                        cells.push((
                            p.stats.launch.is_none(),
                            u64::from(p.found()),
                            solve_digest(p.cover.as_deref(), &p.stats),
                        ));
                    }
                    let answers: Vec<(u64, u64)> = cells.iter().map(|&(_, a, d)| (a, d)).collect();
                    let Some(first) = &first else {
                        first = Some(answers);
                        continue;
                    };
                    for (mode, (&(all_pooled, answer, digest), want)) in
                        cells.iter().zip(first).enumerate()
                    {
                        assert_eq!(answer, want.0, "{ctx} mode {mode}: answer");
                        if all_pooled {
                            assert_eq!(digest, want.1, "{ctx} mode {mode}: digest");
                            pooled += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(pooled > 0, "no solve went through the pool alone");
}
