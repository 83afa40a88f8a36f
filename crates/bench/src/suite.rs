//! The benchmark instance suite.
//!
//! The paper's graphs (DIMACS p_hat complements, KONECT, SNAP, PACE
//! 2019) are replaced by generated stand-ins that preserve the family
//! trait driving search-tree behaviour: density class and degree
//! spread. `Scale::Small` shrinks |V| so the whole suite
//! runs in minutes on a laptop-class host; `Scale::Paper` uses the
//! paper's instance sizes (expect hours, as the paper's Table I did).

use parvc_graph::analysis::{degree_class, DegreeClass};
use parvc_graph::{gen, CsrGraph};

/// Instance scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk instances preserving density class (default).
    Small,
    /// The paper's |V| / densities. Slow by design.
    Paper,
    /// The reduction-heavy regime of arXiv 1509.05870: ≥100k-vertex
    /// sparse instances where per-node search is hopeless and only the
    /// kernelized path (`SolverBuilder::preprocess`) finishes. Used by
    /// the `massive` report; the classic tables are not meaningful at
    /// this scale.
    Massive,
}

/// One benchmark instance.
pub struct Instance {
    /// Stand-in name (mirrors the paper's Table I naming).
    pub name: String,
    /// The paper instance this stands in for.
    pub paper_name: &'static str,
    /// High/low degree category (Table II's split).
    pub class: DegreeClass,
    /// The graph.
    pub graph: CsrGraph,
}

impl Instance {
    fn new(name: &str, paper_name: &'static str, graph: CsrGraph) -> Self {
        Instance {
            name: name.to_string(),
            paper_name,
            class: degree_class(&graph),
            graph,
        }
    }

    /// `|E| / |V|`, as Table I reports.
    pub fn ratio(&self) -> f64 {
        parvc_graph::analysis::edge_vertex_ratio(&self.graph)
    }
}

/// The p_hat-complement sub-suite (Tables I and III, Figure 5's
/// high-degree pick). Sizes by scale; classes 1–3 per size.
pub fn phat_suite(scale: Scale) -> Vec<Instance> {
    let sizes: &[(u32, &[u8])] = match scale {
        Scale::Small => &[(100, &[1, 2, 3]), (150, &[2, 3]), (200, &[2, 3])],
        // Dense p_hat complements have no massive-sparse analogue; the
        // Massive tier reuses the paper sizes so `table3 --scale
        // massive` still means something.
        Scale::Paper | Scale::Massive => &[
            (300, &[1, 2, 3]),
            (500, &[1, 2, 3]),
            (700, &[1, 2]),
            (1000, &[1, 2]),
        ],
    };
    let mut out = Vec::new();
    for &(n, classes) in sizes {
        for &c in classes {
            let seed = 0x9a1 + n as u64 * 10 + c as u64;
            out.push(Instance::new(
                &format!("p_hat_{n}_{c}"),
                phat_paper_name(c),
                gen::p_hat_complement(n, c, seed),
            ));
        }
    }
    out
}

fn phat_paper_name(class: u8) -> &'static str {
    match class {
        1 => "p_hat*-1 (DIMACS, complemented)",
        2 => "p_hat*-2 (DIMACS, complemented)",
        _ => "p_hat*-3 (DIMACS, complemented)",
    }
}

/// The full Table I suite: p_hat complements plus the KONECT / SNAP /
/// PACE stand-ins, high-degree group first (the paper's row order).
pub fn suite(scale: Scale) -> Vec<Instance> {
    if scale == Scale::Massive {
        return massive_suite();
    }
    let mut out = phat_suite(scale);
    match scale {
        Scale::Massive => unreachable!("handled above"),
        Scale::Small => {
            // Parameters and seeds below were tuned with `--bin tune`
            // so each row lands in its paper counterpart's hardness
            // band under the default 5 s budget.
            out.push(Instance::new(
                "movielens_like",
                "movielens-100k_rating (KONECT)",
                gen::bipartite_gnp(100, 250, 0.15, 8),
            ));
            out.push(Instance::new(
                "wiki_link_lo_like",
                "wikipedia_link_lo (KONECT)",
                gen::barabasi_albert(150, 12, 2),
            ));
            out.push(Instance::new(
                "wiki_link_csb_like",
                "wikipedia_link_csb (KONECT)",
                gen::barabasi_albert(130, 12, 2),
            ));
            out.push(Instance::new(
                "power_grid_like",
                "US power grid (KONECT)",
                gen::watts_strogatz(350, 4, 0.15, 6),
            ));
            out.push(Instance::new(
                "lastfm_like",
                "LastFM Asia (SNAP)",
                gen::barabasi_albert(200, 6, 2),
            ));
            out.push(Instance::new(
                "sister_cities_like",
                "Sister Cities (KONECT)",
                gen::sparse_components(260, 22, 0.32, 7),
            ));
            out.push(Instance::new(
                "vc_exact_023_like",
                "vc-exact_023 (PACE 2019)",
                gen::pace_like(170, 7, 4),
            ));
            out.push(Instance::new(
                "vc_exact_009_like",
                "vc-exact_009 (PACE 2019)",
                gen::pace_like(180, 7, 4),
            ));
        }
        Scale::Paper => {
            out.push(Instance::new(
                "movielens_like",
                "movielens-100k_rating (KONECT)",
                gen::bipartite_gnp(943, 1682, 0.061, 0xbee1),
            ));
            out.push(Instance::new(
                "wiki_link_lo_like",
                "wikipedia_link_lo (KONECT)",
                gen::barabasi_albert(3811, 22, 0xbee2),
            ));
            out.push(Instance::new(
                "wiki_link_csb_like",
                "wikipedia_link_csb (KONECT)",
                gen::barabasi_albert(5561, 34, 0xbee3),
            ));
            out.push(Instance::new(
                "power_grid_like",
                "US power grid (KONECT)",
                gen::power_grid_like(4942, 1652, 0xbee4),
            ));
            out.push(Instance::new(
                "lastfm_like",
                "LastFM Asia (SNAP)",
                gen::barabasi_albert(7624, 4, 0xbee5),
            ));
            out.push(Instance::new(
                "sister_cities_like",
                "Sister Cities (KONECT)",
                gen::sparse_components(14275, 1400, 0.3, 0xbee6),
            ));
            out.push(Instance::new(
                "vc_exact_023_like",
                "vc-exact_023 (PACE 2019)",
                gen::pace_like(27718, 1100, 0xbee7),
            ));
            out.push(Instance::new(
                "vc_exact_009_like",
                "vc-exact_009 (PACE 2019)",
                gen::pace_like(38453, 1500, 0xbee8),
            ));
        }
    }
    out
}

/// The `Scale::Massive` tier: sparse generator instances of ≥100k
/// vertices. `massive_ba_tree` is fully kernelizable (the ≥90%
/// elimination family), `massive_components` shatters into thousands
/// of tiny independent sub-searches, and `massive_power_grid` keeps a
/// cyclic 2-core that stresses partial reduction. All three are far
/// beyond the unpreprocessed per-node search (the greedy seed alone is
/// `O(best · |V|)`), and their per-block state exceeds the simulated
/// device's memory, so only the kernelized path completes.
pub fn massive_suite() -> Vec<Instance> {
    vec![
        Instance::new(
            "massive_ba_tree",
            "preferential-attachment tree (reduction-heavy regime)",
            gen::barabasi_albert(150_000, 1, 0xfee1),
        ),
        Instance::new(
            "massive_power_grid",
            "US power grid (KONECT, scaled 24x)",
            gen::power_grid_like(120_000, 18_000, 0xfee2),
        ),
        Instance::new(
            "massive_components",
            "Sister Cities (KONECT, scaled 8x)",
            gen::sparse_components(120_000, 6_000, 0.3, 0xfee3),
        ),
    ]
}

/// Figure 5's two picks: the highest-average-degree instance and the
/// power-grid stand-in (the paper uses p_hat_1000_1 and US power grid).
pub fn fig5_pair(scale: Scale) -> (Instance, Instance) {
    let mut all = suite(scale);
    let grid_at = all
        .iter()
        .position(|i| i.name.contains("power_grid"))
        .expect("suite contains a power-grid stand-in");
    let low = all.remove(grid_at);
    let high = all
        .into_iter()
        .max_by(|a, b| a.ratio().partial_cmp(&b.ratio()).expect("finite ratios"))
        .expect("suite is non-empty");
    (high, low)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_shape() {
        let s = suite(Scale::Small);
        assert_eq!(s.len(), 15);
        // The paper's split: p_hat + dense KONECT are high-degree, the
        // rest low-degree.
        let high = s.iter().filter(|i| i.class == DegreeClass::High).count();
        assert!(high >= 9, "expected ≥9 high-degree instances, got {high}");
        let low = s.len() - high;
        assert!(low >= 5, "expected ≥5 low-degree instances, got {low}");
        for inst in &s {
            inst.graph.validate().unwrap();
            assert!(inst.graph.num_edges() > 0, "{} has no edges", inst.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = suite(Scale::Small);
        let b = suite(Scale::Small);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "{} not deterministic", x.name);
        }
    }

    #[test]
    fn phat_complement_density_classes_ordered() {
        let s = phat_suite(Scale::Small);
        // Within one size, class 1 is densest after complement.
        let d = |i: &Instance| i.ratio();
        assert!(d(&s[0]) > d(&s[1]));
        assert!(d(&s[1]) > d(&s[2]));
    }

    #[test]
    fn massive_suite_is_large_and_sparse() {
        let s = suite(Scale::Massive);
        assert_eq!(s.len(), 3);
        for inst in &s {
            assert!(
                inst.graph.num_vertices() >= 100_000,
                "{} below the Massive floor",
                inst.name
            );
            assert!(
                inst.ratio() < 4.0,
                "{} too dense for the reduction-heavy regime",
                inst.name
            );
            assert!(inst.graph.num_edges() > 0);
        }
        assert!(s.iter().any(|i| i.name == "massive_ba_tree"));
    }

    #[test]
    fn fig5_pair_extremes() {
        let (high, low) = fig5_pair(Scale::Small);
        assert_eq!(high.class, DegreeClass::High);
        assert_eq!(low.class, DegreeClass::Low);
        assert_eq!(low.name, "power_grid_like");
        assert!(high.ratio() > 10.0 * low.ratio());
    }
}
