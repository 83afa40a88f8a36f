//! Layer probes: after a traced pass, the layers that a product call
//! hides (prep, lift, the greedy seed) are called standalone on the
//! same input, each under its own span, so their time and counts can
//! be reported per layer.

use parvc_core::greedy::{greedy_mvc_bounded, greedy_weighted_mvc_bounded};
use parvc_core::shared::Deadline;
use parvc_core::{is_vertex_cover, PrepConfig};
use parvc_graph::CsrGraph;
use parvc_prep::preprocess_traced;

use crate::trace::{PrepSink, Recorder};
use crate::Layers;

/// What a probe measured.
pub struct Probe {
    pub prep_s: f64,
    pub lift_s: f64,
    /// Whether the lifted cover (when one was lifted) covers `g`.
    pub lifted_ok: bool,
}

/// The input a probe calls the layers on.
pub struct Target<'a> {
    pub g: &'a CsrGraph,
    pub weighted: bool,
    /// Whether the product call kernelizes `g`. Only then are prep and
    /// the lift probed, and the seed is taken per kernel component.
    pub prep: bool,
    /// The job's cover, lifted back through the kernel.
    pub cover: Option<&'a [u32]>,
    /// The optimum the seed's gap is measured against.
    pub optimum: Option<u64>,
}

/// One probe of job `id` on `t.g`, under a `probe` root span.
///
/// * `prep.preprocess` times `preprocess_traced`, whose per-rule and
///   split spans land under it through [`PrepSink`] (prep jobs only);
/// * `prep.lift` times `Kernel::lift` of the cover restricted to each
///   kernel component (prep jobs with a cover only);
/// * `seed.greedy` times the greedy seed and records its gap to the
///   optimum (skipped without one).
pub fn probe(rec: &Recorder, id: u64, t: &Target<'_>, layers: &mut Layers) -> Probe {
    let (g, weighted) = (t.g, t.weighted);
    let root = rec.open("probe", id, 0);
    let mut out = Probe {
        prep_s: 0.0,
        lift_s: 0.0,
        lifted_ok: true,
    };
    let kernel = t.prep.then(|| {
        let prep_cfg = PrepConfig {
            weighted,
            ..PrepConfig::default()
        };
        let span = rec.open("prep.preprocess", id, root.id());
        let sink = PrepSink {
            rec,
            job: id,
            parent: span.id(),
        };
        let kernel = preprocess_traced(g, &prep_cfg, &sink);
        out.prep_s = rec.close(span);
        kernel
    });
    if let Some(kernel) = &kernel {
        let st = &kernel.stats;
        layers.add("prep.components", f64::from(st.components));
        layers.add("prep.kernel_vertices", f64::from(st.kernel_vertices));
        layers.add("prep.rounds", f64::from(st.rounds));
        layers.add("prep.original_vertices", f64::from(st.original_vertices));
        layers.add(
            "prep.eliminated",
            f64::from(st.original_vertices - st.kernel_vertices),
        );
        for rule in &st.rules {
            let metric = match rule.name {
                "degree-0/1/2" => "prep.rule.d012.eliminated",
                "crown (LP/NT)" => "prep.rule.crown.eliminated",
                "high-degree" => "prep.rule.highdeg.eliminated",
                _ => continue,
            };
            layers.add(metric, rule.eliminated() as f64);
        }
    }

    if let (Some(kernel), Some(cover)) = (&kernel, t.cover) {
        let mut in_cover = vec![false; g.num_vertices() as usize];
        for &v in cover {
            in_cover[v as usize] = true;
        }
        let subs: Vec<Vec<u32>> = kernel
            .components
            .iter()
            .map(|c| {
                (0..c.old_ids.len() as u32)
                    .filter(|&i| in_cover[c.old_ids[i as usize] as usize])
                    .collect()
            })
            .collect();
        let span = rec.open("prep.lift", id, root.id());
        let lifted = kernel.lift(&subs);
        out.lift_s = rec.close(span);
        out.lifted_ok = is_vertex_cover(g, &lifted);
    }

    if let Some(optimum) = t.optimum {
        let unbounded = Deadline::new(None);
        let greedy = |h: &CsrGraph| {
            if weighted {
                greedy_weighted_mvc_bounded(h, &unbounded).0
            } else {
                u64::from(greedy_mvc_bounded(h, &unbounded).0)
            }
        };
        let span = rec.open("seed.greedy", id, root.id());
        let seed = match &kernel {
            Some(kernel) => {
                let parts: u64 = kernel.components.iter().map(|c| greedy(&c.graph)).sum();
                parts + g.cover_weight(&kernel.trace.forced)
            }
            None => greedy(g),
        };
        rec.close(span);
        layers.add("seed.excess", seed.saturating_sub(optimum) as f64);
        layers.add("seed.optimum", optimum as f64);
    }
    rec.close(root);
    out
}
