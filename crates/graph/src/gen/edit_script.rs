//! Seeded edit-script fuzz generator for the incremental re-solve
//! pipeline.
//!
//! Scripts produced here are the churn workload for
//! `parvc_core::resolve`: mixes of edge/vertex insertions and
//! deletions that always [`EditScript::apply`] cleanly to the graph
//! they were generated against — no duplicate-edge inserts, no
//! missing-edge deletes, no zero-weight vertices — because the
//! generator simulates the evolving edge set op by op.

use std::collections::BTreeSet;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{CsrGraph, Edit, EditScript, VertexId};

/// Among insert ops, the share that append a vertex instead of an
/// edge; among delete ops, the share that isolate a vertex instead of
/// removing a single edge.
const VERTEX_OP_FRAC: f64 = 0.15;

/// Generates a seeded random edit script of exactly `ops` operations
/// against `g`.
///
/// `insert_frac` (clamped to `[0, 1]`) is the probability each op is
/// an insertion; the rest are deletions. Within each side a
/// fixed 15% share targets vertices (append / isolate) and
/// the rest edges. Edge inserts are rejection-sampled against the
/// evolving edge set so they never duplicate; edge deletes pick
/// uniformly among currently-live edges. When a delete is drawn but no
/// edge is live, the op falls back to an insertion (and vice versa
/// when the evolving graph is too dense to find a free slot). Inserted
/// vertices get weight 1 on unweighted graphs and a seeded weight in
/// `1..=10` on weighted ones, so scripts never introduce a zero
/// weight and never promote an unweighted instance to weighted.
///
/// Deterministic: the same `(g, ops, insert_frac, seed)` always yields
/// the same script, and the script always applies cleanly to `g`.
pub fn edit_script(g: &CsrGraph, ops: usize, insert_frac: f64, seed: u64) -> EditScript {
    let insert_frac = insert_frac.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = g.num_vertices();
    let mut live: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut present: BTreeSet<(VertexId, VertexId)> = live.iter().copied().collect();
    let mut script = EditScript::new();

    // Rejection-samples a currently-absent, non-loop edge; None when
    // the evolving graph leaves no free slot within the try budget.
    let sample_free = |rng: &mut StdRng, n: u32, present: &BTreeSet<(VertexId, VertexId)>| {
        if n < 2 {
            return None;
        }
        for _ in 0..64 {
            let u = rng.gen_range(0..n as usize) as VertexId;
            let v = rng.gen_range(0..n as usize) as VertexId;
            if u == v {
                continue;
            }
            let e = (u.min(v), u.max(v));
            if !present.contains(&e) {
                return Some(e);
            }
        }
        None
    };

    for _ in 0..ops {
        let want_insert = rng.gen::<f64>() < insert_frac;
        let vertex_op = rng.gen::<f64>() < VERTEX_OP_FRAC;
        // A delete with nothing to delete falls back to inserting, and
        // an insert below 2 vertices appends a vertex. A vertex insert
        // drawn on a lone vertex deletes it instead, which keeps the
        // scripts these seeds already built on one vertex.
        let insert = (want_insert || live.is_empty()) && !(want_insert && vertex_op && n == 1);
        let op = if insert {
            if vertex_op || n < 2 {
                let weight = if g.is_weighted() {
                    rng.gen_range(1u64..=10)
                } else {
                    1
                };
                n += 1;
                Edit::InsertVertex { weight }
            } else {
                match sample_free(&mut rng, n, &present) {
                    Some(e) => {
                        present.insert(e);
                        live.push(e);
                        Edit::InsertEdge(e.0, e.1)
                    }
                    None => {
                        // Dense fallback: delete a random live edge.
                        let i = rng.gen_range(0..live.len());
                        let e = live.swap_remove(i);
                        present.remove(&e);
                        Edit::DeleteEdge(e.0, e.1)
                    }
                }
            }
        } else if vertex_op {
            let v = rng.gen_range(0..n as usize) as VertexId;
            live.retain(|&(a, b)| a != v && b != v);
            present.retain(|&(a, b)| a != v && b != v);
            Edit::DeleteVertex(v)
        } else {
            let i = rng.gen_range(0..live.len());
            let e = live.swap_remove(i);
            present.remove(&e);
            Edit::DeleteEdge(e.0, e.1)
        };
        script.push(op);
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn scripts_apply_cleanly_across_seeds_and_mixes() {
        let graphs = [
            gen::gnp(30, 0.15, 3),
            gen::barabasi_albert(40, 2, 5),
            gen::grid2d(5, 5),
            gen::sparse_components(48, 8, 0.5, 9),
            gen::path(0),
            gen::path(1),
        ];
        for g in &graphs {
            for seed in 0..8u64 {
                for frac in [0.0, 0.3, 0.5, 0.8, 1.0] {
                    let s = edit_script(g, 20, frac, seed);
                    assert_eq!(s.len(), 20, "exact op count");
                    let h = s.apply(g).unwrap_or_else(|e| {
                        panic!("seed {seed} frac {frac}: script must apply cleanly: {e}")
                    });
                    h.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = gen::gnp(25, 0.2, 7);
        let a = edit_script(&g, 30, 0.5, 42);
        let b = edit_script(&g, 30, 0.5, 42);
        assert_eq!(a, b);
        let c = edit_script(&g, 30, 0.5, 43);
        assert_ne!(a, c, "different seed, different script");
    }

    #[test]
    fn insert_frac_extremes_shape_the_mix() {
        let g = gen::gnp(30, 0.3, 1);
        let all_ins = edit_script(&g, 25, 1.0, 5);
        assert!(all_ins
            .ops()
            .iter()
            .all(|op| matches!(op, Edit::InsertEdge(..) | Edit::InsertVertex { .. })));
        // frac = 0.0 deletes while live edges last (gnp(30, .3) has
        // far more than 25 edges, so no fallback inserts fire).
        let all_del = edit_script(&g, 25, 0.0, 5);
        assert!(all_del
            .ops()
            .iter()
            .all(|op| matches!(op, Edit::DeleteEdge(..) | Edit::DeleteVertex(..))));
    }

    #[test]
    fn weights_follow_the_base_graph_channel() {
        let unweighted = gen::gnp(20, 0.2, 2);
        let s = edit_script(&unweighted, 40, 0.9, 3);
        for op in s.ops() {
            if let Edit::InsertVertex { weight } = op {
                assert_eq!(*weight, 1, "unweighted graphs stay unweighted");
            }
        }
        assert!(!s.apply(&unweighted).unwrap().is_weighted());

        let weighted = gen::with_uniform_weights(gen::gnp(20, 0.2, 2), 9, 4);
        let sw = edit_script(&weighted, 40, 0.9, 3);
        let mut saw_vertex_insert = false;
        for op in sw.ops() {
            if let Edit::InsertVertex { weight } = op {
                saw_vertex_insert = true;
                assert!((1..=10).contains(weight), "weights stay in 1..=10");
            }
        }
        assert!(
            saw_vertex_insert,
            "0.9 insert frac over 40 ops appends vertices"
        );
        assert!(sw.apply(&weighted).unwrap().is_weighted());
    }

    #[test]
    fn dense_graph_falls_back_instead_of_stalling() {
        // K6: no free edge slot, so pure-insert edge draws must fall
        // back to deletes rather than duplicate an edge.
        let g = gen::complete(6);
        for seed in 0..6u64 {
            let s = edit_script(&g, 15, 1.0, seed);
            s.apply(&g).unwrap();
        }
    }
}
