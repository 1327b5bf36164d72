//! Theorem 2.10: 2-approximate maximum weight matching by running the
//! local-ratio MaxIS algorithms on the line graph.
//!
//! A maximum weight independent set of `L(G)` *is* a maximum weight
//! matching of `G`; and on line graphs the local-ratio accounting
//! improves from Δ to 2, because at most 2 independent line-nodes fit in
//! a line-graph neighborhood (Section 2.4). Running Algorithm 2 gives the
//! randomized `O(MIS(G)·log W)`-round 2-approximation; Algorithm 3 gives
//! the deterministic `O(Δ + log* n)`-round one.
//!
//! Both are executed here on the explicit `L(G)` (the \[Kuh05\]
//! simulation). Their regular traffic is aggregate-shaped (Theorem 2.9:
//! max-tuples and sums), so under the Theorem 2.8 simulation each line
//! round costs 2 physical rounds; the reported `physical_rounds` uses
//! that cost model, and the measured naive congestion (ablation A2)
//! quantifies what Theorem 2.8 saves.

mod grouped;
mod repair;

pub use grouped::{mwm_grouped, mwm_grouped_with, mwm_grouped_with_sharded, GroupedMsg};
pub use repair::{grouped_mwm_repair, MatchingRepairRun};

use congest_graph::{EdgeId, Graph, Matching};
use congest_sim::RunStats;

use crate::maxis::{alg3, Alg2Config};

/// Result of a line-graph local-ratio matching run.
#[derive(Clone, Debug)]
pub struct LrMatchingRun {
    /// The 2-approximate maximum weight matching.
    pub matching: Matching,
    /// Rounds on the line graph.
    pub line_rounds: usize,
    /// Physical rounds under the Theorem 2.8 cost model (2 per line
    /// round).
    pub physical_rounds: usize,
    /// Engine statistics of the line-graph run.
    pub stats: RunStats,
}

fn matching_from_line_outputs(g: &Graph, in_set: impl Iterator<Item = bool>) -> Matching {
    let mut m = Matching::new(g);
    for (i, take) in in_set.enumerate() {
        if take {
            m.insert(g, EdgeId(i as u32));
        }
    }
    augment_to_maximal(g, &mut m);
    m
}

/// Greedily extends `m` with free edges (both endpoints unmatched) in
/// descending weight order (edge id breaks ties), returning how many
/// edges were added. Afterwards `m` is maximal: any edge still free-free
/// was free-free when collected — matchedness only grows — so it would
/// have been inserted when its turn came.
///
/// The local-ratio runs need this because weight exhaustion (`w ≤ 0`)
/// removes edges without matching either endpoint: under non-unit
/// weights a node can lose every incident edge to reductions and end the
/// run unmatched next to another such node. (On unit weights an edge
/// only exhausts when an adjacent edge wins, so the gap never opens.)
/// The pass is a pure function of `(g, m)` — no RNG, no iteration-order
/// dependence — so sequential and parallel executors assemble identical
/// matchings, and it only adds weight, preserving the 2-approximation.
/// In CONGEST terms it is one more maximal-matching phase on the
/// zero-residual subgraph, the same primitive the grouped cycle already
/// runs once per weight layer; it is performed centrally at assembly.
pub fn augment_to_maximal(g: &Graph, m: &mut Matching) -> usize {
    let mut free: Vec<EdgeId> = g
        .edges()
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            !m.is_matched(u) && !m.is_matched(v)
        })
        .collect();
    free.sort_by_key(|&e| (std::cmp::Reverse(g.edge_weight(e)), e));
    let mut added = 0;
    for e in free {
        if m.try_insert(g, e) {
            added += 1;
        }
    }
    added
}

/// Randomized 2-approximate MWM: Algorithm 2 on `L(G)`,
/// `O(MIS(G) · log W)` line rounds (Theorem 2.10).
pub fn mwm_lr_randomized(g: &Graph, cfg: &Alg2Config, seed: u64) -> LrMatchingRun {
    let (lg, _) = g.line_graph();
    let run = crate::maxis::alg2(&lg, cfg, seed);
    let matching = matching_from_line_outputs(
        g,
        (0..lg.num_nodes()).map(|i| {
            run.independent_set
                .contains(congest_graph::NodeId(i as u32))
        }),
    );
    debug_assert!(matching.is_maximal(g), "augmented matching must be maximal");
    LrMatchingRun {
        matching,
        line_rounds: run.rounds,
        physical_rounds: 2 * run.rounds,
        stats: run.stats,
    }
}

/// Deterministic 2-approximate MWM: Algorithm 3 on `L(G)`,
/// `O(Δ_L + log* m)` line rounds with our coloring substitute
/// (Theorem 2.10's deterministic row).
pub fn mwm_lr_deterministic(g: &Graph) -> LrMatchingRun {
    let (lg, _) = g.line_graph();
    let run = alg3(&lg);
    let matching = matching_from_line_outputs(
        g,
        (0..lg.num_nodes()).map(|i| {
            run.independent_set
                .contains(congest_graph::NodeId(i as u32))
        }),
    );
    debug_assert!(matching.is_maximal(g), "augmented matching must be maximal");
    LrMatchingRun {
        matching,
        line_rounds: run.rounds,
        physical_rounds: 2 * run.rounds,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_exact::max_weight_matching_oracle;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Applies a named edge-weight distribution in place; shared by this
    /// module's and `grouped`'s maximality regressions.
    ///
    /// * `unit` — leave the default weight 1 everywhere.
    /// * `uniform` — independent draws from `1..=256`.
    /// * `zipf` — heavy-tailed: weight `max(1, 1024 / (1 + rank))` with
    ///   ranks assigned in a seeded shuffle, so a few edges dominate.
    /// * `adversarial` — exponentially separated powers of two cycling
    ///   with edge id, the worst case for local-ratio weight exhaustion
    ///   (a heavy edge's reduction zeroes whole neighborhoods at once).
    pub(crate) fn apply_weight_distribution(g: &mut Graph, dist: &str, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = g.num_edges();
        match dist {
            "unit" => {}
            "uniform" => {
                for e in 0..m {
                    let w = rng.random_range(1..=256u64);
                    g.set_edge_weight(EdgeId(e as u32), w);
                }
            }
            "zipf" => {
                let mut ranks: Vec<usize> = (0..m).collect();
                for i in (1..ranks.len()).rev() {
                    let j = rng.random_range(0..=i);
                    ranks.swap(i, j);
                }
                for (e, &rank) in ranks.iter().enumerate() {
                    let w = (1024 / (1 + rank as u64)).max(1);
                    g.set_edge_weight(EdgeId(e as u32), w);
                }
            }
            "adversarial" => {
                for e in 0..m {
                    let w = 1u64 << (e % 8);
                    g.set_edge_weight(EdgeId(e as u32), w);
                }
            }
            other => panic!("unknown weight distribution {other}"),
        }
    }

    fn check_two_approx(g: &Graph, m: &Matching, label: &str) {
        assert!(m.is_valid(g), "{label}: invalid matching");
        if let Some(opt) = max_weight_matching_oracle(g) {
            let (alg_w, opt_w) = (m.weight(g), opt.weight(g));
            assert!(
                2 * alg_w >= opt_w,
                "{label}: alg {alg_w} vs opt {opt_w} breaks the 2-approximation"
            );
        }
    }

    #[test]
    fn randomized_two_approximation() {
        let mut rng = SmallRng::seed_from_u64(100);
        for trial in 0..4 {
            let mut g = generators::random_bipartite(10, 10, 0.3, &mut rng);
            generators::randomize_edge_weights(&mut g, 256, &mut rng);
            if g.num_edges() == 0 {
                continue;
            }
            let run = mwm_lr_randomized(&g, &Alg2Config::default(), 900 + trial);
            check_two_approx(&g, &run.matching, &format!("randomized trial {trial}"));
            assert_eq!(run.physical_rounds, 2 * run.line_rounds);
        }
    }

    #[test]
    fn deterministic_two_approximation() {
        let mut rng = SmallRng::seed_from_u64(101);
        for trial in 0..4 {
            let mut g = generators::random_bipartite(9, 9, 0.35, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            if g.num_edges() == 0 {
                continue;
            }
            let run = mwm_lr_deterministic(&g);
            check_two_approx(&g, &run.matching, &format!("deterministic trial {trial}"));
        }
    }

    #[test]
    fn two_approx_on_general_graphs_small() {
        let mut rng = SmallRng::seed_from_u64(102);
        for trial in 0..4 {
            let mut g = generators::gnp(10, 0.35, &mut rng);
            generators::randomize_edge_weights(&mut g, 100, &mut rng);
            if g.num_edges() == 0 || g.num_edges() > 40 {
                continue;
            }
            let run = mwm_lr_randomized(&g, &Alg2Config::default(), 950 + trial);
            check_two_approx(&g, &run.matching, &format!("general trial {trial}"));
        }
    }

    #[test]
    fn heavy_middle_edge_of_weighted_path() {
        let mut b = congest_graph::GraphBuilder::with_nodes(4);
        b.add_weighted_edge(0.into(), 1.into(), 3);
        b.add_weighted_edge(1.into(), 2.into(), 10);
        b.add_weighted_edge(2.into(), 3.into(), 3);
        let g = b.build();
        let run = mwm_lr_deterministic(&g);
        // The local-ratio algorithm reduces via the heavy edge first; 10
        // alone (vs OPT 10... OPT = max(10, 6) = 10) — it must take it.
        assert_eq!(run.matching.weight(&g), 10);
    }

    #[test]
    fn matchings_are_maximal() {
        // Formerly `matchings_are_maximal_on_unit_weights` — the unit-only
        // restriction was the documented caveat for the weight-exhaustion
        // maximality gap. With the augmentation pass the invariant holds
        // on every weight distribution, for both LR drivers.
        for dist in ["unit", "uniform", "zipf", "adversarial"] {
            let mut g = generators::cycle(11);
            apply_weight_distribution(&mut g, dist, 5);
            let run = mwm_lr_randomized(&g, &Alg2Config::default(), 5);
            assert!(
                run.matching.is_maximal(&g),
                "randomized LR matching not maximal under {dist} weights"
            );

            let mut rng = SmallRng::seed_from_u64(53);
            let mut g2 = generators::gnp(18, 0.25, &mut rng);
            apply_weight_distribution(&mut g2, dist, 7);
            let run2 = mwm_lr_deterministic(&g2);
            assert!(
                run2.matching.is_maximal(&g2),
                "deterministic LR matching not maximal under {dist} weights"
            );
        }
    }

    #[test]
    fn augmentation_is_greedy_heaviest_first_and_idempotent() {
        // On a path with all nodes unmatched, the pass must take the
        // heaviest free edge first (weight 9 in the middle), then the
        // remaining free-free edge; a second invocation is a no-op.
        let mut b = congest_graph::GraphBuilder::with_nodes(5);
        b.add_weighted_edge(0.into(), 1.into(), 2);
        b.add_weighted_edge(1.into(), 2.into(), 9);
        b.add_weighted_edge(2.into(), 3.into(), 2);
        b.add_weighted_edge(3.into(), 4.into(), 2);
        let g = b.build();
        let mut m = Matching::new(&g);
        let added = augment_to_maximal(&g, &mut m);
        assert_eq!(added, 2);
        assert_eq!(m.weight(&g), 11, "heaviest-first: 9 then 3–4");
        assert!(m.is_maximal(&g));
        assert_eq!(augment_to_maximal(&g, &mut m), 0, "idempotent");
    }
}
