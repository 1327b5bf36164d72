//! The composed deterministic coloring pipeline: Linial (`O(log* n)`
//! rounds, to `O(Δ²)` colors) followed by Kuhn–Wattenhofer reduction
//! (`O(Δ log Δ)` rounds, to `Δ+1` colors).
//!
//! This is the workspace's stand-in for the `O(Δ + log* n)` coloring of
//! \[BEK14, Bar15\] that the paper's Algorithm 3 cites; see DESIGN.md for
//! the substitution rationale.

use std::sync::Arc;

use congest_graph::Graph;
use congest_sim::{run_protocol, RunStats, SimConfig};

use crate::{linial_schedule, KwReduction, LinialColoring, LinialStep};

/// Result of a composed coloring run.
#[derive(Clone, Debug)]
pub struct ColoringRun {
    /// Per-node colors in `[0, Δ+1)`.
    pub colors: Vec<usize>,
    /// Total communication rounds across both stages.
    pub rounds: usize,
    /// Rounds spent in the Linial stage (the `O(log* n)` term).
    pub linial_rounds: usize,
    /// Rounds spent in the reduction stage (the `O(Δ log Δ)` term).
    pub reduction_rounds: usize,
    /// Merged message statistics.
    pub stats: RunStats,
}

/// Runs Linial + KW reduction and returns a proper `(Δ+1)`-coloring.
///
/// Both stages are deterministic, so no seed is taken.
///
/// # Panics
/// Panics if either stage fails to complete within the engine's round cap
/// (cannot happen: both schedules are finite and known in advance).
pub fn deterministic_delta_plus_one(g: &Graph) -> ColoringRun {
    let schedule: Arc<[LinialStep]> = linial_schedule(g.num_nodes(), g.max_degree()).into();
    let after_linial = LinialColoring::final_colors(g.num_nodes(), &schedule);

    let linial = run_protocol(
        g,
        SimConfig::congest_for(g),
        |_| LinialColoring::new(Arc::clone(&schedule)),
        0,
    );
    assert!(linial.completed, "Linial stage must complete");
    let linial_stats = linial.stats.clone();
    let intermediate = linial.into_outputs();

    let reduction = run_protocol(
        g,
        SimConfig::congest_for(g),
        |info| KwReduction::new(intermediate[info.id.index()], after_linial),
        0,
    );
    assert!(reduction.completed, "KW reduction stage must complete");
    let reduction_stats = reduction.stats.clone();
    let colors = reduction.into_outputs();

    ColoringRun {
        colors,
        rounds: linial_stats.rounds + reduction_stats.rounds,
        linial_rounds: linial_stats.rounds,
        reduction_rounds: reduction_stats.rounds,
        stats: RunStats {
            rounds: linial_stats.rounds + reduction_stats.rounds,
            total_messages: linial_stats.total_messages + reduction_stats.total_messages,
            max_message_bits: linial_stats
                .max_message_bits
                .max(reduction_stats.max_message_bits),
            budget_violations: linial_stats.budget_violations + reduction_stats.budget_violations,
            dropped_messages: linial_stats.dropped_messages + reduction_stats.dropped_messages,
            adversary_dropped_messages: linial_stats.adversary_dropped_messages
                + reduction_stats.adversary_dropped_messages,
            crashed_nodes: linial_stats.crashed_nodes + reduction_stats.crashed_nodes,
            delayed_messages: linial_stats.delayed_messages + reduction_stats.delayed_messages,
            duplicated_messages: linial_stats.duplicated_messages
                + reduction_stats.duplicated_messages,
            corrupted_messages: linial_stats.corrupted_messages
                + reduction_stats.corrupted_messages,
            restarted_nodes: linial_stats.restarted_nodes + reduction_stats.restarted_nodes,
            edges_flipped: linial_stats.edges_flipped + reduction_stats.edges_flipped,
            nodes_joined: linial_stats.nodes_joined + reduction_stats.nodes_joined,
            nodes_left: linial_stats.nodes_left + reduction_stats.nodes_left,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{num_colors, verify_coloring};
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pipeline_produces_delta_plus_one_coloring() {
        let mut rng = SmallRng::seed_from_u64(31);
        let graphs = [
            generators::path(128),
            generators::cycle(99),
            generators::gnp(150, 0.05, &mut rng),
            generators::random_regular(100, 6, &mut rng),
            generators::complete(10),
            generators::star(50),
            generators::grid(10, 10),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let run = deterministic_delta_plus_one(g);
            verify_coloring(g, &run.colors, g.max_degree() + 1)
                .unwrap_or_else(|e| panic!("graph {i}: {e}"));
            assert!(num_colors(&run.colors) <= g.max_degree() + 1);
            assert_eq!(run.rounds, run.linial_rounds + run.reduction_rounds);
            assert_eq!(run.stats.budget_violations, 0, "graph {i} violates CONGEST");
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = generators::gnp(80, 0.1, &mut rng);
        let a = deterministic_delta_plus_one(&g);
        let b = deterministic_delta_plus_one(&g);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn round_split_matches_structure() {
        // A long path: Linial should take O(log* n) ≈ few rounds, the
        // reduction O(Δ log Δ) ≈ small; total far below n.
        let g = generators::path(5000);
        let run = deterministic_delta_plus_one(&g);
        assert!(
            run.linial_rounds <= 8,
            "log* n rounds expected, got {}",
            run.linial_rounds
        );
        assert!(
            run.reduction_rounds <= 60,
            "Δ log Δ rounds expected, got {}",
            run.reduction_rounds
        );
    }
}
