//! Incremental MIS repair for dynamic graphs.
//!
//! Given a valid MIS for a prior graph and the [`DeltaSet`] separating it
//! from the current graph, [`luby_repair`] re-decides only the damaged
//! region instead of recomputing from scratch: nodes invalidated by the
//! deltas are marked [`MisResult::Undecided`], the frontier rule restores
//! local consistency in one `O(n + m)` pass, and [`LubyMis`] runs on the
//! induced subgraph of the remaining undecided nodes. Rounds are paid only
//! on that subgraph, so repair cost is proportional to the damage, while
//! the merged result satisfies the same [`verify_mis`](crate::verify_mis)
//! oracle as a from-scratch run.
//!
//! Damage marking, step by step:
//!
//! 1. slots beyond the prior solution (new nodes) start `Undecided`;
//! 2. joined and departed slots are reset to `Undecided` — a departed
//!    slot is an isolated dead slot in the compacted graph and will
//!    re-enter the set vacuously, which is exactly what the MIS oracle
//!    requires of isolated nodes;
//! 3. every inserted edge whose endpoints are both `InSet` demotes *both*
//!    endpoints (deciding the conflict locally would bias the
//!    distribution; re-running Luby on the pair is seed-deterministic);
//! 4. one uniform frontier pass: with the surviving `InSet` nodes final,
//!    every other node is `Dominated` iff it has an `InSet` neighbor in
//!    the *current* graph, else `Undecided`. This simultaneously clears
//!    stale domination (removed edges, departed dominators) and fences
//!    the undecided region off from the surviving independent set — no
//!    undecided node is adjacent to an `InSet` node, so the subgraph MIS
//!    merges back without conflicts.

use congest_graph::{DeltaSet, Graph, NodeId};
use congest_sim::{run_protocol, RunStats, SimConfig};

use crate::{LubyMis, MisResult};

/// Outcome of an incremental repair: the merged per-node results plus the
/// cost actually paid on the damaged region.
#[derive(Clone, Debug)]
pub struct RepairRun {
    /// Merged per-node results for the current graph; passes
    /// [`verify_mis`](crate::verify_mis) whenever the repair run
    /// completed.
    pub results: Vec<MisResult>,
    /// Rounds spent re-deciding the damaged region (0 if the deltas left
    /// the prior solution intact).
    pub rounds: usize,
    /// Number of nodes that had to be re-decided.
    pub repaired: usize,
    /// Engine statistics of the subgraph run (`RunStats::default()` if no
    /// run was needed).
    pub stats: RunStats,
}

/// Repairs a prior Luby MIS after the graph changed by `deltas`.
///
/// `g` is the *current* graph (e.g. [`DeltaGraph::compact`]
/// (congest_graph::DeltaGraph::compact) of the mutated overlay), `prior`
/// the per-node results valid for the pre-delta graph, and `deltas` the
/// log separating the two (e.g. [`DeltaGraph::take_log`]
/// (congest_graph::DeltaGraph::take_log)). `parallel` runs the repair on
/// [`SimConfig::threads`]' default (the host's threads), `false` on one
/// thread; results are bit-identical for the same seed.
///
/// # Panics
///
/// Panics if `prior` is longer than the graph's slot space or any delta
/// id is out of range — the panic message names the offending argument.
pub fn luby_repair(
    g: &Graph,
    prior: &[MisResult],
    deltas: &DeltaSet,
    seed: u64,
    parallel: bool,
) -> RepairRun {
    let n = g.num_nodes();
    assert!(
        prior.len() <= n,
        "luby_repair: prior has {} results but the graph has only {} slots",
        prior.len(),
        n
    );
    let check = |v: NodeId, what: &str| {
        assert!(
            v.index() < n,
            "luby_repair: deltas.{what} names node {} out of range (slots 0..{n})",
            v.index()
        );
    };
    for &(u, v) in &deltas.inserted {
        check(u, "inserted");
        check(v, "inserted");
    }
    for &(u, v) in &deltas.removed {
        check(u, "removed");
        check(v, "removed");
    }
    for &v in &deltas.joined {
        check(v, "joined");
    }
    for &v in &deltas.left {
        check(v, "left");
    }

    // Steps 1–2: slots invalidated wholesale.
    let mut results = vec![MisResult::Undecided; n];
    results[..prior.len()].copy_from_slice(prior);
    for &v in deltas.joined.iter().chain(&deltas.left) {
        results[v.index()] = MisResult::Undecided;
    }
    // Step 3: inserted edges may join two set members; demote both.
    for &(u, v) in &deltas.inserted {
        if results[u.index()] == MisResult::InSet && results[v.index()] == MisResult::InSet {
            results[u.index()] = MisResult::Undecided;
            results[v.index()] = MisResult::Undecided;
        }
    }
    // Step 4: the frontier pass. The InSet population is now final, so
    // domination can be recomputed in one sweep over the current graph.
    let mut undecided = vec![false; n];
    let mut repaired = 0usize;
    for v in g.nodes() {
        if results[v.index()] == MisResult::InSet {
            continue;
        }
        let dominated = g
            .neighbor_ids(v)
            .iter()
            .any(|&u| results[u.index()] == MisResult::InSet);
        results[v.index()] = if dominated {
            MisResult::Dominated
        } else {
            undecided[v.index()] = true;
            repaired += 1;
            MisResult::Undecided
        };
    }

    if repaired == 0 {
        return RepairRun {
            results,
            rounds: 0,
            repaired,
            stats: RunStats::default(),
        };
    }

    // Re-decide the damaged region. No undecided node touches an InSet
    // node (the frontier pass would have dominated it), so the subgraph
    // MIS merges back conflict-free, and its maximality plus the frontier
    // invariant give maximality of the union.
    let (sub, old_of_new) = g.induced_subgraph(&undecided);
    if sub.num_edges() == 0 {
        // Every undecided node is isolated among the undecided — the
        // common shape when churn fully departs a region (departed slots
        // keep no edges) — so each joins the set by definition, without
        // an engine spin-up. Keeps fully-departed graphs zero-cost for
        // the serving layer.
        for &old in &old_of_new {
            results[old.index()] = MisResult::InSet;
        }
        return RepairRun {
            results,
            rounds: 0,
            repaired,
            stats: RunStats::default(),
        };
    }
    let config = SimConfig::congest_for(&sub);
    let config = if parallel {
        config
    } else {
        config.with_threads(1)
    };
    let outcome = run_protocol(&sub, config, |_| LubyMis::new(), seed);
    let rounds = outcome.stats.rounds;
    let stats = outcome.stats.clone();
    for (new, out) in outcome.outputs.iter().enumerate() {
        let decided = out.unwrap_or(MisResult::Undecided);
        results[old_of_new[new].index()] = decided;
    }
    RepairRun {
        results,
        rounds,
        repaired,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_mis;
    use congest_graph::{generators, DeltaGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fresh_mis(g: &Graph, seed: u64) -> (Vec<MisResult>, usize) {
        let outcome = run_protocol(g, SimConfig::congest_for(g), |_| LubyMis::new(), seed);
        assert!(outcome.completed, "Luby must complete on a static graph");
        let rounds = outcome.stats.rounds;
        (outcome.into_outputs(), rounds)
    }

    #[test]
    fn empty_delta_repairs_in_zero_rounds() {
        let mut rng = SmallRng::seed_from_u64(200);
        let g = generators::gnp(120, 0.05, &mut rng);
        let (prior, _) = fresh_mis(&g, 5);
        let run = luby_repair(&g, &prior, &DeltaSet::default(), 6, false);
        assert_eq!(run.rounds, 0);
        assert_eq!(run.repaired, 0);
        assert_eq!(run.results, prior);
    }

    #[test]
    fn repair_after_edge_flips_is_oracle_valid_and_cheaper() {
        let mut rng = SmallRng::seed_from_u64(201);
        for trial in 0..4u64 {
            let base = generators::gnp(400, 0.01, &mut rng);
            let (prior, fresh_rounds) = fresh_mis(&base, 30 + trial);
            let mut dg = DeltaGraph::new(base.clone());
            // Flip 8 seeded pairs: remove existing edges, insert missing.
            let mut pair_rng = SmallRng::seed_from_u64(900 + trial);
            for _ in 0..8 {
                let u = NodeId::from(rand::Rng::random_range(&mut pair_rng, 0..400u32));
                let v = NodeId::from(rand::Rng::random_range(&mut pair_rng, 0..400u32));
                if u == v {
                    continue;
                }
                if dg.has_edge(u, v) {
                    dg.remove_edge(u, v);
                } else {
                    dg.insert_edge(u, v, 1);
                }
            }
            let deltas = dg.take_log();
            let g2 = dg.compact();
            let run = luby_repair(&g2, &prior, &deltas, 40 + trial, false);
            verify_mis(&g2, &run.results).expect("repair must satisfy the MIS oracle");
            assert!(
                run.repaired <= 8 * 2 + deltas.touched_nodes().len() * 8,
                "trial {trial}: damage region exploded ({} repaired)",
                run.repaired
            );
            assert!(
                run.rounds <= fresh_rounds,
                "trial {trial}: repair took {} rounds, fresh run {}",
                run.rounds,
                fresh_rounds
            );
        }
    }

    #[test]
    fn repair_handles_joins_and_leaves() {
        let mut rng = SmallRng::seed_from_u64(202);
        let base = generators::gnp(200, 0.03, &mut rng);
        let (prior, _) = fresh_mis(&base, 7);
        let mut dg = DeltaGraph::new(base);
        dg.remove_node(NodeId::from(3u32));
        dg.remove_node(NodeId::from(77u32));
        let a = dg.add_node(1);
        let b = dg.add_node(1);
        dg.insert_edge(a, b, 1);
        dg.insert_edge(a, NodeId::from(10u32), 1);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let run = luby_repair(&g2, &prior, &deltas, 8, false);
        verify_mis(&g2, &run.results).expect("repair with churn must satisfy the MIS oracle");
        assert!(run.repaired > 0);
    }

    #[test]
    fn repair_is_executor_independent() {
        let mut rng = SmallRng::seed_from_u64(203);
        let base = generators::gnp(300, 0.015, &mut rng);
        let (prior, _) = fresh_mis(&base, 9);
        let mut dg = DeltaGraph::new(base);
        for v in 1..30u32 {
            let u = NodeId::from(0u32);
            let v = NodeId::from(v);
            if dg.has_edge(u, v) {
                dg.remove_edge(u, v);
            } else {
                dg.insert_edge(u, v, 1);
            }
        }
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let seq = luby_repair(&g2, &prior, &deltas, 11, false);
        let par = luby_repair(&g2, &prior, &deltas, 11, true);
        assert_eq!(seq.results, par.results, "executors must agree bit-for-bit");
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn departed_slots_reenter_as_isolated_set_members() {
        let base = generators::path(6);
        let (prior, _) = fresh_mis(&base, 3);
        let mut dg = DeltaGraph::new(base);
        dg.remove_node(NodeId::from(2u32));
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let run = luby_repair(&g2, &prior, &deltas, 4, false);
        verify_mis(&g2, &run.results).expect("repair must satisfy the MIS oracle");
        assert_eq!(
            run.results[2],
            MisResult::InSet,
            "an isolated dead slot must re-enter the set vacuously"
        );
    }

    #[test]
    fn repair_survives_fully_departed_graph_without_an_engine_run() {
        // Saturation churn can remove *every* node; the compacted graph
        // is all isolated slots. Repair must serve this without spinning
        // up an engine (the damaged region has no edges): every slot
        // re-enters the set vacuously, in zero rounds.
        let mut rng = SmallRng::seed_from_u64(204);
        let base = generators::gnp(24, 0.2, &mut rng);
        let n = base.num_nodes();
        let (prior, _) = fresh_mis(&base, 13);
        let mut dg = DeltaGraph::new(base);
        for v in 0..n as u32 {
            dg.remove_node(NodeId::from(v));
        }
        assert_eq!(dg.num_live_nodes(), 0);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        assert_eq!(g2.num_edges(), 0);
        let run = luby_repair(&g2, &prior, &deltas, 14, false);
        verify_mis(&g2, &run.results).expect("repair must satisfy the MIS oracle");
        assert_eq!(run.rounds, 0, "edgeless damage must not cost engine rounds");
        assert_eq!(run.stats, congest_sim::RunStats::default());
        assert!(run.results.iter().all(|&r| r == MisResult::InSet));
        // Executor choice is immaterial on the engine-free path.
        let par = luby_repair(&g2, &prior, &deltas, 14, true);
        assert_eq!(par.results, run.results);
    }

    #[test]
    fn repair_survives_zero_slot_graph() {
        let g0 = congest_graph::GraphBuilder::new().build();
        let run = luby_repair(&g0, &[], &DeltaSet::default(), 1, false);
        assert!(run.results.is_empty());
        assert_eq!(run.rounds, 0);
        assert_eq!(run.repaired, 0);
    }

    #[test]
    #[should_panic(expected = "luby_repair: prior has 7 results but the graph has only 6 slots")]
    fn oversized_prior_is_rejected() {
        let g = generators::path(6);
        let prior = vec![MisResult::Undecided; 7];
        luby_repair(&g, &prior, &DeltaSet::default(), 1, false);
    }

    #[test]
    #[should_panic(expected = "luby_repair: deltas.inserted names node 9 out of range")]
    fn out_of_range_delta_is_rejected() {
        let g = generators::path(4);
        let deltas = DeltaSet {
            inserted: vec![(NodeId::from(0u32), NodeId::from(9u32))],
            ..DeltaSet::default()
        };
        luby_repair(&g, &[], &deltas, 1, false);
    }
}
