//! Churn sweep: **protocol × churn-axis × intensity** grid plus the
//! repair-vs-recompute acceptance rows.
//!
//! The degradation grid stresses *delivery* faults; this module stresses
//! the *topology itself*. Each grid cell does two things:
//!
//! 1. **Mid-run churn** — runs the protocol with a seeded churn
//!    adversary (edge flips, node joins, node leaves) and asserts the
//!    schedule replays bit-identically, the sequential and parallel
//!    executors agree, and the churn counters are consistent with the
//!    enabled knobs. Completion and safety under churn are *recorded*:
//!    a node that departs after a neighbor halted can legitimately
//!    re-decide against it.
//! 2. **Repair probe** — applies a seeded batch of [`DeltaGraph`]
//!    mutations matching the axis (edge flips / node joins / node
//!    leaves), asserts the overlay-vs-compacted fingerprint contract,
//!    and for the protocols with an incremental variant
//!    ([`luby_repair`], [`grouped_mwm_repair`]) repairs the prior
//!    solution, asserts it passes the same oracle as a from-scratch run,
//!    and records repair rounds against recompute rounds.
//!
//! The acceptance rows scale the repair probe to gnp-10k with
//! `k ∈ {16, 64, 256}` edge flips and **assert** the PR's acceptance
//! criterion: repair is oracle-valid, bit-identical across executors,
//! and strictly cheaper in rounds than recomputing from scratch.

use congest_approx::matching::{grouped_mwm_repair, mwm_grouped, mwm_grouped_with};
use congest_approx::maxis::{alg2_with, Alg2Config};
use congest_bench::ledger::{json_object, json_str};
use congest_graph::{generators, DeltaGraph, Graph, NodeId};
use congest_mis::{luby_repair, verify_mis, GhaffariMis, LubyMis, MisResult};
use congest_sim::{run_protocol, Adversary, RunStats, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{build_graph, run_mis_both, topologies, ProtocolKind, Topology, Weighting};

/// One axis of the churn model. Each axis turns exactly one topology
/// knob so the ledger isolates which *kind* of dynamism each protocol
/// tolerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnAxis {
    /// Edges go down and come back, per round (`edge_flip_prob`).
    Flip,
    /// Departed nodes rejoin factory-fresh (`node_join_prob`, with a
    /// small fixed leave rate so there is someone to rejoin).
    Join,
    /// Nodes depart silently (`node_leave_prob`).
    Leave,
}

/// All three axes, in ledger order.
pub const CHURN_AXES: [ChurnAxis; 3] = [ChurnAxis::Flip, ChurnAxis::Join, ChurnAxis::Leave];

/// Intensity labels, in increasing dose order (shared with the
/// degradation grid).
pub const CHURN_LEVELS: [&str; 3] = ["low", "medium", "high"];

/// Leave rate paired with the [`ChurnAxis::Join`] doses: joins only fire
/// on departed slots, so the join axis needs a steady trickle of
/// departures to act on.
pub const JOIN_AXIS_LEAVE_RATE: f64 = 0.05;

impl ChurnAxis {
    /// Ledger name.
    pub fn name(self) -> &'static str {
        match self {
            ChurnAxis::Flip => "flip",
            ChurnAxis::Join => "join",
            ChurnAxis::Leave => "leave",
        }
    }

    /// The per-round probability dose at intensity `level` (0..3).
    pub fn dose(self, level: usize) -> f64 {
        match self {
            ChurnAxis::Flip => [0.01, 0.05, 0.15][level],
            ChurnAxis::Join => [0.2, 0.5, 0.9][level],
            // Leave doses stay small: departures are permanent on this
            // axis, and the point is churn, not extinction.
            ChurnAxis::Leave => [0.02, 0.05, 0.1][level],
        }
    }

    /// The churn adversary of one (axis, level) cell.
    pub fn plan(self, level: usize, seed: u64) -> Adversary {
        let dose = self.dose(level);
        match self {
            ChurnAxis::Flip => Adversary::edge_flips(dose, seed),
            ChurnAxis::Join => Adversary::node_churn(dose, JOIN_AXIS_LEAVE_RATE, seed),
            ChurnAxis::Leave => Adversary::node_churn(0.0, dose, seed),
        }
    }

    /// Number of [`DeltaGraph`] mutations the repair probe applies at
    /// intensity `level` on the small grid topologies.
    pub fn probe_deltas(self, level: usize) -> usize {
        [2, 4, 8][level]
    }
}

/// The protocols swept by the churn grid — the same four as the
/// degradation grid ([`crate::degradation::DEGRADATION_PROTOCOLS`]):
/// every one has a fault-tolerant assembly or per-node
/// decide-or-stay-silent outputs.
pub const CHURN_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::LubyMis,
    ProtocolKind::GhaffariMis,
    ProtocolKind::GroupedMwm,
    ProtocolKind::MaxIsAlg2,
];

/// One record of the churn ledger — a grid cell or an acceptance row.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// `"grid"` or `"acceptance"`.
    pub kind: &'static str,
    /// Protocol ledger name.
    pub protocol: &'static str,
    /// Graph family of the cell.
    pub family: String,
    /// Human-readable generator parameters.
    pub param: String,
    /// Generator seed.
    pub graph_seed: u64,
    /// Churn axis name (`flip`/`join`/`leave`; `repair` for acceptance
    /// rows, which mutate once instead of churning per round).
    pub axis: &'static str,
    /// Intensity label (`low`/`medium`/`high`; `k=<flips>` for
    /// acceptance rows).
    pub intensity: String,
    /// Numeric dose behind the label: a per-round probability for grid
    /// cells, the delta count for acceptance rows.
    pub dose: f64,
    /// The injected churn adversary (`None` for acceptance rows).
    pub adversary: Option<Adversary>,
    /// Every node halted normally in the churn run.
    pub completed: bool,
    /// Protocol-specific safety of the churn run: independence among
    /// decided in-set nodes (MIS/MaxIS), matching validity (grouped;
    /// also asserted).
    pub safety_ok: bool,
    /// Rounds of the churn run (grid) or the repair run (acceptance).
    pub rounds: usize,
    /// The cap the runs were bounded by.
    pub round_cap: usize,
    /// Number of [`DeltaGraph`] mutations the repair probe applied.
    pub deltas: usize,
    /// Nodes the repair re-decided (0 for protocols without a repair
    /// variant).
    pub repaired: usize,
    /// Rounds the incremental repair paid.
    pub repair_rounds: usize,
    /// Rounds a from-scratch recompute paid on the same mutated graph.
    pub recompute_rounds: usize,
    /// `repair_rounds < recompute_rounds` — asserted on acceptance
    /// rows, recorded on grid cells (on 16-node graphs a fixed 4-round
    /// matching cycle can tie the recompute).
    pub repair_cheaper: bool,
    /// Overlay fingerprint == compacted fingerprint (always asserted;
    /// recorded for the ledger's sake).
    pub fingerprint_ok: bool,
    /// Engine statistics of the (sequential) churn run; for acceptance
    /// rows, of the repair run.
    pub stats: RunStats,
}

impl ChurnReport {
    /// Renders the record for the `CHURN_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(&self.family)),
            ("param", json_str(&self.param)),
            ("seed", self.graph_seed.to_string()),
        ]);
        let adversary = match &self.adversary {
            None => "null".to_string(),
            Some(a) => json_object(&[
                ("edge_flip_prob", format!("{}", a.edge_flip_prob)),
                ("node_join_prob", format!("{}", a.node_join_prob)),
                ("node_leave_prob", format!("{}", a.node_leave_prob)),
                ("seed", a.seed.to_string()),
            ]),
        };
        let counters = json_object(&[
            ("edges_flipped", self.stats.edges_flipped.to_string()),
            ("nodes_joined", self.stats.nodes_joined.to_string()),
            ("nodes_left", self.stats.nodes_left.to_string()),
            (
                "adversary_dropped",
                self.stats.adversary_dropped_messages.to_string(),
            ),
        ]);
        let repair = json_object(&[
            ("deltas", self.deltas.to_string()),
            ("repaired", self.repaired.to_string()),
            ("repair_rounds", self.repair_rounds.to_string()),
            ("recompute_rounds", self.recompute_rounds.to_string()),
            ("repair_cheaper", self.repair_cheaper.to_string()),
            ("fingerprint_ok", self.fingerprint_ok.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("churn")),
            ("kind", json_str(self.kind)),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("axis", json_str(self.axis)),
            ("intensity", json_str(&self.intensity)),
            ("dose", format!("{}", self.dose)),
            ("adversary", adversary),
            ("completed", self.completed.to_string()),
            ("safety_ok", self.safety_ok.to_string()),
            ("rounds", self.rounds.to_string()),
            ("round_cap", self.round_cap.to_string()),
            ("counters", counters),
            ("repair", repair),
        ])
    }
}

/// Applies `k` axis-shaped mutations to the overlay: edge flips
/// (remove-if-present-else-insert on seeded pairs), node joins (each new
/// node wired to two seeded existing nodes), or node departures
/// (distinct seeded victims).
fn apply_probe_deltas(dg: &mut DeltaGraph, axis: ChurnAxis, k: usize, n: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match axis {
        ChurnAxis::Flip => {
            for _ in 0..k {
                let u = NodeId::from(rng.random_range(0..n as u32));
                let v = NodeId::from(rng.random_range(0..n as u32));
                if u == v {
                    continue;
                }
                if dg.has_edge(u, v) {
                    dg.remove_edge(u, v);
                } else {
                    dg.insert_edge(u, v, rng.random_range(1..=8));
                }
            }
        }
        ChurnAxis::Join => {
            for _ in 0..k {
                let a = dg.add_node(1);
                let u = NodeId::from(rng.random_range(0..n as u32));
                let v = NodeId::from(rng.random_range(0..n as u32));
                dg.insert_edge(a, u, rng.random_range(1..=8));
                if v != u {
                    dg.insert_edge(a, v, rng.random_range(1..=8));
                }
            }
        }
        ChurnAxis::Leave => {
            // Distinct victims via a partial Fisher–Yates shuffle; cap at
            // half the graph so the probe damages, not depopulates.
            let kept = k.min(n / 2);
            let mut victims: Vec<u32> = (0..n as u32).collect();
            for i in 0..kept {
                let j = rng.random_range(i..n);
                victims.swap(i, j);
            }
            for &v in victims.iter().take(kept) {
                dg.remove_node(NodeId::from(v));
            }
        }
    }
}

/// The repair probe of one cell: mutate a clean copy of `g`, check the
/// fingerprint contract, and for the repairable protocols compare an
/// incremental repair against a from-scratch recompute on the mutated
/// graph. Returns `(deltas, repaired, repair_rounds, recompute_rounds,
/// repair_stats)`.
fn repair_probe(
    kind: ProtocolKind,
    g: &Graph,
    axis: ChurnAxis,
    k: usize,
    seed: u64,
) -> (usize, usize, usize, usize, RunStats) {
    let n = g.num_nodes();
    let mut dg = DeltaGraph::new(g.clone());
    apply_probe_deltas(&mut dg, axis, k, n, seed);
    let deltas = dg.take_log();
    let overlay_fp = dg.fingerprint();
    let g2 = dg.compact();
    assert_eq!(
        overlay_fp,
        g2.fingerprint(),
        "fingerprint contract: overlay reads must equal compacted reads"
    );
    let applied = deltas.len();

    match kind {
        ProtocolKind::LubyMis => {
            let fresh = run_protocol(g, SimConfig::congest_for(g), |_| LubyMis::new(), 11);
            assert!(fresh.completed, "clean Luby run must complete");
            let prior = fresh.into_outputs();
            let seq = luby_repair(&g2, &prior, &deltas, 13, false);
            let par = luby_repair(&g2, &prior, &deltas, 13, true);
            assert_eq!(
                seq.results, par.results,
                "repair must be executor-independent"
            );
            assert_eq!(seq.stats, par.stats);
            verify_mis(&g2, &seq.results).expect("repair must satisfy the MIS oracle");
            let recompute = run_protocol(&g2, SimConfig::congest_for(&g2), |_| LubyMis::new(), 11);
            assert!(recompute.completed, "recompute must complete");
            let recompute_rounds = recompute.stats.rounds;
            verify_mis(&g2, &recompute.into_outputs())
                .expect("recompute must satisfy the MIS oracle");
            (
                applied,
                seq.repaired,
                seq.rounds,
                recompute_rounds,
                seq.stats,
            )
        }
        ProtocolKind::GroupedMwm => {
            let fresh = mwm_grouped(g, 11);
            let prior: Vec<(NodeId, NodeId)> =
                fresh.matching.edges(g).map(|e| g.endpoints(e)).collect();
            let seq = grouped_mwm_repair(&g2, &prior, &deltas, 13, false);
            let par = grouped_mwm_repair(&g2, &prior, &deltas, 13, true);
            assert_eq!(
                seq.matching.edges(&g2).collect::<Vec<_>>(),
                par.matching.edges(&g2).collect::<Vec<_>>(),
                "repair must be executor-independent"
            );
            assert_eq!(seq.stats, par.stats);
            assert!(
                seq.matching.is_valid(&g2),
                "repaired matching must stay valid"
            );
            let recompute = mwm_grouped(&g2, 11);
            assert!(recompute.matching.is_valid(&g2));
            (
                applied,
                seq.repaired,
                seq.rounds,
                recompute.stats.rounds,
                seq.stats,
            )
        }
        // No incremental variant: the probe still certifies the
        // fingerprint contract above.
        _ => (applied, 0, 0, 0, RunStats::default()),
    }
}

/// Runs one churn grid cell (see the module docs for the contract).
pub fn churn_cell(
    kind: ProtocolKind,
    topo: &Topology,
    axis: ChurnAxis,
    level: usize,
) -> ChurnReport {
    let weighting = match kind {
        ProtocolKind::GroupedMwm | ProtocolKind::MaxIsAlg2 => Weighting::Uniform,
        _ => Weighting::Unit,
    };
    let g = build_graph(topo, weighting);
    let n = g.num_nodes();
    let cap = 64 * n + 256;
    let axis_idx = CHURN_AXES.iter().position(|&a| a == axis).unwrap();
    let churn_seed = 0xC4 + 16 * axis_idx as u64 + level as u64;
    let adversary = axis.plan(level, churn_seed);
    let config = SimConfig::congest_for(&g)
        .with_max_rounds(cap)
        .with_adversary(adversary);
    let seed = 11;

    let (completed, safety_ok, stats) = match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => {
            let outcome = if kind == ProtocolKind::LubyMis {
                run_mis_both(&g, &config, LubyMis::new, seed, "churn")
            } else {
                run_mis_both(&g, &config, || GhaffariMis::with_k(2.0), seed, "churn")
            };
            let independent = !g.edges().any(|e| {
                let (u, v) = g.endpoints(e);
                outcome.outputs[u.index()] == Some(MisResult::InSet)
                    && outcome.outputs[v.index()] == Some(MisResult::InSet)
            });
            (outcome.completed, independent, outcome.stats)
        }
        ProtocolKind::GroupedMwm => {
            let (a, completed) = mwm_grouped_with(&g, config.clone().with_threads(1), seed);
            let (b, _) = mwm_grouped_with(&g, config.clone().with_threads(3), seed);
            assert_eq!(a.stats, b.stats, "grouped churn cell: executors diverged");
            assert_eq!(
                a.matching.edges(&g).collect::<Vec<_>>(),
                b.matching.edges(&g).collect::<Vec<_>>()
            );
            assert!(
                a.matching.is_valid(&g),
                "grouped matching lost safety under {} churn on {}",
                axis.name(),
                topo.family
            );
            (completed, true, a.stats)
        }
        ProtocolKind::MaxIsAlg2 => {
            let (a, completed) = alg2_with(&g, &Alg2Config::default(), config.clone(), seed);
            let (b, _) = alg2_with(&g, &Alg2Config::default(), config.clone(), seed);
            assert_eq!(a.stats, b.stats, "alg2 churn cell must replay");
            let safety = a.independent_set.is_independent(&g);
            (completed, safety, a.stats)
        }
        _ => unreachable!("churn grid only sweeps CHURN_PROTOCOLS"),
    };

    // Counter/knob consistency: a knob that is off must leave its
    // counter at zero, and rejoins only ever fire on departed slots.
    let adv = adversary;
    if adv.edge_flip_prob == 0.0 {
        assert_eq!(stats.edges_flipped, 0, "flips without edge_flip_prob");
    }
    if adv.node_join_prob == 0.0 {
        assert_eq!(stats.nodes_joined, 0, "joins without node_join_prob");
    }
    if adv.node_leave_prob == 0.0 {
        assert_eq!(stats.nodes_left, 0, "leaves without node_leave_prob");
    }
    assert!(
        stats.nodes_joined <= stats.nodes_left,
        "more rejoins than departures"
    );
    assert!(
        completed || stats.rounds == cap || stats.nodes_left > 0,
        "churn run ended without halting, exhausting the cap, or losing nodes"
    );

    let k = axis.probe_deltas(level);
    let probe_seed = 0x5EED + 16 * axis_idx as u64 + level as u64;
    let (applied, repaired, repair_rounds, recompute_rounds, repair_stats) =
        repair_probe(kind, &g, axis, k, probe_seed);
    let _ = repair_stats;

    ChurnReport {
        kind: "grid",
        protocol: kind.name(),
        family: topo.family.to_string(),
        param: topo.param.to_string(),
        graph_seed: topo.graph_seed,
        axis: axis.name(),
        intensity: CHURN_LEVELS[level].to_string(),
        dose: axis.dose(level),
        adversary: Some(adversary),
        completed,
        safety_ok,
        rounds: stats.rounds,
        round_cap: cap,
        deltas: applied,
        repaired,
        repair_rounds,
        recompute_rounds,
        repair_cheaper: repair_rounds < recompute_rounds,
        fingerprint_ok: true,
        stats,
    }
}

/// The full churn grid: 4 protocols × 3 churn axes × 3 intensities × 2
/// topologies = 72 records.
pub fn churn_suite() -> Vec<ChurnReport> {
    let topos: Vec<Topology> = topologies()
        .into_iter()
        .filter(|t| t.family == "gnp" || t.family == "star")
        .collect();
    let mut reports = Vec::new();
    for topo in &topos {
        for &kind in &CHURN_PROTOCOLS {
            for &axis in &CHURN_AXES {
                for level in 0..CHURN_LEVELS.len() {
                    reports.push(churn_cell(kind, topo, axis, level));
                }
            }
        }
    }
    reports
}

/// Nodes of the acceptance graph (the ISSUE's gnp-10k target).
pub const ACCEPTANCE_N: usize = 10_000;
/// Edge-flip batch sizes of the acceptance rows.
pub const ACCEPTANCE_KS: [usize; 3] = [16, 64, 256];

fn acceptance_graph(weighted: bool) -> Graph {
    let mut rng = SmallRng::seed_from_u64(77);
    let n = ACCEPTANCE_N;
    let mut g = generators::gnp(n, 8.0 / n as f64, &mut rng);
    if weighted {
        generators::randomize_edge_weights(&mut g, 64, &mut rng);
    }
    g
}

fn acceptance_report(
    protocol: &'static str,
    k: usize,
    repaired: usize,
    repair_rounds: usize,
    recompute_rounds: usize,
    stats: RunStats,
) -> ChurnReport {
    assert!(
        repair_rounds < recompute_rounds,
        "{protocol} acceptance (k={k}): repair took {repair_rounds} rounds, \
         recompute {recompute_rounds} — repair must be strictly cheaper"
    );
    ChurnReport {
        kind: "acceptance",
        protocol,
        family: "gnp".to_string(),
        param: format!("n={ACCEPTANCE_N} p=8/n"),
        graph_seed: 77,
        axis: "repair",
        intensity: format!("k={k}"),
        dose: k as f64,
        adversary: None,
        completed: true,
        safety_ok: true,
        rounds: repair_rounds,
        round_cap: 64 * ACCEPTANCE_N + 256,
        deltas: k,
        repaired,
        repair_rounds,
        recompute_rounds,
        repair_cheaper: true,
        fingerprint_ok: true,
        stats,
    }
}

/// The acceptance rows: `{luby_repair, grouped_mwm_repair} × k ∈ {16,
/// 64, 256}` seeded edge flips on gnp-10k. Every row **asserts** the
/// acceptance criterion — oracle-valid, executor-independent, and
/// strictly fewer rounds than a from-scratch recompute.
pub fn churn_acceptance() -> Vec<ChurnReport> {
    let mut out = Vec::new();

    let g = acceptance_graph(false);
    let fresh = run_protocol(&g, SimConfig::congest_for(&g), |_| LubyMis::new(), 11);
    assert!(fresh.completed, "clean Luby run must complete");
    let prior = fresh.into_outputs();
    for &k in &ACCEPTANCE_KS {
        let mut dg = DeltaGraph::new(g.clone());
        apply_probe_deltas(&mut dg, ChurnAxis::Flip, k, ACCEPTANCE_N, 0xF00D + k as u64);
        let deltas = dg.take_log();
        let overlay_fp = dg.fingerprint();
        let g2 = dg.compact();
        assert_eq!(overlay_fp, g2.fingerprint(), "fingerprint contract");
        let seq = luby_repair(&g2, &prior, &deltas, 13, false);
        let par = luby_repair(&g2, &prior, &deltas, 13, true);
        assert_eq!(seq.results, par.results, "luby_repair executors diverged");
        assert_eq!(seq.stats, par.stats);
        verify_mis(&g2, &seq.results).expect("luby_repair must satisfy the MIS oracle");
        let recompute = run_protocol(&g2, SimConfig::congest_for(&g2), |_| LubyMis::new(), 11);
        assert!(recompute.completed);
        let recompute_rounds = recompute.stats.rounds;
        verify_mis(&g2, &recompute.into_outputs()).expect("recompute must satisfy the oracle");
        out.push(acceptance_report(
            "luby_mis",
            k,
            seq.repaired,
            seq.rounds,
            recompute_rounds,
            seq.stats,
        ));
    }

    let g = acceptance_graph(true);
    let fresh = mwm_grouped(&g, 11);
    let prior: Vec<(NodeId, NodeId)> = fresh.matching.edges(&g).map(|e| g.endpoints(e)).collect();
    for &k in &ACCEPTANCE_KS {
        let mut dg = DeltaGraph::new(g.clone());
        apply_probe_deltas(&mut dg, ChurnAxis::Flip, k, ACCEPTANCE_N, 0xBEEF + k as u64);
        let deltas = dg.take_log();
        let overlay_fp = dg.fingerprint();
        let g2 = dg.compact();
        assert_eq!(overlay_fp, g2.fingerprint(), "fingerprint contract");
        let seq = grouped_mwm_repair(&g2, &prior, &deltas, 13, false);
        let par = grouped_mwm_repair(&g2, &prior, &deltas, 13, true);
        assert_eq!(
            seq.matching.edges(&g2).collect::<Vec<_>>(),
            par.matching.edges(&g2).collect::<Vec<_>>(),
            "grouped_mwm_repair executors diverged"
        );
        assert_eq!(seq.stats, par.stats);
        assert!(
            seq.matching.is_valid(&g2),
            "repaired matching must be valid"
        );
        let recompute = mwm_grouped(&g2, 11);
        assert!(recompute.matching.is_valid(&g2));
        out.push(acceptance_report(
            "grouped_mwm",
            k,
            seq.repaired,
            seq.rounds,
            recompute.stats.rounds,
            seq.stats,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_meets_the_acceptance_floor() {
        assert!(CHURN_PROTOCOLS.len() >= 4, "need ≥ 4 protocols");
        assert_eq!(CHURN_AXES.len(), 3, "flip/join/leave axes");
        assert_eq!(CHURN_LEVELS.len(), 3, "three intensities");
    }

    #[test]
    fn one_flip_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = churn_cell(ProtocolKind::LubyMis, &topo, ChurnAxis::Flip, 2);
        assert_eq!(report.deltas, 8, "high intensity applies 8 probe deltas");
        assert!(report.fingerprint_ok);
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"churn\""));
        assert!(json.contains("\"kind\": \"grid\""));
        assert!(json.contains("\"axis\": \"flip\""));
        assert!(json.contains("\"edge_flip_prob\": 0.15"));
    }

    #[test]
    fn one_leave_cell_end_to_end() {
        let topo = topologies().remove(5); // star
        let report = churn_cell(ProtocolKind::GroupedMwm, &topo, ChurnAxis::Leave, 2);
        let json = report.to_json();
        assert!(json.contains("\"axis\": \"leave\""));
        assert!(json.contains("\"node_leave_prob\": 0.1"));
        assert!(json.contains("\"repair\": {"));
    }

    #[test]
    fn one_join_cell_replays_with_rejoins_possible() {
        let topo = topologies().remove(0); // gnp
        let report = churn_cell(ProtocolKind::GhaffariMis, &topo, ChurnAxis::Join, 1);
        assert!(
            report.stats.nodes_joined <= report.stats.nodes_left,
            "rejoins only fire on departed slots"
        );
        assert!(report.to_json().contains("\"axis\": \"join\""));
    }

    #[test]
    fn small_scale_acceptance_shape_holds() {
        // A miniature of the acceptance row (n=600) so the tier-1 tests
        // exercise the exact assertion path without the 10k-node cost.
        let mut rng = SmallRng::seed_from_u64(77);
        let g = generators::gnp(600, 8.0 / 600.0, &mut rng);
        let fresh = run_protocol(&g, SimConfig::congest_for(&g), |_| LubyMis::new(), 11);
        assert!(fresh.completed);
        let fresh_rounds = fresh.stats.rounds;
        let prior = fresh.into_outputs();
        let mut dg = DeltaGraph::new(g.clone());
        apply_probe_deltas(&mut dg, ChurnAxis::Flip, 16, 600, 0xF00D);
        let deltas = dg.take_log();
        assert_eq!(dg.fingerprint(), dg.compact().fingerprint());
        let g2 = dg.compact();
        let run = luby_repair(&g2, &prior, &deltas, 13, false);
        verify_mis(&g2, &run.results).expect("repair must satisfy the MIS oracle");
        assert!(
            run.rounds <= fresh_rounds,
            "repair ({}) must not exceed a fresh run ({fresh_rounds})",
            run.rounds
        );
    }
}
