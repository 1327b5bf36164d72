//! Degradation sweep: **protocol × fault-axis × intensity** grid.
//!
//! The conformance suite certifies the paper's guarantees in the clean
//! synchronous model; the fault suite spot-checks two adversaries. This
//! module sweeps the *whole* fault model introduced with the async
//! scheduler — message drops, per-edge delivery delays, duplication,
//! payload corruption, inbox reordering, and crash+restart
//! (self-stabilization) — each at three intensities, over the two most
//! structurally different topologies (gnp, star), and records **which
//! guarantee survives which fault at which dose** into the append-only
//! `DEGRADATION_engine.json` ledger.
//!
//! Per cell, the harness *asserts* what must hold by construction:
//!
//! * the fault schedule replays bit-identically (same seed → same
//!   stats), and for the engine-driven protocols the sequential and
//!   parallel executors agree;
//! * fault counters are consistent with the enabled knobs (no phantom
//!   duplicates without `dup_prob`, no delays without a scheduler, …);
//! * every run ends in one of the three legal states: all nodes halted,
//!   the round cap fired, or crashes silenced part of the graph;
//! * the grouped matching stays a **valid matching** under every
//!   schedule (its mutual-confirmation assembly is fault-proof by
//!   design).
//!
//! and *records* what is allowed to degrade: completion, decided
//! fraction, MIS/MaxIS safety (independence), and the approximation
//! ratio against the exact oracle — `bound_ok` in the ledger is data,
//! not an assertion, because a 50% drop rate legitimately breaks a
//! Δ-approximation.

use congest_approx::matching::mwm_grouped_with;
use congest_approx::maxis::{alg2_with, Alg2Config};
use congest_bench::ledger::{json_object, json_str};
use congest_exact::{brute_force_mwis, greedy_matching, max_weight_matching_oracle};
use congest_mis::{GhaffariMis, LubyMis, MisResult};
use congest_sim::{Adversary, AsyncScheduler, RunStats, SimConfig};

use crate::{build_graph, run_mis_both, topologies, ProtocolKind, Topology, Weighting};

/// One axis of the fault model. Each axis turns exactly one knob so the
/// ledger isolates which *kind* of misbehavior each protocol tolerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAxis {
    /// Messages vanish in flight (`drop_prob`).
    Drop,
    /// Asynchrony: per-edge delivery delays from a seeded uniform
    /// distribution (the [`AsyncScheduler`]); nothing is lost.
    Delay,
    /// Messages are delivered twice, the copy one round late
    /// (`dup_prob`).
    Duplicate,
    /// Payloads are bit-flipped or discarded as checksum failures
    /// (`corrupt_prob`).
    Corrupt,
    /// Inboxes are shuffled before processing (`reorder_prob`).
    Reorder,
    /// Nodes crash and rejoin factory-fresh `RESTART_LAG` rounds later
    /// (`crash_prob` + `restart_after`): the self-stabilization mode.
    Restart,
}

/// All six axes, in ledger order.
pub const AXES: [FaultAxis; 6] = [
    FaultAxis::Drop,
    FaultAxis::Delay,
    FaultAxis::Duplicate,
    FaultAxis::Corrupt,
    FaultAxis::Reorder,
    FaultAxis::Restart,
];

/// Intensity labels, in increasing dose order.
pub const LEVELS: [&str; 3] = ["low", "medium", "high"];

/// Rounds a restarted node stays down on the [`FaultAxis::Restart`] axis.
pub const RESTART_LAG: usize = 3;

impl FaultAxis {
    /// Ledger name.
    pub fn name(self) -> &'static str {
        match self {
            FaultAxis::Drop => "drop",
            FaultAxis::Delay => "delay",
            FaultAxis::Duplicate => "duplicate",
            FaultAxis::Corrupt => "corrupt",
            FaultAxis::Reorder => "reorder",
            FaultAxis::Restart => "restart",
        }
    }

    /// The numeric dose at intensity `level` (0..3): a probability for
    /// the probabilistic axes, the max delay in rounds for
    /// [`FaultAxis::Delay`].
    pub fn dose(self, level: usize) -> f64 {
        match self {
            FaultAxis::Drop | FaultAxis::Duplicate | FaultAxis::Corrupt => [0.05, 0.2, 0.5][level],
            // Reordering is per (round, node); doses reach certainty.
            FaultAxis::Reorder => [0.1, 0.5, 1.0][level],
            FaultAxis::Delay => [1.0, 3.0, 6.0][level],
            // Crash probabilities stay small: every crash costs
            // `RESTART_LAG` rounds of silence, and the point of the axis
            // is churn, not extinction.
            FaultAxis::Restart => [0.02, 0.05, 0.1][level],
        }
    }

    /// The engine configuration of one (axis, level) cell: exactly one
    /// of the adversary/scheduler is populated per axis.
    pub fn plan(self, level: usize, seed: u64) -> (Option<Adversary>, Option<AsyncScheduler>) {
        let dose = self.dose(level);
        match self {
            FaultAxis::Drop => (Some(Adversary::message_drops(dose, seed)), None),
            FaultAxis::Delay => (None, Some(AsyncScheduler::uniform(dose as usize, seed))),
            FaultAxis::Duplicate => (Some(Adversary::message_duplicates(dose, seed)), None),
            FaultAxis::Corrupt => (Some(Adversary::message_corruption(dose, seed)), None),
            FaultAxis::Reorder => (Some(Adversary::inbox_reorders(dose, seed)), None),
            FaultAxis::Restart => (
                Some(Adversary::node_crashes(dose, seed).with_restart_after(RESTART_LAG)),
                None,
            ),
        }
    }
}

/// The protocols swept by the degradation grid: the two MIS protocols,
/// the grouped matching, and randomized MaxIS — the four protocols with
/// a fault-tolerant assembly path ([`mwm_grouped_with`], [`alg2_with`])
/// or per-node decide-or-stay-silent outputs (MIS).
pub const DEGRADATION_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::LubyMis,
    ProtocolKind::GhaffariMis,
    ProtocolKind::GroupedMwm,
    ProtocolKind::MaxIsAlg2,
];

/// One record of the degradation grid.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Protocol ledger name.
    pub protocol: &'static str,
    /// Topology of the cell.
    pub topology: Topology,
    /// Fault axis swept.
    pub axis: FaultAxis,
    /// Intensity label (`low`/`medium`/`high`).
    pub intensity: &'static str,
    /// Numeric dose behind the label (see [`FaultAxis::dose`]).
    pub dose: f64,
    /// The injected adversary (`None` on the pure-delay axis).
    pub adversary: Option<Adversary>,
    /// The async scheduler (`Some` only on the delay axis).
    pub scheduler: Option<AsyncScheduler>,
    /// Every node halted normally.
    pub completed: bool,
    /// Fraction of nodes that made useful progress: produced an output
    /// (MIS), got matched (grouped), or joined the set (Alg2 — its
    /// driver does not expose per-node outputs, so set membership is the
    /// only observable progress there).
    pub decided_fraction: f64,
    /// Protocol-specific safety: independence among decided in-set
    /// nodes (MIS/MaxIS), matching validity (grouped; also asserted).
    pub safety_ok: bool,
    /// Achieved objective over the oracle optimum (1.0 when opt = 0).
    pub ratio: f64,
    /// The paper's clean-model ratio requirement, for reference.
    pub ratio_bound: f64,
    /// Whether the clean-model bound still held under this fault dose —
    /// recorded, never asserted.
    pub bound_ok: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// The cap the run was bounded by.
    pub round_cap: usize,
    /// Engine statistics of the (sequential) run.
    pub stats: RunStats,
}

impl DegradationReport {
    /// Renders the record for the `DEGRADATION_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(self.topology.family)),
            ("param", json_str(self.topology.param)),
            ("seed", self.topology.graph_seed.to_string()),
        ]);
        let adversary = match &self.adversary {
            None => "null".to_string(),
            Some(a) => json_object(&[
                ("drop_prob", format!("{}", a.drop_prob)),
                ("dup_prob", format!("{}", a.dup_prob)),
                ("reorder_prob", format!("{}", a.reorder_prob)),
                ("corrupt_prob", format!("{}", a.corrupt_prob)),
                ("crash_prob", format!("{}", a.crash_prob)),
                (
                    "restart_after",
                    a.restart_after
                        .map_or("null".to_string(), |k| k.to_string()),
                ),
                ("seed", a.seed.to_string()),
            ]),
        };
        let scheduler = match &self.scheduler {
            None => "null".to_string(),
            Some(s) => json_object(&[
                ("dist", json_str("uniform")),
                ("max_delay", s.max_delay().to_string()),
                ("seed", s.seed.to_string()),
            ]),
        };
        let counters = json_object(&[
            ("delayed", self.stats.delayed_messages.to_string()),
            ("duplicated", self.stats.duplicated_messages.to_string()),
            ("corrupted", self.stats.corrupted_messages.to_string()),
            (
                "adversary_dropped",
                self.stats.adversary_dropped_messages.to_string(),
            ),
            ("crashed", self.stats.crashed_nodes.to_string()),
            ("restarted", self.stats.restarted_nodes.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("degradation")),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("axis", json_str(self.axis.name())),
            ("intensity", json_str(self.intensity)),
            ("dose", format!("{}", self.dose)),
            ("adversary", adversary),
            ("scheduler", scheduler),
            ("completed", self.completed.to_string()),
            ("decided_fraction", format!("{:.4}", self.decided_fraction)),
            ("safety_ok", self.safety_ok.to_string()),
            ("ratio", format!("{:.6}", self.ratio)),
            ("ratio_bound", format!("{:.6}", self.ratio_bound)),
            ("bound_ok", self.bound_ok.to_string()),
            ("rounds", self.rounds.to_string()),
            ("round_cap", self.round_cap.to_string()),
            ("counters", counters),
        ])
    }
}

/// Runs one degradation cell (see the module docs for the contract).
pub fn degradation_cell(
    kind: ProtocolKind,
    topo: &Topology,
    axis: FaultAxis,
    level: usize,
) -> DegradationReport {
    let weighting = match kind {
        ProtocolKind::GroupedMwm | ProtocolKind::MaxIsAlg2 => Weighting::Uniform,
        _ => Weighting::Unit,
    };
    let g = build_graph(topo, weighting);
    let n = g.num_nodes();
    let cap = 64 * n + 256;
    let axis_idx = AXES.iter().position(|&a| a == axis).unwrap();
    let fault_seed = 0xD16 + 16 * axis_idx as u64 + level as u64;
    let (adversary, scheduler) = axis.plan(level, fault_seed);
    let mut config = SimConfig::congest_for(&g).with_max_rounds(cap);
    if let Some(adv) = adversary {
        config = config.with_adversary(adv);
    }
    if let Some(sched) = scheduler {
        config = config.with_scheduler(sched);
    }
    let seed = 11;
    let delta = g.max_degree().max(1) as u64;

    let (completed, decided, safety_ok, alg, opt, bound, stats) = match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => {
            let outcome = if kind == ProtocolKind::LubyMis {
                run_mis_both(&g, &config, LubyMis::new, seed, "degradation")
            } else {
                run_mis_both(
                    &g,
                    &config,
                    || GhaffariMis::with_k(2.0),
                    seed,
                    "degradation",
                )
            };
            let decided = outcome.outputs.iter().filter(|o| o.is_some()).count();
            let independent = !g.edges().any(|e| {
                let (u, v) = g.endpoints(e);
                outcome.outputs[u.index()] == Some(MisResult::InSet)
                    && outcome.outputs[v.index()] == Some(MisResult::InSet)
            });
            let alg = outcome
                .outputs
                .iter()
                .filter(|&&o| o == Some(MisResult::InSet))
                .count() as u64;
            let opt = brute_force_mwis(&g).weight(&g);
            (
                outcome.completed,
                decided,
                independent,
                alg,
                opt,
                (1, delta + 1),
                outcome.stats,
            )
        }
        ProtocolKind::GroupedMwm => {
            let (a, completed) = mwm_grouped_with(&g, config.clone(), seed);
            let (b, _) = mwm_grouped_with(&g, config.clone(), seed);
            assert_eq!(a.stats, b.stats, "grouped degradation cell must replay");
            // Fault-proof by construction (mutual-confirmation assembly):
            // asserted, not recorded.
            assert!(
                a.matching.is_valid(&g),
                "grouped matching lost safety under {} on {}",
                axis.name(),
                topo.family
            );
            let opt = max_weight_matching_oracle(&g)
                .map_or_else(|| greedy_matching(&g).weight(&g), |m| m.weight(&g));
            (
                completed,
                2 * a.matching.len(),
                true,
                a.matching.weight(&g),
                opt,
                (1, 2),
                a.stats,
            )
        }
        ProtocolKind::MaxIsAlg2 => {
            let (a, completed) = alg2_with(&g, &Alg2Config::default(), config.clone(), seed);
            let (b, _) = alg2_with(&g, &Alg2Config::default(), config.clone(), seed);
            assert_eq!(a.stats, b.stats, "alg2 degradation cell must replay");
            let safety = a.independent_set.is_independent(&g);
            let opt = brute_force_mwis(&g).weight(&g);
            (
                completed,
                a.independent_set.len(),
                safety,
                a.independent_set.weight(&g),
                opt,
                (1, delta),
                a.stats,
            )
        }
        _ => unreachable!("degradation grid only sweeps DEGRADATION_PROTOCOLS"),
    };

    // Counter/knob consistency: a knob that is off must leave its
    // counter at zero.
    let adv = adversary.unwrap_or_default();
    if adv.drop_prob == 0.0 {
        assert_eq!(stats.adversary_dropped_messages, 0, "drops without a knob");
    }
    if adv.dup_prob == 0.0 {
        assert_eq!(stats.duplicated_messages, 0, "duplicates without dup_prob");
    }
    if adv.corrupt_prob == 0.0 {
        assert_eq!(stats.corrupted_messages, 0, "corruption without a knob");
    }
    if adv.crash_prob == 0.0 {
        assert_eq!(stats.crashed_nodes, 0, "crashes without crash_prob");
        assert_eq!(stats.restarted_nodes, 0, "restarts without crashes");
    }
    if scheduler.is_none() {
        assert_eq!(stats.delayed_messages, 0, "delays without a scheduler");
    }
    assert!(
        stats.restarted_nodes <= stats.crashed_nodes,
        "more restarts than crashes"
    );
    // End-state trichotomy: halted, capped, or crashed out.
    assert!(
        completed || stats.rounds == cap || stats.crashed_nodes > 0,
        "degradation run ended without halting, exhausting the cap, or crashing out"
    );

    let ratio = if opt == 0 {
        1.0
    } else {
        alg as f64 / opt as f64
    };
    DegradationReport {
        protocol: kind.name(),
        topology: *topo,
        axis,
        intensity: LEVELS[level],
        dose: axis.dose(level),
        adversary,
        scheduler,
        completed,
        decided_fraction: decided as f64 / n as f64,
        safety_ok,
        ratio,
        ratio_bound: bound.0 as f64 / bound.1 as f64,
        bound_ok: alg * bound.1 >= opt * bound.0,
        rounds: stats.rounds,
        round_cap: cap,
        stats,
    }
}

/// The full degradation grid: 4 protocols × 6 fault axes × 3
/// intensities × 2 topologies = 144 records.
pub fn degradation_suite() -> Vec<DegradationReport> {
    let topos: Vec<Topology> = topologies()
        .into_iter()
        .filter(|t| t.family == "gnp" || t.family == "star")
        .collect();
    let mut reports = Vec::new();
    for topo in &topos {
        for &kind in &DEGRADATION_PROTOCOLS {
            for &axis in &AXES {
                for level in 0..LEVELS.len() {
                    reports.push(degradation_cell(kind, topo, axis, level));
                }
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_meets_the_acceptance_floor() {
        assert!(DEGRADATION_PROTOCOLS.len() >= 4, "need ≥ 4 protocols");
        assert!(AXES.len() >= 3, "need ≥ 3 fault axes");
        assert!(LEVELS.len() >= 3, "need ≥ 3 intensities");
    }

    #[test]
    fn one_drop_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = degradation_cell(ProtocolKind::LubyMis, &topo, FaultAxis::Drop, 1);
        assert!(
            report.stats.adversary_dropped_messages > 0,
            "a 20% drop dose on gnp must fire"
        );
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"degradation\""));
        assert!(json.contains("\"axis\": \"drop\""));
        assert!(json.contains("\"scheduler\": null"));
    }

    #[test]
    fn one_delay_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = degradation_cell(ProtocolKind::GhaffariMis, &topo, FaultAxis::Delay, 2);
        // Pure asynchrony loses no messages, but phase-locked protocols
        // may still mis-decide on late arrivals — completion and safety
        // are *recorded*, not asserted. The delays themselves must fire.
        assert!(report.stats.delayed_messages > 0);
        let json = report.to_json();
        assert!(json.contains("\"axis\": \"delay\""));
        assert!(json.contains("\"max_delay\": 6"));
        assert!(json.contains("\"adversary\": null"));
    }

    #[test]
    fn one_restart_cell_end_to_end() {
        let topo = topologies().remove(5); // star
        let report = degradation_cell(ProtocolKind::GroupedMwm, &topo, FaultAxis::Restart, 2);
        // Every crash is scheduled for revival; all but the ones still
        // pending when the run ends must have fired.
        assert!(
            report.stats.restarted_nodes > 0,
            "a 10% crash dose with restarts must revive someone"
        );
        let json = report.to_json();
        assert!(json.contains("\"axis\": \"restart\""));
        assert!(json.contains("\"restart_after\": 3"));
    }
}
