//! Footnote 5 of Section 2.4: the line-graph local-ratio matching run
//! *directly on `G`* — "equivalent to iteratively running a maximal
//! matching on weight groups in G and performing local ratio steps on the
//! edges of the matching".
//!
//! Each node manages the state of its incident edges; every round each
//! physical edge carries exactly one `O(log n)`-bit message per
//! direction, so this is a genuine CONGEST implementation of the
//! Theorem 2.10 matching (the engine meters it for real, rather than
//! under the Theorem 2.8 cost model). The lifecycle notifications between
//! adjacent edges are free: adjacent edges share an endpoint, and that
//! endpoint updates both of its local records without any communication.
//!
//! Cycle structure (4 rounds):
//! 1. **Announce** — the primary endpoint of every remaining edge draws a
//!    fresh priority and sends `(layer, prio)` across the edge, so both
//!    endpoints hold the edge's competition tuple.
//! 2. **ExcludeMax** — each endpoint sends, per incident edge `e`, the
//!    maximum tuple among its *other* remaining incident edges; both
//!    endpoints can then decide `e`'s win identically (win ⇔ `e`'s tuple
//!    beats both side-maxima: exactly the Algorithm-2 rule on `L(G)`).
//! 3. **ReduceSum** — each endpoint sends, per incident edge `e`, the sum
//!    of the weights of its *other* incident edges that just won; both
//!    endpoints apply the identical weight update (the local-ratio step)
//!    and identically classify `e` as remaining / candidate / removed.
//! 4. **Resolve** — each endpoint sends, per incident candidate edge,
//!    whether its side's wait-set (surviving incident edges) has fully
//!    resolved; a candidate with both sides clear joins the matching,
//!    killing the waiting candidates at its endpoints (locally).

use congest_graph::{Graph, Matching, NodeId, ShardPartition};
use congest_sim::{
    bits_for_value, run_protocol, Context, Engine, Inbox, Message, PackedMsg, Port, Protocol,
    RunOutcome, SimConfig, Status,
};
use rand::Rng;

use crate::weights::layer_of_signed;

/// Per-direction, per-round message: one variant per cycle phase.
#[derive(Clone, Debug, PartialEq)]
pub enum GroupedMsg {
    /// Phase 1 (primary → secondary): the edge's layer and priority.
    Announce {
        /// Weight layer of the sender's candidate edge.
        layer: u32,
        /// Random tiebreak priority drawn for this cycle.
        prio: u64,
    },
    /// Phase 2 (both directions): max `(layer, prio, tiebreak)` among the
    /// sender's *other* remaining incident edges, if any.
    ExcludeMax(Option<(u32, u64, u64)>),
    /// Phase 3 (both directions): summed weight of the sender's *other*
    /// incident edges that won this cycle.
    ReduceSum(u64),
    /// Phase 4 (both directions): whether the sender's wait-set for this
    /// candidate edge has fully resolved, and whether the edge was killed
    /// at the sender's side by an adjacent edge joining the matching.
    Resolve {
        /// The sender's wait-set for this edge is fully resolved.
        side_clear: bool,
        /// An adjacent matched edge killed this edge at the sender.
        killed: bool,
    },
}

impl Message for GroupedMsg {
    fn bit_size(&self) -> usize {
        2 + match self {
            GroupedMsg::Announce { layer, prio } => {
                6 + bits_for_value(u64::from(*layer)) + bits_for_value(*prio)
            }
            GroupedMsg::ExcludeMax(Some((layer, prio, tie))) => {
                7 + bits_for_value(u64::from(*layer)) + bits_for_value(*prio) + bits_for_value(*tie)
            }
            GroupedMsg::ExcludeMax(None) => 1,
            GroupedMsg::ReduceSum(x) => bits_for_value(*x),
            GroupedMsg::Resolve { .. } => 2,
        }
    }
}

/// Wire format: 2-bit variant tag in the low bits, then variant fields
/// LSB-first. `ExcludeMax` is the tight one — a presence bit (1), layer
/// (7), prio (26), and tiebreak (28) fill the word exactly, which is why
/// the priority draw is capped at `2²⁶` and the tiebreak (the primary
/// endpoint's node id) asserts `n < 2²⁸`. `Announce` reuses the same
/// layer/prio fields; `ReduceSum` carries its 62-bit sum; `Resolve` packs
/// its two flags.
impl PackedMsg for GroupedMsg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        match self {
            GroupedMsg::Announce { layer, prio } => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                debug_assert!(*prio < 1 << 26, "priority exceeds the 26-bit wire field");
                (u64::from(*layer) << 2) | (prio << 9)
            }
            GroupedMsg::ExcludeMax(None) => 1,
            GroupedMsg::ExcludeMax(Some((layer, prio, tie))) => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                debug_assert!(*prio < 1 << 26, "priority exceeds the 26-bit wire field");
                assert!(*tie < 1 << 28, "tiebreak id exceeds the 28-bit wire field");
                1 | (1 << 2) | (u64::from(*layer) << 3) | (prio << 10) | (tie << 36)
            }
            GroupedMsg::ReduceSum(x) => {
                assert!(*x < 1 << 62, "reduce sum exceeds the 62-bit wire field");
                2 | (x << 2)
            }
            GroupedMsg::Resolve { side_clear, killed } => {
                3 | (u64::from(*side_clear) << 2) | (u64::from(*killed) << 3)
            }
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            0 => GroupedMsg::Announce {
                layer: ((word >> 2) & 0x7f) as u32,
                prio: word >> 9,
            },
            1 => {
                if word >> 2 & 1 == 0 {
                    GroupedMsg::ExcludeMax(None)
                } else {
                    GroupedMsg::ExcludeMax(Some((
                        ((word >> 3) & 0x7f) as u32,
                        (word >> 10) & ((1 << 26) - 1),
                        word >> 36,
                    )))
                }
            }
            2 => GroupedMsg::ReduceSum(word >> 2),
            _ => GroupedMsg::Resolve {
                side_clear: (word >> 2) & 1 == 1,
                killed: (word >> 3) & 1 == 1,
            },
        }
    }
}

/// Status of an incident edge as tracked by an endpoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EdgeState {
    /// Still in the local-ratio graph.
    Remaining,
    /// Won a reduction cycle; waiting to enter the matching.
    Candidate,
    /// In the final matching.
    Matched,
    /// Removed (weight exhausted or adjacent edge matched).
    Dead,
}

/// An endpoint's record of one incident edge.
#[derive(Clone, Debug)]
struct EdgeSlot {
    state: EdgeState,
    /// Running local-ratio weight (kept identical at both endpoints).
    w: i64,
    /// Competition tuple for the current cycle.
    tuple: (u32, u64, u64),
    /// Did this edge win the current cycle?
    won: bool,
    /// Ports (at this node) of edges that survived this edge's reduction
    /// and have not yet resolved — this side's wait-set.
    waiting_on: Vec<Port>,
    /// Whether an adjacent edge (at either endpoint) matched, killing
    /// this candidate.
    killed: bool,
    /// Whether the remote side reported its wait-set clear last resolve.
    remote_clear: bool,
}

/// Node protocol for the grouped (footnote-5) matching. Output: this
/// node's matched `(port, mate)`, if any — the port names the edge
/// directly, so assembly is an O(1) port-indexed lookup per node instead
/// of a binary-search probe.
pub struct GroupedLrMatching {
    slots: Vec<EdgeSlot>,
}

impl GroupedLrMatching {
    fn new() -> Self {
        GroupedLrMatching { slots: Vec::new() }
    }

    /// The edge at `port` is primary at this node iff this node's id is
    /// smaller than the neighbor's.
    fn is_primary(ctx: &Context<'_, GroupedMsg>, port: Port) -> bool {
        ctx.id() < ctx.neighbor(port)
    }

    /// Max tuple among remaining incident edges other than `skip`.
    fn exclude_max(&self, skip: Port) -> Option<(u32, u64, u64)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(p, s)| *p != skip && s.state == EdgeState::Remaining)
            .map(|(_, s)| s.tuple)
            .max()
    }

    /// Sum of winner weights among incident edges other than `skip`.
    fn exclude_winner_sum(&self, skip: Port) -> u64 {
        self.slots
            .iter()
            .enumerate()
            .filter(|(p, s)| *p != skip && s.won)
            .map(|(_, s)| s.w as u64)
            .sum()
    }

    fn all_done(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, EdgeState::Matched | EdgeState::Dead))
    }

    fn matched_port(&self) -> Option<Port> {
        self.slots
            .iter()
            .position(|s| s.state == EdgeState::Matched)
    }
}

impl Protocol for GroupedLrMatching {
    type Msg = GroupedMsg;
    type Output = Option<(u32, NodeId)>;

    fn init(&mut self, ctx: &mut Context<'_, GroupedMsg>) {
        self.slots = (0..ctx.degree())
            .map(|p| EdgeSlot {
                state: EdgeState::Remaining,
                w: ctx.edge_weight(p) as i64,
                tuple: (0, 0, 0),
                won: false,
                waiting_on: Vec::new(),
                killed: false,
                remote_clear: false,
            })
            .collect();
    }

    fn round(
        &mut self,
        ctx: &mut Context<'_, GroupedMsg>,
        inbox: Inbox<'_, GroupedMsg>,
    ) -> Status<Option<(u32, NodeId)>> {
        match (ctx.round() - 1) % 4 {
            0 => {
                // The resolve handshake of the previous cycle's phase 4
                // lands here: fold it in before announcing.
                for (port, msg) in inbox {
                    if let GroupedMsg::Resolve { side_clear, killed } = msg {
                        if killed {
                            self.slots[port].killed = true;
                        }
                        if side_clear {
                            self.slots[port].remote_clear = true;
                        }
                    }
                }
                // Phase 1 — announce: primaries draw priorities. The
                // tiebreak component is the primary's id·Δ+port, unique
                // per edge and computable by both sides (the secondary
                // derives it from the received direction).
                for p in 0..self.slots.len() {
                    if self.slots[p].state != EdgeState::Remaining {
                        continue;
                    }
                    if Self::is_primary(ctx, p) {
                        let layer = match layer_of_signed(self.slots[p].w) {
                            Some(l) => l,
                            None => continue, // dead, will be classified below
                        };
                        let n = ctx.info().n.max(2) as u64;
                        // Capped at the wire format's 26-bit priority
                        // field; the per-edge tiebreak keeps wins unique
                        // regardless of collisions.
                        let domain = n.saturating_mul(n).saturating_mul(n).min(1 << 26);
                        let prio = ctx.rng().random_range(0..domain);
                        let tie =
                            u64::from(ctx.id().0) * (ctx.info().max_degree as u64 + 1) + p as u64;
                        self.slots[p].tuple = (layer, prio, tie);
                        ctx.send(p, GroupedMsg::Announce { layer, prio });
                    }
                }
                Status::Active
            }
            1 => {
                // Phase 2 — record announcements, exchange exclude-maxima.
                for (port, msg) in inbox {
                    if let GroupedMsg::Announce { layer, prio } = msg {
                        // Tiebreak: the primary's id — both endpoints
                        // derive the identical value (the primary is the
                        // smaller-id endpoint, i.e. the sender here).
                        let tie = u64::from(ctx.neighbor(port).0);
                        self.slots[port].tuple = (layer, prio, tie);
                    }
                }
                // Primaries normalize their own tiebreak the same way so
                // both sides compare identical tuples.
                for p in 0..self.slots.len() {
                    if self.slots[p].state == EdgeState::Remaining && Self::is_primary(ctx, p) {
                        let (l, pr, _) = self.slots[p].tuple;
                        self.slots[p].tuple = (l, pr, u64::from(ctx.id().0));
                    }
                }
                for p in 0..self.slots.len() {
                    if self.slots[p].state == EdgeState::Remaining {
                        let ex = self.exclude_max(p);
                        ctx.send(p, GroupedMsg::ExcludeMax(ex));
                    }
                }
                Status::Active
            }
            2 => {
                // Phase 3 — decide wins, exchange reduction sums.
                for (port, msg) in inbox {
                    if let GroupedMsg::ExcludeMax(remote) = msg {
                        let p = port;
                        if self.slots[p].state != EdgeState::Remaining {
                            continue;
                        }
                        let mine = self.exclude_max(p);
                        let t = self.slots[p].tuple;
                        let beats = |other: &Option<(u32, u64, u64)>| match other {
                            None => true,
                            Some(o) => t > *o,
                        };
                        self.slots[p].won = beats(&mine) && beats(&remote);
                    }
                }
                for p in 0..self.slots.len() {
                    if self.slots[p].state == EdgeState::Remaining {
                        let sum = self.exclude_winner_sum(p);
                        ctx.send(p, GroupedMsg::ReduceSum(sum));
                    }
                }
                Status::Active
            }
            _ => {
                // Phase 4 — apply reductions symmetrically, classify, and
                // run the resolve handshake for candidates.
                for (port, msg) in inbox {
                    if let GroupedMsg::ReduceSum(remote_sum) = msg {
                        let p = port;
                        if self.slots[p].state != EdgeState::Remaining {
                            continue;
                        }
                        let local_sum = self.exclude_winner_sum(p);
                        if self.slots[p].won {
                            // Winner: becomes a candidate, waits for the
                            // surviving neighbors at this endpoint.
                            continue;
                        }
                        self.slots[p].w -= (local_sum + remote_sum) as i64;
                    }
                }
                // Classification after reductions.
                let mut resolved_ports: Vec<Port> = Vec::new();
                for p in 0..self.slots.len() {
                    if self.slots[p].state != EdgeState::Remaining {
                        continue;
                    }
                    if self.slots[p].won {
                        self.slots[p].state = EdgeState::Candidate;
                        self.slots[p].won = false;
                        self.slots[p].w = 0;
                        // Wait-set: incident remaining edges that survive
                        // this cycle's reductions (computed after the pass
                        // below — collect remaining first).
                        self.slots[p].waiting_on.clear();
                    } else if self.slots[p].w <= 0 {
                        self.slots[p].state = EdgeState::Dead;
                        resolved_ports.push(p);
                    }
                }
                // Build wait-sets for the fresh candidates: remaining
                // incident edges (post-classification).
                let remaining: Vec<Port> = (0..self.slots.len())
                    .filter(|&p| self.slots[p].state == EdgeState::Remaining)
                    .collect();
                for p in 0..self.slots.len() {
                    if self.slots[p].state == EdgeState::Candidate
                        && self.slots[p].waiting_on.is_empty()
                        && !self.slots[p].killed
                    {
                        // (Re)build only right after winning; an existing
                        // candidate's list shrinks via resolution below.
                        if self.slots[p].w == 0 && self.slots[p].tuple != (0, 0, 0) {
                            self.slots[p].waiting_on = remaining.clone();
                            self.slots[p].tuple = (0, 0, 0); // build once
                        }
                    }
                }
                // Drop resolved ports from all wait-sets.
                for p in 0..self.slots.len() {
                    let dead: Vec<Port> = self.slots[p]
                        .waiting_on
                        .iter()
                        .copied()
                        .filter(|&q| {
                            matches!(self.slots[q].state, EdgeState::Dead | EdgeState::Matched)
                        })
                        .collect();
                    self.slots[p].waiting_on.retain(|q| !dead.contains(q));
                }
                // Candidates whose both sides are clear join the matching.
                let mut newly_matched: Vec<Port> = Vec::new();
                for p in 0..self.slots.len() {
                    if self.slots[p].state != EdgeState::Candidate {
                        continue;
                    }
                    if self.slots[p].killed {
                        self.slots[p].state = EdgeState::Dead;
                        continue;
                    }
                    if self.slots[p].waiting_on.is_empty() && self.slots[p].remote_clear {
                        newly_matched.push(p);
                    }
                }
                for &p in &newly_matched {
                    self.slots[p].state = EdgeState::Matched;
                    // Kill every other incident edge locally.
                    for q in 0..self.slots.len() {
                        if q != p
                            && matches!(
                                self.slots[q].state,
                                EdgeState::Remaining | EdgeState::Candidate
                            )
                        {
                            self.slots[q].killed = true;
                            if self.slots[q].state == EdgeState::Remaining {
                                self.slots[q].state = EdgeState::Dead;
                            }
                        }
                    }
                }
                // Send the resolve handshake for next cycle.
                for p in 0..self.slots.len() {
                    match self.slots[p].state {
                        EdgeState::Candidate => {
                            let side_clear = self.slots[p].waiting_on.is_empty();
                            let killed = self.slots[p].killed;
                            ctx.send(p, GroupedMsg::Resolve { side_clear, killed });
                        }
                        EdgeState::Matched => {
                            ctx.send(
                                p,
                                GroupedMsg::Resolve {
                                    side_clear: true,
                                    killed: false,
                                },
                            );
                        }
                        EdgeState::Dead => {
                            // One last notification so the far endpoint
                            // can settle its own records; harmless if
                            // repeated (idempotent).
                            ctx.send(
                                p,
                                GroupedMsg::Resolve {
                                    side_clear: false,
                                    killed: self.slots[p].killed,
                                },
                            );
                        }
                        EdgeState::Remaining => {}
                    }
                }
                if self.all_done() {
                    let mate = self.matched_port().map(|p| (p as u32, ctx.neighbor(p)));
                    return Status::Halt(mate);
                }
                Status::Active
            }
        }
    }
}

/// Driver: runs the grouped protocol and assembles the matching.
///
/// Note: this is the *engineering* variant recorded for completeness and
/// congestion honesty; the reference implementation of Theorem 2.10 (the
/// one the approximation tests certify) is
/// [`mwm_lr_randomized`](super::mwm_lr_randomized). This variant's
/// matching is validated for feasibility/maximality and approximate
/// quality in its tests.
pub fn mwm_grouped(g: &Graph, seed: u64) -> super::LrMatchingRun {
    let config = SimConfig::congest_for(g).with_max_rounds(64 * g.num_nodes() + 256);
    let (run, completed) = mwm_grouped_with(g, config, seed);
    assert!(completed, "grouped matching failed to terminate");
    run
}

/// Like [`mwm_grouped`] but under a caller-supplied [`SimConfig`] — the
/// conformance harness threads fault adversaries and round caps through
/// here. The matching is assembled from **mutually confirmed** mates
/// only, so nodes silenced by crashes, injected message loss, or the
/// round cap degrade to "unmatched" instead of corrupting the matching:
/// whatever subset of nodes answers, the result is a valid matching by
/// construction. On a fault-free completed run the mutual filter is a
/// no-op (the protocol's mate claims are always reciprocal), so this is
/// exactly [`mwm_grouped`]'s assembly. Returns the run plus whether every
/// node halted normally.
pub fn mwm_grouped_with(g: &Graph, config: SimConfig, seed: u64) -> (super::LrMatchingRun, bool) {
    let outcome = run_protocol(g, config, |_| GroupedLrMatching::new(), seed);
    finish_grouped_run(g, &outcome)
}

/// [`mwm_grouped_with`] on the engine's sharded executor
/// ([`Engine::run_sharded`]): same protocol, same assembly, bit-identical
/// matching for a given `(graph, config, seed)` under *any* partition.
/// The extra return value is the number of delivered messages that
/// crossed a shard boundary — the coordinator↔worker traffic a sharded
/// matching service pays for this request.
pub fn mwm_grouped_with_sharded(
    g: &Graph,
    config: SimConfig,
    seed: u64,
    partition: &ShardPartition,
) -> (super::LrMatchingRun, bool, u64) {
    let sharded =
        Engine::build(g, config, |_| GroupedLrMatching::new()).run_sharded(seed, partition);
    let (run, completed) = finish_grouped_run(g, &sharded.outcome);
    (run, completed, sharded.cross_shard_messages)
}

fn finish_grouped_run(
    g: &Graph,
    outcome: &RunOutcome<Option<(u32, NodeId)>>,
) -> (super::LrMatchingRun, bool) {
    let completed = outcome.completed;
    let stats = outcome.stats.clone();
    let mut matching = assemble_matching(g, &outcome.outputs);
    if completed {
        // Maximality repair (see `augment_to_maximal`): weight exhaustion
        // can leave two adjacent nodes unmatched under non-unit weights.
        // Only on completed runs — a fault-degraded run keeps its
        // degrade-to-unmatched semantics.
        super::augment_to_maximal(g, &mut matching);
        debug_assert!(matching.is_maximal(g), "augmented matching must be maximal");
    }
    let run = super::LrMatchingRun {
        matching,
        line_rounds: stats.rounds,
        physical_rounds: stats.rounds,
        stats,
    };
    (run, completed)
}

/// Assembles mutually confirmed `(port, mate)` claims into a matching.
/// The port names the matched edge directly (`neighbor_edges[port]`), so
/// each node costs O(1) instead of a `find_edge` binary search. Under
/// duplicated/reordered confirmations a node can halt on a stale claim
/// whose port no longer points at the mate it last negotiated; anything
/// failing the port-consistency + disjointness check is skipped so every
/// surviving subset still assembles into a valid matching.
fn assemble_matching(g: &Graph, outputs: &[Option<Option<(u32, NodeId)>>]) -> Matching {
    let mut matching = Matching::new(g);
    for v in g.nodes() {
        if let Some(Some((port, mate))) = outputs[v.index()] {
            let mutual =
                matches!(outputs[mate.index()], Some(Some((_, back))) if back == v && v < mate);
            if !mutual {
                continue;
            }
            let port = port as usize;
            let ids = g.neighbor_ids(v);
            if port < ids.len() && ids[port] == mate {
                let _ = matching.try_insert(g, g.neighbor_edges(v)[port]);
            }
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_exact::max_weight_matching_oracle;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn produces_valid_matchings() {
        let mut rng = SmallRng::seed_from_u64(150);
        for trial in 0..5 {
            let mut g = generators::gnp(30, 0.15, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let run = mwm_grouped(&g, 1000 + trial);
            assert!(run.matching.is_valid(&g), "trial {trial}");
            assert_eq!(
                run.stats.budget_violations, 0,
                "trial {trial}: CONGEST violated"
            );
        }
    }

    #[test]
    fn matchings_are_maximal() {
        // Unit weights (historic coverage) PLUS uniform / zipf /
        // adversarial weight distributions — the regression for the
        // weight-exhaustion maximality gap: under non-unit weights,
        // local-ratio reductions can kill every edge at a node without
        // matching it, leaving adjacent unmatched nodes. The augmentation
        // pass in `finish_grouped_run` must close that gap on every
        // distribution.
        let mut rng = SmallRng::seed_from_u64(151);
        for trial in 0..5u64 {
            for dist in ["unit", "uniform", "zipf", "adversarial"] {
                let mut g = generators::random_regular(40, 4, &mut rng);
                crate::matching::tests::apply_weight_distribution(&mut g, dist, 151 + trial);
                let run = mwm_grouped(&g, 2000 + trial);
                assert!(
                    run.matching.is_maximal(&g),
                    "trial {trial}: grouped matching not maximal under {dist} weights"
                );
                assert!(run.matching.is_valid(&g), "trial {trial} ({dist})");
            }
        }
    }

    #[test]
    fn quality_close_to_two_approx_in_practice() {
        let mut rng = SmallRng::seed_from_u64(152);
        for trial in 0..5 {
            let mut g = generators::random_bipartite(10, 10, 0.3, &mut rng);
            generators::randomize_edge_weights(&mut g, 128, &mut rng);
            if g.num_edges() == 0 {
                continue;
            }
            let opt = max_weight_matching_oracle(&g)
                .expect("bipartite")
                .weight(&g);
            let run = mwm_grouped(&g, 3000 + trial);
            let alg = run.matching.weight(&g).max(1);
            assert!(
                2 * alg >= opt,
                "trial {trial}: grouped matching {alg} vs opt {opt}"
            );
        }
    }

    #[test]
    fn heavy_edge_path() {
        let mut b = congest_graph::GraphBuilder::with_nodes(4);
        b.add_weighted_edge(0.into(), 1.into(), 3);
        b.add_weighted_edge(1.into(), 2.into(), 10);
        b.add_weighted_edge(2.into(), 3.into(), 3);
        let g = b.build();
        let run = mwm_grouped(&g, 5);
        assert_eq!(run.matching.weight(&g), 10);
    }

    #[test]
    fn single_edge() {
        let g = generators::path(2);
        let run = mwm_grouped(&g, 1);
        assert_eq!(run.matching.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = congest_graph::GraphBuilder::with_nodes(3).build();
        let run = mwm_grouped(&g, 1);
        assert!(run.matching.is_empty());
    }

    #[test]
    fn assembly_tolerates_duplicated_and_reordered_confirmations() {
        // Regression for the mutual-confirmation assembly: pin a schedule
        // that both duplicates messages (so confirmations arrive twice,
        // one round late) and reorders inboxes. The assembly used to
        // `expect` adjacency and `insert` unconditionally; it must instead
        // degrade unmatched nodes gracefully and always return a valid
        // matching, identically across replays and executors.
        use congest_sim::Adversary;
        let mut rng = SmallRng::seed_from_u64(153);
        for trial in 0..4 {
            let mut g = generators::gnp(28, 0.18, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let adv = Adversary::default()
                .with_seed(0xD0_0D + trial)
                .with_dup_prob(0.3)
                .with_reorder_prob(0.5);
            let config = SimConfig::congest_for(&g)
                .with_max_rounds(64 * g.num_nodes() + 256)
                .with_adversary(adv);
            let (a, _) = mwm_grouped_with(&g, config.clone(), 7 + trial);
            assert!(
                a.stats.duplicated_messages > 0,
                "trial {trial}: the duplicating schedule must fire"
            );
            assert!(
                a.matching.is_valid(&g),
                "trial {trial}: assembly under duplication must stay valid"
            );
            let (b, _) = mwm_grouped_with(&g, config, 7 + trial);
            assert_eq!(
                a.matching.weight(&g),
                b.matching.weight(&g),
                "trial {trial}: duplicated schedules must replay"
            );
            assert_eq!(a.stats, b.stats, "trial {trial}");
        }
    }

    #[test]
    fn parallel_executor_matches_sequential_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(154);
        for trial in 0..4 {
            let mut g = generators::gnp(32, 0.15, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let config = SimConfig::congest_for(&g).with_max_rounds(64 * g.num_nodes() + 256);
            let seed = 40 + trial;
            let (seq, seq_done) = mwm_grouped_with(&g, config.clone().with_threads(1), seed);
            let (par, par_done) = mwm_grouped_with(&g, config.clone().with_threads(3), seed);
            // The sharded executor runs its parts whatever the graph size,
            // so this is the comparison that really splits a 32-node run.
            let parts = ShardPartition::contiguous(g.num_nodes(), 3);
            let (sharded, sharded_done, _) = mwm_grouped_with_sharded(&g, config, seed, &parts);
            for (other, done) in [(&par, par_done), (&sharded, sharded_done)] {
                assert_eq!(seq_done, done, "trial {trial}");
                assert_eq!(
                    seq.matching.edges(&g).collect::<Vec<_>>(),
                    other.matching.edges(&g).collect::<Vec<_>>(),
                    "trial {trial}: executors must agree on the matching"
                );
                assert_eq!(seq.stats, other.stats, "trial {trial}");
            }
        }
    }

    #[test]
    fn port_indexed_assembly_survives_repeated_endpoint_delta_batches() {
        // Regression for the port-indexed assembly: batches of deltas that
        // hammer the *same* endpoints (insert/remove around one hub node,
        // then compact) permute neighbor lists and renumber ports between
        // the prior graph and the compacted one. Re-running the matching
        // on the compacted graph must still assemble a valid maximal
        // matching, and the port lookup must agree with a `find_edge`
        // sweep edge-for-edge.
        use congest_graph::DeltaGraph;
        let mut rng = SmallRng::seed_from_u64(155);
        for trial in 0..4u64 {
            let mut base = generators::gnp(24, 0.2, &mut rng);
            generators::randomize_edge_weights(&mut base, 32, &mut rng);
            let mut dg = DeltaGraph::new(base);
            let hub = NodeId::from(0u32);
            // Repeatedly churn edges incident to the same hub endpoint.
            for other in 1..12u32 {
                let v = NodeId::from(other);
                if dg.has_edge(hub, v) {
                    dg.remove_edge(hub, v);
                    dg.insert_edge(hub, v, 7 + trial);
                } else {
                    dg.insert_edge(hub, v, 7 + trial);
                    dg.remove_edge(hub, v);
                    dg.insert_edge(hub, v, 9 + trial);
                }
            }
            let g = dg.compact();
            let config = SimConfig::congest_for(&g).with_max_rounds(64 * g.num_nodes() + 256);
            let outcome = run_protocol(&g, config, |_| GroupedLrMatching::new(), 60 + trial);
            assert!(outcome.completed, "trial {trial}");
            let matching = assemble_matching(&g, &outcome.outputs);
            assert!(matching.is_valid(&g), "trial {trial}");
            assert!(
                !matching.is_empty(),
                "trial {trial}: matching must be non-trivial"
            );
            // The port lookup must name exactly the edge find_edge names,
            // so the port-indexed assembly reproduces the probe-based one.
            let mut probe_assembled = Matching::new(&g);
            for v in g.nodes() {
                if let Some(Some((port, mate))) = outcome.outputs[v.index()] {
                    assert_eq!(
                        g.neighbor_edges(v)[port as usize],
                        g.find_edge(v, mate).expect("mate must be adjacent"),
                        "trial {trial}: port lookup diverged from find_edge at {v:?}"
                    );
                    let mutual = matches!(
                        outcome.outputs[mate.index()], Some(Some((_, back))) if back == v && v < mate
                    );
                    if mutual {
                        let e = g.find_edge(v, mate).unwrap();
                        let _ = probe_assembled.try_insert(&g, e);
                    }
                }
            }
            assert_eq!(
                matching.edges(&g).collect::<Vec<_>>(),
                probe_assembled.edges(&g).collect::<Vec<_>>(),
                "trial {trial}: port-indexed assembly must match the probe-based assembly"
            );
        }
    }
}
