use std::collections::VecDeque;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use congest_graph::{DeltaSet, EdgeId, Graph, NodeId, ShardPartition};
use rand::rngs::SmallRng;

use crate::message::bits_for_count;
use crate::pool::Crew;
use crate::rng::{node_rng, phase_seed};
use crate::sched::AsyncScheduler;
use crate::{Adversary, Context, Inbox, Message, NodeInfo, PackedMsg, Protocol, Status};

/// Phase tag mixed into the master seed for the RNG of a *restarted* node
/// (self-stabilization mode), so its post-restart coin stream is fresh —
/// independent of its pre-crash stream and of every other node's.
const RESTART_STREAM_SALT: u64 = 0x8E57_A87E_D000_0009;

/// Phase tag mixed into the master seed for the RNG of a node *rejoining*
/// after a churn departure ([`Adversary::node_join_prob`]), keyed by the
/// rejoin round — same construction as [`RESTART_STREAM_SALT`], on a
/// separate stream so churn joins and crash restarts never share coins.
const CHURN_STREAM_SALT: u64 = 0xC409_11ED_0000_000D;

/// Simulation configuration: model (bit budget) and safety limits.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-message bit budget; `None` simulates the LOCAL model
    /// (unbounded messages). Budget overruns are *recorded*, not fatal —
    /// see [`RunStats::budget_violations`].
    pub bit_budget: Option<usize>,
    /// Hard cap on the number of rounds; nodes still active afterwards
    /// produce `None` outputs and [`RunOutcome::completed`] is false.
    pub max_rounds: usize,
    /// Record every message as a [`MessageTrace`] (memory-hungry; meant
    /// for congestion analyses on small graphs). Tracing forces the
    /// delivery phase onto a sequential ascending-node-id path and disables
    /// active-slot compaction so trace order is reproducible.
    pub record_traces: bool,
    /// Deterministic fault adversary (seeded message drops, duplication,
    /// reordering, corruption, and node crashes with optional restart;
    /// see [`Adversary`]). `None` — the default everywhere — is the
    /// fault-free engine the gnp-1000 fingerprints pin bit-identical;
    /// the adversary's coin stream is keyed by its own seed, so enabling
    /// it never perturbs the protocol's RNG draws.
    pub adversary: Option<Adversary>,
    /// Seeded asynchronous scheduler (see [`AsyncScheduler`]): each
    /// delivered message gains a deterministic per-edge extra delay.
    /// `None` — and any scheduler with `max_delay() == 0` — is the
    /// synchronous engine, bit-identical to the fingerprinted path.
    pub scheduler: Option<AsyncScheduler>,
    /// Parts [`run_protocol`] and [`Engine::run_parallel`] split the
    /// node space into, one per thread. Defaults to the host's available
    /// parallelism; results are bit-identical for every value, so this
    /// only trades wall-clock against CPUs. [`Engine::run`] ignores it
    /// and always runs one part.
    pub threads: usize,
}

impl SimConfig {
    /// CONGEST configuration for graph `g`: per-message budget of
    /// `8·(⌈log₂ n⌉ + max(⌈log₂ W⌉, ⌈log₂ n⌉))` bits, the usual reading of
    /// "a constant number of ids and weights per message" with weights
    /// polynomial in `n`.
    pub fn congest_for(g: &Graph) -> Self {
        let id_bits = bits_for_count(g.num_nodes().max(2));
        let weight_bits =
            crate::bits_for_value(g.max_node_weight().max(g.max_edge_weight())).max(id_bits);
        SimConfig {
            bit_budget: Some(8 * (id_bits + weight_bits)),
            max_rounds: 1_000_000,
            record_traces: false,
            adversary: None,
            scheduler: None,
            threads: host_threads(),
        }
    }

    /// LOCAL configuration: unbounded message size.
    pub fn local() -> Self {
        SimConfig {
            bit_budget: None,
            max_rounds: 1_000_000,
            record_traces: false,
            adversary: None,
            scheduler: None,
            threads: host_threads(),
        }
    }

    /// Returns the configuration with a different round cap.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Returns the configuration running on `threads` parts (at least
    /// one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Threads a multi-part run over `n` nodes actually uses:
    /// [`threads`](Self::threads), or 1 when `n` is below the inline
    /// cutoff of `threads · 1024` nodes, where every round would run on
    /// the caller anyway.
    pub fn threads_for(&self, n: usize) -> usize {
        parts_for(n, self.threads)
    }

    /// Returns the configuration with message tracing enabled.
    pub fn with_traces(mut self) -> Self {
        self.record_traces = true;
        self
    }

    /// Returns the configuration with the given fault adversary enabled.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        adversary.validate();
        self.adversary = Some(adversary);
        self
    }

    /// Returns the configuration with the given asynchronous scheduler
    /// enabled.
    pub fn with_scheduler(mut self, scheduler: AsyncScheduler) -> Self {
        scheduler.validate();
        self.scheduler = Some(scheduler);
        self
    }

    /// Re-checks adversary and scheduler parameters (for struct-literal
    /// construction), panicking with a message that names the offending
    /// field. [`Engine::build`] calls this, so no run can start on
    /// silently mis-coining NaN or out-of-range probabilities.
    pub fn validate(&self) {
        if let Some(adv) = &self.adversary {
            adv.validate();
        }
        if let Some(sched) = &self.scheduler {
            sched.validate();
        }
    }
}

/// One recorded message (requires [`SimConfig::record_traces`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageTrace {
    /// Round in which the message was *sent*.
    pub round: usize,
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Message size in bits.
    pub bits: usize,
}

/// Aggregate statistics of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds executed (excluding `init`).
    pub rounds: usize,
    /// Total messages sent (including ones dropped at halted receivers).
    pub total_messages: u64,
    /// Largest message observed, in bits.
    pub max_message_bits: usize,
    /// Messages exceeding the configured bit budget.
    pub budget_violations: u64,
    /// Messages whose receiver was *dead* — halted, or crash-stopped by
    /// the [`Adversary`] — in the sending round or earlier. Round
    /// semantics are order-independent: a message sent in round `r` is
    /// dropped iff its receiver died in some round `≤ r`, regardless of
    /// the relative node ids of sender and receiver.
    pub dropped_messages: u64,
    /// Messages to *live* receivers dropped in flight by the configured
    /// [`Adversary`] (always 0 when [`SimConfig::adversary`] is `None`).
    /// Counted separately from
    /// [`dropped_messages`](Self::dropped_messages), so in-flight
    /// injected losses stay distinguishable from dead-receiver losses
    /// (note that on crash-adversary runs the latter still includes
    /// crash-induced drops — check
    /// [`crashed_nodes`](Self::crashed_nodes) to attribute them).
    pub adversary_dropped_messages: u64,
    /// Nodes crash-stopped by the configured [`Adversary`]. Without
    /// restarts a crashed node produces no output, so any such run
    /// reports [`RunOutcome::completed`] = `false`; in restart mode
    /// ([`Adversary::restart_after`]) the node may still rejoin, halt,
    /// and complete the run.
    pub crashed_nodes: u64,
    /// Messages assigned a nonzero extra delay by the configured
    /// [`AsyncScheduler`] (always 0 without one, or with a zero-delay
    /// distribution).
    pub delayed_messages: u64,
    /// Messages re-delivered one round late by the [`Adversary`]'s
    /// duplication coin.
    pub duplicated_messages: u64,
    /// Messages garbled in flight by the [`Adversary`]'s corruption coin
    /// — whether the payload surfaced mutated or was discarded by the
    /// modeled transport checksum (see [`Message::corrupted`]).
    pub corrupted_messages: u64,
    /// Crashed nodes that rejoined with reset state
    /// ([`Adversary::restart_after`] self-stabilization mode). A node
    /// crashing twice counts twice, in both this and
    /// [`crashed_nodes`](Self::crashed_nodes).
    pub restarted_nodes: u64,
    /// Undirected edges whose link state was toggled by the
    /// [`Adversary`]'s churn coin ([`Adversary::edge_flip_prob`]). An
    /// edge flipping down and back up counts twice.
    pub edges_flipped: u64,
    /// Departed nodes readmitted by the churn join coin
    /// ([`Adversary::node_join_prob`]), booting with reset protocol
    /// state. A node leaving and rejoining twice counts twice.
    pub nodes_joined: u64,
    /// Present nodes removed by the churn leave coin
    /// ([`Adversary::node_leave_prob`]); they stop computing and messages
    /// to them are dropped, until (and unless) a join coin readmits them.
    pub nodes_left: u64,
}

/// Result of running a protocol to completion (or to the round cap).
#[derive(Clone, Debug)]
pub struct RunOutcome<O> {
    /// Per-node outputs; `None` for nodes still active when the round cap
    /// was reached.
    pub outputs: Vec<Option<O>>,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Whether every node produced an output — halted before the round
    /// cap and was not lost to a permanent crash. (In restart mode a
    /// crashed node can rejoin and still halt, so `crashed_nodes > 0`
    /// does not by itself preclude completion.)
    pub completed: bool,
    /// Message traces, if [`SimConfig::record_traces`] was set.
    pub traces: Vec<MessageTrace>,
}

impl<O> RunOutcome<O> {
    /// Unwraps all outputs, panicking if any node failed to halt.
    ///
    /// ```
    /// use congest_graph::generators;
    /// use congest_sim::{run_protocol, Context, Inbox, Protocol, SimConfig, Status};
    ///
    /// struct MyId;
    /// impl Protocol for MyId {
    ///     type Msg = ();
    ///     type Output = u32;
    ///     fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
    ///     fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>)
    ///         -> Status<u32>
    ///     {
    ///         Status::Halt(ctx.id().0)
    ///     }
    /// }
    ///
    /// let outcome = run_protocol(&generators::cycle(3), SimConfig::local(), |_| MyId, 0);
    /// assert_eq!(outcome.into_outputs(), vec![0, 1, 2]);
    /// ```
    ///
    /// # Panics
    /// Panics if the run did not complete.
    pub fn into_outputs(self) -> Vec<O> {
        assert!(
            self.completed,
            "run hit the round cap before all nodes halted"
        );
        self.outputs
            .into_iter()
            .map(|o| o.expect("completed runs have all outputs"))
            .collect()
    }
}

/// Result of [`Engine::run_sharded`]: the ordinary [`RunOutcome`] (bit-
/// identical to [`Engine::run`] for the same seed) plus the sharding
/// cost surface — how much of the protocol's traffic crossed shard
/// boundaries and therefore counts as coordinator↔worker communication
/// in a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardedRun<O> {
    /// The protocol run itself, indistinguishable from a sequential run.
    pub outcome: RunOutcome<O>,
    /// Number of shards the slot space was partitioned into.
    pub shards: usize,
    /// Undirected edges whose endpoints live in different shards.
    pub cross_shard_edges: usize,
    /// Delivered messages that crossed a shard boundary (both directions
    /// counted, like [`RunStats::total_messages`]). Kept out of
    /// [`RunStats`] so stats stay executor-independent.
    pub cross_shard_messages: u64,
}

/// Everything one node owns during a run: its protocol instance, static
/// info, private RNG, and its halt latch. Message buffers live *outside*
/// the slot, in the engine's two flat message planes; the slot only
/// remembers where its CSR row starts.
///
/// Bundling the per-node state lets a synchronous round be executed as a
/// *compute phase* (each slot stepped independently — sequentially or in
/// parallel) followed by a *delivery phase* (halts applied, send-plane rows
/// scattered into the receive plane), which is what makes the round
/// semantics independent of node processing order.
struct NodeSlot<'g, P: Protocol> {
    proto: P,
    info: NodeInfo<'g>,
    /// `reverse_port[p]` = the port at `neighbor(p)` that leads back to
    /// this node; used to deliver into the receiver's port-indexed inbox
    /// row. Borrowed straight from the graph's precomputed CSR table.
    reverse_port: &'g [u32],
    /// `neighbor_edges[p]` = the undirected edge id behind port `p`;
    /// consulted by delivery when the churn adversary's edge-down bitmap
    /// is live. Borrowed from the graph's CSR table.
    neighbor_edges: &'g [EdgeId],
    /// Start of this node's row in the CSR-shaped message planes
    /// (`graph.row_offsets()[id]`); the row length is the node's degree.
    row_start: u32,
    /// Start of this node's occupancy words in the planes' bitmaps
    /// (`occ_offsets[id]`); the row spans `⌈degree / 64⌉` words.
    occ_start: u32,
    rng: SmallRng,
    /// The node's output, once it has halted. The part that stepped the
    /// node clears its `alive` flag in the same compute phase; delivery
    /// starts only after every part has computed, so drop decisions never
    /// observe a half-updated round.
    output: Option<P::Output>,
    active: bool,
    /// Set when the node rejoins after a crash (restart mode): its next
    /// compute phase runs `init` — with the current round number — instead
    /// of `round`, exactly like a node booting with reset state.
    needs_init: bool,
}

/// Raw shared handle to one message plane: a flat array of packed payload
/// *words* (`u64`, one per directed edge — length `2m`, shaped exactly
/// like the graph's CSR block, so the word for `(node v, port p)` is
/// `row_offsets[v] + p`) plus a word-aligned occupancy bitmap. The bitmap
/// is laid out per node — node `v`'s occupancy words start at
/// `occ_offsets[v]` and span `⌈degree(v) / 64⌉` words — so the compute
/// phase can take plain `&mut [u64]` occupancy rows of distinct nodes
/// without sharing any word across threads. Payload words of silent ports
/// are stale garbage; the occupancy bit is the only truth.
///
/// The handle deliberately erases Rust's aliasing information so disjoint
/// CSR rows (compute phase) and disjoint directed-edge cells (delivery
/// phase) can be written from multiple threads. Every `unsafe` access site
/// states which disjointness argument makes it sound. The one genuinely
/// shared location — a receiver's occupancy word, targeted by up to 64
/// concurrent senders during delivery — is accessed exclusively through
/// the atomic [`occ_fetch_or`](Self::occ_fetch_or), never through a
/// reference, during that phase.
struct PlanePtr {
    words: *mut u64,
    occ: *mut u64,
    words_len: usize,
    occ_len: usize,
}

impl Clone for PlanePtr {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for PlanePtr {}

// SAFETY: a `PlanePtr` is only a capability to *derive* references (or
// atomic views); all derivations happen under the row/cell disjointness
// contracts documented on `words_row` / `occ_row` / `write_word` /
// `occ_fetch_or`, and the payload is plain `u64`s. No reference is ever
// shared across threads through it.
unsafe impl Send for PlanePtr {}
// SAFETY: as for `Send` above — sharing the handle only shares the
// *capability*; actual access is serialized per row/cell by the engine's
// disjointness contracts (or made atomic, for delivery's occupancy bits).
unsafe impl Sync for PlanePtr {}

impl PlanePtr {
    fn new(words: &mut Vec<u64>, occ: &mut Vec<u64>) -> Self {
        PlanePtr {
            words: words.as_mut_ptr(),
            occ: occ.as_mut_ptr(),
            words_len: words.len(),
            occ_len: occ.len(),
        }
    }

    /// Mutable view of the payload row `start..start + len`.
    ///
    /// # Safety
    /// The caller must guarantee that no other live reference (on this or
    /// any other thread) overlaps the row. The engine upholds this by only
    /// handing out rows keyed by node id — CSR rows of distinct nodes are
    /// disjoint, and each node id occurs in exactly one `NodeSlot`.
    // The `&self -> &mut` shape is the point of the type: exclusivity is
    // a caller obligation (see Safety), exactly like `UnsafeCell::get`.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn words_row(&self, start: usize, len: usize) -> &mut [u64] {
        debug_assert!(start + len <= self.words_len, "plane row out of bounds");
        std::slice::from_raw_parts_mut(self.words.add(start), len)
    }

    /// Mutable view of one node's occupancy words,
    /// `start..start + len` with `len = ⌈degree / 64⌉`.
    ///
    /// # Safety
    /// As for [`words_row`](Self::words_row) — occupancy rows are
    /// word-aligned per node, so rows of distinct nodes never share a
    /// word. Must not be held while any thread may call
    /// [`occ_fetch_or`](Self::occ_fetch_or) on this plane (the engine's
    /// compute and delivery phases never overlap).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn occ_row(&self, start: usize, len: usize) -> &mut [u64] {
        debug_assert!(start + len <= self.occ_len, "occupancy row out of bounds");
        std::slice::from_raw_parts_mut(self.occ.add(start), len)
    }

    /// Plain (non-atomic) write of one payload word.
    ///
    /// # Safety
    /// The caller must guarantee the cell is not accessed concurrently.
    /// The delivery phase upholds this by addressing cells by *directed
    /// edge* (`row_offsets[to] + reverse_port`), and each directed edge
    /// has exactly one sender.
    #[inline]
    unsafe fn write_word(&self, idx: usize, word: u64) {
        debug_assert!(idx < self.words_len, "plane cell out of bounds");
        *self.words.add(idx) = word;
    }

    /// Atomically ORs `mask` into occupancy word `idx`, returning the
    /// prior word (Relaxed: the bits carry no payload ordering — the
    /// phase-ending thread join publishes everything).
    ///
    /// This is delivery's receiver-bit set: up to 64 senders (one per
    /// port covered by the word) may land concurrently on one receiver's
    /// occupancy word, so the RMW must be atomic even though every
    /// *payload* cell has a unique writer. The returned prior word doubles
    /// as the collision detector — a set bit means a message of an earlier
    /// phase already occupied the cell (async ring only).
    ///
    /// # Safety
    /// `idx < occ_len`, and no thread may hold a `&mut` over the word
    /// (the engine confines `occ_row` references to the compute phase).
    #[inline]
    unsafe fn occ_fetch_or(&self, idx: usize, mask: u64) -> u64 {
        debug_assert!(idx < self.occ_len, "occupancy word out of bounds");
        AtomicU64::from_ptr(self.occ.add(idx)).fetch_or(mask, Ordering::Relaxed)
    }
}

/// The send plane and the *ring* of receive planes of a run, handed to
/// the compute and delivery phases together.
///
/// Synchronous runs use a ring of one plane — exactly the two-plane
/// engine the fingerprints pin. An [`AsyncScheduler`] with maximum delay
/// `d` (plus one extra plane when the duplication adversary is on, whose
/// copies trail originals by a round) widens the ring to `d + 1 (+ 1)`
/// planes indexed by *arrival round* modulo the ring length: delivery in
/// round `r` writes arrivals `r + 1 ..= r + 1 + d (+ 1)`, and the compute
/// phase of round `t` reads (and clears) plane `t % len`, so a plane is
/// always drained before the ring cycles back onto it.
struct Planes {
    send: PlanePtr,
    recv: Vec<PlanePtr>,
    /// Inbox-reordering adversary, pre-filtered to `None` when it cannot
    /// fire; consulted by the compute phase, which permutes its own
    /// (exclusively held) inbox row before reading it.
    reorder: Option<Adversary>,
}

impl Planes {
    /// The receive plane messages arriving in `arrival_round` land in.
    #[inline]
    fn recv_for(&self, arrival_round: usize) -> &PlanePtr {
        &self.recv[arrival_round % self.recv.len()]
    }
}

/// Read-only context the delivery phase needs besides the slots.
struct DeliverArgs<'a> {
    /// `graph.row_offsets()` — maps a receiver id to its payload row.
    row_offsets: &'a [u32],
    /// Prefix sums of `⌈degree / 64⌉` — maps a receiver id to its
    /// occupancy row (see [`PlanePtr`]).
    occ_offsets: &'a [u32],
    /// Liveness per node id, with this round's halts already applied.
    alive: &'a [AtomicBool],
    /// [`SimConfig::bit_budget`].
    bit_budget: Option<usize>,
    /// The round being delivered, so adversary and scheduler coins can be
    /// keyed by `(round, from, to)` — pure functions, independent of
    /// delivery order and parallel chunking.
    round: usize,
    /// Per-message fault adversary (drop / duplicate / corrupt coins),
    /// pre-filtered to `None` when none of those can fire so the
    /// fault-free hot path tests one `Option` discriminant only.
    adversary: Option<Adversary>,
    /// Asynchronous delay scheduler, pre-filtered to `None` when its
    /// maximum delay is zero (the synchronous case).
    scheduler: Option<AsyncScheduler>,
    /// Link-state bitmap of the churn adversary, one bit per undirected
    /// edge id (set = down: messages crossing the edge are silently
    /// discarded). `None` whenever [`Adversary::edge_flip_prob`] is zero,
    /// so the static path never tests it per message.
    edge_down: Option<&'a [u64]>,
}

/// Delivery statistics of one part over one phase, merged into the run's
/// totals through [`AddAssign`] — sums and max only, so neither the part
/// count nor the merge order can change the result.
#[derive(Default)]
struct Tally {
    total_messages: u64,
    max_message_bits: usize,
    budget_violations: u64,
    dropped_messages: u64,
    adversary_dropped_messages: u64,
    delayed_messages: u64,
    duplicated_messages: u64,
    corrupted_messages: u64,
    /// Messages whose receiver lies outside the sender's part: the
    /// cross-shard meter of [`Engine::run_sharded`], kept out of
    /// [`RunStats`] so stats stay executor-independent.
    cross_part_messages: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.total_messages += t.total_messages;
        self.max_message_bits = self.max_message_bits.max(t.max_message_bits);
        self.budget_violations += t.budget_violations;
        self.dropped_messages += t.dropped_messages;
        self.adversary_dropped_messages += t.adversary_dropped_messages;
        self.delayed_messages += t.delayed_messages;
        self.duplicated_messages += t.duplicated_messages;
        self.corrupted_messages += t.corrupted_messages;
        self.cross_part_messages += t.cross_part_messages;
    }
}

impl Tally {
    /// Adds the run's delivery totals to `stats` (every field but the
    /// cross-part meter).
    fn record(&self, stats: &mut RunStats) {
        stats.total_messages += self.total_messages;
        stats.max_message_bits = stats.max_message_bits.max(self.max_message_bits);
        stats.budget_violations += self.budget_violations;
        stats.dropped_messages += self.dropped_messages;
        stats.adversary_dropped_messages += self.adversary_dropped_messages;
        stats.delayed_messages += self.delayed_messages;
        stats.duplicated_messages += self.duplicated_messages;
        stats.corrupted_messages += self.corrupted_messages;
    }
}

/// Minimum active slots *per part* below which a multi-part round steps
/// and delivers every part on the caller: waking helpers for a nearly
/// drained (or small) round costs more than the round. Scaling the
/// cutoff by the part count — rather than a flat threshold — keeps a
/// 1000-node round from being split into slivers on a many-core host.
/// A graph smaller than the cutoff is run as one part outright, so
/// oracle-sized graphs never wake a helper.
const PAR_MIN_SLOTS_PER_WORKER: usize = 1024;

/// Parts a `threads`-thread run over `n` nodes is split into: one below
/// the inline cutoff, else one per thread.
fn parts_for(n: usize, threads: usize) -> usize {
    let threads = threads.max(1);
    if n < threads.saturating_mul(PAR_MIN_SLOTS_PER_WORKER) {
        1
    } else {
        threads
    }
}

/// One contiguous range of node ids: the unit a single thread steps,
/// delivers and compacts in each phase.
struct Part<'g, P: Protocol> {
    /// First node id of the range. Slot `i` of an uncompacted part is
    /// node `start + i`.
    start: usize,
    /// The range's slots; `slots[..active_len]` is the active prefix,
    /// swap-compacted after each delivery when the run allows it.
    slots: Vec<NodeSlot<'g, P>>,
    active_len: usize,
}

/// The host's available parallelism: the default
/// [`SimConfig::threads`].
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one [`Protocol`] instance per node of a graph.
///
/// Build with [`Engine::build`], execute with [`Engine::run`] (or
/// [`Engine::run_parallel`], which produces bit-identical results). See the
/// crate-level docs for an end-to-end example.
///
/// # Round semantics
///
/// Each synchronous round has two phases:
///
/// 1. **Compute** — every active node's [`Protocol::round`] runs against
///    the messages sent to it in the previous round, filling its send-plane
///    row and possibly deciding to halt. Nodes cannot observe each other
///    mid-round, so the execution order (including parallel execution)
///    cannot affect results.
/// 2. **Deliver** — halts are applied, then every send-plane row is
///    scattered into the receive plane: the message node `v` sent through
///    port `p` lands in cell `row_offsets[u] + reverse_port`, i.e. the
///    receiver `u`'s own port-indexed inbox row. A message is dropped
///    (counted in [`RunStats::dropped_messages`]) iff its receiver halted
///    in the sending round or earlier. Distinct directed edges map to
///    distinct cells, so delivery parallelizes without locks while staying
///    bit-identical.
///
/// # Memory discipline
///
/// Every message plane (2·`m` packed payload words plus the occupancy
/// bitmap — see [`plane_bytes_for`]), the slot table, and every other
/// buffer of the round loop are allocated once, in `build`/`run`; the
/// steady-state loop performs **zero engine-side heap allocations** (the
/// traced path, which pushes [`MessageTrace`]s, is the documented
/// small-graph exception). Halted nodes are swap-compacted out of the
/// active prefix, so late rounds iterate only live slots.
pub struct Engine<'g, P: Protocol> {
    graph: &'g Graph,
    config: SimConfig,
    infos: Vec<NodeInfo<'g>>,
    nodes: Vec<P>,
    /// Kept beyond `build` for the restart adversary, which re-instantiates
    /// a rejoining node's protocol from scratch (self-stabilization:
    /// restarted nodes boot with reset state, not a snapshot).
    factory: Box<dyn FnMut(&NodeInfo<'g>) -> P + 'g>,
}

impl<'g, P: Protocol> Engine<'g, P> {
    /// Creates an engine, instantiating the protocol at every node via
    /// `factory` (called in ascending node-id order).
    ///
    /// Zero-copy: each [`NodeInfo`] borrows its per-port slices straight
    /// out of the graph's CSR block, and the reverse-port table was already
    /// computed by the graph in `O(n + m)`, so building the engine
    /// allocates `O(n)` — independent of the number of edges — and
    /// parallel rounds share one read-only adjacency image.
    pub fn build(
        graph: &'g Graph,
        config: SimConfig,
        mut factory: impl FnMut(&NodeInfo<'g>) -> P + 'g,
    ) -> Self {
        config.validate();
        // Monomorphization-time width check: building an engine for a
        // protocol whose `Msg` claims more than 64 packed bits is a
        // compile error, not a runtime truncation.
        #[allow(clippy::let_unit_value)]
        let () = <P::Msg as PackedMsg>::BITS_OK;
        let n = graph.num_nodes();
        let max_degree = graph.max_degree();
        let max_node_weight = graph.max_node_weight();
        let max_edge_weight = graph.max_edge_weight();
        let mut infos = Vec::with_capacity(n);
        for v in graph.nodes() {
            infos.push(NodeInfo {
                id: v,
                weight: graph.node_weight(v),
                neighbor_ids: graph.neighbor_ids(v),
                edge_weights: graph.port_edge_weights(v),
                n,
                max_degree,
                max_node_weight,
                max_edge_weight,
            });
        }
        let nodes = infos.iter().map(&mut factory).collect();
        Engine {
            graph,
            config,
            infos,
            nodes,
            factory: Box::new(factory),
        }
    }

    /// Retargets the engine onto a mutated topology between runs: `graph`
    /// is the compacted successor of the engine's current graph (same
    /// slot-id space — typically `DeltaGraph::compact` output, so slot
    /// ids are stable and `n` never shrinks), `deltas` the applied
    /// mutation log.
    ///
    /// Message planes and occupancy bitmaps are *not* carried over — the
    /// next `run` allocates them from the new graph's CSR shape, so they
    /// grow and shrink with the directed-edge count and removed rows
    /// simply cease to exist. Protocol instances of surviving nodes are
    /// kept (their per-node state is what incremental repair feeds on);
    /// nodes named in [`DeltaSet::joined`] or [`DeltaSet::left`] are
    /// re-instantiated factory-fresh, as are slots beyond the old `n`.
    ///
    /// # Panics
    /// Panics if `graph` has fewer slots than the current graph, or if a
    /// delta entry references a node outside `graph`.
    pub fn apply_deltas(self, graph: &'g Graph, deltas: &DeltaSet) -> Self {
        let old_n = self.graph.num_nodes();
        let n = graph.num_nodes();
        assert!(
            n >= old_n,
            "Engine::apply_deltas: graph must keep the slot-id space \
             ({n} slots < previous {old_n})"
        );
        for &v in deltas.joined.iter().chain(&deltas.left) {
            assert!(
                v.index() < n,
                "Engine::apply_deltas: delta node {v} out of range (slots 0..{n})"
            );
        }
        for &(u, v) in deltas.inserted.iter().chain(&deltas.removed) {
            assert!(
                u.index() < n && v.index() < n,
                "Engine::apply_deltas: delta edge {u}–{v} out of range (slots 0..{n})"
            );
        }
        self.config.validate();
        let max_degree = graph.max_degree();
        let max_node_weight = graph.max_node_weight();
        let max_edge_weight = graph.max_edge_weight();
        let mut infos = Vec::with_capacity(n);
        for v in graph.nodes() {
            infos.push(NodeInfo {
                id: v,
                weight: graph.node_weight(v),
                neighbor_ids: graph.neighbor_ids(v),
                edge_weights: graph.port_edge_weights(v),
                n,
                max_degree,
                max_node_weight,
                max_edge_weight,
            });
        }
        let mut reset = vec![false; n];
        for &v in deltas.joined.iter().chain(&deltas.left) {
            reset[v.index()] = true;
        }
        let mut factory = self.factory;
        let mut old_nodes = self.nodes.into_iter();
        let mut nodes = Vec::with_capacity(n);
        for (v, info) in infos.iter().enumerate() {
            let survivor = old_nodes.next();
            match survivor {
                Some(proto) if v < old_n && !reset[v] => nodes.push(proto),
                _ => nodes.push(factory(info)),
            }
        }
        Engine {
            graph,
            config: self.config,
            infos,
            nodes,
            factory,
        }
    }

    /// Runs the protocol to completion (all nodes halted) or to the round
    /// cap, using `seed` to derive every node's private RNG.
    ///
    /// This is the one-part reference executor: it ignores
    /// [`SimConfig::threads`], never wakes a helper thread, and is what
    /// every parity check compares the multi-part executors against.
    pub fn run(self, seed: u64) -> RunOutcome<P::Output> {
        self.run_parallel_with(seed, 1)
    }

    /// Like [`run`](Engine::run), but splits the node space into
    /// [`SimConfig::threads`] contiguous parts, one per thread (see
    /// [`run_parallel_with`](Self::run_parallel_with)). This is what
    /// [`run_protocol`] — and so every protocol driver — runs on.
    pub fn run_parallel(self, seed: u64) -> RunOutcome<P::Output> {
        let threads = self.config.threads;
        self.run_parallel_with(seed, threads)
    }

    /// Runs on `threads` contiguous parts: each round, the caller steps
    /// and delivers part 0 while long-lived helper threads take the rest,
    /// each compacting its own part's active prefix (halted nodes cost
    /// nothing). The helpers are leased from a process-wide pool for the
    /// run and park between phases and between runs.
    ///
    /// Outputs, statistics, and traces are bit-identical to
    /// [`run`](Self::run) for the same `seed` and any `threads`: every
    /// node steps against its own private [`SmallRng`] and disjoint plane
    /// rows (no cross-node state), delivery writes each directed edge's
    /// unique cell, and the statistics merge with commutative sums/max.
    /// Rounds with fewer than `threads · 1024` active nodes run every
    /// part on the caller, and a graph below that size is one part, so
    /// the executor degrades to the sequential one instead of paying for
    /// helpers it cannot use.
    pub fn run_parallel_with(self, seed: u64, threads: usize) -> RunOutcome<P::Output> {
        let n = self.graph.num_nodes();
        let inline_below = threads.max(1).saturating_mul(PAR_MIN_SLOTS_PER_WORKER);
        let partition = ShardPartition::contiguous(n, parts_for(n, threads));
        self.run_parts(seed, &partition, inline_below).0
    }

    /// Shard-partitioned executor for the matching-as-a-service façade:
    /// each shard's contiguous slot range is one part, stepped, delivered
    /// and compacted by its own thread in every round whatever its size,
    /// and every message crossing a shard boundary is metered as
    /// coordinator↔worker traffic (the Huang–Radunovic–Vojnovic–Zhang
    /// communication model: cross-shard edges *are* the cost surface,
    /// carried here as the same packed-u64 plane rows as intra-shard
    /// ones). The meter is a delivery hook; it is kept out of
    /// [`RunStats`] so stats equality across executors stays exact.
    ///
    /// Outputs, statistics, and completion are **bit-identical to
    /// [`run`](Self::run)** for the same `(graph, config, seed)`, for any
    /// partition — including shards with empty ranges — by the same
    /// argument as [`run_parallel_with`](Self::run_parallel_with).
    /// Active-slot compaction is on, per shard.
    ///
    /// # Panics
    /// Panics if `partition` does not cover exactly the graph's slots.
    pub fn run_sharded(self, seed: u64, partition: &ShardPartition) -> ShardedRun<P::Output> {
        assert_eq!(
            partition.num_slots(),
            self.graph.num_nodes(),
            "Engine::run_sharded: partition covers {} slots, graph has {}",
            partition.num_slots(),
            self.graph.num_nodes()
        );
        let cross_shard_edges = partition.cross_shard_edges(self.graph);
        let (outcome, cross_shard_messages) = self.run_parts(seed, partition, 0);
        ShardedRun {
            outcome,
            shards: partition.shards(),
            cross_shard_edges,
            cross_shard_messages,
        }
    }

    /// The one executor behind [`run`](Self::run),
    /// [`run_parallel_with`](Self::run_parallel_with) and
    /// [`run_sharded`](Self::run_sharded). Each part of `partition` is
    /// stepped, delivered and compacted by one thread per phase — the
    /// caller works as part 0 and a leased [`Crew`] takes the rest —
    /// except in rounds with fewer than `inline_below` active nodes,
    /// where the caller runs every part itself. The delivery hook counts
    /// messages leaving their sender's part (never any for one part); the
    /// count is returned beside the outcome.
    ///
    /// Tracing keeps compute on the parts but delivers on the caller in
    /// ascending node-id order, so trace order is reproducible.
    fn run_parts(
        self,
        seed: u64,
        partition: &ShardPartition,
        inline_below: usize,
    ) -> (RunOutcome<P::Output>, u64) {
        let n = self.graph.num_nodes();
        let graph = self.graph;
        let config = self.config;
        let mut factory = self.factory;
        let row_offsets = graph.row_offsets();
        // Per-node occupancy rows, word-aligned: node `v`'s bits live in
        // words `occ_offsets[v] .. occ_offsets[v + 1]` (one word per 64
        // ports, rounded up), so no two nodes ever share an occupancy word
        // and the compute phase can hold plain `&mut` rows.
        let mut occ_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut occ_acc: u32 = 0;
        occ_offsets.push(0);
        for v in 0..n {
            let degree = (row_offsets[v + 1] - row_offsets[v]) as usize;
            occ_acc += degree.div_ceil(64) as u32;
            occ_offsets.push(occ_acc);
        }
        let mut nodes = self.nodes.into_iter().zip(self.infos);
        let mut parts: Vec<Mutex<Part<'g, P>>> = (0..partition.shards())
            .map(|k| {
                let range = partition.range(k);
                let slots: Vec<NodeSlot<'g, P>> = nodes
                    .by_ref()
                    .take(range.len())
                    .map(|(proto, info)| NodeSlot {
                        rng: node_rng(seed, info.id),
                        proto,
                        reverse_port: graph.reverse_ports(info.id),
                        neighbor_edges: graph.neighbor_edges(info.id),
                        row_start: row_offsets[info.id.index()],
                        occ_start: occ_offsets[info.id.index()],
                        info,
                        output: None,
                        active: true,
                        needs_init: false,
                    })
                    .collect();
                Mutex::new(Part {
                    start: range.start,
                    active_len: slots.len(),
                    slots,
                })
            })
            .collect();
        // Release the consumed protocol and info buffers now, not at the
        // end of the run.
        drop(nodes);
        // Fault machinery, pre-filtered so the fault-free loop tests one
        // `Option` discriminant per hook and allocates nothing extra: a
        // zero-delay scheduler and an all-zero adversary take exactly the
        // fingerprinted synchronous path.
        let adversary = config.adversary.filter(Adversary::is_active);
        let scheduler = config.scheduler.filter(|s| s.max_delay() > 0);
        let dup_on = adversary.is_some_and(|a| a.dup_prob > 0.0);
        let restart_after = adversary
            .filter(|a| a.crash_prob > 0.0)
            .and_then(|a| a.restart_after);
        // Topology churn: a link-state bitmap over undirected edge ids
        // (flips toggle bits; delivery consults it per message) and a
        // departed set for node leaves/joins. All allocated only when the
        // corresponding coin can fire, so the static path stays untouched.
        let churn = adversary.filter(Adversary::has_churn);
        let flips_on = churn.is_some_and(|a| a.edge_flip_prob > 0.0);
        let joins_on = churn.is_some_and(|a| a.node_join_prob > 0.0);
        let leaves_on = churn.is_some_and(|a| a.node_leave_prob > 0.0);
        let mut edge_down: Vec<u64> = if flips_on {
            vec![0u64; graph.num_edges().div_ceil(64)]
        } else {
            Vec::new()
        };
        let mut departed: Vec<bool> = if leaves_on {
            vec![false; n]
        } else {
            Vec::new()
        };
        let mut departed_count: usize = 0;
        // The send plane and the receive-plane ring: every buffer of the
        // round loop is allocated here, once; rounds only move messages
        // through them. Ring sizing: arrivals span `round + 1` through
        // `round + 1 + max_delay` (+1 more for duplicate copies, which
        // trail their originals by a round).
        let ring_len = scheduler.map_or(0, |s| s.max_delay()) + 1 + usize::from(dup_on);
        let plane_len = row_offsets[n] as usize;
        let occ_len = occ_acc as usize;
        // Dense word storage: 8 payload bytes per directed edge plus one
        // amortized occupancy byte (see [`plane_bytes_for`]), zeroed in one
        // memset each — no per-cell `Option` initialization.
        let mut send_words = vec![0u64; plane_len];
        let mut send_occ = vec![0u64; occ_len];
        let mut recv_words: Vec<Vec<u64>> = (0..ring_len).map(|_| vec![0u64; plane_len]).collect();
        let mut recv_occ: Vec<Vec<u64>> = (0..ring_len).map(|_| vec![0u64; occ_len]).collect();
        let planes = Planes {
            send: PlanePtr::new(&mut send_words, &mut send_occ),
            recv: recv_words
                .iter_mut()
                .zip(recv_occ.iter_mut())
                .map(|(w, o)| PlanePtr::new(w, o))
                .collect(),
            reorder: adversary.filter(|a| a.reorder_prob > 0.0),
        };
        // Liveness per node id. Atomic so each part can retire its own
        // halting nodes during the compute phase while no part reads the
        // flags. Relaxed accesses suffice: delivery reads them only after
        // every part has computed, and the phase join in `Crew::run`
        // (Release by each helper, Acquire by the caller) orders the
        // writes before the reads.
        let alive: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(true)).collect();
        let mut active_count = n;
        // Tracing disables compaction so delivery can walk ascending node
        // ids, and restart mode and node churn disable it so a rejoining
        // node can be found at slot `v - start` of its part.
        let compact = !config.record_traces && restart_after.is_none() && churn.is_none();
        let crew = (parts.len() > 1).then(|| Crew::lease(parts.len() - 1));
        let mut stats = RunStats::default();
        let mut totals = Tally::default();
        let mut traces = Vec::new();
        // Crashed nodes awaiting their restart round, in due-round order
        // (crashes are discovered in ascending rounds, so plain FIFO
        // pushes keep the queue monotone).
        let mut restart_queue: VecDeque<(usize, u32)> = VecDeque::new();

        // Round 0 is `init` (no inboxes yet, halting is not possible);
        // every later round starts with the sequential adversary section.
        let mut round = 0;
        loop {
            let crew = crew.as_ref().filter(|_| active_count >= inline_below);
            let halted = AtomicUsize::new(0);
            Self::for_each_part(crew, &parts, |part| {
                Self::compute_part(part, round, &planes, &alive, &halted);
            });
            active_count -= halted.into_inner();
            let args = DeliverArgs {
                row_offsets,
                occ_offsets: &occ_offsets,
                alive: &alive,
                bit_budget: config.bit_budget,
                round,
                adversary: config.adversary.filter(Adversary::affects_delivery),
                scheduler,
                edge_down: flips_on.then_some(edge_down.as_slice()),
            };
            if config.record_traces {
                // Compaction is off, so part order then slot order is
                // ascending node-id order — the documented small-graph
                // path, on the caller.
                for part in &mut parts {
                    let part = part.get_mut().unwrap_or_else(PoisonError::into_inner);
                    let range = part.start..part.start + part.slots.len();
                    let mut cross = 0;
                    for slot in &part.slots {
                        Self::deliver_slot_with(
                            slot,
                            &planes,
                            &args,
                            &mut totals,
                            |from, to, bits| {
                                cross += u64::from(!range.contains(&to.index()));
                                traces.push(MessageTrace {
                                    round,
                                    from,
                                    to,
                                    bits,
                                });
                            },
                        );
                    }
                    totals.cross_part_messages += cross;
                }
            } else {
                let merged = Mutex::new(Tally::default());
                Self::for_each_part(crew, &parts, |part| {
                    let tally = Self::deliver_part(part, &planes, &args, compact);
                    *merged.lock().unwrap_or_else(PoisonError::into_inner) += tally;
                });
                totals += merged.into_inner().unwrap_or_else(PoisonError::into_inner);
            }

            let live =
                active_count > 0 || !restart_queue.is_empty() || (joins_on && departed_count > 0);
            if !live || stats.rounds >= config.max_rounds {
                break;
            }
            stats.rounds += 1;
            round = stats.rounds;
            // Self-stabilization: crashed nodes whose downtime has elapsed
            // rejoin *before* this round's crash coins, with factory-fresh
            // protocol state and a fresh RNG stream (keyed by the rejoin
            // round, so a node crashing twice gets two distinct streams).
            while let Some(&(due, v)) = restart_queue.front() {
                if due > round {
                    break;
                }
                restart_queue.pop_front();
                let slot = Self::node_slot(&mut parts, partition, v as usize);
                let info = slot.info;
                slot.proto = factory(&info);
                slot.rng = node_rng(
                    phase_seed(seed, RESTART_STREAM_SALT.wrapping_add(round as u64)),
                    info.id,
                );
                slot.needs_init = true;
                slot.active = true;
                alive[v as usize].store(true, Ordering::Relaxed);
                active_count += 1;
                stats.restarted_nodes += 1;
            }
            // Crash adversary: decided before the compute phase, per node,
            // by a coin pure in (round, id) — so the schedule cannot
            // depend on slot order, compaction, or the partition. A
            // crashed node is inert from this round on: it neither
            // computes nor sends, produces no output, and `alive` makes
            // delivery drop everything addressed to it — until its restart
            // round, if the adversary grants one. (Rounds ≥ 1 only: every
            // node is guaranteed its first `init`.)
            if let Some(adv) = adversary.filter(|a| a.crash_prob > 0.0) {
                for slot in Self::active_slots(&mut parts) {
                    if slot.active && adv.crashes(round, slot.info.id) {
                        slot.active = false;
                        alive[slot.info.id.index()].store(false, Ordering::Relaxed);
                        active_count -= 1;
                        stats.crashed_nodes += 1;
                        if let Some(k) = restart_after {
                            restart_queue.push_back((round + k, slot.info.id.0));
                            // A restarted node boots with an empty inbox;
                            // pre-crash stragglers count as lost to the
                            // crash.
                            stats.dropped_messages += Self::wipe_arrivals(slot, &planes);
                        }
                    }
                }
            }
            // Topology churn, in the same sequential section as crashes,
            // by coins pure in (round, id): joins first (mirroring
            // restarts: a node can rejoin before this round's leave coins
            // fire), then leaves, then edge flips. Compaction is off
            // whenever churn is on, so slot index == node id − start.
            if let Some(adv) = churn {
                if joins_on && departed_count > 0 {
                    for v in 0..n {
                        if !departed[v] || !adv.rejoins(round, NodeId(v as u32)) {
                            continue;
                        }
                        departed[v] = false;
                        departed_count -= 1;
                        let slot = Self::node_slot(&mut parts, partition, v);
                        let info = slot.info;
                        slot.proto = factory(&info);
                        slot.rng = node_rng(
                            phase_seed(seed, CHURN_STREAM_SALT.wrapping_add(round as u64)),
                            info.id,
                        );
                        slot.needs_init = true;
                        slot.active = true;
                        alive[v].store(true, Ordering::Relaxed);
                        active_count += 1;
                        stats.nodes_joined += 1;
                    }
                }
                if leaves_on {
                    for slot in Self::active_slots(&mut parts) {
                        if !slot.active || !adv.leaves(round, slot.info.id) {
                            continue;
                        }
                        let v = slot.info.id.index();
                        slot.active = false;
                        alive[v].store(false, Ordering::Relaxed);
                        active_count -= 1;
                        departed[v] = true;
                        departed_count += 1;
                        stats.nodes_left += 1;
                        // As at a crash: a rejoining node boots with an
                        // empty inbox, and pre-departure stragglers count
                        // as lost to the churn.
                        stats.dropped_messages += Self::wipe_arrivals(slot, &planes);
                    }
                }
                if flips_on {
                    // O(m) coin scan; each toggle moves the undirected
                    // edge between up and down, and both directed views
                    // share the bit.
                    for e in graph.edges() {
                        let (u, v) = graph.endpoints(e);
                        if adv.flips_edge(round, u, v) {
                            edge_down[e.index() / 64] ^= 1 << (e.index() % 64);
                            stats.edges_flipped += 1;
                        }
                    }
                }
            }
        }
        drop(crew);

        totals.record(&mut stats);
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        for part in parts {
            let part = part.into_inner().unwrap_or_else(PoisonError::into_inner);
            for slot in part.slots {
                outputs[slot.info.id.index()] = slot.output;
            }
        }
        let outcome = RunOutcome {
            // Complete ⇔ every node halted with an output (in restart
            // mode a crashed node can rejoin and still halt).
            completed: outputs.iter().all(Option::is_some),
            outputs,
            stats,
            traces,
        };
        (outcome, totals.cross_part_messages)
    }

    /// Runs `job` on every part: on the crew's threads when `crew` is
    /// given, else part by part on the caller. The part locks are never
    /// contended (one thread per part per phase); one is poisoned only by
    /// a protocol panic that is already unwinding the run, so recovering
    /// the guard never exposes a half-updated part.
    fn for_each_part(
        crew: Option<&Crew>,
        parts: &[Mutex<Part<'g, P>>],
        job: impl Fn(&mut Part<'g, P>) + Sync,
    ) {
        let run = |k: usize| job(&mut parts[k].lock().unwrap_or_else(PoisonError::into_inner));
        match crew {
            Some(crew) => crew.run(&run),
            None => (0..parts.len()).for_each(run),
        }
    }

    /// Every slot in the active prefixes of all parts, for the sequential
    /// adversary section.
    fn active_slots<'a>(
        parts: &'a mut [Mutex<Part<'g, P>>],
    ) -> impl Iterator<Item = &'a mut NodeSlot<'g, P>> {
        parts.iter_mut().flat_map(|part| {
            let part = part.get_mut().unwrap_or_else(PoisonError::into_inner);
            part.slots[..part.active_len].iter_mut()
        })
    }

    /// Node `v`'s slot in an uncompacted run (restart and churn modes).
    fn node_slot<'a>(
        parts: &'a mut [Mutex<Part<'g, P>>],
        partition: &ShardPartition,
        v: usize,
    ) -> &'a mut NodeSlot<'g, P> {
        let part = parts[partition.shard_of(NodeId(v as u32))]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        &mut part.slots[v - part.start]
    }

    /// Clears `slot`'s in-flight arrivals across the whole receive ring,
    /// returning how many messages that discarded.
    fn wipe_arrivals(slot: &NodeSlot<'g, P>, planes: &Planes) -> u64 {
        let occ_start = slot.occ_start as usize;
        let occ_words = slot.info.degree().div_ceil(64);
        let mut wiped = 0;
        for plane in &planes.recv {
            // SAFETY: called from the sequential section of the round
            // loop — no part holds any plane reference — and each node's
            // rows are disjoint from every other node's.
            let occ = unsafe { plane.occ_row(occ_start, occ_words) };
            for word in occ.iter_mut() {
                wiped += u64::from(word.count_ones());
                *word = 0;
            }
        }
        wiped
    }

    /// Compute phase of one part: steps its active prefix and retires
    /// the nodes that halted — clearing their `alive` flags, which no
    /// part reads before delivery — adding their number to `halted`.
    fn compute_part(
        part: &mut Part<'g, P>,
        round: usize,
        planes: &Planes,
        alive: &[AtomicBool],
        halted: &AtomicUsize,
    ) {
        let mut count = 0;
        for slot in &mut part.slots[..part.active_len] {
            if Self::step(slot, round, planes) {
                alive[slot.info.id.index()].store(false, Ordering::Relaxed);
                count += 1;
            }
        }
        halted.fetch_add(count, Ordering::Relaxed);
    }

    /// Delivery phase of one part: scatters each active slot's send row
    /// into the receive ring, metering messages whose receiver lies
    /// outside the part, then, with `compact`, swaps the part's halted
    /// slots out of its active prefix so later phases never revisit them.
    fn deliver_part(
        part: &mut Part<'g, P>,
        planes: &Planes,
        args: &DeliverArgs<'_>,
        compact: bool,
    ) -> Tally {
        let mut tally = Tally::default();
        let range = part.start..part.start + part.slots.len();
        let mut cross = 0;
        for slot in &part.slots[..part.active_len] {
            Self::deliver_slot_with(slot, planes, args, &mut tally, |_, to, _| {
                cross += u64::from(!range.contains(&to.index()));
            });
        }
        tally.cross_part_messages = cross;
        if compact {
            let mut i = 0;
            while i < part.active_len {
                if part.slots[i].active {
                    i += 1;
                } else {
                    part.active_len -= 1;
                    part.slots.swap(i, part.active_len);
                }
            }
        }
        tally
    }

    /// Compute phase for one node: run `init` (round 0) or `round` against
    /// the node's receive-plane row, writing sends into its send-plane row,
    /// and record a halt in [`NodeSlot::output`], returning whether the
    /// node halted. The receive row is cleared afterwards, ready for next
    /// round's delivery. Touches nothing outside the slot and its two
    /// plane rows.
    fn step(slot: &mut NodeSlot<'g, P>, round: usize, planes: &Planes) -> bool {
        if !slot.active {
            return false;
        }
        let start = slot.row_start as usize;
        let occ_start = slot.occ_start as usize;
        let degree = slot.info.degree();
        let occ_words = degree.div_ceil(64);
        // SAFETY: each node id occurs in exactly one slot and CSR rows of
        // distinct nodes are disjoint (occupancy rows are word-aligned per
        // node), so these are the only live references to the rows (the
        // compute phase hands each slot to exactly one worker, and no
        // delivery runs concurrently).
        let send_words = unsafe { planes.send.words_row(start, degree) };
        // SAFETY: same row disjointness, on the word-aligned occupancy row.
        let send_occ = unsafe { planes.send.occ_row(occ_start, occ_words) };
        let recv_plane = planes.recv_for(round);
        // SAFETY: same row-disjointness argument, on this round's receive
        // plane (ring position `round % len`; delivery never writes the
        // current round's plane, only future arrivals).
        let recv_words = unsafe { recv_plane.words_row(start, degree) };
        // SAFETY: as above, on the receive plane's occupancy row.
        let recv_occ = unsafe { recv_plane.occ_row(occ_start, occ_words) };
        let NodeSlot {
            proto,
            info,
            rng,
            output,
            active,
            needs_init,
            ..
        } = slot;
        let mut ctx = Context {
            info,
            rng,
            round,
            out_words: send_words,
            out_occ: send_occ,
            _msg: std::marker::PhantomData,
        };
        if round == 0 || *needs_init {
            // Round 0, or the node is rejoining after a crash (restart
            // mode): boot with reset state. Stragglers were wiped at crash
            // time, so the inbox below is empty either way.
            *needs_init = false;
            proto.init(&mut ctx);
        } else {
            if let Some(adv) = &planes.reorder {
                if degree > 1 && adv.reorders_inbox(round, info.id) {
                    // In-place Fisher–Yates over the port-indexed row,
                    // keyed purely by (round, node, step): messages
                    // surface out of port order, misattributed to the
                    // wrong neighbors — and identically so under any
                    // execution order, since the row is exclusively ours.
                    // Payload word and occupancy bit travel together, so a
                    // silent port stays silent wherever it lands.
                    for i in (1..degree).rev() {
                        let j = (adv.shuffle_coin(round, info.id, i) % (i as u64 + 1)) as usize;
                        recv_words.swap(i, j);
                        let bi = recv_occ[i / 64] >> (i % 64) & 1;
                        let bj = recv_occ[j / 64] >> (j % 64) & 1;
                        if bi != bj {
                            recv_occ[i / 64] ^= 1 << (i % 64);
                            recv_occ[j / 64] ^= 1 << (j % 64);
                        }
                    }
                }
            }
            let inbox = Inbox::new(recv_words, recv_occ);
            if let Status::Halt(out) = proto.round(&mut ctx, inbox) {
                *output = Some(out);
                *active = false;
            }
        }
        // Consume this round's inbox so the plane's next turn in the ring
        // starts from an empty row: clearing the occupancy words *is* the
        // drain — stale payload words are unreachable without their bits.
        for word in recv_occ.iter_mut() {
            *word = 0;
        }
        !*active
    }

    /// Delivery for one sender: drain its send-plane row, scattering each
    /// message into the receiver's receive-plane cell (or counting a drop)
    /// and accumulating statistics into `tally`. `on_message` runs once per
    /// message before the drop decision — the cross-part meter, plus the
    /// trace recorder on traced runs.
    #[inline]
    fn deliver_slot_with(
        slot: &NodeSlot<'g, P>,
        planes: &Planes,
        args: &DeliverArgs<'_>,
        tally: &mut Tally,
        mut on_message: impl FnMut(NodeId, NodeId, usize),
    ) {
        let start = slot.row_start as usize;
        let occ_start = slot.occ_start as usize;
        let degree = slot.info.degree();
        let occ_words = degree.div_ceil(64);
        // SAFETY: row disjointness, as in `step` — each sender slot is
        // drained by exactly one worker, and delivery only *reads* other
        // nodes' payload rows through unique directed-edge cells.
        let send_words = unsafe { planes.send.words_row(start, degree) };
        // SAFETY: same row disjointness, on the word-aligned occupancy row.
        let send_occ = unsafe { planes.send.occ_row(occ_start, occ_words) };
        for (w, occ_word) in send_occ.iter_mut().enumerate() {
            let mut pending = *occ_word;
            // Draining the send row is one store per occupancy word; a
            // round where this node stayed silent scans `degree / 64`
            // zero words and touches no payload.
            *occ_word = 0;
            while pending != 0 {
                let port = w * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let mut word = send_words[port];
                // Unpacking costs a few shifts and is needed anyway: the
                // budget meter charges the message's *information* bits
                // (`bit_size`), not its 64-bit frame.
                let msg = <P::Msg as PackedMsg>::unpack(word);
                let bits = msg.bit_size();
                tally.total_messages += 1;
                tally.max_message_bits = tally.max_message_bits.max(bits);
                if let Some(budget) = args.bit_budget {
                    if bits > budget {
                        tally.budget_violations += 1;
                    }
                }
                let to = slot.info.neighbor_ids[port];
                on_message(slot.info.id, to, bits);
                if let Some(down) = args.edge_down {
                    // Churn link state: a down edge eats the message
                    // before receiver liveness is even observable. The
                    // bit is keyed by undirected edge id, so both
                    // directions fail together.
                    let e = slot.neighbor_edges[port].index();
                    if down[e / 64] >> (e % 64) & 1 == 1 {
                        tally.adversary_dropped_messages += 1;
                        continue;
                    }
                }
                if !args.alive[to.index()].load(Ordering::Relaxed) {
                    tally.dropped_messages += 1;
                    continue;
                }
                if let Some(adv) = args.adversary {
                    if adv.drops_message(args.round, slot.info.id, to) {
                        // Lost in flight: the receiver is alive but never
                        // sees it. Every coin here is pure in (round,
                        // from, to), so the schedule is identical under
                        // any delivery order or chunking.
                        tally.adversary_dropped_messages += 1;
                        continue;
                    }
                    if adv.corrupts_message(args.round, slot.info.id, to) {
                        tally.corrupted_messages += 1;
                        // The payload type decides whether corruption
                        // surfaces as a mutated value or as a checksum
                        // discard; the budget metered what the sender
                        // transmitted, before the garbling. Garbling
                        // happens on the *unpacked* message — bit-flip
                        // semantics are the type's, not the frame's — and
                        // the survivor is repacked for the wire.
                        let entropy = adv.corruption_entropy(args.round, slot.info.id, to);
                        match msg.corrupted(entropy) {
                            Some(garbled) => word = garbled.pack(),
                            None => continue,
                        }
                    }
                }
                // Synchronous arrival is the next round; an async
                // scheduler adds a pure per-edge delay on top.
                let delay = match args.scheduler {
                    Some(sched) => {
                        let d = sched.delay(args.round, slot.info.id, to);
                        if d > 0 {
                            tally.delayed_messages += 1;
                        }
                        d
                    }
                    None => 0,
                };
                let rev = slot.reverse_port[port] as usize;
                let cell_idx = args.row_offsets[to.index()] as usize + rev;
                let occ_idx = args.occ_offsets[to.index()] as usize + rev / 64;
                let occ_mask = 1u64 << (rev % 64);
                if args
                    .adversary
                    .is_some_and(|adv| adv.duplicates_message(args.round, slot.info.id, to))
                {
                    // The duplicate trails the original by exactly one
                    // round: a distinct ring plane (the ring is one plane
                    // longer when duplication is on), so each (plane,
                    // cell) pair is still written by at most one sender
                    // within this phase. Duplication is free on words —
                    // the same packed frame is scattered twice.
                    tally.duplicated_messages += 1;
                    Self::place_word(
                        planes,
                        args.round + 2 + delay,
                        cell_idx,
                        occ_idx,
                        occ_mask,
                        word,
                        tally,
                    );
                }
                Self::place_word(
                    planes,
                    args.round + 1 + delay,
                    cell_idx,
                    occ_idx,
                    occ_mask,
                    word,
                    tally,
                );
            }
        }
    }

    /// Writes one packed message word into the receive-plane ring at its
    /// arrival round's cell for the directed edge `cell_idx`, setting the
    /// receiver's occupancy bit, and counting a collision — two in-flight
    /// messages of one directed edge converging on the same arrival round,
    /// where the later-sent one wins — as a lost message. Collisions
    /// cannot occur in synchronous (zero-delay) mode: every edge delivers
    /// at most one message per phase and the receiver drains its row each
    /// round.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn place_word(
        planes: &Planes,
        arrival_round: usize,
        cell_idx: usize,
        occ_idx: usize,
        occ_mask: u64,
        word: u64,
        tally: &mut Tally,
    ) {
        let plane = planes.recv_for(arrival_round);
        // SAFETY: `cell_idx` addresses the payload cell of one directed
        // edge (sender → to); reverse ports are a bijection on directed
        // edges, so within this delivery phase no other sender (on any
        // thread) writes any plane's copy of this cell — and the original
        // and duplicate of this edge target planes of *different* arrival
        // rounds. Nothing reads the receive planes during delivery. A
        // previous phase's occupant (a slower message from an earlier
        // round) is only ever overwritten here, by the one worker that
        // owns the edge this phase.
        unsafe { plane.write_word(cell_idx, word) };
        // SAFETY: the occupancy *word* is shared — it covers up to 64
        // ports of the receiver, each fed by a different sender — so the
        // bit set must be the atomic RMW (no `&mut` to any occupancy word
        // exists during delivery). The returned prior word detects the
        // collision the `Option::replace` used to: our *bit* already set
        // means an earlier phase parked a message on this edge for the
        // same arrival round.
        let prior = unsafe { plane.occ_fetch_or(occ_idx, occ_mask) };
        if prior & occ_mask != 0 {
            tally.dropped_messages += 1;
        }
    }
}

/// Convenience wrapper: build and run in one call, on
/// [`SimConfig::threads`] parts ([`Engine::run_parallel`]). Every
/// protocol driver runs through here; results are bit-identical to
/// [`Engine::run`] for any thread count.
///
/// ```
/// use congest_graph::generators;
/// use congest_sim::{run_protocol, Context, Inbox, Protocol, SimConfig, Status};
///
/// struct Degree;
/// impl Protocol for Degree {
///     type Msg = ();
///     type Output = usize;
///     fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
///     fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>)
///         -> Status<usize>
///     {
///         Status::Halt(ctx.degree())
///     }
/// }
///
/// let g = generators::star(5);
/// let outcome = run_protocol(&g, SimConfig::local(), |_| Degree, 1);
/// assert_eq!(outcome.outputs[0], Some(4));
/// ```
pub fn run_protocol<'g, P: Protocol>(
    graph: &'g Graph,
    config: SimConfig,
    factory: impl FnMut(&NodeInfo<'g>) -> P + 'g,
    seed: u64,
) -> RunOutcome<P::Output> {
    Engine::build(graph, config, factory).run_parallel(seed)
}

/// Estimated bytes the engine's message planes occupy for a run over a
/// (roughly degree-homogeneous) graph of `n` nodes and `directed_edges`
/// directed edges (= `2m`), with a receive ring of `ring_len` planes
/// (synchronous runs: 1; an [`AsyncScheduler`] with max delay `d` plus the
/// duplication adversary: `d + 2`).
///
/// Each plane stores 8 payload bytes per directed edge plus one occupancy
/// word per node per 64 ports — at the bench matrix's average degree 8
/// that is exactly 1 amortized bitmap byte per directed edge, 9 total
/// (the bound [`plane_bytes_for`]'s unit test pins). Message size does
/// not appear: the plane word is 64 bits no matter what the protocol
/// packs into it, which is the point of the packed representation —
/// `plane_bytes(10^7, 8·10^7, 1)` ≈ 1.4 GB regardless of `Msg`.
pub fn plane_bytes(n: usize, directed_edges: usize, ring_len: usize) -> usize {
    let avg_degree = if n == 0 {
        0
    } else {
        directed_edges.div_ceil(n)
    };
    let occ_words = n * avg_degree.div_ceil(64).max(1);
    (1 + ring_len) * (directed_edges + occ_words) * 8
}

/// Exact plane bytes for `graph` (per-node `⌈degree / 64⌉` occupancy
/// accounting instead of [`plane_bytes`]'s homogeneous estimate), for a
/// receive ring of `ring_len` planes. This is what `bench_baseline`
/// records per trajectory entry.
pub fn plane_bytes_for(graph: &Graph, ring_len: usize) -> usize {
    let n = graph.num_nodes();
    let payload_words = graph.row_offsets()[n] as usize;
    let occ_words: usize = graph
        .nodes()
        .map(|v| graph.neighbor_ids(v).len().div_ceil(64))
        .sum();
    (1 + ring_len) * (payload_words + occ_words) * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Each node halts immediately, outputting its degree.
    struct InstantHalt;
    impl Protocol for InstantHalt {
        type Msg = ();
        type Output = usize;
        fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<usize> {
            Status::Halt(ctx.degree())
        }
    }

    /// Echoes its id to all neighbors each round; halts after collecting
    /// all neighbor ids (which takes exactly one exchange).
    struct Census {
        heard: Vec<NodeId>,
    }
    impl Protocol for Census {
        type Msg = u32;
        type Output = Vec<NodeId>;
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            let id = ctx.id().0;
            ctx.broadcast(id);
        }
        fn round(
            &mut self,
            _ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<Vec<NodeId>> {
            for (_, id) in inbox {
                self.heard.push(NodeId(id));
            }
            self.heard.sort_unstable();
            Status::Halt(self.heard.clone())
        }
    }

    #[test]
    fn instant_halt_runs_one_round() {
        let g = generators::cycle(5);
        let outcome = run_protocol(&g, SimConfig::local(), |_| InstantHalt, 0);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.total_messages, 0);
        assert!(outcome.outputs.iter().all(|o| *o == Some(2)));
    }

    #[test]
    fn census_learns_neighbor_ids() {
        let g = generators::star(4);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| Census { heard: Vec::new() },
            7,
        );
        assert!(outcome.completed);
        let outputs = outcome.outputs;
        assert_eq!(
            outputs[0].as_ref().unwrap(),
            &vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        for leaf in outputs.iter().skip(1) {
            assert_eq!(leaf.as_ref().unwrap(), &vec![NodeId(0)]);
        }
    }

    #[test]
    fn message_stats_counted() {
        let g = generators::complete(4);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| Census { heard: Vec::new() },
            7,
        );
        // Every node broadcasts once at init: 4 nodes × 3 ports.
        assert_eq!(outcome.stats.total_messages, 12);
        assert_eq!(outcome.stats.budget_violations, 0);
        assert!(outcome.stats.max_message_bits >= 1);
    }

    /// Multi-round randomized walk: every round each node adds a private
    /// coin to a running sum, broadcasts it, and halts once the sum
    /// crosses a threshold — so outputs depend on per-node RNG streams,
    /// inbox contents, *and* halt timing, exactly the surface where a
    /// misaligned executor would diverge.
    struct CoinWalk {
        sum: u64,
        heard: u64,
    }
    impl Protocol for CoinWalk {
        type Msg = u32;
        type Output = (usize, u64);
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn round(
            &mut self,
            ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<(usize, u64)> {
            for (_, x) in inbox {
                self.heard = self.heard.wrapping_mul(31).wrapping_add(u64::from(x));
            }
            self.sum += ctx.rng().random_range(0..7u64);
            if self.sum >= 12 {
                return Status::Halt((ctx.round(), self.heard));
            }
            ctx.broadcast((self.sum & 0xffff) as u32);
            Status::Active
        }
    }

    #[test]
    fn sharded_executor_is_bit_identical_to_sequential() {
        use congest_graph::ShardPartition;
        let mut rng = SmallRng::seed_from_u64(9);
        for trial in 0..3u64 {
            let g = generators::gnp(60, 0.08, &mut rng);
            let cfg = SimConfig::congest_for(&g).with_max_rounds(400);
            let base =
                Engine::build(&g, cfg.clone(), |_| CoinWalk { sum: 0, heard: 0 }).run(31 + trial);
            assert!(base.completed, "trial {trial}");
            for shards in [1usize, 2, 3, 7] {
                let p = ShardPartition::contiguous(g.num_nodes(), shards);
                let run = Engine::build(&g, cfg.clone(), |_| CoinWalk { sum: 0, heard: 0 })
                    .run_sharded(31 + trial, &p);
                assert_eq!(run.outcome.completed, base.completed, "trial {trial}");
                assert_eq!(run.outcome.outputs, base.outputs, "trial {trial}/{shards}");
                assert_eq!(run.outcome.stats, base.stats, "trial {trial}/{shards}");
                assert_eq!(run.shards, shards);
                assert_eq!(run.cross_shard_edges, p.cross_shard_edges(&g));
                if shards == 1 {
                    assert_eq!(run.cross_shard_messages, 0);
                }
            }
        }
    }

    #[test]
    fn churn_saturation_departs_every_node_gracefully() {
        // node_leave_prob = 1.0: every node departs in round 1, leaving
        // zero live nodes. The loop must terminate immediately (no
        // empty-graph spin to the round cap) with the departure counted.
        let mut rng = SmallRng::seed_from_u64(44);
        let g = generators::gnp(30, 0.2, &mut rng);
        let adv = Adversary::default().with_seed(99).with_node_leave_prob(1.0);
        let cfg = SimConfig::congest_for(&g).with_adversary(adv);
        let outcome = Engine::build(&g, cfg, |_| Census { heard: Vec::new() }).run(5);
        assert!(!outcome.completed, "departed nodes never produce outputs");
        assert_eq!(outcome.stats.nodes_left as usize, g.num_nodes());
        assert!(
            outcome.stats.rounds <= 2,
            "saturated churn must terminate at once, ran {} rounds",
            outcome.stats.rounds
        );
    }

    #[test]
    fn apply_deltas_accepts_a_fully_departed_graph() {
        use congest_graph::DeltaGraph;
        let mut rng = SmallRng::seed_from_u64(45);
        let g = generators::gnp(12, 0.3, &mut rng);
        let engine = Engine::build(&g, SimConfig::congest_for(&g), |_| Census {
            heard: Vec::new(),
        });
        let mut dg = DeltaGraph::new(g.clone());
        for v in g.nodes() {
            dg.remove_node(v);
        }
        assert_eq!(dg.num_live_nodes(), 0);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        // Retargeting onto the all-departed compacted graph must be legal
        // (slot space preserved, every slot isolated), and the follow-up
        // run completes trivially: isolated nodes halt after one round.
        let outcome = engine.apply_deltas(&g2, &deltas).run(9);
        assert!(outcome.completed);
        assert!(outcome
            .outputs
            .iter()
            .all(|o| o.as_ref().is_some_and(Vec::is_empty)));
    }

    #[test]
    fn zero_slot_graph_completes_vacuously_on_every_executor() {
        use congest_graph::ShardPartition;
        let g = congest_graph::GraphBuilder::new().build();
        let seq = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run(1);
        assert!(seq.completed);
        assert_eq!(seq.stats.rounds, 0);
        let par = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run_parallel(1);
        assert!(par.completed);
        let p = ShardPartition::contiguous(0, 3);
        let sh = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run_sharded(1, &p);
        assert!(sh.outcome.completed);
        assert_eq!(sh.cross_shard_messages, 0);
    }

    #[test]
    fn sharded_cross_meter_counts_boundary_traffic_exactly() {
        use congest_graph::ShardPartition;
        // path(6) in 2 shards of 3: only the edge 2–3 crosses. Census
        // broadcasts once per node at init, so exactly one message per
        // direction crosses the boundary.
        let g = generators::path(6);
        let p = ShardPartition::contiguous(6, 2);
        let run = Engine::build(&g, SimConfig::congest_for(&g), |_| Census {
            heard: Vec::new(),
        })
        .run_sharded(3, &p);
        assert!(run.outcome.completed);
        assert_eq!(run.cross_shard_edges, 1);
        assert_eq!(run.cross_shard_messages, 2);
    }

    /// Broadcasts the sender id, then asserts every message arrived on the
    /// port whose neighbor is that sender — i.e. the plane scatter resolved
    /// reverse ports exactly as the old per-edge `position()` scan did.
    struct PortEcho;
    impl Protocol for PortEcho {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            let id = ctx.id().0;
            ctx.broadcast(id);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: Inbox<'_, u32>) -> Status<()> {
            assert_eq!(inbox.len(), ctx.degree());
            assert_eq!(inbox.num_ports(), ctx.degree());
            let mut last_port = None;
            for (port, id) in inbox {
                assert_eq!(ctx.neighbor(port), NodeId(id));
                assert_eq!(inbox.get(port), Some(id));
                // The CSR-backed inbox iterates in ascending port order by
                // construction.
                assert!(last_port.is_none_or(|p| p < port));
                last_port = Some(port);
            }
            Status::Halt(())
        }
    }

    /// Regression for the reverse-port table: `complete(512)` was the
    /// worst case of the old `O(Σ deg²)` construction in `Engine::build`;
    /// the engine now borrows the graph's `O(n + m)` table and must route
    /// every one of the 512·511 messages to the same port as before.
    #[test]
    fn delivery_ports_match_position_scan_on_complete_512() {
        let g = generators::complete(512);
        let outcome = run_protocol(&g, SimConfig::local(), |_| PortEcho, 0);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 512 * 511);
    }

    /// A protocol that never halts, to exercise the round cap.
    struct Forever;
    impl Protocol for Forever {
        type Msg = ();
        type Output = ();
        fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<()> {
            Status::Active
        }
    }

    #[test]
    fn round_cap_respected() {
        let g = generators::path(3);
        let outcome = run_protocol(&g, SimConfig::local().with_max_rounds(10), |_| Forever, 0);
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.rounds, 10);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn traces_record_messages() {
        let g = generators::path(2);
        let outcome = run_protocol(
            &g,
            SimConfig::local().with_traces(),
            |_| Census { heard: Vec::new() },
            3,
        );
        assert_eq!(outcome.traces.len(), 2);
        assert_eq!(outcome.traces[0].round, 0);
        assert_eq!(outcome.traces[0].from, NodeId(0));
        assert_eq!(outcome.traces[0].to, NodeId(1));
    }

    /// One designated node halts in round 1; the other keeps broadcasting
    /// through round 2. The broadcaster's round-1 message reaches a node
    /// that halted in round 1, so exactly that one message must be
    /// dropped — whichever of the two ids halts.
    struct HaltOne {
        halter: u32,
    }
    impl Protocol for HaltOne {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, _inbox: Inbox<'_, u32>) -> Status<()> {
            if ctx.id().0 == self.halter || ctx.round() >= 2 {
                Status::Halt(())
            } else {
                ctx.broadcast(1);
                Status::Active
            }
        }
    }

    #[test]
    fn messages_to_halted_nodes_are_dropped() {
        // Timeline on the path 0–1 (halter = node h, sender = the other
        // node s):
        //   init:    both broadcast; both messages delivered in round 1.
        //   round 1: h halts; s broadcasts and stays active. s's message
        //            is *sent* in h's halting round → dropped.
        //   round 2: s (empty inbox) halts.
        for halter in [0u32, 1] {
            let g = generators::path(2);
            let outcome = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter }, 0);
            assert!(outcome.completed);
            assert_eq!(outcome.stats.rounds, 2);
            assert_eq!(outcome.stats.total_messages, 3);
            assert_eq!(
                outcome.stats.dropped_messages, 1,
                "drop accounting must not depend on whether the halter's \
                 id is smaller (halter = {halter})"
            );
        }
    }

    #[test]
    fn drop_semantics_do_not_depend_on_node_order() {
        // Stronger variant on a star: the center halts in round 1 while
        // every leaf (ids both above and below the center's would-be
        // position) broadcasts in round 1. All leaf messages sent in
        // round 1 target the halted center and must be dropped; count is
        // the same no matter which node is the halter.
        let g = generators::star(5);
        let center = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter: 0 }, 0);
        assert_eq!(center.stats.dropped_messages, 4);
        let leaf = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter: 3 }, 0);
        // Only the center neighbors the halting leaf, so exactly its
        // round-1 message to the leaf is dropped.
        assert_eq!(leaf.stats.dropped_messages, 1);
    }

    /// The CONGEST budget is `8·(id_bits + weight_bits)`; both summands
    /// are ceil-log terms, so the budget must never shrink as the graph
    /// grows in `n` or its weights grow toward `W`.
    #[test]
    fn congest_budget_is_monotone_in_n_and_w() {
        let mut prev = 0;
        for n in [1usize, 2, 3, 16, 17, 100, 1_000, 10_000] {
            let g = generators::path(n);
            let budget = SimConfig::congest_for(&g).bit_budget.unwrap();
            assert!(budget >= prev, "budget shrank going to n = {n}");
            prev = budget;
        }
        let mut prev = 0;
        for w in [1u64, 2, 3, 255, 256, 1 << 20, 1 << 40, u64::MAX] {
            let mut g = generators::path(50);
            g.set_node_weight(NodeId(0), w);
            let budget = SimConfig::congest_for(&g).bit_budget.unwrap();
            assert!(budget >= prev, "budget shrank going to W = {w}");
            prev = budget;
        }
        // Edge weights feed the same W term as node weights.
        let mut g = generators::path(50);
        let small = SimConfig::congest_for(&g).bit_budget.unwrap();
        g.set_edge_weight(congest_graph::EdgeId(0), u64::MAX);
        let large = SimConfig::congest_for(&g).bit_budget.unwrap();
        assert!(large > small);
    }

    #[test]
    fn determinism_across_runs() {
        struct Roll;
        impl Protocol for Roll {
            type Msg = ();
            type Output = u64;
            fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<u64> {
                Status::Halt(ctx.rng().random())
            }
        }
        let g = generators::cycle(6);
        let a = run_protocol(&g, SimConfig::local(), |_| Roll, 99);
        let b = run_protocol(&g, SimConfig::local(), |_| Roll, 99);
        let c = run_protocol(&g, SimConfig::local(), |_| Roll, 100);
        let ax: Vec<_> = a.outputs.iter().map(|o| o.unwrap()).collect();
        let bx: Vec<_> = b.outputs.iter().map(|o| o.unwrap()).collect();
        let cx: Vec<_> = c.outputs.iter().map(|o| o.unwrap()).collect();
        assert_eq!(ax, bx);
        assert_ne!(ax, cx);
    }

    /// Message-heavy randomized protocol with staggered halts, used to
    /// pit the sequential and parallel executors against each other:
    /// every node draws a private deadline, then gossips random values,
    /// folding everything it hears into a running hash.
    struct RandomGossip {
        deadline: usize,
        acc: u64,
    }
    impl Protocol for RandomGossip {
        type Msg = u64;
        type Output = u64;
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            self.deadline = ctx.rng().random_range(1..=8);
            let roll: u64 = ctx.rng().random();
            self.acc = roll;
            ctx.broadcast(roll & 0xFFFF);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: Inbox<'_, u64>) -> Status<u64> {
            for (port, m) in inbox {
                self.acc = self
                    .acc
                    .rotate_left(7)
                    .wrapping_add(m)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ port as u64;
            }
            if ctx.round() >= self.deadline {
                Status::Halt(self.acc)
            } else {
                let roll: u64 = ctx.rng().random();
                ctx.broadcast(roll & 0xFFFF);
                Status::Active
            }
        }
    }

    fn gossip() -> RandomGossip {
        RandomGossip {
            deadline: 0,
            acc: 0,
        }
    }

    /// FNV-1a over every output, statistic, and trace of a run — a compact
    /// fingerprint of the engine's externally observable behavior.
    fn outcome_hash(out: &RunOutcome<u64>) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        for o in &out.outputs {
            mix(o.unwrap());
        }
        mix(out.stats.rounds as u64);
        mix(out.stats.total_messages);
        mix(out.stats.max_message_bits as u64);
        mix(out.stats.budget_violations);
        mix(out.stats.dropped_messages);
        for t in &out.traces {
            mix(t.round as u64);
            mix(t.from.0 as u64);
            mix(t.to.0 as u64);
            mix(t.bits as u64);
        }
        h
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run_on_gnp_1000() {
        let mut rng = SmallRng::seed_from_u64(2024);
        let g = generators::gnp(1000, 0.008, &mut rng);
        let config = SimConfig::congest_for(&g).with_traces();
        // Fingerprints recorded on the pre-CSR engine (PR 2's
        // `Vec<Vec<…>>` adjacency with per-`NodeInfo` clones) for seeds 1
        // and 77, and on the pre-flat-mailbox engine (PR 3's per-slot
        // `Vec` in/outboxes) for seeds 5 and 2024 — the two recordings
        // agree where they overlap, pinning the plane refactor to the
        // exact behavior of both ancestors: not a single output,
        // statistic, or trace may change.
        let recorded = [
            (1u64, 0x8a05ed62888b4b60u64),
            (77, 0x8c6e3fc93615c0c9),
            (5, 0x3a4363275fb53268),
            (2024, 0xfd55ba2d7db9f32e),
        ];
        // Three parts whatever the size: traced compute on the helpers,
        // traced delivery in id order on the caller.
        let parts = ShardPartition::contiguous(g.num_nodes(), 3);
        for (seed, expected) in recorded {
            let seq = Engine::build(&g, config.clone(), |_| gossip()).run(seed);
            let par = Engine::build(&g, config.clone(), |_| gossip()).run_parallel(seed);
            let sharded = Engine::build(&g, config.clone(), |_| gossip()).run_sharded(seed, &parts);
            assert!(seq.completed && par.completed);
            for other in [&par, &sharded.outcome] {
                assert_eq!(seq.outputs, other.outputs);
                assert_eq!(seq.stats, other.stats);
                assert_eq!(seq.traces, other.traces);
            }
            assert_eq!(
                outcome_hash(&seq),
                expected,
                "seed {seed}: outputs/stats/traces diverged from the \
                 pre-refactor engine"
            );
            // The staggered deadlines make some messages arrive at halted
            // nodes, so the run exercises the drop path it certifies.
            assert!(seq.stats.dropped_messages > 0);
            assert!(seq.stats.total_messages > 1000);
        }
    }

    /// Above the inline cutoff `run_parallel_with` really splits the
    /// graph, and parts compact independently; under crashes, drops and
    /// delays every thread count must still reproduce `run`.
    #[test]
    fn multi_part_runs_above_the_cutoff_match_run() {
        let mut rng = SmallRng::seed_from_u64(2025);
        let g = generators::gnp(7000, 8.0 / 7000.0, &mut rng);
        let adv = Adversary {
            drop_prob: 0.05,
            crash_prob: 0.005,
            seed: 3,
            ..Adversary::default()
        };
        let faulty = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_scheduler(AsyncScheduler::uniform(2, 8))
            .with_adversary(adv);
        for config in [SimConfig::congest_for(&g), faulty] {
            let seq = Engine::build(&g, config.clone(), |_| gossip()).run(11);
            assert!(seq.stats.total_messages > 7000);
            for threads in [2, 3, 6] {
                assert_eq!(
                    config.clone().with_threads(threads).threads_for(7000),
                    threads
                );
                let par =
                    Engine::build(&g, config.clone(), |_| gossip()).run_parallel_with(11, threads);
                assert_eq!(seq.outputs, par.outputs, "threads = {threads}");
                assert_eq!(seq.stats, par.stats, "threads = {threads}");
            }
        }
    }

    /// The same bit-identity with tracing *off*, which enables active-slot
    /// compaction: the swap-compacted prefix must not change outputs or
    /// statistics relative to the traced (uncompacted) path.
    #[test]
    fn compaction_preserves_outputs_and_stats() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(600, 0.01, &mut rng);
        let traced = SimConfig::congest_for(&g).with_traces();
        let plain = SimConfig::congest_for(&g);
        for seed in [3u64, 19] {
            let a = Engine::build(&g, traced.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let c = Engine::build(&g, plain.clone(), |_| gossip()).run_parallel(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(b.outputs, c.outputs);
            assert_eq!(b.stats, c.stats);
        }
    }

    #[test]
    fn full_message_drop_silences_every_link() {
        // Census halts after one exchange no matter what arrives, so under
        // a drop-everything adversary it completes with *empty* neighbor
        // lists and every sent message counted as adversary-dropped.
        let g = generators::complete(4);
        let config = SimConfig::congest_for(&g).with_adversary(Adversary::message_drops(1.0, 9));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 12);
        assert_eq!(outcome.stats.adversary_dropped_messages, 12);
        assert_eq!(outcome.stats.dropped_messages, 0);
        for out in outcome.outputs {
            assert_eq!(out.unwrap(), vec![]);
        }
    }

    #[test]
    fn full_crash_stops_the_run_without_outputs() {
        let g = generators::cycle(6);
        let config = SimConfig::local()
            .with_max_rounds(50)
            .with_adversary(Adversary::node_crashes(1.0, 3));
        let outcome = run_protocol(&g, config, |_| Forever, 0);
        // Every node crashes at the start of round 1: no outputs, the run
        // ends immediately (nothing left to step), and completion is
        // withheld because crashed nodes never halted.
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.crashed_nodes, 6);
        assert_eq!(outcome.stats.rounds, 1);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    /// Broadcasts every round and never halts: under a crash adversary,
    /// the survivors' messages to freshly crashed neighbors must be
    /// counted as dropped (dead receiver), exactly like messages to
    /// halted nodes.
    struct Blaster;
    impl Protocol for Blaster {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, _inbox: Inbox<'_, u32>) -> Status<()> {
            ctx.broadcast(1);
            Status::Active
        }
    }

    #[test]
    fn crashed_nodes_absorb_messages_like_halted_ones() {
        let g = generators::complete(8);
        let config = SimConfig::local()
            .with_max_rounds(40)
            .with_adversary(Adversary::node_crashes(0.5, 11));
        let outcome = run_protocol(&g, config, |_| Blaster, 0);
        // With per-round crash probability ½ on 8 nodes, 40 rounds kill
        // everyone (probability of survival ≈ 8·2⁻⁴⁰) — and every message
        // a survivor sent to an already-crashed neighbor must be in
        // `dropped_messages`.
        assert_eq!(outcome.stats.crashed_nodes, 8);
        assert!(!outcome.completed);
        assert!(outcome.stats.total_messages > 0);
        assert!(
            outcome.stats.dropped_messages > 0,
            "messages to crashed receivers must be counted as dropped"
        );
        assert_eq!(outcome.stats.adversary_dropped_messages, 0);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn zero_probability_adversary_is_bit_identical_to_none() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::gnp(200, 0.04, &mut rng);
        let plain = SimConfig::congest_for(&g).with_traces();
        let zeroed = plain
            .clone()
            .with_adversary(Adversary::default().with_seed(0xDEAD));
        for seed in [2u64, 40] {
            let a = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, zeroed.clone(), |_| gossip()).run(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.traces, b.traces);
        }
    }

    #[test]
    fn fault_schedules_replay_and_parallelize_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(400, 0.02, &mut rng);
        let adv = Adversary {
            drop_prob: 0.15,
            crash_prob: 0.01,
            seed: 77,
            ..Adversary::default()
        };
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(adv);
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config.clone(), |_| gossip()).run_parallel(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "faults must be chunking-independent");
        assert!(a.stats.adversary_dropped_messages > 0);
        // A different adversary seed yields a different schedule.
        let other = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary { seed: 78, ..adv });
        let c = Engine::build(&g, other, |_| gossip()).run(5);
        assert_ne!(
            (a.outputs, a.stats),
            (c.outputs, c.stats),
            "adversary seed must matter"
        );
    }

    #[test]
    fn run_parallel_matches_run_on_tiny_and_empty_graphs() {
        for g in [
            generators::path(1),
            generators::path(2),
            generators::complete(9),
        ] {
            let seq = Engine::build(&g, SimConfig::local(), |_| gossip()).run(5);
            let par = Engine::build(&g, SimConfig::local(), |_| gossip()).run_parallel(5);
            assert_eq!(seq.outputs, par.outputs);
            assert_eq!(seq.stats, par.stats);
        }
    }

    #[test]
    fn zero_delay_scheduler_is_bit_identical_to_none() {
        // The synchronous special case: a scheduler that cannot delay must
        // leave outputs, stats, *and traces* untouched — the engine takes
        // the single-plane path and draws no delay coins.
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::gnp(200, 0.04, &mut rng);
        let plain = SimConfig::congest_for(&g).with_traces();
        let sched = plain
            .clone()
            .with_scheduler(AsyncScheduler::uniform(0, 0xBEEF));
        for seed in [2u64, 40] {
            let a = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, sched.clone(), |_| gossip()).run(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.traces, b.traces);
            assert_eq!(b.stats.delayed_messages, 0);
        }
    }

    #[test]
    fn delays_change_behavior_deterministically_and_in_parallel() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(400, 0.02, &mut rng);
        for sched in [
            AsyncScheduler::uniform(3, 21),
            AsyncScheduler::geometric(0.5, 6, 22),
        ] {
            let config = SimConfig::congest_for(&g)
                .with_max_rounds(64)
                .with_scheduler(sched);
            let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
            let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
            let par = Engine::build(&g, config, |_| gossip()).run_parallel(5);
            assert!(a.stats.delayed_messages > 0, "delays must fire");
            assert_eq!(a.outputs, b.outputs, "delay schedules must replay");
            assert_eq!(a.stats, b.stats);
            assert_eq!(
                a.outputs, par.outputs,
                "delays must be chunking-independent"
            );
            assert_eq!(a.stats, par.stats);
            let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
            assert_ne!(a.outputs, clean.outputs, "delays must be observable");
        }
    }

    #[test]
    fn duplication_redelivers_a_round_late() {
        // Census halts after its first exchange, so on a path the only
        // effect of always-duplicate is the counter and the late copies
        // landing at halted receivers (counted dropped).
        let g = generators::path(3);
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_duplicates(1.0, 4));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 4);
        assert_eq!(outcome.stats.duplicated_messages, 4);
        // Every node still hears each neighbor exactly once before halting.
        assert_eq!(outcome.outputs[1].as_ref().unwrap().len(), 2);
    }

    /// Counts how many messages arrive per round, never halting — lets
    /// tests observe duplicates and delays as receiver-side arrivals.
    struct ArrivalCounter {
        arrivals: Vec<usize>,
    }
    impl Protocol for ArrivalCounter {
        type Msg = u32;
        type Output = Vec<usize>;
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(ctx.id().0);
        }
        fn round(
            &mut self,
            ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<Vec<usize>> {
            self.arrivals.push(inbox.len());
            if ctx.round() >= 6 {
                Status::Halt(self.arrivals.clone())
            } else {
                Status::Active
            }
        }
    }

    #[test]
    fn duplicated_copies_arrive_exactly_one_round_after_originals() {
        let g = generators::path(2);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(10)
            .with_adversary(Adversary::message_duplicates(1.0, 4));
        let outcome = run_protocol(&g, config, |_| ArrivalCounter { arrivals: vec![] }, 0);
        assert!(outcome.completed);
        // Only init broadcasts: original in round 1, duplicate in round 2.
        for out in outcome.outputs {
            assert_eq!(out.unwrap(), vec![1, 1, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn corruption_discards_unmutatable_payloads_like_drops() {
        // Census carries u32 payloads, which mutate (bit flip) rather than
        // discard — neighbor lists change but everyone still hears degree
        // many values. `()` payloads (InstantHalt) never send, so use
        // Census for the mutation path and a bool echo for discards.
        let g = generators::complete(4);
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_corruption(1.0, 6));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.corrupted_messages, 12);
        assert_eq!(outcome.stats.adversary_dropped_messages, 0);
        // Bit-flipped ids still arrive: every node hears all 3 neighbors.
        for out in outcome.outputs {
            assert_eq!(out.unwrap().len(), 3);
        }

        /// Echoes `true` once; bool's `corrupted` defaults to checksum
        /// discard, so under full corruption nobody hears anything.
        struct BoolEcho;
        impl Protocol for BoolEcho {
            type Msg = bool;
            type Output = usize;
            fn init(&mut self, ctx: &mut Context<'_, bool>) {
                ctx.broadcast(true);
            }
            fn round(
                &mut self,
                _ctx: &mut Context<'_, bool>,
                inbox: Inbox<'_, bool>,
            ) -> Status<usize> {
                Status::Halt(inbox.len())
            }
        }
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_corruption(1.0, 6));
        let outcome = run_protocol(&g, config, |_| BoolEcho, 7);
        assert_eq!(outcome.stats.corrupted_messages, 12);
        assert!(outcome.outputs.into_iter().all(|o| o.unwrap() == 0));
    }

    #[test]
    fn reordering_permutes_inboxes_without_losing_messages() {
        let g = generators::complete(8);
        let config = SimConfig::congest_for(&g).with_adversary(Adversary::inbox_reorders(1.0, 13));
        let outcome = run_protocol(&g, config.clone(), |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        // Census sorts what it heard, so the permutation is invisible in
        // outputs — nothing may be lost or duplicated by a shuffle.
        for out in &outcome.outputs {
            assert_eq!(out.as_ref().unwrap().len(), 7);
        }
        // But gossip folds port indices into its hash, so a shuffled run
        // must diverge from the clean one — deterministically.
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnp(300, 0.03, &mut rng);
        let shuffled = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary::inbox_reorders(0.5, 13));
        let a = Engine::build(&g, shuffled.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, shuffled.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, shuffled, |_| gossip()).run_parallel(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats);
        let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
        assert_ne!(a.outputs, clean.outputs, "reordering must be observable");
    }

    #[test]
    fn restarted_nodes_rejoin_and_can_complete_the_run() {
        // Gossip halts once `round >= deadline ≤ 8`, so even a node that
        // restarts late halts promptly after rejoining: with moderate
        // crashes plus restart-after-2, the run must eventually complete
        // with every output present despite crashed_nodes > 0.
        let g = generators::cycle(20);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_crashes(0.05, 3).with_restart_after(2));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        assert!(
            a.stats.crashed_nodes > 0,
            "5% crashes over 20 nodes must fire"
        );
        assert_eq!(
            a.stats.crashed_nodes, a.stats.restarted_nodes,
            "with completion, every crash was followed by a restart"
        );
        assert!(a.completed, "restart mode must let the run complete");
        assert!(a.outputs.iter().all(Option::is_some));
        // Replay + parallel identity under restart.
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats);
        // Without restart, the same crash schedule leaves holes.
        let crash_only = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_crashes(0.05, 3));
        let c = Engine::build(&g, crash_only, |_| gossip()).run(9);
        assert!(!c.completed);
        assert_eq!(c.stats.restarted_nodes, 0);
    }

    #[test]
    fn every_knob_at_once_replays_and_parallelizes() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::gnp(300, 0.03, &mut rng);
        let adv = Adversary {
            drop_prob: 0.05,
            dup_prob: 0.1,
            reorder_prob: 0.2,
            corrupt_prob: 0.05,
            crash_prob: 0.01,
            restart_after: Some(3),
            edge_flip_prob: 0.02,
            node_join_prob: 0.3,
            node_leave_prob: 0.01,
            seed: 99,
        };
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(128)
            .with_scheduler(AsyncScheduler::uniform(2, 55))
            .with_adversary(adv);
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config.clone(), |_| gossip()).run_parallel(5);
        let parts = ShardPartition::contiguous(g.num_nodes(), 3);
        let sharded = Engine::build(&g, config, |_| gossip()).run_sharded(5, &parts);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "all knobs must be chunking-independent");
        assert_eq!(a.outputs, sharded.outcome.outputs);
        assert_eq!(
            a.stats, sharded.outcome.stats,
            "all knobs must be partition-independent"
        );
        assert!(a.stats.delayed_messages > 0);
        assert!(a.stats.duplicated_messages > 0);
        assert!(a.stats.corrupted_messages > 0);
        assert!(a.stats.adversary_dropped_messages > 0);
        assert!(a.stats.edges_flipped > 0);
        assert!(a.stats.nodes_left > 0);
    }

    #[test]
    fn edge_flips_replay_and_parallelize_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnp(300, 0.03, &mut rng);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary::edge_flips(0.02, 13));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(5);
        assert!(
            a.stats.edges_flipped > 0,
            "2% flips over 64 rounds must fire"
        );
        assert!(
            a.stats.adversary_dropped_messages > 0,
            "down edges must eat messages"
        );
        assert_eq!(a.outputs, b.outputs, "flip schedules must replay");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs, "flips must be chunking-independent");
        assert_eq!(a.stats, par.stats);
        let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
        assert_ne!(a.outputs, clean.outputs, "flips must be observable");
        assert_eq!(clean.stats.edges_flipped, 0);
    }

    #[test]
    fn node_churn_replays_and_parallelizes_bit_identically() {
        let g = generators::cycle(24);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_churn(0.3, 0.03, 7));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        assert!(a.stats.nodes_left > 0, "3% leaves over 24 nodes must fire");
        assert!(
            a.stats.nodes_joined > 0,
            "a 30% join coin must readmit leavers"
        );
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "churn must be chunking-independent");
    }

    #[test]
    fn leaves_without_joins_leave_holes() {
        let g = generators::cycle(16);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(200)
            .with_adversary(Adversary::node_churn(0.0, 0.5, 3));
        let outcome = run_protocol(&g, config, |_| Forever, 0);
        assert!(!outcome.completed);
        assert!(outcome.stats.nodes_left > 0);
        assert_eq!(outcome.stats.nodes_joined, 0);
        assert_eq!(outcome.stats.crashed_nodes, 0, "leaves are not crashes");
    }

    #[test]
    fn apply_deltas_retargets_onto_the_compacted_graph() {
        use congest_graph::DeltaGraph;
        // Grow a path 0–1–2 by the chord {0, 2} through the overlay, then
        // retarget a pre-built engine onto the compacted graph: the run
        // must be bit-identical to an engine built on that graph directly.
        let g1 = generators::path(3);
        let mut dg = DeltaGraph::new(generators::path(3));
        dg.insert_edge(NodeId(0), NodeId(2), 1);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let retargeted = Engine::build(&g1, SimConfig::local(), |_| Census { heard: Vec::new() })
            .apply_deltas(&g2, &deltas)
            .run(7);
        let fresh = Engine::build(&g2, SimConfig::local(), |_| Census { heard: Vec::new() }).run(7);
        assert!(retargeted.completed);
        assert_eq!(retargeted.outputs, fresh.outputs);
        assert_eq!(retargeted.stats, fresh.stats);
        assert_eq!(
            retargeted.outputs[1].as_ref().unwrap(),
            &vec![NodeId(0), NodeId(2)]
        );
        assert_eq!(
            retargeted.outputs[0].as_ref().unwrap(),
            &vec![NodeId(1), NodeId(2)],
            "node 0 must see the inserted chord"
        );
    }

    #[test]
    fn apply_deltas_grows_the_slot_space_for_added_nodes() {
        use congest_graph::DeltaGraph;
        let g1 = generators::path(2);
        let mut dg = DeltaGraph::new(generators::path(2));
        let v = dg.add_node(1);
        dg.insert_edge(NodeId(1), v, 1);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let outcome = Engine::build(&g1, SimConfig::local(), |_| Census { heard: Vec::new() })
            .apply_deltas(&g2, &deltas)
            .run(3);
        assert!(outcome.completed);
        assert_eq!(outcome.outputs.len(), 3);
        assert_eq!(outcome.outputs[2].as_ref().unwrap(), &vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "Engine::apply_deltas: graph must keep the slot-id space")]
    fn apply_deltas_rejects_a_shrunken_graph() {
        let g1 = generators::path(3);
        let g2 = generators::path(2);
        let _ = Engine::build(&g1, SimConfig::local(), |_| Forever)
            .apply_deltas(&g2, &DeltaSet::default());
    }

    #[test]
    #[should_panic(expected = "Engine::apply_deltas: delta node")]
    fn apply_deltas_rejects_out_of_range_delta_nodes() {
        let g = generators::path(2);
        let deltas = DeltaSet {
            joined: vec![NodeId(9)],
            ..DeltaSet::default()
        };
        let _ = Engine::build(&g, SimConfig::local(), |_| Forever).apply_deltas(&g, &deltas);
    }

    /// The memory guard the 10M-node bench rows rely on: per directed
    /// edge, a plane costs 8 payload bytes plus at most 1 amortized
    /// occupancy byte at the bench matrix's average degree 8 — and the
    /// exact accounting never exceeds the homogeneous estimate on a
    /// degree-homogeneous graph.
    #[test]
    fn plane_bytes_per_directed_edge_at_most_nine() {
        for n in [1_000usize, 10_000, 1_000_000] {
            let directed = 8 * n;
            for ring_len in [1usize, 2, 4] {
                let per_plane = plane_bytes(n, directed, ring_len) / (1 + ring_len);
                assert!(
                    per_plane <= 9 * directed,
                    "n = {n}: {per_plane} bytes/plane exceeds 9 per directed edge"
                );
            }
        }
        // Exact accounting on a real degree-8-average graph.
        let mut rng = SmallRng::seed_from_u64(2024);
        let g = generators::gnp(1000, 0.008, &mut rng);
        let directed = g.row_offsets()[g.num_nodes()] as usize;
        assert!(plane_bytes_for(&g, 1) <= 2 * 9 * directed);
        // The exact figure is what the estimate models: they agree on a
        // perfectly homogeneous graph (a cycle: degree 2 everywhere).
        let c = generators::cycle(64);
        assert_eq!(plane_bytes_for(&c, 1), plane_bytes(64, 128, 1));
    }

    #[test]
    #[should_panic(expected = "Adversary::crash_prob")]
    fn engine_build_rejects_mis_coined_struct_literals() {
        let g = generators::path(2);
        let config = SimConfig::local().with_max_rounds(4);
        let config = SimConfig {
            adversary: Some(Adversary {
                crash_prob: f64::NAN,
                ..Adversary::default()
            }),
            ..config
        };
        let _ = Engine::build(&g, config, |_| Forever);
    }
}
