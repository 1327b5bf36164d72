//! Linial's iterated color reduction \[Lin87\].
//!
//! Starting from the unique node ids (an `n`-coloring), each iteration maps
//! a proper `m`-coloring to a proper `q²`-coloring in a single round, using
//! polynomials over `GF(q)`: a color `c < m ≤ q^{d+1}` is read as the
//! coefficient vector of a degree-`≤ d` polynomial `p_c`; since two
//! distinct polynomials agree on at most `d` points and `q ≥ dΔ + 1`,
//! every node can pick an evaluation point `x` where it differs from all
//! `≤ Δ` neighbors, and adopt `(x, p_c(x)) ∈ [q²]` as its new color.
//! Iterating reaches `O(Δ² log²(Δ))`-ish many colors after `O(log* n)`
//! rounds, the classic bound.

use std::sync::Arc;

use congest_sim::{bits_for_value, Context, Inbox, Message, PackedMsg, Protocol, Status};

use crate::primes::next_prime;

/// One Linial iteration: reduce to `q²` colors using degree-`≤ d`
/// polynomials over `GF(q)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinialStep {
    /// Field size (prime, `≥ dΔ + 1`).
    pub q: u64,
    /// Polynomial degree bound.
    pub d: u32,
}

impl LinialStep {
    /// Number of colors after this step.
    pub fn colors_after(&self) -> u64 {
        self.q * self.q
    }
}

/// `q^(d+1) ≥ m`, computed without overflow.
fn pow_at_least(q: u64, e: u32, m: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..e {
        acc = acc.saturating_mul(q as u128);
        if acc >= m as u128 {
            return true;
        }
    }
    acc >= m as u128
}

/// Cheapest single Linial step for reducing `m` colors at max degree `Δ`:
/// minimizes `q²` over the polynomial degree `d`. Returns `None` if no
/// step makes progress (i.e. `q² ≥ m` for every admissible `(q, d)`).
fn best_step(m: u64, max_degree: usize) -> Option<LinialStep> {
    let delta = max_degree.max(1) as u64;
    let mut best: Option<LinialStep> = None;
    for d in 1..=64u32 {
        let lower_by_degree = d as u64 * delta + 1;
        // Once dΔ+1 squared is no better than the current best, larger d
        // can only be worse.
        if let Some(b) = best {
            if lower_by_degree * lower_by_degree >= b.colors_after() {
                break;
            }
        }
        // Smallest q ≥ max(dΔ+1, m^{1/(d+1)}), prime, with q^{d+1} ≥ m.
        let root_guess = (m as f64).powf(1.0 / f64::from(d + 1)).floor() as u64;
        let mut q = next_prime(lower_by_degree.max(root_guess.saturating_sub(2)).max(2));
        while !pow_at_least(q, d + 1, m) {
            q = next_prime(q + 1);
        }
        let cand = LinialStep { q, d };
        if best.is_none_or(|b| cand.colors_after() < b.colors_after()) {
            best = Some(cand);
        }
    }
    best.filter(|s| s.colors_after() < m)
}

/// Full reduction schedule from `n` initial colors (the ids) down to the
/// fixed point (`O(Δ²)` colors); its length is the `O(log* n)` round count.
pub fn linial_schedule(n: usize, max_degree: usize) -> Vec<LinialStep> {
    let mut schedule = Vec::new();
    let mut m = n.max(1) as u64;
    while let Some(step) = best_step(m, max_degree) {
        m = step.colors_after();
        schedule.push(step);
        assert!(schedule.len() < 128, "Linial schedule failed to converge");
    }
    schedule
}

/// Linial coloring message: the sender's current color.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorMsg(pub u64);

impl Message for ColorMsg {
    fn bit_size(&self) -> usize {
        bits_for_value(self.0)
    }
}

/// Wire format: the color itself (a single `O(log n)`-bit value).
impl PackedMsg for ColorMsg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        self.0
    }

    fn unpack(word: u64) -> Self {
        ColorMsg(word)
    }
}

/// Linial's coloring as a CONGEST [`Protocol`]; outputs each node's final
/// color (in `[0, C)` where `C` is the last step's `q²`, or the node id if
/// the schedule is empty).
#[derive(Clone, Debug)]
pub struct LinialColoring {
    schedule: Arc<[LinialStep]>,
    color: u64,
    step: usize,
    /// Colors heard this round; sized to the degree once, in `init`.
    neighbor_colors: Vec<u64>,
}

impl LinialColoring {
    /// Creates an instance from a precomputed [`linial_schedule`]. The
    /// schedule depends only on the globally known `n` and `Δ`, so all
    /// nodes can share one copy: pass clones of one `Arc<[LinialStep]>`.
    /// A `Vec` is accepted too, for callers that run a single instance.
    pub fn new(schedule: impl Into<Arc<[LinialStep]>>) -> Self {
        LinialColoring {
            schedule: schedule.into(),
            color: 0,
            step: 0,
            neighbor_colors: Vec::new(),
        }
    }

    /// Number of colors guaranteed after running `schedule`.
    pub fn final_colors(n: usize, schedule: &[LinialStep]) -> usize {
        schedule.last().map_or(n, |s| s.colors_after() as usize)
    }

    /// Evaluates the polynomial encoded by `color` (base-`q` digits) at `x`.
    fn poly_eval(color: u64, q: u64, d: u32, x: u64) -> u64 {
        // Horner evaluation over the base-q digit expansion, most
        // significant digit first.
        let mut digits = [0u64; 65];
        let mut c = color;
        for digit in digits.iter_mut().take(d as usize + 1) {
            *digit = c % q;
            c /= q;
        }
        let mut acc = 0u64;
        for i in (0..=d as usize).rev() {
            acc = (acc * x + digits[i]) % q;
        }
        acc
    }

    fn apply_step(&self, step: LinialStep, neighbor_colors: &[u64]) -> u64 {
        let LinialStep { q, d } = step;
        'point: for x in 0..q {
            let mine = Self::poly_eval(self.color, q, d, x);
            for &nc in neighbor_colors {
                if nc != self.color && Self::poly_eval(nc, q, d, x) == mine {
                    continue 'point;
                }
            }
            return x * q + mine;
        }
        unreachable!(
            "q = {q} ≥ dΔ+1 guarantees a conflict-free evaluation point exists \
             for a proper input coloring"
        )
    }
}

impl Protocol for LinialColoring {
    type Msg = ColorMsg;
    type Output = usize;

    fn init(&mut self, ctx: &mut Context<'_, ColorMsg>) {
        self.color = u64::from(ctx.id().0);
        self.neighbor_colors = Vec::with_capacity(ctx.degree());
        if !self.schedule.is_empty() {
            let c = self.color;
            ctx.broadcast(ColorMsg(c));
        }
    }

    fn round(
        &mut self,
        ctx: &mut Context<'_, ColorMsg>,
        inbox: Inbox<'_, ColorMsg>,
    ) -> Status<usize> {
        if self.schedule.is_empty() {
            return Status::Halt(self.color as usize);
        }
        let step = self.schedule[self.step];
        self.neighbor_colors.clear();
        self.neighbor_colors
            .extend(inbox.iter().map(|(_, msg)| msg.0));
        self.color = self.apply_step(step, &self.neighbor_colors);
        self.step += 1;
        if self.step == self.schedule.len() {
            Status::Halt(self.color as usize)
        } else {
            let c = self.color;
            ctx.broadcast(ColorMsg(c));
            Status::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_coloring;
    use congest_graph::generators;
    use congest_sim::{run_protocol, SimConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_converges_quickly() {
        let sched = linial_schedule(1_000_000, 10);
        assert!(
            sched.len() <= 6,
            "log* convergence expected, got {} steps",
            sched.len()
        );
        // Colors strictly decrease along the schedule.
        let mut m = 1_000_000u64;
        for s in &sched {
            assert!(s.colors_after() < m);
            m = s.colors_after();
        }
        // Fixed point is O(Δ²)-ish: q² for the first prime q ≥ 2Δ+1.
        assert!(m <= 8 * 11 * 11, "final colors {m} too large for Δ=10");
    }

    #[test]
    fn schedule_empty_when_already_small() {
        // n = 5, Δ = 4: ids are already within the fixed point.
        assert!(linial_schedule(5, 4).is_empty());
    }

    #[test]
    fn poly_eval_matches_direct_computation() {
        // color 23 over q=5, d=2: digits 3,4,0 → p(x) = 3 + 4x.
        let q = 5;
        for x in 0..q {
            assert_eq!(
                LinialColoring::poly_eval(23, q, 2, x),
                (3 + 4 * x) % q,
                "x={x}"
            );
        }
    }

    fn run_linial(g: &congest_graph::Graph) -> (Vec<usize>, usize, usize) {
        let schedule = linial_schedule(g.num_nodes(), g.max_degree());
        let bound = LinialColoring::final_colors(g.num_nodes(), &schedule);
        let rounds_expected = schedule.len();
        let outcome = run_protocol(
            g,
            SimConfig::congest_for(g),
            |_| LinialColoring::new(schedule.clone()),
            0,
        );
        assert!(outcome.completed);
        assert_eq!(
            outcome.stats.budget_violations, 0,
            "Linial exceeds CONGEST budget"
        );
        (outcome.into_outputs(), bound, rounds_expected)
    }

    #[test]
    fn colors_are_proper_on_families() {
        let mut rng = SmallRng::seed_from_u64(12);
        let graphs = [
            generators::path(300),
            generators::cycle(257),
            generators::gnp(200, 0.03, &mut rng),
            generators::random_regular(128, 6, &mut rng),
            generators::star(64),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let (colors, bound, _) = run_linial(g);
            verify_coloring(g, &colors, bound).unwrap_or_else(|e| panic!("graph {i}: {e}"));
        }
    }

    #[test]
    fn round_count_equals_schedule_length() {
        let g = generators::cycle(1000);
        let schedule = linial_schedule(g.num_nodes(), g.max_degree());
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| LinialColoring::new(schedule.clone()),
            0,
        );
        assert_eq!(outcome.stats.rounds, schedule.len().max(1));
    }
}
