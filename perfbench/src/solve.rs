//! The solver workloads: `solve-1m` (Luby on both executors, then
//! Algorithm 2, on a million nodes) and `drivers-100k` (the multi-run
//! drivers `mwm_grouped` and `alg3` on 100k nodes).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use congest_approx::matching::mwm_grouped;
use congest_approx::maxis::{alg2, alg3, Alg2Config};
use congest_coloring::deterministic_delta_plus_one;
use congest_graph::Graph;
use congest_mis::{LubyMis, MisResult};
use congest_sim::{plane_bytes_for, Engine, SimConfig};

use crate::check;
use crate::stats::{median, Report};
use crate::trace::Tracer;

/// Node count of `solve-1m`.
pub const SOLVE_N: usize = 1_000_000;
/// Node count of `drivers-100k`.
pub const DRIVERS_N: usize = 100_000;
/// Node and edge weights are uniform in `[1, WEIGHT_MAX]`.
pub const WEIGHT_MAX: u64 = 1 << 16;

/// Bytes of a CSR graph's arrays (row offsets, the four per-port
/// arrays, edge endpoints, and node and edge weights).
pub fn csr_bytes(g: &Graph) -> usize {
    let (n, m) = (g.num_nodes(), g.num_edges());
    4 * (n + 1) + 2 * m * (4 + 4 + 4 + 8) + 8 * m + 8 * n + 8 * m
}

/// Runs `f`, counting a panic as a failed operation.
fn guarded<T>(report: &mut Report, what: &str, f: impl FnOnce(&mut Report) -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(|| f(report))) {
        Ok(v) => Some(v),
        Err(_) => {
            report.check(what, Err("panicked".to_string()));
            None
        }
    }
}

/// One `solve-1m` pass: times in ms and the exact counts.
#[derive(Clone, Copy)]
pub struct SolvePass {
    pub build_ms: f64,
    pub run_ms: f64,
    pub build_par_ms: f64,
    pub run_par_ms: f64,
    pub alg2_ms: f64,
    pub rounds: u64,
    pub messages: u64,
    pub alg2_rounds: u64,
    pub alg2_messages: u64,
    pub alg2_weight: u64,
}

impl SolvePass {
    pub fn luby_t1_ms(&self) -> f64 {
        self.build_ms + self.run_ms
    }

    pub fn luby_par_ms(&self) -> f64 {
        self.build_par_ms + self.run_par_ms
    }

    pub fn total_ms(&self) -> f64 {
        self.luby_t1_ms() + self.luby_par_ms() + self.alg2_ms
    }
}

/// Luby through `Engine::run`, Luby through `run_parallel_with`, then
/// Algorithm 2, each with its `Engine::build`; checks every output.
pub fn solve_pass(
    g: &Graph,
    seed: u64,
    threads: usize,
    tr: &mut Tracer,
    pass: u64,
    report: &mut Report,
) -> Option<SolvePass> {
    guarded(report, "solve pass", |report| {
        let root = tr.open("solve.pass", None, pass);
        let cfg = SimConfig::congest_for(g);
        let (engine, build_ms) = tr.span("sim.build", Some(root), pass, || {
            Engine::build(g, cfg.clone(), |_| LubyMis::new())
        });
        let (seq, run_ms) = tr.span("sim.run", Some(root), pass, || engine.run(seed));
        let (engine, build_par_ms) = tr.span("sim.build", Some(root), pass, || {
            Engine::build(g, cfg.clone(), |_| LubyMis::new())
        });
        let (par, run_par_ms) = tr.span("sim.run_parallel", Some(root), pass, || {
            engine.run_parallel_with(seed, threads)
        });
        let (a2, alg2_ms) = tr.span("core.alg2", Some(root), pass, || {
            alg2(g, &Alg2Config::default(), seed)
        });
        tr.close(root);

        let identical = if seq.outputs == par.outputs && seq.stats == par.stats {
            Ok(())
        } else {
            Err("run and run_parallel_with differ".to_string())
        };
        report.check("run ≡ run_parallel_with", identical);
        let completed = seq.completed && par.completed;
        let in_set: Vec<bool> = seq
            .outputs
            .iter()
            .map(|o| *o == Some(MisResult::InSet))
            .collect();
        report.check(
            "Luby MIS",
            if completed {
                check::maximal_independent(g, &in_set)
            } else {
                Err("Luby run did not complete".to_string())
            },
        );
        let a2_set: Vec<bool> = g.nodes().map(|v| a2.independent_set.contains(v)).collect();
        report.check("alg2 independence", check::independent(g, &a2_set));
        SolvePass {
            build_ms,
            run_ms,
            build_par_ms,
            run_par_ms,
            alg2_ms,
            rounds: seq.stats.rounds as u64,
            messages: seq.stats.total_messages,
            alg2_rounds: a2.rounds as u64,
            alg2_messages: a2.stats.total_messages,
            alg2_weight: a2.independent_set.weight(g),
        }
    })
}

/// One `drivers-100k` pass.
#[derive(Clone, Copy)]
pub struct DriversPass {
    pub grouped_ms: f64,
    pub alg3_ms: f64,
    pub grouped_rounds: u64,
    pub grouped_messages: u64,
    pub grouped_weight: u64,
    pub alg3_weight: u64,
}

/// `mwm_grouped` then `alg3`; checks both outputs.
pub fn drivers_pass(
    g: &Graph,
    seed: u64,
    tr: &mut Tracer,
    pass: u64,
    report: &mut Report,
) -> Option<DriversPass> {
    guarded(report, "drivers pass", |report| {
        let root = tr.open("drivers.pass", None, pass);
        let (m, grouped_ms) = tr.span("core.grouped", Some(root), pass, || mwm_grouped(g, seed));
        let (a3, alg3_ms) = tr.span("core.alg3", Some(root), pass, || alg3(g));
        tr.close(root);

        let pairs: Vec<(u32, u32)> = m
            .matching
            .edges(g)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        let weight = check::maximal_matching(g, &pairs);
        let grouped_weight = *weight.as_ref().unwrap_or(&0);
        report.check("grouped matching", weight.map(|_| ()));
        let a3_set: Vec<bool> = g.nodes().map(|v| a3.independent_set.contains(v)).collect();
        report.check("alg3 independence", check::independent(g, &a3_set));
        DriversPass {
            grouped_ms,
            alg3_ms,
            grouped_rounds: m.stats.rounds as u64,
            grouped_messages: m.stats.total_messages,
            grouped_weight,
            alg3_weight: a3.independent_set.weight(g),
        }
    })
}

/// Runs `pass` once to warm up, then repeatedly for `window`; returns
/// the timed passes (at least one).
fn timed_passes<P>(
    window: Duration,
    report: &mut Report,
    mut pass: impl FnMut(u64, &mut Report) -> Option<P>,
) -> Vec<P> {
    let _ = pass(0, report);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut i = 1;
    while i == 1 || start.elapsed() < window {
        out.extend(pass(i, report));
        i += 1;
    }
    report.info("window_s", start.elapsed().as_secs_f64());
    out
}

/// Prints the input's working set, to read next to `llc_bytes`.
pub fn working_set(report: &Report, g: &Graph) {
    let planes = plane_bytes_for(g, 1);
    report.info("plane_bytes", planes);
    report.info("csr_bytes", csr_bytes(g));
    report.info("working_set_bytes", planes + csr_bytes(g));
    report.info("max_degree", g.max_degree());
}

/// The timed `solve-1m` run.
pub fn solve_timed(report: &mut Report, g: &Graph, seed: u64, threads: usize, window: Duration) {
    let passes = timed_passes(window, report, |i, r| {
        solve_pass(g, seed, threads, &mut Tracer::off(), i, r)
    });
    let col = |f: fn(&SolvePass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    report.timing("luby_t1_ms", &col(SolvePass::luby_t1_ms), "ms");
    report.timing("luby_par_ms", &col(SolvePass::luby_par_ms), "ms");
    report.timing("alg2_ms", &col(|p| p.alg2_ms), "ms");
    let totals = col(SolvePass::total_ms);
    report.info("pass_ms", format!("{totals:.0?}"));
    report.timing("latency_ms", &totals, "ms");
    let busy_s: f64 = totals.iter().sum::<f64>() / 1e3;
    report.metric(
        "throughput_ops",
        passes.len() as f64 / busy_s,
        "1/s",
        passes.len(),
    );
}

/// The timed `drivers-100k` run.
pub fn drivers_timed(report: &mut Report, g: &Graph, seed: u64, window: Duration) {
    let passes = timed_passes(window, report, |i, r| {
        drivers_pass(g, seed, &mut Tracer::off(), i, r)
    });
    let col = |f: fn(&DriversPass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    report.timing("grouped_ms", &col(|p| p.grouped_ms), "ms");
    report.timing("alg3_ms", &col(|p| p.alg3_ms), "ms");
    let totals = col(|p| p.grouped_ms + p.alg3_ms);
    report.info("pass_ms", format!("{totals:.0?}"));
    report.timing("latency_ms", &totals, "ms");
    let busy_s: f64 = totals.iter().sum::<f64>() / 1e3;
    report.metric(
        "throughput_ops",
        passes.len() as f64 / busy_s,
        "1/s",
        passes.len(),
    );
}

/// Traced `solve-1m` layers. With `untraced_first`, also times one
/// untraced pass and returns traced ÷ untraced pass time.
pub fn solve_traced(
    report: &mut Report,
    tr: &mut Tracer,
    g: &Graph,
    seed: u64,
    threads: usize,
    untraced_first: bool,
) -> Option<f64> {
    let _ = solve_pass(g, seed, threads, &mut Tracer::off(), 0, report);
    let untraced = if untraced_first {
        solve_pass(g, seed, threads, &mut Tracer::off(), 0, report)
    } else {
        None
    };
    let p = solve_pass(g, seed, threads, tr, 1, report)?;
    report.metric(
        "sim.build_ms",
        median(&[p.build_ms, p.build_par_ms]),
        "ms",
        2,
    );
    report.metric("sim.run_ms", p.run_ms, "ms", 1);
    report.metric("sim.run_par_ms", p.run_par_ms, "ms", 1);
    report.metric("sim.par_speedup", p.run_ms / p.run_par_ms, "x", 1);
    report.info("sim.par_speedup.base_ms", p.run_ms);
    report.count("sim.rounds", p.rounds);
    report.count("sim.messages", p.messages);
    report.metric(
        "sim.ns_per_msg",
        p.run_ms * 1e6 / p.messages as f64,
        "ns",
        1,
    );
    let edge_rounds = (g.num_edges() as u64 * p.rounds) as f64;
    report.metric(
        "sim.ns_per_edge_round",
        p.run_ms * 1e6 / edge_rounds,
        "ns",
        1,
    );
    report.count("sim.plane_bytes", plane_bytes_for(g, 1) as u64);
    report.count("core.alg2_rounds", p.alg2_rounds);
    report.metric(
        "core.alg2_ns_per_msg",
        p.alg2_ms * 1e6 / p.alg2_messages as f64,
        "ns",
        1,
    );
    report.count("core.alg2_weight", p.alg2_weight);
    untraced.map(|u| p.total_ms() / u.total_ms())
}

/// Traced `drivers-100k` layers, including the coloring pipeline timed
/// on its own. `untraced_first` as for [`solve_traced`].
pub fn drivers_traced(
    report: &mut Report,
    tr: &mut Tracer,
    g: &Graph,
    seed: u64,
    untraced_first: bool,
) -> Option<f64> {
    let _ = drivers_pass(g, seed, &mut Tracer::off(), 0, report);
    let untraced = if untraced_first {
        drivers_pass(g, seed, &mut Tracer::off(), 0, report)
    } else {
        None
    };
    let p = drivers_pass(g, seed, tr, 1, report)?;
    let (coloring, pipeline_ms) = guarded(report, "coloring", |_| {
        tr.span("coloring.pipeline", None, 1, || {
            deterministic_delta_plus_one(g)
        })
    })?;
    let proper = g.edges().all(|e| {
        let (u, v) = g.endpoints(e);
        coloring.colors[u.index()] != coloring.colors[v.index()]
    }) && coloring.colors.iter().all(|&c| c <= g.max_degree());
    report.check(
        "Δ+1 coloring",
        if proper {
            Ok(())
        } else {
            Err("coloring is improper or uses more than Δ+1 colors".to_string())
        },
    );
    report.count("core.grouped_rounds", p.grouped_rounds);
    report.count("core.grouped_messages", p.grouped_messages);
    report.metric(
        "core.grouped_ns_per_msg",
        p.grouped_ms * 1e6 / p.grouped_messages as f64,
        "ns",
        1,
    );
    report.count("core.grouped_weight", p.grouped_weight);
    report.metric("coloring.pipeline_ms", pipeline_ms, "ms", 1);
    report.count("coloring.rounds", coloring.rounds as u64);
    report.metric("core.alg3_lr_ms", p.alg3_ms - pipeline_ms, "ms", 1);
    report.count("core.alg3_weight", p.alg3_weight);
    untraced.map(|u| (p.grouped_ms + p.alg3_ms) / (u.grouped_ms + u.alg3_ms))
}
