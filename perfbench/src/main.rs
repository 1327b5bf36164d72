//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload's timed run and ends with one
//! JSON result line holding the end-to-end metrics. `--trace 1` runs the
//! traced run, which records spans around the calls into every layer on
//! the inputs of all four workloads (the named workload also gets its
//! traced ÷ untraced overhead), writes the spans under `.bench_out/`,
//! and ends with the per-layer metrics. Every output is checked; a
//! failed check makes the run exit with code 1. See `perfbench/README.md`.

// Timing is this program's whole job; the repository-wide wall-clock ban
// in clippy.toml targets protocol code.
#![allow(clippy::disallowed_methods)]

mod check;
mod solve;
mod stats;
mod svc;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use congest_graph::{generators, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use solve::{DRIVERS_N, SOLVE_N, WEIGHT_MAX};
use stats::{host_threads, llc_bytes, median, peak_rss_mb, Report};
use svc::{Mix, SvcLayers, SVC_N, SVC_WEIGHT_MAX};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["solve-1m", "drivers-100k", "svc-read-mostly", "svc-churn"];

/// End-to-end metrics: the result line of every timed run.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "latency_ms", "throughput_ops"];

/// Per-layer metrics: the result line of every traced run.
pub const PER_LAYER: [&str; 53] = [
    "graph.gen_ms",
    "sim.build_ms",
    "sim.run_ms",
    "sim.run_par_ms",
    "sim.par_speedup",
    "sim.rounds",
    "sim.messages",
    "sim.ns_per_msg",
    "sim.ns_per_edge_round",
    "sim.plane_bytes",
    "core.alg2_rounds",
    "core.alg2_ns_per_msg",
    "core.alg2_weight",
    "core.grouped_rounds",
    "core.grouped_messages",
    "core.grouped_ns_per_msg",
    "core.grouped_weight",
    "coloring.pipeline_ms",
    "coloring.rounds",
    "core.alg3_lr_ms",
    "core.alg3_weight",
    "service.wire.encode_ns",
    "service.wire.decode_ns",
    "service.wire.req_bytes",
    "service.wire.resp_bytes",
    "service.tcp.rtt_us",
    "service.tcp.overhead_us",
    "service.tcp.rtt_us.churn",
    "service.tcp.overhead_us.churn",
    "service.server.queue_rtt_us",
    "service.server.queue_wait_us",
    "service.server.batches_served",
    "service.server.max_batch_seen",
    "service.server.overload_rejections",
    "service.core.handle_us.read",
    "service.core.handle_us.query_hit",
    "service.core.handle_us.query_miss",
    "service.core.handle_us.write",
    "service.cache_hit_ratio",
    "service.cache_hits",
    "service.cache_lookups",
    "service.cross_shard_messages",
    "sim.miss_run_us",
    "sim.miss_run_sharded_us",
    "graph.overlay_clone_us",
    "graph.compact_us",
    "graph.fingerprint_us",
    "mis.luby_repair_us",
    "core.grouped_repair_us",
    "mis.repair_rounds",
    "core.repair_rounds",
    "bench.gen_us",
    "bench.trace_overhead",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// `G(n, p)` by skip sampling at average degree 8, node weights in
/// `[1, node_max]` and edge weights in `[1, edge_max]`, from `seed`.
pub fn weighted_gnp(n: usize, node_max: u64, edge_max: u64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = generators::gnp_skip(n, 8.0 / (n - 1) as f64, &mut rng);
    generators::randomize_node_weights(&mut g, node_max, &mut rng);
    generators::randomize_edge_weights(&mut g, edge_max, &mut rng);
    g
}

fn solve_graph(seed: u64) -> Graph {
    weighted_gnp(SOLVE_N, WEIGHT_MAX, WEIGHT_MAX, seed)
}

fn drivers_graph(seed: u64) -> Graph {
    weighted_gnp(DRIVERS_N, WEIGHT_MAX, WEIGHT_MAX, seed)
}

fn svc_graph(seed: u64) -> Graph {
    weighted_gnp(SVC_N, 1, SVC_WEIGHT_MAX, seed)
}

/// Generates a graph `SETUP_REPS` times; returns the last and the
/// median time in seconds.
fn setup_graph(gen: impl Fn() -> Graph) -> (Graph, f64) {
    let mut times = Vec::new();
    let mut g = None;
    for _ in 0..SETUP_REPS {
        drop(g.take());
        let t = Instant::now();
        g = Some(gen());
        times.push(t.elapsed().as_secs_f64());
    }
    (g.expect("at least one set-up"), median(&times))
}

fn timed(report: &mut Report, args: &Args, threads: usize) -> Result<(), String> {
    let window = Duration::from_secs(args.seconds);
    let seed = args.seed;
    match args.workload.as_str() {
        "solve-1m" => {
            let (g, setup_s) = setup_graph(|| solve_graph(seed));
            report.metric("setup_s", setup_s, "s", SETUP_REPS);
            solve::working_set(report, &g);
            solve::solve_timed(report, &g, seed, threads, window);
        }
        "drivers-100k" => {
            let (g, setup_s) = setup_graph(|| drivers_graph(seed));
            report.metric("setup_s", setup_s, "s", SETUP_REPS);
            solve::working_set(report, &g);
            solve::drivers_timed(report, &g, seed, window);
        }
        w => {
            let mix = Mix::ALL
                .into_iter()
                .find(|m| m.name() == w)
                .expect("validated workload");
            let (g, svc, setup_s) = svc::setup(SETUP_REPS, threads, || svc_graph(seed))
                .map_err(|e| format!("service set-up failed: {e}"))?;
            report.metric("setup_s", setup_s, "s", SETUP_REPS);
            solve::working_set(report, &g);
            svc::svc_timed(report, mix, &g, svc, seed, window);
        }
    }
    Ok(())
}

fn traced(report: &mut Report, args: &Args, threads: usize) -> Result<(), String> {
    let seed = args.seed;
    let named = args.workload.as_str();
    let mut tr = Tracer::new(Instant::now(), true);
    let mut overhead = None;
    let mut gen_ms = None;
    let mut gen = |name: &str, tr: &mut Tracer, f: &dyn Fn() -> Graph| {
        let (g, ms) = tr.span("graph.gen", None, 0, f);
        if name == named {
            gen_ms = Some(ms);
        }
        g
    };

    let g = gen("solve-1m", &mut tr, &|| solve_graph(seed));
    let r = solve::solve_traced(report, &mut tr, &g, seed, threads, named == "solve-1m");
    overhead = overhead.or(r);
    drop(g);

    let g = gen("drivers-100k", &mut tr, &|| drivers_graph(seed));
    let r = solve::drivers_traced(report, &mut tr, &g, seed, named == "drivers-100k");
    overhead = overhead.or(r);
    drop(g);

    let mut layers = SvcLayers::default();
    for mix in Mix::ALL {
        let name = mix.name();
        let g = gen(name, &mut tr, &|| svc_graph(seed));
        let (r, part) = svc::svc_traced(report, &mut tr, mix, &g, seed, threads, named == name)
            .map_err(|e| format!("service set-up failed: {e}"))?;
        layers.extend(part);
        overhead = overhead.or(r);
    }
    svc::pooled_layers(report, &layers);

    report.metric(
        "graph.gen_ms",
        gen_ms.expect("the named workload's graph"),
        "ms",
        1,
    );
    let overhead = overhead.ok_or("no untraced comparison")?;
    report.metric("bench.trace_overhead", overhead, "x", 1);
    let path = PathBuf::from(".bench_out").join(format!("trace-{named}-{seed}.jsonl"));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.info("spans", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = host_threads();
    let mut report = Report::default();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("host_threads", threads);
    report.info("llc_bytes", llc_bytes());
    let outcome = if args.trace {
        traced(&mut report, &args, threads)
    } else {
        timed(&mut report, &args, threads)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let keep: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", report.result_line(&keep));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` fields of one array in the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_print() {
        assert_eq!(declared("workloads"), WORKLOADS);
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
    }
}
