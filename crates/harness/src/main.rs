//! Conformance-harness entry point.
//!
//! ```text
//! cargo run --release -p harness [-- --out-dir DIR] [--samples small|full]
//! ```
//!
//! Runs the full scenario matrix (see `congest_harness`), panicking on
//! any violated guarantee, prints a summary table per suite, and
//! *appends* the records to the JSON-array ledgers in `DIR` (default
//! `.`, the checked-in ones) via [`congest_bench::ledger`]: conformance
//! and fault records to `QUALITY_engine.json`, the degradation grid
//! (`congest_harness::degradation`) to `DEGRADATION_engine.json`, the
//! churn grid and its gnp-10k repair acceptance rows
//! (`congest_harness::churn`) to `CHURN_engine.json`, and the service
//! oracle grid (`congest_harness::service`) to `SERVICE_engine.json`,
//! which `load_gen` shares.
//!
//! `--samples small` sweeps one engine seed per cell (the CI smoke
//! setting); `--samples full` (default) sweeps three.

use congest_bench::ledger::append_to_file;
use congest_bench::{flag_value, Table};
use congest_harness::{
    churn_acceptance, churn_suite, conformance_suite, degradation_suite, fault_suite,
    service_suite, SampleSize,
};

fn main() {
    let mut out_dir = ".".to_string();
    let mut samples = SampleSize::Full;
    // CLI flag parsing is this binary's job; the workspace-wide ban
    // (clippy.toml) targets protocol code, not the harness entry point.
    #[allow(clippy::disallowed_methods)]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| flag_value(&arg, name, &mut args);
        if let Some(v) = take("--samples") {
            samples = parse_samples(&v);
        } else if let Some(v) = take("--out-dir") {
            out_dir = v;
        } else {
            panic!(
                "unexpected argument {arg}; usage: harness [--out-dir DIR] [--samples small|full]"
            );
        }
    }

    eprintln!(
        "running conformance matrix ({} engine seed(s) per cell)...",
        samples.seeds().len()
    );
    let conformance = conformance_suite(samples);
    eprintln!("running fault-injection suite...");
    let faults = fault_suite();
    eprintln!("running degradation grid...");
    let degradation = degradation_suite();
    eprintln!("running churn grid...");
    let mut churn = churn_suite();
    eprintln!("running churn repair acceptance rows (gnp-10k)...");
    churn.extend(churn_acceptance());
    eprintln!("running service oracle grid...");
    let service = service_suite(samples);

    let mut table = Table::new(&[
        "protocol", "graph", "weights", "valid", "rounds", "budget", "ratio", "bound", "oracle",
    ]);
    for r in &conformance {
        table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            r.weighting.to_string(),
            r.all_valid.to_string(),
            r.rounds_max.to_string(),
            r.round_budget.to_string(),
            format!("{:.3}", r.ratio_min),
            format!("{:.3}", r.ratio_bound),
            r.oracle.to_string(),
        ]);
    }
    table.print();

    let mut fault_table = Table::new(&[
        "protocol",
        "graph",
        "drop",
        "crash",
        "completed",
        "decided",
        "safe",
        "adv_dropped",
        "crashed",
    ]);
    for r in &faults {
        fault_table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            format!("{}", r.adversary.drop_prob),
            format!("{}", r.adversary.crash_prob),
            r.completed.to_string(),
            format!("{:.2}", r.decided_fraction),
            r.safety_ok.to_string(),
            r.adversary_dropped.to_string(),
            r.crashed_nodes.to_string(),
        ]);
    }
    fault_table.print();

    let mut degradation_table = Table::new(&[
        "protocol",
        "graph",
        "axis",
        "dose",
        "completed",
        "decided",
        "safe",
        "ratio",
        "bound_ok",
        "rounds",
    ]);
    for r in &degradation {
        degradation_table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            r.axis.name().to_string(),
            format!("{}", r.dose),
            r.completed.to_string(),
            format!("{:.2}", r.decided_fraction),
            r.safety_ok.to_string(),
            format!("{:.3}", r.ratio),
            r.bound_ok.to_string(),
            r.rounds.to_string(),
        ]);
    }
    degradation_table.print();

    let mut churn_table = Table::new(&[
        "protocol",
        "graph",
        "axis",
        "dose",
        "completed",
        "safe",
        "deltas",
        "repair",
        "recompute",
        "cheaper",
    ]);
    for r in &churn {
        churn_table.row(vec![
            r.protocol.to_string(),
            r.family.clone(),
            r.axis.to_string(),
            format!("{}", r.dose),
            r.completed.to_string(),
            r.safety_ok.to_string(),
            r.deltas.to_string(),
            r.repair_rounds.to_string(),
            r.recompute_rounds.to_string(),
            r.repair_cheaper.to_string(),
        ]);
    }
    churn_table.print();

    let mut service_table = Table::new(&[
        "graph", "weights", "shards", "matching", "ratio", "oracle", "mis", "queries", "repair",
        "cache",
    ]);
    for r in &service {
        service_table.row(vec![
            r.topology.family.to_string(),
            r.weighting.to_string(),
            r.shards.to_string(),
            r.matching_ok.to_string(),
            format!("{:.3}", r.ratio_min),
            r.oracle.to_string(),
            r.mis_ok.to_string(),
            r.queries_consistent.to_string(),
            r.post_repair_ok.to_string(),
            r.cache_roundtrip_ok.to_string(),
        ]);
    }
    service_table.print();

    let quality = conformance.iter().map(|r| r.to_json());
    let quality: Vec<String> = quality.chain(faults.iter().map(|r| r.to_json())).collect();
    for (file, records) in [
        ("QUALITY_engine.json", quality),
        (
            "DEGRADATION_engine.json",
            degradation.iter().map(|r| r.to_json()).collect(),
        ),
        (
            "CHURN_engine.json",
            churn.iter().map(|r| r.to_json()).collect(),
        ),
        (
            "SERVICE_engine.json",
            service.iter().map(|r| r.to_json()).collect(),
        ),
    ] {
        let path = format!("{out_dir}/{file}");
        append_to_file(&path, &records);
        println!("wrote {path}: {} records", records.len());
    }
}

fn parse_samples(v: &str) -> SampleSize {
    match v {
        "small" => SampleSize::Small,
        "full" => SampleSize::Full,
        other => panic!("--samples must be small or full, got {other}"),
    }
}
