//! Guards the checked-in `BENCH_engine.json` through the
//! shared ledger checker (`check_bench`), one part of its rules per test.

use integration_tests::assert_ledger_holds;

const LEDGER: &str = "BENCH_engine.json";

#[test]
fn baseline_is_an_array_covering_the_size_matrix() {
    assert_ledger_holds(LEDGER, &[]);
}

#[test]
fn baseline_medians_are_positive_integers() {
    assert_ledger_holds(LEDGER, &["positive integer", "missing field median_ns"]);
}

#[test]
fn engine_rows_record_plane_bytes() {
    assert_ledger_holds(LEDGER, &["plane_bytes", "an engine row with host_threads"]);
}

#[test]
fn parallel_executor_never_regresses_on_single_worker_rows() {
    assert_ledger_holds(LEDGER, &["run_parallel ≤", "single-worker rows"]);
}
