//! Guards the checked-in `SERVICE_engine.json` through the
//! shared ledger checker (`check_service`), one part of its rules per test.

use integration_tests::assert_ledger_holds;

const LEDGER: &str = "SERVICE_engine.json";

#[test]
fn ledger_is_an_array_with_both_record_shapes() {
    assert_ledger_holds(LEDGER, &[]);
}

#[test]
fn load_gen_records_carry_the_throughput_schema() {
    assert_ledger_holds(
        LEDGER,
        &[
            "load_gen",
            "missing field shards",
            "missing field responses.",
            "missing field cache.",
            "missing field final_fingerprint",
            "response counts sum to requests",
            "throughput_rps",
            "latency_ns",
            "batches_served",
            "max_batch_seen",
        ],
    );
}

#[test]
fn oracle_records_cover_the_harness_grid() {
    assert_ledger_holds(
        LEDGER,
        &[
            "oracle",
            "missing field weights",
            "missing field seeds",
            "missing field repair.rounds",
            "ratio_min ≥",
            "repair.deltas",
            "cache.hits",
        ],
    );
}

#[test]
fn ledger_never_records_a_broken_guarantee() {
    assert_ledger_holds(
        LEDGER,
        &["must be not false", "is true", "no error responses"],
    );
}
