//! Guards the checked-in `CHURN_engine.json` through the
//! shared ledger checker (`check_churn`), one part of its rules per test.

use integration_tests::assert_ledger_holds;

const LEDGER: &str = "CHURN_engine.json";

#[test]
fn ledger_is_an_array_covering_the_churn_grid() {
    assert_ledger_holds(LEDGER, &[]);
}

#[test]
fn grid_is_dense_enough() {
    assert_ledger_holds(LEDGER, &["grid records", "acceptance records"]);
}

#[test]
fn acceptance_rows_certify_strictly_cheaper_repair() {
    // Only acceptance rows are held to `completed` and `safety_ok`.
    assert_ledger_holds(
        LEDGER,
        &[
            "acceptance",
            "repair_cheaper",
            "completed is true",
            "safety_ok is true",
        ],
    );
}

#[test]
fn counters_are_well_formed() {
    assert_ledger_holds(
        LEDGER,
        &["must be an integer in 0..10⁷", "rounds ≤ round_cap"],
    );
}
