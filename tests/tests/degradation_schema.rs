//! Guards the checked-in `DEGRADATION_engine.json` through the
//! shared ledger checker (`check_degradation`), one part of its rules per test.

use integration_tests::assert_ledger_holds;

const LEDGER: &str = "DEGRADATION_engine.json";

#[test]
fn ledger_is_an_array_covering_the_degradation_grid() {
    assert_ledger_holds(LEDGER, &[]);
}

#[test]
fn grid_is_dense_enough() {
    assert_ledger_holds(LEDGER, &["≥ 144 records"]);
}

#[test]
fn counters_are_well_formed() {
    assert_ledger_holds(
        LEDGER,
        &["must be an integer in 0..10⁷", "rounds ≤ round_cap"],
    );
}
