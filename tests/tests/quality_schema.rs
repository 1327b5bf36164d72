//! Guards the checked-in `QUALITY_engine.json` through the
//! shared ledger checker (`check_quality`), one part of its rules per test.

use integration_tests::assert_ledger_holds;

const LEDGER: &str = "QUALITY_engine.json";

#[test]
fn ledger_is_an_array_covering_the_scenario_matrix() {
    assert_ledger_holds(LEDGER, &[]);
}

#[test]
fn every_conformance_record_holds_its_bound() {
    assert_ledger_holds(
        LEDGER,
        &[
            "valid",
            "within_bound",
            "rounds_max ≤ round_budget",
            "ratio_min ≥ ratio_bound",
        ],
    );
}

#[test]
fn ratios_and_rounds_are_well_formed() {
    assert_ledger_holds(
        LEDGER,
        &["must be an integer in 0..10⁶", "must be a number ≥ 0"],
    );
}
