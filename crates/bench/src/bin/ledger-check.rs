//! `ledger-check [DIR]`: checks the five JSON ledgers in `DIR` (default
//! `.`, the checked-in ones; or as written by `bench_baseline`,
//! `load_gen` and `harness --out-dir DIR`) against the rules of
//! [`congest_bench::ledger::check`]. Prints every violation and exits 1
//! if there is any.

use std::process::ExitCode;

use congest_bench::ledger::check::check_dir;

fn main() -> ExitCode {
    // CLI parsing is this binary's job; the workspace-wide ban
    // (clippy.toml) targets protocol code, not the bench tier.
    #[allow(clippy::disallowed_methods)]
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let violations = check_dir(dir.as_ref());
    for v in &violations {
        println!("{v}");
    }
    println!("ledger-check {dir}: {} violation(s)", violations.len());
    ExitCode::from(u8::from(!violations.is_empty()))
}
