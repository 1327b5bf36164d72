//! Shared fixtures for the cross-crate integration test suite.

use congest_graph::{generators, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A small corpus of structurally diverse graphs, deterministic per
/// `seed`, with node and edge weights in `[1, max_weight]`.
pub fn corpus(seed: u64, max_weight: u64) -> Vec<(String, Graph)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs = vec![
        ("path-32".to_string(), generators::path(32)),
        ("cycle-21".to_string(), generators::cycle(21)),
        ("star-24".to_string(), generators::star(24)),
        ("grid-6x6".to_string(), generators::grid(6, 6)),
        ("complete-9".to_string(), generators::complete(9)),
        (
            "kbipartite-6-8".to_string(),
            generators::complete_bipartite(6, 8),
        ),
        ("gnp-60".to_string(), generators::gnp(60, 0.08, &mut rng)),
        (
            "regular-48-4".to_string(),
            generators::random_regular(48, 4, &mut rng),
        ),
        ("tree-40".to_string(), generators::random_tree(40, &mut rng)),
        (
            "bipartite-15-15".to_string(),
            generators::random_bipartite(15, 15, 0.25, &mut rng),
        ),
        (
            "ba-50-2".to_string(),
            generators::barabasi_albert(50, 2, &mut rng),
        ),
    ];
    for (_, g) in graphs.iter_mut() {
        if max_weight > 1 {
            generators::randomize_node_weights(g, max_weight, &mut rng);
            generators::randomize_edge_weights(g, max_weight, &mut rng);
        }
    }
    graphs
}

/// Small graphs suitable for exact brute-force comparison (`n ≤ 20`).
pub fn small_corpus(seed: u64, max_weight: u64) -> Vec<(String, Graph)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs = vec![
        ("path-9".to_string(), generators::path(9)),
        ("cycle-11".to_string(), generators::cycle(11)),
        ("star-10".to_string(), generators::star(10)),
        ("complete-7".to_string(), generators::complete(7)),
        ("gnp-14".to_string(), generators::gnp(14, 0.3, &mut rng)),
        ("gnp-16".to_string(), generators::gnp(16, 0.2, &mut rng)),
        (
            "bipartite-7-7".to_string(),
            generators::random_bipartite(7, 7, 0.35, &mut rng),
        ),
    ];
    for (_, g) in graphs.iter_mut() {
        if max_weight > 1 {
            generators::randomize_node_weights(g, max_weight, &mut rng);
            generators::randomize_edge_weights(g, max_weight, &mut rng);
        }
    }
    graphs
}

/// Asserts that the shared ledger checker (`congest_bench::ledger::check`)
/// finds no violation in the checked-in ledger `file` under a rule whose
/// text mentions one of `topics` (every rule when `topics` is empty). The
/// `*_schema.rs` tests each ask for their part of the rules this way.
///
/// # Panics
/// Panics on such a violation, or if `file` is not a known ledger.
pub fn assert_ledger_holds(file: &str, topics: &[&str]) {
    use congest_bench::ledger::check::{check_text, LEDGERS};
    let (_, check) = LEDGERS
        .into_iter()
        .find(|(name, _)| *name == file)
        .unwrap_or_else(|| panic!("{file} is not a ledger"));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file} must be checked in at {path:?}: {e}"));
    let violations: Vec<String> = check_text(file, &text, check)
        .into_iter()
        .filter(|v| topics.is_empty() || topics.iter().any(|t| v.contains(t)))
        .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
