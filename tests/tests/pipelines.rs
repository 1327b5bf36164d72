//! End-to-end pipeline tests: every algorithm of the paper on a shared
//! corpus, scored against exact oracles where available.

use congest_approx::fast::{mcm_two_plus_eps, mwm_two_plus_eps};
use congest_approx::hk::{mcm_one_plus_eps_congest, mcm_one_plus_eps_local};
use congest_approx::matching::{mwm_lr_deterministic, mwm_lr_randomized};
use congest_approx::maxis::{
    alg2, alg3, delta_bound_satisfied, sequential_local_ratio, Alg2Config, SelectionRule,
};
use congest_approx::proposal::general_proposal;
use congest_exact::{blossom_maximum_matching, brute_force_mwis, max_weight_matching_oracle};
use integration_tests::{corpus, small_corpus};

#[test]
fn maxis_algorithms_give_independent_sets_everywhere() {
    for (name, g) in corpus(1, 64) {
        let r2 = alg2(&g, &Alg2Config::default(), 11);
        assert!(r2.independent_set.is_independent(&g), "{name}: alg2");
        let r3 = alg3(&g);
        assert!(r3.independent_set.is_independent(&g), "{name}: alg3");
        let seq = sequential_local_ratio(&g, SelectionRule::TopLayerGreedyMis);
        assert!(seq.is_independent(&g), "{name}: seq");
        if g.num_edges() > 0 {
            assert!(!r2.independent_set.is_empty(), "{name}: alg2 empty");
            assert!(!r3.independent_set.is_empty(), "{name}: alg3 empty");
        }
    }
}

#[test]
fn maxis_delta_guarantee_on_small_graphs() {
    for (name, g) in small_corpus(2, 64) {
        let opt = brute_force_mwis(&g).weight(&g);
        let r2 = alg2(&g, &Alg2Config::default(), 21);
        assert!(
            delta_bound_satisfied(&g, r2.independent_set.weight(&g), opt),
            "{name}: alg2 breaks Δ-approximation"
        );
        let r3 = alg3(&g);
        assert!(
            delta_bound_satisfied(&g, r3.independent_set.weight(&g), opt),
            "{name}: alg3 breaks Δ-approximation"
        );
        let seq = sequential_local_ratio(&g, SelectionRule::SingleMaxWeight);
        assert!(
            delta_bound_satisfied(&g, seq.weight(&g), opt),
            "{name}: sequential LR breaks Δ-approximation"
        );
    }
}

#[test]
fn matching_two_approximation_everywhere_small() {
    for (name, g) in small_corpus(3, 32) {
        if g.num_edges() == 0 {
            continue;
        }
        let Some(opt) = max_weight_matching_oracle(&g) else {
            continue;
        };
        let opt_w = opt.weight(&g);
        let rand = mwm_lr_randomized(&g, &Alg2Config::default(), 31);
        assert!(rand.matching.is_valid(&g), "{name}");
        assert!(
            2 * rand.matching.weight(&g) >= opt_w,
            "{name}: randomized LR matching below 1/2 of OPT"
        );
        let det = mwm_lr_deterministic(&g);
        assert!(
            2 * det.matching.weight(&g) >= opt_w,
            "{name}: deterministic LR matching below 1/2 of OPT"
        );
    }
}

#[test]
fn fast_matchings_hit_their_factors() {
    for (name, g) in corpus(4, 16) {
        if g.num_edges() == 0 {
            continue;
        }
        let opt = blossom_maximum_matching(&g).len() as f64;
        if opt == 0.0 {
            continue;
        }
        // (2+ε) cardinality.
        let m2e = mcm_two_plus_eps(&g, 0.25, 41);
        assert!(m2e.matching.is_valid(&g), "{name}");
        assert!(
            2.5 * m2e.matching.len() as f64 >= opt,
            "{name}: (2+ε) MCM too small: {} vs OPT {opt}",
            m2e.matching.len()
        );
        // B.4 proposal.
        let prop = general_proposal(&g, 0.25, 43);
        assert!(
            2.5 * prop.matching.len() as f64 + 1.0 >= opt,
            "{name}: proposal matching too small: {} vs OPT {opt}",
            prop.matching.len()
        );
    }
}

#[test]
fn weighted_fast_matching_two_plus_eps() {
    for (name, g) in small_corpus(5, 100) {
        if g.num_edges() == 0 {
            continue;
        }
        let Some(opt) = max_weight_matching_oracle(&g) else {
            continue;
        };
        let opt_w = opt.weight(&g) as f64;
        let run = mwm_two_plus_eps(&g, 0.25, 51);
        assert!(run.matching.is_valid(&g), "{name}");
        assert!(
            2.5 * run.matching.weight(&g) as f64 >= opt_w,
            "{name}: (2+ε) MWM {} vs OPT {opt_w}",
            run.matching.weight(&g)
        );
    }
}

#[test]
fn one_plus_eps_pipelines_beat_two_approx_quality() {
    // On odd cycles and regular graphs, the (1+ε) algorithms must land
    // strictly closer to OPT than the guaranteed-2 baseline factor.
    for (name, g) in corpus(6, 1) {
        if g.num_edges() == 0 || g.num_nodes() > 70 {
            continue;
        }
        let opt = blossom_maximum_matching(&g).len() as f64;
        if opt < 4.0 {
            continue;
        }
        let local = mcm_one_plus_eps_local(&g, 0.34, 61);
        assert!(local.matching.is_valid(&g), "{name}");
        assert!(
            1.5 * local.matching.len() as f64 >= opt,
            "{name}: LOCAL (1+ε) ratio too weak: {} vs {opt}",
            local.matching.len()
        );
        let congest = mcm_one_plus_eps_congest(&g, 0.5, 63);
        assert!(congest.matching.is_valid(&g), "{name}");
        assert!(
            1.8 * congest.matching.len() as f64 >= opt,
            "{name}: CONGEST (1+ε) ratio too weak: {} vs {opt}",
            congest.matching.len()
        );
    }
}

#[test]
fn round_complexity_shapes_hold() {
    // Algorithm 2: rounds ~ O(MIS · log W) — grows with log W.
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(7);
    let base = generators::random_regular(64, 4, &mut rng);

    let mut g1 = base.clone();
    generators::randomize_node_weights(&mut g1, 2, &mut rng);
    let mut g2 = base.clone();
    generators::randomize_node_weights(&mut g2, 1 << 16, &mut rng);
    let r_small: usize = (0..3)
        .map(|s| alg2(&g1, &Alg2Config::default(), s).rounds)
        .sum();
    let r_large: usize = (0..3)
        .map(|s| alg2(&g2, &Alg2Config::default(), s).rounds)
        .sum();
    assert!(
        r_large > r_small,
        "log W scaling missing: W=2 took {r_small}, W=2^16 took {r_large}"
    );
    // But far from linear in W.
    assert!(r_large < r_small * 64, "scaling looks linear in W");
}

/// FNV-1a over a sequence of `u64`s, byte by byte (little-endian).
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in values {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins the deterministic coloring pipeline and Algorithm 3 bit for bit:
/// the colour assignment, the round split, the message count and the
/// resulting independent-set weight. Any change to the Linial schedule,
/// the Kuhn–Wattenhofer round order or the colour each node picks moves
/// at least one of these values.
#[test]
fn coloring_pipeline_and_alg3_golden() {
    use congest_coloring::deterministic_delta_plus_one;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut rng = SmallRng::seed_from_u64(1201);
    let mut graphs = vec![
        ("gnp-1000", generators::gnp(1000, 8.0 / 1000.0, &mut rng)),
        ("path-5000", generators::path(5000)),
        ("star-64", generators::star(64)),
        ("complete-10", generators::complete(10)),
    ];
    for (_, g) in graphs.iter_mut() {
        generators::randomize_node_weights(g, 1000, &mut rng);
    }
    // (name, colour hash, rounds, linial, reduction, messages) for the
    // coloring; (rounds, messages, weight) for alg3.
    type Pin = (&'static str, u64, usize, usize, usize, u64, usize, u64, u64);
    #[rustfmt::skip]
    let expected: [Pin; 4] = [
        ("gnp-1000",    0x2dc0_1a27_7609_a977, 103, 1, 102, 30179, 113, 47587,  169883),
        ("path-5000",   0x090d_2e3e_48a1_4687,  14, 2,  12, 35446,  20, 59740, 1376986),
        ("star-64",     0x310e_42af_98fb_7125,   2, 1,   1,     0,   5,   315,   31707),
        ("complete-10", 0x1334_32d1_6e23_d744,   2, 1,   1,     0,   9,   192,     996),
    ];
    let mut actual = Vec::new();
    for (name, g) in &graphs {
        let run = deterministic_delta_plus_one(g);
        let r3 = alg3(g);
        actual.push((
            *name,
            fnv1a(run.colors.iter().map(|&c| c as u64)),
            run.rounds,
            run.linial_rounds,
            run.reduction_rounds,
            run.stats.total_messages,
            r3.rounds,
            r3.stats.total_messages,
            r3.independent_set.weight(g),
        ));
    }
    assert_eq!(actual, expected);
}
