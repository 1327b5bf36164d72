//! The ledger checker on the checked-in ledgers and on mutated copies of
//! them, and the JSON reader it rests on.

use std::path::{Path, PathBuf};

use congest_bench::ledger::check::{
    check_bench, check_churn, check_degradation, check_dir, check_quality, check_service,
    check_text, Check, LEDGERS,
};
use congest_bench::ledger::{append_records, json_object, json_str, parse, Json};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(file: &str) -> String {
    let path = repo_root().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?} must be checked in: {e}"))
}

#[test]
fn checked_in_ledgers_pass() {
    let violations = check_dir(&repo_root());
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// The value at `path` in `v`, for mutation.
fn field<'j>(v: &'j mut Json, path: &str) -> &'j mut Json {
    path.split('.').fold(v, |v, key| match v {
        Json::Object(pairs) => &mut pairs.iter_mut().rev().find(|(k, _)| k == key).unwrap().1,
        _ => panic!("{key}: not an object"),
    })
}

fn int(r: &Json, path: &str) -> i128 {
    r.int(path).unwrap()
}

fn is(r: &Json, path: &str, value: &str) -> bool {
    r.text(path) == Some(value)
}

/// Mutates the first record of the checked-in `file` that `pick`
/// selects, and asserts `check` then reports that record under a rule
/// mentioning `expect`.
fn assert_rejects(
    (file, check): (&str, Check),
    pick: impl Fn(&Json) -> bool,
    mutate: impl FnOnce(&mut Json),
    expect: &str,
) {
    let mut ledger = parse(&read(file)).unwrap();
    assert_eq!(check(file, &ledger), Vec::<String>::new());
    let Json::Array(records) = &mut ledger else {
        panic!("{file} is not an array");
    };
    let i = records.iter().position(pick).expect("a record to mutate");
    mutate(&mut records[i]);
    let violations = check(file, &ledger);
    let at = format!("{file}[{i}]: ");
    assert!(
        violations
            .iter()
            .any(|v| v.starts_with(&at) && v.contains(expect)),
        "{at}expected a violation mentioning {expect:?}, got {violations:?}"
    );
}

#[test]
fn every_ledger_rejects_a_mutated_record() {
    assert_rejects(
        ("CHURN_engine.json", check_churn),
        |r| is(r, "kind", "acceptance"),
        |r| *field(r, "repair.repair_cheaper") = Json::Bool(false),
        "repair_cheaper",
    );
    assert_rejects(
        ("QUALITY_engine.json", check_quality),
        |r| is(r, "suite", "conformance"),
        |r| *field(r, "ratio_min") = Json::Float(r.num("ratio_bound").unwrap() - 1e-6),
        "ratio_min ≥ ratio_bound",
    );
    assert_rejects(
        ("SERVICE_engine.json", check_service),
        |r| is(r, "bench", "load_gen"),
        |r| *field(r, "responses.error") = Json::Int(1),
        "no error responses",
    );
    assert_rejects(
        ("SERVICE_engine.json", check_service),
        |r| is(r, "bench", "load_gen") && int(r, "max_batch_seen") > 1,
        |r| {
            if let Json::Object(pairs) = r {
                pairs.push(("clients".into(), Json::Int(1)));
            }
        },
        "max_batch_seen ≤ clients",
    );
    assert_rejects(
        ("BENCH_engine.json", check_bench),
        |r| r.get("host_threads").is_some() && r.get("threads") == Some(&Json::Int(1)),
        |r| *field(r, "median_ns.run_parallel") = Json::Int(int(r, "median_ns.run") * 13 / 10),
        "run_parallel ≤ 1.25 × run",
    );
    assert_rejects(
        ("DEGRADATION_engine.json", check_degradation),
        |r| is(r, "suite", "degradation"),
        |r| *field(r, "counters.delayed") = Json::Float(int(r, "counters.delayed") as f64),
        "delayed must be an integer",
    );
}

#[test]
fn every_ledger_rejects_a_truncated_file() {
    for (file, check) in LEDGERS {
        let text = read(file);
        let violations = check_text(file, &text[..text.len() / 2], check);
        assert_eq!(violations.len(), 1, "{file}: {violations:?}");
        assert!(violations[0].contains("not valid JSON"));
    }
}

/// A random `json_object` rendering and the value it must parse to.
fn random_object(rng: &mut SmallRng, depth: usize) -> (String, Json) {
    const KEYS: [&str; 5] = ["a", "b_2", "n", "median_ns", "k=16"];
    const CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '😀'];
    let (mut rendered, mut pairs) = (Vec::new(), Vec::new());
    for key in &KEYS[..rng.random_range(0..=KEYS.len())] {
        let (text, value) = match rng.random_range(0..6u32) {
            0 => ("null".to_string(), Json::Null),
            1 => (true.to_string(), Json::Bool(true)),
            2 => {
                let x = i128::from(rng.random_range(0..=u64::MAX))
                    * if rng.random_bool(0.5) { -1 } else { 1 };
                (x.to_string(), Json::Int(x))
            }
            3 => {
                let f = rng.random_range(-1e9..1e9)
                    * 10f64.powi(rng.random_range(0..40u32) as i32 - 20);
                (format!("{f:?}"), Json::Float(f))
            }
            4 => {
                let s: String = (0..rng.random_range(0..8usize))
                    .map(|_| CHARS[rng.random_range(0..10usize)])
                    .collect();
                (json_str(&s), Json::Str(s))
            }
            _ if depth > 0 => random_object(rng, depth - 1),
            _ => ("{}".to_string(), Json::Object(Vec::new())),
        };
        rendered.push((*key, text));
        pairs.push((key.to_string(), value));
    }
    (json_object(&rendered), Json::Object(pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendered records parse back to their keys, order and values, and
    /// every strict prefix of the ledger holding them is an error.
    #[test]
    fn rendered_ledgers_round_trip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (first, a) = random_object(&mut rng, 2);
        let (second, b) = random_object(&mut rng, 2);
        let ledger = append_records(&append_records("", &[first]), &[second]);
        prop_assert_eq!(parse(&ledger), Ok(Json::Array(vec![a, b])));
        let end = ledger.trim_end().len();
        for cut in (0..end).filter(|&cut| ledger.is_char_boundary(cut)) {
            prop_assert!(parse(&ledger[..cut]).is_err(), "{}-byte prefix parsed", cut);
        }
    }
}
