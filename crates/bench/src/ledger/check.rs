//! The rules each ledger must satisfy, one `check_*` per ledger.
//!
//! A check returns every violation, as `FILE[record]: rule` or, for a
//! rule about the whole file, `FILE: rule`. The `ledger-check` binary
//! and the tier-1 test `crates/bench/tests/ledgers.rs` both run
//! [`check_dir`], on fresh and on checked-in ledgers alike; the
//! `tests/tests/*_schema.rs` tests each keep the violations whose rule
//! text names their topic. Rules cover the grid a ledger promises, each
//! record kind's fields and guarantees, and keys that must obey a rule
//! wherever they occur in a record.
//! Rows written before a field existed skip the rules on that field, and
//! only those: rows without `host_threads` (the legacy single object
//! among them) skip the executor gates, and `load_gen` rows without
//! `clients` skip the batch bound.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::Path;

use super::{parse, Json};

/// A ledger's rules: every violation in the parsed ledger `file`.
pub type Check = fn(&str, &Json) -> Vec<String>;

/// The five ledgers, by file name, with their checks.
pub const LEDGERS: [(&str, Check); 5] = [
    ("BENCH_engine.json", check_bench),
    ("QUALITY_engine.json", check_quality),
    ("DEGRADATION_engine.json", check_degradation),
    ("CHURN_engine.json", check_churn),
    ("SERVICE_engine.json", check_service),
];

/// Parses `text` as ledger `file` and runs `check` on it. Text that is
/// not JSON (a truncated append, say) is one violation.
pub fn check_text(file: &str, text: &str, check: Check) -> Vec<String> {
    match parse(text) {
        Ok(json) => check(file, &json),
        Err(e) => vec![format!("{file}: is not valid JSON: {e}")],
    }
}

/// Runs every check in [`LEDGERS`] on the files under `dir`; a missing
/// or unreadable ledger is a violation.
pub fn check_dir(dir: &Path) -> Vec<String> {
    let run = |(file, check): (&str, Check)| match std::fs::read_to_string(dir.join(file)) {
        Ok(text) => check_text(file, &text, check),
        Err(e) => vec![format!("{file}: cannot be read: {e}")],
    };
    LEDGERS.into_iter().flat_map(run).collect()
}

/// The topology families of the conformance and service grids.
const FAMILIES: &str = "gnp watts_strogatz power_law_cluster complete path star";

/// The protocols the degradation and churn grids sweep.
const SWEPT_PROTOCOLS: &str = "luby_mis ghaffari_mis grouped_mwm maxis_alg2";

/// The intensities of the degradation and churn grids.
const LEVELS: &str = "low medium high";

/// What a value must be, and the test for it.
type Want = (&'static str, fn(&Json) -> bool);

const POSITIVE: Want = ("a positive integer", |v| matches!(v, Json::Int(1..)));
const NOT_FALSE: Want = ("not false", |v| v != &Json::Bool(false));
/// Round counts and fault and churn counters.
const COUNTER: Want = ("an integer in 0..10⁷", |v| {
    matches!(v, Json::Int(0..=9_999_999))
});

/// `BENCH_engine.json` (`bench_baseline`): the engine size matrix,
/// positive integer medians, the plane footprint, and the executor
/// speed gates.
pub fn check_bench(file: &str, ledger: &Json) -> Vec<String> {
    let mut rep = Report::new(file);
    let records = rep.records(ledger);
    rep.file_rule("at least 8 records", records.len() >= 8);
    let engine = |r: &Json| r.text("bench").is_some_and(|b| b.starts_with("engine"));
    let sized = select(records, |r| engine(r) && r.get("threads").is_some());
    let sizes = values(&sized, "graph.n");
    rep.covers("engine sizes", &sizes, "1000 10000 100000 1000000");
    let (mut host_rows, mut t1_rows) = (0, 0);
    for (i, r) in records.iter().enumerate() {
        let medians = match r.get("median_ns") {
            Some(Json::Object(m)) if !m.is_empty() => Some(m.iter().all(|(_, v)| POSITIVE.1(v))),
            _ => None,
        };
        rep.rule(i, "median_ns holds positive integers", medians);
        rep.anywhere(i, r, "build run run_parallel", POSITIVE);
        if engine(r) {
            rep.present(i, r, "median_ns.build median_ns.run median_ns.run_parallel");
        }
        // Rows before `host_threads` cannot tell a slow executor from an
        // oversubscribed host; the gates start with that field.
        if r.get("host_threads").is_none() {
            continue;
        }
        rep.at_least(i, r, "host_threads", 1);
        if engine(r) {
            host_rows += 1;
            rep.at_least(i, r, "plane_bytes", 1);
        }
        // Churn rows carry per-side thread objects and no run medians.
        let (Some(threads), Some(host)) = (r.int("threads"), r.int("host_threads")) else {
            continue;
        };
        let (Some(run), Some(par)) = (r.int("median_ns.run"), r.int("median_ns.run_parallel"))
        else {
            continue;
        };
        if threads == 1 {
            t1_rows += 1;
            let guard = par.saturating_mul(100) <= run.saturating_mul(125);
            rep.rule(i, "threads = 1: run_parallel ≤ 1.25 × run", guard);
        }
        if threads > 1 && threads <= host && r.int("graph.n") >= Some(1_000_000) {
            let rule = "n ≥ 1M, 1 < threads ≤ host_threads: run_parallel ≤ run";
            rep.rule(i, rule, par <= run);
        }
    }
    rep.file_rule("an engine row with host_threads", host_rows > 0);
    rep.file_rule("3 single-worker rows with host_threads", t1_rows >= 3);
    rep.found
}

/// `QUALITY_engine.json` (`harness`): the conformance matrix with every
/// record valid and within the paper's bound, plus the fault suite.
pub fn check_quality(file: &str, ledger: &Json) -> Vec<String> {
    let mut rep = Report::new(file);
    let records = rep.records(ledger);
    let conformance = select(records, |r| is(r, "suite", "conformance"));
    let fault = select(records, |r| is(r, "suite", "fault"));
    rep.file_rule("has conformance records", !conformance.is_empty());
    rep.file_rule("has fault records", !fault.is_empty());
    rep.covers("families", &values(&conformance, "graph.family"), FAMILIES);
    let weights = values(&conformance, "weights");
    rep.covers("weights", &weights, "unit uniform zipf adversarial");
    let protocols = "luby_mis ghaffari_mis maxis_alg2 maxis_alg3 grouped_mwm fast_mwm_2eps \
                     fast_mcm_2eps coloring_delta_plus_one";
    rep.covers("protocols", &values(&conformance, "protocol"), protocols);
    // Early fault rows logged only the knobs they set.
    for knob in ["dup_prob", "reorder_prob", "corrupt_prob", "restart_after"] {
        let logged = records
            .iter()
            .any(|r| r.get(&format!("adversary.{knob}")).is_some());
        rep.file_rule(&format!("some record logs adversary.{knob}"), logged);
    }
    let budget: Want = ("an integer in 0..10⁶", |v| {
        matches!(v, Json::Int(0..=999_999))
    });
    let ratio: Want = ("a number ≥ 0", |v| v.num("").is_some_and(|x| x >= 0.0));
    for (i, r) in records.iter().enumerate() {
        rep.anywhere(i, r, "valid within_bound", NOT_FALSE);
        rep.anywhere(i, r, "rounds_max round_budget", budget);
        rep.anywhere(i, r, "ratio_min", ratio);
    }
    for &(i, r) in &conformance {
        rep.present(i, r, "oracle");
        rep.all_true(i, r, "valid within_bound");
        rep.at_most(i, r, "rounds_max", "round_budget");
        rep.ratio_holds(i, r, "");
    }
    for &(i, r) in &fault {
        rep.present(i, r, "decided_fraction safety_ok");
        let faulty = r
            .num("adversary.drop_prob")
            .zip(r.num("adversary.crash_prob"))
            .map(|(drop, crash)| drop > 0.0 || crash > 0.0);
        rep.rule(i, "adversary drop_prob > 0 or crash_prob > 0", faulty);
    }
    rep.found
}

/// `DEGRADATION_engine.json` (`harness`): the protocol × fault axis ×
/// intensity grid, its counters, and the per-axis adversary shape.
pub fn check_degradation(file: &str, ledger: &Json) -> Vec<String> {
    let mut rep = Report::new(file);
    let records = rep.records(ledger);
    let recs = select(records, |r| is(r, "suite", "degradation"));
    let full_grid = "≥ 144 records (4 protocols × 6 axes × 3 levels × 2 graphs)";
    rep.file_rule(full_grid, recs.len() >= 144);
    let axes = "drop delay duplicate corrupt reorder restart";
    rep.covers("axes", &values(&recs, "axis"), axes);
    rep.covers("protocols", &values(&recs, "protocol"), SWEPT_PROTOCOLS);
    rep.covers("intensities", &values(&recs, "intensity"), LEVELS);
    for (i, r) in records.iter().enumerate() {
        let counters =
            "rounds round_cap delayed duplicated corrupted adversary_dropped crashed restarted";
        rep.anywhere(i, r, counters, COUNTER);
    }
    for &(i, r) in &recs {
        let fields = "dose adversary scheduler completed decided_fraction safety_ok ratio \
                      ratio_bound bound_ok counters.delayed counters.duplicated \
                      counters.corrupted counters.adversary_dropped counters.crashed \
                      counters.restarted";
        rep.present(i, r, fields);
        let fraction = r.num("decided_fraction").map(|f| (0.0..=1.0).contains(&f));
        rep.rule(i, "0 ≤ decided_fraction ≤ 1", fraction);
        rep.at_most(i, r, "rounds", "round_cap");
        if is(r, "axis", "delay") {
            rep.null(i, r, "adversary");
            rep.present(i, r, "scheduler.max_delay");
            rep.at_least(i, r, "counters.delayed", 1);
        } else {
            rep.null(i, r, "scheduler");
            let adversary = matches!(r.get("adversary"), Some(Json::Object(_)));
            rep.rule(i, "adversary is an object", adversary);
        }
        if is(r, "axis", "restart") {
            let lag = r.int("adversary.restart_after").map(|k| k == 3);
            rep.rule(i, "restart axis: adversary.restart_after = 3", lag);
            rep.at_most(i, r, "counters.restarted", "counters.crashed");
        }
        if is(r, "protocol", "grouped_mwm") {
            rep.all_true(i, r, "safety_ok");
        }
    }
    rep.found
}

/// `CHURN_engine.json` (`harness`): the protocol × churn axis × intensity
/// grid and the gnp-10k acceptance rows certifying strictly cheaper
/// repair.
pub fn check_churn(file: &str, ledger: &Json) -> Vec<String> {
    let mut rep = Report::new(file);
    let records = rep.records(ledger);
    let recs = select(records, |r| is(r, "suite", "churn"));
    let grid = select(records, |r| is(r, "kind", "grid"));
    let acceptance = select(records, |r| is(r, "kind", "acceptance"));
    let full_grid = "≥ 72 grid records (4 protocols × 3 axes × 3 levels × 2 graphs)";
    rep.file_rule(full_grid, grid.len() >= 72);
    rep.file_rule("≥ 6 acceptance records", acceptance.len() >= 6);
    rep.covers("grid axes", &values(&grid, "axis"), "flip join leave");
    rep.covers("acceptance axes", &values(&acceptance, "axis"), "repair");
    rep.covers(
        "grid protocols",
        &values(&grid, "protocol"),
        SWEPT_PROTOCOLS,
    );
    rep.covers("grid intensities", &values(&grid, "intensity"), LEVELS);
    let ks = values(&acceptance, "intensity");
    rep.covers("acceptance intensities", &ks, "k=16 k=64 k=256");
    for (i, r) in records.iter().enumerate() {
        let counters = "rounds round_cap edges_flipped nodes_joined nodes_left adversary_dropped \
                        deltas repaired repair_rounds recompute_rounds";
        rep.anywhere(i, r, counters, COUNTER);
        rep.anywhere(i, r, "fingerprint_ok", NOT_FALSE);
    }
    for &(i, r) in &recs {
        let fields = "dose adversary completed safety_ok counters.edges_flipped \
                      counters.nodes_joined counters.nodes_left counters.adversary_dropped \
                      repair.deltas repair.repaired repair.repair_rounds \
                      repair.recompute_rounds repair.repair_cheaper";
        rep.present(i, r, fields);
        rep.at_most(i, r, "rounds", "round_cap");
        rep.all_true(i, r, "repair.fingerprint_ok");
    }
    for &(i, r) in &grid {
        let knobs = ["edge_flip_prob", "node_join_prob", "node_leave_prob"];
        let probs = knobs.map(|k| r.num(&format!("adversary.{k}")));
        let all: Option<Vec<f64>> = probs.iter().copied().collect();
        let churns = all.map(|probs| probs.iter().any(|&p| p > 0.0));
        let [flip, _, leave] = probs;
        rep.rule(i, "grid adversary churns (some knob > 0)", churns);
        let flips = flip.map(|p| p > 0.0 || r.int("counters.edges_flipped") == Some(0));
        rep.rule(i, "no phantom flips (edge_flip_prob = 0 ⇒ no flips)", flips);
        let leaves = leave.map(|p| p > 0.0 || r.int("counters.nodes_left") == Some(0));
        rep.rule(i, "no phantom leaves (node_leave_prob = 0 ⇒ none)", leaves);
    }
    for &(i, r) in &acceptance {
        rep.null(i, r, "adversary");
        rep.all_true(i, r, "completed safety_ok repair.repair_cheaper");
        let strict = r
            .int("repair.repair_rounds")
            .zip(r.int("repair.recompute_rounds"))
            .map(|(repair, recompute)| repair < recompute);
        rep.rule(i, "acceptance: repair_rounds < recompute_rounds", strict);
    }
    rep.found
}

/// `SERVICE_engine.json` (`load_gen` and `harness`): the throughput
/// cells with no error responses, and the oracle grid with every served
/// answer checked.
pub fn check_service(file: &str, ledger: &Json) -> Vec<String> {
    let mut rep = Report::new(file);
    let records = rep.records(ledger);
    let load_gen = select(records, |r| is(r, "bench", "load_gen"));
    let oracle = select(records, |r| is(r, "kind", "oracle"));
    rep.file_rule("has load_gen records", !load_gen.is_empty());
    rep.file_rule("≥ 36 oracle records", oracle.len() >= 36);
    rep.covers("load_gen shards", &values(&load_gen, "shards"), "1 4");
    rep.covers(
        "oracle families",
        &values(&oracle, "graph.family"),
        FAMILIES,
    );
    let weights = values(&oracle, "weights");
    rep.covers("oracle weights", &weights, "unit uniform adversarial");
    rep.covers("oracle shards", &values(&oracle, "shards"), "1 3");
    for (i, r) in records.iter().enumerate() {
        rep.rule(i, "suite = service", is(r, "suite", "service"));
        let verdicts = "ok mis_ok queries_consistent roundtrip_ok";
        rep.anywhere(i, r, verdicts, NOT_FALSE);
    }
    for &(i, r) in &load_gen {
        let fields = "shards responses.matching responses.mis responses.independent \
                      responses.mate responses.applied responses.overloaded cache.hits \
                      cache.misses final_fingerprint";
        rep.present(i, r, fields);
        let no_errors = r.int("responses.error").map(|e| e == 0);
        rep.rule(i, "no error responses", no_errors);
        let sum: Option<i128> = match r.get("responses") {
            Some(Json::Object(counts)) => counts
                .iter()
                .try_fold(0i128, |sum, (_, v)| sum.checked_add(v.int("")?)),
            _ => None,
        };
        let balanced = sum.zip(r.int("requests")).map(|(sum, n)| sum == n);
        rep.rule(i, "response counts sum to requests", balanced);
        let served = r.num("throughput_rps").map(|t| t > 0.0);
        rep.rule(i, "throughput_rps > 0", served);
        rep.at_least(i, r, "latency_ns.p50", 1);
        rep.at_most(i, r, "latency_ns.p50", "latency_ns.p95");
        rep.at_most(i, r, "latency_ns.p95", "latency_ns.p99");
        rep.at_least(i, r, "batches_served", 1);
        rep.at_least(i, r, "max_batch_seen", 1);
        // Clients block on each request, so no batch outgrows them.
        if r.get("clients").is_some() {
            rep.at_most(i, r, "max_batch_seen", "clients");
        }
    }
    for &(i, r) in &oracle {
        rep.present(i, r, "weights seeds matching.oracle repair.rounds");
        let verdicts = "matching.ok mis_ok queries_consistent repair.ok cache.roundtrip_ok";
        rep.all_true(i, r, verdicts);
        rep.ratio_holds(i, r, "matching.");
        rep.at_least(i, r, "repair.deltas", 2);
        rep.at_least(i, r, "cache.hits", 1);
    }
    rep.found
}

/// The violations found so far in one ledger file. Key lists are
/// space-separated paths (`"repair.deltas repair.ok"`).
struct Report<'a> {
    file: &'a str,
    found: Vec<String>,
}

impl<'a> Report<'a> {
    fn new(file: &'a str) -> Self {
        Report {
            file,
            found: Vec::new(),
        }
    }

    fn fail(&mut self, record: Option<usize>, message: impl Display) {
        let at = record.map_or(String::new(), |i| format!("[{i}]"));
        self.found.push(format!("{}{at}: {message}", self.file));
    }

    /// The ledger's records; a ledger that is not an array has none.
    fn records<'j>(&mut self, ledger: &'j Json) -> &'j [Json] {
        match ledger {
            Json::Array(records) => records,
            _ => {
                self.fail(None, "is not a JSON array of records");
                &[]
            }
        }
    }

    fn file_rule(&mut self, rule: &str, holds: bool) {
        if !holds {
            self.fail(None, format_args!("fails: {rule}"));
        }
    }

    /// A rule about record `i`; `None` means a field it needs is missing
    /// or mistyped, which is a violation too ("cannot check").
    fn rule(&mut self, i: usize, rule: &str, holds: impl Into<Option<bool>>) {
        match holds.into() {
            Some(true) => {}
            Some(false) => self.fail(Some(i), format_args!("fails: {rule}")),
            None => self.fail(Some(i), format_args!("cannot check: {rule}")),
        }
    }

    fn present(&mut self, i: usize, r: &Json, paths: &str) {
        for path in paths.split_whitespace() {
            if r.get(path).is_none() {
                self.fail(Some(i), format_args!("missing field {path}"));
            }
        }
    }

    fn null(&mut self, i: usize, r: &Json, path: &str) {
        let null = r.get(path) == Some(&Json::Null);
        self.rule(i, &format!("{path} is null"), null);
    }

    fn all_true(&mut self, i: usize, r: &Json, paths: &str) {
        for path in paths.split_whitespace() {
            self.rule(i, &format!("{path} is true"), r.flag(path));
        }
    }

    fn at_least(&mut self, i: usize, r: &Json, path: &str, min: i128) {
        let holds = r.int(path).map(|v| v >= min);
        self.rule(i, &format!("{path} ≥ {min}"), holds);
    }

    /// Integers `lo ≤ hi`.
    fn at_most(&mut self, i: usize, r: &Json, lo: &str, hi: &str) {
        let holds = r.int(lo).zip(r.int(hi)).map(|(a, b)| a <= b);
        self.rule(i, &format!("{lo} ≤ {hi}"), holds);
    }

    /// `ratio_min ≥ ratio_bound − 1e-9` under the key prefix `at`.
    fn ratio_holds(&mut self, i: usize, r: &Json, at: &str) {
        let [ratio, bound] = ["ratio_min", "ratio_bound"].map(|k| r.num(&format!("{at}{k}")));
        let holds = ratio.zip(bound).map(|(ratio, bound)| ratio >= bound - 1e-9);
        self.rule(i, &format!("{at}ratio_min ≥ {at}ratio_bound − 1e-9"), holds);
    }

    /// Every occurrence of each of `keys` in record `i`, at any depth,
    /// is what `want` asks for.
    fn anywhere(&mut self, i: usize, r: &Json, keys: &str, (what, ok): Want) {
        for key in keys.split_whitespace() {
            let mut hits = Vec::new();
            occurrences(r, key, &mut hits);
            for v in hits.into_iter().filter(|v| !ok(v)) {
                let found = format!("{key} must be {what}, found {v:?}");
                self.fail(Some(i), found);
            }
        }
    }

    /// The values collected from the records include each of `want`.
    fn covers(&mut self, what: &str, have: &BTreeSet<String>, want: &str) {
        let missing: Vec<&str> = want
            .split_whitespace()
            .filter(|w| !have.contains(*w))
            .collect();
        if !missing.is_empty() {
            self.fail(None, format_args!("{what} miss {missing:?}"));
        }
    }
}

/// Collects every value stored under `key` in `v`, at any depth.
fn occurrences<'j>(v: &'j Json, key: &str, out: &mut Vec<&'j Json>) {
    match v {
        Json::Object(pairs) => {
            for (k, x) in pairs {
                if k == key {
                    out.push(x);
                }
                occurrences(x, key, out);
            }
        }
        Json::Array(items) => items.iter().for_each(|x| occurrences(x, key, out)),
        _ => {}
    }
}

/// The records `keep` selects, with their indices.
fn select(records: &[Json], keep: impl Fn(&Json) -> bool) -> Vec<(usize, &Json)> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| keep(r))
        .collect()
}

/// The string or integer at `path` in each of `recs`, as text.
fn values(recs: &[(usize, &Json)], path: &str) -> BTreeSet<String> {
    let scalar = |v: &Json| match v {
        Json::Str(s) => Some(s.clone()),
        Json::Int(n) => Some(n.to_string()),
        _ => None,
    };
    recs.iter()
        .filter_map(|(_, r)| r.get(path).and_then(scalar))
        .collect()
}

fn is(r: &Json, path: &str, value: &str) -> bool {
    r.text(path) == Some(value)
}
