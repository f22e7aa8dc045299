//! The benchmark's own tables against the limits of the benchmark
//! contract, and against `BENCHMARK.json` at the repo root.

use std::collections::BTreeSet;

use ert_benchmark::metrics::{END_TO_END, PER_LAYER};
use ert_benchmark::workload::WORKLOADS;
use ert_obs::Json;

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_units_and_counts_stay_inside_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
        assert!(m.bound >= 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

/// The quick shapes the tests run stay small.
#[test]
fn quick_shapes_are_small() {
    for w in WORKLOADS.map(|w| w.quick()) {
        assert!(
            w.n <= 192 && w.lookups <= 400 && w.worlds <= 2,
            "{}",
            w.name
        );
        assert!(w.traced_worlds <= w.worlds);
    }
    for w in &WORKLOADS {
        assert!(w.traced_worlds <= w.worlds && w.traced_worlds >= 1);
    }
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|s| s.as_str().expect("a string").to_owned())
            .collect()
    };
    assert_eq!(strings("paths"), ["ert-benchmark"]);
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let text_of =
        |row: &Json, key: &str| row.get(key).and_then(Json::as_str).expect(key).to_owned();
    let fields = |row: &Json| -> Vec<String> {
        row.as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };

    let workloads = rows("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (row, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(fields(row), ["name", "why"]);
        assert_eq!(
            (text_of(row, "name"), text_of(row, "why")),
            (w.name.to_owned(), w.why.to_owned())
        );
    }
    let end_to_end = rows("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (row, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(fields(row), ["name", "unit", "better", "bound"]);
        assert_eq!(text_of(row, "name"), m.name);
        assert_eq!(text_of(row, "unit"), m.unit);
        assert_eq!(text_of(row, "better"), m.better.as_str());
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let per_layer = rows("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (row, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(fields(row), ["name", "unit", "better"]);
        assert_eq!(text_of(row, "name"), m.name);
        assert_eq!(text_of(row, "unit"), m.unit);
        assert_eq!(text_of(row, "better"), m.better.as_str());
    }
}
