//! Runs `rtbench --smoke` on every workload, untraced and traced, and
//! checks the result line against `BENCHMARK.json`: exactly the promised
//! metric names, each once, each with its unit, and the correctness gate
//! green. Also pins `BENCHMARK.json` to the table in `src/spec.rs`, and the
//! settings this package copies from the root manifest to the root's.

use rtft_rtbench::json::{parse, Json};
use rtft_rtbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// name → unit for one of BENCHMARK.json's metric lists.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_repeats_the_spec_table() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(rtft_rtbench::RUN_SECONDS)
    );

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("list");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, (spec, bound)) in e2e.iter().zip(END_TO_END) {
        let s = |k: &str| entry.get(k).and_then(Json::as_str).expect(k);
        assert_eq!(s("name"), spec.name);
        assert_eq!(s("unit"), spec.unit);
        assert_eq!(s("better"), spec.better.label());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
    }
    let per = doc.get("per_layer").and_then(Json::as_arr).expect("list");
    assert_eq!(per.len(), PER_LAYER.len());
    for (entry, spec) in per.iter().zip(PER_LAYER) {
        let s = |k: &str| entry.get(k).and_then(Json::as_str).expect(k);
        assert_eq!(s("name"), spec.name);
        assert_eq!(s("unit"), spec.unit);
        assert_eq!(s("better"), spec.better.label());
    }
}

/// The settings under `[header]` in a manifest, comments and blank lines
/// dropped.
fn manifest_table(path: &str, header: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect(path);
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// This package is a workspace of its own, so it repeats the root's release
/// profile and lint table; the crates must be measured as the root builds
/// them, and a copy can drift.
#[test]
fn copied_manifest_tables_match_the_root() {
    let own = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    for header in ["[profile.release]", "[workspace.lints.clippy]"] {
        let table = manifest_table(root, header);
        assert!(!table.is_empty(), "root manifest has no {header}");
        assert_eq!(manifest_table(own, header), table, "{header}");
    }
}

/// Every workload × {untraced, traced}. One test, run in sequence: the
/// runs share the machine's cores and the benchmark's `out/` directory.
#[test]
fn smoke_prints_every_declared_metric_once() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_rtbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--smoke",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("rtbench runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let want = declared(&doc, list);
            // The human-readable rows: each name printed exactly once.
            for name in want.keys() {
                let rows = stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name))
                    .count();
                assert_eq!(
                    rows, 1,
                    "{workload} trace={trace}: {name} printed {rows} times"
                );
            }
            // The result line: exactly the declared names, with units.
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("result line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}");
        }
        let spans = format!("{}/out/trace-{workload}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() > 10, "{spans} is nearly empty");
        parse(text.lines().next().expect("a span")).expect("span lines are JSON");
    }
}
