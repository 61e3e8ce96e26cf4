//! `rtbench compare <a.jsonl> <b.jsonl> [--out <file>]`
//!
//! Each input is a set of runs, one JSON line per run, as `--out` appends
//! them. For every (end-to-end metric, workload) pair the medians of the
//! two sets are compared under [`COMPARE_BOUND`]; a pair whose own
//! run-to-run spread (interquartile distance ÷ median, in either set) is
//! wider than the bound is `unresolved`, not `ok` — unless every run of
//! `b` reads better than every run of `a`. A workload whose share of
//! failed operations rose is a regression too. Per-layer metrics have no
//! bound and are listed for reading; the exact counts among them must be
//! equal seed by seed, and a difference fails the comparison.
//!
//! Sets that cannot be compared are refused (exit code 2): a smoke run,
//! windows of different lengths, or an end-to-end pair that one set lacks
//! or that reads 0.

use crate::json::{self, Json};
use crate::spec::{
    Better, MetricSpec, COMPARE_BOUND, END_TO_END, FAILED_SHARE_BOUND, PER_LAYER, WORKLOADS,
};
use crate::stats::{median_of, spread_share};
use std::collections::BTreeMap;

/// Per-layer metrics that are counts made by the program: they repeat
/// exactly from run to run of one seed, so any difference is a change.
const EXACT: [&str; 4] = [
    "kpn.events_per_flush",
    "kpn.events_per_campaign_run",
    "chaos.violations",
    "chaos.report_fnv",
];

/// One file of run lines.
#[derive(Debug, Default)]
struct RunSet {
    /// (workload, metric) → the values of every run in the set.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, exact metric) → seed → the values of that seed's runs.
    exact: BTreeMap<(String, String), BTreeMap<u64, Vec<f64>>>,
    /// workload → operations attempted and failed over every run, and the
    /// runs that ended without a result (a crash line of `--workload all`).
    ops: BTreeMap<String, Ops>,
    /// The measured window every run of the set used.
    seconds: Option<f64>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: f64,
    failed: f64,
    no_result: u64,
}

impl Ops {
    fn failed_share(self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(path, &text)
}

fn parse_set(path: &str, text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let run = json::parse(line).map_err(|at| bad(&format!("not JSON at byte {at}")))?;
        let num = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        if run.get("smoke") != Some(&Json::Bool(false)) {
            return Err(bad(
                "a --smoke run (or a line without `smoke`) measures nothing",
            ));
        }
        let seconds = num("seconds")?;
        if *set.seconds.get_or_insert(seconds) != seconds {
            return Err(bad("runs with windows of different lengths in one set"));
        }
        let seed = num("seed")? as u64;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        let ops = set.ops.entry(workload.to_string()).or_default();
        ops.attempted += num("attempted")?;
        ops.failed += num("failed")?;
        ops.no_result += metrics.is_empty() as u64;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            let key = (workload.to_string(), name.clone());
            if EXACT.contains(&name.as_str()) {
                set.exact
                    .entry(key.clone())
                    .or_default()
                    .entry(seed)
                    .or_default()
                    .push(value);
            }
            set.values.entry(key).or_default().push(value);
        }
    }
    Ok(set)
}

/// Why the two sets cannot be compared, if they cannot.
fn refusal(a: &RunSet, b: &RunSet) -> Option<String> {
    if a.seconds != b.seconds {
        return Some(format!(
            "windows differ: {:?} s in a, {:?} s in b",
            a.seconds, b.seconds
        ));
    }
    for (label, set) in [("a", a), ("b", b)] {
        for workload in WORKLOADS {
            for (spec, _) in END_TO_END {
                let key = (workload.to_string(), spec.name.to_string());
                let Some(values) = set.values.get(&key) else {
                    return Some(format!("{label} has no {} on {workload}", spec.name));
                };
                // An end-to-end metric is never 0; a share of 0 is undefined.
                if median_of(values) == Some(0.0) {
                    return Some(format!("{label}: {} on {workload} reads 0", spec.name));
                }
            }
        }
    }
    None
}

/// The seeds both sets ran, and those of them on which an exact count is
/// not one and the same number in every run of both sets.
fn exact_seeds(a: &RunSet, b: &RunSet, key: &(String, String)) -> (usize, Vec<u64>) {
    let (Some(sa), Some(sb)) = (a.exact.get(key), b.exact.get(key)) else {
        return (0, Vec::new());
    };
    let common: Vec<u64> = sa.keys().filter(|s| sb.contains_key(s)).copied().collect();
    let differing = common
        .iter()
        .filter(|s| sa[s].iter().chain(&sb[s]).any(|v| *v != sa[s][0]))
        .copied()
        .collect();
    (common.len(), differing)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// Judges one bounded pair. `worse_by` is the share of `a`'s median by
/// which `b`'s median is worse (negative = better).
fn judge(spec: &MetricSpec, bound: f64, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (
        median_of(a).expect("non-empty"),
        median_of(b).expect("non-empty"),
    );
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = spread_share(a)
        .unwrap_or(0.0)
        .max(spread_share(b).unwrap_or(0.0));
    let all_better = match spec.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (ma, mb, worse_by, verdict)
}

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            out = it.next().cloned();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("usage: rtbench compare <a.jsonl> <b.jsonl> [--out <file>]");
        return 2;
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rtbench compare: {e}");
            return 2;
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("rtbench compare: refused, {why}");
        return 2;
    }

    let mut rows = Vec::new();
    let (mut regressions, mut unresolved, mut differing) = (0u64, 0u64, 0u64);
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for workload in WORKLOADS {
        for (spec, _) in END_TO_END {
            let key = (workload.to_string(), spec.name.to_string());
            let (va, vb) = (&a.values[&key], &b.values[&key]);
            let (ma, mb, worse_by, verdict) = judge(&spec, COMPARE_BOUND, va, vb);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            };
            regressions += (verdict == Verdict::Regression) as u64;
            unresolved += (verdict == Verdict::Unresolved) as u64;
            println!(
                "{workload:<14} {:<34} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}%  {label} (n={}/{})",
                spec.name,
                worse_by * 100.0,
                COMPARE_BOUND * 100.0,
                va.len(),
                vb.len()
            );
            rows.push(format!(
                "{{\"workload\": \"{workload}\", \"metric\": \"{}\", \"a\": {}, \"b\": {}, \
                 \"worse_by\": {}, \"bound\": {COMPARE_BOUND}, \"verdict\": \"{label}\"}}",
                spec.name,
                json::number(ma),
                json::number(mb),
                json::number(worse_by)
            ));
        }
        // Operations failed ÷ attempted, over every run of the workload; a
        // run that ended without a result is worse than any share.
        let (oa, ob) = (a.ops[workload], b.ops[workload]);
        let (fa, fb) = (oa.failed_share(), ob.failed_share());
        let label = if ob.no_result > oa.no_result {
            regressions += 1;
            "REGRESSION (a run ended without a result)"
        } else if fb > fa + FAILED_SHARE_BOUND {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{workload:<14} {:<34} {fa:>14.6} {fb:>14.6} {:>+9.4} {:>+7.3}  {label}",
            "failed_share",
            fb - fa,
            FAILED_SHARE_BOUND
        );
        rows.push(format!(
            "{{\"workload\": \"{workload}\", \"metric\": \"failed_share\", \"a\": {}, \"b\": {}, \
             \"bound\": {FAILED_SHARE_BOUND}, \"verdict\": \"{label}\"}}",
            json::number(fa),
            json::number(fb)
        ));
        for spec in PER_LAYER {
            let key = (workload.to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (
                median_of(va).expect("non-empty"),
                median_of(vb).expect("non-empty"),
            );
            let label = if !EXACT.contains(&spec.name) {
                "-".to_string()
            } else {
                match exact_seeds(&a, &b, &key) {
                    (0, _) => "no seed in both sets".to_string(),
                    (n, bad) if bad.is_empty() => format!("same on {n} seed(s)"),
                    (_, bad) => {
                        differing += 1;
                        rows.push(format!(
                            "{{\"workload\": \"{workload}\", \"metric\": \"{}\", \
                             \"verdict\": \"DIFFERS\", \"seeds\": {bad:?}}}",
                            spec.name
                        ));
                        format!("DIFFERS on seed(s) {bad:?}")
                    }
                }
            };
            println!(
                "{workload:<14} {:<34} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>7}  {label}",
                spec.name,
                if ma != 0.0 {
                    (mb - ma) / ma.abs() * 100.0
                } else {
                    0.0
                },
                "-"
            );
        }
    }
    println!(
        "{regressions} regression(s), {unresolved} unresolved, {differing} exact count(s) differing"
    );
    if let Some(path) = out {
        let doc = format!(
            "{{\"a\": \"{}\", \"b\": \"{}\", \"regressions\": {regressions}, \
             \"unresolved\": {unresolved}, \"differing\": {differing}, \"rows\": [{}]}}\n",
            rtft_obs::json::escape(a_path),
            rtft_obs::json::escape(b_path),
            rows.join(", ")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("rtbench compare: cannot write {path}: {e}");
            return 2;
        }
    }
    (regressions + differing > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "ms",
            better,
        }
    }

    #[test]
    fn bounds_and_spread_decide_the_verdict() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower = [112.0, 112.5, 111.5, 112.2, 111.8];
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let much_faster = [50.0, 51.0, 49.0, 50.5, 49.5];
        let lower = spec(Better::Lower);
        assert_eq!(judge(&lower, 0.10, &steady, &steady).3, Verdict::Ok);
        assert_eq!(judge(&lower, 0.10, &steady, &slower).3, Verdict::Regression);
        assert_eq!(judge(&lower, 0.10, &steady, &noisy).3, Verdict::Unresolved);
        // Wide spread, but every run of b beats every run of a.
        assert_eq!(judge(&lower, 0.10, &noisy, &much_faster).3, Verdict::Ok);
        // The same numbers as a throughput: slower is better, faster worse.
        let higher = spec(Better::Higher);
        assert_eq!(
            judge(&higher, 0.10, &slower, &steady).3,
            Verdict::Regression
        );
        assert_eq!(judge(&higher, 0.10, &steady, &slower).3, Verdict::Ok);
        // One run a side: no spread to speak of, medians decide.
        assert_eq!(judge(&lower, 0.10, &[100.0], &[105.0]).3, Verdict::Ok);
        assert_eq!(
            judge(&lower, 0.10, &[100.0], &[111.0]).3,
            Verdict::Regression
        );
    }

    /// One `--out` line per workload: every end-to-end metric at `value`,
    /// and one exact count.
    fn set_of(seed: u64, seconds: f64, value: f64, fnv: f64, failed: u64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|(m, _)| format!("\"{}\": {{\"value\": {value}, \"unit\": \"x\"}}", m.name))
            .chain([format!(
                "\"chaos.report_fnv\": {{\"value\": {fnv}, \"unit\": \"count\"}}"
            )])
            .collect();
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": 0, \"seconds\": {seconds}, \
                     \"smoke\": false, \"correct\": true, \"attempted\": 1000, \"failed\": {failed}, \
                     \"metrics\": {{{}}}}}\n",
                    metrics.join(", ")
                )
            })
            .collect()
    }

    #[test]
    fn unlike_or_incomplete_sets_are_refused() {
        let a = parse_set("a", &set_of(1, 20.0, 5.0, 7.0, 0)).expect("parses");
        assert_eq!(refusal(&a, &a), None);
        let shorter = parse_set("b", &set_of(1, 1.0, 5.0, 7.0, 0)).expect("parses");
        assert!(refusal(&a, &shorter).expect("refused").contains("windows"));
        // A set that lost a workload's run.
        let text = set_of(1, 20.0, 5.0, 7.0, 0);
        let three: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        let b = parse_set("b", &three).expect("parses");
        assert!(refusal(&a, &b).expect("refused").contains("serve_rt"));
        // A metric that reads 0 has no share to compare by.
        let zero = parse_set("b", &set_of(1, 20.0, 0.0, 7.0, 0)).expect("parses");
        assert!(refusal(&a, &zero).expect("refused").contains("reads 0"));
        // Smoke runs and mixed windows do not even load.
        let smoke = set_of(1, 20.0, 5.0, 7.0, 0).replace("\"smoke\": false", "\"smoke\": true");
        assert!(parse_set("s", &smoke).is_err());
        let mixed = set_of(1, 20.0, 5.0, 7.0, 0) + &set_of(2, 10.0, 5.0, 7.0, 0);
        assert!(parse_set("m", &mixed).is_err());
    }

    #[test]
    fn exact_counts_are_compared_seed_by_seed() {
        let key = ("campaign".to_string(), "chaos.report_fnv".to_string());
        // Two seeds, each with its own count: equal per seed.
        let text = set_of(1, 20.0, 5.0, 7.0, 0) + &set_of(2, 20.0, 5.0, 9.0, 0);
        let a = parse_set("a", &text).expect("parses");
        assert_eq!(exact_seeds(&a, &a, &key), (2, vec![]));
        // Seed 2 changed in b.
        let text = set_of(1, 20.0, 5.0, 7.0, 0) + &set_of(2, 20.0, 5.0, 8.0, 0);
        let b = parse_set("b", &text).expect("parses");
        assert_eq!(exact_seeds(&a, &b, &key), (2, vec![2]));
        // No seed in common: nothing to say.
        let c = parse_set("c", &set_of(3, 20.0, 5.0, 7.0, 0)).expect("parses");
        assert_eq!(exact_seeds(&a, &c, &key), (0, vec![]));
    }

    #[test]
    fn failures_and_lost_runs_are_counted() {
        let a = parse_set("a", &set_of(1, 20.0, 5.0, 7.0, 0)).expect("parses");
        let b = parse_set("b", &set_of(1, 20.0, 5.0, 7.0, 3)).expect("parses");
        assert_eq!(a.ops["serve_rt"].failed_share(), 0.0);
        assert_eq!(b.ops["serve_rt"].failed_share(), 0.003);
        let lost = "{\"workload\": \"campaign\", \"seed\": 1, \"trace\": 0, \"seconds\": 20, \
                    \"smoke\": false, \"correct\": false, \"attempted\": 1, \"failed\": 1, \
                    \"metrics\": {}}\n";
        let c = parse_set("c", &(set_of(1, 20.0, 5.0, 7.0, 0) + lost)).expect("parses");
        assert_eq!(c.ops["campaign"].no_result, 1);
        assert_eq!(c.ops["serve_rt"].no_result, 0);
    }
}
