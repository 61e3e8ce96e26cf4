//! `rtbench` — the repo's one benchmark for the token path.
//!
//! ```text
//! rtbench --workload <serve_rt|serve_bulk|serve_durable|campaign|all>
//!         --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]
//! rtbench compare <a.jsonl> <b.jsonl> [--out <file>]
//! ```
//!
//! `--seconds` is the driver's flag (it passes `run_seconds` from
//! `BENCHMARK.json`, which is also the default); `--smoke` is the only other
//! way to shorten a run, and `compare` takes neither smoke runs nor sets
//! whose windows differ.
//!
//! Without `--trace` a run measures the end-to-end metrics; with it, a
//! separate traced run yields the per-layer ledger. Each run prints every
//! metric by name with unit and sample count, then one JSON object as the
//! last line of standard output. See `README.md` beside this crate.

pub mod campaign;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod serve_load;
pub mod spec;
pub mod stats;
pub mod trace;

use spec::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

/// The measured window, `run_seconds` in `BENCHMARK.json`. The driver
/// passes it as `--seconds`; nothing else should, and `compare` refuses
/// sets of runs whose windows differ.
pub const RUN_SECONDS: f64 = 20.0;
/// Exit code of a run that completed but failed a correctness gate; any
/// other non-zero code means the run ended without a result.
const EXIT_GATE_FAILED: i32 = 1;

/// Cores this process may use; load threads never exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's own scratch directory (`rtbench/out/`): WAL dirs, span
/// files and result files live here and nowhere else.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

impl Args {
    /// `--smoke` runs a twentieth of the campaign list.
    pub fn campaign_divisor(&self) -> usize {
        if self.smoke {
            20
        } else {
            1
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rtbench --workload <{}|all> --seed <n> [--seconds <s>] [--trace [0|1]] \
         [--smoke] [--out <file>]\n       rtbench compare <a.jsonl> <b.jsonl> [--out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(PathBuf::from(value())),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    if args.smoke {
        args.seconds = 1.0;
    }
    args
}

/// What one workload run produced.
pub struct RunResult {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

/// The fields of a `--out` line that say which run it was. `compare`
/// reads `seconds` and `smoke` to keep unlike runs apart.
fn run_header(args: &Args, workload: &str) -> String {
    format!(
        "\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"smoke\": {}",
        args.seed, args.trace as u8, args.seconds, args.smoke
    )
}

fn append_line(path: &std::path::Path, line: &str) {
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("rtbench: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Prints the human-readable rows and returns the result line. Panics if
/// the run did not report exactly the metrics its mode promises — the
/// names in `BENCHMARK.json`, each once.
fn emit(args: &Args, workload: &str, run: &RunResult) -> String {
    let specs: Vec<spec::MetricSpec> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(m, _)| *m).collect()
    };
    assert_eq!(
        run.report.values.len(),
        specs.len(),
        "{workload}: reported metrics do not match the spec"
    );
    let correct = run.failed == 0;
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={} load_threads={} attempted={} failed={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc(),
        if workload == "campaign" {
            1
        } else {
            serve_load::connections()
        },
        run.attempted,
        run.failed
    );
    let mut metrics = rtft_obs::json::JsonObject::new();
    for spec in &specs {
        let v = run
            .report
            .values
            .iter()
            .find(|v| v.name == spec.name)
            .unwrap_or_else(|| panic!("{workload}: metric {} was not reported", spec.name));
        println!(
            "{:<36} {:>16.6} {:<6} n={}",
            spec.name, v.value, spec.unit, v.n
        );
        metrics = metrics.raw_field(
            spec.name,
            &format!(
                "{{\"value\": {}, \"unit\": \"{}\"}}",
                json::number(v.value),
                spec.unit
            ),
        );
    }
    let metrics = metrics.finish();
    if let Some(path) = &args.out {
        let line = format!(
            "{{{}, \"nproc\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {metrics}}}\n",
            run_header(args, workload),
            nproc(),
            run.attempted,
            run.failed
        );
        append_line(path, &line);
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.attempted, run.failed
    )
}

/// Runs the command line and returns the process exit code: 0 when every
/// correctness gate held (or `compare` found no regression).
pub fn run_cli(argv: &[String]) -> i32 {
    let started = Instant::now();
    if argv.first().map(|s| s.as_str()) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = parse_args(argv);
    if args.workload == "all" {
        return run_all(&args, argv);
    }
    let workload = args.workload.as_str();
    let run = if args.trace {
        layers::run(&args, workload, started)
    } else {
        e2e::run(&args, workload)
    };
    println!("{}", emit(&args, workload, &run));
    if run.failed > 0 {
        EXIT_GATE_FAILED
    } else {
        0
    }
}

/// `--workload all`: one child process per workload, in turn, so each
/// reads its own memory and pays its own set-up exactly as a single
/// `--workload <name>` run does (peak RSS is per process, and an allocator
/// keeps what an earlier workload freed). A child that ends without a
/// result (a panic, a signal) wrote no `--out` line; one is written for it
/// here, as a failed run without metrics, so `compare` sees the gap.
fn run_all(args: &Args, argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut any_failed = false;
    for workload in WORKLOADS {
        // The last `--workload` wins in `parse_args`.
        let code = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", workload])
            .status()
            .ok()
            .and_then(|s| s.code());
        any_failed |= code != Some(0);
        if matches!(code, Some(0 | EXIT_GATE_FAILED)) {
            continue;
        }
        eprintln!("rtbench: {workload} ended without a result ({code:?})");
        if let Some(path) = &args.out {
            let line = format!(
                "{{{}, \"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}\n",
                run_header(args, workload)
            );
            append_line(path, &line);
        }
    }
    any_failed as i32
}
