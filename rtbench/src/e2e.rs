//! The untraced run: the four end-to-end metrics of one workload.
//!
//! Set-up is repeated [`SETUPS`] times and `setup_s` is the median, so a
//! change that moves work into set-up shows there and one scheduler
//! hiccup does not; the last set-up is the one the window then measures.

use crate::campaign::{self, Tally, Work};
use crate::serve_load::Session;
use crate::spec::{shape_of, Report};
use crate::stats::Samples;
use crate::{peak_rss_mb, Args, RunResult};
use std::time::Instant;

/// Set-ups per run (odd, so the median is one of them).
const SETUPS: usize = 9;

pub fn run(args: &Args, workload: &str) -> RunResult {
    if workload == "campaign" {
        run_campaign(args)
    } else {
        run_serve(args, workload)
    }
}

fn run_serve(args: &Args, workload: &str) -> RunResult {
    let shape = shape_of(workload);
    let mut setup_s = Samples::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut live: Option<Session> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = live.take() {
            let done = previous.finish();
            attempted += done.attempted;
            failed += done.failed;
        }
        let t = Instant::now();
        live = Some(Session::setup(shape, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut session = live.expect("at least one set-up");
    session.warm_up();
    // Memory after a fixed amount of work, before the fixed-time window:
    // it shows what set-up and caches hold, not how many flushes fit.
    let warm_rss = peak_rss_mb();

    let mut w = session.window(args.seconds, Instant::now(), false);
    let done = session.finish();
    attempted += done.attempted;
    failed += done.failed;

    let mut report = Report::default();
    report.set(
        "op_p50_ms",
        w.op_ms.median().unwrap_or(0.0),
        w.op_ms.len() as u64,
    );
    report.set(
        "work_per_s",
        w.tokens_ok as f64 / w.elapsed.as_secs_f64(),
        w.tokens_ok,
    );
    report.set("warm_rss_mb", warm_rss, 1);
    report.set(
        "setup_s",
        setup_s.median().expect("set-ups ran"),
        SETUPS as u64,
    );
    if let Some((label, tail)) = w.op_ms.supported_tail() {
        println!(
            "# {workload}: op {label} = {tail:.3} ms over n={} (diagnostic), deadline misses {} of {}",
            w.op_ms.len(),
            w.deadline_missed,
            w.attempted
        );
    }
    RunResult {
        report,
        attempted,
        failed,
    }
}

fn run_campaign(args: &Args) -> RunResult {
    let mut setup_s = Samples::new();
    let mut cold = Tally::default();
    let mut work = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let w = Work::generate(args.seed, args.campaign_divisor());
        cold = Tally::default();
        w.cold_pass(&mut cold);
        setup_s.push(t.elapsed().as_secs_f64());
        work = Some(w);
    }
    let work = work.expect("at least one set-up");
    let warm_rss = peak_rss_mb();

    let (mut tally, elapsed) = campaign::window(&work, args.seconds);

    let mut report = Report::default();
    report.set(
        "op_p50_ms",
        tally.pass_ms.median().expect("at least one pass"),
        tally.pass_ms.len() as u64,
    );
    report.set(
        "work_per_s",
        tally.runs as f64 / elapsed.as_secs_f64(),
        tally.runs,
    );
    report.set("warm_rss_mb", warm_rss, 1);
    report.set(
        "setup_s",
        setup_s.median().expect("set-ups ran"),
        SETUPS as u64,
    );
    RunResult {
        report,
        attempted: tally.runs + cold.runs,
        failed: tally.failed() + cold.failed(),
    }
}
