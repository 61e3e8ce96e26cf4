//! Table regeneration: the printable artefacts themselves.
//!
//! Each `print_*` function runs the relevant campaigns and prints the
//! regenerated table with paper-reported values side by side where the
//! paper provides them.

use crate::campaign::{
    comparison_campaign, fault_campaign_observed, no_fault_campaign, FaultCampaign, NoFaultStats,
    RUNS,
};
use crate::paper::{PaperTable2, ADPCM_TABLE2, MJPEG_TABLE2, TABLE3};
use crate::report::{banner, ms, paper_val, stats_ms, AsciiTable};
use crate::{measure_runtime_overhead, memory_overhead};
use rtft_apps::networks::App;
use rtft_apps::profiles;
use rtft_rtc::sizing::SizingReport;
use rtft_rtc::TimeNs;

/// Regenerates Table 1: the experiment parameters of all three
/// applications.
pub fn print_table1() {
    banner("Table 1: Parameters for Fault Tolerance Experiments (reconstructed)");
    let mut t = AsciiTable::new();
    t.row([
        "Application",
        "Producer <P,J,D>",
        "Replica 1 <P,J,D>",
        "Replica 2 <P,J,D>",
        "Consumer <P,J,D>",
        "Token in",
        "Token out",
    ]);
    for p in profiles::all() {
        t.row([
            p.name.to_owned(),
            p.model.producer.to_string(),
            p.model.replica_out[0].to_string(),
            p.model.replica_out[1].to_string(),
            p.model.consumer.to_string(),
            format!("{} B", p.input_token_bytes),
            format!("{} B", p.output_token_bytes),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nNote: tuples are <period, jitter, delay>; Table 1 in the source scan is partially\n\
         garbled, so these are the self-consistent reconstructions of DESIGN.md §1 (they\n\
         reproduce the paper's Table 2 capacities exactly — verified by the table2 benches)."
    );
}

/// The experiment scale for one Table 2 regeneration.
#[derive(Debug, Clone, Copy)]
pub struct Table2Scale {
    /// Tokens per run (the paper's 18 000/20 000 scaled down).
    pub tokens: u64,
    /// Fault injection instant.
    pub fault_at: TimeNs,
}

/// Default scales per application, sized so the full table regenerates in
/// seconds while exercising hundreds of steady-state tokens.
fn default_scale(app: App) -> Table2Scale {
    let period = app.profile().model.producer.period;
    Table2Scale {
        tokens: 300,
        fault_at: period * 100,
    }
}

/// Regenerates one application block of Table 2.
pub fn print_table2(app: App, paper: Option<&PaperTable2>) {
    let profile = app.profile();
    let sizing = SizingReport::analyze(&profile.model).expect("bounded profile");
    let scale = default_scale(app);
    banner(&format!(
        "Table 2: {} ({} runs, {} tokens/run, fault at {})",
        profile.name,
        RUNS,
        scale.tokens,
        ms(scale.fault_at)
    ));

    let nf = no_fault_campaign(app, RUNS, scale.tokens);
    let (fc, metrics) = fault_campaign_observed(app, RUNS, scale.tokens, scale.fault_at);
    print_table2_from(app, paper, &sizing, &nf, &fc);
    println!("\nEmbedded bench metrics (machine-readable result JSON):");
    println!("{}", metrics.to_json());
}

/// Prints a Table 2 block from already-computed campaign results.
fn print_table2_from(
    app: App,
    paper: Option<&PaperTable2>,
    sizing: &SizingReport,
    nf: &NoFaultStats,
    fc: &FaultCampaign,
) {
    let mut t = AsciiTable::new();
    t.row(["FIFO", "|R1|", "|R2|", "|S1|", "|S2|", "|S1|0", "|S2|0"]);
    t.row([
        "Theoretical capacity".to_owned(),
        sizing.replicator_capacity[0].to_string(),
        sizing.replicator_capacity[1].to_string(),
        sizing.selector_capacity[0].to_string(),
        sizing.selector_capacity[1].to_string(),
        sizing.selector_initial_fill[0].to_string(),
        sizing.selector_initial_fill[1].to_string(),
    ]);
    if let Some(p) = paper {
        t.row([
            "  (paper)".to_owned(),
            p.replicator_capacity[0].to_string(),
            p.replicator_capacity[1].to_string(),
            p.selector_capacity[0].to_string(),
            p.selector_capacity[1].to_string(),
            p.selector_initial_fill[0].to_string(),
            p.selector_initial_fill[1].to_string(),
        ]);
    }
    t.row([
        format!("Max observed fill ({RUNS} fault-free runs)"),
        nf.max_fill_replicator[0].to_string(),
        nf.max_fill_replicator[1].to_string(),
        format!("{} (single physical queue)", nf.max_fill_selector),
        String::new(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    print!("{}", t.render());
    println!(
        "Fault-free: false positives = {}, output equivalent to reference = {}",
        nf.false_positive, nf.equivalent
    );

    println!("\nFault detection latency (fail-stop, alternating replica):");
    let mut t = AsciiTable::new();
    t.row([
        "Site",
        "Observed (measured)",
        "Upper bound",
        "Detected",
        "Paper (max/mean | bound)",
    ]);
    let paper_sel = paper.map(|p| {
        format!(
            "{}/{} | {:.0}",
            paper_val(p.selector_latency_ms.1),
            paper_val(p.selector_latency_ms.2),
            p.selector_bound_ms
        )
    });
    let paper_rep = paper.map(|p| {
        format!(
            "{}/{} | {:.0}",
            paper_val(p.replicator_latency_ms.1),
            paper_val(p.replicator_latency_ms.2),
            p.replicator_bound_ms
        )
    });
    t.row([
        "Selector".to_owned(),
        stats_ms(&fc.selector.stats),
        format!("{} ms", ms(fc.selector.bound)),
        format!("{}/{}", fc.selector.detections, fc.selector.runs),
        paper_sel.unwrap_or_else(|| "-".to_owned()),
    ]);
    t.row([
        "Replicator".to_owned(),
        stats_ms(&fc.replicator.stats),
        format!("{} ms", ms(fc.replicator.bound)),
        format!("{}/{}", fc.replicator.detections, fc.replicator.runs),
        paper_rep.unwrap_or_else(|| "-".to_owned()),
    ]);
    print!("{}", t.render());
    println!(
        "All faults masked (full delivery, healthy replica unflagged): {}",
        fc.all_masked
    );

    let mem = memory_overhead(app);
    let rt = measure_runtime_overhead(200_000);
    let period_ns = app.profile().model.producer.period.as_ns() as f64;
    println!("\nOverhead:");
    println!(
        "  Memory : selector {} B + {} tokens; replicator {} B + {} tokens (paper: 2.1 KB / 1.5 KB)",
        mem.selector_bytes, mem.selector_tokens, mem.replicator_bytes, mem.replicator_tokens
    );
    println!(
        "  Runtime: selector {:.0} ns/op ({:.4}% of period); replicator {:.0} ns/op ({:.4}% of period) (paper: 5 µs / 2.1 µs on a 533 MHz core)",
        rt.selector_ns,
        100.0 * rt.selector_ns / period_ns,
        rt.replicator_ns,
        100.0 * rt.replicator_ns / period_ns,
    );

    println!("\nConsumer inter-arrival timings:");
    let mut t = AsciiTable::new();
    t.row(["Network", "Measured (ms)", "Paper (min/max/mean ms)"]);
    let fmt_paper = |v: (f64, f64, f64)| format!("{:.2}/{:.2}/{:.2}", v.0, v.1, v.2);
    t.row([
        "Reference".to_owned(),
        stats_ms(&nf.reference_inter),
        paper
            .map(|p| fmt_paper(p.reference_inter_ms))
            .unwrap_or_else(|| "-".to_owned()),
    ]);
    t.row([
        "Duplicated".to_owned(),
        stats_ms(&nf.duplicated_inter),
        paper
            .map(|p| fmt_paper(p.duplicated_inter_ms))
            .unwrap_or_else(|| "-".to_owned()),
    ]);
    print!("{}", t.render());
}

/// Returns the paper block for an app, if the paper printed one.
pub fn paper_table2(app: App) -> Option<&'static PaperTable2> {
    match app {
        App::Mjpeg => Some(&MJPEG_TABLE2),
        App::Adpcm => Some(&ADPCM_TABLE2),
        App::H264 => None, // paper omitted the block for space
    }
}

/// Regenerates Table 3: our approach vs the distance-function monitor.
pub fn print_table3() {
    banner("Table 3: Comparison with the distance-function approach (fail-stop, minimized jitter)");
    let mut t = AsciiTable::new();
    t.row([
        "Application",
        "DistFn measured (ms)",
        "Ours measured (ms)",
        "Paper DistFn max/min/mean",
        "Paper Ours max/min/mean",
    ]);
    for (app, row) in [
        (App::Mjpeg, TABLE3[0]),
        (App::Adpcm, TABLE3[1]),
        (App::H264, TABLE3[2]),
    ] {
        match comparison_campaign(app, RUNS) {
            Some(c) => {
                t.row([
                    row.app.to_owned(),
                    stats_ms(&c.distance_fn),
                    stats_ms(&c.ours),
                    format!(
                        "{:.1}/{:.1}/{:.1}",
                        row.distance_fn_ms.0, row.distance_fn_ms.1, row.distance_fn_ms.2
                    ),
                    format!(
                        "{:.1}/{:.1}/{:.1}",
                        row.ours_ms.0, row.ours_ms.1, row.ours_ms.2
                    ),
                ]);
            }
            None => {
                t.row([
                    row.app.to_owned(),
                    "MISSED".into(),
                    "MISSED".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    print!("{}", t.render());
    println!(
        "\nShape check: the distance-function monitor trails our counters-based detection by\n\
         roughly its polling quantisation (paper: ~1 ms at 1 ms polling), at the cost of\n\
         per-stream timestamp history and four timers the framework does not need."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints() {
        print_table1();
    }

    #[test]
    fn scales_are_positive() {
        for app in [App::Mjpeg, App::Adpcm, App::H264] {
            let s = default_scale(app);
            assert!(s.tokens >= 100);
            assert!(s.fault_at > TimeNs::ZERO);
        }
    }

    #[test]
    fn paper_blocks_match_apps() {
        assert!(paper_table2(App::Mjpeg).is_some());
        assert!(paper_table2(App::Adpcm).is_some());
        assert!(paper_table2(App::H264).is_none());
    }
}
