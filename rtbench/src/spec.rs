//! The benchmark's contract in one table: workloads, end-to-end metrics
//! with the bound by which a later change may worsen each, and per-layer
//! metrics. `BENCHMARK.json` at the repo root repeats it for the driver;
//! `tests/smoke.rs` checks the two agree.

use crate::serve_load::Shape;
use rtft_apps::networks::App;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Workload names are stable: later issues cite them.
pub const WORKLOADS: [&str; 4] = ["serve_rt", "serve_bulk", "serve_durable", "campaign"];

/// The serve shape behind a workload. `campaign` has no serve path of
/// its own; its per-layer ledger is taken on `serve_rt`'s shape.
pub fn shape_of(workload: &str) -> Shape {
    match workload {
        "serve_bulk" => Shape {
            app: App::Mjpeg,
            redundancy: 3,
            tokens_per_flush: 64,
            durable: false,
        },
        "serve_durable" => Shape {
            app: App::Adpcm,
            redundancy: 2,
            tokens_per_flush: 16,
            durable: true,
        },
        _ => Shape {
            app: App::Adpcm,
            redundancy: 2,
            tokens_per_flush: 16,
            durable: false,
        },
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// The bound `rtbench compare` judges every end-to-end pair by: the 10 %
/// the issue fixed. A pair noisier than that reads `unresolved`.
pub const COMPARE_BOUND: f64 = 0.10;
/// `failed ÷ attempted` of a workload may rise by this much, absolute.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// End-to-end metrics, each with the bound `BENCHMARK.json` gives the
/// driver (share of the parent's median). Every workload reports every one
/// of them. The driver has no `unresolved` verdict and refuses a benchmark
/// whose run-to-run spread exceeds a bound, so these are sized to the
/// spread measured on the reference container (README, "Run-to-run
/// noise"), not to what a change may cost: that is [`COMPARE_BOUND`].
pub const END_TO_END: [(MetricSpec, f64); 4] = [
    (m("op_p50_ms", "ms", Lower), 0.25),
    (m("work_per_s", "1/s", Higher), 0.25),
    (m("warm_rss_mb", "MB", Lower), 0.15),
    (m("setup_s", "s", Lower), 0.25),
];

pub const PER_LAYER: [MetricSpec; 58] = [
    // serve
    m("serve.flush_p50_ms", "ms", Lower),
    m("serve.flush_p99_ms", "ms", Lower),
    m("serve.send_p50_ms", "ms", Lower),
    m("serve.flush_rtt_p50_ms", "ms", Lower),
    m("serve.residual_ms", "ms", Lower),
    m("serve.stage_cover_share", "share", Higher),
    m("serve.trace_overhead_share", "share", Lower),
    m("serve.deadline_miss_share", "share", Lower),
    m("serve.busy_share", "share", Lower),
    m("serve.connect_open_ms", "ms", Lower),
    m("serve.wire_encode_us_per_flush", "us", Lower),
    m("serve.wire_decode_us_per_flush", "us", Lower),
    m("serve.wire_decode_mb_per_s", "MB/s", Higher),
    m("serve.build_spec_us_per_flush", "us", Lower),
    m("serve.output_encode_us_per_flush", "us", Lower),
    m("serve.output_decode_us_per_flush", "us", Lower),
    m("serve.replay_us_per_flush", "us", Lower),
    // fleet
    m("fleet.execute_us_per_flush", "us", Lower),
    m("fleet.queue_us", "us", Lower),
    m("fleet.self_us_per_flush", "us", Lower),
    // rtc
    m("rtc.sizing_us", "us", Lower),
    m("rtc.hetero_sizing_us", "us", Lower),
    // core
    m("core.build_us_per_flush", "us", Lower),
    m("core.replicator_ns_per_op", "ns", Lower),
    m("core.selector_ns_per_op", "ns", Lower),
    m("core.nselector_ns_per_op", "ns", Lower),
    m("core.voting_ns_per_op", "ns", Lower),
    m("core.hetero_ns_per_op", "ns", Lower),
    m("core.arb_vs_distfn_ratio", "ratio", Lower),
    // distfn
    m("distfn.monitor_ns_per_op", "ns", Lower),
    // kpn
    m("kpn.engine_run_us_per_flush", "us", Lower),
    m("kpn.events_per_flush", "count", Lower),
    m("kpn.events_per_campaign_run", "count", Lower),
    m("kpn.engine_ns_per_event", "ns", Lower),
    m("kpn.pool_hit_rate", "share", Higher),
    m("kpn.digest_mb_per_s", "MB/s", Higher),
    m("kpn.parallel_efficiency", "share", Higher),
    // wal
    m("wal.append_us", "us", Lower),
    m("wal.commit_us", "us", Lower),
    m("wal.appends_per_fsync", "ratio", Higher),
    m("wal.bytes_per_flush", "B", Lower),
    m("wal.recovery_records_per_s", "1/s", Higher),
    // tenant
    m("tenant.admit_ns", "ns", Lower),
    // obs
    m("obs.histogram_record_ns", "ns", Lower),
    m("obs.absorb_us", "us", Lower),
    // apps
    m("apps.mjpeg_us_per_token", "us", Lower),
    m("apps.adpcm_us_per_token", "us", Lower),
    m("apps.h264_us_per_token", "us", Lower),
    m("apps.workload_gen_ms", "ms", Lower),
    // scc
    m("scc.noc_transfer_ns", "ns", Lower),
    // chaos / bench: the split of the campaign workload
    m("chaos.classic_runs_per_s", "1/s", Higher),
    m("chaos.hetero_runs_per_s", "1/s", Higher),
    m("bench.table2_runs_per_s", "1/s", Higher),
    m("chaos.detect_bound_ratio_max", "ratio", Lower),
    m("chaos.violations", "count", Lower),
    m("chaos.report_fnv", "count", Lower),
    // the harness itself
    m("rtbench.peak_rss_mb", "MB", Lower),
    m("rtbench.trace_spans", "count", Higher),
];

/// One reported value: metric name, value, and how many raw samples the
/// value was taken from.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

/// Collects reported values; a name may be set once.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Vec<Value>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        assert!(
            self.values.iter().all(|v| v.name != name),
            "metric {name} reported twice"
        );
        self.values.push(Value { name, value, n });
    }
}
