//! Pins of the structure recipe as every caller reaches it: the
//! sampled-checker campaign at each swept stride, and `fleet::execute`
//! over `JobTemplate::for_model` for every application × structure.
//!
//! Both paths go through the recipe's sizing, its replica factories and
//! its bound table, so a byte of drift in any of them shows here. The
//! values were taken before the recipe moved into `rtft-core` and have
//! not been edited since.

use rtft_apps::networks::App;
use rtft_chaos::Campaign;
use rtft_core::FaultPlan;
use rtft_fleet::{des_horizon, execute, JobRuntime, JobTemplate, Redundancy};
use rtft_kpn::Payload;
use rtft_obs::registry_to_json;
use std::sync::Arc;

/// FNV-1a 64 over the bytes — dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sampled-checker campaign report at every stride the frontier
/// sweeps. Each report carries `bound_ns` for every fault kind on both
/// sides, so it pins the hetero bound table as well as the runs.
#[test]
fn hetero_campaign_reports_are_pinned_at_every_swept_stride() {
    let got: Vec<(u64, u64)> = [1u64, 4, 16, 64]
        .map(|k| {
            let json = Campaign::generate_hetero(0x5EED_0036, 16, k)
                .run()
                .to_json();
            (k, fnv1a(json.as_bytes()))
        })
        .into();
    let expected = [
        (1, 0xBD21_F927_1547_F77C),
        (4, 0x0C92_1192_B5F1_6EC7),
        (16, 0x158D_FB60_4A04_1BA8),
        (64, 0xDC2F_3601_D312_F530),
    ];
    assert_eq!(got, expected, "{got:#x?}");
}

/// Everything a front-end reads off a finished run, as text — the
/// `execute_transcript` format of `arbitration.rs`.
fn execute_transcript(template: &JobTemplate, runtime: &JobRuntime) -> String {
    let r = execute(template, runtime);
    let h = &r.health;
    let health = Some((
        h.replicas(),
        h.detection_latency_snapshot().count,
        h.detection_latency_snapshot().sum,
        h.detection_latency_snapshot().max,
    ));
    format!(
        "arrivals={} expected={} faulty={:?}\nhealth={health:?}\nregistry={}\nlog={:?}\n",
        r.arrivals,
        r.expected,
        r.faulty_replicas,
        registry_to_json(&r.registry),
        r.arrival_log,
    )
}

/// `fleet::execute` of the recipe's own template for every application
/// and structure, replica 1 fail-stopped ten periods in.
#[test]
fn recipe_execute_transcripts_are_pinned() {
    const TOKENS: u64 = 64;
    let structures = [
        Redundancy::Duplicated,
        Redundancy::TriVoting,
        Redundancy::Hetero { k: 4 },
    ];
    let mut got = Vec::new();
    for app in App::ALL {
        let model = app.profile().model;
        for redundancy in structures {
            let payload = Arc::new(|seq: u64| Payload::U64(seq.wrapping_mul(0x9e37_79b9)));
            let template = JobTemplate::for_model(&model, redundancy, 0x36, TOKENS, payload)
                .with_fault(1, FaultPlan::fail_stop_at(model.producer.period * 10));
            let runtime = JobRuntime::DiscreteEvent {
                horizon: des_horizon(&model, TOKENS),
            };
            let transcript = execute_transcript(&template, &runtime);
            got.push((
                app.label(),
                redundancy.label(),
                fnv1a(transcript.as_bytes()),
            ));
        }
    }
    let expected = [
        ("mjpeg", "duplicated", 0x346F_EDA3_5EE9_FEB3),
        ("mjpeg", "tri-voting", 0xFD1F_C3DD_1A60_B965),
        ("mjpeg", "hetero-k4", 0x31F1_2569_26A7_50F5),
        ("adpcm", "duplicated", 0x490F_E71C_7AB3_BFBE),
        ("adpcm", "tri-voting", 0xD63E_1082_DA01_EF01),
        ("adpcm", "hetero-k4", 0x8EE3_5812_A53C_9D55),
        ("h264", "duplicated", 0x6002_3BE5_FA0A_4958),
        ("h264", "tri-voting", 0x8995_3390_4AED_F3CB),
        ("h264", "hetero-k4", 0x1DE2_78F8_6909_1C6B),
    ];
    assert_eq!(got, expected, "{got:#x?}");
}
