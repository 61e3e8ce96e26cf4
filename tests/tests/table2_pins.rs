//! Table 2 and the application networks, pinned across *commits*.
//!
//! `parallel_campaign.rs` pins Table 2 across worker counts of one build
//! (and only for ADPCM); these pins were taken at the commit before the
//! run-scoped stage memo (DESIGN.md §14 "Transform once") and hold the
//! real-codec networks to it: aggregates of the fault and fault-free
//! campaigns for every app, and the consumer's `(at_ns, digest)` log of a
//! duplicated run under a fail-stop and under a corrupting replica on
//! either side. Sharing codec results between replicas must move none of
//! them — in particular a corrupted token must still be transformed from
//! its own bytes.

use rtft_apps::networks::App;
use rtft_bench::campaign::{fault_campaign, no_fault_campaign};
use rtft_core::{build_duplicated, CorruptionMode, FaultPlan};
use rtft_kpn::{digest_bytes, Digest, Engine};
use rtft_rtc::TimeNs;

#[test]
fn table2_aggregates_are_pinned_for_every_app() {
    let pins: [(App, u64, u64); 3] = [
        (App::Mjpeg, 0x2cd4_8a32_8ea7_a4e4, 0xfdb0_ccdc_b9d4_cca1),
        (App::Adpcm, 0x93ee_8e35_6251_e3f5, 0xc0ae_3d26_381b_1645),
        (App::H264, 0xc177_e629_52d6_d104, 0x716a_6237_eac3_3e02),
    ];
    for (app, fault_pin, clean_pin) in pins {
        let period = app.profile().model.producer.period;
        let faulty = format!("{:?}", fault_campaign(app, 4, 60, period * 20));
        assert_eq!(
            digest_bytes(faulty.as_bytes()),
            fault_pin,
            "{app:?}: {faulty}"
        );
        let clean = format!("{:?}", no_fault_campaign(app, 3, 40));
        assert_eq!(
            digest_bytes(clean.as_bytes()),
            clean_pin,
            "{app:?}: {clean}"
        );
    }
}

/// FNV of the consumer's `(at_ns, digest)` log of a 24-token duplicated
/// run of `app` with `plan` armed on `replica`.
fn consumer_log_fnv(app: App, replica: usize, plan: FaultPlan) -> u64 {
    let cfg = app
        .duplication_config(3, 24)
        .expect("bounded profile")
        .with_fault(replica, plan);
    let (net, ids) = build_duplicated(&cfg, &app.replica_factory([11, 22]));
    let mut engine = Engine::new(net);
    engine.run_until(TimeNs::from_secs(30));
    let mut fnv = Digest::new();
    for (at, digest) in ids.consumer_arrivals(engine.network()) {
        fnv.update(&at.as_ns().to_le_bytes());
        fnv.update(&digest.to_le_bytes());
    }
    fnv.finish()
}

#[test]
fn consumer_logs_under_fail_stop_and_corruption_are_pinned() {
    let pins: [(App, [u64; 3]); 3] = [
        (
            App::Mjpeg,
            [
                0xce14_9bf8_f3ec_c657,
                0xfa66_fc90_c326_d59b,
                0xca77_0b4f_a002_db97,
            ],
        ),
        (
            App::Adpcm,
            [
                0xfca4_4667_78c6_7067,
                0x9dec_e2ea_fbdf_65e7,
                0xfca4_4667_78c6_7067,
            ],
        ),
        (
            App::H264,
            [
                0x59bf_cc5d_4d6f_6263,
                0xc8af_79c2_b39e_6263,
                0xef8c_4002_9148_6263,
            ],
        ),
    ];
    for (app, pinned) in pins {
        let at = app.profile().model.producer.period * 8;
        let flip = FaultPlan::corrupt_at(CorruptionMode::BitFlip(80), at);
        let logs = [
            consumer_log_fnv(app, 1, FaultPlan::fail_stop_at(at)),
            consumer_log_fnv(app, 0, flip),
            consumer_log_fnv(app, 1, flip),
        ];
        assert_eq!(
            logs, pinned,
            "{app:?}: [fail-stop r1, bit flip r0, bit flip r1] = {logs:#018x?}"
        );
    }
}
