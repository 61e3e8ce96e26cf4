//! Arbitration-refactor regression matrix: compare-policy × replica-count.
//!
//! The `crates/core` arbitration decoupling (shared `ArbiterLedger` +
//! `ComparePolicy` implementations behind the `NSelector` / friends
//! `VotingSelector` type aliases) must be *unobservable* from every
//! existing structure. These tests pin that down two ways:
//!
//! 1. **Pinned digests**: full chaos campaign reports (which exercise the
//!    duplicated timing selector and the tri-replica voting selector across
//!    the whole fault palette) hash to the exact FNV-1a value captured
//!    *before* the refactor. A single byte of drift in any outcome,
//!    latch time, or metric fails the test.
//! 2. **Policy × replica-count matrix**: both compare policies at every
//!    supported replica count deliver identical complete streams and latch
//!    exactly the injected replica, run-to-run deterministically.

use rtft_chaos::Campaign;
use rtft_core::{
    build_n_modular, build_n_modular_voting, FaultPlan, NJitterStageReplica, NModularModel,
    NReplicator, NSelector, NSizingReport, VotingSelector,
};
use rtft_kpn::{Engine, Payload};
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;

/// FNV-1a 64 over the report bytes — dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Campaign reports pinned to their pre-refactor digests. The campaigns
/// mix duplicated and tri-voting scenarios over all platforms and fault
/// kinds, so any behavioral drift in either selector (or the replicator)
/// shows up here.
#[test]
fn campaign_reports_match_pre_refactor_digests() {
    for (seed, count, expected) in [
        (0xDAC14u64, 40u64, 0x5296_4028_F260_5C5Eu64),
        (99, 25, 0xE6BD_0AB2_74A9_87CF),
    ] {
        let json = Campaign::generate(seed, count).run().to_json();
        assert_eq!(
            fnv1a(json.as_bytes()),
            expected,
            "campaign (seed={seed:#x}, count={count}) report drifted from its pre-refactor bytes"
        );
    }
}

fn n_model(n: usize) -> NModularModel {
    let jitters = [5.0, 15.0, 30.0, 10.0, 20.0];
    NModularModel {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 150.0),
        replicas: (0..n)
            .map(|i| PjdModel::from_ms(30.0, jitters[i], 0.0))
            .collect(),
    }
}

/// Runs one (policy, replica-count) cell: fail-stop replica 1 mid-stream,
/// expect a complete stream and exactly replica 1 latched.
fn run_cell(voting: bool, n: usize) -> (usize, Vec<usize>, String) {
    let model = n_model(n);
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = NJitterStageReplica::from_model(&model).with_seed_base(7);
    let tokens = 120u64;
    let mut faults = vec![FaultPlan::healthy(); n];
    faults[1] = FaultPlan::fail_stop_at(TimeNs::from_secs(2));
    let payload: rtft_core::PayloadGenerator =
        Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9)));
    let (net, ids) = if voting {
        build_n_modular_voting(&model, &sizing, tokens, (1, 2), payload, &factory, &faults)
    } else {
        build_n_modular(&model, &sizing, tokens, (1, 2), payload, &factory, &faults)
    };
    let mut engine = Engine::new(net);
    engine.run_until(TimeNs::from_secs(60));
    let net = engine.network();
    let rep = net
        .channel_as::<NReplicator>(ids.replicator)
        .expect("n-replicator");
    let mut latched: Vec<usize> = if voting {
        let sel = net
            .channel_as::<VotingSelector>(ids.selector)
            .expect("voting selector");
        rep.faulty_indices().chain(sel.faulty_indices()).collect()
    } else {
        let sel = net
            .channel_as::<NSelector>(ids.selector)
            .expect("n-selector");
        rep.faulty_indices().chain(sel.faulty_indices()).collect()
    };
    latched.sort_unstable();
    latched.dedup();
    let arrivals = ids.consumer_arrivals(net);
    let transcript = format!("{arrivals:?}");
    (arrivals.len(), latched, transcript)
}

#[test]
fn policy_by_replica_count_matrix_is_deterministic_and_correct() {
    // Timing policy at n ∈ {2, 3, 4}; voting policy at n ∈ {3, 4, 5}
    // (majority voting needs a tie-breaker).
    let cells: Vec<(bool, usize)> = vec![
        (false, 2),
        (false, 3),
        (false, 4),
        (true, 3),
        (true, 4),
        (true, 5),
    ];
    for (voting, n) in cells {
        let (arrivals, latched, transcript) = run_cell(voting, n);
        assert_eq!(
            arrivals,
            120,
            "policy={} n={n}: survivors must keep the stream complete",
            if voting { "voting" } else { "timing" }
        );
        assert_eq!(
            latched,
            vec![1],
            "policy={} n={n}: exactly the injected replica latches",
            if voting { "voting" } else { "timing" }
        );
        // Run-to-run determinism of the full arrival transcript.
        let (_, _, again) = run_cell(voting, n);
        assert_eq!(transcript, again, "policy={voting} n={n} not deterministic");
    }
}

// ---------------------------------------------------------------------------
// Pins for the one-stack refactor (captured at the parent of that change).
//
// Everything below hashes observable bytes of a code path the refactor
// rewrites: the sampled-checker campaign, the Table 2 observed campaign,
// the fleet's `execute` for every job template, and the two-replica and
// sampled-checker channels driven operation by operation.
// ---------------------------------------------------------------------------

use rtft_apps::networks::App;
use rtft_bench::campaign::fault_campaign_observed_with_workers;
use rtft_core::{
    ArbiterLedger, CorruptionMode, DuplicationConfig, HeteroModel, HeteroSelector,
    HeteroSizingReport, JitterStageReplica, PolicySelector, Replicator, ReplicatorConfig,
    SampledCheck, SampledReplicator, Selector, SelectorConfig,
};
use rtft_fleet::{execute, JobRuntime, JobTemplate};
use rtft_kpn::{ChannelBehavior, ReadOutcome, SplitMix64, Token, WriteOutcome};
use rtft_obs::registry_to_json;
use rtft_rtc::sizing::DuplicationModel;
use std::fmt::Write as _;

/// (a) The sampled-checker campaign report — until now only compared
/// heap-vs-calendar, never pinned.
#[test]
fn hetero_campaign_report_is_pinned() {
    let json = Campaign::generate_hetero(0xD1FF, 32, 3).run().to_json();
    assert_eq!(fnv1a(json.as_bytes()), 0x93F0_F73B_1454_0451);
}

/// (b) Table 2's observed fail-stop campaign for ADPCM: the detection
/// statistics and the pooled `BenchMetrics` JSON (latency histogram,
/// detections by site, max fills).
#[test]
fn table2_observed_campaign_is_pinned() {
    let (campaign, metrics) =
        fault_campaign_observed_with_workers(App::Adpcm, 6, 120, TimeNs::from_ms(189), 1);
    let transcript = format!("{campaign:?}\n{}", metrics.to_json());
    assert_eq!(fnv1a(transcript.as_bytes()), 0x1F18_999A_98C3_B382);
}

fn des() -> JobRuntime {
    JobRuntime::DiscreteEvent {
        horizon: TimeNs::from_secs(30),
    }
}

/// Everything a front-end reads off a finished run, as text.
fn execute_transcript(template: &JobTemplate) -> String {
    let r = execute(template, &des());
    // `Some` keeps the text of the cases pinned when only some templates
    // had a health model.
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

fn payload() -> rtft_core::PayloadGenerator {
    Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9)))
}

fn duplicated_template() -> JobTemplate {
    // Asymmetric selector capacities (the MJPEG shape) on purpose.
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    );
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded")
        .with_token_count(90)
        .with_payload(payload())
        .with_fault(1, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobTemplate::Duplicated { cfg, factory }
}

fn voting_template(fault: FaultPlan) -> JobTemplate {
    let model = n_model(3);
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = Arc::new(NJitterStageReplica::from_model(&model).with_seed_base(7));
    let mut faults = vec![FaultPlan::healthy(); 3];
    faults[1] = fault;
    JobTemplate::NModularVoting {
        model,
        sizing,
        token_count: 90,
        seeds: (1, 2),
        payload: payload(),
        factory,
        faults,
    }
}

fn hetero_template(faulty_side: usize) -> JobTemplate {
    let model = HeteroModel::with_checker_jitter(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 150.0),
        PjdModel::from_ms(30.0, 5.0, 0.0),
        TimeNs::from_ms(10),
        4,
    );
    let sizing = HeteroSizingReport::analyze(&model).expect("bounded");
    let service = model.producer.period / 10;
    let factory = Arc::new(NJitterStageReplica {
        service,
        out_models: vec![model.main, model.checker],
        offset: service + model.producer.jitter + TimeNs::from_ms(1),
        seed_base: 7,
    });
    let mut faults = [FaultPlan::healthy(), FaultPlan::healthy()];
    faults[faulty_side] = FaultPlan::fail_stop_at(TimeNs::from_ms(400));
    JobTemplate::Hetero {
        model,
        sizing,
        token_count: 96,
        seeds: (1, 2),
        payload: payload(),
        factory,
        faults,
    }
}

/// (c) `rtft_fleet::execute` under the DES for each job template with one
/// injected fault: arrival log, faulty replicas, health records and the
/// job registry.
#[test]
fn fleet_execute_transcripts_are_pinned() {
    let fail_stop = FaultPlan::fail_stop_at(TimeNs::from_secs(1));
    let cases: Vec<(&str, JobTemplate, u64)> = vec![
        ("duplicated", duplicated_template(), 0xF66B_599E_C49D_4E97),
        (
            "voting/fail-stop",
            voting_template(fail_stop),
            0x16FB_79B0_F7E4_DF59,
        ),
        (
            "voting/corrupt",
            voting_template(FaultPlan::corrupt_at(
                CorruptionMode::BitFlip(5),
                TimeNs::from_secs(1),
            )),
            0x37DC_3F11_CF04_450A,
        ),
        ("hetero/main", hetero_template(0), 0xF5C3_1744_C310_AC92),
        ("hetero/checker", hetero_template(1), 0xDD9B_2DAD_5A13_A8A5),
    ];
    let (got, expected): (Vec<_>, Vec<_>) = cases
        .into_iter()
        .map(|(name, template, expected)| {
            let transcript = execute_transcript(&template);
            println!("{name}:\n{transcript}");
            ((name, fnv1a(transcript.as_bytes())), (name, expected))
        })
        .unzip();
    assert_eq!(got, expected, "an execute() transcript drifted");
}

fn op_token(seq: u64, at: u64) -> Token {
    Token::new(seq, TimeNs::from_ms(at), Payload::U64(seq))
}

fn write_label(o: &WriteOutcome) -> &'static str {
    match o {
        WriteOutcome::Accepted => "acc",
        WriteOutcome::AcceptedDropped => "drop",
        WriteOutcome::Blocked(_) => "blk",
    }
}

fn read_label(o: &ReadOutcome) -> String {
    match o {
        ReadOutcome::Token(t) => format!("tok{}", t.seq),
        ReadOutcome::Blocked => "blk".to_owned(),
    }
}

/// Which side an episode starves: nobody, a replica-facing interface
/// (index, from a seeded op index on), or the far side (the selector's
/// consumer, the replicator's producer).
#[derive(Clone, Copy)]
enum Starve {
    Nobody,
    Replica(usize, u64),
    FarSide,
}

fn pick_starve(rng: &mut SplitMix64, episode_ops: u64) -> Starve {
    match rng.next_inclusive(4) {
        0 => Starve::Nobody,
        1 | 2 => Starve::Replica(
            rng.next_inclusive(1) as usize,
            rng.next_inclusive(episode_ops / 2),
        ),
        3 => Starve::Replica(rng.next_inclusive(1) as usize, 0),
        _ => Starve::FarSide,
    }
}

/// Draws the next op of an episode: `0`/`1` = the replica-facing
/// interface, `2` = the far side.
fn pick_op(rng: &mut SplitMix64, starve: Starve, k: u64) -> usize {
    loop {
        let op = rng.next_inclusive(2) as usize;
        match starve {
            Starve::Replica(i, from) if op == i && k >= from => continue,
            // The far side still moves, at a quarter of the rate.
            Starve::FarSide if op == 2 && rng.next_inclusive(3) != 0 => continue,
            _ => return op,
        }
    }
}

const EPISODES: u64 = 10;
const EPISODE_OPS: u64 = 250;

/// Drives a fresh selector per episode through a seeded op stream and
/// returns the transcript: outcome, both latches, the counters and the
/// physical fill after every operation.
///
/// `space_i` is recorded while it is a decision input, i.e. until a
/// replica is latched. After a latch no rule reads it again (a single
/// latch is final at n = 2) and the parent's counter saturates at zero
/// on the surviving interface where the ledger keeps the signed formula.
fn selector_transcript(cfg: SelectorConfig, seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = String::new();
    for episode in 0..EPISODES {
        let mut s = Selector::new("s", cfg);
        let starve = pick_starve(&mut rng, EPISODE_OPS);
        let mut next = [0u64; 2];
        for k in 0..EPISODE_OPS {
            let now = TimeNs::from_ms(episode * 1_000 + k);
            let op = pick_op(&mut rng, starve, k);
            if op < 2 {
                let o = s.try_write(op, op_token(next[op], k), now);
                if !matches!(o, WriteOutcome::Blocked(_)) {
                    next[op] += 1;
                }
                write!(out, "w{op}:{}", write_label(&o)).unwrap();
            } else {
                write!(out, "r:{}", read_label(&s.try_read(0, now))).unwrap();
            }
            for i in 0..2 {
                let f = s.fault(i).map(|f| (f.at, format!("{:?}", f.cause)));
                write!(out, " f{i}={f:?} rx{i}={}", s.received(i)).unwrap();
            }
            if !s.is_faulty(0) && !s.is_faulty(1) {
                write!(out, " sp={},{}", s.space(0), s.space(1)).unwrap();
            }
            writeln!(
                out,
                " enq={} dis={} rd={} fill={} max={}",
                s.enqueued(),
                s.discarded(),
                s.reads(),
                s.fill(0),
                s.max_fill(0)
            )
            .unwrap();
        }
    }
    out
}

/// The replicator counterpart of [`selector_transcript`].
///
/// The stream stays inside the single-fault envelope: a write is only
/// issued while some unlatched queue has room. Outside it (every
/// unlatched queue full) the two-replica replicator used to latch its
/// last queue and swallow the stream, the n-replica one blocks; that
/// state is covered by the `replicator` unit tests, not pinned here.
fn replicator_transcript(cfg: &dyn Fn() -> ReplicatorConfig, seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = String::new();
    let detect_overflow = cfg().detect_overflow;
    for episode in 0..EPISODES {
        let mut r = Replicator::new("r", cfg());
        let starve = pick_starve(&mut rng, EPISODE_OPS);
        let mut seq = 0u64;
        for k in 0..EPISODE_OPS {
            let now = TimeNs::from_ms(episode * 1_000 + k);
            let mut op = pick_op(&mut rng, starve, k);
            let room = |i: usize| !r.is_faulty(i) && r.fill(i) < r.capacity(i);
            if op == 2 && detect_overflow && !room(0) && !room(1) {
                // Drain an unlatched queue instead of forcing the second
                // overflow.
                op = if r.is_faulty(0) { 1 } else { 0 };
            }
            if op == 2 {
                let o = r.try_write(0, op_token(seq, k), now);
                if !matches!(o, WriteOutcome::Blocked(_)) {
                    seq += 1;
                }
                write!(out, "w:{}", write_label(&o)).unwrap();
            } else {
                write!(out, "r{op}:{}", read_label(&r.try_read(op, now))).unwrap();
            }
            for i in 0..2 {
                let f = r.fault(i).map(|f| (f.at, format!("{:?}", f.cause)));
                write!(
                    out,
                    " f{i}={f:?} sp{i}={} c{i}={} fill{i}={} max{i}={}",
                    r.space(i),
                    r.consumed(i),
                    r.fill(i),
                    r.max_fill(i)
                )
                .unwrap();
            }
            writeln!(out, " wr={}", r.writes()).unwrap();
        }
    }
    out
}

const OP_CAPS: [[usize; 2]; 3] = [[4, 4], [4, 6], [2, 5]];

/// Hashes one transcript per (constructor, capacities) cell and folds the
/// cell hashes; the per-cell list is printed on a mismatch so a drift can
/// be localised against the parent.
fn fold_cells(cells: &[(String, u64)]) -> u64 {
    let listing: String = cells.iter().fold(String::new(), |mut s, (name, h)| {
        writeln!(s, "{name} {h:#018x}").unwrap();
        s
    });
    println!("{listing}");
    fnv1a(listing.as_bytes())
}

/// (d) 30 000 selector operations over every config constructor and three
/// capacity shapes.
#[test]
fn selector_op_transcripts_are_pinned() {
    let mut cells = Vec::new();
    for caps in OP_CAPS {
        let configs = [
            ("new", SelectorConfig::new(caps, 3)),
            ("stall_only", SelectorConfig::stall_only(caps, 0)),
            ("without_detection", SelectorConfig::without_detection(caps)),
            (
                "without_stall_detection",
                SelectorConfig::new(caps, 2).without_stall_detection(),
            ),
        ];
        for (name, cfg) in configs {
            let t = selector_transcript(cfg, 0x5E1E_C700 + cells.len() as u64);
            cells.push((format!("selector/{name}/{caps:?}"), fnv1a(t.as_bytes())));
        }
    }
    assert_eq!(fold_cells(&cells), 0xE57F_0B81_6D67_DAB5);
}

/// (d) 22 500 replicator operations over every config constructor and
/// three capacity shapes.
#[test]
fn replicator_op_transcripts_are_pinned() {
    let mut cells = Vec::new();
    for caps in OP_CAPS {
        let configs: [(&str, &dyn Fn() -> ReplicatorConfig); 3] = [
            ("new", &|| ReplicatorConfig::new(caps)),
            ("with_divergence_threshold", &|| {
                ReplicatorConfig::new(caps).with_divergence_threshold(3)
            }),
            ("without_detection", &|| {
                ReplicatorConfig::new(caps).without_detection()
            }),
        ];
        for (name, cfg) in configs {
            let t = replicator_transcript(cfg, 0x4E91_1CA7 + cells.len() as u64);
            cells.push((format!("replicator/{name}/{caps:?}"), fnv1a(t.as_bytes())));
        }
    }
    assert_eq!(fold_cells(&cells), 0x9963_C3F6_52B7_262E);
}

/// One latch record as text: `(at, cause, group)`.
fn latch_label(f: Option<rtft_core::ArbFault>) -> String {
    match f {
        Some(f) => format!("({:?},{:?},{:?})", f.at, f.cause, f.group),
        None => "-".to_owned(),
    }
}

/// Drives a fresh `SampledReplicator` and `HeteroSelector` per episode
/// through one seeded op stream and returns the transcript: outcome, every
/// latch on either side, the counters, fills and the checker's sample
/// statistics after every operation.
///
/// Ops `0..=2` are the replicator's producer write and its main / checker
/// reads, ops `3..=5` the selector's main write, checker vote and consumer
/// read. Checker ops are drawn at about `1/k` of the others' rate. Every
/// episode starves one replicator read side from a seeded op index on, so
/// each reaches at least one latch; the selector side is starved of a
/// write interface or of its consumer in some episodes, and one selector
/// write in 32 carries an off-majority value.
fn sampled_transcript(k: u64, caps: [usize; 2], d: Option<u64>, seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = String::new();
    for episode in 0..EPISODES {
        let mut r = SampledReplicator::new("r", caps, k, d);
        let mut s = match d {
            Some(d) => HeteroSelector::new("s", caps[0], caps[1], d, k),
            None => PolicySelector::from_parts(
                ArbiterLedger::new("s", caps.to_vec(), None, None),
                SampledCheck::new(k),
            ),
        };
        let rep_starved = 1 + rng.next_inclusive(1) as usize;
        let rep_from = rng.next_inclusive(EPISODE_OPS / 2);
        let sel_starved = match rng.next_inclusive(3) {
            0 => None,
            n => Some(2 + n as usize),
        };
        let sel_from = rng.next_inclusive(EPISODE_OPS / 2);
        let (mut writes, mut next) = (0u64, [0u64; 2]);
        let mut latched = false;
        for step in 0..EPISODE_OPS {
            let now = TimeNs::from_ms(episode * 1_000 + step);
            let op = loop {
                let op = rng.next_inclusive(5) as usize;
                if (op == rep_starved && step >= rep_from)
                    || (Some(op) == sel_starved && step >= sel_from)
                    || ((op == 2 || op == 4) && rng.next_inclusive(k - 1) != 0)
                {
                    continue;
                }
                break op;
            };
            match op {
                0 => {
                    let o = r.try_write(0, op_token(writes, step), now);
                    if !matches!(o, WriteOutcome::Blocked(_)) {
                        writes += 1;
                    }
                    write!(out, "w:{}", write_label(&o)).unwrap();
                }
                1 | 2 => {
                    write!(out, "r{}:{}", op - 1, read_label(&r.try_read(op - 1, now))).unwrap()
                }
                3 | 4 => {
                    let i = op - 3;
                    // The main's g-th token carries g; the checker's j-th
                    // vote is its recomputation of sample j, token j·k.
                    let mut value = if i == 0 { next[0] } else { next[1] * k };
                    if rng.next_inclusive(31) == 0 {
                        value ^= 1 << 40;
                    }
                    let token = Token::new(next[i], TimeNs::from_ms(step), Payload::U64(value));
                    let o = s.try_write(i, token, now);
                    if !matches!(o, WriteOutcome::Blocked(_)) {
                        next[i] += 1;
                    }
                    write!(out, "s{i}:{}", write_label(&o)).unwrap();
                }
                _ => write!(out, "c:{}", read_label(&s.try_read(0, now))).unwrap(),
            }
            for i in 0..2 {
                latched |= r.fault(i).is_some() || s.fault(i).is_some();
                write!(
                    out,
                    " rf{i}={} sf{i}={} c{i}={} rfill{i}={} rmax{i}={} rx{i}={} sp{i}={}",
                    latch_label(r.fault(i)),
                    latch_label(s.fault(i)),
                    r.consumed(i),
                    r.fill(i),
                    r.max_fill(i),
                    s.ledger().received(i),
                    s.ledger().space(i),
                )
                .unwrap();
            }
            let p = s.policy();
            writeln!(
                out,
                " rh={} drop={} sh={} fill={} enq={} dis={} smp={} ver={} mis={} lag={}",
                r.healthy_count(),
                r.dropped(),
                s.healthy_count(),
                s.fill(0),
                s.enqueued(),
                s.discarded(),
                p.samples(),
                p.verified(),
                p.mismatches(),
                p.checker_lag(),
            )
            .unwrap();
        }
        assert!(
            latched,
            "k={k} caps={caps:?} d={d:?}: episode {episode} never latched"
        );
    }
    out
}

/// (d) 90 000 operations over the sampled-checker channels: strides 1, 2
/// and 4, three capacity shapes, and the sampled threshold `D_s` off, 1, 2
/// and 3.
#[test]
fn sampled_op_transcripts_are_pinned() {
    let mut cells = Vec::new();
    for k in [1, 2, 4] {
        for caps in OP_CAPS {
            for d in [None, Some(1), Some(2), Some(3)] {
                let t = sampled_transcript(k, caps, d, 0x5A3B_1ED0 + cells.len() as u64);
                cells.push((format!("sampled/k{k}/{caps:?}/{d:?}"), fnv1a(t.as_bytes())));
            }
        }
    }
    assert_eq!(fold_cells(&cells), 0x8B8D_35B3_A6CD_12C8);
}
