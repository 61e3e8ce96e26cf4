//! Property-style tests for the replicator/selector state machines and the
//! end-to-end fault-tolerance guarantees (Lemma 1, Theorem 2).
//!
//! Originally `proptest`-based; rewritten as deterministic seeded sweeps
//! driven by [`SplitMix64`] so the workspace builds offline with no
//! external dependencies.

use rtft_core::{
    build_duplicated, build_reference, DuplicationConfig, FaultPlan, JitterStageReplica,
    Replicator, ReplicatorConfig, Selector, SelectorConfig,
};
use rtft_kpn::{ChannelBehavior, Engine, Payload, ReadOutcome, SplitMix64, Token, WriteOutcome};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;

fn tok(seq: u64) -> Token {
    Token::new(seq, TimeNs::from_ms(seq), Payload::U64(seq))
}

fn mjpeg_like_model() -> DuplicationModel {
    DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    )
}

/// The replicator delivers the exact producer sequence to every healthy
/// replica, regardless of how reads interleave.
#[test]
fn replicator_preserves_order_per_queue() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0001);
    for _case in 0..32 {
        let caps = [
            (1 + rng.next_inclusive(4)) as usize,
            (1 + rng.next_inclusive(4)) as usize,
        ];
        let n_ops = 1 + rng.next_inclusive(198);
        let mut r = Replicator::new("r", ReplicatorConfig::new(caps));
        let mut written = 0u64;
        let mut read_seq = [0u64; 2];
        for _ in 0..n_ops {
            match rng.next_inclusive(3) {
                0 | 1 => {
                    // Producer write. With detection on it only ever blocks
                    // on the last healthy queue, which is never latched.
                    match r.try_write(0, tok(written), TimeNs::from_ms(written)) {
                        WriteOutcome::Blocked(_) => assert_eq!(r.healthy_count(), 1),
                        _ => written += 1,
                    }
                }
                i @ (2 | 3) => {
                    let iface = (i - 2) as usize;
                    if let ReadOutcome::Token(t) = r.try_read(iface, TimeNs::ZERO) {
                        assert_eq!(t.seq, read_seq[iface], "queue {iface} out of order");
                        read_seq[iface] += 1;
                    }
                }
                _ => unreachable!(),
            }
        }
        // Every token read was a prefix of what was written.
        assert!(read_seq[0] <= written && read_seq[1] <= written);
    }
}

/// Lemma 1 at the state-machine level: operations on one selector write
/// interface never change the other interface's space counter.
#[test]
fn lemma1_space_isolation() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0002);
    for _case in 0..32 {
        let caps = [
            (1 + rng.next_inclusive(6)) as usize,
            (1 + rng.next_inclusive(6)) as usize,
        ];
        let n_ops = 1 + rng.next_inclusive(98);
        let mut s = Selector::new("s", SelectorConfig::without_detection(caps));
        let mut seq = [0u64; 2];
        for _ in 0..n_ops {
            let iface = rng.next_inclusive(1) as usize;
            let other = 1 - iface;
            let space_other_before = s.space(other);
            let _ = s.try_write(iface, tok(seq[iface]), TimeNs::ZERO);
            seq[iface] += 1;
            assert_eq!(
                s.space(other),
                space_other_before,
                "write on iface {iface} changed space of iface {other}"
            );
        }
    }
}

/// The selector delivers each duplicate pair exactly once, in order,
/// for any healthy interleaving of the two replicas (skew bounded by
/// the queue capacities).
#[test]
fn selector_delivers_each_pair_once() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0003);
    for _case in 0..32 {
        let caps = [
            (2 + rng.next_inclusive(5)) as usize,
            (2 + rng.next_inclusive(5)) as usize,
        ];
        let n_ops = 1 + rng.next_inclusive(298);
        let mut s = Selector::new("s", SelectorConfig::without_detection(caps));
        let mut next_write = [0u64; 2];
        let mut delivered = Vec::new();
        let total = 40u64;
        for _ in 0..n_ops {
            match rng.next_inclusive(2) {
                i @ (0 | 1) => {
                    let iface = i as usize;
                    if next_write[iface] < total {
                        match s.try_write(iface, tok(next_write[iface]), TimeNs::ZERO) {
                            WriteOutcome::Blocked(_) => {}
                            _ => next_write[iface] += 1,
                        }
                    }
                }
                2 => {
                    if let ReadOutcome::Token(t) = s.try_read(0, TimeNs::ZERO) {
                        delivered.push(t.seq);
                    }
                }
                _ => unreachable!(),
            }
        }
        // Drain.
        while let ReadOutcome::Token(t) = s.try_read(0, TimeNs::ZERO) {
            delivered.push(t.seq);
        }
        let expected: Vec<u64> = (0..delivered.len() as u64).collect();
        assert_eq!(
            delivered, expected,
            "pairs must appear exactly once, in order"
        );
        // Everything both replicas completed was delivered.
        let both_done = next_write[0].min(next_write[1]);
        assert!(
            delivered.len() as u64 >= both_done,
            "delivered {} < completed pairs {}",
            delivered.len(),
            both_done
        );
    }
}

/// End-to-end Theorem 2: for random seeds and a random fail-stop time
/// in either replica, the duplicated network delivers exactly the
/// reference value sequence.
#[test]
fn theorem2_value_equivalence_under_fault() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0004);
    for _case in 0..8 {
        let seed_p = rng.next_inclusive(999);
        let seed_r1 = rng.next_inclusive(999);
        let seed_r2 = rng.next_inclusive(999);
        let faulty = rng.next_inclusive(1) as usize;
        let fault_ms = 200 + rng.next_inclusive(1_799);

        let tokens = 100u64;
        let cfg = DuplicationConfig::from_model(mjpeg_like_model())
            .expect("bounded")
            .with_token_count(tokens)
            .with_seeds(seed_p, seed_p + 1)
            .with_payload(Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9))))
            .with_fault(faulty, FaultPlan::fail_stop_at(TimeNs::from_ms(fault_ms)));
        let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([seed_r1, seed_r2]);

        let (dup_net, dup_ids) = build_duplicated(&cfg, &factory);
        let (ref_net, ref_ids) = build_reference(&cfg, &factory);
        let mut dup = Engine::new(dup_net);
        dup.run_until(TimeNs::from_secs(20));
        let mut reference = Engine::new(ref_net);
        reference.run_until(TimeNs::from_secs(20));

        let d: Vec<u64> = dup_ids
            .consumer_arrivals(dup.network())
            .iter()
            .map(|a| a.1)
            .collect();
        let r: Vec<u64> = ref_ids
            .consumer_arrivals(reference.network())
            .iter()
            .map(|a| a.1)
            .collect();
        assert_eq!(
            d.len() as u64,
            tokens,
            "fault at {fault_ms}ms in replica {faulty}"
        );
        assert_eq!(d, r);

        // The healthy replica is never flagged.
        let healthy = 1 - faulty;
        let rep = dup_ids.replicator_faults(dup.network());
        let sel = dup_ids.selector_faults(dup.network());
        assert!(
            rep[healthy].is_none(),
            "healthy replica flagged at replicator"
        );
        assert!(
            sel[healthy].is_none(),
            "healthy replica flagged at selector"
        );
    }
}

/// No false positives: fault-free runs never latch a fault, for any
/// seeds (eq. (5) guarantee).
#[test]
fn no_false_positives_fault_free() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0005);
    for _case in 0..8 {
        let seed_p = rng.next_inclusive(499);
        let seed_r1 = rng.next_inclusive(499);
        let seed_r2 = rng.next_inclusive(499);
        let cfg = DuplicationConfig::from_model(mjpeg_like_model())
            .expect("bounded")
            .with_token_count(80)
            .with_seeds(seed_p, seed_p + 7);
        let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([seed_r1, seed_r2]);
        let (net, ids) = build_duplicated(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(20));
        assert_eq!(ids.replicator_faults(engine.network()), [None, None]);
        assert_eq!(ids.selector_faults(engine.network()), [None, None]);
        assert_eq!(ids.consumer_arrivals(engine.network()).len(), 80);
    }
}

/// Observed queue fills never exceed the analytic capacities (the
/// "Max. Observed fill ≤ Theoretical Capacity" claim of Table 2),
/// fault-free, for any seeds.
#[test]
fn observed_fill_bounded_by_capacity() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de_0006);
    for _case in 0..8 {
        let seed = rng.next_inclusive(499);
        let cfg = DuplicationConfig::from_model(mjpeg_like_model())
            .expect("bounded")
            .with_token_count(80)
            .with_seeds(seed, seed + 13);
        let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([seed + 1, seed + 2]);
        let (net, ids) = build_duplicated(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(20));
        let net = engine.network();
        for i in 0..2 {
            assert!(
                net.channel(ids.replicator).max_fill(i)
                    <= cfg.sizing.replicator_capacity[i] as usize
            );
        }
        assert!(net.channel(ids.selector).max_fill(0) <= cfg.sizing.selector_queue_size() as usize);
    }
}

/// Deterministic regression for the §1.1 motivational example: with
/// detection disabled, a fail-stopped replica deadlocks the whole network;
/// with detection enabled it does not.
#[test]
fn motivational_example_deadlock_vs_detection() {
    let base = DuplicationConfig::from_model(mjpeg_like_model())
        .expect("bounded")
        .with_token_count(100)
        .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
    let factory = JitterStageReplica::from_model(&base.model).with_seeds([3, 4]);

    // Detection on: all tokens delivered.
    let (net, ids) = build_duplicated(&base, &factory);
    let mut engine = Engine::new(net);
    engine.run_until(TimeNs::from_secs(20));
    assert_eq!(ids.consumer_arrivals(engine.network()).len(), 100);

    // Detection off (bare §3.1 rules): the producer blocks on the dead
    // replica's full queue and the consumer starves — far fewer tokens.
    let mut ablated = base.clone();
    ablated.sizing = base.sizing; // same sizing
    let (mut net2, ids2) = {
        // Build with detection disabled by swapping the channels.
        let (net2, ids2) = build_duplicated(&ablated, &factory);
        (net2, ids2)
    };
    // Replace the channels' configs: rebuild via raw channel swap is not
    // supported, so emulate by disabling detection through a dedicated
    // build path: write directly over the channel objects.
    {
        let repl = net2
            .channel_mut(ids2.replicator)
            .as_any_mut()
            .downcast_mut::<Replicator>()
            .expect("replicator");
        *repl = Replicator::new(
            "replicator",
            ReplicatorConfig::new([
                base.sizing.replicator_capacity[0] as usize,
                base.sizing.replicator_capacity[1] as usize,
            ])
            .without_detection(),
        );
        let sel = net2
            .channel_mut(ids2.selector)
            .as_any_mut()
            .downcast_mut::<Selector>()
            .expect("selector");
        *sel = Selector::new(
            "selector",
            SelectorConfig::without_detection([
                base.sizing.selector_capacity[0] as usize,
                base.sizing.selector_capacity[1] as usize,
            ]),
        );
    }
    let mut engine2 = Engine::new(net2);
    engine2.run_until(TimeNs::from_secs(20));
    let delivered = ids2.consumer_arrivals(engine2.network()).len();
    assert!(
        delivered < 100,
        "without detection the network must starve, yet delivered {delivered}"
    );
}
