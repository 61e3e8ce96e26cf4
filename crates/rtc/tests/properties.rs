//! Property-style tests for the real-time calculus core.
//!
//! Originally written with `proptest`; rewritten as deterministic seeded
//! sweeps so the workspace builds with zero external dependencies. Each
//! test enumerates a fixed pseudo-random case set from a SplitMix64
//! stream, so failures reproduce exactly and no registry access is
//! needed.

use rtft_rtc::{
    detection, first_delta_reaching, sizing, sup_difference, Curve, PjdModel, StaircaseCurve,
    TimeNs, ZeroCurve,
};

/// Minimal SplitMix64 (same constants as `rtft_kpn::SplitMix64`, inlined
/// here because `rtft-rtc` sits below the KPN crate in the dependency DAG).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (simple modulo; bias is irrelevant for tests).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A pseudo-random PJD model: periods 0.1–100 ms, jitter 0–3 periods.
fn pjd_case(rng: &mut Rng) -> PjdModel {
    let p = rng.range(1, 1_000);
    let j = rng.range(0, 3_000);
    PjdModel::new(
        TimeNs::from_us(p * 100),
        TimeNs::from_us(j * 100),
        TimeNs::ZERO,
    )
}

/// Curves are monotone and upper dominates lower at every probe point.
#[test]
fn pjd_curves_monotone_and_ordered() {
    let mut rng = Rng::new(0x5eed_0001);
    for _case in 0..32 {
        let m = pjd_case(&mut rng);
        let mut ds: Vec<TimeNs> = (0..16)
            .map(|_| TimeNs::from_ns(rng.range(0, 10_000_000_000 - 1)))
            .collect();
        ds.sort_unstable();
        let (u, l) = (m.upper(), m.lower());
        let mut prev_u = 0;
        let mut prev_l = 0;
        for d in ds {
            let (vu, vl) = (u.eval(d), l.eval(d));
            assert!(vu >= prev_u, "upper curve must be non-decreasing ({m:?})");
            assert!(vl >= prev_l, "lower curve must be non-decreasing ({m:?})");
            assert!(vu >= vl, "upper must dominate lower ({m:?})");
            prev_u = vu;
            prev_l = vl;
        }
    }
}

/// The upper curve is subadditive for zero-jitter (strictly periodic)
/// models: α(a + b) ≤ α(a) + α(b).
#[test]
fn periodic_upper_is_subadditive() {
    let mut rng = Rng::new(0x5eed_0002);
    for _case in 0..64 {
        let p = rng.range(1, 500);
        let m = PjdModel::periodic(TimeNs::from_us(p * 100));
        let u = m.upper();
        let ta = TimeNs::from_ns(rng.range(0, 1_000_000_000 - 1));
        let tb = TimeNs::from_ns(rng.range(0, 1_000_000_000 - 1));
        assert!(
            u.eval(ta + tb) <= u.eval(ta) + u.eval(tb),
            "subadditivity violated: P={p}00us a={ta} b={tb}"
        );
    }
}

/// The lower curve is superadditive: α(a + b) ≥ α(a) + α(b).
#[test]
fn lower_is_superadditive() {
    let mut rng = Rng::new(0x5eed_0003);
    for _case in 0..64 {
        let m = pjd_case(&mut rng);
        let l = m.lower();
        let ta = TimeNs::from_ns(rng.range(0, 1_000_000_000 - 1));
        let tb = TimeNs::from_ns(rng.range(0, 1_000_000_000 - 1));
        assert!(
            l.eval(ta + tb) >= l.eval(ta) + l.eval(tb),
            "superadditivity violated: {m:?} a={ta} b={tb}"
        );
    }
}

/// Jump points really are the only places the curves change: between
/// consecutive jump points the value is constant.
#[test]
fn jump_points_are_complete() {
    let mut rng = Rng::new(0x5eed_0004);
    for _case in 0..24 {
        let m = pjd_case(&mut rng);
        let horizon = m.period * 12 + m.jitter;
        for curve in [&m.upper() as &dyn Curve, &m.lower() as &dyn Curve] {
            let mut jumps = curve.jump_points(horizon);
            jumps.push(horizon);
            jumps.sort_unstable();
            jumps.dedup();
            let mut prev = TimeNs::ZERO;
            for b in jumps {
                // The curve may change at a jump point (lower curves attain
                // their next value exactly at b) or just after it (upper
                // curves are left-continuous). Strictly between probe points
                // {prev, prev+1} and {b} it must be constant.
                let lo = prev.saturating_add(TimeNs::from_ns(1));
                let hi = TimeNs::from_ns(b.as_ns().saturating_sub(1));
                if hi > lo {
                    assert_eq!(
                        curve.eval(lo),
                        curve.eval(hi),
                        "curve changed strictly between jump points {prev} and {b} ({m:?})"
                    );
                }
                prev = b;
            }
        }
    }
}

/// FIFO capacity really prevents overflow: simulating the worst-case
/// producer pattern (all events as early as jitter allows) against the
/// worst-case consumer (all events as late as possible) never exceeds
/// the computed capacity.
#[test]
fn fifo_capacity_is_sufficient() {
    let mut rng = Rng::new(0x5eed_0005);
    for _case in 0..48 {
        let p = rng.range(1, 200);
        let jp = rng.range(0, 400);
        let jc = rng.range(0, 400);
        let period = TimeNs::from_us(p * 100);
        let producer = PjdModel::new(period, TimeNs::from_us(jp * 100), TimeNs::ZERO);
        let consumer = PjdModel::new(period, TimeNs::from_us(jc * 100), TimeNs::ZERO);
        let cap = sizing::fifo_capacity(&producer, &consumer).expect("equal rates are bounded");

        // Worst-case trace: producer event n at n·P (early), consumer event
        // n completes at n·P + Jc (late). Backlog at time t:
        // arrivals(t) − departures(t).
        let n_events = 200u64;
        let mut max_backlog = 0i64;
        for n in 0..n_events {
            let arrival = period * n;
            // arrivals strictly ≤ `arrival`: n + 1 (events 0..=n)
            let arrivals = (n + 1) as i64;
            // departures with departure time ≤ arrival:
            // event m departs at m·P + Jc.
            let jc_t = TimeNs::from_us(jc * 100);
            let departures = if arrival < jc_t {
                0
            } else {
                ((arrival - jc_t).div_floor(period) + 1) as i64
            };
            max_backlog = max_backlog.max(arrivals - departures);
        }
        assert!(
            max_backlog as u64 <= cap,
            "observed worst-case backlog {max_backlog} exceeds computed capacity {cap}"
        );
    }
}

/// Initial fill really prevents underflow (eq. (4)): the consumer reads as
/// early as its jitter allows (read m at max(0, m·P − Jc), so the first
/// ⌊Jc/P⌋ + 1 reads all fall at time 0) while the feeding replica writes
/// as late as its jitter allows (write n at (n+1)·P + Jp, the trace that
/// realises α^l from time 0). A queue pre-filled with the computed fill
/// never runs dry, and on this trace one token fewer always does.
#[test]
fn initial_fill_prevents_underflow() {
    let mut rng = Rng::new(0x5eed_0008);
    for _case in 0..48 {
        let p = rng.range(1, 200);
        let jp = rng.range(0, 400);
        let jc = rng.range(0, 400);
        let period = TimeNs::from_us(p * 100);
        let (jp_t, jc_t) = (TimeNs::from_us(jp * 100), TimeNs::from_us(jc * 100));
        let replica = PjdModel::new(period, jp_t, TimeNs::ZERO);
        let consumer = PjdModel::new(period, jc_t, TimeNs::ZERO);
        let fill = sizing::initial_fill(&consumer, &replica).expect("equal rates are bounded");

        // Smallest pre-fill that serves every read: by read m the consumer
        // has taken m + 1 tokens, and the writes at or before that instant
        // have landed (a write and a read at one instant: write first).
        let n_events = 200 + (jp + jc) / p;
        let mut needed = 0u64;
        for m in 0..n_events {
            let read = (period * m).saturating_sub(jc_t);
            let written = if read < period + jp_t {
                0
            } else {
                (read - jp_t).div_floor(period)
            };
            needed = needed.max(m + 1 - written);
        }
        assert!(
            needed <= fill,
            "worst-case trace needs {needed} tokens, computed fill is {fill} (P={period}, Jp={jp_t}, Jc={jc_t})"
        );
        assert_eq!(
            needed, fill,
            "fill {fill} is not tight: {needed} suffice (P={period}, Jp={jp_t}, Jc={jc_t})"
        );
    }
}

/// The divergence threshold guarantees no false positives: for any two
/// healthy event traces consistent with the replica models, the running
/// count difference stays strictly below D.
#[test]
fn threshold_has_no_false_positives() {
    let mut rng = Rng::new(0x5eed_0006);
    for _case in 0..32 {
        let p = rng.range(1, 100);
        let j1 = rng.range(0, 300);
        let j2 = rng.range(0, 300);
        let period = TimeNs::from_us(p * 100);
        let r1 = PjdModel::new(period, TimeNs::from_us(j1 * 100), TimeNs::ZERO);
        let r2 = PjdModel::new(period, TimeNs::from_us(j2 * 100), TimeNs::ZERO);
        let d = sizing::divergence_threshold(&r1, &r2).expect("equal rates");

        // Random traces consistent with the models: event n at n·P + U(0..J).
        let trace = |m: &PjdModel, rng: &mut Rng| -> Vec<TimeNs> {
            (0..150u64)
                .map(|n| {
                    let jit = if m.jitter == TimeNs::ZERO {
                        0
                    } else {
                        rng.range(0, m.jitter.as_ns())
                    };
                    m.period * n + TimeNs::from_ns(jit)
                })
                .collect()
        };
        let t1 = trace(&r1, &mut rng);
        let t2 = trace(&r2, &mut rng);
        // Count difference at every event time.
        let count_at = |tr: &[TimeNs], t: TimeNs| tr.iter().filter(|x| **x <= t).count() as i64;
        for t in t1.iter().chain(t2.iter()) {
            let diff = (count_at(&t1, *t) - count_at(&t2, *t)).unsigned_abs();
            assert!(
                diff < d,
                "divergence {diff} reached threshold {d} fault-free"
            );
        }
    }
}

/// Detection bound dominates any simulated fail-stop detection time.
#[test]
fn fail_stop_bound_is_sound() {
    let mut rng = Rng::new(0x5eed_0007);
    for _case in 0..64 {
        let p = rng.range(1, 100);
        let j = rng.range(0, 300);
        let d = rng.range(1, 6);
        let healthy = PjdModel::new(
            TimeNs::from_us(p * 100),
            TimeNs::from_us(j * 100),
            TimeNs::ZERO,
        );
        let bound = detection::fail_stop_detection_bound(&[healthy, healthy], d);
        let surplus = detection::detection_surplus(d);

        // Healthy replica produces events at n·P + U(0..J); the fault occurs
        // at time 0 with the faulty replica ahead by (D−1) tokens (worst
        // case). Detection at the surplus-th healthy event.
        let jit = if healthy.jitter == TimeNs::ZERO {
            0
        } else {
            rng.range(0, healthy.jitter.as_ns())
        };
        // Event n (1-based) occurs no later than n·P + J; detection happens
        // at event number `surplus` counted from the fault.
        let detect_at = healthy.period * surplus + TimeNs::from_ns(jit);
        assert!(
            detect_at <= bound,
            "simulated detection {detect_at} exceeded bound {bound}"
        );
    }
}

#[test]
fn sup_matches_bruteforce_on_fine_grid() {
    // Brute-force cross-check on a coarse-grained model where exhaustive
    // nanosecond enumeration is feasible at microsecond granularity.
    let a = PjdModel::new(TimeNs::from_us(7), TimeNs::from_us(3), TimeNs::ZERO);
    let b = PjdModel::new(TimeNs::from_us(7), TimeNs::from_us(10), TimeNs::ZERO);
    let horizon = TimeNs::from_us(500);
    let sup = sup_difference(&a.upper(), &b.lower(), horizon).expect("bounded");
    let mut brute = 0u64;
    for ns in 0..=horizon.as_ns() {
        let t = TimeNs::from_ns(ns);
        brute = brute.max(a.upper().eval(t).saturating_sub(b.lower().eval(t)));
    }
    assert_eq!(sup.value, brute);
}

#[test]
fn first_delta_matches_bruteforce() {
    let healthy = PjdModel::new(TimeNs::from_us(9), TimeNs::from_us(4), TimeNs::ZERO);
    let residual = StaircaseCurve::new(vec![(TimeNs::ZERO, 2)]);
    let horizon = TimeNs::from_us(2_000);
    let target = 9;
    let got = first_delta_reaching(&healthy.lower(), &residual, target, horizon);
    let mut brute = None;
    for ns in 0..=horizon.as_ns() {
        let t = TimeNs::from_ns(ns);
        if healthy.lower().eval(t).saturating_sub(residual.eval(t)) >= target {
            brute = Some(t);
            break;
        }
    }
    assert_eq!(got, brute);
}

#[test]
fn zero_curve_never_reaches_positive_target() {
    assert_eq!(
        first_delta_reaching(&ZeroCurve, &ZeroCurve, 1, TimeNs::from_secs(1)),
        None
    );
}
