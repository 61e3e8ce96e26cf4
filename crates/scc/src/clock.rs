//! Clock domains and per-core timestamp counters.
//!
//! The paper boots the SCC with tiles at 533 MHz, routers at 800 MHz and
//! DDR3 at 800 MHz (§4.1), derives all timing measurements from each
//! core's local timestamp counter (TSC), and synchronises all clocks at
//! application boot "in order to get valid timing results". This module
//! reproduces that measurement methodology: each core's TSC runs at the
//! tile frequency with a per-core boot offset and an optional drift, and
//! [`TscBank::synchronize`] zeroes the offsets the way the boot-time sync
//! does.

use crate::topology::{CoreId, CORE_COUNT};
use rtft_rtc::TimeNs;

/// A fixed-frequency clock domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    freq_hz: u64,
}

impl ClockDomain {
    /// A domain at `freq_hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be positive");
        ClockDomain { freq_hz }
    }

    /// Frequency in hertz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Duration of one cycle (rounded to the nearest picosecond, expressed
    /// in integer picoseconds).
    pub fn cycle_ps(&self) -> u64 {
        1_000_000_000_000 / self.freq_hz
    }

    /// Number of whole cycles elapsed in `t`.
    pub fn cycles_in(&self, t: TimeNs) -> u64 {
        (t.as_ns() as u128 * self.freq_hz as u128 / 1_000_000_000) as u64
    }

    /// Duration of `cycles` cycles (rounded down to whole nanoseconds).
    pub fn duration_of(&self, cycles: u64) -> TimeNs {
        TimeNs::from_ns((cycles as u128 * 1_000_000_000 / self.freq_hz as u128) as u64)
    }
}

/// The boot configuration of the paper's experiments (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SccClocks {
    /// Tile (core) clock: 533 MHz.
    pub tile: ClockDomain,
    /// Router clock: 800 MHz.
    pub router: ClockDomain,
    /// DDR3 memory clock: 800 MHz.
    pub memory: ClockDomain,
}

impl Default for SccClocks {
    fn default() -> Self {
        SccClocks {
            tile: ClockDomain::new(533_000_000),
            router: ClockDomain::new(800_000_000),
            memory: ClockDomain::new(800_000_000),
        }
    }
}

impl SccClocks {
    /// The paper's boot parameters.
    pub fn paper_boot() -> Self {
        Self::default()
    }
}

/// One core's timestamp counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tsc {
    domain: ClockDomain,
    /// Counter value at (global) time zero — models cores released from
    /// reset at slightly different instants.
    boot_offset_cycles: u64,
    /// Frequency error in parts per billion (crystal tolerance).
    drift_ppb: i64,
}

impl Tsc {
    /// A TSC in `domain` with the given boot offset and drift.
    pub fn new(domain: ClockDomain, boot_offset_cycles: u64, drift_ppb: i64) -> Self {
        Tsc {
            domain,
            boot_offset_cycles,
            drift_ppb,
        }
    }

    /// Reads the counter at global instant `now`.
    pub fn read(&self, now: TimeNs) -> u64 {
        let nominal = self.domain.cycles_in(now) as i128;
        let drifted = nominal + nominal * self.drift_ppb as i128 / 1_000_000_000;
        self.boot_offset_cycles + drifted.max(0) as u64
    }
}

/// The TSCs of all 48 cores.
#[derive(Debug, Clone)]
pub struct TscBank {
    tscs: Vec<Tsc>,
}

impl TscBank {
    /// A bank with per-core boot offsets generated from `seed` (cores come
    /// out of reset staggered) and a small deterministic drift.
    pub fn unsynchronized(clocks: &SccClocks, seed: u64) -> Self {
        // Simple SplitMix64 so we avoid a rand dependency here.
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let tscs = (0..CORE_COUNT)
            .map(|_| {
                let offset = next() % 1_000_000; // up to ~1.9 ms of stagger
                let drift = (next() % 40_001) as i64 - 20_000; // ±20 ppm
                Tsc::new(clocks.tile, offset, drift)
            })
            .collect();
        TscBank { tscs }
    }

    /// A bank that is already synchronised (zero offsets, zero drift).
    pub fn synchronized(clocks: &SccClocks) -> Self {
        TscBank {
            tscs: vec![Tsc::new(clocks.tile, 0, 0); CORE_COUNT as usize],
        }
    }

    /// Boot-time synchronisation (§4.1): aligns every core's counter to
    /// core 0's reading at instant `at`, removing the boot offsets (drift
    /// remains — sync cannot fix crystals).
    pub fn synchronize(&mut self, at: TimeNs) {
        let reference = self.tscs[0].read(at);
        for tsc in &mut self.tscs {
            let current = tsc.read(at);
            let correction = reference as i128 - current as i128;
            let new_offset = tsc.boot_offset_cycles as i128 + correction;
            tsc.boot_offset_cycles = new_offset.max(0) as u64;
        }
    }

    /// Reads core `core`'s TSC at instant `now`.
    pub fn read(&self, core: CoreId, now: TimeNs) -> u64 {
        self.tscs[core.index() as usize].read(now)
    }

    /// Maximum pairwise disagreement between core TSC readings at `now`,
    /// in cycles.
    pub fn max_skew(&self, now: TimeNs) -> u64 {
        let readings: Vec<u64> = (0..CORE_COUNT)
            .map(|i| self.tscs[i as usize].read(now))
            .collect();
        let min = readings.iter().min().copied().unwrap_or(0);
        let max = readings.iter().max().copied().unwrap_or(0);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_domain_conversions() {
        let d = ClockDomain::new(533_000_000);
        assert_eq!(d.cycles_in(TimeNs::from_secs(1)), 533_000_000);
        assert_eq!(d.cycles_in(TimeNs::ZERO), 0);
        // Round-trip within one cycle.
        let t = TimeNs::from_ms(30);
        let back = d.duration_of(d.cycles_in(t));
        assert!(t.saturating_sub(back) < TimeNs::from_ns(2));
        // Cycle duration ≈ 1.876 ns.
        assert_eq!(d.cycle_ps(), 1876);
    }

    #[test]
    fn paper_boot_frequencies() {
        let c = SccClocks::paper_boot();
        assert_eq!(c.tile.freq_hz(), 533_000_000);
        assert_eq!(c.router.freq_hz(), 800_000_000);
        assert_eq!(c.memory.freq_hz(), 800_000_000);
    }

    #[test]
    fn tsc_monotonic() {
        let tsc = Tsc::new(ClockDomain::new(533_000_000), 100, 10_000);
        let mut prev = 0;
        for ms in (0..1000).step_by(50) {
            let v = tsc.read(TimeNs::from_ms(ms));
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn drift_changes_rate() {
        let d = ClockDomain::new(533_000_000);
        let fast = Tsc::new(d, 0, 20_000); // +20 ppm
        let slow = Tsc::new(d, 0, -20_000);
        let t = TimeNs::from_secs(10);
        let (f, s) = (fast.read(t), slow.read(t));
        assert!(f > s);
        // 40 ppm over 10 s at 533 MHz ≈ 213 200 cycles.
        assert!((f - s) > 200_000 && (f - s) < 226_000, "{}", f - s);
    }

    #[test]
    fn unsynchronized_bank_has_skew_sync_removes_it() {
        let clocks = SccClocks::paper_boot();
        let mut bank = TscBank::unsynchronized(&clocks, 42);
        let boot = TimeNs::from_ms(100);
        let skew_before = bank.max_skew(boot);
        assert!(skew_before > 0, "staggered reset must cause skew");
        bank.synchronize(boot);
        let skew_after = bank.max_skew(boot);
        assert_eq!(
            skew_after, 0,
            "sync aligns all counters at the sync instant"
        );
        // Drift reintroduces skew slowly afterwards — bounded by ±20 ppm.
        let later = boot + TimeNs::from_secs(10);
        let reintroduced = bank.max_skew(later);
        assert!(reintroduced > 0);
        assert!(reintroduced < 500_000, "{reintroduced}");
        assert!(reintroduced < skew_before || skew_before > 400_000);
    }

    #[test]
    fn synchronized_bank_agrees_exactly() {
        let bank = TscBank::synchronized(&SccClocks::paper_boot());
        assert_eq!(bank.max_skew(TimeNs::from_secs(5)), 0);
        assert_eq!(
            bank.read(CoreId::new(0), TimeNs::from_secs(1)),
            bank.read(CoreId::new(47), TimeNs::from_secs(1))
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let clocks = SccClocks::paper_boot();
        let a = TscBank::unsynchronized(&clocks, 7);
        let b = TscBank::unsynchronized(&clocks, 7);
        let c = TscBank::unsynchronized(&clocks, 8);
        let t = TimeNs::from_ms(10);
        assert_eq!(a.read(CoreId::new(3), t), b.read(CoreId::new(3), t));
        assert_ne!(a.max_skew(t), c.max_skew(t));
    }
}
