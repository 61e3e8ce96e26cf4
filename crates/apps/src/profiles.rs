//! Table 1 — interface timing profiles of the three applications.
//!
//! The source scan of the paper's Table 1 is partially garbled; the tuples
//! below are reconstructed to be self-consistent with the *clean* numbers
//! of Table 2 (theoretical capacities and initial fills), as derived in
//! `DESIGN.md` §1 and verified analytically by the tests at the bottom of
//! this module.

use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::PjdModel;

/// A complete experiment profile for one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppProfile {
    /// Application name.
    pub name: &'static str,
    /// Interface timing models (Table 1).
    pub model: DuplicationModel,
    /// Bytes per token entering the replicator.
    pub input_token_bytes: usize,
    /// Bytes per token entering the selector.
    pub output_token_bytes: usize,
    /// Tokens processed before fault injection in the paper (scaled down
    /// by the harness; see `EXPERIMENTS.md`).
    pub paper_fault_after_tokens: u64,
}

/// The MJPEG decoder profile: ~30 fps, 10 KB encoded in, 76.8 KB decoded
/// out, replica jitters 5 ms / 30 ms.
pub fn mjpeg() -> AppProfile {
    AppProfile {
        name: "MJPEG",
        model: DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        ),
        input_token_bytes: 10 * 1024,
        output_token_bytes: 76_800,
        paper_fault_after_tokens: 18_000,
    }
}

/// The ADPCM application profile: 3 KB samples every ~6.3 ms, replica
/// jitters 1 ms / 16 ms.
pub fn adpcm() -> AppProfile {
    AppProfile {
        name: "ADPCM",
        model: DuplicationModel::symmetric(
            PjdModel::from_ms(6.3, 1.0, 0.0),
            PjdModel::from_ms(6.3, 1.0, 25.2),
            [
                PjdModel::from_ms(6.3, 1.0, 0.0),
                PjdModel::from_ms(6.3, 16.0, 0.0),
            ],
        ),
        input_token_bytes: 3 * 1024,
        output_token_bytes: 3 * 1024,
        paper_fault_after_tokens: 20_000,
    }
}

/// The H.264 encoder profile (results omitted from the paper for space;
/// reconstructed as a ~30 fps encoder with replica jitters 4 ms / 20 ms).
pub fn h264() -> AppProfile {
    AppProfile {
        name: "H.264",
        model: DuplicationModel::symmetric(
            PjdModel::from_ms(33.3, 2.0, 0.0),
            PjdModel::from_ms(33.3, 2.0, 100.0),
            [
                PjdModel::from_ms(33.3, 4.0, 0.0),
                PjdModel::from_ms(33.3, 20.0, 0.0),
            ],
        ),
        input_token_bytes: 76_800,
        output_token_bytes: 20 * 1024,
        paper_fault_after_tokens: 18_000,
    }
}

/// All three profiles.
pub fn all() -> [AppProfile; 3] {
    [mjpeg(), adpcm(), h264()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_rtc::sizing::SizingReport;
    use rtft_rtc::TimeNs;

    #[test]
    fn mjpeg_profile_reproduces_table2_parameters() {
        let r = SizingReport::analyze(&mjpeg().model).expect("bounded");
        assert_eq!(r.replicator_capacity, [2, 3], "|R1|, |R2|");
        assert_eq!(r.selector_capacity, [4, 6], "|S1|, |S2|");
        assert_eq!(r.selector_initial_fill, [2, 3], "|S1|0, |S2|0");
    }

    #[test]
    fn adpcm_profile_reproduces_table2_parameters() {
        let r = SizingReport::analyze(&adpcm().model).expect("bounded");
        assert_eq!(r.replicator_capacity, [2, 4]);
        assert_eq!(r.selector_capacity, [4, 8]);
        assert_eq!(r.selector_initial_fill, [2, 4]);
    }

    #[test]
    fn h264_profile_is_bounded() {
        let r = SizingReport::analyze(&h264().model).expect("bounded");
        assert!(r.selector_threshold >= 2);
        assert!(r.selector_detection_bound > TimeNs::ZERO);
        assert!(r.selector_detection_bound < TimeNs::from_secs(1));
    }

    #[test]
    fn token_sizes_match_the_paper() {
        assert_eq!(mjpeg().input_token_bytes, 10_240, "~10 KB encoded frame");
        assert_eq!(mjpeg().output_token_bytes, 76_800, "76.8 KB decoded frame");
        assert_eq!(adpcm().input_token_bytes, 3 * 1024, "3 KB sample");
    }

    #[test]
    fn consumer_priming_covers_initial_fill() {
        for p in all() {
            let r = SizingReport::analyze(&p.model).expect("bounded");
            let worst_fill = r.selector_initial_fill[0].max(r.selector_initial_fill[1]);
            // The consumer delay in whole producer periods.
            let priming = p.model.consumer.delay.as_ns() / p.model.producer.period.as_ns();
            assert!(
                priming >= worst_fill - 1,
                "{}: consumer delay primes only {priming} periods for fill {worst_fill}",
                p.name,
            );
        }
    }

    #[test]
    fn detection_bounds_are_tens_to_hundreds_of_ms() {
        // Shape check against the paper: MJPEG bound O(100 ms), ADPCM
        // O(10 ms) — an order of magnitude apart, like Table 2's 180 vs 59.
        let m = SizingReport::analyze(&mjpeg().model).unwrap();
        let a = SizingReport::analyze(&adpcm().model).unwrap();
        assert!(m.selector_detection_bound > a.selector_detection_bound * 2);
        assert!(m.selector_detection_bound <= TimeNs::from_ms(300));
        assert!(a.selector_detection_bound <= TimeNs::from_ms(100));
    }
}
