//! # rtft-rtc — real-time calculus for the fault-tolerance framework
//!
//! The analytic substrate of the `rtft` reproduction of *"An Efficient Real
//! Time Fault Detection and Tolerance Framework Validated on the Intel SCC
//! Processor"* (Rai et al., DAC 2014).
//!
//! The paper's framework requires **no runtime timekeeping**: every
//! capacity and threshold its replicator/selector channels use is derived
//! *offline* from arrival-curve models of the application interfaces. This
//! crate provides:
//!
//! * [`TimeNs`] — exact integer-nanosecond time arithmetic;
//! * [`Curve`], [`StaircaseCurve`], [`PjdModel`] and combinators — arrival
//!   curves and the ⟨period, jitter, delay⟩ event model of the paper's
//!   Table 1;
//! * [`sup_difference`] / [`first_delta_reaching`] — exact sup/inf searches
//!   over staircase differences;
//! * [`sizing`] — FIFO capacities, initial fills and the divergence
//!   threshold `D` (paper eq. (3)–(5));
//! * [`detection`] — worst-case fault-detection latency bounds (paper
//!   eq. (6)–(8)).
//!
//! # Example: sizing the paper's MJPEG decoder duplication
//!
//! ```
//! use rtft_rtc::{sizing::{DuplicationModel, SizingReport}, PjdModel, TimeNs};
//!
//! let model = DuplicationModel::symmetric(
//!     PjdModel::from_ms(30.0, 2.0, 0.0),   // producer: ~30 fps encoded frames
//!     PjdModel::from_ms(30.0, 2.0, 0.0),   // consumer: display at ~30 fps
//!     [
//!         PjdModel::from_ms(30.0, 5.0, 0.0),   // replica 1 (tight jitter)
//!         PjdModel::from_ms(30.0, 30.0, 0.0),  // replica 2 (design diversity)
//!     ],
//! );
//! let report = SizingReport::analyze(&model)?;
//! assert_eq!(report.replicator_capacity, [2, 3]);    // |R₁|, |R₂| (Table 2)
//! assert_eq!(report.selector_capacity, [4, 6]);      // |S₁|, |S₂|
//! assert_eq!(report.selector_threshold, 4);          // D (eq. (5))
//! assert_eq!(report.selector_detection_bound, TimeNs::from_ms(240));
//! # Ok::<(), rtft_rtc::CurveAnalysisError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod curve;
pub mod detection;
mod pjd;
pub mod sizing;
mod time;

pub use analysis::{
    default_horizon, first_delta_reaching, sup_difference, CurveAnalysisError, Supremum,
};
pub use detection::{DetectionBounds, HeteroBounds};

pub use curve::{Curve, MinCurve, Rate, StaircaseCurve, ZeroCurve};
pub use pjd::{PjdLower, PjdModel, PjdUpper};
pub use time::TimeNs;
