//! Folding WAL replay verdicts into the campaign taxonomy.
//!
//! `rtft-serve`'s `replay_verify` re-runs a logged stream through the
//! deterministic pipeline and diffs the produced output digests against
//! the digests the live run recorded. That diff is itself a fault
//! detector — a third detection site next to the replicator and selector,
//! but one that works *after the fact* and catches transients the
//! redundancy may have let through. This module maps a replay verdict
//! onto [`OutcomeClass`] so chaos campaigns and serve reports speak one
//! vocabulary.

use crate::runner::OutcomeClass;

/// The replay verdict for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayVerdict {
    /// Output digests the live run logged.
    pub recorded: u64,
    /// Positions where the replayed digest differed (including digests
    /// missing from either side when lengths disagree).
    pub divergent: u64,
    /// Whether the live run had already latched a replica faulty for this
    /// stream — i.e. the fault was known before replay.
    pub known_faulty: bool,
}

/// Classify a replay verdict.
///
/// * Any divergence is [`OutcomeClass::ReplayDivergence`]: the live
///   execution produced output the deterministic pipeline cannot
///   reproduce, which is the definition of an undetected transient.
/// * No divergence on a stream that *had* latched a fault is
///   [`OutcomeClass::Masked`] — the redundancy delivered the correct
///   stream despite the latch, and replay confirms it.
/// * No divergence and no latch is also [`OutcomeClass::Masked`]
///   vacuously (nothing to mask); campaigns count it as a clean run.
pub fn classify_replay(verdict: ReplayVerdict) -> OutcomeClass {
    if verdict.divergent > 0 {
        OutcomeClass::ReplayDivergence
    } else {
        OutcomeClass::Masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_classifies_as_replay_divergence() {
        let v = ReplayVerdict {
            recorded: 10,
            divergent: 1,
            known_faulty: false,
        };
        assert_eq!(classify_replay(v), OutcomeClass::ReplayDivergence);
        assert_eq!(classify_replay(v).label(), "replay-divergence");
    }

    #[test]
    fn clean_replay_classifies_as_masked() {
        for known_faulty in [false, true] {
            let v = ReplayVerdict {
                recorded: 10,
                divergent: 0,
                known_faulty,
            };
            assert_eq!(classify_replay(v), OutcomeClass::Masked);
        }
    }
}
