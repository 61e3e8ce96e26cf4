//! iRCCE-like message passing over the emulated NoC.
//!
//! The paper uses the iRCCE non-blocking communication library (§4.1,
//! Clauss et al., HPCS 2011) on top of the MPBs. This module reproduces
//! the library's programming model — matched in-order send/receive between
//! core pairs — against the [`NocModel`] timing model, under explicit
//! virtual time.
//!
//! Operations take `now` and report completion instants rather than
//! sleeping; the KPN engine integration goes through
//! [`crate::SccPlatform`] instead, which charges the same latencies to the
//! writing process.

use crate::noc::NocModel;
use crate::topology::CoreId;
use rtft_rtc::TimeNs;
use std::collections::{HashMap, VecDeque};

/// An in-flight message.
#[derive(Debug, Clone)]
struct Message {
    payload: Vec<u8>,
    deliverable_at: TimeNs,
}

/// Result of a receive attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// Message delivered: payload and the instant it became available.
    Ready(Vec<u8>, TimeNs),
    /// A message is in flight; ready at the given instant.
    Pending(TimeNs),
    /// No message has been sent on this pair.
    Empty,
}

/// The communication world: matched, in-order channels between core pairs.
#[derive(Debug)]
pub struct RcceWorld {
    noc: NocModel,
    inflight: HashMap<(CoreId, CoreId), VecDeque<Message>>,
    /// Completion time of the previous send per pair — sends on one pair
    /// serialise (one MPB staging area).
    last_send_done: HashMap<(CoreId, CoreId), TimeNs>,
}

impl RcceWorld {
    /// A world over the given NoC model.
    pub fn new(noc: NocModel) -> Self {
        RcceWorld {
            noc,
            inflight: HashMap::new(),
            last_send_done: HashMap::new(),
        }
    }

    /// Blocking send (`iRCCE_send`): returns the instant the sender is done
    /// (which is also when the message becomes receivable — the chunk-wise
    /// copy through the MPB is synchronous).
    pub fn send(&mut self, from: CoreId, to: CoreId, payload: Vec<u8>, now: TimeNs) -> TimeNs {
        let start = now.max(
            self.last_send_done
                .get(&(from, to))
                .copied()
                .unwrap_or(TimeNs::ZERO),
        );
        let done = start + self.noc.message_latency(from, to, payload.len());
        self.last_send_done.insert((from, to), done);
        self.inflight
            .entry((from, to))
            .or_default()
            .push_back(Message {
                payload,
                deliverable_at: done,
            });
        done
    }

    /// Receive attempt (`iRCCE_recv` / the poll inside `iRCCE_irecv`).
    pub fn recv(&mut self, from: CoreId, to: CoreId, now: TimeNs) -> RecvOutcome {
        let Some(queue) = self.inflight.get_mut(&(from, to)) else {
            return RecvOutcome::Empty;
        };
        match queue.front() {
            None => RecvOutcome::Empty,
            Some(m) if m.deliverable_at <= now => {
                let m = queue.pop_front().expect("front exists");
                RecvOutcome::Ready(m.payload, m.deliverable_at)
            }
            Some(m) => RecvOutcome::Pending(m.deliverable_at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> RcceWorld {
        RcceWorld::new(NocModel::paper_boot())
    }

    #[test]
    fn send_then_recv_roundtrip() {
        let mut w = world();
        let (a, b) = (CoreId::new(0), CoreId::new(10));
        let done = w.send(a, b, vec![1, 2, 3], TimeNs::ZERO);
        assert!(done > TimeNs::ZERO);
        // Too early: pending.
        assert_eq!(w.recv(a, b, TimeNs::ZERO), RecvOutcome::Pending(done));
        // At completion: delivered.
        match w.recv(a, b, done) {
            RecvOutcome::Ready(data, at) => {
                assert_eq!(data, vec![1, 2, 3]);
                assert_eq!(at, done);
            }
            other => panic!("expected ready, got {other:?}"),
        }
        assert_eq!(w.recv(a, b, done), RecvOutcome::Empty);
    }

    #[test]
    fn messages_arrive_in_order() {
        let mut w = world();
        let (a, b) = (CoreId::new(3), CoreId::new(40));
        w.send(a, b, vec![1], TimeNs::ZERO);
        w.send(a, b, vec![2], TimeNs::ZERO);
        let t = TimeNs::from_secs(1);
        let first = w.recv(a, b, t);
        let second = w.recv(a, b, t);
        assert!(matches!(first, RecvOutcome::Ready(ref d, _) if d == &vec![1]));
        assert!(matches!(second, RecvOutcome::Ready(ref d, _) if d == &vec![2]));
    }

    #[test]
    fn sends_on_one_pair_serialize() {
        let mut w = world();
        let (a, b) = (CoreId::new(0), CoreId::new(47));
        let d1 = w.send(a, b, vec![0; 3072], TimeNs::ZERO);
        let d2 = w.send(a, b, vec![0; 3072], TimeNs::ZERO);
        assert!(
            d2 >= d1 * 2 / 1,
            "second send waits for the first: {d1} vs {d2}"
        );
        assert_eq!(d2.as_ns(), d1.as_ns() * 2);
    }

    #[test]
    fn distinct_pairs_are_independent() {
        let mut w = world();
        w.send(CoreId::new(0), CoreId::new(1), vec![9], TimeNs::ZERO);
        assert_eq!(
            w.recv(CoreId::new(0), CoreId::new(2), TimeNs::from_secs(1)),
            RecvOutcome::Empty
        );
        assert!(matches!(
            w.recv(CoreId::new(0), CoreId::new(1), TimeNs::from_secs(1)),
            RecvOutcome::Ready(ref d, _) if d == &vec![9]
        ));
    }
}
