//! A synchronous loopback client for the `RTFT/1` protocol.
//!
//! [`Client`] drives one connection: open streams, push token batches,
//! flush them through the server's fault-tolerant pipeline, and collect
//! the pushed `Output` / `Fault` / `Stats` frames. Several streams can be
//! multiplexed on one connection; frames that belong to a stream other
//! than the one a call is waiting on are buffered and handed to that
//! stream's next collect.
//!
//! The client is what the integration tests, the CI smoke example and the
//! throughput bench talk through — it is the reference implementation of
//! the protocol's client side.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rtft_apps::networks::App;
use rtft_kpn::{digest_bytes, SplitMix64};

use crate::error::{ProtocolError, ServeError};
use crate::wire::{
    read_frame, write_frame, BusyReason, Frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

/// A `Busy` refusal, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInfo {
    /// Why the server refused.
    pub reason: BusyReason,
    /// Outstanding fleet jobs at refusal time.
    pub pending: u32,
    /// The fleet's outstanding-job capacity.
    pub capacity: u32,
}

/// One delivered selector output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputEvent {
    /// Zero-based sequence number within the flush.
    pub seq: u64,
    /// Delivery timestamp (virtual ns under DES).
    pub at_ns: u64,
    /// FNV-1a digest of the delivered payload.
    pub digest: u64,
}

/// One pushed fault latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Latched replica index.
    pub replica: u32,
    /// Detection-site kind byte ([`crate::wire::kind_label`]).
    pub kind: u8,
    /// Latch time minus injection time.
    pub detection_latency_ns: u64,
}

/// Per-stream accounting from a `Stats` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Tokens the server has accepted on the stream.
    pub tokens_in: u64,
    /// Tokens delivered back as `Output` frames.
    pub delivered: u64,
    /// Fault frames pushed for the stream.
    pub faults: u64,
    /// Busy refusals the stream has seen.
    pub busy: u64,
    /// Fleet pool queue depth at snapshot time.
    pub queued: u32,
    /// Fleet runs executing at snapshot time.
    pub inflight: u32,
    /// Admitted-but-unfinished fleet jobs at snapshot time.
    pub outstanding: u32,
}

/// A `Durable` acknowledgement: the server's write-ahead log holds the
/// batch, so it survives a server crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableAck {
    /// Tokens the acknowledged batch carried.
    pub tokens: u32,
    /// WAL sequence number of the batch's log record.
    pub seq: u64,
}

/// Everything one flush (or close) exchange produced.
#[derive(Debug, Clone, Default)]
pub struct FlushOutcome {
    /// Selector outputs, in delivery order.
    pub outputs: Vec<OutputEvent>,
    /// Fault latches pushed during the flush.
    pub faults: Vec<FaultEvent>,
    /// Durability acknowledgements read during the exchange (WAL-enabled
    /// servers only).
    pub durable: Vec<DurableAck>,
    /// The refusal, if the flush was refused.
    pub busy: Option<BusyInfo>,
    /// The terminal stats snapshot (absent only on refusal).
    pub stats: Option<StreamStats>,
}

impl FlushOutcome {
    /// `true` if the batch was admitted (no `Busy` refusal).
    pub fn admitted(&self) -> bool {
        self.busy.is_none()
    }
}

/// Client-side retry policy for refused flushes: bounded exponential
/// backoff with seeded jitter.
///
/// The policy drives [`Client::send_flush_with_retry`]. Retries are
/// **lossless by protocol design**: a refused flush leaves the batch
/// buffered server-side, so a retry re-sends only the 9-byte `Flush`
/// frame — token payloads cross the wire exactly once, and an `Accepted`
/// batch is never re-sent.
///
/// Which refusals are retryable:
/// - `QueueFull` — fleet backpressure; the batch stays buffered.
/// - `QuotaExceeded` — another flush will free buffered quota.
/// - `RateLimited` — retry after the server's hint; the wait is
///   `max(backoff, hint)`, so the hint is always honored even when it
///   exceeds [`RetryPolicy::cap`] (the cap bounds only the policy's own
///   exponential term).
/// - `ShuttingDown` / `TenantDraining` — **not** retryable: the refusal
///   is terminal for this server life / tenant life, so the policy gives
///   up immediately and surfaces the `Busy`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Exponential growth factor per retry.
    pub multiplier: u32,
    /// Upper bound on the exponential term (not on a `RateLimited` hint).
    pub cap: Duration,
    /// Seed for the jitter stream; jitter is deterministic in
    /// `(seed, stream, retry index)`.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            multiplier: 2,
            cap: Duration::from_millis(250),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `retry` (zero-based) of `stream`, given the
    /// server's retry-after hint in milliseconds (0 = no hint): the
    /// capped exponential term or the hint, whichever is larger, plus up
    /// to 50% seeded jitter to decorrelate simultaneous retriers.
    pub fn wait_before(&self, stream: u32, retry: u32, hint_ms: u64) -> Duration {
        let mut backoff = self.base;
        for _ in 0..retry {
            backoff = backoff.saturating_mul(self.multiplier.max(1)).min(self.cap);
        }
        let wait = backoff.max(Duration::from_millis(hint_ms));
        let mut rng = SplitMix64::seed_from_u64(self.seed ^ ((stream as u64) << 32) ^ retry as u64);
        let jitter_ns = rng.next_inclusive((wait.as_nanos() as u64) / 2);
        wait + Duration::from_nanos(jitter_ns)
    }
}

/// What [`Client::send_flush_with_retry`] produced across all attempts.
#[derive(Debug, Clone, Default)]
pub struct RetriedFlush {
    /// The final attempt's outcome, with `durable` acknowledgements
    /// accumulated across every attempt. `outcome.busy` is `Some` only
    /// when the policy gave up (attempts exhausted or a non-retryable
    /// refusal).
    pub outcome: FlushOutcome,
    /// Attempts made (1 = admitted first try).
    pub attempts: u32,
    /// Refusals that were retried (`attempts - 1` unless the last
    /// attempt was itself refused).
    pub retries: u32,
    /// Total time slept between attempts.
    pub waited: Duration,
}

/// The server's answer to an acknowledged token batch
/// ([`Client::send_tokens_acked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokensAck {
    /// Accepted and durable in the write-ahead log.
    Durable(DurableAck),
    /// Refused at admission (queue quota, draining tenant): the client
    /// still holds the batch, nothing was accepted or billed.
    Refused(BusyInfo),
}

/// Result of [`Client::open_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenOutcome {
    /// The server accepted and assigned this stream id.
    Stream(u32),
    /// The server is shutting down and refused the stream.
    Busy(BusyInfo),
}

impl OpenOutcome {
    /// The stream id, panicking on refusal (test convenience).
    pub fn expect_stream(self) -> u32 {
        match self {
            OpenOutcome::Stream(id) => id,
            OpenOutcome::Busy(info) => panic!("stream refused: {:?}", info),
        }
    }
}

/// One `RTFT/1` connection.
#[derive(Debug)]
pub struct Client {
    /// Reads are buffered — a settle arrives as one segment of many small
    /// frames — writes go to the socket directly (`get_mut`).
    sock: BufReader<TcpStream>,
    max_frame: u32,
    /// Server-push frames read while waiting for a different stream.
    pending: VecDeque<Frame>,
}

impl Client {
    /// Connects, performs the `Hello` handshake, and returns the ready
    /// client. `name` is a diagnostic label echoed in server logs.
    pub fn connect(addr: impl ToSocketAddrs, name: &str) -> Result<Client, ServeError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true).ok();
        let mut sock = BufReader::new(sock);
        write_frame(
            sock.get_mut(),
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                client: name.to_string(),
            },
        )?;
        let (frame, _) = read_frame(&mut sock, DEFAULT_MAX_FRAME)?;
        match frame {
            Frame::Accepted { .. } => Ok(Client {
                sock,
                max_frame: DEFAULT_MAX_FRAME,
                pending: VecDeque::new(),
            }),
            other => Err(ProtocolError::UnexpectedFrame {
                expected: "Accepted",
                got: other.name(),
            }
            .into()),
        }
    }

    /// Opens a fault-tolerant stream for `app`. `redundancy` selects the
    /// structure: `2` = duplicated timing selector, `3` = tri-modular
    /// value voting, or a [`crate::redundancy_byte`] byte for the
    /// sampled-checker structure at a power-of-two stride.
    pub fn open_stream(&mut self, app: App, redundancy: u8) -> Result<OpenOutcome, ServeError> {
        let app = App::ALL
            .iter()
            .position(|a| *a == app)
            .expect("App::ALL contains every variant") as u8;
        write_frame(self.sock.get_mut(), &Frame::OpenStream { app, redundancy })?;
        loop {
            match self.next_frame()? {
                Frame::Accepted { id } => return Ok(OpenOutcome::Stream(id)),
                Frame::Busy {
                    stream: u32::MAX,
                    reason,
                    pending,
                    capacity,
                } => {
                    return Ok(OpenOutcome::Busy(BusyInfo {
                        reason,
                        pending,
                        capacity,
                    }))
                }
                other => self.pending.push_back(other),
            }
        }
    }

    /// Sends a batch of raw token payloads to `stream`. The server
    /// buffers them until the next flush; nothing is pushed back yet.
    /// (Against a WAL-enabled server the `Durable` ack arrives later and
    /// is surfaced by the next collect; use
    /// [`Client::send_tokens_durable`] to wait for it here.)
    ///
    /// Payloads are *borrowed* — `&[Vec<u8>]`, `&[&[u8]]`, anything
    /// slice-shaped — and written with gather I/O; the send path never
    /// copies or allocates per payload.
    pub fn send_tokens(
        &mut self,
        stream: u32,
        payloads: &[impl AsRef<[u8]>],
    ) -> Result<(), ServeError> {
        crate::wire::write_tokens(self.sock.get_mut(), stream, payloads)?;
        Ok(())
    }

    /// Sends a batch of raw token payloads to `stream` and blocks until
    /// the server's `Durable` acknowledgement: on return the batch is in
    /// the server's write-ahead log and survives a server crash. Only
    /// valid against a WAL-enabled server — without one, no `Durable`
    /// frame ever arrives and this would block until the next push.
    pub fn send_tokens_durable(
        &mut self,
        stream: u32,
        payloads: &[impl AsRef<[u8]>],
    ) -> Result<DurableAck, ServeError> {
        crate::wire::write_tokens(self.sock.get_mut(), stream, payloads)?;
        // Scan anything already buffered first, then the socket.
        let mut scanned: Vec<Frame> = Vec::new();
        loop {
            let frame = if let Some(f) = self.pending.pop_front() {
                f
            } else {
                self.next_frame()?
            };
            match frame {
                Frame::Durable {
                    stream: s,
                    tokens,
                    seq,
                } if s == stream => {
                    for f in scanned.into_iter().rev() {
                        self.pending.push_front(f);
                    }
                    return Ok(DurableAck { tokens, seq });
                }
                other => scanned.push(other),
            }
        }
    }

    /// Blocks until a `Busy` frame for `stream` arrives and returns it,
    /// buffering every other frame. This is how a refusal answered to a
    /// `Tokens` frame (tenant queue quota, draining tenant) is consumed:
    /// unlike a flush refusal it arrives outside any collect exchange, so
    /// a later flush or close would otherwise swallow it as its own.
    pub fn recv_busy(&mut self, stream: u32) -> Result<BusyInfo, ServeError> {
        let mut requeue = VecDeque::new();
        loop {
            let frame = if let Some(f) = self.pending.pop_front() {
                f
            } else {
                self.next_frame()?
            };
            match frame {
                Frame::Busy {
                    stream: s,
                    reason,
                    pending,
                    capacity,
                } if s == stream => {
                    requeue.extend(self.pending.drain(..));
                    self.pending = requeue;
                    return Ok(BusyInfo {
                        reason,
                        pending,
                        capacity,
                    });
                }
                other => requeue.push_back(other),
            }
        }
    }

    /// Flushes `stream`'s buffered tokens through its pipeline and
    /// collects everything the run pushes back, up to the terminal
    /// `Stats` — or a `Busy` refusal, after which the tokens remain
    /// buffered server-side and the flush can simply be retried.
    pub fn flush(&mut self, stream: u32) -> Result<FlushOutcome, ServeError> {
        write_frame(self.sock.get_mut(), &Frame::Flush { stream })?;
        self.collect(stream)
    }

    /// Flushes `stream` under `policy`: on a retryable `Busy` refusal
    /// (`QueueFull`, `QuotaExceeded`, `RateLimited`) the client sleeps
    /// the policy's backoff — honoring a `RateLimited` retry-after hint —
    /// and re-sends **only** the `Flush` frame; the refused batch stayed
    /// buffered server-side, so no token ever crosses the wire twice.
    /// Returns when an attempt is admitted (its outputs/faults/stats in
    /// `outcome`), the refusal is non-retryable (`ShuttingDown`,
    /// `TenantDraining`), or attempts run out — in the latter two cases
    /// `outcome.busy` carries the last refusal.
    pub fn send_flush_with_retry(
        &mut self,
        stream: u32,
        policy: &RetryPolicy,
    ) -> Result<RetriedFlush, ServeError> {
        let mut result = RetriedFlush::default();
        let mut durable: Vec<DurableAck> = Vec::new();
        loop {
            let mut outcome = self.flush(stream)?;
            result.attempts += 1;
            durable.append(&mut outcome.durable);
            let retryable = match &outcome.busy {
                None => {
                    // Admitted: every output below is from this attempt;
                    // earlier refused attempts delivered nothing.
                    outcome.durable = durable;
                    result.outcome = outcome;
                    return Ok(result);
                }
                Some(info) => matches!(
                    info.reason,
                    BusyReason::QueueFull | BusyReason::QuotaExceeded | BusyReason::RateLimited
                ),
            };
            if !retryable || result.attempts >= policy.max_attempts.max(1) {
                outcome.durable = durable;
                result.outcome = outcome;
                return Ok(result);
            }
            let busy = outcome.busy.expect("refused attempt carries Busy");
            // RateLimited refusals ship the retry-after hint as whole
            // milliseconds in `pending` (see crate::wire).
            let hint_ms = match busy.reason {
                BusyReason::RateLimited => busy.pending as u64,
                _ => 0,
            };
            let wait = policy.wait_before(stream, result.retries, hint_ms);
            result.retries += 1;
            result.waited += wait;
            std::thread::sleep(wait);
        }
    }

    /// Sends a token batch and blocks for the server's answer: `Durable`
    /// (accepted and logged) or `Busy` (refused at admission — the
    /// client still holds the batch). Only valid against a WAL-enabled
    /// server: without one an *accepted* batch is never acknowledged and
    /// this would block until the next push. Frames for other exchanges
    /// are buffered, as everywhere else.
    pub fn send_tokens_acked(
        &mut self,
        stream: u32,
        payloads: &[impl AsRef<[u8]>],
    ) -> Result<TokensAck, ServeError> {
        crate::wire::write_tokens(self.sock.get_mut(), stream, payloads)?;
        let mut scanned: Vec<Frame> = Vec::new();
        loop {
            let frame = if let Some(f) = self.pending.pop_front() {
                f
            } else {
                self.next_frame()?
            };
            let ack = match frame {
                Frame::Durable {
                    stream: s,
                    tokens,
                    seq,
                } if s == stream => TokensAck::Durable(DurableAck { tokens, seq }),
                Frame::Busy {
                    stream: s,
                    reason,
                    pending,
                    capacity,
                } if s == stream => TokensAck::Refused(BusyInfo {
                    reason,
                    pending,
                    capacity,
                }),
                other => {
                    scanned.push(other);
                    continue;
                }
            };
            for f in scanned.into_iter().rev() {
                self.pending.push_front(f);
            }
            return Ok(ack);
        }
    }

    /// Sets (or clears) the socket's read timeout — lets callers bound
    /// how long a collect can block on a wedged server.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.sock.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Closes `stream`: the server drains its in-flight flushes and
    /// replies with a final `Stats` accounting for every accepted token.
    pub fn close(&mut self, stream: u32) -> Result<FlushOutcome, ServeError> {
        write_frame(self.sock.get_mut(), &Frame::Close { stream })?;
        self.collect(stream)
    }

    /// Reads frames (starting with any buffered ones) until `stream`'s
    /// terminal `Stats` or `Busy`; frames for other streams are buffered.
    fn collect(&mut self, stream: u32) -> Result<FlushOutcome, ServeError> {
        let mut outcome = FlushOutcome::default();
        let mut requeue = VecDeque::new();
        loop {
            let frame = if let Some(f) = self.pending.pop_front() {
                f
            } else {
                self.next_frame()?
            };
            match frame {
                Frame::Output {
                    stream: s,
                    seq,
                    at_ns,
                    digest,
                } if s == stream => outcome.outputs.push(OutputEvent { seq, at_ns, digest }),
                Frame::Fault {
                    stream: s,
                    replica,
                    kind,
                    detection_latency_ns,
                } if s == stream => outcome.faults.push(FaultEvent {
                    replica,
                    kind,
                    detection_latency_ns,
                }),
                Frame::Durable {
                    stream: s,
                    tokens,
                    seq,
                } if s == stream => outcome.durable.push(DurableAck { tokens, seq }),
                Frame::Busy {
                    stream: s,
                    reason,
                    pending,
                    capacity,
                } if s == stream => {
                    outcome.busy = Some(BusyInfo {
                        reason,
                        pending,
                        capacity,
                    });
                    break;
                }
                Frame::Stats {
                    stream: s,
                    tokens_in,
                    delivered,
                    faults,
                    busy,
                    queued,
                    inflight,
                    outstanding,
                } if s == stream => {
                    outcome.stats = Some(StreamStats {
                        tokens_in,
                        delivered,
                        faults,
                        busy,
                        queued,
                        inflight,
                        outstanding,
                    });
                    break;
                }
                other => requeue.push_back(other),
            }
        }
        // Frames for other streams stay queued, in arrival order.
        requeue.extend(self.pending.drain(..));
        self.pending = requeue;
        Ok(outcome)
    }

    fn next_frame(&mut self) -> Result<Frame, ServeError> {
        let (frame, _) = read_frame(&mut self.sock, self.max_frame)?;
        Ok(frame)
    }
}

/// `count` realistic token payloads for `app` — the same seeded workload
/// items (encoded MJPEG frames, PCM blocks, raw video frames) the
/// campaign drivers use, as raw bytes ready for [`Client::send_tokens`].
pub fn workload(app: App, seed: u64, count: usize) -> Vec<Vec<u8>> {
    let gen = app.payload_generator(seed);
    (0..count)
        .map(|n| {
            gen(n as u64)
                .as_bytes()
                .map(|b| b.to_vec())
                .unwrap_or_default()
        })
        .collect()
}

/// The digest the server will report for a token with these payload
/// bytes — lets clients verify `Output` frames end-to-end.
pub fn digest_of(bytes: &[u8]) -> u64 {
    digest_bytes(bytes)
}
