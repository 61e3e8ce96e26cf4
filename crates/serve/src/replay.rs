//! Replay verification: the WAL as an after-the-fact fault detector.
//!
//! Every flush job the server runs is deterministic in `(config seed,
//! stream id, app, redundancy, batch payloads)` — all of which the
//! write-ahead log captures. [`replay_verify`] therefore re-runs every
//! logged flush through [`rtft_fleet::execute_spec`] with the exact spec
//! the live server built (`prepare_plan` once per stream, `build_spec`
//! per batch) and compares the produced
//! output digests against the digests the live run logged. Any
//! difference means the *original* execution diverged from the
//! deterministic pipeline — a transient fault (bit flip, scheduling
//! corruption, torn write of the result path) that the in-band detectors
//! did not catch. This is the paper's output-equivalence check lifted to
//! a third, offline detection site.
//!
//! The scan is read-only ([`rtft_wal::read_log`]) so a suspect log can
//! be examined in place.

use std::path::Path;

use rtft_apps::networks::App;
use rtft_obs::json::{array, JsonObject};
use rtft_wal::{read_log, WalRecord};

use crate::error::ServeError;
use crate::server::{build_spec, prepare_plan, ServerConfig};

/// One stream's replay verdict.
#[derive(Debug, Clone)]
pub struct StreamReplay {
    /// Stream id from the log.
    pub stream: u32,
    /// Application label.
    pub app: &'static str,
    /// Replica count the stream ran under.
    pub redundancy: u8,
    /// Output digests the live run logged.
    pub recorded: u64,
    /// Digests the deterministic replay reproduced.
    pub replayed: u64,
    /// Positions where recorded and replayed disagree (positional
    /// mismatches plus any length difference).
    pub divergent: u64,
    /// The first disagreement: `(cumulative position, recorded digest,
    /// replayed digest)`; digests are 0 where one side has no value.
    pub first_divergence: Option<(u64, u64, u64)>,
}

impl StreamReplay {
    /// Renders the verdict as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .u64_field("stream", self.stream as u64)
            .str_field("app", self.app)
            .u64_field("redundancy", self.redundancy as u64)
            .u64_field("recorded", self.recorded)
            .u64_field("replayed", self.replayed)
            .u64_field("divergent", self.divergent);
        if let Some((pos, rec, rep)) = self.first_divergence {
            obj = obj
                .u64_field("first_divergence_at", pos)
                .u64_field("first_divergence_recorded", rec)
                .u64_field("first_divergence_replayed", rep);
        }
        obj.finish()
    }
}

/// The verdict of one [`replay_verify`] pass over a log directory.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-stream verdicts, ascending by stream id.
    pub streams: Vec<StreamReplay>,
    /// Records the scan read.
    pub log_records: u64,
    /// Torn records at the log's tail (ignored, as recovery would).
    pub truncated_records: u64,
}

impl ReplayReport {
    /// Total divergent positions across all streams.
    pub fn divergent(&self) -> u64 {
        self.streams.iter().map(|s| s.divergent).sum()
    }

    /// `true` when every logged output was reproduced exactly — the log
    /// certifies the original run.
    pub fn clean(&self) -> bool {
        self.divergent() == 0
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw_field("streams", &array(self.streams.iter().map(|s| s.to_json())))
            .u64_field("log_records", self.log_records)
            .u64_field("truncated_records", self.truncated_records)
            .u64_field("divergent", self.divergent())
            .bool_field("clean", self.clean())
            .finish()
    }
}

struct LoggedStream {
    app: App,
    redundancy: u8,
    payloads: Vec<rtft_kpn::Bytes>,
    /// Settled flushes: `(first cumulative position, logged digests)`.
    outputs: Vec<(u64, Vec<u64>)>,
}

/// Re-runs every logged flush in `dir` with the job-construction rules of
/// `cfg` and diffs the outputs. `cfg` must be the configuration the
/// logging server ran with (same `seed`, `runtime`, `inject`), or the
/// replay is a different program and divergence means nothing.
pub fn replay_verify(dir: &Path, cfg: &ServerConfig) -> Result<ReplayReport, ServeError> {
    let (records, summary) = read_log(dir)?;

    let mut streams: std::collections::BTreeMap<u32, LoggedStream> =
        std::collections::BTreeMap::new();
    // Consume the records: payload buffers and digest vectors move into
    // the per-stream ledgers instead of being cloned out of them.
    for (_, rec) in records {
        match rec {
            WalRecord::StreamOpen {
                stream,
                tenant: _,
                app,
                redundancy,
            } => {
                streams.insert(
                    stream,
                    LoggedStream {
                        app: *App::ALL.get(app as usize).unwrap_or(&App::ALL[0]),
                        redundancy,
                        payloads: Vec::new(),
                        outputs: Vec::new(),
                    },
                );
            }
            WalRecord::Tokens { stream, payloads } => {
                if let Some(s) = streams.get_mut(&stream) {
                    s.payloads.extend(payloads);
                }
            }
            WalRecord::Outputs {
                stream,
                first_seq,
                digests,
            } => {
                if let Some(s) = streams.get_mut(&stream) {
                    s.outputs.push((first_seq, digests));
                }
            }
            WalRecord::StreamClose { .. } => {}
        }
    }

    let verdicts = streams
        .into_iter()
        .map(|(id, s)| {
            let mut recorded = 0u64;
            let mut replayed = 0u64;
            let mut divergent = 0u64;
            let mut first_divergence = None;
            // Sized once per logged stream, on its first non-empty batch,
            // exactly as the live server does on the first flush.
            let plan = std::cell::OnceCell::new();
            // Each Outputs record is one settled flush; its batch is the
            // contiguous payload range it covered. Replay batch by batch
            // so the rebuilt jobs match the live ones token-for-token.
            for (first_seq, digests) in &s.outputs {
                recorded += digests.len() as u64;
                let lo = (*first_seq as usize).min(s.payloads.len());
                let hi = (lo + digests.len()).min(s.payloads.len());
                let batch = &s.payloads[lo..hi];
                let run = if batch.is_empty() {
                    Vec::new()
                } else {
                    let plan = plan.get_or_init(|| prepare_plan(cfg, id, s.app, s.redundancy));
                    let spec = build_spec(cfg, plan, id, s.app, s.redundancy, batch);
                    rtft_fleet::execute_spec(&spec)
                        .arrival_log
                        .iter()
                        .map(|&(_, d)| d)
                        .collect::<Vec<u64>>()
                };
                replayed += run.len() as u64;
                let common = digests.len().min(run.len());
                for (i, (want, got)) in digests[..common].iter().zip(&run[..common]).enumerate() {
                    if want != got {
                        divergent += 1;
                        first_divergence.get_or_insert((first_seq + i as u64, *want, *got));
                    }
                }
                let extra = digests.len().max(run.len()) - common;
                if extra > 0 {
                    divergent += extra as u64;
                    first_divergence.get_or_insert((
                        first_seq + common as u64,
                        digests.get(common).copied().unwrap_or(0),
                        run.get(common).copied().unwrap_or(0),
                    ));
                }
            }
            StreamReplay {
                stream: id,
                app: s.app.label(),
                redundancy: s.redundancy,
                recorded,
                replayed,
                divergent,
                first_divergence,
            }
        })
        .collect();

    Ok(ReplayReport {
        streams: verdicts,
        log_records: summary.records,
        truncated_records: summary.truncated_records,
    })
}
