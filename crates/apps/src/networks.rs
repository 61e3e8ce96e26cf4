//! The three applications as fault-tolerant process networks (Fig. 2).
//!
//! Each application provides a payload generator (its workload) and a
//! [`ReplicaFactory`] wiring its critical subnetwork, so the `rtft-core`
//! builder can produce both the reference and the duplicated network. Per
//! the paper's experiments, the fault plan attaches to the replica's first
//! stage: a fail-stop halts consumption and (after the pipeline drains)
//! production.
//!
//! Virtual service times realise the Table 1 interface models: every
//! compute stage runs with a small *fixed* service time and a final
//! [`PjdShaper`] imposes the replica's ⟨P, J_i⟩ output model against the
//! nominal schedule (per-token service jitter would accumulate backlog and
//! violate the declared curves). The *data* path is real — tokens carry
//! actual bitstreams through the actual codecs.

use crate::adpcm::{decode_block, encode_block, AudioSource};
use crate::mjpeg;
use crate::profiles::AppProfile;
use crate::stages::{FanInStage, FanOutStage};
use crate::video::VideoSource;
use crate::{h264, profiles};
use rtft_core::{DuplicationConfig, FaultPlan, FaultyProcess, PayloadGenerator, ReplicaFactory};
use rtft_kpn::{Bytes, Fifo, Network, NodeId, Payload, PjdShaper, PortId, Transform};
use rtft_rtc::{CurveAnalysisError, TimeNs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of distinct workload items pre-generated and cycled; keeps long
/// campaigns affordable while still pushing real bitstreams through the
/// codecs on every token.
pub const WORKLOAD_CYCLE: u64 = 4;

/// Entries a [`StageMemo`] stores at most, so a degenerate workload cannot
/// grow it without bound; further distinct inputs are computed and not
/// stored.
const MEMO_ENTRIES: usize = 64;

/// A stage's outputs by `(stage, input digest)`.
type Outputs = HashMap<(&'static str, u64), Arc<[Payload]>>;

/// One run's codec results, `(stage, input digest) → outputs`, shared by
/// every stage closure an [`AppReplicaFactory`] and its clones build. A
/// 1-in/1-out stage stores one output, the `splitstream` fan-out one per
/// output port.
///
/// The replicas of a run are determinate processes fed identical tokens
/// and the DES charges each stage a fixed *virtual* service time, so
/// running a codec once per replica (or once per cycle of
/// [`WORKLOAD_CYCLE`] items) would only burn wall-clock time. What the
/// sharing rests on (DESIGN.md §14 "Transform once"):
///
/// * the memoised closures are pure functions of their input bytes;
/// * every fault is injected *outside* them — [`FaultyProcess`] wraps the
///   stage and a corruption builds a new buffer that hashes its own bytes
///   — so a corrupted token misses and is transformed from its own bytes,
///   and a healthy replica is never handed a faulty replica's output;
/// * the key carries the stage name, so one stage never answers for
///   another;
/// * the lock is taken for the lookup and for the insert, never across a
///   kernel call: replicas on real threads that miss together both
///   compute, and the second insert is a no-op;
/// * the memo dies with its factory, so its scope is one run.
#[derive(Default)]
struct StageMemo {
    outputs: Mutex<Outputs>,
    misses: AtomicU64,
}

impl StageMemo {
    fn outputs(&self) -> MutexGuard<'_, Outputs> {
        self.outputs
            .lock()
            .expect("no kernel runs under the memo lock")
    }

    /// `stage`'s output for the input whose digest is `input`: the stored
    /// one, or else `compute()`'s.
    fn get_or_compute(
        &self,
        stage: &'static str,
        input: u64,
        compute: impl FnOnce() -> Payload,
    ) -> Payload {
        self.get_or_compute_all(stage, input, || vec![compute()])[0].clone()
    }

    /// `stage`'s outputs for the input whose digest is `input`: the stored
    /// ones, or else `compute()`'s.
    fn get_or_compute_all(
        &self,
        stage: &'static str,
        input: u64,
        compute: impl FnOnce() -> Vec<Payload>,
    ) -> Arc<[Payload]> {
        let key = (stage, input);
        let hit = self.outputs().get(&key).cloned();
        if let Some(hit) = hit {
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out: Arc<[Payload]> = compute().into();
        let mut outputs = self.outputs();
        if outputs.len() < MEMO_ENTRIES {
            outputs.entry(key).or_insert_with(|| Arc::clone(&out));
        }
        out
    }

    /// Wraps the pure payload transform of `stage` for a [`Transform`].
    fn stage(
        self: &Arc<Self>,
        stage: &'static str,
        f: impl Fn(&Payload) -> Payload + Send + 'static,
    ) -> impl FnMut(Payload) -> Payload + Send + 'static {
        let memo = Arc::clone(self);
        move |p: Payload| memo.get_or_compute(stage, p.digest(), || f(&p))
    }

    /// Wraps the pure fan-out of `stage` for a [`FanOutStage`]: the
    /// replicas share its outputs, and with them their digest memos.
    fn fan_out(
        self: &Arc<Self>,
        stage: &'static str,
        f: impl Fn(&Payload) -> Vec<Payload> + Send + 'static,
    ) -> impl FnMut(Payload) -> Vec<Payload> + Send + 'static {
        let memo = Arc::clone(self);
        move |p: Payload| {
            memo.get_or_compute_all(stage, p.digest(), || f(&p))
                .to_vec()
        }
    }

    /// Kernel calls made so far (lookups that found nothing stored).
    #[cfg(test)]
    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// Not derived: `Bytes` prints every byte, and an entry is a whole frame.
impl std::fmt::Debug for StageMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageMemo")
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

/// Which application a network should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// MJPEG decoder (split → transport halves → merge + decode).
    Mjpeg,
    /// ADPCM encoder + decoder pipeline.
    Adpcm,
    /// H.264-lite intra encoder.
    H264,
}

impl App {
    /// All three applications, in Table 1 order. Campaign drivers (and the
    /// fleet executor's mixed-tenant workloads) iterate this.
    pub const ALL: [App; 3] = [App::Mjpeg, App::Adpcm, App::H264];

    /// Short lower-case label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            App::Mjpeg => "mjpeg",
            App::Adpcm => "adpcm",
            App::H264 => "h264",
        }
    }

    /// The application's Table 1 profile.
    pub fn profile(self) -> AppProfile {
        match self {
            App::Mjpeg => profiles::mjpeg(),
            App::Adpcm => profiles::adpcm(),
            App::H264 => profiles::h264(),
        }
    }

    /// A payload generator cycling [`WORKLOAD_CYCLE`] pre-built workload
    /// items (encoded frames / PCM blocks / raw frames), hashed in lanes as
    /// a batch, so every later `digest()` is a memo read.
    pub fn payload_generator(self, seed: u64) -> PayloadGenerator {
        let items: Vec<Bytes> = match self {
            App::Mjpeg => VideoSource::new(seed)
                .frames(WORKLOAD_CYCLE)
                .map(|frame| mjpeg::encode(&frame, mjpeg::DEFAULT_QUALITY).into())
                .collect(),
            App::Adpcm => {
                let src = AudioSource::new(seed);
                (0..WORKLOAD_CYCLE).map(|n| src.block(n).into()).collect()
            }
            App::H264 => VideoSource::new(seed)
                .frames(WORKLOAD_CYCLE)
                .map(|frame| frame.pixels.into())
                .collect(),
        };
        Bytes::digest_all(&items);
        Arc::new(move |n| Payload::from(items[(n % WORKLOAD_CYCLE) as usize].clone()))
    }

    /// The replica factory for this application with the given per-replica
    /// stage seeds.
    pub fn replica_factory(self, seeds: [u64; 2]) -> AppReplicaFactory {
        let profile = self.profile();
        AppReplicaFactory {
            app: self,
            jitter: [
                profile.model.replica_out[0].jitter,
                profile.model.replica_out[1].jitter,
            ],
            seeds,
            memo: Arc::default(),
        }
    }

    /// Builds a ready-to-run [`DuplicationConfig`] for this application.
    ///
    /// # Errors
    ///
    /// Propagates [`CurveAnalysisError`] if the profile's rates diverge
    /// (cannot happen for the built-in profiles; checked in tests).
    pub fn duplication_config(
        self,
        workload_seed: u64,
        token_count: u64,
    ) -> Result<DuplicationConfig, CurveAnalysisError> {
        Ok(DuplicationConfig::from_model(self.profile().model)?
            .with_token_count(token_count)
            .with_payload(self.payload_generator(workload_seed)))
    }
}

/// [`ReplicaFactory`] for the three applications. Every network built
/// from one factory (or a clone of it) shares one stage memo, so the
/// replicas of a run — and a reference network built beside them — run
/// each codec once per distinct token.
#[derive(Debug, Clone)]
pub struct AppReplicaFactory {
    app: App,
    jitter: [TimeNs; 2],
    seeds: [u64; 2],
    memo: Arc<StageMemo>,
}

impl AppReplicaFactory {
    /// Overrides the per-replica output jitters (used by the Table 3
    /// "timing variations minimized" campaign).
    pub fn with_jitter(mut self, jitter: [TimeNs; 2]) -> Self {
        self.jitter = jitter;
        self
    }

    /// The replica's shaper model: the profile's ⟨P, J_i⟩ with the given
    /// pipeline-latency schedule offset.
    fn out_model(&self, replica: usize, offset: TimeNs) -> rtft_rtc::PjdModel {
        let profile = self.app.profile();
        profile.model.replica_out[replica]
            .with_jitter(self.jitter[replica])
            .with_delay(offset)
    }
}

/// What a stage delivers when a corrupting fault upstream left it no
/// bytes to transform. That is the replica's fault, not a bug here: the
/// token is a function of what arrived and matches no real output, so
/// the selector or voter sees the divergence (as `mergeframe`'s does).
fn divergent(p: &Payload) -> Payload {
    Payload::U64(p.digest())
}

impl ReplicaFactory for AppReplicaFactory {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        let seed = self.seeds[replica];
        let tag = |stage: &str| format!("r{replica}.{stage}");
        match self.app {
            App::Mjpeg => {
                // splitstream → two byte-half transports → mergeframe+decode
                let half_a = net.add_channel(Fifo::new(tag("half_a"), 4));
                let half_b = net.add_channel(Fifo::new(tag("half_b"), 4));
                let merged_a = net.add_channel(Fifo::new(tag("ok_a"), 4));
                let merged_b = net.add_channel(Fifo::new(tag("ok_b"), 4));

                let split = FanOutStage::new(
                    tag("splitstream"),
                    input,
                    vec![PortId::of(half_a), PortId::of(half_b)],
                    TimeNs::from_ms(1),
                    TimeNs::ZERO,
                    seed,
                    self.memo.fan_out("splitstream", |p| match p.as_bytes() {
                        Some(data) => mjpeg::split_stream(data, 2)
                            .into_iter()
                            .map(Payload::from)
                            .collect(),
                        None => vec![divergent(p); 2],
                    }),
                );
                let split_id = net.add_process(FaultyProcess::new(split, fault));

                // The parallel "decode" lanes validate and forward their
                // halves (entropy streams are not independently decodable;
                // real decode happens at the merge, per DESIGN.md).
                let lane = |name: String, from, to| {
                    Transform::new(
                        name,
                        from,
                        to,
                        TimeNs::from_ms(2),
                        TimeNs::ZERO,
                        seed,
                        |p| p,
                    )
                };
                let lane_a = net.add_process(lane(
                    tag("lane_a"),
                    PortId::of(half_a),
                    PortId::of(merged_a),
                ));
                let lane_b = net.add_process(lane(
                    tag("lane_b"),
                    PortId::of(half_b),
                    PortId::of(merged_b),
                ));

                let decoded = net.add_channel(Fifo::new(tag("decoded"), 4));
                let merge = FanInStage::new(
                    tag("mergeframe"),
                    vec![PortId::of(merged_a), PortId::of(merged_b)],
                    PortId::of(decoded),
                    TimeNs::from_ms(1),
                    TimeNs::ZERO,
                    seed.wrapping_add(1),
                    {
                        let memo = Arc::clone(&self.memo);
                        move |parts: Vec<Payload>| {
                            let input = parts
                                .iter()
                                .fold(0u64, |acc, p| acc.rotate_left(13) ^ p.digest());
                            memo.get_or_compute("mergeframe", input, || {
                                // Halves a corrupting fault left undecodable
                                // are the replica's fault, not a bug here:
                                // deliver a token that is a function of what
                                // arrived and matches no decoded frame, so
                                // the selector or voter sees the divergence.
                                let frame = parts
                                    .iter()
                                    .map(|p| p.as_bytes().map(|b| b.to_vec()))
                                    .collect::<Option<Vec<Vec<u8>>>>()
                                    .and_then(|halves| mjpeg::merge_parts(&halves).ok())
                                    .and_then(|encoded| mjpeg::decode(&encoded).ok());
                                match frame {
                                    Some(frame) => Payload::from(frame.pixels),
                                    None => Payload::U64(input),
                                }
                            })
                        }
                    },
                );
                let merge_id = net.add_process(merge);
                // Pipeline latency: split 1 + lane 2 + merge 1 + producer
                // jitter 2 + margin 1 = 7 ms schedule offset.
                let out_model = self.out_model(replica, TimeNs::from_ms(7));
                let shaper = net.add_process(PjdShaper::new(
                    tag("shaper"),
                    PortId::of(decoded),
                    output,
                    out_model,
                    seed.wrapping_add(0x5eed),
                ));
                vec![split_id, lane_a, lane_b, merge_id, shaper]
            }
            App::Adpcm => {
                // encoder → decoder (Fig. 2 bottom).
                let compressed = net.add_channel(Fifo::new(tag("compressed"), 4));
                let encoder = Transform::new(
                    tag("encoder"),
                    input,
                    PortId::of(compressed),
                    TimeNs::from_ms(1),
                    TimeNs::ZERO,
                    seed,
                    self.memo.stage("encoder", |p| match p.as_bytes() {
                        Some(pcm) => Payload::from(encode_block(pcm)),
                        None => divergent(p),
                    }),
                );
                let encoder_id = net.add_process(FaultyProcess::new(encoder, fault));
                let restored = net.add_channel(Fifo::new(tag("restored"), 4));
                let decoder = Transform::new(
                    tag("decoder"),
                    PortId::of(compressed),
                    PortId::of(restored),
                    TimeNs::from_ms(1),
                    TimeNs::ZERO,
                    seed.wrapping_add(1),
                    self.memo.stage("decoder", |p| match p.as_bytes() {
                        Some(adpcm) => Payload::from(decode_block(adpcm)),
                        None => divergent(p),
                    }),
                );
                let decoder_id = net.add_process(decoder);
                // encoder 1 + decoder 1 + producer jitter 1 + margin 1 = 4 ms.
                let out_model = self.out_model(replica, TimeNs::from_ms(4));
                let shaper = net.add_process(PjdShaper::new(
                    tag("shaper"),
                    PortId::of(restored),
                    output,
                    out_model,
                    seed.wrapping_add(0x5eed),
                ));
                vec![encoder_id, decoder_id, shaper]
            }
            App::H264 => {
                let bitstream = net.add_channel(Fifo::new(tag("bitstream"), 4));
                let encoder = Transform::new(
                    tag("encoder"),
                    input,
                    PortId::of(bitstream),
                    TimeNs::from_ms(2),
                    TimeNs::ZERO,
                    seed,
                    self.memo.stage("encoder", |p| {
                        let Some(raw) = p.as_bytes() else {
                            return divergent(p);
                        };
                        let frame = crate::video::Frame::from_pixels(
                            crate::video::FRAME_WIDTH,
                            crate::video::FRAME_HEIGHT,
                            raw.to_vec(),
                        );
                        Payload::from(h264::encode(&frame, h264::DEFAULT_QP))
                    }),
                );
                let encoder_id = net.add_process(FaultyProcess::new(encoder, fault));
                // encoder 2 + producer jitter 2 + margin 1 = 5 ms.
                let out_model = self.out_model(replica, TimeNs::from_ms(5));
                let shaper = net.add_process(PjdShaper::new(
                    tag("shaper"),
                    PortId::of(bitstream),
                    output,
                    out_model,
                    seed.wrapping_add(0x5eed),
                ));
                vec![encoder_id, shaper]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::{build_duplicated, build_reference};
    use rtft_kpn::Engine;

    fn run_app(app: App, tokens: u64, fault: Option<(usize, TimeNs)>) -> (usize, bool, bool) {
        let mut cfg = app.duplication_config(1, tokens).expect("bounded profile");
        if let Some((replica, at)) = fault {
            cfg = cfg.with_fault(replica, FaultPlan::fail_stop_at(at));
        }
        let factory = app.replica_factory([11, 22]);
        let (net, ids) = build_duplicated(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(60));
        let net = engine.network();
        let arrivals = ids.consumer_arrivals(net).len();
        let rep = ids.replicator_faults(net);
        let sel = ids.selector_faults(net);
        let flagged = |i: usize| rep[i].is_some() || sel[i].is_some();
        let (faulty_flagged, healthy_flagged) = match fault {
            Some((replica, _)) => (flagged(replica), flagged(1 - replica)),
            None => (false, flagged(0) || flagged(1)),
        };
        (arrivals, faulty_flagged, healthy_flagged)
    }

    #[test]
    fn adpcm_network_fault_free() {
        let (arrivals, _, _) = run_app(App::Adpcm, 60, None);
        assert_eq!(arrivals, 60);
    }

    #[test]
    fn adpcm_network_masks_fault() {
        let (arrivals, faulty, healthy) = run_app(App::Adpcm, 60, Some((1, TimeNs::from_ms(150))));
        assert_eq!(arrivals, 60, "all samples delivered despite the fault");
        assert!(faulty, "fault detected");
        assert!(!healthy, "healthy replica untouched");
    }

    #[test]
    fn mjpeg_network_fault_free() {
        let (arrivals, _, _) = run_app(App::Mjpeg, 24, None);
        assert_eq!(arrivals, 24);
    }

    #[test]
    fn mjpeg_network_masks_fault() {
        let (arrivals, faulty, healthy) = run_app(App::Mjpeg, 24, Some((0, TimeNs::from_ms(300))));
        assert_eq!(arrivals, 24);
        assert!(faulty);
        assert!(!healthy);
    }

    #[test]
    fn h264_network_fault_free() {
        let (arrivals, _, _) = run_app(App::H264, 12, None);
        assert_eq!(arrivals, 12);
    }

    #[test]
    fn h264_network_masks_fault() {
        let (arrivals, faulty, healthy) = run_app(App::H264, 12, Some((1, TimeNs::from_ms(150))));
        assert_eq!(arrivals, 12);
        assert!(faulty);
        assert!(!healthy);
    }

    /// Theorem 2 value equivalence, and the memo behind it: the duplicated
    /// network and the reference built from the same factory call each
    /// codec once per distinct workload item between them.
    #[test]
    fn duplicated_output_values_match_reference() {
        // Memoised stages per replica: splitstream + mergeframe / encoder +
        // decoder / encoder.
        for (app, stages) in [(App::Mjpeg, 2), (App::Adpcm, 2), (App::H264, 1)] {
            let cfg = app.duplication_config(2, 16).expect("bounded");
            let factory = app.replica_factory([5, 6]);
            let (dup_net, dup_ids) = build_duplicated(&cfg, &factory);
            let (ref_net, ref_ids) = build_reference(&cfg, &factory);
            let mut dup = Engine::new(dup_net);
            dup.run_until(TimeNs::from_secs(60));
            assert_eq!(
                factory.memo.misses(),
                stages * WORKLOAD_CYCLE,
                "{app:?}: two replicas, one kernel call per distinct token"
            );
            let mut reference = Engine::new(ref_net);
            reference.run_until(TimeNs::from_secs(60));
            assert_eq!(
                factory.memo.misses(),
                stages * WORKLOAD_CYCLE,
                "{app:?}: the reference run is all hits"
            );
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
            assert_eq!(d.len(), 16, "{app:?}");
            assert_eq!(d, r, "{app:?}: Theorem 2 value equivalence");
        }
    }

    /// A corrupted token misses, is transformed from its own bytes and
    /// leaves the healthy entry as it was; a stage never answers for
    /// another stage's input.
    #[test]
    fn memo_transforms_a_corrupted_buffer_from_its_own_bytes() {
        let memo = Arc::<StageMemo>::default();
        let encode = |p: &Payload| Payload::from(encode_block(p.as_bytes().expect("bytes")));
        let mut encoder = memo.stage("encoder", encode);
        let mut decoder = memo.stage("decoder", |p| {
            Payload::from(decode_block(p.as_bytes().expect("bytes")))
        });

        let healthy = Payload::from(AudioSource::new(1).block(0));
        let flipped = rtft_core::CorruptionMode::BitFlip(9).apply(&healthy);
        let healthy_out = encoder(healthy.clone());
        assert_eq!(memo.misses(), 1);
        let flipped_out = encoder(flipped.clone());
        assert_eq!(memo.misses(), 2, "one flipped bit is another input");
        assert_eq!(flipped_out, encode(&flipped));
        assert_ne!(flipped_out, healthy_out);
        assert_eq!(encoder(healthy.clone()), healthy_out);
        assert_eq!(encoder(healthy.clone()), encode(&healthy));
        assert_eq!(memo.misses(), 2, "the healthy entry still answers");

        let decoded = decoder(healthy);
        assert_eq!(memo.misses(), 3, "the key carries the stage name");
        assert_ne!(decoded, healthy_out);
    }

    #[test]
    fn memo_computes_but_does_not_store_past_its_bound() {
        let memo = Arc::<StageMemo>::default();
        let mut stage = memo.stage("stage", |p| Payload::U64(!p.digest()));
        let out = |n: u64| Payload::U64(!Payload::U64(n).digest());
        let bound = MEMO_ENTRIES as u64;
        for n in 0..=bound {
            assert_eq!(stage(Payload::U64(n)), out(n));
        }
        assert_eq!(memo.misses(), bound + 1);
        assert_eq!(stage(Payload::U64(0)), out(0));
        assert_eq!(memo.misses(), bound + 1, "stored inputs still hit");
        assert_eq!(stage(Payload::U64(bound)), out(bound));
        assert_eq!(memo.misses(), bound + 2, "input 65 is computed again");
    }

    /// Faults are injected outside the memoised closures, so a corrupting
    /// replica's tokens reach the next stage as inputs of their own.
    #[test]
    fn corrupting_replica_is_never_answered_from_the_healthy_replicas_entries() {
        let flip = rtft_core::CorruptionMode::BitFlip(9);
        let cfg = App::Adpcm
            .duplication_config(2, 16)
            .expect("bounded")
            .with_fault(0, FaultPlan::corrupt_at(flip, TimeNs::ZERO));
        let factory = App::Adpcm.replica_factory([5, 6]);
        let (net, ids) = build_duplicated(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(60));
        // 4 encodes (the flip hits the encoder's *output*), then the
        // decoder sees 4 healthy and 4 flipped compressed blocks.
        assert_eq!(factory.memo.misses(), 3 * WORKLOAD_CYCLE);
        let gen = App::Adpcm.payload_generator(2);
        let expect = |n: u64, corrupt: bool| {
            let compressed = Payload::from(encode_block(gen(n).as_bytes().expect("pcm")));
            let seen = if corrupt {
                flip.apply(&compressed)
            } else {
                compressed
            };
            rtft_kpn::digest_bytes(&decode_block(seen.as_bytes().expect("adpcm")))
        };
        let arrivals = ids.consumer_arrivals(engine.network());
        assert_eq!(arrivals.len(), 16);
        for (n, &(_, digest)) in arrivals.iter().enumerate() {
            let n = n as u64;
            assert!(
                digest == expect(n, false) || digest == expect(n, true),
                "token {n} is neither replica's own transform"
            );
        }
        assert!(
            (0..16).any(|n| arrivals[n as usize].1 == expect(n, true)),
            "the timing selector forwards whichever copy is first"
        );
    }

    /// A voter needs a third replica; the factory knows two. Slot 2 is
    /// built as slot 1.
    struct ThreeOf<'a>(&'a AppReplicaFactory);

    impl ReplicaFactory for ThreeOf<'_> {
        fn build(
            &self,
            net: &mut Network,
            input: PortId,
            output: PortId,
            replica: usize,
            fault: FaultPlan,
        ) -> Vec<NodeId> {
            self.0.build(net, input, output, replica.min(1), fault)
        }
    }

    /// Tokens a [`voted`] or [`duplicated`] run delivers.
    const TOKENS: u64 = 16;

    /// `app` on workload seed 3 under a three-replica voter: the
    /// consumer's log and the replicas the voter latched.
    fn voted(app: App, faults: &[FaultPlan; 3]) -> (Vec<(TimeNs, u64)>, Vec<usize>) {
        use rtft_core::{build_n_modular_voting, NModularModel, NSizingReport, VotingSelector};
        let profile = app.profile().model;
        let [a, b] = profile.replica_out;
        let model = NModularModel {
            producer: profile.producer,
            consumer: profile.consumer,
            replicas: vec![a, b, b],
        };
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = app.replica_factory([5, 6]);
        let (net, ids) = build_n_modular_voting(
            &model,
            &sizing,
            TOKENS,
            (1, 2),
            app.payload_generator(3),
            &ThreeOf(&factory),
            faults,
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(60));
        let net = engine.network();
        let selector = net
            .channel_as::<VotingSelector>(ids.selector)
            .expect("voting selector");
        let latched: Vec<usize> = (0..3).filter(|&i| selector.fault(i).is_some()).collect();
        (ids.consumer_arrivals(net).to_vec(), latched)
    }

    /// `app` on workload seed 3 under the paper's duplicated structure
    /// and timing selector: the consumer's log.
    fn duplicated(app: App, fault: Option<(usize, FaultPlan)>) -> Vec<(TimeNs, u64)> {
        let mut cfg = app.duplication_config(3, TOKENS).expect("bounded");
        if let Some((replica, plan)) = fault {
            cfg = cfg.with_fault(replica, plan);
        }
        let (net, ids) = build_duplicated(&cfg, &app.replica_factory([5, 6]));
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(60));
        ids.consumer_arrivals(engine.network()).to_vec()
    }

    /// A flipped bit in the halves an MJPEG replica's `splitstream` emits
    /// either still decodes (bit 80 on every frame of the Table 2 pins'
    /// workload, seed 3) or desynchronises the entropy stream (bit 4 099
    /// on some of them). Both are the replica's fault: the
    /// run completes, the voter latches that replica and delivers the
    /// fault-free log, and the paper's timing selector — which does not
    /// compare values — keeps its schedule.
    #[test]
    fn a_corrupting_mjpeg_replica_is_out_voted_not_a_crash() {
        use rtft_core::CorruptionMode;
        let (reference, latched) = voted(App::Mjpeg, &[FaultPlan::healthy(); 3]);
        assert_eq!((reference.len() as u64, latched), (TOKENS, vec![]));
        let paper = duplicated(App::Mjpeg, None);
        let instants = |log: &[(TimeNs, u64)]| log.iter().map(|a| a.0).collect::<Vec<_>>();

        let gen = App::Mjpeg.payload_generator(3);
        for (bit, decodes) in [(80, true), (4_099, false)] {
            let flip = CorruptionMode::BitFlip(bit);
            let still_decodes = |n: u64| {
                let halves: Vec<Vec<u8>> =
                    mjpeg::split_stream(gen(n).as_bytes().expect("frame"), 2)
                        .into_iter()
                        .map(|half| flip.apply(&Payload::from(half)))
                        .map(|half| half.as_bytes().expect("half").to_vec())
                        .collect();
                let merged = mjpeg::merge_parts(&halves).expect("length prefixes untouched");
                mjpeg::decode(&merged).is_ok()
            };
            assert_eq!((0..WORKLOAD_CYCLE).all(still_decodes), decodes, "bit {bit}");

            for replica in [0, 1] {
                let plan = FaultPlan::corrupt_at(flip, TimeNs::ZERO);
                let mut faults = [FaultPlan::healthy(); 3];
                faults[replica] = plan;
                let (log, latched) = voted(App::Mjpeg, &faults);
                assert_eq!(log, reference, "bit {bit} on replica {replica}");
                assert_eq!(latched, vec![replica], "bit {bit}");

                let log = duplicated(App::Mjpeg, Some((replica, plan)));
                assert_eq!(instants(&log), instants(&paper), "bit {bit}/{replica}");
                assert_ne!(log, paper, "the timing selector forwards a flipped copy");
            }
        }
    }

    /// A `Substitute` fault makes an ADPCM replica's encoder emit a
    /// marker, not compressed bytes. Its decoder delivers a divergent
    /// token instead of panicking the engine: the voter latches that
    /// replica and delivers the fault-free log, and a run under the
    /// timing selector completes.
    #[test]
    fn a_substituting_adpcm_encoder_is_out_voted_not_a_crash() {
        let plan =
            FaultPlan::corrupt_at(rtft_core::CorruptionMode::Substitute(0xDEAD), TimeNs::ZERO);
        let healthy = FaultPlan::healthy();
        let (reference, latched) = voted(App::Adpcm, &[healthy; 3]);
        assert_eq!((reference.len() as u64, latched), (TOKENS, vec![]));
        let (log, latched) = voted(App::Adpcm, &[plan, healthy, healthy]);
        assert_eq!(log, reference);
        assert_eq!(latched, vec![0]);
        assert_eq!(duplicated(App::Adpcm, Some((0, plan))).len() as u64, TOKENS);
    }

    #[test]
    fn payload_generators_cycle_and_are_seeded() {
        for app in [App::Mjpeg, App::Adpcm, App::H264] {
            let g1 = app.payload_generator(1);
            let g2 = app.payload_generator(1);
            let g3 = app.payload_generator(2);
            assert_eq!(g1(0).digest(), g2(0).digest(), "{app:?} deterministic");
            assert_ne!(g1(0).digest(), g3(0).digest(), "{app:?} seeded");
            assert_eq!(
                g1(0).digest(),
                g1(WORKLOAD_CYCLE).digest(),
                "{app:?} cycles"
            );
            assert_ne!(
                g1(0).digest(),
                g1(1).digest(),
                "{app:?} varies within a cycle"
            );
        }
    }

    #[test]
    fn mjpeg_tokens_have_paper_sizes() {
        let gen = App::Mjpeg.payload_generator(1);
        let encoded = gen(0);
        assert!(
            (4_000..20_000).contains(&encoded.len()),
            "{}",
            encoded.len()
        );
        // And the decoded output token is exactly 76.8 KB — check through
        // a short run of the reference network.
        let cfg = App::Mjpeg.duplication_config(1, 4).unwrap();
        let factory = App::Mjpeg.replica_factory([5, 6]);
        let (net, ids) = build_reference(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(10));
        let arrivals = ids.consumer_arrivals(engine.network());
        assert_eq!(arrivals.len(), 4);
        for (n, &(_, digest)) in arrivals.iter().enumerate() {
            let encoded = gen(n as u64);
            let frame = mjpeg::decode(encoded.as_bytes().expect("encoded frame")).unwrap();
            assert_eq!(frame.pixels.len(), crate::video::FRAME_BYTES);
            assert_eq!(digest, rtft_kpn::digest_bytes(&frame.pixels), "token {n}");
        }
    }
}
