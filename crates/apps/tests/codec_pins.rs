//! Golden pin of the codecs' determinacy across commits.
//!
//! The run-scoped stage memo (DESIGN.md §14 "Transform once"), Theorem 2's
//! first-copy-wins selector and `replay_verify` all rest on one fact: a
//! codec is a pure function of its input bytes. The unit tests check that
//! within one process; this FNV checks it against the bytes an earlier
//! commit produced.

use rtft_apps::adpcm::{decode_block, encode_block, AudioSource};
use rtft_apps::video::VideoSource;
use rtft_apps::{h264, mjpeg};
use rtft_kpn::Digest;

#[test]
fn codec_outputs_are_pinned_for_workload_seeds_1_to_5() {
    let mut fnv = Digest::new();
    for seed in 1..=5 {
        let video = VideoSource::new(seed);
        let audio = AudioSource::new(seed);
        for item in 0..4 {
            let frame = video.frame(item);
            let jpeg = mjpeg::encode(&frame, mjpeg::DEFAULT_QUALITY);
            fnv.update(&jpeg);
            fnv.update(&mjpeg::decode(&jpeg).expect("own stream decodes").pixels);
            let nal = h264::encode(&frame, h264::DEFAULT_QP);
            fnv.update(&nal);
            fnv.update(&h264::decode(&nal).expect("own stream decodes").pixels);
            let adpcm = encode_block(&audio.block(item));
            fnv.update(&adpcm);
            fnv.update(&decode_block(&adpcm));
        }
    }
    assert_eq!(
        fnv.finish(),
        0x48a5_2190_aadf_0b13,
        "a codec's output bytes moved"
    );
}
