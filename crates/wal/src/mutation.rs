//! Seeded mutation test of the two byte parsers recovery runs on disk
//! contents: `decode_frame` and the segment scan (`scan_bytes`).
//!
//! Every case starts from a valid encoding and damages it: truncation at
//! every offset, each length and count field rewritten to 0, len − 1,
//! len + 1 and `u32::MAX`, byte flips, and splices of frames from two
//! segments and from two lives of one file. Whatever still decodes must
//! re-encode to the bytes it was read from; nothing may panic; a frame
//! salted for another segment is never accepted; and a length or count no
//! body can hold is refused before anything is allocated.
//!
//! The allocation check is a global allocator, so it counts for the
//! whole unit-test binary of this crate. It counts per thread: other
//! tests run on threads of their own.

use crate::record::{decode_frame, salt_frame, FrameError, WalRecord, FRAME_HEADER};
use crate::segment::{encode_header, scan_bytes, SegmentHeader, SegmentScan, SEGMENT_HEADER};
use rtft_kpn::{digest_bytes, Bytes, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

/// Counts every allocation and reallocation on the calling thread, then
/// defers to `System`.
struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it from the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn byte(rng: &mut SplitMix64) -> u8 {
    rng.next_u64() as u8
}

/// A random record of a random kind.
fn record(rng: &mut SplitMix64) -> WalRecord {
    let stream = rng.next_u64() as u32;
    match rng.next_inclusive(3) {
        0 => WalRecord::StreamOpen {
            stream,
            app: byte(rng),
            redundancy: byte(rng),
            tenant: rng.next_u64(),
        },
        1 => WalRecord::Tokens {
            stream,
            payloads: (0..rng.next_inclusive(4))
                .map(|_| {
                    let len = rng.next_inclusive(40);
                    Bytes::from((0..len).map(|_| byte(rng)).collect::<Vec<u8>>())
                })
                .collect(),
        },
        2 => WalRecord::Outputs {
            stream,
            first_seq: rng.next_u64(),
            digests: (0..rng.next_inclusive(5)).map(|_| rng.next_u64()).collect(),
        },
        _ => WalRecord::StreamClose { stream },
    }
}

/// `rec`'s frame as segment `index` holds it.
fn frame(rec: &WalRecord, index: u64) -> Vec<u8> {
    let mut out = rec.encode_frame();
    salt_frame(&mut out, index);
    out
}

/// A segment `index` holding `recs`.
fn segment(index: u64, recs: &[WalRecord]) -> Vec<u8> {
    let header = SegmentHeader {
        index,
        base_seq: index * 100,
        prev_end: 0,
    };
    let mut out = encode_header(header).to_vec();
    for rec in recs {
        out.extend_from_slice(&frame(rec, index));
    }
    out
}

/// The frame-relative offsets of `rec`'s length and count fields, each
/// with whether a value no body can hold is refused before allocating
/// (a payload's length is checked after the payload list is sized).
fn length_fields(rec: &WalRecord) -> Vec<(usize, bool)> {
    let mut out = vec![(0, true)];
    match rec {
        WalRecord::Tokens { payloads, .. } => {
            out.push((FRAME_HEADER + 5, true));
            let mut at = FRAME_HEADER + 9;
            for p in payloads {
                out.push((at, false));
                at += 4 + p.len();
            }
        }
        WalRecord::Outputs { .. } => out.push((FRAME_HEADER + 13, true)),
        _ => {}
    }
    out
}

fn set_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recompute the checksum of the frame opening `buf` over the body its
/// length field now names, if `buf` holds it: the body parser, not the
/// checksum, then meets the mutation.
fn reseal(buf: &mut [u8], index: u64) {
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if let Some(body) = buf.get(FRAME_HEADER..FRAME_HEADER.saturating_add(len)) {
        let digest = digest_bytes(body);
        buf[4..FRAME_HEADER].copy_from_slice(&digest.to_le_bytes());
        salt_frame(buf, index);
    }
}

/// Decodes `buf` in segment `index`. A record that comes back must
/// re-encode to exactly the bytes it was read from.
fn check(buf: &[u8], index: u64) -> Option<WalRecord> {
    let (rec, used) = decode_frame(buf, index).ok()?;
    assert_eq!(
        frame(&rec, index),
        buf[..used],
        "decoded, but re-encodes otherwise"
    );
    Some(rec)
}

#[test]
fn decode_frame_survives_every_mutation() {
    let mut rng = SplitMix64::seed_from_u64(0x3a1_f4a3e);
    for _ in 0..1000 {
        let index = rng.next_inclusive(8);
        let rec = record(&mut rng);
        let own = frame(&rec, index);
        // A second frame behind the first, so a length one too long still
        // lies inside the buffer.
        let buf = [own.clone(), frame(&record(&mut rng), index)].concat();
        assert_eq!(check(&buf, index), Some(rec.clone()));

        for cut in 0..own.len() {
            assert_eq!(decode_frame(&buf[..cut], index), Err(FrameError::Torn));
        }

        for (at, before_alloc) in length_fields(&rec) {
            let v = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            let rewrites = [0, v.wrapping_sub(1), v.wrapping_add(1), u32::MAX];
            for w in rewrites.into_iter().filter(|w| *w != v) {
                for resealed in [false, true] {
                    let mut bad = buf.clone();
                    set_u32(&mut bad, at, w);
                    if resealed {
                        reseal(&mut bad, index);
                    }
                    let allocated = allocations();
                    let got = decode_frame(&bad, index);
                    if w == u32::MAX && before_alloc {
                        assert_eq!(allocations(), allocated, "{w} at {at} allocated");
                    }
                    if !resealed || w == u32::MAX {
                        assert!(got.is_err(), "length {w} at {at} accepted");
                    }
                    check(&bad, index);
                }
            }
        }

        for _ in 0..40 {
            let mut bad = buf.clone();
            let at = rng.next_inclusive(own.len() as u64 - 1) as usize;
            bad[at] ^= 1 + rng.next_inclusive(254) as u8;
            assert_eq!(check(&bad, index), None, "a flip at {at} went undetected");
        }

        // The frame in another segment, or another life of its file.
        for other in [index + 1, index + 2 + rng.next_inclusive(1 << 40)] {
            assert_eq!(decode_frame(&own, other), Err(FrameError::Stale));
            let younger = frame(&rec, other);
            assert_eq!(decode_frame(&younger, index), Err(FrameError::Torn));
        }

        // Two frames spliced at a random offset, from this segment or
        // from another life.
        let life = if rng.next_inclusive(1) == 0 {
            index
        } else {
            rng.next_inclusive(8)
        };
        let other = frame(&record(&mut rng), life);
        let k = rng.next_inclusive(own.len().min(other.len()) as u64) as usize;
        let spliced = [&own[..k], &other[k..]].concat();
        if let Some(got) = check(&spliced, index) {
            assert!(got == rec || life == index, "a foreign frame was accepted");
        }
    }
}

/// Everything a scan returned lies in `recs`, in order, from the first:
/// no record it was not given, none out of place.
fn prefix_of(scan: &SegmentScan, recs: &[WalRecord]) -> usize {
    let got: Vec<&WalRecord> = scan.records.iter().map(|(_, r)| r).collect();
    assert!(got.len() <= recs.len(), "more records than written");
    assert_eq!(got, recs[..got.len()].iter().collect::<Vec<_>>());
    for (i, (seq, _)) in scan.records.iter().enumerate() {
        assert_eq!(*seq, scan.base_seq + i as u64);
    }
    got.len()
}

/// Every byte of a tolerant scan is accounted for exactly once.
fn accounted(scan: &SegmentScan, len: usize) {
    assert_eq!(
        scan.valid_len + scan.torn_bytes + scan.free_bytes,
        len as u64
    );
    assert_eq!(scan.torn_records, u64::from(scan.torn_bytes > 0));
}

#[test]
fn the_segment_scan_survives_every_mutation() {
    let path = Path::new("mutated.wal");
    let mut rng = SplitMix64::seed_from_u64(0x5ca_77ed);
    for _ in 0..200 {
        let index = 1 + rng.next_inclusive(6);
        let recs: Vec<WalRecord> = (0..1 + rng.next_inclusive(4))
            .map(|_| record(&mut rng))
            .collect();
        let seg = segment(index, &recs);
        let mut bounds = vec![SEGMENT_HEADER];
        for rec in &recs {
            bounds.push(bounds.last().unwrap() + rec.encode_frame().len());
        }
        let sealed = Some(seg.len() as u64);
        for end in [None, sealed] {
            let scan = scan_bytes(path, &seg, index, end).expect("clean segment");
            assert_eq!(prefix_of(&scan, &recs), recs.len());
            assert_eq!((scan.torn_bytes, scan.free_bytes), (0, 0));
        }

        for cut in 0..=seg.len() {
            let scan = scan_bytes(path, &seg[..cut], index, None).expect("tolerant");
            accounted(&scan, cut);
            let whole = bounds
                .iter()
                .filter(|b| **b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(prefix_of(&scan, &recs), whole, "cut at {cut}");
            let strict = scan_bytes(path, &seg[..cut], index, sealed);
            assert_eq!(strict.is_ok(), cut == seg.len(), "strict, cut at {cut}");
        }

        // Frame k rewritten: its length fields, then one flipped byte.
        let k = rng.next_inclusive(recs.len() as u64 - 1) as usize;
        for (at, _) in length_fields(&recs[k]) {
            let at = bounds[k] + at;
            let v = u32::from_le_bytes(seg[at..at + 4].try_into().unwrap());
            let rewrites = [0, v.wrapping_sub(1), v.wrapping_add(1), u32::MAX];
            for w in rewrites.into_iter().filter(|w| *w != v) {
                let mut bad = seg.clone();
                set_u32(&mut bad, at, w);
                let scan = scan_bytes(path, &bad, index, None).expect("tolerant");
                accounted(&scan, bad.len());
                assert_eq!(prefix_of(&scan, &recs), k);
                assert!(scan_bytes(path, &bad, index, sealed).is_err());
            }
        }
        let mut bad = seg.clone();
        let at = rng.next_inclusive(seg.len() as u64 - 1) as usize;
        bad[at] ^= 1 + rng.next_inclusive(254) as u8;
        match scan_bytes(path, &bad, index, None) {
            Ok(scan) => {
                accounted(&scan, bad.len());
                prefix_of(&scan, &recs);
            }
            // Only a flipped version field names a format of its own.
            Err(_) => assert!((8..12).contains(&at), "flip at {at}"),
        }
        assert!(scan_bytes(path, &bad, index, sealed).is_err());

        // Frames of another segment spliced in behind frame k.
        let other = 1 + rng.next_inclusive(6);
        let foreign: Vec<WalRecord> = (0..2).map(|_| record(&mut rng)).collect();
        let spliced = [
            &seg[..bounds[k]],
            &segment(other, &foreign)[SEGMENT_HEADER..],
        ]
        .concat();
        let scan = scan_bytes(path, &spliced, index, None).expect("tolerant");
        accounted(&scan, spliced.len());
        if other == index {
            assert_eq!(scan.records.len(), k + 2);
        } else {
            assert_eq!(prefix_of(&scan, &recs), k);
            // An earlier life's frame is free space, a later one torn.
            assert_eq!(scan.torn_records, u64::from(other > index));
            assert!(scan_bytes(path, &spliced, index, sealed).is_err());
        }

        // The file recycled as a later segment: a new header and new
        // frames over the old life's, cut anywhere.
        let life = index + 1 + rng.next_inclusive(3);
        let fresh: Vec<WalRecord> = (0..3).map(|_| record(&mut rng)).collect();
        let recycled = segment(life, &fresh);
        for cut in SEGMENT_HEADER..=recycled.len() {
            let image = if cut < seg.len() {
                [&recycled[..cut], &seg[cut..]].concat()
            } else {
                recycled[..cut].to_vec()
            };
            let scan = scan_bytes(path, &image, life, None).expect("tolerant");
            accounted(&scan, image.len());
            prefix_of(&scan, &fresh);
        }
        // The old life under the new name is no segment of the new one.
        let scan = scan_bytes(path, &seg, life, None).expect("stale header");
        assert!(scan.header_torn && scan.records.is_empty());
        assert_eq!(scan.free_bytes, seg.len() as u64);
    }
}
