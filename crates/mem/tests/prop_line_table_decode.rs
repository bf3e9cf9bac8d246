//! The line-table section decoders read checkpoint bytes, so they must be
//! total: every damaged stream decodes to `Ok` or `Err` and never panics,
//! and a stream they accept re-encodes to itself byte for byte. They are
//! driven through each encoding shape the simulator uses — keyed near and
//! far sections (the backing store), a near line list in any order plus
//! an ascending far list (the read signature), and a near span or near
//! bit words plus far entries (the directory's lines and warm set) —
//! with four damages:
//! truncation, bit flips, a repeated line, and a line moved into the
//! other half's section.

use chats_mem::{BackingStore, Line, LineAddr, LineSet, LineTable, ReadSignature};
use chats_snap::{Snap, SnapReader, SnapWriter};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Lines at the bottom of memory, across a wide low span, in the middle
/// of the address space and at its top.
fn line_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..256,
        0u64..1 << 17,
        (1u64 << 40)..(1 << 40) + 256,
        (u64::MAX - 255)..=u64::MAX,
    ]
}

/// `true` if a store writes `line` in its near section: the first word
/// of its encoding, the near count, reads 1.
fn is_near(line: u64) -> bool {
    let mut store = BackingStore::new();
    store.write_line(LineAddr(line), Line::zeroed());
    let mut w = SnapWriter::new();
    store.save(&mut w);
    w.bytes()[..8] == 1u64.to_le_bytes()
}

/// Distinct lines split into near and far halves, each ascending.
fn halves(lines: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let distinct: BTreeSet<u64> = lines.iter().copied().collect();
    distinct.into_iter().partition(|&l| is_near(l))
}

/// Directory-shaped state: per-line values as the whole near span plus
/// far entries, then a set as near bit words plus far lines.
type DirShape = (LineTable<u64>, LineSet);

/// One structure's sections, written as plain lists so that a test can
/// damage them before encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Store,
    Signature,
    Dir,
}

/// Encodes `near` and `far` lines (values derived from the line) in the
/// layout of `shape`.
fn encode(shape: Shape, near: &[u64], far: &[u64], span: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    match shape {
        Shape::Store => {
            for section in [near, far] {
                w.u64(section.len() as u64);
                for &line in section {
                    w.u64(line);
                    for word in 0..8 {
                        w.u64(line ^ word);
                    }
                }
            }
        }
        Shape::Signature => {
            for section in [near, far] {
                w.u64(section.len() as u64);
                for &line in section {
                    w.u64(line);
                }
            }
        }
        Shape::Dir => {
            w.u64(span);
            for i in 0..span {
                w.u64(i);
            }
            w.u64(far.len() as u64);
            for &line in far {
                w.u64(line);
                w.u64(!line);
            }
            let words = near.iter().max().map_or(0, |&l| l / 64 + 1);
            w.u64(words);
            for i in 0..words {
                let bits = near
                    .iter()
                    .filter(|&&l| l / 64 == i)
                    .fold(0u64, |acc, &l| acc | 1 << (l % 64));
                w.u64(bits);
            }
            w.u64(far.len() as u64);
            for &line in far {
                w.u64(line);
            }
        }
    }
    w.into_bytes()
}

/// Decodes `bytes` as `T`, returning whether they were accepted; accepted
/// bytes must re-encode to exactly the bytes consumed.
fn decode_as<T: Snap>(bytes: &[u8]) -> bool {
    let mut r = SnapReader::new(bytes);
    let Ok(value) = T::load(&mut r) else {
        return false;
    };
    let mut w = SnapWriter::new();
    value.save(&mut w);
    assert_eq!(
        w.bytes(),
        &bytes[..r.position()],
        "accepted bytes must re-encode to themselves"
    );
    true
}

fn decode(shape: Shape, bytes: &[u8]) -> bool {
    match shape {
        Shape::Store => decode_as::<BackingStore>(bytes),
        Shape::Signature => decode_as::<ReadSignature>(bytes),
        Shape::Dir => decode_as::<DirShape>(bytes),
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![Just(Shape::Store), Just(Shape::Signature), Just(Shape::Dir)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_sections_decode_and_re_encode(
        shape in shape_strategy(),
        lines in proptest::collection::vec(line_strategy(), 0..40),
        span in 0u64..70,
    ) {
        let (near, far) = halves(&lines);
        let bytes = encode(shape, &near, &far, span);
        prop_assert!(decode(shape, &bytes), "{:?} rejected its own encoding", shape);
    }

    #[test]
    fn truncated_and_bit_flipped_sections_never_panic(
        shape in shape_strategy(),
        lines in proptest::collection::vec(line_strategy(), 1..40),
        span in 0u64..70,
        cut in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 1..4),
    ) {
        let (near, far) = halves(&lines);
        let bytes = encode(shape, &near, &far, span);
        let short = &bytes[..(cut % bytes.len() as u64) as usize];
        prop_assert!(!decode(shape, short), "a truncated {:?} stream decoded", shape);
        let mut flipped = bytes.clone();
        for (at, bit) in flips {
            flipped[(at % bytes.len() as u64) as usize] ^= 1 << bit;
        }
        decode(shape, &flipped);
    }

    #[test]
    fn repeated_lines_are_rejected(
        shape in shape_strategy(),
        lines in proptest::collection::vec(line_strategy(), 1..40),
        pick in any::<u64>(),
    ) {
        let (mut near, mut far) = halves(&lines);
        // The directory shape lists no near lines by key.
        let section = if shape == Shape::Dir || near.is_empty() { &mut far } else { &mut near };
        if section.is_empty() {
            return;
        }
        let at = (pick % section.len() as u64) as usize;
        section.insert(at, section[at]);
        let bytes = encode(shape, &near, &far, 0);
        prop_assert!(!decode(shape, &bytes), "a repeated line decoded as {:?}", shape);
    }

    #[test]
    fn lines_in_the_other_half_are_rejected(
        shape in shape_strategy(),
        lines in proptest::collection::vec(line_strategy(), 1..40),
        pick in any::<u64>(),
        to_far in any::<bool>(),
    ) {
        let (mut near, mut far) = halves(&lines);
        // Move one line into the other half's section, keeping that
        // section ascending, so the half check alone must catch it. The
        // directory shape lists no near lines by key.
        let (from, into) = if to_far || shape == Shape::Dir {
            (&mut near, &mut far)
        } else {
            (&mut far, &mut near)
        };
        if from.is_empty() {
            return;
        }
        let line = from.remove((pick % from.len() as u64) as usize);
        let at = into.partition_point(|&l| l < line);
        into.insert(at, line);
        let bytes = encode(shape, &near, &far, 0);
        prop_assert!(!decode(shape, &bytes), "a line in the wrong section decoded as {:?}", shape);
    }
}
