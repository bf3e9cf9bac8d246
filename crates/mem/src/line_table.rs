//! Per-line state, and the one module that knows how it is laid out.
//!
//! The backing store, the directory's lines and warm set and the read
//! signature keep their per-line state in a [`LineTable`] or a
//! [`LineSet`]. *Near* lines, below 2^15, live in one `Vec` indexed by
//! line number and grown to the highest line touched: every workload
//! allocates its heap from line 0 upward, so nearly all traffic costs a
//! bounds check and an index. *Far* lines live in 64-line
//! pages in one hash map, each page with a mask of its touched lines.
//!
//! Encodings write a near section, then a far section that lists lines in
//! ascending order. The decoders here hold every range, order and repeat
//! check, so an accepted stream re-encodes to itself.

use crate::addr::LineAddr;
use crate::fasthash::FastHashMap;
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Lines below this index are near.
const NEAR_LINES: u64 = 1 << 15;
/// Lines per far page.
const PAGE_LINES: u64 = 64;

pub(crate) fn is_far(line: LineAddr) -> bool {
    line.index() >= NEAR_LINES
}

/// Per-line state of type `T` over the full 64-bit line space.
///
/// [`LineTable::slot`] touches a line, allocating its slot (and every near
/// slot below it) as `T::default()`. Iteration and the encoding list the
/// touched far lines and the whole near span — or, when `TRACKED`, just
/// the touched near lines, for a presence bit per near access.
#[derive(Debug, Clone, Default)]
pub struct LineTable<T, const TRACKED: bool = false> {
    near: Vec<T>,
    /// Bit `i % 64` of word `i / 64`: near line `i` was touched (kept only
    /// when `TRACKED`).
    near_touched: Vec<u64>,
    /// Pages by line index / [`PAGE_LINES`].
    far: FastHashMap<u64, Box<Page<T>>>,
}

#[derive(Debug, Clone)]
struct Page<T> {
    touched: u64,
    slots: [T; PAGE_LINES as usize],
}

impl<T: Default, const TRACKED: bool> LineTable<T, TRACKED> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `line`, or `None` if it was never allocated.
    #[inline]
    #[must_use]
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        let idx = line.index();
        if idx < NEAR_LINES {
            self.near.get(idx as usize)
        } else {
            let page = self.far.get(&(idx / PAGE_LINES))?;
            Some(&page.slots[(idx % PAGE_LINES) as usize])
        }
    }

    /// The slot of `line`, touched and allocated on first use.
    #[inline]
    pub fn slot(&mut self, line: LineAddr) -> &mut T {
        let idx = line.index();
        let bit = 1 << (idx % PAGE_LINES);
        if idx < NEAR_LINES {
            let i = idx as usize;
            if i >= self.near.len() {
                self.grow(i);
            }
            if TRACKED {
                self.near_touched[i / 64] |= bit;
            }
            &mut self.near[i]
        } else {
            let page = self.far_page(idx);
            page.touched |= bit;
            &mut page.slots[(idx % PAGE_LINES) as usize]
        }
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        self.near.resize_with(i + 1, T::default);
        if TRACKED {
            self.near_touched.resize(i / 64 + 1, 0);
        }
    }

    #[inline(never)]
    fn far_page(&mut self, idx: u64) -> &mut Page<T> {
        self.far.entry(idx / PAGE_LINES).or_insert_with(|| {
            let slots = std::array::from_fn(|_| T::default());
            Box::new(Page { touched: 0, slots })
        })
    }

    /// The listed lines (see [`LineTable`]) in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.near_lines().chain(self.far_lines())
    }

    fn near_lines(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        let listed = move |i: usize| !TRACKED || self.near_touched[i / 64] >> (i % 64) & 1 != 0;
        let near = self.near.iter().enumerate();
        let near = near.filter(move |&(i, _)| listed(i));
        near.map(|(i, v)| (LineAddr(i as u64), v))
    }

    fn far_lines(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        let mut pages: Vec<(&u64, &Box<Page<T>>)> = self.far.iter().collect();
        pages.sort_unstable_by_key(|&(&k, _)| k);
        pages.into_iter().flat_map(|(&k, p)| {
            let slots = p.slots.iter().zip(0..);
            let slots = slots.filter(move |&(_, b)| p.touched >> b & 1 != 0);
            slots.map(move |(v, b)| (LineAddr(k * PAGE_LINES + b), v))
        })
    }

    /// Writes the listed near or far lines: their count, then each line
    /// and its value.
    fn save_entries(&self, w: &mut SnapWriter, far: bool, value: impl Fn(&T, &mut SnapWriter)) {
        let entries: Vec<(LineAddr, &T)> = if far {
            self.far_lines().collect()
        } else {
            self.near_lines().collect()
        };
        w.u64(entries.len() as u64);
        for (line, v) in entries {
            line.save(w);
            value(v, w);
        }
    }

    fn load_entries(
        &mut self,
        r: &mut SnapReader<'_>,
        far: bool,
        value: impl Fn(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        load_lines(r, far, true, |r, line| {
            *self.slot(line) = value(r)?;
            Ok(())
        })
    }
}

/// Reads a section of near or far lines: a count, then each line and
/// whatever `each` reads after it. An `ascending` section must ascend
/// strictly.
pub(crate) fn load_lines(
    r: &mut SnapReader<'_>,
    far: bool,
    ascending: bool,
    mut each: impl FnMut(&mut SnapReader<'_>, LineAddr) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    let mut prev = None;
    for _ in 0..r.len_prefix(8)? {
        let line = LineAddr::load(r)?;
        if is_far(line) != far {
            let section = if far { "far" } else { "near" };
            return Err(r.err(format!("line {line} in the {section} section")));
        }
        if ascending && prev.is_some_and(|p| p >= line) {
            return Err(r.err(format!("line {line} repeated or out of order")));
        }
        prev = Some(line);
        each(r, line)?;
    }
    Ok(())
}

/// The near section — the whole span or, when `TRACKED`, the touched
/// near lines — then the touched far lines.
impl<T: Snap + Default, const TRACKED: bool> Snap for LineTable<T, TRACKED> {
    fn save(&self, w: &mut SnapWriter) {
        if TRACKED {
            self.save_entries(w, false, T::save);
        } else {
            self.near.save(w);
        }
        self.save_entries(w, true, T::save);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut t = Self::default();
        if TRACKED {
            t.load_entries(r, false, T::load)?;
        } else {
            t.near = Snap::load(r)?;
            if t.near.len() as u64 > NEAR_LINES {
                return Err(r.err(format!("a near span of {} lines", t.near.len())));
            }
        }
        t.load_entries(r, true, T::load)?;
        Ok(t)
    }
}

/// An exact set of lines: one bit per near line, a mask per far page.
#[derive(Debug, Clone, Default)]
pub struct LineSet(LineTable<(), true>);

impl LineSet {
    /// Adds `line`; `true` if it was not in the set.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) -> bool {
        let (word, bit) = self.mask(line);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Removes `line` from the set.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) {
        let (word, bit) = self.mask(line);
        *word &= !bit;
    }

    /// `true` if `line` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = line.index();
        let word = if idx < NEAR_LINES {
            self.0.near_touched.get(idx as usize / 64)
        } else {
            self.0.far.get(&(idx / PAGE_LINES)).map(|p| &p.touched)
        };
        word.is_some_and(|w| w >> (idx % PAGE_LINES) & 1 != 0)
    }

    /// The touched word holding `line`'s bit, allocated on first use, and
    /// the bit.
    #[inline]
    fn mask(&mut self, line: LineAddr) -> (&mut u64, u64) {
        let (t, idx) = (&mut self.0, line.index());
        let bit = 1 << (idx % PAGE_LINES);
        if idx >= NEAR_LINES {
            return (&mut t.far_page(idx).touched, bit);
        }
        if idx as usize >= t.near.len() {
            t.grow(idx as usize);
        }
        (&mut t.near_touched[idx as usize / 64], bit)
    }
}

/// The near bit words, then the far members.
impl Snap for LineSet {
    fn save(&self, w: &mut SnapWriter) {
        self.0.near_touched.save(w);
        self.0.save_entries(w, true, |_, _| {});
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let words: Vec<u64> = Snap::load(r)?;
        if words.len() as u64 > NEAR_LINES / 64 {
            return Err(r.err(format!("{} near bit words", words.len())));
        }
        let mut t = LineTable::default();
        t.near.resize(words.len() * 64, ());
        t.near_touched = words;
        t.load_entries(r, true, |_| Ok(()))?;
        Ok(LineSet(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReadSignature;

    const EDGE: u64 = NEAR_LINES;
    const TOP: LineAddr = LineAddr(u64::MAX);

    fn lines<T: Default, const TRACKED: bool>(t: &LineTable<T, TRACKED>) -> Vec<u64> {
        t.iter().map(|(l, _)| l.index()).collect()
    }

    #[test]
    fn edge_and_top_lines_are_independent() {
        let mut t: LineTable<u64> = LineTable::new();
        for (i, line) in [LineAddr(EDGE - 1), LineAddr(EDGE), TOP]
            .into_iter()
            .enumerate()
        {
            *t.slot(line) = i as u64 + 1;
        }
        assert_eq!(t.get(LineAddr(EDGE - 1)), Some(&1));
        assert_eq!(t.get(LineAddr(EDGE)), Some(&2));
        assert_eq!(t.get(TOP), Some(&3));
        assert_eq!(lines(&t)[EDGE as usize..], [EDGE, u64::MAX]);
    }

    #[test]
    fn growing_the_near_span_allocates_defaults_below_the_edge_only() {
        let mut t: LineTable<u64> = LineTable::new();
        *t.slot(LineAddr(EDGE - 1)) = 1;
        assert_eq!(t.get(LineAddr(5)), Some(&0));
        assert_eq!(t.get(LineAddr(EDGE)), None);
        assert_eq!(t.get(LineAddr(EDGE + 64)), None);
        assert_eq!(t.get(TOP), None);
    }

    #[test]
    fn untouched_lines_on_a_far_page_read_default_and_stay_unlisted() {
        let mut t: LineTable<u64> = LineTable::new();
        *t.slot(LineAddr(EDGE)) = 5;
        assert_eq!(t.get(LineAddr(EDGE + 1)), Some(&0));
        assert_eq!(t.iter().filter(|(l, _)| l.index() >= EDGE).count(), 1);
        // The first near line grows no span above it.
        *t.slot(LineAddr(0)) = 6;
        assert_eq!(lines(&t), [0, EDGE]);
    }

    #[test]
    fn an_explicit_default_write_still_counts_as_touched() {
        let mut t: LineTable<u64> = LineTable::new();
        *t.slot(LineAddr(EDGE + 3)) = 0;
        *t.slot(TOP) = 0;
        assert_eq!(lines(&t), [EDGE + 3, u64::MAX]);
    }

    #[test]
    fn tracked_tables_list_only_touched_near_lines() {
        let mut tracked: LineTable<u64, true> = LineTable::new();
        let mut plain: LineTable<u64> = LineTable::new();
        for idx in [5, 2, EDGE + 1] {
            *tracked.slot(LineAddr(idx)) = 0;
            *plain.slot(LineAddr(idx)) = 0;
        }
        assert_eq!(lines(&tracked), [2, 5, EDGE + 1]);
        assert_eq!(lines(&plain), [0, 1, 2, 3, 4, 5, EDGE + 1]);
        // Reading allocates and touches nothing.
        assert_eq!(tracked.get(LineAddr(3)), Some(&0));
        assert_eq!(lines(&tracked), [2, 5, EDGE + 1]);
    }

    #[test]
    fn iteration_ascends_by_line() {
        let mut t: LineTable<u8> = LineTable::new();
        for idx in [
            u64::MAX,
            EDGE + 200,
            2,
            EDGE + 1,
            1 << 40,
            EDGE - 1,
            EDGE + 130,
        ] {
            *t.slot(LineAddr(idx)) = 1;
        }
        let got = lines(&t);
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len() as u64, EDGE + 5);
    }

    #[test]
    fn flags_on_both_sides_of_the_edge_clear_independently() {
        let mut set = LineSet::default();
        for idx in [EDGE - 1, EDGE, u64::MAX] {
            assert!(set.insert(LineAddr(idx)), "first insert of {idx}");
        }
        assert!(!set.insert(LineAddr(EDGE)), "second insert");
        set.remove(LineAddr(EDGE));
        assert!(set.contains(LineAddr(EDGE - 1)) && set.contains(TOP));
        assert!(!set.contains(LineAddr(EDGE)) && !set.contains(LineAddr(EDGE + 1)));
        set.remove(LineAddr(EDGE - 1));
        set.remove(TOP);
        assert!(!set.contains(LineAddr(EDGE - 1)) && !set.contains(TOP));
    }

    fn encode<T: Snap>(t: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.save(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<LineTable<u64, true>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let t = Snap::load(&mut r)?;
        assert!(r.is_empty(), "trailing bytes");
        Ok(t)
    }

    #[test]
    fn sections_round_trip_and_reject_the_wrong_half() {
        let mut t: LineTable<u64, true> = LineTable::new();
        for (idx, v) in [(3, 1), (9, 2), (EDGE, 3), (u64::MAX, 4)] {
            *t.slot(LineAddr(idx)) = v;
        }
        let bytes = encode(&t);
        let back = decode(&bytes).expect("round trip");
        assert_eq!(encode(&back)[..], bytes[..]);

        // Swap a near key into the far section and the reverse.
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(EDGE);
        w.u64(7);
        w.u64(1);
        w.u64(EDGE - 1);
        w.u64(7);
        let err = decode(&w.into_bytes()).expect_err("far line in the near section");
        assert!(err.to_string().contains("near section"), "{err}");
    }

    #[test]
    fn repeated_and_unordered_lines_are_rejected() {
        for (a, b) in [(EDGE + 1, EDGE + 1), (EDGE + 2, EDGE + 1)] {
            let mut w = SnapWriter::new();
            w.u64(0);
            w.u64(2);
            for idx in [a, b] {
                w.u64(idx);
                w.u64(1);
            }
            assert!(decode(&w.into_bytes()).is_err(), "{a} then {b}");
        }
        let mut w = SnapWriter::new();
        w.u64(2);
        w.u64(5);
        w.u64(5);
        w.u64(0);
        let err = ReadSignature::load(&mut SnapReader::new(&w.into_bytes()))
            .expect_err("a near line listed twice");
        assert!(err.to_string().contains("repeated"), "{err}");
    }

    #[test]
    fn sets_and_signatures_round_trip() {
        let mut set = LineSet::default();
        set.insert(LineAddr(70));
        set.insert(TOP);
        let mut sig = ReadSignature::new();
        for line in [LineAddr(9), LineAddr(2), TOP, LineAddr(EDGE)] {
            sig.insert(line);
        }
        let bytes = encode(&(set, sig));

        let mut r = SnapReader::new(&bytes);
        let (set, sig): (LineSet, ReadSignature) = Snap::load(&mut r).expect("round trip");
        assert!(set.contains(LineAddr(70)) && set.contains(TOP));
        assert!(!set.contains(LineAddr(71)));
        // Near lines keep their order; far ones come back ascending.
        let order: Vec<LineAddr> = sig.iter().collect();
        assert_eq!(order, [LineAddr(9), LineAddr(2), LineAddr(EDGE), TOP]);
        assert_eq!(encode(&(set, sig)), bytes);
    }
}
