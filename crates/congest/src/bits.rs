//! Compact bit strings with exact length accounting.
//!
//! CONGEST budgets are stated in *bits*, so message payloads must track
//! their length at bit granularity. `BitString` packs bits into `u64`
//! words and provides a little-endian writer/reader pair for encoding
//! fixed-width integers — the only serialization the distributed
//! algorithms need.
//!
//! All bulk operations (`push_uint`, `read_uint`, `extend_bits`,
//! `from_bools`, `to_bools`) work on whole 64-bit words with at most one
//! cross-word split per call, not bit-by-bit loops; the bit-by-bit
//! originals survive in the test module as a differential oracle.
//!
//! The first word lives inline, so a payload of at most 64 bits (a
//! label, an id, a distance) never touches the allocator.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Packed word storage with one word inline.
///
/// It spills to the heap only when it needs a second word, and once
/// spilled it stays spilled, so a string that is cleared and refilled
/// keeps reusing its allocation. The rest of this module sees it as a
/// `[u64]` slice plus the few `Vec` operations below.
#[derive(Clone)]
enum Words {
    /// No word (`false`) or exactly one (`true`); the word is zero when
    /// absent.
    Inline(bool, u64),
    Heap(Vec<u64>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline(false, 0)
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(false, _) => &[],
            Words::Inline(true, w) => std::slice::from_ref(w),
            Words::Heap(v) => v,
        }
    }
}

impl DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(false, _) => &mut [],
            Words::Inline(true, w) => std::slice::from_mut(w),
            Words::Heap(v) => v,
        }
    }
}

impl Words {
    /// The heap vector, moving an inline word into a fresh allocation
    /// with room for `additional` more words first.
    fn spill(&mut self, additional: usize) -> &mut Vec<u64> {
        if let Words::Inline(present, w) = *self {
            let mut v = Vec::with_capacity(usize::from(present) + additional);
            v.extend(present.then_some(w));
            *self = Words::Heap(v);
        }
        let Words::Heap(v) = self else {
            unreachable!("spilled above")
        };
        v
    }

    #[inline]
    fn push(&mut self, word: u64) {
        match self {
            Words::Inline(false, _) => *self = Words::Inline(true, word),
            Words::Inline(true, _) => self.spill(1).push(word),
            Words::Heap(v) => v.push(word),
        }
    }

    fn extend_from_slice(&mut self, words: &[u64]) {
        match (&*self, words) {
            (_, []) => {}
            (Words::Inline(false, _), &[w]) => *self = Words::Inline(true, w),
            _ => self.spill(words.len()).extend_from_slice(words),
        }
    }

    /// Makes room for `additional` more words, spilling only when the
    /// total would exceed the inline word.
    fn reserve(&mut self, additional: usize) {
        match self {
            Words::Heap(v) => v.reserve(additional),
            Words::Inline(..) if self.len() + additional > 1 => {
                self.spill(additional);
            }
            Words::Inline(..) => {}
        }
    }

    #[inline]
    fn truncate(&mut self, len: usize) {
        match self {
            Words::Inline(..) if len == 0 => *self = Words::default(),
            Words::Inline(..) => {}
            Words::Heap(v) => v.truncate(len),
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.truncate(0);
    }
}

/// A growable bit string packed into 64-bit words.
///
/// Invariant: `words.len() == len.div_ceil(64)` and every bit at
/// position `>= len` in the last word is zero. Equality and hashing
/// therefore compare packed words directly, whether the words are
/// inline or on the heap.
///
/// A string of at most 64 bits keeps its one word inline and never
/// allocates; a longer one spills to the heap and keeps that allocation
/// through [`clear`](BitString::clear) and
/// [`truncate`](BitString::truncate).
///
/// # Example
///
/// ```
/// use qdc_congest::BitString;
///
/// let mut b = BitString::new();
/// b.push_uint(5, 3);    // three bits: 101
/// b.push_bit(true);
/// assert_eq!(b.len(), 4);
/// let mut r = b.reader();
/// assert_eq!(r.read_uint(3), Some(5));
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bit(), None);
/// ```
#[derive(Clone, Default)]
pub struct BitString {
    words: Words,
    len: usize,
}

impl PartialEq for BitString {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && *self.words == *other.words
    }
}

impl Eq for BitString {}

impl Hash for BitString {
    /// Feeds the hasher exactly what the derived impl over a
    /// `Vec<u64>` did: the word slice, then the length.
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.words).hash(state);
        self.len.hash(state);
    }
}

impl std::fmt::Debug for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitString[")?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…({} bits)", self.len)?;
        }
        write!(f, "]")
    }
}

/// The low `width` bits set, for `width <= 64`.
#[inline(always)]
fn low_mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl BitString {
    /// An empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Builds from a slice of bools, packing 64 bits per word.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut words = Words::default();
        words.reserve(bits.len().div_ceil(64));
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << i;
            }
            words.push(w);
        }
        BitString {
            words,
            len: bits.len(),
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        let offset = self.len % 64;
        if offset == 0 {
            self.words.push(bit as u64);
        } else if bit {
            *self.words.last_mut().expect("non-empty by invariant") |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, least-significant first,
    /// in at most two word operations.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` has bits above `width`.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let offset = self.len % 64;
        if offset == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("non-empty by invariant") |= value << offset;
            if offset + width > 64 {
                self.words.push(value >> (64 - offset));
            }
        }
        self.len += width;
    }

    /// Appends another bit string, word by word (one cross-word split per
    /// 64 bits when the tail is unaligned, a plain slice extend when it
    /// is aligned).
    pub fn extend_bits(&mut self, other: &BitString) {
        if other.len == 0 {
            return;
        }
        if self.len.is_multiple_of(64) {
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        let mut remaining = other.len;
        for &w in other.words.iter() {
            let take = remaining.min(64);
            // The invariant zeroes bits past `other.len`, so `w` already
            // fits in `take` bits and splits like a `push_uint`.
            let offset = self.len % 64;
            if offset == 0 {
                self.words.push(w);
            } else {
                *self.words.last_mut().expect("non-empty by invariant") |= w << offset;
                if offset + take > 64 {
                    self.words.push(w >> (64 - offset));
                }
            }
            self.len += take;
            remaining -= take;
        }
    }

    /// Materializes into a vector of bools, unpacking one word at a time.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        let mut remaining = self.len;
        for &w in self.words.iter() {
            let take = remaining.min(64);
            for i in 0..take {
                out.push(w >> i & 1 == 1);
            }
            remaining -= take;
        }
        out
    }

    /// The `width`-bit little-endian integer starting at bit `start`,
    /// assembled from at most two words.
    ///
    /// Requires `start + width <= len` and `width <= 64` (checked by
    /// callers).
    #[inline]
    fn extract(&self, start: usize, width: usize) -> u64 {
        if width == 0 {
            return 0;
        }
        let word = start / 64;
        let offset = start % 64;
        let lo = self.words[word] >> offset;
        let v = if offset + width > 64 {
            lo | self.words[word + 1] << (64 - offset)
        } else {
            lo
        };
        v & low_mask(width)
    }

    /// Flips the bit at position `i` in place.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Shortens the string to `new_len` bits, zeroing the discarded tail
    /// so the packed-word equality invariant keeps holding. A no-op when
    /// `new_len >= len`.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.words.truncate(new_len.div_ceil(64));
        if let Some(last) = self.words.last_mut() {
            let tail = new_len % 64;
            if tail != 0 {
                *last &= low_mask(tail);
            }
        }
        self.len = new_len;
    }

    /// Empties the string in place, keeping a spilled string's heap
    /// allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// A sequential reader over the bits.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut s = BitString::new();
        for b in iter {
            s.push_bit(b);
        }
        s
    }
}

/// A cursor reading a [`BitString`] front to back.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
}

impl BitReader<'_> {
    /// Reads one bit, or `None` at the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos < self.bits.len() {
            let b = self.bits.get(self.pos);
            self.pos += 1;
            Some(b)
        } else {
            None
        }
    }

    /// Reads a `width`-bit little-endian unsigned integer, or `None` if
    /// fewer than `width` bits remain. The value is assembled from at
    /// most two packed words.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_uint(&mut self, width: usize) -> Option<u64> {
        assert!(width <= 64, "width exceeds 64");
        if self.pos + width > self.bits.len() {
            return None;
        }
        let v = self.bits.extract(self.pos, width);
        self.pos += width;
        Some(v)
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original bit-by-bit implementations, retained verbatim as a
    /// differential-testing oracle for the word-level fast paths.
    mod oracle {
        use super::BitString;

        pub fn push_uint(s: &mut BitString, value: u64, width: usize) {
            assert!(width <= 64, "width exceeds 64");
            assert!(
                width == 64 || value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
            for i in 0..width {
                s.push_bit(value >> i & 1 == 1);
            }
        }

        pub fn read_uint(s: &BitString, pos: usize, width: usize) -> Option<u64> {
            assert!(width <= 64, "width exceeds 64");
            if pos + width > s.len() {
                return None;
            }
            let mut v = 0u64;
            for i in 0..width {
                if s.get(pos + i) {
                    v |= 1 << i;
                }
            }
            Some(v)
        }

        pub fn extend_bits(s: &mut BitString, other: &BitString) {
            for i in 0..other.len() {
                s.push_bit(other.get(i));
            }
        }

        pub fn from_bools(bits: &[bool]) -> BitString {
            let mut s = BitString::new();
            for &b in bits {
                s.push_bit(b);
            }
            s
        }

        pub fn to_bools(s: &BitString) -> Vec<bool> {
            (0..s.len()).map(|i| s.get(i)).collect()
        }
    }

    #[test]
    fn push_and_get_bits() {
        let mut b = BitString::new();
        b.push_bit(true);
        b.push_bit(false);
        b.push_bit(true);
        assert_eq!(b.len(), 3);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(2));
    }

    #[test]
    fn uint_roundtrip_various_widths() {
        for &(v, w) in &[
            (0u64, 1usize),
            (1, 1),
            (5, 3),
            (255, 8),
            (1 << 40, 41),
            (u64::MAX, 64),
        ] {
            let mut b = BitString::new();
            b.push_uint(v, w);
            assert_eq!(b.len(), w);
            assert_eq!(b.reader().read_uint(w), Some(v), "v={v}, w={w}");
        }
    }

    #[test]
    fn mixed_stream_roundtrip() {
        let mut b = BitString::new();
        b.push_uint(9, 4);
        b.push_bit(true);
        b.push_uint(1000, 10);
        let mut r = b.reader();
        assert_eq!(r.read_uint(4), Some(9));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_uint(10), Some(1000));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_refuses_overread() {
        let mut b = BitString::new();
        b.push_uint(3, 2);
        let mut r = b.reader();
        assert_eq!(r.read_uint(3), None);
        assert_eq!(r.read_uint(2), Some(3));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        BitString::new().push_uint(8, 3);
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut b = BitString::new();
        for i in 0..130 {
            b.push_bit(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn from_bools_and_back() {
        let v = vec![true, false, false, true, true];
        let b = BitString::from_bools(&v);
        assert_eq!(b.to_bools(), v);
        let c: BitString = v.iter().copied().collect();
        assert_eq!(b, c);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitString::from_bools(&[true, false]);
        let b = BitString::from_bools(&[true, true]);
        a.extend_bits(&b);
        assert_eq!(a.to_bools(), vec![true, false, true, true]);
    }

    #[test]
    fn zero_width_push_is_a_noop() {
        let mut b = BitString::new();
        b.push_uint(0, 0);
        assert!(b.is_empty());
        b.push_uint(5, 3);
        b.push_uint(0, 0);
        assert_eq!(b.len(), 3);
        assert_eq!(b.reader().read_uint(3), Some(5));
    }

    #[test]
    fn word_invariant_holds_after_mixed_pushes() {
        // High bits past `len` must stay zero or equality/extend break.
        let mut b = BitString::new();
        b.push_uint(u64::MAX, 64);
        b.push_uint(1, 1);
        assert_eq!(b.words.len(), 2);
        assert_eq!(b.words[1], 1);
        let mut c = BitString::new();
        for _ in 0..64 {
            c.push_bit(true);
        }
        c.push_bit(true);
        assert_eq!(b, c);
    }

    #[test]
    fn debug_is_compact() {
        let b = BitString::from_bools(&[true, false, true]);
        assert_eq!(format!("{b:?}"), "BitString[101]");
    }

    #[test]
    fn toggle_flips_in_place() {
        let mut b = BitString::from_bools(&[true, false, true]);
        b.toggle(1);
        assert_eq!(b.to_bools(), vec![true, true, true]);
        b.toggle(1);
        assert_eq!(b.to_bools(), vec![true, false, true]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn toggle_out_of_range_panics() {
        let mut b = BitString::from_bools(&[true]);
        b.toggle(1);
    }

    #[test]
    fn clear_empties_but_keeps_equality_semantics() {
        let mut b = BitString::from_bools(&[true, false, true]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b, BitString::new());
        b.push_bit(true); // reusable after clear
        assert_eq!(b.to_bools(), vec![true]);
    }

    #[test]
    fn truncate_beyond_len_is_noop() {
        let mut b = BitString::from_bools(&[true, false]);
        b.truncate(5);
        assert_eq!(b.to_bools(), vec![true, false]);
        b.truncate(0);
        assert!(b.is_empty());
    }

    /// Asserts the packed-word invariants: one word per started 64 bits
    /// and a zero tail past `len`.
    fn assert_invariants(b: &BitString) {
        assert_eq!(b.words.len(), b.len.div_ceil(64), "word count of {b:?}");
        if let (Some(&last), tail @ 1..) = (b.words.last(), b.len % 64) {
            assert_eq!(last >> tail, 0, "nonzero tail past bit {}", b.len);
        }
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn spilled_then_truncated_equals_and_hashes_like_fresh() {
        let mut grown = BitString::new();
        for i in 0..130 {
            grown.push_bit(i % 3 != 1);
        }
        grown.truncate(10);
        assert!(matches!(grown.words, Words::Heap(_)));
        let fresh: BitString = (0..10).map(|i| i % 3 != 1).collect();
        assert!(matches!(fresh.words, Words::Inline(true, _)));
        assert_eq!(grown, fresh);
        assert_eq!(hash_of(&grown), hash_of(&fresh));
        // The same hash the derived impl over `Vec<u64>` produced.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        vec![fresh.words[0]].hash(&mut h);
        10usize.hash(&mut h);
        assert_eq!(hash_of(&fresh), h.finish());
    }

    /// Lengths at and around the inline/heap boundary and the next word
    /// boundary.
    const NEAR_SPILL: [usize; 11] = [0, 1, 2, 62, 63, 64, 65, 66, 127, 128, 129];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random edit sequences whose lengths cluster around 63/64/65/
        /// 128 bits agree with a bool-vector model after every step, keep
        /// the packed-word invariants, compare and hash equal to the
        /// bit-by-bit oracle's string, and spill exactly when the string
        /// first needs a second word. Each step is `(op, a, b)`: `op`
        /// picks the operation, `a` supplies bits, `b` a length.
        #[test]
        fn edit_sequences_across_the_spill_boundary_match_the_oracle(
            steps in prop::collection::vec((0usize..6, any::<u64>(), any::<usize>()), 1..40),
        ) {
            let mut fast = BitString::new();
            let mut model: Vec<bool> = Vec::new();
            let mut spilled = false;
            for &(op, a, b) in &steps {
                let near = NEAR_SPILL[b % NEAR_SPILL.len()];
                let bits_of = |n: usize| (0..n).map(|i| a.rotate_right(i as u32) & 1 == 1);
                match op {
                    0 => {
                        fast.push_bit(a & 1 == 1);
                        model.push(a & 1 == 1);
                    }
                    1 => {
                        // Even `b`: fill up to the next clustered length.
                        let width = if b % 2 == 0 {
                            let target = NEAR_SPILL.iter().find(|&&t| t > model.len());
                            target.map_or(64, |&t| (t - model.len()).min(64))
                        } else {
                            b % 65
                        };
                        let value = a & low_mask(width);
                        fast.push_uint(value, width);
                        model.extend((0..width).map(|i| value >> i & 1 == 1));
                    }
                    2 => {
                        let other = oracle::from_bools(&bits_of(near).collect::<Vec<_>>());
                        fast.extend_bits(&other);
                        model.extend(bits_of(near));
                    }
                    3 if !model.is_empty() => {
                        let i = b % model.len();
                        fast.toggle(i);
                        model[i] = !model[i];
                    }
                    4 => {
                        fast.truncate(near);
                        model.truncate(near);
                    }
                    5 => {
                        fast.clear();
                        model.clear();
                    }
                    _ => {}
                }
                spilled |= model.len() > 64;
                assert_invariants(&fast);
                prop_assert_eq!(fast.to_bools(), model.clone());
                let slow = oracle::from_bools(&model);
                prop_assert_eq!(&fast, &slow);
                prop_assert_eq!(hash_of(&fast), hash_of(&slow));
                prop_assert_eq!(matches!(fast.words, Words::Heap(_)), spilled);
            }
        }

        /// Word-level `push_uint` produces bit-identical strings to the
        /// bit-by-bit oracle on arbitrary (value, width) streams.
        #[test]
        fn push_uint_matches_oracle(fields in prop::collection::vec((any::<u64>(), 0usize..=64), 1..24)) {
            let mut fast = BitString::new();
            let mut slow = BitString::new();
            for &(v, w) in &fields {
                let masked = v & super::low_mask(w);
                fast.push_uint(masked, w);
                oracle::push_uint(&mut slow, masked, w);
            }
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast.words.len(), fast.len.div_ceil(64));
        }

        /// Word-level `read_uint` agrees with the oracle at every
        /// position, including reads spanning word boundaries.
        #[test]
        fn read_uint_matches_oracle(fields in prop::collection::vec((any::<u64>(), 1usize..=64), 1..24)) {
            let mut bits = BitString::new();
            for &(v, w) in &fields {
                bits.push_uint(v & super::low_mask(w), w);
            }
            let mut r = bits.reader();
            let mut pos = 0usize;
            for &(_, w) in &fields {
                prop_assert_eq!(r.read_uint(w), oracle::read_uint(&bits, pos, w));
                pos += w;
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        /// `extend_bits` concatenation matches the push_bit-by-push_bit
        /// oracle for arbitrary (unaligned) tail offsets.
        #[test]
        fn extend_bits_matches_oracle(
            head in prop::collection::vec(any::<bool>(), 0..130),
            tail in prop::collection::vec(any::<bool>(), 0..130),
        ) {
            let mut fast = BitString::from_bools(&head);
            let mut slow = oracle::from_bools(&head);
            let other = BitString::from_bools(&tail);
            fast.extend_bits(&other);
            oracle::extend_bits(&mut slow, &other);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast.len(), head.len() + tail.len());
        }

        /// Packed `from_bools`/`to_bools` round-trip and match the
        /// push_bit oracle.
        #[test]
        fn bools_roundtrip_matches_oracle(v in prop::collection::vec(any::<bool>(), 0..300)) {
            let fast = BitString::from_bools(&v);
            let slow = oracle::from_bools(&v);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast.to_bools(), v.clone());
            prop_assert_eq!(oracle::to_bools(&fast), v);
        }

        /// Cross-word-boundary pattern: a 64-bit value pushed at every
        /// possible offset reads back exactly.
        #[test]
        fn full_word_at_every_offset(offset in 0usize..64, v in any::<u64>()) {
            let mut b = BitString::new();
            b.push_uint(low_mask(offset) & 0xAAAA_AAAA_AAAA_AAAA, offset);
            b.push_uint(v, 64);
            let mut r = b.reader();
            r.read_uint(offset);
            prop_assert_eq!(r.read_uint(64), Some(v));
        }

        /// `truncate` equals rebuilding from the bool prefix and keeps
        /// the zero-tail packed-word invariant (so equality still works),
        /// and `toggle` matches flipping the corresponding bool.
        #[test]
        fn truncate_and_toggle_match_bool_model(
            v in prop::collection::vec(any::<bool>(), 1..200),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let cut = cut % (v.len() + 1);
            let mut fast = BitString::from_bools(&v);
            fast.truncate(cut);
            prop_assert_eq!(&fast, &BitString::from_bools(&v[..cut]));
            prop_assert_eq!(fast.words.len(), fast.len.div_ceil(64));
            if cut > 0 {
                let flip = flip % cut;
                let mut model = v[..cut].to_vec();
                model[flip] = !model[flip];
                fast.toggle(flip);
                prop_assert_eq!(&fast, &BitString::from_bools(&model));
            }
        }
    }
}
