//! A compact fixed-capacity bit set.
//!
//! Used for dense row/column marker vectors (e.g. the rows selected by the
//! filter vector `R` in the general dynamic SpGEMM) and as a visited set in
//! sparse accumulators.

/// A fixed-capacity bit set over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bit set with capacity for `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits this set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Returns whether the bit was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let w = i / 64;
        let m = 1u64 << (i % 64);
        let was_clear = self.words[w] & m == 0;
        self.words[w] |= m;
        was_clear
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bs = BitSet::new(200);
        assert!(!bs.get(63));
        assert!(bs.set(63));
        assert!(!bs.set(63), "second set reports already-set");
        assert!(bs.get(63));
        bs.clear(63);
        assert!(!bs.get(63));
    }

    #[test]
    fn boundaries() {
        let mut bs = BitSet::new(129);
        bs.set(0);
        bs.set(64);
        bs.set(128);
        assert_eq!(bs.count_ones(), 3);
        assert!(bs.get(0) && bs.get(64) && bs.get(128));
    }

    #[test]
    fn full_and_empty() {
        let mut bs = BitSet::new(70);
        for i in 0..70 {
            bs.set(i);
        }
        assert_eq!(bs.count_ones(), 70);
        assert!(BitSet::new(0).is_empty());
    }
}
