//! A fixed-size bit set for per-node boolean state.
//!
//! At the million-node scale of the `engine_gossip` workload a
//! `Vec<bool>` costs one byte per node and, worse, one cache line per 64
//! nodes touched. Packing liveness into machine words cuts the `alive`
//! table from 1 MB to 125 KB per million nodes and lets bulk operations
//! (population count, clear) run word-at-a-time.

/// A fixed-length set of bits, indexed like a `Vec<bool>`.
///
/// All operations are deterministic and allocation happens only at
/// construction (or explicit `resize`).
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a set of `len` bits, all initialized to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let fill = if value { !0u64 } else { 0 };
        let mut s = BitSet {
            words: vec![fill; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Zeroes any bits beyond `len` in the last word so `count_ones`
    /// stays exact after a `filled(_, true)`.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`. Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`. Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held by the set (capacity-based, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_true_and_false() {
        let t = BitSet::filled(130, true);
        assert_eq!(t.len(), 130);
        assert_eq!(t.count_ones(), 130);
        assert!(t.get(0) && t.get(64) && t.get(129));
        let f = BitSet::filled(130, false);
        assert_eq!(f.count_ones(), 0);
        assert!(!f.get(129));
    }

    #[test]
    fn set_and_clear_round_trip() {
        let mut s = BitSet::filled(100, false);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert_eq!(s.count_ones(), 3);
        assert!(s.get(63) && s.get(64) && s.get(99));
        s.set(64, false);
        assert_eq!(s.count_ones(), 2);
        assert!(!s.get(64));
    }

    #[test]
    fn tail_bits_are_masked() {
        let s = BitSet::filled(65, true);
        assert_eq!(s.count_ones(), 65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitSet::filled(10, false).get(10);
    }
}
