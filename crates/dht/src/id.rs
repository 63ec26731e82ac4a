//! 128-bit identifiers for the circular NodeId space.
//!
//! Each edge node owns a unique 128-bit NodeId in a circular space (§4.2).
//! Prefix routing interprets an id as a string of base-`2^b` digits, most
//! significant first; the paper configures tree fanouts 8/16/32 by setting
//! the routing base bits `b` to 3/4/5. For the multi-ring structure the top
//! `m` bits of an id are the *zone id* and the remainder is the suffix
//! within the zone: `D = P * 2^n + S`.

use core::fmt;

/// Total bits in an identifier.
pub const ID_BITS: u32 = 128;

/// A 128-bit identifier on the circular NodeId/key space.
///
/// # Examples
///
/// ```
/// use totoro_dht::Id;
///
/// // Prefix digits in base 2^4 (fanout-16 routing).
/// let id = Id::new(0xAB00_0000_0000_0000_0000_0000_0000_0000);
/// assert_eq!(id.digit(0, 4), 0xA);
/// assert_eq!(id.digit(1, 4), 0xB);
///
/// // The multi-ring layout: zone prefix + suffix.
/// let in_zone_3 = Id::compose(3, 8, 0xFEED);
/// assert_eq!(in_zone_3.zone(8), 3);
/// assert_eq!(in_zone_3.suffix(8), 0xFEED);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u128);

impl Id {
    /// The zero identifier.
    pub const ZERO: Id = Id(0);

    /// Builds an id from a raw value.
    pub const fn new(v: u128) -> Self {
        Id(v)
    }

    /// Raw value.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Number of base-`2^b` digits in an id (the last digit may be narrower
    /// when `b` does not divide 128).
    pub fn num_digits(b: u32) -> u32 {
        ID_BITS.div_ceil(b)
    }

    /// Extracts digit `i` (0 = most significant) in base `2^b`.
    pub fn digit(self, i: u32, b: u32) -> u32 {
        debug_assert!((1..=8).contains(&b), "digit width out of range");
        let start = i * b;
        debug_assert!(start < ID_BITS);
        let width = b.min(ID_BITS - start);
        let shift = ID_BITS - start - width;
        ((self.0 >> shift) & ((1u128 << width) - 1)) as u32
    }

    /// Returns a copy of `self` with digit `i` (base `2^b`) replaced by `d`.
    pub fn with_digit(self, i: u32, b: u32, d: u32) -> Id {
        let start = i * b;
        let width = b.min(ID_BITS - start);
        let shift = ID_BITS - start - width;
        let mask = ((1u128 << width) - 1) << shift;
        Id((self.0 & !mask) | ((u128::from(d) << shift) & mask))
    }

    /// Length (in digits, base `2^b`) of the longest common prefix of two
    /// ids. Equal ids share all digits.
    pub fn shared_prefix_digits(self, other: Id, b: u32) -> u32 {
        if self == other {
            return Self::num_digits(b);
        }
        let diff_bit = (self.0 ^ other.0).leading_zeros();
        diff_bit / b
    }

    /// Distance on the circular id space: `min(|a-b|, 2^128 - |a-b|)`.
    pub fn ring_distance(self, other: Id) -> u128 {
        let d = self.0.wrapping_sub(other.0);
        d.min(d.wrapping_neg())
    }

    /// Clockwise distance from `self` to `other` (how far `other` is ahead).
    pub fn clockwise_distance(self, other: Id) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// Whether `self` lies in the half-open clockwise arc `(from, to]`.
    pub fn in_arc(self, from: Id, to: Id) -> bool {
        if from == to {
            // Whole-ring arc.
            return true;
        }
        from.clockwise_distance(self) <= from.clockwise_distance(to) && self != from
    }

    /// The zone id: the top `zone_bits` bits of the identifier.
    pub fn zone(self, zone_bits: u32) -> u64 {
        if zone_bits == 0 {
            return 0;
        }
        (self.0 >> (ID_BITS - zone_bits)) as u64
    }

    /// The suffix within the zone: the low `128 - zone_bits` bits.
    pub fn suffix(self, zone_bits: u32) -> u128 {
        if zone_bits == 0 {
            return self.0;
        }
        self.0 & (u128::MAX >> zone_bits)
    }

    /// Composes an id from a zone id and an intra-zone suffix:
    /// `D = P * 2^n + S` with `n = 128 - zone_bits` (§4.2).
    pub fn compose(zone: u64, zone_bits: u32, suffix: u128) -> Id {
        if zone_bits == 0 {
            return Id(suffix);
        }
        let n = ID_BITS - zone_bits;
        let p = (u128::from(zone) & ((1u128 << zone_bits) - 1)) << n;
        Id(p | (suffix & (u128::MAX >> zone_bits)))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:032x})", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Finds the index of the id in `sorted` numerically closest to `key` on the
/// ring. `sorted` must be sorted ascending and non-empty. Ties are broken
/// toward the smaller id, matching the deterministic rendezvous rule used
/// for tree roots.
pub fn closest_on_ring(sorted: &[Id], key: Id) -> usize {
    debug_assert!(!sorted.is_empty());
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let i = sorted.partition_point(|id| id.0 < key.0);
    // Candidates: predecessor and successor (with wraparound).
    let succ = i % sorted.len();
    let pred = (i + sorted.len() - 1) % sorted.len();
    let ds = sorted[succ].ring_distance(key);
    let dp = sorted[pred].ring_distance(key);
    match ds.cmp(&dp) {
        std::cmp::Ordering::Less => succ,
        std::cmp::Ordering::Greater => pred,
        std::cmp::Ordering::Equal => {
            if sorted[succ].0 <= sorted[pred].0 {
                succ
            } else {
                pred
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_round_trip_for_all_bases() {
        let id = Id::new(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978);
        for b in 1..=8 {
            let digits: Vec<u32> = (0..Id::num_digits(b)).map(|i| id.digit(i, b)).collect();
            // Rebuild the id from digits.
            let mut rebuilt = Id::ZERO;
            for (i, &d) in digits.iter().enumerate() {
                rebuilt = rebuilt.with_digit(i as u32, b, d);
            }
            assert_eq!(rebuilt, id, "base 2^{b}");
        }
    }

    #[test]
    fn num_digits_matches_paper_bases() {
        assert_eq!(Id::num_digits(3), 43); // fanout 8
        assert_eq!(Id::num_digits(4), 32); // fanout 16
        assert_eq!(Id::num_digits(5), 26); // fanout 32
    }

    #[test]
    fn first_digit_is_most_significant() {
        let id = Id::new(0xF000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(id.digit(0, 4), 0xF);
        assert_eq!(id.digit(1, 4), 0);
    }

    #[test]
    fn shared_prefix_counts_digits() {
        let a = Id::new(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let b4 = Id::new(0xAB10_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_digits(b4, 4), 2);
        assert_eq!(a.shared_prefix_digits(a, 4), 32);
        let c = Id::new(0x0B00_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_digits(c, 4), 0);
    }

    #[test]
    fn ring_distance_is_symmetric_and_wraps() {
        let a = Id::new(5);
        let b = Id::new(u128::MAX - 4); // 10 apart across the wrap
        assert_eq!(a.ring_distance(b), 10);
        assert_eq!(b.ring_distance(a), 10);
        assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn arcs_wrap_correctly() {
        let a = Id::new(10);
        let b = Id::new(20);
        assert!(Id::new(15).in_arc(a, b));
        assert!(!Id::new(25).in_arc(a, b));
        // Wrapping arc (20, 10]: 25 and 5 are inside, 15 is not.
        assert!(Id::new(25).in_arc(b, a));
        assert!(Id::new(5).in_arc(b, a));
        assert!(!Id::new(15).in_arc(b, a));
    }

    #[test]
    fn zone_compose_round_trips() {
        for zone_bits in [0u32, 4, 8, 16] {
            let zone = 0b1010u64 & ((1 << zone_bits.min(4)) - 1);
            let suffix = 0x1234_5678_9abc_def0u128;
            let id = Id::compose(zone, zone_bits, suffix);
            assert_eq!(id.zone(zone_bits), zone, "zone_bits={zone_bits}");
            assert_eq!(id.suffix(zone_bits), suffix, "zone_bits={zone_bits}");
        }
    }

    #[test]
    fn compose_matches_paper_formula() {
        // D = P * 2^n + S.
        let zone_bits = 8;
        let n = 128 - zone_bits;
        let p = 0x42u64;
        let s = 0xdead_beefu128;
        let id = Id::compose(p, zone_bits, s);
        assert_eq!(id.raw(), (u128::from(p) << n) + s);
    }

    #[test]
    fn closest_on_ring_picks_nearest() {
        let sorted = vec![Id::new(10), Id::new(100), Id::new(1_000)];
        assert_eq!(closest_on_ring(&sorted, Id::new(12)), 0);
        assert_eq!(closest_on_ring(&sorted, Id::new(90)), 1);
        assert_eq!(closest_on_ring(&sorted, Id::new(999)), 2);
        // Wraparound: u128::MAX is closest to 10.
        assert_eq!(closest_on_ring(&sorted, Id::new(u128::MAX)), 0);
        // Exact hit.
        assert_eq!(closest_on_ring(&sorted, Id::new(100)), 1);
    }

    #[test]
    fn closest_on_ring_tie_breaks_to_smaller_id() {
        let sorted = vec![Id::new(10), Id::new(20)];
        // 15 is equidistant; smaller id wins.
        assert_eq!(closest_on_ring(&sorted, Id::new(15)), 0);
    }
}
