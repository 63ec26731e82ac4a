//! Cheap-clone shared payloads for multicast fan-out.
//!
//! Disseminating a model down a fanout-16 tree clones the payload once per
//! child at every hop. For a multi-megabyte update that deep-copy is the
//! dominant simulator cost — and an artifact of the simulation, since a real
//! node serializes the buffer once and hands the same bytes to every
//! connection. [`Shared`] restores that economy: it wraps the payload in an
//! [`Arc`], so cloning a message per child copies a pointer, not tensors.
//!
//! The accounting contract: sharing is invisible to the measured system.
//! `Shared<T>` reports exactly the inner payload's [`Payload::size_bytes`],
//! so traffic ledgers, sampled transmission delays — and therefore RNG
//! streams and event timelines — are byte-identical to a deep-cloned run.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::sim::Payload;

/// An immutable, cheaply clonable payload wrapper.
///
/// `Shared<T>` behaves like `T` for reading (via [`Deref`]) and for wire
/// accounting (via [`Payload`]), but `clone` is an atomic reference-count
/// bump regardless of how large `T` is. Use it for data that fans out to
/// many receivers unchanged (tree broadcasts, leaf-set gossip); keep plain
/// owned values for data that is mutated per receiver.
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps `value` for sharing.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }

    /// Number of live handles to this payload (diagnostics/tests).
    pub fn handles(this: &Self) -> usize {
        Arc::strong_count(&this.0)
    }

    /// Whether both handles name the same allocation. While either handle
    /// lives the allocation cannot be freed and reused, so `true` means the
    /// other handle reads the very value this one does (nothing hands out
    /// a `&mut T` while another handle exists; see [`Shared::make_mut`]).
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        Arc::ptr_eq(&this.0, &other.0)
    }
}

impl<T: Clone> Shared<T> {
    /// Mutable access, cloning the inner value only if other handles exist
    /// (copy-on-write). An aggregation accumulator that arrived uniquely
    /// owned is therefore mutated in place.
    pub fn make_mut(this: &mut Self) -> &mut T {
        Arc::make_mut(&mut this.0)
    }

    /// Unwraps the inner value, cloning only if other handles exist.
    pub fn into_inner(this: Self) -> T {
        Arc::try_unwrap(this.0).unwrap_or_else(|rc| (*rc).clone())
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> AsRef<T> for Shared<T> {
    fn as_ref(&self) -> &T {
        &self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<T: Payload> Payload for Shared<T> {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    // Trace tags pass through: sharing is invisible to observability too.
    fn layer(&self) -> &'static str {
        self.0.layer()
    }

    fn kind(&self) -> &'static str {
        self.0.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl Payload for Blob {
        fn size_bytes(&self) -> usize {
            self.0.len() + 8
        }
    }

    #[test]
    fn shared_reports_identical_size_bytes() {
        // The accounting contract behind byte-identical scenario output:
        // wrapping must not change what the traffic ledger and the delay
        // sampler see.
        for len in [0, 1, 1_460, 1_000_000] {
            let owned = Blob(vec![7; len]);
            let cloned = owned.clone();
            let shared = Shared::new(owned);
            assert_eq!(shared.size_bytes(), cloned.size_bytes());
            assert_eq!(shared.clone().size_bytes(), cloned.size_bytes());
        }
    }

    #[test]
    fn clone_shares_rather_than_copies() {
        let a = Shared::new(Blob(vec![1, 2, 3]));
        let b = a.clone();
        assert_eq!(Shared::handles(&a), 2);
        assert_eq!(*a, *b);
        // Both handles read the same allocation.
        assert!(std::ptr::eq(&*a, &*b));
    }

    #[test]
    fn ptr_eq_compares_allocations_not_values() {
        let a = Shared::new(Blob(vec![1, 2, 3]));
        let b = a.clone();
        let c = Shared::new(Blob(vec![1, 2, 3]));
        assert!(Shared::ptr_eq(&a, &b));
        assert!(Shared::ptr_eq(&a, &a));
        // Equal values in different allocations are not the same handle.
        assert_eq!(a, c);
        assert!(!Shared::ptr_eq(&a, &c));
        // A copy-on-write through one handle leaves it pointing elsewhere.
        let mut d = a.clone();
        Shared::make_mut(&mut d).0.push(4);
        assert!(!Shared::ptr_eq(&a, &d));
        assert!(Shared::ptr_eq(&a, &b));
    }

    #[test]
    fn make_mut_is_in_place_when_unique() {
        let mut a = Shared::new(Blob(vec![1]));
        let before = (&*a) as *const Blob;
        Shared::make_mut(&mut a).0.push(2);
        assert!(std::ptr::eq(before, &*a), "unique handle must not copy");
        assert_eq!(a.as_ref().0, vec![1, 2]);
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut a = Shared::new(Blob(vec![1]));
        let b = a.clone();
        Shared::make_mut(&mut a).0.push(2);
        assert_eq!(a.as_ref().0, vec![1, 2]);
        assert_eq!(b.as_ref().0, vec![1], "other handle unaffected");
    }

    #[test]
    fn into_inner_avoids_copy_when_unique() {
        let a = Shared::new(Blob(vec![9; 16]));
        assert_eq!(Shared::into_inner(a).0, vec![9; 16]);
        let b = Shared::new(Blob(vec![3]));
        let keep = b.clone();
        assert_eq!(Shared::into_inner(b).0, vec![3]);
        assert_eq!(keep.as_ref().0, vec![3]);
    }
}
