//! Greedy shrinking of a failing input: the one minimizer behind the
//! model checker's counterexample schedules ([`crate::Explorer::minimize`])
//! and the chaos harness's fault plans.

/// What [`shrink`] kept, the failure it still shows, and what it cost.
#[derive(Clone, Debug)]
pub struct Shrunk<T, E> {
    /// The items left, in their original order.
    pub kept: Vec<T>,
    /// The failure reported for `kept` (the starting one if nothing was
    /// dropped).
    pub failure: E,
    /// Calls made to the failure predicate.
    pub calls: usize,
}

/// Greedy delta-debugging: drop one item, keep the drop if `fails` still
/// reports a failure, and repeat whole passes until one drops nothing.
/// Each pass tries the items still kept in their original order, with
/// every earlier drop of the pass applied. The result is 1-minimal: no
/// single item of `kept` can be removed with the failure persisting.
pub fn shrink<T: Clone, E>(
    items: &[T],
    failure: E,
    mut fails: impl FnMut(&[T]) -> Option<E>,
) -> Shrunk<T, E> {
    let mut shrunk = Shrunk {
        kept: items.to_vec(),
        failure,
        calls: 0,
    };
    loop {
        let mut dropped = false;
        let mut i = 0;
        while i < shrunk.kept.len() {
            let mut candidate = shrunk.kept.clone();
            candidate.remove(i);
            shrunk.calls += 1;
            if let Some(failure) = fails(&candidate) {
                shrunk.kept = candidate;
                shrunk.failure = failure;
                dropped = true;
            } else {
                i += 1;
            }
        }
        if !dropped {
            return shrunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_a_one_minimal_set_and_counts_every_call() {
        // Fails while both 2 and 5 are present; reports the length.
        let items: Vec<u32> = (0..7).collect();
        let mut seen = Vec::new();
        let shrunk = shrink(&items, 7, |c| {
            seen.push(c.to_vec());
            (c.contains(&2) && c.contains(&5)).then_some(c.len())
        });
        assert_eq!(shrunk.kept, vec![2, 5]);
        assert_eq!(shrunk.failure, 2);
        // Pass one tries all seven items (five drops), pass two both kept.
        assert_eq!(shrunk.calls, 9);
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(seen[1], vec![2, 3, 4, 5, 6]);
        assert_eq!(seen[2], vec![3, 4, 5, 6]);
    }
}
