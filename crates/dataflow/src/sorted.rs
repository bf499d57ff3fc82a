//! Sorted interval relations, plus the k-way merge that combines sorted runs.
//!
//! [`SortedRelation`] keeps `(key, interval, payload)` rows sorted by join key, then
//! interval — the order of the engine's key-sorted permutations, which
//! [`SortedRelation::union_merge`] maintains without a re-sort.  [`kway_merge_dedup`]
//! combines several sorted runs (for example the per-chunk outputs of the parallel
//! executor) into one sorted, duplicate-free run with a binary heap instead of
//! re-sorting the concatenation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tgraph::Interval;

/// An interval relation whose rows are sorted by `(key, interval.start, interval.end)`.
///
/// The sort invariant is established on construction and maintained by every
/// operation, so consumers can rely on it without re-checking.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortedRelation<K, V> {
    rows: Vec<(K, Interval, V)>,
}

impl<K: Ord, V> SortedRelation<K, V> {
    /// Wraps rows that are already sorted; returns `None` if they are not.
    pub fn from_sorted(rows: Vec<(K, Interval, V)>) -> Option<Self> {
        let sorted = rows.windows(2).all(|w| (&w[0].0, w[0].1) <= (&w[1].0, w[1].1));
        sorted.then_some(SortedRelation { rows })
    }

    /// Consumes the relation and returns its rows.
    pub fn into_rows(self) -> Vec<(K, Interval, V)> {
        self.rows
    }

    /// Merges two sorted relations into one, preserving the sort invariant with a
    /// linear two-way merge (no re-sort).
    pub fn union_merge(self, other: SortedRelation<K, V>) -> Self {
        let mut out = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (mut a, mut b) = (self.rows.into_iter(), other.rows.into_iter());
        let (mut next_a, mut next_b) = (a.next(), b.next());
        loop {
            match (next_a, next_b) {
                (Some(ra), Some(rb)) => {
                    if (&ra.0, ra.1) <= (&rb.0, rb.1) {
                        out.push(ra);
                        next_a = a.next();
                        next_b = Some(rb);
                    } else {
                        out.push(rb);
                        next_a = Some(ra);
                        next_b = b.next();
                    }
                }
                (Some(ra), None) => {
                    out.push(ra);
                    out.extend(a);
                    break;
                }
                (None, Some(rb)) => {
                    out.push(rb);
                    out.extend(b);
                    break;
                }
                (None, None) => break,
            }
        }
        SortedRelation { rows: out }
    }
}

/// Merges sorted runs into one sorted sequence with a binary heap.  Each run must be
/// sorted (`Ord` on the element type); ties across runs are broken by run index,
/// making the merge deterministic.
fn kway_merge<T: Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<T>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(T, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some(head) = iter.next() {
            heap.push(Reverse((head, run)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((value, run))) = heap.pop() {
        out.push(value);
        if let Some(next) = iters[run].next() {
            heap.push(Reverse((next, run)));
        }
    }
    out
}

/// Merges sorted runs into one sorted sequence in which equal elements (within or
/// across runs) appear once: the order-exploiting rewrite of `concatenate + sort +
/// dedup` used to combine per-worker outputs.
pub fn kway_merge_dedup<T: Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut out = kway_merge(runs);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::of(a, b)
    }

    #[test]
    fn construction_sorts_and_validates() {
        let rows = vec![("a", iv(0, 3), 2u8), ("a", iv(5, 9), 1), ("b", iv(1, 2), 0)];
        let rel = SortedRelation::from_sorted(rows.clone()).expect("rows are sorted");
        assert_eq!(rel.into_rows(), rows);
        assert!(
            SortedRelation::from_sorted(vec![("b", iv(1, 2), 0u8), ("a", iv(0, 3), 1)]).is_none()
        );
        // Same key: the interval breaks the tie.
        assert!(
            SortedRelation::from_sorted(vec![("a", iv(5, 9), 0u8), ("a", iv(0, 3), 1)]).is_none()
        );
        assert!(SortedRelation::<u32, ()>::from_sorted(Vec::new()).is_some());
    }

    #[test]
    fn union_merge_preserves_the_invariant() {
        let sorted = |rows| SortedRelation::from_sorted(rows).expect("rows are sorted");
        let a = sorted(vec![(1u32, iv(0, 1), "a"), (3, iv(0, 1), "c")]);
        let b = sorted(vec![(2u32, iv(0, 1), "b"), (3, iv(0, 0), "d")]);
        let merged = a.union_merge(b).into_rows();
        let payloads: Vec<&str> = merged.iter().map(|(_, _, p)| *p).collect();
        assert_eq!(payloads, vec!["a", "b", "d", "c"]);
        assert!(SortedRelation::from_sorted(merged).is_some());
    }

    #[test]
    fn kway_merge_combines_runs_in_order() {
        let runs = vec![vec![1u32, 4, 9], vec![2, 2, 5], vec![], vec![3, 9]];
        assert_eq!(kway_merge(runs.clone()), vec![1, 2, 2, 3, 4, 5, 9, 9]);
        assert_eq!(kway_merge_dedup(runs), vec![1, 2, 3, 4, 5, 9]);
        assert_eq!(kway_merge::<u32>(vec![]), Vec::<u32>::new());
    }
}
