//! The sort-merge join over key-sorted slices.
//!
//! When both inputs are sorted by the join key, one pass pairs up the matching key
//! groups without building a hash table, galloping over the groups that do not
//! match.  [`interval_merge_join_gallop`] keeps only temporally-aligned matches and is
//! the engine's `JoinStrategy::Merge` implementation (the hash side is the engine's
//! own per-key adjacency probe).

use tgraph::Interval;

/// True if `key` is non-decreasing over `items` — the precondition of the merge join.
pub fn is_key_sorted<T, K, F>(items: &[T], key: F) -> bool
where
    K: Ord,
    F: Fn(&T) -> K,
{
    items.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

/// Plain equi merge join with *galloping* group seeks: returns every pair of left
/// and right rows with equal keys, in left-major order (left groups in key order,
/// the pairs of one group in right order).  Both inputs **must** be sorted by their
/// key (checked with a debug assertion).
///
/// On a key mismatch the lagging side jumps to the next candidate group with an
/// exponential probe followed by a binary search instead of advancing one row at a
/// time, so a join that matches only a few key groups of a long key-sorted
/// permutation costs `O(matches + Σ log(jump distance))` rather than
/// `O(|permutation|)` — the merge-path counterpart of probing a hash index, while
/// still streaming both inputs in order.
fn merge_join_gallop<'a, L, R, K, FL, FR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
) -> Vec<(&'a L, &'a R)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
{
    debug_assert!(is_key_sorted(left, &left_key), "merge_join_gallop: left input not key-sorted");
    debug_assert!(
        is_key_sorted(right, &right_key),
        "merge_join_gallop: right input not key-sorted"
    );
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left_key(&left[i]);
        let rk = right_key(&right[j]);
        if lk < rk {
            i = gallop_to(left, i, &left_key, &rk);
        } else if lk > rk {
            j = gallop_to(right, j, &right_key, &lk);
        } else {
            let i_end = group_end(left, i, &left_key);
            let j_end = group_end(right, j, &right_key);
            for l in &left[i..i_end] {
                for r in &right[j..j_end] {
                    out.push((l, r));
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// Temporally-aligned merge join with galloping group seeks: joins key-sorted rows
/// with equal keys whose validity intervals intersect, producing the intersection as
/// the validity interval of the output row, in the left-major order of
/// `merge_join_gallop`.  This is what the engine's merge strategy runs against the
/// key-sorted row permutations, so very selective hops stop paying for the whole
/// permutation.
pub fn interval_merge_join_gallop<'a, L, R, K, FL, FR, IL, IR>(
    left: &'a [L],
    right: &'a [R],
    left_key: FL,
    right_key: FR,
    left_interval: IL,
    right_interval: IR,
) -> Vec<(&'a L, &'a R, Interval)>
where
    K: Ord,
    FL: Fn(&L) -> K,
    FR: Fn(&R) -> K,
    IL: Fn(&L) -> Interval,
    IR: Fn(&R) -> Interval,
{
    merge_join_gallop(left, right, left_key, right_key)
        .into_iter()
        .filter_map(|(l, r)| left_interval(l).intersect(&right_interval(r)).map(|iv| (l, r, iv)))
        .collect()
}

/// The first index `>= start` whose key is `>= target`, found by an exponential
/// probe (1, 2, 4, … steps) followed by a binary search of the overshot window —
/// `O(log d)` for a jump of distance `d`.
fn gallop_to<T, K, F>(items: &[T], start: usize, key: &F, target: &K) -> usize
where
    K: Ord,
    F: Fn(&T) -> K,
{
    if start >= items.len() || key(&items[start]) >= *target {
        return start;
    }
    // Invariant: items[lo] < target; items[hi..] is unexplored or >= target.
    let mut step = 1usize;
    let mut lo = start;
    let mut hi = start + step;
    while hi < items.len() && key(&items[hi]) < *target {
        lo = hi;
        step = step.saturating_mul(2);
        hi = lo + step;
    }
    let mut hi = hi.min(items.len());
    let mut next = lo + 1;
    while next < hi {
        let mid = next + (hi - next) / 2;
        if key(&items[mid]) < *target {
            next = mid + 1;
        } else {
            hi = mid;
        }
    }
    next
}

fn group_end<T, K, F>(items: &[T], start: usize, key: &F) -> usize
where
    K: Ord,
    F: Fn(&T) -> K,
{
    let k = key(&items[start]);
    let mut end = start + 1;
    while end < items.len() && key(&items[end]) == k {
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Row {
        key: u32,
        interval: Interval,
        payload: &'static str,
    }

    fn row(key: u32, a: u64, b: u64, payload: &'static str) -> Row {
        Row { key, interval: Interval::of(a, b), payload }
    }

    /// Every left-right pair with equal keys and intersecting intervals, left-major:
    /// the brute-force reference of the interval join.
    fn nested_loop<'a>(left: &'a [Row], right: &'a [Row]) -> Vec<(&'a Row, &'a Row, Interval)> {
        let mut out = Vec::new();
        for l in left {
            for r in right.iter().filter(|r| r.key == l.key) {
                if let Some(iv) = l.interval.intersect(&r.interval) {
                    out.push((l, r, iv));
                }
            }
        }
        out
    }

    fn gallop<'a>(left: &'a [Row], right: &'a [Row]) -> Vec<(&'a Row, &'a Row, Interval)> {
        interval_merge_join_gallop(
            left,
            right,
            |l| l.key,
            |r| r.key,
            |l| l.interval,
            |r| r.interval,
        )
    }

    #[test]
    fn interval_merge_join_intersects_validity() {
        let people =
            vec![row(10, 1, 9, "ann"), row(20, 1, 4, "bob-low"), row(20, 5, 9, "bob-high")];
        let meets = vec![row(20, 3, 3, "cafe"), row(20, 5, 6, "park")];
        let described: Vec<(&str, &str, Interval)> =
            gallop(&people, &meets).iter().map(|(p, m, iv)| (p.payload, m.payload, *iv)).collect();
        assert_eq!(
            described,
            vec![("bob-low", "cafe", Interval::of(3, 3)), ("bob-high", "park", Interval::of(5, 6))]
        );
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        let left = vec![row(1, 0, 2, "l")];
        let right: Vec<Row> = Vec::new();
        assert!(gallop(&left, &right).is_empty());
        assert!(gallop(&right, &left).is_empty());
        let right = vec![row(1, 3, 5, "r")];
        // Keys join but the intervals are disjoint.
        assert_eq!(merge_join_gallop(&left, &right, |l| l.key, |r| r.key).len(), 1);
        assert!(gallop(&left, &right).is_empty());
    }

    #[test]
    fn galloping_join_matches_the_linear_scan() {
        // A few probe keys against a long, many-group "permutation": the gallop
        // must skip the unmatched groups without changing the result.
        let left = vec![row(7, 0, 9, "l7"), row(7, 2, 4, "l7b"), row(900, 0, 9, "l900")];
        let right: Vec<Row> =
            (0..1000u32).map(|k| row(k, (k % 5) as u64, (k % 5 + 3) as u64, "r")).collect();
        let galloped: Vec<(u32, u32)> = merge_join_gallop(&left, &right, |l| l.key, |r| r.key)
            .into_iter()
            .map(|(l, r)| (l.key, r.key))
            .collect();
        assert_eq!(galloped, vec![(7, 7), (7, 7), (900, 900)]);

        let described = |rows: Vec<(&Row, &Row, Interval)>| -> Vec<(&str, u32, Interval)> {
            rows.into_iter().map(|(l, r, iv)| (l.payload, r.key, iv)).collect()
        };
        assert_eq!(described(gallop(&left, &right)), described(nested_loop(&left, &right)));
    }

    #[test]
    fn gallop_seeks_land_on_group_starts() {
        let items: Vec<u32> = vec![1, 1, 3, 3, 3, 8, 9, 9, 12];
        let key = |&x: &u32| x;
        assert_eq!(gallop_to(&items, 0, &key, &1), 0);
        assert_eq!(gallop_to(&items, 0, &key, &2), 2);
        assert_eq!(gallop_to(&items, 0, &key, &3), 2);
        assert_eq!(gallop_to(&items, 1, &key, &9), 6);
        assert_eq!(gallop_to(&items, 0, &key, &12), 8);
        assert_eq!(gallop_to(&items, 0, &key, &13), items.len());
        assert_eq!(gallop_to(&items, 8, &key, &1), 8);
        assert_eq!(gallop_to(&items, 9, &key, &1), 9);
        // Large jumps from every starting offset stay consistent with a scan.
        let long: Vec<u32> = (0..257).map(|i| i / 3).collect();
        for start in 0..long.len() {
            for target in [0u32, 1, 40, 85, 100] {
                let expected =
                    (start..long.len()).find(|&i| long[i] >= target).unwrap_or(long.len());
                assert_eq!(gallop_to(&long, start, &key, &target), expected, "{start} {target}");
            }
        }
    }

    #[test]
    fn sortedness_predicate() {
        assert!(is_key_sorted(&[1, 1, 2, 5], |&x| x));
        assert!(!is_key_sorted(&[1, 3, 2], |&x| x));
        assert!(is_key_sorted::<u32, u32, _>(&[], |&x| x));
    }
}
