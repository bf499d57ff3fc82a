//! Property tests pinning the galloping merge join to a brute-force reference: on
//! arbitrary keyed interval relations,
//!
//! * `interval_merge_join_gallop` produces exactly the rows of a nested-loop join,
//!   in the same left-major order;
//! * a semi-naive fixpoint driven by it reaches the same frontier as one driven by
//!   the nested loop, round by round;
//! * `kway_merge_dedup` equals sort + dedup of the concatenated runs.

use proptest::prelude::*;

use dataflow::{interval_merge_join_gallop, kway_merge_dedup};
use tgraph::Interval;

const MAX_TIME: u64 = 15;
const MAX_KEY: u32 = 5;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Row {
    key: u32,
    interval: Interval,
    id: u32,
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0..=MAX_TIME, 0..=4u64)
        .prop_map(|(start, len)| Interval::of(start, (start + len).min(MAX_TIME)))
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0..=MAX_KEY, interval_strategy()), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (key, interval))| Row { key, interval, id: id as u32 })
            .collect()
    })
}

/// Every left-right pair with equal keys and intersecting intervals, in left-major
/// order (left rows in input order, the matches of one left row in right order) —
/// the order a merge join emits on key-sorted inputs.
fn nested_loop_join<'a, L, R, K: Eq>(
    left: &'a [L],
    right: &'a [R],
    left_key: impl Fn(&L) -> K,
    right_key: impl Fn(&R) -> K,
    left_interval: impl Fn(&L) -> Interval,
    right_interval: impl Fn(&R) -> Interval,
) -> Vec<(&'a L, &'a R, Interval)> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if left_key(l) == right_key(r) {
                if let Some(iv) = left_interval(l).intersect(&right_interval(r)) {
                    out.push((l, r, iv));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn galloping_merge_join_equals_the_nested_loop_reference(
        mut left in rows_strategy(),
        mut right in rows_strategy(),
    ) {
        // The merge join requires key-sorted inputs; on them the galloping group
        // seeks must produce exactly the reference rows, in the same order.
        left.sort();
        right.sort();
        let reference: Vec<(u32, u32, Interval)> =
            nested_loop_join(&left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval)
                .into_iter()
                .map(|(l, r, iv)| (l.id, r.id, iv))
                .collect();
        let galloped: Vec<(u32, u32, Interval)> = interval_merge_join_gallop(
            &left, &right, |l| l.key, |r| r.key, |l| l.interval, |r| r.interval,
        )
        .into_iter()
        .map(|(l, r, iv)| (l.id, r.id, iv))
        .collect();
        prop_assert_eq!(galloped, reference);
    }

    #[test]
    fn semi_naive_delta_rounds_agree_across_join_strategies(
        mut edges in rows_strategy(),
        seeds in prop::collection::vec((0..=MAX_KEY, interval_strategy()), 1..8),
    ) {
        // The closure operator's semi-naive loop joins a frontier of
        // (key, interval) deltas against an adjacency relation once per round,
        // coalescing the results between rounds.  The merge join must produce the
        // same canonical frontier as the nested-loop reference at every round.
        // `Row.id` doubles as the destination key, wrapped into the key range.
        edges.sort();
        let canonical = |joined: Vec<(u32, Interval)>| -> Vec<(u32, Interval)> {
            let mut grouped: std::collections::BTreeMap<u32, Vec<Interval>> = Default::default();
            for (key, iv) in joined {
                grouped.entry(key).or_default().push(iv);
            }
            grouped
                .into_iter()
                .flat_map(|(key, ivs)| {
                    tgraph::IntervalSet::from_intervals(ivs)
                        .intervals()
                        .iter()
                        .map(move |&iv| (key, iv))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let destination = |r: &Row| r.id % (MAX_KEY + 1);

        let mut frontier = canonical(seeds);
        for round in 0..3 {
            let reference: Vec<(u32, Interval)> = nested_loop_join(
                &frontier,
                &edges,
                |f| f.0,
                |r| r.key,
                |f| f.1,
                |r| r.interval,
            )
            .into_iter()
            .map(|(_, r, iv)| (destination(r), iv))
            .collect();
            // The frontier is canonical, hence key-sorted — exactly what the merge
            // path requires.
            let merged: Vec<(u32, Interval)> = interval_merge_join_gallop(
                &frontier,
                &edges,
                |f| f.0 as usize,
                |r| r.key as usize,
                |f| f.1,
                |r| r.interval,
            )
            .into_iter()
            .map(|(_, r, iv)| (destination(r), iv))
            .collect();
            let next = canonical(reference);
            prop_assert_eq!(&next, &canonical(merged), "round {} diverged", round);
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
    }

    #[test]
    fn kway_merge_dedup_equals_sort_dedup(runs in prop::collection::vec(
        prop::collection::vec(0..50u32, 0..12), 0..5,
    )) {
        let mut sorted_runs = runs.clone();
        for run in &mut sorted_runs {
            run.sort_unstable();
        }
        let merged = kway_merge_dedup(sorted_runs);
        let mut reference: Vec<u32> = runs.into_iter().flatten().collect();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(merged, reference);
    }
}
