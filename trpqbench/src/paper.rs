//! paper-g3: one closed-loop client runs Q1–Q12 and REACH, in a fixed order,
//! through the full `Query::parse(text)…run(graph)` path on G3.

use std::time::{Duration, Instant};

use engine::{GraphRelations, JoinStrategy, Query};
use trpq::queries::QueryId;
use workload::ScaleFactor;

use crate::ops::{self, closed_loop, consume, push_end_to_end, repeat_setup, Step, REACH};
use crate::report::Report;
use crate::{Args, SCALE_DIVISOR};

/// The query mix, in the order the client cycles through it.
pub fn mix() -> Vec<(&'static str, &'static str)> {
    let mut mix: Vec<_> = QueryId::ALL.iter().map(|id| (id.name(), id.text())).collect();
    mix.push(("REACH", REACH));
    mix
}

/// G3 instances per run.
const INSTANCES: usize = 4;

/// Time blocks of the measured phase (about 600 queries each in 30 s).
const BLOCKS: usize = 5;

/// Generates and loads G3 instance `index` and compiles the mix.
pub fn setup(args: &Args, index: usize) -> (GraphRelations, Vec<Query>) {
    let graph =
        GraphRelations::from_itpg(&workload::generate(&args.config(ScaleFactor::G3, index)));
    let queries = mix()
        .into_iter()
        .map(|(name, text)| {
            Query::parse(text)
                .unwrap_or_else(|e| panic!("{name} must compile: {e}"))
                .with_options(ops::options())
        })
        .collect();
    (graph, queries)
}

/// The untimed correctness pass: every query gives the same table under the
/// hash, merge and auto join strategies.  Returns each query's row count.
fn check(graph: &GraphRelations, queries: &[Query], report: &mut Report) -> Vec<usize> {
    mix()
        .iter()
        .zip(queries)
        .map(|((name, _), query)| {
            let table = |strategy| {
                query.clone().with_strategy(strategy).run(graph).into_table().expect("materialised")
            };
            let auto = table(JoinStrategy::Auto);
            for strategy in [JoinStrategy::Hash, JoinStrategy::Merge] {
                let other = table(strategy);
                if other != auto {
                    report.problem(format!(
                        "{name}: {strategy} gave {} rows, auto {}",
                        other.len(),
                        auto.len()
                    ));
                }
            }
            auto.len()
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (instances, setup_seconds) = repeat_setup(INSTANCES, |index| setup(args, index));
    let edges: Vec<usize> = instances.iter().map(|(g, _)| g.stats().temporal_edges).collect();
    report.facts.push(("graphs", format!("{INSTANCES} x G3/{SCALE_DIVISOR}")));
    report.facts.push(("temporal_edges", format!("{edges:?}")));
    let expected: Vec<Vec<usize>> =
        instances.iter().map(|(graph, queries)| check(graph, queries, &mut report)).collect();
    report.facts.push(("expected_rows", format!("{expected:?}")));

    // Operation `step` runs query `step % 13` on instance `step / 13 % 4`.
    let mix = mix();
    let run_one = |step: usize| {
        let graph = &instances[step / mix.len() % INSTANCES].0;
        let start = Instant::now();
        Query::parse(mix[step % mix.len()].1)
            .map(|query| consume(query.with_options(ops::options()).run(graph), start))
    };
    for step in 0..mix.len() * INSTANCES {
        run_one(step).expect("the mix compiled in set-up");
        report.warmup_ops += 1;
    }

    let mut mismatched = vec![0usize; mix.len()];
    let measured = closed_loop(args.measure(), BLOCKS, |step| {
        let outcome = run_one(step).ok().map(|outcome| {
            let query = step % mix.len();
            if outcome.count != expected[step / mix.len() % INSTANCES][query] {
                mismatched[query] += 1;
            }
            (outcome, false)
        });
        Step { outcome, untimed: Duration::ZERO }
    });
    for ((name, _), count) in mix.iter().zip(mismatched) {
        if count > 0 {
            report.problem(format!("{name}: {count} measured runs returned the wrong row count"));
        }
    }
    push_end_to_end(&mut report, &setup_seconds, &measured);
    report
}
