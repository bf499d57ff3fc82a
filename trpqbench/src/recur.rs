//! recur-g2: one closed-loop client runs RECUR on G2, cycling through the
//! Materialized, Enumerate and Compact answer modes.

use std::time::Instant;

use engine::{AnswerMode, CompactAnswers, GraphRelations, Query};
use workload::ScaleFactor;

use crate::ops::{self, closed_loop, consume, push_end_to_end, repeat_setup, Step, MODES, RECUR};
use crate::report::Report;
use crate::{Args, SCALE_DIVISOR};

/// Instances set up (and timed for `setup_s`) before measuring; their cursor
/// and compact answers are checked against the table in full.
const SETUP_INSTANCES: usize = 4;

/// Operations run on one G2 instance (each mode twice) before the next
/// instance replaces it.  RECUR's cost differs a lot between draws of G2, so
/// a run rolls through about 30 of them, one resident at a time.
const OPS_PER_INSTANCE: usize = 6;

/// Generates and loads G2 instance `index` and compiles RECUR.
pub fn setup(args: &Args, index: usize) -> (GraphRelations, Query) {
    let graph =
        GraphRelations::from_itpg(&workload::generate(&args.config(ScaleFactor::G2, index)));
    let query = Query::parse(RECUR).expect("RECUR compiles").with_options(ops::options());
    (graph, query)
}

/// The untimed correctness pass.  The table fixes each mode's expected count
/// (rows, rows, pairs of its projection); when `full` is set, the drained
/// cursor must also equal the table and the compact answers its projection.
fn check(graph: &GraphRelations, query: &Query, full: bool, report: &mut Report) -> [usize; 3] {
    let run = |mode| query.clone().with_mode(mode).run(graph);
    let table = run(AnswerMode::Materialized).into_table().expect("materialised");
    let reference = CompactAnswers::from_table(&table);
    if full {
        let mut cursor = run(AnswerMode::Enumerate).into_cursor().expect("a cursor");
        let streamed: Vec<_> = cursor.by_ref().collect();
        if streamed.as_slice() != table.rows() {
            report.problem(format!(
                "RECUR: the cursor yielded {} rows that differ from the {}-row table",
                streamed.len(),
                table.len()
            ));
        }
        let compact = run(AnswerMode::Compact).into_compact().expect("compact answers");
        if compact != reference {
            report.problem(format!(
                "RECUR: compact answers have {} pairs, the table's projection {}",
                compact.num_pairs(),
                reference.num_pairs()
            ));
        }
    }
    MODES.map(|mode| if mode == AnswerMode::Compact { reference.num_pairs() } else { table.len() })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (instances, setup_times) = repeat_setup(SETUP_INSTANCES, |index| setup(args, index));
    for (graph, query) in &instances {
        check(graph, query, true, &mut report);
    }
    for mode in MODES {
        let start = Instant::now();
        consume(instances[0].1.clone().with_mode(mode).run(&instances[0].0), start);
        report.warmup_ops += 1;
    }
    drop(instances);

    // Step `step` runs mode `step % 3` on instance `step / 6`, which is set
    // up — and its expected counts fixed by the table — untimed, just before
    // its first step.
    let mut current: Option<(usize, GraphRelations, [usize; 3])> = None;
    let mut mismatched = 0usize;
    let mut edges = Vec::new();
    // One block: about 190 operations a run cannot give several blocks the
    // 100 samples a p90 needs.
    let measured = closed_loop(args.measure(), 1, |step| {
        let index = step / OPS_PER_INSTANCE;
        let preparing = Instant::now();
        if current.as_ref().is_none_or(|(i, _, _)| *i != index) {
            current = None;
            let (graph, query) = setup(args, index);
            let expected = check(&graph, &query, false, &mut report);
            edges.push(graph.stats().temporal_edges);
            current = Some((index, graph, expected));
        }
        let untimed = preparing.elapsed();
        let (_, graph, expected) = current.as_ref().expect("the instance is set up");
        let mode = step % MODES.len();
        let start = Instant::now();
        let outcome = Query::parse(RECUR).ok().map(|query| {
            let outcome = consume(
                query.with_options(ops::options().with_mode(MODES[mode])).run(graph),
                start,
            );
            if outcome.count != expected[mode] {
                mismatched += 1;
            }
            (outcome, MODES[mode] == AnswerMode::Enumerate)
        });
        Step { outcome, untimed }
    });
    report.facts.push(("graphs", format!("{} x G2/{SCALE_DIVISOR}", edges.len())));
    report.facts.push(("temporal_edges", format!("{edges:?}")));
    if mismatched > 0 {
        report.problem(format!("RECUR: {mismatched} measured runs returned the wrong count"));
    }
    push_end_to_end(&mut report, &setup_times, &measured);
    report
}
