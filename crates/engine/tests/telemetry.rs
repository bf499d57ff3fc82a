//! End-to-end pins for the engine's telemetry: the `telemetry = false` knob
//! really records nothing, enabled runs count executions, an enumeration
//! cursor's peak-buffered high-water mark survives being abandoned mid-drain
//! (the regression that motivated recording it on cursor drop), and the span
//! tree nests: `query` contains its `analyze`, `step12` and `step3` children,
//! and a closure nested in another closure's body is timed once.
//!
//! Everything lives in one test function: the metrics are process-global, and
//! a single test per binary keeps the before/after assertions race-free.

use engine::{AnswerMode, ExecutionOptions, GraphRelations, Query};
use tgraph::{Interval, ItpgBuilder};

const QUERY: &str = "MATCH (x:Person {risk = 'high'}) ON g";

/// A structural closure nested inside another closure's body.
const NESTED_CLOSURE: &str = "MATCH (x)-/((FWD/:meets/FWD)[1,2])*/-(y) ON g";

/// Four high-risk persons, each an independent answer row — enough to drain a
/// cursor partially and leave work buffered behind it.
fn graph() -> GraphRelations {
    let mut b = ItpgBuilder::new();
    for name in ["ann", "bob", "cal", "dee"] {
        let node = b.add_node(name, "Person").unwrap();
        b.add_existence(node, Interval::of(1, 9)).unwrap();
        b.set_property(node, "risk", "high", Interval::of(1, 9)).unwrap();
    }
    GraphRelations::from_itpg(&b.build().unwrap())
}

/// A ring of persons, each meeting the next two over staggered intervals, so
/// the nested closure's fixpoints do most of the query's work.
fn ring() -> GraphRelations {
    const PERSONS: u64 = 40;
    let mut b = ItpgBuilder::new();
    let nodes: Vec<_> = (0..PERSONS)
        .map(|i| {
            let node = b.add_node(&format!("p{i}"), "Person").unwrap();
            b.add_existence(node, Interval::of(0, 30)).unwrap();
            node
        })
        .collect();
    for i in 0..PERSONS {
        for step in 1..=2 {
            let j = (i + step) % PERSONS;
            let edge = b
                .add_edge(&format!("m{i}_{j}"), "meets", nodes[i as usize], nodes[j as usize])
                .unwrap();
            b.add_existence(edge, Interval::of(i % 7, 20 + i % 11)).unwrap();
        }
    }
    GraphRelations::from_itpg(&b.build().unwrap())
}

fn span(path: &str) -> std::sync::Arc<obs::Histogram> {
    obs::global().latency_histogram(
        "tpath_engine_span_seconds",
        "Wall time of engine execution span-tree nodes.",
        &[("span", path)],
    )
}

#[test]
fn telemetry_gates_and_peak_buffered_retention() {
    let graph = graph();
    let reg = obs::global();
    // Get-or-create returns the engine's own series, so these handles observe
    // exactly what the executor records.
    let queries = reg.counter("tpath_engine_queries_total", "Query executions.", &[]);
    let peak_hist = reg.histogram(
        "tpath_engine_cursor_peak_buffered_rows",
        "Per-cursor peak buffered rows.",
        &[],
    );

    // A disabled run is a no-op on the registry.
    let before = queries.get();
    let answers = Query::parse(QUERY)
        .unwrap()
        .with_options(ExecutionOptions::sequential().with_telemetry(false))
        .run(&graph);
    let expected_rows = answers.stats().output_rows;
    assert!(expected_rows >= 1);
    drop(answers);
    assert_eq!(queries.get(), before, "telemetry = false must record nothing");

    // An enabled run counts the execution.
    let answers =
        Query::parse(QUERY).unwrap().with_options(ExecutionOptions::sequential()).run(&graph);
    assert_eq!(answers.stats().output_rows, expected_rows);
    assert_eq!(queries.get(), before + 1);
    drop(answers);

    // Enumerate, drain two of eight rows, then abandon the cursor: stats()
    // exposes the live high-water mark mid-drain, and dropping the cursor
    // retains that peak in the histogram — it is not lost with the cursor.
    let peak_before = peak_hist.snapshot();
    let mut answers = Query::parse(QUERY)
        .unwrap()
        .with_options(ExecutionOptions::sequential())
        .with_mode(AnswerMode::Enumerate)
        .run(&graph);
    {
        let cursor = answers.cursor_mut().expect("enumerate mode hands out a cursor");
        assert_eq!(cursor.page(2).len(), 2);
    }
    let mid_drain_peak = answers.stats().peak_buffered_rows;
    assert!(mid_drain_peak >= 1, "mid-drain stats expose the cursor's high-water mark");
    drop(answers);
    let peak_after = peak_hist.snapshot();
    assert_eq!(peak_after.count, peak_before.count + 1, "cursor drop records its peak");
    assert!(
        peak_after.sum >= peak_before.sum + mid_drain_peak as u64,
        "the retained peak is at least the mid-drain one"
    );

    // One optimized, materialised run at one thread: the `query` span
    // contains its `analyze`, `step12` and `step3` children, and the closure
    // nested in the outer closure's body is not timed a second time.
    let ring = ring();
    let nodes = ["query", "query/analyze", "query/step12", "query/step3", "query/step12/closure"];
    let before: Vec<u64> = nodes.iter().map(|path| span(path).sum()).collect();
    let answers = Query::parse(NESTED_CLOSURE)
        .unwrap()
        .with_options(ExecutionOptions::with_threads(1).with_optimize(true))
        .run(&ring);
    assert!(answers.stats().output_rows > 0);
    let spent: Vec<u64> =
        nodes.iter().zip(&before).map(|(path, before)| span(path).sum() - before).collect();
    let [query, analyze, step12, step3, closure] = spent[..] else { unreachable!() };
    assert!(analyze > 0 && closure > 0, "both spans recorded: {spent:?}");
    assert!(
        query >= analyze + step12 + step3,
        "query ({query} ns) must contain analyze + step12 + step3 ({analyze} + {step12} + {step3} ns)"
    );
    assert!(
        closure <= step12,
        "closure ({closure} ns) is inside step12 ({step12} ns) at one thread"
    );
}
