//! The traced run: re-executes a workload's operations one layer at a time,
//! timing each layer's public entry point from outside.
//!
//! Per operation (query × answer mode) and repetition it times
//! `trpq::parser::parse_match`, `engine::compile`, `SchemaSummary::of`,
//! `analyze`, Steps 1–2 through `run_plan_seeded` on the optimized plans, and
//! `execute_answers` on those plans with the optimizer off (plus the cursor's
//! first page and drain).  Beside them it times the untraced
//! `Query::parse(..).run` with telemetry on and off.  Every traced run also
//! makes one traced serving pass over a G2 stream and replays that stream
//! through a `LiveGraph`, for the live layers.  Each layer metric is the
//! median over repetitions, averaged over the workload's operations; an
//! engine layer the workload does not exercise reads 0.

use std::time::Instant;

use engine::{
    analyze, compile, effective_strategy, execute_answers, run_plan_seeded, AnswerMode,
    GraphRelations, Query, SchemaSummary, StepStats,
};
use std::sync::atomic::Ordering;

use crate::ops::{self, consume, MODES, PAGE, RECUR};
use crate::report::Report;
use crate::serve::{self, Checking};
use crate::stats::{mean, median, ms, us};
use crate::{paper, recur, Args, Workload};

/// The traced parts must add up to the untraced `Query::run` within this
/// share, or the run fails: a larger gap means the layers miss work.
pub const LAYER_SUM_TOLERANCE_PCT: f64 = 10.0;

/// The fewest repetitions of the operation mix, however long they take.
const MIN_REPS: usize = 3;

/// One operation of a workload: a query text in one answer mode.
struct Op {
    name: &'static str,
    text: &'static str,
    mode: AnswerMode,
    samples: OpSamples,
}

/// Per-repetition timings (ms unless named) and the last counts of one op.
#[derive(Default)]
struct OpSamples {
    parse_us: Vec<f64>,
    compile_us: Vec<f64>,
    schema: Vec<f64>,
    analyze_us: Vec<f64>,
    step12: Vec<f64>,
    execute: Vec<f64>,
    cursor_first_page: Vec<f64>,
    cursor_drain: Vec<f64>,
    run_on: Vec<f64>,
    /// Per repetition: the traced layers' sum (parse + compile + schema +
    /// analyze + execute), the untraced run with telemetry on, and with it
    /// off — the three taken back to back, so they compare as a pair.
    paired: Vec<(f64, f64, f64)>,
    interval_rows: usize,
    count: usize,
    closure_rounds: usize,
    time_rounds: usize,
    hash_joins: usize,
    merge_joins: usize,
    peak_buffered: usize,
}

impl Op {
    fn new(name: &'static str, text: &'static str, mode: AnswerMode) -> Self {
        Op { name, text, mode, samples: OpSamples::default() }
    }

    /// One traced execution, then the untraced one with telemetry on and off
    /// (in alternating order, so neither always runs second).
    fn trace(&mut self, graph: &GraphRelations, rep: usize, report: &mut Report) {
        let s = &mut self.samples;
        let options = ops::options().with_mode(self.mode);
        let start = Instant::now();
        let Ok(clause) = trpq::parser::parse_match(self.text) else {
            report.failed += 1;
            return;
        };
        s.parse_us.push(us(start.elapsed()));
        let start = Instant::now();
        let Ok(plan) = compile(&clause) else {
            report.failed += 1;
            return;
        };
        s.compile_us.push(us(start.elapsed()));
        let start = Instant::now();
        let schema = SchemaSummary::of(graph);
        s.schema.push(ms(start.elapsed()));
        let start = Instant::now();
        let optimized = analyze(&plan, &schema).optimized;
        s.analyze_us.push(us(start.elapsed()));

        let stats = StepStats::default();
        let strategy = effective_strategy(&optimized, &options);
        let start = Instant::now();
        let interval_rows: usize = optimized
            .plans
            .iter()
            .map(|plan| {
                run_plan_seeded(
                    plan,
                    graph,
                    &graph.seed_rows(),
                    options.parallelism,
                    strategy,
                    &stats,
                )
                .len()
            })
            .sum();
        s.step12.push(ms(start.elapsed()));
        s.interval_rows = interval_rows;
        s.closure_rounds = stats.closure_rounds.load(Ordering::Relaxed);
        s.time_rounds = stats.time_closure_rounds.load(Ordering::Relaxed);
        s.hash_joins = stats.hash_joins.load(Ordering::Relaxed);
        s.merge_joins = stats.merge_joins.load(Ordering::Relaxed);

        let start = Instant::now();
        let mut answers = execute_answers(&optimized, graph, &options.with_optimize(false));
        if let Some(cursor) = answers.cursor_mut() {
            let paging = Instant::now();
            let page = cursor.page(PAGE).len();
            s.cursor_first_page.push(ms(paging.elapsed()));
            let draining = Instant::now();
            s.count = page + cursor.by_ref().count();
            s.cursor_drain.push(ms(draining.elapsed()));
            s.execute.push(ms(start.elapsed()));
            s.peak_buffered = cursor.peak_buffered_rows();
        } else {
            let outcome = consume(answers, start);
            s.execute.push(ms(outcome.total));
            s.count = outcome.count;
        }

        let expected = s.count;
        let untraced = |telemetry: bool| {
            let start = Instant::now();
            let query = Query::parse(self.text).ok()?;
            let outcome =
                consume(query.with_options(options.with_telemetry(telemetry)).run(graph), start);
            (outcome.count == expected).then_some(ms(outcome.total))
        };
        let order = if rep.is_multiple_of(2) { [true, false] } else { [false, true] };
        let (mut on, mut off) = (None, None);
        for telemetry in order {
            match untraced(telemetry) {
                Some(time) if telemetry => on = Some(time),
                Some(time) => off = Some(time),
                None => report.problem(format!(
                    "{} {}: the untraced run disagrees with the traced one",
                    self.name,
                    self.mode.name()
                )),
            }
        }
        if let (Some(on), Some(off)) = (on, off) {
            s.run_on.push(on);
            let layers = [&s.parse_us, &s.compile_us, &s.analyze_us]
                .iter()
                .map(|v| v.last().copied().unwrap_or(0.0) / 1e3)
                .sum::<f64>()
                + s.schema.last().copied().unwrap_or(0.0)
                + s.execute.last().copied().unwrap_or(0.0);
            s.paired.push((layers, on, off));
        }
        report.attempted += 3;
    }

    fn med(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    }

    /// Parse + compile + schema + analyze, ms.
    fn planning(&self) -> f64 {
        let s = &self.samples;
        (Self::med(&s.parse_us) + Self::med(&s.compile_us) + Self::med(&s.analyze_us)) / 1e3
            + Self::med(&s.schema)
    }
}

/// Pushes the engine-side layer metrics summarised over `ops`.
fn push_engine(report: &mut Report, ops: &[Op]) {
    let med = Op::med;
    let reps = ops.iter().map(|op| op.samples.execute.len()).min().unwrap_or(0);
    let over = |filter: &dyn Fn(&Op) -> bool, value: &dyn Fn(&Op) -> f64| -> f64 {
        let values: Vec<f64> = ops.iter().filter(|op| filter(op)).map(value).collect();
        mean(&values)
    };
    let all = |_: &Op| true;
    let mode_is = |mode: AnswerMode| move |op: &Op| op.mode == mode;
    let materialized = mode_is(AnswerMode::Materialized);
    let enumerate = mode_is(AnswerMode::Enumerate);
    let compact = mode_is(AnswerMode::Compact);

    report.push("trpq.parse_us", over(&all, &|op| med(&op.samples.parse_us)), reps);
    report.push("engine.compile_us", over(&all, &|op| med(&op.samples.compile_us)), reps);
    report.push("engine.schema_summary_ms", over(&all, &|op| med(&op.samples.schema)), reps);
    report.push("engine.analyze_us", over(&all, &|op| med(&op.samples.analyze_us)), reps);
    report.push("engine.execute_ms", over(&all, &|op| med(&op.samples.execute)), reps);
    report.push("engine.step12_ms", over(&all, &|op| med(&op.samples.step12)), reps);
    // Execute minus Steps 1–2, paired per repetition (both were taken in it).
    let after_step12 = |op: &Op| {
        let s = &op.samples;
        let diffs: Vec<f64> = s.execute.iter().zip(&s.step12).map(|(e, t)| e - t).collect();
        med(&diffs)
    };
    report.push("engine.step3_ms", over(&materialized, &after_step12), reps);
    report.push("engine.compact_ms", over(&compact, &after_step12), reps);
    report.push(
        "engine.cursor_first_page_ms",
        over(&enumerate, &|op| med(&op.samples.cursor_first_page)),
        reps,
    );
    report.push(
        "engine.cursor_drain_ms",
        over(&enumerate, &|op| med(&op.samples.cursor_drain)),
        reps,
    );
    report.push(
        "engine.cursor_peak_buffered_rows",
        over(&enumerate, &|op| op.samples.peak_buffered as f64),
        1,
    );
    report.push("engine.compact_pairs", over(&compact, &|op| op.samples.count as f64), 1);
    report.push("engine.output_rows", over(&materialized, &|op| op.samples.count as f64), 1);
    report.push("engine.interval_rows", over(&all, &|op| op.samples.interval_rows as f64), 1);
    let output: usize = ops.iter().filter(|op| materialized(op)).map(|op| op.samples.count).sum();
    let interval: usize =
        ops.iter().filter(|op| materialized(op)).map(|op| op.samples.interval_rows).sum();
    report.push(
        "engine.interval_rows_per_output_row",
        if output == 0 { 0.0 } else { interval as f64 / output as f64 },
        1,
    );
    report.push("engine.closure_rounds", over(&all, &|op| op.samples.closure_rounds as f64), 1);
    report.push("engine.time_rounds", over(&all, &|op| op.samples.time_rounds as f64), 1);
    report.push("dataflow.hash_joins", over(&all, &|op| op.samples.hash_joins as f64), 1);
    report.push("dataflow.merge_joins", over(&all, &|op| op.samples.merge_joins as f64), 1);

    let run_on: f64 = ops.iter().map(|op| med(&op.samples.run_on)).sum();
    let planning: f64 = ops.iter().map(Op::planning).sum();
    report.push("engine.plan_share", planning / run_on, reps);

    // The sum check and the telemetry overhead compare, per repetition, the
    // whole mix's traced sum and untraced runs, which were taken back to back;
    // the median over repetitions cancels drift in machine speed.
    let paired = ops.iter().map(|op| op.samples.paired.len()).min().unwrap_or(0);
    let (mut gaps, mut overheads) = (Vec::new(), Vec::new());
    for rep in 0..paired {
        let (layers, on, off) = ops
            .iter()
            .map(|op| op.samples.paired[rep])
            .fold((0.0, 0.0, 0.0), |(a, b, c), (layers, on, off)| (a + layers, b + on, c + off));
        gaps.push((layers - on) / on * 100.0);
        overheads.push((on - off) / off * 100.0);
    }
    let gap = median(&gaps);
    report.push("obs.telemetry_overhead_pct", median(&overheads), paired);
    report.push("bench.layer_sum_gap_pct", gap, paired);
    if gap.abs() > LAYER_SUM_TOLERANCE_PCT {
        report.problem(format!(
            "the traced layers sum to {gap:+.1}% of the untraced run \
             (tolerance ±{LAYER_SUM_TOLERANCE_PCT}%)"
        ));
    }
}

/// Runs every op once as a warm-up, whose samples are dropped, then once per
/// repetition until the deadline (and at least [`MIN_REPS`] times).
fn trace_ops(graph: &GraphRelations, ops: &mut [Op], deadline: Instant, report: &mut Report) {
    for op in ops.iter_mut() {
        op.trace(graph, 0, report);
        op.samples = OpSamples::default();
        report.warmup_ops += 1;
    }
    let mut rep = 0;
    while rep < MIN_REPS || Instant::now() < deadline {
        for op in ops.iter_mut() {
            op.trace(graph, rep, report);
        }
        rep += 1;
    }
}

/// The live-side metrics of a traced run.
#[derive(Default)]
struct LiveLayers {
    apply_ms: Vec<f64>,
    mutations: Vec<f64>,
    refresh_ms: Vec<f64>,
    affected_seeds: Vec<f64>,
    snapshot_us: Vec<f64>,
    fallbacks: usize,
    pin_us: Vec<f64>,
    overhead_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    retained_max: usize,
}

impl LiveLayers {
    fn push(&self, report: &mut Report) {
        let med = Op::med;
        let refreshes = self.refresh_ms.len();
        report.push("live.apply_ms", med(&self.apply_ms), self.apply_ms.len());
        report.push("live.mutations_per_batch", mean(&self.mutations), self.mutations.len());
        report.push("live.refresh_ms", med(&self.refresh_ms), refreshes);
        report.push(
            "live.fallback_frac",
            if refreshes == 0 { 0.0 } else { self.fallbacks as f64 / refreshes as f64 },
            refreshes,
        );
        report.push("live.affected_seeds", mean(&self.affected_seeds), self.affected_seeds.len());
        report.push("engine.snapshot_us", med(&self.snapshot_us), self.snapshot_us.len());
        report.push("live.pin_us", med(&self.pin_us), self.pin_us.len());
        report.push("live.epochs_retained_max", self.retained_max as f64, 1);
        report.push("live.serve_overhead_ms", med(&self.overhead_ms), self.overhead_ms.len());
        report.push("bench.writer_lateness_ms", mean(&self.lateness_ms), self.lateness_ms.len());
    }
}

/// The live layers, on G2 stream instance 0: one traced serving pass, then
/// replays of the stream through a `LiveGraph` until `until`.  Every traced
/// run measures them, so they are covered whichever workload is traced.
/// Returns the layers and the graph the last replay ended on.
fn trace_live(args: &Args, until: Instant, report: &mut Report) -> (LiveLayers, GraphRelations) {
    let setup = serve::Setup::new(args, 0);
    let (replay, final_graph) = serve::replay(&setup);
    let pass = serve::pass(&setup, Checking::Traced(&replay.expected));
    report.attempted += pass.requests.attempted + setup.batches.len() as u64;
    report.failed += pass.requests.failed + pass.writer_failed;
    report.problems.extend(pass.problems);
    let mut live = LiveLayers {
        pin_us: pass.pin_us,
        overhead_ms: pass.overhead_ms,
        lateness_ms: pass.lateness_ms,
        retained_max: pass.retained_max,
        ..LiveLayers::default()
    };
    let mut replay = Some(replay);
    loop {
        let r = replay.take().unwrap_or_else(|| serve::replay(&setup).0);
        live.apply_ms.extend(r.apply_ms);
        live.mutations.extend(r.mutations);
        live.refresh_ms.extend(r.refresh_ms);
        live.affected_seeds.extend(r.affected_seeds);
        live.snapshot_us.extend(r.snapshot_us);
        live.fallbacks += r.fallbacks;
        if Instant::now() >= until {
            break;
        }
    }
    (live, final_graph.relations().snapshot())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let deadline = start + args.measure();
    // A quarter of the run (half on serve-g2, whose own operations are the
    // live ones) goes to the live layers, the rest to the engine layers.
    let live_share = if args.workload == Workload::ServeG2 { 2 } else { 4 };
    let (live, live_graph) = trace_live(args, start + args.measure() / live_share, &mut report);
    let (graph, mut ops): (GraphRelations, Vec<Op>) = match args.workload {
        Workload::PaperG3 => {
            let (graph, _) = paper::setup(args, 0);
            let ops = paper::mix()
                .into_iter()
                .map(|(name, text)| Op::new(name, text, AnswerMode::Materialized))
                .collect();
            (graph, ops)
        }
        Workload::RecurG2 => {
            let (graph, _) = recur::setup(args, 0);
            (graph, MODES.iter().map(|&mode| Op::new("RECUR", RECUR, mode)).collect())
        }
        Workload::ServeG2 => {
            let ops = serve::queries()
                .into_iter()
                .flat_map(|(name, text)| MODES.map(|mode| Op::new(name, text, mode)))
                .collect();
            (live_graph, ops)
        }
    };
    trace_ops(&graph, &mut ops, deadline, &mut report);
    push_engine(&mut report, &ops);
    live.push(&mut report);
    report
}
