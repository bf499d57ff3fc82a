//! serve-g2: a single writer ingests the G2 batch stream open-loop, one batch
//! every [`PERIOD`], into a fresh `ServeGraph` with Q1, Q5, Q9 and REACH
//! registered, while one closed-loop client drives a one-worker `Server`
//! with `Registered` reads and `Compiled` requests in all three modes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use engine::{
    compile, execute, execute_answers, AnswerMode, BindingTable, CompactAnswers, GraphRelations,
    PlanSet,
};
use live::serve::{Request, Response, ServeGraph, Server};
use live::LiveGraph;
use tgraph::{Batch, Interval, Itpg};
use trpq::queries::QueryId;
use workload::ScaleFactor;

use crate::ops::{self, consume, push_end_to_end, repeat_setup, Block, Measured, REACH};
use crate::reference;
use crate::report::Report;
use crate::stats::{ms, percentile, us, OpenLoop};
use crate::{Args, SCALE_DIVISOR};

/// The writer's schedule: one batch every 50 ms, about twice the mean ingest
/// time of the G2 stream with readers running.
pub const PERIOD: Duration = Duration::from_millis(50);

/// The `Compiled` request modes, in the order the client cycles through them.
const COMPILED_MODES: [AnswerMode; 3] =
    [AnswerMode::Materialized, AnswerMode::Compact, AnswerMode::Enumerate];

/// The registered queries.
pub fn queries() -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<_> =
        [QueryId::Q1, QueryId::Q5, QueryId::Q9].iter().map(|id| (id.name(), id.text())).collect();
    queries.push(("REACH", REACH));
    queries
}

/// One generated stream and the compiled queries.
pub struct Setup {
    pub batches: Vec<Batch>,
    pub plans: Vec<Arc<PlanSet>>,
}

impl Setup {
    /// Generates stream instance `index`, compiles the queries and registers
    /// them on a fresh graph (which is dropped: each pass takes its own).
    pub fn new(args: &Args, index: usize) -> Self {
        let batches = workload::stream_contact_batches(&args.config(ScaleFactor::G2, index));
        let plans = queries()
            .into_iter()
            .map(|(name, text)| {
                let clause = trpq::parser::parse_match(text).expect("registered queries parse");
                Arc::new(compile(&clause).unwrap_or_else(|e| panic!("{name} must compile: {e}")))
            })
            .collect();
        let setup = Setup { batches, plans };
        drop(setup.fresh_graph());
        setup
    }

    /// A fresh serving graph with every query registered.
    fn fresh_graph(&self) -> (Arc<ServeGraph>, Vec<live::LiveQueryId>) {
        let graph = Arc::new(ServeGraph::with_options(empty_itpg(), ops::options()));
        let ids = self.plans.iter().map(|plan| graph.register(PlanSet::clone(plan))).collect();
        (graph, ids)
    }
}

fn empty_itpg() -> Itpg {
    Itpg::empty(Interval::of(0, 1))
}

/// Per epoch (`None` before the first batch), per query: the maintained row
/// count and the compact pair count a correct server must return.
pub type Expected = BTreeMap<Option<u64>, Vec<(usize, usize)>>;

/// One replay of the stream through a `LiveGraph`, timed per call.
#[derive(Debug, Default)]
pub struct Replay {
    pub expected: Expected,
    /// The registered queries, in [`queries`] order.
    pub ids: Vec<live::LiveQueryId>,
    /// Per batch: `LiveGraph::apply` ms, mutations, relation snapshot µs.
    pub apply_ms: Vec<f64>,
    pub mutations: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    /// Per batch and query: `LiveGraph::refresh` ms and seeds recomputed.
    pub refresh_ms: Vec<f64>,
    pub affected_seeds: Vec<f64>,
    pub fallbacks: usize,
}

/// Replays the stream through a `LiveGraph` with the queries registered,
/// returning the per-call timings, the expected counts and the final graph.
pub fn replay(setup: &Setup) -> (Replay, LiveGraph) {
    let mut live = LiveGraph::with_options(empty_itpg(), ops::options());
    let ids: Vec<_> = setup.plans.iter().map(|plan| live.register(PlanSet::clone(plan))).collect();
    let counts = |live: &LiveGraph| -> Vec<(usize, usize)> {
        ids.iter()
            .map(|&id| {
                let table = live.table(id);
                (table.len(), CompactAnswers::from_table(table).num_pairs())
            })
            .collect()
    };
    let mut out = Replay { ids: ids.clone(), ..Replay::default() };
    out.expected.insert(live.epoch(), counts(&live));
    for batch in &setup.batches {
        let start = Instant::now();
        let ingest = live.apply(batch).expect("streamed batches are valid against their prefix");
        out.apply_ms.push(ms(start.elapsed()));
        out.mutations.push(ingest.mutations as f64);
        for &id in &ids {
            let start = Instant::now();
            let refresh = live.refresh(id);
            out.refresh_ms.push(ms(start.elapsed()));
            out.affected_seeds.push(refresh.affected_seeds as f64);
            out.fallbacks += usize::from(refresh.fallback_full);
        }
        let start = Instant::now();
        let snapshot = live.relations().snapshot();
        out.snapshot_us.push(us(start.elapsed()));
        drop(snapshot);
        out.expected.insert(live.epoch(), counts(&live));
    }
    (out, live)
}

/// How a pass treats the responses.
#[derive(Clone, Copy)]
pub enum Checking<'a> {
    /// Compare every response with a from-scratch execute on its pinned epoch.
    Full,
    /// Compare every response's row or pair count with the replay's (O(1)).
    Counts(&'a Expected),
    /// As `Counts`, and also time `pin` and a direct execute on each
    /// response's epoch (the traced run).
    Traced(&'a Expected),
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub requests: Measured,
    pub ingest_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub writer_failed: u64,
    pub retained_max: usize,
    pub problems: Vec<String>,
    pub pin_us: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    /// The maintained tables the last epoch serves.
    pub final_tables: Vec<Option<Arc<BindingTable>>>,
}

/// Reference rounds timed just before and just after each pass.  They run
/// between passes, not between requests: a pause on the client thread would
/// change how the worker and writer threads are scheduled, which is what this
/// workload measures.
const REFERENCE_ROUNDS: usize = 3;

/// One pass: a fresh graph, the whole stream ingested on schedule, and the
/// client running until the writer is done.
pub fn pass(setup: &Setup, checking: Checking<'_>) -> Pass {
    let mut sampler = reference::Sampler::default();
    let mut reference: Vec<f64> =
        (0..REFERENCE_ROUNDS).map(|_| reference::share(sampler.run())).collect();
    let (graph, ids) = setup.fresh_graph();
    let server = Server::start(Arc::clone(&graph), 1);
    let done = AtomicBool::new(false);
    let mut out = thread::scope(|scope| {
        let client = scope.spawn(|| client_loop(setup, &graph, &server, &ids, &done, checking));
        let mut writer = Pass::default();
        let schedule = OpenLoop::new(Instant::now(), PERIOD);
        for (index, batch) in setup.batches.iter().enumerate() {
            let due = schedule.due(index);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let started = Instant::now();
            let ingested = graph.ingest(batch);
            let sample = OpenLoop::sample(due, started, Instant::now());
            writer.ingest_ms.push(ms(sample.latency));
            writer.lateness_ms.push(ms(sample.lateness));
            if let Err(error) = ingested {
                writer.writer_failed += 1;
                writer.problems.push(format!("batch {index}: {error}"));
            }
        }
        done.store(true, Ordering::Release);
        let mut out = client.join().expect("the client thread does not panic");
        out.ingest_ms = writer.ingest_ms;
        out.lateness_ms = writer.lateness_ms;
        out.writer_failed = writer.writer_failed;
        out.problems.extend(writer.problems);
        out
    });
    server.shutdown();
    reference.extend((0..REFERENCE_ROUNDS).map(|_| reference::share(sampler.run())));
    out.requests.blocks[0].reference = reference;
    let pinned = graph.pin();
    out.final_tables = ids.iter().map(|&id| pinned.table(id).cloned()).collect();
    out
}

fn client_loop(
    setup: &Setup,
    graph: &ServeGraph,
    server: &Server,
    ids: &[live::LiveQueryId],
    done: &AtomicBool,
    checking: Checking<'_>,
) -> Pass {
    let mut out = Pass::default();
    let mut block = Block::default();
    let start = Instant::now();
    let mut step = 0usize;
    while !done.load(Ordering::Acquire) {
        // Per query: one registered read, then one compiled request per mode.
        let query = (step / 4) % ids.len();
        let mode = (step % 4).checked_sub(1).map(|m| COMPILED_MODES[m]);
        step += 1;
        let request = match mode {
            None => Request::Registered(ids[query]),
            Some(mode) => Request::Compiled { plan: Arc::clone(&setup.plans[query]), mode },
        };
        let sent = Instant::now();
        let result = server.submit(request).wait();
        let latency = sent.elapsed();
        out.requests.attempted += 1;
        let response = match result {
            Ok(response) => response,
            Err(_) => {
                out.requests.failed += 1;
                continue;
            }
        };
        block.latency.push(ms(latency));
        if mode == Some(AnswerMode::Enumerate) {
            block.first_page.push(ms(latency));
        }
        out.retained_max = out.retained_max.max(response.health.retained_epochs);
        let problem = match checking {
            Checking::Full => verify(&response, &setup.plans[query], mode),
            Checking::Counts(expected) | Checking::Traced(expected) => {
                check_count(&response, expected, query, mode)
            }
        };
        if let Some(problem) = problem {
            out.problems.push(format!("{}: {problem}", queries()[query].0));
        }
        if let (Checking::Traced(_), Some(mode)) = (checking, mode) {
            let direct = Instant::now();
            let answers = execute_answers(
                &setup.plans[query],
                response.epoch.relations(),
                &ops::options().with_mode(mode),
            );
            let direct = consume(answers, direct).total;
            out.overhead_ms.push(ms(latency) - ms(direct));
            let pinning = Instant::now();
            let pin = graph.pin();
            out.pin_us.push(us(pinning.elapsed()));
            drop(pin);
        }
    }
    block.elapsed = start.elapsed();
    out.requests.blocks.push(block);
    out
}

/// The response equals a from-scratch execute on the epoch it pinned.
fn verify(response: &Response, plan: &PlanSet, mode: Option<AnswerMode>) -> Option<String> {
    let relations = response.epoch.relations();
    if mode == Some(AnswerMode::Compact) {
        let expected =
            execute_answers(plan, relations, &ops::options().with_mode(AnswerMode::Compact))
                .into_compact()
                .expect("compact answers");
        return (response.answer.compact() != Some(&expected))
            .then(|| format!("compact answer differs at epoch {:?}", response.epoch.epoch()));
    }
    let expected = execute(plan, relations, &ops::options()).table;
    (response.answer.rows() != Some(&expected)).then(|| {
        format!("{mode:?} answer differs from execute at epoch {:?}", response.epoch.epoch())
    })
}

/// The response has the row or pair count the replay found at its epoch.
fn check_count(
    response: &Response,
    expected: &Expected,
    query: usize,
    mode: Option<AnswerMode>,
) -> Option<String> {
    let epoch = response.epoch.epoch();
    let Some(&(rows, pairs)) = expected.get(&epoch).and_then(|counts| counts.get(query)) else {
        return Some(format!("epoch {epoch:?} is not in the stream"));
    };
    let (got, want) = match mode {
        Some(AnswerMode::Compact) => {
            (response.answer.compact().map(CompactAnswers::num_pairs), pairs)
        }
        _ => (response.answer.rows().map(|t| t.len()), rows),
    };
    (got != Some(want)).then(|| format!("{mode:?} at epoch {epoch:?}: {got:?}, want {want}"))
}

/// The untimed correctness pass over one stream instance: the replay's
/// maintained tables equal a from-scratch execute on the final graph, and,
/// when `verify` is set, a fully verified pass serves only answers equal to
/// `execute` on their pinned epochs and ends on the from-scratch tables.
fn check(setup: &Setup, verify: bool, report: &mut Report) -> Expected {
    let (replay, live) = replay(setup);
    let scratch = GraphRelations::from_itpg(live.itpg());
    let fresh: Vec<_> =
        setup.plans.iter().map(|plan| execute(plan, &scratch, &ops::options()).table).collect();
    let verified = verify.then(|| pass(setup, Checking::Full));
    for (index, (name, _)) in queries().iter().enumerate() {
        if live.table(replay.ids[index]) != &fresh[index] {
            report.problem(format!("{name}: the maintained table differs from execute"));
        }
        if let Some(verified) = &verified {
            if verified.final_tables[index].as_deref() != Some(&fresh[index]) {
                report.problem(format!("{name}: the final served table differs from execute"));
            }
        }
    }
    if let Some(verified) = verified {
        if verified.requests.latencies().is_empty() {
            report.problem("the verified pass served no request".to_owned());
        }
        report.problems.extend(verified.problems);
    }
    replay.expected
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // One stream instance per pass, as many passes as fill the run.
    let slots = args.config(ScaleFactor::G2, 0).trajectories.num_time_points;
    let pass_seconds = PERIOD.as_secs_f64() * slots as f64;
    let passes = (args.measure().as_secs_f64() / pass_seconds).round().max(1.0) as usize;
    let (instances, setup_seconds) = repeat_setup(passes, |index| Setup::new(args, index));
    let expected: Vec<Expected> = instances
        .iter()
        .enumerate()
        .map(|(index, setup)| check(setup, index == 0, &mut report))
        .collect();
    report.facts.push(("streams", format!("{passes} x G2/{SCALE_DIVISOR}")));
    let batches: Vec<usize> = instances.iter().map(|s| s.batches.len()).collect();
    report.facts.push(("batches", format!("{batches:?}")));

    // Each pass is one block of the measured phase.
    let mut measured = Measured::default();
    let mut ingest_ms = Vec::new();
    let mut lateness_ms = Vec::new();
    let mut retained_max = 0;
    for (setup, expected) in instances.iter().zip(&expected) {
        let pass = pass(setup, Checking::Counts(expected));
        measured.attempted += pass.requests.attempted + setup.batches.len() as u64;
        measured.failed += pass.requests.failed + pass.writer_failed;
        measured.blocks.extend(pass.requests.blocks);
        ingest_ms.extend(pass.ingest_ms);
        lateness_ms.extend(pass.lateness_ms);
        retained_max = retained_max.max(pass.retained_max);
        report.problems.extend(pass.problems);
    }
    report.facts.push(("epochs_retained_max", retained_max.to_string()));
    report.facts.push(("writer_lateness_mean_ms", crate::stats::mean(&lateness_ms).to_string()));
    push_end_to_end(&mut report, &setup_seconds, &measured);
    for (name, per_mille) in [("ingest_p50_ms", 500), ("ingest_p90_ms", 900)] {
        if let Some(value) = percentile(&ingest_ms, per_mille) {
            report.push(name, value, ingest_ms.len());
        }
    }
    report
}
