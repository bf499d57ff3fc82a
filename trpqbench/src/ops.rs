//! What the workloads share: the harness queries, how a caller consumes
//! answers, set-up repetition, and the end-to-end summary.

use std::time::{Duration, Instant};

use engine::{AnswerMode, Answers, ExecutionOptions};

use crate::reference::{self, speed_factor};
use crate::report::Report;
use crate::stats::{median, ms, nearest_rank, percentile};

/// Transitive contact chains through the structural closure (the same text
/// as `tpath-perf`'s REACH workload).
pub const REACH: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";

/// Recurring contacts through the time-aware closure (the same text as
/// `tpath-perf`'s RECUR workload).
pub const RECUR: &str = "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD/NEXT)*/NEXT*/-\
                         ({test = 'pos'}) ON contact_tracing";

/// Rows in a first page of answers.
pub const PAGE: usize = 50;

/// The fewest set-up samples a run takes; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 24;

/// The fewest times a run repeats its whole set-up.  The first repetition
/// runs on fresh memory and is slower than the rest; with three or more, the
/// median never falls between the two.
pub const SETUP_REPS: usize = 3;

/// The answer modes in the order the workloads cycle through them.
pub const MODES: [AnswerMode; 3] =
    [AnswerMode::Materialized, AnswerMode::Enumerate, AnswerMode::Compact];

/// Every workload executes on one thread.
pub fn options() -> ExecutionOptions {
    ExecutionOptions::with_threads(1)
}

/// What a caller got from one operation.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Rows (materialised or enumerated) or `(source, target)` pairs (compact).
    pub count: usize,
    /// From the operation's start until the first page was in hand: the first
    /// `PAGE` rows of a cursor, the whole answer otherwise.
    pub first_page: Duration,
    /// From the operation's start until the answer was fully consumed.
    pub total: Duration,
}

/// Consumes answers the way a caller does — a cursor is paged once and then
/// drained — timing from `start`.  The answers are dropped after the clock
/// stops.
pub fn consume(mut answers: Answers, start: Instant) -> Outcome {
    match answers.mode() {
        AnswerMode::Enumerate => {
            let cursor = answers.cursor_mut().expect("enumerate mode hands out a cursor");
            let page = cursor.page(PAGE).len();
            let first_page = start.elapsed();
            let count = page + cursor.by_ref().count();
            Outcome { count, first_page, total: start.elapsed() }
        }
        AnswerMode::Materialized | AnswerMode::Compact => {
            let total = start.elapsed();
            Outcome { count: answers.stats().output_rows, first_page: total, total }
        }
    }
}

/// The seed of input instance `index` of a run.  Every run draws several
/// instances of its graph or stream from `--seed` (through splitmix64), so its
/// figures average over inputs instead of hanging on one draw.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The timed set-ups of a run, with the reference rounds timed between them.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Seconds per instance set-up.
    pub seconds: Vec<f64>,
    /// Reference rounds, as shares of their nominal time.
    pub reference: Vec<f64>,
}

/// Sets up `instances` input instances, timing each and one reference round
/// after each, and repeats the whole set-up (dropping the previous one first)
/// at least [`SETUP_REPS`] times and until at least [`SETUP_SAMPLES`]
/// instance set-ups are timed.  Returns the last set.
pub fn repeat_setup<T>(
    instances: usize,
    mut build: impl FnMut(usize) -> T,
) -> (Vec<T>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut sampler = reference::Sampler::default();
    let mut built = Vec::new();
    while times.seconds.len() < SETUP_SAMPLES.max(SETUP_REPS * instances) {
        built.clear();
        for index in 0..instances {
            let start = Instant::now();
            built.push(build(index));
            times.seconds.push(start.elapsed().as_secs_f64());
            times.reference.push(reference::share(sampler.run()));
        }
    }
    (built, times)
}

/// The samples of one time block of a measured phase.
#[derive(Debug, Default)]
pub struct Block {
    /// Per-operation latency, ms.
    pub latency: Vec<f64>,
    /// Per-operation time to first page, ms, of the operations that stream.
    pub first_page: Vec<f64>,
    /// Reference rounds, as shares of their nominal time (see
    /// [`crate::reference`]).
    pub reference: Vec<f64>,
    /// How long the block spent on operations (its length less the reference
    /// rounds).
    pub elapsed: Duration,
}

/// The samples of a measured phase, split into consecutive time blocks.  The
/// timing metrics are medians over the blocks, so a few seconds of a
/// neighbour's load move at most the blocks they fall in.
#[derive(Debug, Default)]
pub struct Measured {
    pub blocks: Vec<Block>,
    /// Operations attempted and failed with an error.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Records one completed operation in block `block`.
    pub fn record(&mut self, block: usize, outcome: &Outcome, streamed: bool) {
        let block = &mut self.blocks[block];
        block.latency.push(ms(outcome.total));
        if streamed {
            block.first_page.push(ms(outcome.first_page));
        }
    }

    /// Every latency sample of the phase.
    pub fn latencies(&self) -> Vec<f64> {
        self.blocks.iter().flat_map(|b| b.latency.iter().copied()).collect()
    }
}

/// What one step of a closed loop did.
#[derive(Debug)]
pub struct Step {
    /// The operation's outcome and whether it streamed, or `None` if it
    /// failed with an error.
    pub outcome: Option<(Outcome, bool)>,
    /// Time the step spent on untimed preparation (setting up the next input
    /// instance), which no block counts.
    pub untimed: Duration,
}

/// Runs `op(step)` for steps 0, 1, … in a closed loop until `duration` has
/// gone to operations, split into `blocks` equal blocks of that time, timing
/// a reference round at the start of each block and then every
/// [`reference::EVERY`].  Reference rounds and each step's untimed
/// preparation do not count towards `duration` or any block.
pub fn closed_loop(
    duration: Duration,
    blocks: usize,
    mut op: impl FnMut(usize) -> Step,
) -> Measured {
    let mut measured =
        Measured { blocks: (0..blocks).map(|_| Block::default()).collect(), ..Measured::default() };
    let mut sampler = reference::Sampler::default();
    let start = Instant::now();
    let block_length = duration / u32::try_from(blocks).expect("block count fits in u32");
    let mut untimed = Duration::ZERO;
    let (mut block, mut block_start) = (0, Duration::ZERO);
    for step in 0.. {
        let timed = start.elapsed() - untimed;
        if timed >= duration {
            break;
        }
        while block + 1 < blocks && timed >= block_length * (block as u32 + 1) {
            measured.blocks[block].elapsed = timed - block_start;
            (block, block_start) = (block + 1, timed);
            sampler.restart();
        }
        if let Some(took) = sampler.due() {
            measured.blocks[block].reference.push(reference::share(took));
            untimed += took;
        }
        measured.attempted += 1;
        let done = op(step);
        untimed += done.untimed;
        match done.outcome {
            Some((outcome, streamed)) => measured.record(block, &outcome, streamed),
            None => measured.failed += 1,
        }
    }
    measured.blocks[block].elapsed = start.elapsed() - untimed - block_start;
    measured
}

/// Pushes the end-to-end metrics every workload shares, plus the p99 and
/// failure fraction where they apply.
///
/// The gated times are scaled to the reference's nominal speed (see
/// [`crate::reference`]): set-up by the reference rounds of the set-up phase,
/// each block by its own.  Latency percentiles, first-page latency and
/// throughput are then the median over the blocks.  Each is recorded beside
/// the value as measured.  The p99 and the failure fraction, which are not
/// gated, are as measured over the whole phase.  A block without enough
/// samples for a percentile fails the run — it was too short for the metric it
/// must report — and counts with its nearest rank.
pub fn push_end_to_end(report: &mut Report, setup: &SetupTimes, measured: &Measured) {
    let setup_s = median(&setup.seconds);
    let factor = speed_factor(&setup.reference);
    report.push_scaled("setup_s", setup_s * factor, setup_s, setup.seconds.len());
    let blocks = &measured.blocks;
    let factors: Vec<f64> = blocks.iter().map(|b| speed_factor(&b.reference)).collect();
    let streams = blocks.iter().any(|b| !b.first_page.is_empty());
    for (name, first_page, per_mille) in [
        ("latency_p50_ms", false, 500),
        ("latency_p90_ms", false, 900),
        ("first_page_p50_ms", streams, 500),
    ] {
        let mut samples = 0;
        let values: Vec<f64> = blocks
            .iter()
            .enumerate()
            .map(|(index, block)| {
                let block = if first_page { &block.first_page } else { &block.latency };
                samples += block.len();
                percentile(block, per_mille).unwrap_or_else(|| {
                    report.problem(format!(
                        "{name}: block {index} has {} samples, too few for the percentile",
                        block.len()
                    ));
                    nearest_rank(block, per_mille)
                })
            })
            .collect();
        let scaled: Vec<f64> = values.iter().zip(&factors).map(|(v, f)| v * f).collect();
        report.push_scaled(name, median(&scaled), median(&values), samples);
    }
    let all = measured.latencies();
    if let Some(p99) = percentile(&all, 990) {
        report.push("latency_p99_ms", p99, all.len());
    }
    let rates: Vec<f64> =
        blocks.iter().map(|b| b.latency.len() as f64 / b.elapsed.as_secs_f64()).collect();
    let scaled: Vec<f64> = rates.iter().zip(&factors).map(|(r, f)| r / f).collect();
    report.push_scaled("throughput_qps", median(&scaled), median(&rates), all.len());
    report.push("failed_frac", measured.failed as f64 / measured.attempted.max(1) as f64, 1);
    report.push("peak_rss_mb", peak_rss_mib(), 1);
    let reference: Vec<f64> = blocks.iter().flat_map(|b| b.reference.iter().copied()).collect();
    report.facts.push(("reference_share", median(&reference).to_string()));
    report.facts.push(("setup_reference_share", median(&setup.reference).to_string()));
    report.attempted += measured.attempted;
    report.failed += measured.failed;
}

/// The peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
