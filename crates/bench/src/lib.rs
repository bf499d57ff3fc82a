//! Shared helpers for the benchmark harness: building graphs at the paper's scale
//! factors (optionally scaled down), and formatting result tables.
//!
//! Every experiment binary honours two environment variables:
//!
//! * `TPATH_SCALE_DIVISOR` — divides the person counts of Table I (default 25, so the
//!   sweep runs 50 … 4,000 persons instead of 1,000 … 100,000); set it to 1 to
//!   reproduce the paper's sizes exactly if you have the memory and patience.
//! * `TPATH_THREADS` — the number of worker threads (default: all cores).

use std::time::Instant;

use engine::{ExecutionOptions, GraphRelations, JoinStrategy};
use trpq::queries::QueryId;
use workload::{ContactTracingConfig, ScaleFactor};

/// The scale divisor taken from `TPATH_SCALE_DIVISOR` (default 25).
pub fn scale_divisor() -> usize {
    std::env::var("TPATH_SCALE_DIVISOR").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

/// The join strategy taken from `TPATH_JOIN_STRATEGY` (`hash` | `merge` | `auto`,
/// default `auto`).
pub fn join_strategy() -> JoinStrategy {
    std::env::var("TPATH_JOIN_STRATEGY").ok().and_then(|s| s.parse().ok()).unwrap_or_default()
}

/// The execution options taken from `TPATH_THREADS` (default: all cores) and
/// `TPATH_JOIN_STRATEGY` (default: auto).
pub fn execution_options() -> ExecutionOptions {
    let options = match std::env::var("TPATH_THREADS").ok().and_then(|s| s.parse().ok()) {
        Some(threads) => ExecutionOptions::with_threads(threads),
        None => ExecutionOptions::default(),
    };
    options.with_strategy(join_strategy())
}

/// The generator configuration for one scale factor under the current divisor.
pub fn config_at(scale: ScaleFactor) -> ContactTracingConfig {
    scale.scaled_config(scale_divisor())
}

/// Generates the graph for one scale factor and loads it into the engine, reporting
/// how long both took.
pub fn build_graph(scale: ScaleFactor) -> (GraphRelations, BuildReport) {
    build_graph_with(config_at(scale))
}

/// Generates a graph from an explicit configuration.
pub fn build_graph_with(config: ContactTracingConfig) -> (GraphRelations, BuildReport) {
    let start = Instant::now();
    let itpg = workload::generate(&config);
    let generate_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let relations = GraphRelations::from_itpg(&itpg);
    let load_seconds = start.elapsed().as_secs_f64();
    let stats = relations.stats();
    (
        relations,
        BuildReport {
            persons: config.trajectories.num_persons,
            nodes: stats.nodes,
            edges: stats.edges,
            temporal_nodes: stats.temporal_nodes,
            temporal_edges: stats.temporal_edges,
            generate_seconds,
            load_seconds,
        },
    )
}

/// Sizes and build times of one generated graph (one row of Table I).
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Number of persons requested from the generator.
    pub persons: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of temporal node states.
    pub temporal_nodes: usize,
    /// Number of temporal edge states.
    pub temporal_edges: usize,
    /// Seconds spent generating the trajectories and the ITPG.
    pub generate_seconds: f64,
    /// Seconds spent loading the ITPG into the engine relations.
    pub load_seconds: f64,
}

/// One measured query execution (one row of Table II).
#[derive(Debug, Clone, Copy)]
pub struct QueryMeasurement {
    /// Interval-based time (Steps 1–2), in seconds.
    pub interval_seconds: f64,
    /// Total time (the optimizer pass plus Steps 1–3), in seconds.
    pub total_seconds: f64,
    /// Number of interval-level intermediate matches after Steps 1–2.
    pub interval_rows: usize,
    /// Output size in binding-table rows.
    pub output_size: usize,
}

/// Runs one of the paper's benchmark queries and records its measurements.
pub fn measure(
    id: QueryId,
    graph: &GraphRelations,
    options: &ExecutionOptions,
) -> QueryMeasurement {
    let answers = engine::Query::benchmark(id).with_options(*options).run(graph);
    let stats = answers.into_output().expect("the default mode materialises").stats;
    QueryMeasurement {
        interval_seconds: stats.interval_time.as_secs_f64(),
        total_seconds: stats.total_time.as_secs_f64(),
        interval_rows: stats.interval_rows,
        output_size: stats.output_rows,
    }
}

/// Prints the standard experiment preamble.
pub fn print_preamble(experiment: &str) {
    println!("# {experiment}");
    println!(
        "# scale divisor = {} (set TPATH_SCALE_DIVISOR=1 for the paper's full sizes), threads = {}",
        scale_divisor(),
        execution_options().parallelism.threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_can_be_built_and_measured_at_the_smallest_scale() {
        let (graph, report) = build_graph_with(ContactTracingConfig::with_persons(120));
        assert_eq!(report.persons, 120);
        assert!(report.temporal_nodes >= report.nodes);
        let m = measure(QueryId::Q1, &graph, &ExecutionOptions::sequential());
        assert!(m.output_size > 0);
        assert!(m.total_seconds >= m.interval_seconds);
    }

    #[test]
    fn environment_defaults_are_sane() {
        assert!(scale_divisor() >= 1);
        assert!(execution_options().parallelism.threads() >= 1);
        // TPATH_JOIN_STRATEGY is unset in the test environment, so the adaptive
        // default applies.
        assert_eq!(join_strategy(), JoinStrategy::Auto);
    }
}
