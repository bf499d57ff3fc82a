//! The metric catalogue and the result a run prints.
//!
//! The catalogue is the one list of metric names and units; `BENCHMARK.json`
//! must name the same metrics (a test checks it).  A run prints a line per
//! metric, a `# record` line with everything needed to reproduce it, and, as
//! its last line, the result object: `correct`, `attempted`, `failed` and the
//! `metrics` of its mode.

use std::fmt::Write as _;

use crate::stats::{valid_name, valid_unit};

/// The end-to-end metrics every untraced run reports, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("first_page_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that exist only on some workloads (a p99 needs 1,000
/// samples; only serve-g2 ingests; failures are normally zero).  They are
/// printed and recorded where they apply but are not part of the result
/// object, which must carry the same metrics on every workload.
pub const WORKLOAD_SPECIFIC: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// The per-layer metrics every traced run reports.  A layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trpq.parse_us", "us"),
    ("engine.compile_us", "us"),
    ("engine.schema_summary_ms", "ms"),
    ("engine.analyze_us", "us"),
    ("engine.plan_share", "ratio"),
    ("engine.execute_ms", "ms"),
    ("engine.step12_ms", "ms"),
    ("engine.step3_ms", "ms"),
    ("engine.interval_rows", "count"),
    ("engine.output_rows", "count"),
    ("engine.interval_rows_per_output_row", "ratio"),
    ("engine.closure_rounds", "count"),
    ("engine.time_rounds", "count"),
    ("dataflow.hash_joins", "count"),
    ("dataflow.merge_joins", "count"),
    ("engine.cursor_first_page_ms", "ms"),
    ("engine.cursor_drain_ms", "ms"),
    ("engine.cursor_peak_buffered_rows", "count"),
    ("engine.compact_ms", "ms"),
    ("engine.compact_pairs", "count"),
    ("engine.snapshot_us", "us"),
    ("live.apply_ms", "ms"),
    ("live.mutations_per_batch", "count"),
    ("live.refresh_ms", "ms"),
    ("live.fallback_frac", "ratio"),
    ("live.affected_seeds", "count"),
    ("live.pin_us", "us"),
    ("live.epochs_retained_max", "count"),
    ("live.serve_overhead_ms", "ms"),
    ("obs.telemetry_overhead_pct", "%"),
    ("bench.layer_sum_gap_pct", "%"),
    ("bench.writer_lateness_ms", "ms"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
    /// For a time scaled to the reference's nominal speed, the value as
    /// measured.
    pub measured: Option<f64>,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of the run's mode, in any order.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end metrics (untraced runs only).
    pub specific: Vec<Metric>,
    /// Operations attempted during the measured phase.
    pub attempted: u64,
    /// Operations that returned an error during the measured phase.
    pub failed: u64,
    /// Correctness failures; the run exits non-zero if there is any.
    pub problems: Vec<String>,
    /// Untimed operations run before measuring.
    pub warmup_ops: u64,
    /// Free-form `key=value` facts about the inputs, for the record line.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Adds a metric, taking its unit from the catalogue.
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.add(Metric { name, unit: "", value, samples, measured: None });
    }

    /// Adds a time scaled to the reference's nominal speed, with its value as
    /// measured.
    pub fn push_scaled(&mut self, name: &'static str, value: f64, measured: f64, samples: usize) {
        self.add(Metric { name, unit: "", value, samples, measured: Some(measured) });
    }

    fn add(&mut self, mut metric: Metric) {
        let name = metric.name;
        metric.unit =
            unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        for value in std::iter::once(metric.value).chain(metric.measured) {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
        }
        if WORKLOAD_SPECIFIC.iter().any(|(n, _)| *n == name) {
            self.specific.push(metric);
        } else {
            self.metrics.push(metric);
        }
    }

    /// Records a correctness failure.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_SPECIFIC)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// The metrics a run in the given mode must report, exactly.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Facts about how a run was made, printed in its record line.
#[derive(Debug)]
pub struct RunInfo {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Prints the report and returns whether the run was correct.  Panics if the
/// report does not carry exactly the catalogue metrics of its mode — that is a
/// bug in the benchmark, not in the program measured.
pub fn print(info: &RunInfo, report: &Report) -> bool {
    let expected = catalogue(info.trace);
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    names.sort_unstable();
    let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    wanted.sort_unstable();
    assert_eq!(names, wanted, "the run must report exactly the catalogue metrics of its mode");

    for metric in report.metrics.iter().chain(&report.specific) {
        let measured = metric
            .measured
            .map(|m| format!(", as measured {m} {}", metric.unit))
            .unwrap_or_default();
        println!(
            "{} {} = {} {} (n={}{measured})",
            info.workload, metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for problem in &report.problems {
        eprintln!("trpqbench: {}: INCORRECT: {problem}", info.workload);
    }
    assert!(report.attempted > 0, "a run attempts at least one operation");
    let correct = report.problems.is_empty();

    let mut record = String::from("{");
    let _ = write!(
        record,
        "\"workload\":{},\"trace\":{},\"seed\":{},\"scale_divisor\":{},\"run_seconds\":{},\
         \"commit\":{},\"rustc\":{},\"nproc\":{},\"warmup_ops\":{},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{}",
        json_str(info.workload),
        info.trace,
        info.seed,
        crate::SCALE_DIVISOR,
        info.seconds,
        json_str(&commit()),
        json_str(env!("TRPQBENCH_RUSTC")),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        report.warmup_ops,
        report.attempted,
        report.failed,
    );
    for (key, value) in &report.facts {
        let _ = write!(record, ",{}:{}", json_str(key), json_str(value));
    }
    record.push_str(",\"metrics\":");
    record.push_str(&metrics_json(report.metrics.iter().chain(&report.specific), true));
    record.push('}');
    println!("# record {record}");

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.attempted,
        report.failed,
        metrics_json(report.metrics.iter(), false)
    );
    correct
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            assert!(valid_name(m.name) && valid_unit(m.unit), "bad metric {m:?}");
            let samples = match (with_samples, m.measured) {
                (false, _) => String::new(),
                (true, None) => format!(",\"samples\":{}", m.samples),
                (true, Some(measured)) => {
                    format!(",\"samples\":{},\"measured\":{measured}", m.samples)
                }
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{samples}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit measured: `TRPQBENCH_COMMIT` if set, else `git rev-parse HEAD`
/// confined to the current directory, else `unknown` (a plain checkout).
fn commit() -> String {
    if let Ok(commit) = std::env::var("TRPQBENCH_COMMIT") {
        return commit;
    }
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(WORKLOAD_SPECIFIC).chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `BENCHMARK.json` at the repository root names exactly the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn workload_specific_metrics_stay_out_of_the_result_object() {
        let mut report = Report::default();
        report.push("latency_p99_ms", 1.5, 1000);
        report.push("setup_s", 0.25, 21);
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(report.specific[0].name, "latency_p99_ms");
    }
}
