//! Summary statistics, open-loop scheduling arithmetic and metric-name rules.
//!
//! Everything here is pure: the workloads hand in raw samples and instants,
//! and the functions decide what may be reported.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a p99 needs 1,000 samples, a p90 100 and a median 20.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank percentile `per_mille / 1000` of `samples`, or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], per_mille: u32) -> Option<f64> {
    let rank = rank(samples.len(), per_mille);
    (rank > 0 && samples.len() - rank >= MIN_SAMPLES_BEYOND)
        .then(|| nearest_rank(samples, per_mille))
}

/// The nearest-rank percentile `per_mille / 1000` of `samples`, however few
/// lie beyond it (0 for no samples).
pub fn nearest_rank(samples: &[f64], per_mille: u32) -> f64 {
    let rank = rank(samples.len(), per_mille);
    if rank == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

/// The 1-based nearest rank of percentile `per_mille / 1000` among `n`.
fn rank(n: usize, per_mille: u32) -> usize {
    assert!(per_mille > 0 && per_mille < 1000, "percentile {per_mille}/1000 out of range");
    (per_mille as usize * n).div_ceil(1000)
}

/// The median of `samples`, however few (the mean of the middle two for an
/// even count).  Used where the benchmark fixes the sample count — set-up
/// repetitions, time blocks, traced repetitions — never for raw latencies.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A fixed-rate open-loop schedule: operation `i` is due `i * period` after
/// `start`, whether or not earlier operations have finished.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

/// What one open-loop operation cost, both measured from its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// From due time to completion: what a caller who submitted on schedule
    /// waited, including any stall caused by earlier operations.
    pub latency: Duration,
    /// From due time to the actual start: how late the generator ran.
    pub lateness: Duration,
}

impl OpenLoop {
    /// A schedule whose first operation is due at `start`.
    pub fn new(start: Instant, period: Duration) -> Self {
        OpenLoop { start, period }
    }

    /// When operation `index` is due.
    pub fn due(&self, index: usize) -> Instant {
        self.start + self.period * u32::try_from(index).expect("schedule index fits in u32")
    }

    /// Accounts one operation that was due at `due`, started at `started` and
    /// finished at `finished`.  An operation started early (before its due
    /// time) has zero lateness and its latency still runs from `due`.
    pub fn sample(due: Instant, started: Instant, finished: Instant) -> OpenLoopSample {
        OpenLoopSample {
            latency: finished.saturating_duration_since(due),
            lateness: started.saturating_duration_since(due),
        }
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with all its digits.
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: percentile must not assume sorted input.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 500), Some(50.0));
        assert_eq!(percentile(&samples, 900), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(21), 500), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p50: 20 samples leave exactly 10 beyond the 10th; 19 leave 9.
        assert!(percentile(&ramp(20), 500).is_some());
        assert_eq!(percentile(&ramp(19), 500), None);
        // p90 needs 100, p99 needs 1,000.
        assert!(percentile(&ramp(100), 900).is_some());
        assert_eq!(percentile(&ramp(99), 900), None);
        assert!(percentile(&ramp(1000), 990).is_some());
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&[], 500), None);
        // Without the rule the nearest rank is still defined.
        assert_eq!(nearest_rank(&ramp(19), 500), 10.0);
        assert_eq!(nearest_rank(&[], 500), 0.0);
    }

    #[test]
    fn median_and_mean_of_small_fixed_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["latency_p50_ms", "engine.step12_ms", "live.pin_us", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "ünï", "slash/no", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "s", "1/s", "%", "count", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seconds_and_more!", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let start = Instant::now();
        let period = Duration::from_millis(50);
        let schedule = OpenLoop::new(start, period);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(3), start + Duration::from_millis(150));

        // On time: started at its due time, took 10 ms.
        let due = schedule.due(1);
        let on_time = OpenLoop::sample(due, due, due + Duration::from_millis(10));
        assert_eq!(on_time.lateness, Duration::ZERO);
        assert_eq!(on_time.latency, Duration::from_millis(10));

        // Stalled: the previous operation overran, so this one started 30 ms
        // late and took 10 ms — the caller waited 40 ms.
        let due = schedule.due(2);
        let late =
            OpenLoop::sample(due, due + Duration::from_millis(30), due + Duration::from_millis(40));
        assert_eq!(late.lateness, Duration::from_millis(30));
        assert_eq!(late.latency, Duration::from_millis(40));

        // Early: a start before the due time is not negative lateness, and
        // latency still counts from the due time.
        let due = schedule.due(4);
        let early =
            OpenLoop::sample(due, due - Duration::from_millis(1), due + Duration::from_millis(5));
        assert_eq!(early.lateness, Duration::ZERO);
        assert_eq!(early.latency, Duration::from_millis(5));
    }
}
