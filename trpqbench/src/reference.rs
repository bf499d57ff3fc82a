//! The speed reference.
//!
//! The machines this benchmark runs on share their cores with other tenants,
//! and a fixed computation's speed drifts by ±20% over seconds and minutes.
//! Every phase that is timed therefore also times [`work`], a fixed
//! computation owned by the benchmark (hashing, allocation and sorting with
//! the standard library only, nothing from the program measured).  Each round
//! is recorded as a share of [`NOMINAL_MS`].  A time taken while the rounds
//! ran at median share `r` is divided by `r`: it becomes the time the
//! operation would have taken on the same machine running at nominal speed.
//! A change to the program moves the operation and not the reference, so it
//! shows in full; a neighbour's load moves both and mostly cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, ms};

/// [`work`]'s duration at nominal speed: about its median on the development
/// VM (2 vCPUs at 2.1 GHz) when that is quiet.
pub const NOMINAL_MS: f64 = 5.0;

/// How often a closed loop times the reference between its operations.
pub const EVERY: Duration = Duration::from_millis(100);

/// One round of the reference computation: 60,000 hash-map updates and a
/// sort of 150,000 integers, drawn from an xorshift stream seeded by `round`.
pub fn work(round: u64) -> u64 {
    let mut x = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    for _ in 0..60_000 {
        *counts.entry(next() % 100_000).or_default() += 1;
    }
    let mut values: Vec<u64> = (0..150_000).map(|_| next()).collect();
    values.sort_unstable();
    values.iter().step_by(97).fold(counts.len() as u64, |acc, v| acc ^ v)
}

/// A [`work`] round's time as a share of its nominal time.
pub fn share(took: Duration) -> f64 {
    ms(took) / NOMINAL_MS
}

/// Times reference rounds between the operations of a loop.
#[derive(Debug, Default)]
pub struct Sampler {
    last: Option<Instant>,
    round: u64,
}

impl Sampler {
    /// Times one round if none has run yet or [`EVERY`] has passed since the
    /// last one ended.
    pub fn due(&mut self) -> Option<Duration> {
        match self.last {
            Some(last) if last.elapsed() < EVERY => None,
            _ => Some(self.run()),
        }
    }

    /// Times one round now.
    pub fn run(&mut self) -> Duration {
        let start = Instant::now();
        black_box(work(black_box(self.round)));
        self.round += 1;
        let took = start.elapsed();
        self.last = Some(Instant::now());
        took
    }

    /// Makes the next [`Sampler::due`] run a round.
    pub fn restart(&mut self) {
        self.last = None;
    }
}

/// The factor that scales a time taken while the reference rounds ran at the
/// given shares of their nominal time to nominal speed.
pub fn speed_factor(shares: &[f64]) -> f64 {
    1.0 / median(shares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_per_round() {
        assert_eq!(work(3), work(3));
        assert_ne!(work(3), work(4));
    }

    #[test]
    fn speed_factor_scales_to_nominal() {
        // A reference running at half speed halves every time measured with it.
        let slow = Duration::from_secs_f64(NOMINAL_MS * 2.0 / 1e3);
        assert_eq!(speed_factor(&[share(slow); 3]), 0.5);
        assert_eq!(speed_factor(&[1.0, 0.5, 9.0]), 1.0);
    }

    #[test]
    fn a_sampler_runs_first_then_waits() {
        let mut sampler = Sampler::default();
        assert!(sampler.due().is_some());
        assert!(sampler.due().is_none(), "a second round within EVERY is not due");
        sampler.restart();
        assert!(sampler.due().is_some());
    }
}
