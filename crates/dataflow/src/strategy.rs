//! Join-strategy selection: the engine knob that picks between the hash-based and the
//! sort-merge-based implementations of temporally-aligned joins.
//!
//! The paper's engine (Section VI) evaluates structural navigation with in-memory
//! joins over interval relations.  Two physical implementations are available:
//!
//! * **Hash** — probe the engine's precomputed per-key adjacency index with the rows
//!   of the other side.  Insensitive to input order.
//! * **Merge** — a galloping sort-merge pass over two inputs that are both sorted by
//!   the join key ([`crate::interval_merge_join_gallop`]).  Cache-friendly and
//!   allocation-free on the probe path, but only correct on key-sorted inputs.
//!
//! [`JoinStrategy::Auto`] resolves the choice per join from the actual sortedness of
//! the inputs and their sizes ([`JoinStrategy::resolve_with_hint`]).

use std::fmt;
use std::str::FromStr;

/// How temporally-aligned joins should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinStrategy {
    /// Always probe a hash / per-key index.
    Hash,
    /// Always sort-merge; inputs that are not key-sorted are sorted first.
    Merge,
    /// Pick per join: merge when the inputs are already key-sorted and the probe side
    /// is not vanishingly small, hash otherwise.
    #[default]
    Auto,
}

/// The concrete algorithm chosen for one join by [`JoinStrategy::resolve_with_hint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedJoin {
    /// Probe a hash / per-key index.
    Hash,
    /// Galloping merge over key-sorted inputs.
    Merge,
}

/// The `Auto` cost crossover: merge is chosen only when the probe side carries at
/// least one row per this many indexed rows.  A merge pass streams the key-sorted
/// permutation (galloping over unmatched groups), so a tiny probe batch against a
/// long permutation is better served by the precomputed per-key hash indexes; a
/// probe batch of comparable size amortises the stream and wins on locality.
const AUTO_MERGE_PROBE_RATIO: usize = 8;

impl JoinStrategy {
    /// Resolves the strategy for one join from input sortedness *and* a simple cost
    /// heuristic: probe-side row count versus indexed-side row count.
    ///
    /// `Hash` and `Merge` stay unconditional.  `Auto` picks merge only when the
    /// inputs are key-sorted (merging unsorted inputs would pay a sort) **and** the
    /// probe side is not vanishingly small relative to the indexed side —
    /// `probe_rows × 8 ≥ index_rows` — since a handful of
    /// probes against a long permutation resolve faster through the per-key hash
    /// indexes than through a merge stream.
    pub fn resolve_with_hint(
        self,
        inputs_key_sorted: bool,
        probe_rows: usize,
        index_rows: usize,
    ) -> ResolvedJoin {
        match self {
            JoinStrategy::Hash => ResolvedJoin::Hash,
            JoinStrategy::Merge => ResolvedJoin::Merge,
            JoinStrategy::Auto => {
                let worth_streaming =
                    probe_rows.saturating_mul(AUTO_MERGE_PROBE_RATIO) >= index_rows;
                if inputs_key_sorted && worth_streaming {
                    ResolvedJoin::Merge
                } else {
                    ResolvedJoin::Hash
                }
            }
        }
    }

    /// The lower-case name used in benchmark output and environment variables.
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::Hash => "hash",
            JoinStrategy::Merge => "merge",
            JoinStrategy::Auto => "auto",
        }
    }

    /// All strategies, in the order benchmark matrices sweep them.
    pub const ALL: [JoinStrategy; 3] =
        [JoinStrategy::Hash, JoinStrategy::Merge, JoinStrategy::Auto];
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for JoinStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hash" => Ok(JoinStrategy::Hash),
            "merge" => Ok(JoinStrategy::Merge),
            "auto" => Ok(JoinStrategy::Auto),
            other => Err(format!("unknown join strategy {other:?} (expected hash|merge|auto)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_hint_pins_the_auto_crossover() {
        // Pinned strategies ignore the hint entirely.
        assert_eq!(JoinStrategy::Hash.resolve_with_hint(true, 1_000, 1), ResolvedJoin::Hash);
        assert_eq!(JoinStrategy::Merge.resolve_with_hint(false, 1, 1_000), ResolvedJoin::Merge);
        // Auto never merges unsorted inputs, however favourable the cardinalities.
        assert_eq!(JoinStrategy::Auto.resolve_with_hint(false, 1_000, 1), ResolvedJoin::Hash);
        // The crossover: merge exactly when probe × ratio reaches the index size.
        let ratio = AUTO_MERGE_PROBE_RATIO;
        assert_eq!(
            JoinStrategy::Auto.resolve_with_hint(true, 100, 100 * ratio),
            ResolvedJoin::Merge
        );
        assert_eq!(
            JoinStrategy::Auto.resolve_with_hint(true, 100, 100 * ratio + 1),
            ResolvedJoin::Hash
        );
        // Equal-sized sides always merge; a huge probe side over a tiny index too.
        assert_eq!(JoinStrategy::Auto.resolve_with_hint(true, 500, 500), ResolvedJoin::Merge);
        assert_eq!(JoinStrategy::Auto.resolve_with_hint(true, usize::MAX, 10), ResolvedJoin::Merge);
        // Empty probe batches degrade to hash (nothing to stream for).
        assert_eq!(JoinStrategy::Auto.resolve_with_hint(true, 0, 10), ResolvedJoin::Hash);
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for strategy in JoinStrategy::ALL {
            assert_eq!(strategy.name().parse::<JoinStrategy>().unwrap(), strategy);
        }
        assert_eq!("MERGE".parse::<JoinStrategy>().unwrap(), JoinStrategy::Merge);
        assert!("nested-loop".parse::<JoinStrategy>().is_err());
        assert_eq!(JoinStrategy::default(), JoinStrategy::Auto);
        assert_eq!(JoinStrategy::Auto.to_string(), "auto");
    }
}
