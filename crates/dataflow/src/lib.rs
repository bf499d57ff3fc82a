//! # dataflow — the join and parallelism primitives of the TRPQ engine
//!
//! The engine (Section VI of the paper) evaluates structural navigation as in-memory
//! joins over interval relations that keep only temporally-aligned matches.  This
//! crate holds the pieces of that evaluation that are not specific to the engine's
//! plans:
//!
//! * [`JoinStrategy`] — the hash / merge / auto knob, resolved per join into a
//!   [`ResolvedJoin`] from input sortedness and sizes;
//! * [`interval_merge_join_gallop`] — the merge strategy's join over key-sorted
//!   inputs, with [`is_key_sorted`] for its precondition (the hash strategy is the
//!   engine's own per-key adjacency probe);
//! * [`SortedRelation`] — key/interval-sorted rows that the live graph merges new
//!   rows into without a re-sort;
//! * [`kway_merge_dedup`] — combines sorted per-chunk runs into one sorted,
//!   duplicate-free run;
//! * [`par_chunk_flat_map`] with [`Parallelism`] — a chunked parallel executor on
//!   `crossbeam` scoped threads, standing in for the paper's use of Itertools +
//!   Rayon.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod operators;
mod parallel;
mod sorted;
mod strategy;

pub use operators::merge_join::{interval_merge_join_gallop, is_key_sorted};
pub use parallel::{par_chunk_flat_map, Parallelism};
pub use sorted::{kway_merge_dedup, SortedRelation};
pub use strategy::{JoinStrategy, ResolvedJoin};
