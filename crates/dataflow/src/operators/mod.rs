//! The temporally-aligned join the engine's merge strategy runs.

pub(crate) mod merge_join;
