//! The member crate whose `pub` items L7 probes.

pub mod gated;
pub mod meters;
pub mod report;
pub mod verdicts;
