//! Deterministic discrete-event simulation kernel for the DarkDNS reproduction.
//!
//! Every stochastic component in the reproduction draws randomness from a
//! named, seeded stream ([`rng::RngPool`]), advances a shared notion of
//! simulated time ([`time::SimTime`]), and reports results through the
//! metric helpers in [`metrics`] and [`cdf`]. Nothing in this crate performs
//! I/O or consults wall-clock time, which is what makes every paper table
//! and figure in the workspace exactly reproducible from a seed.
//!
//! The kernel is intentionally small and synchronous: the paper's pipeline
//! is a streaming system, but its *evaluation* is a post-hoc analysis over
//! three months of events, so single-threaded value types over a seeded
//! clock are both sufficient and far easier to validate than a
//! multi-threaded runtime.

pub mod cdf;
pub mod dist;
pub mod metrics;
pub mod rng;
pub mod time;

pub use cdf::Cdf;
pub use dist::{LogNormal, WeightedIndex};
pub use rng::RngPool;
pub use time::{SimDuration, SimTime};
