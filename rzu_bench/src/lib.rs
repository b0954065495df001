//! `rzu_bench`: the repository's benchmark.
//!
//! Four workloads over the RZU distribution stack — `relay_chain`,
//! `edge_visibility`, `edge_lookup`, `cold_catchup` — each reporting the
//! same three gated end-to-end metrics and three ungated end-to-end
//! timings, and in a separate traced run the per-layer metrics
//! underneath them. `README.md` in this directory says
//! what every name means and why each workload exists.
//!
//! Four noise rules are fixed in the harness, not offered as knobs:
//! (a) the process pins itself to one CPU ([`host`]); (b) the generator
//! never spins and consumers block in `recv_frame` ([`link`], [`run`]);
//! (c) every per-run value is a median over equal windows ([`stats`]);
//! (d) inputs are fixed by the seed and cycle ([`gen`]).

pub mod alloc;
pub mod gen;
pub mod host;
pub mod layers;
pub mod link;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::{Report, RunArgs};
use workloads::cold_catchup::ColdCatchup;
use workloads::edge_lookup::EdgeLookup;
use workloads::edge_visibility::EdgeVisibility;
use workloads::relay_chain::RelayChain;
use workloads::Workload;

/// Every workload name the command accepts.
pub const WORKLOADS: [&str; 4] = [
    RelayChain::NAME,
    EdgeVisibility::NAME,
    EdgeLookup::NAME,
    ColdCatchup::NAME,
];

/// Run the workload called `name`.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Report, String> {
    match name {
        RelayChain::NAME => run::run::<RelayChain>(args),
        EdgeVisibility::NAME => run::run::<EdgeVisibility>(args),
        EdgeLookup::NAME => run::run::<EdgeLookup>(args),
        ColdCatchup::NAME => run::run::<ColdCatchup>(args),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}
