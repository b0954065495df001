//! # DarkDNS
//!
//! A full reproduction of *"DarkDNS: Revisiting the Value of Rapid Zone
//! Update"* (Sommese et al., ACM IMC 2024): the five-step CT-log-based
//! pipeline for detecting newly registered and transient domains, together
//! with every substrate the paper's evaluation depends on — a registry /
//! registrar ecosystem simulator, certificate-transparency logs, RDAP
//! servers, an active-measurement harness, blocklists, a passive-DNS NOD
//! feed, and a rapid-zone-update (RZU) service.
//!
//! This facade crate re-exports the member crates under stable module
//! names. See `ROADMAP.md` for the system inventory and open directions,
//! `docs/INVARIANTS.md` for the machine-checked invariants, and
//! `crates/bench/src/bin/` for the binaries that print the
//! paper-versus-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```no_run
//! use darkdns::core::{Experiment, ExperimentConfig};
//!
//! // A scaled-down universe: 12 simulated days, small volumes, seed 7.
//! let cfg = ExperimentConfig::small(7);
//! let report = Experiment::new(cfg).run();
//! assert!(report.nrd_total > 0);
//! println!("{}", report.render_text());
//! ```

pub use darkdns_broker as broker;
pub use darkdns_core as core;
pub use darkdns_ct as ct;
pub use darkdns_dns as dns;
pub use darkdns_edge as edge;
pub use darkdns_intel as intel;
pub use darkdns_measure as measure;
pub use darkdns_rdap as rdap;
pub use darkdns_registry as registry;
pub use darkdns_sim as sim;
