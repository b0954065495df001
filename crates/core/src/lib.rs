//! The DarkDNS pipeline — the paper's primary contribution.
//!
//! Five steps (§3), each a module here:
//!
//! 1. [`detector`] — infer newly registered domains from the certificate
//!    stream by discarding names already present in the pipeline's zone
//!    view;
//! 2. [`validate`] — collect RDAP registration data (worker pool, no
//!    retries) for every candidate;
//! 3. [`monitor`] — reactive A/AAAA/NS measurements every 10 minutes for
//!    the first 48 hours of each candidate's life;
//! 4. `validate` again — cross-check the CT detection timestamp against
//!    the RDAP creation time (detection latency; misclassification
//!    filter);
//! 5. [`transient`] — classify candidates that never appear in any zone
//!    snapshot over the window (±3 days slack) as *transient domains*.
//!
//! # The consumer contract: [`membership::ZoneMembership`]
//!
//! Every stage that asks "is this name already delegated?" does so
//! through one trait, [`membership::ZoneMembership`] — the pipeline is
//! generic over *where its zone view comes from*, and a deployment
//! picks a backend:
//!
//! | backend | freshness | address space | pick it when |
//! |---------|-----------|---------------|--------------|
//! | [`membership::OracleMembership`] | daily CZDS snapshots | in-process | reproducing the paper's batch evaluation |
//! | `darkdns_registry::live::UniverseZoneView` | RZU push cadence | in-process | ground-truth reference runs and equivalence baselines |
//! | [`broker_view::BrokerZoneView`] | RZU push cadence | broker's process | single-host streaming: zero-serialization snapshots, shared delta frames |
//! | [`broker_view::RemoteZoneView`] | RZU push + socket | anywhere TCP reaches | fleet consumers: reconnect-with-claims recovery, `RZUQ` stats scraping |
//! | [`broker_view::RoutedZoneView`] | RZU push + socket | anywhere TCP reaches, one conn per [`broker_view::EndpointMap`] route | universes partitioned across several root brokers or served through relay trees: per-route replica lists with health-scored failover (`RZUQ` head-freshness probes pick the freshest live replica, dead endpoints back off), live endpoint-map updates (generation-gated add/drain without restarting the consumer), and claims carried across replica switches |
//! | relay tier (`BrokerServer::attach_upstream`) | RZU push + one relay hop | relay's process re-serves downstream | regional fan-out: a relay subscribes **shard-filtered** (its `RZUH` claims only its TLD subset, so only that subset crosses the upstream link) and re-serves the subset byte-identical |
//! | `darkdns_edge::EdgeClient` → `EdgeServer` | RZU push, one feed hop behind the broker head | anywhere TCP reaches, O(1) memory per client | thin clients: batched `RZUL`/`RZUA` point lookups against a shared read-optimized index instead of a per-consumer replica; replica-list failover on the same replica-set state machine the full-replica consumers use |
//!
//! The push-cadence backends are interchangeable by construction:
//! `tests/membership_equivalence.rs` drives identical universe feeds
//! and certstream entries through the direct, in-process-broker and TCP
//! backends and asserts byte-identical candidate sets and detector
//! stats. [`experiment::run_certstream_detection`] is the harness that
//! makes such time-faithful runs (publish up to an entry's timestamp,
//! then observe it) one function call.
//!
//! [`experiment`] wires the substrates together, runs the pipeline over a
//! calibrated universe and produces a [`report::Report`] containing every
//! table and figure of the paper's evaluation. [`feed`] holds the record
//! format of the public "zonestream" NRD feed the paper releases, read
//! off a run by [`experiment::RunArtifacts::zonestream`].
//! [`rzu_ablation`] sweeps snapshot/push cadences to quantify the value
//! of rapid zone updates —
//! the §5 argument, turned into an experiment — and scores what a
//! deployed backend *actually* captured
//! ([`rzu_ablation::observed_capture`]). [`broker_view`] holds the RZU
//! deployment shapes of the membership check: live zone views fed by the
//! `darkdns_broker` distribution broker, in-process or over the socket
//! transport.

pub mod broker_view;
pub mod config;
pub mod detector;
pub mod experiment;
pub mod feed;
pub mod membership;
pub mod monitor;
pub mod report;
pub mod rzu_ablation;
pub mod transient;
pub mod validate;

pub use config::ExperimentConfig;
pub use detector::{Detector, NrdCandidate};
pub use experiment::{run_certstream_detection, Experiment, LiveDetection, LiveInputs};
pub use membership::{OracleMembership, SyncHealth, SyncState, ZoneMembership};
pub use report::Report;
