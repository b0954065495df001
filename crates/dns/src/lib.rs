//! DNS substrate for the DarkDNS reproduction.
//!
//! Everything the pipeline and the ecosystem simulator need from the DNS
//! itself lives here, implemented from scratch:
//!
//! * [`name`] — domain names (LDH validation, label manipulation,
//!   ordering), stored as 23-byte `Copy` values: inline for names ≤ 22
//!   bytes, interned in the global [`name::NameTable`] beyond that;
//! * [`hash`] — fast Fx hashing for name-keyed containers on hot paths;
//! * [`psl`] — a Public Suffix List with wildcard/exception rules and
//!   registrable-domain ("pay-level domain") extraction, the operation
//!   whose corner cases the paper blames for part of Figure 1's long tail;
//! * [`record`] — record types, RDATA, resource records and RRsets;
//! * [`serial`] — RFC 1982 serial-number arithmetic for SOA serials (the
//!   paper validates zone-update cadence by probing SOA serial changes);
//! * [`wire`] — an RFC 1035 message codec with name compression, used by
//!   the active-measurement substrate;
//! * [`zone`] — a TLD zone: delegations, SOA, point mutations;
//! * [`snapshot`] — immutable zone snapshots plus a zone-file-like text
//!   round-trip (the CZDS artifact);
//! * [`diff`] — the snapshot diff (a sorted merge) and the incremental
//!   journal, two independent ways to the same canonical delta.

pub mod diff;
pub mod hash;
pub mod name;
pub mod par;
pub mod psl;
pub mod record;
pub mod serial;
pub mod snapshot;
pub mod wire;
pub mod zone;

pub use diff::ZoneDelta;
pub use name::{DomainName, NameError, NameTable};
pub use psl::PublicSuffixList;
pub use record::{RData, RecordClass, RecordType, ResourceRecord};
pub use serial::Serial;
pub use snapshot::ZoneSnapshot;
pub use wire::{decode_delta_push, encode_delta_push, DeltaPush};
pub use zone::{Delegation, NsSet, Zone};
