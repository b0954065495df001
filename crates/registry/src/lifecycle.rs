//! EPP-style domain lifecycle statuses.
//!
//! Registry operations speak EPP: a registration moves through
//! `addPeriod` (first five days, refundable — the window that enabled
//! "domain tasting", one of the paper's rare *legitimate* causes of early
//! removal), the ordinary `ok`/`clientTransferProhibited` phase, and after
//! deletion `redemptionPeriod` → `pendingDelete` before the name is purged
//! and becomes registrable again. RDAP surfaces these statuses; the paper
//! reads them as registration metadata (§3 Step 2), and the add-grace
//! window explains why a sub-five-day deletion can be a refund rather
//! than abuse.

use crate::universe::DomainRecord;
use darkdns_sim::time::{SimDuration, SimTime};
use serde::Serialize;

/// Add-grace period: deletions within it are refundable (tasting window).
const ADD_GRACE: SimDuration = SimDuration::from_days(5);
/// Redemption period after deletion (registrant can still restore).
const REDEMPTION: SimDuration = SimDuration::from_days(30);
/// Pending-delete tail after redemption.
const PENDING_DELETE: SimDuration = SimDuration::from_days(5);

/// The lifecycle phase of a registration at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LifecyclePhase {
    /// Before the registration existed.
    NotCreated,
    /// First five days: refundable add-grace window.
    AddPeriod,
    /// Ordinary registered state.
    Active,
    /// Deleted, restorable by the registrant.
    RedemptionPeriod,
    /// Deleted, past redemption, awaiting purge.
    PendingDelete,
    /// Fully purged: the name is registrable again.
    Released,
}

impl LifecyclePhase {
    /// EPP status strings RDAP would report for this phase.
    pub fn epp_statuses(self) -> Vec<&'static str> {
        match self {
            LifecyclePhase::NotCreated | LifecyclePhase::Released => vec![],
            LifecyclePhase::AddPeriod => vec!["addPeriod", "clientTransferProhibited"],
            LifecyclePhase::Active => vec!["ok", "clientTransferProhibited"],
            LifecyclePhase::RedemptionPeriod => vec!["redemptionPeriod", "pendingDelete"],
            LifecyclePhase::PendingDelete => vec!["pendingDelete"],
        }
    }
}

/// Lifecycle phase of `record` at `t`.
pub fn phase_at(record: &DomainRecord, t: SimTime) -> LifecyclePhase {
    if !record.kind.has_registration() || t < record.created {
        return LifecyclePhase::NotCreated;
    }
    match record.removed {
        Some(removed) if t >= removed => {
            let since = t.saturating_since(removed);
            if since < REDEMPTION {
                LifecyclePhase::RedemptionPeriod
            } else if since < REDEMPTION + PENDING_DELETE {
                LifecyclePhase::PendingDelete
            } else {
                LifecyclePhase::Released
            }
        }
        _ => {
            if t.saturating_since(record.created) < ADD_GRACE {
                LifecyclePhase::AddPeriod
            } else {
                LifecyclePhase::Active
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::ProviderId;
    use crate::registrar::RegistrarId;
    use crate::tld::TldId;
    use crate::universe::{CertTiming, DomainId, DomainKind};
    use darkdns_dns::DomainName;

    fn record(created_d: u64, removed_d: Option<u64>, kind: DomainKind) -> DomainRecord {
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("x.com").unwrap(),
            tld: TldId(0),
            kind,
            created: SimTime::from_days(created_d),
            zone_insert: SimTime::from_days(created_d),
            removed: removed_d.map(SimTime::from_days),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: false,
        }
    }

    #[test]
    fn full_lifecycle_walk() {
        let r = record(100, Some(120), DomainKind::EarlyRemoved);
        assert_eq!(phase_at(&r, SimTime::from_days(99)), LifecyclePhase::NotCreated);
        assert_eq!(phase_at(&r, SimTime::from_days(101)), LifecyclePhase::AddPeriod);
        assert_eq!(phase_at(&r, SimTime::from_days(110)), LifecyclePhase::Active);
        assert_eq!(phase_at(&r, SimTime::from_days(121)), LifecyclePhase::RedemptionPeriod);
        assert_eq!(phase_at(&r, SimTime::from_days(151)), LifecyclePhase::PendingDelete);
        assert_eq!(phase_at(&r, SimTime::from_days(156)), LifecyclePhase::Released);
    }

    #[test]
    fn zone_membership_tracks_phase() {
        // Redemption and pending-delete names are withheld from the zone
        // — which is exactly why zone-level removal is the
        // abuse-takedown signal the paper measures.
        let r = record(100, Some(120), DomainKind::EarlyRemoved);
        for day in [101u64, 110, 121, 151, 156] {
            let phase = phase_at(&r, SimTime::from_days(day));
            assert_eq!(
                matches!(phase, LifecyclePhase::AddPeriod | LifecyclePhase::Active),
                r.in_zone_at(SimTime::from_days(day)),
                "phase {phase:?} vs zone at day {day}"
            );
        }
    }

    #[test]
    fn transient_deletion_is_inside_add_grace() {
        // A 6-hour transient dies deep inside the refund window — the
        // registrar pays nothing to kill it, one reason takedowns are
        // cheap for registrars but the visibility loss is borne by
        // everyone else.
        let mut r = record(100, None, DomainKind::Transient);
        r.removed = Some(r.created + SimDuration::from_hours(6));
        assert_eq!(phase_at(&r, r.created + SimDuration::from_hours(3)), LifecyclePhase::AddPeriod);
    }

    #[test]
    fn ghosts_have_no_lifecycle() {
        let r = record(100, Some(120), DomainKind::Ghost { previously_registered: true });
        assert_eq!(phase_at(&r, SimTime::from_days(110)), LifecyclePhase::NotCreated);
    }

    #[test]
    fn statuses_match_phases() {
        assert!(LifecyclePhase::AddPeriod.epp_statuses().contains(&"addPeriod"));
        assert!(LifecyclePhase::RedemptionPeriod.epp_statuses().contains(&"redemptionPeriod"));
        assert!(LifecyclePhase::Released.epp_statuses().is_empty());
    }
}
