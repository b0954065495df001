//! Zone diffs.
//!
//! The operational heart of both CZDS-based research (diff yesterday's
//! snapshot against today's) and the Rapid Zone Update service the paper
//! advocates (stream fine-grained deltas). Two independent ways to a
//! [`ZoneDelta`]:
//!
//! * [`sorted_merge_diff`] — two-pointer merge over the sorted snapshot
//!   entries; `O(n + m)` comparisons and **zero** per-entry allocation:
//!   owner names are 23-byte `Copy` values and NS sets transfer into the
//!   delta as `Arc` refcount bumps. How whole snapshots are diffed.
//! * [`ZoneJournal`] — an incremental journal that observes zone mutations
//!   as they happen and answers `delta_between(serial_a, serial_b)` without
//!   touching the snapshots at all: `O(k)` in the number of mutations.
//!   This is the data structure behind the RZU feed.
//!
//! Both produce the same canonical [`ZoneDelta`] (entries sorted by owner
//! name), a property pinned by unit tests here and by the differential
//! proptests in `tests/proptest_diff.rs`.
//!
//! The merge's cost is the owner-name comparisons themselves; the
//! journal's is hash-map bookkeeping proportional to the churn,
//! independent of table size — which is the computational argument for
//! RZU-style feeds.

use crate::hash::NameMap;
use crate::name::DomainName;
use crate::serial::Serial;
use crate::snapshot::{Entry, SnapshotBuilder, ZoneSnapshot, SEGMENT_MIN, SEGMENT_SPAN};
use crate::zone::NsSet;
use serde::{Deserialize, Serialize};
use std::iter::Peekable;

/// A change to a single delegation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NsChange {
    pub domain: DomainName,
    pub old_ns: NsSet,
    pub new_ns: NsSet,
}

/// The canonical difference between two zone states.
///
/// Invariants: `added`, `removed` and `changed` are each sorted by domain,
/// contain no duplicates, and are pairwise disjoint. NS sets are shared
/// (`Arc`) with the snapshots they came from — a delta holds refcounts,
/// not copies, of the per-domain host lists.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ZoneDelta {
    pub added: Vec<(DomainName, NsSet)>,
    pub removed: Vec<(DomainName, NsSet)>,
    pub changed: Vec<NsChange>,
}

impl ZoneDelta {
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total number of affected domains.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }

    /// Apply this delta to `base`, producing the target snapshot (with the
    /// given serial/time metadata). Used by the RZU subscriber to maintain
    /// a live zone copy, and by tests to verify `apply(diff(a,b), a) == b`.
    ///
    /// Copies what the delta touches, not the zone: each delta entry is
    /// routed by the base's fences to the one segment that can hold it,
    /// every other segment is taken over by refcount, and a touched
    /// segment is rebuilt by a sorted two-pointer merge of its entries
    /// with the delta entries routed to it — no intermediate map and no
    /// NS-set copies, untouched entries of a rebuilt segment transfer as
    /// `Copy` names plus `Arc` bumps. What is left per apply whatever
    /// the delta is one top-level row per segment of the base.
    ///
    /// # Panics
    /// Panics if the delta does not match `base` (removing or changing a
    /// domain that is absent, adding one that is present) — applying a
    /// delta to the wrong base is always a caller bug — or if the delta
    /// violates its canonical sorted-by-domain invariant (possible for
    /// hand-built or deserialized deltas; both producers here uphold it).
    pub fn apply(
        &self,
        base: &ZoneSnapshot,
        new_serial: Serial,
        taken_at: darkdns_sim::SimTime,
    ) -> ZoneSnapshot {
        // The merge below relies on the canonical invariant; verify it up
        // front (O(k), trivial next to the merge) so a non-canonical delta
        // fails loudly instead of silently producing an unsorted snapshot.
        assert!(
            self.added.windows(2).all(|w| w[0].0 < w[1].0)
                && self.removed.windows(2).all(|w| w[0].0 < w[1].0)
                && self.changed.windows(2).all(|w| w[0].domain < w[1].domain),
            "ZoneDelta::apply requires canonical (sorted, duplicate-free) delta sections"
        );
        let (segs, fences) = (base.segments(), base.fences());
        let mut out =
            SnapshotBuilder::with_capacity(segs.len() + self.added.len() / SEGMENT_SPAN + 2);
        let mut pending = Pending {
            add: self.added.iter().peekable(),
            rem: self.removed.iter().peekable(),
            chg: self.changed.iter().peekable(),
        };
        // `k`: the first base segment not yet taken over or rebuilt.
        let mut k = 0;
        while k < segs.len() {
            let Some(key) = pending.next_key() else { break };
            // The last fence at or before the key names its segment (the
            // first segment also takes what sorts before every fence);
            // the segments skipped on the way there are untouched.
            let touched = k + fences[k..].partition_point(|f| *f <= key).saturating_sub(1);
            for seg in &segs[k..touched] {
                out.share(seg);
            }
            k = touched;
            // Rebuild from here. A segment left under the lower span
            // bound takes its successor with it, touched or not.
            loop {
                pending.merge_segment(&segs[k], fences.get(k + 1), &mut out);
                k += 1;
                if k == segs.len() || !(1..SEGMENT_MIN).contains(&out.run_len()) {
                    break;
                }
            }
            out.flush();
        }
        for seg in &segs[k..] {
            out.share(seg);
        }
        // The last segment takes everything still pending, so this is a
        // no-op unless the base has no segment at all.
        pending.merge_segment(&[], None, &mut out);
        out.finish(*base.origin(), new_serial, taken_at)
    }
}

/// The not-yet-applied rest of a delta's three sorted sections.
struct Pending<'a> {
    add: Peekable<std::slice::Iter<'a, Entry>>,
    rem: Peekable<std::slice::Iter<'a, Entry>>,
    chg: Peekable<std::slice::Iter<'a, NsChange>>,
}

impl Pending<'_> {
    /// The smallest owner name any section still holds.
    fn next_key(&mut self) -> Option<DomainName> {
        let add = self.add.peek().map(|(d, _)| *d);
        let rem = self.rem.peek().map(|(d, _)| *d);
        let chg = self.chg.peek().map(|c| c.domain);
        [add, rem, chg].into_iter().flatten().min()
    }

    /// Merge one base segment's `entries` with the delta entries routed
    /// to it — those below `upper`, the next segment's fence (`None`:
    /// everything left) — pushing the result onto `out`'s run.
    fn merge_segment(
        &mut self,
        entries: &[Entry],
        upper: Option<&DomainName>,
        out: &mut SnapshotBuilder,
    ) {
        let (add, rem, chg) = (&mut self.add, &mut self.rem, &mut self.chg);
        for &(d, ref base_ns) in entries {
            // Additions strictly before the next base entry slot in here.
            while let Some((ad, ans)) = add.peek() {
                if *ad < d {
                    out.push(*ad, ans.clone());
                    add.next();
                } else {
                    break;
                }
            }
            // A removal or change naming a domain the base skipped over is
            // a delta/base mismatch.
            if let Some((rd, _)) = rem.peek() {
                assert!(*rd >= d, "removing absent domain {rd}");
            }
            if let Some(c) = chg.peek() {
                assert!(c.domain >= d, "changing absent domain {}", c.domain);
            }
            let removed_here = matches!(rem.peek(), Some((rd, _)) if *rd == d);
            if removed_here {
                rem.next();
                if let Some(c) = chg.peek() {
                    assert!(c.domain != d, "changing removed domain {d}");
                }
                // A (non-canonical) delta may re-add a just-removed domain.
                if let Some((ad, ans)) = add.peek() {
                    if *ad == d {
                        out.push(d, ans.clone());
                        add.next();
                    }
                }
                continue;
            }
            if let Some((ad, _)) = add.peek() {
                assert!(*ad != d, "adding already-present domain {ad}");
            }
            if let Some(c) = chg.peek() {
                if c.domain == d {
                    assert_eq!(
                        base_ns.as_slice(),
                        c.old_ns.as_slice(),
                        "old NS mismatch for {d}"
                    );
                    out.push(d, c.new_ns.clone());
                    chg.next();
                    continue;
                }
            }
            out.push(d, base_ns.clone());
        }
        // Past the segment's last entry: additions up to the next fence
        // land at its tail; a removal or change routed here found nothing.
        let routed_here = |d: &DomainName| upper.is_none_or(|u| d < u);
        while let Some((ad, ans)) = add.next_if(|(ad, _)| routed_here(ad)) {
            out.push(*ad, ans.clone());
        }
        if let Some((rd, _)) = rem.peek() {
            assert!(!routed_here(rd), "removing absent domain {rd}");
        }
        if let Some(c) = chg.peek() {
            assert!(!routed_here(&c.domain), "changing absent domain {}", c.domain);
        }
    }
}

impl ZoneDelta {
    fn canonicalise(&mut self) {
        self.added.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.removed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.changed.sort_unstable_by(|a, b| a.domain.cmp(&b.domain));
    }
}

/// The canonical delta transforming `old` into `new`: a two-pointer
/// merge over the sorted snapshot entries.
pub fn sorted_merge_diff(old: &ZoneSnapshot, new: &ZoneSnapshot) -> ZoneDelta {
    let mut delta = ZoneDelta::default();
    let (mut a, mut b) = (old.entries(), new.entries());
    // One plain indexed merge per stretch between segment boundaries
    // of either side.
    loop {
        let (old_run, new_run) = (a.chunk(), b.chunk());
        if old_run.is_empty() || new_run.is_empty() {
            break;
        }
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_run.len() && j < new_run.len() {
            let ((ad, an), (bd, bn)) = (&old_run[i], &new_run[j]);
            match ad.cmp(bd) {
                std::cmp::Ordering::Less => {
                    delta.removed.push((*ad, an.clone()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    delta.added.push((*bd, bn.clone()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if an != bn {
                        delta.changed.push(NsChange {
                            domain: *ad,
                            old_ns: an.clone(),
                            new_ns: bn.clone(),
                        });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        a.advance(i);
        b.advance(j);
    }
    delta.removed.extend(a.map(|(d, ns)| (*d, ns.clone())));
    delta.added.extend(b.map(|(d, ns)| (*d, ns.clone())));
    // Already in sorted order by construction.
    delta
}

/// A single journaled zone mutation. NS sets are shared, not copied: a
/// journal entry costs one 23-byte name plus `Arc` refcounts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// Domain entered the zone with the given NS set.
    Added { domain: DomainName, ns: NsSet },
    /// Domain left the zone; previous NS set retained for delta synthesis.
    Removed { domain: DomainName, prev_ns: NsSet },
    /// NS set replaced.
    NsChanged { domain: DomainName, prev_ns: NsSet, ns: NsSet },
}

impl JournalEvent {
    pub fn domain(&self) -> &DomainName {
        match self {
            JournalEvent::Added { domain, .. }
            | JournalEvent::Removed { domain, .. }
            | JournalEvent::NsChanged { domain, .. } => domain,
        }
    }
}

/// Incremental diff journal: records every zone mutation tagged with the
/// serial it produced, and synthesises the net [`ZoneDelta`] between any
/// two recorded serials in time linear in the number of interposed events.
///
/// This is the engine behind the Rapid Zone Update feed: a subscriber at
/// serial `s` asks for `delta_between(s, head)` and receives exactly the
/// compacted changes — a domain added and removed within the window
/// cancels out, which is precisely the transient-domain blind spot of
/// coarse snapshots.
#[derive(Debug, Clone, Default)]
pub struct ZoneJournal {
    /// (serial after the event, event), in append order.
    events: Vec<(Serial, JournalEvent)>,
}

impl ZoneJournal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a mutation that advanced the zone to `serial`.
    ///
    /// # Panics
    /// Panics if `serial` is not newer than the last recorded serial.
    pub fn record(&mut self, serial: Serial, event: JournalEvent) {
        if let Some((last, _)) = self.events.last() {
            assert!(serial.is_newer_than(*last), "journal serials must increase");
        }
        self.events.push((serial, event));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serial of the newest recorded event.
    pub fn head(&self) -> Option<Serial> {
        self.events.last().map(|(s, _)| *s)
    }

    /// Raw events with serials in `(after, upto]`, in order. This is the
    /// uncompacted RZU stream — transient domains are visible here.
    fn events_between(&self, after: Serial, upto: Serial) -> &[(Serial, JournalEvent)] {
        let start = self.events.partition_point(|(s, _)| !s.is_newer_than(after));
        let end = self.events.partition_point(|(s, _)| !s.is_newer_than(upto));
        &self.events[start..end]
    }

    /// The net, compacted delta over serials in `(after, upto]`.
    ///
    /// NS sets flow from the recorded events into the delta as `Arc`
    /// clones; the only allocation proportional to the window is the
    /// per-touched-domain tracking map.
    pub fn delta_between(&self, after: Serial, upto: Serial) -> ZoneDelta {
        // For each touched domain track (state before window, state after
        // window): None = absent.
        struct Track {
            before: Option<NsSet>,
            after: Option<NsSet>,
        }
        let window = self.events_between(after, upto);
        let mut tracks: NameMap<DomainName, Track> =
            NameMap::with_capacity_and_hasher(window.len(), Default::default());
        for (_, ev) in window {
            let (before_state, after_state): (Option<&NsSet>, Option<&NsSet>) = match ev {
                JournalEvent::Added { ns, .. } => (None, Some(ns)),
                JournalEvent::Removed { prev_ns, .. } => (Some(prev_ns), None),
                JournalEvent::NsChanged { prev_ns, ns, .. } => (Some(prev_ns), Some(ns)),
            };
            tracks
                .entry(*ev.domain())
                .and_modify(|t| t.after = after_state.cloned())
                .or_insert(Track { before: before_state.cloned(), after: after_state.cloned() });
        }
        let mut delta = ZoneDelta::default();
        for (domain, t) in tracks {
            match (t.before, t.after) {
                (None, Some(ns)) => delta.added.push((domain, ns)),
                (Some(ns), None) => delta.removed.push((domain, ns)),
                (Some(old), Some(new)) if old != new => {
                    delta.changed.push(NsChange { domain, old_ns: old, new_ns: new })
                }
                // Added-then-removed (transient!) or unchanged round trip.
                _ => {}
            }
        }
        delta.canonicalise();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_sim::SimTime;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn nsset(hosts: &[&str]) -> NsSet {
        NsSet::new(hosts.iter().map(|h| name(h)).collect())
    }

    fn snap(serial: u32, entries: &[(&str, &[&str])]) -> ZoneSnapshot {
        ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(serial),
            SimTime::ZERO,
            entries
                .iter()
                .map(|(d, ns)| (name(d), ns.iter().map(|n| name(n)).collect()))
                .collect(),
        )
    }

    #[test]
    fn all_engines_agree_on_mixed_delta() {
        let old = snap(1, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns1.x.net"]), ("c.com", &["ns1.x.net"])]);
        let new = snap(2, &[("b.com", &["ns2.y.net"]), ("c.com", &["ns1.x.net"]), ("d.com", &["ns1.x.net"])]);
        // The same transition as the journal saw it happen.
        let mut journal = ZoneJournal::new();
        journal.record(Serial::new(2), JournalEvent::Removed { domain: name("a.com"), prev_ns: nsset(&["ns1.x.net"]) });
        journal.record(
            Serial::new(3),
            JournalEvent::NsChanged {
                domain: name("b.com"),
                prev_ns: nsset(&["ns1.x.net"]),
                ns: nsset(&["ns2.y.net"]),
            },
        );
        journal.record(Serial::new(4), JournalEvent::Added { domain: name("d.com"), ns: nsset(&["ns1.x.net"]) });
        for delta in [sorted_merge_diff(&old, &new), journal.delta_between(Serial::new(1), Serial::new(4))] {
            assert_eq!(delta.added, vec![(name("d.com"), nsset(&["ns1.x.net"]))]);
            assert_eq!(delta.removed, vec![(name("a.com"), nsset(&["ns1.x.net"]))]);
            assert_eq!(delta.changed.len(), 1);
            assert_eq!(delta.changed[0].domain, name("b.com"));
            assert_eq!(delta.len(), 3);
        }
    }

    #[test]
    fn identical_snapshots_give_empty_delta() {
        let s = snap(1, &[("a.com", &["ns1.x.net"])]);
        assert!(sorted_merge_diff(&s, &s).is_empty());
    }

    #[test]
    fn empty_to_full_and_back() {
        let empty = snap(1, &[]);
        let full = snap(2, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns2.x.net"])]);
        let grow = sorted_merge_diff(&empty, &full);
        assert_eq!(grow.added.len(), 2);
        assert!(grow.removed.is_empty());
        let shrink = sorted_merge_diff(&full, &empty);
        assert_eq!(shrink.removed.len(), 2);
        assert!(shrink.added.is_empty());
    }

    #[test]
    fn diff_shares_ns_sets_with_snapshots() {
        // The acceptance bar for the zero-copy pipeline: a delta's NS sets
        // are the snapshots' NS sets, not copies of them.
        let old = snap(1, &[("a.com", &["ns1.x.net"])]);
        let new = snap(2, &[("a.com", &["ns2.y.net"]), ("b.com", &["ns1.x.net"])]);
        let delta = sorted_merge_diff(&old, &new);
        assert!(delta.added[0].1.ptr_eq(new.ns_set_of(&name("b.com")).unwrap()));
        assert!(delta.changed[0].old_ns.ptr_eq(old.ns_set_of(&name("a.com")).unwrap()));
        assert!(delta.changed[0].new_ns.ptr_eq(new.ns_set_of(&name("a.com")).unwrap()));
    }

    #[test]
    fn apply_round_trips() {
        let old = snap(1, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns1.x.net"])]);
        let new = snap(2, &[("b.com", &["ns9.z.net"]), ("c.com", &["ns1.x.net"])]);
        let delta = sorted_merge_diff(&old, &new);
        let rebuilt = delta.apply(&old, Serial::new(2), SimTime::ZERO);
        assert_eq!(rebuilt, new);
    }

    #[test]
    fn apply_shares_untouched_entries() {
        let old = snap(1, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns1.x.net"])]);
        let new = snap(2, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns9.z.net"])]);
        let delta = sorted_merge_diff(&old, &new);
        let rebuilt = delta.apply(&old, Serial::new(2), SimTime::ZERO);
        // The untouched a.com NS set is the base's set, refcount-shared.
        assert!(rebuilt.ns_set_of(&name("a.com")).unwrap().ptr_eq(old.ns_set_of(&name("a.com")).unwrap()));
    }

    #[test]
    #[should_panic(expected = "removing absent domain")]
    fn apply_to_wrong_base_panics() {
        let old = snap(1, &[("a.com", &["ns1.x.net"])]);
        let new = snap(2, &[]);
        let delta = sorted_merge_diff(&old, &new);
        let unrelated = snap(5, &[("z.com", &["ns1.x.net"])]);
        delta.apply(&unrelated, Serial::new(6), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "adding already-present domain")]
    fn apply_rejects_adding_present_domain() {
        let mut delta = ZoneDelta::default();
        delta.added.push((name("a.com"), nsset(&["ns2.y.net"])));
        let base = snap(1, &[("a.com", &["ns1.x.net"])]);
        delta.apply(&base, Serial::new(2), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "changing absent domain")]
    fn apply_rejects_changing_absent_domain() {
        let mut delta = ZoneDelta::default();
        delta.changed.push(NsChange {
            domain: name("ghost.com"),
            old_ns: nsset(&["ns1.x.net"]),
            new_ns: nsset(&["ns2.y.net"]),
        });
        let base = snap(1, &[("a.com", &["ns1.x.net"])]);
        delta.apply(&base, Serial::new(2), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn apply_rejects_unsorted_delta() {
        // A hand-built (or deserialized) delta that violates the sorted
        // invariant must fail loudly, not corrupt the output snapshot.
        let mut delta = ZoneDelta::default();
        delta.added.push((name("z.com"), nsset(&["ns1.x.net"])));
        delta.added.push((name("a.com"), nsset(&["ns1.x.net"])));
        let base = snap(1, &[("m.com", &["ns1.x.net"])]);
        delta.apply(&base, Serial::new(2), SimTime::ZERO);
    }

    #[test]
    fn apply_supports_remove_then_add_of_same_domain() {
        // Non-canonical but historically supported: a delta that removes
        // and re-adds one domain applies as a replacement.
        let mut delta = ZoneDelta::default();
        delta.removed.push((name("a.com"), nsset(&["ns1.x.net"])));
        delta.added.push((name("a.com"), nsset(&["ns2.y.net"])));
        let base = snap(1, &[("a.com", &["ns1.x.net"]), ("b.com", &["ns1.x.net"])]);
        let rebuilt = delta.apply(&base, Serial::new(2), SimTime::ZERO);
        assert_eq!(rebuilt.ns_of(&name("a.com")).unwrap(), &[name("ns2.y.net")]);
        assert_eq!(rebuilt.len(), 2);
    }

    #[test]
    fn ns_set_order_does_not_create_phantom_changes() {
        // from_entries does not reorder NS sets, so build them sorted vs
        // unsorted deliberately through the snapshot text path.
        let a = snap(1, &[("a.com", &["ns1.x.net", "ns2.x.net"])]);
        let b = snap(2, &[("a.com", &["ns1.x.net", "ns2.x.net"])]);
        assert!(sorted_merge_diff(&a, &b).is_empty());
    }

    #[test]
    fn journal_net_delta_compacts() {
        let mut j = ZoneJournal::new();
        j.record(Serial::new(1), JournalEvent::Added { domain: name("a.com"), ns: nsset(&["ns1.x.net"]) });
        j.record(Serial::new(2), JournalEvent::Added { domain: name("t.com"), ns: nsset(&["ns1.x.net"]) });
        j.record(
            Serial::new(3),
            JournalEvent::NsChanged {
                domain: name("a.com"),
                prev_ns: nsset(&["ns1.x.net"]),
                ns: nsset(&["ns2.y.net"]),
            },
        );
        j.record(
            Serial::new(4),
            JournalEvent::Removed { domain: name("t.com"), prev_ns: nsset(&["ns1.x.net"]) },
        );
        let delta = j.delta_between(Serial::new(0), Serial::new(4));
        // t.com was added and removed inside the window: invisible.
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].0, name("a.com"));
        assert_eq!(delta.added[0].1, vec![name("ns2.y.net")]); // net NS state
        assert!(delta.removed.is_empty());
        assert!(delta.changed.is_empty());
    }

    #[test]
    fn journal_raw_events_expose_transients() {
        let mut j = ZoneJournal::new();
        j.record(Serial::new(1), JournalEvent::Added { domain: name("t.com"), ns: nsset(&["ns1.x.net"]) });
        j.record(
            Serial::new(2),
            JournalEvent::Removed { domain: name("t.com"), prev_ns: nsset(&["ns1.x.net"]) },
        );
        // Net delta hides the transient...
        assert!(j.delta_between(Serial::new(0), Serial::new(2)).is_empty());
        // ...but the raw stream (what an RZU subscriber sees) does not.
        assert_eq!(j.events_between(Serial::new(0), Serial::new(2)).len(), 2);
    }

    #[test]
    fn journal_window_boundaries_are_half_open() {
        let mut j = ZoneJournal::new();
        j.record(Serial::new(5), JournalEvent::Added { domain: name("a.com"), ns: nsset(&["n.x.net"]) });
        j.record(Serial::new(6), JournalEvent::Added { domain: name("b.com"), ns: nsset(&["n.x.net"]) });
        // (5, 6]: only the second event.
        let d = j.delta_between(Serial::new(5), Serial::new(6));
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].0, name("b.com"));
    }

    #[test]
    fn journal_change_then_revert_is_invisible() {
        let mut j = ZoneJournal::new();
        j.record(
            Serial::new(1),
            JournalEvent::NsChanged {
                domain: name("a.com"),
                prev_ns: nsset(&["ns1.x.net"]),
                ns: nsset(&["evil.x.net"]),
            },
        );
        j.record(
            Serial::new(2),
            JournalEvent::NsChanged {
                domain: name("a.com"),
                prev_ns: nsset(&["evil.x.net"]),
                ns: nsset(&["ns1.x.net"]),
            },
        );
        // The paper's §5/Appendix B scenario: a phisher flips NS and flips
        // it back between snapshots. Net delta: nothing happened.
        assert!(j.delta_between(Serial::new(0), Serial::new(2)).is_empty());
        assert_eq!(j.events_between(Serial::new(0), Serial::new(2)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "journal serials must increase")]
    fn journal_rejects_non_monotonic_serials() {
        let mut j = ZoneJournal::new();
        j.record(Serial::new(2), JournalEvent::Added { domain: name("a.com"), ns: nsset(&["n.x.net"]) });
        j.record(Serial::new(2), JournalEvent::Added { domain: name("b.com"), ns: nsset(&["n.x.net"]) });
    }

    #[test]
    fn journal_agrees_with_snapshot_diff() {
        // Build a zone, mutate it while journaling, and check the journal
        // delta equals the snapshot diff.
        use crate::zone::{Delegation, Zone};
        let mut zone = Zone::new(name("com"), Serial::new(0));
        let mut journal = ZoneJournal::new();
        let before = ZoneSnapshot::capture(&zone, SimTime::ZERO);
        let s_before = zone.serial();

        zone.upsert(name("a.com"), Delegation::new(vec![name("ns1.x.net")]));
        journal.record(zone.serial(), JournalEvent::Added { domain: name("a.com"), ns: nsset(&["ns1.x.net"]) });
        zone.upsert(name("b.com"), Delegation::new(vec![name("ns1.x.net")]));
        journal.record(zone.serial(), JournalEvent::Added { domain: name("b.com"), ns: nsset(&["ns1.x.net"]) });
        zone.remove(&name("a.com"));
        journal.record(zone.serial(), JournalEvent::Removed { domain: name("a.com"), prev_ns: nsset(&["ns1.x.net"]) });

        let after = ZoneSnapshot::capture(&zone, SimTime::from_secs(60));
        let from_journal = journal.delta_between(s_before, zone.serial());
        let from_snapshots = sorted_merge_diff(&before, &after);
        assert_eq!(from_journal, from_snapshots);
    }
}
