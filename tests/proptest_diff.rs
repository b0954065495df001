//! Property-based tests for the snapshot diff, the segment-shared
//! delta apply, the incremental journal, the RZU grid, the CDF type and
//! the token bucket.

use darkdns::dns::diff::{sorted_merge_diff, JournalEvent, NsChange, ZoneJournal};
use darkdns::dns::snapshot::SEGMENT_SPAN;
use darkdns::dns::{DomainName, NsSet, Serial, Zone, ZoneDelta, ZoneSnapshot};
use darkdns::dns::zone::Delegation;
use darkdns::rdap::TokenBucket;
use darkdns::sim::cdf::Cdf;
use darkdns::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random zone state: map from domain index to NS choice (0..3).
fn zone_state_strategy() -> impl Strategy<Value = BTreeMap<u16, u8>> {
    prop::collection::btree_map(0u16..200, 0u8..3, 0..60)
}

fn ns_host(choice: u8) -> DomainName {
    DomainName::parse(&format!("ns{choice}.provider.net")).unwrap()
}

fn snapshot_of(state: &BTreeMap<u16, u8>, serial: u32) -> ZoneSnapshot {
    let entries = state
        .iter()
        .map(|(i, ns)| (DomainName::parse(&format!("d{i:04}.com")).unwrap(), vec![ns_host(*ns)]))
        .collect();
    ZoneSnapshot::from_entries(
        DomainName::parse("com").unwrap(),
        Serial::new(serial),
        SimTime::from_secs(u64::from(serial)),
        entries,
    )
}

/// Like [`snapshot_of`], but with owner names and NS hosts long enough
/// that every one takes the interned (not inline) representation.
fn interned_snapshot_of(state: &BTreeMap<u16, u8>, serial: u32) -> ZoneSnapshot {
    let entries = state
        .iter()
        .map(|(i, ns)| {
            let owner =
                DomainName::parse(&format!("quite-long-interned-owner-name-{i:04}.com")).unwrap();
            let host =
                DomainName::parse(&format!("ns{ns}.a-long-interned-hosting-provider.net")).unwrap();
            (owner, vec![host])
        })
        .collect();
    ZoneSnapshot::from_entries(
        DomainName::parse("com").unwrap(),
        Serial::new(serial),
        SimTime::from_secs(u64::from(serial)),
        entries,
    )
}

/// Synthesize the journal a zone would have recorded while moving from
/// state `old` to state `new` (one event per differing domain).
fn journal_between(old: &ZoneSnapshot, new: &ZoneSnapshot) -> ZoneJournal {
    let mut journal = ZoneJournal::new();
    let mut serial = Serial::new(100);
    let mut record = |event| {
        serial = serial.next();
        journal.record(serial, event);
    };
    let mut i = 0;
    let mut j = 0;
    let (od, on) = (old.domain_column(), old.ns_column());
    let (nd, nn) = (new.domain_column(), new.ns_column());
    while i < od.len() || j < nd.len() {
        if j >= nd.len() || (i < od.len() && od[i] < nd[j]) {
            record(JournalEvent::Removed { domain: od[i], prev_ns: on[i].clone() });
            i += 1;
        } else if i >= od.len() || nd[j] < od[i] {
            record(JournalEvent::Added { domain: nd[j], ns: nn[j].clone() });
            j += 1;
        } else {
            if on[i] != nn[j] {
                record(JournalEvent::NsChanged {
                    domain: od[i],
                    prev_ns: on[i].clone(),
                    ns: nn[j].clone(),
                });
            }
            i += 1;
            j += 1;
        }
    }
    journal
}

/// A zone state as the flat sorted entry list the snapshot replaced —
/// what [`flat_apply`] works on.
type Flat = Vec<(DomainName, NsSet)>;

/// The reference `apply`: the flat two-pointer merge over whole columns
/// that `ZoneDelta::apply` was before snapshots were cut into segments,
/// kept as the oracle the segment-routed apply must agree with — same
/// entries, same order, the same NS-set allocations.
fn flat_apply(base: &Flat, delta: &ZoneDelta) -> Flat {
    let mut out = Vec::with_capacity(base.len() + delta.added.len());
    let mut add = delta.added.iter().peekable();
    let mut rem = delta.removed.iter().peekable();
    let mut chg = delta.changed.iter().peekable();
    for (d, base_ns) in base {
        while let Some(entry) = add.next_if(|(ad, _)| ad < d) {
            out.push(entry.clone());
        }
        assert!(rem.peek().is_none_or(|(rd, _)| rd >= d), "removing absent domain");
        assert!(chg.peek().is_none_or(|c| c.domain >= *d), "changing absent domain");
        if rem.next_if(|(rd, _)| rd == d).is_some() {
            if let Some(entry) = add.next_if(|(ad, _)| ad == d) {
                out.push(entry.clone());
            }
            continue;
        }
        assert!(add.peek().is_none_or(|(ad, _)| ad != d), "adding already-present domain");
        match chg.next_if(|c| c.domain == *d) {
            Some(c) => {
                assert_eq!(base_ns, &c.old_ns, "old NS mismatch");
                out.push((*d, c.new_ns.clone()));
            }
            None => out.push((*d, base_ns.clone())),
        }
    }
    out.extend(add.cloned());
    assert!(rem.peek().is_none() && chg.peek().is_none(), "removing or changing absent domain");
    out
}

fn flat_of(snapshot: &ZoneSnapshot) -> Flat {
    snapshot.iter().map(|(d, ns)| (d, ns.clone())).collect()
}

/// Three provider sets every generated zone and delta draws from, so
/// sharing can be checked by pointer.
fn provider_sets() -> Vec<NsSet> {
    (0..3).map(|p| NsSet::new(vec![ns_host(p)])).collect()
}

/// A zone of up to 1 000 names `d<i>.com` — up to ~16 segments.
fn segmented_zone_strategy() -> impl Strategy<Value = BTreeMap<u16, u8>> {
    prop::collection::btree_map(0u16..2000, 0u8..3, 0..=1000)
}

fn segmented_snapshot_of(state: &BTreeMap<u16, u8>, sets: &[NsSet]) -> ZoneSnapshot {
    let entries = state
        .iter()
        .map(|(i, p)| (DomainName::parse(&format!("d{i:04}.com")).unwrap(), sets[*p as usize].clone()))
        .collect();
    ZoneSnapshot::from_ns_entries(
        DomainName::parse("com").unwrap(),
        Serial::new(0),
        SimTime::ZERO,
        entries,
    )
}

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// A random canonical delta valid against `state`: a few dozen point
/// edits anywhere in `d0000…d1999`, plus one of the shapes the segment
/// bookkeeping has to survive — a block before the first key, a block
/// after the last, a run of removals long enough to empty whole
/// segments, a block between two neighbours big enough to split one
/// several times, or NS changes and nothing else. A name the state
/// already holds is removed (or re-pointed), one it lacks is added, so
/// the same generator drives a chain.
fn random_delta(state: &Flat, sets: &[NsSet], rng: &mut XorShift) -> ZoneDelta {
    enum Edit {
        Add(NsSet),
        Remove,
        Change(NsSet),
    }
    let held = |d: &DomainName| {
        state.binary_search_by(|entry| entry.0.cmp(d)).ok().map(|at| &state[at].1)
    };
    let other_than = |ns: &NsSet, rng: &mut XorShift| {
        let at = sets.iter().position(|s| s.ptr_eq(ns)).expect("a provider set");
        sets[(at + 1 + rng.below(sets.len() - 1)) % sets.len()].clone()
    };
    let mut edits: BTreeMap<DomainName, Edit> = BTreeMap::new();
    let mut toggle = |text: String, rng: &mut XorShift| {
        let d = DomainName::parse(&text).unwrap();
        let edit = match held(&d) {
            Some(_) => Edit::Remove,
            None => Edit::Add(sets[rng.below(sets.len())].clone()),
        };
        edits.insert(d, edit);
    };
    for _ in 0..rng.below(40) {
        toggle(format!("d{:04}.com", rng.below(2000)), rng);
    }
    match rng.below(6) {
        0 => {}
        1 => (0..rng.below(200)).for_each(|j| toggle(format!("a{j:03}.com"), rng)),
        2 => (0..rng.below(200)).for_each(|j| toggle(format!("z{j:03}.com"), rng)),
        3 if !state.is_empty() => {
            let start = rng.below(state.len());
            let run = SEGMENT_SPAN + rng.below(200);
            for (d, _) in state.iter().skip(start).take(run) {
                edits.insert(*d, Edit::Remove);
            }
        }
        4 => {
            // `d<i>-<j>` sorts between `d<i-1>` and `d<i>`.
            let i = rng.below(2000);
            (0..rng.below(200)).for_each(|j| toggle(format!("d{i:04}-{j:03}.com"), rng));
        }
        _ => {
            edits.clear();
            for _ in 0..rng.below(100).min(state.len()) {
                let (d, ns) = &state[rng.below(state.len())];
                edits.insert(*d, Edit::Change(other_than(ns, rng)));
            }
        }
    }
    let mut delta = ZoneDelta::default();
    for (domain, edit) in edits {
        let old = held(&domain).cloned();
        match edit {
            Edit::Add(ns) => delta.added.push((domain, ns)),
            Edit::Remove => delta.removed.push((domain, old.expect("removing a held name"))),
            Edit::Change(new_ns) => delta.changed.push(NsChange {
                domain,
                old_ns: old.expect("changing a held name"),
                new_ns,
            }),
        }
    }
    delta
}

/// `snapshot` holds exactly `flat` — same order, same NS allocations —
/// its segments are within their span bounds, and positions agree with
/// the flat list.
fn check_against_flat(snapshot: &ZoneSnapshot, flat: &Flat) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.len(), flat.len());
    for ((d, ns), (fd, fns)) in snapshot.iter().zip(flat) {
        prop_assert_eq!(d, *fd);
        prop_assert!(ns.ptr_eq(fns), "NS set of {} is a copy, not the oracle's allocation", d);
    }
    let lens: Vec<usize> = snapshot.segment_lens().collect();
    prop_assert_eq!(lens.iter().sum::<usize>(), flat.len());
    prop_assert!(lens.iter().all(|&n| (1..=2 * SEGMENT_SPAN).contains(&n)), "spans {:?}", lens);
    let but_last = &lens[..lens.len().saturating_sub(1)];
    prop_assert!(but_last.iter().all(|&n| n >= SEGMENT_SPAN / 2), "spans {:?}", lens);
    // Positional access lands on the same entry at every segment edge.
    let (domains, ns) = (snapshot.domain_column(), snapshot.ns_column());
    let mut at = 0;
    for n in lens {
        for i in [at, at + n - 1] {
            prop_assert_eq!(domains[i], flat[i].0);
            prop_assert!(ns[i].ptr_eq(&flat[i].1));
            prop_assert_eq!(snapshot.entries_from(i).len(), flat.len() - i);
            prop_assert_eq!(snapshot.entries_from(i).next().map(|(d, _)| *d), Some(flat[i].0));
        }
        at += n;
    }
    Ok(())
}

proptest! {
    #[test]
    fn diff_engines_agree(old in zone_state_strategy(), new in zone_state_strategy()) {
        let a = snapshot_of(&old, 1);
        let b = snapshot_of(&new, 2);
        // The journal is the independent cross-check: it never reads
        // the snapshots, only the events between them.
        let journal = journal_between(&a, &b);
        let head = journal.head().unwrap_or(Serial::new(100));
        prop_assert_eq!(journal.delta_between(Serial::new(100), head), sorted_merge_diff(&a, &b));
    }

    #[test]
    fn all_engines_agree_on_interned_snapshots(
        old in zone_state_strategy(),
        new in zone_state_strategy(),
    ) {
        // Interned (>22-byte) names exercise the id-equality fast paths;
        // the snapshot diff and the incremental journal must produce
        // identical canonical deltas.
        let a = interned_snapshot_of(&old, 1);
        let b = interned_snapshot_of(&new, 2);
        let merge = sorted_merge_diff(&a, &b);
        let journal = journal_between(&a, &b);
        let head = journal.head().unwrap_or(Serial::new(100));
        prop_assert_eq!(&journal.delta_between(Serial::new(100), head), &merge);
        // And the delta still applies cleanly back onto the interned base.
        prop_assert_eq!(merge.apply(&a, b.serial(), b.taken_at()), b);
    }

    #[test]
    fn apply_diff_reconstructs_target(old in zone_state_strategy(), new in zone_state_strategy()) {
        let a = snapshot_of(&old, 1);
        let b = snapshot_of(&new, 2);
        let delta = sorted_merge_diff(&a, &b);
        let rebuilt = delta.apply(&a, b.serial(), b.taken_at());
        prop_assert_eq!(rebuilt, b);
    }

    #[test]
    fn an_interned_build_is_the_per_entry_frozen_build(
        // Unsorted, with repeated domains (last wins) and host lists in
        // any order, repeats included: what `from_entries` must take.
        raw in prop::collection::vec((0u16..300, prop::collection::vec(0u8..4, 1..4)), 0..200),
    ) {
        let com = DomainName::parse("com").unwrap();
        let owner = |i: u16| DomainName::parse(&format!("d{i:04}.com")).unwrap();
        let build = |entries| ZoneSnapshot::from_entries(com, Serial::new(1), SimTime::ZERO, entries);
        let hosts = |picks: &[u8]| picks.iter().map(|&p| ns_host(p)).collect::<Vec<_>>();
        let interned = build(raw.iter().map(|(i, picks)| (owner(*i), hosts(picks))).collect());

        // The oracle: what `from_entries` built before it shared
        // anything — every entry's list frozen on its own.
        let last: BTreeMap<u16, &Vec<u8>> = raw.iter().map(|(i, picks)| (*i, picks)).collect();
        let oracle = ZoneSnapshot::from_ns_entries(
            com,
            Serial::new(1),
            SimTime::ZERO,
            last.iter().map(|(i, picks)| (owner(*i), NsSet::from_raw(hosts(picks)))).collect(),
        );
        prop_assert_eq!(&interned, &oracle);
        prop_assert_eq!(interned.to_text(), oracle.to_text());
        prop_assert!(sorted_merge_diff(&interned, &oracle).is_empty());
        prop_assert!(sorted_merge_diff(&oracle, &interned).is_empty());
        // Order within a list is the given one, and the canonical flag
        // (which `Zone::from_snapshot` trusts) is the list's own.
        for ((_, ns), picks) in interned.iter().zip(last.values()) {
            prop_assert_eq!(ns, &hosts(picks));
        }
        prop_assert_eq!(Zone::from_snapshot(&interned), Zone::from_snapshot(&oracle));
        // Equal lists are one allocation; the oracle's never are.
        let sets: Vec<&NsSet> = interned.ns_column().iter().collect();
        for (k, a) in sets.iter().enumerate() {
            for b in &sets[k + 1..] {
                prop_assert_eq!(a.ptr_eq(b), a == b);
            }
        }

        // The text format keeps canonical lists as they are, and reads
        // them back through the same build.
        let canonical = build(
            last.iter().map(|(i, picks)| (owner(*i), NsSet::new(hosts(picks)).to_vec())).collect(),
        );
        let reread = ZoneSnapshot::parse_text(&canonical.to_text()).unwrap();
        prop_assert_eq!(&reread, &canonical);
        prop_assert!(sorted_merge_diff(&canonical, &reread).is_empty());
    }

    #[test]
    fn segment_routed_apply_equals_the_flat_reference(
        zone in segmented_zone_strategy(),
        seed in any::<u64>(),
    ) {
        let sets = provider_sets();
        let base = segmented_snapshot_of(&zone, &sets);
        let flat = flat_of(&base);
        let mut rng = XorShift(seed | 1);
        for _ in 0..4 {
            let delta = random_delta(&flat, &sets, &mut rng);
            let applied = delta.apply(&base, Serial::new(1), SimTime::from_secs(1));
            check_against_flat(&applied, &flat_apply(&flat, &delta))?;
            // The base is untouched, and what the delta left alone is shared.
            check_against_flat(&base, &flat)?;
            if delta.is_empty() {
                prop_assert_eq!(applied.segments_shared_with(&base), base.segment_lens().len());
            }
            // And the diff reads the new cuts like any others.
            prop_assert_eq!(&sorted_merge_diff(&base, &applied), &delta);
        }
    }

    #[test]
    fn a_chain_of_200_applies_keeps_segments_bounded_and_positions_true(
        zone in segmented_zone_strategy(),
        seed in any::<u64>(),
    ) {
        let sets = provider_sets();
        let mut head = segmented_snapshot_of(&zone, &sets);
        let mut flat = flat_of(&head);
        let mut rng = XorShift(seed | 1);
        for serial in 1..=200u32 {
            let delta = random_delta(&flat, &sets, &mut rng);
            head = delta.apply(&head, Serial::new(serial), SimTime::from_secs(u64::from(serial)));
            flat = flat_apply(&flat, &delta);
            check_against_flat(&head, &flat)?;
        }
        // However the cuts drifted, the content is what a fresh build holds.
        let fresh = ZoneSnapshot::from_ns_entries(*head.origin(), head.serial(), head.taken_at(), flat);
        prop_assert_eq!(&head, &fresh);
    }

    #[test]
    fn diff_sets_are_disjoint_and_complete(old in zone_state_strategy(), new in zone_state_strategy()) {
        let a = snapshot_of(&old, 1);
        let b = snapshot_of(&new, 2);
        let delta = sorted_merge_diff(&a, &b);
        for (d, _) in &delta.added {
            prop_assert!(!a.contains(d) && b.contains(d));
        }
        for (d, _) in &delta.removed {
            prop_assert!(a.contains(d) && !b.contains(d));
        }
        for c in &delta.changed {
            prop_assert!(a.contains(&c.domain) && b.contains(&c.domain));
            prop_assert_ne!(&c.old_ns, &c.new_ns);
        }
        // Untouched domains are truly identical.
        let touched: std::collections::HashSet<_> = delta
            .added
            .iter()
            .map(|(d, _)| d.clone())
            .chain(delta.removed.iter().map(|(d, _)| d.clone()))
            .chain(delta.changed.iter().map(|c| c.domain.clone()))
            .collect();
        for (d, ns) in a.iter() {
            if !touched.contains(&d) {
                prop_assert_eq!(b.ns_of(&d), Some(ns.as_slice()));
            }
        }
    }

    #[test]
    fn journal_matches_snapshot_diff_under_random_mutations(
        ops in prop::collection::vec((0u16..60, 0u8..4), 1..80)
    ) {
        // Replay random upsert/remove operations against a live zone while
        // journaling, then check journal delta == snapshot diff.
        let origin = DomainName::parse("com").unwrap();
        let mut zone = Zone::new(origin, Serial::new(0));
        let mut journal = ZoneJournal::new();
        let before = ZoneSnapshot::capture(&zone, SimTime::ZERO);
        let s_before = zone.serial();
        for (idx, op) in ops {
            let domain = DomainName::parse(&format!("d{idx:04}.com")).unwrap();
            if op == 3 {
                if let Some(prev) = zone.remove(&domain) {
                    journal.record(
                        zone.serial(),
                        JournalEvent::Removed { domain, prev_ns: prev.ns_set().clone() },
                    );
                }
            } else {
                let delegation = Delegation::new(vec![ns_host(op)]);
                let ns = delegation.ns_set().clone();
                let prev = zone.upsert(domain, delegation);
                match prev {
                    None => journal.record(zone.serial(), JournalEvent::Added { domain, ns }),
                    Some(old) if *old.ns_set() != ns => journal.record(
                        zone.serial(),
                        JournalEvent::NsChanged { domain, prev_ns: old.ns_set().clone(), ns },
                    ),
                    Some(_) => journal.record(
                        zone.serial(),
                        JournalEvent::NsChanged {
                            domain,
                            prev_ns: ns.clone(),
                            ns,
                        },
                    ),
                }
            }
        }
        let after = ZoneSnapshot::capture(&zone, SimTime::from_secs(1));
        let from_journal = journal.delta_between(s_before, zone.serial());
        let from_snapshots = sorted_merge_diff(&before, &after);
        prop_assert_eq!(from_journal, from_snapshots);
    }

    #[test]
    fn rzu_grid_visibility_is_monotone_in_cadence(
        insert in 0u64..200_000,
        lifetime in 1u64..100_000,
    ) {
        use darkdns::registry::rzu::next_grid_point;
        let anchor = SimTime::ZERO;
        let t = SimTime::from_secs(insert);
        for cadence in [60u64, 300, 3_600, 86_400] {
            let grid = next_grid_point(anchor, SimDuration::from_secs(cadence), t);
            prop_assert!(grid >= t);
            prop_assert!(grid.as_secs() - t.as_secs() < cadence || t == anchor);
            prop_assert_eq!(grid.as_secs() % cadence, 0);
        }
        let _ = lifetime;
    }

    #[test]
    fn cdf_quantile_and_fraction_are_inverse(samples in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        for q in [0.1, 0.5, 0.9, 1.0] {
            let x = cdf.quantile(q);
            prop_assert!(cdf.fraction_at_or_below(x) >= q - 1e-9);
        }
        prop_assert_eq!(cdf.fraction_at_or_below(f64::MAX), 1.0);
        let min = cdf.min().unwrap();
        prop_assert!(cdf.fraction_at_or_below(min - 1.0) == 0.0);
    }

    #[test]
    fn cross_engine_agreement_is_exact_not_just_equal(
        old in zone_state_strategy(),
        new in zone_state_strategy(),
    ) {
        // "Byte-identical canonical deltas": pin the serialized form, not
        // just `PartialEq`, so canonicalisation order can never drift
        // between the merge and the journal.
        let a = snapshot_of(&old, 1);
        let b = snapshot_of(&new, 2);
        let merge_json = serde_json::to_string(&sorted_merge_diff(&a, &b)).unwrap();
        let journal = journal_between(&a, &b);
        let head = journal.head().unwrap_or(Serial::new(100));
        let journal_json =
            serde_json::to_string(&journal.delta_between(Serial::new(100), head)).unwrap();
        prop_assert_eq!(journal_json, merge_json);
    }

    #[test]
    fn token_bucket_never_exceeds_declared_rate(
        capacity in 1u32..20,
        rate_per_hour in 60.0f64..7200.0,
        queries in prop::collection::vec(0u64..7200, 1..200),
    ) {
        let mut times = queries;
        times.sort_unstable();
        let t0 = SimTime::ZERO;
        let mut bucket = TokenBucket::new(capacity, rate_per_hour, t0);
        let mut granted = 0u32;
        let horizon_secs = *times.last().unwrap() + 1;
        for t in &times {
            if bucket.try_acquire(SimTime::from_secs(*t)) {
                granted += 1;
            }
        }
        // Conservation: grants ≤ initial capacity + refill over horizon.
        let max_grants = f64::from(capacity) + rate_per_hour * horizon_secs as f64 / 3_600.0;
        prop_assert!(
            f64::from(granted) <= max_grants + 1.0,
            "granted {} exceeds budget {}",
            granted,
            max_grants
        );
    }
}

/// A deterministic 100k-delegation churn workload: `apply(diff(a, b), a)`
/// must reconstruct `b` exactly, at a scale where any per-entry clone or
/// map rebuild in the hot paths would be visible as a timeout.
#[test]
fn apply_roundtrip_at_100k_entries() {
    const SIZE: u32 = 100_000;
    let origin = DomainName::parse("com").unwrap();
    let ns_a = DomainName::parse("ns1.cloudflare.com").unwrap();
    let ns_b = DomainName::parse("ns1.domaincontrol.com").unwrap();
    // Simple xorshift so the churn pattern is reproducible without rand.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut old = Vec::with_capacity(SIZE as usize);
    let mut new = Vec::with_capacity(SIZE as usize);
    for i in 0..SIZE {
        let name = DomainName::parse(&format!("domain-{i:09}.com")).unwrap();
        match next() % 100 {
            0 => old.push((name, vec![ns_a])),                                  // removed
            1 => new.push((name, vec![ns_a])),                                  // added
            2 => {
                old.push((name, vec![ns_a]));                                   // NS change
                new.push((name, vec![ns_b]));
            }
            _ => {
                old.push((name, vec![ns_a]));
                new.push((name, vec![ns_a]));
            }
        }
    }
    let a = ZoneSnapshot::from_entries(origin, Serial::new(1), SimTime::ZERO, old);
    let b = ZoneSnapshot::from_entries(origin, Serial::new(2), SimTime::from_secs(86_400), new);
    let delta = sorted_merge_diff(&a, &b);
    assert!(!delta.is_empty(), "workload must have churn");
    let rebuilt = delta.apply(&a, b.serial(), b.taken_at());
    assert_eq!(rebuilt, b);
    // Reconstructing a live zone from the rebuilt snapshot exercises the
    // Delegation::from_sorted fast path at scale.
    let zone = Zone::from_snapshot(&rebuilt);
    assert_eq!(zone.len(), b.len());
}
