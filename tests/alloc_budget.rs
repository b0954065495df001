//! Allocation budgets for the RZU name codec, the bootstrap assembly,
//! the delta apply, the root's zone build and the retention ring.
//!
//! PR 12's traces showed a 100k-entry catch-up making 3.7 M allocations
//! — 37 per entry: a label `Vec`, a `String` per label, a joined
//! `String` per suffix, a private `Vec` and `Arc` per NS set, twice. The
//! codec now allocates per *frame* and per *distinct NS set*, never per
//! name, and these budgets keep it that way: each is a formula in the
//! quantities the cost may grow with (chunks, distinct NS sets, table
//! doublings, segments), with the entry count conspicuously absent.
//!
//! The apply budget is the same idea one layer down: what a 100-name
//! delta costs to apply is a formula in the segments it rebuilds, plus
//! one top-level row per segment of the base — the only term the zone
//! size enters through. The counts repeat exactly, which makes this the
//! regression gate for "O(delta) apply" that a wall-clock sweep on a
//! shared host cannot be.
//!
//! Four are budgets on what is *kept*: a zone built from raw host lists
//! holds one allocation per distinct list, not per entry; a shard's ring
//! holds its frames' bytes and a fixed header each — the size of the
//! deltas that were published is in neither formula; a snapshot holds
//! under 33 bytes per delegation beside its shared NS sets; and a new
//! long spelling costs the interner its length and a fixed few bytes
//! more.
//!
//! One budget is on a *peak*: a chunk train assembled the way the
//! transport client assembles it never stands higher on the live heap
//! than the finished snapshot plus its largest decoded chunk and a
//! constant — one copy of the zone in flight, not a flat vector of the
//! train beside the segments cut from it.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`. Counts are kept per thread, so the tests can
//! run in parallel without seeing each other.

use darkdns::dns::wire::{
    decode_delta_push, decode_snapshot_chunk, encode_delta_push, encode_lookup_request,
    encode_snapshot_chunks, LookupQuery,
};
use darkdns::broker::{JournalShard, RetentionConfig};
use darkdns::dns::snapshot::{SnapshotBuilder, SEGMENT_SPAN};
use darkdns::dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::RwLock;

struct CountingAlloc;

thread_local! {
    // `const` initialiser and no destructor: touching it from inside the
    // allocator can itself never allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated and has not freed (wrapping: a block
    // freed here may have been allocated elsewhere).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    // The highest `LIVE` has stood since `peaking` last reset it.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Move `LIVE` by `grow` bytes, raising `PEAK` if it is passed
/// (compared by wrapping distance, as `LIVE` itself wraps).
fn live_add(grow: u64) {
    let live = LIVE.with(|n| {
        n.set(n.get().wrapping_add(grow));
        n.get()
    });
    PEAK.with(|p| {
        if (live.wrapping_sub(p.get()) as i64) > 0 {
            p.set(live);
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        live_add(layout.size() as u64);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get().wrapping_sub(layout.size() as u64)));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        live_add((new_size as u64).wrapping_sub(layout.size() as u64));
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and how many allocations (fresh or
/// growing) this thread made meanwhile.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (out, allocs, _) = measuring(f);
    (out, allocs)
}

/// [`counting`], plus the bytes those allocations asked for.
fn measuring<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// Run `f`, returning its result and by how many bytes this thread's
/// live heap grew (what `f` allocated and did not free, less what it
/// freed of earlier allocations).
fn retaining<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get).wrapping_sub(before) as i64)
}

/// Run `f`, returning its result and the most this thread's live heap
/// stood above where it started at any point meanwhile.
fn peaking<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get).wrapping_sub(before))
}

const PROVIDERS: usize = 16;

/// Bytes one delegation takes in a segment.
const ENTRY: usize = std::mem::size_of::<(DomainName, NsSet)>();

/// Every name this binary parses goes through [`name`] under the read
/// side; the interner budget holds the write side, so the spellings it
/// counts are the only ones interned meanwhile and every table growth,
/// arena block and slot chunk of its window lands on its thread.
static INTERNING: RwLock<()> = RwLock::new(());

fn name(s: &str) -> DomainName {
    let _shared = INTERNING.read().unwrap_or_else(|poison| poison.into_inner());
    DomainName::parse(s).unwrap()
}

/// Two-host provider sets with interned (longer than inline) host names,
/// as real provider hosts are.
fn providers(n: usize) -> Vec<NsSet> {
    (0..n)
        .map(|p| {
            NsSet::new(vec![
                name(&format!("ns1.provider-{p:02}.alloc-budget-hosting.net")),
                name(&format!("ns2.provider-{p:02}.alloc-budget-hosting.net")),
            ])
        })
        .collect()
}

/// `size` delegations over `sets`, a quarter of the owners interned.
fn entries(size: usize, sets: &[NsSet]) -> Vec<(DomainName, NsSet)> {
    let mut out: Vec<_> = (0..size)
        .map(|i| {
            let owner = if i % 4 == 3 {
                name(&format!("an-owner-past-the-inline-bound-{i:06}.com"))
            } else {
                name(&format!("owner-{i:06}.com"))
            };
            (owner, sets[(i * 7 + i / 13) % sets.len()].clone())
        })
        .collect();
    out.sort_by_key(|entry| entry.0);
    out
}

#[test]
fn chunk_train_decode_and_assembly_is_per_chunk_and_per_set() {
    const ENTRIES: usize = 10_000;
    let sets = providers(PROVIDERS);
    let snapshot = ZoneSnapshot::from_ns_entries(
        name("com"),
        Serial::new(9),
        SimTime::from_secs(60),
        entries(ENTRIES, &sets),
    );
    let train = encode_snapshot_chunks(4, &snapshot, 0, 64 << 10);
    let chunks = train.len() as u64;
    assert!(chunks >= 4, "the train must be several chunks, got {chunks}");

    let (decoded, allocs) = counting(|| {
        train.iter().map(|frame| decode_snapshot_chunk(frame).unwrap().entries).collect::<Vec<_>>()
    });
    // Per chunk: the entry vector, the memo's doublings up to one slot
    // per distinct set, and per distinct set at most two decoded copies
    // (its first-seen spelled-out form, then the shared pointer form) of
    // two allocations each. Plus the list the chunks are kept in here.
    let per_chunk = 1 + 8 + 4 * PROVIDERS as u64;
    let budget = chunks * per_chunk + 1;
    assert!(allocs <= budget, "{allocs} allocations for {chunks} chunks, budget {budget}");
    assert!(allocs < ENTRIES as u64 / 10, "{allocs} allocations is per-entry territory");

    // What `TransportClient` does with a train: append each chunk to a
    // builder as it arrives, finish on the last one.
    let (rebuilt, allocs) = counting(|| {
        let mut builder = SnapshotBuilder::default();
        for entries in decoded {
            builder.append(entries).unwrap();
        }
        builder.finish(*snapshot.origin(), snapshot.serial(), snapshot.taken_at())
    });
    assert_eq!(rebuilt, snapshot);
    // The assembly: one allocation per segment, cut straight out of the
    // chunks; per snapshot the top level's `Arc` and the builder's run
    // buffer, and the three columns growing from empty — the builder
    // reserves nothing from the train's declared total.
    let segments = rebuilt.segment_lens().len() as u64;
    assert_eq!(segments, (ENTRIES / SEGMENT_SPAN) as u64);
    let columns = 3 * vec_growths(segments as usize);
    assert_eq!(allocs, segments + columns + 2, "allocations to assemble {segments} segments");

    // And the point of the memo: the assembled snapshot holds a handful
    // of NS sets per chunk, not one per entry.
    let mut distinct: Vec<*const DomainName> =
        rebuilt.ns_column().iter().map(|ns| ns.as_slice().as_ptr()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() as u64 <= chunks * 2 * PROVIDERS as u64,
        "{} distinct NS allocations in the assembled snapshot",
        distinct.len()
    );
}

/// Allocations of a `Vec` pushed from empty to `items`: its first
/// (four-slot) buffer, then one per doubling.
fn vec_growths(items: usize) -> u64 {
    u64::from(items.max(4).next_power_of_two().trailing_zeros()) - 1
}

#[test]
fn a_chunk_train_is_assembled_in_one_copy_of_the_zone() {
    // Beside the segments built so far, a bootstrap in flight holds the
    // chunk in hand and a fixed amount: the run (at most twice the span)
    // and a decoder's memo. A flat vector of the train, or a second copy
    // of it, grows with the entries and cannot fit.
    const SLACK: u64 = 32 << 10;
    let sets = providers(PROVIDERS);
    for size in [10_000, 40_000] {
        let snapshot = ZoneSnapshot::from_ns_entries(
            name("com"),
            Serial::new(9),
            SimTime::from_secs(60),
            entries(size, &sets),
        );
        let train = encode_snapshot_chunks(4, &snapshot, 0, 64 << 10);
        assert!(train.len() >= 4, "a {size}-entry train must be several chunks");
        // The largest chunk as decoded: its entry vector and NS sets.
        let largest = train
            .iter()
            .map(|frame| retaining(|| decode_snapshot_chunk(frame).unwrap()).1 as u64)
            .max()
            .unwrap();

        let ((assembled, peak), kept) = retaining(|| {
            peaking(|| {
                let mut builder = SnapshotBuilder::default();
                for frame in &train {
                    builder.append(decode_snapshot_chunk(frame).unwrap().entries).unwrap();
                }
                builder.finish(*snapshot.origin(), snapshot.serial(), snapshot.taken_at())
            })
        });
        assert_eq!(assembled, snapshot);
        assert!(assembled.segment_lens().eq(snapshot.segment_lens()), "cuts at {size}");
        let kept = kept as u64;
        assert!(
            peak <= kept + largest + SLACK,
            "{size} entries: live peak {peak} bytes for a {kept}-byte snapshot and a \
             {largest}-byte largest chunk"
        );
    }
}

/// Allocations to decode the `RZU1` frame of a delta adding `added`.
fn delta_decode_allocs(added: Vec<(DomainName, NsSet)>) -> u64 {
    let delta = ZoneDelta { added, ..ZoneDelta::default() };
    let frame =
        encode_delta_push(&name("com"), Serial::new(1), Serial::new(2), SimTime::ZERO, &delta);
    let (push, allocs) = counting(|| decode_delta_push(&frame).unwrap());
    assert_eq!(push.delta, delta);
    allocs
}

#[test]
fn delta_decode_is_per_distinct_ns_set() {
    const ENTRIES: usize = 100;
    const SETS: usize = 4;
    let allocs = delta_decode_allocs(entries(ENTRIES, &providers(SETS)));
    // The section vector, the memo's doublings, and per distinct set two
    // decoded copies of two allocations each.
    let budget = 1 + 4 + 4 * SETS as u64;
    assert!(allocs <= budget, "{allocs} allocations for {SETS} distinct sets, budget {budget}");

    // The names add nothing: the same frame with every owner and host
    // inline decodes in exactly as many.
    let inline_sets: Vec<NsSet> = (0..SETS)
        .map(|p| NsSet::new(vec![name(&format!("ns1.p{p}.net")), name(&format!("ns2.p{p}.net"))]))
        .collect();
    let inline: Vec<_> = (0..ENTRIES)
        .map(|i| (name(&format!("owner-{i:06}.com")), inline_sets[(i * 7 + i / 13) % SETS].clone()))
        .collect();
    assert!(inline.iter().all(|(owner, _)| owner.as_str().len() <= 22));
    assert_eq!(delta_decode_allocs(inline), allocs, "an all-inline 100-entry frame");
}

#[test]
fn a_name_is_parsed_without_allocating() {
    let (inline, allocs) = counting(|| name("Owner-000042.COM."));
    assert_eq!((inline.as_str(), allocs), ("owner-000042.com", 0), "an inline name");
    // A long name the interner already holds: found under its read lock.
    let long = "An-Owner-Past-The-Inline-Bound-000042.com";
    let interned = name(long);
    let (again, allocs) = counting(|| name(long));
    assert_eq!((again, allocs), (interned, 0), "a long name already interned");
}

#[test]
fn encoders_allocate_for_table_and_buffer_growth_only() {
    const ENTRIES: usize = 10_000;
    let sets = providers(PROVIDERS);
    let all = entries(ENTRIES, &sets);
    let snapshot = ZoneSnapshot::from_ns_entries(
        name("com"),
        Serial::new(9),
        SimTime::from_secs(60),
        all.clone(),
    );

    // A train: the scratch buffer and the compression table double their
    // way up once (they are reused from chunk to chunk), then one frame
    // allocation per chunk plus the frame list's own doublings.
    let (train, allocs) = counting(|| encode_snapshot_chunks(4, &snapshot, 0, 64 << 10));
    let chunks = train.len() as u64;
    let doublings = 2 * u64::from(usize::BITS - (64usize << 10).leading_zeros());
    let budget = 2 * chunks + doublings + 8;
    assert!(allocs <= budget, "{allocs} allocations for a {chunks}-chunk train, budget {budget}");

    let delta = ZoneDelta { added: all[..100].to_vec(), ..ZoneDelta::default() };
    let (_, allocs) = counting(|| {
        encode_delta_push(&name("com"), Serial::new(1), Serial::new(2), SimTime::ZERO, &delta)
    });
    assert!(allocs <= 20, "{allocs} allocations to encode a 100-entry delta");

    let queries: Vec<LookupQuery> =
        all[..64].iter().map(|(owner, _)| LookupQuery { tld: 0, name: *owner }).collect();
    let (_, allocs) = counting(|| encode_lookup_request(7, &queries));
    assert!(allocs <= 16, "{allocs} allocations to encode a 64-name lookup");
}

/// Apply a 100-name delta to a `size`-entry zone, once scattered
/// uniformly through it and once appended past its last name, and check
/// each against its budget. Returns, per shape, the allocation count and
/// the bytes *beside* the top level's rows — the part of the cost the
/// zone size has no way into.
fn apply_within_budget(size: usize) -> [(u64, u64); 2] {
    const NAMES: usize = 100;
    let sets = providers(PROVIDERS);
    let base = ZoneSnapshot::from_ns_entries(
        name("com"),
        Serial::new(1),
        SimTime::ZERO,
        (0..size)
            .map(|i| (name(&format!("owner-{i:07}.com")), sets[i % PROVIDERS].clone()))
            .collect(),
    );
    let step = size / NAMES;
    // `owner-<i>x` sorts right after zone name `i`, `zz…` after them all.
    let scattered: Vec<_> = (0..NAMES)
        .map(|j| (name(&format!("owner-{:07}x.com", j * step + step / 2)), sets[j % PROVIDERS].clone()))
        .collect();
    let tail: Vec<_> = (0..NAMES)
        .map(|j| (name(&format!("zz-nrd-{j:04}.com")), sets[j % PROVIDERS].clone()))
        .collect();

    [("scattered", scattered, NAMES), ("tail", tail, 3)].map(|(shape, added, most_rebuilt)| {
        let delta = ZoneDelta { added, ..ZoneDelta::default() };
        let (applied, allocs, bytes) =
            measuring(|| delta.apply(&base, Serial::new(2), SimTime::from_secs(300)));
        assert_eq!(applied.len(), size + NAMES);
        let rebuilt = applied.segment_lens().len() - applied.segments_shared_with(&base);
        assert!(
            (1..=most_rebuilt).contains(&rebuilt),
            "{shape} at {size}: {rebuilt} segments rebuilt"
        );

        // Per apply the top level's `Arc` and three columns and the
        // builder's run buffer; per rebuilt segment one allocation.
        // Exactly.
        assert_eq!(allocs, 5 + rebuilt as u64, "{shape} at {size}");

        // Bytes: the top level reserves a 43-byte row (fence, start,
        // pointer and length) per base segment plus room for the delta's
        // splits — the one term that grows with the zone. The rest is
        // the run buffer, and `ENTRY` bytes per entry of a rebuilt segment
        // (at most twice the span) with its header.
        let top = 43 * (base.segment_lens().len() + NAMES / SEGMENT_SPAN + 2) as u64;
        let per_segment = (2 * SEGMENT_SPAN * ENTRY + 64) as u64;
        let budget = top + 8 * 1024 + rebuilt as u64 * per_segment;
        assert!(
            (top..=budget).contains(&bytes),
            "{shape} at {size}: {bytes} bytes, top level {top}, budget {budget}"
        );
        (allocs, bytes - top)
    })
}

#[test]
fn a_100_name_apply_costs_the_same_at_10k_and_at_1m_beside_the_top_level() {
    let [scattered_10k, tail_10k] = apply_within_budget(10_000);
    let [scattered_1m, tail_1m] = apply_within_budget(1_000_000);
    // A hundredfold zone, the same hundred segments rebuilt.
    assert_eq!(scattered_10k.0, scattered_1m.0);
    assert!(
        scattered_10k.1.abs_diff(scattered_1m.1) <= scattered_10k.1 / 50,
        "scattered: {} bytes beside the top level at 10k, {} at 1M",
        scattered_10k.1,
        scattered_1m.1
    );
    // The tail differs by how full the zone's last segment happened to
    // be: one segment more or less.
    assert!(tail_10k.0.abs_diff(tail_1m.0) <= 1);
    assert!(
        tail_10k.1.abs_diff(tail_1m.1) <= (2 * SEGMENT_SPAN * ENTRY) as u64,
        "tail: {} bytes beside the top level at 10k, {} at 1M",
        tail_10k.1,
        tail_1m.1
    );
}

/// `size` delegations with raw host lists — what a root builds its
/// shards from — over `lists` distinct lists (`None`: every entry its
/// own), a quarter of the owners interned, ascending.
fn raw_entries(size: usize, lists: Option<usize>) -> Vec<(DomainName, Vec<DomainName>)> {
    let mut out: Vec<_> = (0..size)
        .map(|i| {
            let owner = if i % 4 == 3 {
                name(&format!("an-owner-past-the-inline-bound-{i:06}.com"))
            } else {
                name(&format!("owner-{i:06}.com"))
            };
            let p = lists.map_or(i, |lists| (i * 7 + i / 13) % lists);
            let hosts = vec![
                name(&format!("ns1.provider-{p:06}.alloc-budget-hosting.net")),
                name(&format!("ns2.provider-{p:06}.alloc-budget-hosting.net")),
            ];
            (owner, hosts)
        })
        .collect();
    out.sort_by_key(|entry| entry.0);
    out
}

/// Allocations of a hash table that grows from empty to `items`: one
/// per doubling, the first at four buckets.
fn table_doublings(items: usize) -> u64 {
    u64::from((items * 8 / 7 + 1).next_power_of_two().max(4).trailing_zeros()) - 1
}

#[test]
fn a_zone_built_from_raw_host_lists_allocates_per_segment_and_per_distinct_list() {
    let build = |entries| {
        counting(|| ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, entries))
    };
    let mut beside_segments = Vec::new();
    for size in [10_000, 40_000] {
        let (snapshot, allocs) = build(raw_entries(size, Some(PROVIDERS)));
        let segments = snapshot.segment_lens().len() as u64;
        // Per segment one allocation, per distinct list one, the memo's
        // doublings; per snapshot the top level's `Arc` and three
        // columns and the builder's run buffer. Exactly — and the entry
        // count enters through the segments alone.
        let fixed = PROVIDERS as u64 + table_doublings(PROVIDERS) + 5;
        assert_eq!(allocs, segments + fixed, "allocations to build {size} entries");
        beside_segments.push(allocs - segments);

        // Equal lists are one allocation, whichever segments their
        // entries fell into: as many pointers as lists.
        let mut distinct: Vec<*const DomainName> =
            snapshot.ns_column().iter().map(|ns| ns.as_slice().as_ptr()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), PROVIDERS);
    }
    assert_eq!(beside_segments[0], beside_segments[1]);

    // Unsorted input pays for the sort keys, once.
    let mut shuffled = raw_entries(10_000, Some(PROVIDERS));
    shuffled.reverse();
    let (snapshot, allocs) = build(shuffled);
    assert_eq!(allocs, beside_segments[0] + snapshot.segment_lens().len() as u64 + 1);

    // The worst case, every list its own: what freezing each entry's
    // list always cost, plus the memo's table — one slot per entry,
    // reached in doublings — and nothing of it left once built.
    const DISTINCT: usize = 10_000;
    let (snapshot, allocs) = build(raw_entries(DISTINCT, None));
    let segments = snapshot.segment_lens().len() as u64;
    assert_eq!(allocs, segments + DISTINCT as u64 + table_doublings(DISTINCT) + 5);
    let (shared, kept_shared) = retaining(|| {
        ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, raw_entries(DISTINCT, None))
    });
    let (private, kept_private) = retaining(|| {
        let frozen = raw_entries(DISTINCT, None)
            .into_iter()
            .map(|(owner, hosts)| (owner, NsSet::from_raw(hosts)))
            .collect();
        ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, frozen)
    });
    assert_eq!(shared, private);
    assert_eq!(kept_shared, kept_private, "live bytes of an all-distinct build");
}

#[test]
fn a_ring_retains_its_frames_and_a_fixed_header_each_whatever_the_deltas_held() {
    const ZONE: usize = 2_000;
    const NAMES: usize = 100;
    let retention = RetentionConfig::default();
    let sets = providers(PROVIDERS);
    let zone =
        ZoneSnapshot::from_ns_entries(name("com"), Serial::new(0), SimTime::ZERO, entries(ZONE, &sets));
    let block: Vec<(DomainName, NsSet)> = (0..NAMES)
        .map(|j| (name(&format!("zz-nrd-{j:04}.com")), sets[j % PROVIDERS].clone()))
        .collect();

    let mut shard = JournalShard::new(TldId(0), zone);
    let publishes = 2 * retention.max_deltas as u32;
    let ((), grown) = retaining(|| {
        for serial in 1..=publishes {
            // Add the block, remove the block: the zone ends as it began.
            let delta = if serial % 2 == 1 {
                ZoneDelta { added: block.clone(), ..ZoneDelta::default() }
            } else {
                ZoneDelta { removed: block.clone(), ..ZoneDelta::default() }
            };
            shard.publish(&delta, Serial::new(serial), SimTime::from_secs(u64::from(serial)), &retention);
        }
    });
    assert_eq!(shard.retained().len(), retention.max_deltas);
    let frame_bytes: usize = shard.retained().map(|d| d.frame.len()).sum();
    assert!(frame_bytes > retention.max_deltas * NAMES, "100-name frames, {frame_bytes} bytes");

    // What the shard holds beyond its zone state: keep head and
    // checkpoint (refcounts, no allocation), let everything else go.
    let (head, checkpoint) = (shard.head().clone(), shard.checkpoint().clone());
    let ((), freed) = retaining(|| drop(shard));
    let beyond = usize::try_from(-freed).expect("dropping a shard frees");
    let budget = frame_bytes + retention.max_deltas * 160;
    assert!(
        (frame_bytes..=budget).contains(&beyond),
        "{beyond} bytes live beyond head and checkpoint for {frame_bytes} frame bytes, budget {budget}"
    );
    // And the ring is all that grew: the zone is the size it was.
    assert_eq!(head.len(), ZONE);
    assert!(checkpoint.same_capture(&head));
    assert!(grown as usize <= budget + (2 * SEGMENT_SPAN * ENTRY + 64) * 4, "{grown} bytes grown");
}

#[test]
fn a_delegation_holds_32_bytes_beside_its_shared_ns_set() {
    // Owner and NS-set pointer, plus the segment headers and top-level
    // rows amortised over the span: under 33 bytes an entry. A fat
    // slice pointer and its flag in every entry were 48.
    const ENTRIES: usize = 100_000;
    let sets = providers(PROVIDERS);
    let snapshot = ZoneSnapshot::from_ns_entries(
        name("com"),
        Serial::new(1),
        SimTime::ZERO,
        entries(ENTRIES, &sets),
    );
    assert_eq!(snapshot.len(), ENTRIES);
    // What the snapshot holds on its own: the sets outlive it in `sets`,
    // its interned owners outlive it in the interner.
    let ((), freed) = retaining(|| drop(snapshot));
    let held = usize::try_from(-freed).expect("dropping a snapshot frees");
    let budget = 33 * ENTRIES + 4096;
    assert!(
        held <= budget,
        "{held} bytes for {ENTRIES} entries ({:.1} B each), budget {budget}",
        held as f64 / ENTRIES as f64
    );
}

#[test]
fn a_new_long_spelling_costs_its_bytes_and_a_fixed_few_more() {
    // Arena bytes, the slot's share of its chunk and the index's share of
    // its table: `len + 25` amortised. The chunks themselves are the
    // exception: 256 KiB when an id opens one, at most two for this run
    // of consecutive ids.
    const SPELLINGS: usize = 50_000;
    const LEN: usize = 27;
    const SLOT_CHUNK: usize = 256 << 10;
    const SLOT_CHUNK_IDS: usize = 1 << 15;
    let _exclusive = INTERNING.write().unwrap_or_else(|poison| poison.into_inner());
    let ((), grown) = retaining(|| {
        for i in 0..SPELLINGS {
            let spelling = format!("new-spelling-{i:07}.budget");
            debug_assert_eq!(spelling.len(), LEN);
            DomainName::parse(&spelling).unwrap();
        }
    });
    let chunks = SPELLINGS / SLOT_CHUNK_IDS + 1;
    let budget = SPELLINGS * (LEN + 25) + chunks * SLOT_CHUNK;
    let grown = usize::try_from(grown).expect("interning grows the heap");
    assert!(
        grown <= budget,
        "{grown} bytes for {SPELLINGS} new {LEN}-byte spellings ({:.1} B each), budget {budget}",
        grown as f64 / SPELLINGS as f64
    );
}
