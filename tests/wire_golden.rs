//! Golden byte-identity vectors for the name-carrying wire codecs.
//!
//! The fixtures under `tests/golden/` are the exact bytes the `String`-
//! keyed, `labels()`-walking encoder of PR 12 (commit 46f065f) produced
//! for the inputs built below; the allocation-free encoder that replaced
//! it must reproduce every one of them byte for byte; a vector added
//! with a later layout (`rzu4*`, `rzuc_shared*`, `rzua`) holds the bytes
//! of the encoder that introduced it. Relays re-serve delta frames verbatim
//! and the benchmark gates `wire_bytes_per_op` exactly, so a codec
//! "optimisation" that moves a single compression
//! pointer is a protocol change, not a refactor — these vectors are what
//! says so. They double as ROADMAP's "legacy layouts as pinned test
//! vectors" for the `Message`, `RZU4`, `RZUC`, `RZUL` and `RZUA` frames.
//!
//! The lookup family: `rzul.hex` pins the `RZUL` request and
//! `rzua.hex` the `RZUA` response, two frames: one over present and
//! absent rows, `ANY` rows, first-seen stamps, a repeated TLD, two TLDs
//! at one serial (two slots) and a TLD at a second serial, and one over
//! 70 TLDs, whose last eight rows carry their serial inline (code 63).
//! `rzur.hex` is the response as the encoder wrote it before the serial
//! slots, every serial spelled out: a refusal vector that a decoder and
//! a thin client must refuse on its magic.
//!
//! `rzus.hex` is the monolithic snapshot push as its encoder last wrote
//! it: the family was retired in PR 22, nothing encodes or decodes it,
//! and the vector now feeds the test that a client refuses it.
//!
//! The delta family: `rzu4.hex`, `rzu4_com.hex`, `rzu4_big.hex` and
//! `rzu4_labels.hex` pin the `RZU4` layout, whose NS sets are named
//! through a frame-wide table like an `RZUC` chunk's and whose owners
//! travel as their one label under the origin, packed in base 38.
//! `rzu4_labels` covers labels of every length class mod 3, `-` and
//! `_`, and an owner behind the escape. The retired layouts are refusal
//! vectors, never edited: `rzu1.hex` and `rzu1_big.hex` spelled every NS
//! set out, `rzu2.hex` and `rzu2_big.hex` spelled every owner as a name
//! compressed against the origin, and `rzu3.hex`, `rzu3_com.hex` and
//! `rzu3_big.hex` spelled owner labels a byte a character. A decoder,
//! the serial peek and a client must refuse each on its magic.
//!
//! The chunk family: `rzuc_shared.hex` and `rzuc_shared_resumed.hex` (a
//! train from offset 0 and from a resume offset), `rzuc_shared_big.hex`
//! (one chunk past 16 KiB, whose late-defined sets are still named by
//! one byte each) and `rzuc_shared_labels.hex` (the `rzu4_labels`
//! owners) pin the `RZUC` bytes, flags bits 1 (NS-set table), 2 (owner
//! labels), 3 (packed labels) and 4 (front-coded labels: a label shares
//! up to three leading characters with the child owner before it) set.
//! The earlier trains are refusal vectors, each frame refused on its
//! flags byte rather than misread: `rzuc.hex` and `rzuc_resumed.hex` in
//! the pre-table layout (every entry's NS set spelled out, bit 1 clear),
//! `rzuc_table.hex`, `rzuc_table_resumed.hex` and `rzuc_table_big.hex`
//! with the table but every owner a name (bit 2 clear),
//! `rzuc_owner.hex`, `rzuc_owner_resumed.hex` and `rzuc_owner_big.hex`
//! with owner labels a byte a character (bit 3 clear), and
//! `rzuc_packed.hex`, `rzuc_packed_resumed.hex`, `rzuc_packed_big.hex`
//! and `rzuc_packed_labels.hex` with every label packed whole (bit 4
//! clear).
//!
//! The `rzuh*` vectors pin the HELLO family the same way — bytes from
//! the three encoders that stood before the upstream-link refactor
//! (commit 45429dd). `rzuh` (the legacy claims-only layout) and
//! `rzuh_resume` (the resume-extended one) are what one `encode_hello`
//! over a `HelloFrame` must keep emitting. `rzuh_scoped` — the same
//! claims behind an empty resume section and a delta-only scope byte —
//! is a refusal vector: the subscription scope is retired, every
//! subscriber gets the one catch-up contract, and a decoder must refuse
//! the frame on that trailing byte, a live server reject it.
//!
//! `rzuq` pins the stats report — whose subscriber rows share the
//! HELLO's claim-row codec — with bytes from the encoder as it stood
//! before that collapse (commit ed71249). `rzuq_edge` is the same
//! family in the shape an edge server reports (mapped server row, shard
//! rows carrying serial, connections and epoch, no subscriber rows),
//! written by the hand-unrolled encoder as it last stood (commit
//! 37417d2), before the row-loop codec replaced it.
//!
//! Fixture format: lower-case hex, wrapped at 32 bytes per line, one
//! blank line between the frames of a multi-frame vector.
//!
//! What the inputs cover: a root origin; owners as their label under
//! the origin (in `rzu4_com`) and behind the escape (outside the
//! origin, and under the root origin); inline (≤ 22 bytes) and interned
//! names; NS hosts both
//! first-seen and repeated; suffixes that
//! compress against the origin, against an earlier owner name and
//! against an earlier NS host; all three delta sections; a chunk train
//! from offset 0 and from a resume offset; and two frames longer than
//! 16 KiB: in a delta frame, a host name first seen past offset 0x3FFF
//! can never become a pointer target and must be spelled out in every
//! later set that holds it; in `RZUC`, an NS set first used there is
//! referenced by its table index, like any other.

use darkdns::broker::transport::{
    duplex, ClientEvent, FrameConn, LengthPrefixed, TransportClient, TransportError,
};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns::dns::record::SoaData;
use darkdns::dns::wire::{
    decode_delta_push, decode_hello, decode_lookup_request, decode_lookup_response,
    decode_snapshot_chunk, decode_stats_report, delta_envelope_header, encode_delta_push,
    encode_hello, encode_lookup_request, encode_lookup_response, encode_snapshot_chunks,
    encode_stats_report, peek_delta_push_serials, Header, HelloFrame, LookupAnswer, LookupQuery,
    Message, Rcode, ServerStats, ShardStats, SnapshotResume, StatsReport, TldClaim, WireError,
    WireSubscriberStats, LOOKUP_ANY_TLD,
};
use darkdns::dns::diff::NsChange;
use darkdns::dns::{
    DomainName, NsSet, RData, RecordType, ResourceRecord, Serial, ZoneDelta, ZoneSnapshot,
};
use darkdns::edge::EdgeClient;
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

fn ns(hosts: &[&str]) -> NsSet {
    NsSet::new(hosts.iter().map(|h| name(h)).collect())
}

/// A response exercising every RDATA shape, a root owner name, and
/// compression across sections (owner names, NS/MX/CNAME targets, SOA).
fn message() -> Message {
    let mut msg = Message::query(0xBEEF, name("www.example.com"), RecordType::A);
    msg.header = Header::response_to(&msg.header, Rcode::NoError);
    msg.header.authoritative = true;
    msg.answers = vec![
        ResourceRecord::new(name("www.example.com"), 300, RData::Cname(name("cdn.example.net"))),
        ResourceRecord::new(name("cdn.example.net"), 60, RData::A("192.0.2.1".parse().unwrap())),
        ResourceRecord::new(name("cdn.example.net"), 60, RData::Aaaa("2001:db8::1".parse().unwrap())),
        ResourceRecord::new(
            name("example.com"),
            3600,
            RData::Mx { preference: 10, exchange: name("mail.example.com") },
        ),
        ResourceRecord::new(name("example.com"), 3600, RData::Txt(b"v=spf1 -all".to_vec())),
    ];
    msg.authorities = vec![
        ResourceRecord::new(name("example.com"), 86_400, RData::Ns(name("ns1.example.com"))),
        ResourceRecord::new(
            name("example.com"),
            86_400,
            RData::Ns(name("a-name-server-well-past-the-inline-bound.example.org")),
        ),
        ResourceRecord::new(
            DomainName::root(),
            86_400,
            RData::Soa(SoaData {
                mname: name("a.root-servers.net"),
                rname: name("nstld.verisign-grs.com"),
                serial: 2_024_010_100,
                refresh: 1800,
                retry: 900,
                expire: 604_800,
                minimum: 86_400,
            }),
        ),
    ];
    msg.additionals = vec![ResourceRecord::new(
        name("mail.example.com"),
        60,
        RData::A("192.0.2.2".parse().unwrap()),
    )];
    msg
}

/// A root-origin delta with all three sections: inline and interned
/// owners, NS sets and hosts repeated within and across sections, and
/// owners that are themselves suffixes of later NS hosts.
fn delta() -> ZoneDelta {
    let cloudflare = ns(&["ns1.cloudflare.com", "ns2.cloudflare.com"]);
    let long = ns(&["ns1.a-dns-provider-with-a-long-name.example", "ns2.cloudflare.com"]);
    let self_hosted = ns(&["ns1.alpha.com", "ns2.alpha.com"]);
    let mut delta = ZoneDelta::default();
    delta.added.push((name("alpha.com"), cloudflare.clone()));
    delta.added.push((name("an-interned-registration-label.com"), long.clone()));
    delta.added.push((name("bravo.net"), self_hosted));
    delta.added.push((name("charlie.net"), cloudflare.clone()));
    delta.removed.push((name("gone.org"), long.clone()));
    delta.removed.push((name("xn--bcher-kva.example"), ns(&["ns.xn--bcher-kva.example"])));
    delta.changed.push(NsChange {
        domain: name("moved.com"),
        old_ns: cloudflare,
        new_ns: long,
    });
    delta
}

fn rzu4() -> Vec<u8> {
    encode_delta_push(
        &DomainName::root(),
        Serial::new(41),
        Serial::new(45),
        SimTime::from_secs(1_700_000_000),
        &delta(),
    )
    .to_vec()
}

/// [`delta`] under `com`: owner labels (`alpha`, `moved`, the interned
/// one) beside owners outside the origin behind the escape.
fn rzu4_com() -> Vec<u8> {
    encode_delta_push(
        &name("com"),
        Serial::new(41),
        Serial::new(45),
        SimTime::from_secs(1_700_000_000),
        &delta(),
    )
    .to_vec()
}

/// Longer than 16 KiB. Every entry brings a first-seen NS host, so the
/// compression table is still being fed when the write offset crosses
/// 0x3FFF, and every entry's set is distinct, so each is defined inline;
/// `late.never-a-pointer-target.example` (no suffix of which occurs
/// earlier) first appears after that point and is then reused by the
/// remaining entries' sets — spelled out in full every time.
fn rzu4_big() -> Vec<u8> {
    let mut delta = ZoneDelta::default();
    for i in 0..700u32 {
        let own = format!("ns.host-{i:04}.provider{}.net", i % 7);
        let hosts: Vec<&str> = if i >= 600 {
            vec![own.as_str(), "late.never-a-pointer-target.example"]
        } else {
            vec![own.as_str(), "early.example-dns.org"]
        };
        delta.added.push((name(&format!("domain-{i:05}.com")), ns(&hosts)));
    }
    encode_delta_push(
        &name("com"),
        Serial::new(7),
        Serial::new(8),
        SimTime::from_secs(86_400),
        &delta,
    )
    .to_vec()
}

/// Labels under `com` of every length class mod 3 (1 to 6 characters,
/// and 61 to 63), with `-` and `_` and the alphabet's first and last
/// symbols, on two sets; `www.example.com` is the one owner behind the
/// escape.
fn label_entries() -> Vec<(DomainName, NsSet)> {
    let long = format!("q{}", "-_9".repeat(20));
    let labels = [
        "a",
        "z9",
        "_tc",
        "a-b_",
        "x--y_",
        "0-_-_9",
        "_",
        "zz",
        "zzz",
        long.as_str(),
        &format!("{long}z"),
        &format!("{long}zz"),
    ];
    let sets = [ns(&["ns1.cloudflare.com", "ns2.cloudflare.com"]), ns(&["ns.x_y-z.example"])];
    labels
        .iter()
        .map(|label| name(&format!("{label}.com")))
        .chain([name("www.example.com")])
        .enumerate()
        .map(|(i, owner)| (owner, sets[i % 2].clone()))
        .collect()
}

/// [`label_entries`] in all three sections: the last but one removed,
/// the last (the escaped owner) moved to the other set.
fn label_delta() -> ZoneDelta {
    let mut added = label_entries();
    let (moved, old_ns) = added.pop().unwrap();
    let removed = vec![added.pop().unwrap()];
    let new_ns = added[0].1.clone();
    ZoneDelta { added, removed, changed: vec![NsChange { domain: moved, old_ns, new_ns }] }
}

fn rzu4_labels() -> Vec<u8> {
    encode_delta_push(
        &name("com"),
        Serial::new(9),
        Serial::new(10),
        SimTime::from_secs(3_600),
        &label_delta(),
    )
    .to_vec()
}

fn label_snapshot() -> ZoneSnapshot {
    let entries =
        label_entries().into_iter().map(|(owner, ns)| (owner, ns.as_slice().to_vec())).collect();
    ZoneSnapshot::from_entries(name("com"), Serial::new(10), SimTime::from_secs(3_600), entries)
}

fn snapshot() -> ZoneSnapshot {
    let entries = (0..48u32)
        .map(|i| {
            let domain = if i % 6 == 0 {
                name(&format!("a-registration-longer-than-inline-{i:02}.com"))
            } else {
                name(&format!("domain-{i:02}.com"))
            };
            let hosts = match i % 4 {
                0 => vec![name("ns1.cloudflare.com"), name("ns2.cloudflare.com")],
                1 => vec![name("ns1.domaincontrol.com")],
                2 => vec![name(&format!("ns.domain-{:02}.com", i - 1)), name("ns2.cloudflare.com")],
                _ => vec![name(&format!("ns{i}.first-seen-provider.example"))],
            };
            (domain, hosts)
        })
        .collect();
    ZoneSnapshot::from_entries(name("com"), Serial::new(33), SimTime::from_secs(120), entries)
}

/// Entries of [`big_snapshot`] carried by the three early sets, and by
/// the four late ones.
const BIG_EARLY: usize = 600;
const BIG_LATE: usize = 100;
const BIG_LATE_SETS: usize = 4;

/// One chunk longer than 16 KiB: 600 interned owners over three early
/// NS sets carry the write offset well past 0x3FFF, then four sets
/// first used there are each named by 25 entries.
fn big_snapshot() -> ZoneSnapshot {
    let set = |tag: &str| {
        vec![
            name(&format!("ns1.{tag}.set-table-hosting.example")),
            name(&format!("ns2.{tag}.set-table-hosting.example")),
        ]
    };
    let entries = (0..BIG_EARLY + BIG_LATE)
        .map(|i| {
            let hosts = if i < BIG_EARLY {
                set(&format!("early-{}", i % 3))
            } else {
                set(&format!("late-{}", i % BIG_LATE_SETS))
            };
            (name(&format!("a-registration-past-the-inline-bound-{i:05}.com")), hosts)
        })
        .collect();
    ZoneSnapshot::from_entries(name("com"), Serial::new(8), SimTime::from_secs(86_400), entries)
}

fn rzul() -> Vec<u8> {
    let queries = [
        LookupQuery { tld: 0, name: name("example.com") },
        LookupQuery { tld: 3, name: name("a-rather-long-registration-label.net") },
        LookupQuery { tld: LOOKUP_ANY_TLD, name: name("example.com") },
        LookupQuery { tld: 0, name: name("www.example.com") },
        LookupQuery { tld: 9, name: DomainName::root() },
        LookupQuery { tld: 3, name: name("other.net") },
    ];
    encode_lookup_request(0xDEAD_BEEF_0BAD_CAFE, &queries).to_vec()
}

/// Lookup answers beside their query TLDs: present and absent rows,
/// `ANY` rows with and without a first-seen, a TLD the edge does not
/// serve, TLD 0 repeated, TLDs 0 and 3 at one serial (two slots), and
/// TLD 0 again at a second serial.
fn lookup_answers() -> Vec<(u16, LookupAnswer)> {
    let row = |tld: u16, present: bool, serial: Option<u32>, first_seen: Option<u64>| {
        let answer = LookupAnswer {
            present,
            serial: serial.map(Serial::new),
            first_seen: first_seen.map(SimTime::from_secs),
        };
        (tld, answer)
    };
    vec![
        row(0, true, Some(41), None),
        row(0, false, Some(41), None),
        row(LOOKUP_ANY_TLD, true, None, Some(86_400)),
        row(LOOKUP_ANY_TLD, false, None, None),
        row(3, true, Some(41), Some(1_700_000_000)),
        row(9, false, None, None),
        row(0, true, Some(41), Some(3_600)),
        row(3, false, Some(41), None),
        row(0, true, Some(42), None),
        row(513, true, Some(0xFFFF_FFF0), None),
    ]
}

/// A batch over 70 TLDs, each at its own serial, then TLD 5 again (a
/// slot) and TLD 65 again (past the table, inline a second time).
fn lookup_answers_wide() -> Vec<(u16, LookupAnswer)> {
    (0..70u16)
        .chain([5, 65])
        .map(|tld| {
            let serial = Some(Serial::new(1000 + u32::from(tld)));
            (tld, LookupAnswer { present: tld % 3 != 0, serial, first_seen: None })
        })
        .collect()
}

/// The two `RZUA` frames: request and epoch ids as an edge would echo
/// them, over [`lookup_answers`] and [`lookup_answers_wide`].
fn rzua() -> Vec<Vec<u8>> {
    vec![
        encode_lookup_response(0xDEAD_BEEF_0BAD_CAFE, 77, &lookup_answers()).to_vec(),
        encode_lookup_response(2, 78, &lookup_answers_wide()).to_vec(),
    ]
}

/// HELLO claims covering both flag values, TLD 0 and the `u16` edge,
/// and a serial in the upper half of the sequence space.
fn hello_claims() -> Vec<TldClaim> {
    vec![
        TldClaim { tld: 0, from_serial: Some(Serial::new(41)) },
        TldClaim { tld: 7, from_serial: None },
        TldClaim { tld: 513, from_serial: Some(Serial::new(0)) },
        TldClaim { tld: u16::MAX, from_serial: Some(Serial::new(0xFFFF_FFF0)) },
    ]
}

/// Two shards cut mid-train: one a few chunks in, one at entry 0 of a
/// train it had only just been promised.
fn hello_resume() -> Vec<(u16, SnapshotResume)> {
    vec![
        (7, SnapshotResume { serial: Serial::new(33), entries: 29 }),
        (513, SnapshotResume { serial: Serial::new(0xFFFF_FFF0), entries: 0 }),
    ]
}

/// An `RZUQ` report with every server counter distinct and non-zero,
/// two shard rows, and two subscriber rows: one with no claims, one
/// with a bootstrap (`None`) claim and a serial claim.
fn stats_report() -> StatsReport {
    let shard = |tld: u16, base: u64| ShardStats {
        tld,
        head_serial: Serial::new(0xFFFF_F000 + tld as u32),
        subscribers: base + 1,
        pushes: base + 2,
        frame_bytes: base + 3,
        checkpoints: base + 4,
        retained_deltas: base + 5,
        retired_deltas: base + 6,
        deliveries: base + 7,
        lagged_messages: base + 8,
        evictions: base + 9,
        snapshot_catchups: base + 10,
        delta_catchups: base + 11,
        lock_contentions: base + 12,
        coalesced_frames: base + 13,
    };
    StatsReport {
        server: ServerStats {
            accepted: 101,
            handshakes: 102,
            rejected_hellos: 103,
            deltas_sent: 0x0102_0304_0506_0708,
            snapshots_sent: 105,
            evict_notices: 106,
            disconnects: 107,
            coalesced_writes: 108,
            coalesced_frames: 109,
            stats_queries: u64::MAX,
            ..Default::default()
        },
        shards: vec![shard(0, 1_000), shard(513, 2_000_000_000_000)],
        subs: vec![
            WireSubscriberStats {
                id: 7,
                queue_depth: 1,
                lag_drops: 2,
                coalesced_frames: 3,
                buffered_bytes: 4,
                claims: vec![],
            },
            WireSubscriberStats {
                id: u64::MAX - 1,
                queue_depth: 64,
                lag_drops: 0,
                coalesced_frames: 9_000,
                buffered_bytes: 1 << 20,
                claims: vec![
                    TldClaim { tld: 0, from_serial: None },
                    TldClaim { tld: 513, from_serial: Some(Serial::new(0xFFFF_FFF0)) },
                ],
            },
        ],
    }
}

/// An `RZUQ` report in the shape an edge server's scrape reply carries
/// (the edge dialect): the server row carries only the mapped counters,
/// each shard row only `head_serial`, `subscribers` (open connections)
/// and `pushes` (the epoch generation, the same in every row), and
/// there are no subscriber rows.
fn edge_stats_report() -> StatsReport {
    let shard = |tld: u16, serial: u32| ShardStats {
        tld,
        head_serial: Serial::new(serial),
        subscribers: 12,
        pushes: 0x0000_0001_0000_0002,
        ..Default::default()
    };
    StatsReport {
        server: ServerStats {
            accepted: 201,
            handshakes: 202,
            rejected_hellos: 203,
            deltas_sent: 0x1112_1314_1516_1718,
            disconnects: 207,
            stats_queries: 210,
            ..Default::default()
        },
        shards: vec![shard(2, 5), shard(513, 0xFFFF_FFF0)],
        subs: vec![],
    }
}

fn hello(resume: Vec<(u16, SnapshotResume)>) -> HelloFrame {
    HelloFrame { claims: hello_claims(), resume }
}

/// Every vector: fixture name and the frames the current encoder makes.
fn vectors() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let train = |snap: ZoneSnapshot, start, chunk_bytes| {
        encode_snapshot_chunks(7, &snap, start, chunk_bytes)
            .iter()
            .map(|f| f.to_vec())
            .collect::<Vec<_>>()
    };
    vec![
        ("message", vec![message().encode()]),
        ("rzu4", vec![rzu4()]),
        ("rzu4_com", vec![rzu4_com()]),
        ("rzu4_big", vec![rzu4_big()]),
        ("rzu4_labels", vec![rzu4_labels()]),
        ("rzuc_shared", train(snapshot(), 0, 256)),
        ("rzuc_shared_resumed", train(snapshot(), 29, 256)),
        ("rzuc_shared_big", train(big_snapshot(), 0, 1 << 20)),
        ("rzuc_shared_labels", train(label_snapshot(), 0, 128)),
        ("rzul", vec![rzul()]),
        ("rzua", rzua()),
        ("rzuh", vec![encode_hello(&hello(vec![])).to_vec()]),
        ("rzuh_resume", vec![encode_hello(&hello(hello_resume())).to_vec()]),
        ("rzuq", vec![encode_stats_report(&stats_report()).to_vec()]),
        ("rzuq_edge", vec![encode_stats_report(&edge_stats_report()).to_vec()]),
    ]
}

/// The fixture format: one line of hex per 32 bytes, frames separated
/// by a blank line.
fn to_hex(frames: &[&[u8]]) -> String {
    let mut out = String::new();
    for (i, frame) in frames.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        for line in frame.chunks(32) {
            for byte in line {
                out.push_str(&format!("{byte:02x}"));
            }
            out.push('\n');
        }
    }
    out
}

fn from_hex(text: &str) -> Vec<Vec<u8>> {
    text.split("\n\n")
        .map(|frame| {
            let digits: Vec<u8> = frame.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
            digits
                .chunks(2)
                .map(|pair| {
                    u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).expect("hex digit")
                })
                .collect::<Vec<u8>>()
        })
        .filter(|frame| !frame.is_empty())
        .collect()
}

fn fixture(name: &str) -> Vec<Vec<u8>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.hex"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    from_hex(&text)
}

#[test]
fn encoders_reproduce_the_parent_bytes() {
    for (name, frames) in vectors() {
        let golden = fixture(name);
        assert_eq!(frames.len(), golden.len(), "{name}: frame count changed");
        for (i, (got, want)) in frames.iter().zip(&golden).enumerate() {
            if got != want {
                let at = got
                    .iter()
                    .zip(want)
                    .position(|(a, b)| a != b)
                    .unwrap_or(got.len().min(want.len()));
                let window = |bytes: &[u8]| {
                    let line = at - at % 32;
                    to_hex(&[&bytes[line.min(bytes.len())..(line + 32).min(bytes.len())]])
                };
                panic!(
                    "{name} frame {i}: encoding diverges from the golden bytes at offset {at:#x} \
                     ({} bytes encoded, {} golden)\n encoded: {} golden: {}",
                    got.len(),
                    want.len(),
                    window(got),
                    window(want),
                );
            }
        }
    }
}

#[test]
fn golden_frames_decode_to_their_inputs() {
    // The fixtures, not the live encoder, feed the decoders here: a
    // decoder change that still round-trips its own encoder but misreads
    // the parent's bytes fails this test.
    assert_eq!(Message::decode(&fixture("message")[0]).unwrap(), message());

    let push = decode_delta_push(&fixture("rzu4")[0]).unwrap();
    assert!(push.origin.is_root());
    assert_eq!((push.from_serial, push.to_serial), (Serial::new(41), Serial::new(45)));
    assert_eq!(push.delta, delta());
    let push = decode_delta_push(&fixture("rzu4_com")[0]).unwrap();
    assert_eq!(push.origin, name("com"));
    assert_eq!(push.delta, delta());
    let push = decode_delta_push(&fixture("rzu4_labels")[0]).unwrap();
    assert_eq!(push.delta, label_delta());

    let big = decode_delta_push(&fixture("rzu4_big")[0]).unwrap();
    assert_eq!(big.delta.added.len(), 700);
    assert_eq!(big.delta.added[650].1.as_slice()[0], name("late.never-a-pointer-target.example"));

    for (vector, snap, start) in [
        ("rzuc_shared", snapshot(), 0usize),
        ("rzuc_shared_resumed", snapshot(), 29),
        ("rzuc_shared_big", big_snapshot(), 0),
        ("rzuc_shared_labels", label_snapshot(), 0),
    ] {
        let mut offset = start;
        for frame in fixture(vector) {
            let chunk = decode_snapshot_chunk(&frame).unwrap();
            assert_eq!(chunk.offset as usize, offset);
            for (i, (domain, hosts)) in chunk.entries.iter().enumerate() {
                assert_eq!(*domain, snap.domain_column()[offset + i]);
                assert_eq!(*hosts, snap.ns_column()[offset + i]);
            }
            offset += chunk.entries.len();
        }
        assert_eq!(offset, snap.len(), "{vector} must cover the tail exactly");
    }

    let (id, queries) = decode_lookup_request(&fixture("rzul")[0]).unwrap();
    assert_eq!(id, 0xDEAD_BEEF_0BAD_CAFE);
    assert_eq!(queries.len(), 6);
    assert!(queries[4].name.is_root());

    for (frame, (id, epoch, answers)) in fixture("rzua").iter().zip([
        (0xDEAD_BEEF_0BAD_CAFE, 77, lookup_answers()),
        (2, 78, lookup_answers_wide()),
    ]) {
        let response = decode_lookup_response(frame).unwrap();
        assert_eq!((response.request_id, response.epoch), (id, epoch));
        assert_eq!(response.answers, answers.iter().map(|&(_, a)| a).collect::<Vec<_>>());
    }

    // The HELLO family: each fixture decodes to exactly the sections
    // it carries, the legacy one to claims alone.
    for (vector, frame) in [("rzuh", hello(vec![])), ("rzuh_resume", hello(hello_resume()))] {
        assert_eq!(decode_hello(&fixture(vector)[0]).unwrap(), frame, "{vector}");
    }

    assert_eq!(decode_stats_report(&fixture("rzuq")[0]).unwrap(), stats_report());
    assert_eq!(decode_stats_report(&fixture("rzuq_edge")[0]).unwrap(), edge_stats_report());
}

/// Feed `retired` to a client that holds a claim and a half-received
/// chunk train for TLD 3 (the shard every retired vector is tagged with)
/// and check it closes with `BadMagic` and adopts nothing: the claims
/// and the train's progress are what they were.
fn assert_client_refuses(retired: &[u8], what: &str) {
    let claims = [(TldId(3), Some(Serial::new(5))), (TldId(7), None)];
    let (client_end, peer_end) = duplex(1 << 16);
    let mut client = TransportClient::connect(LengthPrefixed::new(client_end), &claims).unwrap();
    let mut peer = LengthPrefixed::new(peer_end);
    peer.recv_frame().expect("hello");

    let train = encode_snapshot_chunks(3, &snapshot(), 0, 256);
    let first = decode_snapshot_chunk(&train[0]).unwrap();
    assert!(!first.last && !first.entries.is_empty());
    peer.send_frame(&[&train[0]]).unwrap();
    peer.send_frame(&[]).unwrap();
    assert!(matches!(client.next_event(), ClientEvent::Idle));
    assert!(client.has_snapshot_in_flight());

    peer.send_frame(&[retired]).unwrap();
    match client.next_event() {
        ClientEvent::Closed(TransportError::Wire(WireError::BadMagic)) => {}
        other => panic!("{what}: expected Closed(BadMagic), got {other:?}"),
    }
    assert_eq!(client.claimed_serials(), &claims, "{what}");
    assert_eq!(client.snapshot_chunks_received(), 1, "{what}");
    let progress = client.take_snapshot_progress();
    assert_eq!(progress.len(), 1, "{what}");
    assert_eq!(progress[0].tld(), TldId(3), "{what}");
    assert_eq!(progress[0].entries_received(), first.entries.len(), "{what}");
}

#[test]
fn retired_rzus_frame_is_refused_with_claims_and_chunk_progress_untouched() {
    // `RZUS` was retired in PR 22: the vector is the last frame its
    // encoder wrote, and a client must treat it as any unknown magic —
    // close with `BadMagic`, adopt nothing. The frame is tagged TLD 3,
    // so the client holds a claim and a half-received chunk train for
    // that very shard: the receive arm this replaces would have
    // overwritten the one and dropped the other. `RZUE`, the eviction
    // notice whose magic was its whole body, is retired the same way.
    let rzus = fixture("rzus").remove(0);
    assert_eq!(&rzus[..6], b"RZUS\x00\x03");
    for retired in [&rzus[..], &b"RZUE"[..]] {
        assert_client_refuses(retired, &String::from_utf8_lossy(&retired[..4]));
    }
}

#[test]
fn retired_rzu1_frames_are_refused_by_codec_and_client() {
    // The delta layouts that spelled every NS set out (`RZU1`), every
    // owner as a name (`RZU2`) and owner labels a byte a character
    // (`RZU3`): their magics are reserved, and both the decoder and the
    // serial peek a relay runs refuse them rather than misread a `u16`
    // host count as a reference, an owner's label and origin pointer as
    // a short owner field, or a label's text as its packed groups.
    for (vector, magic) in [
        ("rzu1", b"RZU1"),
        ("rzu1_big", b"RZU1"),
        ("rzu2", b"RZU2"),
        ("rzu2_big", b"RZU2"),
        ("rzu3", b"RZU3"),
        ("rzu3_com", b"RZU3"),
        ("rzu3_big", b"RZU3"),
    ] {
        let frame = fixture(vector).remove(0);
        assert_eq!(&frame[..4], magic, "{vector}");
        assert_eq!(decode_delta_push(&frame), Err(WireError::BadMagic), "{vector}");
        assert_eq!(peek_delta_push_serials(&frame), Err(WireError::BadMagic), "{vector}");
    }
    // Carried in a delta envelope for the shard the client is mid-train
    // on, each closes the connection like any unknown magic.
    for vector in ["rzu1", "rzu2", "rzu3_com"] {
        let mut envelope = delta_envelope_header(3).to_vec();
        envelope.extend_from_slice(&fixture(vector)[0]);
        assert_client_refuses(&envelope, &format!("RZUD + {vector}"));
    }
}

#[test]
fn retired_rzur_frame_is_refused_by_codec_and_client() {
    // `RZUR` spelled every row's serial out behind flag bit 1. Read under
    // the `RZUA` flag byte, its `0x03` rows would be present rows with a
    // first-seen, and the frame would decode to other answers or fail
    // somewhere inside; its magic is reserved instead, so the decoder
    // refuses it whole and a client fails the lookup.
    let rzur = fixture("rzur").remove(0);
    assert_eq!(&rzur[..4], b"RZUR");
    assert_eq!(decode_lookup_response(&rzur), Err(WireError::BadMagic));
    let mut relabeled = rzur.clone();
    relabeled[..4].copy_from_slice(b"RZUA");
    let answers: Vec<LookupAnswer> = lookup_answers().iter().map(|&(_, a)| a).collect();
    assert_ne!(decode_lookup_response(&relabeled).map(|r| r.answers), Ok(answers));

    // The reply waits in the pipe before the client's first request
    // (id 1, which the frame is re-stamped with), so only its magic
    // can fail the call.
    let (client_end, peer_end) = duplex(1 << 16);
    let mut peer = LengthPrefixed::new(peer_end);
    let mut reply = rzur;
    reply[4..12].copy_from_slice(&1u64.to_be_bytes());
    peer.send_frame(&[&reply]).unwrap();
    let mut client = EdgeClient::new(LengthPrefixed::new(client_end));
    let queries = [LookupQuery { tld: 0, name: name("example.com") }];
    match client.lookup(&queries) {
        Err(TransportError::Wire(WireError::BadMagic)) => {}
        other => panic!("expected a BadMagic lookup error, got {other:?}"),
    }
    let (id, asked) = decode_lookup_request(&peer.recv_frame().unwrap()).unwrap();
    assert_eq!((id, asked.as_slice()), (1, &queries[..]));
}

#[test]
fn scoped_hello_is_refused_on_its_trailing_byte_by_codec_and_live_server() {
    // The fixture is the legacy frame, an empty resume section and the
    // delta-only scope byte `1`: one byte past the last layout there is.
    let scoped = fixture("rzuh_scoped").remove(0);
    let legacy = fixture("rzuh").remove(0);
    assert_eq!(scoped[..legacy.len()], legacy[..]);
    assert_eq!(scoped[legacy.len()..], [0, 0, 1]);
    assert_eq!(decode_hello(&scoped), Err(WireError::TrailingBytes(1)));

    // Every claimed shard exists, so the byte alone decides.
    let broker = Broker::new(BrokerConfig::default());
    for claim in hello_claims() {
        let empty = ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, vec![]);
        broker.add_shard(TldId(claim.tld), empty);
    }
    let server = BrokerServer::new(broker.clone(), TransportConfig::default());
    let send = |frame: &[u8]| {
        let (client_end, server_end) = duplex(1 << 16);
        server.serve_conn(LengthPrefixed::new(server_end));
        let mut conn = LengthPrefixed::new(client_end);
        conn.send_frame(&[frame]).expect("hello");
        conn
    };
    let settled = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    };

    let _refused = send(&scoped);
    settled("the rejection", &|| server.stats().rejected_hellos == 1);
    assert_eq!(server.stats().handshakes, 0);
    assert_eq!(broker.subscriber_count(), 0);
    assert!(server.stats_report().subs.is_empty());

    // The same claims without the byte subscribe.
    let _accepted = send(&legacy);
    settled("the control handshake", &|| server.stats().handshakes == 1);
    assert_eq!(server.stats().rejected_hellos, 1);
    assert_eq!(broker.subscriber_count(), 1);
    server.shutdown();
}

/// Offset of an `RZUC` frame's flags byte behind magic, `u16` TLD, the
/// 5-byte origin `com`, serial, taken-at, total and offset.
const RZUC_FLAGS_AT: usize = 4 + 2 + 5 + 4 + 8 + 4 + 4;

/// Refuse every frame of each of `vectors` on its flags byte, which
/// must be one `earlier` layout's (or that plus the last bit); and check
/// a client handed the first frame closes on it and keeps no partial
/// train.
fn assert_refused_on_flags(vectors: &[&str], earlier: u8) {
    for vector in vectors {
        for frame in fixture(vector) {
            let flags = frame[RZUC_FLAGS_AT];
            assert_eq!(flags & !1, earlier, "{vector}: flags {flags:#04x}");
            assert_eq!(decode_snapshot_chunk(&frame), Err(WireError::BadFlags(flags)));
        }
    }
    let claims = [(TldId(7), None)];
    let (client_end, peer_end) = duplex(1 << 16);
    let mut client = TransportClient::connect(LengthPrefixed::new(client_end), &claims).unwrap();
    let mut peer = LengthPrefixed::new(peer_end);
    peer.recv_frame().expect("hello");
    peer.send_frame(&[&fixture(vectors[0])[0]]).unwrap();
    match client.next_event() {
        ClientEvent::Closed(TransportError::Wire(WireError::BadFlags(f))) if f == earlier => {}
        other => panic!("expected Closed(BadFlags({earlier})), got {other:?}"),
    }
    assert!(!client.has_snapshot_in_flight());
    assert_eq!(client.snapshot_chunks_received(), 0);
    assert_eq!(client.claimed_serials(), &claims);
}

#[test]
fn pre_table_rzuc_frames_are_refused_on_their_flags() {
    // The trains as the encoder wrote them before the NS-set table:
    // flags bit 1 clear, each set spelled out where a reference now
    // stands. Read as the table layout, the first set's `u16` count
    // would be a reference; the flags byte refuses the frame first.
    assert_refused_on_flags(&["rzuc", "rzuc_resumed"], 0);
    for vector in ["rzuc_shared", "rzuc_shared_resumed", "rzuc_shared_big", "rzuc_shared_labels"] {
        for frame in fixture(vector) {
            assert_eq!(frame[RZUC_FLAGS_AT] & !1, 30, "{vector}");
        }
    }
}

#[test]
fn owner_name_rzuc_frames_are_refused_on_their_flags() {
    // The trains as the encoder wrote them before owner labels: flags
    // bit 2 clear, every owner a name. Read as the owner-label layout,
    // `a-registration-…`'s first label would pass for a short owner and
    // its origin pointer for the reference; the flags byte refuses the
    // frame first.
    assert_refused_on_flags(&["rzuc_table", "rzuc_table_resumed", "rzuc_table_big"], 2);
}

#[test]
fn plain_label_rzuc_frames_are_refused_on_their_flags() {
    // The trains as the encoder wrote them before packed labels: flags
    // bit 3 clear, each owner label a byte a character. Read as packed,
    // `domain-01`'s text would be groups out of range or another label;
    // the flags byte refuses the frame first.
    assert_refused_on_flags(&["rzuc_owner", "rzuc_owner_resumed", "rzuc_owner_big"], 6);
}

#[test]
fn whole_label_rzuc_frames_are_refused_on_their_flags() {
    // The trains as the encoder wrote them before front coding: flags
    // bit 4 clear, each label packed whole. Read as front-coded, a label
    // sharing characters with the one before would be refused as
    // spelled the long way and one sharing none would read as it was;
    // the flags byte refuses the whole frame first.
    assert_refused_on_flags(
        &["rzuc_packed", "rzuc_packed_resumed", "rzuc_packed_big", "rzuc_packed_labels"],
        14,
    );
}

/// One entry of an `RZUC` chunk as a walk of its bytes sees it: where
/// its set reference starts, how many bytes it takes, the index it
/// names, and whether a definition follows it.
struct EntryRef {
    at: usize,
    len: usize,
    index: u32,
    defines: bool,
}

/// Walk an `RZUC` chunk's entries by the layout's rules alone.
fn entry_refs(frame: &[u8]) -> Vec<EntryRef> {
    fn skip_name(frame: &[u8], mut at: usize) -> usize {
        loop {
            match frame[at] {
                0 => return at + 1,
                len if len & 0xC0 == 0xC0 => return at + 2,
                len => at += 1 + len as usize,
            }
        }
    }
    let mut at = RZUC_FLAGS_AT + 1;
    let count = u32::from_be_bytes(frame[at..at + 4].try_into().unwrap());
    at += 4;
    let mut defined = 0;
    let mut refs = Vec::new();
    for _ in 0..count {
        // The owner field: the packed rest of its label under the
        // origin (the count in the low six bits, the share in the top
        // two), or the escape and a name.
        at = match frame[at] {
            0 => skip_name(frame, at + 1),
            byte => at + 1 + (2 * (byte & 63) as usize).div_ceil(3),
        };
        let start = at;
        let (mut index, mut shift) = (0u32, 0);
        loop {
            let byte = frame[at];
            at += 1;
            index |= u32::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                break;
            }
        }
        let entry = EntryRef { at: start, len: at - start, index, defines: index == defined };
        if entry.defines {
            let hosts = u16::from_be_bytes([frame[at], frame[at + 1]]);
            at += 2;
            for _ in 0..hosts {
                at = skip_name(frame, at);
            }
            defined += 1;
        }
        refs.push(entry);
    }
    assert_eq!(at, frame.len(), "the walk must end at the frame's end");
    refs
}

#[test]
fn the_big_table_vector_names_late_sets_in_one_byte() {
    // The big delta vectors' pathology, undone: a set first used past
    // 0x3FFF is a table index like any other, so every later use is one
    // byte where name compression alone spelled its late host out in
    // full each time.
    let frame = &fixture("rzuc_shared_big")[0];
    assert!(frame.len() > 0x4000 + 1024, "only {} bytes", frame.len());
    let refs = entry_refs(frame);
    assert_eq!(refs.len(), BIG_EARLY + BIG_LATE);
    let late = &refs[BIG_EARLY..];
    // The early sets are 0–2, the late ones 3–6, each defined once.
    let definitions: Vec<&EntryRef> = late.iter().filter(|r| r.defines).collect();
    assert_eq!(definitions.len(), BIG_LATE_SETS);
    for def in &definitions {
        assert!(def.at > 0x3FFF, "set {} defined at {:#x}", def.index, def.at);
    }
    let uses: Vec<&EntryRef> = late.iter().filter(|r| !r.defines).collect();
    assert_eq!(uses.len(), BIG_LATE - BIG_LATE_SETS);
    for used in uses {
        let (index, len) = (used.index, used.len);
        assert!((3..7).contains(&index) && len == 1, "set {index} named in {len} bytes");
    }
    assert!(refs[..BIG_EARLY].iter().all(|r| r.len == 1 && r.index < 3));
}

/// Offsets into the `rzuq` fixture: the `u16` shard count, the `u16`
/// subscriber count behind the two 110-byte shard rows, and the second
/// subscriber's `u16` claim count behind the first row's 42 bytes and
/// its own five counters.
const RZUQ_SHARD_COUNT_AT: usize = 4 + 10 * 8;
const RZUQ_SUB_COUNT_AT: usize = RZUQ_SHARD_COUNT_AT + 2 + 2 * 110;
const RZUQ_CLAIM_COUNT_AT: usize = RZUQ_SUB_COUNT_AT + 2 + 42 + 5 * 8;

#[test]
fn stats_report_rejects_oversized_counts_and_trailing_bytes() {
    let golden = fixture("rzuq").remove(0);
    assert_eq!(golden.len(), RZUQ_CLAIM_COUNT_AT + 2 + 2 * 7);
    for (what, at) in [
        ("shard", RZUQ_SHARD_COUNT_AT),
        ("subscriber", RZUQ_SUB_COUNT_AT),
        ("claim", RZUQ_CLAIM_COUNT_AT),
    ] {
        // One more row than the frame carries, and the largest count
        // the field can hold: both must fail before any row is read
        // past the end, never panic or over-allocate.
        let held = u16::from_be_bytes([golden[at], golden[at + 1]]);
        for count in [held + 1, u16::MAX] {
            let mut frame = golden.clone();
            frame[at..at + 2].copy_from_slice(&count.to_be_bytes());
            assert_eq!(
                decode_stats_report(&frame),
                Err(WireError::Truncated),
                "{what} count {count} over a frame that holds {held}"
            );
        }
    }
    let mut frame = golden.clone();
    frame.push(0);
    assert_eq!(decode_stats_report(&frame), Err(WireError::TrailingBytes(1)));
}

#[test]
fn the_big_vector_crosses_the_pointer_horizon() {
    // Guards the fixtures themselves: the property they exist for is
    // that a name is first seen past 0x3FFF and then repeated
    // uncompressed, in the retired layouts and in the current one.
    let mut needle = Vec::new();
    for label in ["late", "never-a-pointer-target", "example"] {
        needle.push(label.len() as u8);
        needle.extend_from_slice(label.as_bytes());
    }
    needle.push(0);
    for vector in ["rzu1_big", "rzu2_big", "rzu3_big", "rzu4_big"] {
        let frame = &fixture(vector)[0];
        assert!(frame.len() > 0x4000 + 1024, "{vector}: only {} bytes", frame.len());
        let hits: Vec<usize> = frame
            .windows(needle.len())
            .enumerate()
            .filter(|(_, w)| *w == needle.as_slice())
            .map(|(at, _)| at)
            .collect();
        assert_eq!(hits.len(), 100, "{vector}: every late host must be spelled out");
        let first = hits[0];
        assert!(first > 0x3FFF, "{vector}: first occurrence at {first:#x} is a pointer target");
    }
}
