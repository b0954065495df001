//! Golden byte-identity vectors for the name-carrying wire codecs.
//!
//! The fixtures under `tests/golden/` are the exact bytes the `String`-
//! keyed, `labels()`-walking encoder of PR 12 (commit 46f065f) produced
//! for the inputs built below; the allocation-free encoder that replaced
//! it must reproduce every one of them byte for byte. Relays re-serve
//! `RZU1` frames verbatim and the benchmark gates `wire_bytes_per_op`
//! exactly, so a codec "optimisation" that moves a single compression
//! pointer is a protocol change, not a refactor — these vectors are what
//! says so. They double as ROADMAP's "legacy layouts as pinned test
//! vectors" for the `Message`, `RZU1`, `RZUC` and `RZUL` frames.
//! `rzus.hex` is the monolithic snapshot push as its encoder last wrote
//! it: the family was retired in PR 22, nothing encodes or decodes it,
//! and the vector now feeds the test that a client refuses it.
//!
//! The three `rzuh*` vectors pin the HELLO family the same way — bytes
//! from the three encoders that stood before the upstream-link refactor
//! (commit 45429dd): the legacy claims-only layout, the resume-extended
//! layout, and a `DeltaOnly`-scoped frame. One `encode_hello` over a
//! `HelloFrame` has replaced the three and must keep emitting exactly
//! these; `rzuq` pins the stats report — whose subscriber rows share
//! the HELLO's claim-row codec — with bytes from the encoder as it
//! stood before that collapse (commit ed71249). `rzuq_edge` is the same
//! family in the shape an edge server reports (mapped server row, shard
//! rows carrying serial, connections and epoch, no subscriber rows),
//! written by the hand-unrolled encoder as it last stood (commit
//! 37417d2), before the row-loop codec replaced it.
//!
//! Fixture format: lower-case hex, wrapped at 32 bytes per line, one
//! blank line between the frames of a multi-frame vector.
//!
//! What the inputs cover: a root origin; inline (≤ 22 bytes) and
//! interned names; NS hosts both first-seen and repeated; suffixes that
//! compress against the origin, against an earlier owner name and
//! against an earlier NS host; all three delta sections; a chunk train
//! from offset 0 and from a resume offset; and one frame longer than
//! 16 KiB, where a name first seen past offset 0x3FFF can never become
//! a pointer target and must be spelled out on every later occurrence.

use darkdns::broker::transport::{
    duplex, ClientEvent, FrameConn, LengthPrefixed, TransportClient, TransportError,
};
use darkdns::dns::record::SoaData;
use darkdns::dns::wire::{
    decode_delta_push, decode_hello, decode_lookup_request, decode_snapshot_chunk,
    decode_stats_report, encode_delta_push, encode_hello, encode_lookup_request,
    encode_snapshot_chunks, encode_stats_report,
    Header, HelloFrame, HelloScope, LookupQuery, Message, Rcode, ServerStats, ShardStats,
    SnapshotResume, StatsReport, TldClaim, WireError, WireSubscriberStats, LOOKUP_ANY_TLD,
};
use darkdns::dns::diff::NsChange;
use darkdns::dns::{
    DomainName, NsSet, RData, RecordType, ResourceRecord, Serial, ZoneDelta, ZoneSnapshot,
};
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
/// owners, NS hosts repeated within and across sections, and owners that
/// are themselves suffixes of later NS hosts.
fn rzu1_delta() -> ZoneDelta {
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

fn rzu1() -> Vec<u8> {
    encode_delta_push(
        &DomainName::root(),
        Serial::new(41),
        Serial::new(45),
        SimTime::from_secs(1_700_000_000),
        &rzu1_delta(),
    )
    .to_vec()
}

/// Longer than 16 KiB. Every entry brings a first-seen NS host, so the
/// compression table is still being fed when the write offset crosses
/// 0x3FFF; `late.never-a-pointer-target.example` (no suffix of which
/// occurs earlier) first appears after that point and is then reused by
/// the remaining entries — spelled out in full every time.
fn rzu1_big() -> Vec<u8> {
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

/// An `RZUQ` report in the shape `EdgeServer::stats_report()` builds
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

fn hello(resume: Vec<(u16, SnapshotResume)>, scope: HelloScope) -> HelloFrame {
    HelloFrame { claims: hello_claims(), resume, scope }
}

/// Every vector: fixture name and the frames the current encoder makes.
fn vectors() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let snap = snapshot();
    let train = |start| {
        encode_snapshot_chunks(7, &snap, start, 256).iter().map(|f| f.to_vec()).collect::<Vec<_>>()
    };
    vec![
        ("message", vec![message().encode()]),
        ("rzu1", vec![rzu1()]),
        ("rzu1_big", vec![rzu1_big()]),
        ("rzuc", train(0)),
        ("rzuc_resumed", train(29)),
        ("rzul", vec![rzul()]),
        ("rzuh", vec![encode_hello(&hello(vec![], HelloScope::Full)).to_vec()]),
        ("rzuh_resume", vec![encode_hello(&hello(hello_resume(), HelloScope::Full)).to_vec()]),
        ("rzuh_scoped", vec![encode_hello(&hello(vec![], HelloScope::DeltaOnly)).to_vec()]),
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

    let push = decode_delta_push(&fixture("rzu1")[0]).unwrap();
    assert!(push.origin.is_root());
    assert_eq!((push.from_serial, push.to_serial), (Serial::new(41), Serial::new(45)));
    assert_eq!(push.delta, rzu1_delta());

    let big = decode_delta_push(&fixture("rzu1_big")[0]).unwrap();
    assert_eq!(big.delta.added.len(), 700);
    assert_eq!(big.delta.added[650].1.as_slice()[0], name("late.never-a-pointer-target.example"));

    let snap = snapshot();
    for (vector, start) in [("rzuc", 0usize), ("rzuc_resumed", 29)] {
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

    // The HELLO family: each fixture decodes to exactly the sections
    // it carries, the legacy one to claims alone.
    for (vector, frame) in [
        ("rzuh", hello(vec![], HelloScope::Full)),
        ("rzuh_resume", hello(hello_resume(), HelloScope::Full)),
        ("rzuh_scoped", hello(vec![], HelloScope::DeltaOnly)),
    ] {
        assert_eq!(decode_hello(&fixture(vector)[0]).unwrap(), frame, "{vector}");
    }

    assert_eq!(decode_stats_report(&fixture("rzuq")[0]).unwrap(), stats_report());
    assert_eq!(decode_stats_report(&fixture("rzuq_edge")[0]).unwrap(), edge_stats_report());
}

#[test]
fn retired_rzus_frame_is_refused_with_claims_and_chunk_progress_untouched() {
    // `RZUS` was retired in PR 22: the vector is the last frame its
    // encoder wrote, and a client must treat it as any unknown magic —
    // close with `BadMagic`, adopt nothing. The frame is tagged TLD 3,
    // so the client holds a claim and a half-received chunk train for
    // that very shard: the receive arm this replaces would have
    // overwritten the one and dropped the other.
    let rzus = fixture("rzus").remove(0);
    assert_eq!(&rzus[..6], b"RZUS\x00\x03");
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

    peer.send_frame(&[&rzus]).unwrap();
    match client.next_event() {
        ClientEvent::Closed(TransportError::Wire(WireError::BadMagic)) => {}
        other => panic!("expected Closed(BadMagic), got {other:?}"),
    }
    assert_eq!(client.claimed_serials(), &claims);
    assert_eq!(client.snapshot_chunks_received(), 1);
    let progress = client.take_snapshot_progress();
    assert_eq!(progress.len(), 1);
    assert_eq!(progress[0].tld(), TldId(3));
    assert_eq!(progress[0].entries_received(), first.entries.len());
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
    // Guards the fixture itself: the property it exists for is that a
    // name is first seen past 0x3FFF and then repeated uncompressed.
    let frame = &fixture("rzu1_big")[0];
    assert!(frame.len() > 0x4000 + 1024, "only {} bytes", frame.len());
    let mut needle = Vec::new();
    for label in ["late", "never-a-pointer-target", "example"] {
        needle.push(label.len() as u8);
        needle.extend_from_slice(label.as_bytes());
    }
    needle.push(0);
    let hits: Vec<usize> = frame
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle.as_slice())
        .map(|(at, _)| at)
        .collect();
    assert_eq!(hits.len(), 100, "every late host must be spelled out");
    assert!(hits[0] > 0x3FFF, "first occurrence at {:#x} is a legal pointer target", hits[0]);
}
