//! Property-based tests for the DNS substrate: names, PSL, RFC 1982
//! serials, the RFC 1035 wire codec, and the RZU transport codecs
//! (handshake, snapshot chunk train, delta envelope) against
//! adversarial bytes.

use darkdns::dns::record::SoaData;
use darkdns::dns::wire::{
    decode_delta_envelope, decode_delta_push, decode_hello, decode_snapshot_chunk, encode_hello,
    encode_snapshot_chunks, Header, HelloFrame, Message, Question, Rcode, TldClaim,
    DELTA_ENVELOPE_MAGIC, DELTA_PUSH_MAGIC, HELLO_MAGIC,
};
use darkdns::dns::{DomainName, PublicSuffixList, RData, RecordType, ResourceRecord, Serial};
use darkdns::dns::ZoneSnapshot;
use darkdns::sim::time::SimTime;
use proptest::prelude::*;

/// A valid LDH label: starts/ends alphanumeric, hyphens inside.
fn label_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?".prop_filter("LDH", |s| !s.is_empty() && s.len() <= 63)
}

/// A valid domain name of 1..=4 labels.
fn name_strategy() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(label_strategy(), 1..=4)
        .prop_map(|labels| DomainName::from_labels(labels).expect("labels are valid"))
}

fn rdata_strategy() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        name_strategy().prop_map(RData::Ns),
        name_strategy().prop_map(RData::Cname),
        (any::<u16>(), name_strategy())
            .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
        prop::collection::vec(any::<u8>(), 0..300).prop_map(RData::Txt),
        (name_strategy(), name_strategy(), any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(mname, rname, serial, refresh, retry)| RData::Soa(SoaData {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire: 604_800,
                minimum: 86_400,
            })),
    ]
}

fn record_strategy() -> impl Strategy<Value = ResourceRecord> {
    (name_strategy(), any::<u32>(), rdata_strategy())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

proptest! {
    #[test]
    fn name_parse_display_round_trips(name in name_strategy()) {
        let reparsed = DomainName::parse(name.as_str()).unwrap();
        prop_assert_eq!(&reparsed, &name);
        // Uppercasing the input must not change the result.
        let upper = DomainName::parse(&name.as_str().to_ascii_uppercase()).unwrap();
        prop_assert_eq!(&upper, &name);
    }

    #[test]
    fn parent_chain_terminates_at_root(name in name_strategy()) {
        let mut steps = 0usize;
        let mut current = name.clone();
        while let Some(parent) = current.parent() {
            prop_assert!(current.is_subdomain_of(&parent));
            prop_assert!(parent.label_count() + 1 == current.label_count() || parent.is_root());
            current = parent;
            steps += 1;
            prop_assert!(steps <= 5, "parent chain too long");
        }
        prop_assert!(current.is_root());
    }

    #[test]
    fn suffix_is_always_a_suffix(name in name_strategy(), take in 0usize..6) {
        let suffix = name.suffix(take);
        prop_assert!(name.is_subdomain_of(&suffix));
        prop_assert!(suffix.label_count() <= name.label_count());
    }

    #[test]
    fn child_then_parent_is_identity(name in name_strategy(), label in label_strategy()) {
        if name.as_str().len() + label.len() + 1 <= 253 {
            let child = name.child(&label).unwrap();
            prop_assert_eq!(child.parent().unwrap(), name);
        }
    }

    #[test]
    fn registrable_domain_is_idempotent(name in name_strategy()) {
        let psl = PublicSuffixList::builtin();
        if let Some(reg) = psl.registrable_domain(&name) {
            prop_assert!(name.is_subdomain_of(&reg));
            // Reducing again is a fixed point.
            prop_assert_eq!(psl.registrable_domain(&reg), Some(reg.clone()));
            // The registrable domain is never itself a public suffix.
            prop_assert!(!psl.is_public_suffix(&reg));
        }
    }

    #[test]
    fn serial_increments_stay_ordered(start in any::<u32>(), steps in 1u32..1000) {
        let s0 = Serial::new(start);
        let mut s = s0;
        for _ in 0..steps {
            s = s.next();
        }
        prop_assert!(s.is_newer_than(s0));
        prop_assert!(!s0.is_newer_than(s));
        prop_assert_eq!(s.distance_from(s0), steps);
    }

    #[test]
    fn serial_comparison_is_antisymmetric(a in any::<u32>(), b in any::<u32>()) {
        use std::cmp::Ordering;
        let (sa, sb) = (Serial::new(a), Serial::new(b));
        match (sa.compare(sb), sb.compare(sa)) {
            (Some(Ordering::Equal), Some(Ordering::Equal)) => prop_assert_eq!(a, b),
            (Some(Ordering::Less), Some(Ordering::Greater))
            | (Some(Ordering::Greater), Some(Ordering::Less)) => {}
            (None, None) => prop_assert_eq!(a.wrapping_sub(b), 1 << 31),
            other => prop_assert!(false, "asymmetric comparison: {:?}", other),
        }
    }

    #[test]
    fn wire_codec_round_trips_arbitrary_messages(
        id in any::<u16>(),
        qname in name_strategy(),
        answers in prop::collection::vec(record_strategy(), 0..6),
        authorities in prop::collection::vec(record_strategy(), 0..3),
        rcode in 0u8..6,
    ) {
        let mut msg = Message::query(id, qname, RecordType::Ns);
        msg.header = Header::response_to(&msg.header, Rcode::from_code(rcode));
        msg.answers = answers;
        msg.authorities = authorities;
        let decoded = Message::decode(&msg.encode()).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn wire_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Must return an error or a message, never panic.
        let _ = Message::decode(&bytes);
    }

    // The transport trust boundary: every decoder the broker's socket
    // transport runs on untrusted input must return an error on
    // arbitrary garbage — never panic, and never size an allocation
    // from an unvalidated count (the bounded-count discipline of
    // `decode_delta_push`, extended to the handshake and snapshot
    // codecs).
    #[test]
    fn transport_decoders_never_panic_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_hello(&bytes);
        let _ = decode_delta_envelope(&bytes);
        let _ = decode_delta_push(&bytes);
    }

    // Same property with a valid magic prefixed, so the fuzz bytes
    // reach the field decoders behind the magic check instead of
    // stopping at `BadMagic`.
    #[test]
    fn transport_decoders_never_panic_behind_valid_magics(
        magic_pick in 0usize..3,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let magics: [&[u8; 4]; 3] = [HELLO_MAGIC, DELTA_ENVELOPE_MAGIC, DELTA_PUSH_MAGIC];
        let mut framed = magics[magic_pick].to_vec();
        framed.extend_from_slice(&bytes);
        let _ = decode_hello(&framed);
        let _ = decode_delta_envelope(&framed);
        let _ = decode_delta_push(&framed);
    }

    #[test]
    fn hello_claims_round_trip(
        raw in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..40),
    ) {
        let claims: Vec<TldClaim> = raw
            .iter()
            .map(|&(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
            .collect();
        let hello = HelloFrame { claims, ..Default::default() };
        let frame = encode_hello(&hello);
        // Claims only is the legacy layout: magic, count, 7-byte rows.
        prop_assert_eq!(frame.len(), 6 + 7 * hello.claims.len());
        prop_assert_eq!(decode_hello(&frame).unwrap(), hello);
        // Any strict prefix is rejected: the codec demands exactly one
        // whole message per frame.
        prop_assert!(decode_hello(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn snapshot_push_round_trips_arbitrary_zones(
        tld in any::<u16>(),
        origin in name_strategy(),
        serial in any::<u32>(),
        entries in prop::collection::vec(
            (name_strategy(), prop::collection::vec(name_strategy(), 1..4)),
            0..20,
        ),
    ) {
        let snap = ZoneSnapshot::from_entries(
            origin,
            Serial::new(serial),
            SimTime::from_secs(u64::from(serial)),
            entries,
        );
        // One chunk size, well above any of these zones: the whole
        // snapshot crosses as a train and reassembles to an equal one.
        let mut entries = Vec::new();
        for frame in encode_snapshot_chunks(tld, &snap, 0, 1 << 16) {
            let chunk = decode_snapshot_chunk(&frame).unwrap();
            prop_assert_eq!(chunk.tld, tld);
            entries.extend(chunk.entries);
        }
        let decoded =
            ZoneSnapshot::from_ns_entries(*snap.origin(), snap.serial(), snap.taken_at(), entries);
        prop_assert_eq!(decoded, snap);
    }

    // One name, one encoding: whatever bytes a peer puts in its wire
    // labels — dots included — a name the decoder accepts has exactly
    // the labels the wire carried, spelled as the wire spelled them (up
    // to case). A dotted label used to be re-split by the presentation
    // parser, so `[3]"a.b"[3]"com"` and `[1]"a"[1]"b"[3]"com"` both
    // decoded to `a.b.com`.
    #[test]
    fn accepted_wire_names_keep_their_label_boundaries(
        labels in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![
                    Just(b'.'), Just(b'-'), Just(b'a'), Just(b'B'), Just(b'7'), Just(b'_'),
                    any::<u8>(),
                ],
                1..12,
            ),
            0..6,
        ),
    ) {
        use darkdns::dns::wire::{decode_lookup_request, LOOKUP_REQUEST_MAGIC};
        let mut frame = LOOKUP_REQUEST_MAGIC.to_vec();
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.extend_from_slice(&1u16.to_be_bytes());
        frame.extend_from_slice(&0u16.to_be_bytes());
        for label in &labels {
            frame.push(label.len() as u8);
            frame.extend_from_slice(label);
        }
        frame.push(0);
        if let Ok((_, queries)) = decode_lookup_request(&frame) {
            let decoded = &queries[0].name;
            prop_assert_eq!(decoded.label_count(), labels.len());
            for (got, sent) in decoded.labels().iter().zip(&labels) {
                prop_assert!(got.as_bytes().eq_ignore_ascii_case(sent));
            }
        }
    }

    #[test]
    fn question_encoding_is_compact(qname in name_strategy()) {
        let msg = Message::query(1, qname.clone(), RecordType::A);
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), 12 + qname.wire_len() + 4);
        let decoded = Message::decode(&encoded).unwrap();
        prop_assert_eq!(
            decoded.questions,
            vec![Question::new(qname, RecordType::A)]
        );
    }
}

// One acceptance rule, two entry points. A wire name and its dotted text
// go through the same label rule: whatever bytes the labels hold, the
// name `decode_lookup_request` returns — or its error — is what
// `DomainName::parse` makes of the text, after the walk's own refusals
// (a label too long to encode, a dotted label, the 253-byte bound,
// invalid UTF-8). And `parse` agrees with a reference checker written
// here from the rules, not from the parser.
mod one_label_rule {
    use super::*;
    use darkdns::dns::wire::{decode_lookup_request, WireError, LOOKUP_REQUEST_MAGIC};
    use darkdns::dns::NameError;

    /// A byte of the rule's alphabet: a letter in either case or a digit,
    /// one in twenty a hyphen and one in twenty an underscore.
    fn alphabet() -> impl Strategy<Value = u8> {
        (0u8..20, b'a'..=b'z', b'0'..=b'9').prop_map(|(roll, letter, digit)| match roll {
            0 => b'-',
            1 => b'_',
            2..=5 => letter.to_ascii_uppercase(),
            6..=9 => digit,
            _ => letter,
        })
    }

    /// One label as arbitrary bytes: the rule's alphabet (hyphens at the
    /// edges by chance), 1–12 bytes, or one in twenty-five 63 and one in
    /// twenty-five 64 bytes, and one in eight with a byte swapped for a
    /// dot, a space, or a valid or invalid UTF-8 sequence.
    fn label_bytes() -> impl Strategy<Value = Vec<u8>> {
        let intruders: [&[u8]; 6] = [b".", b" ", "é".as_bytes(), "€".as_bytes(), &[0xFF], &[0xC3]];
        (prop::collection::vec(alphabet(), 64), 0u32..100, 1usize..=12, 0usize..48, any::<u32>())
            .prop_map(move |(pool, len_roll, short, intruder, at)| {
                let len = match len_roll {
                    0..=3 => 63,
                    4..=7 => 64,
                    _ => short,
                };
                let mut label = pool[..len].to_vec();
                if let Some(&bytes) = intruders.get(intruder) {
                    let at = at as usize % len;
                    label.splice(at..=at, bytes.iter().copied());
                }
                label
            })
    }

    /// A name's labels: one to four drawn as above, or (one time in
    /// four) three 63-byte labels and a fourth bringing the total to
    /// 252–255 bytes.
    fn name_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let short = || prop::collection::vec(label_bytes(), 1..5);
        let long =
            (prop::collection::vec(alphabet(), 252), 60usize..=63).prop_map(|(pool, last)| {
                vec![
                    pool[..63].to_vec(),
                    pool[63..126].to_vec(),
                    pool[126..189].to_vec(),
                    pool[189..189 + last].to_vec(),
                ]
            });
        prop_oneof![short(), short(), short(), long]
    }

    /// The labels joined by dots.
    fn dotted(labels: &[Vec<u8>]) -> Vec<u8> {
        labels.join(&b'.')
    }

    /// What the decoder has always made of a wire name: its walk refuses
    /// a label whose length byte is not a length, a label holding a dot,
    /// and a name past 253 bytes, in label order; then the text must be
    /// UTF-8; then it is whatever `parse` makes of it.
    fn via_text(labels: &[Vec<u8>]) -> Result<DomainName, WireError> {
        let mut len = 0;
        for label in labels {
            if label.len() > 63 {
                return Err(WireError::BadLabelType(label.len() as u8 & 0xC0));
            }
            if label.contains(&b'.') {
                return Err(WireError::BadName("`.` inside a wire label".into()));
            }
            len += usize::from(len > 0) + label.len();
            if len > 253 {
                return Err(WireError::BadName(NameError::TooLong(len).to_string()));
            }
        }
        let text = dotted(labels);
        let text = std::str::from_utf8(&text)
            .map_err(|_| WireError::BadName("non-ASCII label".into()))?;
        DomainName::parse(text).map_err(|e| WireError::BadName(e.to_string()))
    }

    /// The rules, read independently of the parser: a trailing root dot
    /// dropped, at most 253 bytes, then per label in order — not empty,
    /// at most 63 bytes, only ASCII letters, digits, `-` and `_`, no `-`
    /// at either end. The canonical spelling is the lowercased text.
    fn reference(text: &str) -> Result<String, NameError> {
        let text = text.strip_suffix('.').unwrap_or(text);
        if text.is_empty() {
            return Ok(".".into());
        }
        if text.len() > 253 {
            return Err(NameError::TooLong(text.len()));
        }
        for label in text.split('.') {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(NameError::LabelTooLong(label.into()));
            }
            let allowed = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
            if let Some(c) = label.chars().find(|&c| !allowed(c)) {
                return Err(NameError::BadCharacter(c));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(NameError::HyphenEdge(label.into()));
            }
        }
        Ok(text.to_ascii_lowercase())
    }

    proptest! {
        #[test]
        fn a_wire_name_decodes_to_what_parse_makes_of_its_text(
            stash in name_labels(),
            own in prop::collection::vec(label_bytes(), 0..3),
            cut in any::<u32>(),
            point in any::<bool>(),
        ) {
            // Two queries: the second spells `own` labels and then, if
            // `point`, a compression pointer into the first's labels.
            let mut frame = LOOKUP_REQUEST_MAGIC.to_vec();
            frame.extend_from_slice(&1u64.to_be_bytes());
            frame.extend_from_slice(&2u16.to_be_bytes());
            frame.extend_from_slice(&0u16.to_be_bytes());
            let mut offsets = Vec::new();
            for label in &stash {
                offsets.push(frame.len());
                frame.push(label.len() as u8);
                frame.extend_from_slice(label);
            }
            frame.push(0);
            frame.extend_from_slice(&1u16.to_be_bytes());
            for label in &own {
                frame.push(label.len() as u8);
                frame.extend_from_slice(label);
            }
            let mut second = own.clone();
            if point {
                let k = cut as usize % stash.len();
                frame.extend_from_slice(&(0xC000 | offsets[k] as u16).to_be_bytes());
                second.extend_from_slice(&stash[k..]);
            } else {
                frame.push(0);
            }

            let expected = via_text(&stash).and_then(|first| Ok((first, via_text(&second)?)));
            let decoded = decode_lookup_request(&frame).map(|(_, q)| (q[0].name, q[1].name));
            prop_assert_eq!(decoded, expected);

            for labels in [&stash, &second] {
                if let Ok(text) = std::str::from_utf8(&dotted(labels)) {
                    let parsed = DomainName::parse(text).map(|n| n.as_str().to_owned());
                    prop_assert_eq!(parsed, reference(text), "{:?}", text);
                }
            }
        }

        #[test]
        fn parse_agrees_with_the_reference_rules(
            labels in prop::collection::vec(
                prop_oneof![label_bytes(), label_bytes(), label_bytes(), Just(Vec::new())],
                0..5,
            ),
            long in name_labels(),
            root_dot in any::<bool>(),
        ) {
            for labels in [&labels, &long] {
                let mut text = dotted(labels);
                if root_dot {
                    text.push(b'.');
                }
                if let Ok(text) = std::str::from_utf8(&text) {
                    let parsed = DomainName::parse(text).map(|n| n.as_str().to_owned());
                    prop_assert_eq!(parsed, reference(text), "{:?}", text);
                }
            }
        }
    }
}

// The chunked-snapshot codecs (`RZUC` continuation chunks and the
// extended HELLO with resume claims): the frames a 500k-delegation
// checkpoint rides across the frame bound, and the claims that make a
// mid-train cut resumable. Same adversarial discipline as every other
// transport decoder — plus the chunk codec's arithmetic consistency
// (offsets contiguous, last flag iff the train completes, reassembly
// exact from any resume offset).
mod chunk_codecs {
    use super::*;
    use darkdns::dns::wire::{HelloScope, SnapshotResume, SNAPSHOT_CHUNK_MAGIC};

    proptest! {
        #[test]
        fn snapshot_chunks_reassemble_exactly_from_any_resume_offset(
            tld in any::<u16>(),
            origin in name_strategy(),
            serial in any::<u32>(),
            entries in prop::collection::vec(
                (name_strategy(), prop::collection::vec(name_strategy(), 1..3)),
                0..60,
            ),
            start_frac in 0.0f64..1.0,
            chunk_bytes in 64usize..2048,
        ) {
            let snap = ZoneSnapshot::from_entries(
                origin,
                Serial::new(serial),
                SimTime::from_secs(u64::from(serial)),
                entries,
            );
            let start = (start_frac * snap.len() as f64) as usize;
            let frames = encode_snapshot_chunks(tld, &snap, start, chunk_bytes);
            prop_assert!(!frames.is_empty(), "every snapshot yields at least one chunk");
            let mut offset = start;
            let mut reassembled = Vec::new();
            for (i, frame) in frames.iter().enumerate() {
                let chunk = decode_snapshot_chunk(frame).unwrap();
                prop_assert_eq!(chunk.tld, tld);
                prop_assert_eq!(&chunk.origin, snap.origin());
                prop_assert_eq!(chunk.serial, snap.serial());
                prop_assert_eq!(chunk.taken_at, snap.taken_at());
                prop_assert_eq!(chunk.total as usize, snap.len());
                prop_assert_eq!(chunk.offset as usize, offset, "chunks must be contiguous");
                prop_assert_eq!(
                    chunk.last,
                    i == frames.len() - 1,
                    "last flag exactly on the final chunk"
                );
                offset += chunk.entries.len();
                reassembled.extend(chunk.entries);
            }
            prop_assert_eq!(offset, snap.len(), "the train must cover the tail exactly");
            let expected: Vec<_> =
                snap.iter().skip(start).map(|(d, ns)| (d, ns.clone())).collect();
            prop_assert_eq!(reassembled, expected);
            // A strict prefix of any chunk frame is rejected: one whole
            // chunk per frame, no silent truncation.
            for frame in &frames {
                prop_assert!(decode_snapshot_chunk(&frame[..frame.len() - 1]).is_err());
            }
        }

        #[test]
        fn chunk_decoder_never_panics_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let _ = decode_snapshot_chunk(&bytes);
        }

        #[test]
        fn chunk_decoder_never_panics_behind_valid_magic(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut framed = SNAPSHOT_CHUNK_MAGIC.to_vec();
            framed.extend_from_slice(&bytes);
            let _ = decode_snapshot_chunk(&framed);
        }

        #[test]
        fn hello_frame_round_trips_with_resume_claims(
            raw_claims in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..40),
            raw_resume in prop::collection::vec((any::<u16>(), any::<u32>(), any::<u32>()), 0..20),
        ) {
            let claims: Vec<TldClaim> = raw_claims
                .iter()
                .map(|&(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
                .collect();
            let resume: Vec<(u16, SnapshotResume)> = raw_resume
                .iter()
                .map(|&(tld, s, entries)| {
                    (tld, SnapshotResume { serial: Serial::new(s), entries })
                })
                .collect();
            let hello = HelloFrame { claims, resume, scope: HelloScope::Full };
            let frame = encode_hello(&hello);
            prop_assert_eq!(&decode_hello(&frame).unwrap(), &hello);
            // Backward compatibility both ways: the frame is the legacy
            // (claims-only) frame plus a suffix, the suffix is empty
            // exactly when there is nothing to resume, and the legacy
            // frame reads back as the same claims.
            let legacy = encode_hello(&HelloFrame { resume: Vec::new(), ..hello.clone() });
            prop_assert_eq!(legacy.len(), 6 + 7 * hello.claims.len());
            prop_assert_eq!(&frame[..legacy.len()], &legacy[..]);
            prop_assert_eq!(frame.len() == legacy.len(), hello.resume.is_empty());
            prop_assert_eq!(&decode_hello(&legacy).unwrap().claims, &hello.claims);
            // One whole message per frame.
            prop_assert!(decode_hello(&frame[..frame.len() - 1]).is_err());
        }

        #[test]
        fn hello_frame_decoder_never_panics_behind_valid_magic(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut framed = HELLO_MAGIC.to_vec();
            framed.extend_from_slice(&bytes);
            let _ = decode_hello(&framed);
            let _ = decode_hello(&bytes);
        }
    }
}

// Assembling a chunk train the way the transport client does: each
// decoded chunk appended to a `SnapshotBuilder` as it arrives, the
// builder salvaged (cloned) partway and the rest resumed on the copy.
// Whatever the zone, chunk size and salvage point, the result is the
// source snapshot with the cuts a one-piece build makes, and a train
// whose owners stop ascending is refused at exactly the chunk that
// breaks the order, the builder left at its last good boundary.
mod train_assembly {
    use super::*;
    use darkdns::dns::snapshot::{OutOfOrder, SnapshotBuilder};
    use darkdns::dns::NsSet;

    type Chunk = Vec<(DomainName, NsSet)>;

    /// Append `chunks` in order: the index of the first one refused,
    /// after checking that a refusal moved nothing.
    fn first_refused(chunks: &[Chunk]) -> Result<Option<usize>, TestCaseError> {
        let mut builder = SnapshotBuilder::default();
        for (i, chunk) in chunks.iter().enumerate() {
            let before = builder.len();
            match builder.append(chunk.clone()) {
                Ok(()) => prop_assert_eq!(builder.len(), before + chunk.len()),
                Err(OutOfOrder) => {
                    prop_assert_eq!(builder.len(), before, "a refused chunk moved entries");
                    return Ok(Some(i));
                }
            }
        }
        Ok(None)
    }

    /// The chunk holding entry `pos` of the train.
    fn chunk_of(chunks: &[Chunk], pos: usize) -> usize {
        let mut end = 0;
        chunks.iter().position(|c| {
            end += c.len();
            pos < end
        })
        .expect("position inside the train")
    }

    proptest! {
        #[test]
        fn a_train_appended_in_any_chunks_and_resumed_anywhere_is_the_source(
            origin in name_strategy(),
            serial in any::<u32>(),
            entries in prop::collection::vec(
                (name_strategy(), prop::collection::vec(name_strategy(), 1..3)),
                0..400,
            ),
            chunk_bytes in 64usize..6000,
            split_frac in 0.0f64..1.0,
            pick in any::<u32>(),
        ) {
            let snap = ZoneSnapshot::from_entries(
                origin,
                Serial::new(serial),
                SimTime::from_secs(u64::from(serial)),
                entries,
            );
            let chunks: Vec<Chunk> = encode_snapshot_chunks(0, &snap, 0, chunk_bytes)
                .iter()
                .map(|frame| decode_snapshot_chunk(frame).unwrap().entries)
                .collect();

            // The first k chunks on one builder, the rest on its clone.
            let k = (split_frac * chunks.len() as f64) as usize;
            let mut salvaged = SnapshotBuilder::default();
            for chunk in &chunks[..k] {
                prop_assert!(salvaged.append(chunk.clone()).is_ok());
            }
            let mut resumed = salvaged.clone();
            prop_assert_eq!(resumed.len(), chunks[..k].iter().map(Vec::len).sum::<usize>());
            for chunk in &chunks[k..] {
                prop_assert!(resumed.append(chunk.clone()).is_ok());
            }
            prop_assert_eq!(salvaged.len(), chunks[..k].iter().map(Vec::len).sum::<usize>());
            let assembled = resumed.finish(*snap.origin(), snap.serial(), snap.taken_at());
            prop_assert_eq!(&assembled, &snap);
            prop_assert_eq!(assembled.to_text(), snap.to_text());
            let flat: Chunk = chunks.concat();
            let one_piece =
                ZoneSnapshot::from_ns_entries(*snap.origin(), snap.serial(), snap.taken_at(), flat.clone());
            prop_assert_eq!(
                assembled.segment_lens().collect::<Vec<_>>(),
                one_piece.segment_lens().collect::<Vec<_>>()
            );
            prop_assert_eq!(first_refused(&chunks)?, None);

            // One adjacent swap: refused at the chunk holding the entry
            // that moved down (in its own chunk, or as the first entry
            // of the next one, below the last of the previous).
            if flat.len() >= 2 {
                let p = pick as usize % (flat.len() - 1);
                let mut swapped = chunks.clone();
                let (a, b) = (chunk_of(&chunks, p), chunk_of(&chunks, p + 1));
                let (ia, ib) = (
                    p - chunks[..a].iter().map(Vec::len).sum::<usize>(),
                    p + 1 - chunks[..b].iter().map(Vec::len).sum::<usize>(),
                );
                let moved = std::mem::replace(&mut swapped[b][ib], flat[p].clone());
                swapped[a][ia] = moved;
                prop_assert_eq!(first_refused(&swapped)?, Some(b));
            }

            // A duplicate across a chunk boundary: the next chunk opens
            // with the last owner of the one before.
            let boundaries: Vec<usize> =
                (1..chunks.len()).filter(|&j| !chunks[j - 1].is_empty()).collect();
            if !boundaries.is_empty() {
                let j = boundaries[pick as usize % boundaries.len()];
                let mut duplicated = chunks.clone();
                let last = chunks[j - 1].last().unwrap().clone();
                duplicated[j].insert(0, last);
                prop_assert_eq!(first_refused(&duplicated)?, Some(j));
            }
        }
    }
}

// The edge lookup codecs (`RZUL`/`RZUR`): same adversarial discipline
// as the transport decoders above — arbitrary garbage is an error,
// never a panic or an unbounded allocation, and every valid message
// round-trips exactly (strict prefixes rejected, trailing bytes
// rejected).
mod lookup_codecs {
    use super::*;
    use darkdns::dns::wire::{
        decode_lookup_request, decode_lookup_response, encode_lookup_request,
        encode_lookup_response, LookupAnswer, LookupQuery, LOOKUP_REQUEST_MAGIC,
        LOOKUP_RESPONSE_MAGIC,
    };

    proptest! {
        #[test]
        fn lookup_request_round_trips(
            request_id in any::<u64>(),
            raw in prop::collection::vec((any::<u16>(), name_strategy()), 0..40),
        ) {
            let queries: Vec<LookupQuery> =
                raw.into_iter().map(|(tld, name)| LookupQuery { tld, name }).collect();
            let frame = encode_lookup_request(request_id, &queries);
            let (id, decoded) = decode_lookup_request(&frame).unwrap();
            prop_assert_eq!(id, request_id);
            prop_assert_eq!(decoded, queries);
            // A strict prefix is rejected: exactly one whole message per
            // frame.
            prop_assert!(decode_lookup_request(&frame[..frame.len() - 1]).is_err());
        }

        #[test]
        fn lookup_response_round_trips(
            request_id in any::<u64>(),
            epoch in any::<u64>(),
            raw in prop::collection::vec(
                (any::<bool>(), any::<bool>(), any::<u32>(), any::<bool>(), any::<u64>()),
                0..40,
            ),
        ) {
            let answers: Vec<LookupAnswer> = raw
                .iter()
                .map(|&(present, has_serial, serial, has_seen, seen)| LookupAnswer {
                    present,
                    serial: has_serial.then(|| Serial::new(serial)),
                    first_seen: has_seen.then(|| SimTime::from_secs(seen)),
                })
                .collect();
            let frame = encode_lookup_response(request_id, epoch, &answers);
            let decoded = decode_lookup_response(&frame).unwrap();
            prop_assert_eq!(decoded.request_id, request_id);
            prop_assert_eq!(decoded.epoch, epoch);
            prop_assert_eq!(decoded.answers, answers);
            prop_assert!(decode_lookup_response(&frame[..frame.len() - 1]).is_err());
        }

        #[test]
        fn lookup_decoders_never_panic_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let _ = decode_lookup_request(&bytes);
            let _ = decode_lookup_response(&bytes);
        }

        #[test]
        fn lookup_decoders_never_panic_behind_valid_magics(
            magic_pick in 0usize..2,
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let magics: [&[u8; 4]; 2] = [LOOKUP_REQUEST_MAGIC, LOOKUP_RESPONSE_MAGIC];
            let mut framed = magics[magic_pick].to_vec();
            framed.extend_from_slice(&bytes);
            let _ = decode_lookup_request(&framed);
            let _ = decode_lookup_response(&framed);
        }
    }
}

// The scoped HELLO (`RZUH` + trailing subscription-scope byte): the
// frame a shard-filtered or delta-only subscriber opens with. The scope
// byte is strictly additive — a Full-scope frame must stay
// byte-identical to the legacy encoding (relays and old subscribers
// keep their handshake bytes), and a legacy frame must decode as Full —
// while non-Full scopes survive arbitrary claim/resume shapes and the
// decoder holds the no-panic line on adversarial bytes.
mod scoped_hello {
    use super::*;
    use darkdns::dns::wire::{HelloScope, SnapshotResume};

    fn scope_strategy() -> impl Strategy<Value = HelloScope> {
        prop_oneof![Just(HelloScope::Full), Just(HelloScope::DeltaOnly)]
    }

    proptest! {
        #[test]
        fn scoped_hello_round_trips_and_full_scope_is_legacy_identical(
            raw_claims in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..40),
            raw_resume in prop::collection::vec((any::<u16>(), any::<u32>(), any::<u32>()), 0..20),
            scope in scope_strategy(),
        ) {
            let claims: Vec<TldClaim> = raw_claims
                .iter()
                .map(|&(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
                .collect();
            let resume: Vec<(u16, SnapshotResume)> = raw_resume
                .iter()
                .map(|&(tld, s, entries)| {
                    (tld, SnapshotResume { serial: Serial::new(s), entries })
                })
                .collect();
            let hello = HelloFrame { claims, resume, scope };
            let frame = encode_hello(&hello);
            prop_assert_eq!(&decode_hello(&frame).unwrap(), &hello);

            // The sections are pay-for-what-you-use, so every existing
            // subscriber's handshake bytes are unchanged: Full scope
            // costs no scope byte, Full scope with nothing to resume is
            // the legacy layout, and DeltaOnly forces the resume count
            // so its scope byte is unambiguous.
            let resume_section = scope == HelloScope::DeltaOnly || !hello.resume.is_empty();
            prop_assert_eq!(
                frame.len(),
                6 + 7 * hello.claims.len()
                    + if resume_section { 2 + 10 * hello.resume.len() } else { 0 }
                    + usize::from(scope == HelloScope::DeltaOnly)
            );
            // Truncation: a Full frame loses real payload, so a cut
            // byte is an error; a non-Full frame's last byte IS the
            // scope, so cutting it re-reads as the Full frame — same
            // claims, same resume, default scope.
            let trimmed = decode_hello(&frame[..frame.len() - 1]);
            match scope {
                HelloScope::Full => prop_assert!(trimmed.is_err()),
                HelloScope::DeltaOnly => prop_assert_eq!(
                    trimmed.unwrap(),
                    HelloFrame { scope: HelloScope::Full, ..hello }
                ),
            }
        }

        #[test]
        fn scoped_hello_decoder_never_panics_on_garbage_tails(
            raw_claims in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..10),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            // A structurally valid claims section followed by arbitrary
            // trailing bytes: the decoder must reject or accept without
            // panicking, and must never misread garbage as a scope —
            // only the defined scope encodings decode.
            let claims: Vec<TldClaim> = raw_claims
                .iter()
                .map(|&(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
                .collect();
            let mut framed =
                encode_hello(&HelloFrame { claims, ..Default::default() }).to_vec();
            framed.extend_from_slice(&tail);
            if let Ok(decoded) = decode_hello(&framed) {
                prop_assert!(
                    matches!(decoded.scope, HelloScope::Full | HelloScope::DeltaOnly),
                    "garbage decoded to an undefined scope"
                );
            }
            let _ = decode_hello(&tail);
        }
    }
}

// The `RZUQ` stats report: a server row, bounded-count shard rows and
// subscriber rows with nested claim rows. Round trip over arbitrary
// counters and row counts, and the bound discipline from the outside:
// no strict prefix of a valid report decodes (every cut lands inside a
// fixed-width field or short of a counted row), none panics, and the
// whole buffer must be consumed.
mod stats_codec {
    use super::*;
    use darkdns::dns::wire::{
        decode_stats_report, encode_stats_report, ServerStats, ShardStats, StatsReport, WireError,
        WireSubscriberStats,
    };

    fn shard_strategy() -> impl Strategy<Value = ShardStats> {
        (any::<u16>(), any::<u32>(), prop::collection::vec(any::<u64>(), 13)).prop_map(
            |(tld, serial, c)| ShardStats {
                tld,
                head_serial: Serial::new(serial),
                subscribers: c[0],
                pushes: c[1],
                frame_bytes: c[2],
                checkpoints: c[3],
                retained_deltas: c[4],
                retired_deltas: c[5],
                deliveries: c[6],
                lagged_messages: c[7],
                evictions: c[8],
                snapshot_catchups: c[9],
                delta_catchups: c[10],
                lock_contentions: c[11],
                coalesced_frames: c[12],
            },
        )
    }

    fn sub_strategy() -> impl Strategy<Value = WireSubscriberStats> {
        (
            prop::collection::vec(any::<u64>(), 5),
            prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..=5),
        )
            .prop_map(|(c, claims)| WireSubscriberStats {
                id: c[0],
                queue_depth: c[1],
                lag_drops: c[2],
                coalesced_frames: c[3],
                buffered_bytes: c[4],
                claims: claims
                    .into_iter()
                    .map(|(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
                    .collect(),
            })
    }

    proptest! {
        #[test]
        fn stats_report_round_trips_and_every_strict_prefix_is_refused(
            c in prop::collection::vec(any::<u64>(), 10),
            shards in prop::collection::vec(shard_strategy(), 0..=8),
            subs in prop::collection::vec(sub_strategy(), 0..=8),
        ) {
            let server = ServerStats {
                accepted: c[0],
                handshakes: c[1],
                rejected_hellos: c[2],
                deltas_sent: c[3],
                snapshots_sent: c[4],
                evict_notices: c[5],
                disconnects: c[6],
                coalesced_writes: c[7],
                coalesced_frames: c[8],
                stats_queries: c[9],
                // What the wire does not carry stays zero.
                ..Default::default()
            };
            let report = StatsReport { server, shards, subs };
            let frame = encode_stats_report(&report);
            prop_assert_eq!(&decode_stats_report(&frame).unwrap(), &report);
            for cut in 0..frame.len() {
                prop_assert!(
                    decode_stats_report(&frame[..cut]).is_err(),
                    "a {cut}-byte prefix of a {}-byte report decoded",
                    frame.len()
                );
            }
            let mut padded = frame.to_vec();
            padded.push(0);
            prop_assert_eq!(decode_stats_report(&padded), Err(WireError::TrailingBytes(1)));
        }
    }
}
