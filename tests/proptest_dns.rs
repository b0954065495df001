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
    use darkdns::dns::wire::{SnapshotResume, SNAPSHOT_CHUNK_MAGIC};

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
            let hello = HelloFrame { claims, resume };
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

// The `RZUC` NS-set table. Whatever the zone (1–2 000 entries over
// 1–300 distinct host lists of 1–13 hosts, hosts that are owner names,
// equal lists frozen in separate allocations) and whatever the chunk
// size, the train decodes to the snapshot and each chunk to exactly one
// `NsSet` per distinct set it names. A chunk written by hand from the
// layout's rules alone (no name compression) decodes the same; a
// damaged chunk decodes or errs, never panics; and a reference past the
// next definition, a reference spelled long, and a chunk without the
// table, owner-label, packed-label or front-coded bit each give their
// own error. An
// `RZU4` delta frame names its sets through the same table, one per
// frame across all three sections: any delta round-trips, every use of
// a set shares one `NsSet`, and a set named again costs one byte.
mod ns_table {
    use super::*;
    use darkdns::dns::diff::NsChange;
    use darkdns::dns::wire::{encode_delta_push, WireError};
    use darkdns::dns::{NsSet, ZoneDelta};
    use std::collections::{HashMap, HashSet};

    /// splitmix64: the zone below is a function of one seed, so a
    /// failing case is replayed from its inputs alone.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    /// `entries` delegations over `sets` host lists, half of them on the
    /// first sixteenth of the lists. Spellings come from bounded pools
    /// (the interner keeps every long one for good), a quarter of them
    /// long enough to be interned.
    fn zone(seed: u64, entries: usize, sets: usize) -> ZoneSnapshot {
        let mut mix = Mix(seed);
        let owners: Vec<DomainName> = (0..entries)
            .map(|i| match mix.below(4) {
                0 => name(&format!("an-owner-long-enough-to-be-interned-{i:04}.com")),
                _ => name(&format!("d{i}.com")),
            })
            .collect();
        let lists: Vec<Vec<DomainName>> = (0..sets)
            .map(|s| {
                (0..1 + mix.below(13))
                    .map(|h| match mix.below(4) {
                        0 => owners[mix.below(entries)],
                        1 => name(&format!("ns{h}.provider-{}.a-long-hosting-domain.net", mix.below(300))),
                        _ => name(&format!("ns{h}.p{s}.net")),
                    })
                    .collect()
            })
            .collect();
        let frozen: Vec<NsSet> = lists.iter().cloned().map(NsSet::from_raw).collect();
        let delegations = owners
            .iter()
            .map(|&owner| {
                let k = match mix.below(2) {
                    0 => mix.below(sets.div_ceil(16)),
                    _ => mix.below(sets),
                };
                // One in three an equal list in an allocation of its own.
                let ns = match mix.below(3) {
                    0 => NsSet::from_raw(lists[k].clone()),
                    _ => frozen[k].clone(),
                };
                (owner, ns)
            })
            .collect();
        ZoneSnapshot::from_ns_entries(name("com"), Serial::new(9), SimTime::from_secs(60), delegations)
    }

    pub(super) fn put_name(frame: &mut Vec<u8>, name: &DomainName) {
        if !name.is_root() {
            for label in name.as_str().split('.') {
                frame.push(label.len() as u8);
                frame.extend_from_slice(label.as_bytes());
            }
        }
        frame.push(0);
    }

    pub(super) fn put_leb128(frame: &mut Vec<u8>, mut value: u32) {
        while value >= 0x80 {
            frame.push(value as u8 | 0x80);
            value >>= 7;
        }
        frame.push(value as u8);
    }

    /// The label rule's 38 symbols in byte order: a character's base-38
    /// digit is its index.
    const ALPHABET: &str = "-0123456789_abcdefghijklmnopqrstuvwxyz";

    /// A label as an owner field spells it: its character count, then
    /// each group of three characters as the big-endian `u16` of its
    /// base-38 digits, a trailing group of two as a `u16`, of one as a
    /// byte.
    pub(super) fn put_packed(frame: &mut Vec<u8>, label: &str) {
        frame.push(label.len() as u8);
        for group in label.as_bytes().chunks(3) {
            let digit = |c: &u8| ALPHABET.find(*c as char).expect("a label symbol") as u16;
            let value = group.iter().fold(0, |v, c| v * 38 + digit(c));
            let bytes = value.to_be_bytes();
            frame.extend_from_slice(if group.len() == 1 { &bytes[1..] } else { &bytes });
        }
    }

    /// An entry's owner field by the layout's rules: an owner exactly one
    /// label under `origin` as that label, packed (or, in the layout
    /// before packing, a byte a character), any other behind the escape,
    /// spelled out.
    fn put_owner_field(frame: &mut Vec<u8>, owner: &DomainName, origin: &DomainName, packed: bool) {
        if owner.parent() == Some(*origin) {
            let label = owner.labels()[0];
            if packed {
                put_packed(frame, label);
            } else {
                frame.push(label.len() as u8);
                frame.extend_from_slice(label.as_bytes());
            }
        } else {
            frame.push(0);
            put_name(frame, owner);
        }
    }

    /// An entry's owner field as an `RZU4` frame spells it.
    pub(super) fn put_owner(frame: &mut Vec<u8>, owner: &DomainName, origin: &DomainName) {
        put_owner_field(frame, owner, origin, true);
    }

    /// The characters `label` shares with `prev`, the chunk's previous
    /// child label (empty at a chunk's start and after an escaped
    /// owner): their common prefix, at most three, never the whole label.
    pub(super) fn share(prev: &str, label: &str) -> usize {
        let common = prev.bytes().zip(label.bytes()).take_while(|(a, b)| a == b).count();
        common.min(3).min(label.len() - 1)
    }

    /// `label` front-coded behind `prev`: the share in the count byte's
    /// top two bits, the rest's count in its low six, the rest packed.
    pub(super) fn put_shared(frame: &mut Vec<u8>, label: &str, prev: &str) {
        let shared = share(prev, label);
        let at = frame.len();
        put_packed(frame, &label[shared..]);
        frame[at] |= (shared as u8) << 6;
    }

    /// An entry's owner field as an `RZUC` chunk spells it, behind the
    /// chunk's previous child label `prev`, which it then replaces.
    pub(super) fn put_chunk_owner(
        frame: &mut Vec<u8>,
        owner: &DomainName,
        origin: &DomainName,
        prev: &mut String,
    ) {
        if owner.parent() == Some(*origin) {
            let label = owner.labels()[0];
            put_shared(frame, label, prev);
            *prev = label.to_string();
        } else {
            frame.push(0);
            put_name(frame, owner);
            prev.clear();
        }
    }

    /// Spells a replacement reference from an entry's own index and the
    /// sets defined before it.
    type Spell = dyn Fn(u32, u32) -> Vec<u8>;

    /// The whole snapshot as one chunk, written from the layout's rules:
    /// names spelled out, each entry's set referenced by content, each
    /// owner a field when `flags` has the owner-label bit and a name
    /// otherwise (the layout before it), its label packed when `flags`
    /// has the packed-label bit too, and front-coded when it has the
    /// front-coded bit as well. Entry
    /// `bad.0`'s reference is replaced by the bytes `bad.1` makes of its
    /// index and the sets defined before it. Returns the frame and, per
    /// entry, `(index, defined)`.
    pub(super) fn hand_chunk(
        snap: &ZoneSnapshot,
        flags: u8,
        bad: Option<(usize, &Spell)>,
    ) -> (Vec<u8>, Vec<(u32, u32)>) {
        let mut frame = b"RZUC".to_vec();
        frame.extend_from_slice(&0u16.to_be_bytes());
        put_name(&mut frame, snap.origin());
        frame.extend_from_slice(&snap.serial().get().to_be_bytes());
        frame.extend_from_slice(&snap.taken_at().as_secs().to_be_bytes());
        frame.extend_from_slice(&(snap.len() as u32).to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.push(flags);
        frame.extend_from_slice(&(snap.len() as u32).to_be_bytes());
        let mut table: HashMap<&[DomainName], u32> = HashMap::new();
        let mut refs = Vec::new();
        let mut prev = String::new();
        for (i, (owner, ns)) in snap.entries().enumerate() {
            match flags & 0b1_1100 {
                0b1_1100 => put_chunk_owner(&mut frame, owner, snap.origin(), &mut prev),
                layout if layout & 0b100 == 0 => put_name(&mut frame, owner),
                _ => put_owner_field(&mut frame, owner, snap.origin(), flags & 0b1000 != 0),
            }
            let defined = table.len() as u32;
            let index = *table.entry(ns.as_slice()).or_insert(defined);
            match bad {
                Some((at, spell)) if at == i => frame.extend(spell(index, defined)),
                _ => put_leb128(&mut frame, index),
            }
            if index == defined {
                frame.extend_from_slice(&(ns.len() as u16).to_be_bytes());
                for host in ns.iter() {
                    put_name(&mut frame, host);
                }
            }
            refs.push((index, defined));
        }
        (frame, refs)
    }

    proptest! {
        #[test]
        fn a_chunk_names_each_distinct_set_once_and_refuses_bad_references(
            seed in any::<u64>(),
            entries in 1usize..=2000,
            sets in 1usize..=300,
            chunk_bytes in 64usize..=65536,
            pick in any::<u32>(),
            damage in (any::<u32>(), 1u8..=255, 2u32..200),
        ) {
            let snap = zone(seed, entries, sets);
            let expected: Vec<(DomainName, NsSet)> =
                snap.iter().map(|(d, ns)| (d, ns.clone())).collect();
            let frames = encode_snapshot_chunks(0, &snap, 0, chunk_bytes);
            let mut decoded = Vec::new();
            for frame in &frames {
                let chunk = decode_snapshot_chunk(frame).unwrap();
                let by_content: HashSet<&[DomainName]> =
                    chunk.entries.iter().map(|(_, ns)| ns.as_slice()).collect();
                let by_allocation: HashSet<*const DomainName> =
                    chunk.entries.iter().map(|(_, ns)| ns.as_slice().as_ptr()).collect();
                prop_assert_eq!(by_allocation.len(), by_content.len(), "NsSets per distinct set");
                decoded.extend(chunk.entries);
            }
            prop_assert_eq!(&decoded, &expected);

            // Damage: a strict prefix errs, a flipped byte decodes or errs.
            let (at, mask, excess) = damage;
            let frame = &frames[pick as usize % frames.len()];
            let cut = at as usize % frame.len();
            prop_assert!(decode_snapshot_chunk(&frame[..cut]).is_err());
            let mut flipped = frame.to_vec();
            flipped[at as usize % frame.len()] ^= mask;
            let _ = decode_snapshot_chunk(&flipped);

            // The layout written by hand decodes to the same entries.
            let (hand, refs) = hand_chunk(&snap, 0b11111, None);
            prop_assert_eq!(decode_snapshot_chunk(&hand).unwrap().entries, expected);
            // Without the front-coded bit it is the layout with every
            // label packed whole, without the packed-label bit too the
            // one with owner labels a byte a character, without the
            // owner-label bit too the table layout with every owner a
            // name, without the table bit too the pre-table layout: all
            // refused.
            for flags in [0b01111, 0b01110, 0b0111, 0b0110, 0b011, 0b010, 0b001, 0b000] {
                let (old, _) = hand_chunk(&snap, flags, None);
                prop_assert_eq!(decode_snapshot_chunk(&old), Err(WireError::BadFlags(flags)));
            }
            // One entry's reference past the next definition.
            let bad = pick as usize % entries;
            let (index, defined) = refs[bad];
            let past = move |_: u32, defined: u32| {
                let mut spelled = Vec::new();
                put_leb128(&mut spelled, defined + excess - 1);
                spelled
            };
            let (frame, _) = hand_chunk(&snap, 0b11111, Some((bad, &past)));
            prop_assert_eq!(
                decode_snapshot_chunk(&frame),
                Err(WireError::BadNsRef { index: defined + excess - 1, defined })
            );
            // The same entry's own reference, one byte longer than it needs.
            let long = |index: u32, _: u32| {
                let mut spelled = Vec::new();
                put_leb128(&mut spelled, index);
                *spelled.last_mut().unwrap() |= 0x80;
                spelled.push(0);
                spelled
            };
            let (frame, _) = hand_chunk(&snap, 0b11111, Some((bad, &long)));
            prop_assert_eq!(
                decode_snapshot_chunk(&frame),
                Err(WireError::BadNsRef { index: u32::MAX, defined }),
                "reference {} spelled long", index
            );
        }

        #[test]
        fn a_delta_frame_round_trips_and_names_a_repeated_set_in_one_byte(
            origin in name_strategy(),
            serials in (any::<u32>(), any::<u32>(), any::<u32>()),
            pool in prop::collection::vec(prop::collection::vec(name_strategy(), 1..4), 1..=5),
            added in prop::collection::vec((name_strategy(), any::<u8>()), 0..12),
            removed in prop::collection::vec((name_strategy(), any::<u8>()), 0..12),
            changed in prop::collection::vec(
                (name_strategy(), any::<u8>(), any::<u8>()),
                0..12,
            ),
        ) {
            // A small pool, so sets repeat within and across sections.
            let pool: Vec<NsSet> = pool.into_iter().map(NsSet::new).collect();
            let pick = |i: &u8| pool[*i as usize % pool.len()].clone();
            let delta = ZoneDelta {
                added: added.iter().map(|(owner, i)| (*owner, pick(i))).collect(),
                removed: removed.iter().map(|(owner, i)| (*owner, pick(i))).collect(),
                changed: changed
                    .iter()
                    .map(|(domain, old, new)| NsChange {
                        domain: *domain,
                        old_ns: pick(old),
                        new_ns: pick(new),
                    })
                    .collect(),
            };
            let (from, to, at) = serials;
            let encode = |delta: &ZoneDelta| {
                let at = SimTime::from_secs(u64::from(at));
                encode_delta_push(&origin, Serial::new(from), Serial::new(to), at, delta)
            };
            let frame = encode(&delta);
            let push = decode_delta_push(&frame).unwrap();
            prop_assert_eq!(push.origin, origin);
            prop_assert_eq!((push.from_serial, push.to_serial), (Serial::new(from), Serial::new(to)));
            prop_assert_eq!(push.pushed_at, SimTime::from_secs(u64::from(at)));
            prop_assert_eq!(&push.delta, &delta);

            // One `NsSet` per distinct set, whichever sections name it.
            let d = &push.delta;
            let uses: Vec<&NsSet> = d
                .added
                .iter()
                .chain(&d.removed)
                .map(|(_, ns)| ns)
                .chain(d.changed.iter().flat_map(|c| [&c.old_ns, &c.new_ns]))
                .collect();
            let by_content: HashSet<&[DomainName]> = uses.iter().map(|ns| ns.as_slice()).collect();
            let by_allocation: HashSet<*const DomainName> =
                uses.iter().map(|ns| ns.as_slice().as_ptr()).collect();
            prop_assert_eq!(by_allocation.len(), by_content.len(), "NsSets per distinct set");

            // An added entry naming a set the section already defined
            // costs the escape, its owner's spelling and a 1-byte
            // reference. The owner's labels are longer than any generated
            // one, so it is no child of the origin, no suffix of it
            // compresses and none of it is a later name's.
            if let Some((_, set)) = delta.added.last() {
                let owner = DomainName::parse("appended-owner-label.unshared-suffix-label").unwrap();
                let mut longer = delta.clone();
                longer.added.push((owner, set.clone()));
                let grown = encode(&longer);
                prop_assert_eq!(grown.len(), frame.len() + 1 + owner.as_str().len() + 2 + 1);
                prop_assert_eq!(decode_delta_push(&grown).unwrap().delta, longer);
            }
        }
    }
}

// The edge lookup codecs (`RZUL`/`RZUA`): same adversarial discipline
// as the transport decoders above — arbitrary garbage is an error,
// never a panic or an unbounded allocation, and every valid message
// round-trips exactly (strict prefixes rejected, trailing bytes
// rejected). A response spells each (TLD, serial) key once in a 62-slot
// table; the sizes are checked against the layout that spelled every
// serial out, and the retired `RZUR` magic is refused.
mod lookup_codecs {
    use super::*;
    use darkdns::dns::wire::{
        decode_lookup_request, decode_lookup_response, encode_lookup_request,
        encode_lookup_response, LookupAnswer, LookupQuery, WireError, LOOKUP_REQUEST_MAGIC,
        LOOKUP_RESPONSE_MAGIC,
    };

    /// Rows over `pool` TLDs, each at one of two serials shared by every
    /// TLD: a TLD repeats at two serials, and two TLDs meet at one.
    fn keyed_answers(pool: u16) -> impl Strategy<Value = Vec<(u16, LookupAnswer)>> {
        let row = (0..pool, any::<bool>(), 0u32..3, any::<bool>(), any::<u64>());
        prop::collection::vec(row, 0..200).prop_map(|rows| {
            rows.into_iter()
                .map(|(tld, present, serial, has_seen, seen)| {
                    let answer = LookupAnswer {
                        present,
                        serial: (serial > 0).then(|| Serial::new(99 + serial)),
                        first_seen: has_seen.then(|| SimTime::from_secs(seen)),
                    };
                    (tld, answer)
                })
                .collect()
        })
    }

    /// The frame length with every serial spelled out, less 4 bytes per
    /// row whose key an earlier row put in the table (the first 62 keys
    /// get a slot, later ones none).
    fn expected_len(answers: &[(u16, LookupAnswer)]) -> usize {
        let mut keys = Vec::new();
        let mut spelled = 4 + 8 + 8 + 2;
        let mut reused = 0;
        for &(tld, answer) in answers {
            spelled += 1 + 8 * usize::from(answer.first_seen.is_some());
            if let Some(serial) = answer.serial {
                spelled += 4;
                let key = (tld, serial);
                if keys.contains(&key) {
                    reused += 1;
                } else if keys.len() < 62 {
                    keys.push(key);
                }
            }
        }
        spelled - 4 * reused
    }

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
            answers in prop_oneof![keyed_answers(3), keyed_answers(100)],
        ) {
            let frame = encode_lookup_response(request_id, epoch, &answers);
            prop_assert_eq!(frame.len(), expected_len(&answers));
            let decoded = decode_lookup_response(&frame).unwrap();
            prop_assert_eq!(decoded.request_id, request_id);
            prop_assert_eq!(decoded.epoch, epoch);
            prop_assert_eq!(decoded.answers, answers.iter().map(|&(_, a)| a).collect::<Vec<_>>());
            prop_assert!(decode_lookup_response(&frame[..frame.len() - 1]).is_err());
        }

        #[test]
        fn a_slot_past_the_next_definition_is_refused(
            defined in 0u8..61,
            past in 1u8..62,
            low_bits in 0u8..4,
        ) {
            // `defined` rows define slots 0.. in order; the last row then
            // names a slot `past` beyond the next one.
            let code = (defined + 1 + past).min(62);
            let mut frame = LOOKUP_RESPONSE_MAGIC.to_vec();
            frame.extend_from_slice(&[0; 16]);
            frame.extend_from_slice(&(u16::from(defined) + 1).to_be_bytes());
            for slot in 0..defined {
                frame.push((slot + 1) << 2);
                frame.extend_from_slice(&u32::from(slot).to_be_bytes());
            }
            let flags = code << 2 | low_bits;
            frame.push(flags);
            frame.extend_from_slice(&[0; 12]);
            prop_assert_eq!(decode_lookup_response(&frame), Err(WireError::BadFlags(flags)));
            // Naming the next slot instead defines it.
            let at = frame.len() - 13;
            frame[at] = (defined + 1) << 2 | (low_bits & 1);
            frame.truncate(at + 5);
            prop_assert!(decode_lookup_response(&frame).is_ok());
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

        #[test]
        fn the_retired_rzur_magic_is_refused_whatever_follows(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut framed = b"RZUR".to_vec();
            framed.extend_from_slice(&bytes);
            prop_assert_eq!(decode_lookup_response(&framed), Err(WireError::BadMagic));
        }
    }
}

// The HELLO layouts, and the slot the retired subscription-scope byte
// sat in. Two layouts remain: claims only (the legacy frame) and claims
// plus resume rows, the second appended only when there is something
// to resume. Every subscriber gets one catch-up contract, so a byte
// past the resume rows — a scoped HELLO from an older build included —
// is refused as trailing bytes, never read as a mode; and the decoder
// holds the no-panic line on adversarial tails.
mod scoped_hello {
    use super::*;
    use darkdns::dns::wire::{SnapshotResume, WireError};

    proptest! {
        #[test]
        fn scoped_hello_round_trips_and_full_scope_is_legacy_identical(
            raw_claims in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..40),
            raw_resume in prop::collection::vec((any::<u16>(), any::<u32>(), any::<u32>()), 0..20),
            extra in any::<u8>(),
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
            let hello = HelloFrame { claims, resume };
            let frame = encode_hello(&hello);
            prop_assert_eq!(&decode_hello(&frame).unwrap(), &hello);
            let resume_section =
                if hello.resume.is_empty() { 0 } else { 2 + 10 * hello.resume.len() };
            prop_assert_eq!(frame.len(), 6 + 7 * hello.claims.len() + resume_section);
            // One whole message per frame: a cut byte is always an error.
            prop_assert!(decode_hello(&frame[..frame.len() - 1]).is_err());

            // The scoped layout — the resume section forced, then one
            // byte — is refused whatever the byte, as is any byte behind
            // real resume rows.
            let mut scoped = frame.to_vec();
            if hello.resume.is_empty() {
                scoped.extend_from_slice(&[0, 0]);
            }
            scoped.push(extra);
            prop_assert_eq!(decode_hello(&scoped), Err(WireError::TrailingBytes(1)));
        }

        #[test]
        fn scoped_hello_decoder_never_panics_on_garbage_tails(
            raw_claims in prop::collection::vec((any::<u16>(), any::<bool>(), any::<u32>()), 0..10),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            // A structurally valid claims section followed by arbitrary
            // trailing bytes: the decoder must reject or accept without
            // panicking, and whatever it accepts is the claims plus a
            // whole resume section that re-encodes to exactly the input.
            let claims: Vec<TldClaim> = raw_claims
                .iter()
                .map(|&(tld, has, s)| TldClaim { tld, from_serial: has.then(|| Serial::new(s)) })
                .collect();
            let mut framed =
                encode_hello(&HelloFrame { claims: claims.clone(), ..Default::default() }).to_vec();
            framed.extend_from_slice(&tail);
            if let Ok(decoded) = decode_hello(&framed) {
                prop_assert_eq!(&decoded.claims, &claims);
                if !decoded.resume.is_empty() {
                    prop_assert_eq!(&encode_hello(&decoded)[..], &framed[..]);
                }
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

// Owner fields (`RZU4` deltas and `RZUC` chunks): an owner one label
// under the frame's origin travels as that label packed in base 38 (in
// a chunk, front-coded against the child owner before it), any other
// behind the `0x00` escape. Whatever the mix of owners — children
// of the origin, deeper names, names outside it, one-label names under
// the root origin, 63-byte labels, children filling a name to 253
// bytes, and children whose entry defines a set of hosts under them —
// both families round-trip, and the decoder takes any owner behind the
// escape, spelled out in full. Any label of 1–63 characters from all 38
// symbols round-trips packed, and a packed group at or above its bound
// is refused wherever it stands. A child naming a set the frame already
// defined costs its packed label (`⌈2L/3⌉` bytes) and two bytes.
// Garbage behind a valid `RZU4` header or a valid chunk header decodes
// or errs, never panics.
mod owner_labels {
    use super::ns_table::{hand_chunk, put_leb128, put_name, put_owner, put_packed};
    use super::*;
    use darkdns::dns::diff::NsChange;
    use darkdns::dns::wire::{encode_delta_push, WireError, SNAPSHOT_CHUNK_MAGIC};
    use darkdns::dns::{NsSet, ZoneDelta};
    use std::collections::HashMap;

    /// 63 + 63 + 61 bytes and two dots: a 63-byte label under it spells
    /// a 253-byte name.
    fn long_origin() -> DomainName {
        let labels = ["o".repeat(63), "p".repeat(63), "q".repeat(61)];
        DomainName::from_labels(labels).unwrap()
    }

    fn origin_strategy() -> impl Strategy<Value = DomainName> {
        prop_oneof![Just(DomainName::root()), name_strategy(), Just(long_origin())]
    }

    /// `label` spelled to the longest a label may be, 63 bytes (hyphens
    /// dropped, padded with `y`).
    fn widest(label: &str) -> String {
        label.chars().filter(|&c| c != '-').chain(std::iter::repeat('y')).take(63).collect()
    }

    /// One entry's owner and set from `(kind, label, extra, pick)`, or
    /// `None` where the kind cannot be spelled under this origin (a name
    /// past 253 bytes). Kind 3 is a 63-byte label, which under
    /// [`long_origin`] spells a 253-byte owner. Kind 4 is a child on its
    /// own in-bailiwick set; every other kind takes `pool[pick]`, which
    /// holds the in-bailiwick sets built so far too, so some are named
    /// again by later entries.
    fn owner_entry(
        origin: &DomainName,
        (kind, label, extra, pick): &(u8, String, String, usize),
        pool: &mut Vec<NsSet>,
    ) -> Option<(DomainName, NsSet)> {
        let owner = match kind % 5 {
            0 | 4 => origin.child(label).ok()?,
            1 => origin.child(extra).ok()?.child(label).ok()?,
            2 => DomainName::from_labels([label.as_str(), extra, "outside-the-origin"]).ok()?,
            _ => origin.child(&widest(label)).ok()?,
        };
        if kind % 5 == 4 {
            let set = NsSet::new(vec![owner.child("ns1").ok()?, owner.child("ns2").ok()?]);
            pool.push(set.clone());
            return Some((owner, set));
        }
        Some((owner, pool[pick % pool.len()].clone()))
    }

    /// A label of 1–63 characters from all 38 symbols of the alphabet,
    /// `-` anywhere but at an edge.
    fn packable_label() -> impl Strategy<Value = String> {
        "[a-z0-9_]([a-z0-9_-]{0,61}[a-z0-9_])?"
    }

    fn entries_strategy() -> impl Strategy<Value = Vec<(u8, String, String, usize)>> {
        prop::collection::vec(
            (any::<u8>(), label_strategy(), label_strategy(), any::<usize>()),
            1..30,
        )
    }

    fn sets_strategy() -> impl Strategy<Value = Vec<Vec<DomainName>>> {
        prop::collection::vec(prop::collection::vec(name_strategy(), 1..3), 1..=4)
    }

    fn build(
        origin: &DomainName,
        specs: &[(u8, String, String, usize)],
        sets: Vec<Vec<DomainName>>,
    ) -> Vec<(DomainName, NsSet)> {
        let mut pool: Vec<NsSet> = sets.into_iter().map(NsSet::new).collect();
        specs.iter().filter_map(|spec| owner_entry(origin, spec, &mut pool)).collect()
    }

    fn encode(origin: &DomainName, delta: &ZoneDelta) -> Vec<u8> {
        encode_delta_push(origin, Serial::new(1), Serial::new(2), SimTime::ZERO, delta).to_vec()
    }

    /// Every entry in `added`, written by hand: the origin and every
    /// host spelled out, each owner by `owner`, each set by content.
    fn hand_delta(
        origin: &DomainName,
        entries: &[(DomainName, NsSet)],
        owner: impl Fn(&mut Vec<u8>, &DomainName),
    ) -> Vec<u8> {
        let mut frame = DELTA_PUSH_MAGIC.to_vec();
        put_name(&mut frame, origin);
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&0u64.to_be_bytes());
        for count in [entries.len() as u32, 0, 0] {
            frame.extend_from_slice(&count.to_be_bytes());
        }
        let mut table: HashMap<&[DomainName], u32> = HashMap::new();
        for (name, ns) in entries {
            owner(&mut frame, name);
            let defined = table.len() as u32;
            let index = *table.entry(ns.as_slice()).or_insert(defined);
            put_leb128(&mut frame, index);
            if index == defined {
                frame.extend_from_slice(&(ns.len() as u16).to_be_bytes());
                for host in ns.iter() {
                    put_name(&mut frame, host);
                }
            }
        }
        frame
    }

    proptest! {
        #[test]
        fn owners_of_every_shape_round_trip_in_deltas_and_chunks(
            origin in origin_strategy(),
            specs in entries_strategy(),
            sets in sets_strategy(),
            chunk_bytes in 64usize..4096,
        ) {
            let entries = build(&origin, &specs, sets);
            // The three sections: a changed entry moves to the next
            // entry's set, so old and new sets span the frame.
            let mut delta = ZoneDelta::default();
            for (i, (owner, ns)) in entries.iter().enumerate() {
                match i % 3 {
                    0 => delta.added.push((*owner, ns.clone())),
                    1 => delta.removed.push((*owner, ns.clone())),
                    _ => delta.changed.push(NsChange {
                        domain: *owner,
                        old_ns: ns.clone(),
                        new_ns: entries[(i + 1) % entries.len()].1.clone(),
                    }),
                }
            }
            let push = decode_delta_push(&encode(&origin, &delta)).unwrap();
            prop_assert_eq!(push.origin, origin);
            prop_assert_eq!(&push.delta, &delta);

            let snap = ZoneSnapshot::from_entries(
                origin,
                Serial::new(3),
                SimTime::ZERO,
                entries.iter().map(|(owner, ns)| (*owner, ns.as_slice().to_vec())).collect(),
            );
            let mut decoded = Vec::new();
            for frame in encode_snapshot_chunks(0, &snap, 0, chunk_bytes) {
                let chunk = decode_snapshot_chunk(&frame).unwrap();
                prop_assert_eq!(&chunk.origin, &origin);
                decoded.extend(chunk.entries);
            }
            let expected: Vec<_> = snap.iter().map(|(d, ns)| (d, ns.clone())).collect();
            prop_assert_eq!(decoded, expected);

            // Written by hand, with every owner behind the escape and
            // spelled out, or by the layout's rules: the same entries.
            let all_added = ZoneDelta { added: entries.clone(), ..ZoneDelta::default() };
            for hand in [
                hand_delta(&origin, &entries, |frame, owner| {
                    frame.push(0);
                    put_name(frame, owner);
                }),
                hand_delta(&origin, &entries, |frame, owner| put_owner(frame, owner, &origin)),
            ] {
                prop_assert_eq!(&decode_delta_push(&hand).unwrap().delta, &all_added);
            }
        }

        #[test]
        fn a_child_naming_a_defined_set_costs_its_label_and_two_bytes(
            origin in origin_strategy(),
            specs in entries_strategy(),
            sets in sets_strategy(),
        ) {
            let entries = build(&origin, &specs, sets);
            if entries.is_empty() {
                return Ok(());
            }
            let delta = ZoneDelta { added: entries.clone(), ..ZoneDelta::default() };
            let frame = encode(&origin, &delta);
            let label = "zz-fresh-child-label";
            let mut named = delta.clone();
            named.added.push((origin.child(label).unwrap(), entries[0].1.clone()));
            // Length, packed label, one-byte reference (fewer than 128
            // sets).
            let grown = encode(&origin, &named);
            prop_assert_eq!(grown.len(), frame.len() + 1 + (2 * label.len()).div_ceil(3) + 1);
            prop_assert_eq!(decode_delta_push(&grown).unwrap().delta, named);
        }

        #[test]
        fn any_label_of_the_alphabet_round_trips_packed_in_deltas_and_chunks(
            origin in origin_strategy(),
            labels in prop::collection::vec(packable_label(), 1..16),
            sets in sets_strategy(),
            chunk_bytes in 64usize..4096,
        ) {
            // Each label once, where it fits under the origin.
            let mut owners: Vec<DomainName> =
                labels.iter().filter_map(|label| origin.child(label).ok()).collect();
            owners.sort();
            owners.dedup();
            if owners.is_empty() {
                return Ok(());
            }
            let pool: Vec<NsSet> = sets.into_iter().map(NsSet::new).collect();
            let on = |pool: &[NsSet]| -> Vec<(DomainName, NsSet)> {
                owners.iter().enumerate().map(|(i, o)| (*o, pool[i % pool.len()].clone())).collect()
            };
            let entries = on(&pool);
            let delta = ZoneDelta { added: entries.clone(), ..ZoneDelta::default() };
            prop_assert_eq!(&decode_delta_push(&encode(&origin, &delta)).unwrap().delta, &delta);
            let snap = ZoneSnapshot::from_entries(
                origin,
                Serial::new(3),
                SimTime::ZERO,
                entries.iter().map(|(owner, ns)| (*owner, ns.as_slice().to_vec())).collect(),
            );
            let mut decoded = Vec::new();
            for frame in encode_snapshot_chunks(0, &snap, 0, chunk_bytes) {
                decoded.extend(decode_snapshot_chunk(&frame).unwrap().entries);
            }
            let expected: Vec<_> = snap.iter().map(|(d, ns)| (d, ns.clone())).collect();
            prop_assert_eq!(decoded, expected);

            // With no host to compress, each family's bytes are the ones
            // the layout's rules spell by hand: the owner fields packed
            // as `put_packed` packs them.
            let bare = on(&[NsSet::new(vec![])]);
            let delta = ZoneDelta { added: bare.clone(), ..ZoneDelta::default() };
            let hand = hand_delta(&origin, &bare, |frame, owner| put_owner(frame, owner, &origin));
            prop_assert_eq!(encode(&origin, &delta), hand);
            let snap = ZoneSnapshot::from_entries(
                origin,
                Serial::new(3),
                SimTime::ZERO,
                bare.iter().map(|(owner, _)| (*owner, vec![])).collect(),
            );
            let train = encode_snapshot_chunks(0, &snap, 0, 1 << 16);
            prop_assert_eq!(train.len(), 1);
            prop_assert_eq!(train[0].to_vec(), hand_chunk(&snap, 0b11111, None).0);
        }

        #[test]
        fn a_packed_group_out_of_range_is_refused_wherever_it_stands(
            label in packable_label(),
            pick in any::<usize>(),
            excess in any::<u16>(),
        ) {
            // Spoil one group of the label's field: a group of `chars`
            // characters, at or above 38^chars, in its byte or two.
            let mut field = Vec::new();
            put_packed(&mut field, &label);
            let group = pick % label.len().div_ceil(3);
            let chars = (label.len() - 3 * group).min(3);
            let width = if chars == 1 { 1 } else { 2 };
            let bound = 38u32.pow(chars as u32);
            let top = if width == 1 { 0xFF } else { 0xFFFF };
            let value = (bound + u32::from(excess) % (top - bound + 1)) as u16;
            let at = 1 + 2 * group;
            field[at..at + width].copy_from_slice(&value.to_be_bytes()[2 - width..]);
            // One entry under the root origin, defining an empty set 0.
            let body = [field.as_slice(), &[0, 0, 0]].concat();
            let refused = Some(WireError::BadPackedGroup(value));

            let mut frame = DELTA_PUSH_MAGIC.to_vec();
            frame.push(0);
            frame.extend_from_slice(&[0; 4 + 4 + 8]);
            for count in [1u32, 0, 0] {
                frame.extend_from_slice(&count.to_be_bytes());
            }
            frame.extend_from_slice(&body);
            prop_assert_eq!(decode_delta_push(&frame).err(), refused.clone());

            let mut chunk = SNAPSHOT_CHUNK_MAGIC.to_vec();
            chunk.extend_from_slice(&0u16.to_be_bytes());
            chunk.push(0);
            chunk.extend_from_slice(&[0; 4 + 8]);
            chunk.extend_from_slice(&1u32.to_be_bytes()); // total
            chunk.extend_from_slice(&0u32.to_be_bytes()); // offset
            chunk.push(0b11111);
            chunk.extend_from_slice(&1u32.to_be_bytes());
            chunk.extend_from_slice(&body);
            prop_assert_eq!(decode_snapshot_chunk(&chunk).err(), refused);
        }

        // The garbage properties above, behind a whole header, so the
        // fuzz bytes reach the owner fields: an `RZU4` frame's section
        // counts and a chunk's flags (owner-label, packed-label and
        // front-coded bits set) and count.
        #[test]
        fn owner_fields_never_panic_behind_valid_headers(
            origin in origin_strategy(),
            counts in (0u32..8, 0u32..8, 0u32..8),
            last in any::<bool>(),
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut frame = DELTA_PUSH_MAGIC.to_vec();
            put_name(&mut frame, &origin);
            frame.extend_from_slice(&[0; 4 + 4 + 8]);
            for count in [counts.0, counts.1, counts.2] {
                frame.extend_from_slice(&count.to_be_bytes());
            }
            frame.extend_from_slice(&body);
            let _ = decode_delta_push(&frame);

            let count = counts.0 + counts.1 + counts.2;
            let mut chunk = SNAPSHOT_CHUNK_MAGIC.to_vec();
            chunk.extend_from_slice(&0u16.to_be_bytes());
            put_name(&mut chunk, &origin);
            chunk.extend_from_slice(&[0; 4 + 8]);
            chunk.extend_from_slice(&count.to_be_bytes()); // total
            chunk.extend_from_slice(&0u32.to_be_bytes()); // offset
            chunk.push(0b11110 | u8::from(last));
            chunk.extend_from_slice(&count.to_be_bytes());
            chunk.extend_from_slice(&body);
            let _ = decode_snapshot_chunk(&chunk);
        }
    }
}

// Front-coded `RZUC` owners: in a chunk, a child label shares what it
// can of its first three characters with the child label before it.
// Whatever the sorted run — labels of 1 to 63 characters, labels that
// are prefixes of their successors (and of their predecessors: `ab-c`
// sorts before `ab`), escaped owners between them — and wherever a
// chunk starts, the train decodes to the snapshot, assembles through a
// `SnapshotBuilder` to it, and each chunk is the bytes the layout's
// rules spell by hand. A field is refused when it spells nothing, when
// it spells past 63 characters, when it shares more than the label
// before it has, and when it shares less than the one rule gives; a
// share above the rule's spells another label or is refused, so a label
// has one spelling.
mod front_coding {
    use super::ns_table::{hand_chunk, put_name, put_packed, share};
    use super::*;
    use darkdns::dns::snapshot::SnapshotBuilder;
    use darkdns::dns::wire::{WireError, SNAPSHOT_CHUNK_MAGIC};

    /// Labels over three symbols, so neighbours share long prefixes: a
    /// short one, or one up to 63 characters.
    fn close_label() -> impl Strategy<Value = String> {
        prop_oneof!["[ab]([ab-]{0,4}[ab])?", "[ab]([ab-]{0,61}[ab])?"]
    }

    /// `(label, extension, escaped)`: the owner `label`, then `label`
    /// followed by `extension` when that is a label too, and, when
    /// `escaped`, `label.x`, two labels under the origin, which sorts
    /// among them.
    fn run_strategy() -> impl Strategy<Value = Vec<(String, String, bool)>> {
        prop::collection::vec((close_label(), "([ab-]{0,3}[ab])?", any::<bool>()), 1..24)
    }

    fn origin_strategy() -> impl Strategy<Value = DomainName> {
        prop_oneof![Just(DomainName::root()), name_strategy()]
    }

    fn snapshot(origin: DomainName, run: &[(String, String, bool)]) -> ZoneSnapshot {
        let mut owners = Vec::new();
        for (label, extension, escaped) in run {
            owners.extend(origin.child(label).ok());
            owners.extend(origin.child(&format!("{label}{extension}")).ok());
            if *escaped {
                owners.extend(origin.child("x").and_then(|o| o.child(label)).ok());
            }
        }
        let entries = owners.into_iter().map(|owner| (owner, vec![])).collect();
        ZoneSnapshot::from_entries(origin, Serial::new(5), SimTime::from_secs(7), entries)
    }

    /// A one-chunk train under the root origin: `fields` as its owner
    /// fields, the first defining an empty set 0, the rest naming it.
    fn fields_chunk(fields: &[Vec<u8>]) -> Vec<u8> {
        let count = (fields.len() as u32).to_be_bytes();
        let mut chunk = SNAPSHOT_CHUNK_MAGIC.to_vec();
        chunk.extend_from_slice(&0u16.to_be_bytes());
        put_name(&mut chunk, &DomainName::root());
        chunk.extend_from_slice(&[0; 4 + 8]);
        chunk.extend_from_slice(&count); // total
        chunk.extend_from_slice(&0u32.to_be_bytes()); // offset
        chunk.push(0b11111);
        chunk.extend_from_slice(&count);
        for (i, field) in fields.iter().enumerate() {
            chunk.extend_from_slice(field);
            chunk.extend_from_slice(if i == 0 { &[0, 0, 0][..] } else { &[0] });
        }
        chunk
    }

    /// `shared` characters from the label before, `rest` packed.
    fn field(shared: usize, rest: &str) -> Vec<u8> {
        let mut field = Vec::new();
        put_packed(&mut field, rest);
        field[0] |= (shared as u8) << 6;
        field
    }

    proptest! {
        #[test]
        fn a_sorted_label_run_round_trips_front_coded_from_any_chunk_start(
            origin in origin_strategy(),
            run in run_strategy(),
            chunk_bytes in 1usize..=96,
        ) {
            let snap = snapshot(origin, &run);
            let expected: Vec<_> = snap.iter().map(|(d, ns)| (d, ns.clone())).collect();
            let mut builder = SnapshotBuilder::default();
            for frame in encode_snapshot_chunks(0, &snap, 0, chunk_bytes) {
                let chunk = decode_snapshot_chunk(&frame).unwrap();
                prop_assert!(builder.append(chunk.entries).is_ok());
            }
            prop_assert_eq!(&builder.finish(origin, snap.serial(), snap.taken_at()), &snap);
            // Every entry opening a chunk: resumed from each offset, the
            // tail decodes to the snapshot's.
            for start in 0..snap.len() {
                let mut tail = Vec::new();
                for frame in encode_snapshot_chunks(0, &snap, start, chunk_bytes) {
                    tail.extend(decode_snapshot_chunk(&frame).unwrap().entries);
                }
                prop_assert_eq!(&tail[..], &expected[start..]);
            }
            // Escaped owners aside, one chunk is the bytes the layout's
            // rules spell by hand.
            let children = snap
                .iter()
                .filter(|(owner, _)| owner.parent() == Some(origin))
                .map(|(owner, _)| (owner, vec![]))
                .collect();
            let plain =
                ZoneSnapshot::from_entries(origin, snap.serial(), snap.taken_at(), children);
            let train = encode_snapshot_chunks(0, &plain, 0, 1 << 16);
            prop_assert_eq!(train[0].to_vec(), hand_chunk(&plain, 0b11111, None).0);
        }

        #[test]
        fn a_front_coded_owner_is_refused_unless_spelled_the_one_way(
            before in close_label(),
            label in close_label(),
            extra in 1usize..=63,
        ) {
            let canonical = share(&before, &label);
            let first = field(0, &before);
            let root = |l: &str| DomainName::root().child(l).unwrap();
            let decoded = |fields: &[Vec<u8>]| -> Result<Vec<DomainName>, WireError> {
                let chunk = decode_snapshot_chunk(&fields_chunk(fields))?;
                Ok(chunk.entries.into_iter().map(|(owner, _)| owner).collect())
            };
            let spelled = decoded(&[first.clone(), field(canonical, &label[canonical..])]);
            prop_assert_eq!(spelled, Ok(vec![root(&before), root(&label)]));

            // Nothing spelled behind a share.
            for shared in 1..=3u8 {
                prop_assert_eq!(
                    decoded(&[first.clone(), vec![shared << 6]]),
                    Err(WireError::EmptyOwnerRest { shared })
                );
            }
            // Shared and spelled characters past 63.
            let shared = 1 + extra % 3;
            let rest = "a".repeat((64 - shared).max(extra));
            prop_assert_eq!(
                decoded(&[first.clone(), field(shared, &rest)]),
                Err(WireError::OwnerLabelTooLong { shared: shared as u8, rest: rest.len() as u8 })
            );
            // A share past the label before: at the chunk's start, and
            // past a label shorter than three characters.
            prop_assert_eq!(
                decoded(&[field(shared, "a")]),
                Err(WireError::SharePastPredecessor { shared: shared as u8, predecessor: 0 })
            );
            for shared in before.len() + 1..=3 {
                prop_assert_eq!(
                    decoded(&[first.clone(), field(shared, "a")]),
                    Err(WireError::SharePastPredecessor {
                        shared: shared as u8,
                        predecessor: before.len() as u8,
                    })
                );
            }
            // Every other share: below the rule's, the same label is
            // refused; above it, the field spells another label, or is
            // refused, but never this one.
            let others = (0..=3).filter(|&s| s != canonical && s < label.len());
            for shared in others.filter(|&s| s <= before.len()) {
                let result = decoded(&[first.clone(), field(shared, &label[shared..])]);
                if shared < canonical {
                    prop_assert_eq!(
                        result,
                        Err(WireError::NonCanonicalShare {
                            shared: shared as u8,
                            canonical: canonical as u8,
                        })
                    );
                } else if let Ok(owners) = result {
                    prop_assert_ne!(owners[1], root(&label));
                }
            }
        }
    }
}

// A zone built from raw host lists (`ZoneSnapshot::from_entries`) is the
// last-wins map of its input, whatever the order: owners that agree on
// their first eight bytes (inline and interned, and shorter ones), an
// owner given again with another list, input already ascending or not.
// And however many distinct lists there are — past the 256 a build's
// front cache holds, so slots collide — equal lists are one allocation
// and the order within each list is the given one.
mod raw_build {
    use super::*;
    use darkdns::dns::NsSet;
    use std::collections::{BTreeMap, HashMap};

    /// Owners in three shapes that share first eight bytes: `sharedpf`
    /// plus a short tail (inline), the same past the 22-byte inline
    /// bound (interned), and a bare tail, often under eight bytes.
    fn owner_strategy() -> impl Strategy<Value = DomainName> {
        (0..3usize, "[a-z0-9]{1,6}").prop_map(|(shape, tail)| {
            let spelled = match shape {
                0 => format!("sharedpf{tail}.com"),
                1 => format!("sharedpf-past-the-inline-bound-{tail}.com"),
                _ => format!("{tail}.com"),
            };
            DomainName::parse(&spelled).unwrap()
        })
    }

    /// List `k` of a zone: one to three hosts, in descending order for
    /// odd `k`, so an unsorted list must come back as given.
    fn list(k: usize) -> Vec<DomainName> {
        let mut hosts: Vec<DomainName> = (0..1 + k % 3)
            .map(|h| DomainName::parse(&format!("ns{h}-{k}.hosting.net")).unwrap())
            .collect();
        if k % 2 == 1 {
            hosts.reverse();
        }
        hosts
    }

    proptest! {
        #[test]
        fn a_raw_build_is_the_last_wins_map_and_shares_each_distinct_list(
            owners in prop::collection::vec(owner_strategy(), 1..300),
            lists in prop_oneof![1usize..16, 257usize..600],
            picks in prop::collection::vec((any::<u16>(), any::<u16>()), 0..900),
            ascending in any::<bool>(),
        ) {
            // Every entry's list its own allocation, as a parser's are.
            let mut entries: Vec<(DomainName, Vec<DomainName>)> = picks
                .iter()
                .map(|&(o, l)| (owners[usize::from(o) % owners.len()], list(usize::from(l) % lists)))
                .collect();
            let model: BTreeMap<DomainName, Vec<DomainName>> = entries.iter().cloned().collect();
            if ascending {
                entries = model.clone().into_iter().collect();
            }
            let snap = ZoneSnapshot::from_entries(
                DomainName::parse("com").unwrap(),
                Serial::new(1),
                SimTime::ZERO,
                entries,
            );
            prop_assert_eq!(snap.len(), model.len());
            for ((owner, ns), (want_owner, want_hosts)) in snap.iter().zip(&model) {
                prop_assert_eq!(&owner, want_owner);
                prop_assert_eq!(ns.as_slice(), want_hosts.as_slice());
            }
            let mut first: HashMap<&[DomainName], &NsSet> = HashMap::new();
            for ns in snap.ns_column().iter() {
                let shared = *first.entry(ns.as_slice()).or_insert(ns);
                prop_assert!(ns.ptr_eq(shared), "equal lists in separate allocations");
            }
        }
    }
}
