//! RFC 1035 wire-format codec.
//!
//! Implements DNS message encoding and decoding with name compression
//! (§4.1.4), covering the message sections and record types the
//! active-measurement substrate exchanges with simulated resolvers and
//! authoritative servers. The codec is strict on decode: trailing garbage,
//! compression-pointer loops, forward pointers and truncated fields are all
//! errors rather than silent acceptance.
//!
//! # Decode-bounds invariant (machine-checked)
//!
//! Every `decode_*` entry point treats counts and lengths read from the
//! buffer as hostile: an untrusted count must be bounded against the
//! bytes actually remaining (each entry has a known minimum wire cost)
//! **before** any allocation is sized from it, so a 20-byte frame
//! claiming four billion entries is rejected as [`WireError::Truncated`]
//! instead of reserving gigabytes. The rule is catalogued in
//! `docs/INVARIANTS.md` (L2) and enforced by `darkdns-lint`; the decode
//! path is also panic-free (L3) — hostile input produces `WireError`,
//! never an abort.
//!
//! # Name codec: allocation-free, byte-identical
//!
//! Every message family here — `Message`, `RZU4`, `RZUC`, `RZUL` —
//! spells names through one `Encoder::name` / `Decoder::name`
//! pair, so their cost is per-name overhead times hundreds of thousands
//! of names per bootstrap:
//!
//! * **Encode** walks the name's presentation string suffix by suffix
//!   against a compression table keyed on `&str` slices *borrowed from
//!   the names being encoded* — no label vector, no joined suffix
//!   string, no owned keys. The wire rules are unchanged: a suffix
//!   becomes a pointer to its first occurrence, and an occurrence that
//!   starts past offset 0x3FFF is never a pointer target.
//! * **Decode** checks and lowercases each wire label by the label rule
//!   of `name.rs` as it copies it into a stack buffer, and builds the
//!   name from those bytes (inline names never touch the allocator). A
//!   name the rule refuses is walked again through its text form and
//!   [`DomainName::parse`], only to build the error, so every error is
//!   what that route gives. A wire label containing `.` is rejected: it
//!   would otherwise re-parse as several labels, giving one name two
//!   encodings.
//! * **Owners** of `RZU4` delta and `RZUC` chunk entries are children
//!   of the frame's origin almost always, and travel as that one label
//!   (`Encoder::entry` / `Decoder::owner`): its character count and the
//!   label packed in base 38, the label rule's alphabet, three
//!   characters to two bytes (`pack_label` / `unpack_label`). An `RZUC`
//!   chunk is a run of the sorted zone, so there a label first shares
//!   what it can of its first three characters with the chunk's previous
//!   such owner (a [`Predecessor`] on the stack, reset at each chunk and
//!   each escaped owner): the count byte's top two bits say how many,
//!   the low six how many follow, packed. One rule fixes the share, so a
//!   label has one spelling; an `RZU4` frame, whose owners are scattered
//!   over the zone, never shares. The one owner codec takes the
//!   predecessor as a parameter and whether to front-code as a constant,
//!   so the `RZU4` instance compiles without the sharing. Decode
//!   copies the shared characters and unpacks the rest into a stack
//!   buffer and passes the label through the label rule; the origin's
//!   spelling is appended unchecked. Any other owner is a `0x00` escape
//!   and the name through the pair above.
//! * **NS sets** travel one way, in `RZU4` delta frames and `RZUC`
//!   chunks alike: each entry names its set by its index in a
//!   frame-local table, the first use defining it inline
//!   (`Encoder::ns_ref` / `Decoder::table_ns`). A repeated set costs one
//!   byte whatever offset it was defined at, and decodes by a `Vec`
//!   lookup with no hashing: every use of a set in a frame shares one
//!   [`NsSet`], and a 100k-entry bootstrap holds one per distinct
//!   provider set and chunk instead of 100k private ones.
//! * **Shard serials** in an `RZUA` lookup response follow the same
//!   first-use rule in a fixed 62-slot table keyed by (query TLD,
//!   serial): the first row of a key spells the `u32`, later rows name
//!   its slot in six spare bits of their flag byte.
//!
//! `tests/wire_golden.rs` pins every encoder's bytes and keeps the
//! retired layouts as refusal vectors; `tests/alloc_budget.rs` pins the
//! allocation counts.

use crate::diff::{NsChange, ZoneDelta};
use crate::hash::FxBuildHasher;
use crate::name::{DomainName, NameBuf, NameError};
use crate::record::{RData, RecordClass, RecordType, ResourceRecord, SoaData};
use crate::serial::Serial;
use crate::zone::NsSet;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use darkdns_sim::time::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete field was read.
    Truncated,
    /// A compression pointer points at or after its own location.
    ForwardPointer { at: usize, target: usize },
    /// Compression pointers form a loop (or exceed the hop limit).
    PointerLoop,
    /// A label byte has the reserved `10`/`01` top-bit pattern, or an
    /// `RZU4` entry's owner field starts with a byte that is neither a
    /// label length (1..=63) nor the `0x00` escape.
    BadLabelType(u8),
    /// The decoded name is not valid presentation-form DNS.
    BadName(String),
    /// TYPE value we do not implement.
    UnsupportedType(u16),
    /// RDLENGTH disagrees with the actual RDATA encoding.
    RdataLength { declared: usize, actual: usize },
    /// Bytes remained after the message was fully parsed.
    TrailingBytes(usize),
    /// A frame did not start with the magic its decoder reads — a
    /// retired family's (`RZU1`, `RZU2`, `RZU3`, `RZUR`, `RZUS`, `RZUE`)
    /// included.
    BadMagic,
    /// A flags byte outside the defined set: snapshot chunk flag bits
    /// this build does not know, or a lookup answer row naming a serial
    /// slot past the next definition. A snapshot chunk without its
    /// NS-table, owner-label, packed-label and front-coded bits is in an
    /// earlier layout and is refused with this too, never misread.
    BadFlags(u8),
    /// A snapshot continuation chunk's `(offset, count, total)` bounds
    /// are inconsistent (out of range, or the last-chunk flag disagrees
    /// with the arithmetic).
    BadChunk { offset: u32, count: u32, total: u32 },
    /// An owner label's base-38 group is at or above its bound (38³,
    /// 38² or 38 for a group of three, two or one characters): no label
    /// spells it.
    BadPackedGroup(u16),
    /// An `RZUC` owner field shares `shared` characters with the owner
    /// before it and spells none of its own: a label spells at least its
    /// last character.
    EmptyOwnerRest { shared: u8 },
    /// An `RZUC` owner field's shared and spelled characters add up to a
    /// label longer than 63.
    OwnerLabelTooLong { shared: u8, rest: u8 },
    /// An `RZUC` owner field shares more characters than the owner before
    /// it in the chunk has (none at a chunk's start or after an escaped
    /// owner; `predecessor` counts at most the three that may be shared).
    SharePastPredecessor { shared: u8, predecessor: u8 },
    /// An `RZUC` owner field shares fewer characters than the one rule
    /// (`min(3, common prefix, length − 1)`) gives its label: a label has
    /// one spelling in a chunk.
    NonCanonicalShare { shared: u8, canonical: u8 },
    /// A delta or snapshot chunk entry's NS-set reference names a set
    /// past the `defined` ones the frame has spelled so far (or the next one,
    /// which it would define). A reference that is not the minimal
    /// LEB128 spelling of a `u32` reads as `index: u32::MAX`.
    BadNsRef { index: u32, defined: u32 },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::ForwardPointer { at, target } => {
                write!(f, "forward compression pointer at {at} -> {target}")
            }
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::BadLabelType(b) => write!(f, "reserved label type byte {b:#04x}"),
            WireError::BadName(e) => write!(f, "invalid name: {e}"),
            WireError::UnsupportedType(t) => write!(f, "unsupported TYPE {t}"),
            WireError::RdataLength { declared, actual } => {
                write!(f, "RDLENGTH {declared} but RDATA is {actual} bytes")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadMagic => write!(f, "unknown or retired frame magic"),
            WireError::BadFlags(b) => write!(f, "unknown flags byte {b:#04x}"),
            WireError::BadChunk { offset, count, total } => {
                write!(f, "snapshot chunk bounds {offset}+{count} inconsistent with total {total}")
            }
            WireError::BadPackedGroup(v) => write!(f, "packed owner label group {v} out of range"),
            WireError::EmptyOwnerRest { shared } => {
                write!(f, "owner label shares {shared} characters and spells none")
            }
            WireError::OwnerLabelTooLong { shared, rest } => {
                write!(f, "owner label of {shared} shared and {rest} spelled characters past 63")
            }
            WireError::SharePastPredecessor { shared, predecessor } => {
                write!(f, "owner label shares {shared} of a {predecessor}-character predecessor")
            }
            WireError::NonCanonicalShare { shared, canonical } => {
                write!(f, "owner label shares {shared} characters, its one spelling {canonical}")
            }
            WireError::BadNsRef { index, defined } => {
                write!(f, "NS-set reference {index} with {defined} sets defined")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Response codes (RFC 1035 §4.1.1 plus NOTIMP alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    /// NXDOMAIN — the signal the paper's NS probes use to conclude a domain
    /// left the zone.
    NxDomain,
    NotImp,
    Refused,
    Other(u8),
}

impl Rcode {
    const fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c,
        }
    }

    pub fn from_code(c: u8) -> Rcode {
        match c {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other & 0x0f),
        }
    }
}

/// Message header flags and counts (counts are derived from the section
/// vectors on encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub id: u16,
    pub is_response: bool,
    pub opcode: u8,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub rcode: Rcode,
}

impl Header {
    fn query(id: u16) -> Self {
        Header {
            id,
            is_response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
        }
    }

    pub fn response_to(query: &Header, rcode: Rcode) -> Self {
        Header {
            id: query.id,
            is_response: true,
            opcode: query.opcode,
            authoritative: false,
            truncated: false,
            recursion_desired: query.recursion_desired,
            recursion_available: true,
            rcode,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub name: DomainName,
    pub qtype: RecordType,
    pub qclass: RecordClass,
}

impl Question {
    pub fn new(name: DomainName, qtype: RecordType) -> Self {
        Question { name, qtype, qclass: RecordClass::In }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<ResourceRecord>,
    pub authorities: Vec<ResourceRecord>,
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    pub fn query(id: u16, name: DomainName, qtype: RecordType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(name, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encode to wire format with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.header(self);
        for q in &self.questions {
            enc.name(&q.name);
            enc.buf.put_u16(q.qtype.code());
            enc.buf.put_u16(q.qclass.code());
        }
        for rr in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            enc.record(rr);
        }
        enc.buf.to_vec()
    }

    /// Decode from wire format. The entire buffer must be consumed.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut dec = Decoder::new(bytes);
        let (header, counts) = dec.header()?;
        // The qdcount is untrusted: every question costs at least one
        // wire byte, so a count the rest of the buffer cannot hold is a
        // truncation — caught before the allocation is sized from the
        // hostile header. (One byte, not the true 5-byte minimum, so
        // malformed-but-short frames still report their specific decode
        // error rather than a blanket truncation.)
        if counts.0 as usize > dec.remaining() {
            return Err(WireError::Truncated);
        }
        let mut questions = Vec::with_capacity(counts.0 as usize);
        for _ in 0..counts.0 {
            questions.push(dec.question()?);
        }
        let mut sections: [Vec<ResourceRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, count) in [counts.1, counts.2, counts.3].into_iter().enumerate() {
            for _ in 0..count {
                sections[i].push(dec.record()?);
            }
        }
        if dec.pos != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message { header, questions, answers, authorities, additionals })
    }
}

/// `'a` is the lifetime of the names being encoded: the compression
/// table borrows its keys from them.
struct Encoder<'a> {
    buf: BytesMut,
    /// Suffix (presentation form) -> offset of its first encoding. Fx:
    /// the keys are this process's own zone state, as for every
    /// name-keyed map in the crate.
    compression: HashMap<&'a str, u16, FxBuildHasher>,
    /// NS-set content -> its index in the frame's set table. Keyed by
    /// content, so equal sets held in separate allocations share one
    /// index; Fx as above.
    ns_table: HashMap<&'a [DomainName], u32, FxBuildHasher>,
}

impl<'a> Encoder<'a> {
    fn new() -> Self {
        Encoder::with_capacity(512, 0, 0)
    }

    /// An encoder whose buffer holds `bytes` and whose compression and
    /// set tables hold `suffixes` and `sets` keys before they first grow.
    fn with_capacity(bytes: usize, suffixes: usize, sets: usize) -> Self {
        Encoder {
            buf: BytesMut::with_capacity(bytes),
            compression: HashMap::with_capacity_and_hasher(suffixes, FxBuildHasher::default()),
            ns_table: HashMap::with_capacity_and_hasher(sets, FxBuildHasher::default()),
        }
    }

    /// Start the next frame, keeping every allocation.
    fn reset(&mut self) {
        self.buf.clear();
        self.compression.clear();
        self.ns_table.clear();
    }

    fn header(&mut self, msg: &Message) {
        let h = &msg.header;
        self.buf.put_u16(h.id);
        let mut flags: u16 = 0;
        if h.is_response {
            flags |= 1 << 15;
        }
        flags |= u16::from(h.opcode & 0x0f) << 11;
        if h.authoritative {
            flags |= 1 << 10;
        }
        if h.truncated {
            flags |= 1 << 9;
        }
        if h.recursion_desired {
            flags |= 1 << 8;
        }
        if h.recursion_available {
            flags |= 1 << 7;
        }
        flags |= u16::from(h.rcode.code() & 0x0f);
        self.buf.put_u16(flags);
        self.buf.put_u16(msg.questions.len() as u16);
        self.buf.put_u16(msg.answers.len() as u16);
        self.buf.put_u16(msg.authorities.len() as u16);
        self.buf.put_u16(msg.additionals.len() as u16);
    }

    /// Encode a name, emitting a compression pointer to the longest
    /// previously-encoded suffix. Allocation-free apart from table
    /// growth: each suffix is a slice of the name's own spelling.
    fn name(&mut self, name: &'a DomainName) {
        let mut suffix: &'a str = name.raw();
        while !suffix.is_empty() {
            if let Some(&offset) = self.compression.get(suffix) {
                self.buf.put_u16(0xC000 | offset);
                return;
            }
            // Offsets beyond 0x3FFF cannot be pointer targets.
            let here = self.buf.len();
            if here <= 0x3FFF {
                self.compression.insert(suffix, here as u16);
            }
            let (label, rest) = suffix.split_once('.').unwrap_or((suffix, ""));
            debug_assert!(label.len() <= 63);
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label.as_bytes());
            suffix = rest;
        }
        self.buf.put_u8(0);
    }

    /// Encode one `RZU4` / `RZUC` entry: its owner field, then a
    /// reference to each of its NS sets (one, or a change's old and new).
    /// The owner is its one label under `origin` (the frame origin's
    /// canonical spelling), never entering the compression table:
    /// `FRONT_CODED` (an `RZUC` chunk), the characters it shares with the
    /// predecessor `prev` ([`Predecessor::share`]) in the count byte's
    /// top two bits, the rest's count in the low six, then the rest
    /// packed in base 38 ([`pack_label`]), and the label becomes the
    /// predecessor; otherwise (an `RZU4` frame), the count byte and the
    /// whole label packed. Any other owner — or a label with a byte
    /// outside the alphabet, which no canonical name has — is the `0x00`
    /// escape and the name in its compressible form, and clears `prev`.
    fn entry<const FRONT_CODED: bool, const N: usize>(
        &mut self,
        origin: &str,
        owner: &'a DomainName,
        sets: [&'a NsSet; N],
        prev: &mut Predecessor,
    ) {
        let label = label_under(owner.raw(), origin).map(str::as_bytes);
        let shared = match label {
            Some(label) if FRONT_CODED => prev.share(label),
            _ => 0,
        };
        let mut field = [0u8; OWNER_FIELD_MAX];
        let len = label.and_then(|label| pack_label(&label[shared..], &mut field)).map(<[u8]>::len);
        match label.zip(len) {
            Some((label, len)) => {
                field[0] |= (shared as u8) << 6;
                self.buf.put_slice(&field[..len]);
                if FRONT_CODED {
                    prev.follow(label);
                }
            }
            None => {
                self.buf.put_u8(0);
                self.name(owner);
                *prev = Predecessor::default();
            }
        }
        for ns in sets {
            self.ns_ref(ns);
        }
    }

    /// Encode an entry's NS set as a minimal LEB128 reference into the
    /// frame's set table: the index of its earlier definition, or the
    /// next index followed by the set spelled out (`u16` host count, then
    /// the host names), which defines it.
    fn ns_ref(&mut self, ns: &'a NsSet) {
        let next = self.ns_table.len() as u32;
        let index = *self.ns_table.entry(ns.as_slice()).or_insert(next);
        let mut rest = index;
        while rest >= 0x80 {
            self.buf.put_u8(rest as u8 | 0x80);
            rest >>= 7;
        }
        self.buf.put_u8(rest as u8);
        if index == next {
            debug_assert!(ns.len() <= u16::MAX as usize);
            self.buf.put_u16(ns.len() as u16);
            for host in ns {
                self.name(host);
            }
        }
    }

    fn record(&mut self, rr: &'a ResourceRecord) {
        self.name(&rr.name);
        self.buf.put_u16(rr.record_type().code());
        self.buf.put_u16(rr.class.code());
        self.buf.put_u32(rr.ttl);
        // Reserve RDLENGTH, encode RDATA, then backpatch.
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        let start = self.buf.len();
        self.rdata(&rr.rdata);
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    fn rdata(&mut self, rdata: &'a RData) {
        match rdata {
            RData::A(ip) => self.buf.put_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.put_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Mx { preference, exchange } => {
                self.buf.put_u16(*preference);
                self.name(exchange);
            }
            RData::Txt(bytes) => {
                // Split into <=255-byte character strings; an empty TXT is
                // one zero-length character string.
                if bytes.is_empty() {
                    self.buf.put_u8(0);
                } else {
                    for chunk in bytes.chunks(255) {
                        self.buf.put_u8(chunk.len() as u8);
                        self.buf.put_slice(chunk);
                    }
                }
            }
            RData::Soa(s) => {
                self.name(&s.mname);
                self.name(&s.rname);
                self.buf.put_u32(s.serial);
                self.buf.put_u32(s.refresh);
                self.buf.put_u32(s.retry);
                self.buf.put_u32(s.expire);
                self.buf.put_u32(s.minimum);
            }
        }
    }
}

/// A name's wire labels copied verbatim into its text form: the slow
/// route that builds the error of every wire name the label rule
/// refuses.
struct NameText {
    text: [u8; 253],
    len: usize,
}

impl Default for NameText {
    fn default() -> Self {
        NameText { text: [0; 253], len: 0 }
    }
}

impl NameText {
    /// Append `label` behind a dot. A label holding a dot is refused: it
    /// would re-parse as a label boundary, one name with two encodings.
    fn push(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.contains(&b'.') {
            return Err(WireError::BadName("`.` inside a wire label".into()));
        }
        let sep = usize::from(self.len > 0);
        let grown = self.len + sep + label.len();
        let Some(dst) = self.text.get_mut(self.len..grown) else {
            return Err(WireError::BadName(NameError::TooLong(grown).to_string()));
        };
        if sep == 1 {
            dst[0] = b'.';
        }
        dst[sep..].copy_from_slice(label);
        self.len = grown;
        Ok(())
    }

    /// What `from_utf8` and [`DomainName::parse`] make of the text.
    fn parse(&self) -> Result<DomainName, WireError> {
        let text = std::str::from_utf8(&self.text[..self.len])
            .map_err(|_| WireError::BadName("non-ASCII label".into()))?;
        DomainName::parse(text).map_err(|e| WireError::BadName(e.to_string()))
    }
}

/// What an owner field's `label` under `origin` gives through its text
/// form, as [`Decoder::name_via_text`] gives it for the same labels in a
/// name: only to build the error of an owner the fast path refused.
#[cold]
fn owner_via_text(label: &[u8], origin: &str) -> Result<DomainName, WireError> {
    let mut text = NameText::default();
    text.push(label)?;
    for origin_label in origin.split('.').filter(|l| !l.is_empty()) {
        text.push(origin_label.as_bytes())?;
    }
    text.parse()
}

/// What `owner` spells under `origin`, both canonical spellings (the
/// root's is empty); `None` unless `owner` is below `origin`. It is one
/// label unless it holds a dot, which [`pack_label`] refuses.
fn label_under<'s>(owner: &'s str, origin: &str) -> Option<&'s str> {
    let label = match origin {
        "" => owner,
        _ => owner.strip_suffix(origin)?.strip_suffix('.')?,
    };
    (!label.is_empty()).then_some(label)
}

/// The label rule's alphabet (lowercase: owners are canonical) in byte
/// order; a character's base-38 digit is its index here.
const PACK_ALPHABET: &[u8; 38] = b"-0123456789_abcdefghijklmnopqrstuvwxyz";

/// Set in a group's sum when a byte is outside [`PACK_ALPHABET`]; the
/// largest valid group, 38³ − 1, is below it.
const PACK_OUTSIDE: u32 = 1 << 16;

/// Byte -> its digit in [`PACK_ALPHABET`] times `38^p`, for the byte at
/// each place `p` of a group from the right, or [`PACK_OUTSIDE`] for a
/// byte outside the alphabet: a group's value is one lookup per byte,
/// summed.
const PACK_PLACES: [[u32; 256]; 3] = {
    let mut places = [[PACK_OUTSIDE; 256]; 3];
    let mut i = 0;
    while i < PACK_ALPHABET.len() {
        let b = PACK_ALPHABET[i] as usize;
        places[0][b] = i as u32;
        places[1][b] = i as u32 * 38;
        places[2][b] = i as u32 * 38 * 38;
        i += 1;
    }
    places
};

/// Two-character group value (below 38²) -> its two characters.
const PACK_PAIRS: [[u8; 2]; 38 * 38] = {
    let mut pairs = [[0; 2]; 38 * 38];
    let mut v = 0;
    while v < pairs.len() {
        pairs[v] = [PACK_ALPHABET[v / 38], PACK_ALPHABET[v % 38]];
        v += 1;
    }
    pairs
};

/// The longest owner field that carries a label: the length byte and a
/// 63-character label packed into 42 bytes.
const OWNER_FIELD_MAX: usize = 1 + 42;

/// Bytes a label of `chars` characters takes packed: `⌈2·chars/3⌉`.
fn packed_len(chars: usize) -> usize {
    (2 * chars).div_ceil(3)
}

/// `label`'s owner field, written into `field`: its character count,
/// then the label in base 38, each group of three characters a
/// big-endian `u16` (below 38³ = 54 872) and a trailing group of two a
/// `u16` below 38², of one a byte below 38. `label` is not empty; `None`
/// if it is over 63 bytes or has a byte outside [`PACK_ALPHABET`], a dot
/// included.
fn pack_label<'f>(label: &[u8], field: &'f mut [u8; OWNER_FIELD_MAX]) -> Option<&'f [u8]> {
    let out = field.get_mut(..1 + packed_len(label.len()))?;
    out[0] = label.len() as u8;
    let [ones, thirty_eights, squares] = &PACK_PLACES;
    let place = |table: &[u32; 256], b: u8| table[usize::from(b)];
    // Each group's sum carries `PACK_OUTSIDE` if a byte was outside.
    let mut seen = 0;
    let (groups, tail) = label.as_chunks::<3>();
    let (pairs, _) = out[1..].as_chunks_mut::<2>();
    for (pair, &[a, b, c]) in pairs.iter_mut().zip(groups) {
        let v = place(squares, a) + place(thirty_eights, b) + place(ones, c);
        seen |= v;
        *pair = (v as u16).to_be_bytes();
    }
    match (tail, &mut out[1 + 2 * groups.len()..]) {
        (&[a], [x]) => {
            let v = place(ones, a);
            seen |= v;
            *x = v as u8;
        }
        (&[a, b], [x, y]) => {
            let v = place(thirty_eights, a) + place(ones, b);
            seen |= v;
            [*x, *y] = (v as u16).to_be_bytes();
        }
        _ => {}
    }
    if seen < PACK_OUTSIDE {
        Some(out)
    } else {
        None
    }
}

/// Unpack `packed`, the `⌈2L/3⌉` bytes [`pack_label`] wrote for a label
/// of `L = out.len()` characters, into `out`. A group of `n` characters
/// at or above `38^n` is [`WireError::BadPackedGroup`], so a label has
/// one spelling.
fn unpack_label(packed: &[u8], out: &mut [u8]) -> Result<(), WireError> {
    let (groups, tail) = out.as_chunks_mut::<3>();
    let (pairs, _) = packed.as_chunks::<2>();
    for (group, &pair) in groups.iter_mut().zip(pairs) {
        let v = u16::from_be_bytes(pair);
        if v >= 38 * 38 * 38 {
            return Err(WireError::BadPackedGroup(v));
        }
        let [b, c] = PACK_PAIRS[usize::from(v % (38 * 38))];
        *group = [PACK_ALPHABET[usize::from(v / (38 * 38))], b, c];
    }
    let rest = packed.get(2 * groups.len()..).unwrap_or_default();
    let v = rest.iter().fold(0, |v, &b| v << 8 | u16::from(b));
    match tail {
        [] => {}
        [c] if v < 38 => *c = PACK_ALPHABET[usize::from(v)],
        [b, c] if v < 38 * 38 => [*b, *c] = PACK_PAIRS[usize::from(v)],
        _ => return Err(WireError::BadPackedGroup(v)),
    }
    Ok(())
}

/// The first characters (at most three) of the owner label an `RZUC`
/// chunk spelled last, which the next one may share: empty at a chunk's
/// start and after an escaped owner.
#[derive(Default)]
struct Predecessor {
    head: [u8; 3],
    len: u8,
}

impl Predecessor {
    /// The characters `label` shares with the predecessor, by the one
    /// rule: their common prefix, at most three and never the whole
    /// label, which spells at least its last character. `label` is not
    /// empty; at most three bytes are compared.
    fn share(&self, label: &[u8]) -> usize {
        let most = usize::from(self.len).min(label.len() - 1);
        self.head[..most].iter().zip(label).take_while(|(a, b)| a == b).count()
    }

    /// Make `label` the predecessor of the next owner.
    fn follow(&mut self, label: &[u8]) {
        match label.first_chunk() {
            Some(&head) => *self = Predecessor { head, len: 3 },
            None => {
                self.head[..label.len()].copy_from_slice(label);
                self.len = label.len() as u8;
            }
        }
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let mut b = self.take(2)?;
        Ok(b.get_u16())
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32())
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        // take(8) returned exactly 8 bytes; a length mismatch is
        // unreachable, but the decode path stays panic-free by policy.
        Ok(u64::from_be_bytes(b.try_into().map_err(|_| WireError::Truncated)?))
    }

    /// `N` consecutive `u64`s: one counter row of an `RZUQ` report.
    fn u64s<const N: usize>(&mut self) -> Result<[u64; N], WireError> {
        let mut row = [0u64; N];
        for v in &mut row {
            *v = self.u64()?;
        }
        Ok(row)
    }

    /// Advance past an encoded name without materialising it: labels are
    /// skipped in place and a compression pointer (2 bytes) ends the
    /// walk — the allocation-free half of [`Decoder::name`], for callers
    /// that only need what lies *behind* the name.
    fn skip_name(&mut self) -> Result<(), WireError> {
        loop {
            let len = self.u8()?;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        return Ok(());
                    }
                    self.take(len as usize)?;
                }
                0xC0 => {
                    self.u8()?; // pointer low byte; the target is elsewhere
                    return Ok(());
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
    }

    /// Read an NS set's `u16` host count. Untrusted: every host name
    /// costs at least 1 byte, so a count the rest of the buffer cannot
    /// hold is a truncation — caught before the host vector is sized
    /// from it.
    fn ns_count(&mut self) -> Result<usize, WireError> {
        let count = self.u16()? as usize;
        if count > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    /// Decode an NS set spelled out by [`Encoder::ns_ref`] into a fresh
    /// [`NsSet`]. Host order is preserved as encoded.
    fn ns_spelled(&mut self) -> Result<NsSet, WireError> {
        let count = self.ns_count()?;
        let mut hosts = Vec::with_capacity(count);
        for _ in 0..count {
            hosts.push(self.name()?);
        }
        Ok(NsSet::from_raw(hosts))
    }

    /// Read an entry's NS-set reference, a minimal LEB128 `u32`, and
    /// check it against the `defined` sets so far: it names one of them,
    /// or equals `defined` and announces the next definition.
    fn ns_ref(&mut self, defined: u32) -> Result<u32, WireError> {
        let mut index = 0u32;
        for shift in [0, 7, 14, 21, 28] {
            let byte = self.u8()?;
            // One spelling per value: a zero last group after the first
            // byte spells a shorter value long, and a fifth byte may only
            // carry the top four bits.
            if (byte == 0 && shift > 0) || (shift == 28 && byte > 0x0F) {
                break;
            }
            index |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if index > defined {
                    return Err(WireError::BadNsRef { index, defined });
                }
                return Ok(index);
            }
        }
        Err(WireError::BadNsRef { index: u32::MAX, defined })
    }

    /// Read an entry's NS set through the frame's set table `sets`: a
    /// reference ([`Decoder::ns_ref`]) to an earlier definition, or the
    /// next index followed by the set spelled out, which defines it. So
    /// every use of a set in the frame, the first included, shares one
    /// [`NsSet`]. The table needs no bound of its own: it grows one slot
    /// per definition read, and a definition costs at least 3 bytes
    /// (reference and `u16` host count), so the frame's length bounds it.
    fn table_ns(&mut self, sets: &mut Vec<NsSet>) -> Result<NsSet, WireError> {
        let index = self.ns_ref(sets.len() as u32)?;
        match sets.get(index as usize) {
            Some(set) => Ok(set.clone()),
            None => {
                let set = self.ns_spelled()?;
                sets.push(set.clone());
                Ok(set)
            }
        }
    }

    /// Decode `count` `(owner, NS-set reference)` entries — the body of
    /// an `RZUC` chunk and an `RZU4` frame's added and removed sections —
    /// against the frame's `origin` (its canonical spelling) and set
    /// table `sets`, each owner front-coded against the one before when
    /// `FRONT_CODED` (a chunk's).
    /// The count is untrusted: each entry costs at least 3 bytes (a
    /// 2-byte owner field — a count byte and at least one character's
    /// one packed byte, or the escape and the root — plus a 1-byte
    /// reference), so a count the remaining buffer cannot hold is a
    /// truncation, caught before the allocation is sized from it.
    fn decode_entries<const FRONT_CODED: bool>(
        &mut self,
        count: usize,
        origin: &str,
        sets: &mut Vec<NsSet>,
    ) -> Result<Vec<(DomainName, NsSet)>, WireError> {
        if count.checked_mul(3).is_none_or(|need| need > self.remaining()) {
            return Err(WireError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        let mut prev = Predecessor::default();
        for _ in 0..count {
            entries.push((self.owner::<FRONT_CODED>(origin, &mut prev)?, self.table_ns(sets)?));
        }
        Ok(entries)
    }

    /// Decode an entry's owner field, written by [`Encoder::entry`],
    /// under the frame's `origin` (its canonical spelling). `0` escapes
    /// to a name at the cursor ([`Decoder::name`]), any owner, and clears
    /// the predecessor `prev`. Any other byte spells the owner's one
    /// label under the origin: `s`, its top two bits, characters copied
    /// from `prev`, then `r`, its low six, characters packed behind it
    /// ([`unpack_label`]), all in a stack buffer. Unless `FRONT_CODED`
    /// (an `RZU4` frame) `s` is 0 and any other byte is
    /// [`WireError::BadLabelType`]; if so (an `RZUC` chunk), `r = 0`,
    /// `s + r > 63`, `s` past the predecessor and `s` other than the one
    /// rule's ([`Predecessor::share`]) are each refused, so a label has
    /// one spelling. The label goes through the label rule, and the
    /// origin's spelling is appended unchecked, so an owner costs one
    /// label's check. At least 2 bytes.
    fn owner<const FRONT_CODED: bool>(
        &mut self,
        origin: &str,
        prev: &mut Predecessor,
    ) -> Result<DomainName, WireError> {
        let byte = self.u8()?;
        if byte == 0 {
            *prev = Predecessor::default();
            return self.name();
        }
        let (shared, rest) = (byte >> 6, byte & 63);
        if !FRONT_CODED && shared > 0 {
            return Err(WireError::BadLabelType(byte));
        }
        if rest == 0 {
            return Err(WireError::EmptyOwnerRest { shared });
        }
        if shared + rest > 63 {
            return Err(WireError::OwnerLabelTooLong { shared, rest });
        }
        if shared > prev.len {
            return Err(WireError::SharePastPredecessor { shared, predecessor: prev.len });
        }
        let mut text = [0u8; 63];
        if FRONT_CODED {
            // All three: unpacking overwrites those past the share.
            text[..3].copy_from_slice(&prev.head);
        }
        let label = &mut text[..usize::from(shared + rest)];
        let shared = usize::from(shared);
        unpack_label(self.take(packed_len(label.len() - shared))?, &mut label[shared..])?;
        if FRONT_CODED {
            // The label starts with the `shared` characters it took from
            // `prev`, so the rule shares exactly those unless it could
            // take the next one too.
            let most = usize::from(prev.len).min(label.len() - 1);
            if shared < most && label[shared] == prev.head[shared] {
                let canonical = prev.share(label) as u8;
                return Err(WireError::NonCanonicalShare { shared: shared as u8, canonical });
            }
            prev.follow(label);
        }
        let mut name = NameBuf::new();
        if name.push(label) && name.push_canonical(origin) {
            Ok(name.finish())
        } else {
            owner_via_text(label, origin)
        }
    }

    /// Decode `count` claim rows — shared by the HELLO and the `RZUQ`
    /// subscriber rows, and the one place a peer-chosen claim count is
    /// checked: each row is exactly [`CLAIM_LEN`] bytes, so a count the
    /// remaining buffer cannot hold is a truncation, caught before the
    /// allocation is sized from it.
    fn decode_claims(&mut self, count: usize) -> Result<Vec<TldClaim>, WireError> {
        if count.checked_mul(CLAIM_LEN).is_none_or(|need| need > self.remaining()) {
            return Err(WireError::Truncated);
        }
        let mut claims = Vec::with_capacity(count);
        for _ in 0..count {
            let tld = self.u16()?;
            let has_serial = self.u8()?;
            let serial = self.u32()?;
            claims.push(TldClaim {
                tld,
                from_serial: (has_serial != 0).then(|| Serial::new(serial)),
            });
        }
        Ok(claims)
    }

    #[allow(clippy::type_complexity)]
    fn header(&mut self) -> Result<(Header, (u16, u16, u16, u16)), WireError> {
        let id = self.u16()?;
        let flags = self.u16()?;
        let counts = (self.u16()?, self.u16()?, self.u16()?, self.u16()?);
        Ok((
            Header {
                id,
                is_response: flags & (1 << 15) != 0,
                opcode: ((flags >> 11) & 0x0f) as u8,
                authoritative: flags & (1 << 10) != 0,
                truncated: flags & (1 << 9) != 0,
                recursion_desired: flags & (1 << 8) != 0,
                recursion_available: flags & (1 << 7) != 0,
                rcode: Rcode::from_code((flags & 0x0f) as u8),
            },
            counts,
        ))
    }

    /// Decode a (possibly compressed) name starting at the current cursor.
    /// Each label is checked by the label rule and lowercased as it is
    /// copied (`NameBuf`), and the name is built straight from those
    /// bytes: no UTF-8 check, no re-split, no second validation. Nothing
    /// is allocated unless the name is long enough to be interned and new
    /// to the interner. A name the rule refuses is walked again by
    /// [`Decoder::name_via_text`], only to build its error.
    fn name(&mut self) -> Result<DomainName, WireError> {
        let start = self.pos;
        let mut name = NameBuf::new();
        // The error is discarded: any refusal takes the slow walk.
        match self.labels(|label| name.push(label).then_some(()).ok_or(WireError::Truncated)) {
            Ok(()) => Ok(name.finish()),
            Err(_) => {
                self.pos = start;
                self.name_via_text()
            }
        }
    }

    /// What the name at the cursor gives through its text form: labels
    /// copied verbatim and joined by dots, a label holding a dot refused,
    /// then `from_utf8` and [`DomainName::parse`]. Every error a refused
    /// wire name yields is built here, or by [`owner_via_text`] through
    /// the same [`NameText`].
    #[cold]
    fn name_via_text(&mut self) -> Result<DomainName, WireError> {
        let mut text = NameText::default();
        self.labels(|label| text.push(label))?;
        text.parse()
    }

    /// Walk the (possibly compressed) name at the cursor, handing each
    /// label's bytes to `visit` in order, and leave the cursor past the
    /// name's bytes in place. Stops at the first error: a truncation, a
    /// bad pointer or label type, or one `visit` returns.
    fn labels(
        &mut self,
        mut visit: impl FnMut(&[u8]) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut cursor = self.pos;
        let mut followed_pointer = false;
        let mut hops = 0usize;
        loop {
            if cursor >= self.bytes.len() {
                return Err(WireError::Truncated);
            }
            let len = self.bytes[cursor];
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        cursor += 1;
                        if !followed_pointer {
                            self.pos = cursor;
                        }
                        return Ok(());
                    }
                    let start = cursor + 1;
                    let end = start + len as usize;
                    if end > self.bytes.len() {
                        return Err(WireError::Truncated);
                    }
                    visit(&self.bytes[start..end])?;
                    cursor = end;
                    if !followed_pointer {
                        self.pos = cursor;
                    }
                }
                0xC0 => {
                    if cursor + 1 >= self.bytes.len() {
                        return Err(WireError::Truncated);
                    }
                    let target =
                        ((u16::from(len & 0x3F) << 8) | u16::from(self.bytes[cursor + 1])) as usize;
                    if target >= cursor {
                        return Err(WireError::ForwardPointer { at: cursor, target });
                    }
                    hops += 1;
                    if hops > 32 {
                        return Err(WireError::PointerLoop);
                    }
                    if !followed_pointer {
                        self.pos = cursor + 2;
                        followed_pointer = true;
                    }
                    cursor = target;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
    }

    fn question(&mut self) -> Result<Question, WireError> {
        let name = self.name()?;
        let qtype_code = self.u16()?;
        let qtype = RecordType::from_code(qtype_code).ok_or(WireError::UnsupportedType(qtype_code))?;
        let qclass = RecordClass::from_code(self.u16()?);
        Ok(Question { name, qtype, qclass })
    }

    fn record(&mut self) -> Result<ResourceRecord, WireError> {
        let name = self.name()?;
        let type_code = self.u16()?;
        let rtype = RecordType::from_code(type_code).ok_or(WireError::UnsupportedType(type_code))?;
        let class = RecordClass::from_code(self.u16()?);
        let ttl = self.u32()?;
        let rdlen = self.u16()? as usize;
        let rdata_start = self.pos;
        if self.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let rdata = self.rdata(rtype, rdlen)?;
        let consumed = self.pos - rdata_start;
        if consumed != rdlen {
            return Err(WireError::RdataLength { declared: rdlen, actual: consumed });
        }
        Ok(ResourceRecord { name, ttl, class, rdata })
    }

    fn rdata(&mut self, rtype: RecordType, rdlen: usize) -> Result<RData, WireError> {
        Ok(match rtype {
            RecordType::A => {
                let b = self.take(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Aaaa => {
                let b = self.take(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Ns => RData::Ns(self.name()?),
            RecordType::Cname => RData::Cname(self.name()?),
            RecordType::Mx => {
                let preference = self.u16()?;
                RData::Mx { preference, exchange: self.name()? }
            }
            RecordType::Txt => {
                let end = self.pos + rdlen;
                let mut out = Vec::new();
                while self.pos < end {
                    let len = self.u8()? as usize;
                    if self.pos + len > end {
                        return Err(WireError::Truncated);
                    }
                    out.extend_from_slice(self.take(len)?);
                }
                RData::Txt(out)
            }
            RecordType::Soa => RData::Soa(SoaData {
                mname: self.name()?,
                rname: self.name()?,
                serial: self.u32()?,
                refresh: self.u32()?,
                retry: self.u32()?,
                expire: self.u32()?,
                minimum: self.u32()?,
            }),
        })
    }
}

/// Magic prefix of an RZU delta-push frame ("RZU4"). `RZU1`, the layout
/// that spelled every NS set out, `RZU2`, which spelled every owner as a
/// name compressed against the origin, and `RZU3`, which spelled an
/// owner's label a byte a character, are retired: reserved, and refused
/// with [`WireError::BadMagic`] like any unknown magic.
pub const DELTA_PUSH_MAGIC: &[u8; 4] = b"RZU4";

/// A decoded RZU delta-push frame: the net zone change that advanced one
/// shard from `from_serial` to `to_serial`.
///
/// This is the unit the distribution broker fans out: the publisher calls
/// [`encode_delta_push`] **once** per push and hands the resulting
/// [`Bytes`] to every subscriber — the bytes are refcount-shared, never
/// re-encoded or copied per subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPush {
    /// Zone origin (the shard's TLD).
    pub origin: DomainName,
    /// Serial the subscriber must be at for the delta to apply.
    pub from_serial: Serial,
    /// Serial the subscriber reaches after applying the delta.
    pub to_serial: Serial,
    /// Publisher-side timestamp of the push.
    pub pushed_at: SimTime,
    /// The net changes, in canonical (sorted-by-domain) order. Each
    /// distinct NS set of the frame is one [`NsSet`], shared by every
    /// entry (and both sides of a change) that names it.
    pub delta: ZoneDelta,
}

/// Bytes [`encode_delta_push`] reserves per entry: a 12-character
/// packed owner field (9 bytes), a reference, and a share of the set
/// definitions. Above the 14.5-byte `relay_chain` average, so such a
/// frame is written without regrowing.
const DELTA_ENTRY_ESTIMATE: usize = 16;

/// The most keys [`encode_delta_push`] reserves in each table; a larger
/// delta's tables grow past it as they need.
const DELTA_TABLE_KEYS_MAX: usize = 1 << 10;

/// Encode a delta push into a compact shareable frame.
///
/// Layout (all integers big-endian):
///
/// ```text
/// "RZU4"                     magic, 4 bytes
/// origin                     wire-format name (compression target)
/// from_serial u32, to_serial u32, pushed_at u64
/// added u32, removed u32, changed u32        section counts
/// added:   (owner, ns_ref) per entry
/// removed: (owner, ns_ref) per entry
/// changed: (owner, old ns_ref, new ns_ref) per entry
/// ```
///
/// An `owner` field is, for an owner exactly one label under the
/// origin (under the root origin, a one-label name), `u8` length
/// (1..=63, the label's character count) and the label packed in base
/// 38: the alphabet `-0-9_a-z` in byte order gives each character a
/// digit, each group of three characters is a big-endian `u16` (below
/// 38³ = 54 872), and a trailing group of two is a `u16` below 38², of
/// one a byte below 38 — `⌈2L/3⌉` bytes for `L` characters, a group at
/// or above its bound refused ([`WireError::BadPackedGroup`]). Any other
/// owner is `0x00` and the owner as a name. Against `RZU2`, which
/// spelled every owner as a name (a child of the origin as its label
/// and a 2-byte pointer), this saves the pointer and a third of the
/// label per short owner, and costs two things: one escape byte per
/// owner written long, and an in-bailiwick host (`ns1.<owner>`) no
/// longer compresses against its owner, since a short owner is no
/// pointer target; it spells the owner's label again and points at the
/// origin.
///
/// An `ns_ref` names an NS set by its index in one frame-wide table,
/// exactly as an `RZUC` chunk entry does: a minimal LEB128 `u32` `r`
/// read against the `d` sets defined so far in any section, where
/// `r < d` names set `r` and `r == d` is followed by the set spelled out
/// (`u16` host count, then the host names) and defines set `d`. Names
/// use RFC 1035 label encoding with compression pointers scoped to the
/// frame, so the heavily repeated NS host names (a handful of DNS
/// providers serve most delegations) are spelled once per frame and a
/// repeated set costs one byte.
pub fn encode_delta_push(
    origin: &DomainName,
    from_serial: Serial,
    to_serial: Serial,
    pushed_at: SimTime,
    delta: &ZoneDelta,
) -> Bytes {
    // Sized from the delta, so the buffer is not regrown before `freeze`
    // copies it: the fixed header, the origin, and an estimate per entry.
    // Each table holds a key per set reference before it grows: the set
    // table can need no more, and the compression table takes the
    // origin's suffixes and those of each set's hosts, which a
    // `relay_chain` frame's 100 references spell 51 of.
    let entries = delta.added.len() + delta.removed.len() + delta.changed.len();
    let header = 4 + origin.wire_len() + 4 + 4 + 8 + 3 * 4;
    let keys = (entries + delta.changed.len()).min(DELTA_TABLE_KEYS_MAX);
    let mut enc = Encoder::with_capacity(header + entries * DELTA_ENTRY_ESTIMATE, keys, keys);
    enc.buf.put_slice(DELTA_PUSH_MAGIC);
    enc.name(origin);
    enc.buf.put_u32(from_serial.get());
    enc.buf.put_u32(to_serial.get());
    enc.buf.put_u64(pushed_at.as_secs());
    enc.buf.put_u32(delta.added.len() as u32);
    enc.buf.put_u32(delta.removed.len() as u32);
    enc.buf.put_u32(delta.changed.len() as u32);
    let origin = origin.raw();
    let prev = &mut Predecessor::default();
    for (domain, ns) in delta.added.iter().chain(&delta.removed) {
        enc.entry::<false, _>(origin, domain, [ns], prev);
    }
    for chg in &delta.changed {
        enc.entry::<false, _>(origin, &chg.domain, [&chg.old_ns, &chg.new_ns], prev);
    }
    enc.buf.freeze()
}

/// Decode a frame produced by [`encode_delta_push`]. The entire buffer
/// must be consumed. Section order within the frame is preserved, so a
/// frame encoded from a canonical [`ZoneDelta`] decodes to a canonical
/// one (a property [`ZoneDelta::apply`] re-verifies before applying). An
/// NS-set reference past the next definition (or not minimally spelled)
/// is a [`WireError::BadNsRef`].
pub fn decode_delta_push(bytes: &[u8]) -> Result<DeltaPush, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != DELTA_PUSH_MAGIC {
        return Err(WireError::BadMagic);
    }
    let origin = dec.name()?;
    let from_serial = Serial::new(dec.u32()?);
    let to_serial = Serial::new(dec.u32()?);
    let pushed_at = SimTime::from_secs(dec.u64()?);
    let added_count = dec.u32()? as usize;
    let removed_count = dec.u32()? as usize;
    let changed_count = dec.u32()? as usize;
    // Counts are untrusted: an added or removed entry costs at least 3
    // bytes (a 2-byte owner field — a 1-byte label, or the escape and a
    // root name — plus a 1-byte set reference), a changed one 4 (two
    // references), so counts the remaining buffer cannot possibly hold
    // are a truncation, caught here before any allocation is sized from
    // them.
    let min_bytes = (added_count + removed_count)
        .checked_mul(3)
        .and_then(|n| n.checked_add(changed_count.checked_mul(4)?))
        .ok_or(WireError::Truncated)?;
    if min_bytes > dec.remaining() {
        return Err(WireError::Truncated);
    }
    // One set table for the whole frame: a `changed` entry may name a
    // set an `added` one defined.
    let mut sets = Vec::new();
    let spelling = origin.raw();
    let added = dec.decode_entries::<false>(added_count, spelling, &mut sets)?;
    let removed = dec.decode_entries::<false>(removed_count, spelling, &mut sets)?;
    let mut changed = Vec::with_capacity(changed_count);
    for _ in 0..changed_count {
        changed.push(NsChange {
            domain: dec.owner::<false>(spelling, &mut Predecessor::default())?,
            old_ns: dec.table_ns(&mut sets)?,
            new_ns: dec.table_ns(&mut sets)?,
        });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    let delta = ZoneDelta { added, removed, changed };
    Ok(DeltaPush { origin, from_serial, to_serial, pushed_at, delta })
}

// ---------------------------------------------------------------------------
// RZU transport frames
//
// The distribution broker's socket transport exchanges length-prefixed
// frames whose payloads are one of four message kinds, each tagged by a
// 4-byte magic:
//
// * `RZUH` — subscriber HELLO (client -> server): the per-TLD serial
//   claims the catch-up plan is computed from.
// * `RZUS` — the monolithic snapshot push: retired in PR 22 — reserved,
//   refused. Nothing encodes or decodes it; a checkpoint bootstrap
//   travels as an `RZUC` chunk train (below), and a peer that sends the
//   magic is closed with `BadMagic` like any unknown frame.
// * `RZUD` — delta envelope (server -> client): a TLD tag followed by an
//   embedded `RZU4` frame, verbatim — the server writes the broker's
//   refcount-shared frame bytes with no per-subscriber re-encode.
// * `RZUE` — the former eviction notice: retired — reserved, refused.
//   A subscriber that falls behind is never dropped; its lagged pushes
//   are counted, and it heals by reconnecting with its claims. A peer
//   that sends the magic is closed with `BadMagic`.
// * `RZUQ` — stats round trip. As a client -> server frame the magic
//   alone is the query; the server answers with an `RZUQ` report frame
//   carrying its transport counters plus one row per TLD shard
//   ([`ServerStats`] / [`ShardStats`]), then closes. Operators
//   scrape a broker by dialing a fresh connection and sending `RZUQ`
//   instead of `RZUH` — the monitor path shares the subscriber path's
//   framing, bounds and client API without interleaving into a live
//   delta stream.
//
// Every decoder here treats counts and lengths as untrusted: a count the
// remaining buffer cannot possibly hold is rejected before any
// allocation is sized from it (the same discipline as
// [`decode_delta_push`]).
// ---------------------------------------------------------------------------

/// Magic prefix of a subscriber HELLO frame.
pub const HELLO_MAGIC: &[u8; 4] = b"RZUH";
/// Magic prefix of a delta-envelope frame (TLD tag + embedded `RZU4`).
pub const DELTA_ENVELOPE_MAGIC: &[u8; 4] = b"RZUD";

/// One shard claim in a HELLO: the TLD index (transport-level `u16`, the
/// registry's `TldId` payload) and the serial the subscriber claims to
/// hold for it (`None` = no prior state; bootstrap me).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TldClaim {
    pub tld: u16,
    pub from_serial: Option<Serial>,
}

/// Bytes per encoded [`TldClaim`] row, in the HELLO and in the `RZUQ`
/// subscriber rows alike.
const CLAIM_LEN: usize = 7;

/// Append a `u16` claim count and its rows: per claim `u16` TLD, `u8`
/// has-serial flag, `u32` serial (zero when absent). The one writer of
/// the claim row; [`Decoder::decode_claims`] is its one reader.
fn put_claims(buf: &mut BytesMut, claims: &[TldClaim]) {
    debug_assert!(claims.len() <= u16::MAX as usize);
    buf.put_u16(claims.len() as u16);
    for claim in claims {
        buf.put_u16(claim.tld);
        buf.put_u8(claim.from_serial.is_some() as u8);
        buf.put_u32(claim.from_serial.map_or(0, Serial::get));
    }
}

/// A subscriber's mid-snapshot progress claim: it holds the first
/// `entries` entries of the chunked snapshot at `serial` and asks the
/// server to resume from there if that checkpoint is still being served
/// (otherwise the server restarts the chunk sequence from offset 0 and
/// the subscriber discards its partial state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotResume {
    /// Serial of the partially-received checkpoint snapshot.
    pub serial: Serial,
    /// Entries already received (a chunk boundary by construction).
    pub entries: u32,
}

/// A HELLO: the per-TLD serial claims plus any mid-snapshot resume
/// claims appended by a subscriber that was cut during a chunked
/// bootstrap. A claims-only sender writes
/// `HelloFrame { claims, ..Default::default() }`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HelloFrame {
    pub claims: Vec<TldClaim>,
    pub resume: Vec<(u16, SnapshotResume)>,
}

/// Encode a subscriber HELLO.
///
/// Layout: `"RZUH"`, the claims (`u16` count, then per claim `u16` TLD,
/// `u8` has-serial flag, `u32` serial — zero when absent), then an
/// optional resume section: a `u16` count and per row `u16` TLD, `u32`
/// snapshot serial, `u32` entries-received (10 bytes each). With
/// `resume` empty the section is omitted and the frame is the legacy
/// claims-only layout, byte for byte.
pub fn encode_hello(hello: &HelloFrame) -> Bytes {
    let HelloFrame { claims, resume } = hello;
    debug_assert!(resume.len() <= u16::MAX as usize);
    let mut buf = BytesMut::with_capacity(6 + claims.len() * CLAIM_LEN + 2 + resume.len() * 10);
    buf.put_slice(HELLO_MAGIC);
    put_claims(&mut buf, claims);
    if !resume.is_empty() {
        buf.put_u16(resume.len() as u16);
        for &(tld, r) in resume {
            buf.put_u16(tld);
            buf.put_u32(r.serial.get());
            buf.put_u32(r.entries);
        }
    }
    buf.freeze()
}

/// Decode a HELLO produced by [`encode_hello`]: the legacy layout
/// (claims only — the resume section is simply absent) or the
/// resume-extended one. All counts are untrusted and bounded before any
/// allocation is sized from them, and the entire buffer must be
/// consumed: a byte past the resume rows (where a retired
/// subscription-scope byte once sat) is [`WireError::TrailingBytes`].
pub fn decode_hello(bytes: &[u8]) -> Result<HelloFrame, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != HELLO_MAGIC {
        return Err(WireError::BadMagic);
    }
    let count = dec.u16()? as usize;
    let claims = dec.decode_claims(count)?;
    let mut resume = Vec::new();
    if dec.remaining() > 0 {
        let rcount = dec.u16()? as usize;
        if rcount.checked_mul(10).is_none_or(|need| need > dec.remaining()) {
            return Err(WireError::Truncated);
        }
        resume.reserve_exact(rcount);
        for _ in 0..rcount {
            let tld = dec.u16()?;
            let serial = Serial::new(dec.u32()?);
            let entries = dec.u32()?;
            resume.push((tld, SnapshotResume { serial, entries }));
        }
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok(HelloFrame { claims, resume })
}

/// Magic prefix of a snapshot continuation chunk: a checkpoint snapshot
/// traverses the transport's frame bound in pieces.
pub const SNAPSHOT_CHUNK_MAGIC: &[u8; 4] = b"RZUC";

/// One decoded snapshot continuation chunk: a contiguous `[offset,
/// offset+entries.len())` slice of a checkpoint's entry sequence, tagged
/// with enough context (serial, totals, last flag) that a receiver can
/// assemble the full snapshot incrementally and — after a mid-sequence
/// cut — resume from its last received chunk boundary via a
/// [`SnapshotResume`] HELLO claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Transport-level TLD tag.
    pub tld: u16,
    /// Zone origin of the snapshot being chunked.
    pub origin: DomainName,
    /// Serial of the snapshot every chunk in the sequence belongs to.
    pub serial: Serial,
    /// Capture timestamp of the snapshot.
    pub taken_at: SimTime,
    /// Total entry count of the full snapshot.
    pub total: u32,
    /// Index of this chunk's first entry within the snapshot.
    pub offset: u32,
    /// True on the final chunk (`offset + entries.len() == total`).
    pub last: bool,
    /// The chunk's entries, in snapshot iteration order. Each distinct
    /// NS set of the chunk is one [`NsSet`], shared by every entry that
    /// names it.
    pub entries: Vec<(DomainName, NsSet)>,
}

/// `RZUC` flags bit 0: the last chunk of its train.
const CHUNK_LAST: u8 = 1;
/// `RZUC` flags bit 1: entries name their NS sets through the chunk's
/// set table. Every chunk carries it; one without it is the pre-table
/// layout.
const CHUNK_NS_TABLE: u8 = 2;
/// `RZUC` flags bit 2: entries spell a child of the origin as its one
/// label. Every chunk carries it; one without it spells every owner as
/// a name.
const CHUNK_OWNER_LABELS: u8 = 4;
/// `RZUC` flags bit 3: that label is packed in base 38, as in an `RZU4`
/// frame. Every chunk carries it; one without it spells the label a
/// byte a character.
const CHUNK_PACKED_LABELS: u8 = 8;
/// `RZUC` flags bit 4: that label shares its first characters (at most
/// three) with the chunk's previous such owner, and packs only the rest.
/// Every chunk carries it; one without it packs every label whole.
const CHUNK_FRONT_CODED: u8 = 16;
/// The flag bits every `RZUC` chunk carries.
const CHUNK_LAYOUT: u8 =
    CHUNK_NS_TABLE | CHUNK_OWNER_LABELS | CHUNK_PACKED_LABELS | CHUNK_FRONT_CODED;

/// Encode a snapshot as a sequence of `RZUC` continuation chunks,
/// starting at entry `start_entry` (a resume offset; pass 0 for the full
/// snapshot).
///
/// Each chunk carries `"RZUC"`, `u16` TLD, origin name, `u32` serial,
/// `u64` taken-at, then `u32` total, `u32` offset, `u8` flags (bit 0 =
/// last chunk; bit 1 = NS-set table, bit 2 = owner labels, bit 3 =
/// packed labels and bit 4 = front-coded labels, all four set on every
/// chunk), `u32` entry count, then the entries: an owner field and a
/// reference to its NS set. The owner field is the [`encode_delta_push`]
/// one, front-coded: an owner one label under the origin is a byte
/// `s << 6 | r` and the label's last `r` characters (1..=63) packed in
/// base 38 (`⌈2r/3⌉` bytes), its first `s` (0..=3) being those of the
/// chunk's previous such owner's label. `s` is `min(3, common prefix,
/// L − 1)` for an `L`-character label, so a label has one spelling
/// (`r = 0`, `s + r > 63`, an `s` past the previous label and any other
/// `s` are refused), and with `s = 0` the byte is the `RZU4` count byte.
/// Any other owner is `0x00` and the name (the escape byte, and
/// in-bailiwick hosts no longer compressing against their owner, are
/// the costs of saving the 2-byte origin pointer); it leaves no
/// previous label, and neither does a chunk's start, so each chunk
/// decodes on its own. Neighbours in a sorted run share a prefix: in a
/// 100k-delegation shard most share three characters, which saves two
/// bytes an owner. The reference is a minimal LEB128 `u32` `r`, read against the
/// `d` sets the chunk has defined so far: `r < d` names set `r`, and
/// `r == d` is followed by the set spelled out (`u16` host count, then
/// the host names) and defines set `d`. The set table is keyed by
/// content, so equal sets in separate allocations share one index.
/// Name compression and the set table are scoped per chunk, so every
/// chunk is an independently decodable frame. Entries are packed
/// greedily: a chunk is closed once its
/// encoding reaches `chunk_bytes`, so a chunk can overshoot the target
/// by at most one entry's encoding — callers
/// deriving `chunk_bytes` from a hard frame bound must leave headroom
/// for that (one entry is bounded by one 255-byte name plus a `u16`
/// count of 255-byte NS host names, far below any sane frame bound).
/// Every snapshot produces at least one chunk; an empty snapshot (or
/// `start_entry == len`) yields a single zero-entry final chunk.
pub fn encode_snapshot_chunks(
    tld: u16,
    snapshot: &crate::snapshot::ZoneSnapshot,
    start_entry: usize,
    chunk_bytes: usize,
) -> Vec<Bytes> {
    let total = snapshot.len();
    let start = start_entry.min(total);
    let mut iter = snapshot.entries_from(start);
    let mut offset = start;
    let mut frames = Vec::new();
    // One encoder for the whole train: the tables keep their
    // allocations from chunk to chunk (they are still cleared — both
    // are scoped per chunk), and the scratch buffer is sized once, for
    // a chunk and the entry that overshoots it (or for the whole tail
    // at 32 bytes an entry, when that is less), so it never doubles
    // past the target.
    let mut enc = Encoder::with_capacity(
        chunk_bytes.min((total - start).saturating_mul(32)) + (4 << 10),
        0,
        0,
    );
    let origin = snapshot.origin().raw();
    loop {
        enc.reset();
        let mut prev = Predecessor::default();
        enc.buf.put_slice(SNAPSHOT_CHUNK_MAGIC);
        enc.buf.put_u16(tld);
        enc.name(snapshot.origin());
        enc.buf.put_u32(snapshot.serial().get());
        enc.buf.put_u64(snapshot.taken_at().as_secs());
        enc.buf.put_u32(total as u32);
        enc.buf.put_u32(offset as u32);
        let flags_at = enc.buf.len();
        enc.buf.put_u8(CHUNK_LAYOUT);
        let count_at = enc.buf.len();
        enc.buf.put_u32(0);
        let mut count: u32 = 0;
        // At least one entry per chunk guarantees progress even when the
        // header alone exceeds the byte target.
        while count == 0 || enc.buf.len() < chunk_bytes {
            let Some((domain, ns)) = iter.next() else {
                break;
            };
            enc.entry::<true, _>(origin, domain, [ns], &mut prev);
            count += 1;
        }
        let last = iter.len() == 0;
        if last {
            enc.buf[flags_at] |= CHUNK_LAST;
        }
        enc.buf[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
        offset += count as usize;
        frames.push(Bytes::copy_from_slice(&enc.buf));
        if last {
            return frames;
        }
    }
}

/// Decode one frame produced by [`encode_snapshot_chunks`]. The entire
/// buffer must be consumed; the entry count is untrusted (bounded before
/// allocation), and the chunk's `(offset, count, total, last)`
/// bookkeeping must be arithmetically consistent — a frame claiming
/// entries past `total`, or a last flag that disagrees with
/// `offset + count == total`, is a [`WireError::BadChunk`]. A flags byte
/// other than the table, owner-label, packed-label and front-coded bits
/// plus, optionally, the last bit is a [`WireError::BadFlags`], an NS-set
/// reference past the next definition (or not minimally spelled) a
/// [`WireError::BadNsRef`], a packed group out of range a
/// [`WireError::BadPackedGroup`], and an owner field sharing other than
/// its label's one share an [`WireError::EmptyOwnerRest`],
/// [`WireError::OwnerLabelTooLong`], [`WireError::SharePastPredecessor`]
/// or [`WireError::NonCanonicalShare`].
pub fn decode_snapshot_chunk(bytes: &[u8]) -> Result<SnapshotChunk, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != SNAPSHOT_CHUNK_MAGIC {
        return Err(WireError::BadMagic);
    }
    let tld = dec.u16()?;
    let origin = dec.name()?;
    let serial = Serial::new(dec.u32()?);
    let taken_at = SimTime::from_secs(dec.u64()?);
    let total = dec.u32()?;
    let offset = dec.u32()?;
    let flags = dec.u8()?;
    // Unknown bits are a newer layout, a missing table, owner-label,
    // packed-label or front-coded bit an earlier one: none is read as
    // this one.
    if flags & !CHUNK_LAST != CHUNK_LAYOUT {
        return Err(WireError::BadFlags(flags));
    }
    let last = flags & CHUNK_LAST != 0;
    let count = dec.u32()?;
    // Entries first: a count the buffer cannot hold is a truncation
    // whatever the bookkeeping around it claims.
    let entries = dec.decode_entries::<true>(count as usize, origin.raw(), &mut Vec::new())?;
    let end = offset as u64 + count as u64;
    if end > total as u64 || last != (end == total as u64) {
        return Err(WireError::BadChunk { offset, count, total });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok(SnapshotChunk { tld, origin, serial, taken_at, total, offset, last, entries })
}

/// Peek the entry offset an `RZUC` chunk starts at without decoding its
/// body (the origin name is skipped in place, nothing is allocated) —
/// how a server holding an encoded train finds the chunk boundary a
/// [`SnapshotResume`] claim names.
pub fn peek_snapshot_chunk_offset(bytes: &[u8]) -> Result<u32, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != SNAPSHOT_CHUNK_MAGIC {
        return Err(WireError::BadMagic);
    }
    dec.u16()?; // tld
    dec.skip_name()?;
    dec.take(4 + 8 + 4)?; // serial, taken_at, total
    dec.u32()
}

/// The fixed 6-byte header of a delta envelope: magic plus the TLD tag.
/// The transport writer sends this header followed by the broker's
/// refcount-shared `RZU4` frame bytes verbatim — composing the envelope
/// never re-encodes or copies the delta per subscriber.
pub fn delta_envelope_header(tld: u16) -> [u8; 6] {
    let mut header = [0u8; 6];
    header[..4].copy_from_slice(DELTA_ENVELOPE_MAGIC);
    header[4..].copy_from_slice(&tld.to_be_bytes());
    header
}

/// Decode a delta envelope: the TLD tag and the embedded [`DeltaPush`]
/// (validated by [`decode_delta_push`], including its bounded-count
/// discipline).
pub fn decode_delta_envelope(bytes: &[u8]) -> Result<(u16, DeltaPush), WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != DELTA_ENVELOPE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let tld = dec.u16()?;
    let push = decode_delta_push(&bytes[dec.pos..])?;
    Ok((tld, push))
}

/// Peek the `(from_serial, to_serial)` pair of a bare `RZU4` delta-push
/// frame without decoding its body — the origin name is skipped in
/// place, nothing is allocated. This is what lets a relay (or the
/// server's per-subscriber accounting) track how far a verbatim-
/// forwarded delta stream has advanced at a cost independent of the
/// delta's size.
pub fn peek_delta_push_serials(bytes: &[u8]) -> Result<(Serial, Serial), WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != DELTA_PUSH_MAGIC {
        return Err(WireError::BadMagic);
    }
    dec.skip_name()?;
    let from = Serial::new(dec.u32()?);
    let to = Serial::new(dec.u32()?);
    Ok((from, to))
}

/// Magic prefix of the stats round trip: alone it is the query; with a
/// payload it is the report.
const STATS_MAGIC: &[u8; 4] = b"RZUQ";

/// Declare one counter set: the `pub` snapshot struct, one `u64` field
/// per counter, and whatever else the one field list can say about it.
///
/// * `key { name: Type, }` — fields that identify a row and are not
///   counters (the codec writes them by hand).
/// * `wire { name, }` — the counters an `RZUQ` row carries, **in wire
///   order**. A set with this section gets the `[u64; N]` view the codec
///   loops over; the view is private to the declaring module, so such a
///   set is declared here, beside the codec. Appending a counter to a
///   `wire` list changes the pinned layout (`tests/golden/`) and is
///   refused at compile time by the width assertion below.
/// * `local { name, }` — counters a tier keeps in-process only; the
///   codec skips them and a decoded row reads them as zero.
/// * `, cells Name` after the struct name — also the `AtomicU64` cell
///   struct a tier increments (`cells.name.fetch_add(..)`), with one
///   `load()` returning the snapshot struct. `load` reads the cells in
///   declaration order with `Acquire`: a cell bumped with `Release`
///   publishes what was stored before the bump to the cells declared
///   after it; every other writer may stay `Relaxed`.
///
/// The snapshot struct must derive `Default` (pass the derives in).
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $Stats:ident, cells $Cells:ident {
            $(wire { $($(#[$wm:meta])* $wf:ident,)* })?
            $(local { $($(#[$lm:meta])* $lf:ident,)* })?
        }
    ) => {
        $crate::counter_set! {
            $(#[$meta])*
            pub struct $Stats {
                $(wire { $($(#[$wm])* $wf,)* })?
                $(local { $($(#[$lm])* $lf,)* })?
            }
        }

        #[doc = concat!("The live cells behind a [`", stringify!($Stats), "`].")]
        #[derive(Default)]
        pub struct $Cells {
            $($(pub $wf: ::std::sync::atomic::AtomicU64,)*)?
            $($(pub $lf: ::std::sync::atomic::AtomicU64,)*)?
        }

        impl $Cells {
            /// A point-in-time copy of every cell.
            pub fn load(&self) -> $Stats {
                use ::std::sync::atomic::Ordering::Acquire;
                $Stats {
                    $($($wf: self.$wf.load(Acquire),)*)?
                    $($($lf: self.$lf.load(Acquire),)*)?
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $Stats:ident {
            $(key { $($(#[$km:meta])* $kf:ident: $kt:ty,)* })?
            $(wire { $($(#[$wm:meta])* $wf:ident,)* })?
            $(local { $($(#[$lm:meta])* $lf:ident,)* })?
        }
    ) => {
        $(#[$meta])*
        pub struct $Stats {
            $($($(#[$km])* pub $kf: $kt,)*)?
            $($($(#[$wm])* pub $wf: u64,)*)?
            $($($(#[$lm])* pub $lf: u64,)*)?
        }

        $(impl $Stats {
            /// How many `u64` counters one wire row of this set carries.
            const WIRE_COUNTERS: usize = [$(stringify!($wf)),*].len();

            /// The wire counters, in wire order.
            fn wire_row(&self) -> [u64; Self::WIRE_COUNTERS] {
                [$(self.$wf),*]
            }

            /// A decoded row; everything the wire does not carry is zero.
            fn from_wire_row(row: [u64; Self::WIRE_COUNTERS]) -> Self {
                let [$($wf),*] = row;
                Self { $($wf,)* ..Default::default() }
            }
        })?
    };
}

counter_set! {
    /// Transport-side counters of one server: the `RZUQ` report's server
    /// row, and (through [`ServerCells`]) what `BrokerServer::stats`
    /// copies out. Monotonic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ServerStats, cells ServerCells {
        wire {
            /// Connections registered with the reactor.
            accepted,
            /// Handshakes that produced a live subscription.
            handshakes,
            /// Connections dropped during the handshake (timeout, bad
            /// frame, unknown TLD claim).
            rejected_hellos,
            /// Delta envelopes fully flushed (each wraps the shard's
            /// shared `RZU4` frame verbatim — never re-encoded per
            /// subscriber).
            deltas_sent,
            /// Snapshot bootstraps fully flushed.
            snapshots_sent,
            /// Retired: always 0. It counted `RZUE` eviction notices,
            /// which nothing sends any more; the row stays so the legacy
            /// layout keeps its bytes, and the table-driven layout of
            /// ROADMAP direction 4c leaves it out.
            evict_notices,
            /// Connections that died mid-stream (peer gone, write stall).
            disconnects,
            /// Vectored writes that carried more than one message frame
            /// (several queued messages coalesced into one syscall).
            coalesced_writes,
            /// Frames that rode in a vectored write behind another frame
            /// — each is one write syscall saved at fan-out.
            coalesced_frames,
            /// `RZUQ` stats queries answered (scrape connections).
            stats_queries,
        }
        local {
            /// `RZUC` chunk trains encoded — cache fills plus bootstraps
            /// the shard's cached train could not serve (own chunk size,
            /// off-boundary resume, a checkpoint refreshed meanwhile). N
            /// joiners of one checkpoint move this by one.
            snapshot_trains_encoded,
        }
    }
}

counter_set! {
    /// Point-in-time accounting for one TLD shard — the `RZUQ` report's
    /// shard row, and what `Broker::shard_stats` returns: journal
    /// progress (pushes sealed, checkpoints refreshed, ring retention),
    /// fan-out outcomes (deliveries, lag drops), catch-up
    /// plans served, and publish-path lock health (`lock_contentions`
    /// stays 0 as long as no two threads touch the same shard).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ShardStats {
        key {
            /// The TLD index as the wire carries it (the registry's
            /// `TldId` payload).
            tld: u16,
            /// Shard head serial at snapshot time.
            head_serial: Serial,
        }
        wire {
            /// Live subscribers registered with this shard.
            subscribers,
            /// Deltas published into this shard (= wire frames sealed,
            /// each encoded exactly once).
            pushes,
            /// Total encoded frame bytes (before refcount sharing).
            frame_bytes,
            /// Checkpoint snapshot refreshes.
            checkpoints,
            /// Sealed deltas currently retained in the ring.
            retained_deltas,
            /// Sealed deltas retired from the ring (now served only via
            /// checkpoint).
            retired_deltas,
            /// Messages enqueued to this shard's subscribers.
            deliveries,
            /// Live pushes dropped because a subscriber's buffer was full.
            lagged_messages,
            /// Retired: always 0. It counted subscribers evicted for
            /// falling behind, which no broker does any more; the row
            /// stays so the legacy layout keeps its bytes, and the
            /// table-driven layout of ROADMAP direction 4c leaves it out.
            evictions,
            /// Catch-ups answered with a checkpoint snapshot (rule 3).
            snapshot_catchups,
            /// Catch-ups answered with a delta replay (rule 2).
            delta_catchups,
            /// Times a *publisher* found this shard's lock already held
            /// and had to block (monitor reads and subscribe traffic are
            /// not counted). Publishers on disjoint TLDs never contend,
            /// so a single-publisher-per-shard deployment keeps this at
            /// zero.
            lock_contentions,
            /// Frames of this shard that rode inside a coalesced
            /// transport write (each is one write syscall a subscriber
            /// connection saved). Zero for brokers with no socket
            /// frontend.
            coalesced_frames,
        }
    }
}

counter_set! {
    /// One live subscriber connection's row in the `RZUQ` report — the
    /// fleet-ops view of *who* is keeping up: queue depth and outbound
    /// buffer occupancy say how far behind the connection is right now,
    /// `lag_drops` how much it has already lost, `coalesced_frames` how
    /// hard the writer is batching for it, and `claims` the per-TLD
    /// serial the server has verifiably streamed it up to (the HELLO
    /// claims, advanced as delta frames reach the wire).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct WireSubscriberStats {
        key {
            /// Per-TLD serial reached, in HELLO claim encoding (on the
            /// wire the claims follow the counters).
            claims: Vec<TldClaim>,
        }
        wire {
            /// The broker-assigned subscription id.
            id,
            /// Messages waiting in the subscriber's broker queue.
            queue_depth,
            /// Live pushes dropped for this subscriber because its
            /// queue was full (it lags, and the drop is counted).
            lag_drops,
            /// Frames delivered to this connection inside a coalesced
            /// batch.
            coalesced_frames,
            /// Bytes composed into the connection's outbound ring but not
            /// yet accepted by the socket.
            buffered_bytes,
        }
    }
}

// The legacy `RZUQ` layout (`tests/golden/rzuq.hex`) is these widths. A
// counter added to a `wire` list changes them: that is a new layout with
// a new golden vector beside the old one, not an edit here.
const _: () = assert!(
    ServerStats::WIRE_COUNTERS == 10
        && ShardStats::WIRE_COUNTERS == 13
        && WireSubscriberStats::WIRE_COUNTERS == 5
);

/// The full `RZUQ` report: server-wide transport counters, one row per
/// registered shard, and one row per live subscriber connection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    pub server: ServerStats,
    pub shards: Vec<ShardStats>,
    pub subs: Vec<WireSubscriberStats>,
}

/// Bytes per encoded [`ShardStats`] row: `u16` TLD + `u32` serial + its
/// `u64` counters.
const STATS_SHARD_ROW_LEN: usize = 2 + 4 + ShardStats::WIRE_COUNTERS * 8;

/// Minimum bytes per encoded [`WireSubscriberStats`] row: its `u64`
/// counters + a `u16` claim count (claims add 7 bytes each).
const STATS_SUB_ROW_MIN_LEN: usize = WireSubscriberStats::WIRE_COUNTERS * 8 + 2;

/// Encode a stats query (the magic is the whole message).
pub fn encode_stats_query() -> Bytes {
    Bytes::copy_from_slice(STATS_MAGIC)
}

/// True when `bytes` is exactly a stats query (a report carries a
/// payload behind the same magic).
pub fn is_stats_query(bytes: &[u8]) -> bool {
    bytes == STATS_MAGIC
}

fn put_u64s(buf: &mut BytesMut, row: &[u64]) {
    for &v in row {
        buf.put_u64(v);
    }
}

/// Encode a stats report.
///
/// Layout: `"RZUQ"`, the server row; a `u16` shard count, then per shard
/// a `u16` TLD, the `u32` head serial and the shard row; a `u16`
/// subscriber count, then per subscriber its row followed by a `u16`
/// claim count and its claims in HELLO encoding. A row is the set's
/// `u64` counters, big-endian, in the order the `wire` section of its
/// declaration lists them ([`ServerStats`], [`ShardStats`],
/// [`WireSubscriberStats`]) — that list is the layout.
///
/// A `u16` count cannot say more than 65 535 rows, so no more are
/// written: a server past that many live subscriber connections reports
/// the first 65 535 (rows arrive in ascending id order, so the cut is
/// deterministic). A wrapped count ahead of *all* the rows would fail
/// every scrape and health probe of it with `TrailingBytes`.
pub fn encode_stats_report(report: &StatsReport) -> Bytes {
    let shards = &report.shards[..report.shards.len().min(u16::MAX as usize)];
    let subs = &report.subs[..report.subs.len().min(u16::MAX as usize)];
    let mut buf = BytesMut::with_capacity(
        4 + ServerStats::WIRE_COUNTERS * 8 + 2 + shards.len() * STATS_SHARD_ROW_LEN,
    );
    buf.put_slice(STATS_MAGIC);
    put_u64s(&mut buf, &report.server.wire_row());
    buf.put_u16(shards.len() as u16);
    for shard in shards {
        buf.put_u16(shard.tld);
        buf.put_u32(shard.head_serial.get());
        put_u64s(&mut buf, &shard.wire_row());
    }
    buf.put_u16(subs.len() as u16);
    for sub in subs {
        put_u64s(&mut buf, &sub.wire_row());
        put_claims(&mut buf, &sub.claims);
    }
    buf.freeze()
}

/// Decode a frame produced by [`encode_stats_report`]. The entire buffer
/// must be consumed; the shard count is untrusted (each row is exactly
/// [`STATS_SHARD_ROW_LEN`] bytes, so a count the remaining buffer cannot
/// hold is a truncation, caught before any allocation is sized from it).
pub fn decode_stats_report(bytes: &[u8]) -> Result<StatsReport, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != STATS_MAGIC {
        return Err(WireError::BadMagic);
    }
    let server = ServerStats::from_wire_row(dec.u64s()?);
    let count = dec.u16()? as usize;
    if count
        .checked_mul(STATS_SHARD_ROW_LEN)
        .is_none_or(|need| need > dec.remaining())
    {
        return Err(WireError::Truncated);
    }
    let mut shards = Vec::with_capacity(count);
    for _ in 0..count {
        let tld = dec.u16()?;
        let head_serial = Serial::new(dec.u32()?);
        shards.push(ShardStats { tld, head_serial, ..ShardStats::from_wire_row(dec.u64s()?) });
    }
    let sub_count = dec.u16()? as usize;
    // Same discipline as the shard rows: a subscriber row costs at least
    // STATS_SUB_ROW_MIN_LEN bytes, so a count the remaining buffer
    // cannot hold is rejected before the Vec is sized from it — and the
    // nested claim count is re-checked per row by `decode_claims`.
    if sub_count
        .checked_mul(STATS_SUB_ROW_MIN_LEN)
        .is_none_or(|need| need > dec.remaining())
    {
        return Err(WireError::Truncated);
    }
    let mut subs = Vec::with_capacity(sub_count);
    for _ in 0..sub_count {
        let row = dec.u64s()?;
        let claim_count = dec.u16()? as usize;
        let claims = dec.decode_claims(claim_count)?;
        subs.push(WireSubscriberStats { claims, ..WireSubscriberStats::from_wire_row(row) });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok(StatsReport { server, shards, subs })
}

// ---------------------------------------------------------------------------
// Membership lookup round trip (`RZUL` / `RZUA`)
//
// The thin-client path: instead of holding a full `RemoteZoneView`
// replica, a client sends a batched `RZUL` request to a query-serving
// edge and gets one `RZUA` answer row per query — delegated or not, at
// which shard serial, and (when the name appeared in a recent delta's
// `added` section) the NRD first-seen timestamp from the edge's hot
// recency window. One epoch answers a whole batch, so every row about
// one TLD carries one serial: the response spells it once, in a
// frame-local slot table, and later rows name the slot in spare bits of
// their flag byte. Both codecs follow the bounded-untrusted-count
// discipline of the frames above.
// ---------------------------------------------------------------------------

/// Magic prefix of a batched membership lookup request.
pub const LOOKUP_REQUEST_MAGIC: &[u8; 4] = b"RZUL";
/// Magic prefix of a batched membership lookup response. `RZUR`, the
/// layout that spelled every row's serial out, is reserved and refused
/// ([`WireError::BadMagic`]): its flag bits would misread here.
pub const LOOKUP_RESPONSE_MAGIC: &[u8; 4] = b"RZUA";
/// The `u16` TLD sentinel in a [`LookupQuery`] that asks "is this name
/// delegated in *any* TLD the edge serves?" (`contains_anywhere`).
pub const LOOKUP_ANY_TLD: u16 = u16::MAX;

/// One query in an `RZUL` batch: a target TLD (transport-level `u16`,
/// the registry's `TldId` payload, or [`LOOKUP_ANY_TLD`]) and the name
/// whose delegation status is being asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupQuery {
    pub tld: u16,
    pub name: DomainName,
}

/// One answer row in an `RZUA` batch, positionally matched to the query
/// at the same index in the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupAnswer {
    /// Is the name currently delegated (in the queried TLD, or anywhere
    /// for [`LOOKUP_ANY_TLD`] queries)?
    pub present: bool,
    /// The serial of the shard snapshot that answered — the staleness
    /// bound of this row. `None` for [`LOOKUP_ANY_TLD`] queries and for
    /// TLDs the edge does not serve.
    pub serial: Option<Serial>,
    /// When the name appeared in a delta's `added` section, if that
    /// event is still inside the edge's hot NRD-recency window (the
    /// delta's publisher-side `pushed_at`). `None` means "not a recent
    /// NRD as far as this edge remembers", never "not delegated".
    pub first_seen: Option<SimTime>,
}

/// A decoded `RZUA` frame: the echoed request id, the edge epoch that
/// answered (monotonic per edge — a client comparing epochs across
/// responses can tell whether the index advanced between them), and one
/// answer per query in request order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LookupResponse {
    pub request_id: u64,
    pub epoch: u64,
    pub answers: Vec<LookupAnswer>,
}

/// [`LookupAnswer`] flag bits: delegated.
const LOOKUP_F_PRESENT: u8 = 1 << 0;
/// [`LookupAnswer`] flag bits: a `u64` NRD first-seen timestamp follows.
const LOOKUP_F_FIRST_SEEN: u8 = 1 << 1;
/// A row's serial code sits in flag bits 2–7.
const LOOKUP_SERIAL_SHIFT: u32 = 2;
/// Serial slots one response defines at most: code `c` in `1..=62`
/// names slot `c − 1`.
const LOOKUP_SERIAL_SLOTS: usize = 62;
/// The serial code of a row whose `u32` serial follows inline and
/// defines no slot: the encoder's once all slots are taken.
const LOOKUP_SERIAL_INLINE: u8 = 63;

/// Encode a batched lookup request.
///
/// Layout: `"RZUL"`, `u64` request id, `u16` query count, then per
/// query a `u16` TLD and the name in RFC 1035 label encoding with
/// frame-scoped compression (repeated suffixes across a batch collapse
/// to 2-byte pointers).
pub fn encode_lookup_request(request_id: u64, queries: &[LookupQuery]) -> Bytes {
    debug_assert!(queries.len() <= u16::MAX as usize);
    let mut enc = Encoder::new();
    enc.buf.put_slice(LOOKUP_REQUEST_MAGIC);
    enc.buf.put_u64(request_id);
    enc.buf.put_u16(queries.len() as u16);
    for query in queries {
        enc.buf.put_u16(query.tld);
        enc.name(&query.name);
    }
    enc.buf.freeze()
}

/// Decode a frame produced by [`encode_lookup_request`]. The entire
/// buffer must be consumed. The query count is untrusted: each query
/// costs at least 3 bytes (`u16` TLD + a 1-byte root or pointer-free
/// name), so a count the remaining buffer cannot hold is a truncation,
/// caught before any allocation is sized from it.
pub fn decode_lookup_request(bytes: &[u8]) -> Result<(u64, Vec<LookupQuery>), WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != LOOKUP_REQUEST_MAGIC {
        return Err(WireError::BadMagic);
    }
    let request_id = dec.u64()?;
    let count = dec.u16()? as usize;
    if count.checked_mul(3).is_none_or(|need| need > dec.remaining()) {
        return Err(WireError::Truncated);
    }
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let tld = dec.u16()?;
        let name = dec.name()?;
        queries.push(LookupQuery { tld, name });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok((request_id, queries))
}

/// Encode a batched lookup response: each answer beside the TLD its
/// query asked about ([`LOOKUP_ANY_TLD`] included).
///
/// Layout: `"RZUA"`, `u64` request id, `u64` edge epoch, `u16` answer
/// count, then per answer a flag byte, an optional `u32` serial and an
/// optional `u64` first-seen timestamp. Flag bit 0 is
/// [`LOOKUP_F_PRESENT`], bit 1 [`LOOKUP_F_FIRST_SEEN`] (the timestamp
/// follows), and bits 2–7 the serial code `c`:
///
/// * `0` — the row has no serial;
/// * `1..=62` — the row's serial is slot `c − 1` of a frame-local
///   table. Slot `c − 1` equal to the number of slots defined so far is
///   a definition: its `u32` follows. A smaller one reuses the slot; a
///   larger one is [`WireError::BadFlags`];
/// * `63` — the `u32` follows inline and defines nothing.
///
/// A slot's key is the pair (query TLD, serial): one slot per TLD the
/// batch asks about, whatever the serials' values happen to coincide in,
/// so the bytes depend on the request and never on the timing of the
/// shards it reads. Once 62 keys are defined, a new key's rows go
/// inline. The frame is never larger than one spelling every serial out,
/// and 4 bytes smaller for each row whose key was defined before it; a
/// miss row is one byte.
pub fn encode_lookup_response(
    request_id: u64,
    epoch: u64,
    answers: &[(u16, LookupAnswer)],
) -> Bytes {
    debug_assert!(answers.len() <= u16::MAX as usize);
    let mut buf = BytesMut::with_capacity(4 + 8 + 8 + 2 + answers.len() * 6);
    buf.put_slice(LOOKUP_RESPONSE_MAGIC);
    buf.put_u64(request_id);
    buf.put_u64(epoch);
    buf.put_u16(answers.len() as u16);
    let mut slots = [(0u16, 0u32); LOOKUP_SERIAL_SLOTS];
    let mut defined = 0;
    for &(tld, answer) in answers {
        let (code, spelled) = match answer.serial.map(|serial| (tld, serial.get())) {
            None => (0, None),
            Some(key) => match slots[..defined].iter().position(|&slot| slot == key) {
                Some(slot) => (slot as u8 + 1, None),
                None if defined < LOOKUP_SERIAL_SLOTS => {
                    slots[defined] = key;
                    defined += 1;
                    (defined as u8, Some(key.1))
                }
                None => (LOOKUP_SERIAL_INLINE, Some(key.1)),
            },
        };
        let mut flags = code << LOOKUP_SERIAL_SHIFT;
        if answer.present {
            flags |= LOOKUP_F_PRESENT;
        }
        if answer.first_seen.is_some() {
            flags |= LOOKUP_F_FIRST_SEEN;
        }
        buf.put_u8(flags);
        if let Some(serial) = spelled {
            buf.put_u32(serial);
        }
        if let Some(first_seen) = answer.first_seen {
            buf.put_u64(first_seen.as_secs());
        }
    }
    buf.freeze()
}

/// Decode a frame produced by [`encode_lookup_response`]. The entire
/// buffer must be consumed. The answer count is untrusted: each row
/// costs at least 1 byte (the flag byte), so a count the remaining
/// buffer cannot hold is a truncation, caught before any allocation is
/// sized from it. The slot table is a fixed 62-entry array, never sized
/// from the frame; a row naming a slot past the next definition is a
/// [`WireError::BadFlags`] (a canonical encoder never writes one).
pub fn decode_lookup_response(bytes: &[u8]) -> Result<LookupResponse, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != LOOKUP_RESPONSE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let request_id = dec.u64()?;
    let epoch = dec.u64()?;
    let count = dec.u16()? as usize;
    if count > dec.remaining() {
        return Err(WireError::Truncated);
    }
    let mut answers = Vec::with_capacity(count);
    let mut slots = [0u32; LOOKUP_SERIAL_SLOTS];
    let mut defined = 0;
    for _ in 0..count {
        let flags = dec.u8()?;
        let serial = match flags >> LOOKUP_SERIAL_SHIFT {
            0 => None,
            LOOKUP_SERIAL_INLINE => Some(dec.u32()?),
            code => {
                let slot = usize::from(code - 1);
                if slot > defined {
                    return Err(WireError::BadFlags(flags));
                }
                if slot == defined {
                    slots[slot] = dec.u32()?;
                    defined += 1;
                }
                Some(slots[slot])
            }
        };
        let first_seen = if flags & LOOKUP_F_FIRST_SEEN != 0 {
            Some(SimTime::from_secs(dec.u64()?))
        } else {
            None
        };
        answers.push(LookupAnswer {
            present: flags & LOOKUP_F_PRESENT != 0,
            serial: serial.map(Serial::new),
            first_seen,
        });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok(LookupResponse { request_id, epoch, answers })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn round_trip(msg: &Message) -> Message {
        Message::decode(&msg.encode()).expect("round trip")
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, name("example.com"), RecordType::Ns);
        let rt = round_trip(&q);
        assert_eq!(rt, q);
        assert!(!rt.header.is_response);
        assert!(rt.header.recursion_desired);
    }

    #[test]
    fn response_with_all_rdata_types_round_trips() {
        let mut msg = Message::query(7, name("example.com"), RecordType::A);
        msg.header = Header::response_to(&msg.header, Rcode::NoError);
        msg.answers = vec![
            ResourceRecord::new(name("example.com"), 60, RData::A("192.0.2.1".parse().unwrap())),
            ResourceRecord::new(name("example.com"), 60, RData::Aaaa("2001:db8::1".parse().unwrap())),
            ResourceRecord::new(name("example.com"), 300, RData::Cname(name("cdn.example.net"))),
            ResourceRecord::new(
                name("example.com"),
                3600,
                RData::Mx { preference: 10, exchange: name("mail.example.com") },
            ),
            ResourceRecord::new(name("example.com"), 3600, RData::Txt(b"v=spf1 -all".to_vec())),
        ];
        msg.authorities = vec![ResourceRecord::new(
            name("com"),
            86400,
            RData::Soa(SoaData {
                mname: name("a.gtld-servers.net"),
                rname: name("nstld.verisign-grs.com"),
                serial: 42,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            }),
        )];
        msg.additionals = vec![ResourceRecord::new(
            name("mail.example.com"),
            60,
            RData::A("192.0.2.2".parse().unwrap()),
        )];
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let mut msg = Message::query(1, name("example.com"), RecordType::Ns);
        msg.header.is_response = true;
        for i in 0..4 {
            msg.answers.push(ResourceRecord::new(
                name("example.com"),
                60,
                RData::Ns(name(&format!("ns{i}.example.com"))),
            ));
        }
        let encoded = msg.encode();
        // Uncompressed, each of the 4 answer owner names alone would be 13
        // bytes; with compression each is a 2-byte pointer.
        let uncompressed_estimate = 12 + 13 + 4 + 4 * (13 + 10 + 18);
        assert!(
            encoded.len() < uncompressed_estimate - 60,
            "no compression benefit: {} vs {}",
            encoded.len(),
            uncompressed_estimate
        );
        assert_eq!(Message::decode(&encoded).unwrap(), msg);
    }

    #[test]
    fn nxdomain_rcode_round_trips() {
        let mut msg = Message::query(9, name("gone.example.com"), RecordType::Ns);
        msg.header = Header::response_to(&msg.header, Rcode::NxDomain);
        let rt = round_trip(&msg);
        assert_eq!(rt.header.rcode, Rcode::NxDomain);
        assert!(rt.header.is_response);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(Message::decode(&[0u8; 5]), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_qdcount_rejected_before_allocation() {
        // A bare 12-byte header claiming 65535 questions with zero
        // bytes of question data: the decode-bounds rule (L2) must
        // reject it up front, not size a Vec from the hostile count.
        let bytes = vec![0, 7, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0];
        assert_eq!(Message::decode(&bytes), Err(WireError::Truncated));
        // Same header shape with a count the buffer *could* hold still
        // fails cleanly on the missing question body.
        let bytes = vec![0, 7, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0];
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::query(3, name("a.com"), RecordType::A).encode();
        bytes.push(0);
        assert_eq!(Message::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Header with QDCOUNT=1, then a name that is a pointer... pointers
        // must point strictly backwards; a self-pointer at offset 12 is a
        // forward pointer by our rule.
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0xC0, 12]); // pointer to itself
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        match Message::decode(&bytes) {
            Err(WireError::ForwardPointer { .. }) | Err(WireError::PointerLoop) => {}
            other => panic!("expected pointer error, got {other:?}"),
        }
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.push(0x80); // reserved label type
        match Message::decode(&bytes) {
            Err(WireError::BadLabelType(_)) => {}
            other => panic!("expected BadLabelType, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_qtype_rejected() {
        let msg = Message::query(3, name("a.com"), RecordType::A);
        let mut bytes = msg.encode();
        // QTYPE is the 2 bytes after the name (12 header + 7 name).
        let qtype_pos = 12 + name("a.com").wire_len();
        bytes[qtype_pos] = 0;
        bytes[qtype_pos + 1] = 99;
        assert_eq!(Message::decode(&bytes), Err(WireError::UnsupportedType(99)));
    }

    #[test]
    fn txt_multi_chunk_round_trip() {
        let big = vec![b'x'; 300]; // forces two character-strings
        let mut msg = Message::query(4, name("t.com"), RecordType::Txt);
        msg.header.is_response = true;
        msg.answers = vec![ResourceRecord::new(name("t.com"), 60, RData::Txt(big.clone()))];
        let rt = round_trip(&msg);
        match &rt.answers[0].rdata {
            RData::Txt(bytes) => assert_eq!(bytes, &big),
            other => panic!("expected TXT, got {other:?}"),
        }
    }

    #[test]
    fn empty_txt_round_trip() {
        let mut msg = Message::query(5, name("t.com"), RecordType::Txt);
        msg.header.is_response = true;
        msg.answers = vec![ResourceRecord::new(name("t.com"), 60, RData::Txt(Vec::new()))];
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn header_flags_round_trip() {
        let mut h = Header::query(0xBEEF);
        h.authoritative = true;
        h.truncated = true;
        h.recursion_available = true;
        h.opcode = 2;
        h.rcode = Rcode::Refused;
        let msg = Message {
            header: h.clone(),
            questions: vec![],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        assert_eq!(round_trip(&msg).header, h);
    }

    fn sample_delta() -> ZoneDelta {
        let ns_a = NsSet::new(vec![name("ns1.cloudflare.com"), name("ns2.cloudflare.com")]);
        let ns_b = NsSet::new(vec![name("ns1.domaincontrol.com")]);
        let mut delta = ZoneDelta::default();
        delta.added.push((name("alpha.com"), ns_a.clone()));
        delta.added.push((name("bravo.com"), ns_a.clone()));
        delta.removed.push((name("gone.com"), ns_b.clone()));
        delta.changed.push(NsChange { domain: name("moved.com"), old_ns: ns_b, new_ns: ns_a });
        delta
    }

    #[test]
    fn delta_push_round_trips() {
        let delta = sample_delta();
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(41),
            Serial::new(45),
            SimTime::from_secs(1_234),
            &delta,
        );
        let push = decode_delta_push(&frame).unwrap();
        assert_eq!(push.origin, name("com"));
        assert_eq!(push.from_serial, Serial::new(41));
        assert_eq!(push.to_serial, Serial::new(45));
        assert_eq!(push.pushed_at, SimTime::from_secs(1_234));
        assert_eq!(push.delta, delta);
    }

    #[test]
    fn empty_delta_push_round_trips() {
        let frame = encode_delta_push(
            &name("net"),
            Serial::new(0),
            Serial::new(0),
            SimTime::ZERO,
            &ZoneDelta::default(),
        );
        let push = decode_delta_push(&frame).unwrap();
        assert!(push.delta.is_empty());
        assert_eq!(push.origin, name("net"));
    }

    #[test]
    fn delta_push_frames_share_bytes_on_clone() {
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(1),
            Serial::new(2),
            SimTime::ZERO,
            &sample_delta(),
        );
        let fanned_out = frame.clone();
        assert!(frame.ptr_eq(&fanned_out));
    }

    #[test]
    fn delta_push_compression_collapses_repeated_ns_hosts() {
        // 100 delegations all on the same two NS hosts: with frame-scoped
        // compression each repeated host costs a 2-byte pointer, not a
        // full re-encoding.
        let ns = NsSet::new(vec![name("ns1.cloudflare.com"), name("ns2.cloudflare.com")]);
        let mut delta = ZoneDelta::default();
        for i in 0..100 {
            delta.added.push((name(&format!("domain-{i:03}.com")), ns.clone()));
        }
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(1),
            Serial::new(2),
            SimTime::ZERO,
            &delta,
        );
        // Uncompressed, each entry would carry two ~20-byte host names;
        // compressed, entries after the first carry two 2-byte pointers.
        assert!(frame.len() < 100 * 24, "frame unexpectedly large: {}", frame.len());
        assert_eq!(decode_delta_push(&frame).unwrap().delta, delta);
    }

    /// An `RZU4` header over a root origin with the given section
    /// counts, then `body`.
    fn delta_frame(counts: [u32; 3], body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(DELTA_PUSH_MAGIC);
        frame.push(0); // root origin name
        frame.extend_from_slice(&41u32.to_be_bytes()); // from_serial
        frame.extend_from_slice(&42u32.to_be_bytes()); // to_serial
        frame.extend_from_slice(&0u64.to_be_bytes()); // pushed_at
        for count in counts {
            frame.extend_from_slice(&count.to_be_bytes());
        }
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn delta_push_rejects_oversized_counts_without_allocating() {
        // A tiny frame claiming u32::MAX entries must fail cleanly
        // (Truncated), not size allocations from the claimed counts.
        for counts in [[u32::MAX, 0, 0], [0, u32::MAX, 0], [0, 0, u32::MAX]] {
            assert_eq!(decode_delta_push(&delta_frame(counts, &[])), Err(WireError::Truncated));
        }
        // The bound is the per-entry minimum: a 2-byte owner field and a
        // 1-byte reference for an added or removed entry (3 B), and one
        // more reference for a changed one (4 B). One byte short of the
        // minimum is a truncation before anything is read.
        for (counts, min) in [([5, 0, 0], 15), ([0, 5, 0], 15), ([0, 0, 5], 20), ([2, 3, 4], 31)] {
            let short = delta_frame(counts, &vec![0; min - 1]);
            assert_eq!(decode_delta_push(&short), Err(WireError::Truncated), "{counts:?}");
        }
        // At the minimum the bound passes and the entry itself is read:
        // a one-character label under the root (`a`, digit 12), then a
        // reference past the next definition.
        let at_min: [([u32; 3], &[u8]); 3] =
            [([1, 0, 0], &[1, 12, 1]), ([0, 1, 0], &[1, 12, 1]), ([0, 0, 1], &[1, 12, 1, 0])];
        for (counts, body) in at_min {
            let bad_ref = Err(WireError::BadNsRef { index: 1, defined: 0 });
            assert_eq!(decode_delta_push(&delta_frame(counts, body)), bad_ref, "{counts:?}");
        }
    }

    #[test]
    fn delta_push_rejects_bad_magic_and_truncation() {
        assert_eq!(decode_delta_push(b"NOPE"), Err(WireError::BadMagic));
        // The retired layouts — every set spelled out, every owner a
        // name, owner labels a byte a character — are refused too.
        for magic in [b"RZU1", b"RZU2", b"RZU3"] {
            let mut retired = delta_frame([0, 0, 0], &[]);
            retired[..4].copy_from_slice(magic);
            assert_eq!(decode_delta_push(&retired), Err(WireError::BadMagic));
            assert_eq!(peek_delta_push_serials(&retired), Err(WireError::BadMagic));
        }
        assert_eq!(decode_delta_push(b"RZ"), Err(WireError::Truncated));
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(1),
            Serial::new(2),
            SimTime::ZERO,
            &sample_delta(),
        );
        assert_eq!(decode_delta_push(&frame[..frame.len() - 3]), Err(WireError::Truncated));
        let mut padded = frame.to_vec();
        padded.push(0);
        assert_eq!(decode_delta_push(&padded), Err(WireError::TrailingBytes(1)));
    }

    fn hello(claims: &[TldClaim], resume: &[(u16, SnapshotResume)]) -> HelloFrame {
        HelloFrame { claims: claims.to_vec(), resume: resume.to_vec() }
    }

    /// Length of the legacy claims-only layout: magic, count, 7-byte rows.
    fn legacy_len(claims: &[TldClaim]) -> usize {
        6 + 7 * claims.len()
    }

    #[test]
    fn hello_round_trips_with_mixed_claims() {
        let claims = vec![
            TldClaim { tld: 0, from_serial: Some(Serial::new(41)) },
            TldClaim { tld: 7, from_serial: None },
            TldClaim { tld: u16::MAX, from_serial: Some(Serial::new(u32::MAX)) },
        ];
        let frame = HelloFrame { claims, ..Default::default() };
        assert_eq!(decode_hello(&encode_hello(&frame)).unwrap(), frame);
        // Empty claim lists are legal (a fresh join names TLDs elsewhere).
        let empty = HelloFrame::default();
        assert_eq!(decode_hello(&encode_hello(&empty)).unwrap(), empty);
    }

    #[test]
    fn hello_rejects_oversized_count_bad_magic_and_trailing() {
        let mut tiny = Vec::new();
        tiny.extend_from_slice(HELLO_MAGIC);
        tiny.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_hello(&tiny), Err(WireError::Truncated));
        assert_eq!(decode_hello(b"NOPE"), Err(WireError::BadMagic));
        // One stray byte behind the claims is half a resume count.
        let claim = [TldClaim { tld: 1, from_serial: None }];
        let mut padded = encode_hello(&hello(&claim, &[])).to_vec();
        padded.push(9);
        assert_eq!(decode_hello(&padded), Err(WireError::Truncated));
    }

    #[test]
    fn hello_frame_round_trips_resume_claims_and_stays_legacy_compatible() {
        let claims = vec![
            TldClaim { tld: 2, from_serial: Some(Serial::new(9)) },
            TldClaim { tld: 5, from_serial: None },
        ];
        // No resume section: exactly the legacy
        // claims-only layout (`tests/golden/rzuh.hex` pins its bytes).
        let legacy = encode_hello(&hello(&claims, &[]));
        assert_eq!(legacy.len(), legacy_len(&claims));

        let resume = vec![
            (5u16, SnapshotResume { serial: Serial::new(40), entries: 128 }),
            (2u16, SnapshotResume { serial: Serial::new(u32::MAX), entries: 0 }),
        ];
        let frame = encode_hello(&hello(&claims, &resume));
        // The extension is a suffix: a claims-only reader sees its own
        // layout first.
        assert_eq!(frame[..legacy.len()], legacy[..]);
        assert_eq!(frame.len(), legacy.len() + 2 + 10 * resume.len());
        assert_eq!(decode_hello(&frame).unwrap(), hello(&claims, &resume));
    }

    #[test]
    fn hello_frame_rejects_oversized_resume_count_and_trailing() {
        let resumed = hello(&[], &[(1, SnapshotResume { serial: Serial::new(1), entries: 1 })]);
        let mut frame = encode_hello(&resumed).to_vec();
        // Any byte after the resume rows — the retired scope byte's
        // slot included, whatever its value — is trailing garbage.
        for byte in [0, 1, 9] {
            frame.push(byte);
            assert_eq!(decode_hello(&frame), Err(WireError::TrailingBytes(1)));
            frame.pop();
        }
        frame.extend_from_slice(&[0, 0]);
        assert_eq!(decode_hello(&frame), Err(WireError::TrailingBytes(2)));
        let mut oversized = encode_hello(&HelloFrame::default()).to_vec();
        oversized.extend_from_slice(&u16::MAX.to_be_bytes()); // resume count
        assert_eq!(decode_hello(&oversized), Err(WireError::Truncated));
    }

    #[test]
    fn snapshot_chunks_round_trip_and_reassemble() {
        let entries: Vec<_> = (0..64)
            .map(|i| {
                (
                    name(&format!("domain-{i:03}.com")),
                    vec![name("ns1.cloudflare.com"), name("ns2.cloudflare.com")],
                )
            })
            .collect();
        let snap = crate::snapshot::ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(33),
            SimTime::from_secs(120),
            entries,
        );
        // A tiny byte target forces many chunks; the sequence must tile
        // the snapshot exactly and reassemble to an equal snapshot.
        let frames = encode_snapshot_chunks(7, &snap, 0, 256);
        assert!(frames.len() > 1, "byte target must force splitting");
        let mut rebuilt = crate::snapshot::SnapshotBuilder::default();
        let mut expected_offset = 0u32;
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.len() <= 256 + 1024, "chunk overshoot is bounded by one entry");
            let chunk = decode_snapshot_chunk(frame).unwrap();
            assert_eq!(peek_snapshot_chunk_offset(frame), Ok(chunk.offset));
            assert_eq!(chunk.tld, 7);
            assert_eq!(chunk.serial, Serial::new(33));
            assert_eq!(chunk.total as usize, snap.len());
            assert_eq!(chunk.offset, expected_offset);
            assert_eq!(chunk.last, i == frames.len() - 1);
            expected_offset += chunk.entries.len() as u32;
            rebuilt.append(chunk.entries).unwrap();
            assert_eq!(rebuilt.len(), expected_offset as usize);
        }
        assert_eq!(expected_offset as usize, snap.len());
        let reassembled = rebuilt.finish(name("com"), Serial::new(33), SimTime::from_secs(120));
        assert_eq!(reassembled, snap);
        assert!(reassembled.segment_lens().eq(snap.segment_lens()), "the train's cuts");

        // A resume offset mid-snapshot starts the sequence there.
        let resumed = encode_snapshot_chunks(7, &snap, 40, 256);
        let first = decode_snapshot_chunk(&resumed[0]).unwrap();
        assert_eq!(first.offset, 40);
        let total: usize = resumed
            .iter()
            .map(|f| decode_snapshot_chunk(f).unwrap().entries.len())
            .sum();
        assert_eq!(total, snap.len() - 40);

        assert_eq!(peek_snapshot_chunk_offset(b"RZUS"), Err(WireError::BadMagic));
        assert_eq!(peek_snapshot_chunk_offset(&resumed[0][..12]), Err(WireError::Truncated));

        // Empty snapshots (and exhausted resume offsets) still produce
        // one final zero-entry chunk so the receiver sees completion.
        let empty = crate::snapshot::ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![],
        );
        let frames = encode_snapshot_chunks(7, &empty, 0, 256);
        assert_eq!(frames.len(), 1);
        let chunk = decode_snapshot_chunk(&frames[0]).unwrap();
        assert!(chunk.last && chunk.entries.is_empty() && chunk.total == 0);
    }

    #[test]
    fn snapshot_chunk_rejects_inconsistent_bookkeeping() {
        let snap = crate::snapshot::ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(2),
            SimTime::ZERO,
            vec![(name("a.com"), vec![name("ns1.x.net")])],
        );
        let good = encode_snapshot_chunks(1, &snap, 0, 4096).remove(0);
        assert!(decode_snapshot_chunk(&good).unwrap().last);

        // Oversized untrusted count: rejected before allocation.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(SNAPSHOT_CHUNK_MAGIC);
        oversized.extend_from_slice(&0u16.to_be_bytes()); // tld
        oversized.push(0); // root origin
        oversized.extend_from_slice(&1u32.to_be_bytes()); // serial
        oversized.extend_from_slice(&0u64.to_be_bytes()); // taken_at
        oversized.extend_from_slice(&u32::MAX.to_be_bytes()); // total
        oversized.extend_from_slice(&0u32.to_be_bytes()); // offset
        oversized.push(CHUNK_LAYOUT); // flags
        oversized.extend_from_slice(&u32::MAX.to_be_bytes()); // count
        assert_eq!(decode_snapshot_chunk(&oversized), Err(WireError::Truncated));
        // The same frame in the pre-table layout, in the table layout
        // with every owner a name, with owner labels a byte a character,
        // or with every label packed whole, is refused on its flags.
        let flags_at = oversized.len() - 4 - 1;
        let (table, labels) = (CHUNK_NS_TABLE, CHUNK_NS_TABLE | CHUNK_OWNER_LABELS);
        let packed = labels | CHUNK_PACKED_LABELS;
        for earlier in [0, table, table | CHUNK_LAST, labels, labels | CHUNK_LAST, packed] {
            oversized[flags_at] = earlier;
            assert_eq!(decode_snapshot_chunk(&oversized), Err(WireError::BadFlags(earlier)));
        }

        // Unknown flag bits are refused.
        let mut bad_flags = good.to_vec();
        let flags_at = good.len() - 4 - 1 - SNAPSHOT_CHUNK_ENTRY_BYTES;
        assert_eq!(good[flags_at], CHUNK_LAYOUT | CHUNK_LAST);
        bad_flags[flags_at] |= 0x80;
        assert_eq!(decode_snapshot_chunk(&bad_flags), Err(WireError::BadFlags(0x9F)));

        // A last flag that disagrees with offset+count == total.
        let mut not_last = good.to_vec();
        not_last[flags_at] = CHUNK_LAYOUT;
        assert!(matches!(
            decode_snapshot_chunk(&not_last),
            Err(WireError::BadChunk { offset: 0, count: 1, total: 1 })
        ));
    }

    /// Byte length of the entry section of the single-entry chunk frame
    /// built above (everything after flags + count), used to locate the
    /// flags byte from the tail: "a.com" is its label under the origin
    /// (length and packed "a", 2 bytes), then a 1-byte set reference, the set's
    /// u16 host count and uncompressed "ns1.x.net" (11 bytes).
    const SNAPSHOT_CHUNK_ENTRY_BYTES: usize = 2 + 1 + 2 + 11;

    #[test]
    fn delta_envelope_wraps_rzu1_verbatim() {
        let delta = sample_delta();
        let push_frame = encode_delta_push(
            &name("com"),
            Serial::new(4),
            Serial::new(5),
            SimTime::from_secs(60),
            &delta,
        );
        let mut frame = delta_envelope_header(9).to_vec();
        frame.extend_from_slice(&push_frame);
        let (tld, push) = decode_delta_envelope(&frame).unwrap();
        assert_eq!(tld, 9);
        assert_eq!(push.delta, delta);
        assert_eq!(push.from_serial, Serial::new(4));
        // A corrupt embedded frame surfaces as the inner codec's error.
        assert_eq!(decode_delta_envelope(&frame[..frame.len() - 2]), Err(WireError::Truncated));
        assert_eq!(decode_delta_envelope(b"RZUD"), Err(WireError::Truncated));
    }

    fn sample_stats_report() -> StatsReport {
        StatsReport {
            server: ServerStats {
                accepted: 9,
                handshakes: 8,
                rejected_hellos: 1,
                deltas_sent: 1_234,
                snapshots_sent: 8,
                evict_notices: 2,
                disconnects: 3,
                coalesced_writes: 40,
                coalesced_frames: 120,
                stats_queries: 5,
                ..Default::default()
            },
            shards: vec![
                ShardStats {
                    tld: 0,
                    head_serial: Serial::new(700),
                    subscribers: 8,
                    pushes: 700,
                    frame_bytes: 1 << 20,
                    checkpoints: 40,
                    retained_deltas: 16,
                    retired_deltas: 684,
                    deliveries: 5_600,
                    lagged_messages: 12,
                    evictions: 1,
                    snapshot_catchups: 8,
                    delta_catchups: 3,
                    lock_contentions: 0,
                    coalesced_frames: 90,
                },
                ShardStats {
                    tld: u16::MAX,
                    head_serial: Serial::new(u32::MAX),
                    subscribers: 0,
                    pushes: 0,
                    frame_bytes: 0,
                    checkpoints: 0,
                    retained_deltas: 0,
                    retired_deltas: 0,
                    deliveries: 0,
                    lagged_messages: 0,
                    evictions: 0,
                    snapshot_catchups: 0,
                    delta_catchups: 0,
                    lock_contentions: u64::MAX,
                    coalesced_frames: 0,
                },
            ],
            subs: vec![
                WireSubscriberStats {
                    id: 42,
                    queue_depth: 3,
                    lag_drops: 1,
                    coalesced_frames: 17,
                    buffered_bytes: 4096,
                    claims: vec![
                        TldClaim { tld: 0, from_serial: Some(Serial::new(699)) },
                        TldClaim { tld: u16::MAX, from_serial: None },
                    ],
                },
                WireSubscriberStats {
                    id: u64::MAX,
                    queue_depth: 0,
                    lag_drops: 0,
                    coalesced_frames: 0,
                    buffered_bytes: 0,
                    claims: vec![],
                },
            ],
        }
    }

    #[test]
    fn stats_report_round_trips() {
        let report = sample_stats_report();
        let frame = encode_stats_report(&report);
        assert_eq!(decode_stats_report(&frame).unwrap(), report);
        // Empty shard lists are legal (a server with no shards yet).
        let empty = StatsReport::default();
        assert_eq!(decode_stats_report(&encode_stats_report(&empty)).unwrap(), empty);
    }

    #[test]
    fn stats_report_caps_rows_at_what_the_count_can_say() {
        // One subscriber more than a `u16` count holds: the frame says
        // 65 535 and carries exactly those rows, the lowest ids.
        let subs: Vec<_> = (0..=u64::from(u16::MAX))
            .map(|id| WireSubscriberStats { id, ..Default::default() })
            .collect();
        let report = StatsReport { subs, ..Default::default() };
        let decoded = decode_stats_report(&encode_stats_report(&report)).unwrap();
        assert_eq!(decoded.subs.len(), usize::from(u16::MAX));
        assert_eq!(decoded.subs[..], report.subs[..usize::from(u16::MAX)]);
    }

    #[test]
    fn stats_query_and_report_share_the_magic_but_not_the_shape() {
        assert!(is_stats_query(&encode_stats_query()));
        assert!(!is_stats_query(&encode_stats_report(&sample_stats_report())));
        assert!(!is_stats_query(b"RZUH"));
        // A bare query is not a decodable report.
        assert_eq!(decode_stats_report(&encode_stats_query()), Err(WireError::Truncated));
    }

    #[test]
    fn stats_report_rejects_oversized_count_bad_magic_and_trailing() {
        let mut tiny = Vec::new();
        tiny.extend_from_slice(STATS_MAGIC);
        tiny.extend_from_slice(&[0u8; 80]); // server counters
        tiny.extend_from_slice(&u16::MAX.to_be_bytes()); // absurd shard count
        assert_eq!(decode_stats_report(&tiny), Err(WireError::Truncated));
        assert_eq!(decode_stats_report(b"NOPE"), Err(WireError::BadMagic));
        let mut padded = encode_stats_report(&sample_stats_report()).to_vec();
        padded.push(0);
        assert_eq!(decode_stats_report(&padded), Err(WireError::TrailingBytes(1)));
        let frame = encode_stats_report(&sample_stats_report());
        assert_eq!(decode_stats_report(&frame[..frame.len() - 1]), Err(WireError::Truncated));
    }

    #[test]
    fn stats_report_rejects_absurd_subscriber_and_claim_counts() {
        // A report with no shards, an absurd subscriber count: rejected
        // before the row Vec is sized from it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(STATS_MAGIC);
        bytes.extend_from_slice(&[0u8; 80]); // server counters
        bytes.extend_from_slice(&0u16.to_be_bytes()); // shard count
        let mut absurd_subs = bytes.clone();
        absurd_subs.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_stats_report(&absurd_subs), Err(WireError::Truncated));

        // One subscriber row whose nested claim count overruns what
        // remains: the per-row bound catches it.
        let mut absurd_claims = bytes.clone();
        absurd_claims.extend_from_slice(&1u16.to_be_bytes()); // sub count
        absurd_claims.extend_from_slice(&[0u8; 40]); // five u64 counters
        absurd_claims.extend_from_slice(&u16::MAX.to_be_bytes()); // claim count
        assert_eq!(decode_stats_report(&absurd_claims), Err(WireError::Truncated));

        // A report truncated inside a claim is a truncation, not a
        // partial decode.
        let frame = encode_stats_report(&sample_stats_report());
        assert_eq!(decode_stats_report(&frame[..frame.len() - 3]), Err(WireError::Truncated));

        // The sub section is mandatory: a report that stops after the
        // shard rows (the pre-subscriber-row layout) no longer decodes.
        assert_eq!(decode_stats_report(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn delta_push_serial_peek_matches_full_decode() {
        let mut delta = crate::ZoneDelta::default();
        delta
            .added
            .push((name("example.com"), crate::NsSet::new(vec![name("ns1.provider0.net")])));
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(41),
            Serial::new(42),
            SimTime::from_secs(7),
            &delta,
        );
        assert_eq!(
            peek_delta_push_serials(&frame).unwrap(),
            (Serial::new(41), Serial::new(42))
        );
        let full = decode_delta_push(&frame).unwrap();
        assert_eq!((full.from_serial, full.to_serial), (Serial::new(41), Serial::new(42)));
        assert_eq!(peek_delta_push_serials(b"RZUS"), Err(WireError::BadMagic));
        assert_eq!(peek_delta_push_serials(&frame[..6]), Err(WireError::Truncated));
    }

    #[test]
    fn lookup_request_round_trips() {
        let queries = vec![
            LookupQuery { tld: 0, name: name("example.com") },
            LookupQuery { tld: 3, name: name("a-rather-long-registration-label.net") },
            LookupQuery { tld: LOOKUP_ANY_TLD, name: name("example.com") },
        ];
        let frame = encode_lookup_request(0xDEAD_BEEF_0BAD_CAFE, &queries);
        let (id, decoded) = decode_lookup_request(&frame).unwrap();
        assert_eq!(id, 0xDEAD_BEEF_0BAD_CAFE);
        assert_eq!(decoded, queries);
        // Frame-scoped compression: the repeated example.com collapses
        // to a 2-byte pointer, so the frame is smaller than two full
        // encodings of it plus the long name.
        assert!(frame.len() < 4 + 8 + 2 + 3 * 2 + 2 * 13 + 38);
        // Empty batches are legal (a keepalive-shaped probe).
        let empty = encode_lookup_request(7, &[]);
        assert_eq!(decode_lookup_request(&empty).unwrap(), (7, vec![]));
    }

    #[test]
    fn lookup_request_rejects_bad_magic_truncation_and_trailing() {
        assert_eq!(decode_lookup_request(b"NOPE"), Err(WireError::BadMagic));
        assert_eq!(decode_lookup_request(b"RZUL"), Err(WireError::Truncated));
        // An absurd query count is rejected before any allocation.
        let mut absurd = Vec::new();
        absurd.extend_from_slice(LOOKUP_REQUEST_MAGIC);
        absurd.extend_from_slice(&7u64.to_be_bytes());
        absurd.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_lookup_request(&absurd), Err(WireError::Truncated));
        let queries = [LookupQuery { tld: 1, name: name("example.com") }];
        let frame = encode_lookup_request(1, &queries);
        assert_eq!(decode_lookup_request(&frame[..frame.len() - 1]), Err(WireError::Truncated));
        let mut padded = frame.to_vec();
        padded.push(0);
        assert_eq!(decode_lookup_request(&padded), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn lookup_response_round_trips() {
        let answers = vec![
            (0, LookupAnswer { present: true, serial: Some(Serial::new(42)), first_seen: None }),
            (
                1,
                LookupAnswer {
                    present: true,
                    serial: Some(Serial::new(u32::MAX)),
                    first_seen: Some(SimTime::from_secs(u64::MAX)),
                },
            ),
            (LOOKUP_ANY_TLD, LookupAnswer { present: false, serial: None, first_seen: None }),
            (2, LookupAnswer { present: false, serial: Some(Serial::new(0)), first_seen: None }),
            (0, LookupAnswer { present: false, serial: Some(Serial::new(42)), first_seen: None }),
            // The same TLD at another serial is another key.
            (0, LookupAnswer { present: true, serial: Some(Serial::new(43)), first_seen: None }),
        ];
        let frame = encode_lookup_response(99, 12, &answers);
        let decoded = decode_lookup_response(&frame).unwrap();
        assert_eq!(decoded.request_id, 99);
        assert_eq!(decoded.epoch, 12);
        assert_eq!(decoded.answers, answers.iter().map(|&(_, a)| a).collect::<Vec<_>>());
        // Four keys spelled, one reused: 4 bytes under the spelled-out
        // layout's 5 + 13 + 1 + 5 + 5 + 5.
        assert_eq!(frame.len(), 4 + 8 + 8 + 2 + 34 - 4);
        // The common miss row costs exactly one byte.
        let misses = vec![(3, LookupAnswer::default()); 3];
        let frame = encode_lookup_response(0, 0, &misses);
        assert_eq!(frame.len(), 4 + 8 + 8 + 2 + 3);
        assert_eq!(decode_lookup_response(&frame).unwrap().answers, [LookupAnswer::default(); 3]);
    }

    #[test]
    fn lookup_response_spells_each_tld_serial_once() {
        let row = |tld: u16, serial: Option<u32>, first_seen: Option<u64>| {
            let answer = LookupAnswer {
                present: tld & 1 == 0,
                serial: serial.map(Serial::new),
                first_seen: first_seen.map(SimTime::from_secs),
            };
            (tld, answer)
        };
        let len = |answers: &[(u16, LookupAnswer)]| {
            let frame = encode_lookup_response(1, 1, answers);
            let decoded = decode_lookup_response(&frame).unwrap().answers;
            assert_eq!(decoded, answers.iter().map(|&(_, a)| a).collect::<Vec<_>>());
            frame.len()
        };
        // `edge_lookup`'s shape: 56 rows over 4 TLDs whose serials
        // coincide, then 8 `ANY` rows. Spelled out it was 310 bytes.
        let mut lookup: Vec<_> = (0..56).map(|i| row(i % 4, Some(9), None)).collect();
        lookup.extend((0..8).map(|_| row(LOOKUP_ANY_TLD, None, None)));
        assert_eq!(len(&lookup), 102);
        // `edge_visibility`'s: 8 present rows of one TLD, each with a
        // first-seen. Spelled out it was 126 bytes.
        let visibility: Vec<_> = (0..8).map(|i| row(0, Some(5), Some(3600 + i))).collect();
        assert_eq!(len(&visibility), 98);
        // 70 distinct TLDs: nothing repeats, so nothing is saved, and
        // the 8 past the table go inline at the same cost.
        let distinct: Vec<_> = (0..70).map(|tld| row(tld, Some(7), None)).collect();
        assert_eq!(len(&distinct), 372);
        let frame = encode_lookup_response(1, 1, &distinct);
        let flags = |row: usize| frame[22 + 5 * row] >> LOOKUP_SERIAL_SHIFT;
        assert_eq!((flags(0), flags(61), flags(62), flags(69)), (1, 62, 63, 63));
        // Past the table a defined key is still reused, a new one is
        // inline again.
        let mut again = distinct.clone();
        again.extend([row(5, Some(7), None), row(65, Some(7), None)]);
        assert_eq!(len(&again), 372 + 1 + 5);
    }

    #[test]
    fn lookup_response_rejects_bad_magic_flags_truncation_and_trailing() {
        assert_eq!(decode_lookup_response(b"NOPE"), Err(WireError::BadMagic));
        assert_eq!(decode_lookup_response(b"RZUR"), Err(WireError::BadMagic));
        assert_eq!(decode_lookup_response(b"RZUA"), Err(WireError::Truncated));
        let mut absurd = Vec::new();
        absurd.extend_from_slice(LOOKUP_RESPONSE_MAGIC);
        absurd.extend_from_slice(&0u64.to_be_bytes());
        absurd.extend_from_slice(&0u64.to_be_bytes());
        absurd.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_lookup_response(&absurd), Err(WireError::Truncated));
        // A slot past the next definition is rejected, not read as a
        // definition: `0x80` names slot 31 with none defined, `0x0c`
        // slot 1 with one.
        let header = |count: u16| {
            let mut frame = absurd[..4 + 8 + 8].to_vec();
            frame.extend_from_slice(&count.to_be_bytes());
            frame
        };
        let mut bad_flags = header(1);
        bad_flags.push(0x80);
        assert_eq!(decode_lookup_response(&bad_flags), Err(WireError::BadFlags(0x80)));
        let mut skipped = header(2);
        skipped.extend_from_slice(&[0x05, 0, 0, 0, 9, 0x0c]);
        assert_eq!(decode_lookup_response(&skipped), Err(WireError::BadFlags(0x0c)));
        // The same two rows with the second one reusing slot 0 decode.
        let last = skipped.len() - 1;
        skipped[last] = 0x04;
        let answers = decode_lookup_response(&skipped).unwrap().answers;
        assert_eq!((answers[1].present, answers[1].serial), (false, Some(Serial::new(9))));
        let answers =
            [(1, LookupAnswer { present: true, serial: Some(Serial::new(5)), first_seen: None })];
        let frame = encode_lookup_response(3, 1, &answers);
        assert_eq!(
            decode_lookup_response(&frame[..frame.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut padded = frame.to_vec();
        padded.push(0);
        assert_eq!(decode_lookup_response(&padded), Err(WireError::TrailingBytes(1)));
    }

    /// An `RZUL` frame carrying one query whose name is spelled with the
    /// given raw wire labels.
    fn lookup_frame_with_labels(labels: &[&[u8]]) -> Vec<u8> {
        let mut frame = LOOKUP_REQUEST_MAGIC.to_vec();
        frame.extend_from_slice(&7u64.to_be_bytes());
        frame.extend_from_slice(&1u16.to_be_bytes());
        frame.extend_from_slice(&0u16.to_be_bytes()); // tld
        for label in labels {
            frame.push(label.len() as u8);
            frame.extend_from_slice(label);
        }
        frame.push(0);
        frame
    }

    #[test]
    fn dotted_wire_label_is_rejected_not_split() {
        // `[3]"a.b"[3]"com"` used to decode to the three-label a.b.com:
        // two encodings for one name, and a way to smuggle label
        // boundaries past anything that counts wire labels.
        let smuggled = lookup_frame_with_labels(&[b"a.b", b"com"]);
        assert!(matches!(decode_lookup_request(&smuggled), Err(WireError::BadName(_))));
        for label in [&b"."[..], b".a", b"a."] {
            let frame = lookup_frame_with_labels(&[label, b"com"]);
            assert!(matches!(decode_lookup_request(&frame), Err(WireError::BadName(_))));
        }
        // The honest three-label spelling is untouched.
        let honest = lookup_frame_with_labels(&[b"a", b"b", b"com"]);
        let (_, queries) = decode_lookup_request(&honest).unwrap();
        assert_eq!(queries[0].name, name("a.b.com"));
        assert_eq!(queries[0].name.label_count(), 3);
    }

    #[test]
    fn wire_name_length_bound_is_exact_and_panic_free() {
        // 63+63+63+61 octets plus three dots: exactly 253, accepted.
        let l63 = [b'a'; 63];
        let widest = lookup_frame_with_labels(&[&l63, &l63, &l63, &[b'b'; 61]]);
        let (_, queries) = decode_lookup_request(&widest).unwrap();
        assert_eq!(queries[0].name.as_str().len(), 253);
        // One octet more overflows the stack buffer's bound: BadName,
        // with or without a separator landing on the boundary.
        let over = lookup_frame_with_labels(&[&l63, &l63, &l63, &[b'b'; 62]]);
        assert!(matches!(decode_lookup_request(&over), Err(WireError::BadName(_))));
        let way_over = lookup_frame_with_labels(&[&l63, &l63, &l63, &[b'b'; 61], b"c"]);
        assert!(matches!(decode_lookup_request(&way_over), Err(WireError::BadName(_))));
        // Non-UTF-8 and non-LDH labels keep their typed rejection.
        let binary = lookup_frame_with_labels(&[&[0xFF, 0xFE], b"com"]);
        assert_eq!(
            decode_lookup_request(&binary),
            Err(WireError::BadName("non-ASCII label".into()))
        );
        let spaced = lookup_frame_with_labels(&[b"a b", b"com"]);
        assert!(matches!(decode_lookup_request(&spaced), Err(WireError::BadName(_))));
    }

    #[test]
    fn a_refused_wire_name_keeps_the_error_its_text_form_gives() {
        let decode = |labels: &[&[u8]]| decode_lookup_request(&lookup_frame_with_labels(labels));
        let bad_name = |e: NameError| Err(WireError::BadName(e.to_string()));
        // The first label the rule refuses names the error, in the case
        // the wire spelled it.
        assert_eq!(decode(&[b"A!", b"-b"]), bad_name(NameError::BadCharacter('!')));
        assert_eq!(decode(&[b"ok", b"-AB", b"c!"]), bad_name(NameError::HyphenEdge("-AB".into())));
        assert_eq!(decode(&["é".as_bytes(), b"com"]), bad_name(NameError::BadCharacter('é')));
        // The walk's own refusals come first, wherever they sit: a dotted
        // label, the length bound, invalid UTF-8, then the labels' rule.
        assert_eq!(
            decode(&[b"a!", b"b.c"]),
            Err(WireError::BadName("`.` inside a wire label".into()))
        );
        let l63 = [b'a'; 63];
        assert_eq!(decode(&[b"a!", &l63, &l63, &l63, &l63]), bad_name(NameError::TooLong(258)));
        assert_eq!(
            decode(&[b"a!", &[0xC3]]),
            Err(WireError::BadName("non-ASCII label".into()))
        );
        assert_eq!(decode(&[b"a!", &[b'a'; 64]]), Err(WireError::BadLabelType(0x40)));
        // And an accepted name is lowercased on the way in.
        let (_, queries) = decode(&[b"Mixed_Case", b"COM"]).unwrap();
        assert_eq!(queries[0].name.as_str(), "mixed_case.com");
    }

    #[test]
    fn repeated_ns_sets_decode_to_shared_storage() {
        let delta = sample_delta();
        let frame = encode_delta_push(
            &name("com"),
            Serial::new(1),
            Serial::new(2),
            SimTime::ZERO,
            &delta,
        );
        let push = decode_delta_push(&frame).unwrap();
        assert_eq!(push.delta, delta);
        // Every use of a set shares one `Arc`, the defining first use
        // included, across all three sections: the cloudflare pair is
        // alpha.com's (defined), bravo.com's and moved.com's new set; the
        // domaincontrol one gone.com's (defined) and moved.com's old set.
        let d = &push.delta;
        let cloudflare = &d.added[0].1;
        assert!(d.added[1].1.ptr_eq(cloudflare) && d.changed[0].new_ns.ptr_eq(cloudflare));
        let domaincontrol = &d.removed[0].1;
        assert!(d.changed[0].old_ns.ptr_eq(domaincontrol));
        assert!(!cloudflare.ptr_eq(domaincontrol));

        // Across a chunk: 64 entries on one provider pair are one `Arc`,
        // not 64.
        let entries: Vec<_> = (0..64)
            .map(|i| {
                (
                    name(&format!("domain-{i:03}.com")),
                    vec![name("ns1.cloudflare.com"), name("ns2.cloudflare.com")],
                )
            })
            .collect();
        let snap = crate::snapshot::ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(3),
            SimTime::ZERO,
            entries,
        );
        let chunk = decode_snapshot_chunk(&encode_snapshot_chunks(1, &snap, 0, 1 << 16)[0]).unwrap();
        assert_eq!(chunk.entries.len(), 64);
        let shared = &chunk.entries[0].1;
        assert!(chunk.entries.iter().all(|(_, ns)| ns.ptr_eq(shared)));
    }

    /// An entry of a hand-written `RZU4` body: owner `label` under the
    /// root, as its packed label, then the reference bytes `reference`,
    /// then — when `hosts` is given — the set it defines, spelled out
    /// without compression.
    fn delta_entry(label: &str, reference: &[u8], hosts: Option<&[&str]>) -> Vec<u8> {
        let mut entry = owner_field(label);
        entry.extend_from_slice(reference);
        if let Some(hosts) = hosts {
            entry.extend_from_slice(&(hosts.len() as u16).to_be_bytes());
            for host in hosts {
                for label in host.split('.') {
                    entry.push(label.len() as u8);
                    entry.extend_from_slice(label.as_bytes());
                }
                entry.push(0);
            }
        }
        entry
    }

    #[test]
    fn delta_push_refuses_a_reference_past_the_next_definition() {
        // One set defined; 1 would define the next, 2 is past it.
        let defined = delta_entry("a", &[0], Some(&["ns.x"]));
        for (index, pos) in [(2u32, &[2u8][..]), (0x80, &[0x80, 0x01])] {
            let body = [defined.clone(), delta_entry("b", pos, None)].concat();
            assert_eq!(
                decode_delta_push(&delta_frame([2, 0, 0], &body)),
                Err(WireError::BadNsRef { index, defined: 1 })
            );
        }
        // The first reference of an empty table may only define set 0.
        let body = delta_entry("a", &[1], Some(&["ns.x"]));
        assert_eq!(
            decode_delta_push(&delta_frame([0, 1, 0], &body)),
            Err(WireError::BadNsRef { index: 1, defined: 0 })
        );
        // The same frame with reference 1 defining the second set decodes.
        let body = [defined, delta_entry("b", &[1], Some(&["ns.y"]))].concat();
        let push = decode_delta_push(&delta_frame([2, 0, 0], &body)).unwrap();
        assert_eq!(push.delta.added[1].1.as_slice(), &[name("ns.y")]);
    }

    #[test]
    fn delta_push_refuses_a_non_minimal_reference() {
        // Set 0 spelled in two bytes (a zero last group), and in five with
        // bits past the `u32` in the fifth: each reads as `u32::MAX`.
        let defined = delta_entry("a", &[0], Some(&["ns.x"]));
        for long in [&[0x80, 0x00][..], &[0x80, 0x80, 0x80, 0x80, 0x10]] {
            let body = [defined.clone(), delta_entry("b", long, None)].concat();
            assert_eq!(
                decode_delta_push(&delta_frame([2, 0, 0], &body)),
                Err(WireError::BadNsRef { index: u32::MAX, defined: 1 }),
                "{long:02x?}"
            );
        }
    }

    #[test]
    fn a_changed_entry_may_name_a_set_an_added_one_defined() {
        // The table spans the frame: `b`'s old set is `a`'s, by index 0,
        // and its new set is defined in the changed section itself.
        let mut body = delta_entry("a", &[0], Some(&["ns.x", "ns.y"]));
        body.extend(delta_entry("b", &[0], None));
        body.push(1);
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(b"\x02ns\x01z\x00");
        let push = decode_delta_push(&delta_frame([1, 0, 1], &body)).unwrap();
        let (added, change) = (&push.delta.added[0].1, &push.delta.changed[0]);
        assert_eq!(added.as_slice(), &[name("ns.x"), name("ns.y")]);
        assert!(change.old_ns.ptr_eq(added));
        assert_eq!(change.new_ns.as_slice(), &[name("ns.z")]);
    }

    #[test]
    fn entry_counts_are_bounded_at_three_bytes_an_entry() {
        // Counts the 2-byte-an-entry bound admitted (and the 3-byte one
        // for a changed entry) over a body of `0xFF`s. Read, the first
        // owner byte would be `BadLabelType(0xFF)` in a delta and a
        // 66-character front-coded label in a chunk; `Truncated` says the
        // count died at the bound, before the entry vector was sized.
        for (counts, old_min) in [([5, 0, 0], 10), ([0, 5, 0], 10), ([0, 0, 5], 15)] {
            let frame = delta_frame(counts, &vec![0xFF; old_min]);
            assert_eq!(decode_delta_push(&frame), Err(WireError::Truncated), "{counts:?}");
        }
        let mut chunk = SNAPSHOT_CHUNK_MAGIC.to_vec();
        chunk.extend_from_slice(&0u16.to_be_bytes()); // tld
        chunk.push(0); // root origin
        chunk.extend_from_slice(&[0; 4 + 8]); // serial, taken_at
        chunk.extend_from_slice(&5u32.to_be_bytes()); // total
        chunk.extend_from_slice(&0u32.to_be_bytes()); // offset
        chunk.push(CHUNK_LAYOUT | CHUNK_LAST);
        chunk.extend_from_slice(&5u32.to_be_bytes()); // count
        chunk.extend_from_slice(&[0xFF; 10]);
        assert_eq!(decode_snapshot_chunk(&chunk), Err(WireError::Truncated));
        // At three bytes an entry the bound passes: the owner is read.
        chunk.extend_from_slice(&[0xFF; 5]);
        let too_long = WireError::OwnerLabelTooLong { shared: 3, rest: 63 };
        assert_eq!(decode_snapshot_chunk(&chunk), Err(too_long));
    }

    /// A 100-entry delta frame under `origin`: owners `domain-NNN.com`,
    /// each on the set `hosts` makes of its own spelling.
    fn hundred_entry_frame(origin: &str, hosts: impl Fn(&str) -> Vec<DomainName>) -> usize {
        let mut delta = ZoneDelta::default();
        for i in 0..100 {
            let owner = format!("domain-{i:03}.com");
            delta.added.push((name(&owner), NsSet::new(hosts(&owner))));
        }
        let frame =
            encode_delta_push(&name(origin), Serial::new(1), Serial::new(2), SimTime::ZERO, &delta);
        assert_eq!(decode_delta_push(&frame).unwrap().delta, delta);
        frame.len()
    }

    /// `label`'s owner field, as [`Encoder::entry`] writes it.
    fn owner_field(label: &str) -> Vec<u8> {
        pack_label(label.as_bytes(), &mut [0; OWNER_FIELD_MAX]).unwrap().to_vec()
    }

    #[test]
    fn owner_labels_trade_bytes_as_the_layout_says() {
        // Against `RZU2` (every owner a name) and `RZU3` (owner labels a
        // byte a character), measured on these inputs.
        let provider = |_: &str| vec![name("ns1.provider.net"), name("ns2.provider.net")];
        // Children of the origin on a provider's set: the 2-byte origin
        // pointer per owner goes, then a third of each 10-character
        // label, 1 463 → 1 263 → 963 B.
        assert_eq!(hundred_entry_frame("com", provider), 963);
        // In-bailiwick sets: a short owner is no pointer target, so
        // `ns1.<owner>` spells the owner's label again and points at the
        // origin, 2 837 → 3 737 → 3 437 B. No workload has this shape.
        let in_bailiwick =
            |owner: &str| vec![name(&format!("ns1.{owner}")), name(&format!("ns2.{owner}"))];
        assert_eq!(hundred_entry_frame("com", in_bailiwick), 3_437);
        // Two-label owners under the root origin are not its children:
        // the escape byte each, 1 462 → 1 562 → 1 562 B.
        assert_eq!(hundred_entry_frame(".", provider), 1_562);
    }

    #[test]
    fn the_packing_alphabet_is_the_label_rules() {
        // Every byte the label rule keeps as it is inside a label (where
        // a hyphen may stand), and no other, has a digit. A dot is no
        // label byte: it splits the text in two.
        for b in 0..=u8::MAX {
            let text = [b'a', b, b'a'];
            let kept = b != b'.'
                && std::str::from_utf8(&text)
                    .ok()
                    .and_then(|t| DomainName::parse(t).ok())
                    .is_some_and(|n| n.as_str().as_bytes() == text);
            assert_eq!(PACK_PLACES[0][usize::from(b)] != PACK_OUTSIDE, kept, "byte {b:#04x}");
        }
        assert!(PACK_ALPHABET.windows(2).all(|w| w[0] < w[1]), "byte order");
    }

    #[test]
    fn labels_pack_three_characters_to_two_bytes() {
        // Digits: `-` 0, `0` 1 … `9` 10, `_` 11, `a` 12 … `z` 37.
        for (label, field) in [
            ("a", &[1, 12][..]),
            ("z9", &[2, 0x05, 0x88]),       // 37·38 + 10 = 1 416
            ("_9z", &[3, 0x3F, 0xAD]),      // 11·38² + 10·38 + 37 = 16 301
            ("zzz", &[3, 0xD6, 0x57]),      // 38³ − 1 = 54 871
            ("a-b_", &[4, 0x43, 0xBD, 11]), // 12·38² + 0·38 + 13 = 17 341
            ("0-0", &[3, 0x05, 0xA5]),      // 1·38² + 0 + 1 = 1 445
        ] {
            assert_eq!(owner_field(label), field, "{label}");
        }
        // `⌈2L/3⌉` bytes behind the length, up to 42 for 63 characters.
        for len in 1..=63 {
            assert_eq!(owner_field(&"x".repeat(len)).len(), 1 + (2 * len).div_ceil(3));
        }
        // A byte outside the alphabet or an over-long label: no field,
        // and `Encoder::entry` takes the escape.
        for label in [&b"Ab"[..], b"a.b", &[b'a'; 64]] {
            assert_eq!(pack_label(label, &mut [0; OWNER_FIELD_MAX]), None, "{label:?}");
        }
    }

    #[test]
    fn an_owner_label_is_checked_and_refused_like_a_name_label() {
        let one = |owner: &[u8]| delta_frame([1, 0, 0], &[owner, &[0, 0, 0]].concat());
        let decoded = |owner: &[u8]| decode_delta_push(&one(owner)).map(|p| p.delta.added[0].0);
        assert_eq!(decoded(&owner_field("a-b_")), Ok(name("a-b_")));
        // 63 characters is the longest.
        let l63 = "a".repeat(63);
        assert_eq!(decoded(&owner_field(&l63)), Ok(name(&l63)));
        // Every character the alphabet has, in each position of a group.
        let all = std::str::from_utf8(PACK_ALPHABET).unwrap();
        for label in [format!("a{all}a"), format!("aa{all}a"), format!("aaa{all}a")] {
            assert_eq!(decoded(&owner_field(&label)), Ok(name(&label)));
        }
        // Unpacked, a label still passes through the label rule: a
        // hyphen at an edge keeps the error its text form gives.
        let bad_name = |e: NameError| Err(WireError::BadName(e.to_string()));
        assert_eq!(decoded(&owner_field("-a")), bad_name(NameError::HyphenEdge("-a".into())));
        assert_eq!(decoded(&owner_field("ab-")), bad_name(NameError::HyphenEdge("ab-".into())));
        // Neither a label length nor the escape: a pointer, a reserved
        // label type, a label longer than 63 characters.
        for byte in [0x40, 0x80, 0xC0, 0xFF] {
            assert_eq!(decoded(&[byte, 0]), Err(WireError::BadLabelType(byte)));
        }
        // The escape takes any name, the root included.
        assert_eq!(decoded(&[0, 1, b'a', 1, b'b', 0]), Ok(name("a.b")));
        assert_eq!(decoded(&[0, 0]), Ok(DomainName::root()));
        // A packed label cut short is a truncation.
        let cut = delta_frame([1, 0, 0], &[4, 0x43]);
        assert_eq!(decode_delta_push(&cut), Err(WireError::Truncated));
    }

    #[test]
    fn a_packed_group_at_or_above_its_bound_is_refused() {
        // The lowest and highest out-of-range value of a trailing group
        // of one (a byte), of two and of a full group of three (a `u16`
        // each), behind a valid first group.
        let one = |field: &[u8]| delta_frame([1, 0, 0], &[field, &[0, 0, 0]].concat());
        let sizes = [(4u8, 1, 38u16, 0xFF), (5, 2, 1_444, 0xFFFF), (6, 2, 54_872, 0xFFFF)];
        for (len, group, bound, top) in sizes {
            for value in [bound, bound + 1, top] {
                let mut field = vec![len, 0x43, 0x98];
                field.extend_from_slice(&value.to_be_bytes()[2 - group..]);
                assert_eq!(
                    decode_delta_push(&one(&field)),
                    Err(WireError::BadPackedGroup(value)),
                    "{len} characters, trailing group {value}"
                );
            }
            // One below the bound decodes.
            let mut field = vec![len, 0x43, 0x98];
            field.extend_from_slice(&(bound - 1).to_be_bytes()[2 - group..]);
            assert!(decode_delta_push(&one(&field)).is_ok(), "{len} characters");
        }
    }

    #[test]
    fn an_owner_label_and_its_origin_fill_a_name_to_253_bytes() {
        // Origin 63 + 63 + 61 bytes and two dots (189): a 63-byte label
        // takes the owner to exactly 253 bytes.
        let origin = format!("{}.{}.{}", "o".repeat(63), "p".repeat(63), "q".repeat(61));
        let origin = name(&origin);
        // One added entry: the label, then set 0 defined with no hosts.
        let mut frame = DELTA_PUSH_MAGIC.to_vec();
        for part in origin.as_str().split('.') {
            frame.push(part.len() as u8);
            frame.extend_from_slice(part.as_bytes());
        }
        frame.push(0);
        frame.extend_from_slice(&[0; 4 + 4 + 8]);
        frame.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        frame.extend_from_slice(&owner_field(&"a".repeat(63)));
        frame.extend_from_slice(&[0, 0, 0]);
        let widest = decode_delta_push(&frame).unwrap().delta.added[0].0;
        assert_eq!(widest.as_str().len(), 253);
        assert_eq!(widest.parent(), Some(origin));
        let mut delta = ZoneDelta::default();
        delta.added.push((widest, NsSet::new(vec![name("ns.x")])));
        let encoded =
            encode_delta_push(&origin, Serial::new(0), Serial::new(0), SimTime::ZERO, &delta);
        assert_eq!(decode_delta_push(&encoded).unwrap().delta, delta);
        // Under an origin two bytes longer (`r.` prepended), the same
        // label takes the owner past the bound: the text route's error.
        let mut over = frame;
        over.splice(4..4, [1, b'r']);
        let too_long = WireError::BadName(NameError::TooLong(255).to_string());
        assert_eq!(decode_delta_push(&over), Err(too_long));
    }

    /// A front-coded owner field: `shared` characters from the owner
    /// before, then `rest` packed.
    fn shared_field(shared: u8, rest: &str) -> Vec<u8> {
        let mut field = owner_field(rest);
        field[0] |= shared << 6;
        field
    }

    /// A one-chunk train under the root origin whose entries are the
    /// owner `fields`, the first defining an empty set 0, the rest naming
    /// it.
    fn fields_chunk(fields: &[Vec<u8>]) -> Vec<u8> {
        let count = (fields.len() as u32).to_be_bytes();
        let mut chunk = SNAPSHOT_CHUNK_MAGIC.to_vec();
        chunk.extend_from_slice(&0u16.to_be_bytes()); // tld
        chunk.push(0); // root origin
        chunk.extend_from_slice(&[0; 4 + 8]); // serial, taken_at
        chunk.extend_from_slice(&count); // total
        chunk.extend_from_slice(&0u32.to_be_bytes()); // offset
        chunk.push(CHUNK_LAYOUT | CHUNK_LAST);
        chunk.extend_from_slice(&count);
        for (i, field) in fields.iter().enumerate() {
            chunk.extend_from_slice(field);
            chunk.extend_from_slice(if i == 0 { &[0, 0, 0][..] } else { &[0] });
        }
        chunk
    }

    #[test]
    fn a_chunk_owner_shares_at_most_three_characters_with_the_one_before() {
        // A sorted run under `com`: two labels sharing four characters
        // share three, a label shorter than the common prefix keeps its
        // last character, an escaped owner leaves no predecessor, and
        // the next chunk starts afresh.
        let owners = ["abcde", "abcdf", "abd-x", "abd", "b", "bz.y", "bzz", "bzzz"];
        let snap = crate::snapshot::ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            owners.iter().map(|o| (name(&format!("{o}.com")), vec![])).collect(),
        );
        let train = encode_snapshot_chunks(0, &snap, 0, 70);
        assert_eq!(train.len(), 2, "the last owner opens a second chunk");
        // Behind magic, tld, `com`, serial, taken-at, total, offset,
        // flags and count: each owner field, then its set reference.
        let body = |frame: &Bytes| frame[4 + 2 + 5 + 4 + 8 + 4 + 4 + 1 + 4..].to_vec();
        let fields = [
            shared_field(0, "abcde"),
            shared_field(3, "df"),
            shared_field(2, "d-x"),
            shared_field(2, "d"),
            shared_field(0, "b"),
            vec![0, 2, b'b', b'z', 1, b'y', 0xC0, 6], // `com` at offset 6
            shared_field(0, "bzz"),
        ];
        let mut expected = Vec::new();
        for (i, field) in fields.iter().enumerate() {
            expected.extend_from_slice(field);
            expected.extend_from_slice(if i == 0 { &[0, 0, 0][..] } else { &[0] });
        }
        assert_eq!(body(&train[0]), expected);
        assert_eq!(body(&train[1]), [shared_field(0, "bzzz"), vec![0, 0, 0]].concat());
        let decoded: Vec<DomainName> = train
            .iter()
            .flat_map(|frame| decode_snapshot_chunk(frame).unwrap().entries)
            .map(|(owner, _)| owner)
            .collect();
        assert!(decoded.iter().eq(snap.domain_column().iter()));
        // An `RZU4` frame shares nothing: the same owners, each whole.
        let delta = ZoneDelta {
            added: snap.iter().map(|(owner, ns)| (owner, ns.clone())).collect(),
            ..ZoneDelta::default()
        };
        let frame =
            encode_delta_push(&name("com"), Serial::new(1), Serial::new(2), SimTime::ZERO, &delta);
        let whole = owner_field("abcdf");
        assert!(frame.windows(whole.len()).any(|w| w == whole), "`abcdf` packed whole");
    }

    #[test]
    fn a_front_coded_owner_field_has_one_spelling() {
        let decoded = |fields: &[Vec<u8>]| {
            decode_snapshot_chunk(&fields_chunk(fields))
                .map(|chunk| chunk.entries.iter().map(|(o, _)| o.to_string()).collect::<Vec<_>>())
        };
        let abcde = shared_field(0, "abcde");
        assert_eq!(
            decoded(&[abcde.clone(), shared_field(3, "df")]),
            Ok(vec!["abcde".to_string(), "abcdf".to_string()])
        );
        // A share with nothing spelled after it.
        for shared in 1..=3 {
            let fields = [abcde.clone(), vec![shared << 6]];
            assert_eq!(decoded(&fields), Err(WireError::EmptyOwnerRest { shared }));
        }
        // Shared and spelled characters past 63.
        let fields = [abcde.clone(), shared_field(1, &"x".repeat(63))];
        assert_eq!(decoded(&fields), Err(WireError::OwnerLabelTooLong { shared: 1, rest: 63 }));
        let widest = [abcde.clone(), shared_field(3, &"x".repeat(60))];
        assert_eq!(decoded(&widest).unwrap()[1].len(), 63);
        // More than the predecessor has: at a chunk's start, behind a
        // shorter label, behind an escaped owner.
        let past =
            |shared, predecessor| Err(WireError::SharePastPredecessor { shared, predecessor });
        assert_eq!(decoded(&[shared_field(1, "a")]), past(1, 0));
        assert_eq!(decoded(&[shared_field(0, "b"), shared_field(2, "z")]), past(2, 1));
        assert_eq!(
            decoded(&[abcde.clone(), vec![0, 1, b'q', 0], shared_field(1, "z")]),
            past(1, 0)
        );
        // Less than the one rule gives, whatever the rest spells.
        let non = |shared, canonical| Err(WireError::NonCanonicalShare { shared, canonical });
        assert_eq!(decoded(&[abcde.clone(), shared_field(2, "cdf")]), non(2, 3));
        assert_eq!(decoded(&[abcde.clone(), shared_field(0, "abcdf")]), non(0, 3));
        assert_eq!(decoded(&[abcde.clone(), shared_field(0, "abc")]), non(0, 2));
        assert_eq!(decoded(&[abcde, shared_field(1, "bc")]), non(1, 2));
    }

    #[test]
    fn root_name_encodes_as_single_zero() {
        let mut msg = Message::query(1, DomainName::root(), RecordType::Ns);
        msg.header.is_response = false;
        let encoded = msg.encode();
        assert_eq!(encoded.len(), 12 + 1 + 4);
        assert_eq!(round_trip(&msg), msg);
    }
}
