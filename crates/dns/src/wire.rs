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
//! Every message family here — `Message`, `RZU1`, `RZUC`, `RZUL` —
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
//! * **NS sets** decode through a per-frame memo. The wire bytes of a
//!   set are a context-free function of the frame (labels are literal,
//!   pointer targets absolute), so they key a shared [`NsSet`]: a
//!   repeated set — two 2-byte pointers per host, typically — is found
//!   by skipping over it, and a 100k-entry bootstrap holds a couple of
//!   `Arc`s per distinct provider set and chunk instead of 100k private
//!   ones. The memo borrows from the frame and holds at most one entry
//!   per NS set the frame spells: it is bounded by the bytes it
//!   indexes, never by a decoded count.
//!
//! `tests/wire_golden.rs` pins the encoders to the bytes of the previous
//! (`String`-keyed) implementation; `tests/alloc_budget.rs` pins the
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
    /// A label byte has the reserved `10`/`01` top-bit pattern.
    BadLabelType(u8),
    /// The decoded name is not valid presentation-form DNS.
    BadName(String),
    /// TYPE value we do not implement.
    UnsupportedType(u16),
    /// RDLENGTH disagrees with the actual RDATA encoding.
    RdataLength { declared: usize, actual: usize },
    /// Bytes remained after the message was fully parsed.
    TrailingBytes(usize),
    /// A delta-push frame did not start with the `RZU1` magic.
    BadMagic,
    /// A flags byte outside the defined set: lookup answer or snapshot
    /// chunk flag bits, or a HELLO scope this build does not know.
    BadFlags(u8),
    /// A snapshot continuation chunk's `(offset, count, total)` bounds
    /// are inconsistent (out of range, or the last-chunk flag disagrees
    /// with the arithmetic).
    BadChunk { offset: u32, count: u32, total: u32 },
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
            WireError::BadMagic => write!(f, "not an RZU1 delta-push frame"),
            WireError::BadFlags(b) => write!(f, "unknown flags byte {b:#04x}"),
            WireError::BadChunk { offset, count, total } => {
                write!(f, "snapshot chunk bounds {offset}+{count} inconsistent with total {total}")
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
    pub const fn code(self) -> u8 {
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
    pub fn query(id: u16) -> Self {
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
}

impl<'a> Encoder<'a> {
    fn new() -> Self {
        Encoder { buf: BytesMut::with_capacity(512), compression: HashMap::default() }
    }

    /// Start the next frame, keeping both allocations.
    fn reset(&mut self) {
        self.buf.clear();
        self.compression.clear();
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

    /// Encode an NS set as a u16 count followed by the host names.
    fn ns_set(&mut self, ns: &'a NsSet) {
        debug_assert!(ns.len() <= u16::MAX as usize);
        self.buf.put_u16(ns.len() as u16);
        for host in ns {
            self.name(host);
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

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Raw wire bytes of an NS set -> the set they decoded to. Keys
    /// borrow from the frame and only sets the frame actually spells are
    /// inserted, so the memo is bounded by the frame's length (L2).
    /// Default (keyed) hasher: the keys are peer-chosen bytes.
    ns_memo: HashMap<&'a [u8], NsSet>,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0, ns_memo: HashMap::new() }
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

    /// Decode an NS set encoded by [`Encoder::ns_set`]. Host order is
    /// preserved as encoded.
    ///
    /// The set's raw bytes decode to the same value wherever in the
    /// frame they stand — labels are literal, pointer targets are
    /// absolute offsets, and a pointer legal at an earlier position is
    /// legal at every later one — so they are memoised: the second and
    /// later occurrences of a spelling share the first one's [`NsSet`].
    fn ns_set(&mut self) -> Result<NsSet, WireError> {
        let start = self.pos;
        let count = self.u16()? as usize;
        // Untrusted count: every host name costs at least 1 byte, so a
        // count the rest of the buffer cannot hold is a truncation —
        // caught before the allocation is sized from it.
        if count > self.remaining() {
            return Err(WireError::Truncated);
        }
        for _ in 0..count {
            self.skip_name()?;
        }
        let raw = &self.bytes[start..self.pos];
        if let Some(shared) = self.ns_memo.get(raw) {
            return Ok(shared.clone());
        }
        self.pos = start + 2;
        let mut hosts = Vec::with_capacity(count);
        for _ in 0..count {
            hosts.push(self.name()?);
        }
        let set = NsSet::from_raw(hosts);
        self.ns_memo.insert(raw, set.clone());
        Ok(set)
    }

    /// Decode `count` `(owner, NS set)` entries — the body of an `RZUC`
    /// frame. The count is untrusted: each entry costs at least 3 bytes
    /// (a 1-byte root or pointer-free name plus a 2-byte NS count), so a
    /// count the remaining buffer cannot hold is a truncation, caught
    /// before the allocation is sized from it.
    fn decode_entries(&mut self, count: usize) -> Result<Vec<(DomainName, NsSet)>, WireError> {
        if count.checked_mul(3).is_none_or(|need| need > self.remaining()) {
            return Err(WireError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push((self.name()?, self.ns_set()?));
        }
        Ok(entries)
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
    /// wire name yields is built here.
    #[cold]
    fn name_via_text(&mut self) -> Result<DomainName, WireError> {
        let mut text = [0u8; 253];
        let mut text_len = 0usize;
        self.labels(|label| {
            // A dot inside a label would re-parse as a label boundary:
            // one name, two encodings.
            if label.contains(&b'.') {
                return Err(WireError::BadName("`.` inside a wire label".into()));
            }
            let sep = usize::from(text_len > 0);
            let grown = text_len + sep + label.len();
            let Some(dst) = text.get_mut(text_len..grown) else {
                return Err(WireError::BadName(NameError::TooLong(grown).to_string()));
            };
            if sep == 1 {
                dst[0] = b'.';
            }
            dst[sep..].copy_from_slice(label);
            text_len = grown;
            Ok(())
        })?;
        let text = std::str::from_utf8(&text[..text_len])
            .map_err(|_| WireError::BadName("non-ASCII label".into()))?;
        DomainName::parse(text).map_err(|e| WireError::BadName(e.to_string()))
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

/// Magic prefix of an RZU delta-push frame ("RZU1").
pub const DELTA_PUSH_MAGIC: &[u8; 4] = b"RZU1";

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
    /// The net changes, in canonical (sorted-by-domain) order.
    pub delta: ZoneDelta,
}

/// Encode a delta push into a compact shareable frame.
///
/// Layout (all integers big-endian):
///
/// ```text
/// "RZU1"                     magic, 4 bytes
/// origin                     wire-format name (compression target)
/// from_serial u32, to_serial u32, pushed_at u64
/// added u32, removed u32, changed u32        section counts
/// added:   (name, u16 ns_count, ns names...) per entry
/// removed: (name, u16 ns_count, ns names...) per entry
/// changed: (name, u16 old_count, old..., u16 new_count, new...) per entry
/// ```
///
/// Names use RFC 1035 label encoding with compression pointers scoped to
/// the frame, so the heavily repeated NS host names (a handful of DNS
/// providers serve most delegations) collapse to 2-byte pointers.
pub fn encode_delta_push(
    origin: &DomainName,
    from_serial: Serial,
    to_serial: Serial,
    pushed_at: SimTime,
    delta: &ZoneDelta,
) -> Bytes {
    let mut enc = Encoder::new();
    enc.buf.put_slice(DELTA_PUSH_MAGIC);
    enc.name(origin);
    enc.buf.put_u32(from_serial.get());
    enc.buf.put_u32(to_serial.get());
    enc.buf.put_u64(pushed_at.as_secs());
    enc.buf.put_u32(delta.added.len() as u32);
    enc.buf.put_u32(delta.removed.len() as u32);
    enc.buf.put_u32(delta.changed.len() as u32);
    for (domain, ns) in delta.added.iter().chain(&delta.removed) {
        enc.name(domain);
        enc.ns_set(ns);
    }
    for chg in &delta.changed {
        enc.name(&chg.domain);
        enc.ns_set(&chg.old_ns);
        enc.ns_set(&chg.new_ns);
    }
    enc.buf.freeze()
}

/// Decode a frame produced by [`encode_delta_push`]. The entire buffer
/// must be consumed. Section order within the frame is preserved, so a
/// frame encoded from a canonical [`ZoneDelta`] decodes to a canonical
/// one (a property [`ZoneDelta::apply`] re-verifies before applying).
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
    // Counts are untrusted: every entry costs at least 3 bytes (a 1-byte
    // root/pointer-free name plus a 2-byte NS count), so counts the
    // remaining buffer cannot possibly hold are a truncation, caught
    // here before any allocation is sized from them.
    let min_bytes = (added_count + removed_count)
        .checked_mul(3)
        .and_then(|n| n.checked_add(changed_count.checked_mul(5)?))
        .ok_or(WireError::Truncated)?;
    if min_bytes > dec.remaining() {
        return Err(WireError::Truncated);
    }
    let mut delta = ZoneDelta::default();
    delta.added.reserve_exact(added_count);
    for _ in 0..added_count {
        delta.added.push((dec.name()?, dec.ns_set()?));
    }
    delta.removed.reserve_exact(removed_count);
    for _ in 0..removed_count {
        delta.removed.push((dec.name()?, dec.ns_set()?));
    }
    delta.changed.reserve_exact(changed_count);
    for _ in 0..changed_count {
        delta.changed.push(NsChange {
            domain: dec.name()?,
            old_ns: dec.ns_set()?,
            new_ns: dec.ns_set()?,
        });
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
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
//   embedded `RZU1` frame, verbatim — the server writes the broker's
//   refcount-shared frame bytes with no per-subscriber re-encode.
// * `RZUE` — eviction notice (server -> client): the subscriber fell
//   behind and was evicted; it must reconnect with its claims.
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
/// Magic prefix of a delta-envelope frame (TLD tag + embedded `RZU1`).
pub const DELTA_ENVELOPE_MAGIC: &[u8; 4] = b"RZUD";
/// Magic prefix (and entire body) of an eviction notice.
pub const EVICT_NOTICE_MAGIC: &[u8; 4] = b"RZUE";

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

/// A subscriber's catch-up scope, carried in the HELLO's optional scope
/// section. The scope answers one question per connection: what may the
/// server send to bring the subscriber's claimed shards to the head?
///
/// * [`HelloScope::Full`] — the legacy (and default) contract: the
///   server applies the complete snapshot-vs-delta decision rule, so a
///   claim beyond delta repair triggers a checkpoint bootstrap.
/// * [`HelloScope::DeltaOnly`] — a *partial subscription* in the
///   MoQ-relay sense: the subscriber wants the live delta stream and
///   ring-covered replay only, never a snapshot. A claim the ring cannot
///   cover starts at the live head instead of bootstrapping — the right
///   contract for tap consumers (an NRD detector watching for new
///   delegations) that carry no full-zone state and must not pay a
///   500k-entry bootstrap to start listening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HelloScope {
    #[default]
    Full,
    DeltaOnly,
}

impl HelloScope {
    fn to_wire(self) -> u8 {
        match self {
            HelloScope::Full => 0,
            HelloScope::DeltaOnly => 1,
        }
    }

    fn from_wire(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(HelloScope::Full),
            1 => Ok(HelloScope::DeltaOnly),
            // Not a wrong-protocol peer (the magic matched): a scope this
            // build does not know, most likely from a newer one.
            other => Err(WireError::BadFlags(other)),
        }
    }
}

/// A HELLO: the per-TLD serial claims plus any mid-snapshot resume
/// claims appended by a subscriber that was cut during a chunked
/// bootstrap, plus the subscription scope (absent on legacy frames,
/// defaulting to [`HelloScope::Full`]). A claims-only sender writes
/// `HelloFrame { claims, ..Default::default() }`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HelloFrame {
    pub claims: Vec<TldClaim>,
    pub resume: Vec<(u16, SnapshotResume)>,
    pub scope: HelloScope,
}

/// Encode a subscriber HELLO.
///
/// Layout: `"RZUH"`, the claims (`u16` count, then per claim `u16` TLD,
/// `u8` has-serial flag, `u32` serial — zero when absent), then two
/// optional sections. The resume section is a `u16` count and per row
/// `u16` TLD, `u32` snapshot serial, `u32` entries-received (10 bytes
/// each); the scope section is one byte. With `resume` empty and the
/// default [`HelloScope::Full`] both are omitted and the frame is the
/// legacy claims-only layout, byte for byte. A non-default scope appends
/// the resume section unconditionally (count 0 if empty) so the scope
/// byte is unambiguous — a decoder that predates scopes rejects the
/// frame rather than silently serving a full bootstrap to a delta-only
/// subscriber.
pub fn encode_hello(hello: &HelloFrame) -> Bytes {
    let HelloFrame { claims, resume, scope } = hello;
    debug_assert!(resume.len() <= u16::MAX as usize);
    let mut buf =
        BytesMut::with_capacity(6 + claims.len() * CLAIM_LEN + 2 + resume.len() * 10 + 1);
    buf.put_slice(HELLO_MAGIC);
    put_claims(&mut buf, claims);
    if !resume.is_empty() || *scope != HelloScope::Full {
        buf.put_u16(resume.len() as u16);
        for &(tld, r) in resume {
            buf.put_u16(tld);
            buf.put_u32(r.serial.get());
            buf.put_u32(r.entries);
        }
    }
    if *scope != HelloScope::Full {
        buf.put_u8(scope.to_wire());
    }
    buf.freeze()
}

/// Decode a HELLO produced by [`encode_hello`]: the legacy layout
/// (claims only — the resume and scope sections are simply absent), the
/// resume-extended layout, or the scoped one. All counts are untrusted
/// and bounded before any allocation is sized from them; an unknown
/// scope byte is rejected, and the entire buffer must be consumed.
pub fn decode_hello(bytes: &[u8]) -> Result<HelloFrame, WireError> {
    let mut dec = Decoder::new(bytes);
    if dec.take(4)? != HELLO_MAGIC {
        return Err(WireError::BadMagic);
    }
    let count = dec.u16()? as usize;
    let claims = dec.decode_claims(count)?;
    let mut resume = Vec::new();
    let mut scope = HelloScope::Full;
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
        if dec.remaining() > 0 {
            scope = HelloScope::from_wire(dec.u8()?)?;
        }
    }
    if dec.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - dec.pos));
    }
    Ok(HelloFrame { claims, resume, scope })
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
    /// The chunk's entries, in snapshot iteration order. Repeated NS
    /// sets within the chunk share one [`NsSet`].
    pub entries: Vec<(DomainName, NsSet)>,
}

/// Encode a snapshot as a sequence of `RZUC` continuation chunks,
/// starting at entry `start_entry` (a resume offset; pass 0 for the full
/// snapshot).
///
/// Each chunk carries `"RZUC"`, `u16` TLD, origin name, `u32` serial,
/// `u64` taken-at, then `u32` total, `u32` offset, `u8` flags (bit 0 =
/// last chunk), `u32` entry count, then the entries. Name compression
/// is scoped per chunk, so every chunk is an independently decodable
/// frame. Entries are packed greedily: a chunk is closed once its
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
    // One encoder for the whole train: the scratch buffer and the
    // compression table keep their allocations from chunk to chunk
    // (the table is still cleared — compression is scoped per chunk).
    let mut enc = Encoder::new();
    loop {
        enc.reset();
        enc.buf.put_slice(SNAPSHOT_CHUNK_MAGIC);
        enc.buf.put_u16(tld);
        enc.name(snapshot.origin());
        enc.buf.put_u32(snapshot.serial().get());
        enc.buf.put_u64(snapshot.taken_at().as_secs());
        enc.buf.put_u32(total as u32);
        enc.buf.put_u32(offset as u32);
        let flags_at = enc.buf.len();
        enc.buf.put_u8(0);
        let count_at = enc.buf.len();
        enc.buf.put_u32(0);
        let mut count: u32 = 0;
        // At least one entry per chunk guarantees progress even when the
        // header alone exceeds the byte target.
        while count == 0 || enc.buf.len() < chunk_bytes {
            let Some((domain, ns)) = iter.next() else { break };
            enc.name(domain);
            enc.ns_set(ns);
            count += 1;
        }
        let last = iter.len() == 0;
        if last {
            enc.buf[flags_at] = 1;
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
/// `offset + count == total`, is a [`WireError::BadChunk`].
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
    if flags & !1 != 0 {
        return Err(WireError::BadFlags(flags));
    }
    let last = flags & 1 != 0;
    let count = dec.u32()?;
    // Entries first: a count the buffer cannot hold is a truncation
    // whatever the bookkeeping around it claims.
    let entries = dec.decode_entries(count as usize)?;
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
/// refcount-shared `RZU1` frame bytes verbatim — composing the envelope
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

/// Peek the `(from_serial, to_serial)` pair of a bare `RZU1` delta-push
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

/// Encode an eviction notice (the magic is the whole message).
pub fn encode_evict_notice() -> Bytes {
    Bytes::copy_from_slice(EVICT_NOTICE_MAGIC)
}

/// True when `bytes` is exactly an eviction notice.
pub fn is_evict_notice(bytes: &[u8]) -> bool {
    bytes == EVICT_NOTICE_MAGIC
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
            /// shared `RZU1` frame verbatim — never re-encoded per
            /// subscriber).
            deltas_sent,
            /// Snapshot bootstraps fully flushed.
            snapshots_sent,
            /// `RZUE` eviction notices composed (connection drains and
            /// closes).
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
    /// fan-out outcomes (deliveries, lag drops, evictions), catch-up
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
            /// Live pushes dropped under the Lag policy.
            lagged_messages,
            /// Subscribers evicted from this shard for falling behind.
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
            /// Live pushes dropped for this subscriber under the Lag
            /// policy.
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
// Membership lookup round trip (`RZUL` / `RZUR`)
//
// The thin-client path: instead of holding a full `RemoteZoneView`
// replica, a client sends a batched `RZUL` request to a query-serving
// edge and gets one `RZUR` answer row per query — delegated or not, at
// which shard serial, and (when the name appeared in a recent delta's
// `added` section) the NRD first-seen timestamp from the edge's hot
// recency window. Both codecs follow the bounded-untrusted-count
// discipline of the frames above.
// ---------------------------------------------------------------------------

/// Magic prefix of a batched membership lookup request.
pub const LOOKUP_REQUEST_MAGIC: &[u8; 4] = b"RZUL";
/// Magic prefix of a batched membership lookup response.
pub const LOOKUP_RESPONSE_MAGIC: &[u8; 4] = b"RZUR";
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

/// One answer row in an `RZUR` batch, positionally matched to the query
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

/// A decoded `RZUR` frame: the echoed request id, the edge epoch that
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
/// [`LookupAnswer`] flag bits: a `u32` shard serial follows.
const LOOKUP_F_SERIAL: u8 = 1 << 1;
/// [`LookupAnswer`] flag bits: a `u64` NRD first-seen timestamp follows.
const LOOKUP_F_FIRST_SEEN: u8 = 1 << 2;

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

/// Encode a batched lookup response.
///
/// Layout: `"RZUR"`, `u64` request id, `u64` edge epoch, `u16` answer
/// count, then per answer a `u8` flag byte ([`LOOKUP_F_PRESENT`] |
/// [`LOOKUP_F_SERIAL`] | [`LOOKUP_F_FIRST_SEEN`]) followed by a `u32`
/// serial iff the serial flag is set and a `u64` first-seen timestamp
/// iff the first-seen flag is set — absent fields cost zero bytes, so
/// the common miss row is a single byte.
pub fn encode_lookup_response(
    request_id: u64,
    epoch: u64,
    answers: &[LookupAnswer],
) -> Bytes {
    debug_assert!(answers.len() <= u16::MAX as usize);
    let mut buf = BytesMut::with_capacity(4 + 8 + 8 + 2 + answers.len() * 6);
    buf.put_slice(LOOKUP_RESPONSE_MAGIC);
    buf.put_u64(request_id);
    buf.put_u64(epoch);
    buf.put_u16(answers.len() as u16);
    for answer in answers {
        let mut flags = 0u8;
        if answer.present {
            flags |= LOOKUP_F_PRESENT;
        }
        if answer.serial.is_some() {
            flags |= LOOKUP_F_SERIAL;
        }
        if answer.first_seen.is_some() {
            flags |= LOOKUP_F_FIRST_SEEN;
        }
        buf.put_u8(flags);
        if let Some(serial) = answer.serial {
            buf.put_u32(serial.get());
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
/// sized from it; flag bits outside the three defined ones are a
/// [`WireError::BadFlags`] (a canonical encoder never sets them).
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
    for _ in 0..count {
        let flags = dec.u8()?;
        if flags & !(LOOKUP_F_PRESENT | LOOKUP_F_SERIAL | LOOKUP_F_FIRST_SEEN) != 0 {
            return Err(WireError::BadFlags(flags));
        }
        let serial = if flags & LOOKUP_F_SERIAL != 0 {
            Some(Serial::new(dec.u32()?))
        } else {
            None
        };
        let first_seen = if flags & LOOKUP_F_FIRST_SEEN != 0 {
            Some(SimTime::from_secs(dec.u64()?))
        } else {
            None
        };
        answers.push(LookupAnswer {
            present: flags & LOOKUP_F_PRESENT != 0,
            serial,
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

    #[test]
    fn delta_push_rejects_oversized_counts_without_allocating() {
        // A tiny frame claiming u32::MAX entries must fail cleanly
        // (Truncated), not size allocations from the claimed counts.
        let mut frame = Vec::new();
        frame.extend_from_slice(b"RZU1");
        frame.push(0); // root origin name
        frame.extend_from_slice(&41u32.to_be_bytes()); // from_serial
        frame.extend_from_slice(&42u32.to_be_bytes()); // to_serial
        frame.extend_from_slice(&0u64.to_be_bytes()); // pushed_at
        frame.extend_from_slice(&u32::MAX.to_be_bytes()); // added count
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(decode_delta_push(&frame), Err(WireError::Truncated));
    }

    #[test]
    fn delta_push_rejects_bad_magic_and_truncation() {
        assert_eq!(decode_delta_push(b"NOPE"), Err(WireError::BadMagic));
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

    fn hello(
        claims: &[TldClaim],
        resume: &[(u16, SnapshotResume)],
        scope: HelloScope,
    ) -> HelloFrame {
        HelloFrame { claims: claims.to_vec(), resume: resume.to_vec(), scope }
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
        let mut padded = encode_hello(&hello(&claim, &[], HelloScope::Full)).to_vec();
        padded.push(9);
        assert_eq!(decode_hello(&padded), Err(WireError::Truncated));
    }

    #[test]
    fn hello_frame_round_trips_resume_claims_and_stays_legacy_compatible() {
        let claims = vec![
            TldClaim { tld: 2, from_serial: Some(Serial::new(9)) },
            TldClaim { tld: 5, from_serial: None },
        ];
        // No resume section and the default scope: exactly the legacy
        // claims-only layout (`tests/golden/rzuh.hex` pins its bytes).
        let legacy = encode_hello(&hello(&claims, &[], HelloScope::Full));
        assert_eq!(legacy.len(), legacy_len(&claims));

        let resume = vec![
            (5u16, SnapshotResume { serial: Serial::new(40), entries: 128 }),
            (2u16, SnapshotResume { serial: Serial::new(u32::MAX), entries: 0 }),
        ];
        let frame = encode_hello(&hello(&claims, &resume, HelloScope::Full));
        // The extension is a suffix: a claims-only reader sees its own
        // layout first.
        assert_eq!(frame[..legacy.len()], legacy[..]);
        assert_eq!(frame.len(), legacy.len() + 2 + 10 * resume.len());
        assert_eq!(decode_hello(&frame).unwrap(), hello(&claims, &resume, HelloScope::Full));
    }

    #[test]
    fn hello_frame_rejects_oversized_resume_count_and_trailing() {
        let resumed =
            hello(&[], &[(1, SnapshotResume { serial: Serial::new(1), entries: 1 })], HelloScope::Full);
        let mut frame = encode_hello(&resumed).to_vec();
        // One trailing byte after the resume rows is a scope byte — an
        // unknown scope value is rejected outright, and as a flags error
        // rather than a bad magic: the peer speaks RZUH, only a newer one.
        frame.push(9);
        assert_eq!(decode_hello(&frame), Err(WireError::BadFlags(9)));
        // Bytes *after* a valid scope byte are trailing garbage.
        frame.pop();
        frame.push(0);
        frame.push(0);
        assert_eq!(decode_hello(&frame), Err(WireError::TrailingBytes(1)));
        let mut oversized = encode_hello(&HelloFrame::default()).to_vec();
        oversized.extend_from_slice(&u16::MAX.to_be_bytes()); // resume count
        assert_eq!(decode_hello(&oversized), Err(WireError::Truncated));
    }

    #[test]
    fn hello_unknown_scope_byte_is_bad_flags_not_bad_magic() {
        // A scoped frame with its scope byte overwritten: every value
        // this build does not define is reported as the flag it is, so a
        // close-reason breakdown can tell a newer-protocol peer from a
        // wrong-protocol one (which still fails on the magic).
        let claims = [TldClaim { tld: 3, from_serial: None }];
        let mut frame = encode_hello(&hello(&claims, &[], HelloScope::DeltaOnly)).to_vec();
        let scope_at = frame.len() - 1;
        for byte in 2..=u8::MAX {
            frame[scope_at] = byte;
            assert_eq!(decode_hello(&frame), Err(WireError::BadFlags(byte)));
        }
        frame[0] = b'X';
        assert_eq!(decode_hello(&frame), Err(WireError::BadMagic));
    }

    #[test]
    fn hello_scope_round_trips_and_full_scope_stays_legacy_identical() {
        let claims = vec![TldClaim { tld: 3, from_serial: Some(Serial::new(7)) }];
        let resume = vec![(3u16, SnapshotResume { serial: Serial::new(7), entries: 64 })];
        // Full scope emits no scope section at either resume arity.
        for (resume, len) in
            [(&[][..], legacy_len(&claims)), (&resume[..], legacy_len(&claims) + 2 + 10)]
        {
            let frame = encode_hello(&hello(&claims, resume, HelloScope::Full));
            assert_eq!(frame.len(), len);
            assert_eq!(decode_hello(&frame).unwrap().scope, HelloScope::Full);
        }
        // Delta-only round-trips with and without resume rows; the
        // resume section is forced (count 0) so the scope byte is
        // unambiguous.
        for resume in [&[][..], &resume[..]] {
            let scoped = hello(&claims, resume, HelloScope::DeltaOnly);
            let frame = encode_hello(&scoped);
            assert_eq!(frame.len(), legacy_len(&claims) + 2 + 10 * resume.len() + 1);
            assert_eq!(decode_hello(&frame).unwrap(), scoped);
        }
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
        oversized.push(0); // flags
        oversized.extend_from_slice(&u32::MAX.to_be_bytes()); // count
        assert_eq!(decode_snapshot_chunk(&oversized), Err(WireError::Truncated));

        // Unknown flag bits are refused.
        let mut bad_flags = good.to_vec();
        let flags_at = good.len() - 4 - 1 - snapshot_chunk_entry_bytes(&good);
        bad_flags[flags_at] |= 0x80;
        assert_eq!(decode_snapshot_chunk(&bad_flags), Err(WireError::BadFlags(0x81)));

        // A last flag that disagrees with offset+count == total.
        let mut not_last = good.to_vec();
        not_last[flags_at] = 0;
        assert!(matches!(
            decode_snapshot_chunk(&not_last),
            Err(WireError::BadChunk { offset: 0, count: 1, total: 1 })
        ));
    }

    /// Byte length of the entry section of the single-entry chunk frame
    /// built above (everything after flags + count), used to locate the
    /// flags byte from the tail.
    fn snapshot_chunk_entry_bytes(frame: &[u8]) -> usize {
        // "a.com" compresses against the origin ("a" label + pointer,
        // 4 bytes) + u16 ns count + uncompressed "ns1.x.net" (11 bytes).
        let _ = frame;
        4 + 2 + 11
    }

    #[test]
    fn delta_envelope_wraps_rzu1_verbatim() {
        let delta = sample_delta();
        let rzu1 = encode_delta_push(
            &name("com"),
            Serial::new(4),
            Serial::new(5),
            SimTime::from_secs(60),
            &delta,
        );
        let mut frame = delta_envelope_header(9).to_vec();
        frame.extend_from_slice(&rzu1);
        let (tld, push) = decode_delta_envelope(&frame).unwrap();
        assert_eq!(tld, 9);
        assert_eq!(push.delta, delta);
        assert_eq!(push.from_serial, Serial::new(4));
        // A corrupt embedded frame surfaces as the inner codec's error.
        assert_eq!(decode_delta_envelope(&frame[..frame.len() - 2]), Err(WireError::Truncated));
        assert_eq!(decode_delta_envelope(b"RZUD"), Err(WireError::Truncated));
    }

    #[test]
    fn evict_notice_is_recognised() {
        assert!(is_evict_notice(&encode_evict_notice()));
        assert!(!is_evict_notice(b"RZUD"));
        assert!(!is_evict_notice(b""));
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
            LookupAnswer { present: true, serial: Some(Serial::new(42)), first_seen: None },
            LookupAnswer {
                present: true,
                serial: Some(Serial::new(u32::MAX)),
                first_seen: Some(SimTime::from_secs(u64::MAX)),
            },
            LookupAnswer { present: false, serial: None, first_seen: None },
            LookupAnswer { present: false, serial: Some(Serial::new(0)), first_seen: None },
        ];
        let frame = encode_lookup_response(99, 12, &answers);
        let decoded = decode_lookup_response(&frame).unwrap();
        assert_eq!(decoded.request_id, 99);
        assert_eq!(decoded.epoch, 12);
        assert_eq!(decoded.answers, answers);
        // The common miss row costs exactly one byte.
        let misses = vec![LookupAnswer::default(); 3];
        let frame = encode_lookup_response(0, 0, &misses);
        assert_eq!(frame.len(), 4 + 8 + 8 + 2 + 3);
        assert_eq!(decode_lookup_response(&frame).unwrap().answers, misses);
    }

    #[test]
    fn lookup_response_rejects_bad_magic_flags_truncation_and_trailing() {
        assert_eq!(decode_lookup_response(b"NOPE"), Err(WireError::BadMagic));
        assert_eq!(decode_lookup_response(b"RZUR"), Err(WireError::Truncated));
        let mut absurd = Vec::new();
        absurd.extend_from_slice(LOOKUP_RESPONSE_MAGIC);
        absurd.extend_from_slice(&0u64.to_be_bytes());
        absurd.extend_from_slice(&0u64.to_be_bytes());
        absurd.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_lookup_response(&absurd), Err(WireError::Truncated));
        // Undefined flag bits are rejected, not silently masked.
        let mut bad_flags = absurd[..4 + 8 + 8].to_vec();
        bad_flags.extend_from_slice(&1u16.to_be_bytes());
        bad_flags.push(0x80);
        assert_eq!(decode_lookup_response(&bad_flags), Err(WireError::BadFlags(0x80)));
        let answers =
            [LookupAnswer { present: true, serial: Some(Serial::new(5)), first_seen: None }];
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
        // alpha.com spells the cloudflare pair inline (first seen);
        // bravo.com and moved.com's new set spell it as two pointers and
        // share one decoded set.
        let bravo = &push.delta.added[1].1;
        assert!(bravo.ptr_eq(&push.delta.changed[0].new_ns));
        assert!(!bravo.ptr_eq(&push.delta.added[0].1));

        // Across a chunk: 64 entries on one provider pair are two
        // distinct `Arc`s (the inline first occurrence, then the shared
        // pointer form), not 64.
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
        let shared = &chunk.entries[1].1;
        assert!(chunk.entries[2..].iter().all(|(_, ns)| ns.ptr_eq(shared)));
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
