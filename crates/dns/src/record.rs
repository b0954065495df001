//! Resource records.
//!
//! The reproduction needs the record types the paper's measurements touch:
//! `A`/`AAAA` (web hosting, Table 5), `NS` (DNS hosting, Table 4; removal
//! detection, Figure 2), `SOA` (serial probing, §4.1), plus `CNAME`, `MX`
//! and `TXT` which appear in the future-work measurements and keep the wire
//! codec honest about variable-length RDATA.

use crate::name::DomainName;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record types (the subset used in the reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecordType {
    A,
    Ns,
    Cname,
    Soa,
    Mx,
    Txt,
    Aaaa,
}

impl RecordType {
    /// RFC 1035 / 3596 TYPE value.
    pub const fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
        }
    }

    pub fn from_code(code: u16) -> Option<RecordType> {
        Some(match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            _ => return None,
        })
    }

    const fn mnemonic(self) -> &'static str {
        match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Soa => "SOA",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// DNS classes. Only `IN` is used; the variant exists so the wire codec can
/// represent (and reject) others faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordClass {
    In,
    Other(u16),
}

impl RecordClass {
    pub const fn code(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Other(c) => c,
        }
    }

    pub fn from_code(code: u16) -> RecordClass {
        if code == 1 {
            RecordClass::In
        } else {
            RecordClass::Other(code)
        }
    }
}

/// SOA RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SoaData {
    pub mname: DomainName,
    pub rname: DomainName,
    pub serial: u32,
    pub refresh: u32,
    pub retry: u32,
    pub expire: u32,
    pub minimum: u32,
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Ns(DomainName),
    Cname(DomainName),
    Mx { preference: u16, exchange: DomainName },
    Txt(Vec<u8>),
    Soa(SoaData),
}

impl RData {
    fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa(_) => RecordType::Soa,
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Ns(n) => write!(f, "{n}."),
            RData::Cname(n) => write!(f, "{n}."),
            RData::Mx { preference, exchange } => write!(f, "{preference} {exchange}."),
            RData::Txt(bytes) => write!(f, "\"{}\"", String::from_utf8_lossy(bytes)),
            RData::Soa(s) => write!(
                f,
                "{}. {}. {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
        }
    }
}

/// A resource record: owner name, TTL, class and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceRecord {
    pub name: DomainName,
    pub ttl: u32,
    pub class: RecordClass,
    pub rdata: RData,
}

impl ResourceRecord {
    pub fn new(name: DomainName, ttl: u32, rdata: RData) -> Self {
        ResourceRecord { name, ttl, class: RecordClass::In, rdata }
    }

    pub fn record_type(&self) -> RecordType {
        self.rdata.record_type()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.\t{}\tIN\t{}\t{}",
            self.name,
            self.ttl,
            self.record_type(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn type_codes_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
        ] {
            assert_eq!(RecordType::from_code(t.code()), Some(t));
        }
        assert_eq!(RecordType::from_code(999), None);
    }

    #[test]
    fn class_codes() {
        assert_eq!(RecordClass::In.code(), 1);
        assert_eq!(RecordClass::from_code(1), RecordClass::In);
        assert_eq!(RecordClass::from_code(3), RecordClass::Other(3));
        assert_eq!(RecordClass::Other(3).code(), 3);
    }

    #[test]
    fn rdata_reports_its_type() {
        assert_eq!(RData::A("1.2.3.4".parse().unwrap()).record_type(), RecordType::A);
        assert_eq!(RData::Ns(name("ns1.example.com")).record_type(), RecordType::Ns);
        assert_eq!(
            RData::Mx { preference: 10, exchange: name("mx.example.com") }.record_type(),
            RecordType::Mx
        );
    }

    #[test]
    fn display_zone_file_style() {
        let rr = ResourceRecord::new(name("example.com"), 3600, RData::A("192.0.2.1".parse().unwrap()));
        assert_eq!(rr.to_string(), "example.com.\t3600\tIN\tA\t192.0.2.1");
        let ns = ResourceRecord::new(name("example.com"), 86400, RData::Ns(name("ns1.cloudflare.com")));
        assert_eq!(ns.to_string(), "example.com.\t86400\tIN\tNS\tns1.cloudflare.com.");
    }

    #[test]
    fn soa_display() {
        let soa = RData::Soa(SoaData {
            mname: name("a.gtld-servers.net"),
            rname: name("nstld.verisign-grs.com"),
            serial: 1700000000,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        });
        assert_eq!(
            soa.to_string(),
            "a.gtld-servers.net. nstld.verisign-grs.com. 1700000000 1800 900 604800 86400"
        );
    }
}
