//! Certificates.
//!
//! Only the fields the pipeline reads are modelled: the Common Name, the
//! Subject Alternative Names, issuance time, issuing CA, and whether the
//! entry is a precertificate (the pipeline considers only precertificates,
//! because they must be logged before final issuance — paper footnote 1).

use darkdns_dns::DomainName;
use darkdns_sim::time::SimTime;
use serde::Serialize;

/// Identifies a CA within the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CaId(pub u16);

/// A (pre)certificate as it appears in a CT log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Certificate {
    /// Serial within the issuing CA.
    pub serial: u64,
    pub ca: CaId,
    /// Common Name — by convention the apex name.
    pub cn: DomainName,
    /// Subject Alternative Names (includes the CN by convention).
    pub san: Vec<DomainName>,
    pub issued_at: SimTime,
    /// True for precertificate entries (the only kind the pipeline uses).
    pub precert: bool,
}

impl Certificate {
    /// All names covered by this certificate: CN plus SANs, deduplicated,
    /// in first-occurrence order. This is exactly the name set Step 1 of
    /// the pipeline extracts.
    fn names(&self) -> Vec<DomainName> {
        let mut out = Vec::with_capacity(1 + self.san.len());
        out.push(self.cn.clone());
        for n in &self.san {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        out
    }

    /// Canonical bytes fed to the CT log's Merkle tree.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.serial.to_be_bytes());
        bytes.extend_from_slice(&self.ca.0.to_be_bytes());
        bytes.extend_from_slice(&self.issued_at.as_secs().to_be_bytes());
        bytes.push(u8::from(self.precert));
        for n in self.names() {
            bytes.extend_from_slice(n.as_str().as_bytes());
            bytes.push(0);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn cert() -> Certificate {
        Certificate {
            serial: 7,
            ca: CaId(1),
            cn: name("example.com"),
            san: vec![name("example.com"), name("www.example.com")],
            issued_at: SimTime::from_secs(1_000),
            precert: true,
        }
    }

    #[test]
    fn names_dedup_preserving_order() {
        let c = cert();
        let names = c.names();
        assert_eq!(names, vec![name("example.com"), name("www.example.com")]);
    }

    #[test]
    fn leaf_bytes_distinguish_certs() {
        let a = cert();
        let mut b = cert();
        b.serial = 8;
        assert_ne!(a.leaf_bytes(), b.leaf_bytes());
        let mut c = cert();
        c.san.push(name("mail.example.com"));
        assert_ne!(a.leaf_bytes(), c.leaf_bytes());
    }

    #[test]
    fn leaf_bytes_stable_for_equal_certs() {
        assert_eq!(cert().leaf_bytes(), cert().leaf_bytes());
    }
}
