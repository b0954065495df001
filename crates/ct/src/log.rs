//! A CT log: an append-only sequence of precertificate entries committed
//! to by a Merkle tree.
//!
//! The simulation uses the log for two things: (i) producing the
//! Certstream-like feed (via [`crate::stream`]), and (ii) demonstrating
//! end-to-end that every streamed entry carries a verifiable inclusion
//! proof — the transparency property the paper's methodology (and its
//! proposed RZU analogue) leans on.

use crate::cert::Certificate;
use crate::merkle::{MerkleTree, NodeHash, ProofStep};
use darkdns_sim::time::SimTime;

/// One logged entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub index: usize,
    /// When the log accepted the entry (>= certificate issuance).
    pub logged_at: SimTime,
    pub certificate: Certificate,
}

/// An append-only certificate-transparency log.
#[derive(Debug, Default)]
pub struct CtLog {
    entries: Vec<LogEntry>,
    tree: MerkleTree,
}

impl CtLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a certificate; returns the entry index.
    ///
    /// # Panics
    /// Panics if entries are appended out of time order — a CT log's
    /// sequence must be consistent with its acceptance times for the
    /// stream to be replayable.
    pub fn append(&mut self, logged_at: SimTime, certificate: Certificate) -> usize {
        if let Some(last) = self.entries.last() {
            assert!(logged_at >= last.logged_at, "log entries must be time-ordered");
        }
        let index = self.tree.append(&certificate.leaf_bytes());
        self.entries.push(LogEntry { index, logged_at, certificate });
        index
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, index: usize) -> &LogEntry {
        &self.entries[index]
    }

    /// Current tree head.
    pub fn root(&self) -> NodeHash {
        self.tree.root()
    }

    /// Inclusion proof for entry `index` against the current root.
    pub fn prove(&self, index: usize) -> Vec<ProofStep> {
        self.tree.inclusion_proof(index)
    }

    /// Verify that `certificate` is included under `root` via `proof`.
    pub fn verify(certificate: &Certificate, proof: &[ProofStep], root: NodeHash) -> bool {
        MerkleTree::verify_inclusion(&certificate.leaf_bytes(), proof, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CaId;
    use darkdns_dns::DomainName;

    fn cert(serial: u64, name: &str) -> Certificate {
        let n = DomainName::parse(name).unwrap();
        Certificate {
            serial,
            ca: CaId(0),
            cn: n.clone(),
            san: vec![n],
            issued_at: SimTime::from_secs(serial * 10),
            precert: true,
        }
    }

    #[test]
    fn append_and_prove_all() {
        let mut log = CtLog::new();
        for i in 0..50 {
            log.append(SimTime::from_secs(i * 10), cert(i, &format!("d{i}.com")));
        }
        let root = log.root();
        for i in 0..50usize {
            let proof = log.prove(i);
            assert!(CtLog::verify(&log.get(i).certificate, &proof, root));
        }
        assert_eq!(log.len(), 50);
    }

    #[test]
    fn foreign_cert_fails_proof() {
        let mut log = CtLog::new();
        for i in 0..8 {
            log.append(SimTime::from_secs(i), cert(i, &format!("d{i}.com")));
        }
        let proof = log.prove(2);
        let impostor = cert(99, "evil.com");
        assert!(!CtLog::verify(&impostor, &proof, log.root()));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_append_panics() {
        let mut log = CtLog::new();
        log.append(SimTime::from_secs(100), cert(1, "a.com"));
        log.append(SimTime::from_secs(50), cert(2, "b.com"));
    }

    #[test]
    fn proofs_from_old_root_stay_valid_for_prefix() {
        // Append 4, take the root, then verify against it before growth.
        let mut log = CtLog::new();
        for i in 0..4 {
            log.append(SimTime::from_secs(i), cert(i, &format!("d{i}.com")));
        }
        let root4 = log.root();
        let proof = log.prove(1);
        assert!(CtLog::verify(&log.get(1).certificate, &proof, root4));
    }
}
