//! An append-only Merkle tree with RFC 6962 structure.
//!
//! CT logs commit to their contents with a Merkle tree: leaves are hashed
//! with a `0x00` prefix, interior nodes with a `0x01` prefix, and the tree
//! over `n` leaves splits at the largest power of two smaller than `n`
//! (RFC 6962 §2.1). Inclusion proofs follow the same recursion.
//!
//! **Hash function**: the real structure uses SHA-256; the allowed
//! dependency set has no cryptographic hash, so this tree uses a 128-bit
//! construction built from two independent 64-bit FNV-1a passes. It is
//! collision-resistant against accident, not adversaries — sufficient for
//! a simulation whose purpose is to exercise the data structure and its
//! proofs, and the distinction is documented here and in DESIGN.md.

/// A 128-bit node hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHash(pub [u8; 16]);

fn fnv64(seed: u64, bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche so near-equal inputs spread.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_with_prefix(prefix: u8, data: &[u8]) -> NodeHash {
    let a = fnv64(0x5151_5151, std::iter::once(prefix).chain(data.iter().copied()));
    let b = fnv64(0xA3A3_A3A3, std::iter::once(prefix).chain(data.iter().copied()));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_be_bytes());
    out[8..].copy_from_slice(&b.to_be_bytes());
    NodeHash(out)
}

/// Leaf hash: `H(0x00 || leaf_bytes)`.
fn leaf_hash(data: &[u8]) -> NodeHash {
    hash_with_prefix(0x00, data)
}

/// Interior hash: `H(0x01 || left || right)`.
fn node_hash(left: NodeHash, right: NodeHash) -> NodeHash {
    let mut buf = [0u8; 32];
    buf[..16].copy_from_slice(&left.0);
    buf[16..].copy_from_slice(&right.0);
    hash_with_prefix(0x01, &buf)
}

/// One step of an inclusion proof: the sibling hash and which side it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofStep {
    /// Sibling is on the left: parent = H(sibling, current).
    Left(NodeHash),
    /// Sibling is on the right: parent = H(current, sibling).
    Right(NodeHash),
}

/// An append-only Merkle tree over opaque leaf byte strings.
#[derive(Debug, Default)]
pub struct MerkleTree {
    leaves: Vec<NodeHash>,
}

impl MerkleTree {
    /// Append a leaf, returning its index.
    pub fn append(&mut self, leaf_bytes: &[u8]) -> usize {
        self.leaves.push(leaf_hash(leaf_bytes));
        self.leaves.len() - 1
    }

    /// Root over the current leaves.
    ///
    /// # Panics
    /// Panics on an empty tree (RFC 6962 defines the empty root as the
    /// hash of the empty string, but no caller here needs it and the
    /// explicit panic catches bugs earlier).
    pub fn root(&self) -> NodeHash {
        assert!(!self.leaves.is_empty(), "root of empty tree");
        Self::subtree_root(&self.leaves)
    }

    fn subtree_root(leaves: &[NodeHash]) -> NodeHash {
        match leaves.len() {
            1 => leaves[0],
            n => {
                let split = largest_power_of_two_below(n);
                node_hash(
                    Self::subtree_root(&leaves[..split]),
                    Self::subtree_root(&leaves[split..]),
                )
            }
        }
    }

    /// Inclusion proof for leaf `index` against the current root.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn inclusion_proof(&self, index: usize) -> Vec<ProofStep> {
        assert!(index < self.leaves.len(), "leaf index out of range");
        let mut proof = Vec::new();
        Self::build_proof(&self.leaves, index, &mut proof);
        proof
    }

    fn build_proof(leaves: &[NodeHash], index: usize, proof: &mut Vec<ProofStep>) {
        if leaves.len() == 1 {
            return;
        }
        let split = largest_power_of_two_below(leaves.len());
        if index < split {
            Self::build_proof(&leaves[..split], index, proof);
            proof.push(ProofStep::Right(Self::subtree_root(&leaves[split..])));
        } else {
            Self::build_proof(&leaves[split..], index - split, proof);
            proof.push(ProofStep::Left(Self::subtree_root(&leaves[..split])));
        }
    }

    /// Verify an inclusion proof.
    pub fn verify_inclusion(leaf_bytes: &[u8], proof: &[ProofStep], root: NodeHash) -> bool {
        let mut current = leaf_hash(leaf_bytes);
        for step in proof {
            current = match step {
                ProofStep::Left(sibling) => node_hash(*sibling, current),
                ProofStep::Right(sibling) => node_hash(current, *sibling),
            };
        }
        current == root
    }
}

/// Largest power of two strictly less than `n` (n >= 2), per RFC 6962.
fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut p = 1usize;
    while p * 2 < n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_match_rfc6962() {
        assert_eq!(largest_power_of_two_below(2), 1);
        assert_eq!(largest_power_of_two_below(3), 2);
        assert_eq!(largest_power_of_two_below(4), 2);
        assert_eq!(largest_power_of_two_below(5), 4);
        assert_eq!(largest_power_of_two_below(8), 4);
        assert_eq!(largest_power_of_two_below(9), 8);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let mut t = MerkleTree::default();
        t.append(b"hello");
        assert_eq!(t.root(), leaf_hash(b"hello"));
    }

    #[test]
    fn root_changes_with_each_append() {
        let mut t = MerkleTree::default();
        let mut roots = Vec::new();
        for i in 0..20u32 {
            t.append(&i.to_be_bytes());
            roots.push(t.root());
        }
        for w in roots.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn inclusion_proofs_verify_for_all_leaves() {
        let leaves: Vec<Vec<u8>> = (0..13u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut t = MerkleTree::default();
        for l in &leaves {
            t.append(l);
        }
        let root = t.root();
        for (i, l) in leaves.iter().enumerate() {
            let proof = t.inclusion_proof(i);
            assert!(
                MerkleTree::verify_inclusion(l, &proof, root),
                "proof failed for leaf {i}"
            );
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let mut t = MerkleTree::default();
        for i in 0..8u32 {
            t.append(&i.to_be_bytes());
        }
        let proof = t.inclusion_proof(3);
        assert!(!MerkleTree::verify_inclusion(b"not-a-leaf", &proof, t.root()));
    }

    #[test]
    fn tampered_proof_fails_verification() {
        let mut t = MerkleTree::default();
        for i in 0..8u32 {
            t.append(&i.to_be_bytes());
        }
        let mut proof = t.inclusion_proof(3);
        // Flip a byte in the first sibling hash.
        match &mut proof[0] {
            ProofStep::Left(h) | ProofStep::Right(h) => h.0[0] ^= 0xFF,
        }
        assert!(!MerkleTree::verify_inclusion(&3u32.to_be_bytes(), &proof, t.root()));
    }

    #[test]
    fn proof_length_is_logarithmic() {
        let mut t = MerkleTree::default();
        for i in 0..1024u32 {
            t.append(&i.to_be_bytes());
        }
        assert_eq!(t.inclusion_proof(0).len(), 10);
        assert_eq!(t.inclusion_proof(1023).len(), 10);
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // The 0x00/0x01 prefixes must prevent a leaf from colliding with
        // an interior node over the same bytes.
        let data = [0u8; 32];
        let as_leaf = leaf_hash(&data);
        let halves = (NodeHash([0u8; 16]), NodeHash([0u8; 16]));
        let as_node = node_hash(halves.0, halves.1);
        assert_ne!(as_leaf, as_node);
    }

    #[test]
    #[should_panic(expected = "root of empty tree")]
    fn empty_root_panics() {
        MerkleTree::default().root();
    }
}
