//! Deterministic domain-label generation.
//!
//! Every generated registration needs a unique, plausible label. Benign
//! registrations get pronounceable syllable compounds ("kavurel"), while
//! abusive campaigns get the patterns threat reports describe: random
//! alphanumeric strings, brand-adjacent compounds with hyphens and digits,
//! and bulk series. A monotonically increasing sequence number is encoded
//! into every label (base-36) so uniqueness is guaranteed by construction
//! rather than by collision checking.

use rand::Rng;

/// Label style, correlated with the registration's nature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelStyle {
    /// Pronounceable compound, e.g. `kavurelto`.
    Benign,
    /// Random alphanumeric, e.g. `x7k2q9mf`.
    RandomAlnum,
    /// Phishing-style compound: keyword + hyphen + keyword + digits,
    /// e.g. `secure-login44`.
    PhishCompound,
    /// Bulk-campaign series member, e.g. `promo8817a`.
    BulkSeries,
}

const CONSONANTS: &[u8] = b"bcdfgklmnprstvz";
const VOWELS: &[u8] = b"aeiou";
const PHISH_WORDS: &[&str] = &[
    "secure", "login", "verify", "account", "update", "support", "wallet", "pay", "bank",
    "signin", "billing", "service", "alert", "id", "auth", "portal",
];
const BULK_STEMS: &[&str] = &["promo", "deal", "offer", "win", "bonus", "gift", "sale", "prize"];

/// Generates unique labels. One generator per universe build; the sequence
/// counter makes every emitted label globally unique.
#[derive(Debug)]
pub struct LabelGen {
    seq: u64,
}

impl LabelGen {
    pub fn new() -> Self {
        LabelGen { seq: 0 }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Generate the next label in the given style.
    pub fn label<R: Rng + ?Sized>(&mut self, rng: &mut R, style: LabelStyle) -> String {
        let seq = self.next_seq();
        let tag = base36(seq);
        let mut label = match style {
            LabelStyle::Benign => {
                let syllables = rng.gen_range(2..=4);
                let mut s = String::new();
                for _ in 0..syllables {
                    s.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
                    s.push(VOWELS[rng.gen_range(0..VOWELS.len())] as char);
                }
                s
            }
            LabelStyle::RandomAlnum => {
                let len = rng.gen_range(6..=12);
                let mut s = String::new();
                for _ in 0..len {
                    let c = b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.gen_range(0..36)];
                    s.push(c as char);
                }
                s
            }
            LabelStyle::PhishCompound => {
                let a = PHISH_WORDS[rng.gen_range(0..PHISH_WORDS.len())];
                let b = PHISH_WORDS[rng.gen_range(0..PHISH_WORDS.len())];
                format!("{a}-{b}{}", rng.gen_range(0..100))
            }
            LabelStyle::BulkSeries => {
                let stem = BULK_STEMS[rng.gen_range(0..BULK_STEMS.len())];
                format!("{stem}{}", rng.gen_range(1000..10_000))
            }
        };
        // Uniqueness suffix. Kept short; always alphanumeric so the label
        // stays LDH-valid and never ends in a hyphen.
        label.push('x');
        label.push_str(&tag);
        label
    }
}

impl Default for LabelGen {
    fn default() -> Self {
        Self::new()
    }
}

fn base36(mut n: u64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    if n == 0 {
        return "0".to_owned();
    }
    let mut out = Vec::new();
    while n > 0 {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
    }
    out.reverse();
    String::from_utf8(out).expect("base36 digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::DomainName;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn labels_are_unique_across_styles() {
        let mut lg = LabelGen::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        for i in 0..10_000 {
            let style = match i % 4 {
                0 => LabelStyle::Benign,
                1 => LabelStyle::RandomAlnum,
                2 => LabelStyle::PhishCompound,
                _ => LabelStyle::BulkSeries,
            };
            let label = lg.label(&mut rng, style);
            assert!(seen.insert(label.clone()), "duplicate label {label}");
        }
        assert_eq!(lg.seq, 10_000);
    }

    #[test]
    fn labels_are_valid_dns_labels() {
        let mut lg = LabelGen::new();
        let mut rng = SmallRng::seed_from_u64(2);
        for style in [
            LabelStyle::Benign,
            LabelStyle::RandomAlnum,
            LabelStyle::PhishCompound,
            LabelStyle::BulkSeries,
        ] {
            for _ in 0..1_000 {
                let label = lg.label(&mut rng, style);
                let name = format!("{label}.com");
                assert!(
                    DomainName::parse(&name).is_ok(),
                    "invalid generated name {name}"
                );
                assert!(label.len() <= 63);
            }
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let run = || {
            let mut lg = LabelGen::new();
            let mut rng = SmallRng::seed_from_u64(42);
            (0..100).map(|_| lg.label(&mut rng, LabelStyle::Benign)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phish_labels_look_phishy() {
        let mut lg = LabelGen::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let label = lg.label(&mut rng, LabelStyle::PhishCompound);
        assert!(label.contains('-'), "expected hyphen in {label}");
    }

    #[test]
    fn base36_round_trip_values() {
        assert_eq!(base36(0), "0");
        assert_eq!(base36(35), "z");
        assert_eq!(base36(36), "10");
        assert_eq!(base36(36 * 36), "100");
    }
}
