//! Public Suffix List and registrable-domain extraction.
//!
//! The pipeline's first step reduces every CN/SAN name in a certificate to
//! its *registrable domain* (the paper says "pay-level domain" / SLD): the
//! public suffix plus one label. The paper notes (§4.1) that incorrect SLD
//! extraction is one source of misclassified "newly registered" domains,
//! so this module implements the full PSL algorithm — longest matching
//! rule, `*` wildcard rules, and `!` exception rules — over a rule set
//! loaded from the same text format as the real list.

use crate::hash::FxBuildHasher;
use crate::name::DomainName;
use std::collections::HashSet;

/// A parsed Public Suffix List.
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    /// Exact suffix rules, e.g. `com`, `co.uk`.
    exact: HashSet<String, FxBuildHasher>,
    /// Wildcard rules stored by their parent, e.g. `ck` for `*.ck`.
    wildcard_parents: HashSet<String, FxBuildHasher>,
    /// Exception rules stored without the `!`, e.g. `www.ck`.
    exceptions: HashSet<String, FxBuildHasher>,
}

impl PublicSuffixList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse rules from PSL text format: one rule per line, `//` comments
    /// and blank lines ignored, `*.` prefix for wildcards, `!` prefix for
    /// exceptions. Rules are lowercased.
    pub fn parse(text: &str) -> Self {
        let mut psl = PublicSuffixList::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            psl.add_rule(line);
        }
        psl
    }

    /// Add a single rule in PSL syntax.
    fn add_rule(&mut self, rule: &str) {
        let rule = rule.trim().to_ascii_lowercase();
        if let Some(exception) = rule.strip_prefix('!') {
            self.exceptions.insert(exception.to_owned());
        } else if let Some(parent) = rule.strip_prefix("*.") {
            self.wildcard_parents.insert(parent.to_owned());
        } else {
            self.exact.insert(rule);
        }
    }

    /// A compact default list sufficient for the reproduction's universe:
    /// the gTLDs of Tables 1-2, a handful of ccTLDs including multi-label
    /// suffixes, and a wildcard + exception pair to keep those code paths
    /// exercised end to end.
    pub fn builtin() -> Self {
        Self::parse(
            "\
// gTLDs in the paper's tables
com\nnet\norg\nxyz\nshop\nonline\nbond\ntop\nsite\nstore\nfun\ninfo\nbiz\nicu\nclub\nlive\napp\ndev\n\
// ccTLDs
nl\nde\nuk\nco.uk\norg.uk\nac.uk\nus\nio\nco\nau\ncom.au\nnet.au\n\
// wildcard + exception (as in the real PSL for .ck)
*.ck\n!www.ck\n",
        )
    }

    /// True if `name` itself is a public suffix.
    pub fn is_public_suffix(&self, name: &DomainName) -> bool {
        if name.is_root() {
            return false;
        }
        let s = name.as_str();
        if self.exceptions.contains(s) {
            return false;
        }
        if self.exact.contains(s) {
            return true;
        }
        // `*.parent` matches exactly one label under parent.
        if let Some(dot) = s.find('.') {
            if self.wildcard_parents.contains(&s[dot + 1..]) {
                return true;
            }
        }
        false
    }

    /// Length in labels of the longest public suffix of `name`, or `None`
    /// if no rule matches. Per the PSL algorithm, when no rule matches the
    /// prevailing rule is `*` (the unknown TLD itself is the suffix) — the
    /// caller decides whether to apply that fallback.
    ///
    /// Walks candidate suffixes as string slices of `name` — the hot path
    /// of the Step-1 detector constructs no intermediate names and never
    /// touches the interner.
    fn matching_suffix_labels(&self, name: &DomainName) -> Option<usize> {
        let s = name.as_str();
        let mut best: Option<usize> = None;
        let mut take = 0usize;
        // A previous candidate's start doubles as the `*.parent` parent
        // check for the next (longer) candidate.
        let mut prev_start: Option<usize> = None;
        // Suffix start offsets, rightmost label (TLD) first: the position
        // after each '.', walked right-to-left, then the whole name.
        let starts_rev =
            s.match_indices('.').map(|(i, _)| i + 1).rev().chain(std::iter::once(0));
        for start in starts_rev {
            let suf = &s[start..];
            take += 1;
            if self.exceptions.contains(suf) {
                // An exception rule prevails over all other matching rules:
                // the *parent* of the exception is the public suffix, i.e.
                // the exception label itself is registrable.
                return Some(take - 1);
            }
            if self.exact.contains(suf) {
                best = Some(take);
            }
            if let Some(parent_start) = prev_start {
                if self.wildcard_parents.contains(&s[parent_start..]) {
                    best = Some(take);
                }
            }
            prev_start = Some(start);
        }
        best
    }

    /// The registrable ("pay-level") domain of `name`: the public suffix
    /// plus one label. Returns `None` when `name` is itself a public suffix
    /// (or the root), i.e. nothing is registrable.
    ///
    /// Unknown TLDs fall back to the PSL's implicit `*` rule: the TLD is
    /// treated as the suffix and `foo.unknowntld` is registrable.
    pub fn registrable_domain(&self, name: &DomainName) -> Option<DomainName> {
        if name.is_root() {
            return None;
        }
        let suffix_labels = self.matching_suffix_labels(name).unwrap_or(1);
        let total = name.label_count();
        if total <= suffix_labels {
            return None;
        }
        Some(name.suffix(suffix_labels + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::builtin()
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn simple_gtld_extraction() {
        assert_eq!(psl().registrable_domain(&name("www.example.com")), Some(name("example.com")));
        assert_eq!(psl().registrable_domain(&name("example.com")), Some(name("example.com")));
        assert_eq!(psl().registrable_domain(&name("a.b.c.d.example.xyz")), Some(name("example.xyz")));
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(psl().registrable_domain(&name("shop.example.co.uk")), Some(name("example.co.uk")));
        assert_eq!(psl().registrable_domain(&name("example.co.uk")), Some(name("example.co.uk")));
        // `co.uk` itself is a suffix, not registrable.
        assert_eq!(psl().registrable_domain(&name("co.uk")), None);
        // but `uk` alone matches only the `uk` rule, so `co.uk`... wait, both
        // rules exist; longest match (`co.uk`) wins for names under it while
        // `direct.uk` is registrable under the `uk` rule.
        assert_eq!(psl().registrable_domain(&name("direct.uk")), Some(name("direct.uk")));
    }

    #[test]
    fn tld_itself_is_not_registrable() {
        assert_eq!(psl().registrable_domain(&name("com")), None);
        assert_eq!(psl().registrable_domain(&DomainName::root()), None);
    }

    #[test]
    fn wildcard_rule() {
        // *.ck: `anything.ck` is a public suffix, so `foo.anything.ck` is
        // the registrable domain.
        assert!(psl().is_public_suffix(&name("weird.ck")));
        assert_eq!(psl().registrable_domain(&name("foo.weird.ck")), Some(name("foo.weird.ck")));
        assert_eq!(psl().registrable_domain(&name("weird.ck")), None);
    }

    #[test]
    fn exception_rule_overrides_wildcard() {
        // !www.ck: `www.ck` is registrable even though *.ck is a wildcard.
        assert!(!psl().is_public_suffix(&name("www.ck")));
        assert_eq!(psl().registrable_domain(&name("www.ck")), Some(name("www.ck")));
        assert_eq!(psl().registrable_domain(&name("a.www.ck")), Some(name("www.ck")));
    }

    #[test]
    fn unknown_tld_fallback_star_rule() {
        assert_eq!(psl().registrable_domain(&name("foo.unknowntld")), Some(name("foo.unknowntld")));
        assert_eq!(psl().registrable_domain(&name("a.b.foo.unknowntld")), Some(name("foo.unknowntld")));
        assert_eq!(psl().registrable_domain(&name("unknowntld")), None);
    }

    #[test]
    fn is_public_suffix_basics() {
        assert!(psl().is_public_suffix(&name("com")));
        assert!(psl().is_public_suffix(&name("co.uk")));
        assert!(!psl().is_public_suffix(&name("example.com")));
        assert!(!psl().is_public_suffix(&DomainName::root()));
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let psl = PublicSuffixList::parse("// a comment\n\ncom\n  net  \n");
        assert!(psl.is_public_suffix(&name("com")));
        assert!(psl.is_public_suffix(&name("net")));
    }

    #[test]
    fn longest_match_wins() {
        let mut psl = PublicSuffixList::new();
        psl.add_rule("jp");
        psl.add_rule("ne.jp");
        assert_eq!(psl.registrable_domain(&name("x.example.ne.jp")), Some(name("example.ne.jp")));
        assert_eq!(psl.registrable_domain(&name("example.jp")), Some(name("example.jp")));
    }
}
