//! DNS-hosting providers and web-hosting networks.
//!
//! Tables 4 and 5 of the paper characterise where transient domains live:
//! their authoritative nameservers (aggregated by NS-record SLD) and their
//! web hosting (aggregated by the ASN of the A record). This module models
//! both provider populations with class-conditional mixes, and maps each
//! provider to concrete nameserver host names and IP prefixes so the
//! measurement substrate has real records to probe.

use darkdns_dns::DomainName;
use darkdns_sim::dist::WeightedIndex;
use rand::Rng;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Index of a DNS-hosting provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ProviderId(pub u16);

/// A DNS-hosting provider: the operator of authoritative nameservers.
#[derive(Debug, Clone, Serialize)]
pub struct DnsProvider {
    pub id: ProviderId,
    /// Marketing name ("Cloudflare").
    pub name: String,
    /// The SLD under which its NS host names live ("cloudflare.com"),
    /// Table 4's aggregation key.
    pub ns_sld: String,
}

impl DnsProvider {
    /// Concrete NS host names for a delegation, e.g.
    /// `ns1.cloudflare.com` / `ns2.cloudflare.com`.
    pub fn ns_hosts(&self) -> Vec<DomainName> {
        let sld = &self.ns_sld;
        vec![
            DomainName::parse(&format!("ns1.{sld}")).expect("provider SLDs are valid"),
            DomainName::parse(&format!("ns2.{sld}")).expect("provider SLDs are valid"),
        ]
    }
}

/// A web-hosting network, identified by ASN (Table 5's aggregation key).
#[derive(Debug, Clone, Serialize)]
pub struct WebHost {
    pub name: String,
    pub asn: u32,
    /// First octet pair of the provider's address pool; addresses are
    /// `a.b.x.y` with x,y random.
    prefix: (u8, u8),
}

impl WebHost {
    /// A concrete address within this network.
    pub fn sample_addr<R: Rng + ?Sized>(&self, rng: &mut R) -> Ipv4Addr {
        Ipv4Addr::new(self.prefix.0, self.prefix.1, rng.gen(), rng.gen())
    }

    /// True if `addr` belongs to this network's pool — the reverse mapping
    /// ("IP → ASN") the paper performs on measured A records.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        let o = addr.octets();
        (o[0], o[1]) == self.prefix
    }
}

/// The hosting landscape: DNS providers and web hosts with separate mixes
/// for ordinary and transient registrations.
#[derive(Debug, Clone)]
pub struct HostingLandscape {
    dns_providers: Vec<DnsProvider>,
    dns_benign_mix: WeightedIndex,
    dns_transient_mix: WeightedIndex,
    web_hosts: Vec<WebHost>,
    web_benign_mix: WeightedIndex,
    web_transient_mix: WeightedIndex,
}

impl HostingLandscape {
    /// Paper-calibrated landscape (Tables 4 and 5 for the transient mixes;
    /// plausible generic shares for everything else).
    pub fn paper_landscape() -> Self {
        // (name, ns_sld, benign share, transient share [Table 4])
        let dns: &[(&str, &str, f64, f64)] = &[
            ("Cloudflare", "cloudflare.com", 20.0, 49.5),
            ("Hostinger", "dns-parking.com", 4.0, 8.7),
            ("NS1", "nsone.net", 3.0, 6.9),
            ("Squarespace", "squarespacedns.com", 5.0, 6.9),
            ("GoDaddy", "domaincontrol.com", 22.0, 5.5),
            ("Amazon Route 53", "awsdns-hostmaster.net", 9.0, 3.5),
            ("Google Domains", "googledomains.com", 6.0, 2.5),
            ("Namecheap", "registrar-servers.com", 8.0, 4.0),
            ("Wix", "wixdns.net", 4.0, 2.0),
            ("IONOS", "ui-dns.com", 4.0, 2.0),
            ("Gandi", "gandi.net", 2.0, 1.0),
            ("DNS Pool A", "dnspool-a.net", 5.0, 3.0),
            ("DNS Pool B", "dnspool-b.net", 4.0, 2.5),
            ("DNS Pool C", "dnspool-c.net", 4.0, 2.0),
        ];
        // (name, ASN, /16 prefix, benign share, transient share [Table 5])
        let web: &[(&str, u32, (u8, u8), f64, f64)] = &[
            ("Cloudflare", 13_335, (104, 16), 18.0, 36.2),
            ("Hostinger", 47_583, (145, 14), 5.0, 14.0),
            ("Amazon", 16_509, (52, 95), 16.0, 7.6),
            ("Squarespace", 53_831, (198, 185), 4.0, 5.3),
            ("Namecheap", 22_612, (162, 213), 5.0, 3.9),
            ("Google", 15_169, (142, 250), 9.0, 4.5),
            ("Microsoft", 8_075, (20, 112), 7.0, 2.5),
            ("DigitalOcean", 14_061, (157, 245), 5.0, 4.0),
            ("Hetzner", 24_940, (116, 202), 5.0, 3.5),
            ("OVH", 16_276, (51, 38), 5.0, 3.0),
            ("GoDaddy Hosting", 26_496, (160, 153), 12.0, 6.0),
            ("Web Pool A", 64_501, (203, 1), 5.0, 5.0),
            ("Web Pool B", 64_502, (203, 2), 4.0, 4.5),
        ];
        let dns_providers: Vec<DnsProvider> = dns
            .iter()
            .enumerate()
            .map(|(i, (name, sld, _, _))| DnsProvider {
                id: ProviderId(i as u16),
                name: (*name).to_owned(),
                ns_sld: (*sld).to_owned(),
            })
            .collect();
        let web_hosts: Vec<WebHost> = web
            .iter()
            .map(|(name, asn, prefix, _, _)| WebHost {
                name: (*name).to_owned(),
                asn: *asn,
                prefix: *prefix,
            })
            .collect();
        HostingLandscape {
            dns_benign_mix: WeightedIndex::new(&dns.iter().map(|d| d.2).collect::<Vec<_>>()),
            dns_transient_mix: WeightedIndex::new(&dns.iter().map(|d| d.3).collect::<Vec<_>>()),
            dns_providers,
            web_benign_mix: WeightedIndex::new(&web.iter().map(|w| w.3).collect::<Vec<_>>()),
            web_transient_mix: WeightedIndex::new(&web.iter().map(|w| w.4).collect::<Vec<_>>()),
            web_hosts,
        }
    }

    pub fn dns_provider(&self, id: ProviderId) -> &DnsProvider {
        &self.dns_providers[id.0 as usize]
    }

    pub fn dns_providers(&self) -> &[DnsProvider] {
        &self.dns_providers
    }

    pub fn web_hosts(&self) -> &[WebHost] {
        &self.web_hosts
    }

    pub fn web_host_by_asn(&self, asn: u32) -> Option<&WebHost> {
        self.web_hosts.iter().find(|w| w.asn == asn)
    }

    /// Resolve a measured address back to its network, as the paper does
    /// when aggregating Table 5.
    pub fn asn_of_addr(&self, addr: Ipv4Addr) -> Option<u32> {
        self.web_hosts.iter().find(|w| w.contains(addr)).map(|w| w.asn)
    }

    pub fn sample_dns<R: Rng + ?Sized>(&self, rng: &mut R, transient: bool) -> ProviderId {
        let mix = if transient { &self.dns_transient_mix } else { &self.dns_benign_mix };
        ProviderId(mix.sample(rng) as u16)
    }

    /// Sample a web host, returning its ASN.
    pub fn sample_web<R: Rng + ?Sized>(&self, rng: &mut R, transient: bool) -> u32 {
        let mix = if transient { &self.web_transient_mix } else { &self.web_benign_mix };
        self.web_hosts[mix.sample(rng)].asn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dns_provider<'a>(land: &'a HostingLandscape, name: &str) -> &'a DnsProvider {
        land.dns_providers().iter().find(|p| p.name == name).expect("provider in landscape")
    }

    #[test]
    fn transient_dns_mix_matches_table4() {
        let land = HostingLandscape::paper_landscape();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mut counts = vec![0u64; land.dns_providers().len()];
        for _ in 0..n {
            counts[land.sample_dns(&mut rng, true).0 as usize] += 1;
        }
        let cf = dns_provider(&land, "Cloudflare").id.0 as usize;
        let frac = counts[cf] as f64 / n as f64;
        assert!((frac - 0.495).abs() < 0.01, "Cloudflare share {frac}");
        // Cloudflare ranks first among transients.
        assert_eq!(counts.iter().max().unwrap(), &counts[cf]);
    }

    #[test]
    fn transient_web_mix_matches_table5() {
        let land = HostingLandscape::paper_landscape();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let mut cloudflare = 0u64;
        let mut hostinger = 0u64;
        for _ in 0..n {
            match land.sample_web(&mut rng, true) {
                13_335 => cloudflare += 1,
                47_583 => hostinger += 1,
                _ => {}
            }
        }
        assert!((cloudflare as f64 / n as f64 - 0.362).abs() < 0.01);
        assert!((hostinger as f64 / n as f64 - 0.14).abs() < 0.01);
    }

    #[test]
    fn ns_hosts_are_under_provider_sld() {
        let land = HostingLandscape::paper_landscape();
        let cf = dns_provider(&land, "Cloudflare");
        let hosts = cf.ns_hosts();
        assert_eq!(hosts.len(), 2);
        assert!(hosts[0].as_str().ends_with("cloudflare.com"));
        assert_ne!(hosts[0], hosts[1]);
    }

    #[test]
    fn addr_maps_back_to_asn() {
        let land = HostingLandscape::paper_landscape();
        let mut rng = SmallRng::seed_from_u64(5);
        let host = land.web_host_by_asn(13_335).unwrap();
        for _ in 0..100 {
            let addr = host.sample_addr(&mut rng);
            assert_eq!(land.asn_of_addr(addr), Some(13_335));
        }
        assert_eq!(land.asn_of_addr(Ipv4Addr::new(9, 9, 9, 9)), None);
    }

    #[test]
    fn benign_mix_prefers_godaddy_dns() {
        let land = HostingLandscape::paper_landscape();
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 50_000;
        let mut counts = vec![0u64; land.dns_providers().len()];
        for _ in 0..n {
            counts[land.sample_dns(&mut rng, false).0 as usize] += 1;
        }
        let gd = dns_provider(&land, "GoDaddy").id.0 as usize;
        let cf = dns_provider(&land, "Cloudflare").id.0 as usize;
        // In the ordinary mix GoDaddy (domaincontrol.com) beats Cloudflare.
        assert!(counts[gd] > counts[cf]);
    }
}
