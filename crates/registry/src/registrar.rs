//! The registrar fleet.
//!
//! Registrars matter to the paper in two ways: they are the actors that
//! delete abusive registrations early (creating transient domains, §4.3),
//! and their distribution over transient domains is Table 3. The fleet
//! therefore carries two market-share mixes: a generic one for ordinary
//! registrations and a transient-specific one calibrated to Table 3.

use darkdns_sim::dist::WeightedIndex;
use rand::Rng;
use serde::Serialize;

/// Index of a registrar within the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RegistrarId(pub u16);

/// One registrar.
#[derive(Debug, Clone, Serialize)]
pub struct Registrar {
    pub id: RegistrarId,
    pub name: String,
    /// IANA-style numeric registrar id reported over RDAP.
    pub iana_id: u32,
}

/// The registrar population with class-conditional market shares.
#[derive(Debug, Clone)]
pub struct RegistrarFleet {
    registrars: Vec<Registrar>,
    benign_mix: WeightedIndex,
    transient_mix: WeightedIndex,
}

impl RegistrarFleet {
    /// The paper-calibrated fleet: ten named registrars with Table 3
    /// transient shares, plus a pool of small registrars forming the
    /// 21.3% "Others" long tail.
    pub fn paper_fleet() -> Self {
        // (name, benign market share, transient share from Table 3)
        let named: &[(&str, f64, f64)] = &[
            ("GoDaddy", 18.0, 19.39),
            ("Hostinger", 5.0, 15.2),
            ("NameCheap", 11.0, 9.9),
            ("Squarespace", 6.0, 6.7),
            ("Public Domain Registry", 4.5, 6.2),
            ("IONOS", 4.0, 5.6),
            ("Metaregistrar", 0.8, 4.4),
            ("NameSilo", 2.5, 4.4),
            ("Network Solutions, LLC", 3.5, 3.9),
            ("Tucows", 6.0, 3.1),
            ("GMO Internet", 3.5, 1.2),
            ("Alibaba Cloud", 4.2, 2.0),
            ("OVHcloud", 1.8, 0.8),
            ("Gandi", 1.5, 0.6),
            ("SIDN Participants", 1.0, 0.4),
        ];
        let mut registrars = Vec::new();
        let mut benign = Vec::new();
        let mut transient = Vec::new();
        for (i, (name, b, t)) in named.iter().enumerate() {
            registrars.push(Registrar {
                id: RegistrarId(i as u16),
                name: (*name).to_owned(),
                iana_id: 100 + i as u32,
            });
            benign.push(*b);
            transient.push(*t);
        }
        // Long-tail pool: 20 small registrars sharing the residual mass.
        let named_benign: f64 = benign.iter().sum();
        let named_transient: f64 = transient.iter().sum();
        let pool = 20usize;
        for p in 0..pool {
            let idx = registrars.len();
            registrars.push(Registrar {
                id: RegistrarId(idx as u16),
                name: format!("Registrar Pool {:02}", p + 1),
                iana_id: 1000 + p as u32,
            });
            benign.push((100.0 - named_benign).max(1.0) / pool as f64);
            transient.push((100.0 - named_transient).max(1.0) / pool as f64);
        }
        RegistrarFleet {
            registrars,
            benign_mix: WeightedIndex::new(&benign),
            transient_mix: WeightedIndex::new(&transient),
        }
    }

    pub fn get(&self, id: RegistrarId) -> &Registrar {
        &self.registrars[id.0 as usize]
    }

    /// Sample the sponsoring registrar for an ordinary registration.
    pub fn sample_benign<R: Rng + ?Sized>(&self, rng: &mut R) -> RegistrarId {
        RegistrarId(self.benign_mix.sample(rng) as u16)
    }

    /// Sample the sponsoring registrar for a transient (abusive)
    /// registration, per Table 3's distribution.
    pub fn sample_transient<R: Rng + ?Sized>(&self, rng: &mut R) -> RegistrarId {
        RegistrarId(self.transient_mix.sample(rng) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn by_name<'f>(fleet: &'f RegistrarFleet, name: &str) -> Option<&'f Registrar> {
        fleet.registrars.iter().find(|r| r.name == name)
    }

    #[test]
    fn fleet_has_named_plus_pool() {
        let fleet = RegistrarFleet::paper_fleet();
        assert_eq!(fleet.registrars.len(), 35);
        assert!(by_name(&fleet, "GoDaddy").is_some());
        assert!(by_name(&fleet, "Metaregistrar").is_some());
        assert!(by_name(&fleet, "Registrar Pool 01").is_some());
        assert!(by_name(&fleet, "Nonexistent Registrar").is_none());
    }

    #[test]
    fn transient_mix_matches_table3_shape() {
        let fleet = RegistrarFleet::paper_fleet();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = vec![0u64; fleet.registrars.len()];
        for _ in 0..n {
            counts[fleet.sample_transient(&mut rng).0 as usize] += 1;
        }
        let share = |name: &str| {
            let id = by_name(&fleet, name).unwrap().id;
            counts[id.0 as usize] as f64 / n as f64
        };
        // Table 3: GoDaddy 19.39%, Hostinger 15.2%, NameCheap 9.9%.
        assert!((share("GoDaddy") - 0.1939).abs() < 0.01);
        assert!((share("Hostinger") - 0.152).abs() < 0.01);
        assert!((share("NameCheap") - 0.099).abs() < 0.01);
        // GoDaddy must rank first (paper: "market leader GoDaddy topped").
        let max = counts.iter().max().unwrap();
        assert_eq!(counts[by_name(&fleet, "GoDaddy").unwrap().id.0 as usize], *max);
    }

    #[test]
    fn benign_mix_differs_from_transient_mix() {
        let fleet = RegistrarFleet::paper_fleet();
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100_000;
        let mut benign = vec![0u64; fleet.registrars.len()];
        let mut transient = vec![0u64; fleet.registrars.len()];
        for _ in 0..n {
            benign[fleet.sample_benign(&mut rng).0 as usize] += 1;
            transient[fleet.sample_transient(&mut rng).0 as usize] += 1;
        }
        // Hostinger is over-represented among transients relative to its
        // ordinary market share (15.2% vs ~5%).
        let h = by_name(&fleet, "Hostinger").unwrap().id.0 as usize;
        assert!(transient[h] as f64 > 2.0 * benign[h] as f64);
    }

    #[test]
    fn registrar_ids_are_dense_and_stable() {
        let fleet = RegistrarFleet::paper_fleet();
        for (i, r) in fleet.registrars.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i);
            assert_eq!(fleet.get(r.id).name, r.name);
        }
    }
}
