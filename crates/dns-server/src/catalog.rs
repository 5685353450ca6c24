//! A catalog of authoritative zones served by one name server.

use sdoh_dns_wire::Name;

use crate::zone::Zone;

/// A set of zones; lookups are routed to the zone with the longest matching
/// origin (the closest enclosing zone).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    zones: Vec<Zone>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a zone. If a zone with the same origin exists it is replaced.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.retain(|z| z.origin() != zone.origin());
        self.zones.push(zone);
    }

    /// Number of zones in the catalog.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Returns `true` when the catalog holds no zones.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Finds the zone whose origin is the longest suffix of `name`.
    pub fn find(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().num_labels())
    }
}

impl FromIterator<Zone> for Catalog {
    fn from_iter<T: IntoIterator<Item = Zone>>(iter: T) -> Self {
        let mut catalog = Catalog::new();
        for zone in iter {
            catalog.add_zone(zone);
        }
        catalog
    }
}

impl Extend<Zone> for Catalog {
    fn extend<T: IntoIterator<Item = Zone>>(&mut self, iter: T) {
        for zone in iter {
            self.add_zone(zone);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_match_wins() {
        let mut catalog = Catalog::new();
        catalog.add_zone(Zone::new("org".parse().unwrap()));
        catalog.add_zone(Zone::new("ntpns.org".parse().unwrap()));
        catalog.add_zone(Zone::new("pool.ntpns.org".parse().unwrap()));

        let found = catalog.find(&"a.pool.ntpns.org".parse().unwrap()).unwrap();
        assert_eq!(found.origin(), &"pool.ntpns.org".parse::<Name>().unwrap());

        let found = catalog.find(&"other.ntpns.org".parse().unwrap()).unwrap();
        assert_eq!(found.origin(), &"ntpns.org".parse::<Name>().unwrap());

        assert!(catalog.find(&"example.com".parse().unwrap()).is_none());
    }

    #[test]
    fn replace_zone_with_same_origin() {
        let mut catalog = Catalog::new();
        catalog.add_zone(Zone::new("x.org".parse().unwrap()));
        catalog.add_zone(Zone::new("x.org".parse().unwrap()));
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut catalog: Catalog = [
            Zone::new("a.test".parse().unwrap()),
            Zone::new("b.test".parse().unwrap()),
        ]
        .into_iter()
        .collect();
        assert_eq!(catalog.len(), 2);
        catalog.extend([Zone::new("c.test".parse().unwrap())]);
        assert_eq!(catalog.len(), 3);
        assert!(!catalog.is_empty());
        assert!(catalog.find(&"x.c.test".parse().unwrap()).is_some());
    }
}
