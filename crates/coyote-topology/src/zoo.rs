//! The 16 backbone networks of the paper's evaluation (Section VI-A).
//!
//! The paper uses the Internet Topology Zoo (ITZ) archive \[19\]. The GraphML
//! files are not redistributable here, so this module ships
//! *reconstructions*:
//!
//! * **Abilene** and **NSF** follow their well-known published structure
//!   (node lists and link sets widely reproduced in the TE literature).
//! * **Geant** and **Germany** follow the published PoP lists with an
//!   approximate link set of the right density.
//! * The remaining networks (AS1221, AS1755, AS3257, AT&T, BBNPlanet, BICS,
//!   BtEurope, Digex, GRNet, InternetMCI, Italy, Gambia) are deterministic
//!   synthetic reconstructions produced by [`crate::generators::BackboneSpec`]
//!   with node counts scaled to keep the LP sizes tractable for the
//!   from-scratch solver while preserving the backbone character (meshy,
//!   2-connected, heterogeneous capacities). BBNPlanet and Gambia are
//!   generated as near-trees, which is why the paper excludes them from
//!   Table I — we keep them for the stretch experiment (Fig. 11).
//!
//! All capacities are in relative units; OSPF weights follow the paper's
//! fallback rule (inverse capacity) unless the real dataset pins them.

use crate::generators::BackboneSpec;
use crate::topology::Topology;

/// Capacity used for Abilene's uniform OC-192 backbone links.
const ABILENE_CAP: f64 = 10.0;

/// The Abilene research backbone: 11 PoPs, 14 links, uniform capacities.
pub fn abilene() -> Topology {
    let mut t = Topology::new("Abilene");
    let names = [
        "Seattle",
        "Sunnyvale",
        "LosAngeles",
        "Denver",
        "KansasCity",
        "Houston",
        "Chicago",
        "Indianapolis",
        "Atlanta",
        "WashingtonDC",
        "NewYork",
    ];
    for n in names {
        t.add_node(n);
    }
    let links = [
        (0usize, 1usize), // Seattle - Sunnyvale
        (0, 3),           // Seattle - Denver
        (1, 2),           // Sunnyvale - LosAngeles
        (1, 3),           // Sunnyvale - Denver
        (2, 5),           // LosAngeles - Houston
        (3, 4),           // Denver - KansasCity
        (4, 5),           // KansasCity - Houston
        (4, 7),           // KansasCity - Indianapolis
        (5, 8),           // Houston - Atlanta
        (6, 7),           // Chicago - Indianapolis
        (6, 10),          // Chicago - NewYork
        (7, 8),           // Indianapolis - Atlanta
        (8, 9),           // Atlanta - WashingtonDC
        (9, 10),          // WashingtonDC - NewYork
    ];
    for (a, b) in links {
        t.add_link(a, b, ABILENE_CAP, 1.0);
    }
    t.set_inverse_capacity_weights();
    t
}

/// The 14-node NSFNET backbone (21 links), heterogeneous capacities.
pub fn nsf() -> Topology {
    let mut t = Topology::new("NSF");
    let names = [
        "Seattle",
        "PaloAlto",
        "SanDiego",
        "SaltLakeCity",
        "Boulder",
        "Houston",
        "Lincoln",
        "Champaign",
        "Pittsburgh",
        "AnnArbor",
        "Ithaca",
        "CollegePark",
        "Princeton",
        "Atlanta",
    ];
    for n in names {
        t.add_node(n);
    }
    // Classic NSFNET T3 topology (as reproduced across the TE literature).
    let links = [
        (0usize, 1usize, 2.5),
        (0, 2, 2.5),
        (0, 7, 1.0),
        (1, 2, 2.5),
        (1, 3, 2.5),
        (2, 5, 1.0),
        (3, 4, 2.5),
        (3, 10, 1.0),
        (4, 5, 2.5),
        (4, 6, 2.5),
        (5, 13, 2.5),
        (6, 7, 2.5),
        (6, 9, 1.0),
        (7, 8, 2.5),
        (8, 9, 2.5),
        (8, 11, 1.0),
        (8, 12, 2.5),
        (9, 10, 2.5),
        (10, 12, 2.5),
        (11, 13, 2.5),
        (12, 13, 1.0),
    ];
    for (a, b, c) in links {
        t.add_link(a, b, c, 1.0);
    }
    t.set_inverse_capacity_weights();
    t
}

/// GÉANT (European research backbone), 22 PoPs, approximate link set.
pub fn geant() -> Topology {
    let mut t = Topology::new("Geant");
    let names = [
        "Austria",
        "Belgium",
        "Croatia",
        "Czechia",
        "France",
        "Germany",
        "Greece",
        "Hungary",
        "Ireland",
        "Israel",
        "Italy",
        "Luxembourg",
        "Netherlands",
        "Poland",
        "Portugal",
        "Slovakia",
        "Slovenia",
        "Spain",
        "Sweden",
        "Switzerland",
        "UK",
        "NewYork",
    ];
    for n in names {
        t.add_node(n);
    }
    // Approximate 2004-era GEANT connectivity; capacities in three classes
    // (10G core, 2.5G regional, 1G access-style links).
    let links = [
        (0usize, 3usize, 10.0), // Austria - Czechia
        (0, 5, 10.0),           // Austria - Germany
        (0, 7, 2.5),            // Austria - Hungary
        (0, 10, 10.0),          // Austria - Italy
        (0, 16, 1.0),           // Austria - Slovenia
        (0, 15, 2.5),           // Austria - Slovakia
        (1, 4, 10.0),           // Belgium - France
        (1, 12, 10.0),          // Belgium - Netherlands
        (1, 11, 1.0),           // Belgium - Luxembourg
        (2, 7, 1.0),            // Croatia - Hungary
        (2, 16, 1.0),           // Croatia - Slovenia
        (3, 5, 10.0),           // Czechia - Germany
        (3, 13, 2.5),           // Czechia - Poland
        (3, 15, 1.0),           // Czechia - Slovakia
        (4, 5, 10.0),           // France - Germany
        (4, 17, 10.0),          // France - Spain
        (4, 19, 10.0),          // France - Switzerland
        (4, 20, 10.0),          // France - UK
        (4, 11, 1.0),           // France - Luxembourg
        (5, 10, 10.0),          // Germany - Italy
        (5, 12, 10.0),          // Germany - Netherlands
        (5, 13, 10.0),          // Germany - Poland
        (5, 18, 10.0),          // Germany - Sweden
        (5, 19, 10.0),          // Germany - Switzerland
        (5, 9, 2.5),            // Germany - Israel
        (6, 10, 2.5),           // Greece - Italy
        (6, 7, 1.0),            // Greece - Hungary
        (7, 15, 1.0),           // Hungary - Slovakia
        (8, 20, 2.5),           // Ireland - UK
        (8, 12, 1.0),           // Ireland - Netherlands
        (9, 10, 2.5),           // Israel - Italy
        (10, 19, 10.0),         // Italy - Switzerland
        (10, 17, 2.5),          // Italy - Spain
        (12, 20, 10.0),         // Netherlands - UK
        (12, 18, 10.0),         // Netherlands - Sweden
        (12, 21, 10.0),         // Netherlands - NewYork
        (13, 18, 2.5),          // Poland - Sweden
        (14, 17, 2.5),          // Portugal - Spain
        (14, 20, 1.0),          // Portugal - UK
        (17, 19, 2.5),          // Spain - Switzerland
        (20, 21, 10.0),         // UK - NewYork
    ];
    for (a, b, c) in links {
        t.add_link(a, b, c, 1.0);
    }
    t.set_inverse_capacity_weights();
    t
}

/// German research/backbone network (17 PoPs, Nobel-Germany-style density).
pub fn germany() -> Topology {
    let mut t = Topology::new("Germany");
    let names = [
        "Aachen",
        "Berlin",
        "Bremen",
        "Dortmund",
        "Dresden",
        "Duesseldorf",
        "Essen",
        "Frankfurt",
        "Hamburg",
        "Hannover",
        "Karlsruhe",
        "Koeln",
        "Leipzig",
        "Mannheim",
        "Muenchen",
        "Nuernberg",
        "Stuttgart",
    ];
    for n in names {
        t.add_node(n);
    }
    let links = [
        (0usize, 5usize, 2.5), // Aachen - Duesseldorf
        (0, 11, 2.5),          // Aachen - Koeln
        (1, 4, 2.5),           // Berlin - Dresden
        (1, 8, 10.0),          // Berlin - Hamburg
        (1, 9, 10.0),          // Berlin - Hannover
        (1, 12, 2.5),          // Berlin - Leipzig
        (2, 8, 2.5),           // Bremen - Hamburg
        (2, 9, 2.5),           // Bremen - Hannover
        (3, 5, 2.5),           // Dortmund - Duesseldorf
        (3, 6, 2.5),           // Dortmund - Essen
        (3, 9, 2.5),           // Dortmund - Hannover
        (4, 12, 2.5),          // Dresden - Leipzig
        (4, 15, 1.0),          // Dresden - Nuernberg
        (5, 6, 2.5),           // Duesseldorf - Essen
        (5, 11, 10.0),         // Duesseldorf - Koeln
        (6, 9, 1.0),           // Essen - Hannover
        (7, 9, 10.0),          // Frankfurt - Hannover
        (7, 10, 2.5),          // Frankfurt - Karlsruhe
        (7, 11, 10.0),         // Frankfurt - Koeln
        (7, 12, 2.5),          // Frankfurt - Leipzig
        (7, 13, 10.0),         // Frankfurt - Mannheim
        (7, 15, 2.5),          // Frankfurt - Nuernberg
        (8, 9, 10.0),          // Hamburg - Hannover
        (10, 13, 2.5),         // Karlsruhe - Mannheim
        (10, 16, 2.5),         // Karlsruhe - Stuttgart
        (12, 15, 1.0),         // Leipzig - Nuernberg
        (13, 16, 2.5),         // Mannheim - Stuttgart
        (14, 15, 10.0),        // Muenchen - Nuernberg
        (14, 16, 10.0),        // Muenchen - Stuttgart
        (14, 7, 2.5),          // Muenchen - Frankfurt
    ];
    for (a, b, c) in links {
        t.add_link(a, b, c, 1.0);
    }
    t.set_inverse_capacity_weights();
    t
}

/// All topology names used in Table I and the figures, in the order the
/// paper lists them.
pub const ALL_NAMES: [&str; 16] = [
    "AS1221",
    "AS1755",
    "AS3257",
    "Abilene",
    "ATT",
    "BBNPlanet",
    "BICS",
    "BtEurope",
    "Digex",
    "Geant",
    "Germany",
    "GRNet",
    "InternetMCI",
    "Italy",
    "NSF",
    "Gambia",
];

/// Names of the nearly-tree networks the paper excludes from Table I.
pub const NEAR_TREE_NAMES: [&str; 2] = ["BBNPlanet", "Gambia"];

/// Looks a topology up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Topology> {
    let lower = name.to_ascii_lowercase();
    let topo = match lower.as_str() {
        "abilene" => abilene(),
        "nsf" | "nsfnet" => nsf(),
        "geant" => geant(),
        "germany" | "germany_cost" | "germanycost" => germany(),
        "as1221" => BackboneSpec::mesh("AS1221", 18, 10, 0x1221).generate(),
        "as1755" => BackboneSpec::mesh("AS1755", 18, 12, 0x1755).generate(),
        "as3257" => BackboneSpec::mesh("AS3257", 20, 12, 0x3257).generate(),
        "att" | "atnt" | "at" => BackboneSpec::mesh("ATT", 20, 11, 0xA77).generate(),
        "bbnplanet" => BackboneSpec::tree("BBNPlanet", 12, 0xBB1).generate(),
        "bics" => BackboneSpec::mesh("BICS", 16, 9, 0xB1C5).generate(),
        "bteurope" => BackboneSpec::mesh("BtEurope", 17, 9, 0xB7E0).generate(),
        "digex" => BackboneSpec::mesh("Digex", 15, 8, 0xD16E).generate(),
        "grnet" => BackboneSpec::mesh("GRNet", 15, 6, 0x6A9E).generate(),
        "internetmci" => BackboneSpec::mesh("InternetMCI", 19, 11, 0x3C1).generate(),
        "italy" | "italy_cost" | "italycost" => {
            BackboneSpec::mesh("Italy", 16, 9, 0x17A1).generate()
        }
        "gambia" => BackboneSpec::tree("Gambia", 10, 0x6AB1).generate(),
        _ => return None,
    };
    Some(topo)
}

/// All 16 topologies of the evaluation.
pub fn all() -> Vec<Topology> {
    ALL_NAMES
        .iter()
        .map(|n| by_name(n).expect("registered name"))
        .collect()
}

/// The Table I topologies: all networks except the two near-trees.
pub fn table1() -> Vec<Topology> {
    ALL_NAMES
        .iter()
        .filter(|n| !NEAR_TREE_NAMES.contains(n))
        .map(|n| by_name(n).expect("registered name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_graph::{EdgeId, NodeId};

    #[test]
    fn abilene_matches_the_published_structure() {
        let t = abilene();
        assert_eq!(t.node_count(), 11);
        assert_eq!(t.link_count(), 14);
        assert!(t.is_connected());
        // Uniform capacities mean uniform weights.
        assert!(t.links.iter().all(|l| (l.capacity - 10.0).abs() < 1e-12));
    }

    #[test]
    fn nsf_matches_the_published_structure() {
        let t = nsf();
        assert_eq!(t.node_count(), 14);
        assert_eq!(t.link_count(), 21);
        assert!(t.is_connected());
    }

    #[test]
    fn geant_and_germany_are_meshy_and_connected() {
        for t in [geant(), germany()] {
            assert!(t.is_connected(), "{} disconnected", t.name);
            assert!(t.average_degree() > 2.5, "{} too sparse", t.name);
        }
    }

    #[test]
    fn every_registered_topology_loads_and_is_connected() {
        let topos = all();
        assert_eq!(topos.len(), 16);
        for t in &topos {
            assert!(t.node_count() >= 10, "{} too small", t.name);
            assert!(t.is_connected(), "{} disconnected", t.name);
            assert!(t.to_graph().is_ok());
        }
    }

    /// The local search (Fig. 9) moves a link's weight with
    /// `set_symmetric_weight`: on every zoo topology that changes exactly
    /// the two directions of the link.
    #[test]
    fn set_symmetric_weight_sets_exactly_both_directions_of_the_link() {
        for t in all() {
            let g = t.to_graph().unwrap();
            for (i, l) in t.links.iter().enumerate() {
                let mut h = g.clone();
                let (fwd, bwd) = (EdgeId(2 * i), EdgeId(2 * i + 1));
                h.set_symmetric_weight(fwd, -1.0);
                let changed: Vec<EdgeId> = h.edges().filter(|&e| h.weight(e) == -1.0).collect();
                assert_eq!(changed, [fwd, bwd], "{} link {i}", t.name);
                assert_eq!(h.endpoints(bwd), (NodeId(l.b), NodeId(l.a)));
            }
        }
    }

    #[test]
    fn near_trees_are_sparse_and_excluded_from_table1() {
        for name in NEAR_TREE_NAMES {
            let t = by_name(name).unwrap();
            assert!(t.average_degree() <= 2.2, "{} not tree-like", name);
        }
        let t1 = table1();
        assert_eq!(t1.len(), 14);
        assert!(t1
            .iter()
            .all(|t| !NEAR_TREE_NAMES.contains(&t.name.as_str())));
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(by_name("abilene").is_some());
        assert!(by_name("ABILENE").is_some());
        assert!(by_name("nsfnet").is_some());
        assert!(by_name("nosuchnet").is_none());
        for name in ALL_NAMES {
            assert!(by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn reconstructions_are_deterministic() {
        assert_eq!(by_name("AS1755"), by_name("AS1755"));
        assert_eq!(by_name("Digex"), by_name("Digex"));
    }

    #[test]
    fn weights_follow_inverse_capacity_in_heterogeneous_networks() {
        let t = nsf();
        for l in &t.links {
            for m in &t.links {
                if l.capacity > m.capacity {
                    assert!(l.weight < m.weight);
                }
            }
        }
    }
}
