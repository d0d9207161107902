//! Heterogeneous cluster-of-clusters system specification (paper Fig. 1).
//!
//! A [`SystemSpec`] captures everything the analytical model and the
//! simulator need to know about a system: the common switch arity `m`, one
//! [`ClusterSpec`] per cluster (tree height `n_i` plus the characteristics
//! of its ICN1 and ECN1 networks), and the characteristics of the global
//! ICN2 tree. Cluster-size heterogeneity is expressed by different `n_i`
//! (assumption 3); network heterogeneity by different characteristics per
//! network (assumption 5).

use crate::error::TopologyError;
use crate::netchar::NetworkCharacteristics;
use crate::topo::TopoSpec;
use crate::tree::MPortNTree;
use serde::{Deserialize, Serialize};

/// One cluster: compute nodes joined by its own intra-cluster (ICN1) and
/// inter-cluster (ECN1) networks — by default the paper's m-port
/// `n`-tree, optionally a torus (see [`TopoSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterSpec {
    /// Tree height `n_i`; a tree cluster has `2(m/2)^{n_i}` nodes. Unused
    /// (and required to stay 0) for torus clusters, whose node count is
    /// the product of their dimension extents.
    #[serde(default)]
    pub n: u32,
    /// Characteristics of the intra-cluster network ICN1(i).
    pub icn1: NetworkCharacteristics,
    /// Characteristics of the inter-cluster access network ECN1(i).
    pub ecn1: NetworkCharacteristics,
    /// Topology backend of this cluster's ICN1/ECN1 (default: tree).
    #[serde(default)]
    pub topology: TopoSpec,
}

/// A complete cluster-of-clusters system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SystemSpec {
    /// Switch arity `m`, shared by all trees in the system.
    pub m: u32,
    /// Per-cluster specifications (length `C`).
    pub clusters: Vec<ClusterSpec>,
    /// Characteristics of the global inter-cluster network ICN2.
    pub icn2: NetworkCharacteristics,
    /// Topology backend of the global ICN2 network, whose "nodes" are the
    /// `C` concentrator/dispatchers (default: tree).
    #[serde(default)]
    pub topology: TopoSpec,
}

impl SystemSpec {
    /// Creates and validates a system spec.
    ///
    /// ```
    /// use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
    /// let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02)?;
    /// let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01)?;
    /// let cluster = |n| ClusterSpec { n, icn1: net1, ecn1: net2, topology: Default::default() };
    /// // Four m=4 clusters: two of 8 nodes (n=2), two of 16 (n=3).
    /// let spec = SystemSpec::new(4, vec![cluster(2), cluster(2), cluster(3), cluster(3)], net1)?;
    /// assert_eq!(spec.total_nodes(), 48);
    /// assert_eq!(spec.icn2_height()?, 1); // C=4 = 2·2^1
    /// # Ok::<(), cocnet_topology::TopologyError>(())
    /// ```
    pub fn new(
        m: u32,
        clusters: Vec<ClusterSpec>,
        icn2: NetworkCharacteristics,
    ) -> Result<Self, TopologyError> {
        let spec = Self {
            m,
            clusters,
            icn2,
            topology: TopoSpec::Tree,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates arity, cluster count, per-cluster trees and every
    /// network's physical characteristics (deserialized specs bypass the
    /// validating constructors); checks that the ICN2 tree height exists
    /// for `C` clusters.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.m < 2 || !self.m.is_multiple_of(2) {
            return Err(TopologyError::BadPortCount { m: self.m });
        }
        if self.clusters.len() < 2 {
            return Err(TopologyError::TooFewClusters {
                c: self.clusters.len(),
            });
        }
        for c in &self.clusters {
            match c.topology {
                TopoSpec::Tree => {
                    MPortNTree::new(self.m, c.n)?;
                }
                TopoSpec::Torus(_) => {
                    // A torus cluster is shaped entirely by its dims
                    // (validated when the shape was built); a stray tree
                    // height is a config mistake, not silently ignored.
                    if c.n != 0 {
                        return Err(TopologyError::UnsupportedByBackend {
                            backend: "torus",
                            what: "a tree height n (torus clusters are shaped by \"dims\")",
                        });
                    }
                }
            }
            c.icn1.validate()?;
            c.ecn1.validate()?;
        }
        self.icn2.validate()?;
        match self.topology {
            TopoSpec::Tree => {
                self.icn2_height()?;
            }
            TopoSpec::Torus(shape) => {
                if shape.num_nodes() != self.clusters.len() {
                    return Err(TopologyError::BadTorusShape {
                        what: format!(
                            "ICN2 torus has {} nodes but the system has {} clusters",
                            shape.num_nodes(),
                            self.clusters.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether every network in the system (all ICN1/ECN1 plus ICN2) uses
    /// the paper's tree backend — the shapes the analytical model covers.
    pub fn is_all_tree(&self) -> bool {
        self.topology.is_tree() && self.clusters.iter().all(|c| c.topology.is_tree())
    }

    /// Checks that every network supports engine-level adaptive routing
    /// (free-digit draws), which only the tree backend offers; reports
    /// [`TopologyError::UnsupportedByBackend`] otherwise.
    pub fn adaptive_routing_supported(&self) -> Result<(), TopologyError> {
        for c in &self.clusters {
            if !c.topology.is_tree() {
                return Err(TopologyError::UnsupportedByBackend {
                    backend: c.topology.backend_name(),
                    what: "engine-level adaptive routing",
                });
            }
        }
        if !self.topology.is_tree() {
            return Err(TopologyError::UnsupportedByBackend {
                backend: self.topology.backend_name(),
                what: "engine-level adaptive routing",
            });
        }
        Ok(())
    }

    /// Number of clusters `C`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Tree descriptor of cluster `i`'s ICN1/ECN1 (both are m-port
    /// `n_i`-trees over the same `N_i` nodes), or
    /// [`TopologyError::UnsupportedByBackend`] when the cluster uses a
    /// non-tree backend.
    pub fn cluster_tree_checked(&self, i: usize) -> Result<MPortNTree, TopologyError> {
        match self.clusters[i].topology {
            TopoSpec::Tree => MPortNTree::new(self.m, self.clusters[i].n),
            TopoSpec::Torus(_) => Err(TopologyError::UnsupportedByBackend {
                backend: "torus",
                what: "an m-port n-tree descriptor",
            }),
        }
    }

    /// Tree descriptor of cluster `i`'s ICN1/ECN1.
    ///
    /// Tree-only convenience kept for the analytical model, which never
    /// sees non-tree specs (they are reported as sim-only coverage
    /// upstream); panics on a non-tree cluster — backend-agnostic callers
    /// use [`SystemSpec::cluster_tree_checked`].
    pub fn cluster_tree(&self, i: usize) -> MPortNTree {
        self.cluster_tree_checked(i)
            .expect("validated at construction (tree backend)")
    }

    /// Number of nodes in cluster `i`: `N_i = 2(m/2)^{n_i}` for a tree
    /// cluster, the product of the dimension extents for a torus cluster.
    pub fn cluster_nodes(&self, i: usize) -> usize {
        match self.clusters[i].topology {
            TopoSpec::Tree => self.cluster_tree(i).num_nodes(),
            TopoSpec::Torus(shape) => shape.num_nodes(),
        }
    }

    /// Total nodes in the system, `N = Σ N_i`.
    pub fn total_nodes(&self) -> usize {
        (0..self.num_clusters())
            .map(|i| self.cluster_nodes(i))
            .sum()
    }

    /// Tree height `n_c` of the ICN2 network: the solution of
    /// `C = 2(m/2)^{n_c}`. Errors if `C` is not exactly tree-sized, or if
    /// ICN2 uses a non-tree backend (which has no tree height).
    pub fn icn2_height(&self) -> Result<u32, TopologyError> {
        if !self.topology.is_tree() {
            return Err(TopologyError::UnsupportedByBackend {
                backend: self.topology.backend_name(),
                what: "an ICN2 tree height",
            });
        }
        let c = self.clusters.len();
        let k = (self.m / 2) as usize;
        let mut size = 2usize;
        let mut n_c = 0u32;
        while size < c {
            size = size
                .checked_mul(k)
                .ok_or(TopologyError::TooLarge { what: "ICN2" })?;
            n_c += 1;
            if k == 1 && size < c {
                // k == 1 never grows; bail out.
                return Err(TopologyError::ClusterCountNotTreeSized { c, m: self.m });
            }
        }
        if size == c && n_c > 0 {
            Ok(n_c)
        } else {
            Err(TopologyError::ClusterCountNotTreeSized { c, m: self.m })
        }
    }

    /// Tree descriptor of the ICN2 network (an m-port `n_c`-tree whose
    /// "nodes" are the `C` concentrator/dispatchers).
    pub fn icn2_tree(&self) -> MPortNTree {
        MPortNTree::new(self.m, self.icn2_height().expect("validated")).expect("validated")
    }

    /// Probability that a message born in cluster `i` leaves the cluster,
    /// Eq. (2): `U_i = 1 − (N_i − 1)/(N − 1)` (uniform destinations).
    pub fn outgoing_probability(&self, i: usize) -> f64 {
        let n_i = self.cluster_nodes(i) as f64;
        let n = self.total_nodes() as f64;
        1.0 - (n_i - 1.0) / (n - 1.0)
    }

    /// The relaxing factor of Eq. (28) for cluster `i`:
    /// `δ_i = β_{ICN2} / β_{ECN1(i)}` — the ICN2/ECN1 bandwidth ratio used
    /// to discount waiting on ICN2 stages.
    pub fn relaxing_factor(&self, i: usize) -> f64 {
        self.icn2.beta() / self.clusters[i].ecn1.beta()
    }

    /// Global node index ranges: cluster `i` owns nodes
    /// `offset(i) .. offset(i) + N_i` in the flattened node numbering used
    /// by the simulator and workloads.
    pub fn node_offset(&self, i: usize) -> usize {
        (0..i).map(|j| self.cluster_nodes(j)).sum()
    }

    /// Maps a flat node index to `(cluster, local index)`.
    pub fn locate_node(&self, flat: usize) -> Option<(usize, usize)> {
        let mut off = 0;
        for i in 0..self.num_clusters() {
            let sz = self.cluster_nodes(i);
            if flat < off + sz {
                return Some((i, flat - off));
            }
            off += sz;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netchar(bw: f64) -> NetworkCharacteristics {
        NetworkCharacteristics::new(bw, 0.01, 0.02).unwrap()
    }

    /// Builds a toy heterogeneous system: m=4, clusters of heights 1, 1, 2, 2.
    fn toy() -> SystemSpec {
        let c = |n| ClusterSpec {
            n,
            icn1: netchar(500.0),
            ecn1: netchar(250.0),
            topology: TopoSpec::Tree,
        };
        SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], netchar(500.0)).unwrap()
    }

    /// A torus cluster of the given dims (n stays 0 by contract).
    fn torus_cluster(dims: &[u32]) -> ClusterSpec {
        ClusterSpec {
            n: 0,
            icn1: netchar(500.0),
            ecn1: netchar(250.0),
            topology: TopoSpec::Torus(crate::topo::TorusShape::new(dims).unwrap()),
        }
    }

    #[test]
    fn node_counts_and_offsets() {
        let s = toy();
        assert_eq!(s.num_clusters(), 4);
        assert_eq!(s.cluster_nodes(0), 4);
        assert_eq!(s.cluster_nodes(2), 8);
        assert_eq!(s.total_nodes(), 4 + 4 + 8 + 8);
        assert_eq!(s.node_offset(0), 0);
        assert_eq!(s.node_offset(2), 8);
        assert_eq!(s.locate_node(0), Some((0, 0)));
        assert_eq!(s.locate_node(9), Some((2, 1)));
        assert_eq!(s.locate_node(23), Some((3, 7)));
        assert_eq!(s.locate_node(24), None);
    }

    #[test]
    fn icn2_height_solves_cluster_count() {
        // C=4, m=4: 2*2^1 = 4 -> n_c = 1.
        assert_eq!(toy().icn2_height().unwrap(), 1);
    }

    #[test]
    fn paper_organizations_icn2_heights() {
        let mk = |m: u32, heights: &[u32]| {
            let clusters: Vec<ClusterSpec> = heights
                .iter()
                .map(|&n| ClusterSpec {
                    n,
                    icn1: netchar(500.0),
                    ecn1: netchar(250.0),
                    topology: TopoSpec::Tree,
                })
                .collect();
            SystemSpec::new(m, clusters, netchar(500.0)).unwrap()
        };
        // N=1120: C=32, m=8 -> 2*4^2 = 32 -> n_c = 2.
        let heights: Vec<u32> = std::iter::repeat_n(1, 12)
            .chain(std::iter::repeat_n(2, 16))
            .chain(std::iter::repeat_n(3, 4))
            .collect();
        let s = mk(8, &heights);
        assert_eq!(s.total_nodes(), 1120);
        assert_eq!(s.icn2_height().unwrap(), 2);

        // N=544: C=16, m=4 -> 2*2^3 = 16 -> n_c = 3.
        let heights: Vec<u32> = std::iter::repeat_n(3, 8)
            .chain(std::iter::repeat_n(4, 3))
            .chain(std::iter::repeat_n(5, 5))
            .collect();
        let s = mk(4, &heights);
        assert_eq!(s.total_nodes(), 544);
        assert_eq!(s.icn2_height().unwrap(), 3);
    }

    #[test]
    fn torus_clusters_validate_and_count_nodes_by_dims() {
        let spec = SystemSpec::new(
            4,
            vec![
                torus_cluster(&[4, 4]),
                torus_cluster(&[4, 4]),
                torus_cluster(&[2, 2, 2]),
                torus_cluster(&[2, 2, 2]),
            ],
            netchar(500.0),
        )
        .unwrap();
        assert_eq!(spec.cluster_nodes(0), 16);
        assert_eq!(spec.cluster_nodes(2), 8);
        assert_eq!(spec.total_nodes(), 48);
        assert_eq!(spec.locate_node(17), Some((1, 1)));
        assert!(matches!(
            spec.cluster_tree_checked(0),
            Err(TopologyError::UnsupportedByBackend { .. })
        ));
        assert!(matches!(
            spec.adaptive_routing_supported(),
            Err(TopologyError::UnsupportedByBackend { .. })
        ));
        assert!(!spec.is_all_tree());
        assert!(toy().is_all_tree());
        toy().adaptive_routing_supported().unwrap();
    }

    #[test]
    fn torus_cluster_with_tree_height_is_rejected() {
        let mut bad = torus_cluster(&[4, 4]);
        bad.n = 2;
        let err = SystemSpec::new(4, vec![bad, torus_cluster(&[4, 4])], netchar(1.0)).unwrap_err();
        assert!(matches!(err, TopologyError::UnsupportedByBackend { .. }));
    }

    #[test]
    fn torus_icn2_must_match_cluster_count() {
        let c = |n| ClusterSpec {
            n,
            icn1: netchar(500.0),
            ecn1: netchar(250.0),
            topology: TopoSpec::Tree,
        };
        let mut spec = SystemSpec::new(4, vec![c(1), c(1), c(1), c(1)], netchar(500.0)).unwrap();
        spec.topology = TopoSpec::Torus(crate::topo::TorusShape::new(&[2, 2]).unwrap());
        spec.validate().unwrap();
        assert!(!spec.is_all_tree());
        assert!(matches!(
            spec.icn2_height(),
            Err(TopologyError::UnsupportedByBackend { .. })
        ));
        spec.topology = TopoSpec::Torus(crate::topo::TorusShape::new(&[2, 3]).unwrap());
        assert!(matches!(
            spec.validate(),
            Err(TopologyError::BadTorusShape { .. })
        ));
    }

    #[test]
    fn rejects_non_tree_sized_cluster_counts() {
        let c = ClusterSpec {
            n: 1,
            icn1: netchar(1.0),
            ecn1: netchar(1.0),
            topology: TopoSpec::Tree,
        };
        // C=3 with m=4: 2*2^x never equals 3.
        let err = SystemSpec::new(4, vec![c; 3], netchar(1.0)).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::ClusterCountNotTreeSized { .. }
        ));
        // C=1 rejected outright.
        let err = SystemSpec::new(4, vec![c; 1], netchar(1.0)).unwrap_err();
        assert!(matches!(err, TopologyError::TooFewClusters { .. }));
    }

    #[test]
    fn outgoing_probability_matches_eq2() {
        let s = toy(); // N = 24
                       // Cluster 0 has 4 nodes: U = 1 - 3/23.
        assert!((s.outgoing_probability(0) - (1.0 - 3.0 / 23.0)).abs() < 1e-12);
        // Bigger clusters keep more traffic local.
        assert!(s.outgoing_probability(2) < s.outgoing_probability(0));
    }

    #[test]
    fn relaxing_factor_is_bandwidth_ratio() {
        let s = toy();
        // β_ICN2 / β_ECN1 = (1/500)/(1/250) = 0.5.
        assert!((s.relaxing_factor(0) - 0.5).abs() < 1e-12);
    }
}
