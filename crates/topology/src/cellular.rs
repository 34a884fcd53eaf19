//! Synthetic cellular core topologies.
//!
//! [`CellularParams::build`] generates the three-layer topology of the
//! paper's large-scale simulations (§6.3), parameterized by `k`:
//!
//! * **access layer** — clusters of 10 base stations interconnected in a
//!   ring (backhaul-ring best practice, paper refs [19, 28]); one ring
//!   member uplinks to the aggregation layer;
//! * **aggregation layer** — `k` pods of `k` switches in full mesh; in
//!   each pod `k/2` switches face down to `k/2` clusters each, the other
//!   `k/2` face up to the core;
//! * **core layer** — `k²` switches in full mesh, all connected to a
//!   gateway switch.
//!
//! Total base stations: `k pods × k/2 × k/2 clusters × 10 = 10k³/4`
//! (k=8 → 1280, k=20 → 20 000, matching Fig. 7).
//!
//! Middleboxes: `k` kinds; one instance of each kind on a random switch of
//! each pod, plus two instances of each kind on random core switches.
//!
//! Base-station identifiers are assigned cluster-contiguously so that the
//! addressing scheme hands topologically-close stations numerically-close
//! prefixes — the precondition for location aggregation.
//!
//! [`small_topology`] is a hand-made 9-switch network mirroring the
//! paper's Figure 2, used by the examples and many tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softcell_types::{Error, MiddleboxKind, Result};

use crate::graph::{SwitchRole, Topology, TopologyBuilder};

/// Parameters of the synthetic three-layer cellular topology.
#[derive(Clone, Copy, Debug)]
pub struct CellularParams {
    /// The pod parameter `k` (even, ≥ 2). The network has `10k³/4` base
    /// stations.
    pub k: usize,
    /// Base stations per access ring (the paper uses 10).
    pub bs_per_cluster: usize,
    /// Number of distinct middlebox kinds (the paper uses `k`).
    pub mb_kinds: usize,
    /// RNG seed for middlebox placement.
    pub seed: u64,
}

impl CellularParams {
    /// The paper's base configuration for a given `k`: 10-station rings
    /// and `k` middlebox kinds.
    pub fn paper(k: usize) -> Self {
        CellularParams {
            k,
            bs_per_cluster: 10,
            mb_kinds: k,
            seed: 2013, // CoNEXT '13
        }
    }

    /// Number of access-ring clusters: `k³/4`.
    pub fn cluster_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of base stations: `bs_per_cluster · k³/4`.
    pub fn base_station_count(&self) -> usize {
        self.cluster_count() * self.bs_per_cluster
    }

    fn validate(&self) -> Result<()> {
        if self.k < 2 || !self.k.is_multiple_of(2) {
            return Err(Error::Config(format!(
                "k must be even and >= 2, got {}",
                self.k
            )));
        }
        if self.bs_per_cluster == 0 {
            return Err(Error::Config("bs_per_cluster must be positive".into()));
        }
        if self.mb_kinds == 0 {
            return Err(Error::Config("mb_kinds must be positive".into()));
        }
        Ok(())
    }

    /// Builds the topology.
    pub fn build(&self) -> Result<Topology> {
        self.validate()?;
        let k = self.k;
        let mut b = TopologyBuilder::new();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Core layer: k² switches, full mesh, plus the gateway.
        let core: Vec<_> = (0..k * k).map(|_| b.add_switch(SwitchRole::Core)).collect();
        for i in 0..core.len() {
            for j in (i + 1)..core.len() {
                b.link(core[i], core[j])?;
            }
        }
        let gw = b.add_switch(SwitchRole::Gateway);
        for &c in &core {
            b.link(gw, c)?;
        }
        b.attach_gateway(gw)?;

        // Aggregation layer: k pods × k switches, full mesh per pod.
        // First k/2 of each pod face down (clusters), last k/2 face up.
        let half = k / 2;
        let mut pods: Vec<Vec<_>> = Vec::with_capacity(k);
        for p in 0..k {
            let pod: Vec<_> = (0..k)
                .map(|_| b.add_switch(SwitchRole::Aggregation))
                .collect();
            for i in 0..k {
                for j in (i + 1)..k {
                    b.link(pod[i], pod[j])?;
                }
            }
            // up-facing switches to core: spread deterministically so the
            // pod-core links cover the core mesh evenly
            for (j, &up) in pod[half..].iter().enumerate() {
                for c in 0..half {
                    let idx = ((p * half + j) * half + c) % core.len();
                    // the same core switch may be picked twice by the
                    // modular spread when k is small; skip duplicates
                    if b.link(up, core[idx]).is_err() {
                        let alt = (idx + 1 + c) % core.len();
                        let _ = b.link(up, core[alt]);
                    }
                }
            }
            pods.push(pod);
        }

        // Access layer: rings of base stations. Cluster c hangs off pod
        // (c / (half·half)), down-switch ((c / half) % half).
        for c in 0..self.cluster_count() {
            let pod = c / (half * half);
            let down = (c / half) % half;
            let uplink_sw = pods[pod][down];

            let ring: Vec<_> = (0..self.bs_per_cluster)
                .map(|_| b.add_switch(SwitchRole::Access))
                .collect();
            // ring links (a 2-ring is a single link; a 1-ring has none)
            match ring.len() {
                0 | 1 => {}
                2 => {
                    b.link(ring[0], ring[1])?;
                }
                n => {
                    for i in 0..n {
                        b.link(ring[i], ring[(i + 1) % n])?;
                    }
                }
            }
            // one ring member uplinks to the aggregation layer
            b.link(ring[0], uplink_sw)?;
            for &acc in &ring {
                b.attach_base_station(acc)?;
            }
        }

        // Middleboxes: one instance of each kind per pod, two per core.
        let kinds = MiddleboxKind::enumerate(self.mb_kinds);
        for pod in &pods {
            for &kind in &kinds {
                let sw = pod[rng.gen_range(0..pod.len())];
                b.attach_middlebox(kind, sw)?;
            }
        }
        for &kind in &kinds {
            for _ in 0..2 {
                let sw = core[rng.gen_range(0..core.len())];
                b.attach_middlebox(kind, sw)?;
            }
        }

        b.build()
    }
}

/// A small hand-made topology mirroring the paper's Figure 2: four base
/// stations in two 2-station clusters, two aggregation switches, two core
/// switches, one gateway, and four middleboxes (firewall and transcoder in
/// the core; echo canceller and web cache in aggregation).
///
/// ```text
///                 gw(0)
///                /     \
///      [fw] c1(1)       c2(2) [tc]
///            |  \      /  |
///            |    \  /    |
///            |    /  \    |
///  [ec] agg1(3)         agg2(4) [wc]
///        /   \           /   \
///   acc(5)  acc(6)  acc(7)  acc(8)
///    bs0     bs1     bs2     bs3
/// ```
pub fn small_topology() -> Topology {
    let build = || -> Result<Topology> {
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let c1 = b.add_switch(SwitchRole::Core);
        let c2 = b.add_switch(SwitchRole::Core);
        let agg1 = b.add_switch(SwitchRole::Aggregation);
        let agg2 = b.add_switch(SwitchRole::Aggregation);
        let accs: Vec<_> = (0..4).map(|_| b.add_switch(SwitchRole::Access)).collect();

        b.link(gw, c1)?;
        b.link(gw, c2)?;
        b.link(c1, agg1)?;
        b.link(c1, agg2)?;
        b.link(c2, agg1)?;
        b.link(c2, agg2)?;
        b.link(agg1, accs[0])?;
        b.link(agg1, accs[1])?;
        b.link(agg2, accs[2])?;
        b.link(agg2, accs[3])?;

        b.attach_middlebox(MiddleboxKind::Firewall, c1)?;
        b.attach_middlebox(MiddleboxKind::Transcoder, c2)?;
        b.attach_middlebox(MiddleboxKind::EchoCanceller, agg1)?;
        b.attach_middlebox(MiddleboxKind::WebCache, agg2)?;

        for acc in accs {
            b.attach_base_station(acc)?;
        }
        b.attach_gateway(gw)?;
        b.build()
    };
    build().expect("small topology is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::ShortestPaths;
    use softcell_types::{BaseStationId, SwitchId};

    #[test]
    fn small_topology_shape() {
        let t = small_topology();
        assert_eq!(t.switch_count(), 9);
        assert_eq!(t.base_stations().len(), 4);
        assert_eq!(t.gateways().len(), 1);
        assert_eq!(t.middlebox_count(), 4);
        assert_eq!(t.instances_of(MiddleboxKind::Firewall).len(), 1);
    }

    #[test]
    fn paper_counts_for_k8() {
        let p = CellularParams::paper(8);
        assert_eq!(p.base_station_count(), 1280);
        assert_eq!(CellularParams::paper(20).base_station_count(), 20000);
        assert_eq!(CellularParams::paper(10).base_station_count(), 2500);
        assert_eq!(CellularParams::paper(12).base_station_count(), 4320);
        assert_eq!(CellularParams::paper(14).base_station_count(), 6860);
        assert_eq!(CellularParams::paper(16).base_station_count(), 10240);
        assert_eq!(CellularParams::paper(18).base_station_count(), 14580);
    }

    #[test]
    fn build_k2_minimal() {
        let t = CellularParams {
            k: 2,
            bs_per_cluster: 2,
            mb_kinds: 2,
            seed: 1,
        }
        .build()
        .unwrap();
        // k=2: core 4 + gw 1 + agg 2*2 + access 2*2/4*... clusters = 2,
        // stations = 4
        assert_eq!(t.base_stations().len(), 4);
        assert_eq!(t.gateways().len(), 1);
        // mb: 2 kinds * (2 pods + 2 core) = 8 instances
        assert_eq!(t.middlebox_count(), 8);
    }

    #[test]
    fn build_k4_full_shape() {
        let p = CellularParams::paper(4);
        let t = p.build().unwrap();
        assert_eq!(t.base_stations().len(), p.base_station_count());
        // switches: access 160 + agg 16 + core 16 + gw 1
        assert_eq!(t.switch_count(), 160 + 16 + 16 + 1);
        // every base station can reach the gateway
        let gw = t.default_gateway().switch;
        let mut sp = ShortestPaths::new(&t);
        for bs in 0..t.base_stations().len() {
            let acc = t.base_station(BaseStationId(bs as u32)).access_switch;
            assert!(sp.distance(acc, gw).is_some(), "bs{bs} cannot reach gw");
        }
    }

    #[test]
    fn cluster_station_ids_are_contiguous() {
        let p = CellularParams {
            k: 2,
            bs_per_cluster: 4,
            mb_kinds: 1,
            seed: 7,
        };
        let t = p.build().unwrap();
        // stations 0..4 form ring 0: their access switches must be
        // mutually close (ring + shared uplink), i.e. pairwise distance
        // ≤ 2 hops within the ring.
        let mut sp = ShortestPaths::new(&t);
        let a0 = t.base_station(BaseStationId(0)).access_switch;
        let a3 = t.base_station(BaseStationId(3)).access_switch;
        assert!(sp.distance(a0, a3).unwrap() <= 2);
    }

    #[test]
    fn rejects_odd_or_tiny_k() {
        assert!(CellularParams::paper(3).build().is_err());
        assert!(CellularParams::paper(0).build().is_err());
        assert!(CellularParams {
            k: 2,
            bs_per_cluster: 0,
            mb_kinds: 1,
            seed: 0
        }
        .build()
        .is_err());
    }

    #[test]
    fn middlebox_placement_is_seed_deterministic() {
        let a = CellularParams::paper(4).build().unwrap();
        let b = CellularParams::paper(4).build().unwrap();
        let hosts_a: Vec<SwitchId> = a.middleboxes().iter().map(|m| m.switch).collect();
        let hosts_b: Vec<SwitchId> = b.middleboxes().iter().map(|m| m.switch).collect();
        assert_eq!(hosts_a, hosts_b);
    }

    #[test]
    fn every_kind_has_pod_and_core_instances() {
        let t = CellularParams::paper(4).build().unwrap();
        for kind in MiddleboxKind::enumerate(4) {
            // 4 pods + 2 core instances
            assert_eq!(t.instances_of(kind).len(), 6, "{kind}");
        }
    }
}
