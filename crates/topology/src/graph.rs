//! The topology model: switches, links, middleboxes, base stations.
//!
//! Switches are the graph's nodes; links occupy a numbered port at each
//! end (port numbers matter: SoftCell identifies middlebox return traffic
//! by input port, paper §3.1 footnote). Base stations, middlebox
//! instances and the Internet uplink are *attachments* on switch ports,
//! not graph nodes, mirroring how the data plane sees them.

use std::collections::HashMap;
use std::sync::Arc;

use softcell_types::{
    BaseStationId, Error, GatewayId, LinkId, MiddleboxId, MiddleboxKind, PortNo, Result, SwitchId,
};

/// The role a switch plays in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SwitchRole {
    /// Software switch at a base station; runs the microflow table and
    /// hosts the local agent.
    Access,
    /// Aggregation-layer hardware switch (pod member).
    Aggregation,
    /// Core-layer hardware switch.
    Core,
    /// Gateway switch with an Internet-facing port.
    Gateway,
}

/// A switch node.
#[derive(Clone, Debug)]
pub struct SwitchNode {
    /// This switch's identifier (== its index in [`Topology::switches`]).
    pub id: SwitchId,
    /// Fabric role.
    pub role: SwitchRole,
    /// Next free port number (ports are allocated sequentially; port 0 is
    /// the local/CPU port).
    next_port: u16,
}

impl SwitchNode {
    fn allocate_port(&mut self) -> PortNo {
        let p = PortNo(self.next_port);
        self.next_port += 1;
        p
    }

    /// Number of allocated ports (including the reserved CPU port 0).
    pub fn port_count(&self) -> u16 {
        self.next_port
    }
}

/// An undirected link between two switch ports.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Link identifier (== index in [`Topology::links`]).
    pub id: LinkId,
    /// One endpoint.
    pub a: (SwitchId, PortNo),
    /// The other endpoint.
    pub b: (SwitchId, PortNo),
}

impl Link {
    /// Given one endpoint switch, returns the far endpoint.
    pub fn opposite(&self, from: SwitchId) -> Option<(SwitchId, PortNo)> {
        if self.a.0 == from {
            Some(self.b)
        } else if self.b.0 == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A middlebox instance attached to a switch port.
#[derive(Clone, Copy, Debug)]
pub struct Middlebox {
    /// Instance identifier.
    pub id: MiddleboxId,
    /// The function this instance performs.
    pub kind: MiddleboxKind,
    /// Host switch.
    pub switch: SwitchId,
    /// Port on the host switch where the instance hangs.
    pub port: PortNo,
}

/// A base station and its access switch (1:1 in SoftCell).
#[derive(Clone, Copy, Debug)]
pub struct BaseStation {
    /// Base-station identifier.
    pub id: BaseStationId,
    /// The access switch co-located with this base station.
    pub access_switch: SwitchId,
    /// The port on the access switch facing the radio side.
    pub radio_port: PortNo,
}

/// A gateway's Internet-facing attachment.
#[derive(Clone, Copy, Debug)]
pub struct GatewayUplink {
    /// Gateway identifier.
    pub id: GatewayId,
    /// The gateway switch.
    pub switch: SwitchId,
    /// The Internet-facing port.
    pub port: PortNo,
}

/// An immutable, validated network topology: a shared handle to one
/// graph, so a clone is a reference-count bump and every engine owns
/// the topology it reads.
#[derive(Clone, Debug)]
pub struct Topology(Arc<Graph>);

/// What a [`Topology`] handle points at.
#[derive(Debug)]
struct Graph {
    switches: Vec<SwitchNode>,
    links: Vec<Link>,
    /// adjacency\[sw\] = (neighbor switch, out port on sw, in port on neighbor)
    adjacency: Vec<Vec<(SwitchId, PortNo, PortNo)>>,
    middleboxes: Vec<Middlebox>,
    base_stations: Vec<BaseStation>,
    gateways: Vec<GatewayUplink>,
    mb_by_kind: HashMap<MiddleboxKind, Vec<MiddleboxId>>,
    access_to_bs: HashMap<SwitchId, BaseStationId>,
}

impl Topology {
    /// All switches, indexed by [`SwitchId`].
    pub fn switches(&self) -> &[SwitchNode] {
        &self.0.switches
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.0.switches.len()
    }

    /// One switch.
    pub fn switch(&self, id: SwitchId) -> &SwitchNode {
        &self.0.switches[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.0.links
    }

    /// Neighbors of a switch: `(neighbor, out_port_here, in_port_there)`,
    /// in deterministic (insertion) order — path computations rely on this
    /// determinism for reproducibility and for path sharing.
    pub fn neighbors(&self, sw: SwitchId) -> &[(SwitchId, PortNo, PortNo)] {
        &self.0.adjacency[sw.index()]
    }

    /// The output port on `from` that reaches `to`, if adjacent.
    pub fn port_towards(&self, from: SwitchId, to: SwitchId) -> Option<PortNo> {
        self.0.adjacency[from.index()]
            .iter()
            .find(|(n, _, _)| *n == to)
            .map(|(_, p, _)| *p)
    }

    /// All middlebox instances.
    pub fn middleboxes(&self) -> &[Middlebox] {
        &self.0.middleboxes
    }

    /// One middlebox instance.
    pub fn middlebox(&self, id: MiddleboxId) -> &Middlebox {
        &self.0.middleboxes[id.index()]
    }

    /// Instances of a given kind (possibly empty).
    pub fn instances_of(&self, kind: MiddleboxKind) -> &[MiddleboxId] {
        self.0
            .mb_by_kind
            .get(&kind)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All middlebox kinds present in this topology.
    pub fn middlebox_kinds(&self) -> impl Iterator<Item = MiddleboxKind> + '_ {
        self.0.mb_by_kind.keys().copied()
    }

    /// All base stations.
    pub fn base_stations(&self) -> &[BaseStation] {
        &self.0.base_stations
    }

    /// One base station.
    pub fn base_station(&self, id: BaseStationId) -> &BaseStation {
        &self.0.base_stations[id.index()]
    }

    /// The base station co-located with an access switch, if any.
    pub fn base_station_at(&self, sw: SwitchId) -> Option<BaseStationId> {
        self.0.access_to_bs.get(&sw).copied()
    }

    /// All gateway uplinks.
    pub fn gateways(&self) -> &[GatewayUplink] {
        &self.0.gateways
    }

    /// The default gateway (first registered).
    pub fn default_gateway(&self) -> &GatewayUplink {
        &self.0.gateways[0]
    }

    /// Total number of middlebox instances.
    pub fn middlebox_count(&self) -> usize {
        self.0.middleboxes.len()
    }
}

/// Incremental topology construction with validation at `build()`.
#[derive(Default, Debug)]
pub struct TopologyBuilder {
    switches: Vec<SwitchNode>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(SwitchId, PortNo, PortNo)>>,
    middleboxes: Vec<Middlebox>,
    base_stations: Vec<BaseStation>,
    gateways: Vec<GatewayUplink>,
    access_to_bs: HashMap<SwitchId, BaseStationId>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self, role: SwitchRole) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(SwitchNode {
            id,
            role,
            next_port: 1, // port 0 reserved for CPU/local
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Links two switches, allocating a port at each end.
    pub fn link(&mut self, a: SwitchId, b: SwitchId) -> Result<LinkId> {
        if a == b {
            return Err(Error::Config(format!("self-link on {a}")));
        }
        if a.index() >= self.switches.len() || b.index() >= self.switches.len() {
            return Err(Error::NotFound(format!("link endpoints {a},{b} unknown")));
        }
        if self.adjacency[a.index()].iter().any(|(n, _, _)| *n == b) {
            return Err(Error::Config(format!("duplicate link {a}-{b}")));
        }
        let pa = self.switches[a.index()].allocate_port();
        let pb = self.switches[b.index()].allocate_port();
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a: (a, pa),
            b: (b, pb),
        });
        self.adjacency[a.index()].push((b, pa, pb));
        self.adjacency[b.index()].push((a, pb, pa));
        Ok(id)
    }

    /// Attaches a middlebox instance to a switch.
    pub fn attach_middlebox(&mut self, kind: MiddleboxKind, sw: SwitchId) -> Result<MiddleboxId> {
        if sw.index() >= self.switches.len() {
            return Err(Error::NotFound(format!("middlebox host {sw} unknown")));
        }
        let port = self.switches[sw.index()].allocate_port();
        let id = MiddleboxId(self.middleboxes.len() as u32);
        self.middleboxes.push(Middlebox {
            id,
            kind,
            switch: sw,
            port,
        });
        Ok(id)
    }

    /// Declares a switch to be the access switch of a new base station.
    pub fn attach_base_station(&mut self, sw: SwitchId) -> Result<BaseStationId> {
        if sw.index() >= self.switches.len() {
            return Err(Error::NotFound(format!("access switch {sw} unknown")));
        }
        if self.switches[sw.index()].role != SwitchRole::Access {
            return Err(Error::Config(format!(
                "{sw} is not an access switch; base stations attach to access switches"
            )));
        }
        if self.access_to_bs.contains_key(&sw) {
            return Err(Error::Config(format!("{sw} already hosts a base station")));
        }
        let port = self.switches[sw.index()].allocate_port();
        let id = BaseStationId(self.base_stations.len() as u32);
        self.base_stations.push(BaseStation {
            id,
            access_switch: sw,
            radio_port: port,
        });
        self.access_to_bs.insert(sw, id);
        Ok(id)
    }

    /// Declares a gateway switch's Internet uplink.
    pub fn attach_gateway(&mut self, sw: SwitchId) -> Result<GatewayId> {
        if sw.index() >= self.switches.len() {
            return Err(Error::NotFound(format!("gateway switch {sw} unknown")));
        }
        if self.switches[sw.index()].role != SwitchRole::Gateway {
            return Err(Error::Config(format!("{sw} is not a gateway switch")));
        }
        let port = self.switches[sw.index()].allocate_port();
        let id = GatewayId(self.gateways.len() as u32);
        self.gateways.push(GatewayUplink {
            id,
            switch: sw,
            port,
        });
        Ok(id)
    }

    /// Validates and freezes the topology. Requirements: at least one
    /// gateway, at least one base station, and full connectivity (every
    /// switch reachable from the first gateway).
    pub fn build(self) -> Result<Topology> {
        if self.gateways.is_empty() {
            return Err(Error::Config("topology has no gateway".into()));
        }
        if self.base_stations.is_empty() {
            return Err(Error::Config("topology has no base station".into()));
        }
        // connectivity check: BFS from the first gateway
        let n = self.switches.len();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let root = self.gateways[0].switch;
        seen[root.index()] = true;
        queue.push_back(root);
        let mut reached = 1usize;
        while let Some(sw) = queue.pop_front() {
            for &(next, _, _) in &self.adjacency[sw.index()] {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    reached += 1;
                    queue.push_back(next);
                }
            }
        }
        if reached != n {
            return Err(Error::Config(format!(
                "topology is disconnected: {reached}/{n} switches reachable from {root}"
            )));
        }

        let mut mb_by_kind: HashMap<MiddleboxKind, Vec<MiddleboxId>> = HashMap::new();
        for mb in &self.middleboxes {
            mb_by_kind.entry(mb.kind).or_default().push(mb.id);
        }
        Ok(Topology(Arc::new(Graph {
            switches: self.switches,
            links: self.links,
            adjacency: self.adjacency,
            middleboxes: self.middleboxes,
            base_stations: self.base_stations,
            gateways: self.gateways,
            mb_by_kind,
            access_to_bs: self.access_to_bs,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// gw — core — access(+bs), with a firewall on core
    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let core = b.add_switch(SwitchRole::Core);
        let acc = b.add_switch(SwitchRole::Access);
        b.link(gw, core).unwrap();
        b.link(core, acc).unwrap();
        b.attach_middlebox(MiddleboxKind::Firewall, core).unwrap();
        b.attach_base_station(acc).unwrap();
        b.attach_gateway(gw).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_graph() {
        let t = tiny();
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.links().len(), 2);
        assert_eq!(t.base_stations().len(), 1);
        assert_eq!(t.gateways().len(), 1);
        assert_eq!(t.instances_of(MiddleboxKind::Firewall).len(), 1);
        assert!(t.instances_of(MiddleboxKind::Transcoder).is_empty());
    }

    #[test]
    fn ports_are_distinct_per_switch() {
        let t = tiny();
        let core = SwitchId(1);
        // core has: link to gw, link to acc, firewall port → ports 1,2,3
        assert_eq!(t.switch(core).port_count(), 4);
        let mut ports: Vec<u16> = t
            .neighbors(core)
            .iter()
            .map(|(_, p, _)| p.0)
            .chain(
                t.middleboxes()
                    .iter()
                    .filter(|m| m.switch == core)
                    .map(|m| m.port.0),
            )
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        assert!(!ports.contains(&0), "port 0 is reserved");
    }

    #[test]
    fn port_towards_matches_adjacency() {
        let t = tiny();
        let (gw, core) = (SwitchId(0), SwitchId(1));
        let p = t.port_towards(gw, core).unwrap();
        assert_eq!(
            t.neighbors(gw)
                .iter()
                .find(|(n, _, _)| *n == core)
                .unwrap()
                .1,
            p
        );
        assert!(t.port_towards(gw, SwitchId(2)).is_none());
    }

    #[test]
    fn link_opposite() {
        let t = tiny();
        let l = t.links()[0];
        assert_eq!(l.opposite(l.a.0).unwrap().0, l.b.0);
        assert_eq!(l.opposite(l.b.0).unwrap().0, l.a.0);
        assert!(l.opposite(SwitchId(99)).is_none());
    }

    #[test]
    fn rejects_self_and_duplicate_links() {
        let mut b = TopologyBuilder::new();
        let a = b.add_switch(SwitchRole::Core);
        let c = b.add_switch(SwitchRole::Core);
        assert!(b.link(a, a).is_err());
        b.link(a, c).unwrap();
        assert!(b.link(a, c).is_err());
        assert!(b.link(c, a).is_err());
    }

    #[test]
    fn rejects_base_station_on_non_access() {
        let mut b = TopologyBuilder::new();
        let core = b.add_switch(SwitchRole::Core);
        assert!(b.attach_base_station(core).is_err());
    }

    #[test]
    fn rejects_second_base_station_on_same_switch() {
        let mut b = TopologyBuilder::new();
        let acc = b.add_switch(SwitchRole::Access);
        b.attach_base_station(acc).unwrap();
        assert!(b.attach_base_station(acc).is_err());
    }

    #[test]
    fn build_rejects_disconnected() {
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let acc = b.add_switch(SwitchRole::Access);
        // no link between them
        b.attach_base_station(acc).unwrap();
        b.attach_gateway(gw).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_missing_gateway_or_bs() {
        let mut b = TopologyBuilder::new();
        let acc = b.add_switch(SwitchRole::Access);
        b.attach_base_station(acc).unwrap();
        assert!(b.build().is_err());

        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        b.attach_gateway(gw).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn base_station_lookup_by_access_switch() {
        let t = tiny();
        assert_eq!(t.base_station_at(SwitchId(2)), Some(BaseStationId(0)));
        assert_eq!(t.base_station_at(SwitchId(0)), None);
        let bs = t.base_station(BaseStationId(0));
        assert_eq!(bs.access_switch, SwitchId(2));
    }
}
