//! The physical network: switches, links and the packet walker.
//!
//! [`PhysicalNetwork`] instantiates one [`softcell_dataplane::Switch`]
//! per topology node, applies the controller's [`RuleOp`]s, and walks
//! packets hop by hop. A walk starts at an injection point (a radio port
//! on an access switch, or the Internet port of a gateway), repeatedly
//! runs the current switch's pipeline, crosses links, detours through
//! middleboxes (recording each traversal), and terminates with a
//! [`WalkOutcome`].

use softcell_controller::RuleOp;
use softcell_dataplane::{ForwardDecision, Switch};
use softcell_packet::{HeaderView, Ipv4Packet};
use softcell_topology::{SwitchRole, Topology};
use softcell_types::{Error, MiddleboxId, PortNo, Result, SimTime, SwitchId};

use crate::middlebox::MiddleboxTracker;

/// How a packet's walk through the fabric ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkOutcome {
    /// Delivered out an access switch's radio port (reached a UE).
    DeliveredToRadio {
        /// The delivering access switch.
        switch: SwitchId,
    },
    /// Left the network through a gateway's Internet port.
    ExitedGateway {
        /// The exit gateway switch.
        switch: SwitchId,
    },
    /// Punted to the local agent at an access switch (packet-in).
    PuntedToAgent {
        /// The punting access switch.
        switch: SwitchId,
        /// The port the packet had arrived on.
        in_port: PortNo,
    },
    /// Dropped (rule, table miss, or TTL exhaustion).
    Dropped {
        /// Where it died.
        switch: SwitchId,
    },
}

/// What hangs off one switch port.
#[derive(Clone, Copy, Debug)]
enum PortPeer {
    /// Nothing: the CPU port 0, or a port number the switch never
    /// allocated.
    Unconnected,
    /// The radio side of an access switch.
    Radio,
    /// A gateway's Internet uplink.
    Internet,
    /// A middlebox instance (it returns packets on the same port).
    Middlebox(MiddleboxId),
    /// A fabric link to `next`, arriving there on `in_port`.
    Link { next: SwitchId, in_port: PortNo },
}

/// The running data plane.
pub struct PhysicalNetwork {
    switches: Vec<Switch>,
    /// Every port of every switch, flat (CSR): switch `sw`'s ports are
    /// `ports[port_base[sw]..port_base[sw + 1]]`, indexed by port number,
    /// so classifying an out-port is one load instead of a search through
    /// the topology's stations, gateways, middleboxes and neighbours.
    ports: Vec<PortPeer>,
    port_base: Vec<u32>,
    /// Per-middlebox traversal records.
    pub middleboxes: MiddleboxTracker,
    /// Hop budget per walk (beyond TTL; guards against rule loops).
    pub max_hops: usize,
    /// Print each hop decision to stderr (debugging aid).
    pub trace: bool,
    /// Number of switch-pipeline executions in the most recent walk
    /// (path-stretch measurements: triangle routing vs shortcuts); the
    /// length of [`Self::last_walk_trail`].
    pub last_walk_hops: usize,
    /// The switch sequence of the most recent walk.
    pub last_walk_trail: Vec<SwitchId>,
}

impl PhysicalNetwork {
    /// Builds switches for every topology node and compiles the port
    /// table.
    pub fn new(topo: &Topology) -> PhysicalNetwork {
        let switches = topo
            .switches()
            .iter()
            .map(|s| match s.role {
                SwitchRole::Access => Switch::access(s.id),
                _ => Switch::fabric(s.id),
            })
            .collect();
        let mut port_base = Vec::with_capacity(topo.switch_count() + 1);
        let mut total = 0u32;
        for s in topo.switches() {
            port_base.push(total);
            total += u32::from(s.port_count());
        }
        port_base.push(total);
        let mut ports = vec![PortPeer::Unconnected; total as usize];
        let mut attach = |sw: SwitchId, port: PortNo, peer| {
            ports[port_base[sw.index()] as usize + usize::from(port.0)] = peer;
        };
        // Lowest precedence first, so that if two attachments ever claimed
        // one port the winner is radio, then Internet, then middlebox, then
        // link — the order the walker has always classified in.
        for s in topo.switches() {
            for &(next, out, in_port) in topo.neighbors(s.id) {
                attach(s.id, out, PortPeer::Link { next, in_port });
            }
        }
        for m in topo.middleboxes() {
            attach(m.switch, m.port, PortPeer::Middlebox(m.id));
        }
        for g in topo.gateways() {
            attach(g.switch, g.port, PortPeer::Internet);
        }
        for b in topo.base_stations() {
            attach(b.access_switch, b.radio_port, PortPeer::Radio);
        }
        PhysicalNetwork {
            switches,
            ports,
            port_base,
            middleboxes: MiddleboxTracker::default(),
            max_hops: 256,
            trace: false,
            last_walk_hops: 0,
            last_walk_trail: Vec::new(),
        }
    }

    /// A switch by id.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.index()]
    }

    /// A mutable switch by id.
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        &mut self.switches[id.index()]
    }

    /// All switches (consistent-update orchestration).
    pub fn switches_mut(&mut self) -> &mut [Switch] {
        &mut self.switches
    }

    /// Applies one controller rule operation. An op naming a switch the
    /// topology does not have is an error, not a panic.
    pub fn apply(&mut self, op: &RuleOp) -> Result<()> {
        let switch = op.switch();
        let table = match self.switches.get_mut(switch.index()) {
            Some(sw) => &mut sw.table,
            None => return Err(Error::NotFound(format!("{switch} not in network"))),
        };
        match op {
            RuleOp::Install {
                priority,
                matcher,
                action,
                ..
            } => {
                table.install(*priority, *matcher, *action)?;
            }
            RuleOp::Remove { matcher, .. } => {
                table.remove_matching(matcher);
            }
        }
        Ok(())
    }

    /// Applies a batch of operations.
    pub fn apply_all(&mut self, ops: &[RuleOp]) -> Result<()> {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Total flow-table rules across all switches.
    pub fn total_rules(&self) -> usize {
        self.switches.iter().map(|s| s.table.len()).sum()
    }

    fn peer(&self, sw: SwitchId, port: PortNo) -> PortPeer {
        let slot = self.port_base[sw.index()] as usize + usize::from(port.0);
        if slot < self.port_base[sw.index() + 1] as usize {
            self.ports[slot]
        } else {
            PortPeer::Unconnected
        }
    }

    /// Walks a packet from an injection point until it leaves the
    /// fabric. `start`/`in_port` name where the packet enters (radio
    /// port for uplink, gateway Internet port for downlink); `version`
    /// is the consistent-update stamp (normally the ingress switch's
    /// current version). `topo` is the topology this network was built
    /// from; the walk itself reads only the port table compiled from it.
    pub fn walk(
        &mut self,
        topo: &Topology,
        buffer: &mut [u8],
        start: SwitchId,
        in_port: PortNo,
        version: u32,
        now: SimTime,
    ) -> Result<WalkOutcome> {
        debug_assert_eq!(topo.switch_count(), self.switches.len());
        let (mut sw, mut port) = (start, in_port);
        let walk_id = self.middleboxes.begin_walk();
        self.last_walk_trail.clear();
        self.last_walk_hops = 0;
        // the walk's one parse: a switch's rewrites update the bytes and
        // this view together, and the TTL tick changes no field it holds
        let mut view = HeaderView::parse(buffer)?;
        for _ in 0..self.max_hops {
            self.last_walk_trail.push(sw);
            self.last_walk_hops = self.last_walk_trail.len();
            let decision =
                self.switches[sw.index()].process_view(buffer, &mut view, port, version, now)?;
            debug_assert_eq!(
                HeaderView::parse(buffer).ok(),
                Some(view),
                "carried view out of step with the bytes at {sw}"
            );
            if self.trace {
                eprintln!("  walk {walk_id}: {sw} in {port} -> {decision:?} ({view:?})");
            }
            let out = match decision {
                ForwardDecision::ToController => {
                    return Ok(WalkOutcome::PuntedToAgent {
                        switch: sw,
                        in_port: port,
                    })
                }
                ForwardDecision::Drop => return Ok(WalkOutcome::Dropped { switch: sw }),
                ForwardDecision::Out(out) => out,
            };
            match self.peer(sw, out) {
                PortPeer::Radio => return Ok(WalkOutcome::DeliveredToRadio { switch: sw }),
                PortPeer::Internet => return Ok(WalkOutcome::ExitedGateway { switch: sw }),
                PortPeer::Middlebox(mb) => {
                    // detour: the middlebox sees the packet and sends
                    // it straight back on the same port
                    self.middleboxes.observe(mb, &view, walk_id)?;
                    port = out;
                }
                PortPeer::Link { next, in_port } => {
                    sw = next;
                    port = in_port;
                }
                PortPeer::Unconnected => {
                    return Err(Error::InvalidState(format!(
                        "{sw} forwarded out unconnected port {out}"
                    )))
                }
            }
            // one TTL tick per link or middlebox crossing
            let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
            if ip.decrement_ttl().is_none() {
                return Err(Error::InvalidState(format!(
                    "TTL exhausted mid-walk ({} -> {}); trail tail: {:?}",
                    ip.src_addr(),
                    ip.dst_addr(),
                    trail_tail(&self.last_walk_trail)
                )));
            }
        }
        Err(Error::InvalidState(format!(
            "walk exceeded {} hops (rule loop?) at {sw}; trail tail: {:?}",
            self.max_hops,
            trail_tail(&self.last_walk_trail)
        )))
    }
}

/// The last dozen switches of a walk, for error messages.
fn trail_tail(trail: &[SwitchId]) -> &[SwitchId] {
    &trail[trail.len().saturating_sub(12)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_dataplane::matcher::{conventional_priority, Direction, Match};
    use softcell_dataplane::Action;
    use softcell_packet::{build_flow_packet, FiveTuple, Protocol};
    use softcell_topology::{small_topology, TopologyBuilder};
    use softcell_types::Ipv4Prefix;
    use std::net::Ipv4Addr;

    fn downlink_packet(dst: Ipv4Addr) -> Vec<u8> {
        build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(93, 184, 216, 34),
                dst,
                src_port: 443,
                dst_port: 4096,
                proto: Protocol::Tcp,
            },
            64,
            0,
            b"resp",
        )
    }

    #[test]
    fn network_mirrors_topology() {
        let topo = small_topology();
        let net = PhysicalNetwork::new(&topo);
        assert_eq!(net.total_rules(), 0);
        assert_eq!(
            net.switch(SwitchId(0)).kind,
            softcell_dataplane::switch::PipelineKind::Fabric
        );
        assert_eq!(
            net.switch(SwitchId(5)).kind,
            softcell_dataplane::switch::PipelineKind::Access
        );
    }

    #[test]
    fn walk_follows_installed_prefix_rules_to_radio() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        // route 10.0.0.0/23 (bs0's prefix under the default scheme)
        // gw(0) -> c1(1) -> agg1(3) -> acc(5), then radio delivery via a
        // microflow entry
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let hops = [(0u32, 1u32), (1, 3), (3, 5)];
        for (a, b) in hops {
            let m = Match::prefix(Direction::Downlink, pref);
            let out = topo.port_towards(SwitchId(a), SwitchId(b)).unwrap();
            net.switch_mut(SwitchId(a))
                .table
                .install(conventional_priority(&m), m, Action::Forward(out))
                .unwrap();
        }
        let dst = Ipv4Addr::new(10, 0, 0, 7);
        let mut buf = downlink_packet(dst);
        let view = HeaderView::parse(&buf).unwrap();
        let radio = topo
            .base_station(softcell_types::BaseStationId(0))
            .radio_port;
        net.switch_mut(SwitchId(5))
            .microflow
            .install(
                view.tuple,
                softcell_dataplane::MicroflowAction::RewriteDst {
                    addr: Ipv4Addr::new(100, 64, 0, 9),
                    port: 50000,
                    out: radio,
                },
                SimTime::from_secs(60),
            )
            .unwrap();

        let gw_port = topo.default_gateway().port;
        let out = net
            .walk(&topo, &mut buf, SwitchId(0), gw_port, 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            out,
            WalkOutcome::DeliveredToRadio {
                switch: SwitchId(5)
            }
        );
        let after = HeaderView::parse(&buf).unwrap();
        assert_eq!(after.dst(), Ipv4Addr::new(100, 64, 0, 9));
    }

    #[test]
    fn walk_detours_through_middlebox_and_records_it() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        let fw = topo.middleboxes()[0]; // firewall on c1(1)
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();

        // gw -> c1; c1 -> firewall; firewall-return -> agg1 -> acc5
        let m = Match::prefix(Direction::Downlink, pref);
        let p_c1 = topo.port_towards(SwitchId(0), SwitchId(1)).unwrap();
        net.switch_mut(SwitchId(0))
            .table
            .install(conventional_priority(&m), m, Action::Forward(p_c1))
            .unwrap();
        net.switch_mut(SwitchId(1))
            .table
            .install(conventional_priority(&m), m, Action::Forward(fw.port))
            .unwrap();
        let m_ret = m.from_port(fw.port);
        let p_agg = topo.port_towards(SwitchId(1), SwitchId(3)).unwrap();
        net.switch_mut(SwitchId(1))
            .table
            .install(conventional_priority(&m_ret), m_ret, Action::Forward(p_agg))
            .unwrap();
        let p_acc = topo.port_towards(SwitchId(3), SwitchId(5)).unwrap();
        net.switch_mut(SwitchId(3))
            .table
            .install(conventional_priority(&m), m, Action::Forward(p_acc))
            .unwrap();

        let mut buf = downlink_packet(Ipv4Addr::new(10, 0, 0, 7));
        let gw_port = topo.default_gateway().port;
        let out = net
            .walk(&topo, &mut buf, SwitchId(0), gw_port, 0, SimTime::ZERO)
            .unwrap();
        // no microflow at acc5 → punted to the agent
        assert_eq!(
            out,
            WalkOutcome::PuntedToAgent {
                switch: SwitchId(5),
                in_port: topo
                    .neighbors(SwitchId(3))
                    .iter()
                    .find(|(n, _, _)| *n == SwitchId(5))
                    .unwrap()
                    .2,
            }
        );
        assert_eq!(net.middleboxes.total_packets(), 1);
        assert_eq!(net.middleboxes.connections_seen(fw.id), 1);
    }

    #[test]
    fn empty_fabric_drops() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        let mut buf = downlink_packet(Ipv4Addr::new(10, 0, 0, 7));
        let out = net
            .walk(
                &topo,
                &mut buf,
                SwitchId(0),
                topo.default_gateway().port,
                0,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(
            out,
            WalkOutcome::Dropped {
                switch: SwitchId(0)
            }
        );
    }

    #[test]
    fn rule_loop_is_detected() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        // c1 -> gw and gw -> c1 forever
        let m = Match::ANY;
        let p1 = topo.port_towards(SwitchId(0), SwitchId(1)).unwrap();
        let p0 = topo.port_towards(SwitchId(1), SwitchId(0)).unwrap();
        net.switch_mut(SwitchId(0))
            .table
            .install(1, m, Action::Forward(p1))
            .unwrap();
        net.switch_mut(SwitchId(1))
            .table
            .install(1, m, Action::Forward(p0))
            .unwrap();
        let mut buf = build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(1, 1, 1, 1),
                dst: Ipv4Addr::new(2, 2, 2, 2),
                src_port: 1,
                dst_port: 2,
                proto: Protocol::Tcp,
            },
            255,
            0,
            &[],
        );
        let r = net.walk(
            &topo,
            &mut buf,
            SwitchId(0),
            topo.default_gateway().port,
            0,
            SimTime::ZERO,
        );
        assert!(r.is_err(), "loop must fail loudly, not spin");

        // the same loop with a short TTL dies of that first: one crossing
        // takes it to zero, the next is refused and leaves the header alone
        buf[8] = 1;
        Ipv4Packet::new_checked(&mut buf[..])
            .unwrap()
            .fill_checksum();
        let err = net
            .walk(
                &topo,
                &mut buf,
                SwitchId(0),
                topo.default_gateway().port,
                0,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(err.to_string().contains("TTL exhausted mid-walk"), "{err}");
        assert_eq!(net.last_walk_trail, [SwitchId(0), SwitchId(1)]);
        assert_eq!(net.last_walk_hops, 2);
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(ip.ttl(), 0);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn every_uplink_of_a_gateway_switch_exits() {
        // the walker used to know only a gateway switch's first uplink and
        // called the second an unconnected port
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let acc = b.add_switch(SwitchRole::Access);
        b.link(gw, acc).unwrap();
        b.attach_base_station(acc).unwrap();
        b.attach_gateway(gw).unwrap();
        b.attach_gateway(gw).unwrap();
        let topo = b.build().unwrap();
        let mut net = PhysicalNetwork::new(&topo);
        let from_acc = topo.port_towards(gw, acc).unwrap();
        assert_eq!(topo.gateways().len(), 2);
        for (version, uplink) in topo.gateways().iter().enumerate() {
            let m = Match::ANY.with_version(version as u32);
            net.switch_mut(gw)
                .table
                .install(1, m, Action::Forward(uplink.port))
                .unwrap();
            let mut buf = downlink_packet(Ipv4Addr::new(10, 0, 0, 7));
            let out = net
                .walk(&topo, &mut buf, gw, from_acc, version as u32, SimTime::ZERO)
                .unwrap();
            assert_eq!(out, WalkOutcome::ExitedGateway { switch: gw });
        }
        // a port nobody allocated is still an error, not a panic
        net.switch_mut(gw)
            .table
            .install(1, Match::ANY.with_version(9), Action::Forward(PortNo(40)))
            .unwrap();
        let mut buf = downlink_packet(Ipv4Addr::new(10, 0, 0, 7));
        let err = net
            .walk(&topo, &mut buf, gw, from_acc, 9, SimTime::ZERO)
            .unwrap_err();
        assert!(err.to_string().contains("unconnected port"), "{err}");
    }

    #[test]
    fn rule_ops_install_and_remove() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        let m = Match::prefix(Direction::Downlink, "10.0.0.0/23".parse().unwrap());
        net.apply(&RuleOp::Install {
            switch: SwitchId(0),
            priority: 10,
            matcher: m,
            action: Action::Drop,
        })
        .unwrap();
        assert_eq!(net.total_rules(), 1);
        net.apply(&RuleOp::Remove {
            switch: SwitchId(0),
            matcher: m,
        })
        .unwrap();
        assert_eq!(net.total_rules(), 0);
    }

    #[test]
    fn rule_op_for_a_switch_outside_the_topology_is_an_error() {
        let topo = small_topology();
        let mut net = PhysicalNetwork::new(&topo);
        let m = Match::prefix(Direction::Downlink, "10.0.0.0/23".parse().unwrap());
        let install = |switch| RuleOp::Install {
            switch,
            priority: 10,
            matcher: m,
            action: Action::Drop,
        };
        net.apply(&install(SwitchId(0))).unwrap();
        let outside = SwitchId::from_index(topo.switch_count());
        let remove = RuleOp::Remove {
            switch: outside,
            matcher: m,
        };
        for op in [install(outside), remove] {
            let err = net.apply(&op).unwrap_err();
            assert!(matches!(err, Error::NotFound(_)), "{err}");
            assert!(err.to_string().contains("not in network"), "{err}");
            assert_eq!(net.total_rules(), 1, "no table touched");
        }
        // a batch stops at the bad op; a following valid op still applies
        assert!(net
            .apply_all(&[install(outside), install(SwitchId(1))])
            .is_err());
        assert_eq!(net.total_rules(), 1);
        net.apply(&install(SwitchId(1))).unwrap();
        assert_eq!(net.total_rules(), 2);
    }
}
