//! A complete switch: lookup pipeline over microflow + flow tables.
//!
//! The pipeline order models SoftCell's edge/core split:
//!
//! 1. **microflow table** (exact five-tuple) — populated by the local
//!    agent on access switches; performs the §4.1 rewrites;
//! 2. **flow table** (prioritized wildcard rules) — the fabric rules
//!    Algorithm 1 installs; a port-qualified rule may continue at the
//!    location stage ([`Action::GotoLocation`]), which
//!    [`FlowTable::lookup`] resolves to the stage rule it lands on;
//! 3. **miss** — access switches punt to the local agent (packet-in),
//!    core switches drop.
//!
//! `process` applies the winning action to the packet bytes in place
//! (rewrites, DSCP marking) and returns where the packet goes next, so
//! the simulator's per-hop loop is a single call; the TTL decrement
//! belongs to the link crossing and lives with the walker. `process` is
//! a parse followed by [`Switch::process_view`], the one body: a walker
//! parses once and carries the view from hop to hop, and every rewrite
//! writes the bytes and the view together.

use serde::Serialize;
use std::net::Ipv4Addr;

use softcell_packet::{HeaderView, Ipv4Packet, Protocol, TcpSegment, UdpDatagram};
use softcell_types::{PortNo, Result, SimDuration, SimTime, SwitchId};

use crate::matcher::LookupKey;
use crate::microflow::{MicroflowAction, MicroflowTable};
use crate::rule::{top_bits, Action, PortField};
use crate::table::FlowTable;

/// Where a processed packet goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForwardDecision {
    /// Send out this port.
    Out(PortNo),
    /// Punt to the local agent / controller.
    ToController,
    /// Drop the packet.
    Drop,
}

/// Whether a switch runs a microflow table (access edge) or not (core).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum PipelineKind {
    /// Access switch: microflow table first, table-miss punts to agent.
    Access,
    /// Fabric switch: flow table only, table-miss drops.
    Fabric,
}

/// A switch data plane.
#[derive(Clone, Debug)]
pub struct Switch {
    /// This switch's identity.
    pub id: SwitchId,
    /// Pipeline flavour.
    pub kind: PipelineKind,
    /// The exact-match microflow table (used on access switches).
    pub microflow: MicroflowTable,
    /// The wildcard flow table.
    pub table: FlowTable,
    /// The configuration version this switch stamps on ingress traffic
    /// (consistent updates, §3.2 / Reitblatt et al.).
    pub ingress_version: u32,
    /// How long a microflow entry stays after its last packet.
    pub microflow_idle: SimDuration,
}

impl Switch {
    /// Creates an access switch (microflow pipeline, punt on miss).
    pub fn access(id: SwitchId) -> Self {
        Switch {
            id,
            kind: PipelineKind::Access,
            microflow: MicroflowTable::new(),
            table: FlowTable::new(),
            ingress_version: 0,
            microflow_idle: SimDuration::from_secs(30),
        }
    }

    /// Creates a fabric (aggregation/core/gateway) switch.
    pub fn fabric(id: SwitchId) -> Self {
        Switch {
            id,
            kind: PipelineKind::Fabric,
            microflow: MicroflowTable::new(),
            table: FlowTable::new(),
            ingress_version: 0,
            microflow_idle: SimDuration::from_secs(30),
        }
    }

    /// Processes a packet: looks up the pipeline, applies the action to
    /// the bytes in place, and says where it goes. `version` is the
    /// consistent-update stamp riding with the packet (assigned at
    /// ingress from [`Switch::ingress_version`]).
    pub fn process(
        &mut self,
        buffer: &mut [u8],
        in_port: PortNo,
        version: u32,
        now: SimTime,
    ) -> Result<ForwardDecision> {
        let mut view = HeaderView::parse(buffer)?;
        self.process_view(buffer, &mut view, in_port, version, now)
    }

    /// [`Switch::process`] on a packet already parsed: `view` must be
    /// `HeaderView::parse(buffer)`, and a rewrite updates both, so the
    /// caller can carry the view to the next hop.
    pub fn process_view(
        &mut self,
        buffer: &mut [u8],
        view: &mut HeaderView,
        in_port: PortNo,
        version: u32,
        now: SimTime,
    ) -> Result<ForwardDecision> {
        // 1. microflow table (access pipeline only)
        if self.kind == PipelineKind::Access {
            if let Some(action) = self.microflow.lookup(&view.tuple, now, self.microflow_idle) {
                return apply_microflow(buffer, view, action);
            }
        }

        // 2. wildcard flow table
        let key = LookupKey {
            in_port,
            view: *view,
            version,
        };
        if let Some(rule) = self.table.lookup(&key) {
            return apply_rule(buffer, view, rule.action);
        }

        // 3. miss
        Ok(match self.kind {
            PipelineKind::Access => ForwardDecision::ToController,
            PipelineKind::Fabric => ForwardDecision::Drop,
        })
    }
}

fn apply_microflow(
    buffer: &mut [u8],
    view: &mut HeaderView,
    action: MicroflowAction,
) -> Result<ForwardDecision> {
    match action {
        MicroflowAction::RewriteSrc {
            addr,
            port,
            out,
            dscp,
        } => {
            rewrite_endpoint(buffer, view, PortField::Src, addr, port, dscp)?;
            Ok(ForwardDecision::Out(out))
        }
        MicroflowAction::RewriteDst { addr, port, out } => {
            rewrite_endpoint(buffer, view, PortField::Dst, addr, port, None)?;
            Ok(ForwardDecision::Out(out))
        }
        MicroflowAction::Drop => Ok(ForwardDecision::Drop),
    }
}

fn apply_rule(buffer: &mut [u8], view: &mut HeaderView, action: Action) -> Result<ForwardDecision> {
    match action {
        Action::Forward(out) => Ok(ForwardDecision::Out(out)),
        Action::RewriteSrcForward { addr, port, out } => {
            rewrite_endpoint(buffer, view, PortField::Src, addr, port, None)?;
            Ok(ForwardDecision::Out(out))
        }
        Action::RewriteDstForward { addr, port, out } => {
            rewrite_endpoint(buffer, view, PortField::Dst, addr, port, None)?;
            Ok(ForwardDecision::Out(out))
        }
        Action::SetDscpForward { dscp, out } => {
            let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
            ip.set_dscp(dscp);
            view.dscp = ip.dscp();
            ip.fill_checksum();
            Ok(ForwardDecision::Out(out))
        }
        Action::RewritePortBitsForward {
            field,
            value,
            mask,
            out,
        } => {
            let old = match field {
                PortField::Src => view.tuple.src_port,
                PortField::Dst => view.tuple.dst_port,
            };
            let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
            set_port(&mut ip, view, field, (old & !mask) | (value & mask))?;
            ip.fill_checksum();
            Ok(ForwardDecision::Out(out))
        }
        Action::RedirectDstForward {
            addr,
            value,
            tag_bits,
            out,
        } => {
            let mask = top_bits(tag_bits);
            let port = (view.tuple.dst_port & !mask) | (value & mask);
            rewrite_endpoint(buffer, view, PortField::Dst, addr, port, None)?;
            Ok(ForwardDecision::Out(out))
        }
        Action::ToController => Ok(ForwardDecision::ToController),
        // `FlowTable::lookup` continues past a goto rule, so none arrives
        // here; one that did would name no port
        Action::GotoLocation | Action::Drop => Ok(ForwardDecision::Drop),
    }
}

/// Rewrites one endpoint — address and port on the `field` side — and
/// the DSCP when `dscp` is set, then sums the IP header once.
fn rewrite_endpoint(
    buffer: &mut [u8],
    view: &mut HeaderView,
    field: PortField,
    addr: Ipv4Addr,
    port: u16,
    dscp: Option<u8>,
) -> Result<()> {
    let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
    match field {
        PortField::Src => {
            ip.set_src_addr(addr);
            view.tuple.src = addr;
        }
        PortField::Dst => {
            ip.set_dst_addr(addr);
            view.tuple.dst = addr;
        }
    }
    if let Some(d) = dscp {
        ip.set_dscp(d);
        view.dscp = ip.dscp();
    }
    set_port(&mut ip, view, field, port)?;
    ip.fill_checksum();
    Ok(())
}

/// Writes a transport port into the segment and the view; the protocol
/// is the view's, parsed from these bytes.
fn set_port(
    ip: &mut Ipv4Packet<&mut [u8]>,
    view: &mut HeaderView,
    field: PortField,
    port: u16,
) -> Result<()> {
    let payload = ip.payload_mut();
    match (view.tuple.proto, field) {
        (Protocol::Tcp, PortField::Src) => TcpSegment::new_checked(payload)?.set_src_port(port),
        (Protocol::Tcp, PortField::Dst) => TcpSegment::new_checked(payload)?.set_dst_port(port),
        (Protocol::Udp, PortField::Src) => UdpDatagram::new_checked(payload)?.set_src_port(port),
        (Protocol::Udp, PortField::Dst) => UdpDatagram::new_checked(payload)?.set_dst_port(port),
    }
    match field {
        PortField::Src => view.tuple.src_port = port,
        PortField::Dst => view.tuple.dst_port = port,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{conventional_priority, Direction, Match};
    use softcell_packet::{build_flow_packet, FiveTuple};
    use softcell_types::{Ipv4Prefix, PolicyTag, PortEmbedding};

    fn uplink_buf(sp: u16) -> Vec<u8> {
        build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(100, 64, 0, 1),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                src_port: sp,
                dst_port: 443,
                proto: Protocol::Tcp,
            },
            64,
            0,
            b"x",
        )
    }

    #[test]
    fn access_miss_punts_fabric_miss_drops() {
        let mut acc = Switch::access(SwitchId(0));
        let mut core = Switch::fabric(SwitchId(1));
        let mut buf = uplink_buf(1000);
        assert_eq!(
            acc.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap(),
            ForwardDecision::ToController
        );
        assert_eq!(
            core.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap(),
            ForwardDecision::Drop
        );
    }

    #[test]
    fn microflow_rewrites_and_forwards() {
        let mut acc = Switch::access(SwitchId(0));
        let mut buf = uplink_buf(1000);
        let view = HeaderView::parse(&buf).unwrap();
        acc.microflow
            .install(
                view.tuple,
                MicroflowAction::RewriteSrc {
                    addr: Ipv4Addr::new(10, 0, 0, 10),
                    port: 0x0900,
                    out: PortNo(2),
                    dscp: Some(46),
                },
                SimTime::from_secs(30),
            )
            .unwrap();
        let d = acc.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap();
        assert_eq!(d, ForwardDecision::Out(PortNo(2)));
        let after = HeaderView::parse(&buf).unwrap();
        assert_eq!(after.src(), Ipv4Addr::new(10, 0, 0, 10));
        assert_eq!(after.src_port(), 0x0900);
        assert_eq!(after.dscp, 46, "QoS marking applied at the edge");
        assert!(Ipv4Packet::new_checked(&buf[..]).unwrap().verify_checksum());
    }

    #[test]
    fn fabric_matches_tag_rules() {
        let e = PortEmbedding::default_embedding();
        let mut core = Switch::fabric(SwitchId(1));
        let m = Match::tag(Direction::Uplink, PolicyTag(3), &e);
        core.table
            .install(conventional_priority(&m), m, Action::Forward(PortNo(4)))
            .unwrap();
        let mut buf = uplink_buf(e.encode(PolicyTag(3), 2).unwrap());
        assert_eq!(
            core.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap(),
            ForwardDecision::Out(PortNo(4))
        );
        let mut other = uplink_buf(e.encode(PolicyTag(4), 2).unwrap());
        assert_eq!(
            core.process(&mut other, PortNo(1), 0, SimTime::ZERO)
                .unwrap(),
            ForwardDecision::Drop
        );
    }

    #[test]
    fn dscp_action_marks_packet() {
        let mut core = Switch::fabric(SwitchId(1));
        let pref: Ipv4Prefix = "100.64.0.0/10".parse().unwrap();
        let m = Match::prefix(Direction::Uplink, pref);
        core.table
            .install(
                conventional_priority(&m),
                m,
                Action::SetDscpForward {
                    dscp: 46,
                    out: PortNo(2),
                },
            )
            .unwrap();
        let mut buf = uplink_buf(1000);
        core.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap();
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap().dscp(), 46);
    }

    #[test]
    fn version_gated_rules() {
        // Two versions of a rule coexist; the packet's stamp decides.
        let mut core = Switch::fabric(SwitchId(1));
        let m_old = Match::ANY.with_version(1);
        let m_new = Match::ANY.with_version(2);
        core.table
            .install(10, m_old, Action::Forward(PortNo(1)))
            .unwrap();
        core.table
            .install(10, m_new, Action::Forward(PortNo(2)))
            .unwrap();
        let mut buf = uplink_buf(1000);
        assert_eq!(
            core.process(&mut buf, PortNo(1), 1, SimTime::ZERO).unwrap(),
            ForwardDecision::Out(PortNo(1))
        );
        assert_eq!(
            core.process(&mut buf, PortNo(1), 2, SimTime::ZERO).unwrap(),
            ForwardDecision::Out(PortNo(2))
        );
    }

    #[test]
    fn tag_swap_rewrites_port_bits() {
        let e = PortEmbedding::default_embedding();
        let mut core = Switch::fabric(SwitchId(1));
        let (old_val, mask) = e.tag_match(PolicyTag(3));
        let (new_val, _) = e.tag_match(PolicyTag(7));
        let m = Match {
            src_port: Some((old_val, mask)),
            ..Match::ANY
        };
        core.table
            .install(
                100,
                m,
                Action::RewritePortBitsForward {
                    field: PortField::Src,
                    value: new_val,
                    mask,
                    out: PortNo(5),
                },
            )
            .unwrap();
        let mut buf = uplink_buf(e.encode(PolicyTag(3), 9).unwrap());
        let d = core.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap();
        assert_eq!(d, ForwardDecision::Out(PortNo(5)));
        let view = HeaderView::parse(&buf).unwrap();
        let (tag, slot) = e.decode(view.src_port());
        assert_eq!(tag, PolicyTag(7), "tag swapped");
        assert_eq!(slot, 9, "flow slot preserved");
    }

    #[test]
    fn redirect_rewrites_address_and_tag_bits_keeping_the_slot() {
        let e = PortEmbedding::default_embedding();
        let (value, mask) = e.tag_match(PolicyTag(5));
        let current = Ipv4Addr::new(10, 0, 3, 7);
        let redirect = Action::RedirectDstForward {
            addr: current,
            value,
            tag_bits: e.tag_bits(),
            out: PortNo(6),
        };
        assert_eq!(redirect.out_port(), Some(PortNo(6)));
        assert_eq!(
            redirect.to_string(),
            format!("redirect_dst(10.0.3.7,{value:#06x}/{mask:#06x})->forward(p6)")
        );
        let anchor = Ipv4Addr::new(10, 0, 0, 1);
        for proto in [Protocol::Tcp, Protocol::Udp] {
            let mut core = Switch::fabric(SwitchId(1));
            let m = Match::prefix(Direction::Downlink, Ipv4Prefix::host(anchor));
            core.table.install(100, m, redirect).unwrap();
            let tuple = FiveTuple {
                src: Ipv4Addr::new(8, 8, 8, 8),
                dst: anchor,
                src_port: 443,
                dst_port: e.encode(PolicyTag(3), 9).unwrap(),
                proto,
            };
            let mut buf = build_flow_packet(tuple, 64, 0, b"x");
            let d = core.process(&mut buf, PortNo(1), 0, SimTime::ZERO).unwrap();
            assert_eq!(d, ForwardDecision::Out(PortNo(6)), "{proto:?}");
            let view = HeaderView::parse(&buf).unwrap();
            assert_eq!(view.tuple.dst, current, "{proto:?}: address rewritten");
            assert_eq!(
                e.decode(view.dst_port()),
                (PolicyTag(5), 9),
                "{proto:?}: tag bits replaced, slot bits kept"
            );
            assert_eq!(view.tuple.proto, proto);
            assert_eq!((view.tuple.src, view.src_port()), (tuple.src, 443));
            assert!(Ipv4Packet::new_checked(&buf[..]).unwrap().verify_checksum());
        }
    }

    #[test]
    fn process_rejects_garbage() {
        let mut core = Switch::fabric(SwitchId(1));
        let mut junk = vec![0u8; 10];
        assert!(core
            .process(&mut junk, PortNo(1), 0, SimTime::ZERO)
            .is_err());
    }
}
