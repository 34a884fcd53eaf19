//! The full SoftCell harness: controller + agents + data plane +
//! Internet echo, with end-to-end drivers for attach, flows, round trips
//! and handoffs.
//!
//! This is the integration point every paper promise is checked against:
//! a flow started here produces real packets that traverse real switch
//! pipelines; classification happens where SoftCell says it must (the
//! access edge), the gateway forwards downlink traffic on embedded state
//! alone, and the middlebox tracker witnesses policy consistency.

use std::net::Ipv4Addr;

use softcell_controller::agent::{FlowSetup, LocalAgent};
use softcell_controller::mobility::FlowRecord;
use softcell_controller::{CentralController, ControllerConfig, Input, Output};
use softcell_packet::{build_flow_packet, FiveTuple, FlowNat, HeaderView, Protocol};
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_topology::Topology;
use softcell_types::{BaseStationId, Error, Result, SimDuration, SimTime, UeImsi};

use crate::middlebox::{ConnKey, MiddleboxTracker};
use crate::net::{PhysicalNetwork, WalkOutcome};

/// Handle to a connection the world is driving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnId(pub usize);

/// One UE-initiated connection.
#[derive(Clone, Debug)]
pub struct Connection {
    /// Owning subscriber.
    pub imsi: UeImsi,
    /// The five-tuple as the UE sends it (permanent source address).
    pub ue_tuple: FiveTuple,
    /// The tuple as the Internet sees it (after the access-edge rewrite),
    /// known after the first uplink packet.
    pub internet_tuple: Option<FiveTuple>,
    /// The middlebox-tracker key, known after the first uplink packet.
    pub key: Option<ConnKey>,
    /// Uplink packets sent.
    pub uplink_sent: u64,
    /// Downlink packets delivered.
    pub downlink_delivered: u64,
}

/// The simulated world.
pub struct SimWorld<'t> {
    /// Borrowed, not a held handle, because `perf/` names `SimWorld<'t>`.
    topo: &'t Topology,
    /// The central controller.
    pub controller: CentralController,
    agents: Vec<LocalAgent>,
    /// The data plane.
    pub net: PhysicalNetwork,
    connections: Vec<Connection>,
    now: SimTime,
    next_src_port: u16,
    /// Optional per-flow NAT at the gateway edge (paper §4.1's privacy
    /// mechanism): fresh public endpoints per flow, uncorrelated with
    /// UE location.
    nat: Option<FlowNat>,
    /// DSCP of the most recent uplink packet at gateway exit (QoS
    /// verification).
    last_exit_dscp: Option<u8>,
}

impl<'t> SimWorld<'t> {
    /// Builds a world over a topology with the given service policy.
    pub fn new(topo: &'t Topology, policy: ServicePolicy) -> SimWorld<'t> {
        let cfg = ControllerConfig::simulation();
        let controller = CentralController::new(topo, cfg, policy);
        let agents = topo
            .base_stations()
            .iter()
            .map(|bs| LocalAgent::new(bs.id, bs.radio_port, cfg.scheme, cfg.ports))
            .collect();
        let mut net = PhysicalNetwork::new(topo);
        net.middleboxes = MiddleboxTracker::new(cfg.scheme, cfg.ports);
        SimWorld {
            topo,
            controller,
            agents,
            net,
            connections: Vec::new(),
            now: SimTime::ZERO,
            next_src_port: 49_152,
            nat: None,
            last_exit_dscp: None,
        }
    }

    /// DSCP carried by the most recent uplink packet as it left the
    /// gateway (`None` before any uplink exit).
    pub fn last_uplink_dscp(&self) -> Option<u8> {
        self.last_exit_dscp
    }

    /// Enables the gateway-edge flow NAT (paper §4.1): uplink packets
    /// leaving the gateway are rewritten to a fresh public endpoint per
    /// flow; inbound packets are translated back before entering the
    /// fabric.
    pub fn enable_gateway_nat(&mut self, public_pool: softcell_types::Ipv4Prefix, seed: u64) {
        self.nat = Some(FlowNat::new(public_pool, seed).expect("valid NAT pool"));
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances simulated time.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// The agent of one base station.
    pub fn agent(&self, bs: BaseStationId) -> &LocalAgent {
        &self.agents[bs.index()]
    }

    /// Registers a subscriber.
    pub fn provision(&mut self, attrs: SubscriberAttributes) {
        self.controller.put_subscriber(attrs);
    }

    /// Attaches a UE at a base station (through that station's agent).
    pub fn attach(&mut self, imsi: UeImsi, bs: BaseStationId) -> Result<()> {
        self.agents[bs.index()].handle_attach(imsi, &mut self.controller, self.now)?;
        self.apply_pending_ops().map(drop)
    }

    /// Detaches a UE (through its current station's agent). Its flows'
    /// microflow entries come down with it: left behind, one would catch
    /// a later flow keyed the same (a freed location, a reused tunnel
    /// tag and slot) and deliver it to this UE. Mobility teardown rules
    /// queued by the controller are applied immediately, and the ids of
    /// locations an aborted transition freed go back to their stations'
    /// agents.
    pub fn detach(&mut self, imsi: UeImsi) -> Result<()> {
        let bs = self.controller.state().ue(imsi)?.bs;
        let keys: Vec<FiveTuple> = (self.agents[bs.index()].flows_of(imsi)?.iter())
            .flat_map(|f| [f.uplink, f.downlink])
            .collect();
        self.agents[bs.index()].handle_detach(imsi, &mut self.controller)?;
        let access = self.topo.base_station(bs).access_switch;
        for key in &keys {
            self.net.switch_mut(access).microflow.remove(key);
        }
        self.apply_pending_ops()?;
        self.return_released_ue_ids();
        Ok(())
    }

    /// Mobility housekeeping: expires the transitions whose soft timeout
    /// has passed, applies their teardown to the data plane, and hands
    /// each released location's id back to its station's agent (§5.1:
    /// the old address is assignable again only now). Returns the number
    /// of rules torn down.
    pub fn expire_transitions(&mut self) -> Result<usize> {
        self.controller.apply(&Input::Expire { now: self.now })?;
        let torn_down = self.apply_pending_ops()?;
        self.return_released_ue_ids();
        Ok(torn_down)
    }

    fn return_released_ue_ids(&mut self) {
        for (bs, ue_id) in self.controller.drain_released_locations() {
            self.agents[bs.index()].release_ue_id(ue_id);
        }
    }

    /// Opens a connection from a UE towards an Internet endpoint.
    pub fn start_connection(
        &mut self,
        imsi: UeImsi,
        dst: Ipv4Addr,
        dst_port: u16,
        proto: Protocol,
    ) -> Result<ConnId> {
        let src_port = self.next_src_port;
        self.next_src_port = self.next_src_port.wrapping_add(1).max(49_152);
        self.start_connection_from_port(imsi, dst, dst_port, proto, src_port)
    }

    /// Opens a connection with an explicit source port (services replying
    /// from their well-known port).
    pub fn start_connection_from_port(
        &mut self,
        imsi: UeImsi,
        dst: Ipv4Addr,
        dst_port: u16,
        proto: Protocol,
        src_port: u16,
    ) -> Result<ConnId> {
        let rec = self.controller.state().ue(imsi)?;
        self.connections.push(Connection {
            imsi,
            ue_tuple: FiveTuple {
                src: rec.permanent_ip,
                dst,
                src_port,
                dst_port,
                proto,
            },
            internet_tuple: None,
            key: None,
            uplink_sent: 0,
            downlink_delivered: 0,
        });
        Ok(ConnId(self.connections.len() - 1))
    }

    /// A connection's record.
    pub fn connection(&self, id: ConnId) -> &Connection {
        &self.connections[id.0]
    }

    /// Sends one uplink packet on a connection: radio → access switch →
    /// (first packet: agent classification) → fabric → gateway exit.
    /// Returns the outcome; on exit, records the Internet-side tuple.
    pub fn send_uplink(&mut self, id: ConnId, payload: &[u8]) -> Result<WalkOutcome> {
        let (imsi, tuple) = {
            let c = &self.connections[id.0];
            (c.imsi, c.ue_tuple)
        };
        let bs = self.controller.state().ue(imsi)?.bs;
        let station = self.topo.base_station(bs);
        let access = station.access_switch;
        let radio = station.radio_port;

        let mut buf = build_flow_packet(tuple, 64, 0, payload);
        let version = self.net.switch(access).ingress_version;
        let mut outcome = self
            .net
            .walk(self.topo, &mut buf, access, radio, version, self.now)?;

        if let WalkOutcome::PuntedToAgent { switch, .. } = outcome {
            if switch != access {
                return Err(Error::InvalidState(format!(
                    "punt at non-origin switch {switch}"
                )));
            }
            // packet-in: the local agent classifies and installs rules
            let view = HeaderView::parse(&buf)?;
            let setup = self.agents[bs.index()].handle_new_flow(
                &view,
                &mut self.controller,
                self.net.switch_mut(access),
                self.now,
            )?;
            self.apply_pending_ops()?;
            if let FlowSetup::Denied { .. } = setup {
                return Ok(WalkOutcome::Dropped { switch: access });
            }
            // the original packet is re-processed (the agent re-injects)
            let mut buf2 = build_flow_packet(tuple, 64, 0, payload);
            outcome = self
                .net
                .walk(self.topo, &mut buf2, access, radio, version, self.now)?;
            buf = buf2;
        }

        if let WalkOutcome::ExitedGateway { .. } = outcome {
            // the middlebox-tracker key comes from the pre-NAT form (the
            // fabric saw LocIPs). Service replies exit with a public
            // source (the gateway restored it in-fabric) and have no
            // LocIP key — their consistency is tracked by the inbound
            // direction instead.
            let fabric_view = HeaderView::parse(&buf)?;
            let key = self
                .net
                .middleboxes
                .key_of(&fabric_view)
                .ok()
                .map(|(k, _)| k);
            // the gateway NAT rewrites to the public endpoint the
            // Internet will actually see
            if let Some(nat) = &mut self.nat {
                nat.translate_outbound(&mut buf)?;
            }
            let exit_view = HeaderView::parse(&buf)?;
            self.last_exit_dscp = Some(exit_view.dscp);
            let c = &mut self.connections[id.0];
            c.uplink_sent += 1;
            if c.internet_tuple.is_none() {
                c.internet_tuple = Some(exit_view.tuple);
                c.key = key;
            }
        }
        Ok(outcome)
    }

    /// Delivers one downlink packet: the Internet endpoint echoes the
    /// connection's tuple; the packet enters at the gateway and must
    /// reach the UE's radio with its permanent address restored.
    pub fn deliver_downlink(&mut self, id: ConnId, payload: &[u8]) -> Result<WalkOutcome> {
        let (imsi, internet_tuple, ue_tuple) = {
            let c = &self.connections[id.0];
            let t = c
                .internet_tuple
                .ok_or_else(|| Error::InvalidState("no uplink packet has exited yet".into()))?;
            (c.imsi, t, c.ue_tuple)
        };
        let gw = self.topo.default_gateway();
        let mut buf = build_flow_packet(internet_tuple.reverse(), 200, 0, payload);
        // inbound NAT: public destination back to the embedded LocIP
        // endpoint before the (dumb) gateway forwards it
        if let Some(nat) = &self.nat {
            nat.translate_inbound(&mut buf)?;
        }
        let version = self.net.switch(gw.switch).ingress_version;
        let outcome = self
            .net
            .walk(self.topo, &mut buf, gw.switch, gw.port, version, self.now)?;

        if let WalkOutcome::DeliveredToRadio { switch } = outcome {
            // delivery correctness: permanent endpoint restored, at the
            // UE's *current* station
            let view = HeaderView::parse(&buf)?;
            if view.dst() != ue_tuple.src || view.dst_port() != ue_tuple.src_port {
                return Err(Error::InvalidState(format!(
                    "delivered to {}:{} instead of {}:{}",
                    view.dst(),
                    view.dst_port(),
                    ue_tuple.src,
                    ue_tuple.src_port
                )));
            }
            let bs = self.controller.state().ue(imsi)?.bs;
            let expected = self.topo.base_station(bs).access_switch;
            if switch != expected {
                return Err(Error::InvalidState(format!(
                    "delivered at {switch}, UE is at {expected}"
                )));
            }
            self.connections[id.0].downlink_delivered += 1;
        }
        Ok(outcome)
    }

    /// One full round trip (uplink then its echo), asserting both legs
    /// complete.
    pub fn round_trip(&mut self, id: ConnId) -> Result<()> {
        match self.send_uplink(id, b"ping")? {
            WalkOutcome::ExitedGateway { .. } => {}
            other => {
                return Err(Error::InvalidState(format!(
                    "uplink did not exit: {other:?}"
                )))
            }
        }
        match self.deliver_downlink(id, b"pong")? {
            WalkOutcome::DeliveredToRadio { .. } => Ok(()),
            other => Err(Error::InvalidState(format!(
                "downlink not delivered: {other:?}"
            ))),
        }
    }

    /// Hands a UE over to a new base station, applying the controller's
    /// plan to the data plane and both agents.
    pub fn handoff(&mut self, imsi: UeImsi, to: BaseStationId) -> Result<()> {
        let old_bs = self.controller.state().ue(imsi)?.bs;
        if old_bs == to {
            return Err(Error::InvalidState("handoff to the same station".into()));
        }
        let old_access = self.topo.base_station(old_bs).access_switch;

        // gather the UE's active flows from the old agent + switch
        let flows: Vec<FlowRecord> = {
            let agent = &self.agents[old_bs.index()];
            let sw = self.net.switch(old_access);
            agent
                .flows_of(imsi)?
                .iter()
                .filter_map(|f| {
                    let up_e = sw.microflow.peek(&f.uplink)?;
                    let down_e = sw.microflow.peek(&f.downlink)?;
                    Some(FlowRecord {
                        uplink: f.uplink,
                        downlink: f.downlink,
                        downlink_original: f.downlink_original,
                        up_action: up_e.action,
                        down_action: down_e.action,
                    })
                })
                .collect()
        };

        // a UE id from the target station's pool, back to it if the
        // controller refuses the move
        let new_ue_id = self.agents[to.index()].reserve_ue_id()?;
        let plan = match self
            .controller
            .handoff(imsi, to, new_ue_id, &flows, self.now)
        {
            Ok(plan) => plan,
            Err(e) => {
                self.agents[to.index()].release_ue_id(new_ue_id);
                return Err(e);
            }
        };

        // apply: fabric rules, microflow surgery, agent bookkeeping
        self.apply_pending_ops()?;
        for t in &plan.old_microflow_removals {
            self.net.switch_mut(old_access).microflow.remove(t);
        }
        let new_access = self.topo.base_station(to).access_switch;
        // Carried entries must not outlive the mobility transition that
        // re-keyed them: once the transition (and its launch specs)
        // expires, a still-live carried entry would make the agent
        // gather the dead flow into the *next* handoff, whose plan then
        // fails for want of launch specs. Expiring both on the same
        // deadline keeps agent, switch and mobility state in lock-step.
        let deadline = self.now + self.controller.mobility().transition_ttl;
        for (tuple, action) in &plan.new_microflow_installs {
            self.net
                .switch_mut(new_access)
                .microflow
                .install(*tuple, *action, deadline)?;
        }
        self.agents[old_bs.index()].evict(imsi)?;
        self.agents[to.index()].adopt(plan.new, plan.classifier.clone())?;
        self.agents[to.index()].adopt_flows(imsi, plan.carried_flows.clone())?;
        Ok(())
    }

    /// Exposes a UE as an Internet-reachable service on a public address
    /// (paper §7, "Traffic initiated from the Internet"): the gateway
    /// "acts like an access switch", holding **coarse-grained,
    /// installed-once** classifiers that translate the public endpoint
    /// to the LocIP + policy tag; the UE-side access switch translates
    /// back for delivery. No per-flow state, no controller round trips
    /// per connection.
    pub fn expose_service(
        &mut self,
        imsi: UeImsi,
        public: Ipv4Addr,
        service_port: u16,
        proto: Protocol,
    ) -> Result<()> {
        let rec = *self.controller.state().ue(imsi)?;
        let scheme = self.controller.config().scheme;
        let ports = self.controller.config().ports;

        // the governing clause, as if the UE had opened the flow itself
        let clause = self.agents[rec.bs.index()]
            .ue(imsi)?
            .classifier
            .classify(proto, service_port)
            .ok_or_else(|| Error::NotFound("no clause for service".into()))?
            .clause;
        let tags = self.controller.request_policy_path(rec.bs, clause)?;
        self.apply_pending_ops()?;

        let loc = scheme.encode(softcell_types::LocIp::new(rec.bs, rec.ue_id))?;
        let gw = self.topo.default_gateway();
        const SERVICE_SLOT: u16 = 0;

        // the gateway's downlink next hop for this path
        let path = self
            .controller
            .routed_path(rec.bs, clause)
            .ok_or_else(|| Error::NotFound("policy path not recorded".into()))?;
        let next = path.hops[path.hops.len() - 2].switch;
        let gw_out = self
            .topo
            .port_towards(gw.switch, next)
            .ok_or_else(|| Error::NotFound("gateway unlinked from path".into()))?;

        use softcell_dataplane::matcher::Match;
        use softcell_dataplane::Action;
        // inbound: public endpoint → (LocIP, tag) + forward onto the
        // policy path (downlink entry carries the uplink exit tag)
        let m_in = Match {
            dst_prefix: Some(softcell_types::Ipv4Prefix::host(public)),
            dst_port: Some((service_port, u16::MAX)),
            proto: Some(proto),
            ..Match::ANY
        };
        self.net.apply(&softcell_controller::RuleOp::Install {
            switch: gw.switch,
            priority: 60_000,
            matcher: m_in,
            action: Action::RewriteDstForward {
                addr: loc,
                port: ports.encode(tags.uplink_exit, SERVICE_SLOT)?,
                out: gw_out,
            },
        })?;

        // delivery at the access switch: coarse rule (not a microflow —
        // the remote endpoint is unknown a priori)
        let access = self.topo.base_station(rec.bs).access_switch;
        let radio = self.topo.base_station(rec.bs).radio_port;
        let m_deliver = Match {
            dst_prefix: Some(softcell_types::Ipv4Prefix::host(loc)),
            dst_port: Some((ports.encode(tags.downlink_final, SERVICE_SLOT)?, u16::MAX)),
            proto: Some(proto),
            ..Match::ANY
        };
        self.net.apply(&softcell_controller::RuleOp::Install {
            switch: access,
            priority: 60_000,
            matcher: m_deliver,
            action: Action::RewriteDstForward {
                addr: rec.permanent_ip,
                port: service_port,
                out: radio,
            },
        })?;

        // replies: when the service answers from its LocIP, the gateway
        // restores the public endpoint before the packet exits
        let m_reply = Match {
            src_prefix: Some(softcell_types::Ipv4Prefix::host(loc)),
            proto: Some(proto),
            ..Match::ANY
        };
        self.net.apply(&softcell_controller::RuleOp::Install {
            switch: gw.switch,
            priority: 60_000,
            matcher: m_reply,
            action: Action::RewriteSrcForward {
                addr: public,
                port: service_port,
                out: gw.port,
            },
        })?;
        Ok(())
    }

    /// Injects an Internet-initiated request towards an exposed service
    /// and walks it to delivery.
    pub fn inbound_request(
        &mut self,
        remote: Ipv4Addr,
        remote_port: u16,
        public: Ipv4Addr,
        service_port: u16,
        proto: Protocol,
        payload: &[u8],
    ) -> Result<(WalkOutcome, Vec<u8>)> {
        let gw = *self.topo.default_gateway();
        let tuple = FiveTuple {
            src: remote,
            dst: public,
            src_port: remote_port,
            dst_port: service_port,
            proto,
        };
        let mut buf = build_flow_packet(tuple, 64, 0, payload);
        let version = self.net.switch(gw.switch).ingress_version;
        let out = self
            .net
            .walk(self.topo, &mut buf, gw.switch, gw.port, version, self.now)?;
        Ok((out, buf))
    }

    /// Opens a mobile-to-mobile connection (paper §7): traffic between
    /// two UEs of this core network takes a direct path through the
    /// clause's middlebox chain, never touching the gateway. Returns a
    /// connection whose `ue_tuple` runs a→b; [`Self::send_m2m`] drives
    /// either direction.
    pub fn start_m2m_connection(
        &mut self,
        a: UeImsi,
        b: UeImsi,
        dst_port: u16,
        proto: Protocol,
    ) -> Result<ConnId> {
        let rec_a = *self.controller.state().ue(a)?;
        let rec_b = *self.controller.state().ue(b)?;
        let scheme = self.controller.config().scheme;
        let ports = self.controller.config().ports;

        let src_port = self.next_src_port;
        self.next_src_port = self.next_src_port.wrapping_add(1).max(49_152);
        let tuple = FiveTuple {
            src: rec_a.permanent_ip,
            dst: rec_b.permanent_ip,
            src_port,
            dst_port,
            proto,
        };

        // the clause comes from the sender's classifier, as for any flow
        let clause = self.agents[rec_a.bs.index()]
            .ue(a)?
            .classifier
            .classify(proto, dst_port)
            .ok_or_else(|| Error::NotFound("no clause for m2m flow".into()))?
            .clause;

        let mut m2m = |from, to| -> Result<_> {
            let input = Input::M2mPath { from, to, clause };
            let Output::Path(tags) = self.controller.apply(&input)? else {
                unreachable!("an m2m request answers with its path")
            };
            Ok(tags)
        };
        let (fwd, rev) = (m2m(rec_a.bs, rec_b.bs)?, m2m(rec_b.bs, rec_a.bs)?);
        self.apply_pending_ops()?;

        let slot = (self.connections.len() % 32) as u16;
        let loc_a = scheme.encode(softcell_types::LocIp::new(rec_a.bs, rec_a.ue_id))?;
        let loc_b = scheme.encode(softcell_types::LocIp::new(rec_b.bs, rec_b.ue_id))?;
        let access_a = self.topo.base_station(rec_a.bs).access_switch;
        let access_b = self.topo.base_station(rec_b.bs).access_switch;
        let radio_a = self.topo.base_station(rec_a.bs).radio_port;
        let radio_b = self.topo.base_station(rec_b.bs).radio_port;
        let deadline = self.now + SimDuration::from_secs(300);

        // a → b: rewrite the destination to b's LocIP carrying the tag
        self.net.switch_mut(access_a).microflow.install(
            tuple,
            softcell_dataplane::MicroflowAction::RewriteDst {
                addr: loc_b,
                port: ports.encode(fwd.uplink_entry, slot)?,
                out: fwd.access_out_port,
            },
            deadline,
        )?;
        // delivery at b
        let arriving_ab = FiveTuple {
            dst: loc_b,
            dst_port: ports.encode(fwd.downlink_final, slot)?,
            ..tuple
        };
        self.net.switch_mut(access_b).microflow.install(
            arriving_ab,
            softcell_dataplane::MicroflowAction::RewriteDst {
                addr: rec_b.permanent_ip,
                port: dst_port,
                out: radio_b,
            },
            deadline,
        )?;
        // b → a mirror
        let reply = tuple.reverse();
        self.net.switch_mut(access_b).microflow.install(
            reply,
            softcell_dataplane::MicroflowAction::RewriteDst {
                addr: loc_a,
                port: ports.encode(rev.uplink_entry, slot)?,
                out: rev.access_out_port,
            },
            deadline,
        )?;
        let arriving_ba = FiveTuple {
            dst: loc_a,
            dst_port: ports.encode(rev.downlink_final, slot)?,
            ..reply
        };
        self.net.switch_mut(access_a).microflow.install(
            arriving_ba,
            softcell_dataplane::MicroflowAction::RewriteDst {
                addr: rec_a.permanent_ip,
                port: src_port,
                out: radio_a,
            },
            deadline,
        )?;

        self.connections.push(Connection {
            imsi: a,
            ue_tuple: tuple,
            internet_tuple: None,
            key: None,
            uplink_sent: 0,
            downlink_delivered: 0,
        });
        Ok(ConnId(self.connections.len() - 1))
    }

    /// Sends one m2m packet (a→b when `forward`, b→a otherwise) and
    /// checks delivery at the peer's radio with the permanent endpoint
    /// restored.
    pub fn send_m2m(&mut self, id: ConnId, forward: bool, payload: &[u8]) -> Result<WalkOutcome> {
        let tuple = {
            let t = self.connections[id.0].ue_tuple;
            if forward {
                t
            } else {
                t.reverse()
            }
        };
        // resolve sender/receiver stations by permanent address
        let (sender_bs, expect_dst, expect_port) = {
            let mut sender = None;
            for rec in self.controller.state().attached() {
                if rec.permanent_ip == tuple.src {
                    sender = Some(rec.bs);
                }
            }
            (
                sender.ok_or_else(|| Error::NotFound("m2m sender not attached".into()))?,
                tuple.dst,
                tuple.dst_port,
            )
        };
        let station = self.topo.base_station(sender_bs);
        let mut buf = build_flow_packet(tuple, 64, 0, payload);
        let version = self.net.switch(station.access_switch).ingress_version;
        let out = self.net.walk(
            self.topo,
            &mut buf,
            station.access_switch,
            station.radio_port,
            version,
            self.now,
        )?;
        if let WalkOutcome::DeliveredToRadio { .. } = out {
            let view = HeaderView::parse(&buf)?;
            if view.dst() != expect_dst || view.dst_port() != expect_port {
                return Err(Error::InvalidState(format!(
                    "m2m delivered to {}:{} instead of {}:{}",
                    view.dst(),
                    view.dst_port(),
                    expect_dst,
                    expect_port
                )));
            }
            if forward {
                self.connections[id.0].uplink_sent += 1;
            } else {
                self.connections[id.0].downlink_delivered += 1;
            }
        }
        Ok(out)
    }

    /// Installs a §5.1 shortcut for one connection: per-flow rules that
    /// splice its downlink from the best meet point on the old policy
    /// path directly to the UE's current station, cutting the triangle
    /// through the anchor. Call after a handoff.
    pub fn install_shortcut(&mut self, id: ConnId) -> Result<()> {
        let imsi = self.connections[id.0].imsi;
        let ue_tuple = self.connections[id.0].ue_tuple;
        let rec = *self.controller.state().ue(imsi)?;
        let agent = &self.agents[rec.bs.index()];
        let flow = agent
            .flows_of(imsi)?
            .iter()
            .find(|f| f.uplink == ue_tuple)
            .copied()
            .ok_or_else(|| Error::NotFound("connection has no agent flow record".into()))?;

        // the anchor and clause identify the old policy path
        let scheme = self.controller.config().scheme;
        let anchor_bs = scheme.decode(flow.downlink_original.dst)?.base_station;
        let clause = agent
            .ue(imsi)?
            .classifier
            .classify(ue_tuple.proto, ue_tuple.dst_port)
            .ok_or_else(|| Error::NotFound("no clause for connection".into()))?
            .clause;
        let old_path: Vec<softcell_types::SwitchId> = self
            .controller
            .routed_path(anchor_bs, clause)
            .ok_or_else(|| Error::NotFound("old policy path not recorded".into()))?
            .hops
            .iter()
            .map(|h| h.switch)
            .collect();

        self.controller.apply(&Input::Shortcut {
            imsi,
            old_path,
            downlink: flow.downlink_original,
            now: self.now,
        })?;
        self.apply_pending_ops()?;

        // shortcut packets arrive with the *original* tag (they bypass
        // the anchor's tunnel rewrite): the current station needs an
        // original-keyed delivery entry alongside the tunnel-keyed one
        let new_access = self.topo.base_station(rec.bs).access_switch;
        let radio = self.topo.base_station(rec.bs).radio_port;
        self.net.switch_mut(new_access).microflow.install(
            flow.downlink_original,
            softcell_dataplane::MicroflowAction::RewriteDst {
                addr: ue_tuple.src,
                port: ue_tuple.src_port,
                out: radio,
            },
            self.now + SimDuration::from_secs(300),
        )?;
        Ok(())
    }

    /// Runs the §3.2 offline recompute and applies its migration to the
    /// data plane: fabric rules are swapped for the leaner recomputed
    /// set and every agent's tag cache is flushed (the cached tags name
    /// retired rules). Established connections must re-classify on
    /// their next flow; in-flight microflow entries drain naturally.
    pub fn apply_reoptimization(&mut self) -> Result<softcell_controller::offline::OfflineOutcome> {
        let Output::Reoptimized(outcome) = self.controller.apply(&Input::Reoptimize)? else {
            unreachable!("the offline pass answers with its outcome")
        };
        self.apply_pending_ops()?;
        for agent in &mut self.agents {
            agent.clear_tag_cache();
        }
        Ok(outcome)
    }

    /// Crashes and restarts one base station's local agent, refetching
    /// its state from the controller (the §5.2 recovery drill). The
    /// access switch's microflow entries survive (the switch did not
    /// crash); the agent's caches are rebuilt.
    pub fn restart_agent(&mut self, bs: BaseStationId) -> Result<usize> {
        let grants = self.controller.grants_for_station(bs)?;
        let reserved = self.controller.state().reserved_at(bs);
        self.agents[bs.index()].restart_from(grants, reserved)
    }

    /// Retires agent-side flow records whose microflow entries have
    /// idled out of their access switches, freeing the UEs' flow slots
    /// (see `LocalAgent::retire_expired_flows`). Returns the number of
    /// flows retired across all stations. Call alongside
    /// `microflow.expire_idle` at housekeeping boundaries — long
    /// campaigns leak slots without it.
    pub fn retire_expired_flows(&mut self) -> usize {
        let mut retired = 0;
        for bs in self.topo.base_stations() {
            let sw = self.net.switch(bs.access_switch);
            retired += self.agents[bs.id.index()].retire_expired_flows(sw);
        }
        retired
    }

    /// Asserts policy consistency for every connection that has carried
    /// traffic, after one more round trip on each that is still live: a
    /// path installed after a connection's last packet can change where
    /// its packets go.
    pub fn assert_policy_consistency(&mut self) -> Result<()> {
        for id in 0..self.connections.len() {
            if self.is_live(&self.connections[id]) {
                self.round_trip(ConnId(id))?;
            }
        }
        for c in &self.connections {
            if let Some(key) = c.key {
                self.net.middleboxes.assert_consistent(&key)?;
            }
        }
        Ok(())
    }

    /// Whether a connection that has carried traffic still does: the
    /// agent of its UE's station holds the flow (a detach drops it), and
    /// the flow's microflow entry at that station's access switch has
    /// not idled out (a carried flow's dies with its transition).
    fn is_live(&self, c: &Connection) -> bool {
        let Ok(ue) = self.controller.state().ue(c.imsi) else {
            return false;
        };
        let flows = self.agents[ue.bs.index()].flows_of(c.imsi);
        let held = flows.is_ok_and(|flows| flows.iter().any(|f| f.uplink == c.ue_tuple));
        let access = self.topo.base_station(ue.bs).access_switch;
        let entry = self.net.switch(access).microflow.peek(&c.ue_tuple);
        c.key.is_some() && held && entry.is_some_and(|e| e.idle_deadline > self.now)
    }

    /// Applies the engine's pending rule ops; returns how many there were.
    fn apply_pending_ops(&mut self) -> Result<usize> {
        // drain through the per-switch batched form — the same path the
        // sharded controller ships over the wire as `flow_mod_batch` —
        // so every simulation run exercises batching
        let mut applied = 0;
        for batch in self.controller.drain_op_batches() {
            self.net.apply_all(&batch.ops)?;
            applied += batch.ops.len();
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_topology::small_topology;
    use softcell_types::UeId;

    fn world(topo: &Topology) -> SimWorld<'_> {
        let mut w = SimWorld::new(topo, ServicePolicy::example_carrier_a(1));
        for i in 0..8 {
            w.provision(SubscriberAttributes::default_home(UeImsi(i)));
        }
        w
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    #[test]
    fn web_flow_round_trips_through_firewall() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        w.assert_policy_consistency().unwrap();

        // the catch-all clause routes through the firewall, both ways
        let key = w.connection(c).key.unwrap();
        let fw = topo.instances_of(softcell_types::MiddleboxKind::Firewall)[0];
        assert_eq!(w.net.middleboxes.chain_of(&key, true), vec![fw]);
        assert_eq!(w.net.middleboxes.chain_of(&key, false), vec![fw]);
    }

    #[test]
    fn video_flow_traverses_firewall_then_transcoder() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(1)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 554, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        let key = w.connection(c).key.unwrap();
        let fw = topo.instances_of(softcell_types::MiddleboxKind::Firewall)[0];
        let tc = topo.instances_of(softcell_types::MiddleboxKind::Transcoder)[0];
        assert_eq!(w.net.middleboxes.chain_of(&key, true), vec![fw, tc]);
        assert_eq!(
            w.net.middleboxes.chain_of(&key, false),
            vec![tc, fw],
            "downlink mirrors the chain"
        );
        w.assert_policy_consistency().unwrap();
    }

    #[test]
    fn second_flow_same_clause_skips_controller() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c1 = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        let c2 = w
            .start_connection(UeImsi(0), SERVER, 80, Protocol::Tcp)
            .unwrap();
        w.round_trip(c1).unwrap();
        w.round_trip(c2).unwrap();
        let stats = w.agent(BaseStationId(0)).stats();
        assert_eq!(stats.cache_misses, 1, "only the first flow escalates");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn foreign_subscriber_is_dropped_at_the_edge() {
        let topo = small_topology();
        let mut w = world(&topo);
        let mut attrs = SubscriberAttributes::default_home(UeImsi(6));
        attrs.provider = softcell_policy::Provider::Foreign(4);
        w.provision(attrs);
        w.attach(UeImsi(6), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(6), SERVER, 443, Protocol::Tcp)
            .unwrap();
        let out = w.send_uplink(c, b"x").unwrap();
        assert!(matches!(out, WalkOutcome::Dropped { .. }));
        assert_eq!(w.net.middleboxes.total_packets(), 0);
    }

    #[test]
    fn gateway_performs_no_classification() {
        // The gateway's flow table must contain no microflow-grade
        // entries: downlink forwarding rides on tag/prefix rules alone.
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        let gw = w.net.switch(topo.default_gateway().switch);
        assert_eq!(gw.microflow.len(), 0, "no microflow state at the gateway");
        for rule in gw.table.iter() {
            // every gateway rule is a tag and/or prefix rule, never an
            // exact five-tuple
            assert!(
                rule.matcher
                    .dst_port
                    .map(|(_, m)| m != u16::MAX)
                    .unwrap_or(true),
                "gateway rule {rule} matches an exact port"
            );
        }
    }

    #[test]
    fn packets_of_two_ues_stay_separate() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        w.attach(UeImsi(1), BaseStationId(0)).unwrap();
        let c0 = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        let c1 = w
            .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c0).unwrap();
        w.round_trip(c1).unwrap();
        let k0 = w.connection(c0).key.unwrap();
        let k1 = w.connection(c1).key.unwrap();
        assert_ne!(k0, k1, "distinct UEs have distinct LocIPs");
        w.assert_policy_consistency().unwrap();
    }

    #[test]
    fn handoff_preserves_policy_consistency() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 554, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();

        // move to a station under the other aggregation switch
        w.handoff(UeImsi(0), BaseStationId(3)).unwrap();

        // the old flow keeps working in both directions...
        w.round_trip(c).unwrap();
        // ...through the same middlebox instances
        w.assert_policy_consistency().unwrap();
        // and is delivered at the new station (checked inside
        // deliver_downlink against the controller's location record)
        assert_eq!(
            w.controller.state().ue(UeImsi(0)).unwrap().bs,
            BaseStationId(3)
        );
    }

    #[test]
    fn new_flow_after_handoff_uses_new_location() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c_old = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c_old).unwrap();
        w.handoff(UeImsi(0), BaseStationId(3)).unwrap();

        let c_new = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c_new).unwrap();

        let scheme = w.controller.config().scheme;
        let old_loc = scheme.decode(w.connection(c_old).key.unwrap().loc).unwrap();
        let new_loc = scheme.decode(w.connection(c_new).key.unwrap().loc).unwrap();
        assert_eq!(
            old_loc.base_station,
            BaseStationId(0),
            "old flow keeps old LocIP"
        );
        assert_eq!(
            new_loc.base_station,
            BaseStationId(3),
            "new flow gets new LocIP"
        );
        w.assert_policy_consistency().unwrap();
    }

    #[test]
    fn handoff_chain_releases_reserved_locations_exactly_once() {
        // A → B → C → A with a live flow: every vacated location stays
        // reserved while the transition lives, is released exactly once
        // on expiry, and is immediately reusable by another UE.
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        for bs in [1u32, 2, 0] {
            w.handoff(UeImsi(0), BaseStationId(bs)).unwrap();
            w.round_trip(c).unwrap();
        }
        // every station was vacated once: the UE came home on a fresh id
        // from station 0's pool (its old one is still held there), so
        // three reservations hold
        assert_eq!(w.controller.state().reserved_count(), 3);
        assert!(!w
            .controller
            .state()
            .location_available(BaseStationId(1), UeId(0), UeImsi(1)));

        w.advance(SimDuration::from_secs(1_000));
        let now = w.now();
        assert_eq!(w.controller.mobility().transitions_active(), 1);
        // the home transition's rules were already torn down mid-chain
        // (each handoff supersedes the previous transition), so expiry
        // may produce no ops — its job here is releasing reservations
        w.expire_transitions().unwrap();
        assert_eq!(w.controller.mobility().transitions_active(), 0);
        assert_eq!(w.controller.state().reserved_count(), 0, "released once");

        // released exactly once: a second expiry pass finds nothing
        assert_eq!(w.expire_transitions().unwrap(), 0);
        assert_eq!(w.controller.state().reserved_count(), 0);

        // re-attach at a released location succeeds: the exact slot the
        // UE vacated at station 2 is available to a new subscriber
        assert!(w
            .controller
            .state()
            .location_available(BaseStationId(2), UeId(0), UeImsi(2)));
        w.controller
            .attach_ue(UeImsi(2), BaseStationId(2), UeId(0), now)
            .unwrap();
        // and an agent-driven attach at the other released station works
        w.attach(UeImsi(1), BaseStationId(1)).unwrap();
        let c1 = w
            .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c1).unwrap();
        w.assert_policy_consistency().unwrap();
    }

    #[test]
    fn handoff_into_full_microflow_table_evicts_instead_of_failing() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();

        // cram the destination access switch: capacity 2, both slots
        // taken by idle filler entries expiring soon
        let dest_access = topo.base_station(BaseStationId(3)).access_switch;
        let mut full = softcell_dataplane::MicroflowTable::with_capacity(2);
        for port in [1u16, 2] {
            full.install(
                FiveTuple {
                    src: Ipv4Addr::new(100, 64, 0, 200),
                    dst: SERVER,
                    src_port: port,
                    dst_port: 80,
                    proto: Protocol::Tcp,
                },
                softcell_dataplane::MicroflowAction::Drop,
                w.now() + SimDuration::from_secs(1),
            )
            .unwrap();
        }
        w.net.switch_mut(dest_access).microflow = full;

        // the handoff copies the moving UE's uplink + downlink entries;
        // the idle-soonest fillers give way instead of Exhausted
        w.handoff(UeImsi(0), BaseStationId(3)).unwrap();
        let table = &w.net.switch(dest_access).microflow;
        assert_eq!(table.evictions(), 2, "both fillers evicted");
        assert_eq!(table.len(), 2);
        w.round_trip(c).unwrap();
        w.assert_policy_consistency().unwrap();
    }

    #[test]
    fn detach_then_flow_fails() {
        let topo = small_topology();
        let mut w = world(&topo);
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        w.detach(UeImsi(0)).unwrap();
        assert!(w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .is_err());
    }

    /// Regression: the offline pass replayed the paths into an installer
    /// with an empty tag pool, so a live tunnel's tag was free in it: a
    /// replayed path could take it, and the tunnel, once its transition
    /// expired, released a tag it no longer held. Live tunnels hold the
    /// one mobility tag.
    #[test]
    fn offline_pass_keeps_live_tunnel_tags_held() {
        use softcell_policy::clause::ClauseId;
        let topo = small_topology();
        let mut w = world(&topo);
        // each station in turn requests three clauses: an arrival order
        // the pass improves on
        let per_station = |bs| [2, 3, 5].map(|clause| (ClauseId(clause), BaseStationId(bs)));
        let mut paths: Vec<_> = (0..4).flat_map(per_station).collect();
        for &(clause, bs) in &paths {
            w.controller.request_policy_path(bs, clause).unwrap();
        }
        // the same paths requested afresh in replay order hold this many
        // tags, with no tunnel beside them
        let cfg = ControllerConfig::simulation();
        let mut reference = CentralController::new(&topo, cfg, ServicePolicy::example_carrier_a(1));
        paths.sort_unstable();
        for (clause, bs) in paths {
            reference.request_policy_path(bs, clause).unwrap();
        }
        let path_tags = reference.installer().tags_in_use();

        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        w.handoff(UeImsi(0), BaseStationId(3)).unwrap();
        assert_eq!(w.controller.mobility().tunnel_count(), 1);

        let outcome = w.apply_reoptimization().unwrap();
        assert!(outcome.rules_after < outcome.rules_before, "{outcome:?}");
        assert_eq!(
            outcome.tags_after,
            path_tags + 1,
            "the mobility tag is held"
        );
        assert_eq!(w.controller.installer().tags_in_use(), path_tags + 1);

        // a second tunnel takes no tag more
        w.attach(UeImsi(1), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        w.handoff(UeImsi(1), BaseStationId(2)).unwrap();
        assert_eq!(w.controller.mobility().tunnel_count(), 2);
        assert_eq!(w.controller.installer().tags_in_use(), path_tags + 1);

        let ttl = w.controller.mobility().transition_ttl;
        w.advance(ttl + SimDuration::from_secs(1));
        w.expire_transitions().unwrap();
        assert_eq!(w.controller.mobility().tunnel_count(), 0);
        assert_eq!(w.controller.mobility().mobility_tag(), None);
        assert_eq!(w.controller.installer().tags_in_use(), path_tags);

        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        w.assert_policy_consistency().unwrap();
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use softcell_topology::CellularParams;

    const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    #[test]
    fn chained_handoffs_keep_flows_alive() {
        let topo = CellularParams::paper(2).build().unwrap();
        let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
        w.provision(SubscriberAttributes::default_home(UeImsi(0)));
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        // neighbour-hop chain: 0 -> 1 -> 2 -> 1 -> 0 (includes return home)
        for bs in [1u32, 2, 1, 0] {
            w.handoff(UeImsi(0), BaseStationId(bs)).unwrap();
            w.round_trip(c).unwrap();
        }
        w.assert_policy_consistency().unwrap();
    }

    /// Regression: carried microflow entries must expire with the
    /// transition that re-keyed them. They used to get a flat 300 s
    /// deadline — longer than the 120 s transition TTL — so after
    /// `expire_transitions` reaped the transition (and its launch
    /// specs), the dead flow still *looked* live to the agent, got
    /// gathered into the next handoff, and the plan failed with
    /// "no launch specs for anchor".
    #[test]
    fn carried_flows_do_not_outlive_their_transition() {
        let topo = CellularParams::paper(2).build().unwrap();
        let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
        w.provision(SubscriberAttributes::default_home(UeImsi(0)));
        w.attach(UeImsi(0), BaseStationId(0)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        // the flow rides along to bs1; its carried entries are keyed
        // under the bs0 anchor and must die with the transition
        w.handoff(UeImsi(0), BaseStationId(1)).unwrap();

        // let the transition TTL lapse, then run the same housekeeping
        // a long campaign runs: reap transitions, idle entries, and
        // agent flow records whose entries are gone
        let ttl = w.controller.mobility().transition_ttl;
        w.advance(ttl + SimDuration::from_secs(1));
        let now = w.now();
        w.expire_transitions().unwrap();
        for sw in w.net.switches_mut() {
            sw.microflow.expire_idle(now);
        }
        let retired = w.retire_expired_flows();
        assert!(retired >= 1, "the dead carried flow must be retired");

        // a further handoff must not trip over the expired anchor
        w.handoff(UeImsi(0), BaseStationId(2)).unwrap();
        let c2 = w
            .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c2).unwrap();
        w.assert_policy_consistency().unwrap();
    }
}
