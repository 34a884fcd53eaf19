//! Policy consistency under mobility (paper §5.1).
//!
//! When a UE moves, its *ongoing* flows must keep traversing the same
//! middlebox instances while reaching the UE at the new base station;
//! *new* flows should use fresh paths from the new location. SoftCell's
//! mechanism, reproduced here:
//!
//! * **The old access switch stays the mobility anchor.** Downlink
//!   packets of old flows still carry the old location-dependent address
//!   and arrive at the old base station via the old policy path.
//! * **Long-lived tunnels between base-station pairs** carry anchored
//!   traffic onward: the old access switch rewrites the packet's tag
//!   bits to a per-pair *tunnel tag* and the fabric forwards on that tag
//!   alone, so the core holds no per-UE tunnel state.
//! * **Microflow rules are copied to the new access switch** so uplink
//!   packets of old flows keep using the old address and tag; they ride
//!   per-UE, input-port-qualified anchor rules back to the old access
//!   switch and continue along the old path (triangle routing).
//! * **Shortcuts** splice long-lived downlink flows directly from a
//!   switch on the old path to the new base station, with a soft
//!   timeout.
//!
//! All transition state is transient (per-UE rules expire); the tunnels
//! are shared by every UE moving between the pair and reference-counted
//! against live transitions — when the last transition using a pair
//! ends, the tunnel is garbage-collected and its tag returns to the
//! pool.

use std::collections::HashMap;

use softcell_dataplane::matcher::{conventional_priority, Direction, Match};
use softcell_dataplane::{Action, MicroflowAction};
use softcell_packet::FiveTuple;
use softcell_policy::UeClassifier;
use softcell_types::{
    BaseStationId, Error, Ipv4Prefix, PolicyTag, Result, SimTime, SwitchId, UeId, UeImsi,
};

use crate::core::CentralController;
use crate::ops::{tag_field, RuleOp};
use crate::state::UeRecord;

/// Priority band for mobility rules: above every policy rule — qualified
/// or not (qualified policy rules reach ~55 000) — so anchored traffic is
/// redirected before normal forwarding sees it.
pub const MOBILITY_PRIORITY: u16 = 60_000;

/// One active flow with its two access-switch entries — what
/// [`microflow_pair`](crate::agent::microflow_pair) builds for a new
/// flow and what the old local agent reports when the flow is handed
/// over.
#[derive(Clone, Copy, Debug)]
pub struct FlowRecord {
    /// The uplink five-tuple as the UE sends it (permanent source).
    pub uplink: FiveTuple,
    /// The downlink five-tuple as it currently arrives from the fabric
    /// (possibly re-keyed under a tunnel tag by an earlier move).
    pub downlink: FiveTuple,
    /// The downlink tuple as originally keyed at the anchor station.
    pub downlink_original: FiveTuple,
    /// The uplink microflow action at the old access switch.
    pub up_action: MicroflowAction,
    /// The downlink microflow action at the old access switch.
    pub down_action: MicroflowAction,
}

/// Everything the network must do to complete a handoff.
#[derive(Clone, Debug)]
pub struct HandoffPlan {
    /// Record before the move.
    pub old: UeRecord,
    /// Record after the move.
    pub new: UeRecord,
    /// Classifier for the new agent to adopt.
    pub classifier: UeClassifier,
    /// Fabric rule installs/removals (tunnel legs, anchor rules).
    pub ops: Vec<RuleOp>,
    /// Downlink microflow entries to remove at the *old* access switch
    /// (their traffic is redirected into the tunnel instead).
    pub old_microflow_removals: Vec<FiveTuple>,
    /// Microflow entries to install at the *new* access switch.
    pub new_microflow_installs: Vec<(FiveTuple, MicroflowAction)>,
    /// The carried flows — the new agent records these so a *further*
    /// handoff can move them again (anchoring survives chains of moves).
    pub carried_flows: Vec<crate::agent::AgentFlow>,
}

/// A base-station-pair tunnel. Long-lived while any transition uses it;
/// garbage-collected (legs removed, tag released) once the last
/// referencing transition ends, so churn cannot exhaust the tag space.
#[derive(Clone, Debug)]
struct Tunnel {
    tag: PolicyTag,
    /// Switch sequence from the old access switch to the new one.
    path: Vec<SwitchId>,
    /// Removals for the forward legs installed at creation.
    teardown: Vec<RuleOp>,
    /// Live transitions referencing this tunnel.
    refs: usize,
}

/// Per-UE transition state, expiring after a soft timeout.
#[derive(Clone, Debug)]
struct Transition {
    teardown: Vec<RuleOp>,
    /// Every location this UE's anchored flows still occupy; all are
    /// released when the transition expires.
    reserved_locs: Vec<(BaseStationId, UeId)>,
    /// Tunnels this transition holds a reference on; released (possibly
    /// garbage-collecting the tunnel) when the transition ends.
    tunnels: Vec<(BaseStationId, BaseStationId)>,
    deadline: SimTime,
    /// Per anchor LocIP: per-flow launch specs `(flow slot, original
    /// policy tag, original out-port at the anchor's access switch)`.
    /// Needed to re-anchor the same flows after a further move, and to
    /// restore the original tag when anchored uplink traffic (which
    /// rides the tunnel under the *tunnel* tag) is launched back onto
    /// its old policy path. Keyed by anchor *address*: a UE revisiting
    /// a station can hold a different local id there.
    launch_specs: HashMap<std::net::Ipv4Addr, Vec<(u16, PolicyTag, softcell_types::PortNo)>>,
}

/// Mobility bookkeeping inside the central controller.
#[derive(Debug)]
pub struct MobilityManager {
    tunnels: HashMap<(BaseStationId, BaseStationId), Tunnel>,
    transitions: HashMap<UeImsi, Transition>,
    /// How long transition rules live without renewal (the §5.1 "soft
    /// timeout ... indicating that the old flow has ended").
    pub transition_ttl: softcell_types::SimDuration,
}

impl Default for MobilityManager {
    fn default() -> Self {
        MobilityManager {
            tunnels: HashMap::new(),
            transitions: HashMap::new(),
            transition_ttl: softcell_types::SimDuration::from_secs(120),
        }
    }
}

impl MobilityManager {
    /// Number of live tunnels.
    pub fn tunnel_count(&self) -> usize {
        self.tunnels.len()
    }

    /// Number of UEs in transition.
    pub fn transitions_active(&self) -> usize {
        self.transitions.len()
    }
}

impl<'t> CentralController<'t> {
    /// Performs a handoff: moves the UE's controller state and computes
    /// the full plan. Flows are grouped by their **anchor** station (the
    /// one their location-dependent address decodes to — where they
    /// originally started), so chains of moves keep working: downlink
    /// traffic always arrives at the anchor via the old policy path and
    /// is tunneled from there straight to the UE's *current* station.
    /// `flows` is the departing agent's active flow list.
    pub fn handoff(
        &mut self,
        imsi: UeImsi,
        new_bs: BaseStationId,
        new_ue_id: UeId,
        flows: &[FlowRecord],
        now: SimTime,
    ) -> Result<HandoffPlan> {
        let (old, new) = self.state_mut().move_ue(imsi, new_bs, new_ue_id, now)?;
        let attrs = *self.state().subscriber(imsi)?;
        let classifier = UeClassifier::compile(&self.state().policy, self.apps(), &attrs);

        let scheme = self.config().scheme;
        let ports = self.config().ports;

        let mut ops: Vec<RuleOp> = Vec::new();
        let mut teardown: Vec<RuleOp> = Vec::new();

        // 0. a previous transition's per-UE rules are superseded: tear
        //    them down now (the anchors get fresh rules below)
        let prev = self.mobility_mut().transitions.remove(&imsi);
        let mut prev_launch_specs = HashMap::new();
        let mut reserved_locs: Vec<(BaseStationId, UeId)> = Vec::new();
        let mut prev_tunnels: Vec<(BaseStationId, BaseStationId)> = Vec::new();
        if let Some(prev) = prev {
            ops.extend(prev.teardown);
            prev_launch_specs = prev.launch_specs;
            reserved_locs = prev.reserved_locs;
            prev_tunnels = prev.tunnels;
        }
        if !reserved_locs.contains(&(old.bs, old.ue_id)) {
            reserved_locs.push((old.bs, old.ue_id));
        }
        // the location we are moving to is live again, not reserved
        reserved_locs.retain(|loc| *loc != (new.bs, new.ue_id));

        // group flows by their anchor LocIP (the downlink destination):
        // each distinct location-dependent address needs its own
        // redirect/launch rules, even when two addresses share a station
        // (a UE that revisited the station under a different local id)
        let mut groups: Vec<(std::net::Ipv4Addr, Vec<&FlowRecord>)> = Vec::new();
        for f in flows {
            let anchor_addr = f.downlink.dst;
            match groups.iter_mut().find(|(a, _)| *a == anchor_addr) {
                Some((_, g)) => g.push(f),
                None => groups.push((anchor_addr, vec![f])),
            }
        }
        groups.sort_by_key(|(a, _)| *a);

        let new_access = self.topology().base_station(new_bs).access_switch;
        let new_radio = self.topology().base_station(new_bs).radio_port;
        let mut old_microflow_removals = Vec::with_capacity(flows.len());
        let mut new_microflow_installs = Vec::with_capacity(flows.len() * 2);
        let mut carried_flows = Vec::with_capacity(flows.len());
        let mut launch_specs: HashMap<
            std::net::Ipv4Addr,
            Vec<(u16, PolicyTag, softcell_types::PortNo)>,
        > = HashMap::new();
        let mut used_tunnels: Vec<(BaseStationId, BaseStationId)> = Vec::new();

        let old_loc_addr = scheme.encode(softcell_types::LocIp::new(old.bs, old.ue_id))?;
        for (anchor_addr, group) in groups {
            let anchor_loc = scheme.decode(anchor_addr)?;
            let anchor = anchor_loc.base_station;
            // Returning to the anchor *station* (same or fresh local id —
            // the anchored flows keep their old address either way): no
            // tunnel, plain local delivery under the original keys.
            if anchor == new_bs {
                // The UE returned home: anchored flows revert to plain
                // local delivery under their original keys; no tunnel.
                let specs = prev_launch_specs
                    .get(&anchor_addr)
                    .cloned()
                    .ok_or_else(|| {
                        Error::InvalidState(format!(
                            "returning to {anchor} without recorded launch specs"
                        ))
                    })?;
                for f in &group {
                    old_microflow_removals.push(f.downlink);
                    if let MicroflowAction::RewriteSrc {
                        addr, port, dscp, ..
                    } = f.up_action
                    {
                        let (_, slot) = ports.decode(port);
                        let (_, orig_tag, out) =
                            *specs.iter().find(|(sl, _, _)| *sl == slot).ok_or_else(|| {
                                Error::InvalidState(format!(
                                    "no launch spec for slot {slot} at {anchor}"
                                ))
                            })?;
                        new_microflow_installs.push((
                            f.uplink,
                            MicroflowAction::RewriteSrc {
                                addr,
                                port: ports.encode(orig_tag, slot)?,
                                out,
                                dscp,
                            },
                        ));
                    }
                    if let MicroflowAction::RewriteDst { addr, port, .. } = f.down_action {
                        new_microflow_installs.push((
                            f.downlink_original,
                            MicroflowAction::RewriteDst {
                                addr,
                                port,
                                out: new_radio,
                            },
                        ));
                    }
                    carried_flows.push(crate::agent::AgentFlow {
                        uplink: f.uplink,
                        downlink: f.downlink_original,
                        downlink_original: f.downlink_original,
                    });
                }
                launch_specs.insert(anchor_addr, specs);
                continue;
            }
            let anchor_host = Ipv4Prefix::host(anchor_addr);
            let tunnel = self.ensure_tunnel(anchor, new_bs, &mut ops)?;
            if !used_tunnels.contains(&(anchor, new_bs)) {
                used_tunnels.push((anchor, new_bs));
            }
            let tunnel_tag = tunnel.tag;
            let tunnel_path = tunnel.path.clone();
            let anchor_access = tunnel_path[0];
            debug_assert_eq!(*tunnel_path.last().expect("two ends"), new_access);

            // 1. anchor access: redirect the UE's downlink into the
            //    tunnel — one per-UE rule matching the anchor LocIP host
            let (tvalue, tmask) = ports.tag_match(tunnel_tag);
            let redirect_match = Match::prefix(Direction::Downlink, anchor_host);
            let out = self
                .topology()
                .port_towards(anchor_access, tunnel_path[1])
                .ok_or_else(|| Error::NotFound("tunnel first hop unlinked".into()))?;
            ops.push(RuleOp::Install {
                switch: anchor_access,
                priority: MOBILITY_PRIORITY,
                matcher: redirect_match,
                action: Action::RewritePortBitsForward {
                    field: tag_field(Direction::Downlink),
                    value: tvalue,
                    mask: tmask,
                    out,
                },
            });
            teardown.push(RuleOp::Remove {
                switch: anchor_access,
                matcher: redirect_match,
            });

            // 2. uplink anchor rules along the reverse tunnel path:
            //    per-UE, input-port qualified, and scoped to the tunnel
            //    tag — anchored uplink rides the tunnel under the tunnel
            //    tag precisely so these rules can never capture the same
            //    UE's traffic travelling its old policy path where the
            //    two paths share a directed edge (a forwarding loop
            //    found by the randomized churn test at k=4).
            for i in (1..tunnel_path.len()).rev() {
                let sw = tunnel_path[i];
                if sw == new_access {
                    continue; // microflow copies name their out-port
                }
                let from_new_side = tunnel_path[i + 1];
                let towards_anchor = tunnel_path[i - 1];
                let in_port = self
                    .topology()
                    .port_towards(sw, from_new_side)
                    .ok_or_else(|| Error::NotFound("tunnel hop unlinked".into()))?;
                let out = self
                    .topology()
                    .port_towards(sw, towards_anchor)
                    .ok_or_else(|| Error::NotFound("tunnel hop unlinked".into()))?;
                let m = Match::tag_and_prefix(Direction::Uplink, tunnel_tag, anchor_host, &ports)
                    .from_port(in_port);
                ops.push(RuleOp::Install {
                    switch: sw,
                    priority: MOBILITY_PRIORITY,
                    matcher: m,
                    action: Action::Forward(out),
                });
                teardown.push(RuleOp::Remove {
                    switch: sw,
                    matcher: m,
                });
            }

            // 3. launch rules at the anchor access: per flow, matching
            //    the exact tunnel-tagged source port and restoring the
            //    flow's *original* policy tag before forwarding onto the
            //    old path. (Per-flow state at an access switch is cheap
            //    and transient — §5.1 copies per-flow rules anyway.)
            let specs: Vec<(u16, PolicyTag, softcell_types::PortNo)> = if anchor_addr
                == old_loc_addr
            {
                let mut specs = Vec::new();
                for f in &group {
                    if let MicroflowAction::RewriteSrc { port, out, .. } = f.up_action {
                        let (tag, slot) = ports.decode(port);
                        if !specs.iter().any(|(sl, _, _)| *sl == slot) {
                            specs.push((slot, tag, out));
                        }
                    }
                }
                specs
            } else {
                prev_launch_specs.get(&anchor_addr).cloned().ok_or_else(|| {
                        Error::InvalidState(format!(
                            "no launch specs for anchor {anchor_addr}                              (flows older than the transition?)"
                        ))
                    })?
            };
            let tunnel_in = self
                .topology()
                .port_towards(anchor_access, tunnel_path[1])
                .expect("checked above");
            for &(slot, orig_tag, out) in &specs {
                let tunneled_src = ports.encode(tunnel_tag, slot)?;
                let (ovalue, omask) = ports.tag_match(orig_tag);
                let m = Match {
                    src_prefix: Some(anchor_host),
                    src_port: Some((tunneled_src, u16::MAX)),
                    in_port: Some(tunnel_in),
                    ..Match::ANY
                };
                ops.push(RuleOp::Install {
                    switch: anchor_access,
                    priority: MOBILITY_PRIORITY,
                    matcher: m,
                    action: Action::RewritePortBitsForward {
                        field: tag_field(Direction::Uplink),
                        value: ovalue,
                        mask: omask,
                        out,
                    },
                });
                teardown.push(RuleOp::Remove {
                    switch: anchor_access,
                    matcher: m,
                });
            }
            launch_specs.insert(anchor_addr, specs);

            // 4. microflow surgery: remove delivery at the departing
            //    station, install copies at the new one
            let reverse_out = self
                .topology()
                .port_towards(new_access, tunnel_path[tunnel_path.len() - 2])
                .ok_or_else(|| Error::NotFound("tunnel last hop unlinked".into()))?;
            for f in &group {
                old_microflow_removals.push(f.downlink);

                // uplink copy: the anchor LocIP with the *tunnel* tag in
                // the source port (the launch rule at the anchor swaps
                // the original tag back), out via the reverse tunnel
                if let MicroflowAction::RewriteSrc {
                    addr, port, dscp, ..
                } = f.up_action
                {
                    let (_, slot) = ports.decode(port);
                    new_microflow_installs.push((
                        f.uplink,
                        MicroflowAction::RewriteSrc {
                            addr,
                            port: ports.encode(tunnel_tag, slot)?,
                            out: reverse_out,
                            dscp,
                        },
                    ));
                }

                // downlink copy: re-keyed under this tunnel's tag (slot
                // bits survive); delivery restores the permanent endpoint
                let (_, slot) = ports.decode(f.downlink.dst_port);
                let tunneled_port = ports.encode(tunnel_tag, slot)?;
                let rekeyed = FiveTuple {
                    dst_port: tunneled_port,
                    ..f.downlink
                };
                if let MicroflowAction::RewriteDst { addr, port, .. } = f.down_action {
                    new_microflow_installs.push((
                        rekeyed,
                        MicroflowAction::RewriteDst {
                            addr,
                            port,
                            out: new_radio,
                        },
                    ));
                }
                carried_flows.push(crate::agent::AgentFlow {
                    uplink: f.uplink,
                    downlink: rekeyed,
                    downlink_original: f.downlink_original,
                });
            }
        }

        // take the new transition's tunnel references *before* dropping
        // the previous transition's, so a pair both transitions use is
        // never torn down and immediately recreated
        for pair in &used_tunnels {
            if let Some(t) = self.mobility_mut().tunnels.get_mut(pair) {
                t.refs += 1;
            }
        }
        let ttl = self.mobility().transition_ttl;
        self.mobility_mut().transitions.insert(
            imsi,
            Transition {
                teardown,
                reserved_locs,
                tunnels: used_tunnels,
                deadline: now + ttl,
                launch_specs,
            },
        );
        for pair in prev_tunnels {
            self.release_tunnel_ref(pair, &mut ops);
        }

        Ok(HandoffPlan {
            old,
            new,
            classifier,
            ops,
            old_microflow_removals,
            new_microflow_installs,
            carried_flows,
        })
    }

    /// Installs a shortcut for one long-lived downlink flow: per-flow
    /// rules from the best meet point on the old path directly to the
    /// new base station (§5.1 "temporary shortcut paths"). Returns the
    /// rule ops; they share the transition's soft timeout.
    pub fn install_shortcut(
        &mut self,
        imsi: UeImsi,
        old_path_switches: &[SwitchId],
        downlink: FiveTuple,
        now: SimTime,
    ) -> Result<Vec<RuleOp>> {
        let new_rec = *self.state().ue(imsi)?;
        let new_access = self.topology().base_station(new_rec.bs).access_switch;

        // meet point: the old-path switch closest to the new access
        let mut best: Option<(u32, SwitchId)> = None;
        for &sw in old_path_switches {
            if let Some(d) = self.paths_mut().distance(sw, new_access) {
                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, sw));
                }
            }
        }
        let (_, meet) = best.ok_or_else(|| Error::NoPath("no reachable meet point".into()))?;
        let splice = self.paths_mut().path(meet, new_access)?;

        let host = Ipv4Prefix::host(downlink.dst);
        let mut ops = Vec::new();
        let mut teardown = Vec::new();
        for w in splice.windows(2) {
            let (sw, next) = (w[0], w[1]);
            if sw == new_access {
                break;
            }
            let out = self
                .topology()
                .port_towards(sw, next)
                .ok_or_else(|| Error::NotFound("splice hop unlinked".into()))?;
            let m = Match {
                dst_prefix: Some(host),
                dst_port: Some((downlink.dst_port, u16::MAX)),
                proto: Some(downlink.proto),
                ..Match::ANY
            };
            ops.push(RuleOp::Install {
                switch: sw,
                priority: MOBILITY_PRIORITY + 100, // above the tunnel redirect
                matcher: m,
                action: Action::Forward(out),
            });
            teardown.push(RuleOp::Remove {
                switch: sw,
                matcher: m,
            });
        }

        let ttl = self.mobility().transition_ttl;
        if let Some(t) = self.mobility_mut().transitions.get_mut(&imsi) {
            t.teardown.extend(teardown);
            t.deadline = t.deadline.max(now + ttl);
        }
        Ok(ops)
    }

    /// Aborts a UE's transition immediately (detach): its anchored flows
    /// are dead, so the per-UE mobility rules come down now and the
    /// reserved locations are released (see
    /// [`drain_released_locations`](Self::drain_released_locations)).
    /// Returns the teardown ops.
    pub fn abort_transition(&mut self, imsi: UeImsi) -> Vec<RuleOp> {
        let Some(t) = self.mobility_mut().transitions.remove(&imsi) else {
            return Vec::new();
        };
        self.release_locations(t.reserved_locs);
        let mut ops = t.teardown;
        for pair in t.tunnels {
            self.release_tunnel_ref(pair, &mut ops);
        }
        ops
    }

    /// Expires finished transitions: returns the teardown rule ops and
    /// releases the old location-dependent addresses ("during the
    /// transition, the controller does not assign the old
    /// location-dependent address to any new UEs" — after it, it may;
    /// see [`drain_released_locations`](Self::drain_released_locations)).
    pub fn expire_transitions(&mut self, now: SimTime) -> Vec<RuleOp> {
        let expired: Vec<UeImsi> = self
            .mobility()
            .transitions
            .iter()
            .filter(|(_, t)| t.deadline <= now)
            .map(|(imsi, _)| *imsi)
            .collect();
        let mut ops = Vec::new();
        for imsi in expired {
            let t = self
                .mobility_mut()
                .transitions
                .remove(&imsi)
                .expect("listed above");
            ops.extend(t.teardown);
            self.release_locations(t.reserved_locs);
            for pair in t.tunnels {
                self.release_tunnel_ref(pair, &mut ops);
            }
        }
        ops
    }

    /// Drops one transition's reference on a tunnel. The last reference
    /// garbage-collects it: the forward legs come down and the raw tag
    /// returns to the pool, so base-station-pair churn cannot exhaust
    /// the tag space.
    fn release_tunnel_ref(&mut self, pair: (BaseStationId, BaseStationId), ops: &mut Vec<RuleOp>) {
        let Some(t) = self.mobility_mut().tunnels.get_mut(&pair) else {
            return;
        };
        t.refs = t.refs.saturating_sub(1);
        if t.refs > 0 {
            return;
        }
        let t = self
            .mobility_mut()
            .tunnels
            .remove(&pair)
            .expect("present above");
        ops.extend(t.teardown);
        self.installer_mut().release_raw_tag(t.tag);
    }

    /// Ensures the (from → to) tunnel exists, appending its rule ops on
    /// first creation.
    fn ensure_tunnel(
        &mut self,
        from: BaseStationId,
        to: BaseStationId,
        ops: &mut Vec<RuleOp>,
    ) -> Result<Tunnel> {
        if let Some(t) = self.mobility().tunnels.get(&(from, to)) {
            return Ok(t.clone());
        }
        let from_sw = self.topology().base_station(from).access_switch;
        let to_sw = self.topology().base_station(to).access_switch;
        let path = self.paths_mut().path(from_sw, to_sw)?;
        let tag = self
            .installer_mut()
            .allocate_raw_tag()
            .ok_or_else(|| Error::Exhausted("no tag left for tunnel".into()))?;

        // forward legs: tag rules (with the carrier-prefix guard — see
        // ops::lower_delta) from each intermediate switch towards the
        // new access switch
        let ports = self.config().ports;
        let carrier = self.config().scheme.carrier();
        let mut teardown = Vec::new();
        for w in path.windows(2) {
            let (sw, next) = (w[0], w[1]);
            if sw == from_sw {
                continue; // the per-UE redirect rule is the entry point
            }
            let out = self
                .topology()
                .port_towards(sw, next)
                .ok_or_else(|| Error::NotFound("tunnel hop unlinked".into()))?;
            let m = Match::tag_and_prefix(Direction::Downlink, tag, carrier, &ports);
            ops.push(RuleOp::Install {
                switch: sw,
                priority: conventional_priority(&m),
                matcher: m,
                action: Action::Forward(out),
            });
            teardown.push(RuleOp::Remove {
                switch: sw,
                matcher: m,
            });
        }

        let t = Tunnel {
            tag,
            path,
            teardown,
            refs: 0,
        };
        self.mobility_mut().tunnels.insert((from, to), t.clone());
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{ControllerConfig, PathTags};
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;
    use softcell_types::PortNo;
    use std::net::Ipv4Addr;

    fn controller(topo: &softcell_topology::Topology) -> CentralController<'_> {
        let mut c = CentralController::new(
            topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..4 {
            c.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        c
    }

    fn sample_flow(
        ctl: &CentralController<'_>,
        tags: PathTags,
        permanent: Ipv4Addr,
        ue_id: UeId,
    ) -> FlowRecord {
        let ports = ctl.config().ports;
        let scheme = ctl.config().scheme;
        let loc = scheme
            .encode(softcell_types::LocIp::new(BaseStationId(0), ue_id))
            .unwrap();
        let up_port = ports.encode(tags.uplink_entry, 3).unwrap();
        let down_port = ports.encode(tags.downlink_final, 3).unwrap();
        let uplink = FiveTuple {
            src: permanent,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 50000,
            dst_port: 443,
            proto: softcell_packet::Protocol::Tcp,
        };
        let downlink = FiveTuple {
            src: uplink.dst,
            dst: loc,
            src_port: 443,
            dst_port: down_port,
            proto: uplink.proto,
        };
        FlowRecord {
            uplink,
            downlink,
            downlink_original: downlink,
            up_action: MicroflowAction::RewriteSrc {
                addr: loc,
                port: up_port,
                out: tags.access_out_port,
                dscp: None,
            },
            down_action: MicroflowAction::RewriteDst {
                addr: permanent,
                port: uplink.src_port,
                out: PortNo(1),
            },
        }
    }

    #[test]
    fn handoff_moves_state_and_produces_plan() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        ctl.drain_ops();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));

        let plan = ctl
            .handoff(
                UeImsi(0),
                BaseStationId(3),
                UeId(0),
                &[flow],
                SimTime::from_secs(10),
            )
            .unwrap();
        assert_eq!(plan.old.bs, BaseStationId(0));
        assert_eq!(plan.new.bs, BaseStationId(3));
        assert_eq!(plan.old_microflow_removals, vec![flow.downlink]);
        // uplink + downlink copies at the new access switch
        assert_eq!(plan.new_microflow_installs.len(), 2);
        assert!(!plan.ops.is_empty(), "tunnel + anchor rules installed");
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        assert_eq!(ctl.mobility().transitions_active(), 1);
        assert_eq!(ctl.state().ue(UeImsi(0)).unwrap().bs, BaseStationId(3));
    }

    #[test]
    fn tunnel_is_created_once_per_pair() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let mut recs = Vec::new();
        for i in 0..2 {
            let g = ctl
                .attach_ue(UeImsi(i), BaseStationId(0), UeId(i as u16), SimTime::ZERO)
                .unwrap();
            recs.push(g.record);
        }
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let f0 = sample_flow(&ctl, tags, recs[0].permanent_ip, recs[0].ue_id);
        let f1 = sample_flow(&ctl, tags, recs[1].permanent_ip, recs[1].ue_id);
        let p1 = ctl
            .handoff(UeImsi(0), BaseStationId(1), UeId(0), &[f0], SimTime::ZERO)
            .unwrap();
        let p2 = ctl
            .handoff(UeImsi(1), BaseStationId(1), UeId(1), &[f1], SimTime::ZERO)
            .unwrap();
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        // second handoff reuses the tunnel: strictly fewer fabric ops
        assert!(p2.ops.len() < p1.ops.len());
    }

    #[test]
    fn handoff_without_flows_is_lightweight() {
        // no active flows → no tunnel, no anchor rules; just the state
        // move and the classifier for the new agent
        let topo = small_topology();
        let mut ctl = controller(&topo);
        ctl.attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let plan = ctl
            .handoff(UeImsi(0), BaseStationId(1), UeId(0), &[], SimTime::ZERO)
            .unwrap();
        assert!(plan.ops.is_empty());
        assert!(plan.carried_flows.is_empty());
        assert_eq!(ctl.mobility().tunnel_count(), 0);
        assert_eq!(ctl.state().ue(UeImsi(0)).unwrap().bs, BaseStationId(1));
    }

    #[test]
    fn downlink_copy_is_rekeyed_under_tunnel_tag() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        let plan = ctl
            .handoff(UeImsi(0), BaseStationId(2), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        let ports = ctl.config().ports;
        let down_copy = plan
            .new_microflow_installs
            .iter()
            .find(|(t, _)| t.dst == flow.downlink.dst)
            .unwrap();
        let (tag, slot) = ports.decode(down_copy.0.dst_port);
        assert_ne!(
            tag, tags.downlink_final,
            "tag bits now carry the tunnel tag"
        );
        let (_, orig_slot) = ports.decode(flow.downlink.dst_port);
        assert_eq!(slot, orig_slot, "flow slot bits survive the tunnel");
    }

    #[test]
    fn transition_expiry_tears_down_rules() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        ctl.handoff(UeImsi(0), BaseStationId(1), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        assert!(ctl.expire_transitions(SimTime::from_secs(1)).is_empty());
        let ops = ctl.expire_transitions(SimTime::from_secs(500));
        assert!(!ops.is_empty(), "teardown removes per-UE rules");
        assert!(ops.iter().all(|o| matches!(o, RuleOp::Remove { .. })));
        assert_eq!(ctl.mobility().transitions_active(), 0);
    }

    #[test]
    fn ended_transitions_surface_their_released_locations() {
        // both ways a transition ends — expiry and detach — hand the
        // vacated location to `drain_released_locations`, exactly once
        let topo = small_topology();
        let mut ctl = controller(&topo);
        for i in 0..2u16 {
            ctl.attach_ue(UeImsi(i.into()), BaseStationId(0), UeId(i), SimTime::ZERO)
                .unwrap();
            ctl.handoff(
                UeImsi(i.into()),
                BaseStationId(1),
                UeId(i),
                &[],
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert!(ctl.drain_released_locations().is_empty(), "still reserved");
        ctl.detach_ue(UeImsi(0)).unwrap();
        assert_eq!(
            ctl.drain_released_locations(),
            vec![(BaseStationId(0), UeId(0))],
            "aborted by detach"
        );
        ctl.expire_transitions(SimTime::from_secs(500));
        assert_eq!(
            ctl.drain_released_locations(),
            vec![(BaseStationId(0), UeId(1))],
            "expired"
        );
        assert!(ctl.drain_released_locations().is_empty(), "drained once");
        assert_eq!(ctl.state().reserved_count(), 0);
    }

    #[test]
    fn shortcut_extension_follows_configured_ttl() {
        // regression: install_shortcut used to extend the transition by a
        // hardcoded 120 s instead of the configured transition_ttl
        let topo = small_topology();
        let mut ctl = controller(&topo);
        ctl.mobility_mut().transition_ttl = softcell_types::SimDuration::from_secs(10);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let old_path: Vec<SwitchId> = ctl
            .routed_path(BaseStationId(0), ClauseId(5))
            .unwrap()
            .hops
            .iter()
            .map(|h| h.switch)
            .collect();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        ctl.handoff(UeImsi(0), BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        // renew at t=5: deadline moves to 5 + ttl = 15, not 5 + 120
        ctl.install_shortcut(UeImsi(0), &old_path, flow.downlink, SimTime::from_secs(5))
            .unwrap();
        assert!(
            ctl.expire_transitions(SimTime::from_secs(12)).is_empty(),
            "shortcut renewal keeps the transition alive past the original deadline"
        );
        assert_eq!(ctl.mobility().transitions_active(), 1);
        let ops = ctl.expire_transitions(SimTime::from_secs(16));
        assert!(
            !ops.is_empty(),
            "expires at now + transition_ttl, not +120 s"
        );
        assert_eq!(ctl.mobility().transitions_active(), 0);
    }

    #[test]
    fn tunnel_gc_survives_more_pairs_than_tags() {
        // regression: tunnels allocated a raw tag per base-station pair
        // and never freed it, so handoff churn across enough distinct
        // pairs exhausted the tag space. Leave exactly ONE free tag and
        // churn through three pairs: only garbage collection makes
        // every round's tunnel allocation succeed.
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let capacity = usize::from(ctl.config().tag_policy.capacity);
        while ctl.installer().tags_in_use() < capacity - 1 {
            ctl.installer_mut().allocate_raw_tag().unwrap();
        }
        let baseline = ctl.installer().tags_in_use();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        let mut now = SimTime::ZERO;
        for round in 0..6u32 {
            let target = BaseStationId(1 + round % 3);
            // the flow anchors at station 0, where the UE sits: the
            // handoff builds the (0 → target) tunnel with the last tag
            ctl.handoff(UeImsi(0), target, UeId(0), &[flow], now)
                .unwrap_or_else(|e| panic!("round {round}: tag leak? {e}"));
            assert_eq!(ctl.mobility().tunnel_count(), 1);
            assert_eq!(ctl.installer().tags_in_use(), baseline + 1);
            now += softcell_types::SimDuration::from_secs(1_000);
            let ops = ctl.expire_transitions(now);
            assert!(
                ops.iter().all(|o| matches!(o, RuleOp::Remove { .. })),
                "expiry only removes rules"
            );
            assert_eq!(ctl.mobility().tunnel_count(), 0, "tunnel collected");
            assert_eq!(ctl.installer().tags_in_use(), baseline, "tag returned");
            // move home (no live flows: lightweight, no tunnel) for the
            // next round, and expire that transition's reservation too
            ctl.handoff(UeImsi(0), BaseStationId(0), UeId(0), &[], now)
                .unwrap();
            now += softcell_types::SimDuration::from_secs(1_000);
            ctl.expire_transitions(now);
        }
        assert_eq!(ctl.installer().tags_in_use(), baseline);
        assert_eq!(ctl.mobility().tunnel_count(), 0);
    }

    #[test]
    fn shortcut_splices_toward_new_station() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let old_path: Vec<SwitchId> = ctl
            .routed_path(BaseStationId(0), ClauseId(5))
            .unwrap()
            .hops
            .iter()
            .map(|h| h.switch)
            .collect();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        ctl.handoff(UeImsi(0), BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        let ops = ctl
            .install_shortcut(UeImsi(0), &old_path, flow.downlink, SimTime::ZERO)
            .unwrap();
        assert!(!ops.is_empty());
        // shortcut rules are per-flow: they match the exact dst port
        for op in &ops {
            let RuleOp::Install { matcher, .. } = op else {
                panic!("shortcut only installs")
            };
            assert_eq!(matcher.dst_port, Some((flow.downlink.dst_port, u16::MAX)));
        }
    }
}
