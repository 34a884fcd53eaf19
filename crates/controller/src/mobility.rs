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

use std::net::Ipv4Addr;

use softcell_dataplane::matcher::{conventional_priority, Direction, Match};
use softcell_dataplane::{Action, MicroflowAction};
use softcell_packet::FiveTuple;
use softcell_policy::UeClassifier;
use softcell_types::{
    BaseStationId, Error, FxHashMap, Ipv4Prefix, PolicyTag, PortNo, Result, SimTime, SwitchId,
    UeId, UeImsi,
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
    /// Always empty: a handoff's fabric rule ops (tunnel legs, anchor
    /// rules, the superseded transition's teardown) join the engine's
    /// pending stream, drained by
    /// [`drain_ops`](CentralController::drain_ops) like every other
    /// mutation's. The field stays because the frozen `perf/` harness
    /// reads it.
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

impl HandoffPlan {
    /// The carried flows as the arriving agent records them, each with
    /// the actions of its two new microflow copies. `handoff` pushes a
    /// flow's copies in flow order, so a copy is read at the position
    /// its flow's says — checked by key, and searched for if some flow
    /// had only one. A flow missing a copy is left out.
    pub fn carried_records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        let installs = &self.new_microflow_installs;
        let action_of = move |key: &FiveTuple, at: usize| {
            let here = installs.get(at).filter(|(k, _)| k == key);
            let copy = here.or_else(|| installs.iter().find(|(k, _)| k == key));
            copy.map(|(_, action)| *action)
        };
        self.carried_flows
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| {
                Some(FlowRecord {
                    uplink: f.uplink,
                    downlink: f.downlink,
                    downlink_original: f.downlink_original,
                    up_action: action_of(&f.uplink, 2 * i)?,
                    down_action: action_of(&f.downlink, 2 * i + 1)?,
                })
            })
    }
}

/// The stations a tunnel joins: `(anchor, current)`.
type StationPair = (BaseStationId, BaseStationId);

/// How an anchored flow is launched back onto its old policy path:
/// `(flow slot, original policy tag, original out-port at the anchor's
/// access switch)`.
type LaunchSpec = (u16, PolicyTag, PortNo);

/// A base-station-pair tunnel. Long-lived while any transition uses it;
/// garbage-collected (legs removed, tag released) once the last
/// referencing transition ends, so churn cannot exhaust the tag space.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
struct Transition {
    teardown: Vec<RuleOp>,
    /// Every location this UE's anchored flows still occupy; all are
    /// released when the transition expires.
    reserved_locs: Vec<(BaseStationId, UeId)>,
    /// Tunnels this transition holds a reference on; released (possibly
    /// garbage-collecting the tunnel) when the transition ends.
    tunnels: Vec<StationPair>,
    deadline: SimTime,
    /// The launch specs of the flows anchored at each anchor LocIP, one
    /// entry a spec, grouped by anchor in address order. Needed to
    /// re-anchor the same flows after a further move, and to restore
    /// the original tag when anchored uplink traffic (which rides the
    /// tunnel under the *tunnel* tag) is launched back onto its old
    /// policy path. Keyed by anchor *address*: a UE revisiting a station
    /// can hold a different local id there.
    launch_specs: Vec<(Ipv4Addr, LaunchSpec)>,
}

impl Transition {
    fn clear(&mut self) {
        self.teardown.clear();
        self.reserved_locs.clear();
        self.tunnels.clear();
        self.launch_specs.clear();
    }

    /// Overwrites this transition with `other`, reusing its vectors:
    /// they grow only past the largest earlier move of the UE.
    fn refill(&mut self, other: &Transition) {
        self.teardown.clone_from(&other.teardown);
        self.reserved_locs.clone_from(&other.reserved_locs);
        self.tunnels.clone_from(&other.tunnels);
        self.deadline = other.deadline;
        self.launch_specs.clone_from(&other.launch_specs);
    }

    /// The specs recorded for anchor `addr`, `None` if it has none.
    fn specs_of(&self, addr: Ipv4Addr) -> Option<&[(Ipv4Addr, LaunchSpec)]> {
        let start = self.launch_specs.iter().position(|(a, _)| *a == addr)?;
        let rest = &self.launch_specs[start..];
        Some(&rest[..rest.iter().take_while(|(a, _)| *a == addr).count()])
    }
}

/// Mobility bookkeeping inside the central controller.
#[derive(Debug)]
pub struct MobilityManager {
    tunnels: FxHashMap<StationPair, Tunnel>,
    transitions: FxHashMap<UeImsi, Transition>,
    /// The transition the next handoff plans, and the tunnels it
    /// creates (removed again if it fails): buffers kept from move to
    /// move, so planning allocates only past the largest earlier plan.
    draft: (Transition, Vec<StationPair>),
    /// How long transition rules live without renewal (the §5.1 "soft
    /// timeout ... indicating that the old flow has ended").
    pub transition_ttl: softcell_types::SimDuration,
}

impl Default for MobilityManager {
    fn default() -> Self {
        MobilityManager {
            tunnels: FxHashMap::default(),
            transitions: FxHashMap::default(),
            draft: Default::default(),
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

    /// The raw tags the live tunnels hold.
    pub(crate) fn tunnel_tags(&self) -> impl Iterator<Item = PolicyTag> + '_ {
        self.tunnels.values().map(|t| t.tag)
    }
}

impl CentralController {
    /// Performs a handoff: moves the UE's controller state, queues the
    /// fabric rule ops on the engine's pending stream (see
    /// [`drain_ops`](Self::drain_ops)) and returns the rest of the plan.
    /// Flows are grouped by their **anchor** station (the one their
    /// location-dependent address decodes to — where they originally
    /// started), so chains of moves keep working: downlink traffic always
    /// arrives at the anchor via the old policy path and is tunneled from
    /// there straight to the UE's *current* station. `flows` is the
    /// departing agent's active flow list.
    ///
    /// All-or-nothing: everything that can fail runs before anything is
    /// recorded. The previous transition is lifted out while the plan
    /// that supersedes it is built; a failure puts it back, takes the
    /// attempt's ops off the stream and removes the tunnels it created,
    /// so the UE, its reservations, its transition, the pending ops and
    /// the tag pool are as they were.
    ///
    /// Planning writes into buffers the mobility manager reuses and
    /// commits into the superseded transition's vectors, so the plan's
    /// three microflow vectors are what a move allocates (a UE's first
    /// move also allocates its transition's, at their exact size).
    pub fn handoff(
        &mut self,
        imsi: UeImsi,
        new_bs: BaseStationId,
        new_ue_id: UeId,
        flows: &[FlowRecord],
        now: SimTime,
    ) -> Result<HandoffPlan> {
        self.check_station(new_bs)?;
        let (old, new) = self.state().check_move(imsi, new_bs, new_ue_id, now)?;
        let classifier = self.classifier_of(imsi)?;
        let prev = self.mobility_mut().transitions.remove(&imsi);
        let mut ops = std::mem::take(&mut self.pending_ops);
        let (mut draft, mut created) = std::mem::take(&mut self.mobility_mut().draft);
        draft.clear();
        created.clear();
        let mark = ops.len();
        let planned = self.plan_handoff(
            (old, new),
            classifier,
            flows,
            prev.as_ref(),
            &mut ops,
            (&mut draft, &mut created),
        );
        match &planned {
            Ok(_) => {
                self.state_mut().commit_move(old, new);
                // take the new transition's tunnel references *before*
                // dropping the previous transition's, so a pair both
                // transitions use is never torn down and immediately
                // recreated
                for pair in &draft.tunnels {
                    if let Some(t) = self.mobility_mut().tunnels.get_mut(pair) {
                        t.refs += 1;
                    }
                }
                draft.deadline = new.since + self.mobility().transition_ttl;
                let transition = match prev {
                    Some(mut t) => {
                        for &pair in &t.tunnels {
                            self.release_tunnel_ref(pair, &mut ops);
                        }
                        t.refill(&draft);
                        t
                    }
                    // a UE's first: exact-size copies, as the transition
                    // outlives the call by minutes
                    None => draft.clone(),
                };
                self.mobility_mut().transitions.insert(imsi, transition);
            }
            Err(_) => {
                ops.truncate(mark);
                for &pair in &created {
                    if let Some(t) = self.mobility_mut().tunnels.remove(&pair) {
                        self.installer_mut().release_raw_tag(t.tag);
                    }
                }
                if let Some(prev) = prev {
                    self.mobility_mut().transitions.insert(imsi, prev);
                }
            }
        }
        self.pending_ops = ops;
        self.mobility_mut().draft = (draft, created);
        planned
    }

    /// The fallible part of [`handoff`](Self::handoff): appends the rule
    /// ops to `ops`, the transition that will record them (but its
    /// deadline) to `draft`, and returns the plan. Touches no UE,
    /// reservation or transition state; a tunnel it has to create is
    /// listed in `created` so the caller can undo it.
    fn plan_handoff(
        &mut self,
        (old, new): (UeRecord, UeRecord),
        classifier: UeClassifier,
        flows: &[FlowRecord],
        prev: Option<&Transition>,
        ops: &mut Vec<RuleOp>,
        (draft, created): (&mut Transition, &mut Vec<StationPair>),
    ) -> Result<HandoffPlan> {
        let scheme = self.config().scheme;
        let ports = self.config().ports;
        let topo = &self.topology().clone();
        let new_bs = new.bs;

        // per anchor a redirect, a rule per tunnel hop and a launch rule
        // per flow; a move without flows produces no rules at all
        let room = flows.len() + if flows.is_empty() { 0 } else { 16 };
        ops.reserve(prev.map_or(0, |p| p.teardown.len()) + room);

        // 0. a previous transition's per-UE rules are superseded: tear
        //    them down now (the anchors get fresh rules below)
        if let Some(prev) = prev {
            ops.extend_from_slice(&prev.teardown);
            draft.reserved_locs.extend_from_slice(&prev.reserved_locs);
        }
        let reserved_locs = &mut draft.reserved_locs;
        if !reserved_locs.contains(&(old.bs, old.ue_id)) {
            reserved_locs.push((old.bs, old.ue_id));
        }
        // the location we are moving to is live again, not reserved
        reserved_locs.retain(|loc| *loc != (new.bs, new.ue_id));
        let prev_specs = |addr: Ipv4Addr| prev?.specs_of(addr);

        let new_access = topo.base_station(new_bs).access_switch;
        let new_radio = topo.base_station(new_bs).radio_port;
        let mut old_microflow_removals = Vec::with_capacity(flows.len());
        let mut new_microflow_installs = Vec::with_capacity(flows.len() * 2);
        let mut carried_flows = Vec::with_capacity(flows.len());

        // Flows are handled by anchor LocIP (the downlink destination),
        // in address order: each distinct location-dependent address
        // needs its own redirect/launch rules, even when two addresses
        // share a station (a UE that revisited the station under a
        // different local id).
        let old_loc_addr = scheme.encode(softcell_types::LocIp::new(old.bs, old.ue_id))?;
        let anchors = || flows.iter().map(|f| f.downlink.dst);
        let mut next_anchor = anchors().min();
        while let Some(anchor_addr) = next_anchor {
            next_anchor = anchors().filter(|a| *a > anchor_addr).min();
            let group = || flows.iter().filter(move |f| f.downlink.dst == anchor_addr);
            let anchor_loc = scheme.decode(anchor_addr)?;
            let anchor = anchor_loc.base_station;
            // Returning to the anchor *station* (same or fresh local id —
            // the anchored flows keep their old address either way): no
            // tunnel, plain local delivery under the original keys.
            if anchor == new_bs {
                let specs = prev_specs(anchor_addr).ok_or_else(|| {
                    Error::InvalidState(format!(
                        "returning to {anchor} without recorded launch specs"
                    ))
                })?;
                for f in group() {
                    old_microflow_removals.push(f.downlink);
                    if let MicroflowAction::RewriteSrc {
                        addr, port, dscp, ..
                    } = f.up_action
                    {
                        let (_, slot) = ports.decode(port);
                        let (_, (_, orig_tag, out)) = *specs
                            .iter()
                            .find(|(_, (sl, _, _))| *sl == slot)
                            .ok_or_else(|| {
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
                draft.launch_specs.extend_from_slice(specs);
                continue;
            }
            let anchor_host = Ipv4Prefix::host(anchor_addr);
            self.ensure_tunnel(anchor, new_bs, ops, created)?;
            if !draft.tunnels.contains(&(anchor, new_bs)) {
                draft.tunnels.push((anchor, new_bs));
            }
            let tunnel = &self.mobility().tunnels[&(anchor, new_bs)];
            let tunnel_tag = tunnel.tag;
            let tunnel_path = &tunnel.path;
            let anchor_access = tunnel_path[0];
            debug_assert_eq!(*tunnel_path.last().expect("two ends"), new_access);

            // 1. anchor access: redirect the UE's downlink into the
            //    tunnel — one per-UE rule matching the anchor LocIP host
            let (tvalue, tmask) = ports.tag_match(tunnel_tag);
            let redirect_match = Match::prefix(Direction::Downlink, anchor_host);
            let tunnel_in = topo
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
                    out: tunnel_in,
                },
            });
            draft.teardown.push(RuleOp::Remove {
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
                let in_port = topo
                    .port_towards(sw, from_new_side)
                    .ok_or_else(|| Error::NotFound("tunnel hop unlinked".into()))?;
                let out = topo
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
                draft.teardown.push(RuleOp::Remove {
                    switch: sw,
                    matcher: m,
                });
            }

            // 3. launch rules at the anchor access: per flow, matching
            //    the exact tunnel-tagged source port and restoring the
            //    flow's *original* policy tag before forwarding onto the
            //    old path. (Per-flow state at an access switch is cheap
            //    and transient — §5.1 copies per-flow rules anyway.)
            let first = draft.launch_specs.len();
            if anchor_addr == old_loc_addr {
                for f in group() {
                    if let MicroflowAction::RewriteSrc { port, out, .. } = f.up_action {
                        let (tag, slot) = ports.decode(port);
                        if !draft.launch_specs[first..]
                            .iter()
                            .any(|(_, (sl, _, _))| *sl == slot)
                        {
                            draft.launch_specs.push((anchor_addr, (slot, tag, out)));
                        }
                    }
                }
            } else {
                let specs = prev_specs(anchor_addr).ok_or_else(|| {
                    Error::InvalidState(format!(
                        "no launch specs for anchor {anchor_addr} \
                         (flows older than the transition?)"
                    ))
                })?;
                draft.launch_specs.extend_from_slice(specs);
            }
            for &(_, (slot, orig_tag, out)) in &draft.launch_specs[first..] {
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
                draft.teardown.push(RuleOp::Remove {
                    switch: anchor_access,
                    matcher: m,
                });
            }

            // 4. microflow surgery: remove delivery at the departing
            //    station, install copies at the new one
            let reverse_out = topo
                .port_towards(new_access, tunnel_path[tunnel_path.len() - 2])
                .ok_or_else(|| Error::NotFound("tunnel last hop unlinked".into()))?;
            for f in group() {
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

        Ok(HandoffPlan {
            old,
            new,
            classifier,
            ops: Vec::new(),
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
    fn release_tunnel_ref(&mut self, pair: StationPair, ops: &mut Vec<RuleOp>) {
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
    /// first creation and listing the pair in `created`.
    fn ensure_tunnel(
        &mut self,
        from: BaseStationId,
        to: BaseStationId,
        ops: &mut Vec<RuleOp>,
        created: &mut Vec<StationPair>,
    ) -> Result<()> {
        if self.mobility().tunnels.contains_key(&(from, to)) {
            return Ok(());
        }
        let topo = &self.topology().clone();
        let from_sw = topo.base_station(from).access_switch;
        let to_sw = topo.base_station(to).access_switch;
        let path = self.paths_mut().path(from_sw, to_sw)?;
        let tag = self
            .installer_mut()
            .allocate_raw_tag()
            .ok_or_else(|| Error::Exhausted("no tag left for tunnel".into()))?;

        // forward legs: tag rules (with the carrier-prefix guard — see
        // ops::lower_delta) from each intermediate switch towards the
        // new access switch
        let m = Match::tag_and_prefix(
            Direction::Downlink,
            tag,
            self.config().scheme.carrier(),
            &self.config().ports,
        );
        let mut teardown = Vec::with_capacity(path.len());
        for w in path.windows(2) {
            let (sw, next) = (w[0], w[1]);
            if sw == from_sw {
                continue; // the per-UE redirect rule is the entry point
            }
            let Some(out) = topo.port_towards(sw, next) else {
                self.installer_mut().release_raw_tag(tag);
                return Err(Error::NotFound("tunnel hop unlinked".into()));
            };
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

        let tunnel = Tunnel {
            tag,
            path,
            teardown,
            refs: 0,
        };
        self.mobility_mut().tunnels.insert((from, to), tunnel);
        created.push((from, to));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{ControllerConfig, PathTags};
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;

    fn controller(topo: &softcell_topology::Topology) -> CentralController {
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
        ctl: &CentralController,
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
        assert!(plan.ops.is_empty(), "the ops join the engine's stream");
        assert!(
            !ctl.drain_ops().is_empty(),
            "tunnel + anchor rules installed"
        );
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
        ctl.drain_ops();
        ctl.handoff(UeImsi(0), BaseStationId(1), UeId(0), &[f0], SimTime::ZERO)
            .unwrap();
        let p1 = ctl.drain_ops();
        ctl.handoff(UeImsi(1), BaseStationId(1), UeId(1), &[f1], SimTime::ZERO)
            .unwrap();
        let p2 = ctl.drain_ops();
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        // second handoff reuses the tunnel: strictly fewer fabric ops
        assert!(p2.len() < p1.len());
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
        assert!(ctl.drain_ops().is_empty());
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
    fn a_reclaimed_home_stays_live_when_its_transition_ends() {
        // a UE returning home under its old id reclaims the location it
        // vacated: expiry releases only the station it passed through
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let (home, away) = (BaseStationId(0), BaseStationId(1));
        ctl.attach_ue(UeImsi(0), home, UeId(0), SimTime::ZERO)
            .unwrap();
        ctl.handoff(UeImsi(0), away, UeId(0), &[], SimTime::ZERO)
            .unwrap();
        ctl.handoff(UeImsi(0), home, UeId(0), &[], SimTime::ZERO)
            .unwrap();
        ctl.expire_transitions(SimTime::from_secs(500));
        assert_eq!(ctl.drain_released_locations(), vec![(away, UeId(0))]);
        assert_eq!(ctl.state().at_location(home, UeId(0)), Some(UeImsi(0)));
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

    /// Controller state a handoff can touch, for before/after comparison.
    fn snapshot(ctl: &CentralController, imsi: UeImsi) -> impl PartialEq + std::fmt::Debug {
        let rec = *ctl.state().ue(imsi).unwrap();
        (
            rec,
            ctl.state().at_location(rec.bs, rec.ue_id),
            ctl.state().reserved_count(),
            ctl.mobility().transitions.clone(),
            ctl.mobility().tunnels.clone(),
            ctl.installer().tags_in_use(),
        )
    }

    #[test]
    fn failed_handoff_changes_nothing() {
        // regression: `handoff` moved the UE and dropped its previous
        // transition *before* the steps that can fail, so running out of
        // tunnel tags left the UE recorded at the new station with its
        // old transition's teardown ops and tunnel references lost
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        let mut hoard = Vec::new();
        while let Some(tag) = ctl.installer_mut().allocate_raw_tag() {
            hoard.push(tag);
        }

        // no previous transition: nothing may be left behind
        let before = snapshot(&ctl, UeImsi(0));
        let err = ctl
            .handoff(UeImsi(0), BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "resource exhausted: no tag left for tunnel"
        );
        assert_eq!(ctl.state().ue(UeImsi(0)).unwrap().bs, BaseStationId(0));
        assert_eq!(ctl.state().at_location(BaseStationId(3), UeId(0)), None);
        assert_eq!(ctl.mobility().transitions_active(), 0);
        assert!(before == snapshot(&ctl, UeImsi(0)), "{before:?}");

        // a retry after a tag is freed succeeds
        ctl.installer_mut().release_raw_tag(hoard.pop().unwrap());
        let plan = ctl
            .handoff(UeImsi(0), BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        let moved: Vec<FlowRecord> = plan.carried_records().collect();

        // a previous transition: it survives a failed second move whole —
        // its tunnel keeps its reference and its teardown still comes
        let before = snapshot(&ctl, UeImsi(0));
        let err = ctl
            .handoff(UeImsi(0), BaseStationId(2), UeId(0), &moved, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)), "{err}");
        assert!(before == snapshot(&ctl, UeImsi(0)), "{before:?}");
        assert_eq!(ctl.mobility().transitions_active(), 1);
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        assert!(!ctl.expire_transitions(SimTime::from_secs(500)).is_empty());
        assert_eq!(ctl.mobility().tunnel_count(), 0);
    }

    #[test]
    fn flows_older_than_the_transition_are_refused_in_full() {
        // a flow anchored at a station the UE is not leaving, with no
        // transition recording how to launch it: nothing to plan from
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(1), UeId(0), SimTime::ZERO)
            .unwrap();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        // `sample_flow` anchors at station 0; the UE sits at station 1
        let flow = sample_flow(&ctl, tags, grant.record.permanent_ip, UeId(0));
        let before = snapshot(&ctl, UeImsi(0));
        let err = ctl
            .handoff(UeImsi(0), BaseStationId(2), UeId(0), &[flow], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "invalid state: no launch specs for anchor {} \
                 (flows older than the transition?)",
                flow.downlink.dst
            )
        );
        assert!(before == snapshot(&ctl, UeImsi(0)), "{before:?}");
        assert_eq!(ctl.mobility().tunnel_count(), 0, "the tunnel is undone");
    }

    #[test]
    fn classifier_is_compiled_once_per_put_subscriber() {
        use softcell_policy::{BillingPlan, DeviceType, Provider};
        let topo = small_topology();
        let mut ctl = controller(&topo);
        // the four kinds of the benchmark's subscriber mix
        let mix: Vec<SubscriberAttributes> = (0..4u64)
            .map(|i| {
                let mut a = SubscriberAttributes::default_home(UeImsi(i));
                match i {
                    0 => {}
                    1 => a.provider = Provider::Partner(1),
                    2 => (a.device, a.plan) = (DeviceType::M2mFleetTracker, BillingPlan::M2m),
                    _ => a.plan = BillingPlan::Gold,
                }
                a
            })
            .collect();
        // a compile allocates its entries afresh; a memoised classifier
        // shares them, so counting distinct tables counts compiles
        let mut tables = std::collections::HashSet::new();
        for attrs in &mix {
            ctl.put_subscriber(*attrs);
            let imsi = attrs.imsi;
            let id = UeId(imsi.0 as u16);
            let fresh = UeClassifier::compile(ctl.state().policy(), ctl.apps(), attrs);
            let grant = ctl
                .attach_ue(imsi, BaseStationId(0), id, SimTime::ZERO)
                .unwrap();
            assert_eq!(grant.classifier, fresh);
            tables.insert(grant.classifier.entries().as_ptr());
            for bs in [1, 2, 0] {
                let plan = ctl
                    .handoff(imsi, BaseStationId(bs), id, &[], SimTime::ZERO)
                    .unwrap();
                assert_eq!(plan.classifier, fresh);
                tables.insert(plan.classifier.entries().as_ptr());
            }
            ctl.detach_ue(imsi).unwrap();
            let again = ctl
                .attach_ue(imsi, BaseStationId(0), id, SimTime::ZERO)
                .unwrap();
            tables.insert(again.classifier.entries().as_ptr());
        }
        assert_eq!(tables.len(), mix.len(), "one compile per subscriber");

        // changed attributes reach the next handoff *and* the next attach
        let mut roaming = mix[0];
        roaming.provider = Provider::Foreign(3);
        ctl.put_subscriber(roaming);
        let fresh = UeClassifier::compile(ctl.state().policy(), ctl.apps(), &roaming);
        assert_ne!(
            fresh,
            UeClassifier::compile(ctl.state().policy(), ctl.apps(), &mix[0])
        );
        let plan = ctl
            .handoff(UeImsi(0), BaseStationId(3), UeId(0), &[], SimTime::ZERO)
            .unwrap();
        assert_eq!(plan.classifier, fresh);
        ctl.detach_ue(UeImsi(0)).unwrap();
        let grant = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(grant.classifier, fresh);
        assert_eq!(
            grant.classifier.entries().as_ptr(),
            plan.classifier.entries().as_ptr(),
            "and is compiled once for both"
        );
    }

    /// The handoff this module shipped before it planned in place, kept
    /// as the reference the property test compares against (its state
    /// updates come first, so it is only comparable on moves that
    /// succeed).
    mod equivalence {
        use super::*;
        use crate::agent::{microflow_pair, FlowSlots};
        use proptest::prelude::*;
        use std::collections::HashMap;

        impl CentralController {
            fn handoff_reference(
                &mut self,
                imsi: UeImsi,
                new_bs: BaseStationId,
                new_ue_id: UeId,
                flows: &[FlowRecord],
                now: SimTime,
            ) -> Result<HandoffPlan> {
                let (old, new) = self.state_mut().move_ue(imsi, new_bs, new_ue_id, now)?;
                let attrs = *self.state().subscriber(imsi)?;
                let classifier = UeClassifier::compile(self.state().policy(), self.apps(), &attrs);

                let scheme = self.config().scheme;
                let ports = self.config().ports;

                let mut ops: Vec<RuleOp> = Vec::new();
                let mut teardown: Vec<RuleOp> = Vec::new();

                // 0. a previous transition's per-UE rules are superseded: tear
                //    them down now (the anchors get fresh rules below)
                let prev = self.mobility_mut().transitions.remove(&imsi);
                let mut prev_launch_specs: HashMap<Ipv4Addr, Vec<LaunchSpec>> = HashMap::new();
                let mut reserved_locs: Vec<(BaseStationId, UeId)> = Vec::new();
                let mut prev_tunnels: Vec<(BaseStationId, BaseStationId)> = Vec::new();
                if let Some(prev) = prev {
                    ops.extend(prev.teardown);
                    for (addr, spec) in prev.launch_specs {
                        prev_launch_specs.entry(addr).or_default().push(spec);
                    }
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
                        let specs =
                            prev_launch_specs
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
                                let (_, orig_tag, out) = *specs
                                    .iter()
                                    .find(|(sl, _, _)| *sl == slot)
                                    .ok_or_else(|| {
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
                    self.ensure_tunnel(anchor, new_bs, &mut ops, &mut Vec::new())?;
                    let tunnel = self.mobility().tunnels[&(anchor, new_bs)].clone();
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
                        let m = Match::tag_and_prefix(
                            Direction::Uplink,
                            tunnel_tag,
                            anchor_host,
                            &ports,
                        )
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
                    let specs: Vec<(u16, PolicyTag, softcell_types::PortNo)> =
                        if anchor_addr == old_loc_addr {
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
                            prev_launch_specs
                                .get(&anchor_addr)
                                .cloned()
                                .ok_or_else(|| {
                                    Error::InvalidState(format!(
                                        "no launch specs for anchor {anchor_addr} \
                                 (flows older than the transition?)"
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
                        launch_specs: {
                            let mut specs: Vec<_> = launch_specs.into_iter().collect();
                            specs.sort_by_key(|(addr, _)| *addr);
                            let one_a_spec = |(addr, specs): (Ipv4Addr, Vec<LaunchSpec>)| {
                                specs.into_iter().map(move |spec| (addr, spec))
                            };
                            specs.into_iter().flat_map(one_a_spec).collect()
                        },
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
        }

        /// One UE as the agent at its current station holds it.
        struct Ue {
            imsi: UeImsi,
            bs: BaseStationId,
            ue_id: UeId,
            permanent: Ipv4Addr,
            slots: FlowSlots,
            flows: Vec<FlowRecord>,
        }

        proptest! {
            /// Random move chains of two UEs over the four stations —
            /// A→B→C→A, returns to an anchor under the old or a fresh
            /// id, up to 12 flows over up to three anchors, moves inside
            /// a live transition, tunnels shared and collected — plan
            /// for plan, transition for transition and refcount for
            /// refcount what the previous implementation produced.
            #[test]
            fn handoff_matches_the_reference(
                steps in proptest::collection::vec((0u8..2, 0u8..6, 0u8..4, any::<bool>()), 1..40),
            ) {
                let topo = small_topology();
                let (mut new, mut old) = (controller(&topo), controller(&topo));
                let ports = new.config().ports;
                let scheme = new.config().scheme;
                let mut next_id = [0u16; 4];
                let mut ues = Vec::new();
                for i in 0..2u64 {
                    let bs = BaseStationId(i as u32);
                    let ue_id = UeId(next_id[bs.index()]);
                    next_id[bs.index()] += 1;
                    let grant = new.attach_ue(UeImsi(i), bs, ue_id, SimTime::ZERO).unwrap();
                    old.attach_ue(UeImsi(i), bs, ue_id, SimTime::ZERO).unwrap();
                    ues.push(Ue {
                        imsi: UeImsi(i),
                        bs,
                        ue_id,
                        permanent: grant.record.permanent_ip,
                        slots: FlowSlots::default(),
                        flows: Vec::new(),
                    });
                }
                let mut src_port = 40_000;
                for (t, (who, what, arg, reuse)) in steps.into_iter().enumerate() {
                    let now = SimTime::from_secs(t as u64);
                    let ue = &mut ues[usize::from(who)];
                    if what < 2 {
                        // open `arg + 1` flows where the UE is
                        let clause = ClauseId(if reuse { 5 } else { 4 });
                        let tags = new.request_policy_path(ue.bs, clause).unwrap();
                        prop_assert_eq!(tags, old.request_policy_path(ue.bs, clause).unwrap());
                        prop_assert_eq!(new.drain_ops(), old.drain_ops());
                        let loc = scheme.encode(softcell_types::LocIp::new(ue.bs, ue.ue_id)).unwrap();
                        for _ in 0..=arg {
                            if ue.flows.len() == 12 {
                                break;
                            }
                            src_port += 1;
                            let tuple = FiveTuple {
                                src: ue.permanent,
                                dst: Ipv4Addr::new(93, 184, 216, 34),
                                src_port,
                                dst_port: 443,
                                proto: softcell_packet::Protocol::Tcp,
                            };
                            let slot = ue.slots.allocate(ports.flow_slots()).unwrap();
                            let radio = topo.base_station(ue.bs).radio_port;
                            ue.flows.push(
                                microflow_pair(&ports, &tags, loc, ue.permanent, radio, tuple, slot)
                                    .unwrap(),
                            );
                        }
                        continue;
                    }
                    let to = BaseStationId(u32::from(arg));
                    if to == ue.bs {
                        continue;
                    }
                    // arrive under the id this UE still has reserved
                    // there, or under a fresh one
                    let mut id = UeId(next_id[to.index()]);
                    let held = (0..id.0).map(UeId).find(|held| {
                        new.state().at_location(to, *held).is_none()
                            && !new.state().location_available(to, *held, UeImsi(99))
                            && new.state().location_available(to, *held, ue.imsi)
                    });
                    match held {
                        Some(held) if reuse => id = held,
                        _ => next_id[to.index()] += 1,
                    }
                    let plan = new.handoff(ue.imsi, to, id, &ue.flows, now).unwrap();
                    let reference = old.handoff_reference(ue.imsi, to, id, &ue.flows, now).unwrap();
                    prop_assert_eq!(plan.old, reference.old);
                    prop_assert_eq!(plan.new, reference.new);
                    prop_assert_eq!(&plan.classifier, &reference.classifier);
                    // the reference returned its ops in the plan; the
                    // handoff queues them where the rest of a drain goes
                    prop_assert!(plan.ops.is_empty());
                    let mut reference_ops = reference.ops.clone();
                    reference_ops.extend(old.drain_ops());
                    prop_assert_eq!(new.drain_ops(), reference_ops);
                    prop_assert_eq!(&plan.old_microflow_removals, &reference.old_microflow_removals);
                    prop_assert_eq!(&plan.new_microflow_installs, &reference.new_microflow_installs);
                    prop_assert_eq!(&plan.carried_flows, &reference.carried_flows);
                    prop_assert_eq!(&new.mobility().transitions, &old.mobility().transitions);
                    prop_assert_eq!(&new.mobility().tunnels, &old.mobility().tunnels);
                    prop_assert_eq!(new.installer().tags_in_use(), old.installer().tags_in_use());
                    prop_assert_eq!(new.state().reserved_count(), old.state().reserved_count());
                    prop_assert_eq!(new.state().ue(ue.imsi).unwrap(), old.state().ue(ue.imsi).unwrap());

                    ue.bs = to;
                    ue.ue_id = id;
                    ue.flows = plan.carried_records().collect();
                    ue.slots.clear();
                    for f in &ue.flows {
                        ue.slots.occupy(ports.decode(f.downlink.dst_port).1);
                    }
                }
            }
        }
    }
}
