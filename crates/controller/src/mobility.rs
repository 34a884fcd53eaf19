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
//!   traffic both ways, and their fabric state names where traffic goes,
//!   not which pair sent it (Algorithm 1's idea, §3, on the hierarchical
//!   location-dependent addresses of §4.1). While any tunnel lives, the
//!   network holds one *mobility tag* t_M, never a policy tag. Anchored
//!   downlink towards the UE's current station S carries t_M and the
//!   UE's LocIP at S along the path from the anchor A; anchored uplink
//!   carries t_M and the anchor LocIP along the path from S back to A.
//!   A path to a station walks the shortest-path tree rooted at that
//!   station's access switch. Every switch between two access switches
//!   sorts the stations into *blocks*: the largest aligned blocks of
//!   station ids whose every station it reaches through one next hop,
//!   each on its own tree. It holds at most one *leg* per (block,
//!   direction) — a rule matching t_M and the block's LocIP prefix, with
//!   exactly one next hop — shared by every tunnel that crosses it
//!   towards any station of the block. Blocks depend on the topology
//!   alone; a switch's blocks partition the stations it is not the
//!   access switch of, so its legs never overlap. The core holds no
//!   per-UE and no per-pair state.
//!   The old access switch rewrites a downlink packet's destination to
//!   the UE's LocIP at S and its tag bits to t_M.
//! * **Microflow rules are copied to the new access switch** so uplink
//!   packets of old flows keep using the old address, under t_M; they
//!   ride A's tree back to the old access switch, whose per-flow launch
//!   rule restores the original tag and sends them along the old path
//!   (triangle routing).
//! * **Shortcuts** splice long-lived downlink flows directly from a
//!   switch on the old path to the new base station, with a soft
//!   timeout.
//!
//! Per-UE and per-flow transition state — the redirect and launch rules
//! at the anchor's access switch, the microflow copies at the new one —
//! sits only at access switches and is transient (it expires with the
//! transition); shortcut rules are the one per-flow state elsewhere.
//! A move inside a live transition supersedes it: the old transition's
//! rules come down but for those the new one installs unchanged, which
//! stay up. A tunnel is shared by every UE moving between its pair and
//! reference-counted against live transitions; it holds a reference on
//! the leg at each middle hop of its two paths. When the last
//! transition using a pair ends, the tunnel is garbage-collected: the
//! legs no other tunnel crosses come down, and with the last tunnel
//! t_M returns to the pool.

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
use crate::install::PathInstaller;
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
    /// The downlink five-tuple as it currently arrives from the fabric:
    /// after an earlier move, re-keyed to the UE's LocIP at its current
    /// station under the mobility tag.
    pub downlink: FiveTuple,
    /// The downlink tuple as originally keyed at the anchor station; its
    /// destination names the anchor.
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
    /// Always empty: a handoff's fabric rule ops (tunnel legs, redirect
    /// and launch rules, the superseded transition's teardown) join the
    /// engine's pending stream, drained by
    /// [`drain_ops`](CentralController::drain_ops) like every other
    /// mutation's. The field stays because the frozen `perf/` harness
    /// reads it.
    pub ops: Vec<RuleOp>,
    /// Microflow entries to remove at the *old* access switch, per flow
    /// its downlink entry (the traffic is redirected into the tunnel
    /// instead) and its uplink entry (keyed by the UE's source there,
    /// which no packet carries once the UE has left).
    pub old_microflow_removals: Vec<FiveTuple>,
    /// Microflow entries to install at the *new* access switch: per
    /// tunneled flow an uplink copy sending under the mobility tag, and
    /// a downlink copy keyed by the UE's LocIP there and the mobility
    /// tag (flows back at their anchor keep their original keys).
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

/// A tunnel leg: the switch holding it, the LocIP prefix of the block
/// of stations it leads to and the direction it carries.
type LegKey = (SwitchId, Ipv4Prefix, Direction);

/// How an anchored flow is launched back onto its old policy path:
/// `(flow slot, original policy tag, original out-port at the anchor's
/// access switch)`.
type LaunchSpec = (u16, PolicyTag, PortNo);

/// A base-station-pair tunnel: the two paths its anchored traffic
/// takes. Long-lived while any transition uses it; garbage-collected
/// (its references on legs dropped) once the last referencing
/// transition ends.
#[derive(Clone, Debug, PartialEq)]
struct Tunnel {
    /// Downlink: the anchor's access switch to the current one, on the
    /// current station's tree.
    path: Vec<SwitchId>,
    /// Uplink: the current station's access switch to the anchor's, on
    /// the anchor's tree.
    up: Vec<SwitchId>,
    /// Live transitions referencing this tunnel.
    refs: usize,
}

/// A middle hop of a tunnel: the switch, the station its path leads
/// to, the direction and the switch it forwards to.
type TunnelHop = (SwitchId, BaseStationId, Direction, SwitchId);

impl Tunnel {
    /// The hops whose legs this tunnel holds a reference on: every
    /// switch between the two access switches of each path, the
    /// downlink ones first. The end switches need no leg: the redirect
    /// and launch rules at the anchor and the microflow copies at the
    /// new access switch name their ports.
    fn hops(&self, (anchor, current): StationPair) -> impl Iterator<Item = TunnelHop> + '_ {
        let hop = |dest, dir| move |w: &[SwitchId]| (w[1], dest, dir, w[2]);
        let down = self.path.windows(3).map(hop(current, Direction::Downlink));
        down.chain(self.up.windows(3).map(hop(anchor, Direction::Uplink)))
    }
}

/// Per-UE transition state, expiring after a soft timeout.
#[derive(Clone, Debug, Default, PartialEq)]
struct Transition {
    /// The per-UE rules this transition installed, as installed: the
    /// redirect and launch rules at each anchor's access switch, and
    /// any shortcut's. Their removal is its teardown.
    rules: Vec<RuleOp>,
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
    /// anchor's tree under the *mobility* tag) is launched back onto its
    /// old policy path. Keyed by anchor *address*: a UE revisiting a
    /// station can hold a different local id there.
    launch_specs: Vec<(Ipv4Addr, LaunchSpec)>,
}

impl Transition {
    fn clear(&mut self) {
        self.rules.clear();
        self.reserved_locs.clear();
        self.tunnels.clear();
        self.launch_specs.clear();
    }

    /// Overwrites this transition with `other`, reusing its vectors:
    /// they grow only past the largest earlier move of the UE.
    fn refill(&mut self, other: &Transition) {
        self.rules.clone_from(&other.rules);
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
    /// The mobility tag t_M, held while any tunnel lives: taken with the
    /// first tunnel, returned with the last.
    tag: Option<PolicyTag>,
    /// The installed legs: each one's removal and the number of live
    /// tunnels whose paths cross it.
    legs: FxHashMap<LegKey, (RuleOp, usize)>,
    /// The block prefix of each (switch, destination station) a tunnel
    /// has crossed (see [`CentralController::leg_block`]): fixed by the
    /// topology, so computed once.
    blocks: FxHashMap<(SwitchId, BaseStationId), Ipv4Prefix>,
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
            tag: None,
            legs: FxHashMap::default(),
            blocks: FxHashMap::default(),
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

    /// The live tunnels: their `(anchor, current)` stations, the
    /// downlink path from the anchor's access switch to the current one
    /// and the uplink path back.
    pub fn tunnels(
        &self,
    ) -> impl Iterator<Item = ((BaseStationId, BaseStationId), &[SwitchId], &[SwitchId])> + '_ {
        (self.tunnels.iter()).map(|(pair, t)| (*pair, t.path.as_slice(), t.up.as_slice()))
    }

    /// The mobility tag t_M, `None` while no tunnel lives.
    pub fn mobility_tag(&self) -> Option<PolicyTag> {
        self.tag
    }

    /// t_M, allocated for the first tunnel.
    fn hold_tag(&mut self, installer: &mut PathInstaller) -> Result<PolicyTag> {
        if let Some(tag) = self.tag {
            return Ok(tag);
        }
        let tag = installer
            .allocate_raw_tag()
            .ok_or_else(|| Error::Exhausted("no tag left for tunnel".into()))?;
        self.tag = Some(tag);
        Ok(tag)
    }

    /// Takes a reference on a leg, queueing its install for the first.
    fn hold_leg(&mut self, key: LegKey, install: (u16, Match, PortNo), ops: &mut Vec<RuleOp>) {
        let (switch, (priority, matcher, out)) = (key.0, install);
        let leg = self.legs.entry(key).or_insert_with(|| {
            ops.push(RuleOp::Install {
                switch,
                priority,
                matcher,
                action: Action::Forward(out),
            });
            (RuleOp::Remove { switch, matcher }, 0)
        });
        leg.1 += 1;
    }

    /// Drops a reference on a leg, queueing its removal for the last.
    fn release_leg(&mut self, key: LegKey, ops: &mut Vec<RuleOp>) {
        let Some((_, refs)) = self.legs.get_mut(&key) else {
            return;
        };
        *refs -= 1;
        if *refs == 0 {
            let (removal, _) = self.legs.remove(&key).expect("present above");
            ops.push(removal);
        }
    }
}

impl CentralController {
    /// Performs a handoff: moves the UE's controller state, queues the
    /// fabric rule ops on the engine's pending stream (see
    /// [`drain_ops`](Self::drain_ops)) and returns the rest of the plan.
    /// Flows are grouped by their **anchor** station (the one their
    /// original location-dependent address decodes to — where they
    /// started), so chains of moves keep working: downlink traffic always
    /// arrives at the anchor via the old policy path and is tunneled from
    /// there straight to the UE's *current* station. `flows` is the
    /// departing agent's active flow list.
    ///
    /// All-or-nothing: everything that can fail runs before anything is
    /// recorded. The previous transition is lifted out while the plan
    /// that supersedes it is built; a failure puts it back, drops the
    /// tunnels the attempt created (returning the legs they took, and
    /// t_M if they were the only ones) and takes the attempt's ops off
    /// the stream, so the UE, its reservations, its transition, the
    /// pending ops and the tag pool are as they were.
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
        let prev = self.mobility.transitions.remove(&imsi);
        let (mut draft, mut created) = std::mem::take(&mut self.mobility.draft);
        draft.clear();
        created.clear();
        let mark = self.pending_ops.len();
        let planned = self.plan_handoff(
            (old, new),
            classifier,
            flows,
            prev.as_ref(),
            (&mut draft, &mut created),
        );
        match &planned {
            Ok(_) => {
                self.state.commit_move(old, new);
                // take the new transition's tunnel references *before*
                // dropping the previous transition's, so a pair both
                // transitions use is never torn down and immediately
                // recreated
                for pair in &draft.tunnels {
                    if let Some(t) = self.mobility.tunnels.get_mut(pair) {
                        t.refs += 1;
                    }
                }
                draft.deadline = new.since + self.mobility().transition_ttl;
                let transition = match prev {
                    Some(mut t) => {
                        self.supersede(&t, &draft, mark);
                        for &pair in &t.tunnels {
                            self.release_tunnel_ref(pair);
                        }
                        t.refill(&draft);
                        t
                    }
                    // a UE's first: exact-size copies, as the transition
                    // outlives the call by minutes
                    None => draft.clone(),
                };
                self.mobility.transitions.insert(imsi, transition);
            }
            Err(_) => {
                // the removals dropping queues go with the attempt's ops
                for &pair in &created {
                    self.drop_tunnel(pair);
                }
                self.pending_ops.truncate(mark);
                if let Some(prev) = prev {
                    self.mobility.transitions.insert(imsi, prev);
                }
            }
        }
        self.mobility.draft = (draft, created);
        planned
    }

    /// The fallible part of [`handoff`](Self::handoff): queues the rule
    /// ops, writes the transition that will record them (but its
    /// deadline) to `draft`, and returns the plan. Touches no UE,
    /// reservation or transition state; a tunnel it has to create is
    /// listed in `created` so the caller can undo it.
    fn plan_handoff(
        &mut self,
        (old, new): (UeRecord, UeRecord),
        classifier: UeClassifier,
        flows: &[FlowRecord],
        prev: Option<&Transition>,
        (draft, created): (&mut Transition, &mut Vec<StationPair>),
    ) -> Result<HandoffPlan> {
        let scheme = self.config().scheme;
        let ports = self.config().ports;
        let topo = &self.topology().clone();
        let new_bs = new.bs;

        // per anchor a redirect and a launch rule per flow, and a leg
        // per intermediate hop of a tunnel created where no other tunnel
        // holds one; a move without flows produces no rules at all. The
        // room holds the superseded transition's removals too, queued
        // once the plan stands (`supersede`)
        let room = flows.len() + if flows.is_empty() { 0 } else { 16 };
        let ops = &mut self.pending_ops;
        ops.reserve(prev.map_or(0, |p| p.rules.len()) + room);

        // 0. a previous transition's locations stay reserved; its per-UE
        //    rules are superseded by the ones planned below
        if let Some(prev) = prev {
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
        let mut old_microflow_removals = Vec::with_capacity(flows.len() * 2);
        let mut new_microflow_installs = Vec::with_capacity(flows.len() * 2);
        let mut carried_flows = Vec::with_capacity(flows.len());

        // Flows are handled by anchor LocIP (the original downlink
        // destination), in address order: each distinct
        // location-dependent address needs its own redirect/launch
        // rules, even when two addresses share a station (a UE that
        // revisited the station under a different local id).
        let old_loc_addr = scheme.encode(softcell_types::LocIp::new(old.bs, old.ue_id))?;
        let new_loc_addr = scheme.encode(softcell_types::LocIp::new(new.bs, new.ue_id))?;
        let anchors = || flows.iter().map(|f| f.downlink_original.dst);
        let mut next_anchor = anchors().min();
        while let Some(anchor_addr) = next_anchor {
            next_anchor = anchors().filter(|a| *a > anchor_addr).min();
            let group = || {
                flows
                    .iter()
                    .filter(move |f| f.downlink_original.dst == anchor_addr)
            };
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
                    old_microflow_removals.push(f.uplink);
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
            let tag = self.ensure_tunnel(anchor, new_bs, created)?;
            if !draft.tunnels.contains(&(anchor, new_bs)) {
                draft.tunnels.push((anchor, new_bs));
            }
            let ops = &mut self.pending_ops;
            let Tunnel { path, up, .. } = &self.mobility.tunnels[&(anchor, new_bs)];
            let anchor_access = path[0];
            debug_assert_eq!(*path.last().expect("two ends"), new_access);
            let hop = |sw, next| {
                topo.port_towards(sw, next)
                    .ok_or_else(|| Error::NotFound("tunnel end hop unlinked".into()))
            };

            // 1. anchor access: redirect the UE's downlink into the
            //    tunnel — one per-UE rule matching the anchor LocIP host,
            //    readdressing it to the UE's LocIP at its new station
            //    under the mobility tag
            let redirect = RuleOp::Install {
                switch: anchor_access,
                priority: MOBILITY_PRIORITY,
                matcher: Match::prefix(Direction::Downlink, anchor_host),
                action: Action::RedirectDstForward {
                    addr: new_loc_addr,
                    value: ports.tag_match(tag).0,
                    tag_bits: ports.tag_bits(),
                    out: hop(anchor_access, path[1])?,
                },
            };
            ops.push(redirect);
            draft.rules.push(redirect);

            // 2. launch rules at the anchor access: per flow, matching
            //    the exact mobility-tagged source port arriving off the
            //    uplink path and restoring the flow's *original* policy
            //    tag before forwarding onto the old path. (Per-flow state
            //    at an access switch is cheap and transient — §5.1 copies
            //    per-flow rules anyway.)
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
            let launch_in = hop(anchor_access, up[up.len() - 2])?;
            for &(_, (slot, orig_tag, out)) in &draft.launch_specs[first..] {
                let tunneled_src = ports.encode(tag, slot)?;
                let (ovalue, omask) = ports.tag_match(orig_tag);
                let launch = RuleOp::Install {
                    switch: anchor_access,
                    priority: MOBILITY_PRIORITY,
                    matcher: Match {
                        src_prefix: Some(anchor_host),
                        src_port: Some((tunneled_src, u16::MAX)),
                        in_port: Some(launch_in),
                        ..Match::ANY
                    },
                    action: Action::RewritePortBitsForward {
                        field: tag_field(Direction::Uplink),
                        value: ovalue,
                        mask: omask,
                        out,
                    },
                };
                ops.push(launch);
                draft.rules.push(launch);
            }

            // 3. microflow surgery: remove delivery at the departing
            //    station, install copies at the new one
            let up_out = hop(new_access, up[1])?;
            for f in group() {
                old_microflow_removals.push(f.downlink);
                old_microflow_removals.push(f.uplink);

                // uplink copy: the anchor LocIP with the mobility tag in
                // the source port (the launch rule at the anchor swaps
                // the original tag back), out along the uplink path
                if let MicroflowAction::RewriteSrc {
                    addr, port, dscp, ..
                } = f.up_action
                {
                    let (_, slot) = ports.decode(port);
                    new_microflow_installs.push((
                        f.uplink,
                        MicroflowAction::RewriteSrc {
                            addr,
                            port: ports.encode(tag, slot)?,
                            out: up_out,
                            dscp,
                        },
                    ));
                }

                // downlink copy: re-keyed as the redirect leaves it — the
                // UE's LocIP here and the mobility tag (slot bits
                // survive); delivery restores the permanent endpoint
                let (_, slot) = ports.decode(f.downlink.dst_port);
                let rekeyed = FiveTuple {
                    dst: new_loc_addr,
                    dst_port: ports.encode(tag, slot)?,
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

    /// Queues a shortcut for one long-lived downlink flow: per-flow rules
    /// from the best meet point on the old path directly to the new base
    /// station (§5.1 "temporary shortcut paths"), sharing the
    /// transition's soft timeout. A shortcut that fails queues nothing.
    pub(crate) fn install_shortcut(
        &mut self,
        imsi: UeImsi,
        old_path_switches: &[SwitchId],
        downlink: FiveTuple,
        now: SimTime,
    ) -> Result<()> {
        let new_rec = *self.state.ue(imsi)?;
        let new_access = self.topology().base_station(new_rec.bs).access_switch;

        // meet point: the old-path switch closest to the new access
        let mut best: Option<(u32, SwitchId)> = None;
        for &sw in old_path_switches {
            if let Some(d) = self.paths.distance(sw, new_access) {
                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, sw));
                }
            }
        }
        let (_, meet) = best.ok_or_else(|| Error::NoPath("no reachable meet point".into()))?;
        let splice = self.paths.path(meet, new_access)?;

        let host = Ipv4Prefix::host(downlink.dst);
        let mut ops = Vec::new();
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
        }

        let ttl = self.mobility.transition_ttl;
        if let Some(t) = self.mobility.transitions.get_mut(&imsi) {
            t.rules.extend_from_slice(&ops);
            t.deadline = t.deadline.max(now + ttl);
        }
        self.pending_ops.extend(ops);
        Ok(())
    }

    /// Ends `imsi`'s transition, if any (expiry or detach): queues its
    /// per-UE rules' removal, then that of any tunnel it held the last
    /// reference on, and releases its reserved locations.
    pub(crate) fn end_transition(&mut self, imsi: UeImsi) {
        let Some(t) = self.mobility.transitions.remove(&imsi) else {
            return;
        };
        (self.pending_ops).extend(t.rules.iter().map(RuleOp::removal));
        for (bs, ue_id) in t.reserved_locs {
            if self.state.release_location(bs, ue_id) {
                self.released_locations.push((bs, ue_id));
            }
        }
        for pair in t.tunnels {
            self.release_tunnel_ref(pair);
        }
    }

    /// Ends the transitions whose soft timeout has passed by `now`;
    /// returns the number of rule ops queued. Only now may their old
    /// location-dependent addresses be assigned again (§5.1).
    pub(crate) fn expire_transitions(&mut self, now: SimTime) -> usize {
        let expired: Vec<UeImsi> = (self.mobility.transitions.iter())
            .filter(|(_, t)| t.deadline <= now)
            .map(|(imsi, _)| *imsi)
            .collect();
        let queued = self.pending_ops.len();
        for imsi in expired {
            self.end_transition(imsi);
        }
        self.pending_ops.len() - queued
    }

    /// Drops one transition's reference on a tunnel. The last reference
    /// garbage-collects it (see [`drop_tunnel`](Self::drop_tunnel)).
    fn release_tunnel_ref(&mut self, pair: StationPair) {
        let Some(t) = self.mobility.tunnels.get_mut(&pair) else {
            return;
        };
        t.refs = t.refs.saturating_sub(1);
        if t.refs == 0 {
            self.drop_tunnel(pair);
        }
    }

    /// Removes a tunnel: it drops its references on the legs along its
    /// two paths, queueing the removal of each leg no other tunnel
    /// crosses; the last tunnel returns t_M to the pool.
    fn drop_tunnel(&mut self, pair: StationPair) {
        let mobility = &mut self.mobility;
        let Some(t) = mobility.tunnels.remove(&pair) else {
            return;
        };
        for (sw, dest, dir, _) in t.hops(pair) {
            // memoised when the tunnel took its reference
            if let Some(&block) = mobility.blocks.get(&(sw, dest)) {
                mobility.release_leg((sw, block, dir), &mut self.pending_ops);
            }
        }
        if mobility.tunnels.is_empty() {
            if let Some(tag) = mobility.tag.take() {
                self.installer.release_raw_tag(tag);
            }
        }
    }

    /// Queues the teardown of `prev`, the transition a planned move
    /// supersedes, where the move's ops begin (`mark`): the removal of
    /// each of its rules that `next` does not hold unchanged (same
    /// switch, priority, matcher and action). Such a rule stays up, and
    /// its re-install leaves the stream. In place: the removals fill the
    /// room the plan reserved and rotate to the front.
    fn supersede(&mut self, prev: &Transition, next: &Transition, mark: usize) {
        let ops = &mut self.pending_ops;
        let mut kept = mark;
        for at in mark..ops.len() {
            let op = ops[at];
            if !prev.rules.contains(&op) {
                ops[kept] = op;
                kept += 1;
            }
        }
        ops.truncate(kept);
        let changed = prev.rules.iter().filter(|r| !next.rules.contains(r));
        ops.extend(changed.map(RuleOp::removal));
        let removals = ops.len() - kept;
        ops[mark..].rotate_right(removals);
    }

    /// The LocIP prefix of the block of stations that shares `dest`'s
    /// leg at `sw`: the largest aligned block of station ids around
    /// `dest` whose every station `sw` reaches through the same next
    /// hop, each on its own per-destination tree. A station whose
    /// access switch is `sw` has no next hop there, so no block covers
    /// it, and `None` is returned for one. Blocks depend on the topology
    /// alone: each is computed once, from the trees' parent pointers.
    fn leg_block(&mut self, sw: SwitchId, dest: BaseStationId) -> Option<Ipv4Prefix> {
        if let Some(&block) = self.mobility.blocks.get(&(sw, dest)) {
            return Some(block);
        }
        let scheme = self.config().scheme;
        let topo = self.topology().clone();
        let stations = topo.base_stations();
        let paths = &mut self.paths;
        let mut next_of = |bs: u32| {
            let root = stations.get(bs as usize)?.access_switch;
            paths.tree(root).next_hop(sw)
        };
        let next = next_of(dest.0)?;
        let (max_shift, count) = (scheme.max_base_stations().trailing_zeros(), stations.len());
        let mut shift = 0;
        while shift < max_shift {
            // the other half of the block one size up
            let sibling = ((dest.0 >> shift) ^ 1) << shift;
            let end = (sibling + (1 << shift)).min(count as u32);
            if !(sibling..end).all(|bs| next_of(bs) == Some(next)) {
                break;
            }
            shift += 1;
        }
        let block = scheme.station_block(dest, shift as u8).ok()?;
        self.mobility.blocks.insert((sw, dest), block);
        Some(block)
    }

    /// Ensures the (from → to) tunnel exists, listing the pair in
    /// `created` on first creation, and returns t_M. A new tunnel holds
    /// t_M — the first allocates it — and takes a reference on the legs
    /// along its two paths, queueing the install of each leg no other
    /// tunnel crosses yet.
    fn ensure_tunnel(
        &mut self,
        from: BaseStationId,
        to: BaseStationId,
        created: &mut Vec<StationPair>,
    ) -> Result<PolicyTag> {
        if self.mobility().tunnels.contains_key(&(from, to)) {
            // held by that tunnel: no allocation
            return self.mobility.hold_tag(&mut self.installer);
        }
        let topo = &self.topology().clone();
        let from_sw = topo.base_station(from).access_switch;
        let to_sw = topo.base_station(to).access_switch;
        let tunnel = Tunnel {
            path: self.paths.path(from_sw, to_sw)?,
            up: self.paths.path(to_sw, from_sw)?,
            refs: 0,
        };
        let ports = self.config().ports;
        let tag = self.mobility.hold_tag(&mut self.installer)?;

        // A leg matches t_M and the LocIP prefix of its destination
        // station's block (see `leg_block`): downlink legs the current
        // station's in the destination address, uplink legs the
        // anchor's in the source. A path to a station walks the tree
        // rooted at its access switch, and every station of a block
        // leaves the switch through one next hop, so a leg has one next
        // hop whichever tunnel installed it, and needs no in-port. The
        // tag is what keeps a leg loop-free: t_M is never a policy tag,
        // so no leg captures a UE's traffic travelling its old policy
        // path, even where the two share a directed edge (a forwarding
        // loop the randomized churn test found at k=4 for address-only
        // rules).
        for (sw, dest, dir, next) in tunnel.hops((from, to)) {
            let block = (self.leg_block(sw, dest)).expect("a middle hop has a next hop");
            let out = (topo.port_towards(sw, next)).expect("shortest paths step along links");
            let matcher = Match::tag_and_prefix(dir, tag, block, &ports);
            let priority = match dir {
                Direction::Downlink => conventional_priority(&matcher),
                Direction::Uplink => MOBILITY_PRIORITY,
            };
            let install = (priority, matcher, out);
            (self.mobility).hold_leg((sw, block, dir), install, &mut self.pending_ops);
        }
        let mobility = &mut self.mobility;
        mobility.tunnels.insert((from, to), tunnel);
        created.push((from, to));
        Ok(tag)
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
        // both of the flow's entries leave the old access switch: its
        // uplink entry is keyed by the UE's source there
        assert_eq!(
            plan.old_microflow_removals,
            vec![flow.downlink, flow.uplink]
        );
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
    fn downlink_copy_is_rekeyed_to_the_new_locip_under_the_mobility_tag() {
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
            .handoff(UeImsi(0), BaseStationId(2), UeId(1), &[flow], SimTime::ZERO)
            .unwrap();
        let (ports, scheme) = (ctl.config().ports, ctl.config().scheme);
        let (down_copy, _) = plan
            .new_microflow_installs
            .iter()
            .find(|(_, a)| matches!(a, MicroflowAction::RewriteDst { .. }))
            .unwrap();
        let here = softcell_types::LocIp::new(BaseStationId(2), UeId(1));
        assert_eq!(
            down_copy.dst,
            scheme.encode(here).unwrap(),
            "keyed by the UE's LocIP at the new station"
        );
        let (tag, slot) = ports.decode(down_copy.dst_port);
        assert_ne!(tag, tags.downlink_final);
        assert_eq!(
            Some(tag),
            ctl.mobility().mobility_tag(),
            "tag bits now carry the mobility tag"
        );
        let (_, orig_slot) = ports.decode(flow.downlink.dst_port);
        assert_eq!(slot, orig_slot, "flow slot bits survive the tunnel");
        assert_eq!(plan.carried_flows[0].downlink, *down_copy);
        assert_eq!(plan.carried_flows[0].downlink_original, flow.downlink);
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
        ctl.drain_ops();
        assert_eq!(ctl.expire_transitions(SimTime::from_secs(1)), 0);
        let queued = ctl.expire_transitions(SimTime::from_secs(500));
        let ops = ctl.drain_ops();
        assert!(!ops.is_empty(), "teardown removes per-UE rules");
        assert_eq!(queued, ops.len());
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
        ctl.mobility.transition_ttl = softcell_types::SimDuration::from_secs(10);
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
        assert_eq!(
            ctl.expire_transitions(SimTime::from_secs(12)),
            0,
            "shortcut renewal keeps the transition alive past the original deadline"
        );
        assert_eq!(ctl.mobility().transitions_active(), 1);
        assert!(
            ctl.expire_transitions(SimTime::from_secs(16)) > 0,
            "expires at now + transition_ttl, not +120 s"
        );
        assert_eq!(ctl.mobility().transitions_active(), 0);
    }

    #[test]
    fn tags_return_to_baseline_once_every_tunnel_is_collected() {
        // regression: tunnels allocated a raw tag per base-station pair
        // and never freed it, so handoff churn across enough distinct
        // pairs exhausted the tag space. Leave exactly ONE free tag —
        // the mobility tag — and churn through three pairs: every
        // round's tunnel takes it, and collecting the tunnel returns it.
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
            ctl.installer.allocate_raw_tag().unwrap();
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
            assert!(ctl.mobility().mobility_tag().is_some());
            assert_eq!(ctl.installer().tags_in_use(), baseline + 1);
            now += softcell_types::SimDuration::from_secs(1_000);
            ctl.drain_ops();
            ctl.expire_transitions(now);
            let ops = ctl.drain_ops();
            assert!(
                ops.iter().all(|o| matches!(o, RuleOp::Remove { .. })),
                "expiry only removes rules"
            );
            assert_eq!(ctl.mobility().tunnel_count(), 0, "tunnel collected");
            assert!(ctl.mobility().legs.is_empty(), "legs collected");
            assert_eq!(ctl.mobility().mobility_tag(), None);
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
        ctl.drain_ops();
        ctl.install_shortcut(UeImsi(0), &old_path, flow.downlink, SimTime::ZERO)
            .unwrap();
        let ops = ctl.drain_ops();
        assert!(!ops.is_empty());
        // shortcut rules are per-flow: they match the exact dst port
        for op in &ops {
            let RuleOp::Install { matcher, .. } = op else {
                panic!("shortcut only installs")
            };
            assert_eq!(matcher.dst_port, Some((flow.downlink.dst_port, u16::MAX)));
        }
    }

    #[test]
    fn blocks_partition_the_stations_by_next_hop() {
        // At every switch of paper(4) (its access switches carry transit
        // legs round their rings) and every non-access switch of
        // paper(8): the blocks partition the stations the switch is not
        // the access switch of, every station of a block leaves the
        // switch through one next hop on its own tree, and each block is
        // the largest aligned one that does.
        for k in [4, 8] {
            let topo = softcell_topology::CellularParams::paper(k).build().unwrap();
            let mut ctl = controller(&topo);
            let scheme = ctl.config().scheme;
            let stations = topo.base_stations();
            let last_station = stations.len() - 1;
            let station_of = |addr| scheme.decode(addr).unwrap().base_station.index();
            let transit = |n: &&softcell_topology::SwitchNode| {
                k == 4 || n.role != softcell_topology::SwitchRole::Access
            };
            for sw in topo.switches().iter().filter(transit).map(|n| n.id) {
                let next: Vec<Option<SwitchId>> = (stations.iter())
                    .map(|bs| ctl.paths.tree(bs.access_switch).next_hop(sw))
                    .collect();
                let mut s = 0;
                while s <= last_station {
                    let Some(block) = ctl.leg_block(sw, BaseStationId(s as u32)) else {
                        assert_eq!(stations[s].access_switch, sw, "{sw}: station {s}");
                        s += 1;
                        continue;
                    };
                    let (first, last) = (station_of(block.first()), station_of(block.last()));
                    assert_eq!(first, s, "{sw}: {block} overlaps the block before it");
                    for m in first..=last.min(last_station) {
                        assert_eq!(next[m], next[s], "{sw}: station {m} leaves {block} apart");
                        let of_m = ctl.leg_block(sw, BaseStationId(m as u32));
                        assert_eq!(of_m, Some(block), "{sw}: station {m} in two blocks");
                    }
                    if let Some(up) = block.parent().filter(|p| scheme.carrier().covers(p)) {
                        let (first, last) = (station_of(up.first()), station_of(up.last()));
                        assert!(
                            (first..=last.min(last_station)).any(|m| next[m] != next[s]),
                            "{sw}: {block} is not the largest block around station {s}"
                        );
                    }
                    s = last + 1;
                }
            }
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
            ctl.mobility().tag,
            ctl.mobility().legs.clone(),
            ctl.installer().tags_in_use(),
        )
    }

    #[test]
    fn failed_handoff_changes_nothing() {
        // regression: `handoff` moved the UE and dropped its previous
        // transition *before* the steps that can fail, so running out of
        // tags left the UE recorded at the new station with its old
        // transition's teardown ops and tunnel references lost
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
        while let Some(tag) = ctl.installer.allocate_raw_tag() {
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

        // a retry after one tag — the mobility tag — is freed succeeds
        ctl.installer.release_raw_tag(hoard.pop().unwrap());
        let plan = ctl
            .handoff(UeImsi(0), BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
            .unwrap();
        let mut moved: Vec<FlowRecord> = plan.carried_records().collect();

        // a previous transition: it survives a failed second move whole —
        // its tunnel keeps its reference and its teardown still comes.
        // The move also carries a flow anchored at station 1 that no
        // transition recorded: the (0 → 2) and (1 → 2) tunnels it
        // builds under the held tag come down again
        let scheme = ctl.config().scheme;
        let stray_loc = softcell_types::LocIp::new(BaseStationId(1), UeId(0));
        let stray_down = FiveTuple {
            dst: scheme.encode(stray_loc).unwrap(),
            src_port: 444,
            ..flow.downlink
        };
        moved.push(FlowRecord {
            uplink: FiveTuple {
                src_port: 50_001,
                ..flow.uplink
            },
            downlink: stray_down,
            downlink_original: stray_down,
            ..flow
        });
        let before = snapshot(&ctl, UeImsi(0));
        let pending = ctl.pending_ops.clone();
        let err = ctl
            .handoff(UeImsi(0), BaseStationId(2), UeId(0), &moved, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "{err}");
        assert!(before == snapshot(&ctl, UeImsi(0)), "{before:?}");
        assert_eq!(ctl.pending_ops, pending);
        assert_eq!(ctl.mobility().transitions_active(), 1);
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        assert!(ctl.expire_transitions(SimTime::from_secs(500)) > 0);
        assert_eq!(ctl.mobility().tunnel_count(), 0);
        assert_eq!(ctl.mobility().mobility_tag(), None);
    }

    #[test]
    fn a_first_tunnel_needs_the_mobility_tag() {
        // the network's first tunnel takes the mobility tag: with no
        // free tag the handoff fails whole — no tag is held, no leg is
        // held and the ops queued before it end the stream again
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let grants: Vec<_> = (0..2u16)
            .map(|i| {
                ctl.attach_ue(UeImsi(i.into()), BaseStationId(0), UeId(i), SimTime::ZERO)
                    .unwrap()
            })
            .collect();
        let tags = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        let [f0, f1] = [0, 1].map(|i| {
            let g = &grants[i];
            sample_flow(&ctl, tags, g.record.permanent_ip, g.record.ue_id)
        });
        let capacity = usize::from(ctl.config().tag_policy.capacity);
        let mut hoard = Vec::new();
        while let Some(tag) = ctl.installer.allocate_raw_tag() {
            hoard.push(tag);
        }
        let pending = ctl.pending_ops.clone();
        assert!(!pending.is_empty(), "the policy path's installs");
        let before = snapshot(&ctl, UeImsi(0));
        let err = ctl
            .handoff(UeImsi(0), BaseStationId(3), UeId(0), &[f0], SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)), "{err}");
        assert!(before == snapshot(&ctl, UeImsi(0)), "{before:?}");
        assert_eq!(ctl.pending_ops, pending);
        assert!(ctl.mobility().legs.is_empty());
        assert_eq!(ctl.mobility().mobility_tag(), None);
        assert_eq!(ctl.installer().tags_in_use(), capacity);

        // with one free tag it succeeds; a second tunnel, between other
        // stations, then needs no tag at all
        ctl.installer.release_raw_tag(hoard.pop().unwrap());
        ctl.handoff(UeImsi(0), BaseStationId(3), UeId(0), &[f0], SimTime::ZERO)
            .unwrap();
        assert_eq!(ctl.installer().tags_in_use(), capacity);
        ctl.handoff(UeImsi(1), BaseStationId(2), UeId(1), &[f1], SimTime::ZERO)
            .unwrap();
        assert_eq!(ctl.mobility().tunnel_count(), 2);
        assert!(ctl.mobility().mobility_tag().is_some());
        assert_eq!(ctl.installer().tags_in_use(), capacity);
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
            /// The LocIP prefix of the block `dest` shares a leg with at
            /// `sw`, found from path vectors: the aligned block around
            /// `dest` grows while every station in it has a path from
            /// `sw` with the same second switch.
            fn block_reference(&mut self, sw: SwitchId, dest: BaseStationId) -> Result<Ipv4Prefix> {
                let topo = self.topology().clone();
                let scheme = self.config().scheme;
                let stations = topo.base_stations();
                let bits = scheme.max_base_stations().trailing_zeros();
                let mut next_of = |s: usize| {
                    let path = self.paths.path(sw, stations[s].access_switch).ok()?;
                    path.get(1).copied()
                };
                let next = next_of(dest.index());
                let mut shift = 0;
                while u32::from(shift) < bits {
                    let size = 1 << (shift + 1);
                    let first = dest.index() / size * size;
                    if !(first..(first + size).min(stations.len())).all(|s| next_of(s) == next) {
                        break;
                    }
                    shift += 1;
                }
                scheme.station_block(dest, shift)
            }

            /// The (from → to) tunnel, created on first use: the
            /// mobility tag, allocated for the first tunnel; then hop by
            /// hop a reference on the downlink leg towards the new
            /// station's block at every switch between the two access
            /// switches, and on the uplink leg towards the anchor's block
            /// at every switch on the way back, a leg installed by its
            /// first reference.
            fn tunnel_reference(
                &mut self,
                from: BaseStationId,
                to: BaseStationId,
                ops: &mut Vec<RuleOp>,
            ) -> Result<()> {
                if self.mobility.tunnels.contains_key(&(from, to)) {
                    return Ok(());
                }
                let topo = self.topology().clone();
                let ends = (topo.base_station(from), topo.base_station(to));
                let path = self
                    .paths
                    .path(ends.0.access_switch, ends.1.access_switch)?;
                let up = self
                    .paths
                    .path(ends.1.access_switch, ends.0.access_switch)?;
                let ports = self.config().ports;
                let tag = match self.mobility.tag {
                    Some(tag) => tag,
                    None => self
                        .installer
                        .allocate_raw_tag()
                        .ok_or_else(|| Error::Exhausted("no tag left for tunnel".into()))?,
                };
                self.mobility.tag = Some(tag);
                for (hops, dest, dir) in [
                    (&path, to, Direction::Downlink),
                    (&up, from, Direction::Uplink),
                ] {
                    for i in 1..hops.len().saturating_sub(1) {
                        let sw = hops[i];
                        let block = self.block_reference(sw, dest)?;
                        // where the engine's tunnel drop looks it up
                        self.mobility.blocks.insert((sw, dest), block);
                        let matcher = Match::tag_and_prefix(dir, tag, block, &ports);
                        let priority = match dir {
                            Direction::Downlink => conventional_priority(&matcher),
                            Direction::Uplink => MOBILITY_PRIORITY,
                        };
                        let out = topo.port_towards(sw, hops[i + 1]).expect("linked hop");
                        let leg = self
                            .mobility
                            .legs
                            .entry((sw, block, dir))
                            .or_insert_with(|| {
                                ops.push(RuleOp::Install {
                                    switch: sw,
                                    priority,
                                    matcher,
                                    action: Action::Forward(out),
                                });
                                (
                                    RuleOp::Remove {
                                        switch: sw,
                                        matcher,
                                    },
                                    0,
                                )
                            });
                        leg.1 += 1;
                    }
                }
                let tunnel = Tunnel { path, up, refs: 0 };
                self.mobility.tunnels.insert((from, to), tunnel);
                Ok(())
            }

            fn handoff_reference(
                &mut self,
                imsi: UeImsi,
                new_bs: BaseStationId,
                new_ue_id: UeId,
                flows: &[FlowRecord],
                now: SimTime,
            ) -> Result<HandoffPlan> {
                let (old, new) = self.state.check_move(imsi, new_bs, new_ue_id, now)?;
                self.state.commit_move(old, new);
                let attrs = *self.state().subscriber(imsi)?;
                let classifier = UeClassifier::compile(self.state().policy(), self.apps(), &attrs);

                let scheme = self.config().scheme;
                let ports = self.config().ports;

                let mut ops: Vec<RuleOp> = Vec::new();
                let mut rules: Vec<RuleOp> = Vec::new();

                // 0. a previous transition's per-UE rules are superseded: tear
                //    them down now (the anchors get fresh rules below; the
                //    ones that come back unchanged are taken out again once
                //    the new rules are known)
                let prev = self.mobility.transitions.remove(&imsi);
                let mut prev_launch_specs: HashMap<Ipv4Addr, Vec<LaunchSpec>> = HashMap::new();
                let mut reserved_locs: Vec<(BaseStationId, UeId)> = Vec::new();
                let mut prev_tunnels: Vec<(BaseStationId, BaseStationId)> = Vec::new();
                let mut prev_rules: Vec<RuleOp> = Vec::new();
                if let Some(prev) = prev {
                    ops.extend(prev.rules.iter().map(RuleOp::removal));
                    prev_rules = prev.rules;
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

                // group flows by their anchor LocIP (the original downlink
                // destination): each distinct location-dependent address
                // needs its own redirect/launch rules, even when two
                // addresses share a station (a UE that revisited the
                // station under a different local id)
                let mut groups: Vec<(std::net::Ipv4Addr, Vec<&FlowRecord>)> = Vec::new();
                for f in flows {
                    let anchor_addr = f.downlink_original.dst;
                    match groups.iter_mut().find(|(a, _)| *a == anchor_addr) {
                        Some((_, g)) => g.push(f),
                        None => groups.push((anchor_addr, vec![f])),
                    }
                }
                groups.sort_by_key(|(a, _)| *a);

                let new_access = self.topology().base_station(new_bs).access_switch;
                let new_radio = self.topology().base_station(new_bs).radio_port;
                let mut old_microflow_removals = Vec::with_capacity(flows.len() * 2);
                let mut new_microflow_installs = Vec::with_capacity(flows.len() * 2);
                let mut carried_flows = Vec::with_capacity(flows.len());
                let mut launch_specs: HashMap<
                    std::net::Ipv4Addr,
                    Vec<(u16, PolicyTag, softcell_types::PortNo)>,
                > = HashMap::new();
                let mut used_tunnels: Vec<(BaseStationId, BaseStationId)> = Vec::new();

                let old_loc_addr = scheme.encode(softcell_types::LocIp::new(old.bs, old.ue_id))?;
                let new_loc_addr = scheme.encode(softcell_types::LocIp::new(new.bs, new.ue_id))?;
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
                            old_microflow_removals.push(f.uplink);
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
                    self.tunnel_reference(anchor, new_bs, &mut ops)?;
                    let tunnel = self.mobility().tunnels[&(anchor, new_bs)].clone();
                    if !used_tunnels.contains(&(anchor, new_bs)) {
                        used_tunnels.push((anchor, new_bs));
                    }
                    let tag = self.mobility.tag.expect("held by the tunnel");
                    let tunnel_path = tunnel.path.clone();
                    let anchor_access = tunnel_path[0];
                    debug_assert_eq!(*tunnel_path.last().expect("two ends"), new_access);

                    // 1. anchor access: redirect the UE's downlink into the
                    //    tunnel — one per-UE rule matching the anchor LocIP host
                    let redirect_match = Match::prefix(Direction::Downlink, anchor_host);
                    let out = self
                        .topology()
                        .port_towards(anchor_access, tunnel_path[1])
                        .ok_or_else(|| Error::NotFound("tunnel first hop unlinked".into()))?;
                    let redirect = RuleOp::Install {
                        switch: anchor_access,
                        priority: MOBILITY_PRIORITY,
                        matcher: redirect_match,
                        action: Action::RedirectDstForward {
                            addr: new_loc_addr,
                            value: ports.tag_match(tag).0,
                            tag_bits: ports.tag_bits(),
                            out,
                        },
                    };
                    ops.push(redirect);
                    rules.push(redirect);

                    // 2. launch rules at the anchor access: per flow, matching
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
                        .port_towards(anchor_access, tunnel.up[tunnel.up.len() - 2])
                        .expect("linked hop");
                    for &(slot, orig_tag, out) in &specs {
                        let tunneled_src = ports.encode(tag, slot)?;
                        let (ovalue, omask) = ports.tag_match(orig_tag);
                        let m = Match {
                            src_prefix: Some(anchor_host),
                            src_port: Some((tunneled_src, u16::MAX)),
                            in_port: Some(tunnel_in),
                            ..Match::ANY
                        };
                        let launch = RuleOp::Install {
                            switch: anchor_access,
                            priority: MOBILITY_PRIORITY,
                            matcher: m,
                            action: Action::RewritePortBitsForward {
                                field: tag_field(Direction::Uplink),
                                value: ovalue,
                                mask: omask,
                                out,
                            },
                        };
                        ops.push(launch);
                        rules.push(launch);
                    }
                    launch_specs.insert(anchor_addr, specs);

                    // 3. microflow surgery: remove delivery at the departing
                    //    station, install copies at the new one
                    let reverse_out = self
                        .topology()
                        .port_towards(new_access, tunnel.up[1])
                        .ok_or_else(|| Error::NotFound("tunnel last hop unlinked".into()))?;
                    for f in &group {
                        old_microflow_removals.push(f.downlink);
                        old_microflow_removals.push(f.uplink);

                        // uplink copy: the anchor LocIP with the mobility tag in
                        // the source port (the launch rule at the anchor swaps
                        // the original tag back), out along the uplink path
                        if let MicroflowAction::RewriteSrc {
                            addr, port, dscp, ..
                        } = f.up_action
                        {
                            let (_, slot) = ports.decode(port);
                            new_microflow_installs.push((
                                f.uplink,
                                MicroflowAction::RewriteSrc {
                                    addr,
                                    port: ports.encode(tag, slot)?,
                                    out: reverse_out,
                                    dscp,
                                },
                            ));
                        }

                        // downlink copy: re-keyed to the UE's LocIP here under
                        // the mobility tag (slot bits survive); delivery
                        // restores the permanent endpoint
                        let (_, slot) = ports.decode(f.downlink.dst_port);
                        let rekeyed = FiveTuple {
                            dst: new_loc_addr,
                            dst_port: ports.encode(tag, slot)?,
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

                // a superseded rule installed again unchanged stays up:
                // neither its removal nor its re-install is queued
                for kept in prev_rules.iter().filter(|r| rules.contains(r)) {
                    let removal = kept.removal();
                    ops.retain(|op| op != kept && *op != removal);
                }

                // take the new transition's tunnel references *before* dropping
                // the previous transition's, so a pair both transitions use is
                // never torn down and immediately recreated
                for pair in &used_tunnels {
                    if let Some(t) = self.mobility.tunnels.get_mut(pair) {
                        t.refs += 1;
                    }
                }
                let ttl = self.mobility().transition_ttl;
                self.mobility.transitions.insert(
                    imsi,
                    Transition {
                        rules,
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
                    self.release_tunnel_ref(pair);
                    ops.append(&mut self.pending_ops);
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
                    prop_assert_eq!(new.mobility().tag, old.mobility().tag);
                    prop_assert_eq!(&new.mobility().legs, &old.mobility().legs);
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
