//! The local agent at each base station (paper §4.2).
//!
//! "SoftCell introduces a local software agent running at each base
//! station to scale the control plane." The agent:
//!
//! * assigns local UE identifiers and registers attaches with the
//!   central controller;
//! * caches the per-UE packet classifiers the controller computes;
//! * on each new flow, classifies it locally and installs the microflow
//!   rules in the access switch (uplink LocIP/tag rewrite, downlink
//!   permanent-address restore);
//! * contacts the controller **only** when no policy tag exists yet for
//!   the flow's (clause, base station) — everything else is a cache hit.
//!
//! The controller is reached through [`ControllerApi`] so the same agent
//! code runs against a direct in-process controller (simulator) or a
//! channel-backed threaded one (the §6.2 micro-benchmarks).
//!
//! The agent's per-station bookkeeping is three small pieces: an
//! [`IdPool`] of local UE ids (the low bits of LocIP), [`FlowSlots`]
//! (the per-UE flow slots embedded in the source port) and
//! [`microflow_pair`] (the two access-switch entries of a flow).
//! [`LocalAgent`] runs them against its `Switch`; the sharded
//! controller ([`crate::sharded`]) runs the same three — station id
//! pools under the ticket, slots and flow pairs on the UE's shard —
//! which is why the two can never disagree about an id or a slot.

use std::net::Ipv4Addr;

use softcell_dataplane::{MicroflowAction, Switch};
use softcell_packet::{FiveTuple, HeaderView};
use softcell_policy::clause::{AccessControl, ClauseId};
use softcell_policy::UeClassifier;
use softcell_types::{
    AddressingScheme, BaseStationId, Error, FxHashMap, IdPool, LocIp, PortEmbedding, PortNo,
    Result, SimDuration, SimTime, UeId, UeImsi,
};

use crate::core::{AttachGrant, PathTags};
use crate::mobility::FlowRecord;
use crate::state::UeRecord;

/// Idle timeout a new agent hands to its microflow entries.
pub(crate) const MICROFLOW_IDLE: SimDuration = SimDuration::from_secs(30);

/// One UE's flow slots (§4.1: the slot rides in the source port beside
/// the policy tag, so concurrent flows of one UE stay distinguishable).
#[derive(Clone, Debug, Default)]
pub struct FlowSlots {
    next: u16,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is active;
    /// grown on demand (one word at the default 64 slots).
    active: Vec<u64>,
}

impl FlowSlots {
    fn is_active(&self, slot: u16) -> bool {
        let word = self.active.get(usize::from(slot / 64));
        word.is_some_and(|w| w & (1 << (slot % 64)) != 0)
    }

    /// Claims a slot below `slots`: scans upward from just past the last
    /// one claimed, wrapping around, skipping active slots. `None` when
    /// all `slots` are active.
    pub fn allocate(&mut self, slots: u16) -> Option<u16> {
        let mut slot = self.next % slots;
        for _ in 0..slots {
            if !self.is_active(slot) {
                self.occupy(slot);
                self.next = slot + 1;
                return Some(slot);
            }
            slot = (slot + 1) % slots;
        }
        None
    }

    /// Marks a slot chosen elsewhere (a flow carried in by a handoff)
    /// as active.
    pub fn occupy(&mut self, slot: u16) {
        let word = usize::from(slot / 64);
        if word >= self.active.len() {
            self.active.resize(word + 1, 0);
        }
        self.active[word] |= 1 << (slot % 64);
    }

    /// Frees a slot whose flow ended.
    pub fn release(&mut self, slot: u16) {
        if let Some(w) = self.active.get_mut(usize::from(slot / 64)) {
            *w &= !(1 << (slot % 64));
        }
    }

    /// Frees every slot and restarts the scan at slot 0 (the words keep
    /// their capacity: a handoff clears and refills them in one go).
    pub fn clear(&mut self) {
        self.next = 0;
        self.active.clear();
    }
}

/// Builds the two access-switch entries of a new flow (§4.2). Uplink:
/// the tuple as the UE sends it, rewritten to source from `(loc_addr,
/// uplink tag | slot)` with the clause's QoS marking applied at the
/// edge (§2.2). Downlink: the tuple as it arrives from the fabric (the
/// server echoes the embedding; downlink swaps may have changed the
/// tag bits), restored to the permanent endpoint and sent out the
/// radio port.
pub fn microflow_pair(
    ports: &PortEmbedding,
    tags: &PathTags,
    loc_addr: Ipv4Addr,
    permanent_ip: Ipv4Addr,
    radio_port: PortNo,
    tuple: FiveTuple,
    slot: u16,
) -> Result<FlowRecord> {
    let downlink = FiveTuple {
        src: tuple.dst,
        dst: loc_addr,
        src_port: tuple.dst_port,
        dst_port: ports.encode(tags.downlink_final, slot)?,
        proto: tuple.proto,
    };
    Ok(FlowRecord {
        uplink: tuple,
        downlink,
        downlink_original: downlink,
        up_action: MicroflowAction::RewriteSrc {
            addr: loc_addr,
            port: ports.encode(tags.uplink_entry, slot)?,
            out: tags.access_out_port,
            dscp: tags.qos.map(|q| q.dscp),
        },
        down_action: MicroflowAction::RewriteDst {
            addr: permanent_ip,
            port: tuple.src_port,
            out: radio_port,
        },
    })
}

/// The controller operations an agent needs. Implemented directly by
/// [`crate::core::CentralController`] and by channel-backed proxies.
pub trait ControllerApi {
    /// Registers an attach; returns the grant (record + classifier).
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant>;

    /// Requests (installing if necessary) the policy path of a clause
    /// from this base station.
    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags>;

    /// Detaches a UE.
    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord>;

    /// Whether the last call got the controller's answer. A failed call
    /// that did not (its exchange was lost) may or may not have been
    /// applied. In process every call is answered.
    fn answered(&self) -> bool {
        true
    }
}

impl ControllerApi for crate::core::CentralController {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        // fully-qualified call picks the inherent method, not this one
        crate::core::CentralController::attach_ue(self, imsi, bs, ue_id, now)
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        crate::core::CentralController::request_policy_path(self, bs, clause)
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        crate::core::CentralController::detach_ue(self, imsi)
    }
}

/// One attached UE as the agent sees it.
#[derive(Clone, Debug)]
pub struct AgentUe {
    /// Subscriber identity.
    pub imsi: UeImsi,
    /// Local identifier (and low bits of the LocIP).
    pub ue_id: UeId,
    /// Permanent address (what the UE itself sources from).
    pub permanent_ip: Ipv4Addr,
    /// The cached classifier.
    pub classifier: UeClassifier,
    slots: FlowSlots,
    /// Active flows — needed for handoff rule copying (§5.1).
    pub flows: Vec<AgentFlow>,
}

/// One active flow as the agent tracks it across moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgentFlow {
    /// The uplink five-tuple as the UE sends it (permanent source).
    pub uplink: FiveTuple,
    /// The downlink tuple as it *currently* arrives (after any mobility
    /// tunnel re-keyed its tag bits).
    pub downlink: FiveTuple,
    /// The downlink tuple as it was originally keyed at the anchor
    /// station — needed when the UE returns home and delivery reverts to
    /// the original key.
    pub downlink_original: FiveTuple,
}

/// What handling a new flow produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowSetup {
    /// Rules installed; traffic flows.
    Allowed {
        /// The clause applied.
        clause: ClauseId,
        /// The rewritten uplink source the fabric will see.
        loc_source: (Ipv4Addr, u16),
        /// Whether the tag cache had to escalate to the controller.
        cache_hit: bool,
    },
    /// The clause denies this traffic; a drop rule was installed.
    Denied {
        /// The denying clause.
        clause: ClauseId,
    },
}

/// Running counters (Table 2 measures the hit/miss split).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Flows processed.
    pub flows: u64,
    /// Tag-cache hits (handled without the controller).
    pub cache_hits: u64,
    /// Tag-cache misses (controller round trip).
    pub cache_misses: u64,
    /// Flows denied by policy.
    pub denied: u64,
}

/// The local agent of one base station.
pub struct LocalAgent {
    bs: BaseStationId,
    radio_port: PortNo,
    scheme: AddressingScheme,
    ports: PortEmbedding,
    ues: FxHashMap<UeImsi, AgentUe>,
    by_permanent: FxHashMap<Ipv4Addr, UeImsi>,
    /// Local UE ids (§3.1/§4.2). An id is held from the moment it is
    /// reserved or adopted until it is released — including while the UE
    /// that used it has moved away and the location is still reserved
    /// for its old flows (§5.1).
    ids: IdPool,
    /// Ids of attaches whose exchange was lost: the controller may hold
    /// the UE there, so the id stays held and the UE's next attach
    /// retries at it.
    pub(crate) unanswered: FxHashMap<UeImsi, UeId>,
    /// Cached policy tags per clause — "the current policy tags" of §4.2.
    tag_cache: FxHashMap<ClauseId, PathTags>,
    stats: AgentStats,
    /// Idle timeout handed to microflow entries.
    pub microflow_idle: SimDuration,
}

impl LocalAgent {
    /// Creates the agent for a base station.
    pub fn new(
        bs: BaseStationId,
        radio_port: PortNo,
        scheme: AddressingScheme,
        ports: PortEmbedding,
    ) -> Self {
        LocalAgent {
            bs,
            radio_port,
            scheme,
            ports,
            ues: FxHashMap::default(),
            by_permanent: FxHashMap::default(),
            ids: IdPool::new(scheme.max_ues_per_station()),
            unanswered: FxHashMap::default(),
            tag_cache: FxHashMap::default(),
            stats: AgentStats::default(),
            microflow_idle: MICROFLOW_IDLE,
        }
    }

    /// This agent's base station.
    pub fn base_station(&self) -> BaseStationId {
        self.bs
    }

    /// The radio-facing port of the access switch.
    pub fn radio_port(&self) -> PortNo {
        self.radio_port
    }

    /// The addressing scheme in use.
    pub fn scheme(&self) -> &AddressingScheme {
        &self.scheme
    }

    /// The port embedding in use.
    pub fn ports(&self) -> &PortEmbedding {
        &self.ports
    }

    /// Counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Attached UEs.
    pub fn attached(&self) -> impl Iterator<Item = &AgentUe> {
        self.ues.values()
    }

    /// One attached UE.
    pub fn ue(&self, imsi: UeImsi) -> Result<&AgentUe> {
        self.ues
            .get(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached here")))
    }

    /// Clears the tag cache (tests and failover drills).
    pub fn clear_tag_cache(&mut self) {
        self.tag_cache.clear();
    }

    /// Evicts a single clause's tags from the cache — the next flow of
    /// that clause escalates to the controller. Benchmarks use this to
    /// pin an exact hit ratio (Table 2).
    pub fn invalidate_clause(&mut self, clause: ClauseId) {
        self.tag_cache.remove(&clause);
    }

    /// Reserves the next local UE id this agent would hand out —
    /// exposed for handoff drivers that must pick the arriving UE's id
    /// with the same discipline as an attach ([`IdPool::allocate`]).
    /// The id is held from here on: pass it to [`adopt`](Self::adopt),
    /// or hand it back with [`release_ue_id`](Self::release_ue_id) if
    /// the handoff fails.
    pub fn reserve_ue_id(&mut self) -> Result<UeId> {
        self.ids
            .allocate()
            .map(|id| UeId(id as u16))
            .ok_or_else(|| Error::Exhausted(format!("base station {} out of UE ids", self.bs)))
    }

    /// Returns a UE id to this station's pool once the controller has
    /// released the location it names — the id a UE left behind when it
    /// handed off away ([`evict`](Self::evict) keeps it held, §5.1),
    /// after its transition expired or was aborted. Returns whether the
    /// id was held; a repeated release, or one for an id this agent
    /// forgot across a restart, is dropped rather than double-freed.
    pub fn release_ue_id(&mut self, id: UeId) -> bool {
        self.ids.release(u32::from(id.0))
    }

    /// Marks an id chosen elsewhere as held (see [`IdPool::adopt`]).
    pub(crate) fn hold_ue_id(&mut self, id: UeId) {
        self.ids.adopt(u32::from(id.0));
    }

    /// Handles a UE attach: assigns a local id, registers with the
    /// controller, caches the classifier. Returns the new record. A
    /// refused attach frees its id; a lost one keeps it, and the UE's
    /// next attach retries there, where an attach the controller did
    /// apply gets its live record back.
    pub fn handle_attach(
        &mut self,
        imsi: UeImsi,
        ctl: &mut dyn ControllerApi,
        now: SimTime,
    ) -> Result<UeRecord> {
        if self.ues.contains_key(&imsi) {
            return Err(Error::InvalidState(format!("{imsi} already attached")));
        }
        let ue_id = match self.unanswered.remove(&imsi) {
            Some(id) => id,
            None => self.reserve_ue_id()?,
        };
        let grant = match ctl.attach_ue(imsi, self.bs, ue_id, now) {
            Ok(g) => g,
            Err(e) if ctl.answered() => {
                self.release_ue_id(ue_id);
                return Err(e);
            }
            Err(e) => {
                self.unanswered.insert(imsi, ue_id);
                return Err(e);
            }
        };
        let record = grant.record;
        self.by_permanent.insert(record.permanent_ip, imsi);
        self.ues.insert(
            imsi,
            AgentUe {
                imsi,
                ue_id,
                permanent_ip: record.permanent_ip,
                classifier: grant.classifier,
                slots: FlowSlots::default(),
                flows: Vec::new(),
            },
        );
        Ok(record)
    }

    /// Adopts an already-attached UE (handoff arrival or agent restart):
    /// the controller supplies the record and classifier; the local id
    /// was chosen by whoever initiated the move.
    pub fn adopt(&mut self, record: UeRecord, classifier: UeClassifier) -> Result<()> {
        if record.bs != self.bs {
            return Err(Error::InvalidState(format!(
                "record for {} adopted at {}",
                record.bs, self.bs
            )));
        }
        if let Some(lost) = self.unanswered.remove(&record.imsi) {
            self.release_ue_id(lost);
        }
        self.by_permanent.insert(record.permanent_ip, record.imsi);
        self.hold_ue_id(record.ue_id);
        self.ues.insert(
            record.imsi,
            AgentUe {
                imsi: record.imsi,
                ue_id: record.ue_id,
                permanent_ip: record.permanent_ip,
                classifier,
                slots: FlowSlots::default(),
                flows: Vec::new(),
            },
        );
        Ok(())
    }

    /// Records carried-over flows for an adopted UE (handoff arrival),
    /// so a further handoff can move them again. The flows' slots are
    /// marked active so new flows do not collide with them.
    pub fn adopt_flows(&mut self, imsi: UeImsi, flows: Vec<AgentFlow>) -> Result<()> {
        let ue = self
            .ues
            .get_mut(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached here")))?;
        for f in &flows {
            ue.slots.occupy(self.ports.decode(f.downlink.dst_port).1);
        }
        ue.flows.extend(flows);
        Ok(())
    }

    /// Removes a UE locally without touching the controller — the UE
    /// moved away (handoff); the controller's record already points at
    /// the new station. The local UE id stays held: the old
    /// location-dependent address is reserved until the mobility
    /// transition ends (§5.1), and comes back through
    /// [`release_ue_id`](Self::release_ue_id) when the controller
    /// releases it.
    pub fn evict(&mut self, imsi: UeImsi) -> Result<()> {
        let ue = self
            .ues
            .remove(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached here")))?;
        self.by_permanent.remove(&ue.permanent_ip);
        Ok(())
    }

    /// Detaches a UE at the controller, then locally.
    ///
    /// The controller is told first: a wire failure leaves the UE in
    /// place so the detach can simply be retried once the channel
    /// recovers. A `NotFound` from the controller means a previous
    /// attempt's reply was lost in transit — the detach already
    /// happened, so it counts as success.
    pub fn handle_detach(&mut self, imsi: UeImsi, ctl: &mut dyn ControllerApi) -> Result<()> {
        if !self.ues.contains_key(&imsi) {
            return Err(Error::NotFound(format!("{imsi} not attached here")));
        }
        match ctl.detach_ue(imsi) {
            Ok(_) | Err(Error::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        let ue = self.ues.remove(&imsi).expect("checked above");
        self.by_permanent.remove(&ue.permanent_ip);
        self.release_ue_id(ue.ue_id);
        Ok(())
    }

    /// Handles the first packet of a new uplink flow (punted by the
    /// access switch): classifies, fetches/reuses the policy tag,
    /// installs both microflow rules. `view` is the packet as the UE sent
    /// it (permanent source address).
    pub fn handle_new_flow(
        &mut self,
        view: &HeaderView,
        ctl: &mut dyn ControllerApi,
        switch: &mut Switch,
        now: SimTime,
    ) -> Result<FlowSetup> {
        self.stats.flows += 1;
        let imsi = *self
            .by_permanent
            .get(&view.src())
            .ok_or_else(|| Error::NotFound(format!("no attached UE owns {}", view.src())))?;

        // classify against the cached per-UE classifier
        let ue = self.ues.get_mut(&imsi).expect("by_permanent is consistent");
        let entry = ue
            .classifier
            .classify(view.tuple.proto, view.dst_port())
            .ok_or_else(|| Error::InvalidState("policy matches nothing for this flow".into()))?;
        let clause = entry.clause;

        if entry.access == AccessControl::Deny {
            self.stats.denied += 1;
            let deadline = now + self.microflow_idle;
            switch
                .microflow
                .install(view.tuple, MicroflowAction::Drop, deadline)?;
            return Ok(FlowSetup::Denied { clause });
        }

        // tag cache: §4.2 — only the first flow needing this policy path
        // at this base station reaches the controller
        let (tags, cache_hit) = match self.tag_cache.get(&clause) {
            Some(t) => {
                self.stats.cache_hits += 1;
                (*t, true)
            }
            None => {
                self.stats.cache_misses += 1;
                let t = ctl.request_policy_path(self.bs, clause)?;
                self.tag_cache.insert(clause, t);
                (t, false)
            }
        };

        let loc = LocIp::new(self.bs, ue.ue_id);
        let loc_addr = self.scheme.encode(loc)?;

        // a flow slot unique among this UE's active flows
        let slots = self.ports.flow_slots();
        let slot = ue.slots.allocate(slots).ok_or_else(|| {
            Error::Exhausted(format!("UE {imsi} has all {slots} flow slots active"))
        })?;
        let flow = microflow_pair(
            &self.ports,
            &tags,
            loc_addr,
            ue.permanent_ip,
            self.radio_port,
            view.tuple,
            slot,
        )?;
        let deadline = now + self.microflow_idle;
        switch
            .microflow
            .install(flow.uplink, flow.up_action, deadline)?;
        switch
            .microflow
            .install(flow.downlink, flow.down_action, deadline)?;
        ue.flows.push(AgentFlow {
            uplink: flow.uplink,
            downlink: flow.downlink,
            downlink_original: flow.downlink_original,
        });

        Ok(FlowSetup::Allowed {
            clause,
            loc_source: (loc_addr, self.ports.encode(tags.uplink_entry, slot)?),
            cache_hit,
        })
    }

    /// The active flows of a UE (for handoff rule copying).
    pub fn flows_of(&self, imsi: UeImsi) -> Result<&[AgentFlow]> {
        Ok(&self.ue(imsi)?.flows)
    }

    /// Marks a flow finished, freeing its slot.
    pub fn flow_finished(&mut self, imsi: UeImsi, uplink: &FiveTuple) -> Result<()> {
        let ue = self
            .ues
            .get_mut(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached here")))?;
        if let Some(pos) = ue.flows.iter().position(|f| f.uplink == *uplink) {
            let flow = ue.flows.remove(pos);
            ue.slots
                .release(self.ports.decode(flow.downlink.dst_port).1);
        }
        Ok(())
    }

    /// Retires flow records whose microflow entries are gone from the
    /// access switch (idle-expired or evicted), freeing their slots.
    /// Returns the number of flows retired.
    ///
    /// Without this, a long-attached UE leaks flow slots: microflow
    /// entries age out of the switch after `microflow_idle`, but the
    /// agent-side [`AgentFlow`] record — and its slot in the 6-bit slot
    /// space — lives until [`Self::flow_finished`] or detach. A UE that
    /// opens more than `flow_slots()` sequential flows over one long
    /// attachment then hits `Error::Exhausted` even though none of its
    /// flows are live. Call this alongside `microflow.expire_idle` at
    /// housekeeping boundaries.
    pub fn retire_expired_flows(&mut self, switch: &Switch) -> usize {
        let mut retired = 0;
        for ue in self.ues.values_mut() {
            let mut i = 0;
            while i < ue.flows.len() {
                let f = ue.flows[i];
                let live = switch.microflow.peek(&f.uplink).is_some()
                    || switch.microflow.peek(&f.downlink).is_some()
                    || switch.microflow.peek(&f.downlink_original).is_some();
                if live {
                    i += 1;
                } else {
                    let flow = ue.flows.remove(i);
                    ue.slots
                        .release(self.ports.decode(flow.downlink.dst_port).1);
                    retired += 1;
                }
            }
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{CentralController, ControllerConfig};
    use softcell_packet::{build_flow_packet, Protocol};
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;
    use softcell_types::SwitchId;

    fn setup(topo: &softcell_topology::Topology) -> (CentralController, LocalAgent, Switch) {
        let mut ctl = CentralController::new(
            topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..4 {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        let bs = topo.base_station(BaseStationId(0));
        let agent = LocalAgent::new(
            BaseStationId(0),
            bs.radio_port,
            ctl.config().scheme,
            ctl.config().ports,
        );
        let switch = Switch::access(bs.access_switch);
        (ctl, agent, switch)
    }

    fn flow_view(src: Ipv4Addr, dst_port: u16) -> HeaderView {
        let t = FiveTuple {
            src,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 50000,
            dst_port,
            proto: Protocol::Tcp,
        };
        HeaderView::parse(&build_flow_packet(t, 64, 0, &[])).unwrap()
    }

    #[test]
    fn attach_assigns_sequential_ue_ids() {
        let topo = small_topology();
        let (mut ctl, mut agent, _sw) = setup(&topo);
        let r0 = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let r1 = agent
            .handle_attach(UeImsi(1), &mut ctl, SimTime::ZERO)
            .unwrap();
        assert_eq!(r0.ue_id, UeId(0));
        assert_eq!(r1.ue_id, UeId(1));
        assert!(agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn first_flow_misses_then_hits() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();

        let v1 = flow_view(rec.permanent_ip, 443);
        let s1 = agent
            .handle_new_flow(&v1, &mut ctl, &mut sw, SimTime::ZERO)
            .unwrap();
        let FlowSetup::Allowed { cache_hit, .. } = s1 else {
            panic!("web flow is allowed");
        };
        assert!(!cache_hit, "first flow of the clause escalates");

        let v2 = flow_view(rec.permanent_ip, 80); // same catch-all clause
        let s2 = agent
            .handle_new_flow(&v2, &mut ctl, &mut sw, SimTime::ZERO)
            .unwrap();
        let FlowSetup::Allowed { cache_hit, .. } = s2 else {
            panic!()
        };
        assert!(cache_hit, "same clause is served from the tag cache");
        assert_eq!(agent.stats().cache_misses, 1);
        assert_eq!(agent.stats().cache_hits, 1);
        // two flows → four microflow entries (up + down each)
        assert_eq!(sw.microflow.len(), 4);
    }

    #[test]
    fn flow_rewrite_embeds_loc_and_tag() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let v = flow_view(rec.permanent_ip, 443);
        let FlowSetup::Allowed { loc_source, .. } = agent
            .handle_new_flow(&v, &mut ctl, &mut sw, SimTime::ZERO)
            .unwrap()
        else {
            panic!()
        };
        let scheme = AddressingScheme::default_scheme();
        let loc = scheme.decode(loc_source.0).unwrap();
        assert_eq!(loc.base_station, BaseStationId(0));
        assert_eq!(loc.ue, rec.ue_id);
    }

    #[test]
    fn foreign_subscriber_flow_is_denied() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let mut attrs = SubscriberAttributes::default_home(UeImsi(9));
        attrs.provider = softcell_policy::Provider::Foreign(3);
        ctl.put_subscriber(attrs);
        let rec = agent
            .handle_attach(UeImsi(9), &mut ctl, SimTime::ZERO)
            .unwrap();
        let v = flow_view(rec.permanent_ip, 443);
        let s = agent
            .handle_new_flow(&v, &mut ctl, &mut sw, SimTime::ZERO)
            .unwrap();
        assert!(matches!(s, FlowSetup::Denied { .. }));
        assert_eq!(agent.stats().denied, 1);
        // the drop rule is in place
        assert_eq!(
            sw.microflow.peek(&v.tuple).unwrap().action,
            MicroflowAction::Drop
        );
    }

    #[test]
    fn unknown_source_is_rejected() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let v = flow_view(Ipv4Addr::new(1, 2, 3, 4), 443);
        assert!(agent
            .handle_new_flow(&v, &mut ctl, &mut sw, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn flow_slots_are_unique_and_recycled() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut first_tuple = None;
        for i in 0..10 {
            let t = FiveTuple {
                src: rec.permanent_ip,
                dst: Ipv4Addr::new(93, 184, 216, 34),
                src_port: 50000 + i,
                dst_port: 443,
                proto: Protocol::Tcp,
            };
            let v = HeaderView::parse(&build_flow_packet(t, 64, 0, &[])).unwrap();
            let FlowSetup::Allowed { loc_source, .. } = agent
                .handle_new_flow(&v, &mut ctl, &mut sw, SimTime::ZERO)
                .unwrap()
            else {
                panic!()
            };
            assert!(seen.insert(loc_source.1), "slots must be unique per UE");
            first_tuple.get_or_insert(t);
        }
        assert_eq!(agent.flows_of(UeImsi(0)).unwrap().len(), 10);
        agent
            .flow_finished(UeImsi(0), &first_tuple.unwrap())
            .unwrap();
        assert_eq!(agent.flows_of(UeImsi(0)).unwrap().len(), 9);
    }

    #[test]
    fn detach_frees_ue_id() {
        let topo = small_topology();
        let (mut ctl, mut agent, _sw) = setup(&topo);
        agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        agent.handle_detach(UeImsi(0), &mut ctl).unwrap();
        let r = agent
            .handle_attach(UeImsi(1), &mut ctl, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.ue_id, UeId(0), "freed id is recycled");
    }

    #[test]
    fn vacated_id_stays_held_until_released() {
        let topo = small_topology();
        let (mut ctl, mut agent, _sw) = setup(&topo);
        let r0 = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        // the UE hands off away: its id must not be handed out (§5.1)
        agent.evict(UeImsi(0)).unwrap();
        let r1 = agent
            .handle_attach(UeImsi(1), &mut ctl, SimTime::ZERO)
            .unwrap();
        assert_ne!(r1.ue_id, r0.ue_id, "vacated id is still reserved");
        // the controller releases the location: the id is reusable,
        // and a second release of it is dropped
        assert!(agent.release_ue_id(r0.ue_id));
        assert!(!agent.release_ue_id(r0.ue_id), "double release");
        assert_eq!(agent.reserve_ue_id().unwrap(), r0.ue_id);
        assert_ne!(agent.reserve_ue_id().unwrap(), r0.ue_id, "handed out once");
    }

    #[test]
    fn adopt_respects_foreign_ue_ids() {
        let topo = small_topology();
        let (mut ctl, mut agent, _sw) = setup(&topo);
        // UE arrives by handoff with id 5 chosen elsewhere
        let grant = ctl
            .attach_ue(UeImsi(2), BaseStationId(0), UeId(5), SimTime::ZERO)
            .unwrap();
        agent.adopt(grant.record, grant.classifier).unwrap();
        // locally assigned ids fill the gap below 5, then skip past it
        let r = agent
            .handle_attach(UeImsi(3), &mut ctl, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.ue_id, UeId(0));
        let rest: Vec<UeId> = std::iter::from_fn(|| agent.reserve_ue_id().ok()).collect();
        assert_eq!(&rest[..5], &[1, 2, 3, 4, 6].map(UeId));
        assert!(!rest.contains(&UeId(5)), "adopted id is held");
    }

    #[test]
    fn adopt_rejects_wrong_station() {
        let topo = small_topology();
        let (mut ctl, mut agent, _sw) = setup(&topo);
        let grant = ctl
            .attach_ue(UeImsi(2), BaseStationId(1), UeId(0), SimTime::ZERO)
            .unwrap();
        assert!(agent.adopt(grant.record, grant.classifier).is_err());
        let _ = SwitchId(0); // silence unused import in some cfgs
    }

    #[test]
    fn idle_expired_flows_release_slots_via_retire() {
        let topo = small_topology();
        let (mut ctl, mut agent, mut sw) = setup(&topo);
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let slots = agent.ports().flow_slots();
        // fill every slot with sequential (now-finished) flows
        for i in 0..slots {
            let t = FiveTuple {
                src: rec.permanent_ip,
                dst: Ipv4Addr::new(93, 184, 216, 34),
                src_port: 40000 + i,
                dst_port: 443,
                proto: Protocol::Tcp,
            };
            let v = build_flow_packet(t, 64, 0, &[]);
            let view = HeaderView::parse(&v).unwrap();
            agent
                .handle_new_flow(&view, &mut ctl, &mut sw, SimTime::ZERO)
                .unwrap();
        }
        // their microflow entries idle out of the switch...
        let late = SimTime::from_secs(3600);
        sw.microflow.expire_idle(late);
        assert_eq!(sw.microflow.len(), 0);
        // ...but the agent-side records still pin every slot: leak
        let v = flow_view(rec.permanent_ip, 443);
        let err = agent
            .handle_new_flow(&v, &mut ctl, &mut sw, late)
            .unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)), "{err}");
        // retiring dead flows reclaims the slots; the flow now succeeds
        assert_eq!(agent.retire_expired_flows(&sw), slots as usize);
        agent.handle_new_flow(&v, &mut ctl, &mut sw, late).unwrap();
        assert_eq!(agent.flows_of(UeImsi(0)).unwrap().len(), 1);
        // live flows are never retired
        assert_eq!(agent.retire_expired_flows(&sw), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The bitmap `FlowSlots` against the `HashSet` one it
            /// replaced, operation for operation: same slot from every
            /// `allocate` (the scan wraps around and skips occupied
            /// slots), same refusal when every slot is active, same
            /// restart after `clear` — at one word, across a word
            /// boundary and at the widest embedding.
            #[test]
            fn flow_slots_match_the_hash_set_they_replaced(
                size in 0usize..9,
                ops in proptest::collection::vec((0u8..9, any::<u16>()), 1..200),
            ) {
                #[derive(Default)]
                struct SetSlots {
                    next: u16,
                    active: std::collections::HashSet<u16>,
                }
                impl SetSlots {
                    fn allocate(&mut self, slots: u16) -> Option<u16> {
                        let mut slot = self.next % slots;
                        for _ in 0..slots {
                            if self.active.insert(slot) {
                                self.next = slot + 1;
                                return Some(slot);
                            }
                            slot = (slot + 1) % slots;
                        }
                        None
                    }
                }
                let slots = [1u16, 2, 3, 16, 63, 64, 65, 1_024, 32_768][size];
                let (mut fs, mut model) = (FlowSlots::default(), SetSlots::default());
                for (op, pick) in ops {
                    let pick = pick % slots;
                    match op {
                        0..=3 => prop_assert_eq!(fs.allocate(slots), model.allocate(slots)),
                        4 | 5 => {
                            fs.occupy(pick);
                            model.active.insert(pick);
                        }
                        6 | 7 => {
                            fs.release(pick);
                            model.active.remove(&pick);
                        }
                        _ => {
                            fs.clear();
                            model.next = 0;
                            model.active.clear();
                        }
                    }
                }
                // fill the table: every remaining slot, then `None`
                while let Some(slot) = model.allocate(slots) {
                    prop_assert_eq!(fs.allocate(slots), Some(slot));
                }
                prop_assert_eq!(model.active.len(), usize::from(slots));
                prop_assert_eq!(fs.allocate(slots), None);
                fs.release(slots / 2);
                prop_assert_eq!(fs.allocate(slots), Some(slots / 2), "the one free slot");
                fs.clear();
                prop_assert_eq!(fs.allocate(slots), Some(0), "cleared: scan restarts at 0");
            }
        }
    }
}
