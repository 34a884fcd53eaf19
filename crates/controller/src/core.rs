//! The central controller façade.
//!
//! Ties the pieces together: subscriber/UE state, per-UE classifier
//! compilation (sent to local agents on attach, §4.2), policy-path
//! installation through Algorithm 1 (§3.2) with middlebox *instance*
//! selection (§2.2: "the controller ... automatically select\[s\]
//! middlebox instances and network paths that minimize latency and
//! load"), and the lowering of shadow deltas into concrete rule
//! operations for the data plane.
//!
//! Every installed policy path is one `InstalledPath` record under its
//! `PathKey`, and `install_path` is the one routine that installs it:
//! for the online requests here and for the offline replay
//! ([`crate::offline`]).

use softcell_policy::clause::{AccessControl, ClauseId};
use softcell_policy::{AppClassifier, QosClass, SubscriberAttributes, UeClassifier};
use softcell_topology::{PolicyPath, ShortestPaths, Topology};
use softcell_types::{
    AddressingScheme, BaseStationId, Error, FxHashMap, Ipv4Prefix, MiddleboxId, MiddleboxKind,
    PolicyTag, PortEmbedding, PortNo, Result, SimTime, SwitchId, UeId, UeImsi,
};

use crate::install::{Direction, PathInstaller, TagPolicy};
use crate::ops::{lower_delta, RuleOp};
use crate::state::{ControllerState, UeRecord};

/// Static controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// LocIP layout.
    pub scheme: AddressingScheme,
    /// Tag-in-port layout.
    pub ports: PortEmbedding,
    /// Tag-space size.
    pub tag_policy: TagPolicy,
    /// DHCP pool for permanent UE addresses.
    pub permanent_pool: Ipv4Prefix,
}

impl ControllerConfig {
    /// A ready-to-use configuration for end-to-end simulation.
    pub fn simulation() -> Self {
        ControllerConfig {
            scheme: AddressingScheme::default_scheme(),
            ports: PortEmbedding::default_embedding(),
            tag_policy: TagPolicy { capacity: 1024 }, // the Fig. 4 embodiment: 10 tag bits
            permanent_pool: Ipv4Prefix::from_bits(0x6440_0000, 10), // 100.64/10
        }
    }
}

/// Everything the local agent needs after an attach (§4.2: "the
/// controller computes the packet classifiers based on the service
/// policy, the UE's subscriber attributes, and the current policy tags").
#[derive(Clone, Debug)]
pub struct AttachGrant {
    /// The controller-side UE record (permanent IP, location).
    pub record: UeRecord,
    /// The policy specialized to this subscriber.
    pub classifier: UeClassifier,
}

/// The tags realizing one (clause, base station) policy path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathTags {
    /// Tag the access-edge classifier embeds in the uplink source port.
    pub uplink_entry: PolicyTag,
    /// Tag the packet carries when it exits the gateway (what the
    /// Internet echoes back).
    pub uplink_exit: PolicyTag,
    /// Tag on the packet when it reaches the access switch again on the
    /// downlink (after any downlink swaps) — what the delivery microflow
    /// entry must match.
    pub downlink_final: PolicyTag,
    /// The access switch's output port for the first hop of the uplink
    /// path (the microflow rule's forward target): either the fabric
    /// link towards the second hop or a middlebox port on the access
    /// switch itself.
    pub access_out_port: PortNo,
    /// QoS class of the governing clause, if any.
    pub qos: Option<QosClass>,
}

/// What an installed policy path is installed for. The derived order is
/// the offline pass's replay order: Internet paths by (clause, station)
/// — same-clause paths together, so adjacent station prefixes arrive
/// consecutively and merge — then the m2m paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum PathKey {
    /// An Internet-bound path: (clause, origin station).
    Internet(ClauseId, BaseStationId),
    /// A mobile-to-mobile path (§7): (clause, sender, peer).
    M2m(ClauseId, BaseStationId, BaseStationId),
}

/// One installed policy path: the tags its requests are answered with
/// and the routed path (mobility shortcuts and the offline replay read
/// it).
pub(crate) struct InstalledPath {
    pub(crate) tags: PathTags,
    pub(crate) path: PolicyPath,
}

/// The central SoftCell controller.
pub struct CentralController {
    topo: Topology,
    cfg: ControllerConfig,
    pub(crate) state: ControllerState,
    apps: AppClassifier,
    /// One compiled classifier per plan, keyed by the attributes with
    /// the IMSI cleared (a classifier reads every attribute but that
    /// one), handed out by pointer copy. The policy and `apps` are fixed
    /// at construction, so an entry never goes stale.
    classifiers: FxHashMap<SubscriberAttributes, UeClassifier>,
    /// Algorithm 1's state, holding every path in `installed` (the
    /// offline pass swaps the two together).
    pub(crate) installer: PathInstaller,
    pub(crate) paths: ShortestPaths,
    /// Every installed policy path.
    pub(crate) installed: FxHashMap<PathKey, InstalledPath>,
    /// Rule operations awaiting application to the physical network.
    pub(crate) pending_ops: Vec<RuleOp>,
    /// Locations released since the last drain, awaiting return to
    /// their stations' UE-id pools.
    pub(crate) released_locations: Vec<(BaseStationId, UeId)>,
    /// Mobility bookkeeping (tunnels, transitions — see [`crate::mobility`]).
    pub(crate) mobility: crate::mobility::MobilityManager,
}

impl CentralController {
    /// Creates a controller over a topology, holding its own handle.
    pub fn new(
        topo: &Topology,
        cfg: ControllerConfig,
        policy: softcell_policy::ServicePolicy,
    ) -> Self {
        CentralController {
            topo: topo.clone(),
            cfg,
            state: ControllerState::new(policy, cfg.permanent_pool),
            apps: AppClassifier::default(),
            classifiers: FxHashMap::default(),
            installer: PathInstaller::new(topo, cfg.scheme, cfg.tag_policy),
            paths: ShortestPaths::new(topo),
            installed: FxHashMap::default(),
            pending_ops: Vec::new(),
            released_locations: Vec::new(),
            mobility: crate::mobility::MobilityManager::default(),
        }
    }

    /// The topology this controller manages.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Read access to controller state (for replicas and tests).
    pub fn state(&self) -> &ControllerState {
        &self.state
    }

    /// The application classifier in use.
    pub fn apps(&self) -> &AppClassifier {
        &self.apps
    }

    /// The path installer (rule counts, tags in use).
    pub fn installer(&self) -> &PathInstaller {
        &self.installer
    }

    /// Mobility bookkeeping.
    pub fn mobility(&self) -> &crate::mobility::MobilityManager {
        &self.mobility
    }

    /// Provisions a subscriber (HSS-style).
    pub fn put_subscriber(&mut self, attrs: SubscriberAttributes) {
        self.state.put_subscriber(attrs);
    }

    /// Drains the rule operations produced since the last drain. The
    /// simulator applies them to the physical switches.
    ///
    /// # Ordering invariant
    ///
    /// Ops come out in **insertion order**, and for any single switch
    /// the drained stream preserves the order in which the controller
    /// queued that switch's ops. This per-switch ordering is what the
    /// batched installation path relies on: [`crate::ops::batch_by_switch`]
    /// groups a drain into barrier-delimited per-switch batches, and a
    /// barrier at each batch boundary is then *sufficient* for
    /// consistency — dependent ops (an install superseding a remove, a
    /// tunnel leg before its launch rule on the same switch) always
    /// target the same switch and stay ordered inside its batch, while
    /// ops for different switches touch disjoint state and never need a
    /// cross-switch fence. `tests/drain_order.rs` holds the regression
    /// test for this invariant.
    ///
    /// The ops are copied out at their exact count and the stream keeps
    /// its room, so the next event's ops (a handoff's dozens) land
    /// without regrowing it.
    pub fn drain_ops(&mut self) -> Vec<RuleOp> {
        self.pending_ops.drain(..).collect()
    }

    /// Drains the locations released since the last drain — the ones
    /// UEs vacated by handing off, released when their transition
    /// expired or was aborted (§5.1). Whoever drives the local agents
    /// hands each id back with
    /// [`LocalAgent::release_ue_id`](crate::agent::LocalAgent::release_ue_id);
    /// until then the station's pool keeps the id held.
    pub fn drain_released_locations(&mut self) -> Vec<(BaseStationId, UeId)> {
        std::mem::take(&mut self.released_locations)
    }

    /// Drains the pending ops as barrier-delimited per-switch batches
    /// (see [`drain_ops`](Self::drain_ops) for the ordering invariant
    /// making this safe).
    pub fn drain_op_batches(&mut self) -> Vec<crate::ops::SwitchBatch> {
        crate::ops::batch_by_switch(self.drain_ops())
    }

    /// Handles a UE attach reported by a local agent (which has already
    /// assigned the local `ue_id`). Returns the grant the agent caches.
    pub fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        self.check_station(bs)?;
        let record = self.state.attach(imsi, bs, ue_id, now)?;
        let classifier = self.classifier_of(imsi)?;
        Ok(AttachGrant { record, classifier })
    }

    /// Replaces the UE registry with `records` and the address pool with
    /// the one `pool`, an [`IdPool::parts`](softcell_types::IdPool::parts),
    /// rebuilds: §5.2's location rebuild, from the agents' reports or a
    /// replica's image. Refuses, changing nothing, a record at a station
    /// the topology lacks or of an unknown subscriber, an IMSI or a
    /// location listed twice, and a pool that does not hold exactly the
    /// records' addresses.
    pub fn restore_locations(&mut self, records: &[UeRecord], pool: (u32, &[u32])) -> Result<()> {
        for rec in records {
            self.check_station(rec.bs)?;
        }
        self.state.restore_locations(records, pool)
    }

    /// `NotFound` for a station the topology lacks: a UE placed there
    /// or a path from it would panic the first lookup of its station.
    pub(crate) fn check_station(&self, bs: BaseStationId) -> Result<()> {
        let known = bs.index() < self.topo.base_stations().len();
        known
            .then_some(())
            .ok_or_else(|| Error::NotFound(format!("base station {bs}")))
    }

    /// The subscriber's classifier (§4.2): compiled once per plan, a
    /// pointer copy afterwards.
    pub(crate) fn classifier_of(&mut self, imsi: UeImsi) -> Result<UeClassifier> {
        let plan = SubscriberAttributes {
            imsi: UeImsi(0),
            ..*self.state.subscriber(imsi)?
        };
        let (policy, apps) = (self.state.policy(), &self.apps);
        let compile = || UeClassifier::compile(policy, apps, &plan);
        Ok(self.classifiers.entry(plan).or_insert_with(compile).clone())
    }

    /// Detaches a UE. Any in-flight mobility transition ends now: its
    /// flows are dead, so the per-UE anchor rules come down with the UE
    /// and its reserved locations are released.
    pub fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        self.end_transition(imsi);
        self.state.detach(imsi)
    }

    /// Returns the tags for a (clause, base station) policy path,
    /// installing it first if needed — the local agent calls this when
    /// its tag cache misses (§4.2: "the local agent only contacts the
    /// controller if no policy tag exists for this flow").
    pub fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        let key = PathKey::Internet(clause, bs);
        if let Some(rec) = self.installed.get(&key) {
            return Ok(rec.tags);
        }
        self.check_station(bs)?;
        let (chain, qos) = self.clause_chain(clause)?;
        let instances = self.select_instances(bs, &chain)?;
        let gateway = self.topo.default_gateway().switch;
        let path = self.paths.route_policy_path(bs, &instances, gateway)?;
        self.install_new(key, path, qos)
    }

    /// The tags of an installed (clause, station) path.
    pub fn path_tags(&self, bs: BaseStationId, clause: ClauseId) -> Option<PathTags> {
        let rec = self.installed.get(&PathKey::Internet(clause, bs))?;
        Some(rec.tags)
    }

    /// The routed policy path of an installed (clause, station) pair.
    pub fn routed_path(&self, bs: BaseStationId, clause: ClauseId) -> Option<&PolicyPath> {
        let rec = self.installed.get(&PathKey::Internet(clause, bs))?;
        Some(&rec.path)
    }

    /// Returns the tags for a mobile-to-mobile policy path (paper §7:
    /// "when X and Y are in the same cellular core network, SoftCell
    /// establishes a direct path between them without detouring via a
    /// gateway switch"). The path runs access(from) → middlebox chain →
    /// access(to); the classification state is embedded in the
    /// *destination* fields (the sender's access switch rewrites the
    /// destination to the peer's LocIP with the tag in the port), so the
    /// fabric forwards it with ordinary downlink-direction rules.
    pub(crate) fn request_m2m_path(
        &mut self,
        from: BaseStationId,
        to: BaseStationId,
        clause: ClauseId,
    ) -> Result<PathTags> {
        let key = PathKey::M2m(clause, from, to);
        if let Some(rec) = self.installed.get(&key) {
            return Ok(rec.tags);
        }
        self.check_station(from)?;
        self.check_station(to)?;
        let (chain, qos) = self.clause_chain(clause)?;
        let instances = self.select_instances(from, &chain)?;

        // Route with the *peer* as the path origin and the sender's
        // access switch as the terminal: installing the Downlink
        // direction then yields rules from the sender towards the peer,
        // traversing the chain in the sender's order.
        let reversed: Vec<MiddleboxId> = instances.into_iter().rev().collect();
        let from_access = self.topo.base_station(from).access_switch;
        let path = self.paths.route_policy_path(to, &reversed, from_access)?;
        if path.hops.last().and_then(|h| h.mb_after).is_some() {
            return Err(Error::InvalidState(
                "m2m chains ending in a middlebox on the sender's access switch are not supported"
                    .into(),
            ));
        }
        self.install_new(key, path, qos)
    }

    /// A permitted clause's middlebox chain and QoS class.
    fn clause_chain(&self, clause: ClauseId) -> Result<(Vec<MiddleboxKind>, Option<QosClass>)> {
        let def = self
            .state
            .policy()
            .clause(clause)
            .ok_or_else(|| Error::NotFound(format!("clause {clause:?}")))?;
        if def.action.access == AccessControl::Deny {
            return Err(Error::InvalidState(format!(
                "clause {clause:?} denies traffic; no path to install"
            )));
        }
        Ok((def.action.chain.clone(), def.action.qos))
    }

    /// Installs a newly routed path and records it under its key.
    fn install_new(
        &mut self,
        key: PathKey,
        path: PolicyPath,
        qos: Option<QosClass>,
    ) -> Result<PathTags> {
        let (topo, cfg, ops) = (&self.topo, &self.cfg, &mut self.pending_ops);
        let tags = install_path(topo, cfg, &mut self.installer, key, &path, qos, ops)?;
        self.installed.insert(key, InstalledPath { tags, path });
        Ok(tags)
    }

    /// Picks concrete instances for a chain of kinds, greedily nearest:
    /// walks the path cursor forward from the station's access switch
    /// (paths are routed access → ... → gateway), picking the closest
    /// instance of each kind.
    fn select_instances(
        &mut self,
        bs: BaseStationId,
        chain: &[MiddleboxKind],
    ) -> Result<Vec<MiddleboxId>> {
        let topo = &self.topo;
        let mut cursor: SwitchId = topo.base_station(bs).access_switch;
        let mut out = Vec::with_capacity(chain.len());
        for &kind in chain {
            let instances = topo.instances_of(kind);
            if instances.is_empty() {
                return Err(Error::NoPath(format!("no instance of {kind} deployed")));
            }
            let mut best: Option<(u32, MiddleboxId)> = None;
            for &mb in instances {
                let host = topo.middlebox(mb).switch;
                if let Some(d) = self.paths.distance(cursor, host) {
                    if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                        best = Some((d, mb));
                    }
                }
            }
            let chosen = best
                .ok_or_else(|| Error::NoPath(format!("no reachable instance of {kind}")))?
                .1;
            cursor = topo.middlebox(chosen).switch;
            out.push(chosen);
        }
        Ok(out)
    }
}

/// Installs one policy path and appends its lowered rule operations to
/// `ops`: for an Internet key one round trip, the uplink and the
/// downlink entering with the uplink's exit tag (the Internet echoes it
/// back), planned and committed together, then lowered uplink first;
/// for an m2m key the one downlink-direction leg from the sender to the
/// peer. The online requests and the offline replay both install
/// through here.
pub(crate) fn install_path(
    topo: &Topology,
    cfg: &ControllerConfig,
    installer: &mut PathInstaller,
    key: PathKey,
    path: &PolicyPath,
    qos: Option<QosClass>,
    ops: &mut Vec<RuleOp>,
) -> Result<PathTags> {
    let access_out_port = access_out_port(topo, key, path)?;
    let carrier = cfg.scheme.carrier();
    let mut lower = |installer: &PathInstaller, dir| -> Result<()> {
        for (sw, delta) in installer.last_deltas(dir) {
            ops.push(lower_delta(topo, &cfg.ports, carrier, dir, *sw, delta)?);
        }
        Ok(())
    };
    let (uplink_entry, uplink_exit, downlink_final) = match key {
        PathKey::Internet(..) => {
            let [up, down] = installer.install_round_trip(path)?;
            lower(installer, Direction::Uplink)?;
            lower(installer, Direction::Downlink)?;
            (up.entry_tag(), up.exit_tag(), down.exit_tag())
        }
        PathKey::M2m(..) => {
            let down = installer.install_path(path, Direction::Downlink)?;
            lower(installer, Direction::Downlink)?;
            (down.entry_tag(), down.entry_tag(), down.exit_tag())
        }
    };
    Ok(PathTags {
        uplink_entry,
        uplink_exit,
        downlink_final,
        access_out_port,
        qos,
    })
}

/// The sender's access-switch out port for a path's first step: the
/// first uplink hop of an Internet path (a middlebox there, or the link
/// to the second hop); for an m2m path, routed from the peer to the
/// sender, the link back from its last hop to the one before.
fn access_out_port(topo: &Topology, key: PathKey, path: &PolicyPath) -> Result<PortNo> {
    let hops = path.hops.as_slice();
    if let (PathKey::Internet(..), Some(mb)) = (key, hops.first().and_then(|h| h.mb_after)) {
        return Ok(topo.middlebox(mb).port);
    }
    let (at, next) = match (key, hops) {
        (PathKey::Internet(..), [first, second, ..]) => (first.switch, second.switch),
        (PathKey::M2m(..), [.., next, last]) => (last.switch, next.switch),
        _ => return Err(Error::InvalidState("degenerate policy path".into())),
    };
    topo.port_towards(at, next)
        .ok_or_else(|| Error::NotFound(format!("{at} has no link to {next}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_policy::ServicePolicy;
    use softcell_topology::small_topology;

    fn controller(topo: &Topology) -> CentralController {
        let mut c = CentralController::new(
            topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..8 {
            c.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        c
    }

    #[test]
    fn one_classifier_is_compiled_per_plan() {
        let topo = small_topology();
        let mut c = controller(&topo);
        let (a, b) = (
            c.classifier_of(UeImsi(0)).unwrap(),
            c.classifier_of(UeImsi(1)).unwrap(),
        );
        assert!(
            std::ptr::eq(a.entries(), b.entries()),
            "equal attributes share one table"
        );
        let gold = SubscriberAttributes {
            plan: softcell_policy::BillingPlan::Gold,
            ..SubscriberAttributes::default_home(UeImsi(1))
        };
        c.put_subscriber(gold);
        let g = c.classifier_of(UeImsi(1)).unwrap();
        assert_eq!(
            g,
            UeClassifier::compile(c.state().policy(), c.apps(), &gold)
        );
        assert!(!std::ptr::eq(a.entries(), g.entries()), "a new plan");
        let again = c.classifier_of(UeImsi(0)).unwrap();
        assert!(std::ptr::eq(a.entries(), again.entries()));
    }

    #[test]
    fn attach_grants_classifier_and_record() {
        let topo = small_topology();
        let mut c = controller(&topo);
        let g = c
            .attach_ue(UeImsi(0), BaseStationId(0), UeId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(g.record.bs, BaseStationId(0));
        assert!(!g.classifier.entries().is_empty());
        // unknown subscriber is refused
        assert!(c
            .attach_ue(UeImsi(77), BaseStationId(0), UeId(2), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn path_request_is_cached() {
        let topo = small_topology();
        let mut c = controller(&topo);
        // clause 5 in priority order = the catch-all (firewall)
        let catch_all = ClauseId(5);
        let t1 = c.request_policy_path(BaseStationId(0), catch_all).unwrap();
        let ops1 = c.drain_ops();
        assert!(!ops1.is_empty(), "first request installs rules");
        let t2 = c.request_policy_path(BaseStationId(0), catch_all).unwrap();
        assert_eq!(t1, t2);
        assert!(c.drain_ops().is_empty(), "cached request installs nothing");
        assert!(c.routed_path(BaseStationId(0), catch_all).is_some());
    }

    #[test]
    fn deny_clause_has_no_path() {
        let topo = small_topology();
        let mut c = controller(&topo);
        // clause index 1 = the deny clause (priority 5)
        assert!(c
            .request_policy_path(BaseStationId(0), ClauseId(1))
            .is_err());
    }

    #[test]
    fn qos_clause_reports_its_class() {
        let topo = small_topology();
        let mut c = controller(&topo);
        // clause index 4 = fleet tracking with LOW_LATENCY
        let tags = c
            .request_policy_path(BaseStationId(0), ClauseId(4))
            .unwrap();
        assert_eq!(tags.qos, Some(QosClass::LOW_LATENCY));
    }

    #[test]
    fn nearest_selection_prefers_close_instances() {
        let topo = small_topology();
        let mut c = controller(&topo);
        // echo canceller lives on agg1 (adjacent to bs0/bs1 access)
        let mbs = c
            .select_instances(BaseStationId(0), &[MiddleboxKind::EchoCanceller])
            .unwrap();
        assert_eq!(topo.middlebox(mbs[0]).switch, SwitchId(3));
    }

    #[test]
    fn bidirectional_install_produces_consistent_tags() {
        let topo = small_topology();
        let mut c = controller(&topo);
        let tags = c
            .request_policy_path(BaseStationId(2), ClauseId(5))
            .unwrap();
        // with no downlink swaps the echoed tag is delivered unchanged
        assert_eq!(tags.uplink_exit, tags.downlink_final);
    }

    #[test]
    fn path_request_at_an_unknown_station_is_not_found() {
        let topo = small_topology();
        let mut c = controller(&topo);
        let err = c
            .request_policy_path(BaseStationId(9999), ClauseId(5))
            .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "{err}");
        assert!(c.drain_ops().is_empty());
    }

    #[test]
    fn m2m_request_with_an_unknown_end_is_not_found() {
        let topo = small_topology();
        let mut c = controller(&topo);
        let (known, missing) = (BaseStationId(0), BaseStationId(9999));
        for (from, to) in [(missing, known), (known, missing)] {
            let err = c.request_m2m_path(from, to, ClauseId(5)).unwrap_err();
            assert!(matches!(err, Error::NotFound(_)), "{from} -> {to}: {err}");
        }
        assert!(c.drain_ops().is_empty());
    }

    #[test]
    fn m2m_chain_ending_at_the_senders_access_switch_is_refused_in_words() {
        // gw — core — {acc0 (firewall), acc1}: the sender's nearest
        // firewall is on its own access switch
        use softcell_topology::{SwitchRole, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let core = b.add_switch(SwitchRole::Core);
        let acc0 = b.add_switch(SwitchRole::Access);
        let acc1 = b.add_switch(SwitchRole::Access);
        b.link(gw, core).unwrap();
        b.link(core, acc0).unwrap();
        b.link(core, acc1).unwrap();
        b.attach_middlebox(MiddleboxKind::Firewall, acc0).unwrap();
        let bs0 = b.attach_base_station(acc0).unwrap();
        let bs1 = b.attach_base_station(acc1).unwrap();
        b.attach_gateway(gw).unwrap();
        let topo = b.build().unwrap();
        let mut c = controller(&topo);
        // the catch-all clause: through a firewall
        let err = c.request_m2m_path(bs0, bs1, ClauseId(5)).unwrap_err();
        let Error::InvalidState(text) = err else {
            panic!("expected InvalidState, got {err}");
        };
        assert_eq!(
            text,
            "m2m chains ending in a middlebox on the sender's access switch are not supported"
        );
    }

    #[test]
    fn a_refused_round_trip_installs_nothing() {
        use softcell_policy::clause::{Clause, ServiceAction};
        use softcell_policy::Predicate;
        // from station 0 this chain's uplink takes two tags and its
        // downlink a third: a 2-tag space refuses the round trip
        let topo = small_topology();
        let cfg = ControllerConfig {
            tag_policy: TagPolicy { capacity: 2 },
            ..ControllerConfig::simulation()
        };
        let chain = vec![
            MiddleboxKind::Firewall,
            MiddleboxKind::Transcoder,
            MiddleboxKind::EchoCanceller,
        ];
        let policy = ServicePolicy::from_clauses(vec![Clause {
            priority: 1,
            predicate: Predicate::Any,
            action: ServiceAction::through(chain),
        }])
        .unwrap();
        let mut c = CentralController::new(&topo, cfg, policy);
        let err = c
            .request_policy_path(BaseStationId(0), ClauseId(0))
            .unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)), "{err}");
        assert!(c.drain_ops().is_empty(), "the uplink's rules stayed");
        assert_eq!(c.installer().tags_in_use(), 0);
        assert!(c.routed_path(BaseStationId(0), ClauseId(0)).is_none());
    }

    /// An engine holds its own handle on the topology: built over one
    /// that has gone out of scope, it moves into another thread and
    /// answers exactly as an engine built in place.
    #[test]
    fn engine_owns_its_topology() {
        use crate::sharded::{ShardEvent, ShardEventKind, ShardedController};
        let serve = |mut c: CentralController| {
            c.attach_ue(UeImsi(0), BaseStationId(2), UeId(1), SimTime::ZERO)
                .unwrap();
            let tags = c.request_policy_path(BaseStationId(2), ClauseId(5));
            (tags.unwrap(), c.drain_ops())
        };
        let engine = {
            let topo = small_topology();
            controller(&topo)
        };
        let moved = std::thread::spawn(move || serve(engine)).join().unwrap();
        let topo = small_topology();
        assert_eq!(moved, serve(controller(&topo)));

        let subscribers: Vec<_> = (0..4)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect();
        let mut events = Vec::new();
        for i in 0..4 {
            let (imsi, bs) = (UeImsi(i), BaseStationId(i as u32));
            let flow = ShardEventKind::NewFlow {
                bs,
                dst: [93, 184, 216, 34].into(),
                src_port: 40_000,
                dst_port: [443, 80][i as usize % 2],
                udp: false,
            };
            for (t, kind) in [(i, ShardEventKind::Attach { bs }), (i + 1, flow)] {
                events.push(ShardEvent {
                    time: SimTime(t),
                    imsi,
                    kind,
                });
            }
        }
        let run = move |sc: ShardedController| {
            sc.run(ServicePolicy::example_carrier_a(1), &subscribers, &events)
        };
        let cfg = ControllerConfig::simulation();
        let sharded = {
            let topo = small_topology();
            ShardedController::new(&topo, cfg, 2)
        };
        let moved = std::thread::spawn({
            let run = run.clone();
            move || run(sharded)
        });
        let moved = moved.join().unwrap();
        let in_place = run(ShardedController::new(&topo, cfg, 2));
        assert!(!in_place.merged_batches().is_empty());
        assert_eq!(moved.merged_batches(), in_place.merged_batches());
    }

    #[test]
    fn missing_middlebox_kind_denies_path() {
        let topo = small_topology();
        let mut c = controller(&topo);
        assert!(c
            .select_instances(BaseStationId(0), &[MiddleboxKind::LawfulIntercept])
            .is_err());
    }
}
