//! Algorithm 1: online multi-dimensional aggregation of policy paths.
//!
//! Installing a policy path means making every switch along it forward
//! the path's traffic to the right next hop (switch, middlebox, or exit).
//! The scalability of SoftCell's data plane comes from *which* rules
//! realize those decisions (paper §3.2):
//!
//! 1. **Tag selection.** For each candidate tag already present on the
//!    path's switches, count how many *new* rules installing the path
//!    under that tag would take — zero where the tag's existing next hop
//!    already agrees, zero where a new rule merges with a contiguous
//!    sibling, one otherwise, infeasible on exact conflict. Pick the
//!    argmin; allocate a fresh tag when no candidate is usable.
//! 2. **Installation.** Lay down the rules, aggregating where possible:
//!    a tag's first rule at a switch is a Type 2 (tag-only) default; a
//!    divergent next hop becomes a Type 1 (tag+prefix) override;
//!    contiguous same-next-hop prefixes merge into their parent.
//! 3. **Loops.** A path that re-enters a switch through *different*
//!    links is disambiguated by input port; re-entry through the *same*
//!    link splits the path into segments with distinct tags joined by a
//!    tag-swap rule (§3.2 "Dealing with loops").
//!
//! Two engineering choices documented in DESIGN.md: candidate tags are
//! drawn from a chain-shape index plus the tags at the path's
//! pre-gateway switch (a bounded subset of the paper's full `candTag`
//! set — the argmin is exact over the evaluated set), and a tag may not
//! be shared by two *different* paths of the same origin base station
//! (their rules would be indistinguishable — the generalization of the
//! paper's footnote 2).
//!
//! # State: one owner, plan then commit
//!
//! [`PathInstaller`] owns Algorithm 1's state outright: one
//! [`ShadowTables`] per direction, the tag pool, the chain-shape
//! candidate index and the per-station claimed-tag sets. Algorithm 1
//! runs once per (clause, station) path — local agents ask only on a
//! tag-cache miss (§4.2) — so it runs wherever its owner runs: the
//! controller, whichever driver feeds it.
//! Nothing here locks.
//!
//! An install plans first and commits second, once per path. Planning
//! is pure: it previews fresh tags with [`IdPool::peek`], and a segment
//! reads the tags and chain-index pushes of those planned before it from
//! their plans. An Internet path is one round trip
//! ([`PathInstaller::install_round_trip`]): its uplink is planned, then
//! its downlink, whose entry is the uplink's exit tag (the Internet
//! echoes it back), against the uplink plan's tags and fresh-tag
//! previews; both are committed together. The commit replays the plans
//! and writes the rules; every feasibility question was answered while
//! planning, so the commit cannot fail, and a path that fails to plan —
//! either direction — leaves no trace.
//!
//! **The commit writes the slots its plan probed.** Costing a tag
//! records each decision that needs a rule and the table it goes to;
//! the winner's record travels in the segment's plan, and the commit
//! writes those slots without probing again — except a **stale**
//! decision, which reads its switch's unqualified table (an `External`
//! or `FromSwitch` arrival) after the segment has written that table,
//! and the decisions of a fresh tag, which were never probed. Nothing
//! else can go stale: a `(switch, arrival)` pair occurs once per
//! segment, so a qualified table is read and written by one decision;
//! a path's segments carry distinct tags; the two directions write
//! separate tables; nothing else writes between plan and commit. So the
//! deltas are those of re-probing every decision (a test reference).
//!
//! # Planning cost model
//!
//! A path is decomposed once into flat decision vectors (a few dozen
//! entries) and its segments move into the plan, in linear time: a
//! per-switch index chains each switch's kept decisions.
//! Per segment at most `MAX_CANDIDATES` (8) tags are costed,
//! each front to back, one probe per decision: per table one lookup and
//! one longest-prefix walk ([`ShadowSwitch::probe`]; a link arrival may
//! consult its qualified table and the unqualified one; a last-leg
//! decision that no tag rule answers, the location stage's binary
//! search). A candidate's cost is its new rules, then on the downlink
//! its writes (the slots its record holds: rules, location entries and
//! deferral records) — of two tags that add no rule there, the one that
//! changes nothing wins, so a station keeps to the tags it holds. The
//! argmin is
//! a branch-and-bound with three cuts, all exact because a candidate
//! replaces the best only by costing strictly less and a running cost
//! only grows:
//!
//! 1. the search ends at the first candidate that writes nothing;
//! 2. a candidate is abandoned at the decision where its running cost
//!    reaches the best so far;
//! 3. a tag claimed by the origin station is abandoned at the first
//!    decision it would change (it is admissible only unchanged).
//!
//! So the tag, `use_fresh`, the chain-index pushes and every rule are
//! those of the unbounded evaluation (kept as the test reference). On
//! `path_install_storm` the cuts take the decisions costed per path from
//! 198 to 41; the gateway-side sample is mostly tags the origin itself
//! claimed under earlier clauses, which cut 3 drops after one probe.
//! Its commit probes 0.1 times per path, not 48 (EXPERIMENTS.md).

use softcell_types::{FxHashMap, FxHashSet};

use softcell_telemetry::Registry;
use softcell_topology::{PolicyPath, Topology};
use softcell_types::{
    AddressingScheme, BaseStationId, Error, IdPool, Ipv4Prefix, MiddleboxId, PolicyTag, Result,
    SwitchId,
};

use crate::shadow::{Entry, NextHop, Probe, ShadowDelta, ShadowSwitch, ShadowTables};

/// The direction a rule set serves (re-exported from the data plane's
/// matcher so controller and switch agree on field selection). Figure 7
/// counts one direction (the paper's Fig. 3 shows downlink rules); the
/// end-to-end simulator installs both.
pub use softcell_dataplane::matcher::Direction;

/// Counter bumped when a raw mobility tag is released more times than it
/// was allocated (see [`PathInstaller::release_raw_tag`]).
pub const TAG_RELEASE_UNDERFLOW: &str = "softcell_controller_tag_release_underflow_total";

/// The tag space tag selection allocates from.
#[derive(Clone, Copy, Debug)]
pub struct TagPolicy {
    /// Total tag space (the paper's Fig. 4 embodiment has 2^10; the
    /// large-scale simulations use a wider space).
    pub capacity: u16,
}

impl Default for TagPolicy {
    fn default() -> Self {
        TagPolicy { capacity: u16::MAX }
    }
}

/// Maximum candidate tags evaluated per segment (the argmin is exact
/// over this set).
const MAX_CANDIDATES: usize = 8;

/// One forwarding decision a path requires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Decision {
    sw: SwitchId,
    /// How the traffic arrives (loop/middlebox disambiguation context).
    arrival: Arrival,
    want: Want,
    /// Must be input-port qualified: the switch is entered from different
    /// links with different next hops within this segment.
    qualified: bool,
    /// On the downlink's last leg: past the last middlebox's host switch,
    /// towards the station.
    last_leg: bool,
}

impl Decision {
    /// The switch this decision forwards to when the location stage can
    /// carry its traffic: a plain forward from an unqualified slot,
    /// neither port-qualified, nor a middlebox return (whose table may
    /// take a default), nor the swap junction (whose rule rewrites the
    /// tag). On the last leg such a decision may defer to the stage.
    fn plain_forward(&self, is_swap: bool) -> Option<SwitchId> {
        let unqualified = !self.qualified && !matches!(self.arrival, Arrival::FromMb(_));
        match self.want {
            Want::ToSwitch(next) if unqualified && !is_swap => Some(next),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Arrival {
    /// From outside the fabric (radio at the access switch, Internet at
    /// the gateway).
    External,
    FromSwitch(SwitchId),
    FromMb(MiddleboxId),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Want {
    ToSwitch(SwitchId),
    ToMb(MiddleboxId),
    /// Out the Internet uplink (uplink direction's last hop).
    Exit,
}

impl Want {
    fn next_hop(self) -> NextHop {
        match self {
            Want::ToSwitch(s) => NextHop::Switch(s),
            Want::ToMb(m) => NextHop::Middlebox(m),
            Want::Exit => NextHop::Uplink,
        }
    }

    fn swap_next_hop(self, to: PolicyTag) -> NextHop {
        match self {
            Want::ToSwitch(s) => NextHop::SwapTag(to, s),
            Want::ToMb(m) => NextHop::SwapTagMb(to, m),
            Want::Exit => NextHop::Uplink, // swapping at the exit is pointless
        }
    }
}

/// Result of installing one path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallReport {
    /// The tag of each segment, in traversal order. The first is what
    /// the access-edge classifier embeds; the last is what the packet
    /// carries at the far end.
    pub segment_tags: Vec<PolicyTag>,
    /// Net change in installed rules: rules added minus rules a merge
    /// consumed. Negative when a cascade removes more than it adds.
    pub new_rules: isize,
    /// Tag-swap rules among them.
    pub swap_rules: usize,
}

impl InstallReport {
    /// The tag the classifier embeds at the access edge (uplink) or that
    /// arrives from the Internet (downlink): the first segment's tag.
    pub fn entry_tag(&self) -> PolicyTag {
        self.segment_tags[0]
    }

    /// The tag the packet carries after the last segment.
    pub fn exit_tag(&self) -> PolicyTag {
        *self.segment_tags.last().expect("at least one segment")
    }
}

/// A chain-index slot: direction plus [`Segment::chain_key`].
type ChainKey = (Direction, u64);

/// Records `tag` as the most recent use of a chain-index slot (four tags
/// deep, oldest out first).
fn push_chain_slot(slot: &mut Vec<PolicyTag>, tag: PolicyTag) {
    if !slot.contains(&tag) {
        slot.push(tag);
        if slot.len() > 4 {
            slot.remove(0);
        }
    }
}

/// Where the commit writes a decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    /// A tag rule in this table.
    Table(Entry),
    /// A new location-stage entry sending the prefix to this switch; the
    /// tag's unqualified table records that it deferred.
    Location(SwitchId),
    /// Nothing new: the location stage sends the prefix to this switch
    /// already. The tag's unqualified table records that it deferred (a
    /// table that has recorded it needs no write), which changes no
    /// forwarding.
    Deferral(SwitchId),
}

/// A write the commit must make: the decision's index in its segment and
/// where it goes.
type Slot = (usize, Target);

/// Buffers an install reuses from the last one.
#[derive(Default)]
struct Scratch {
    /// Per switch: 1 + the segment index of its latest kept decision, 0
    /// for none; all 0 between calls.
    head: Vec<u32>,
    /// Per kept decision: its offset in the path, 1 + the index of the
    /// previous kept decision on its switch (0: none), and whether a
    /// later pass repeated it (a swap there would alter that pass too).
    kept: Vec<(usize, u32, bool)>,
    /// The tags a segment costs.
    candidates: Vec<PolicyTag>,
    /// The records of the candidate being costed and of the best so far.
    costing: Vec<Slot>,
    best: Vec<Slot>,
    /// Switches whose unqualified table the segment's commit has written.
    written: Vec<SwitchId>,
}

impl Scratch {
    /// The kept decisions on `sw`, latest first.
    fn chain(&self, sw: SwitchId) -> impl Iterator<Item = usize> + '_ {
        let link = |at: u32| (at != 0).then(|| at as usize - 1);
        std::iter::successors(link(self.head[sw.index()]), move |&k| link(self.kept[k].1))
    }

    /// Splits decisions into tag segments and marks input-port-qualified
    /// decisions.
    ///
    /// * Same `(switch, arrival)` with the same next hop → duplicate rule,
    ///   dropped.
    /// * Same switch, different arrivals, different next hops → both rules
    ///   become input-port qualified (no new tag needed).
    /// * Same `(switch, arrival)` with different next hops → same-link loop
    ///   (§3.2): the path is split and the remainder uses a fresh tag. The
    ///   swap rule is placed as *late* as possible — on the last
    ///   uniquely-keyed decision before the re-entry — so that for paths
    ///   sharing a suffix (one clause, many stations) the junction falls in
    ///   the shared portion and the swap rule aggregates across stations.
    fn split_segments(&mut self, decisions: &[Decision]) -> Vec<Segment> {
        let mut segments = Vec::new();
        let mut start = 0usize;
        loop {
            let mut seg: Vec<Decision> = Vec::with_capacity(decisions.len() - start);
            self.kept.clear();
            // index in `seg` to swap at, when a same-link loop cuts it short
            let mut split: Option<usize> = None;
            for (offset, d) in decisions.iter().enumerate().skip(start) {
                let Some(first) = self.chain(d.sw).find(|&k| seg[k].arrival == d.arrival) else {
                    self.kept.push((offset, self.head[d.sw.index()], false));
                    self.head[d.sw.index()] = self.kept.len() as u32;
                    seg.push(*d);
                    continue;
                };
                if seg[first].want == d.want {
                    // identical rule; mark the original as shared and skip
                    self.kept[first].2 = true;
                    continue;
                }
                // Same-link loop. Swap as late as possible: the last
                // decision whose rule serves exactly one pass.
                split = Some(self.kept.iter().rposition(|k| !k.2).unwrap_or(first));
                break;
            }

            let len = split.map_or(seg.len(), |k| k + 1);
            self.mark_qualified(&mut seg, len, split.is_some());
            for d in &seg {
                self.head[d.sw.index()] = 0;
            }
            seg.truncate(len);
            segments.push(Segment { decisions: seg });
            match split {
                None => break,
                Some(k) => start = self.kept[k].0 + 1,
            }
        }
        segments
    }

    /// Marks the first `len` decisions needing input-port qualification:
    /// switches entered from different links with differing next hops.
    /// Only fabric arrivals count (middlebox arrivals are inherently
    /// qualified by their own entry), and external arrivals cannot be
    /// port-qualified: they keep the unqualified slot while the link
    /// arrivals move out of its way. The tag-swap junction of a segment
    /// that `swaps` (its last decision) differs from a plain decision
    /// with the same next hop: the two rules would collide in one slot.
    fn mark_qualified(&self, seg: &mut [Decision], len: usize, swaps: bool) {
        let fabric = |d: &Decision| !matches!(d.arrival, Arrival::FromMb(_));
        for i in 0..len {
            let key = |k: usize| (seg[k].want, swaps && k + 1 == len);
            let qualified = matches!(seg[i].arrival, Arrival::FromSwitch(_))
                && (self.chain(seg[i].sw)).any(|k| k < len && key(k) != key(i) && fabric(&seg[k]));
            seg[i].qualified = qualified;
        }
    }
}

/// A fully planned single-direction path: everything `apply_path_plan`
/// needs to commit without re-running tag selection.
struct PathPlan<'s> {
    dir: Direction,
    origin: BaseStationId,
    prefix: Ipv4Prefix,
    /// Forward (traversal) order. Replays happen in *planning* order —
    /// back to front — for the tag pool and chain index, then forward
    /// for the rules.
    plans: Vec<SegmentPlan<'s>>,
}

impl PathPlan<'_> {
    /// The tag the packet carries after the last segment.
    fn exit_tag(&self) -> PolicyTag {
        self.plans.last().expect("at least one segment").tag
    }
}

/// What every candidate tag of one segment is costed against.
struct Costing<'a> {
    origin: BaseStationId,
    dir: Direction,
    prefix: Ipv4Prefix,
    seg: &'a Segment,
    swap_to: Option<PolicyTag>,
    key: ChainKey,
    /// The path's segments planned so far (the later ones).
    planned: &'a [SegmentPlan<'a>],
    /// A round trip's uplink plan, when this is its downlink: committed
    /// first, so its tags count as the station's claims and its fresh
    /// tags as taken, and its exit tag is the downlink's entry.
    ahead: Option<&'a PathPlan<'a>>,
    /// Tags this segment may not take: the exits of a round trip's
    /// earlier uplink plans, whose downlink they would not admit.
    refused: &'a [PolicyTag],
}

impl Costing<'_> {
    /// A candidate's writes, the second part of its cost: its record's
    /// slots on the downlink, where the location stage makes many tags
    /// free on a last leg; none on the uplink, which has no stage, so
    /// its first free candidate wins.
    fn writes(&self, record: &[Slot]) -> usize {
        match self.dir {
            Direction::Downlink => record.len(),
            Direction::Uplink => 0,
        }
    }

    /// Another segment's tag — sharing it would recreate the ambiguity
    /// segmentation removes — the forced entry tag, which segment 0
    /// takes though it is planned last, or a refused tag.
    fn excluded(&self, tag: PolicyTag) -> bool {
        self.ahead.is_some_and(|up| up.exit_tag() == tag)
            || self.refused.contains(&tag)
            || self.planned.iter().any(|p| p.tag == tag)
    }
}

/// Where a decision's write goes and what it costs in rules (`None`
/// inside: infeasible), or `None` when the switch already forwards the
/// decision's traffic to `nh` by a tag rule.
///
/// Middlebox returns are always port-qualified; loop-marked decisions
/// and decisions whose arrival already has a qualified table for this
/// tag must be qualified too (an unqualified rule would be shadowed).
/// Until such a rule exists the switch answers from the unqualified
/// table, honoring the qualified-over-unqualified priority.
///
/// The location stage (§7 item 11 in DESIGN.md) takes part for a plain
/// forward ([`Decision::plain_forward`]) that no tag rule answers:
///
/// * where the tag has deferred on this switch before, its unqualified
///   table takes no default, so the stage's answer holds: the decision
///   is in place when that answer is its next hop;
/// * on the last leg, the decision defers to the stage when its arrival
///   has no qualified table for the tag and the stage answers its next
///   hop or nothing — a new entry, or only the tag's deferral record.
fn rule_slot(
    sw: &ShadowSwitch,
    d: &Decision,
    tag: PolicyTag,
    prefix: Ipv4Prefix,
    nh: NextHop,
    is_swap: bool,
) -> Option<(Target, Option<usize>)> {
    let forward = d.plain_forward(is_swap);
    let table =
        |entry, current, cost| (current != Some(nh)).then_some((Target::Table(entry), cost));
    // the stage's answer where it holds for this tag
    let settled = || {
        let deferred = forward.filter(|_| sw.has_deferred(tag));
        deferred
            .and_then(|_| sw.location(prefix))
            .map(NextHop::Switch)
    };
    let unqualified = |u: Probe| {
        if let (Some(next), None) = (forward.filter(|_| d.last_leg), u.current) {
            match sw.probe_location(prefix, next) {
                (None, cost) => return Some((Target::Location(next), Some(cost))),
                // the table records its deferral once
                (Some(at), _) if at == next => {
                    return (!sw.has_deferred(tag)).then_some((Target::Deferral(next), Some(0)));
                }
                (Some(_), _) => {}
            }
        }
        table(Entry::Ingress, u.current.or_else(settled), u.cost)
    };
    match d.arrival {
        Arrival::External => unqualified(sw.probe(Entry::Ingress, tag, prefix, nh)),
        Arrival::FromMb(mb) => {
            let m = sw.probe(Entry::FromMb(mb), tag, prefix, nh);
            table(Entry::FromMb(mb), m.current, m.cost)
        }
        Arrival::FromSwitch(prev) => {
            let q = sw.probe(Entry::FromSwitch(prev), tag, prefix, nh);
            if q.current.is_some() {
                return table(Entry::FromSwitch(prev), q.current, q.cost);
            }
            let u = sw.probe(Entry::Ingress, tag, prefix, nh);
            if d.qualified || q.present {
                table(Entry::FromSwitch(prev), u.current.or_else(settled), q.cost)
            } else {
                unqualified(u)
            }
        }
    }
}

/// Applies a segment plan to one direction's tables: its record's
/// slots, probing only stale and fresh-tag decisions (module doc).
/// Returns (net rule change, swap rules added).
fn commit_segment(
    tables: &mut ShadowTables,
    last_deltas: &mut Vec<(SwitchId, ShadowDelta)>,
    written: &mut Vec<SwitchId>,
    prefix: Ipv4Prefix,
    plan: &SegmentPlan,
) -> (isize, usize) {
    let mut net = 0isize;
    let mut swaps = 0usize;
    written.clear();
    let mut record = plan.record.as_ref().map(|r| r.iter().peekable());
    for (i, d) in plan.decisions.iter().enumerate() {
        let (nh, is_swap) = wanted(plan.decisions, i, plan.swap_to);
        // `Some(None)`: the plan found this decision already in place
        let planned = (record.as_mut()).map(|r| r.next_if(|s| s.0 == i).map(|&(_, target)| target));
        let stale = matches!(d.arrival, Arrival::External | Arrival::FromSwitch(_))
            && written.contains(&d.sw);
        let target = match planned {
            Some(planned) if !stale => planned,
            _ => {
                #[cfg(test)]
                tests::COMMIT_PROBES.with(|n| n.set(n.get() + 1));
                let sw = tables.switch(d.sw);
                rule_slot(sw, d, plan.tag, prefix, nh, is_swap).map(|(target, _)| target)
            }
        };
        let Some(target) = target else {
            continue;
        };
        if target == Target::Table(Entry::Ingress) {
            written.push(d.sw);
        }
        let sw = tables.switch_mut(d.sw);
        let emit = |delta| {
            let rules = delta_rules(&delta);
            net += rules;
            swaps += usize::from(is_swap && rules > 0);
            last_deltas.push((d.sw, delta));
        };
        match target {
            Target::Table(entry) => sw.write_probed(entry, plan.tag, prefix, nh, emit),
            Target::Location(next) | Target::Deferral(next) => {
                sw.defer(plan.tag, prefix, next, emit)
            }
        }
    }
    (net, swaps)
}

/// A delta's change to the rule count: +1 for a rule added, -1 for one
/// removed (a merge emits its removals before its add).
fn delta_rules(delta: &ShadowDelta) -> isize {
    match delta {
        ShadowDelta::SetDefault { .. }
        | ShadowDelta::AddPrefix { .. }
        | ShadowDelta::AddLocation { .. } => 1,
        ShadowDelta::RemovePrefix { .. } | ShadowDelta::RemoveLocation { .. } => -1,
    }
}

/// The next hop decision `i` of a segment must forward to, and whether
/// that is the segment's tag-swap junction (its last decision, when
/// another segment follows).
fn wanted(decisions: &[Decision], i: usize, swap_to: Option<PolicyTag>) -> (NextHop, bool) {
    let want = decisions[i].want;
    match swap_to {
        Some(to) if i + 1 == decisions.len() => (want.swap_next_hop(to), true),
        _ => (want.next_hop(), false),
    }
}

/// The online path installer: the sole owner of Algorithm 1's state.
pub struct PathInstaller {
    scheme: AddressingScheme,
    policy: TagPolicy,
    up: ShadowTables,
    down: ShadowTables,
    tags: IdPool,
    /// chain-shape → recently used tags (candidate source).
    chain_index: FxHashMap<ChainKey, Vec<PolicyTag>>,
    /// Tags already serving some path of a given base station (paper
    /// footnote 2, generalized): `claimed[bs]` is the set of tags in use
    /// by that station's installed paths.
    claimed: FxHashMap<BaseStationId, FxHashSet<PolicyTag>>,
    /// Deltas of the last installation, for lowering to physical rules:
    /// the first `up_deltas` the uplink's, the rest the downlink's.
    last_deltas: Vec<(SwitchId, ShadowDelta)>,
    up_deltas: usize,
    paths_installed: usize,
    scratch: Scratch,
}

impl PathInstaller {
    /// Creates an installer over a topology.
    pub fn new(topo: &Topology, scheme: AddressingScheme, policy: TagPolicy) -> Self {
        PathInstaller {
            scheme,
            policy,
            up: ShadowTables::new(topo.switch_count()),
            down: ShadowTables::new(topo.switch_count()),
            tags: IdPool::new(u32::from(policy.capacity)),
            chain_index: FxHashMap::default(),
            claimed: FxHashMap::default(),
            last_deltas: Vec::new(),
            up_deltas: 0,
            paths_installed: 0,
            scratch: Scratch {
                head: vec![0; topo.switch_count()],
                ..Scratch::default()
            },
        }
    }

    /// One direction's network shadow (rule counts etc.).
    pub fn shadows(&self, dir: Direction) -> &ShadowTables {
        match dir {
            Direction::Uplink => &self.up,
            Direction::Downlink => &self.down,
        }
    }

    /// The addressing scheme in use.
    pub fn scheme(&self) -> &AddressingScheme {
        &self.scheme
    }

    /// Number of tags currently allocated.
    pub fn tags_in_use(&self) -> usize {
        self.tags.allocated()
    }

    /// Allocates a tag outside the policy-path machinery (the mobility
    /// tag, §5.1). Returns `None` when the tag space is
    /// exhausted.
    pub fn allocate_raw_tag(&mut self) -> Option<PolicyTag> {
        self.tags.allocate().map(|t| PolicyTag(t as u16))
    }

    /// Holds a raw tag allocated elsewhere: the mobility tag, across the
    /// offline pass's fresh installer.
    pub(crate) fn adopt_raw_tag(&mut self, tag: PolicyTag) {
        self.tags.adopt(u32::from(tag.0));
    }

    /// Returns a raw tag to the pool (tunnel garbage collection).
    ///
    /// The mobility tag is held while any tunnel lives
    /// (`MobilityManager`), so an unbalanced release here means
    /// corrupted tunnel bookkeeping upstream — freeing the
    /// tag anyway could hand a tag still carrying traffic to a new path.
    /// Debug builds assert; release builds saturate (the release is
    /// dropped) and bump [`TAG_RELEASE_UNDERFLOW`].
    pub fn release_raw_tag(&mut self, tag: PolicyTag) {
        let released = self.tags.release(u32::from(tag.0));
        if !released {
            // literal (not [`TAG_RELEASE_UNDERFLOW`]) so the metrics
            // manifest extractor sees the registration
            Registry::global()
                .counter("softcell_controller_tag_release_underflow_total")
                .add(1);
        }
        debug_assert!(released, "unbalanced raw release of {tag}");
    }

    /// Number of paths installed so far.
    pub fn paths_installed(&self) -> usize {
        self.paths_installed
    }

    /// One direction's shadow deltas produced by the most recent install
    /// ([`install_path`](Self::install_path) or
    /// [`install_round_trip`](Self::install_round_trip)), as
    /// `(switch, delta)` pairs in application order.
    ///
    /// **Order dependence.** Application order matters *per switch*: a
    /// path's deltas at one switch may refine each other (a Type 2
    /// tag-only default followed by a Type 1 override, a child prefix
    /// merged into its parent), so replaying a switch's deltas out of
    /// order reconstructs a different table. Deltas for *different*
    /// switches are independent and may be applied in any interleaving —
    /// which is exactly the freedom `ops::batch_by_switch` exploits when
    /// the sharded controller ships per-switch, barrier-fenced batches
    /// (see `tests/drain_order.rs` for the regression lock).
    pub fn last_deltas(&self, dir: Direction) -> &[(SwitchId, ShadowDelta)] {
        let (up, down) = self.last_deltas.split_at(self.up_deltas);
        match dir {
            Direction::Uplink => up,
            Direction::Downlink => down,
        }
    }

    /// Installs a policy path in one direction. Returns the per-segment
    /// tags and rule accounting.
    pub fn install_path(&mut self, path: &PolicyPath, dir: Direction) -> Result<InstallReport> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let segments = scratch.split_segments(&build_decisions(path, dir));
        let plan = self.plan_path(&mut scratch, path.origin, &segments, dir, None, &[]);
        let reports = plan.map(|plan| self.commit([plan], &mut scratch));
        self.scratch = scratch;
        reports.map(|[report]| report)
    }

    /// Installs an Internet path's uplink and downlink as one: the
    /// downlink enters with the tag the uplink exits with (the Internet
    /// echoes it back), both are planned before either is committed, and
    /// a refusal of either direction leaves no trace. Returns the
    /// uplink's report, then the downlink's.
    pub fn install_round_trip(&mut self, path: &PolicyPath) -> Result<[InstallReport; 2]> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let up = scratch.split_segments(&build_decisions(path, Direction::Uplink));
        let down = scratch.split_segments(&build_decisions(path, Direction::Downlink));
        let plans = self.plan_round_trip(&mut scratch, path.origin, &up, &down);
        let reports = plans.map(|plans| self.commit(plans, &mut scratch));
        self.scratch = scratch;
        reports
    }

    /// Plans a round trip: the uplink, then the downlink forced to the
    /// uplink's exit tag. A forced segment is admitted by the claim rule
    /// every segment is, against the station's claims before this path:
    /// when it would change a path of the station that claims the exit
    /// tag, that tag is refused and the uplink planned again without it
    /// on its gateway-side segment. Each round refuses another of that
    /// segment's at most `MAX_CANDIDATES` candidates, and a fresh exit
    /// tag is admissible downstream, so this ends within
    /// `MAX_CANDIDATES + 1` rounds; only tag exhaustion refuses.
    fn plan_round_trip<'s>(
        &self,
        scratch: &mut Scratch,
        origin: BaseStationId,
        up: &'s [Segment],
        down: &'s [Segment],
    ) -> Result<[PathPlan<'s>; 2]> {
        let mut refused = Vec::new();
        loop {
            let uplink = self.plan_path(scratch, origin, up, Direction::Uplink, None, &refused)?;
            let (exit, ahead) = (uplink.exit_tag(), Some(&uplink));
            match self.plan_path(scratch, origin, down, Direction::Downlink, ahead, &[]) {
                Ok(downlink) => return Ok([uplink, downlink]),
                Err(Error::InvalidState(_)) if !refused.contains(&exit) => refused.push(exit),
                Err(e) => return Err(e),
            }
        }
    }

    /// Commits one path's plans, uplink first: the delta buffer is reset
    /// once and [`last_deltas`](Self::last_deltas) splits it where the
    /// uplink's deltas end.
    fn commit<const N: usize>(
        &mut self,
        plans: [PathPlan; N],
        scratch: &mut Scratch,
    ) -> [InstallReport; N] {
        self.last_deltas.clear();
        self.up_deltas = 0;
        plans.map(|plan| self.apply_path_plan(plan, scratch))
    }

    /// Commits a plan: replays its tag-pool and chain-index updates
    /// (fresh-tag claims and chain-slot pushes, in planning order) and
    /// writes its rules. Infallible by construction: every feasibility
    /// question was answered at planning time, against this same state.
    fn apply_path_plan(&mut self, plan: PathPlan, scratch: &mut Scratch) -> InstallReport {
        // Planning order is back to front; the pool's pops and the
        // chain-slot pushes must replay in that order (slot order
        // feeds future candidate sampling).
        for sp in plan.plans.iter().rev() {
            if sp.record.is_none() {
                let got = self.tags.allocate();
                debug_assert_eq!(
                    got,
                    Some(u32::from(sp.tag.0)),
                    "tag pool drifted from its planned preview"
                );
            }
            push_chain_slot(self.chain_index.entry(sp.chain_key).or_default(), sp.tag);
        }
        let tables = match plan.dir {
            Direction::Uplink => &mut self.up,
            Direction::Downlink => &mut self.down,
        };
        #[cfg(test)]
        let commit = if tests::REPROBING.with(std::cell::Cell::get) {
            tests::commit_segment_reprobing
        } else {
            commit_segment
        };
        #[cfg(not(test))]
        let commit = commit_segment;
        let claimed = self.claimed.entry(plan.origin).or_default();
        let (mut new_rules, mut swap_rules, deltas) = (0isize, 0usize, &mut self.last_deltas);
        for sp in &plan.plans {
            let (net, swaps) = commit(tables, deltas, &mut scratch.written, plan.prefix, sp);
            new_rules += net;
            swap_rules += swaps;
            claimed.insert(sp.tag);
        }
        if plan.dir == Direction::Uplink {
            self.up_deltas = self.last_deltas.len();
        }
        self.paths_installed += 1;
        InstallReport {
            segment_tags: plan.plans.iter().map(|sp| sp.tag).collect(),
            new_rules,
            swap_rules,
        }
    }

    /// Plans a path's segments without mutating state: a round trip's
    /// downlink behind the uplink plan `ahead`, the gateway-side segment
    /// of an uplink without the `refused` tags.
    fn plan_path<'s>(
        &self,
        scratch: &mut Scratch,
        origin: BaseStationId,
        segments: &'s [Segment],
        dir: Direction,
        ahead: Option<&PathPlan>,
        refused: &[PolicyTag],
    ) -> Result<PathPlan<'s>> {
        let prefix = self.scheme.base_station_prefix(origin)?;
        // Segments are resolved back-to-front so a segment's swap-in rule
        // (owned by the previous segment) can name its tag.
        let mut plans: Vec<SegmentPlan> = Vec::with_capacity(segments.len());
        for (idx, seg) in segments.iter().enumerate().rev() {
            let gateway_side = idx + 1 == segments.len();
            let job = Costing {
                origin,
                dir,
                prefix,
                seg,
                swap_to: plans.last().map(|p| p.tag),
                key: (dir, seg.chain_key(dir)),
                planned: &plans,
                ahead,
                refused: if gateway_side { refused } else { &[] },
            };
            let forced = ahead.filter(|_| idx == 0).map(PathPlan::exit_tag);
            let (tag, record) = self.plan_segment(scratch, &job, forced)?;
            let (chain_key, swap_to) = (job.key, job.swap_to);
            plans.push(SegmentPlan {
                tag,
                record,
                chain_key,
                decisions: &seg.decisions,
                swap_to,
            });
        }
        plans.reverse();
        Ok(PathPlan {
            dir,
            origin,
            prefix,
            plans,
        })
    }

    /// Chooses a segment's tag, with a reused tag's record (`None`: a
    /// fresh tag).
    fn plan_segment(
        &self,
        scratch: &mut Scratch,
        job: &Costing,
        forced: Option<PolicyTag>,
    ) -> Result<(PolicyTag, Option<Vec<Slot>>)> {
        if let Some(tag) = forced {
            // The downlink entry tag the uplink exits with, admitted as
            // any tag is: a tag the station claimed before this path only
            // unchanged. A refusal makes the round trip re-plan its uplink.
            let claimed = (self.claimed.get(&job.origin)).is_some_and(|c| c.contains(&tag));
            let unbounded = (usize::MAX, usize::MAX);
            if (self.segment_cost(job, tag, unbounded, claimed, &mut scratch.best)).is_none() {
                return Err(Error::InvalidState(format!(
                    "forced entry tag {tag} conflicts with existing rules"
                )));
            }
            return Ok((tag, Some(scratch.best.clone())));
        }
        let mut candidates = std::mem::take(&mut scratch.candidates);
        self.candidates(job, &mut candidates);
        #[cfg(test)]
        let argmin = if tests::EXHAUSTIVE.with(std::cell::Cell::get) {
            Self::best_candidate_exhaustive
        } else {
            Self::best_candidate
        };
        #[cfg(not(test))]
        let argmin = Self::best_candidate;
        let best = argmin(self, job, &candidates, scratch);
        scratch.candidates = candidates;

        let fresh_cost = job.seg.decisions.len() + usize::from(job.swap_to.is_some());
        // fresh tags previewed before this one: the uplink ahead's, then
        // this path's later segments'
        let previewed = (job.ahead.into_iter())
            .flat_map(|up| &up.plans)
            .chain(job.planned);
        let fresh_taken = previewed.filter(|p| p.record.is_none()).count();
        let allocated = self.tags.allocated() + fresh_taken;
        // A fresh tag beats reuse that costs more than it, while less
        // than half the tag space is used: fresh tags buy cheap Type 2
        // rules, reuse buys a smaller tag-space footprint.
        let use_fresh = match best {
            None => true,
            Some((cost, _)) => cost > fresh_cost && (allocated * 2) < self.policy.capacity as usize,
        };
        if use_fresh {
            if let Some(t) = self.tags.peek(fresh_taken) {
                return Ok((PolicyTag(t as u16), None));
            }
        }
        let (_, tag) = best.ok_or_else(|| {
            Error::Exhausted(format!(
                "tag space exhausted and no feasible candidate ({} tags)",
                self.policy.capacity
            ))
        })?;
        Ok((tag, Some(scratch.best.clone())))
    }

    /// The tags worth costing for a segment, likeliest first: its
    /// chain-index slot (most recent first), then the tags present at
    /// its gateway-side switch — the busiest rule table on the path and
    /// a cheap, high-yield sample of the paper's candTag set.
    fn candidates(&self, job: &Costing, candidates: &mut Vec<PolicyTag>) {
        candidates.clear();
        if let Some(slot) = self.chain_index.get(&job.key) {
            candidates.extend_from_slice(slot);
        }
        // the pushes the commit will replay, seen by later segments first
        for p in job.planned.iter().filter(|p| p.chain_key == job.key) {
            push_chain_slot(candidates, p.tag);
        }
        candidates.reverse();
        if candidates.len() < MAX_CANDIDATES {
            if let Some(d) = job.seg.gateway_side(job.dir) {
                for t in self.shadows(job.dir).switch(d.sw).tags() {
                    if candidates.len() >= MAX_CANDIDATES {
                        break;
                    }
                    if !candidates.contains(&t) {
                        candidates.push(t);
                    }
                }
            }
        }
        candidates.truncate(MAX_CANDIDATES);
    }

    /// The argmin of [`PathInstaller::segment_cost`] over `candidates`,
    /// first wins ties, as an exact branch-and-bound: a candidate
    /// replaces `best` only by costing strictly less, and a running cost
    /// only grows, so each candidate is costed only while it can still
    /// win and the search ends at the first free one. A new best swaps
    /// its record into `scratch.best`.
    fn best_candidate(
        &self,
        job: &Costing,
        candidates: &[PolicyTag],
        scratch: &mut Scratch,
    ) -> Option<(usize, PolicyTag)> {
        let mut best: Option<(usize, PolicyTag)> = None;
        for &t in candidates {
            if job.excluded(t) {
                continue;
            }
            let limit = best.map_or((usize::MAX, usize::MAX), |(cost, _)| {
                (cost, job.writes(&scratch.best))
            });
            let claimed = self.is_claimed(job, t);
            if let Some(cost) = self.segment_cost(job, t, limit, claimed, &mut scratch.costing) {
                best = Some((cost, t));
                std::mem::swap(&mut scratch.costing, &mut scratch.best);
                if (cost, job.writes(&scratch.best)) == (0, 0) {
                    break;
                }
            }
        }
        best
    }

    /// Whether `tag` already serves the segment's station: on an
    /// installed path, or on the uplink ahead of a round trip's downlink.
    fn is_claimed(&self, job: &Costing, tag: PolicyTag) -> bool {
        let ahead = job.ahead.map_or(&[][..], |up| &up.plans);
        (self.claimed.get(&job.origin)).is_some_and(|c| c.contains(&tag))
            || ahead.iter().any(|p| p.tag == tag)
    }

    /// The exact new-rule count of realizing a segment under `tag`, if
    /// the tag is usable and that count is below `limit`; `None` as soon
    /// as either fails, recording the slots of the rules it needs.
    ///
    /// A tag `claimed` by another path of the same base station may only
    /// be shared when installing would change *nothing* — identical
    /// forwarding is harmless. A mere zero rule-count delta is NOT
    /// enough: an install that aggregates into a sibling still changes
    /// where this prefix forwards, which would silently rewrite the
    /// claiming path's behaviour.
    fn segment_cost(
        &self,
        job: &Costing,
        tag: PolicyTag,
        limit: (usize, usize),
        claimed: bool,
        record: &mut Vec<Slot>,
    ) -> Option<usize> {
        record.clear();
        let tables = self.shadows(job.dir);
        let mut cost = 0usize;
        for (i, d) in job.seg.decisions.iter().enumerate() {
            let (nh, is_swap) = wanted(&job.seg.decisions, i, job.swap_to);
            #[cfg(test)]
            tests::PROBES.with(|n| n.set(n.get() + 1));
            // A correct answer from a higher-priority qualified table, or
            // from the table we'd write to, costs nothing.
            let sw = tables.switch(d.sw);
            let Some((target, rule_cost)) = rule_slot(sw, d, tag, job.prefix, nh, is_swap) else {
                continue;
            };
            // a deferral the location stage answers already changes no
            // forwarding: only its record is written
            if !matches!(target, Target::Deferral(_)) {
                if claimed {
                    return None;
                }
                cost += rule_cost?;
            }
            record.push((i, target));
            if (cost, job.writes(record)) >= limit {
                return None;
            }
        }
        Some(cost)
    }
}

/// A planned segment: decisions plus the chosen tag.
#[derive(Clone, Debug)]
struct SegmentPlan<'s> {
    tag: PolicyTag,
    /// A reused tag's record, in decision order; `None`: a fresh tag.
    record: Option<Vec<Slot>>,
    /// The chain-index slot this segment's tag was recorded under (the
    /// commit replays the push).
    chain_key: ChainKey,
    decisions: &'s [Decision],
    /// If set, the segment's last decision swaps to this tag (it is the
    /// junction rule joining the next segment).
    swap_to: Option<PolicyTag>,
}

/// A maximal run of decisions served by a single tag.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Segment {
    decisions: Vec<Decision>,
}

impl Segment {
    /// The decision at the segment's gateway-side end: the *first* on
    /// the downlink, the *last* on the uplink.
    fn gateway_side(&self, dir: Direction) -> Option<&Decision> {
        match dir {
            Direction::Uplink => self.decisions.last(),
            Direction::Downlink => self.decisions.first(),
        }
    }

    /// A shape key for the chain index: hashes the middlebox traversals
    /// and the gateway-side switch — paths of the same shape from
    /// different stations are prime tag-sharing candidates. The
    /// station-side end is deliberately excluded (it differs per origin;
    /// including it would defeat cross-station sharing).
    fn chain_key(&self, dir: Direction) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for d in &self.decisions {
            if let Want::ToMb(mb) = d.want {
                (0u8, mb.0).hash(&mut h);
            }
        }
        if let Some(d) = self.gateway_side(dir) {
            (1u8, d.sw.0).hash(&mut h);
        }
        h.finish()
    }
}

/// Expands a policy path into its per-switch forwarding decisions for one
/// direction. The first decision of the traversal (made by the access
/// switch's microflow rule on the uplink) and the final delivery (the
/// access switch's downlink microflow rule) are *not* fabric decisions
/// and are omitted.
fn build_decisions(path: &PolicyPath, dir: Direction) -> Vec<Decision> {
    // Direction-ordered hops; middlebox chains on one switch reverse with
    // the direction.
    let last_idx = path.hops.len() - 1;
    let hop = |i: usize| {
        let h = match dir {
            Direction::Uplink => &path.hops[i],
            Direction::Downlink => &path.hops[last_idx - i],
        };
        (h.switch, h.mb_after)
    };

    // The downlink's last leg: the hops past the last middlebox's.
    let last_mb = (0..=last_idx).rev().find(|&i| hop(i).1.is_some());
    let mut decisions = Vec::with_capacity(path.hops.len() + 4);
    let mut arrival = Arrival::External;
    let mut decide = |sw, arrival, want, last_leg| {
        decisions.push(Decision {
            sw,
            arrival,
            want,
            qualified: false,
            last_leg,
        });
    };
    for i in 0..=last_idx {
        let (sw, mb) = hop(i);
        let last_leg = dir == Direction::Downlink && last_mb.is_none_or(|m| i > m);
        if let Some(mb) = mb {
            decide(sw, arrival, Want::ToMb(mb), false);
            arrival = Arrival::FromMb(mb);
        }
        if i < last_idx {
            let next = hop(i + 1).0;
            if next != sw {
                decide(sw, arrival, Want::ToSwitch(next), last_leg);
                arrival = Arrival::FromSwitch(sw);
            }
            // same switch twice in a row = chained middleboxes; the next
            // iteration's ToMb uses the FromMb arrival directly
        } else if dir == Direction::Uplink {
            // Last hop: uplink exits to the Internet; downlink delivery
            // at the access switch is the microflow rule's job.
            decide(sw, arrival, Want::Exit, false);
        }
    }

    // The very first fabric decision on the uplink is made by the access
    // switch's microflow action (out-port towards the next hop or into a
    // local middlebox); drop it unless it is also the exit (single-switch
    // paths don't occur, but stay defensive).
    if dir == Direction::Uplink && decisions.len() > 1 {
        decisions.remove(0);
        // re-base the arrival of what is now the first decision: it still
        // arrives from the access switch's link
    }
    decisions
}

/// The unbounded evaluation the branch-and-bound replaces, built from
/// the primitives `ShadowSwitch::probe` replaces: every candidate costed
/// over every decision. The tests hold the shipped planner to it, tag
/// for tag and delta for delta.
#[cfg(test)]
impl PathInstaller {
    fn best_candidate_exhaustive(
        &self,
        job: &Costing,
        candidates: &[PolicyTag],
        scratch: &mut Scratch,
    ) -> Option<(usize, PolicyTag)> {
        let mut best: Option<(usize, PolicyTag)> = None;
        for &t in candidates {
            if job.excluded(t) {
                continue;
            }
            let Some((cost, changes)) = self.segment_cost_unbounded(job, t, &mut scratch.costing)
            else {
                continue;
            };
            if changes != 0 && self.is_claimed(job, t) {
                continue;
            }
            // fewer rules, or as many with fewer writes
            let key = (cost, job.writes(&scratch.costing));
            if best.is_none_or(|(c, _)| key < (c, job.writes(&scratch.best))) {
                best = Some((cost, t));
                std::mem::swap(&mut scratch.costing, &mut scratch.best);
                if key == (0, 0) {
                    break;
                }
            }
        }
        best
    }

    /// (new rules, decisions whose forwarding would change), `None` =
    /// infeasible; `record` gets the slot of every change and of every
    /// deferral.
    fn segment_cost_unbounded(
        &self,
        job: &Costing,
        tag: PolicyTag,
        record: &mut Vec<Slot>,
    ) -> Option<(usize, usize)> {
        tests::PROBES.with(|n| n.set(n.get() + job.seg.decisions.len()));
        record.clear();
        let prefix = job.prefix;
        let mut cost = 0usize;
        let mut changes = 0usize;
        for (i, d) in job.seg.decisions.iter().enumerate() {
            let (nh, is_swap) = wanted(&job.seg.decisions, i, job.swap_to);
            let sw = self.shadows(job.dir).switch(d.sw);
            // a plain forward no tag table answers: in place where the
            // tag deferred here and the stage agrees; on the last leg,
            // deferred when no qualified table stands in the way and the
            // stage agrees or is silent
            let q = match d.arrival {
                Arrival::FromSwitch(prev) => Some(Entry::FromSwitch(prev)),
                _ => None,
            };
            let answered = q.and_then(|q| sw.next_hop(q, tag, prefix)).is_some()
                || sw.next_hop(Entry::Ingress, tag, prefix).is_some();
            if let Some(next) = d.plain_forward(is_swap).filter(|_| !answered) {
                let stage = sw.location(prefix);
                if stage == Some(next) && sw.has_deferred(tag) {
                    continue;
                }
                let qualified = q.is_some_and(|q| sw.has_table(q, tag));
                match stage {
                    _ if qualified || !d.last_leg => {}
                    Some(at) if at == next => {
                        record.push((i, Target::Deferral(next)));
                        continue;
                    }
                    Some(_) => {}
                    None => {
                        changes += 1;
                        cost += sw.location_cost(prefix, next);
                        record.push((i, Target::Location(next)));
                        continue;
                    }
                }
            }
            let (entry, current) = match d.arrival {
                Arrival::FromMb(mb) => {
                    let e = Entry::FromMb(mb);
                    (e, sw.next_hop(e, tag, prefix))
                }
                Arrival::FromSwitch(prev) => {
                    let q = Entry::FromSwitch(prev);
                    let e = if d.qualified || sw.has_table(q, tag) {
                        q
                    } else {
                        Entry::Ingress
                    };
                    let current = sw
                        .next_hop(q, tag, prefix)
                        .or_else(|| sw.next_hop(Entry::Ingress, tag, prefix));
                    (e, current)
                }
                Arrival::External => (Entry::Ingress, sw.next_hop(Entry::Ingress, tag, prefix)),
            };
            if current == Some(nh) {
                continue;
            }
            changes += 1;
            cost += sw.rule_cost(entry, tag, prefix, nh)?;
            record.push((i, Target::Table(entry)));
        }
        Some((cost, changes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_topology::{small_topology, CellularParams, ShortestPaths};
    use softcell_types::MiddleboxKind;
    use std::cell::Cell;

    thread_local! {
        /// Decisions costed by tag selection on this thread (shipped and
        /// reference planner alike).
        pub(super) static PROBES: Cell<usize> = const { Cell::new(0) };
        /// Decisions the commit probed on this thread (shipped and
        /// reference commit alike).
        pub(super) static COMMIT_PROBES: Cell<usize> = const { Cell::new(0) };
        /// Makes tag selection on this thread use the unbounded
        /// reference argmin.
        pub(super) static EXHAUSTIVE: Cell<bool> = const { Cell::new(false) };
        /// Makes the commit on this thread re-probe every decision
        /// ([`commit_segment_reprobing`]).
        pub(super) static REPROBING: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with `mode` set on this thread.
    fn with_mode<T>(mode: &'static std::thread::LocalKey<Cell<bool>>, f: impl FnOnce() -> T) -> T {
        mode.with(|e| e.set(true));
        let out = f();
        mode.with(|e| e.set(false));
        out
    }

    /// Runs `f` with tag selection switched to the exhaustive reference.
    fn exhaustively<T>(f: impl FnOnce() -> T) -> T {
        with_mode(&EXHAUSTIVE, f)
    }

    /// The commit the recorded one replaces: every decision probed again
    /// and written through the checking `install_with`. The tests hold
    /// [`commit_segment`] to it, delta for delta.
    pub(super) fn commit_segment_reprobing(
        tables: &mut ShadowTables,
        last_deltas: &mut Vec<(SwitchId, ShadowDelta)>,
        _written: &mut Vec<SwitchId>,
        prefix: Ipv4Prefix,
        plan: &SegmentPlan,
    ) -> (isize, usize) {
        let mut net = 0isize;
        let mut swaps = 0usize;
        for (i, d) in plan.decisions.iter().enumerate() {
            let (nh, is_swap) = wanted(plan.decisions, i, plan.swap_to);
            let sw = tables.switch_mut(d.sw);
            COMMIT_PROBES.with(|n| n.set(n.get() + 1));
            let Some((target, _)) = rule_slot(sw, d, plan.tag, prefix, nh, is_swap) else {
                continue;
            };
            let emit = |delta| {
                let rules = delta_rules(&delta);
                net += rules;
                swaps += usize::from(is_swap && rules > 0);
                last_deltas.push((d.sw, delta));
            };
            match target {
                Target::Table(entry) => sw.install_with(entry, plan.tag, prefix, nh, emit),
                Target::Location(next) | Target::Deferral(next) => {
                    sw.defer(plan.tag, prefix, next, emit)
                }
            }
        }
        (net, swaps)
    }

    /// The quadratic decomposition [`Scratch::split_segments`] replaces:
    /// each decision scans the ones kept so far, and each segment's
    /// qualification scans the whole segment per decision.
    fn split_segments_quadratic(decisions: &[Decision]) -> Vec<Segment> {
        let mut segments = Vec::new();
        // per kept decision: (original offset, shared with a duplicate)
        let mut kept: Vec<(usize, bool)> = Vec::with_capacity(decisions.len());
        let mut start = 0usize;
        loop {
            let mut seg: Vec<Decision> = Vec::with_capacity(decisions.len() - start);
            kept.clear();
            let mut split: Option<usize> = None;
            for (off, d) in decisions.iter().enumerate().skip(start) {
                let Some(first) = seg
                    .iter()
                    .position(|k| k.sw == d.sw && k.arrival == d.arrival)
                else {
                    seg.push(*d);
                    kept.push((off, false));
                    continue;
                };
                if seg[first].want == d.want {
                    kept[first].1 = true;
                    continue;
                }
                split = Some(
                    kept.iter()
                        .rposition(|&(_, shared)| !shared)
                        .unwrap_or(first),
                );
                break;
            }
            if let Some(k) = split {
                seg.truncate(k + 1);
            }
            mark_qualified_quadratic(&mut seg, split.is_some());
            segments.push(Segment { decisions: seg });
            match split {
                None => break,
                Some(k) => start = kept[k].0 + 1,
            }
        }
        segments
    }

    fn mark_qualified_quadratic(decisions: &mut [Decision], swaps: bool) {
        let fabric = |d: &Decision| !matches!(d.arrival, Arrival::FromMb(_));
        let n = decisions.len();
        let key = |k: usize, d: &Decision| (d.want, swaps && k + 1 == n);
        for i in 0..n {
            let d = decisions[i];
            decisions[i].qualified = matches!(d.arrival, Arrival::FromSwitch(_))
                && (decisions.iter().enumerate())
                    .any(|(k, o)| o.sw == d.sw && key(k, o) != key(i, &d) && fabric(o));
        }
    }

    /// Both decompositions of `decisions` on a fabric of `switches`,
    /// which must agree; the shipped one's scratch must end all zero.
    fn split_both(switches: usize, decisions: &[Decision]) -> Vec<Segment> {
        let mut scratch = Scratch {
            head: vec![0; switches],
            ..Scratch::default()
        };
        let linear = scratch.split_segments(decisions);
        assert_eq!(linear, split_segments_quadratic(decisions));
        assert!(scratch.head.iter().all(|&h| h == 0), "index left dirty");
        linear
    }

    fn installer(topo: &Topology) -> PathInstaller {
        PathInstaller::new(
            topo,
            AddressingScheme::default_scheme(),
            TagPolicy::default(),
        )
    }

    fn route(topo: &Topology, bs: u32, kinds: &[MiddleboxKind]) -> PolicyPath {
        let mut sp = ShortestPaths::new(topo);
        let mbs: Vec<MiddleboxId> = kinds.iter().map(|k| topo.instances_of(*k)[0]).collect();
        sp.route_policy_path(BaseStationId(bs), &mbs, topo.default_gateway().switch)
            .unwrap()
    }

    #[test]
    fn first_path_lays_type2_defaults() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let path = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let rep = ins.install_path(&path, Direction::Downlink).unwrap();
        assert_eq!(rep.segment_tags.len(), 1);
        assert_eq!(rep.swap_rules, 0);
        assert_eq!(rep.new_rules, 4, "gateway + firewall host (2 legs) + agg");
        // Type 2 defaults up to the firewall, the location stage after
        // it: occupancy check
        let shadows = ins.shadows(Direction::Downlink);
        let (mut t1, mut t2, mut t3) = (0, 0, 0);
        for sw in 0..topo.switch_count() {
            let (p1, p2, p3) = shadows.switch(SwitchId(sw as u32)).occupancy();
            (t1, t2, t3) = (t1 + p1, t2 + p2, t3 + p3);
        }
        assert_eq!(t1, 0, "single path needs no Type 1 overrides");
        assert_eq!(
            (t2, t3),
            (3, 1),
            "the aggregation switch's last leg is Type 3"
        );
    }

    #[test]
    fn same_chain_other_station_reuses_tag_cheaply() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let p0 = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let p1 = route(&topo, 1, &[MiddleboxKind::Firewall]);
        let r0 = ins.install_path(&p0, Direction::Downlink).unwrap();
        let r1 = ins.install_path(&p1, Direction::Downlink).unwrap();
        assert_eq!(r0.entry_tag(), r1.entry_tag(), "chain index shares the tag");
        assert!(
            r1.new_rules < r0.new_rules,
            "second station rides the shared suffix: {} vs {}",
            r1.new_rules,
            r0.new_rules
        );
    }

    #[test]
    fn divergent_paths_from_same_station_use_distinct_tags() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let pa = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let pb = route(&topo, 0, &[MiddleboxKind::Transcoder]);
        let ra = ins.install_path(&pa, Direction::Downlink).unwrap();
        let rb = ins.install_path(&pb, Direction::Downlink).unwrap();
        assert_ne!(
            ra.entry_tag(),
            rb.entry_tag(),
            "same-origin divergent paths must be distinguishable"
        );
    }

    #[test]
    fn install_is_idempotent_in_rules() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let path = route(&topo, 0, &[MiddleboxKind::Firewall]);
        ins.install_path(&path, Direction::Downlink).unwrap();
        let before: usize = ins.shadows(Direction::Downlink).rule_counts().iter().sum();
        let rep = ins.install_path(&path, Direction::Downlink).unwrap();
        let after: usize = ins.shadows(Direction::Downlink).rule_counts().iter().sum();
        assert_eq!(rep.new_rules, 0, "re-install finds everything in place");
        assert_eq!(before, after);
    }

    #[test]
    fn uplink_and_downlink_coexist() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let path = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let [up, down] = ins.install_round_trip(&path).unwrap();
        assert_eq!(down.entry_tag(), up.exit_tag());
        let deltas = |dir| ins.last_deltas(dir).len();
        assert_eq!(deltas(Direction::Uplink) as isize, up.new_rules);
        assert_eq!(deltas(Direction::Downlink) as isize, down.new_rules);
    }

    #[test]
    fn chained_same_switch_middleboxes() {
        // firewall then transcoder: hosted on c1 and c2 in the small
        // topology — route through both and verify decisions resolve.
        let topo = small_topology();
        let mut ins = installer(&topo);
        let path = route(
            &topo,
            2,
            &[MiddleboxKind::Firewall, MiddleboxKind::Transcoder],
        );
        let rep = ins.install_path(&path, Direction::Downlink).unwrap();
        assert!(rep.new_rules > 0);
    }

    #[test]
    fn decision_list_uplink_shape() {
        let topo = small_topology();
        let path = route(&topo, 0, &[MiddleboxKind::Firewall]);
        // acc5 -> agg3 -> c1(fw) -> gw0  (firewall on c1)
        let d = build_decisions(&path, Direction::Uplink);
        // first fabric decision at agg3 (access hop handled by microflow)
        assert_eq!(d[0].sw, path.hops[1].switch);
        // exit decision at the gateway
        assert_eq!(d.last().unwrap().want, Want::Exit);
        // middlebox round-trip appears as ToMb + FromMb-arrival pair
        assert!(d.iter().any(|x| matches!(x.want, Want::ToMb(_))));
        assert!(d.iter().any(|x| matches!(x.arrival, Arrival::FromMb(_))));
    }

    #[test]
    fn decision_list_downlink_shape() {
        let topo = small_topology();
        let path = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let d = build_decisions(&path, Direction::Downlink);
        // first decision at the gateway, arriving from the Internet
        assert_eq!(d[0].sw, path.gateway_switch());
        assert_eq!(d[0].arrival, Arrival::External);
        // no Exit want on the downlink (delivery is the microflow's job)
        assert!(d.iter().all(|x| x.want != Want::Exit));
        // last decision forwards to the access switch
        assert_eq!(d.last().unwrap().want, Want::ToSwitch(path.access_switch()));
    }

    #[test]
    fn split_detects_same_link_loop() {
        // Synthetic decision list revisiting (sw7, from sw3) with two
        // different wants → must split into two segments.
        let d = |sw: u32, from: u32, to: u32| Decision {
            sw: SwitchId(sw),
            arrival: Arrival::FromSwitch(SwitchId(from)),
            want: Want::ToSwitch(SwitchId(to)),
            qualified: false,
            last_leg: false,
        };
        let decisions = vec![
            d(7, 3, 8), // junction, first pass: to 8
            d(8, 7, 7), // loop body
            d(7, 3, 9), // junction, same arrival, now to 9 → conflict
            d(9, 7, 1),
        ];
        let segs = split_both(10, &decisions);
        assert_eq!(segs.len(), 2, "same-link loop splits the path");
        // the swap lands as late as possible: on the loop-body decision
        // just before the conflicting re-entry
        assert_eq!(segs[0].decisions.last().unwrap().sw, SwitchId(8));
        // the conflicting re-entry opens segment 2
        assert_eq!(segs[1].decisions[0].sw, SwitchId(7));
        assert_eq!(segs[1].decisions[0].want, Want::ToSwitch(SwitchId(9)));
    }

    #[test]
    fn split_swap_avoids_shared_decisions() {
        // the decision right before the re-entry is shared by both
        // passes (deduped); the swap must land on an earlier, unique one
        let d = |sw: u32, from: u32, to: u32| Decision {
            sw: SwitchId(sw),
            arrival: Arrival::FromSwitch(SwitchId(from)),
            want: Want::ToSwitch(SwitchId(to)),
            qualified: false,
            last_leg: false,
        };
        let decisions = vec![
            d(5, 1, 7), // unique: feeds the junction
            d(7, 5, 8), // junction, first pass
            d(8, 7, 5), // back towards 5 via sw8
            d(5, 8, 7), // re-feed (unique: different arrival)
            d(7, 5, 9), // junction, same arrival (from 5), conflict
        ];
        let segs = split_both(10, &decisions);
        assert_eq!(segs.len(), 2);
        // swap on d(5,8,7) — the last unique decision before re-entry
        let last = segs[0].decisions.last().unwrap();
        assert_eq!(last.sw, SwitchId(5));
        assert_eq!(last.arrival, Arrival::FromSwitch(SwitchId(8)));
    }

    #[test]
    fn split_uses_ports_for_different_link_loops() {
        let decisions = vec![
            Decision {
                sw: SwitchId(7),
                arrival: Arrival::FromSwitch(SwitchId(3)),
                want: Want::ToSwitch(SwitchId(8)),
                qualified: false,
                last_leg: false,
            },
            Decision {
                sw: SwitchId(8),
                arrival: Arrival::FromSwitch(SwitchId(7)),
                want: Want::ToSwitch(SwitchId(7)),
                qualified: false,
                last_leg: false,
            },
            Decision {
                sw: SwitchId(7),
                arrival: Arrival::FromSwitch(SwitchId(8)),
                want: Want::ToSwitch(SwitchId(9)),
                qualified: false,
                last_leg: false,
            },
        ];
        let segs = split_both(10, &decisions);
        assert_eq!(segs.len(), 1, "different links need no tag swap");
        assert_eq!(
            segs[0]
                .decisions
                .iter()
                .map(|d| d.qualified)
                .collect::<Vec<_>>(),
            [true, false, true],
            "both visits to sw7 become port-qualified"
        );
    }

    #[test]
    fn tag_exhaustion_is_a_clean_error() {
        // a 1-tag space with divergent same-station paths: the second
        // path cannot share (claimed, different chain) and cannot
        // allocate — it must fail with Exhausted, not corrupt state
        let topo = small_topology();
        let mut ins = PathInstaller::new(
            &topo,
            AddressingScheme::default_scheme(),
            TagPolicy { capacity: 1 },
        );
        let pa = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let pb = route(&topo, 0, &[MiddleboxKind::Transcoder]);
        ins.install_path(&pa, Direction::Downlink).unwrap();
        let err = ins.install_path(&pb, Direction::Downlink).unwrap_err();
        assert!(matches!(err, softcell_types::Error::Exhausted(_)), "{err}");
        // the first path's state is intact
        let total: usize = ins.shadows(Direction::Downlink).rule_counts().iter().sum();
        assert!(total > 0);
    }

    #[test]
    fn same_clause_reinstall_after_failure_still_works() {
        let topo = small_topology();
        let mut ins = PathInstaller::new(
            &topo,
            AddressingScheme::default_scheme(),
            TagPolicy { capacity: 1 },
        );
        let pa = route(&topo, 0, &[MiddleboxKind::Firewall]);
        let pb = route(&topo, 0, &[MiddleboxKind::Transcoder]);
        ins.install_path(&pa, Direction::Downlink).unwrap();
        let _ = ins.install_path(&pb, Direction::Downlink).unwrap_err();
        // the surviving tag still serves its own path idempotently
        let rep = ins.install_path(&pa, Direction::Downlink).unwrap();
        assert_eq!(rep.new_rules, 0);
    }

    #[test]
    fn rule_counts_stay_small_across_many_stations() {
        // All four stations install the same two chains; the per-switch
        // table must stay far below the path count.
        let topo = small_topology();
        let mut ins = installer(&topo);
        let chains: [&[MiddleboxKind]; 2] = [
            &[MiddleboxKind::Firewall],
            &[MiddleboxKind::Firewall, MiddleboxKind::Transcoder],
        ];
        for bs in 0..4 {
            for chain in chains {
                let path = route(&topo, bs, chain);
                ins.install_path(&path, Direction::Downlink).unwrap();
            }
        }
        let max = ins
            .shadows(Direction::Downlink)
            .rule_counts()
            .into_iter()
            .max()
            .unwrap();
        assert!(
            max <= 8,
            "8 paths should aggregate to <= 8 rules per switch, got {max}"
        );
    }

    fn route_ids(topo: &Topology, bs: u32, mbs: &[MiddleboxId]) -> Result<PolicyPath> {
        ShortestPaths::new(topo).route_policy_path(
            BaseStationId(bs),
            mbs,
            topo.default_gateway().switch,
        )
    }

    /// Every ordered pair of the first four middleboxes: twelve
    /// two-middlebox chains.
    fn mb_pairs() -> impl Iterator<Item = [MiddleboxId; 2]> {
        (0..4u32).flat_map(|a| {
            (0..4u32)
                .filter(move |&b| b != a)
                .map(move |b| [MiddleboxId(a), MiddleboxId(b)])
        })
    }

    #[test]
    fn sum_of_new_rules_equals_rules_in_tables() {
        // six two-middlebox chains from every station: plenty of sibling
        // merges, whose removals `install` emits before the add
        let topo = CellularParams::paper(2).build().unwrap();
        let mut ins = installer(&topo);
        let mut reported = 0isize;
        for mbs in mb_pairs().filter(|[a, b]| a < b) {
            for bs in 0..topo.base_stations().len() as u32 {
                let path = route_ids(&topo, bs, &mbs).unwrap();
                reported += ins
                    .install_path(&path, Direction::Downlink)
                    .unwrap()
                    .new_rules;
            }
        }
        let installed: usize = ins.shadows(Direction::Downlink).rule_counts().iter().sum();
        assert_eq!(reported, installed as isize);
    }

    #[test]
    fn bounds_cut_tag_selection_probes() {
        // same installs, bounded and exhaustive: identical state, a
        // fraction of the decisions costed
        let topo = CellularParams::paper(2).build().unwrap();
        let run = || {
            let mut ins = installer(&topo);
            PROBES.with(|p| p.set(0));
            for mbs in mb_pairs() {
                for bs in 0..topo.base_stations().len() as u32 {
                    let path = route_ids(&topo, bs, &mbs).unwrap();
                    ins.install_path(&path, Direction::Downlink).unwrap();
                }
            }
            (PROBES.with(|p| p.get()), fingerprint(&ins))
        };
        let (bounded, state) = run();
        let (exhaustive, reference) = exhaustively(run);
        assert_eq!(state, reference);
        assert!(
            bounded * 2 < exhaustive,
            "bounded planner costed {bounded} decisions, exhaustive {exhaustive}"
        );
    }

    #[test]
    fn commit_probes_only_stale_and_fresh_decisions() {
        // twelve two-middlebox chains from every station, committed from
        // the plans' records and by re-probing every decision
        let topo = CellularParams::paper(2).build().unwrap();
        let run = |reprobing: bool| {
            let mut ins = installer(&topo);
            let mut seen: FxHashSet<PolicyTag> = FxHashSet::default();
            let (mut decisions, mut fresh, mut stale) = (0, 0, 0);
            COMMIT_PROBES.with(|p| p.set(0));
            for mbs in mb_pairs() {
                for bs in 0..topo.base_stations().len() as u32 {
                    let path = route_ids(&topo, bs, &mbs).unwrap();
                    let mut install = || ins.install_path(&path, Direction::Downlink).unwrap();
                    let report = match reprobing {
                        true => with_mode(&REPROBING, install),
                        false => install(),
                    };
                    let built = build_decisions(&path, Direction::Downlink);
                    let segments = split_segments_quadratic(&built);
                    for (seg, tag) in segments.iter().zip(&report.segment_tags) {
                        decisions += seg.decisions.len();
                        if seen.insert(*tag) {
                            fresh += seg.decisions.len();
                        } else {
                            stale += stale_bound(&seg.decisions);
                        }
                    }
                }
            }
            let probes = COMMIT_PROBES.with(|p| p.get());
            (probes, decisions, fresh, stale, fingerprint(&ins))
        };
        let (probes, decisions, fresh, stale, state) = run(false);
        let (every, _, _, _, reference) = run(true);
        assert_eq!(state, reference);
        assert_eq!(every, decisions, "the reference probes every decision");
        // no segment here re-enters a switch whose unqualified table it
        // may have written, so none of its decisions can go stale
        assert_eq!(stale, 0);
        assert_eq!(probes, stale + fresh, "of {decisions} decisions");
    }

    /// Decisions of a reused tag's segment that may go stale: those that
    /// read their switch's unqualified table after an earlier decision
    /// of the segment on that switch that may write it (an upper bound on
    /// the ones that do, exact at 0).
    fn stale_bound(seg: &[Decision]) -> usize {
        let reads = |d: &Decision| !matches!(d.arrival, Arrival::FromMb(_));
        let may_write = |d: &Decision| reads(d) && !d.qualified;
        let stale = |(j, d): (usize, &Decision)| {
            reads(d) && seg[..j].iter().any(|e| e.sw == d.sw && may_write(e))
        };
        seg.iter().enumerate().filter(|&x| stale(x)).count()
    }

    /// A canonical rendering of one installer's complete Algorithm-1
    /// state: both directions' tables including tag order, the tag
    /// pool, the chain index and the claims. FxHashMap iteration order
    /// is a deterministic function of insertion history, so equal
    /// strings mean the two installers are byte-equivalent for every
    /// future planning decision.
    fn fingerprint(ins: &PathInstaller) -> String {
        let chains: std::collections::BTreeMap<_, _> = (ins.chain_index.iter())
            .map(|((dir, key), tags)| ((*dir == Direction::Uplink, key), tags))
            .collect();
        let claims: std::collections::BTreeMap<_, std::collections::BTreeSet<_>> =
            (ins.claimed.iter())
                .map(|(bs, tags)| (bs, tags.iter().collect()))
                .collect();
        format!(
            "up={:?} down={:?} pool={:?} chains={chains:?} claims={claims:?}",
            ins.shadows(Direction::Uplink),
            ins.shadows(Direction::Downlink),
            ins.tags,
        )
    }

    /// Random middlebox chains from random stations, installed in seeded
    /// random orders on `paper(2)` and `paper(4)`: each path draws its
    /// own instances (Figure 7's per-station choice), so the last
    /// middlebox's host, and with it where the last leg starts, differs
    /// from path to path. After every install, every path installed so
    /// far must still deliver through the downlink tables — the location
    /// stage's deferrals included, which a later path of the same tag
    /// must not capture.
    #[test]
    fn every_earlier_path_still_delivers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (k, installs, seeds) in [(2, 80, 0..8), (4, 150, 8..11)] {
            let topo = CellularParams::paper(k).build().unwrap();
            let (stations, mbs) = (topo.base_stations().len() as u32, topo.middlebox_count());
            let gw = topo.default_gateway().switch;
            let scheme = AddressingScheme::default_scheme();
            let (mut stages, mut located) = (0, 0);
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ins = installer(&topo);
                // (station, entry tag, the chain as the downlink meets it)
                let mut live: Vec<(BaseStationId, PolicyTag, Vec<MiddleboxId>)> = Vec::new();
                for n in 0..installs {
                    let bs = BaseStationId(rng.gen_range(0..stations));
                    let mut chain: Vec<MiddleboxId> = Vec::new();
                    while chain.len() < rng.gen_range(1..5) {
                        let mb = MiddleboxId(rng.gen_range(0..mbs) as u32);
                        if !chain.contains(&mb) {
                            chain.push(mb);
                        }
                    }
                    let path = route_ids(&topo, bs.0, &chain).unwrap();
                    let report = ins.install_path(&path, Direction::Downlink).unwrap();
                    let deltas = ins.last_deltas(Direction::Downlink);
                    located += (deltas.iter())
                        .filter(|(_, d)| matches!(d, ShadowDelta::AddLocation { .. }))
                        .count();
                    chain.reverse();
                    live.push((bs, report.entry_tag(), chain));
                    let tables = ins.shadows(Direction::Downlink);
                    for (i, (bs, tag, chain)) in live.iter().enumerate() {
                        let prefix = scheme.base_station_prefix(*bs).unwrap();
                        let access = topo.base_station(*bs).access_switch;
                        assert!(
                            tables.delivers(gw, *tag, prefix, access, chain),
                            "paper({k}), seed {seed}: path {i} ({bs}, tag {tag}) broke at install {n}"
                        );
                    }
                }
                stages += (0..topo.switch_count())
                    .map(|sw| ins.shadows(Direction::Downlink).switch(SwitchId(sw as u32)))
                    .filter(|sw| sw.occupancy().2 > 0)
                    .count();
            }
            assert!(located > 0 && stages > 0, "paper({k}): no path deferred");
        }
    }

    #[test]
    fn raw_tag_release_is_guarded() {
        let topo = small_topology();
        let mut ins = installer(&topo);
        let t = ins.allocate_raw_tag().unwrap();
        ins.release_raw_tag(t);
        assert_eq!(ins.tags_in_use(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unbalanced raw release")]
    fn raw_tag_double_release_panics_in_debug() {
        // Release builds saturate instead (pool untouched) and bump
        // TAG_RELEASE_UNDERFLOW — `IdPool`'s model test covers the
        // refusal.
        let topo = small_topology();
        let mut ins = installer(&topo);
        let t = ins.allocate_raw_tag().unwrap();
        ins.release_raw_tag(t);
        ins.release_raw_tag(t);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random (station, chain, round trip or downlink) install
        /// requests; station ids stay in the small topology's 0..4 range.
        fn arb_requests() -> impl Strategy<Value = Vec<(u32, u8, bool)>> {
            proptest::collection::vec((0u32..4, 0u8..4, any::<bool>()), 1..24)
        }

        /// (station, middlebox chain, 0 = downlink / 1 = uplink / 2 =
        /// round trip); ids wrap to the topology's.
        fn arb_chain_requests() -> impl Strategy<Value = Vec<(u32, Vec<u8>, u8)>> {
            let chain = proptest::collection::vec(0u8..16, 1..6);
            proptest::collection::vec((0u32..20, chain, 0u8..3), 1..40)
        }

        /// Runs `requests` on two installers, the second with `mode` set,
        /// and requires the same reports (or refusals), the same delta
        /// streams and the same final state — on chains long enough to
        /// loop and swap tags, in either direction and as round trips,
        /// in a tag space small enough to exhaust.
        fn twins_agree(
            requests: Vec<(u32, Vec<u8>, u8)>,
            capacity: u16,
            paper: bool,
            mode: &'static std::thread::LocalKey<Cell<bool>>,
        ) -> std::result::Result<(), TestCaseError> {
            let topo = if paper {
                CellularParams::paper(2).build().expect("paper(2)")
            } else {
                small_topology()
            };
            let tight = TagPolicy { capacity };
            let scheme = AddressingScheme::default_scheme();
            let mut shipped = PathInstaller::new(&topo, scheme, tight);
            let mut twin = PathInstaller::new(&topo, scheme, tight);
            let stations = topo.base_stations().len() as u32;
            let mbs = topo.middlebox_count() as u32;
            for (bs, chain, dirs) in requests {
                let chain: Vec<MiddleboxId> =
                    chain.iter().map(|&m| MiddleboxId(m as u32 % mbs)).collect();
                let Ok(path) = route_ids(&topo, bs % stations, &chain) else {
                    continue;
                };
                let install = |ins: &mut PathInstaller| match dirs {
                    0 => ins
                        .install_path(&path, Direction::Downlink)
                        .map(|r| vec![r]),
                    1 => ins.install_path(&path, Direction::Uplink).map(|r| vec![r]),
                    _ => ins.install_round_trip(&path).map(Vec::from),
                };
                let s = install(&mut shipped).map_err(|e| e.to_string());
                let t = with_mode(mode, || install(&mut twin)).map_err(|e| e.to_string());
                prop_assert_eq!(s, t);
                for dir in [Direction::Uplink, Direction::Downlink] {
                    prop_assert_eq!(shipped.last_deltas(dir), twin.last_deltas(dir));
                }
            }
            prop_assert_eq!(fingerprint(&shipped), fingerprint(&twin));
            Ok(())
        }

        /// Decision lists on six switches drawn from five arrivals and
        /// five next hops, so that `(switch, arrival)` pairs repeat.
        fn arb_decisions() -> impl Strategy<Value = Vec<(u32, u8, u8)>> {
            proptest::collection::vec((0u32..6, 0u8..5, 0u8..5), 1..30)
        }

        fn decision((sw, arrival, want): (u32, u8, u8)) -> Decision {
            let arrival = match arrival {
                0 => Arrival::External,
                1 => Arrival::FromMb(MiddleboxId(0)),
                a => Arrival::FromSwitch(SwitchId(u32::from(a - 2))),
            };
            let want = match want {
                0 => Want::Exit,
                1 => Want::ToMb(MiddleboxId(0)),
                w => Want::ToSwitch(SwitchId(u32::from(w - 2))),
            };
            Decision {
                sw: SwitchId(sw),
                arrival,
                want,
                qualified: false,
                last_leg: false,
            }
        }

        fn chain_of(k: u8) -> &'static [MiddleboxKind] {
            match k {
                0 => &[MiddleboxKind::Firewall],
                1 => &[MiddleboxKind::Transcoder],
                2 => &[MiddleboxKind::Firewall, MiddleboxKind::Transcoder],
                // loops back over one link: two uplink tags, a third
                // on the downlink from station 0
                _ => &[
                    MiddleboxKind::Firewall,
                    MiddleboxKind::Transcoder,
                    MiddleboxKind::EchoCanceller,
                ],
            }
        }

        proptest! {
            /// Failed installs are fully transactional: state after a
            /// mixed success/failure sequence is byte-identical to a
            /// from-scratch replay of only the successful installs —
            /// planning buffers everything, a round trip's two
            /// directions included, so an abort leaks neither tags nor
            /// chain-index entries nor claims nor partial rules.
            #[test]
            fn failed_installs_leave_no_trace(requests in arb_requests()) {
                let topo = small_topology();
                // a tiny tag space makes exhaustion failures common
                let tight = TagPolicy { capacity: 3 };
                let install = |ins: &mut PathInstaller, path: &PolicyPath, round_trip| {
                    match round_trip {
                        true => ins.install_round_trip(path).map(drop),
                        false => ins.install_path(path, Direction::Downlink).map(drop),
                    }
                };
                let mut live = PathInstaller::new(
                    &topo, AddressingScheme::default_scheme(), tight);
                let mut succeeded: Vec<(PolicyPath, bool)> = Vec::new();
                for (bs, kind, round_trip) in requests {
                    let path = route(&topo, bs, chain_of(kind));
                    if install(&mut live, &path, round_trip).is_ok() {
                        succeeded.push((path, round_trip));
                    }
                }
                let mut scratch = PathInstaller::new(
                    &topo, AddressingScheme::default_scheme(), tight);
                for (path, round_trip) in &succeeded {
                    install(&mut scratch, path, *round_trip).expect("replay of a success");
                }
                prop_assert_eq!(fingerprint(&live), fingerprint(&scratch));
            }

            /// The branch-and-bound picks what the exhaustive argmin
            /// picks.
            #[test]
            fn bounded_argmin_matches_exhaustive(
                requests in arb_chain_requests(), capacity in 2u16..14, paper in any::<bool>(),
            ) {
                twins_agree(requests, capacity, paper, &EXHAUSTIVE)?;
            }

            /// The commit that writes its plan's slots writes what
            /// probing every decision again writes: the staleness rule
            /// catches every decision an earlier write of the segment
            /// reaches.
            #[test]
            fn recorded_commit_matches_reprobing(
                requests in arb_chain_requests(), capacity in 2u16..14, paper in any::<bool>(),
            ) {
                twins_agree(requests, capacity, paper, &REPROBING)?;
            }

            /// The linear decomposition cuts the segments, and marks the
            /// qualified decisions, the quadratic one does — on lists
            /// whose `(switch, arrival)` pairs repeat with the same next
            /// hop and with another.
            #[test]
            fn linear_split_matches_quadratic(raw in arb_decisions()) {
                let decisions: Vec<Decision> = raw.into_iter().map(decision).collect();
                let mut scratch = Scratch {
                    head: vec![0; 6],
                    ..Scratch::default()
                };
                let linear = scratch.split_segments(&decisions);
                prop_assert_eq!(&linear, &split_segments_quadratic(&decisions));
                prop_assert!(scratch.head.iter().all(|&h| h == 0), "index left dirty");
                prop_assert_eq!(scratch.split_segments(&decisions), linear);
            }
        }
    }
}
