//! Rule operations: the controller's output towards physical switches.
//!
//! Algorithm 1 computes on the shadow tables; every shadow delta is
//! lowered to a [`RuleOp`] — a concrete install/remove of a prioritized
//! match/action rule on one switch — which the end-to-end simulator
//! applies to real [`softcell_dataplane`] switches. The rule-counting
//! experiments lower nothing: the shadow itself carries the counts.
//!
//! Ops for different switches never depend on each other, so a stream
//! may be regrouped per switch as long as each switch's ops keep their
//! order. `SwitchGrouper` is the one routine that does it: it appends
//! a stream to a flat log, switch by switch. [`batch_by_switch`] cuts a
//! whole drain into owned [`SwitchBatch`]es with it, and the trace
//! driver groups every event's ops into its run's log with it.

use softcell_dataplane::matcher::{conventional_priority, Direction};
use softcell_dataplane::{Action, Match, PortField};
use softcell_topology::Topology;
use softcell_types::{Error, PolicyTag, PortEmbedding, PortNo, Result, SwitchId};

use crate::shadow::{Entry, NextHop, ShadowDelta};

/// One concrete data-plane operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RuleOp {
    /// Install a rule.
    Install {
        /// Target switch.
        switch: SwitchId,
        /// Rule priority.
        priority: u16,
        /// Match.
        matcher: Match,
        /// Action.
        action: Action,
    },
    /// Remove the rule with this exact matcher.
    Remove {
        /// Target switch.
        switch: SwitchId,
        /// Matcher of the rule to remove.
        matcher: Match,
    },
}

impl RuleOp {
    /// The switch this operation targets.
    pub fn switch(&self) -> SwitchId {
        match self {
            RuleOp::Install { switch, .. } | RuleOp::Remove { switch, .. } => *switch,
        }
    }

    /// The removal of the rule this op names: its matcher on its switch.
    pub fn removal(&self) -> RuleOp {
        match *self {
            RuleOp::Install {
                switch, matcher, ..
            }
            | RuleOp::Remove { switch, matcher } => RuleOp::Remove { switch, matcher },
        }
    }
}

/// A barrier-delimited batch of operations for one switch.
///
/// The `flow_mod_batch` wire message groups a drained op stream per
/// target switch (the trace driver's borrowed views of its run's log
/// follow the same rules). Within one batch the ops keep
/// their original relative order (the per-switch ordering invariant of
/// [`crate::core::CentralController::drain_ops`]), and every batch ends
/// with a barrier: a switch must fully apply the batch before touching
/// any op of a later batch. Because ops for *different*
/// switches are never order-dependent (each op names exactly one
/// switch, and switch state is disjoint), per-switch batches with
/// barriers are sufficient for consistency — no cross-switch fence is
/// needed.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchBatch {
    /// The target switch.
    pub switch: SwitchId,
    /// The ops, in drain order.
    pub ops: Vec<RuleOp>,
}

/// The one grouping routine: appends an op stream to a flat log with
/// each switch's ops together, in stream order, the switches in order
/// of first appearance. [`batch_by_switch`] groups a whole drain with
/// it; the trace driver groups each event's ops into its run's log. Kept between streams, so its scratch is allocated once.
#[derive(Debug, Default)]
pub(crate) struct SwitchGrouper {
    /// The stream's switches, first appearance first, each with its
    /// first and (so far) last op.
    groups: Vec<(SwitchId, usize, usize)>,
    /// Per op, the next op of the same switch ([`CHAIN_END`] if none).
    next: Vec<usize>,
    /// switch -> group, built only once a stream touches more than
    /// [`SCANNED_GROUPS`] switches (one event's ops touch a handful; a
    /// whole run's drain touches hundreds, where the scan was visible)
    index: softcell_types::FxHashMap<SwitchId, usize>,
}

/// Up to this many groups, a switch's group is found by scanning them.
const SCANNED_GROUPS: usize = 8;

const CHAIN_END: usize = usize::MAX;

impl SwitchGrouper {
    /// Appends `ops` to `log` grouped per switch and hands each group's
    /// switch and range in `log` to `group`, first appearance first.
    pub(crate) fn group(
        &mut self,
        ops: &[RuleOp],
        log: &mut Vec<RuleOp>,
        mut group: impl FnMut(SwitchId, std::ops::Range<usize>),
    ) {
        self.groups.clear();
        self.next.clear();
        self.index.clear();
        for (i, op) in ops.iter().enumerate() {
            self.next.push(CHAIN_END);
            let sw = op.switch();
            match self.find(sw) {
                Some(g) => {
                    let last = std::mem::replace(&mut self.groups[g].2, i);
                    self.next[last] = i;
                }
                None => {
                    if !self.index.is_empty() {
                        self.index.insert(sw, self.groups.len());
                    }
                    self.groups.push((sw, i, i));
                }
            }
        }
        log.reserve(ops.len());
        for &(sw, first, _) in &self.groups {
            let start = log.len();
            let mut i = first;
            while i != CHAIN_END {
                log.push(ops[i]);
                i = self.next[i];
            }
            group(sw, start..log.len());
        }
    }

    fn find(&mut self, sw: SwitchId) -> Option<usize> {
        if self.groups.len() <= SCANNED_GROUPS {
            return self.groups.iter().position(|g| g.0 == sw);
        }
        if self.index.is_empty() {
            let groups = self.groups.iter().enumerate();
            self.index.extend(groups.map(|(g, &(s, ..))| (s, g)));
        }
        self.index.get(&sw).copied()
    }
}

/// Groups a drained op stream into per-switch batches, preserving each
/// switch's relative op order. Batch order follows each switch's first
/// appearance in the stream, so replaying batches in sequence applies
/// every per-switch subsequence exactly as drained.
pub fn batch_by_switch(ops: Vec<RuleOp>) -> Vec<SwitchBatch> {
    let (mut log, mut groups) = (Vec::new(), Vec::new());
    SwitchGrouper::default().group(&ops, &mut log, |switch, range| groups.push((switch, range)));
    let batch = |(switch, range): (SwitchId, std::ops::Range<usize>)| SwitchBatch {
        switch,
        ops: log[range].to_vec(),
    };
    groups.into_iter().map(batch).collect()
}

/// Lowers one shadow delta to a concrete rule operation.
///
/// The shadow speaks in logical terms (entries, tags, next hops); the
/// physical rule needs ports and masked port matches. `dir` selects which
/// header fields carry the tag and prefix (source on the uplink,
/// destination on the downlink — paper §4.1).
pub fn lower_delta(
    topo: &Topology,
    ports: &PortEmbedding,
    carrier: softcell_types::Ipv4Prefix,
    dir: Direction,
    sw: SwitchId,
    delta: &ShadowDelta,
) -> Result<RuleOp> {
    let m_dir = dir;
    let entry_port = |entry: &Entry| -> Result<Option<PortNo>> {
        match entry {
            Entry::Ingress => Ok(None),
            Entry::FromMb(mb) => Ok(Some(topo.middlebox(*mb).port)),
            Entry::FromSwitch(prev) => topo
                .port_towards(sw, *prev)
                .map(Some)
                .ok_or_else(|| Error::NotFound(format!("{sw} has no link to {prev}"))),
        }
    };
    let build_match = |entry: &Entry, tag: PolicyTag, prefix| -> Result<Match> {
        // Tag-only rules carry the carrier prefix as a guard: the tag
        // bits live in a transport port, and a remote server's port
        // (e.g. 443) can alias a tag value. Requiring the
        // direction-side address to be a LocIP disambiguates — only
        // SoftCell-embedded packets have one (paper §4.1).
        let mut m = match prefix {
            Some(p) => Match::tag_and_prefix(m_dir, tag, p, ports),
            None => Match::tag_and_prefix(m_dir, tag, carrier, ports),
        };
        if let Some(p) = entry_port(entry)? {
            m = m.from_port(p);
        }
        Ok(m)
    };
    let action = |nh: &NextHop| -> Result<Action> {
        let towards = |next: SwitchId| -> Result<PortNo> {
            topo.port_towards(sw, next)
                .ok_or_else(|| Error::NotFound(format!("{sw} has no link to {next}")))
        };
        Ok(match nh {
            NextHop::Switch(next) => Action::Forward(towards(*next)?),
            NextHop::Middlebox(mb) => Action::Forward(topo.middlebox(*mb).port),
            NextHop::Uplink => {
                let gw = topo
                    .gateways()
                    .iter()
                    .find(|g| g.switch == sw)
                    .ok_or_else(|| Error::NotFound(format!("{sw} is not a gateway")))?;
                Action::Forward(gw.port)
            }
            NextHop::SwapTag(to, next) => {
                let (value, mask) = ports.tag_match(*to);
                Action::RewritePortBitsForward {
                    field: tag_field(dir),
                    value,
                    mask,
                    out: towards(*next)?,
                }
            }
            NextHop::SwapTagMb(to, mb) => {
                let (value, mask) = ports.tag_match(*to);
                Action::RewritePortBitsForward {
                    field: tag_field(dir),
                    value,
                    mask,
                    out: topo.middlebox(*mb).port,
                }
            }
        })
    };

    match delta {
        ShadowDelta::SetDefault { entry, tag, nh } => {
            let matcher = build_match(entry, *tag, None)?;
            Ok(RuleOp::Install {
                switch: sw,
                priority: conventional_priority(&matcher),
                matcher,
                action: action(nh)?,
            })
        }
        ShadowDelta::AddPrefix {
            entry,
            tag,
            prefix,
            nh,
        } => {
            let matcher = build_match(entry, *tag, Some(*prefix))?;
            Ok(RuleOp::Install {
                switch: sw,
                priority: conventional_priority(&matcher),
                matcher,
                action: action(nh)?,
            })
        }
        ShadowDelta::RemovePrefix { entry, tag, prefix } => Ok(RuleOp::Remove {
            switch: sw,
            matcher: build_match(entry, *tag, Some(*prefix))?,
        }),
        // Type 3: the block alone, below every tag rule
        ShadowDelta::AddLocation { block, next } => {
            let matcher = Match::prefix(m_dir, *block);
            Ok(RuleOp::Install {
                switch: sw,
                priority: conventional_priority(&matcher),
                matcher,
                action: action(&NextHop::Switch(*next))?,
            })
        }
        ShadowDelta::RemoveLocation { block } => Ok(RuleOp::Remove {
            switch: sw,
            matcher: Match::prefix(m_dir, *block),
        }),
    }
}

/// Which transport-port field carries the tag in a direction.
pub fn tag_field(dir: Direction) -> PortField {
    match dir {
        Direction::Uplink => PortField::Src,
        Direction::Downlink => PortField::Dst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_topology::small_topology;
    use softcell_types::Ipv4Prefix;

    #[test]
    fn lower_default_delta_to_tag_rule() {
        let topo = small_topology();
        let ports = PortEmbedding::default_embedding();
        // gw(sw0) forwards tag 3 downlink traffic to c1(sw1)
        let delta = ShadowDelta::SetDefault {
            entry: Entry::Ingress,
            tag: PolicyTag(3),
            nh: NextHop::Switch(SwitchId(1)),
        };
        let carrier: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let op = lower_delta(
            &topo,
            &ports,
            carrier,
            Direction::Downlink,
            SwitchId(0),
            &delta,
        )
        .unwrap();
        let RuleOp::Install {
            matcher, action, ..
        } = op
        else {
            panic!("expected install");
        };
        assert!(matcher.dst_port.is_some(), "downlink tag lives in dst port");
        assert_eq!(
            matcher.dst_prefix,
            Some(carrier),
            "tag-only rules carry the carrier guard"
        );
        assert_eq!(
            action.out_port(),
            topo.port_towards(SwitchId(0), SwitchId(1))
        );
    }

    #[test]
    fn lower_prefix_delta_with_mb_entry() {
        let topo = small_topology();
        let ports = PortEmbedding::default_embedding();
        let fw = topo.middleboxes()[0]; // firewall on c1 = sw1
        let prefix: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let delta = ShadowDelta::AddPrefix {
            entry: Entry::FromMb(fw.id),
            tag: PolicyTag(7),
            prefix,
            nh: NextHop::Switch(SwitchId(0)),
        };
        let carrier: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let op = lower_delta(
            &topo,
            &ports,
            carrier,
            Direction::Downlink,
            fw.switch,
            &delta,
        )
        .unwrap();
        let RuleOp::Install { matcher, .. } = op else {
            panic!("expected install");
        };
        assert_eq!(matcher.in_port, Some(fw.port));
        assert_eq!(matcher.dst_prefix, Some(prefix));
    }

    #[test]
    fn lower_swap_delta_to_port_rewrite() {
        let topo = small_topology();
        let ports = PortEmbedding::default_embedding();
        let delta = ShadowDelta::SetDefault {
            entry: Entry::Ingress,
            tag: PolicyTag(1),
            nh: NextHop::SwapTag(PolicyTag(2), SwitchId(1)),
        };
        let carrier: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let op = lower_delta(
            &topo,
            &ports,
            carrier,
            Direction::Uplink,
            SwitchId(0),
            &delta,
        )
        .unwrap();
        let RuleOp::Install { action, .. } = op else {
            panic!("expected install");
        };
        match action {
            Action::RewritePortBitsForward {
                field, value, mask, ..
            } => {
                assert_eq!(field, PortField::Src, "uplink tag lives in src port");
                assert_eq!((value, mask), ports.tag_match(PolicyTag(2)));
            }
            other => panic!("expected swap action, got {other}"),
        }
    }

    #[test]
    fn lower_uplink_exit_at_gateway() {
        let topo = small_topology();
        let ports = PortEmbedding::default_embedding();
        let delta = ShadowDelta::SetDefault {
            entry: Entry::Ingress,
            tag: PolicyTag(1),
            nh: NextHop::Uplink,
        };
        let carrier: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let op = lower_delta(
            &topo,
            &ports,
            carrier,
            Direction::Uplink,
            SwitchId(0),
            &delta,
        )
        .unwrap();
        let RuleOp::Install { action, .. } = op else {
            panic!()
        };
        assert_eq!(action.out_port(), Some(topo.default_gateway().port));
        // non-gateway switch cannot exit
        assert!(lower_delta(
            &topo,
            &ports,
            carrier,
            Direction::Uplink,
            SwitchId(1),
            &delta
        )
        .is_err());
    }

    #[test]
    fn batching_preserves_per_switch_order() {
        let rm = |sw: u32| RuleOp::Remove {
            switch: SwitchId(sw),
            matcher: Match::ANY,
        };
        let inst = |sw: u32, prio: u16| RuleOp::Install {
            switch: SwitchId(sw),
            priority: prio,
            matcher: Match::ANY,
            action: Action::Drop,
        };
        let ops = vec![inst(2, 1), inst(1, 1), rm(2), inst(2, 2), rm(1)];
        let batches = batch_by_switch(ops);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].switch, SwitchId(2), "first-appearance order");
        assert_eq!(batches[0].ops, vec![inst(2, 1), rm(2), inst(2, 2)]);
        assert_eq!(batches[1].ops, vec![inst(1, 1), rm(1)]);
    }

    /// `switches * 5` installs in which every switch appears, in a
    /// scrambled interleaving.
    fn scrambled(switches: u32) -> Vec<RuleOp> {
        let mut x = u64::from(switches);
        (0..switches * 5)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let sw = if i < switches {
                    i
                } else {
                    (x >> 33) as u32 % switches
                };
                RuleOp::Install {
                    switch: SwitchId(sw),
                    priority: i as u16,
                    matcher: Match::ANY,
                    action: Action::Drop,
                }
            })
            .collect()
    }

    #[test]
    fn a_reused_grouper_groups_each_stream_on_its_own() {
        // one log across many events, as a trace run keeps it: every
        // event's groups are the batches of that event alone, also
        // after a stream wide enough to build the index
        let rm = |sw: u32| RuleOp::Remove {
            switch: SwitchId(sw),
            matcher: Match::ANY,
        };
        let streams = vec![
            scrambled(3),
            vec![],
            scrambled(200),
            vec![rm(2), rm(7), rm(2)],
            scrambled(9),
            vec![rm(1)],
        ];
        let (mut grouper, mut log) = (SwitchGrouper::default(), Vec::new());
        for stream in &streams {
            let mut groups = Vec::new();
            let start = log.len();
            grouper.group(stream, &mut log, |switch, range| {
                groups.push((switch, range))
            });
            assert_eq!(log.len() - start, stream.len(), "every op logged once");
            let batches: Vec<SwitchBatch> = groups
                .into_iter()
                .map(|(switch, range)| SwitchBatch {
                    switch,
                    ops: log[range].to_vec(),
                })
                .collect();
            assert_eq!(batches, batch_by_switch(stream.clone()));
        }
    }

    #[test]
    fn grouping_matches_a_linear_scan_at_every_width() {
        // below, at and past the width where the grouper stops scanning
        // its groups and starts indexing them
        for switches in [1u32, 8, 9, 200] {
            let ops = scrambled(switches);
            let mut scanned: Vec<SwitchBatch> = Vec::new();
            for op in &ops {
                match scanned.iter_mut().find(|b| b.switch == op.switch()) {
                    Some(b) => b.ops.push(*op),
                    None => scanned.push(SwitchBatch {
                        switch: op.switch(),
                        ops: vec![*op],
                    }),
                }
            }
            assert_eq!(scanned.len(), switches as usize);
            assert_eq!(batch_by_switch(ops), scanned, "{switches} switches");
        }
    }
}
