//! Rule operations: the controller's output towards physical switches.
//!
//! Algorithm 1 computes on the shadow tables; every shadow delta is
//! lowered to a [`RuleOp`] — a concrete install/remove of a prioritized
//! match/action rule on one switch. A [`RuleSink`] receives the stream:
//! the end-to-end simulator applies it to real [`softcell_dataplane`]
//! switches, while the large-scale rule-counting experiments use
//! [`NullSink`] (the shadow itself carries the counts).

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
}

/// A barrier-delimited batch of operations for one switch.
///
/// The sharded controller and the `flow_mod_batch` wire message group a
/// drained op stream per target switch. Within one batch the ops keep
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

/// An order-preserving per-switch op journal: ops append into one lane
/// per switch, lanes ordered by first appearance. This is the canonical
/// incremental form of [`batch_by_switch`] — a journal fed one op at a
/// time produces exactly the batches a one-shot grouping of the full
/// stream would, so the sharded controller can journal each ticket's
/// ops outside the engine lock without perturbing the merged stream.
#[derive(Debug, Default)]
pub struct OpJournal {
    lanes: Vec<SwitchBatch>,
    /// switch -> lane index, kept only once the lanes outnumber
    /// [`SCANNED_LANES`] (one ticket's ops touch a handful of switches
    /// and never build it; a whole run's drain touches hundreds, where
    /// the linear scan was visible)
    index: softcell_types::FxHashMap<SwitchId, usize>,
}

/// Up to this many lanes, a switch's lane is found by scanning them.
const SCANNED_LANES: usize = 8;

impl OpJournal {
    /// Appends one op to its switch's lane.
    pub fn push(&mut self, op: RuleOp) {
        let sw = op.switch();
        let lane = if self.lanes.len() <= SCANNED_LANES {
            self.lanes.iter().position(|l| l.switch == sw)
        } else {
            if self.index.is_empty() {
                let lanes = self.lanes.iter().enumerate();
                self.index = lanes.map(|(i, l)| (l.switch, i)).collect();
            }
            self.index.get(&sw).copied()
        };
        match lane {
            Some(lane) => self.lanes[lane].ops.push(op),
            None => {
                if !self.index.is_empty() {
                    self.index.insert(sw, self.lanes.len());
                }
                self.lanes.push(SwitchBatch {
                    switch: sw,
                    ops: vec![op],
                });
            }
        }
    }

    /// Appends a sequence of ops (drain order preserved).
    pub fn extend(&mut self, ops: impl IntoIterator<Item = RuleOp>) {
        for op in ops {
            self.push(op);
        }
    }

    /// Whether the journal holds no ops.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Finishes the journal into barrier-delimited batches, lanes in
    /// first-appearance order.
    pub fn into_batches(self) -> Vec<SwitchBatch> {
        self.lanes
    }
}

/// Groups a drained op stream into per-switch batches, preserving each
/// switch's relative op order. Batch order follows each switch's first
/// appearance in the stream, so replaying batches in sequence applies
/// every per-switch subsequence exactly as drained.
pub fn batch_by_switch(ops: Vec<RuleOp>) -> Vec<SwitchBatch> {
    let mut journal = OpJournal::default();
    journal.extend(ops);
    journal.into_batches()
}

/// Receives the controller's rule operations.
pub trait RuleSink {
    /// Applies one operation.
    fn apply(&mut self, op: RuleOp);
}

/// Discards operations (rule-counting experiments).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl RuleSink for NullSink {
    fn apply(&mut self, _op: RuleOp) {}
}

/// Buffers operations (tests and batch application).
#[derive(Debug, Default, Clone)]
pub struct VecSink(pub Vec<RuleOp>);

impl RuleSink for VecSink {
    fn apply(&mut self, op: RuleOp) {
        self.0.push(op);
    }
}

impl<F: FnMut(RuleOp)> RuleSink for F {
    fn apply(&mut self, op: RuleOp) {
        self(op);
    }
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
            NextHop::Radio => {
                let bs = topo
                    .base_station_at(sw)
                    .ok_or_else(|| Error::NotFound(format!("{sw} hosts no base station")))?;
                Action::Forward(topo.base_station(bs).radio_port)
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
    fn vec_sink_buffers_in_order() {
        let mut sink = VecSink::default();
        let op = RuleOp::Remove {
            switch: SwitchId(1),
            matcher: Match::ANY,
        };
        sink.apply(op);
        assert_eq!(sink.0.len(), 1);
        assert_eq!(sink.0[0], op);
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

    #[test]
    fn incremental_journal_matches_one_shot_batching() {
        // feeding a journal op-by-op across many "tickets" must produce
        // the same batches as grouping the concatenated stream at once
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
        let tickets = vec![
            vec![inst(2, 1), inst(1, 1)],
            vec![],
            vec![rm(2), inst(3, 1)],
            vec![inst(2, 2), rm(1), rm(3)],
        ];
        let mut journal = OpJournal::default();
        assert!(journal.is_empty());
        for ticket in &tickets {
            journal.extend(ticket.iter().cloned());
        }
        assert!(!journal.is_empty());
        let flat: Vec<RuleOp> = tickets.into_iter().flatten().collect();
        assert_eq!(journal.into_batches(), batch_by_switch(flat));
    }

    #[test]
    fn journal_groups_like_a_linear_scan_at_every_width() {
        // below, at and past the width where the journal stops scanning
        // its lanes and starts indexing them
        for switches in [1u32, 8, 9, 200] {
            let mut x = u64::from(switches);
            let ops: Vec<RuleOp> = (0..switches * 5)
                .map(|i| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // every switch appears, in a scrambled interleaving
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
                .collect();
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

    #[test]
    fn closures_are_sinks() {
        let mut count = 0usize;
        {
            let mut sink = |_op: RuleOp| count += 1;
            sink.apply(RuleOp::Remove {
                switch: SwitchId(0),
                matcher: Match::ANY,
            });
        }
        assert_eq!(count, 1);
    }
}
