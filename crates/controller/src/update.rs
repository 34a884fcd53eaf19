//! Two-phase consistent updates (paper §3.2 installs rules "using
//! consistent updates techniques \[23\]" — Reitblatt et al.).
//!
//! The per-packet consistency guarantee: every packet is processed
//! entirely by the old rule set or entirely by the new one, never a mix.
//! Mechanism: rules are stamped with a configuration version; ingress
//! (access) switches stamp packets with their current version; interior
//! rules match only their version.
//!
//! 1. **Prepare** — install the new rules guarded by `version = v+1`
//!    alongside the old `v`-guarded rules. In-flight `v` packets are
//!    untouched.
//! 2. **Commit** — atomically flip the ingress stamp to `v+1`. From this
//!    instant new packets see only the new configuration.
//! 3. **Cleanup** — once no `v` packets can remain in flight (a network
//!    diameter's worth of time), garbage-collect the `v` rules.

use softcell_dataplane::Switch;
use softcell_types::{Error, Result, SwitchId};

use crate::ops::RuleOp;

/// A staged two-phase update across a set of switches.
#[derive(Debug)]
pub struct TwoPhaseUpdate {
    old_version: u32,
    new_version: u32,
    staged: Vec<RuleOp>,
    committed: bool,
}

impl TwoPhaseUpdate {
    /// Starts an update that transitions `old_version → old_version + 1`.
    pub fn new(old_version: u32) -> Self {
        TwoPhaseUpdate {
            old_version,
            new_version: old_version + 1,
            staged: Vec::new(),
            committed: false,
        }
    }

    /// The version new rules are guarded with.
    pub fn new_version(&self) -> u32 {
        self.new_version
    }

    /// Phase 1: installs `ops` with the new-version guard added to every
    /// matcher. Remove ops are deferred to cleanup (removing old rules
    /// early would break in-flight packets).
    pub fn prepare(&mut self, network: &mut [Switch], ops: Vec<RuleOp>) -> Result<()> {
        if self.committed {
            return Err(Error::InvalidState("update already committed".into()));
        }
        for op in ops {
            match op {
                RuleOp::Install {
                    switch,
                    priority,
                    matcher,
                    action,
                } => {
                    let guarded = matcher.with_version(self.new_version);
                    switch_mut(network, switch)?
                        .table
                        .install(priority, guarded, action)?;
                    self.staged.push(RuleOp::Install {
                        switch,
                        priority,
                        matcher: guarded,
                        action,
                    });
                }
                RuleOp::Remove { switch, matcher } => {
                    // the old rule dies at cleanup, not now
                    self.staged.push(RuleOp::Remove {
                        switch,
                        matcher: matcher.with_version(self.old_version),
                    });
                }
            }
        }
        Ok(())
    }

    /// Phase 2: flips the ingress stamp on the given access switches.
    /// This is the atomic cut-over point.
    pub fn commit(&mut self, network: &mut [Switch], ingress: &[SwitchId]) -> Result<()> {
        if self.committed {
            return Err(Error::InvalidState("update already committed".into()));
        }
        for &sw in ingress {
            switch_mut(network, sw)?.ingress_version = self.new_version;
        }
        self.committed = true;
        Ok(())
    }

    /// Phase 3: removes superseded old-version rules. Call once no
    /// old-version packet can still be in flight.
    pub fn cleanup(self, network: &mut [Switch]) -> Result<usize> {
        if !self.committed {
            return Err(Error::InvalidState(
                "cleanup before commit would break in-flight packets".into(),
            ));
        }
        let mut removed = 0;
        for op in &self.staged {
            if let RuleOp::Remove { switch, matcher } = op {
                removed += switch_mut(network, *switch)?.table.remove_matching(matcher);
            }
        }
        Ok(removed)
    }
}

fn switch_mut(network: &mut [Switch], id: SwitchId) -> Result<&mut Switch> {
    network
        .get_mut(id.index())
        .ok_or_else(|| Error::NotFound(format!("{id} not in network")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_dataplane::matcher::LookupKey;
    use softcell_dataplane::{Action, ForwardDecision, Match};
    use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
    use softcell_types::{PortNo, SimTime};
    use std::net::Ipv4Addr;

    fn network() -> Vec<Switch> {
        vec![Switch::access(SwitchId(0)), Switch::fabric(SwitchId(1))]
    }

    fn packet() -> Vec<u8> {
        build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                src_port: 1000,
                dst_port: 80,
                proto: Protocol::Tcp,
            },
            64,
            0,
            &[],
        )
    }

    fn old_rule() -> RuleOp {
        RuleOp::Install {
            switch: SwitchId(1),
            priority: 100,
            matcher: Match::ANY,
            action: Action::Forward(PortNo(1)),
        }
    }

    fn install_v0(network: &mut [Switch]) {
        // the running configuration: version-0 rules
        let RuleOp::Install {
            priority,
            matcher,
            action,
            ..
        } = old_rule()
        else {
            unreachable!()
        };
        network[1]
            .table
            .install(priority, matcher.with_version(0), action)
            .unwrap();
    }

    #[test]
    fn packets_see_old_rules_until_commit() {
        let mut net = network();
        install_v0(&mut net);
        let mut upd = TwoPhaseUpdate::new(0);
        upd.prepare(
            &mut net,
            vec![
                RuleOp::Install {
                    switch: SwitchId(1),
                    priority: 100,
                    matcher: Match::ANY,
                    action: Action::Forward(PortNo(2)),
                },
                RuleOp::Remove {
                    switch: SwitchId(1),
                    matcher: Match::ANY,
                },
            ],
        )
        .unwrap();

        // a packet stamped with the (still current) version 0 follows old
        let mut buf = packet();
        let d = net[1]
            .process(&mut buf, PortNo(9), 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(d, ForwardDecision::Out(PortNo(1)));

        // after commit, new packets are stamped 1 and follow the new rule
        upd.commit(&mut net, &[SwitchId(0)]).unwrap();
        let stamp = net[0].ingress_version;
        assert_eq!(stamp, 1);
        let mut buf = packet();
        let d = net[1]
            .process(&mut buf, PortNo(9), stamp, SimTime::ZERO)
            .unwrap();
        assert_eq!(d, ForwardDecision::Out(PortNo(2)));

        // in-flight version-0 packets still see the old rule (not yet GCed)
        let mut buf = packet();
        let d = net[1]
            .process(&mut buf, PortNo(9), 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(d, ForwardDecision::Out(PortNo(1)));

        // cleanup removes exactly the superseded rule
        let removed = upd.cleanup(&mut net).unwrap();
        assert_eq!(removed, 1);
        let key = LookupKey {
            in_port: PortNo(9),
            view: HeaderView::parse(&packet()).unwrap(),
            version: 0,
        };
        assert!(net[1].table.peek(&key).is_none(), "v0 rules are gone");
    }

    #[test]
    fn cleanup_before_commit_is_refused() {
        let mut net = network();
        let mut upd = TwoPhaseUpdate::new(0);
        upd.prepare(&mut net, vec![old_rule()]).unwrap();
        assert!(upd.cleanup(&mut net).is_err());
    }

    #[test]
    fn double_commit_is_refused() {
        let mut net = network();
        let mut upd = TwoPhaseUpdate::new(0);
        upd.commit(&mut net, &[SwitchId(0)]).unwrap();
        assert!(upd.commit(&mut net, &[SwitchId(0)]).is_err());
        assert!(upd.prepare(&mut net, vec![]).is_err());
    }

    #[test]
    fn unknown_switch_is_an_error() {
        let mut net = network();
        let mut upd = TwoPhaseUpdate::new(0);
        let bad = RuleOp::Install {
            switch: SwitchId(99),
            priority: 1,
            matcher: Match::ANY,
            action: Action::Drop,
        };
        assert!(upd.prepare(&mut net, vec![bad]).is_err());
    }
}
