//! Control-plane failure handling (paper §5.2).
//!
//! The controller's slow-changing state (policy, subscriber attributes,
//! policy paths) is replicated with strong consistency — that is
//! `softcell-replica`'s quorum log, not this module. The fast-moving
//! state, UE location, is *not* synchronously replicated: "upon a
//! controller failure, a replica can correctly rebuild the UE location
//! state by querying local agents", which works because "a UE only
//! associates with one base station at a time": the agents' reports go
//! through [`CentralController::rebuild_locations`] to
//! [`CentralController::restore_locations`], the one restore, which also
//! restores a replica's image.
//!
//! Local agents hold only state derived from the controller (packet
//! classifiers, location-dependent addresses), never update it, and on
//! failure simply restart and refetch (§5.2 "Handling local agent
//! failure").

use softcell_policy::UeClassifier;
use softcell_types::{BaseStationId, Error, Result, SimTime, UeId};

use crate::agent::LocalAgent;
use crate::core::CentralController;
use crate::state::UeRecord;

/// What a local agent reports when a recovering controller queries it
/// (§5.2: "a replica can correctly rebuild the UE location state by
/// querying local agents").
#[derive(Clone, Debug)]
pub struct AgentLocationReport {
    /// The reporting base station.
    pub bs: BaseStationId,
    /// The UEs attached there.
    pub ues: Vec<UeRecord>,
}

impl AgentLocationReport {
    /// Builds the report from a live agent.
    pub fn from_agent(agent: &LocalAgent, now: SimTime) -> AgentLocationReport {
        AgentLocationReport {
            bs: agent.base_station(),
            ues: agent
                .attached()
                .map(|u| UeRecord {
                    imsi: u.imsi,
                    permanent_ip: u.permanent_ip,
                    bs: agent.base_station(),
                    ue_id: u.ue_id,
                    since: now,
                })
                .collect(),
        }
    }
}

impl CentralController {
    /// §5.2's rebuild from the agents alone: the registry is their
    /// reports, and the address pool holds exactly the reported
    /// addresses (see [`restore_locations`](Self::restore_locations)).
    pub fn rebuild_locations(&mut self, reports: &[AgentLocationReport]) -> Result<()> {
        let records: Vec<UeRecord> = reports.iter().flat_map(|r| r.ues.iter().copied()).collect();
        let pool = self.state().address_pool_of(&records);
        self.restore_locations(&records, pool.parts())
    }

    /// The grants a restarting local agent refetches: every UE the
    /// controller believes is attached at `bs`, with a freshly compiled
    /// classifier.
    pub fn grants_for_station(&self, bs: BaseStationId) -> Result<Vec<(UeRecord, UeClassifier)>> {
        let mut out = Vec::new();
        for rec in self.state().attached() {
            if rec.bs == bs {
                let attrs = self.state().subscriber(rec.imsi)?;
                let classifier = UeClassifier::compile(self.state().policy(), self.apps(), attrs);
                out.push((*rec, classifier));
            }
        }
        Ok(out)
    }
}

impl LocalAgent {
    /// Restart recovery: drop everything and refetch from the controller
    /// (the agent's state is read-only derived state, §5.2). `grants` is
    /// the controller's answer for this base station; `reserved` the ids
    /// it still reserves here for in-transition flows (§5.1), held until
    /// [`CentralController::drain_released_locations`] hands them back.
    /// Ids of lost attaches stay held for their UEs' retries. Every
    /// other id is free again, the gaps between them included.
    pub fn restart_from(
        &mut self,
        grants: Vec<(UeRecord, UeClassifier)>,
        reserved: impl IntoIterator<Item = UeId>,
    ) -> Result<usize> {
        let bs = self.base_station();
        let radio = self.radio_port();
        let scheme = *self.scheme();
        let ports = *self.ports();
        let unanswered = std::mem::take(&mut self.unanswered);
        *self = LocalAgent::new(bs, radio, scheme, ports);
        // highest first, so the gaps come back ascending
        let mut held: Vec<UeId> = reserved.into_iter().collect();
        held.extend(unanswered.values());
        held.extend(grants.iter().map(|(rec, _)| rec.ue_id));
        held.sort_unstable_by(|a, b| b.cmp(a));
        for id in held {
            self.hold_ue_id(id);
        }
        self.unanswered = unanswered;
        let n = grants.len();
        for (rec, classifier) in grants {
            self.adopt(rec, classifier)?;
        }
        Ok(n)
    }
}

/// Rebuilds the UE-location state of one agent's base station after the
/// agent itself reattached everything (used in tests to close the loop).
pub fn verify_agent_matches_controller(agent: &LocalAgent, ctl: &CentralController) -> Result<()> {
    for ue in agent.attached() {
        let rec = ctl.state().ue(ue.imsi)?;
        if rec.bs != agent.base_station() || rec.ue_id != ue.ue_id {
            return Err(Error::InvalidState(format!(
                "agent/controller disagree about {}",
                ue.imsi
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ControllerConfig;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;
    use softcell_types::UeImsi;

    #[test]
    fn location_rebuild_from_agents() {
        let topo = small_topology();
        let engine = || {
            let mut ctl = CentralController::new(
                &topo,
                ControllerConfig::simulation(),
                ServicePolicy::example_carrier_a(1),
            );
            for i in 0..3 {
                ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
            }
            ctl
        };
        let mut ctl = engine();
        let cfg = *ctl.config();
        let mut agents: Vec<LocalAgent> = (0..2)
            .map(|b| {
                let bs = topo.base_station(BaseStationId(b));
                LocalAgent::new(BaseStationId(b), bs.radio_port, cfg.scheme, cfg.ports)
            })
            .collect();
        for (a, imsi) in [(0, 0), (0, 1), (1, 2)] {
            agents[a]
                .handle_attach(UeImsi(imsi), &mut ctl, SimTime::ZERO)
                .unwrap();
        }

        // a new controller replica holds no locations, and rebuilds them
        // by querying the agents
        let mut recovered = engine();
        let reports: Vec<AgentLocationReport> = agents
            .iter()
            .map(|a| AgentLocationReport::from_agent(a, SimTime::from_secs(1)))
            .collect();
        recovered.rebuild_locations(&reports).unwrap();
        assert_eq!(recovered.state().attached_count(), 3);
        assert_eq!(
            recovered.state().ue(UeImsi(2)).unwrap().bs,
            BaseStationId(1),
            "locations match the agents' truth"
        );
        assert_eq!(
            recovered.state().ue(UeImsi(0)).unwrap().permanent_ip,
            ctl.state().ue(UeImsi(0)).unwrap().permanent_ip,
            "permanent addresses survive the rebuild"
        );

        // a station the topology lacks is refused, and changes nothing
        let mut fresh = engine();
        let far = UeRecord {
            bs: BaseStationId(9999),
            ..reports[0].ues[0]
        };
        let err = fresh.restore_locations(&[far], (1, &[])).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "{err}");
        assert_eq!(fresh.state().attached_count(), 0);
        assert_eq!(fresh.state().address_pool().allocated(), 0);
    }

    #[test]
    fn agent_restart_refetches_grants() {
        let topo = small_topology();
        let mut ctl = CentralController::new(
            &topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..2 {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        let cfg = *ctl.config();
        let bs0 = topo.base_station(BaseStationId(0));
        let mut agent = LocalAgent::new(BaseStationId(0), bs0.radio_port, cfg.scheme, cfg.ports);
        agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        agent
            .handle_attach(UeImsi(1), &mut ctl, SimTime::ZERO)
            .unwrap();

        // crash + restart: refetch from the controller
        let grants = ctl.grants_for_station(BaseStationId(0)).unwrap();
        let n = agent.restart_from(grants, []).unwrap();
        assert_eq!(n, 2);
        verify_agent_matches_controller(&agent, &ctl).unwrap();
        // recovered agents keep serving flows: classifiers are intact
        assert!(!agent.ue(UeImsi(0)).unwrap().classifier.entries().is_empty());
    }

    #[test]
    fn agent_restart_keeps_the_ids_between_survivors() {
        let topo = small_topology();
        let mut ctl = CentralController::new(
            &topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        let cfg = *ctl.config();
        let bs = BaseStationId(0);
        let mut agent =
            LocalAgent::new(bs, topo.base_station(bs).radio_port, cfg.scheme, cfg.ports);
        // survivors at ids 0 and 5; ids 1–4 were free at the crash
        for (imsi, id) in [(0, 0), (1, 5)] {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(imsi)));
            ctl.attach_ue(UeImsi(imsi), bs, UeId(id), SimTime::ZERO)
                .unwrap();
        }
        agent
            .restart_from(ctl.grants_for_station(bs).unwrap(), [])
            .unwrap();
        let mut handed_out = Vec::new();
        while let Ok(id) = agent.reserve_ue_id() {
            handed_out.push(id);
        }
        let max = cfg.scheme.max_ues_per_station() as usize;
        assert_eq!(handed_out.len(), max - 2, "every id but the survivors'");
        assert_eq!(&handed_out[..4], &[1, 2, 3, 4].map(UeId));
    }
}
