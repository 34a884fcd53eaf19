//! Offline recomputation of the forwarding state (paper §3.2).
//!
//! "Our online algorithm is optimal if each policy path is processed one
//! at a time. For extremely constrained environments, we can couple the
//! online algorithm with an offline algorithm that would regularly
//! recompute the optimal forwarding entries."
//!
//! The online installer's results depend on arrival order: interleaved
//! clauses fragment tag reuse and sibling merges. The offline pass
//! replays every installed path record, in `PathKey` order, through the
//! online install routine into a *fresh* installer. That order puts
//! Internet paths chain-grouped and station-sorted — it maximizes
//! chain-index hits and lets contiguous station prefixes merge as they
//! arrive — and the m2m paths after them. The pass emits a migration
//! (full removals of the old rule set, installs of the new one). Before
//! the replay the fresh installer holds the mobility tag while any §5.1
//! tunnel lives: the tunnels' rules are not the installer's and stay up
//! across the pass, and the tag goes back to the pool when the last
//! tunnel is collected.
//!
//! This also closes the dynamic-removal story: dropping a policy path is
//! "forget it, recompute" — exactly the paper's suggested division of
//! labour between the online and offline algorithms.
//!
//! The migration is **not hitless**: new tags replace old ones, so the
//! caller must flush agent tag caches afterwards and let old microflow
//! entries drain (their fabric rules are gone; stale packets drop, which
//! is the fail-safe side of per-packet consistency). A hitless variant
//! would phase the two rule sets through
//! [`crate::update::TwoPhaseUpdate`].

use softcell_topology::Topology;
use softcell_types::{Result, SwitchId};

use crate::core::{install_path, CentralController, ControllerConfig};
use crate::install::{Direction, PathInstaller};
use crate::ops::{lower_delta, RuleOp};

/// Before/after accounting of one offline pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfflineOutcome {
    /// Total rules (both directions) before the recompute.
    pub rules_before: usize,
    /// Total rules after.
    pub rules_after: usize,
    /// Tags allocated before.
    pub tags_before: usize,
    /// Tags allocated after.
    pub tags_after: usize,
    /// Policy paths replayed (Internet-bound, counted once per
    /// direction pair) plus m2m paths.
    pub paths_replayed: usize,
}

impl CentralController {
    /// Recomputes every installed policy path from scratch in
    /// chain-grouped order, swaps in the fresh rule set, and queues the
    /// migration operations (removals of all old rules, installs of the
    /// new ones) for [`CentralController::drain_ops`].
    ///
    /// Local agents must refetch policy tags afterwards (their cached
    /// [`PathTags`](crate::core::PathTags) name retired tags); see
    /// `SimWorld::apply_reoptimization` for the full choreography.
    pub(crate) fn reoptimize_paths(&mut self) -> Result<OfflineOutcome> {
        let (topo, cfg) = (&self.topology().clone(), *self.config());
        let rules_before = rule_total(&self.installer);
        let tags_before = self.installer.tags_in_use();
        let mut ops = removals(topo, &cfg, &self.installer)?;

        let mut fresh = PathInstaller::new(topo, cfg.scheme, cfg.tag_policy);
        if let Some(tag) = self.mobility().mobility_tag() {
            fresh.adopt_raw_tag(tag);
        }
        let mut records: Vec<_> = self.installed.iter_mut().collect();
        records.sort_unstable_by_key(|(key, _)| **key);
        let mut replayed = Vec::with_capacity(records.len());
        for (key, rec) in &records {
            let (path, qos) = (&rec.path, rec.tags.qos);
            let tags = install_path(topo, &cfg, &mut fresh, **key, path, qos, &mut ops)?;
            replayed.push(tags);
        }

        let outcome = OfflineOutcome {
            rules_before,
            rules_after: rule_total(&fresh),
            tags_before,
            tags_after: fresh.tags_in_use(),
            paths_replayed: records.len(),
        };
        // Only migrate when the recompute actually wins — order effects
        // can occasionally favour the organic arrival order, and a
        // migration that isn't an improvement is pure churn.
        if outcome.rules_after >= rules_before {
            return Ok(OfflineOutcome {
                rules_after: rules_before,
                tags_after: tags_before,
                ..outcome
            });
        }
        for ((_, rec), tags) in records.into_iter().zip(replayed) {
            rec.tags = tags;
        }
        self.installer = fresh;
        self.pending_ops.extend(ops);
        Ok(outcome)
    }
}

/// Rules (both directions) an installer's shadows hold.
fn rule_total(installer: &PathInstaller) -> usize {
    let dirs = [Direction::Uplink, Direction::Downlink];
    let count = |dir| installer.shadows(dir).rule_counts().iter().sum::<usize>();
    dirs.into_iter().map(count).sum()
}

/// A removal for every rule an installer's shadows hold: each rule is
/// lowered in its install form, and its matcher kept.
fn removals(
    topo: &Topology,
    cfg: &ControllerConfig,
    installer: &PathInstaller,
) -> Result<Vec<RuleOp>> {
    let carrier = cfg.scheme.carrier();
    let mut ops = Vec::new();
    for dir in [Direction::Uplink, Direction::Downlink] {
        let shadows = installer.shadows(dir);
        for sw in (0..shadows.len() as u32).map(SwitchId) {
            for delta in shadows.switch(sw).iter_rules() {
                let (RuleOp::Install { matcher, .. } | RuleOp::Remove { matcher, .. }) =
                    lower_delta(topo, &cfg.ports, carrier, dir, sw, &delta)?;
                ops.push(RuleOp::Remove {
                    switch: sw,
                    matcher,
                });
            }
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::PathTags;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;
    use softcell_types::{BaseStationId, UeImsi};

    fn controller(topo: &Topology) -> CentralController {
        let mut ctl = CentralController::new(
            topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..4 {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        ctl
    }

    /// An Internet arrival order the pass improves on: each station in
    /// turn requests three clauses, so no clause's paths arrive together.
    const STATION_MAJOR: [(u16, u32); 12] = [
        (2, 0),
        (3, 0),
        (5, 0),
        (2, 1),
        (3, 1),
        (5, 1),
        (2, 2),
        (3, 2),
        (5, 2),
        (2, 3),
        (3, 3),
        (5, 3),
    ];

    /// 16 m2m paths: every ordered pair of distinct stations under the
    /// catch-all clause, and four of them under the VoIP clause.
    fn m2m_requests() -> Vec<(u16, u32, u32)> {
        let pairs = (0..4).flat_map(|f| (0..4).map(move |t| (f, t)));
        let pairs: Vec<(u32, u32)> = pairs.filter(|(f, t)| f != t).collect();
        let catch_all = pairs.iter().map(|&(f, t)| (5, f, t));
        let voip = pairs.iter().take(4).map(|&(f, t)| (3, f, t));
        catch_all.chain(voip).collect()
    }

    fn request_internet(ctl: &mut CentralController, (clause, bs): (u16, u32)) -> PathTags {
        let tags = ctl.request_policy_path(BaseStationId(bs), ClauseId(clause));
        tags.unwrap()
    }

    fn request_m2m(ctl: &mut CentralController, (clause, f, t): (u16, u32, u32)) -> PathTags {
        let (from, to) = (BaseStationId(f), BaseStationId(t));
        ctl.request_m2m_path(from, to, ClauseId(clause)).unwrap()
    }

    #[test]
    fn reoptimize_never_increases_rules() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        for req in STATION_MAJOR {
            request_internet(&mut ctl, req);
        }
        ctl.drain_ops();

        let outcome = ctl.reoptimize_paths().unwrap();
        assert_eq!(outcome.paths_replayed, 12);
        assert!(
            outcome.rules_after <= outcome.rules_before,
            "offline pass must not be worse: {} -> {}",
            outcome.rules_before,
            outcome.rules_after
        );
        // whether or not a migration happened, cached path requests keep
        // working without reinstalling
        let _ = ctl.drain_ops();
        request_internet(&mut ctl, (5, 0));
        assert!(ctl.drain_ops().is_empty(), "cached after reopt");
    }

    #[test]
    fn reoptimize_is_idempotent() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        for bs in 0..4u32 {
            request_internet(&mut ctl, (5, bs));
        }
        for req in m2m_requests() {
            request_m2m(&mut ctl, req);
        }
        let first = ctl.reoptimize_paths().unwrap();
        let second = ctl.reoptimize_paths().unwrap();
        assert_eq!(first.paths_replayed, 4 + 16);
        assert_eq!(second.rules_before, first.rules_after);
        assert_eq!(second.rules_after, first.rules_after, "fixed point");
    }

    /// What the pass is: after a win, every path answers with the tags a
    /// fresh controller gives when the same paths are requested in the
    /// replay order (Internet paths by clause and station, then m2m
    /// paths by clause, sender and peer), and both directions hold the
    /// same rules per switch. The m2m paths replay in that order too, not
    /// in the order a hash map happens to hold them.
    #[test]
    fn a_winning_pass_equals_a_fresh_controller_fed_in_replay_order() {
        let topo = small_topology();
        let mut ctl = controller(&topo);
        let mut m2m = m2m_requests();
        m2m.reverse();
        for req in STATION_MAJOR {
            request_internet(&mut ctl, req);
        }
        for &req in &m2m {
            request_m2m(&mut ctl, req);
        }
        let outcome = ctl.reoptimize_paths().unwrap();
        assert!(outcome.rules_after < outcome.rules_before, "{outcome:?}");
        assert_eq!(outcome.paths_replayed, 12 + 16);
        ctl.drain_ops();

        let mut internet = STATION_MAJOR.to_vec();
        internet.sort_unstable();
        m2m.sort_unstable();
        let mut fresh = controller(&topo);
        for &req in &internet {
            let want = request_internet(&mut fresh, req);
            assert_eq!(request_internet(&mut ctl, req), want, "{req:?}");
        }
        for &req in &m2m {
            let want = request_m2m(&mut fresh, req);
            assert_eq!(request_m2m(&mut ctl, req), want, "m2m {req:?}");
        }
        assert!(ctl.drain_ops().is_empty(), "every request is a cache hit");
        for dir in [Direction::Uplink, Direction::Downlink] {
            let counts = |c: &CentralController| c.installer().shadows(dir).rule_counts();
            assert_eq!(counts(&ctl), counts(&fresh), "{dir:?}");
        }
        assert_eq!(ctl.installer().tags_in_use(), outcome.tags_after);
    }
}
