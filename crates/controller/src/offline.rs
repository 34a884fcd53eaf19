//! Offline recomputation of the forwarding state (paper §3.2).
//!
//! "Our online algorithm is optimal if each policy path is processed one
//! at a time. For extremely constrained environments, we can couple the
//! online algorithm with an offline algorithm that would regularly
//! recompute the optimal forwarding entries."
//!
//! The online installer's results depend on arrival order: interleaved
//! clauses fragment tag reuse and sibling merges. The offline pass
//! replays every live policy path into a *fresh* installer in
//! chain-grouped, station-sorted order — the order that maximizes
//! chain-index hits and lets contiguous station prefixes merge as they
//! arrive — and emits a migration (full removals of the old rule set,
//! installs of the new one).
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

use softcell_topology::PolicyPath;
use softcell_types::Result;

use crate::core::{CentralController, PathTags};
use crate::install::{Direction, PathInstaller};
use crate::ops::{lower_delta, RuleOp};
use crate::shadow::ShadowDelta;

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

impl<'t> CentralController<'t> {
    /// Recomputes every installed policy path from scratch in
    /// chain-grouped order, swaps in the fresh rule set, and queues the
    /// migration operations (removals of all old rules, installs of the
    /// new ones) for [`CentralController::drain_ops`].
    ///
    /// Local agents must refetch policy tags afterwards (their cached
    /// [`PathTags`] name retired tags); see
    /// `SimWorld::apply_reoptimization` for the full choreography.
    pub fn reoptimize_paths(&mut self) -> Result<OfflineOutcome> {
        let cfg = *self.config();
        let carrier = cfg.scheme.carrier();

        // ---- collect the live intents, chain-grouped ----------------
        let mut internet: Vec<(softcell_policy::clause::ClauseId, _, PolicyPath)> = self
            .routed_entries()
            .map(|((clause, bs), path)| (clause, bs, path.clone()))
            .collect();
        // group same-clause paths together, stations in numeric order:
        // adjacent prefixes arrive consecutively and merge immediately
        internet.sort_by_key(|(clause, bs, _)| (*clause, *bs));
        let m2m: Vec<(_, PolicyPath)> = self
            .m2m_entries()
            .map(|(k, path)| (k, path.clone()))
            .collect();

        let old_rules: usize = [Direction::Uplink, Direction::Downlink]
            .iter()
            .map(|d| {
                self.installer()
                    .shadows(*d)
                    .rule_counts()
                    .iter()
                    .sum::<usize>()
            })
            .sum();
        let old_tags = self.installer().tags_in_use();

        // ---- removals: every rule the old shadows hold ---------------
        let mut ops: Vec<RuleOp> = Vec::new();
        for dir in [Direction::Uplink, Direction::Downlink] {
            let shadows = self.installer().shadows(dir);
            for idx in 0..shadows.len() {
                let sw = softcell_types::SwitchId(idx as u32);
                for (entry, tag, prefix, _nh) in shadows.switch(sw).iter_rules() {
                    let delta = match prefix {
                        Some(prefix) => ShadowDelta::RemovePrefix { entry, tag, prefix },
                        None => {
                            // a default has no Remove delta form; lower
                            // the matcher via the Install form and flip
                            ShadowDelta::SetDefault {
                                entry,
                                tag,
                                nh: _nh,
                            }
                        }
                    };
                    let op = lower_delta(self.topology(), &cfg.ports, carrier, dir, sw, &delta)?;
                    let matcher = match op {
                        RuleOp::Install { matcher, .. } => matcher,
                        RuleOp::Remove { matcher, .. } => matcher,
                    };
                    ops.push(RuleOp::Remove {
                        switch: sw,
                        matcher,
                    });
                }
            }
        }

        // ---- fresh installer, replay in grouped order ----------------
        let mut fresh = PathInstaller::new(self.topology(), cfg.scheme, cfg.tag_policy);
        let mut new_internet_tags = Vec::with_capacity(internet.len());
        let mut replayed = 0usize;
        for (clause, bs, path) in &internet {
            let tags = install_pair(&mut fresh, path, cfg.bidirectional, &mut ops, self, carrier)?;
            new_internet_tags.push(((*clause, *bs), tags, path.clone()));
            replayed += 1;
        }
        let mut new_m2m_tags = Vec::with_capacity(m2m.len());
        for (key, path) in &m2m {
            let report = fresh.install_path(path, Direction::Downlink)?;
            for (sw, delta) in fresh.last_deltas() {
                ops.push(lower_delta(
                    self.topology(),
                    &cfg.ports,
                    carrier,
                    Direction::Downlink,
                    *sw,
                    delta,
                )?);
            }
            new_m2m_tags.push((*key, report, path.clone()));
            replayed += 1;
        }

        let new_rules: usize = [Direction::Uplink, Direction::Downlink]
            .iter()
            .map(|d| fresh.shadows(*d).rule_counts().iter().sum::<usize>())
            .sum();
        let new_tags = fresh.tags_in_use();

        // Only migrate when the recompute actually wins — order effects
        // can occasionally favour the organic arrival order, and a
        // migration that isn't an improvement is pure churn.
        if new_rules >= old_rules {
            return Ok(OfflineOutcome {
                rules_before: old_rules,
                rules_after: old_rules,
                tags_before: old_tags,
                tags_after: old_tags,
                paths_replayed: replayed,
            });
        }

        // ---- swap in the fresh state ---------------------------------
        self.adopt_reoptimized(fresh, new_internet_tags, new_m2m_tags, ops)?;

        Ok(OfflineOutcome {
            rules_before: old_rules,
            rules_after: new_rules,
            tags_before: old_tags,
            tags_after: new_tags,
            paths_replayed: replayed,
        })
    }
}

/// Installs one Internet-bound path pair (uplink + forced downlink, or
/// downlink only), appending the lowered ops.
fn install_pair(
    fresh: &mut PathInstaller,
    path: &PolicyPath,
    bidirectional: bool,
    ops: &mut Vec<RuleOp>,
    ctl: &CentralController<'_>,
    carrier: softcell_types::Ipv4Prefix,
) -> Result<PathTags> {
    let cfg = ctl.config();
    let (entry, exit) = if bidirectional {
        let up = fresh.install_path(path, Direction::Uplink)?;
        for (sw, delta) in fresh.last_deltas() {
            ops.push(lower_delta(
                ctl.topology(),
                &cfg.ports,
                carrier,
                Direction::Uplink,
                *sw,
                delta,
            )?);
        }
        (up.entry_tag(), up.exit_tag())
    } else {
        (softcell_types::PolicyTag(0), softcell_types::PolicyTag(0))
    };
    let down = if bidirectional {
        fresh.install_path_forced(path, Direction::Downlink, exit)?
    } else {
        fresh.install_path(path, Direction::Downlink)?
    };
    for (sw, delta) in fresh.last_deltas() {
        ops.push(lower_delta(
            ctl.topology(),
            &cfg.ports,
            carrier,
            Direction::Downlink,
            *sw,
            delta,
        )?);
    }
    Ok(PathTags {
        uplink_entry: if bidirectional {
            entry
        } else {
            down.entry_tag()
        },
        uplink_exit: if bidirectional {
            exit
        } else {
            down.entry_tag()
        },
        downlink_final: down.exit_tag(),
        access_out_port: softcell_types::PortNo(0), // recomputed by adopt
        qos: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ControllerConfig;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_topology::small_topology;
    use softcell_types::{BaseStationId, UeImsi};

    #[test]
    fn reoptimize_never_increases_rules() {
        let topo = small_topology();
        let mut ctl = CentralController::new(
            &topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..4 {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        // pessimal order: interleave clauses across stations
        for clause in [5u16, 3, 4] {
            for bs in [3u32, 0, 2, 1] {
                ctl.request_policy_path(BaseStationId(bs), ClauseId(clause))
                    .unwrap();
            }
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
        let t = ctl
            .request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        assert!(ctl.drain_ops().is_empty(), "cached after reopt");
        let _ = t;
    }

    #[test]
    fn reoptimize_is_idempotent() {
        let topo = small_topology();
        let mut ctl = CentralController::new(
            &topo,
            ControllerConfig::simulation(),
            ServicePolicy::example_carrier_a(1),
        );
        for i in 0..2 {
            ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        for bs in 0..4u32 {
            ctl.request_policy_path(BaseStationId(bs), ClauseId(5))
                .unwrap();
        }
        let first = ctl.reoptimize_paths().unwrap();
        let second = ctl.reoptimize_paths().unwrap();
        assert_eq!(second.rules_before, first.rules_after);
        assert_eq!(second.rules_after, first.rules_after, "fixed point");
    }
}
