//! Per-UE packet classifiers.
//!
//! "The packet classifiers are a UE-specific instantiation of the service
//! policy that matches on header fields and identifies the appropriate
//! policy tag" (paper §4.2). The controller computes a [`UeClassifier`]
//! when a UE attaches by *specializing* the policy to the subscriber's
//! attributes: attribute-only parts of every predicate are evaluated
//! away, leaving entries keyed by concrete `(protocol, dst_port)`
//! signatures — exactly the `match:dst_port=80, action:tag=2` form of the
//! paper's example. The local agent consults this table for every new
//! flow without touching the controller.

use std::sync::Arc;

use serde::Serialize;

use softcell_packet::Protocol;

use crate::application::{AppClassifier, ApplicationType};
use crate::attributes::SubscriberAttributes;
use crate::clause::{AccessControl, ClauseId, ServicePolicy};

/// One classifier entry: a concrete flow signature → clause binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct ClassifierEntry {
    /// Transport protocol to match (`None` = any — catch-all entry).
    pub proto: Option<Protocol>,
    /// Destination port to match (`None` = any).
    pub dst_port: Option<u16>,
    /// The application type this signature identifies.
    pub app: ApplicationType,
    /// The clause that governs such flows.
    pub clause: ClauseId,
    /// Whether the clause allows or denies.
    pub access: AccessControl,
}

/// The policy specialized to one subscriber. The entries are shared:
/// cloning a classifier — the controller hands its compiled copy to
/// every grant and handoff plan — copies a pointer, not the table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct UeClassifier {
    entries: Arc<[ClassifierEntry]>,
    /// The clause for flows matching no signature (the `Unknown`
    /// application), if the policy has one for this subscriber.
    fallback: Option<(ClauseId, AccessControl)>,
}

impl UeClassifier {
    /// Compiles the policy for one subscriber by enumerating every
    /// application type the classifier can recognize and asking the
    /// policy which clause governs it.
    pub fn compile(
        policy: &ServicePolicy,
        apps: &AppClassifier,
        attrs: &SubscriberAttributes,
    ) -> UeClassifier {
        let mut entries = Vec::with_capacity(apps.signature_count());
        let mut fallback = None;
        for app in ApplicationType::ALL {
            let Some((clause_id, clause)) = policy.match_clause(attrs, app) else {
                continue;
            };
            if app == ApplicationType::Unknown {
                fallback = Some((clause_id, clause.action.access));
                continue;
            }
            for sig in apps.signatures_of(app) {
                entries.push(ClassifierEntry {
                    proto: Some(sig.proto),
                    dst_port: Some(sig.dst_port),
                    app,
                    clause: clause_id,
                    access: clause.action.access,
                });
            }
        }
        UeClassifier::from_parts(entries, fallback)
    }

    /// Reassembles a classifier from its parts — the receive side of a
    /// wire transfer (`softcell-ctlchan` ships entries and fallback
    /// separately).
    pub fn from_parts(
        entries: Vec<ClassifierEntry>,
        fallback: Option<(ClauseId, AccessControl)>,
    ) -> UeClassifier {
        UeClassifier {
            entries: entries.into(),
            fallback,
        }
    }

    /// Looks up the clause governing a flow.
    pub fn classify(&self, proto: Protocol, dst_port: u16) -> Option<ClassifierEntry> {
        self.entries
            .iter()
            .find(|e| e.proto == Some(proto) && e.dst_port == Some(dst_port))
            .copied()
            .or_else(|| {
                self.fallback.map(|(clause, access)| ClassifierEntry {
                    proto: None,
                    dst_port: None,
                    app: ApplicationType::Unknown,
                    clause,
                    access,
                })
            })
    }

    /// The signature entries (excluding the fallback).
    pub fn entries(&self) -> &[ClassifierEntry] {
        &self.entries
    }

    /// The fallback clause for unrecognized flows.
    pub fn fallback(&self) -> Option<(ClauseId, AccessControl)> {
        self.fallback
    }

    /// Distinct clauses this subscriber's traffic can map to — the set of
    /// policy paths the controller may need to instantiate for this UE.
    pub fn clauses_used(&self) -> Vec<ClauseId> {
        let mut ids: Vec<ClauseId> = self
            .entries
            .iter()
            .map(|e| e.clause)
            .chain(self.fallback.map(|(c, _)| c))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{DeviceType, Provider};
    use softcell_types::UeImsi;

    fn compile_for(attrs: &SubscriberAttributes) -> (ServicePolicy, UeClassifier) {
        let policy = ServicePolicy::example_carrier_a(1);
        let apps = AppClassifier::default();
        let c = UeClassifier::compile(&policy, &apps, attrs);
        (policy, c)
    }

    #[test]
    fn home_silver_video_routes_to_transcoder_clause() {
        let attrs = SubscriberAttributes::default_home(UeImsi(1));
        let (policy, c) = compile_for(&attrs);
        // RTSP video flow
        let e = c.classify(Protocol::Tcp, 554).unwrap();
        assert_eq!(e.app, ApplicationType::StreamingVideo);
        assert_eq!(policy.clause(e.clause).unwrap().priority, 4);
        // web flow falls to the catch-all firewall clause
        let e = c.classify(Protocol::Tcp, 443).unwrap();
        assert_eq!(policy.clause(e.clause).unwrap().priority, 1);
    }

    #[test]
    fn unknown_ports_hit_fallback() {
        let attrs = SubscriberAttributes::default_home(UeImsi(1));
        let (policy, c) = compile_for(&attrs);
        let e = c.classify(Protocol::Tcp, 31337).unwrap();
        assert_eq!(e.app, ApplicationType::Unknown);
        assert_eq!(policy.clause(e.clause).unwrap().priority, 1);
        assert!(e.proto.is_none() && e.dst_port.is_none());
    }

    #[test]
    fn foreign_subscriber_is_denied_everywhere() {
        let mut attrs = SubscriberAttributes::default_home(UeImsi(2));
        attrs.provider = Provider::Foreign(3);
        let (_, c) = compile_for(&attrs);
        for e in c.entries() {
            assert_eq!(e.access, AccessControl::Deny);
        }
        assert_eq!(c.fallback().unwrap().1, AccessControl::Deny);
    }

    #[test]
    fn partner_subscriber_same_clause_for_all_apps() {
        let mut attrs = SubscriberAttributes::default_home(UeImsi(3));
        attrs.provider = Provider::Partner(1);
        let (policy, c) = compile_for(&attrs);
        let used = c.clauses_used();
        assert_eq!(used.len(), 1, "partner B hits only the priority-6 clause");
        assert_eq!(policy.clause(used[0]).unwrap().priority, 6);
    }

    #[test]
    fn fleet_tracker_mqtt_gets_its_clause() {
        let mut attrs = SubscriberAttributes::default_home(UeImsi(4));
        attrs.device = DeviceType::M2mFleetTracker;
        let (policy, c) = compile_for(&attrs);
        let e = c.classify(Protocol::Tcp, 8883).unwrap();
        assert_eq!(policy.clause(e.clause).unwrap().priority, 2);
    }

    #[test]
    fn clauses_used_is_sorted_dedup() {
        let attrs = SubscriberAttributes::default_home(UeImsi(5));
        let (_, c) = compile_for(&attrs);
        let used = c.clauses_used();
        let mut sorted = used.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(used, sorted);
        assert!(used.len() >= 3, "video, voip and catch-all at least");
    }

    #[test]
    fn empty_policy_compiles_to_empty_classifier() {
        let attrs = SubscriberAttributes::default_home(UeImsi(6));
        let c = UeClassifier::compile(&ServicePolicy::new(), &AppClassifier::default(), &attrs);
        assert!(c.entries().is_empty());
        assert!(c.fallback().is_none());
        assert!(c.classify(Protocol::Tcp, 80).is_none());
    }
}
