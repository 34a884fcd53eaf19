//! Clauses, service actions and the prioritized service policy.
//!
//! "An action consists of a sequence of middleboxes, along with
//! quality-of-service (QoS) and access-control specifications. ... The
//! action does not indicate a specific instance of each middlebox" (paper
//! §2.2). [`ServicePolicy::example_carrier_a`] reproduces the paper's
//! Table 1 verbatim.

use serde::Serialize;
use std::fmt;

use softcell_types::{Error, MiddleboxKind, Result};

use crate::application::ApplicationType;
use crate::attributes::{BillingPlan, Provider, SubscriberAttributes};
use crate::predicate::Predicate;

/// Index of a clause within its policy (stable across lookups).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct ClauseId(pub u16);

/// Allow or deny traffic (access-control part of an action).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum AccessControl {
    /// Forward through the middlebox chain.
    Allow,
    /// Drop at the access edge (Table 1 clause 2).
    Deny,
}

/// A QoS specification: DSCP marking and a scheduling priority hint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct QosClass {
    /// DSCP codepoint to mark (e.g. 46 = expedited forwarding).
    pub dscp: u8,
    /// Abstract scheduling priority (higher = more urgent).
    pub priority: u8,
}

impl QosClass {
    /// Low-latency expedited forwarding (Table 1 clause 5, fleet
    /// tracking).
    pub const LOW_LATENCY: QosClass = QosClass {
        dscp: 46,
        priority: 7,
    };
    /// Default best-effort.
    pub const BEST_EFFORT: QosClass = QosClass {
        dscp: 0,
        priority: 0,
    };
}

/// The action half of a clause.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct ServiceAction {
    /// Ordered middlebox *kinds* to traverse (instance selection is the
    /// controller's job).
    pub chain: Vec<MiddleboxKind>,
    /// Optional QoS marking.
    pub qos: Option<QosClass>,
    /// Allow or deny.
    pub access: AccessControl,
}

impl ServiceAction {
    /// An allow action through the given chain.
    pub fn through(chain: Vec<MiddleboxKind>) -> Self {
        ServiceAction {
            chain,
            qos: None,
            access: AccessControl::Allow,
        }
    }

    /// A deny action.
    pub fn deny() -> Self {
        ServiceAction {
            chain: Vec::new(),
            qos: None,
            access: AccessControl::Deny,
        }
    }

    /// Adds a QoS class.
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = Some(qos);
        self
    }
}

/// One prioritized clause.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Clause {
    /// Priority; higher wins among matching predicates.
    pub priority: u16,
    /// The predicate.
    pub predicate: Predicate,
    /// The action.
    pub action: ServiceAction,
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chain: Vec<String> = self.action.chain.iter().map(|m| m.to_string()).collect();
        write!(
            f,
            "[{}] {} -> {}{}",
            self.priority,
            self.predicate,
            match self.action.access {
                AccessControl::Allow if chain.is_empty() => "allow".to_string(),
                AccessControl::Allow => chain.join(" > "),
                AccessControl::Deny => "deny".to_string(),
            },
            if self.action.qos.is_some() {
                " +qos"
            } else {
                ""
            }
        )
    }
}

/// A complete service policy: clauses sorted by descending priority.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ServicePolicy {
    clauses: Vec<Clause>,
}

impl ServicePolicy {
    /// An empty policy.
    pub fn new() -> Self {
        ServicePolicy::default()
    }

    /// Builds a policy from clauses, sorting by descending priority.
    /// Duplicate priorities are rejected — the paper uses priority to
    /// "disambiguate overlapping predicates", which requires a total
    /// order.
    pub fn from_clauses(mut clauses: Vec<Clause>) -> Result<Self> {
        clauses.sort_by_key(|c| std::cmp::Reverse(c.priority));
        for w in clauses.windows(2) {
            if w[0].priority == w[1].priority {
                return Err(Error::Config(format!(
                    "duplicate clause priority {}",
                    w[0].priority
                )));
            }
        }
        Ok(ServicePolicy { clauses })
    }

    /// Appends a clause (re-sorting).
    pub fn add(&mut self, clause: Clause) -> Result<()> {
        if self.clauses.iter().any(|c| c.priority == clause.priority) {
            return Err(Error::Config(format!(
                "duplicate clause priority {}",
                clause.priority
            )));
        }
        self.clauses.push(clause);
        self.clauses.sort_by_key(|c| std::cmp::Reverse(c.priority));
        Ok(())
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the policy is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Clauses in descending priority order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// A clause by id.
    pub fn clause(&self, id: ClauseId) -> Option<&Clause> {
        self.clauses.get(id.0 as usize)
    }

    /// The highest-priority clause matching (attributes, application).
    /// "The network forwards traffic using the highest-priority clause
    /// with a matching predicate" (§2.2).
    pub fn match_clause(
        &self,
        attrs: &SubscriberAttributes,
        app: ApplicationType,
    ) -> Option<(ClauseId, &Clause)> {
        self.clauses
            .iter()
            .enumerate()
            .find(|(_, c)| c.predicate.eval(attrs, app))
            .map(|(i, c)| (ClauseId(i as u16), c))
    }

    /// The paper's Table 1 — carrier A's example policy:
    ///
    /// | prio | predicate | action |
    /// |---|---|---|
    /// | 6 | provider = B | firewall |
    /// | 5 | provider ∉ {A, B} | deny |
    /// | 4 | plan = silver & app = video | firewall > transcoder |
    /// | 3 | app = VoIP | firewall > echo-canceller |
    /// | 2 | device = fleet tracker | firewall, low-latency QoS |
    /// | 1 | * | firewall |
    pub fn example_carrier_a(partner_b: u16) -> ServicePolicy {
        use MiddleboxKind::*;
        let not_a_or_b =
            Predicate::NotHomeProvider.and(Predicate::Provider(Provider::Partner(partner_b)).not());
        ServicePolicy::from_clauses(vec![
            Clause {
                priority: 6,
                predicate: Predicate::Provider(Provider::Partner(partner_b)),
                action: ServiceAction::through(vec![Firewall]),
            },
            Clause {
                priority: 5,
                predicate: not_a_or_b,
                action: ServiceAction::deny(),
            },
            Clause {
                priority: 4,
                predicate: Predicate::Plan(BillingPlan::Silver)
                    .and(Predicate::App(ApplicationType::StreamingVideo)),
                action: ServiceAction::through(vec![Firewall, Transcoder]),
            },
            Clause {
                priority: 3,
                predicate: Predicate::App(ApplicationType::Voip),
                action: ServiceAction::through(vec![Firewall, EchoCanceller]),
            },
            Clause {
                priority: 2,
                predicate: Predicate::Device(crate::attributes::DeviceType::M2mFleetTracker),
                action: ServiceAction::through(vec![Firewall]).with_qos(QosClass::LOW_LATENCY),
            },
            Clause {
                priority: 1,
                predicate: Predicate::Any,
                action: ServiceAction::through(vec![Firewall]),
            },
        ])
        .expect("example policy has distinct priorities")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::DeviceType;
    use softcell_types::UeImsi;

    fn home() -> SubscriberAttributes {
        SubscriberAttributes::default_home(UeImsi(1))
    }

    #[test]
    fn table1_clause_resolution() {
        let p = ServicePolicy::example_carrier_a(1);
        assert_eq!(p.len(), 6);

        // A silver home subscriber watching video → firewall + transcoder
        let (_, c) = p
            .match_clause(&home(), ApplicationType::StreamingVideo)
            .unwrap();
        assert_eq!(
            c.action.chain,
            vec![MiddleboxKind::Firewall, MiddleboxKind::Transcoder]
        );

        // same subscriber browsing web → catch-all firewall
        let (_, c) = p.match_clause(&home(), ApplicationType::Web).unwrap();
        assert_eq!(c.action.chain, vec![MiddleboxKind::Firewall]);

        // VoIP → echo canceller
        let (_, c) = p.match_clause(&home(), ApplicationType::Voip).unwrap();
        assert_eq!(
            c.action.chain,
            vec![MiddleboxKind::Firewall, MiddleboxKind::EchoCanceller]
        );
    }

    #[test]
    fn table1_partner_and_foreign() {
        let p = ServicePolicy::example_carrier_a(1);
        let mut partner = home();
        partner.provider = Provider::Partner(1);
        // everything from partner B hits the priority-6 firewall clause,
        // even video
        let (_, c) = p
            .match_clause(&partner, ApplicationType::StreamingVideo)
            .unwrap();
        assert_eq!(c.priority, 6);
        assert_eq!(c.action.chain, vec![MiddleboxKind::Firewall]);

        let mut foreign = home();
        foreign.provider = Provider::Foreign(9);
        let (_, c) = p.match_clause(&foreign, ApplicationType::Web).unwrap();
        assert_eq!(c.action.access, AccessControl::Deny);
    }

    #[test]
    fn table1_fleet_tracker_gets_qos() {
        let p = ServicePolicy::example_carrier_a(1);
        let mut m2m = home();
        m2m.device = DeviceType::M2mFleetTracker;
        m2m.plan = BillingPlan::M2m;
        let (_, c) = p
            .match_clause(&m2m, ApplicationType::FleetTracking)
            .unwrap();
        assert_eq!(c.action.qos, Some(QosClass::LOW_LATENCY));
    }

    #[test]
    fn priority_disambiguates_overlap() {
        // silver video matches both clause 4 and the catch-all; 4 wins
        let p = ServicePolicy::example_carrier_a(1);
        let (id, c) = p
            .match_clause(&home(), ApplicationType::StreamingVideo)
            .unwrap();
        assert_eq!(c.priority, 4);
        assert_eq!(p.clause(id).unwrap().priority, 4);
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let c = Clause {
            priority: 1,
            predicate: Predicate::Any,
            action: ServiceAction::through(vec![]),
        };
        assert!(ServicePolicy::from_clauses(vec![c.clone(), c.clone()]).is_err());
        let mut p = ServicePolicy::new();
        p.add(c.clone()).unwrap();
        assert!(p.add(c).is_err());
    }

    #[test]
    fn empty_policy_matches_nothing() {
        let p = ServicePolicy::new();
        assert!(p.is_empty());
        assert!(p.match_clause(&home(), ApplicationType::Web).is_none());
    }

    #[test]
    fn clause_display() {
        let p = ServicePolicy::example_carrier_a(1);
        let shown = p.clauses()[0].to_string();
        assert!(shown.contains("provider=partner-1"));
        assert!(shown.contains("firewall"));
        assert!(p.clauses()[1].to_string().contains("deny"));
    }
}
