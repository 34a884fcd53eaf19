//! Predicates: boolean expressions over attributes and applications.
//!
//! "A predicate is a boolean expression on subscriber attributes and
//! application types" (paper §2.2). The AST below closes that definition
//! under negation, conjunction and disjunction; evaluation takes the
//! subscriber's attributes and the flow's application type.

use serde::Serialize;
use std::fmt;

use crate::application::ApplicationType;
use crate::attributes::{BillingPlan, DeviceType, Provider, SubscriberAttributes};

/// A boolean predicate over (subscriber attributes, application type).
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum Predicate {
    /// Always true (catch-all clauses).
    Any,
    /// Subscriber belongs to this provider.
    Provider(Provider),
    /// Subscriber belongs to *any* provider other than ours (Table 1
    /// clause 2 shape: "subscribers from all other carriers").
    NotHomeProvider,
    /// Subscriber is on this billing plan.
    Plan(BillingPlan),
    /// Subscriber's device class.
    Device(DeviceType),
    /// Device OS major version strictly below a threshold ("older
    /// phones", §1).
    OsOlderThan(u8),
    /// Subscriber is roaming.
    Roaming,
    /// Subscriber exceeded their usage cap.
    OverCap,
    /// Parental controls are enabled.
    ParentalControls,
    /// Flow is of this application type.
    App(ApplicationType),
    /// Negation.
    Not(Box<Predicate>),
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates against a subscriber and a flow's application type.
    pub fn eval(&self, attrs: &SubscriberAttributes, app: ApplicationType) -> bool {
        match self {
            Predicate::Any => true,
            Predicate::Provider(p) => attrs.provider == *p,
            Predicate::NotHomeProvider => attrs.provider != Provider::Home,
            Predicate::Plan(p) => attrs.plan == *p,
            Predicate::Device(d) => attrs.device == *d,
            Predicate::OsOlderThan(v) => attrs.os_major < *v,
            Predicate::Roaming => attrs.roaming,
            Predicate::OverCap => attrs.over_cap,
            Predicate::ParentalControls => attrs.parental_controls,
            Predicate::App(a) => app == *a,
            Predicate::Not(p) => !p.eval(attrs, app),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(attrs, app)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(attrs, app)),
        }
    }

    /// Whether the predicate's outcome depends on the application type.
    /// Attribute-only predicates let the local agent install one
    /// catch-all classifier entry instead of one per application.
    pub fn mentions_app(&self) -> bool {
        match self {
            Predicate::App(_) => true,
            Predicate::Not(p) => p.mentions_app(),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(|p| p.mentions_app()),
            _ => false,
        }
    }

    /// Convenience: `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        match self {
            Predicate::And(mut ps) => {
                ps.push(other);
                Predicate::And(ps)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Convenience: `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        match self {
            Predicate::Or(mut ps) => {
                ps.push(other);
                Predicate::Or(ps)
            }
            p => Predicate::Or(vec![p, other]),
        }
    }

    /// Convenience: `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Any => write!(f, "*"),
            Predicate::Provider(p) => write!(f, "provider={p}"),
            Predicate::NotHomeProvider => write!(f, "provider!=home"),
            Predicate::Plan(p) => write!(f, "plan={p:?}"),
            Predicate::Device(d) => write!(f, "device={d:?}"),
            Predicate::OsOlderThan(v) => write!(f, "os<{v}"),
            Predicate::Roaming => write!(f, "roaming"),
            Predicate::OverCap => write!(f, "over-cap"),
            Predicate::ParentalControls => write!(f, "parental-controls"),
            Predicate::App(a) => write!(f, "app={a}"),
            Predicate::Not(p) => write!(f, "!({p})"),
            Predicate::And(ps) => {
                let s: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", s.join(" & "))
            }
            Predicate::Or(ps) => {
                let s: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", s.join(" | "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_types::UeImsi;

    fn home() -> SubscriberAttributes {
        SubscriberAttributes::default_home(UeImsi(1))
    }

    #[test]
    fn atomic_predicates() {
        let a = home();
        assert!(Predicate::Any.eval(&a, ApplicationType::Unknown));
        assert!(Predicate::Provider(Provider::Home).eval(&a, ApplicationType::Web));
        assert!(!Predicate::NotHomeProvider.eval(&a, ApplicationType::Web));
        assert!(Predicate::Plan(BillingPlan::Silver).eval(&a, ApplicationType::Web));
        assert!(!Predicate::Roaming.eval(&a, ApplicationType::Web));
        assert!(Predicate::App(ApplicationType::Web).eval(&a, ApplicationType::Web));
        assert!(!Predicate::App(ApplicationType::Web).eval(&a, ApplicationType::Dns));
        assert!(Predicate::OsOlderThan(13).eval(&a, ApplicationType::Web));
        assert!(!Predicate::OsOlderThan(12).eval(&a, ApplicationType::Web));
    }

    #[test]
    fn partner_is_not_home() {
        let mut b = home();
        b.provider = Provider::Partner(1);
        assert!(Predicate::NotHomeProvider.eval(&b, ApplicationType::Web));
        assert!(Predicate::Provider(Provider::Partner(1)).eval(&b, ApplicationType::Web));
        assert!(!Predicate::Provider(Provider::Partner(2)).eval(&b, ApplicationType::Web));
    }

    #[test]
    fn boolean_combinators() {
        let a = home();
        let silver_video = Predicate::Plan(BillingPlan::Silver)
            .and(Predicate::App(ApplicationType::StreamingVideo));
        assert!(silver_video.eval(&a, ApplicationType::StreamingVideo));
        assert!(!silver_video.eval(&a, ApplicationType::Web));

        let not_web = Predicate::App(ApplicationType::Web).not();
        assert!(not_web.eval(&a, ApplicationType::Dns));

        let either = Predicate::Roaming.or(Predicate::OverCap);
        assert!(!either.eval(&a, ApplicationType::Web));
        let mut capped = a;
        capped.over_cap = true;
        assert!(either.eval(&capped, ApplicationType::Web));
    }

    #[test]
    fn empty_and_or_identities() {
        let a = home();
        assert!(Predicate::And(vec![]).eval(&a, ApplicationType::Web));
        assert!(!Predicate::Or(vec![]).eval(&a, ApplicationType::Web));
    }

    #[test]
    fn mentions_app_detection() {
        assert!(!Predicate::Plan(BillingPlan::Gold).mentions_app());
        assert!(Predicate::App(ApplicationType::Voip).mentions_app());
        assert!(Predicate::Plan(BillingPlan::Gold)
            .and(Predicate::App(ApplicationType::Voip))
            .mentions_app());
        assert!(Predicate::App(ApplicationType::Voip).not().mentions_app());
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::Plan(BillingPlan::Silver)
            .and(Predicate::App(ApplicationType::StreamingVideo));
        assert_eq!(p.to_string(), "(plan=Silver & app=video)");
    }
}
