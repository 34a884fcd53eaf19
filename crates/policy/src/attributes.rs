//! Subscriber attributes.
//!
//! "Typical subscriber attributes include the cell-phone model or the M2M
//! device type, the operating-system version, the billing plan, the
//! options for parental controls, whether the total traffic exceeds a
//! usage cap, or whether a user is roaming." (paper §1). These are the
//! *mostly static* facts the controller holds per subscriber and feeds to
//! predicate evaluation; they are never visible to switches.

use serde::Serialize;
use std::fmt;

use softcell_types::UeImsi;

/// The carrier a subscriber belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Provider {
    /// Our own subscriber.
    Home,
    /// A roaming partner's subscriber (Table 1: carrier B), by partner id.
    Partner(u16),
    /// Any other carrier, by id.
    Foreign(u16),
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provider::Home => write!(f, "home"),
            Provider::Partner(id) => write!(f, "partner-{id}"),
            Provider::Foreign(id) => write!(f, "foreign-{id}"),
        }
    }
}

/// Billing plan tiers (Table 1 uses "silver").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum BillingPlan {
    /// Premium tier.
    Gold,
    /// Mid tier.
    Silver,
    /// Entry tier.
    Bronze,
    /// Pay-as-you-go.
    Prepaid,
    /// Machine-to-machine contract.
    M2m,
}

/// Coarse device classes (paper §1 motivates M2M fleets, smart meters,
/// old phones needing echo cancellation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum DeviceType {
    /// A modern smartphone.
    Smartphone,
    /// A tablet.
    Tablet,
    /// An older feature phone (Table-1-era echo-cancellation candidates).
    FeaturePhone,
    /// An M2M smart meter.
    M2mMeter,
    /// An M2M fleet tracker (Table 1 clause 5).
    M2mFleetTracker,
}

/// Everything the controller knows about one subscriber.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct SubscriberAttributes {
    /// Permanent subscriber identity.
    pub imsi: UeImsi,
    /// Owning carrier.
    pub provider: Provider,
    /// Billing plan.
    pub plan: BillingPlan,
    /// Device class.
    pub device: DeviceType,
    /// Device OS major version (policies on "older phones").
    pub os_major: u8,
    /// Whether the subscriber is currently roaming.
    pub roaming: bool,
    /// Whether the subscriber exceeded their usage cap.
    pub over_cap: bool,
    /// Whether parental controls are enabled.
    pub parental_controls: bool,
}

impl SubscriberAttributes {
    /// A typical home smartphone subscriber — the baseline for tests and
    /// examples; override fields as needed.
    pub fn default_home(imsi: UeImsi) -> Self {
        SubscriberAttributes {
            imsi,
            provider: Provider::Home,
            plan: BillingPlan::Silver,
            device: DeviceType::Smartphone,
            os_major: 12,
            roaming: false,
            over_cap: false,
            parental_controls: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_home_is_home_silver() {
        let a = SubscriberAttributes::default_home(UeImsi(7));
        assert_eq!(a.provider, Provider::Home);
        assert_eq!(a.plan, BillingPlan::Silver);
        assert!(!a.roaming);
    }

    #[test]
    fn provider_display() {
        assert_eq!(Provider::Home.to_string(), "home");
        assert_eq!(Provider::Partner(2).to_string(), "partner-2");
        assert_eq!(Provider::Foreign(9).to_string(), "foreign-9");
    }
}
