//! Strongly-typed identifiers for network entities.
//!
//! Every entity a SoftCell controller reasons about — switches, base
//! stations, UEs, middleboxes, flows — gets its own newtype so that the
//! compiler rejects accidental cross-assignment (e.g. indexing a switch
//! table with a base-station number). All identifiers are plain integers
//! underneath, `Copy`, ordered and hashable, so they can key dense `Vec`
//! tables as well as hash maps.

use serde::Serialize;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value of this identifier.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a raw index (inverse of [`Self::index`]).
            #[inline]
            pub const fn from_index(index: usize) -> Self {
                Self(index as $inner)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// A switch in the cellular core (access, aggregation, core or gateway).
    SwitchId(u32),
    "sw"
);

id_type!(
    /// A base station (eNodeB). Each base station hosts one access switch
    /// and one local agent.
    BaseStationId(u32),
    "bs"
);

id_type!(
    /// The *local* UE identifier, unique only within one base station.
    ///
    /// Together with the base-station prefix this forms the hierarchical
    /// location-dependent address (LocIP, paper §3.1). It is reassigned
    /// when the UE moves to a different base station.
    UeId(u16),
    "ue"
);

id_type!(
    /// The *global*, permanent subscriber identity (IMSI-like). Never
    /// changes; used by the controller to look up subscriber attributes.
    UeImsi(u64),
    "imsi"
);

id_type!(
    /// A middlebox *instance* (a specific firewall box, a specific
    /// transcoder VM). Several instances may share a [`MiddleboxKind`].
    MiddleboxId(u32),
    "mb"
);

id_type!(
    /// A gateway switch connecting the core network to the Internet.
    GatewayId(u32),
    "gw"
);

id_type!(
    /// A switch port number. Port 0 is reserved for the local/CPU port.
    PortNo(u16),
    "p"
);

id_type!(
    /// A unidirectional link in the topology graph.
    LinkId(u32),
    "ln"
);

id_type!(
    /// A transport-level flow (one direction of a connection) as tracked by
    /// the simulator and the local agent's microflow table.
    FlowId(u64),
    "fl"
);

/// The *function* a middlebox performs. Service-policy actions name kinds;
/// the controller picks concrete [`MiddleboxId`] instances (paper §2.2:
/// "the action does not indicate a specific instance").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum MiddleboxKind {
    /// Stateful firewall.
    Firewall,
    /// Video transcoder.
    Transcoder,
    /// Echo-cancellation gateway for voice traffic.
    EchoCanceller,
    /// Intrusion detection system (needs per-UE flow grouping, §3.1).
    IntrusionDetection,
    /// HTTP cache / web proxy.
    WebCache,
    /// Lawful-intercept tap.
    LawfulIntercept,
    /// Carrier-grade NAT (§4.1 privacy discussion).
    Nat,
    /// Header-enrichment / billing gateway.
    BillingGateway,
    /// Parental-control content filter.
    ContentFilter,
    /// TCP optimizer / performance-enhancing proxy.
    TcpOptimizer,
    /// A synthetic kind used by the large-scale simulations, which need
    /// `k` distinct kinds for a parameter-`k` topology (paper §6.3).
    Synthetic(u16),
}

impl MiddleboxKind {
    /// Enumerates `n` distinct kinds, using the named kinds first and
    /// synthetic kinds beyond them. Used by topology generators.
    pub fn enumerate(n: usize) -> Vec<MiddleboxKind> {
        const NAMED: [MiddleboxKind; 10] = [
            MiddleboxKind::Firewall,
            MiddleboxKind::Transcoder,
            MiddleboxKind::EchoCanceller,
            MiddleboxKind::IntrusionDetection,
            MiddleboxKind::WebCache,
            MiddleboxKind::LawfulIntercept,
            MiddleboxKind::Nat,
            MiddleboxKind::BillingGateway,
            MiddleboxKind::ContentFilter,
            MiddleboxKind::TcpOptimizer,
        ];
        (0..n)
            .map(|i| {
                if i < NAMED.len() {
                    NAMED[i]
                } else {
                    MiddleboxKind::Synthetic((i - NAMED.len()) as u16)
                }
            })
            .collect()
    }
}

impl fmt::Display for MiddleboxKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddleboxKind::Synthetic(i) => write!(f, "synthetic-{i}"),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn id_round_trips_through_index() {
        let sw = SwitchId(42);
        assert_eq!(SwitchId::from_index(sw.index()), sw);
        let ue = UeId(9);
        assert_eq!(UeId::from_index(ue.index()), ue);
    }

    #[test]
    fn id_display_includes_prefix() {
        assert_eq!(SwitchId(3).to_string(), "sw3");
        assert_eq!(BaseStationId(7).to_string(), "bs7");
        assert_eq!(UeImsi(123).to_string(), "imsi123");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(SwitchId(1) < SwitchId(2));
        assert!(FlowId(10) > FlowId(9));
    }

    #[test]
    fn middlebox_kinds_enumerate_distinct() {
        let kinds = MiddleboxKind::enumerate(25);
        assert_eq!(kinds.len(), 25);
        let set: HashSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), 25, "kinds must be pairwise distinct");
    }

    #[test]
    fn middlebox_kind_display_is_lowercase() {
        assert_eq!(MiddleboxKind::Firewall.to_string(), "firewall");
        assert_eq!(MiddleboxKind::Synthetic(2).to_string(), "synthetic-2");
    }

    #[test]
    fn enumerate_starts_with_named_kinds() {
        let kinds = MiddleboxKind::enumerate(3);
        assert_eq!(
            kinds,
            vec![
                MiddleboxKind::Firewall,
                MiddleboxKind::Transcoder,
                MiddleboxKind::EchoCanceller
            ]
        );
    }
}
