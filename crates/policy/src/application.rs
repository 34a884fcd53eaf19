//! Application types and traffic classification.
//!
//! Service policies predicate on *application types* — "web traffic (for
//! caching), video traffic (for transcoding), or specific applications
//! for which the developers pay the carrier" (paper §1). The controller
//! "handles low-level details like ... application identification"
//! (§2.2); here identification is a deterministic port/protocol signature
//! table, which is also how classifier entries are expressed to access
//! switches (§4.2 example matches on `dst_port=80`).

use serde::Serialize;
use std::fmt;

use softcell_packet::Protocol;

/// Application classes a policy can name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum ApplicationType {
    /// Web browsing (HTTP/HTTPS).
    Web,
    /// Real-time streaming video (RTSP/RTMP).
    StreamingVideo,
    /// Voice over IP (SIP signalling + media).
    Voip,
    /// DNS lookups.
    Dns,
    /// Email (SMTP/IMAP).
    Email,
    /// M2M fleet tracking (MQTT).
    FleetTracking,
    /// Anything unrecognized.
    Unknown,
}

impl ApplicationType {
    /// All application types, for exhaustive per-UE compilation.
    pub const ALL: [ApplicationType; 7] = [
        ApplicationType::Web,
        ApplicationType::StreamingVideo,
        ApplicationType::Voip,
        ApplicationType::Dns,
        ApplicationType::Email,
        ApplicationType::FleetTracking,
        ApplicationType::Unknown,
    ];
}

impl fmt::Display for ApplicationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApplicationType::Web => "web",
            ApplicationType::StreamingVideo => "video",
            ApplicationType::Voip => "voip",
            ApplicationType::Dns => "dns",
            ApplicationType::Email => "email",
            ApplicationType::FleetTracking => "fleet-tracking",
            ApplicationType::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// One (protocol, destination port) signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct PortSignature {
    /// Transport protocol.
    pub proto: Protocol,
    /// Well-known destination port.
    pub dst_port: u16,
}

/// Classifies flows into application types by port signature.
#[derive(Clone, Debug, Serialize)]
pub struct AppClassifier {
    signatures: Vec<(PortSignature, ApplicationType)>,
}

impl Default for AppClassifier {
    fn default() -> Self {
        use ApplicationType::*;
        use Protocol::*;
        let table = [
            (Tcp, 80, Web),
            (Tcp, 443, Web),
            (Tcp, 8080, Web),
            (Tcp, 554, StreamingVideo),
            (Tcp, 1935, StreamingVideo),
            (Udp, 554, StreamingVideo),
            (Tcp, 5060, Voip),
            (Udp, 5060, Voip),
            (Udp, 5061, Voip),
            (Udp, 53, Dns),
            (Tcp, 53, Dns),
            (Tcp, 25, Email),
            (Tcp, 143, Email),
            (Tcp, 993, Email),
            (Tcp, 8883, FleetTracking),
            (Tcp, 1883, FleetTracking),
        ];
        AppClassifier {
            signatures: table
                .into_iter()
                .map(|(proto, dst_port, app)| (PortSignature { proto, dst_port }, app))
                .collect(),
        }
    }
}

impl AppClassifier {
    /// Classifies a flow by protocol and destination port.
    pub fn classify(&self, proto: Protocol, dst_port: u16) -> ApplicationType {
        self.signatures
            .iter()
            .find(|(sig, _)| sig.proto == proto && sig.dst_port == dst_port)
            .map(|(_, app)| *app)
            .unwrap_or(ApplicationType::Unknown)
    }

    /// All signatures mapping to a given application — used to compile a
    /// per-UE classifier entry into concrete port matches for the access
    /// switch.
    pub fn signatures_of(&self, app: ApplicationType) -> impl Iterator<Item = PortSignature> + '_ {
        self.signatures
            .iter()
            .filter(move |(_, a)| *a == app)
            .map(|(sig, _)| *sig)
    }

    /// Number of signatures in the table — the most entries a compiled
    /// per-UE classifier can hold.
    pub fn signature_count(&self) -> usize {
        self.signatures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_known_ports() {
        let c = AppClassifier::default();
        assert_eq!(c.classify(Protocol::Tcp, 443), ApplicationType::Web);
        assert_eq!(c.classify(Protocol::Udp, 53), ApplicationType::Dns);
        assert_eq!(c.classify(Protocol::Udp, 5060), ApplicationType::Voip);
        assert_eq!(
            c.classify(Protocol::Tcp, 8883),
            ApplicationType::FleetTracking
        );
    }

    #[test]
    fn unknown_port_is_unknown() {
        let c = AppClassifier::default();
        assert_eq!(c.classify(Protocol::Tcp, 31337), ApplicationType::Unknown);
        // protocol matters: TCP 5061 is not in the table, UDP 5061 is
        assert_eq!(c.classify(Protocol::Tcp, 5061), ApplicationType::Unknown);
    }

    #[test]
    fn signatures_round_trip() {
        let c = AppClassifier::default();
        for app in ApplicationType::ALL {
            for sig in c.signatures_of(app) {
                assert_eq!(c.classify(sig.proto, sig.dst_port), app);
            }
        }
        assert!(c.signatures_of(ApplicationType::Unknown).next().is_none());
    }

    #[test]
    fn all_is_exhaustive_and_distinct() {
        let set: std::collections::HashSet<_> = ApplicationType::ALL.iter().collect();
        assert_eq!(set.len(), ApplicationType::ALL.len());
    }
}
