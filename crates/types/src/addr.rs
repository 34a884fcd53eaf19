//! Hierarchical location-dependent addressing (LocIP) and header embedding.
//!
//! SoftCell gives every attached UE *two* addresses (paper §3.1):
//!
//! * a **permanent IP address**, allocated via DHCP on first attach, which
//!   the UE itself sees and which never changes; and
//! * a **location-dependent address** ([`LocIp`]) used for routing inside
//!   the core and towards the Internet, laid out hierarchically as
//!   `[carrier prefix | base-station ID | UE ID]` so that core switches can
//!   aggregate on base-station prefixes.
//!
//! The access switch translates between the two, and additionally embeds
//! the **policy tag** in the transport source port (paper §4.1, Fig. 4), so
//! that return traffic from the Internet implicitly carries the
//! classification result and the gateway edge stays dumb.
//!
//! [`AddressingScheme`] captures the bit split and performs the
//! encode/decode; [`PortEmbedding`] does the same for the tag-in-port
//! layout.

use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::{Error, Result};
use crate::ids::{BaseStationId, UeId};
use crate::prefix::Ipv4Prefix;
use crate::tag::PolicyTag;

/// A location-dependent address: the (base station, UE) pair a LocIP
/// encodes, before being serialized into an `Ipv4Addr` by a scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct LocIp {
    /// The base station the UE is currently attached to.
    pub base_station: BaseStationId,
    /// The UE's local identifier at that base station.
    pub ue: UeId,
}

impl LocIp {
    /// Convenience constructor.
    pub const fn new(base_station: BaseStationId, ue: UeId) -> Self {
        LocIp { base_station, ue }
    }
}

impl fmt::Display for LocIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.base_station, self.ue)
    }
}

/// The carrier-wide layout of LocIP addresses: a fixed carrier prefix,
/// `bs_bits` bits of base-station ID and `ue_bits` bits of local UE ID.
///
/// ```text
///  |<-- carrier prefix -->|<-- bs_bits -->|<-- ue_bits -->|
///  +----------------------+---------------+---------------+
///  |   e.g. 10/8          | base station  |    UE ID      |
///  +----------------------+---------------+---------------+
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct AddressingScheme {
    carrier: Ipv4Prefix,
    bs_bits: u8,
    ue_bits: u8,
}

impl AddressingScheme {
    /// Creates a scheme. The three fields must exactly fill 32 bits:
    /// `carrier.len() + bs_bits + ue_bits == 32`.
    pub fn new(carrier: Ipv4Prefix, bs_bits: u8, ue_bits: u8) -> Result<Self> {
        let total = carrier.len() as u32 + bs_bits as u32 + ue_bits as u32;
        if total != 32 {
            return Err(Error::Config(format!(
                "addressing scheme must fill 32 bits, got {} (carrier /{} + {} bs + {} ue)",
                total,
                carrier.len(),
                bs_bits,
                ue_bits
            )));
        }
        if bs_bits == 0 || ue_bits == 0 {
            return Err(Error::Config(
                "bs_bits and ue_bits must both be nonzero".into(),
            ));
        }
        if bs_bits > 24 || ue_bits > 16 {
            return Err(Error::Config(format!(
                "unreasonable field widths: {bs_bits} bs bits, {ue_bits} ue bits"
            )));
        }
        Ok(AddressingScheme {
            carrier,
            bs_bits,
            ue_bits,
        })
    }

    /// The default scheme used throughout the workspace: carrier `10/8`,
    /// 15 bits of base station (32 768 stations — enough for the paper's
    /// largest k=20 topology with 20 000 stations) and 9 bits of UE
    /// (512 simultaneously-attached UEs per station, matching the measured
    /// 99.999-percentile of 514 active UEs within rounding).
    pub fn default_scheme() -> Self {
        AddressingScheme::new(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8), 15, 9)
            .expect("default scheme is valid")
    }

    /// A scheme sized for a given station count and per-station UE count.
    /// Leftover bits go to the base-station field (more station headroom).
    pub fn sized_for(carrier: Ipv4Prefix, stations: usize, ues_per_station: usize) -> Result<Self> {
        let bs_needed = usize::BITS - (stations.max(2) - 1).leading_zeros();
        let ue_needed = usize::BITS - (ues_per_station.max(2) - 1).leading_zeros();
        let host_bits = 32 - carrier.len() as u32;
        if bs_needed + ue_needed > host_bits || ue_needed > 16 || bs_needed > 24 {
            return Err(Error::Config(format!(
                "cannot fit {stations} stations x {ues_per_station} UEs under {carrier}"
            )));
        }
        let ue_bits = ue_needed.max(host_bits.saturating_sub(24)); // keep bs_bits <= 24
        let bs_bits = host_bits - ue_bits;
        AddressingScheme::new(carrier, bs_bits as u8, ue_bits as u8)
    }

    /// The carrier's public prefix.
    pub const fn carrier(&self) -> Ipv4Prefix {
        self.carrier
    }

    /// The number of base stations this scheme can address.
    pub const fn max_base_stations(&self) -> u32 {
        1 << self.bs_bits
    }

    /// The number of UEs addressable per base station.
    pub const fn max_ues_per_station(&self) -> u32 {
        1 << self.ue_bits
    }

    /// The prefix length of a base-station prefix (`32 - ue_bits`).
    pub const fn bs_prefix_len(&self) -> u8 {
        32 - self.ue_bits
    }

    /// The aggregate prefix covering base stations `bs >> shift` — e.g.
    /// `shift = 1` covers a pair of adjacent stations. Used by topology
    /// generators to hand clusters of stations aggregatable blocks.
    pub fn station_block(&self, bs: BaseStationId, shift: u8) -> Result<Ipv4Prefix> {
        let base = self.base_station_prefix(bs)?;
        let mut block = base;
        for _ in 0..shift.min(self.bs_bits) {
            block = block.parent().expect("len > 0 by construction");
        }
        Ok(block)
    }

    /// The IP prefix owned by a base station: all LocIPs of UEs attached
    /// there. This is the "base station ID" dimension of the aggregation.
    pub fn base_station_prefix(&self, bs: BaseStationId) -> Result<Ipv4Prefix> {
        if bs.0 >= self.max_base_stations() {
            return Err(Error::Range(format!(
                "{bs} out of range for {}-bit base-station field",
                self.bs_bits
            )));
        }
        let bits = self.carrier.raw_bits() | (bs.0 << self.ue_bits);
        Ok(Ipv4Prefix::from_bits(bits, self.bs_prefix_len()))
    }

    /// Encodes a LocIP into a routable IPv4 address.
    pub fn encode(&self, loc: LocIp) -> Result<Ipv4Addr> {
        if loc.ue.0 as u32 >= self.max_ues_per_station() {
            return Err(Error::Range(format!(
                "{} out of range for {}-bit UE field",
                loc.ue, self.ue_bits
            )));
        }
        let prefix = self.base_station_prefix(loc.base_station)?;
        Ok(Ipv4Addr::from(prefix.raw_bits() | loc.ue.0 as u32))
    }

    /// Decodes an IPv4 address back into (base station, UE). Fails if the
    /// address is not under the carrier prefix.
    pub fn decode(&self, addr: Ipv4Addr) -> Result<LocIp> {
        if !self.carrier.contains(addr) {
            return Err(Error::Range(format!(
                "{addr} is not a LocIP under carrier {}",
                self.carrier
            )));
        }
        let bits = u32::from(addr);
        let ue_mask = (1u32 << self.ue_bits) - 1;
        let bs_mask = (1u32 << self.bs_bits) - 1;
        Ok(LocIp {
            base_station: BaseStationId((bits >> self.ue_bits) & bs_mask),
            ue: UeId((bits & ue_mask) as u16),
        })
    }

    /// Whether `addr` is a LocIP (i.e. under the carrier prefix).
    pub fn is_loc_ip(&self, addr: Ipv4Addr) -> bool {
        self.carrier.contains(addr)
    }
}

/// Layout of the policy tag inside the 16-bit transport source port
/// (paper §4.1, Fig. 4): the tag occupies the *high* `tag_bits`, the low
/// bits remain available to disambiguate concurrent flows of one UE.
///
/// "UEs do not have many active flows, leaving plenty of room for carrying
/// the policy tag in the port-number field."
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct PortEmbedding {
    tag_bits: u8,
}

impl PortEmbedding {
    /// Creates an embedding with `tag_bits` bits of tag (1..=12).
    pub fn new(tag_bits: u8) -> Result<Self> {
        if tag_bits == 0 || tag_bits > 12 {
            return Err(Error::Config(format!(
                "tag_bits must be in 1..=12, got {tag_bits}"
            )));
        }
        Ok(PortEmbedding { tag_bits })
    }

    /// Default: 10 bits of tag (1024 policy paths' worth of tags visible
    /// at any switch), 6 bits / 64 slots of concurrent flows per UE.
    pub fn default_embedding() -> Self {
        PortEmbedding { tag_bits: 10 }
    }

    /// Width of the tag field at the top of the port.
    pub const fn tag_bits(&self) -> u8 {
        self.tag_bits
    }

    /// Number of distinct tags representable.
    pub const fn max_tags(&self) -> u16 {
        1 << self.tag_bits
    }

    /// Number of flow slots per (UE, tag).
    pub const fn flow_slots(&self) -> u16 {
        1 << (16 - self.tag_bits)
    }

    /// Encodes `(tag, flow_slot)` into a source port.
    pub fn encode(&self, tag: PolicyTag, flow_slot: u16) -> Result<u16> {
        if tag.0 >= self.max_tags() {
            return Err(Error::Range(format!(
                "{tag} out of range for {}-bit tag field",
                self.tag_bits
            )));
        }
        if flow_slot >= self.flow_slots() {
            return Err(Error::Range(format!(
                "flow slot {flow_slot} out of range ({} slots)",
                self.flow_slots()
            )));
        }
        Ok((tag.0 << (16 - self.tag_bits)) | flow_slot)
    }

    /// Decodes a source port into `(tag, flow_slot)`.
    pub fn decode(&self, port: u16) -> (PolicyTag, u16) {
        let tag = port >> (16 - self.tag_bits);
        let slot = port & (self.flow_slots() - 1);
        (PolicyTag(tag), slot)
    }

    /// The wildcard (value, mask) pair matching *all* ports carrying `tag`,
    /// for installation into TCAM rules.
    pub fn tag_match(&self, tag: PolicyTag) -> (u16, u16) {
        let shift = 16 - self.tag_bits;
        (tag.0 << shift, u16::MAX << shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_scheme_fills_32_bits() {
        let s = AddressingScheme::default_scheme();
        assert_eq!(s.carrier().len(), 8);
        assert_eq!(s.max_base_stations(), 32768);
        assert_eq!(s.max_ues_per_station(), 512);
        assert_eq!(s.bs_prefix_len(), 23);
    }

    #[test]
    fn scheme_rejects_bad_splits() {
        let carrier = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        assert!(AddressingScheme::new(carrier, 10, 10).is_err()); // 28 != 32
        assert!(AddressingScheme::new(carrier, 24, 0).is_err()); // zero ue
    }

    #[test]
    fn encode_decode_example() {
        // Paper §4.2 example: UE 10 at base station with prefix 10.0.0.0/16
        // gets LocIP 10.0.0.10.
        let carrier = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        let s = AddressingScheme::new(carrier, 8, 16).unwrap();
        let loc = LocIp::new(BaseStationId(0), UeId(10));
        assert_eq!(s.encode(loc).unwrap(), Ipv4Addr::new(10, 0, 0, 10));
        assert_eq!(
            s.base_station_prefix(BaseStationId(0)).unwrap().to_string(),
            "10.0.0.0/16"
        );
        assert_eq!(s.decode(Ipv4Addr::new(10, 0, 0, 10)).unwrap(), loc);
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let s = AddressingScheme::default_scheme();
        assert!(s
            .encode(LocIp::new(BaseStationId(1 << 15), UeId(0)))
            .is_err());
        assert!(s.encode(LocIp::new(BaseStationId(0), UeId(512))).is_err());
        assert!(s.decode(Ipv4Addr::new(11, 0, 0, 1)).is_err());
    }

    #[test]
    fn station_prefixes_are_disjoint_and_aggregatable() {
        let s = AddressingScheme::default_scheme();
        let p0 = s.base_station_prefix(BaseStationId(0)).unwrap();
        let p1 = s.base_station_prefix(BaseStationId(1)).unwrap();
        let p2 = s.base_station_prefix(BaseStationId(2)).unwrap();
        assert!(!p0.overlaps(&p1));
        // adjacent even/odd stations are siblings — the topology generator
        // relies on this to give clusters aggregatable blocks
        assert!(p0.is_contiguous_with(&p1));
        assert!(!p1.is_contiguous_with(&p2));
        assert_eq!(
            s.station_block(BaseStationId(0), 1).unwrap(),
            p0.aggregate(&p1).unwrap()
        );
    }

    #[test]
    fn sized_for_picks_minimal_bits() {
        let carrier = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        let s = AddressingScheme::sized_for(carrier, 20000, 500).unwrap();
        assert!(s.max_base_stations() >= 20000);
        assert!(s.max_ues_per_station() >= 500);
        // 20000 stations x 600 UEs needs 15 + 10 = 25 host bits; only 24
        // are available under a /8, so this must be rejected.
        assert!(AddressingScheme::sized_for(carrier, 20000, 600).is_err());
        assert!(AddressingScheme::sized_for(carrier, 1 << 20, 1 << 10).is_err());
    }

    #[test]
    fn port_embedding_round_trip() {
        let e = PortEmbedding::default_embedding();
        assert_eq!(e.max_tags(), 1024);
        assert_eq!(e.flow_slots(), 64);
        let port = e.encode(PolicyTag(2), 5).unwrap();
        assert_eq!(e.decode(port), (PolicyTag(2), 5));
    }

    #[test]
    fn port_tag_match_covers_all_slots() {
        let e = PortEmbedding::default_embedding();
        let (value, mask) = e.tag_match(PolicyTag(7));
        for slot in 0..e.flow_slots() {
            let port = e.encode(PolicyTag(7), slot).unwrap();
            assert_eq!(port & mask, value);
        }
        let other = e.encode(PolicyTag(8), 0).unwrap();
        assert_ne!(other & mask, value);
    }

    proptest! {
        #[test]
        fn prop_locip_round_trips(bs in 0u32..32768, ue in 0u16..512) {
            let s = AddressingScheme::default_scheme();
            let loc = LocIp::new(BaseStationId(bs), UeId(ue));
            let addr = s.encode(loc).unwrap();
            prop_assert!(s.is_loc_ip(addr));
            prop_assert_eq!(s.decode(addr).unwrap(), loc);
        }

        #[test]
        fn prop_locip_lands_in_station_prefix(bs in 0u32..32768, ue in 0u16..512) {
            let s = AddressingScheme::default_scheme();
            let addr = s.encode(LocIp::new(BaseStationId(bs), UeId(ue))).unwrap();
            let pref = s.base_station_prefix(BaseStationId(bs)).unwrap();
            prop_assert!(pref.contains(addr));
        }

        #[test]
        fn prop_port_round_trips(tag in 0u16..1024, slot in 0u16..64) {
            let e = PortEmbedding::default_embedding();
            let port = e.encode(PolicyTag(tag), slot).unwrap();
            prop_assert_eq!(e.decode(port), (PolicyTag(tag), slot));
        }
    }
}
