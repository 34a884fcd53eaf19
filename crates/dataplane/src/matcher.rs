//! Match structures and the three SoftCell rule types.
//!
//! A [`Match`] wildcards any subset of: input port, source/destination IP
//! prefix, masked source/destination transport port, protocol and
//! consistent-update version. SoftCell's policy tags live in the high bits
//! of a transport port (uplink: source port; downlink: destination port —
//! return traffic mirrors the embedding, paper §4.1), so "match on tag"
//! compiles to a masked port match via
//! [`PortEmbedding::tag_match`](softcell_types::PortEmbedding::tag_match).
//!
//! The paper's §7 classifies core-switch entries into three types with
//! decreasing priority — Type 1 `tag+prefix` (needs TCAM), Type 2 `tag`
//! only (exact match), Type 3 `prefix` only (LPM). [`RuleType`] derives
//! the type from a match's shape so tables can report how much of each
//! (scarce) memory technology a rule set would consume.
//!
//! A TCAM matches one key, extracted once by the parser, against
//! mask/value words. [`TcamEntry`] is a match compiled to those words and
//! `LookupKey::words` is the key; `FlowTable::lookup` scans the first
//! with the second. [`Match::matches`] stays the field-by-field
//! reference the compiled form must agree with.

use serde::Serialize;
use std::fmt;

use softcell_packet::{HeaderView, Protocol};
use softcell_types::{Ipv4Prefix, PolicyTag, PortEmbedding, PortNo};

/// Direction of the fields a rule matches on. Uplink rules classify on
/// *source* fields (the access edge embedded state there); downlink rules
/// classify on *destination* fields (the Internet echoed the state back).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Direction {
    /// UE → Internet: match source address/port.
    Uplink,
    /// Internet → UE: match destination address/port.
    Downlink,
}

/// A masked 16-bit match: `port & mask == value`.
pub type PortMask = (u16, u16);

/// An OpenFlow-style wildcard match.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize)]
pub struct Match {
    /// Input port the packet arrived on (middlebox return traffic is
    /// identified this way, paper §3.1 footnote).
    pub in_port: Option<PortNo>,
    /// Source IP prefix.
    pub src_prefix: Option<Ipv4Prefix>,
    /// Destination IP prefix.
    pub dst_prefix: Option<Ipv4Prefix>,
    /// Masked source-port match.
    pub src_port: Option<PortMask>,
    /// Masked destination-port match.
    pub dst_port: Option<PortMask>,
    /// Transport protocol.
    pub proto: Option<Protocol>,
    /// Consistent-update version stamp (Reitblatt-style two-phase
    /// updates; packets are stamped at the ingress edge).
    pub version: Option<u32>,
}

/// Everything a lookup provides to the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct LookupKey {
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Parsed packet headers.
    pub view: HeaderView,
    /// The configuration version stamped on the packet at ingress.
    pub version: u32,
}

impl LookupKey {
    /// The key as the three words a [`TcamEntry`] matches: the address
    /// pair; the ports, in-port and protocol; the version.
    #[inline]
    pub(crate) fn words(&self) -> [u64; 3] {
        let t = &self.view.tuple;
        [
            u64::from(u32::from(t.src)) << 32 | u64::from(u32::from(t.dst)),
            u64::from(t.src_port) << 48
                | u64::from(t.dst_port) << 32
                | u64::from(self.in_port.0) << 16
                | u64::from(t.proto.number()),
            u64::from(self.version),
        ]
    }
}

/// A [`Match`] compiled to mask/value words, laid out as
/// `LookupKey::words`: a key matches when every bit under `mask`
/// equals `value`. A wildcarded field is zero in both. A port match's
/// value bits outside its mask stay in `value`, so, as in
/// [`Match::matches`], such a match fires on nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcamEntry {
    mask: [u64; 3],
    value: [u64; 3],
}

impl TcamEntry {
    /// Compiles a match.
    pub(crate) fn of(m: &Match) -> TcamEntry {
        let mut e = TcamEntry::default();
        let mut field = |word: usize, shift: u32, mask: u64, value: u64| {
            e.mask[word] |= mask << shift;
            e.value[word] |= value << shift;
        };
        let prefix = |p: Ipv4Prefix| (u64::from(p.netmask()), u64::from(p.raw_bits()));
        if let Some((mask, value)) = m.src_prefix.map(prefix) {
            field(0, 32, mask, value);
        }
        if let Some((mask, value)) = m.dst_prefix.map(prefix) {
            field(0, 0, mask, value);
        }
        if let Some((value, mask)) = m.src_port {
            field(1, 48, u64::from(mask), u64::from(value));
        }
        if let Some((value, mask)) = m.dst_port {
            field(1, 32, u64::from(mask), u64::from(value));
        }
        if let Some(p) = m.in_port {
            field(1, 16, 0xffff, u64::from(p.0));
        }
        if let Some(p) = m.proto {
            field(1, 0, 0xff, u64::from(p.number()));
        }
        if let Some(v) = m.version {
            field(2, 0, 0xffff_ffff, u64::from(v));
        }
        e
    }

    /// Whether the entry fires on a key's words: `(k & m) ^ v == 0` on
    /// each word, without a branch.
    #[inline]
    pub(crate) fn matches(&self, key: &[u64; 3]) -> bool {
        ((key[0] & self.mask[0]) ^ self.value[0])
            | ((key[1] & self.mask[1]) ^ self.value[1])
            | ((key[2] & self.mask[2]) ^ self.value[2])
            == 0
    }
}

impl Match {
    /// The match that fires on everything.
    pub const ANY: Match = Match {
        in_port: None,
        src_prefix: None,
        dst_prefix: None,
        src_port: None,
        dst_port: None,
        proto: None,
        version: None,
    };

    /// A tag-only match in the given direction.
    pub fn tag(dir: Direction, tag: PolicyTag, ports: &PortEmbedding) -> Match {
        let pm = Some(ports.tag_match(tag));
        match dir {
            Direction::Uplink => Match {
                src_port: pm,
                ..Match::ANY
            },
            Direction::Downlink => Match {
                dst_port: pm,
                ..Match::ANY
            },
        }
    }

    /// A prefix-only match (location routing) in the given direction.
    pub fn prefix(dir: Direction, prefix: Ipv4Prefix) -> Match {
        match dir {
            Direction::Uplink => Match {
                src_prefix: Some(prefix),
                ..Match::ANY
            },
            Direction::Downlink => Match {
                dst_prefix: Some(prefix),
                ..Match::ANY
            },
        }
    }

    /// A tag+prefix match (the multi-dimensional Type 1 entry).
    pub fn tag_and_prefix(
        dir: Direction,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        ports: &PortEmbedding,
    ) -> Match {
        let mut m = Match::tag(dir, tag, ports);
        match dir {
            Direction::Uplink => m.src_prefix = Some(prefix),
            Direction::Downlink => m.dst_prefix = Some(prefix),
        }
        m
    }

    /// Restricts a match to a given input port (middlebox return leg).
    pub fn from_port(mut self, in_port: PortNo) -> Match {
        self.in_port = Some(in_port);
        self
    }

    /// Restricts a match to a consistent-update version.
    pub fn with_version(mut self, version: u32) -> Match {
        self.version = Some(version);
        self
    }

    /// Whether this match fires on the lookup key.
    #[inline]
    pub fn matches(&self, key: &LookupKey) -> bool {
        if let Some(p) = self.in_port {
            if p != key.in_port {
                return false;
            }
        }
        if let Some(v) = self.version {
            if v != key.version {
                return false;
            }
        }
        if let Some(pr) = self.proto {
            if pr != key.view.tuple.proto {
                return false;
            }
        }
        if let Some(pref) = self.src_prefix {
            if !pref.contains(key.view.src()) {
                return false;
            }
        }
        if let Some(pref) = self.dst_prefix {
            if !pref.contains(key.view.dst()) {
                return false;
            }
        }
        if let Some((value, mask)) = self.src_port {
            if key.view.src_port() & mask != value {
                return false;
            }
        }
        if let Some((value, mask)) = self.dst_port {
            if key.view.dst_port() & mask != value {
                return false;
            }
        }
        true
    }

    /// The IP prefix this match constrains (whichever direction), if any.
    pub fn location(&self) -> Option<Ipv4Prefix> {
        self.src_prefix.or(self.dst_prefix)
    }

    /// Whether the match constrains a transport port (i.e. carries a tag).
    pub fn has_tag(&self) -> bool {
        self.src_port.is_some() || self.dst_port.is_some()
    }

    /// The direction implied by the constrained fields, if unambiguous.
    pub fn direction(&self) -> Option<Direction> {
        let up = self.src_prefix.is_some() || self.src_port.is_some();
        let down = self.dst_prefix.is_some() || self.dst_port.is_some();
        match (up, down) {
            (true, false) => Some(Direction::Uplink),
            (false, true) => Some(Direction::Downlink),
            _ => None,
        }
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in_port={p}"));
        }
        if let Some(p) = self.src_prefix {
            parts.push(format!("src={p}"));
        }
        if let Some(p) = self.dst_prefix {
            parts.push(format!("dst={p}"));
        }
        if let Some((v, m)) = self.src_port {
            parts.push(format!("src_port={v:#06x}/{m:#06x}"));
        }
        if let Some((v, m)) = self.dst_port {
            parts.push(format!("dst_port={v:#06x}/{m:#06x}"));
        }
        if let Some(p) = self.proto {
            parts.push(format!("proto={p}"));
        }
        if let Some(v) = self.version {
            parts.push(format!("ver={v}"));
        }
        if parts.is_empty() {
            write!(f, "any")
        } else {
            write!(f, "{}", parts.join(","))
        }
    }
}

/// The paper's three entry types (§7), derived from a match's shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum RuleType {
    /// Tag + prefix: needs TCAM. Highest priority class.
    TagAndPrefix,
    /// Tag only: exact-match memory.
    TagOnly,
    /// Prefix only: LPM memory. Lowest priority class.
    PrefixOnly,
    /// Anything else (microflow-ish or exotic) — counted separately.
    Other,
}

impl RuleType {
    /// Classifies a match.
    pub fn of(m: &Match) -> RuleType {
        match (m.has_tag(), m.location().is_some()) {
            (true, true) => RuleType::TagAndPrefix,
            (true, false) => RuleType::TagOnly,
            (false, true) => RuleType::PrefixOnly,
            (false, false) => RuleType::Other,
        }
    }

    /// The conventional priority band for this type, matching the §7
    /// ordering (Type 1 > Type 2 > Type 3). Within the LPM band, longer
    /// prefixes get higher priority (standard LPM behaviour).
    pub fn base_priority(&self) -> u16 {
        match self {
            RuleType::TagAndPrefix => 30_000,
            RuleType::TagOnly => 20_000,
            RuleType::PrefixOnly => 10_000,
            RuleType::Other => 1_000,
        }
    }
}

/// Priority bump for input-port-qualified rules. An in-port qualifier
/// marks a more specific forwarding *context* (middlebox return legs,
/// loop disambiguation — paper §3.1/§3.2), so a qualified rule must beat
/// every unqualified policy rule of any type: a returning packet that
/// still matched its unqualified to-middlebox rule would bounce into the
/// middlebox forever. 25 000 places the lowest qualified band (Type 3 +
/// bump = 35 000) above the highest unqualified one (Type 1 + /32 =
/// 30 032).
pub const QUALIFIED_BUMP: u16 = 25_000;

/// The conventional priority for a match: its type band plus the prefix
/// length (so LPM falls out of straight priority ordering), plus the
/// input-port qualification bump.
pub fn conventional_priority(m: &Match) -> u16 {
    let ty = RuleType::of(m);
    let len = m.location().map(|p| p.len() as u16).unwrap_or(0);
    let inport_bump = if m.in_port.is_some() {
        QUALIFIED_BUMP
    } else {
        0
    };
    ty.base_priority() + len + inport_bump
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_packet::{build_flow_packet, FiveTuple};
    use std::net::Ipv4Addr;

    fn ports() -> PortEmbedding {
        PortEmbedding::default_embedding()
    }

    fn key(src: Ipv4Addr, dst: Ipv4Addr, sp: u16, dp: u16, in_port: u16) -> LookupKey {
        let t = FiveTuple {
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            proto: Protocol::Tcp,
        };
        let buf = build_flow_packet(t, 64, 0, &[]);
        LookupKey {
            in_port: PortNo(in_port),
            view: HeaderView::parse(&buf).unwrap(),
            version: 0,
        }
    }

    #[test]
    fn any_matches_everything() {
        let k = key(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1,
            2,
            3,
        );
        assert!(Match::ANY.matches(&k));
    }

    #[test]
    fn downlink_tag_matches_embedded_dst_port() {
        let e = ports();
        let tag = PolicyTag(5);
        let m = Match::tag(Direction::Downlink, tag, &e);
        let embedded = e.encode(tag, 9).unwrap();
        let k = key(
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            embedded,
            1,
        );
        assert!(m.matches(&k));
        let other = e.encode(PolicyTag(6), 9).unwrap();
        let k2 = key(
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            other,
            1,
        );
        assert!(!m.matches(&k2));
    }

    #[test]
    fn uplink_prefix_matches_src() {
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let m = Match::prefix(Direction::Uplink, pref);
        let hit = key(
            Ipv4Addr::new(10, 0, 1, 200),
            Ipv4Addr::new(8, 8, 8, 8),
            1,
            2,
            1,
        );
        let miss = key(
            Ipv4Addr::new(10, 0, 2, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            1,
            2,
            1,
        );
        assert!(m.matches(&hit));
        assert!(!m.matches(&miss));
    }

    #[test]
    fn in_port_and_version_qualify() {
        let m = Match::ANY.from_port(PortNo(7)).with_version(3);
        let mut k = key(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            7,
        );
        assert!(!m.matches(&k), "version 0 != 3");
        k.version = 3;
        assert!(m.matches(&k));
        k.in_port = PortNo(8);
        assert!(!m.matches(&k));
    }

    #[test]
    fn rule_type_classification() {
        let e = ports();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        assert_eq!(
            RuleType::of(&Match::tag_and_prefix(
                Direction::Downlink,
                PolicyTag(1),
                pref,
                &e
            )),
            RuleType::TagAndPrefix
        );
        assert_eq!(
            RuleType::of(&Match::tag(Direction::Uplink, PolicyTag(1), &e)),
            RuleType::TagOnly
        );
        assert_eq!(
            RuleType::of(&Match::prefix(Direction::Downlink, pref)),
            RuleType::PrefixOnly
        );
        assert_eq!(RuleType::of(&Match::ANY), RuleType::Other);
    }

    #[test]
    fn priority_bands_respect_type_order() {
        let e = ports();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let t1 = conventional_priority(&Match::tag_and_prefix(
            Direction::Downlink,
            PolicyTag(1),
            pref,
            &e,
        ));
        let t2 = conventional_priority(&Match::tag(Direction::Downlink, PolicyTag(1), &e));
        let t3 = conventional_priority(&Match::prefix(Direction::Downlink, pref));
        assert!(t1 > t2 && t2 > t3, "Type1 > Type2 > Type3 (§7)");
        // LPM inside Type 3: longer prefix wins
        let t3_short = conventional_priority(&Match::prefix(
            Direction::Downlink,
            "10.0.0.0/16".parse().unwrap(),
        ));
        assert!(t3 > t3_short);
    }

    #[test]
    fn qualified_rules_beat_all_unqualified_policy_rules() {
        let e = ports();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        // weakest qualified rule: Type 3, /0-ish short prefix, in-port
        let weakest_qualified = conventional_priority(
            &Match::prefix(Direction::Downlink, "10.0.0.0/8".parse().unwrap()).from_port(PortNo(4)),
        );
        // strongest unqualified rule: Type 1 with a /32
        let strongest_unqualified = conventional_priority(&Match::tag_and_prefix(
            Direction::Downlink,
            PolicyTag(1),
            "10.0.0.1/32".parse().unwrap(),
            &e,
        ));
        assert!(
            weakest_qualified > strongest_unqualified,
            "middlebox return legs must shadow to-middlebox rules"
        );
        let _ = pref;
    }

    #[test]
    fn direction_inference() {
        let e = ports();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        assert_eq!(
            Match::prefix(Direction::Uplink, pref).direction(),
            Some(Direction::Uplink)
        );
        assert_eq!(
            Match::tag(Direction::Downlink, PolicyTag(0), &e).direction(),
            Some(Direction::Downlink)
        );
        assert_eq!(Match::ANY.direction(), None);
    }

    #[test]
    fn display_is_readable() {
        let e = ports();
        let m = Match::tag_and_prefix(
            Direction::Downlink,
            PolicyTag(1),
            "10.0.0.0/23".parse().unwrap(),
            &e,
        )
        .from_port(PortNo(2));
        let s = m.to_string();
        assert!(s.contains("dst=10.0.0.0/23"));
        assert!(s.contains("in_port=p2"));
        assert_eq!(Match::ANY.to_string(), "any");
    }
}
