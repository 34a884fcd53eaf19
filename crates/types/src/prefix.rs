//! IPv4 prefixes with the aggregation operations Algorithm 1 relies on.
//!
//! SoftCell's multi-dimensional aggregation merges two forwarding rules if
//! and only if their location prefixes are *contiguous* (paper §3.2) — i.e.
//! they are siblings under a common parent prefix. [`Ipv4Prefix`] provides
//! exactly those operations: containment, sibling/parent navigation and
//! pairwise aggregation.

use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::error::Error;

/// An IPv4 prefix (`address/length`), always stored in canonical form with
/// all host bits cleared.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// The all-matching prefix `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { bits: 0, len: 0 };

    /// Creates a prefix, clearing any set host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub const fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        let bits = u32::from_be_bytes(addr.octets());
        Ipv4Prefix {
            bits: bits & Self::mask(len),
            len,
        }
    }

    /// Creates a prefix from raw big-endian bits.
    pub const fn from_bits(bits: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        Ipv4Prefix {
            bits: bits & Self::mask(len),
            len,
        }
    }

    /// A host prefix (`/32`) for a single address.
    pub const fn host(addr: Ipv4Addr) -> Self {
        Self::new(addr, 32)
    }

    /// The network mask for a prefix length.
    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The base address of the prefix.
    pub const fn network(&self) -> Ipv4Addr {
        let o = self.bits.to_be_bytes();
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// The raw big-endian network bits.
    pub const fn raw_bits(&self) -> u32 {
        self.bits
    }

    /// The network mask: `len` leading one bits.
    pub const fn netmask(&self) -> u32 {
        Self::mask(self.len)
    }

    /// Number of addresses covered by this prefix.
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside this prefix.
    pub const fn contains(&self, addr: Ipv4Addr) -> bool {
        let a = u32::from_be_bytes(addr.octets());
        (a & Self::mask(self.len)) == self.bits
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub const fn covers(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && (other.bits & Self::mask(self.len)) == self.bits
    }

    /// Whether the two prefixes share any address.
    pub const fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The enclosing prefix one bit shorter, or `None` for `/0`.
    pub const fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::from_bits(self.bits, self.len - 1))
        }
    }

    /// The sibling prefix (same length, last prefix bit flipped), or `None`
    /// for `/0` which has no sibling.
    pub const fn sibling(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            let flip = 1u32 << (32 - self.len);
            Some(Ipv4Prefix {
                bits: self.bits ^ flip,
                len: self.len,
            })
        }
    }

    /// Whether `self` and `other` are contiguous — equal-length siblings
    /// that can be replaced by their common parent. This is the exact
    /// merge condition of Algorithm 1 ("aggregate two rules if and only if
    /// their location prefixes are contiguous", paper §3.2).
    pub fn is_contiguous_with(&self, other: &Ipv4Prefix) -> bool {
        self.len == other.len && self.len > 0 && self.sibling() == Some(*other)
    }

    /// Merges two contiguous prefixes into their parent; `None` if they are
    /// not contiguous.
    pub fn aggregate(&self, other: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        if self.is_contiguous_with(other) {
            self.parent()
        } else {
            None
        }
    }

    /// The two child prefixes one bit longer, or `None` for `/32`.
    pub const fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            None
        } else {
            let left = Ipv4Prefix {
                bits: self.bits,
                len: self.len + 1,
            };
            let flip = 1u32 << (32 - (self.len + 1));
            let right = Ipv4Prefix {
                bits: self.bits | flip,
                len: self.len + 1,
            };
            Some((left, right))
        }
    }

    /// The first (lowest) address in the prefix.
    pub const fn first(&self) -> Ipv4Addr {
        self.network()
    }

    /// The last (highest) address in the prefix.
    pub const fn last(&self) -> Ipv4Addr {
        let o = (self.bits | !Self::mask(self.len)).to_be_bytes();
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| Error::Parse(format!("missing '/' in prefix {s:?}")))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|e| Error::Parse(format!("bad address in prefix {s:?}: {e}")))?;
        let len: u8 = len
            .parse()
            .map_err(|e| Error::Parse(format!("bad length in prefix {s:?}: {e}")))?;
        if len > 32 {
            return Err(Error::Parse(format!("prefix length {len} > 32")));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

impl From<Ipv4Addr> for Ipv4Prefix {
    fn from(addr: Ipv4Addr) -> Self {
        Ipv4Prefix::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_form_clears_host_bits() {
        let pref = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(pref.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(pref.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn contains_and_covers() {
        let pref = p("10.0.0.0/8");
        assert!(pref.contains(Ipv4Addr::new(10, 200, 3, 4)));
        assert!(!pref.contains(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(pref.covers(&p("10.1.0.0/16")));
        assert!(!pref.covers(&p("0.0.0.0/0")));
        assert!(p("0.0.0.0/0").covers(&pref));
    }

    #[test]
    fn sibling_and_parent() {
        let left = p("10.0.0.0/9");
        let right = p("10.128.0.0/9");
        assert_eq!(left.sibling(), Some(right));
        assert_eq!(right.sibling(), Some(left));
        assert_eq!(left.parent(), Some(p("10.0.0.0/8")));
        assert!(Ipv4Prefix::DEFAULT.sibling().is_none());
        assert!(Ipv4Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn aggregation_requires_contiguity() {
        let a = p("10.0.0.0/24");
        let b = p("10.0.1.0/24");
        let c = p("10.0.2.0/24");
        assert_eq!(a.aggregate(&b), Some(p("10.0.0.0/23")));
        // b and c are adjacent numerically but not siblings: 1 and 2 differ
        // in two bits under /23.
        assert_eq!(b.aggregate(&c), None);
        // different lengths never aggregate
        assert_eq!(a.aggregate(&p("10.0.0.0/25")), None);
        // a prefix does not aggregate with itself
        assert_eq!(a.aggregate(&a), None);
    }

    #[test]
    fn children_invert_parent() {
        let pref = p("192.168.0.0/16");
        let (l, r) = pref.children().unwrap();
        assert_eq!(l.parent(), Some(pref));
        assert_eq!(r.parent(), Some(pref));
        assert_eq!(l.aggregate(&r), Some(pref));
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn first_last_span() {
        let pref = p("10.0.0.0/30");
        assert_eq!(pref.first(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(pref.last(), Ipv4Addr::new(10, 0, 0, 3));
        assert_eq!(pref.size(), 4);
        assert_eq!(Ipv4Prefix::DEFAULT.size(), 1 << 32);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("300.0.0.0/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.7/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    proptest! {
        #[test]
        fn prop_contains_consistent_with_covers(bits in any::<u32>(), len in 0u8..=32, host in any::<u32>()) {
            let pref = Ipv4Prefix::from_bits(bits, len);
            let addr = Ipv4Addr::from(host);
            prop_assert_eq!(
                pref.contains(addr),
                pref.covers(&Ipv4Prefix::host(addr))
            );
        }

        #[test]
        fn prop_sibling_is_involutive(bits in any::<u32>(), len in 1u8..=32) {
            let pref = Ipv4Prefix::from_bits(bits, len);
            prop_assert_eq!(pref.sibling().unwrap().sibling().unwrap(), pref);
        }

        #[test]
        fn prop_aggregate_covers_both(bits in any::<u32>(), len in 1u8..=32) {
            let a = Ipv4Prefix::from_bits(bits, len);
            let b = a.sibling().unwrap();
            let parent = a.aggregate(&b).unwrap();
            prop_assert!(parent.covers(&a));
            prop_assert!(parent.covers(&b));
            prop_assert_eq!(parent.size(), a.size() + b.size());
        }

        #[test]
        fn prop_parent_covers_exactly_children(bits in any::<u32>(), len in 0u8..32) {
            let pref = Ipv4Prefix::from_bits(bits, len);
            let (l, r) = pref.children().unwrap();
            prop_assert!(pref.covers(&l) && pref.covers(&r));
            prop_assert!(!l.overlaps(&r));
        }

        #[test]
        fn prop_display_round_trips(bits in any::<u32>(), len in 0u8..=32) {
            let pref = Ipv4Prefix::from_bits(bits, len);
            let parsed: Ipv4Prefix = pref.to_string().parse().unwrap();
            prop_assert_eq!(parsed, pref);
        }
    }
}
