//! Five-tuples and header views — what the data plane matches on.
//!
//! A [`HeaderView`] is the parsed summary of one wire packet (addresses,
//! ports, protocol, DSCP); switch pipelines match against it without
//! re-walking the byte buffer at every table. A [`FiveTuple`] identifies a
//! flow; its [`FiveTuple::reverse`] is the key property SoftCell leans on:
//! return traffic from the Internet carries the embedded LocIP + tag in
//! its *destination* fields, mirroring what the access edge put in the
//! *source* fields (paper §4.1).

use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;

use softcell_types::{Error, Result};

use crate::ipv4::Ipv4Packet;
use crate::transport::{TcpSegment, UdpDatagram};

/// Transport protocol, restricted to what cellular service policies
/// classify on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum Protocol {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
}

impl Protocol {
    /// IP protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// From an IP protocol number.
    pub fn from_number(n: u8) -> Result<Self> {
        match n {
            6 => Ok(Protocol::Tcp),
            17 => Ok(Protocol::Udp),
            other => Err(Error::Malformed(format!("unsupported IP protocol {other}"))),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
        }
    }
}

/// A transport five-tuple identifying one direction of a flow.
///
/// `align(4)` pads this to 16 bytes, copied as one move. Do not remove it
/// as padding: at its natural 14 bytes (alignment 2) the compiler copies
/// a tuple as two *overlapping* 8-byte stores (bytes 0–7 and 6–13), and a
/// hash map copying the key into its bucket re-reads bytes 6–13 with one
/// load. That load spans two stores, cannot be store-forwarded, and waits
/// for the store buffer to drain — behind the previous insert's cache
/// miss, so every microflow write queues behind the last one
/// (EXPERIMENTS.md "PR 20"). `align(8)` times the same and costs 3 % more
/// resident memory on `metro_churn`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
#[repr(align(4))]
pub struct FiveTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FiveTuple {
    /// The five-tuple of the opposite direction.
    pub fn reverse(&self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Direction-insensitive key: both directions of a connection map to
    /// the same value. Used to group flow state.
    pub fn canonical(&self) -> FiveTuple {
        let fwd = (self.src, self.src_port);
        let rev = (self.dst, self.dst_port);
        if fwd <= rev {
            *self
        } else {
            self.reverse()
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// The parsed header summary of one packet: everything any SoftCell table
/// (microflow, TCAM, exact-tag, LPM) can match on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct HeaderView {
    /// The five-tuple.
    pub tuple: FiveTuple,
    /// DSCP (QoS) marking.
    pub dscp: u8,
    /// TCP flags (zero for UDP).
    pub tcp_flags: u8,
}

impl HeaderView {
    /// Parses the headers of a wire packet (IPv4 + TCP/UDP).
    pub fn parse(buffer: &[u8]) -> Result<HeaderView> {
        let ip = Ipv4Packet::new_checked(buffer)?;
        let proto = Protocol::from_number(ip.protocol())?;
        let (src_port, dst_port, tcp_flags) = match proto {
            Protocol::Tcp => {
                let seg = TcpSegment::new_checked(ip.payload())?;
                (seg.src_port(), seg.dst_port(), seg.flags())
            }
            Protocol::Udp => {
                let dg = UdpDatagram::new_checked(ip.payload())?;
                (dg.src_port(), dg.dst_port(), 0)
            }
        };
        Ok(HeaderView {
            tuple: FiveTuple {
                src: ip.src_addr(),
                dst: ip.dst_addr(),
                src_port,
                dst_port,
                proto,
            },
            dscp: ip.dscp(),
            tcp_flags,
        })
    }

    /// Shorthand accessors used pervasively by match logic.
    pub fn src(&self) -> Ipv4Addr {
        self.tuple.src
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        self.tuple.dst
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        self.tuple.src_port
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        self.tuple.dst_port
    }
}

/// Builds a complete wire packet (IPv4 + transport header + payload) for a
/// five-tuple. The simulator's UEs and Internet hosts use this to source
/// traffic.
pub fn build_flow_packet(tuple: FiveTuple, ttl: u8, tcp_flags: u8, payload: &[u8]) -> Vec<u8> {
    let transport = match tuple.proto {
        Protocol::Tcp => {
            crate::transport::build_tcp(tuple.src_port, tuple.dst_port, 0, tcp_flags, payload)
        }
        Protocol::Udp => crate::transport::build_udp(tuple.src_port, tuple.dst_port, payload),
    };
    crate::ipv4::build_ipv4(tuple.src, tuple.dst, tuple.proto.number(), ttl, &transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src: Ipv4Addr::new(10, 0, 0, 10),
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 49152,
            dst_port: 443,
            proto: Protocol::Tcp,
        }
    }

    #[test]
    fn reverse_is_involutive() {
        let t = tuple();
        assert_eq!(t.reverse().reverse(), t);
        assert_eq!(t.reverse().src, t.dst);
        assert_eq!(t.reverse().dst_port, t.src_port);
    }

    #[test]
    fn canonical_identifies_both_directions() {
        let t = tuple();
        assert_eq!(t.canonical(), t.reverse().canonical());
    }

    #[test]
    fn sixteen_bytes_that_still_compare_hash_and_serialise_by_field() {
        use serde::Value;
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        // 14 before PR 20; tests/layout_budget.rs gates the alignment too
        assert_eq!(std::mem::size_of::<FiveTuple>(), 16);

        // the derives see the five fields and nothing else
        let hash = |t: &FiveTuple| BuildHasherDefault::<DefaultHasher>::default().hash_one(t);
        let (t, twin) = (tuple(), tuple());
        assert_eq!(t, twin);
        assert_eq!(hash(&t), hash(&twin));
        let changed = [
            FiveTuple { src: t.dst, ..t },
            FiveTuple { dst: t.src, ..t },
            FiveTuple { src_port: 1, ..t },
            FiveTuple { dst_port: 1, ..t },
            FiveTuple {
                proto: Protocol::Udp,
                ..t
            },
        ];
        for other in changed {
            assert_ne!(t, other);
            assert_ne!(hash(&t), hash(&other));
        }

        // the serialised form is the parent's, field for field
        let field = |name: &str, v: Value| (name.to_string(), v);
        assert_eq!(
            t.to_value(),
            Value::Map(vec![
                field("src", Value::Str("10.0.0.10".into())),
                field("dst", Value::Str("93.184.216.34".into())),
                field("src_port", Value::UInt(49152)),
                field("dst_port", Value::UInt(443)),
                field("proto", Value::Str("Tcp".into())),
            ])
        );
    }

    #[test]
    fn canonical_picks_the_lower_endpoint_first() {
        let t = tuple(); // 10.0.0.10:49152 < 93.184.216.34:443
        assert_eq!(t.canonical(), t);
        assert_eq!(t.reverse().canonical(), t);
        let same_host = FiveTuple { dst: t.src, ..t }; // ports decide: 443 < 49152
        assert_eq!(same_host.canonical(), same_host.reverse());
    }

    #[test]
    fn parse_tcp_packet() {
        let buf = build_flow_packet(tuple(), 64, crate::transport::tcp_flags::SYN, b"x");
        let view = HeaderView::parse(&buf).unwrap();
        assert_eq!(view.tuple, tuple());
        assert_eq!(view.tcp_flags, crate::transport::tcp_flags::SYN);
    }

    #[test]
    fn parse_udp_packet() {
        let t = FiveTuple {
            proto: Protocol::Udp,
            ..tuple()
        };
        let buf = build_flow_packet(t, 64, 0, &[]);
        let view = HeaderView::parse(&buf).unwrap();
        assert_eq!(view.tuple, t);
        assert_eq!(view.tcp_flags, 0);
    }

    #[test]
    fn parse_rejects_unknown_protocol() {
        let buf = crate::ipv4::build_ipv4(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            47, // GRE — not supported
            64,
            &[0u8; 20],
        );
        assert!(HeaderView::parse(&buf).is_err());
    }

    #[test]
    fn protocol_number_round_trips() {
        for p in [Protocol::Tcp, Protocol::Udp] {
            assert_eq!(Protocol::from_number(p.number()).unwrap(), p);
        }
        assert!(Protocol::from_number(1).is_err()); // ICMP unsupported
    }

    proptest! {
        #[test]
        fn prop_header_view_round_trips(
            src in any::<u32>(), dst in any::<u32>(),
            sp in any::<u16>(), dp in any::<u16>(),
            is_tcp in any::<bool>(),
        ) {
            let t = FiveTuple {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                src_port: sp,
                dst_port: dp,
                proto: if is_tcp { Protocol::Tcp } else { Protocol::Udp },
            };
            let buf = build_flow_packet(t, 64, 0, b"payload");
            prop_assert_eq!(HeaderView::parse(&buf).unwrap().tuple, t);
        }

        #[test]
        fn prop_canonical_is_direction_insensitive(
            src in any::<u32>(), dst in any::<u32>(),
            sp in any::<u16>(), dp in any::<u16>(),
        ) {
            let t = FiveTuple {
                src: Ipv4Addr::from(src), dst: Ipv4Addr::from(dst),
                src_port: sp, dst_port: dp, proto: Protocol::Udp,
            };
            prop_assert_eq!(t.canonical(), t.reverse().canonical());
        }
    }
}
