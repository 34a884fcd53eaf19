//! The access-edge rewrite: embedding classification state in headers.
//!
//! SoftCell's asymmetric edge design (paper §4.1) hinges on one trick:
//! instead of encapsulating packets, the *access switch* rewrites the
//! uplink packet's source address to the UE's location-dependent address
//! and its source port to carry the policy tag. The Internet echoes those
//! bits back in the destination fields of return traffic, so the gateway
//! edge forwards downlink packets with plain destination-based rules and
//! performs **no classification at all**.
//!
//! [`AccessRewriter`] implements both directions:
//!
//! * uplink (UE → Internet): permanent src address → LocIP, src port →
//!   `tag | flow_slot`;
//! * downlink (Internet → UE, at the *new* access switch): LocIP dst →
//!   permanent address, embedded dst port → the UE's original port.

use std::net::Ipv4Addr;

use softcell_types::{AddressingScheme, LocIp, PolicyTag, PortEmbedding, Result};

use crate::flow::{HeaderView, Protocol};
use crate::ipv4::Ipv4Packet;
use crate::transport::{TcpSegment, UdpDatagram};

/// What the embedding in one packet direction decodes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EmbeddedState {
    /// The UE's location-dependent identity.
    pub loc: LocIp,
    /// The policy tag carried in the port.
    pub tag: PolicyTag,
    /// The per-UE flow slot in the low port bits.
    pub flow_slot: u16,
}

/// Performs and reverses the SoftCell header embedding.
#[derive(Clone, Copy, Debug)]
pub struct AccessRewriter {
    scheme: AddressingScheme,
    ports: PortEmbedding,
}

impl AccessRewriter {
    /// Creates a rewriter for a given addressing scheme and port layout.
    pub fn new(scheme: AddressingScheme, ports: PortEmbedding) -> Self {
        AccessRewriter { scheme, ports }
    }

    /// The addressing scheme in use.
    pub fn scheme(&self) -> &AddressingScheme {
        &self.scheme
    }

    /// The port embedding in use.
    pub fn ports(&self) -> &PortEmbedding {
        &self.ports
    }

    /// Rewrites an uplink packet in place: source address becomes the
    /// LocIP for `loc`, source port becomes `tag | flow_slot`. Returns the
    /// rewritten source (address, port) for microflow bookkeeping.
    pub fn uplink_rewrite(
        &self,
        buffer: &mut [u8],
        loc: LocIp,
        tag: PolicyTag,
        flow_slot: u16,
    ) -> Result<(Ipv4Addr, u16)> {
        let loc_addr = self.scheme.encode(loc)?;
        let port = self.ports.encode(tag, flow_slot)?;
        rewrite_src(buffer, loc_addr, port)?;
        Ok((loc_addr, port))
    }

    /// Rewrites a downlink packet in place for final delivery: destination
    /// address/port become the UE's permanent address and original source
    /// port. The caller (access switch) looks these up in its microflow
    /// table keyed by the embedded state.
    pub fn downlink_restore(
        &self,
        buffer: &mut [u8],
        permanent: Ipv4Addr,
        original_port: u16,
    ) -> Result<()> {
        rewrite_dst(buffer, permanent, original_port)
    }

    /// Decodes the embedded state from an *uplink* packet that has already
    /// been rewritten (source fields).
    pub fn extract_uplink(&self, view: &HeaderView) -> Result<EmbeddedState> {
        let loc = self.scheme.decode(view.src())?;
        let (tag, flow_slot) = self.ports.decode(view.src_port());
        Ok(EmbeddedState {
            loc,
            tag,
            flow_slot,
        })
    }

    /// Decodes the embedded state from a *downlink* packet arriving from
    /// the Internet (destination fields) — the piggybacked classification
    /// the gateway and core forward on.
    pub fn extract_downlink(&self, view: &HeaderView) -> Result<EmbeddedState> {
        let loc = self.scheme.decode(view.dst())?;
        let (tag, flow_slot) = self.ports.decode(view.dst_port());
        Ok(EmbeddedState {
            loc,
            tag,
            flow_slot,
        })
    }

    /// Whether a downlink packet's destination is one of our LocIPs.
    pub fn is_downlink_locip(&self, view: &HeaderView) -> bool {
        self.scheme.is_loc_ip(view.dst())
    }
}

/// Rewrites source address and port of a wire packet, restoring checksums.
/// Shared with the gateway NAT, which rewrites to public endpoints.
pub(crate) fn rewrite_src_public(buffer: &mut [u8], addr: Ipv4Addr, port: u16) -> Result<()> {
    rewrite_src(buffer, addr, port)
}

/// Rewrites destination address and port of a wire packet, restoring
/// checksums. Shared with the gateway NAT.
pub(crate) fn rewrite_dst_public(buffer: &mut [u8], addr: Ipv4Addr, port: u16) -> Result<()> {
    rewrite_dst(buffer, addr, port)
}

/// Rewrites source address and port of a wire packet, restoring checksums.
fn rewrite_src(buffer: &mut [u8], addr: Ipv4Addr, port: u16) -> Result<()> {
    let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
    ip.set_src_addr(addr);
    let proto = Protocol::from_number(ip.protocol())?;
    match proto {
        Protocol::Tcp => TcpSegment::new_checked(ip.payload_mut())?.set_src_port(port),
        Protocol::Udp => UdpDatagram::new_checked(ip.payload_mut())?.set_src_port(port),
    }
    ip.fill_checksum();
    Ok(())
}

/// Rewrites destination address and port of a wire packet, restoring
/// checksums.
fn rewrite_dst(buffer: &mut [u8], addr: Ipv4Addr, port: u16) -> Result<()> {
    let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
    ip.set_dst_addr(addr);
    let proto = Protocol::from_number(ip.protocol())?;
    match proto {
        Protocol::Tcp => TcpSegment::new_checked(ip.payload_mut())?.set_dst_port(port),
        Protocol::Udp => UdpDatagram::new_checked(ip.payload_mut())?.set_dst_port(port),
    }
    ip.fill_checksum();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{build_flow_packet, FiveTuple};
    use proptest::prelude::*;
    use softcell_types::{BaseStationId, UeId};

    fn rewriter() -> AccessRewriter {
        AccessRewriter::new(
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        )
    }

    fn uplink_packet() -> Vec<u8> {
        // UE's own view: permanent address, its own ephemeral port.
        build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(100, 64, 0, 7), // permanent (CGN space)
                dst: Ipv4Addr::new(93, 184, 216, 34),
                src_port: 50123,
                dst_port: 443,
                proto: Protocol::Tcp,
            },
            64,
            0,
            b"req",
        )
    }

    #[test]
    fn uplink_rewrite_embeds_loc_and_tag() {
        let rw = rewriter();
        let mut buf = uplink_packet();
        let loc = LocIp::new(BaseStationId(37), UeId(10));
        let (addr, port) = rw.uplink_rewrite(&mut buf, loc, PolicyTag(2), 5).unwrap();

        let view = HeaderView::parse(&buf).unwrap();
        assert_eq!(view.src(), addr);
        assert_eq!(view.src_port(), port);
        // destination untouched
        assert_eq!(view.dst(), Ipv4Addr::new(93, 184, 216, 34));
        assert_eq!(view.dst_port(), 443);
        // checksum restored
        assert!(Ipv4Packet::new_checked(&buf[..]).unwrap().verify_checksum());

        let state = rw.extract_uplink(&view).unwrap();
        assert_eq!(state.loc, loc);
        assert_eq!(state.tag, PolicyTag(2));
        assert_eq!(state.flow_slot, 5);
    }

    #[test]
    fn return_traffic_piggybacks_state_in_dst() {
        // Simulate the Internet echoing the packet back: swap the tuple.
        let rw = rewriter();
        let mut buf = uplink_packet();
        let loc = LocIp::new(BaseStationId(99), UeId(3));
        rw.uplink_rewrite(&mut buf, loc, PolicyTag(7), 1).unwrap();
        let fwd = HeaderView::parse(&buf).unwrap();

        let ret = build_flow_packet(fwd.tuple.reverse(), 64, 0, b"resp");
        let ret_view = HeaderView::parse(&ret).unwrap();
        assert!(rw.is_downlink_locip(&ret_view));
        let state = rw.extract_downlink(&ret_view).unwrap();
        assert_eq!(state.loc, loc);
        assert_eq!(state.tag, PolicyTag(7));
    }

    #[test]
    fn downlink_restore_delivers_to_permanent_address() {
        let rw = rewriter();
        let mut buf = uplink_packet();
        let loc = LocIp::new(BaseStationId(5), UeId(1));
        rw.uplink_rewrite(&mut buf, loc, PolicyTag(0), 0).unwrap();
        let fwd = HeaderView::parse(&buf).unwrap();
        let mut ret = build_flow_packet(fwd.tuple.reverse(), 64, 0, b"resp");

        rw.downlink_restore(&mut ret, Ipv4Addr::new(100, 64, 0, 7), 50123)
            .unwrap();
        let view = HeaderView::parse(&ret).unwrap();
        assert_eq!(view.dst(), Ipv4Addr::new(100, 64, 0, 7));
        assert_eq!(view.dst_port(), 50123);
        assert!(Ipv4Packet::new_checked(&ret[..]).unwrap().verify_checksum());
    }

    #[test]
    fn udp_rewrite_works_too() {
        let rw = rewriter();
        let mut buf = build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(100, 64, 0, 7),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                src_port: 40000,
                dst_port: 53,
                proto: Protocol::Udp,
            },
            64,
            0,
            b"query",
        );
        let loc = LocIp::new(BaseStationId(1), UeId(2));
        rw.uplink_rewrite(&mut buf, loc, PolicyTag(3), 9).unwrap();
        let view = HeaderView::parse(&buf).unwrap();
        assert_eq!(rw.extract_uplink(&view).unwrap().loc, loc);
    }

    #[test]
    fn extract_rejects_non_locip() {
        let rw = rewriter();
        let buf = uplink_packet(); // src 100.64/10 is not under carrier 10/8
        let view = HeaderView::parse(&buf).unwrap();
        assert!(rw.extract_uplink(&view).is_err());
        assert!(!rw.is_downlink_locip(&view));
    }

    #[test]
    fn rewrite_rejects_truncated_packet() {
        let rw = rewriter();
        let mut short = vec![0x45u8; 21]; // valid-looking IP byte, no transport
        assert!(rw
            .uplink_rewrite(
                &mut short,
                LocIp::new(BaseStationId(0), UeId(0)),
                PolicyTag(0),
                0
            )
            .is_err());
    }

    proptest! {
        #[test]
        fn prop_embed_extract_round_trips(
            bs in 0u32..32768, ue in 0u16..512,
            tag in 0u16..1024, slot in 0u16..64,
        ) {
            let rw = rewriter();
            let mut buf = uplink_packet();
            let loc = LocIp::new(BaseStationId(bs), UeId(ue));
            rw.uplink_rewrite(&mut buf, loc, PolicyTag(tag), slot).unwrap();
            let view = HeaderView::parse(&buf).unwrap();
            let state = rw.extract_uplink(&view).unwrap();
            prop_assert_eq!(state.loc, loc);
            prop_assert_eq!(state.tag, PolicyTag(tag));
            prop_assert_eq!(state.flow_slot, slot);
            // and the checksum survives
            prop_assert!(Ipv4Packet::new_checked(&buf[..]).unwrap().verify_checksum());
        }
    }
}
