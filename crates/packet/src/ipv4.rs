//! IPv4 header parsing and emission.
//!
//! `Ipv4Packet` wraps a byte buffer in the smoltcp style: `new_checked`
//! validates length, version and header length once; accessors then read
//! and write fixed offsets. The header checksum is maintained explicitly —
//! `fill_checksum` after construction or mutation, `verify_checksum` on
//! receive. SoftCell access switches rewrite source/destination addresses
//! in place, so setters deliberately do *not* auto-update the checksum
//! (one final `fill_checksum` after a batch of edits is cheaper and makes
//! the dirty window explicit). The exception is `decrement_ttl`, the one
//! edit every hop makes: it patches the checksum incrementally.

use std::fmt;
use std::net::Ipv4Addr;

use softcell_types::{Error, Result};

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;

/// Field offsets within the IPv4 header.
mod field {
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: std::ops::Range<usize> = 2..4;
    pub const IDENT: std::ops::Range<usize> = 4..6;
    pub const FLAGS_FRAG: std::ops::Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: std::ops::Range<usize> = 10..12;
    pub const SRC: std::ops::Range<usize> = 12..16;
    pub const DST: std::ops::Range<usize> = 16..20;
}

/// An IPv4 packet backed by a byte buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validation. Use when the buffer is known to
    /// contain a packet this code just emitted.
    pub const fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wraps and validates a buffer: length, IP version, header length and
    /// total-length consistency.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Ipv4Packet { buffer };
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Malformed(format!(
                "buffer {} bytes < 20-byte IPv4 header",
                data.len()
            )));
        }
        if data[field::VER_IHL] >> 4 != 4 {
            return Err(Error::Malformed(format!(
                "IP version {} != 4",
                data[field::VER_IHL] >> 4
            )));
        }
        let ihl = (data[field::VER_IHL] & 0x0f) as usize * 4;
        if ihl < HEADER_LEN {
            return Err(Error::Malformed(format!("IHL {ihl} < 20")));
        }
        if ihl > data.len() {
            return Err(Error::Malformed(format!(
                "IHL {ihl} exceeds buffer {}",
                data.len()
            )));
        }
        let total = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total < ihl || total > data.len() {
            return Err(Error::Malformed(format!(
                "total length {total} inconsistent (ihl {ihl}, buffer {})",
                data.len()
            )));
        }
        Ok(())
    }

    /// Consumes the wrapper, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        (self.buffer.as_ref()[field::VER_IHL] & 0x0f) as usize * 4
    }

    /// Total packet length from the header.
    pub fn total_len(&self) -> usize {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]]) as usize
    }

    /// DSCP (top 6 bits of the TOS byte) — SoftCell QoS actions mark this.
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[field::DSCP_ECN] >> 2
    }

    /// IP identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[field::PROTOCOL]
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[10], d[11]])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    /// Verifies the header checksum. A header whose IHL is itself corrupt
    /// (too short, or pointing past the buffer) verifies as invalid rather
    /// than panicking — receive paths call this on untrusted bytes.
    pub fn verify_checksum(&self) -> bool {
        let data = self.buffer.as_ref();
        let ihl = self.header_len();
        if ihl < HEADER_LEN || ihl > data.len() {
            return false;
        }
        checksum(&data[..ihl]) == 0
    }

    /// The payload (transport header + data) following the IP header.
    pub fn payload(&self) -> &[u8] {
        let ihl = self.header_len();
        let total = self.total_len();
        &self.buffer.as_ref()[ihl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Writes version 4 and a 20-byte header length.
    pub fn set_version_ihl(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45;
    }

    /// Sets the DSCP field (QoS marking).
    pub fn set_dscp(&mut self, dscp: u8) {
        let b = &mut self.buffer.as_mut()[field::DSCP_ECN];
        *b = (dscp << 2) | (*b & 0x03);
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, ident: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&ident.to_be_bytes());
    }

    /// Clears flags/fragment offset (the simulator never fragments).
    pub fn clear_flags(&mut self) {
        self.buffer.as_mut()[field::FLAGS_FRAG].copy_from_slice(&[0, 0]);
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Decrements TTL, returning the new value (`None`, header untouched,
    /// if already zero — the packet must be dropped). Unlike the setters
    /// this keeps the checksum in step, since it runs once per hop and
    /// re-summing the header there costs more than the forwarding
    /// decision: the stored checksum is patched per RFC 1624 eqn. 3,
    /// `HC' = ~(~HC + ~m + m')` with `m` the (TTL, protocol) word, and
    /// `m' = m - 0x0100` makes `~m + m'` the constant `0xFEFF`. Summing
    /// from `~HC` (not RFC 1141's `HC + m - m'`) is what yields `0x0000`,
    /// not `0xFFFF`, when the new header sums to all-ones — exactly what
    /// [`Self::fill_checksum`] would store.
    pub fn decrement_ttl(&mut self) -> Option<u8> {
        let ttl = self.ttl().checked_sub(1)?;
        let mut sum = u32::from(!self.checksum()) + 0xfeff;
        sum = (sum & 0xffff) + (sum >> 16);
        let data = self.buffer.as_mut();
        data[field::TTL] = ttl;
        data[field::CHECKSUM].copy_from_slice(&(!(sum as u16)).to_be_bytes());
        Some(ttl)
    }

    /// Sets the transport protocol number.
    pub fn set_protocol(&mut self, proto: u8) {
        self.buffer.as_mut()[field::PROTOCOL] = proto;
    }

    /// Sets the source address (does not update the checksum).
    pub fn set_src_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&addr.octets());
    }

    /// Sets the destination address (does not update the checksum).
    pub fn set_dst_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&addr.octets());
    }

    /// Recomputes and writes the header checksum.
    pub fn fill_checksum(&mut self) {
        let ihl = self.header_len();
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let sum = checksum(&self.buffer.as_ref()[..ihl]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let ihl = self.header_len();
        let total = self.total_len();
        &mut self.buffer.as_mut()[ihl..total]
    }
}

impl<T: AsRef<[u8]>> fmt::Debug for Ipv4Packet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ipv4Packet {{ {} -> {}, proto {}, ttl {}, len {} }}",
            self.src_addr(),
            self.dst_addr(),
            self.protocol(),
            self.ttl(),
            self.total_len()
        )
    }
}

/// RFC 1071 Internet checksum over `data` (returns the value to *store*,
/// i.e. the one's complement of the one's-complement sum).
pub fn checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Builds a fresh IPv4 packet with a 20-byte header and the given payload,
/// checksum filled.
pub fn build_ipv4(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ttl: u8, payload: &[u8]) -> Vec<u8> {
    let total = HEADER_LEN + payload.len();
    let mut buf = vec![0u8; total];
    buf[HEADER_LEN..].copy_from_slice(payload);
    let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
    packet.set_version_ihl();
    packet.set_total_len(total as u16);
    packet.clear_flags();
    packet.set_ttl(ttl);
    packet.set_protocol(protocol);
    packet.set_src_addr(src);
    packet.set_dst_addr(dst);
    packet.fill_checksum();
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        build_ipv4(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(198, 51, 100, 7),
            6,
            64,
            b"hello",
        )
    }

    #[test]
    fn build_then_parse_round_trips() {
        let buf = sample();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src_addr(), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(p.dst_addr(), Ipv4Addr::new(198, 51, 100, 7));
        assert_eq!(p.protocol(), 6);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.total_len(), 25);
        assert_eq!(p.payload(), b"hello");
        assert!(p.verify_checksum());
    }

    #[test]
    fn checked_rejects_short_buffer() {
        assert!(Ipv4Packet::new_checked(&[0u8; 10][..]).is_err());
    }

    #[test]
    fn checked_rejects_wrong_version() {
        let mut buf = sample();
        buf[0] = 0x65; // version 6
        assert!(Ipv4Packet::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn checked_rejects_bad_ihl() {
        let mut buf = sample();
        buf[0] = 0x44; // IHL 16 < 20
        assert!(Ipv4Packet::new_checked(&buf[..]).is_err());
        let mut buf = sample();
        buf[0] = 0x4f; // IHL 60 > buffer
        assert!(Ipv4Packet::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn checked_rejects_inconsistent_total_len() {
        let mut buf = sample();
        buf[2] = 0xff;
        buf[3] = 0xff;
        assert!(Ipv4Packet::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn rewrite_invalidates_then_fill_restores_checksum() {
        let mut buf = sample();
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_src_addr(Ipv4Addr::new(10, 0, 0, 10));
        assert!(!p.verify_checksum(), "rewrite must dirty the checksum");
        p.fill_checksum();
        assert!(p.verify_checksum());
        assert_eq!(p.src_addr(), Ipv4Addr::new(10, 0, 0, 10));
    }

    #[test]
    fn ttl_decrement_stops_at_zero() {
        let mut buf = build_ipv4(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            17,
            1,
            &[],
        );
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        assert_eq!(p.decrement_ttl(), Some(0));
        let at_zero = p.buffer.to_vec();
        assert_eq!(p.decrement_ttl(), None);
        assert_eq!(p.buffer, &at_zero[..], "a refused decrement edits nothing");
    }

    /// A header whose checksum is `0x0000` (its words sum to `0xFFFF`) at
    /// TTL `corner`: the case RFC 1141's update gets wrong and RFC 1624
    /// exists to fix. The ident field is the free 16 bits that steer it.
    fn header_with_zero_checksum_at(corner: u8, proto: u8) -> Vec<u8> {
        let mut buf = build_ipv4(
            Ipv4Addr::new(10, 0, 0, 10),
            Ipv4Addr::new(93, 184, 216, 34),
            proto,
            corner,
            b"payload",
        );
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        let steered = (0..=u16::MAX).any(|ident| {
            p.set_ident(ident);
            p.fill_checksum();
            p.checksum() == 0
        });
        assert!(steered, "some ident makes the header sum to 0xFFFF");
        buf
    }

    #[test]
    fn incremental_ttl_checksum_equals_full_recompute() {
        for (corner, proto) in [(1u8, 6u8), (2, 17), (64, 6), (128, 17), (254, 6), (255, 17)] {
            let mut buf = header_with_zero_checksum_at(corner, proto);
            let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
            p.set_ttl(255);
            p.fill_checksum();
            let mut crossed_corner = p.checksum() == 0;
            for ttl in (0..255u8).rev() {
                let mut full = p.buffer.to_vec();
                let mut reference = Ipv4Packet::new_unchecked(&mut full[..]);
                reference.set_ttl(ttl);
                reference.fill_checksum();
                assert_eq!(p.decrement_ttl(), Some(ttl));
                assert_eq!(
                    p.checksum(),
                    reference.checksum(),
                    "corner {corner}, proto {proto}, ttl {ttl}"
                );
                assert!(p.verify_checksum());
                crossed_corner |= p.checksum() == 0;
            }
            assert!(crossed_corner, "the run must cross the 0x0000 checksum");
            assert_eq!(p.decrement_ttl(), None);
        }
    }

    #[test]
    fn dscp_set_get() {
        let mut buf = sample();
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_dscp(46); // expedited forwarding
        assert_eq!(p.dscp(), 46);
    }

    #[test]
    fn checksum_of_valid_header_is_zero() {
        let buf = sample();
        assert_eq!(checksum(&buf[..HEADER_LEN]), 0);
    }

    #[test]
    fn checksum_handles_odd_length() {
        // Regression guard for the trailing-byte path.
        assert_eq!(checksum(&[0xff]), !0xff00u16);
    }

    proptest! {
        #[test]
        fn prop_build_parse_round_trip(
            src in any::<u32>(), dst in any::<u32>(),
            proto in any::<u8>(), ttl in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let buf = build_ipv4(Ipv4Addr::from(src), Ipv4Addr::from(dst), proto, ttl, &payload);
            let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
            prop_assert_eq!(p.src_addr(), Ipv4Addr::from(src));
            prop_assert_eq!(p.dst_addr(), Ipv4Addr::from(dst));
            prop_assert_eq!(p.protocol(), proto);
            prop_assert_eq!(p.ttl(), ttl);
            prop_assert_eq!(p.payload(), &payload[..]);
            prop_assert!(p.verify_checksum());
        }

        #[test]
        fn prop_corrupting_any_header_byte_breaks_checksum(
            byte in 0usize..HEADER_LEN, flip in 1u8..=255,
        ) {
            let mut buf = sample();
            buf[byte] ^= flip;
            let p = Ipv4Packet::new_unchecked(&buf[..]);
            // Every single-byte corruption of the header must be caught.
            prop_assert!(!p.verify_checksum());
        }
    }
}
