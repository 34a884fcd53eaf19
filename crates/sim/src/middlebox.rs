//! Stateful middlebox instances — the policy-consistency witness.
//!
//! SoftCell promises that all packets of a connection, in both
//! directions, traverse the same middlebox *instances* (paper §2.1
//! "SoftCell supports stateful middleboxes", §5.1 under mobility). The
//! tracker records, per instance, every connection observed; the
//! [`MiddleboxTracker::chain_of`] reconstruction lets tests assert that
//! a connection's uplink and downlink traversals name the same instances
//! in mirrored order, across handoffs.
//!
//! Connections are keyed location-independently: a packet's (LocIP,
//! remote endpoint, flow slot) triple survives tag swaps and direction
//! changes, which is exactly what a real stateful middlebox keys on
//! after SoftCell's rewrites.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use softcell_packet::HeaderView;
use softcell_types::{AddressingScheme, Error, FxHashMap, MiddleboxId, PortEmbedding, Result};

/// The connection key a stateful middlebox tracks: the UE side (LocIP +
/// flow slot) and the remote endpoint. Tag bits are deliberately
/// excluded (downlink swaps may alter them mid-path).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnKey {
    /// The UE's location-dependent address.
    pub loc: Ipv4Addr,
    /// The flow-slot bits of the embedded port.
    pub slot: u16,
    /// Remote (Internet) address.
    pub remote: Ipv4Addr,
    /// Remote port.
    pub remote_port: u16,
}

/// Per-direction packet counts of one connection at one instance.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TraversalCount {
    /// UE → Internet packets seen.
    pub uplink: u64,
    /// Internet → UE packets seen.
    pub downlink: u64,
}

/// Records traversals per middlebox instance.
pub struct MiddleboxTracker {
    scheme: AddressingScheme,
    ports: PortEmbedding,
    /// (instance, connection) → counts.
    seen: FxHashMap<(MiddleboxId, ConnKey), TraversalCount>,
    /// Traversal log: (walk id, key, instance, was_uplink). The walk id
    /// identifies one packet's journey, so chains never merge across
    /// packets.
    log: Vec<(u64, ConnKey, MiddleboxId, bool)>,
    next_walk: u64,
    total: u64,
}

impl Default for MiddleboxTracker {
    fn default() -> Self {
        MiddleboxTracker {
            scheme: AddressingScheme::default_scheme(),
            ports: PortEmbedding::default_embedding(),
            seen: FxHashMap::default(),
            log: Vec::new(),
            next_walk: 0,
            total: 0,
        }
    }
}

impl MiddleboxTracker {
    /// A tracker for a specific addressing configuration.
    pub fn new(scheme: AddressingScheme, ports: PortEmbedding) -> Self {
        MiddleboxTracker {
            scheme,
            ports,
            ..MiddleboxTracker::default()
        }
    }

    /// Extracts the connection key from a packet, inferring direction
    /// from which end is a LocIP.
    pub fn key_of(&self, view: &HeaderView) -> Result<(ConnKey, bool)> {
        if self.scheme.is_loc_ip(view.src()) {
            let (_, slot) = self.ports.decode(view.src_port());
            Ok((
                ConnKey {
                    loc: view.src(),
                    slot,
                    remote: view.dst(),
                    remote_port: view.dst_port(),
                },
                true,
            ))
        } else if self.scheme.is_loc_ip(view.dst()) {
            let (_, slot) = self.ports.decode(view.dst_port());
            Ok((
                ConnKey {
                    loc: view.dst(),
                    slot,
                    remote: view.src(),
                    remote_port: view.src_port(),
                },
                false,
            ))
        } else {
            Err(Error::InvalidState(format!(
                "packet at middlebox carries no LocIP ({} -> {})",
                view.src(),
                view.dst()
            )))
        }
    }

    /// Starts a new packet walk, returning its id.
    pub fn begin_walk(&mut self) -> u64 {
        let id = self.next_walk;
        self.next_walk += 1;
        id
    }

    /// Records one packet (identified by its walk id) at one instance,
    /// from the headers the walk carries.
    pub fn observe(&mut self, mb: MiddleboxId, view: &HeaderView, walk: u64) -> Result<()> {
        let (key, uplink) = self.key_of(view)?;
        let counts = self.seen.entry((mb, key)).or_default();
        if uplink {
            counts.uplink += 1;
        } else {
            counts.downlink += 1;
        }
        self.log.push((walk, key, mb, uplink));
        self.total += 1;
        Ok(())
    }

    /// Total packets observed across all instances.
    pub fn total_packets(&self) -> u64 {
        self.total
    }

    /// Number of distinct connections an instance has seen.
    pub fn connections_seen(&self, mb: MiddleboxId) -> usize {
        self.seen.keys().filter(|(m, _)| *m == mb).count()
    }

    /// Counts for one (instance, connection).
    pub fn counts(&self, mb: MiddleboxId, key: &ConnKey) -> TraversalCount {
        self.seen.get(&(mb, *key)).copied().unwrap_or_default()
    }

    /// The ordered instance chain the first packet of a (connection,
    /// direction) traversed. Later packets' chains are asserted equal by
    /// [`Self::assert_consistent`].
    pub fn chain_of(&self, key: &ConnKey, uplink: bool) -> Vec<MiddleboxId> {
        self.all_chains(key, uplink)
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// All per-packet chains of a (connection, direction) — each inner
    /// vec is the instance sequence one packet saw, grouped by walk id.
    pub fn all_chains(&self, key: &ConnKey, uplink: bool) -> Vec<Vec<MiddleboxId>> {
        let mut chains: Vec<(u64, Vec<MiddleboxId>)> = Vec::new();
        for (walk, k, mb, up) in &self.log {
            if k != key || *up != uplink {
                continue;
            }
            match chains.last_mut() {
                Some((w, chain)) if w == walk => chain.push(*mb),
                _ => chains.push((*walk, vec![*mb])),
            }
        }
        chains.into_iter().map(|(_, c)| c).collect()
    }

    /// Asserts the paper's policy-consistency property for a connection:
    /// every uplink packet saw the same instance chain; every downlink
    /// packet saw exactly the reversed chain.
    pub fn assert_consistent(&self, key: &ConnKey) -> Result<()> {
        let ups = self.all_chains(key, true);
        let downs = self.all_chains(key, false);
        if let Some(first) = ups.first() {
            for (i, c) in ups.iter().enumerate() {
                if c != first {
                    return Err(Error::InvalidState(format!(
                        "uplink packet {i} took chain {c:?}, expected {first:?}"
                    )));
                }
            }
            let mirrored: Vec<MiddleboxId> = first.iter().rev().copied().collect();
            for (i, c) in downs.iter().enumerate() {
                if *c != mirrored {
                    return Err(Error::InvalidState(format!(
                        "downlink packet {i} took chain {c:?}, expected mirror {mirrored:?}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Incremental policy-consistency auditor over a [`MiddleboxTracker`]'s
/// traversal log.
///
/// [`MiddleboxTracker::assert_consistent`] rescans the full log for one
/// connection; calling it for every connection every probe interval is
/// O(connections × log) and unusable for a continuously-checked campaign.
/// The auditor instead keeps a cursor into the log and a reference chain
/// per (connection, direction): each [`ConsistencyAuditor::audit`] call
/// processes only entries appended since the last call, grouping
/// consecutive same-(walk, key, direction) entries into one packet's
/// chain segment and checking it against the reference (first sighting
/// becomes the reference; a downlink reference must mirror the uplink
/// one and vice versa). Total work over a run is O(log), regardless of
/// probe frequency.
///
/// Connection keys embed recycled flow slots, so references are only
/// valid within one configuration epoch: after a reoptimization that
/// may re-place middlebox instances, pair a fresh tracker with
/// [`ConsistencyAuditor::reset`].
#[derive(Default)]
pub struct ConsistencyAuditor {
    cursor: usize,
    reference: HashMap<(ConnKey, bool), Vec<MiddleboxId>>,
    segments: u64,
}

impl ConsistencyAuditor {
    /// A fresh auditor starting at the head of the log.
    pub fn new() -> Self {
        ConsistencyAuditor::default()
    }

    /// Checks all log entries appended since the previous call. Returns
    /// the first violation found (the cursor still advances past the
    /// audited region, so a campaign can record the violation and
    /// continue). Call only between packet walks — a mid-walk audit
    /// would see a truncated chain segment.
    pub fn audit(&mut self, tracker: &MiddleboxTracker) -> Result<()> {
        let log = &tracker.log;
        let mut first_err = None;
        let mut i = self.cursor;
        while i < log.len() {
            let (walk, key, _, up) = log[i];
            let mut chain = Vec::new();
            while i < log.len() {
                let (w2, k2, mb2, up2) = log[i];
                if w2 != walk || k2 != key || up2 != up {
                    break;
                }
                chain.push(mb2);
                i += 1;
            }
            self.segments += 1;
            if let Err(e) = self.check_segment(key, up, chain) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        self.cursor = log.len();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn check_segment(&mut self, key: ConnKey, up: bool, chain: Vec<MiddleboxId>) -> Result<()> {
        let dir = if up { "uplink" } else { "downlink" };
        if let Some(reference) = self.reference.get(&(key, up)) {
            if *reference != chain {
                return Err(Error::InvalidState(format!(
                    "policy-consistency violation: {dir} packet of {key:?} \
                     took chain {chain:?}, expected {reference:?}"
                )));
            }
            return Ok(());
        }
        if let Some(opposite) = self.reference.get(&(key, !up)) {
            let mirrored: Vec<MiddleboxId> = opposite.iter().rev().copied().collect();
            if mirrored != chain {
                return Err(Error::InvalidState(format!(
                    "policy-consistency violation: {dir} packet of {key:?} \
                     took chain {chain:?}, expected mirror {mirrored:?}"
                )));
            }
        }
        self.reference.insert((key, up), chain);
        Ok(())
    }

    /// Chain segments (packet traversals) checked so far.
    pub fn segments_checked(&self) -> u64 {
        self.segments
    }

    /// Distinct (connection, direction) reference chains held.
    pub fn references_held(&self) -> usize {
        self.reference.len()
    }

    /// Forgets all references and rewinds the cursor. Pair with a fresh
    /// tracker at a configuration-epoch boundary (e.g. after
    /// `apply_reoptimization` re-places middlebox instances, or when
    /// recycled flow slots would alias old connection keys).
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.reference.clear();
        self.segments = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_packet::{build_flow_packet, FiveTuple, Protocol};
    use softcell_types::{BaseStationId, LocIp, PolicyTag, UeId};

    fn tracker() -> MiddleboxTracker {
        MiddleboxTracker::default()
    }

    fn up_packet(slot: u16) -> HeaderView {
        let scheme = AddressingScheme::default_scheme();
        let ports = PortEmbedding::default_embedding();
        let loc = scheme
            .encode(LocIp::new(BaseStationId(3), UeId(1)))
            .unwrap();
        let buf = build_flow_packet(
            FiveTuple {
                src: loc,
                dst: Ipv4Addr::new(93, 184, 216, 34),
                src_port: ports.encode(PolicyTag(5), slot).unwrap(),
                dst_port: 443,
                proto: Protocol::Tcp,
            },
            64,
            0,
            &[],
        );
        HeaderView::parse(&buf).unwrap()
    }

    fn down_packet(slot: u16, tag: PolicyTag) -> HeaderView {
        let scheme = AddressingScheme::default_scheme();
        let ports = PortEmbedding::default_embedding();
        let loc = scheme
            .encode(LocIp::new(BaseStationId(3), UeId(1)))
            .unwrap();
        let buf = build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(93, 184, 216, 34),
                dst: loc,
                src_port: 443,
                dst_port: ports.encode(tag, slot).unwrap(),
                proto: Protocol::Tcp,
            },
            64,
            0,
            &[],
        );
        HeaderView::parse(&buf).unwrap()
    }

    #[test]
    fn keys_unify_directions_and_ignore_tags() {
        let t = tracker();
        let up = up_packet(9);
        // downlink with a *different* tag (swapped in flight)
        let down = down_packet(9, PolicyTag(700));
        let (ku, is_up) = t.key_of(&up).unwrap();
        let (kd, is_up2) = t.key_of(&down).unwrap();
        assert!(is_up && !is_up2);
        assert_eq!(ku, kd, "same connection regardless of direction/tag");
    }

    #[test]
    fn non_locip_packet_is_an_error() {
        let t = tracker();
        let stray = build_flow_packet(
            FiveTuple {
                src: Ipv4Addr::new(1, 1, 1, 1),
                dst: Ipv4Addr::new(2, 2, 2, 2),
                src_port: 1,
                dst_port: 2,
                proto: Protocol::Udp,
            },
            64,
            0,
            &[],
        );
        assert!(t.key_of(&HeaderView::parse(&stray).unwrap()).is_err());
    }

    #[test]
    fn consistent_mirrored_chains_pass() {
        let mut t = tracker();
        let (fw, tc) = (MiddleboxId(1), MiddleboxId(2));
        // two uplink packets: fw then tc
        for _ in 0..2 {
            let w = t.begin_walk();
            t.observe(fw, &up_packet(4), w).unwrap();
            t.observe(tc, &up_packet(4), w).unwrap();
        }
        // downlink mirrors: tc then fw
        let w = t.begin_walk();
        t.observe(tc, &down_packet(4, PolicyTag(5)), w).unwrap();
        t.observe(fw, &down_packet(4, PolicyTag(5)), w).unwrap();
        let key = t.key_of(&up_packet(4)).unwrap().0;
        t.assert_consistent(&key).unwrap();
        assert_eq!(t.chain_of(&key, true), vec![fw, tc]);
        assert_eq!(t.chain_of(&key, false), vec![tc, fw]);
        assert_eq!(
            t.counts(fw, &key),
            TraversalCount {
                uplink: 2,
                downlink: 1
            }
        );
    }

    #[test]
    fn wrong_instance_fails_consistency() {
        let mut t = tracker();
        let (fw1, fw2) = (MiddleboxId(1), MiddleboxId(9));
        let key = t.key_of(&up_packet(4)).unwrap().0;
        let w = t.begin_walk();
        t.observe(fw1, &up_packet(4), w).unwrap();
        // second packet hits a *different* firewall instance
        let w = t.begin_walk();
        t.observe(fw2, &up_packet(4), w).unwrap();
        assert!(t.assert_consistent(&key).is_err());
    }

    #[test]
    fn unmirrored_downlink_fails() {
        let mut t = tracker();
        let (fw, tc) = (MiddleboxId(1), MiddleboxId(2));
        let w = t.begin_walk();
        t.observe(fw, &up_packet(4), w).unwrap();
        t.observe(tc, &up_packet(4), w).unwrap();
        // downlink in the same (wrong) order
        let w2 = t.begin_walk();
        t.observe(fw, &down_packet(4, PolicyTag(5)), w2).unwrap();
        t.observe(tc, &down_packet(4, PolicyTag(5)), w2).unwrap();
        let key = t.key_of(&up_packet(4)).unwrap().0;
        assert!(t.assert_consistent(&key).is_err());
    }

    #[test]
    fn different_slots_are_different_connections() {
        let mut t = tracker();
        let fw = MiddleboxId(1);
        let w = t.begin_walk();
        t.observe(fw, &up_packet(1), w).unwrap();
        let w = t.begin_walk();
        t.observe(fw, &up_packet(2), w).unwrap();
        assert_eq!(t.connections_seen(fw), 2);
    }

    #[test]
    fn auditor_passes_consistent_incremental_slices() {
        let mut t = tracker();
        let mut a = ConsistencyAuditor::new();
        let (fw, tc) = (MiddleboxId(1), MiddleboxId(2));
        let w = t.begin_walk();
        t.observe(fw, &up_packet(4), w).unwrap();
        t.observe(tc, &up_packet(4), w).unwrap();
        a.audit(&t).unwrap();
        assert_eq!(a.segments_checked(), 1);
        // more traffic after the first audit: same chain, mirrored down
        let w = t.begin_walk();
        t.observe(fw, &up_packet(4), w).unwrap();
        t.observe(tc, &up_packet(4), w).unwrap();
        let w = t.begin_walk();
        t.observe(tc, &down_packet(4, PolicyTag(5)), w).unwrap();
        t.observe(fw, &down_packet(4, PolicyTag(5)), w).unwrap();
        a.audit(&t).unwrap();
        assert_eq!(a.segments_checked(), 3);
        // idempotent when nothing new was logged
        a.audit(&t).unwrap();
        assert_eq!(a.segments_checked(), 3);
    }

    #[test]
    fn auditor_catches_divergent_chain_in_new_slice_only() {
        let mut t = tracker();
        let mut a = ConsistencyAuditor::new();
        let (fw1, fw2) = (MiddleboxId(1), MiddleboxId(9));
        let w = t.begin_walk();
        t.observe(fw1, &up_packet(4), w).unwrap();
        a.audit(&t).unwrap();
        let w = t.begin_walk();
        t.observe(fw2, &up_packet(4), w).unwrap();
        let err = a.audit(&t).unwrap_err();
        assert!(err.to_string().contains("policy-consistency"), "{err}");
        // cursor advanced past the bad entry: no repeat report
        a.audit(&t).unwrap();
    }

    #[test]
    fn auditor_catches_unmirrored_downlink() {
        let mut t = tracker();
        let mut a = ConsistencyAuditor::new();
        let (fw, tc) = (MiddleboxId(1), MiddleboxId(2));
        let w = t.begin_walk();
        t.observe(fw, &up_packet(4), w).unwrap();
        t.observe(tc, &up_packet(4), w).unwrap();
        // downlink in the same (unmirrored) order
        let w = t.begin_walk();
        t.observe(fw, &down_packet(4, PolicyTag(5)), w).unwrap();
        t.observe(tc, &down_packet(4, PolicyTag(5)), w).unwrap();
        assert!(a.audit(&t).is_err());
    }

    #[test]
    fn auditor_agrees_with_full_rescan_oracle() {
        let mut t = tracker();
        let mut a = ConsistencyAuditor::new();
        let (fw, tc) = (MiddleboxId(1), MiddleboxId(2));
        for i in 0..6u16 {
            let slot = i % 3;
            let w = t.begin_walk();
            t.observe(fw, &up_packet(slot), w).unwrap();
            t.observe(tc, &up_packet(slot), w).unwrap();
            let w = t.begin_walk();
            t.observe(tc, &down_packet(slot, PolicyTag(5)), w).unwrap();
            t.observe(fw, &down_packet(slot, PolicyTag(5)), w).unwrap();
            a.audit(&t).unwrap();
        }
        for slot in 0..3u16 {
            let key = t.key_of(&up_packet(slot)).unwrap().0;
            t.assert_consistent(&key).unwrap();
        }
        assert_eq!(a.references_held(), 6);
    }

    #[test]
    fn auditor_reset_forgets_epoch_references() {
        let mut t = tracker();
        let mut a = ConsistencyAuditor::new();
        let fw1 = MiddleboxId(1);
        let w = t.begin_walk();
        t.observe(fw1, &up_packet(4), w).unwrap();
        a.audit(&t).unwrap();
        // new epoch: fresh tracker, same connection key re-placed onto a
        // different instance — legal after reset, a violation without.
        let mut t2 = tracker();
        let fw2 = MiddleboxId(9);
        let w = t2.begin_walk();
        t2.observe(fw2, &up_packet(4), w).unwrap();
        a.reset();
        a.audit(&t2).unwrap();
        assert_eq!(a.references_held(), 1);
    }
}
