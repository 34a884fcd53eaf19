//! The access-switch microflow table.
//!
//! Access switches are software switches (Open vSwitch class) that hold
//! one exact-match entry per microflow — "a base station has at most 1000
//! UEs with (say) 10 flows each, resulting in 10,000 microflows — easily
//! supported in a software switch" (paper §4.1). An uplink entry performs
//! the LocIP/tag rewrite; a downlink entry restores the UE's permanent
//! address. Entries carry an idle deadline so the local agent can expire
//! completed flows.

use serde::Serialize;
use std::net::Ipv4Addr;

use softcell_types::{Error, FxHashMap, PortNo, Result, SimTime};

use softcell_packet::FiveTuple;

/// What a microflow entry does to its packets.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum MicroflowAction {
    /// Uplink: rewrite source to (LocIP, embedded port), optionally mark
    /// the DSCP field (the clause's QoS action), and forward.
    RewriteSrc {
        /// The LocIP.
        addr: Ipv4Addr,
        /// The embedded source port (tag | flow slot).
        port: u16,
        /// Fabric-facing output port.
        out: PortNo,
        /// QoS marking to apply (paper §2.2 service actions).
        dscp: Option<u8>,
    },
    /// Downlink: rewrite destination to the UE's permanent endpoint and
    /// deliver towards the radio.
    RewriteDst {
        /// The permanent UE address.
        addr: Ipv4Addr,
        /// The UE's original source port.
        port: u16,
        /// Radio-facing output port.
        out: PortNo,
    },
    /// Forward unchanged (e.g. tunnel legs between base stations).
    Forward(PortNo),
    /// Drop (access control decided at classification time).
    Drop,
}

/// One microflow entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct MicroflowEntry {
    /// The action.
    pub action: MicroflowAction,
    /// Packets matched so far.
    pub packets: u64,
    /// Entry expires if idle past this instant.
    pub idle_deadline: SimTime,
}

/// An exact-match five-tuple table.
///
/// When capacity-bounded and full, installing a new tuple evicts the
/// entry whose idle deadline is soonest (the flow closest to expiring
/// anyway) rather than failing — a handoff burst at a crowded station
/// must not drop the moving UE's flows. Evictions are counted.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MicroflowTable {
    entries: FxHashMap<FiveTuple, MicroflowEntry>,
    capacity: Option<usize>,
    evictions: u64,
}

impl MicroflowTable {
    /// An unbounded table.
    pub fn new() -> Self {
        MicroflowTable::default()
    }

    /// A capacity-bounded table (software switches hold ~100K microflows,
    /// paper §2.1).
    pub fn with_capacity(capacity: usize) -> Self {
        MicroflowTable {
            capacity: Some(capacity),
            ..Default::default()
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs (or replaces) the entry for a five-tuple. A full bounded
    /// table evicts its idle-soonest entry to make room (see the type
    /// docs); only a zero-capacity table can still fail.
    pub fn install(
        &mut self,
        tuple: FiveTuple,
        action: MicroflowAction,
        idle_deadline: SimTime,
    ) -> Result<()> {
        let m = crate::metrics::metrics();
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap && !self.entries.contains_key(&tuple) {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(t, e)| {
                        // deterministic tie-break on the tuple itself so
                        // replayed simulations evict identically
                        (
                            e.idle_deadline,
                            t.src,
                            t.dst,
                            t.src_port,
                            t.dst_port,
                            t.proto.number(),
                        )
                    })
                    .map(|(t, _)| *t);
                let Some(victim) = victim else {
                    return Err(Error::Exhausted(format!(
                        "microflow table full ({cap} entries)"
                    )));
                };
                self.entries.remove(&victim);
                self.evictions += 1;
                m.microflow_evictions.inc();
            }
        }
        self.entries.insert(
            tuple,
            MicroflowEntry {
                action,
                packets: 0,
                idle_deadline,
            },
        );
        m.microflow_installs.inc();
        m.microflow_occupancy_hwm
            .record_max(self.entries.len() as u64);
        Ok(())
    }

    /// Entries evicted to make room since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a packet's five-tuple, bumping counters and refreshing the
    /// idle deadline by `idle_extend` from `now`.
    pub fn lookup(
        &mut self,
        tuple: &FiveTuple,
        now: SimTime,
        idle_extend: softcell_types::SimDuration,
    ) -> Option<MicroflowAction> {
        let e = self.entries.get_mut(tuple)?;
        e.packets += 1;
        e.idle_deadline = now + idle_extend;
        Some(e.action)
    }

    /// Read-only lookup.
    pub fn peek(&self, tuple: &FiveTuple) -> Option<&MicroflowEntry> {
        self.entries.get(tuple)
    }

    /// Removes one entry.
    pub fn remove(&mut self, tuple: &FiveTuple) -> Option<MicroflowEntry> {
        self.entries.remove(tuple)
    }

    /// Expires idle entries; returns the expired five-tuples. Paper §5.1
    /// has the local agent report these so the controller can end a
    /// transition once its old flows are gone, but no controller input
    /// carries them yet: callers drop the list, and transitions end on
    /// their own soft timeout (`MobilityManager::transition_ttl`).
    pub fn expire_idle(&mut self, now: SimTime) -> Vec<FiveTuple> {
        let dead: Vec<FiveTuple> = self
            .entries
            .iter()
            .filter(|(_, e)| e.idle_deadline <= now)
            .map(|(t, _)| *t)
            .collect();
        for t in &dead {
            self.entries.remove(t);
        }
        crate::metrics::metrics()
            .microflow_expirations
            .add(dead.len() as u64);
        dead
    }

    /// Iterates all entries — used when copying rules to a new access
    /// switch during handoff (paper §5.1).
    pub fn iter(&self) -> impl Iterator<Item = (&FiveTuple, &MicroflowEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_packet::Protocol;
    use softcell_types::SimDuration;

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple {
            src: Ipv4Addr::new(100, 64, 0, 1),
            dst: Ipv4Addr::new(8, 8, 8, 8),
            src_port: port,
            dst_port: 443,
            proto: Protocol::Tcp,
        }
    }

    fn act() -> MicroflowAction {
        MicroflowAction::RewriteSrc {
            addr: Ipv4Addr::new(10, 0, 0, 10),
            port: 0x0805,
            out: PortNo(1),
            dscp: None,
        }
    }

    #[test]
    fn install_lookup_counts_and_refreshes() {
        let mut t = MicroflowTable::new();
        t.install(tuple(1000), act(), SimTime::from_secs(5))
            .unwrap();
        let got = t
            .lookup(
                &tuple(1000),
                SimTime::from_secs(3),
                SimDuration::from_secs(10),
            )
            .unwrap();
        assert_eq!(got, act());
        let e = t.peek(&tuple(1000)).unwrap();
        assert_eq!(e.packets, 1);
        assert_eq!(e.idle_deadline, SimTime::from_secs(13));
        assert!(t
            .lookup(&tuple(2000), SimTime::ZERO, SimDuration::ZERO)
            .is_none());
    }

    #[test]
    fn expire_removes_only_idle_entries() {
        let mut t = MicroflowTable::new();
        t.install(tuple(1), act(), SimTime::from_secs(5)).unwrap();
        t.install(tuple(2), act(), SimTime::from_secs(50)).unwrap();
        let dead = t.expire_idle(SimTime::from_secs(10));
        assert_eq!(dead, vec![tuple(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.peek(&tuple(2)).is_some());
    }

    #[test]
    fn capacity_enforced_but_replace_allowed() {
        let mut t = MicroflowTable::with_capacity(1);
        t.install(tuple(1), act(), SimTime::ZERO).unwrap();
        // replacing the existing tuple is not a growth and evicts nothing
        t.install(tuple(1), MicroflowAction::Drop, SimTime::ZERO)
            .unwrap();
        assert_eq!(t.peek(&tuple(1)).unwrap().action, MicroflowAction::Drop);
        assert_eq!(t.len(), 1);
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn full_table_evicts_idle_soonest_entry() {
        let mut t = MicroflowTable::with_capacity(2);
        t.install(tuple(1), act(), SimTime::from_secs(30)).unwrap();
        t.install(tuple(2), act(), SimTime::from_secs(10)).unwrap();
        assert_eq!(t.evictions(), 0);
        // full: the new entry displaces tuple(2), whose deadline is soonest
        t.install(tuple(3), act(), SimTime::from_secs(60)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 1);
        assert!(t.peek(&tuple(2)).is_none(), "idle-soonest entry evicted");
        assert!(t.peek(&tuple(1)).is_some());
        assert!(t.peek(&tuple(3)).is_some());
        // a zero-capacity table still refuses outright
        let mut z = MicroflowTable::with_capacity(0);
        assert!(z.install(tuple(9), act(), SimTime::ZERO).is_err());
    }

    #[test]
    fn remove_returns_entry() {
        let mut t = MicroflowTable::new();
        t.install(tuple(7), act(), SimTime::ZERO).unwrap();
        assert!(t.remove(&tuple(7)).is_some());
        assert!(t.remove(&tuple(7)).is_none());
        assert!(t.is_empty());
    }
}
