//! Central controller state.
//!
//! Paper §5.2 divides controller state into slow-changing parts held with
//! strong consistency across replicas — "the service policy, the
//! subscriber attributes, the policy paths" — and the one fast-moving
//! part, UE location, which a recovering replica can rebuild by querying
//! local agents. [`ControllerState`] holds the policy, the subscribers
//! and the UE locations; the installed policy paths live in
//! [`crate::core`], which also restores locations
//! ([`CentralController::restore_locations`](crate::core::CentralController::restore_locations)).

use std::net::Ipv4Addr;

use serde::Serialize;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_types::{
    BaseStationId, Error, FxHashMap, IdPool, Ipv4Prefix, Result, SimTime, UeId, UeImsi,
};

/// One attached UE as the controller sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct UeRecord {
    /// Subscriber identity.
    pub imsi: UeImsi,
    /// The permanent address (DHCP-assigned at attach; it does not change
    /// while the UE stays attached, handoffs included — paper §3.1).
    pub permanent_ip: Ipv4Addr,
    /// Current base station.
    pub bs: BaseStationId,
    /// Local UE id at that base station (assigned by the local agent).
    pub ue_id: UeId,
    /// When the UE last attached or moved.
    pub since: SimTime,
}

/// The central controller's replicated state.
#[derive(Clone, Debug, Serialize)]
pub struct ControllerState {
    /// The service policy, fixed at construction.
    policy: ServicePolicy,
    subscribers: FxHashMap<UeImsi, SubscriberAttributes>,
    ues: FxHashMap<UeImsi, UeRecord>,
    by_loc: FxHashMap<(BaseStationId, UeId), UeImsi>,
    /// Locations still carrying anchored traffic after a handoff: "the
    /// controller does not assign the old location-dependent address to
    /// any new UEs" until the transition ends (§5.1). Maps to the owning
    /// subscriber so a returning UE may reclaim its own address.
    reserved: FxHashMap<(BaseStationId, UeId), UeImsi>,
    /// Owner → the locations it vacated, so `detach` visits only the
    /// detaching UE's reservations instead of every live one. Holds
    /// every location `reserved` maps to the owner, and possibly some it
    /// no longer does (re-claimed by the owner's return, or released):
    /// `reserved` is the truth, this only says where to look.
    reserved_by: FxHashMap<UeImsi, Vec<(BaseStationId, UeId)>>,
    /// DHCP pool for permanent addresses.
    permanent_pool: Ipv4Prefix,
    /// Host offsets into `permanent_pool`, less one (`.0` is reserved).
    permanent: IdPool,
}

impl ControllerState {
    /// Creates state with a policy and a permanent-address pool.
    pub fn new(policy: ServicePolicy, permanent_pool: Ipv4Prefix) -> Self {
        ControllerState {
            policy,
            subscribers: FxHashMap::default(),
            ues: FxHashMap::default(),
            by_loc: FxHashMap::default(),
            reserved: FxHashMap::default(),
            reserved_by: FxHashMap::default(),
            permanent_pool,
            permanent: IdPool::new((permanent_pool.size() - 1) as u32),
        }
    }

    /// The service policy (slow-changing; immutable after construction).
    pub fn policy(&self) -> &ServicePolicy {
        &self.policy
    }

    /// Registers (or updates) a subscriber's attributes.
    pub fn put_subscriber(&mut self, attrs: SubscriberAttributes) {
        self.subscribers.insert(attrs.imsi, attrs);
    }

    /// A subscriber's attributes.
    pub fn subscriber(&self, imsi: UeImsi) -> Result<&SubscriberAttributes> {
        self.subscribers
            .get(&imsi)
            .ok_or_else(|| Error::NotFound(format!("unknown subscriber {imsi}")))
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Allocates a permanent address: the most recently freed one, else
    /// the next never-used one.
    fn allocate_permanent_ip(&mut self) -> Result<Ipv4Addr> {
        let off = self.permanent.allocate().ok_or_else(|| {
            Error::Exhausted(format!(
                "permanent address pool {} exhausted",
                self.permanent_pool
            ))
        })?;
        Ok(Ipv4Addr::from(self.permanent_pool.raw_bits() + 1 + off))
    }

    /// A permanent address's offset in the pool (wrapping for an
    /// address outside it, which no pool holds).
    fn offset(&self, ip: Ipv4Addr) -> u32 {
        u32::from(ip).wrapping_sub(self.permanent_pool.raw_bits() + 1)
    }

    /// Records a UE attachment (or re-attachment after detach). The UE id
    /// comes from the local agent; the permanent address from this
    /// state's pool. Returns the record. A UE already attached at exactly
    /// `(bs, ue_id)` gets its live record back, unchanged (an agent
    /// re-registering after a reconnect); anywhere else it is refused,
    /// since a move is a handoff (§5.1).
    pub fn attach(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<UeRecord> {
        self.subscriber(imsi)?;
        if let Some(existing) = self.ues.get(&imsi) {
            if (existing.bs, existing.ue_id) == (bs, ue_id) {
                return Ok(*existing);
            }
            return Err(Error::InvalidState(format!(
                "{imsi} already attached at {}",
                existing.bs
            )));
        }
        if !self.location_available(bs, ue_id, imsi) {
            return Err(Error::InvalidState(format!(
                "location ({bs},{ue_id}) already occupied or reserved"
            )));
        }
        let permanent_ip = self.allocate_permanent_ip()?;
        self.reserved.remove(&(bs, ue_id));
        let rec = UeRecord {
            imsi,
            permanent_ip,
            bs,
            ue_id,
            since: now,
        };
        self.ues.insert(imsi, rec);
        self.by_loc.insert((bs, ue_id), imsi);
        Ok(rec)
    }

    /// Everything that can refuse a move, without moving: the UE's
    /// records before and after it, if it may take the new location.
    pub(crate) fn check_move(
        &self,
        imsi: UeImsi,
        new_bs: BaseStationId,
        new_ue_id: UeId,
        now: SimTime,
    ) -> Result<(UeRecord, UeRecord)> {
        let old = *self.ue(imsi)?;
        if !self.location_available(new_bs, new_ue_id, imsi) {
            return Err(Error::InvalidState(format!(
                "location ({new_bs},{new_ue_id}) already occupied or reserved"
            )));
        }
        let new = UeRecord {
            bs: new_bs,
            ue_id: new_ue_id,
            since: now,
            ..old
        };
        Ok((old, new))
    }

    /// Performs a move [`check_move`](Self::check_move) allowed.
    pub(crate) fn commit_move(&mut self, old: UeRecord, new: UeRecord) {
        let imsi = old.imsi;
        // The old location-dependent address must not be reassigned while
        // old flows still use it (§5.1): it moves into the reserved set
        // until the mobility transition expires.
        self.by_loc.remove(&(old.bs, old.ue_id));
        self.reserved.remove(&(new.bs, new.ue_id));
        // stale entries are dropped here, so the list never outgrows the
        // UE's live reservations however long it stays attached
        let vacated = self.reserved_by.entry(imsi).or_default();
        vacated.retain(|loc| self.reserved.get(loc) == Some(&imsi));
        vacated.push((old.bs, old.ue_id));
        self.reserved.insert((old.bs, old.ue_id), imsi);
        self.ues.insert(imsi, new);
        self.by_loc.insert((new.bs, new.ue_id), imsi);
    }

    /// Detaches a UE, releasing its permanent address.
    pub fn detach(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        let rec = self
            .ues
            .remove(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached")))?;
        self.by_loc.remove(&(rec.bs, rec.ue_id));
        // a detached UE's anchored flows are dead: its reservations lapse
        for loc in self.reserved_by.remove(&imsi).unwrap_or_default() {
            if self.reserved.get(&loc) == Some(&imsi) {
                self.reserved.remove(&loc);
            }
        }
        self.permanent.release(self.offset(rec.permanent_ip));
        Ok(rec)
    }

    /// The record of an attached UE.
    pub fn ue(&self, imsi: UeImsi) -> Result<&UeRecord> {
        self.ues
            .get(&imsi)
            .ok_or_else(|| Error::NotFound(format!("{imsi} not attached")))
    }

    /// Reverse lookup: who is at a location.
    pub fn at_location(&self, bs: BaseStationId, ue_id: UeId) -> Option<UeImsi> {
        self.by_loc.get(&(bs, ue_id)).copied()
    }

    /// Whether a location may be assigned to `imsi`: neither occupied
    /// nor reserved by another subscriber's in-transition flows.
    pub fn location_available(&self, bs: BaseStationId, ue_id: UeId, imsi: UeImsi) -> bool {
        !self.by_loc.contains_key(&(bs, ue_id))
            && self
                .reserved
                .get(&(bs, ue_id))
                .map(|owner| *owner == imsi)
                .unwrap_or(true)
    }

    /// Releases a reserved location once its transition has ended. A
    /// location the subscriber has since reclaimed (returned home) stays
    /// live. Returns whether the location was released.
    pub fn release_location(&mut self, bs: BaseStationId, ue_id: UeId) -> bool {
        let vacant = !self.by_loc.contains_key(&(bs, ue_id));
        if vacant {
            self.reserved.remove(&(bs, ue_id));
        }
        vacant
    }

    /// Number of reserved (in-transition) locations.
    pub fn reserved_count(&self) -> usize {
        self.reserved.len()
    }

    /// The ids reserved at one station for in-transition flows.
    pub fn reserved_at(&self, bs: BaseStationId) -> impl Iterator<Item = UeId> + '_ {
        self.reserved
            .keys()
            .filter(move |(b, _)| *b == bs)
            .map(|(_, id)| *id)
    }

    /// All attached UEs (iteration order unspecified).
    pub fn attached(&self) -> impl Iterator<Item = &UeRecord> {
        self.ues.values()
    }

    /// Number of attached UEs.
    pub fn attached_count(&self) -> usize {
        self.ues.len()
    }

    /// The permanent-address pool: host offsets, less one.
    pub fn address_pool(&self) -> &IdPool {
        &self.permanent
    }

    /// A fresh address pool holding exactly `records`' addresses: what
    /// §5.2's rebuild derives from the agents' reports alone.
    pub(crate) fn address_pool_of(&self, records: &[UeRecord]) -> IdPool {
        let mut pool = IdPool::new((self.permanent_pool.size() - 1) as u32);
        for rec in records {
            pool.adopt(self.offset(rec.permanent_ip));
        }
        pool
    }

    /// Replaces the UE registry with `records` and the address pool with
    /// the one `(next, free)` rebuilds (see
    /// [`CentralController::restore_locations`](crate::core::CentralController::restore_locations)).
    /// Refuses, changing nothing, an unknown subscriber, an IMSI or a
    /// location listed twice, and a pool that does not hold exactly the
    /// records' addresses.
    pub(crate) fn restore_locations(
        &mut self,
        records: &[UeRecord],
        (next, free): (u32, &[u32]),
    ) -> Result<()> {
        let refuse = |what: String| Err(Error::InvalidState(format!("cannot restore: {what}")));
        let capacity = (self.permanent_pool.size() - 1) as u32;
        let Some(pool) = IdPool::from_parts(capacity, next, free) else {
            return refuse("an inconsistent address pool".into());
        };
        // each record releases its address from a copy once: a second
        // record at one address finds it free, and what stays held has
        // no record
        let mut unclaimed = pool.clone();
        let mut ues = FxHashMap::default();
        let mut by_loc = FxHashMap::default();
        for rec in records {
            self.subscriber(rec.imsi)?;
            let off = self.offset(rec.permanent_ip);
            if ues.insert(rec.imsi, *rec).is_some()
                || by_loc.insert((rec.bs, rec.ue_id), rec.imsi).is_some()
            {
                return refuse(format!("{} or its location listed twice", rec.imsi));
            }
            if !unclaimed.release(off) {
                return refuse(format!("the pool does not hold {}", rec.permanent_ip));
            }
        }
        if unclaimed.allocated() != 0 {
            return refuse("the pool holds addresses no record has".into());
        }
        self.permanent = pool;
        self.ues = ues;
        self.by_loc = by_loc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_policy::ServicePolicy;

    impl ControllerState {
        /// A handoff's state half: check, then commit.
        pub(crate) fn move_ue(
            &mut self,
            imsi: UeImsi,
            new_bs: BaseStationId,
            new_ue_id: UeId,
            now: SimTime,
        ) -> Result<(UeRecord, UeRecord)> {
            let (old, new) = self.check_move(imsi, new_bs, new_ue_id, now)?;
            self.commit_move(old, new);
            Ok((old, new))
        }
    }

    fn state() -> ControllerState {
        let mut s = ControllerState::new(
            ServicePolicy::example_carrier_a(1),
            "100.64.0.0/10".parse().unwrap(),
        );
        for i in 0..4 {
            s.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
        }
        s
    }

    #[test]
    fn attach_assigns_distinct_permanent_ips() {
        let mut s = state();
        let a = s
            .attach(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let b = s
            .attach(UeImsi(1), BaseStationId(0), UeId(1), SimTime::ZERO)
            .unwrap();
        assert_ne!(a.permanent_ip, b.permanent_ip);
        assert!(Ipv4Prefix::from(a.permanent_ip).network().octets()[0] == 100);
        assert_eq!(s.attached_count(), 2);
    }

    #[test]
    fn attach_requires_known_subscriber_and_free_location() {
        let mut s = state();
        assert!(s
            .attach(UeImsi(99), BaseStationId(0), UeId(0), SimTime::ZERO)
            .is_err());
        s.attach(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        // same UE twice
        assert!(s
            .attach(UeImsi(0), BaseStationId(1), UeId(0), SimTime::ZERO)
            .is_err());
        // same slot twice
        assert!(s
            .attach(UeImsi(1), BaseStationId(0), UeId(0), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn permanent_ip_survives_handoff_not_detach() {
        let mut s = state();
        let rec = s
            .attach(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        let (old, new) = s
            .move_ue(UeImsi(0), BaseStationId(1), UeId(5), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(old.bs, BaseStationId(0));
        assert_eq!(new.bs, BaseStationId(1));
        assert_eq!(new.permanent_ip, rec.permanent_ip, "permanent IP is stable");
        assert_eq!(s.at_location(BaseStationId(1), UeId(5)), Some(UeImsi(0)));
        assert_eq!(s.at_location(BaseStationId(0), UeId(0)), None);

        let gone = s.detach(UeImsi(0)).unwrap();
        assert_eq!(gone.permanent_ip, rec.permanent_ip);
        // the address is recycled for the next newcomer
        let again = s
            .attach(UeImsi(1), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(again.permanent_ip, rec.permanent_ip);
    }

    #[test]
    fn location_rebuild_round_trips() {
        let mut s = state();
        s.attach(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        s.attach(UeImsi(1), BaseStationId(1), UeId(3), SimTime::ZERO)
            .unwrap();
        let saved: Vec<UeRecord> = s.attached().copied().collect();
        let mut back = state();
        back.restore_locations(&saved, s.address_pool().parts())
            .unwrap();
        assert_eq!(back.attached_count(), 2);
        assert_eq!(back.at_location(BaseStationId(1), UeId(3)), Some(UeImsi(1)));
    }

    #[test]
    fn a_restore_that_disagrees_with_its_pool_changes_nothing() {
        let rec = |imsi, ip: u8, id| UeRecord {
            imsi: UeImsi(imsi),
            permanent_ip: Ipv4Addr::new(100, 64, 0, ip),
            bs: BaseStationId(0),
            ue_id: UeId(id),
            since: SimTime::ZERO,
        };
        let mut s = state();
        let held = (2, &[][..]); // 100.64.0.1 and .2
        let refused: [&[UeRecord]; 5] = [
            &[rec(0, 1, 0), rec(0, 2, 1)], // one IMSI twice
            &[rec(0, 1, 0), rec(1, 2, 0)], // one location twice
            &[rec(0, 1, 0), rec(1, 1, 1)], // one address twice
            &[rec(0, 1, 0)],               // .2 held by no record
            &[rec(0, 1, 0), rec(9, 2, 1)], // an unknown subscriber
        ];
        for records in refused {
            assert!(s.restore_locations(records, held).is_err(), "{records:?}");
        }
        // an inconsistent pool: id 1 free past the cursor
        assert!(s.restore_locations(&[rec(0, 1, 0)], (1, &[1])).is_err());
        assert_eq!(s.attached_count(), 0);
        assert_eq!(s.address_pool().allocated(), 0);
        s.restore_locations(&[rec(0, 1, 0), rec(1, 2, 1)], held)
            .unwrap();
        assert_eq!(s.attached_count(), 2);
    }

    #[test]
    fn a_restored_address_is_not_handed_out_again() {
        let mut s = state();
        let restored = UeRecord {
            imsi: UeImsi(0),
            permanent_ip: Ipv4Addr::new(100, 64, 0, 1),
            bs: BaseStationId(0),
            ue_id: UeId(0),
            since: SimTime::ZERO,
        };
        s.restore_locations(&[restored], (1, &[])).unwrap();
        let fresh = s
            .attach(UeImsi(1), BaseStationId(0), UeId(1), SimTime::ZERO)
            .unwrap();
        assert_ne!(fresh.permanent_ip, restored.permanent_ip);
        // detaching the restored UE hands its address back
        s.detach(UeImsi(0)).unwrap();
        let again = s
            .attach(UeImsi(2), BaseStationId(0), UeId(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(again.permanent_ip, restored.permanent_ip);
    }

    #[test]
    fn move_rejects_occupied_target() {
        let mut s = state();
        s.attach(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        s.attach(UeImsi(1), BaseStationId(1), UeId(0), SimTime::ZERO)
            .unwrap();
        assert!(s
            .move_ue(UeImsi(0), BaseStationId(1), UeId(0), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn detach_lapses_only_the_detaching_ues_reservations() {
        let (a, b) = (BaseStationId(0), BaseStationId(1));
        let mut s = state();
        s.attach(UeImsi(0), a, UeId(0), SimTime::ZERO).unwrap();
        s.attach(UeImsi(1), a, UeId(1), SimTime::ZERO).unwrap();
        // ue1 leaves (a,1) reserved; ue0 leaves (a,0) reserved, returns
        // to re-claim it, and leaves it reserved a second time
        s.move_ue(UeImsi(1), b, UeId(1), SimTime::ZERO).unwrap();
        s.move_ue(UeImsi(0), b, UeId(0), SimTime::ZERO).unwrap();
        s.move_ue(UeImsi(0), a, UeId(0), SimTime::ZERO).unwrap();
        assert_eq!(s.reserved_count(), 2, "(a,1) and (b,0)");
        s.move_ue(UeImsi(0), b, UeId(2), SimTime::ZERO).unwrap();
        assert_eq!(s.reserved_count(), 3, "(a,1), (b,0) and (a,0) again");

        s.detach(UeImsi(0)).unwrap();
        assert_eq!(s.reserved_count(), 1, "ue0's two lapse, ue1's stays");
        assert!(!s.location_available(a, UeId(1), UeImsi(2)));
        assert!(s.location_available(a, UeId(1), UeImsi(1)));
        assert!(s.location_available(a, UeId(0), UeImsi(2)));
        assert!(s.location_available(b, UeId(0), UeImsi(2)));

        // a location ue1 vacated and the transition expiry released is
        // someone else's by the time ue1 detaches: it must survive
        s.move_ue(UeImsi(1), b, UeId(3), SimTime::ZERO).unwrap();
        assert!(s.release_location(b, UeId(1)));
        s.attach(UeImsi(2), b, UeId(1), SimTime::ZERO).unwrap();
        s.move_ue(UeImsi(2), a, UeId(2), SimTime::ZERO).unwrap();
        s.detach(UeImsi(1)).unwrap();
        assert_eq!(s.reserved_count(), 1);
        assert!(!s.location_available(b, UeId(1), UeImsi(3)), "ue2's");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The owner index against the scan it replaced: after any
            /// attach / move / release / detach sequence the reserved
            /// set is the one `retain(|_, owner| owner != imsi)` leaves.
            #[test]
            fn reserved_index_matches_retain_model(
                ops in proptest::collection::vec((0u8..6, 0u64..4, 0u32..2, 0u16..3), 1..300),
            ) {
                let mut s = state();
                let mut model: std::collections::HashMap<(BaseStationId, UeId), UeImsi> =
                    Default::default();
                for (op, imsi, bs, id) in ops {
                    let (imsi, bs, id) = (UeImsi(imsi), BaseStationId(bs), UeId(id));
                    match op {
                        0 => {
                            if s.attach(imsi, bs, id, SimTime::ZERO).is_ok() {
                                model.remove(&(bs, id));
                            }
                        }
                        1..=3 => {
                            if let Ok((old, _)) = s.move_ue(imsi, bs, id, SimTime::ZERO) {
                                model.remove(&(bs, id));
                                model.insert((old.bs, old.ue_id), imsi);
                            }
                        }
                        4 => {
                            if s.release_location(bs, id) {
                                model.remove(&(bs, id));
                            }
                        }
                        _ => {
                            if s.detach(imsi).is_ok() {
                                model.retain(|_, owner| *owner != imsi);
                            }
                        }
                    }
                    prop_assert_eq!(s.reserved_count(), model.len());
                    for b in 0..2 {
                        for i in 0..3 {
                            let loc = (BaseStationId(b), UeId(i));
                            for who in 0..4 {
                                let free = s.at_location(loc.0, loc.1).is_none()
                                    && model.get(&loc).is_none_or(|o| *o == UeImsi(who));
                                prop_assert_eq!(
                                    s.location_available(loc.0, loc.1, UeImsi(who)),
                                    free
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
