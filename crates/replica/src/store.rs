//! The replicated state: what applying the log, in index order, leaves
//! on every seat.
//!
//! [`State::apply`] is the one deterministic step. The leader runs it
//! before it appends a record (so the reply carries the address or tag
//! the record gets), and every seat runs it, in index order, for every
//! record it holds. Allocation happens here — one address pool and one
//! tag pool for the whole cluster — so a seat that adopts another log
//! rebuilds the same state by replaying it ([`crate::log::Log::replay`]).
//! A log's folded prefix travels as the state it replays to
//! (`State::write` / `State::read`), pools included, so the records
//! after it allocate on the receiver as they did on the sender.
//!
//! The state is the §5.2 "slow-changing, strongly consistent" slice of
//! controller state: the UE registry (IMSI → location + permanent
//! address) and installed policy paths. Microflow state stays at the
//! agents and is rebuilt by `resync`, as the paper prescribes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use softcell_ctlchan::PacketIn;
use softcell_policy::clause::ClauseId;
use softcell_types::{BaseStationId, Error, IdPool, PolicyTag, Result, SimTime, UeId, UeImsi};

use crate::log::Cursor;

/// First permanent address, 100.64.0.1 (carrier-grade NAT space);
/// address-pool id `n` is this address plus `n`.
const PERMANENT_BASE: u32 = 0x6440_0001;

/// Size of the address pool: the rest of 100.64.0.0/10.
const PERMANENT_SPACE: u32 = (1 << 22) - 2;

/// Size of the tag pool; tag = pool id + 1, so tag 0 is never handed
/// out.
const TAG_SPACE: u32 = u16::MAX as u32;

/// Encoded lengths of a registry entry (IMSI, station, UE id, address,
/// clock) and of a path (station, clause, tag): they bound the counts a
/// state payload can claim.
const UE_LEN: usize = 8 + 4 + 2 + 4 + 8;
const PATH_LEN: usize = 4 + 2 + 2;

/// An attached UE's registry entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UeEntry {
    /// Current base station.
    pub bs: BaseStationId,
    /// Local UE id at that base station.
    pub ue_id: UeId,
    /// Permanent address; survives handoffs and re-homes.
    pub permanent_ip: Ipv4Addr,
    /// The agent's clock at the latest attach.
    pub since: SimTime,
}

/// What applying one record did: what the leader's reply carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The UE's entry after an attach.
    Attached(UeImsi, UeEntry),
    /// The entry a detach removed.
    Detached(UeImsi, UeEntry),
    /// The path's tag, installed by this record or an earlier one.
    Path(BaseStationId, ClauseId, PolicyTag),
}

/// The state one log replays to.
#[derive(Clone, Debug)]
pub struct State {
    ues: BTreeMap<UeImsi, UeEntry>,
    paths: BTreeMap<(BaseStationId, ClauseId), PolicyTag>,
    addresses: IdPool,
    tags: IdPool,
}

impl Default for State {
    fn default() -> State {
        State {
            ues: BTreeMap::new(),
            paths: BTreeMap::new(),
            addresses: IdPool::new(PERMANENT_SPACE),
            tags: IdPool::new(TAG_SPACE),
        }
    }
}

fn write_pool(pool: &IdPool, out: &mut Vec<u8>) {
    let (next, free) = pool.parts();
    out.extend_from_slice(&next.to_be_bytes());
    out.extend_from_slice(&(free.len() as u32).to_be_bytes());
    for id in free {
        out.extend_from_slice(&id.to_be_bytes());
    }
}

fn read_pool(r: &mut Cursor<'_>, capacity: u32, what: &str) -> Result<IdPool> {
    let next = r.take_u32()?;
    let n = r.take_u32()? as usize;
    if n > r.remaining() / 4 {
        return Err(Error::Malformed(format!("{what} pool claims {n} free ids")));
    }
    let mut free = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        free.push(r.take_u32()?);
    }
    IdPool::from_parts(capacity, next, &free)
        .ok_or_else(|| Error::Malformed(format!("inconsistent {what} pool")))
}

/// Reads a `u32` count of items of at least `len` bytes each, refusing a
/// count the rest of the payload cannot hold.
fn read_count(r: &mut Cursor<'_>, len: usize, what: &str) -> Result<usize> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() / len {
        return Err(Error::Malformed(format!(
            "state claims {n} {what} in {} bytes",
            r.remaining()
        )));
    }
    Ok(n)
}

impl State {
    /// Serializes the state: the registry, the paths, then the address
    /// and tag pools. Equal states encode to equal bytes.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.ues.len() as u32).to_be_bytes());
        for (imsi, e) in &self.ues {
            out.extend_from_slice(&imsi.0.to_be_bytes());
            out.extend_from_slice(&e.bs.0.to_be_bytes());
            out.extend_from_slice(&e.ue_id.0.to_be_bytes());
            out.extend_from_slice(&u32::from(e.permanent_ip).to_be_bytes());
            out.extend_from_slice(&e.since.0.to_be_bytes());
        }
        out.extend_from_slice(&(self.paths.len() as u32).to_be_bytes());
        for (&(bs, clause), tag) in &self.paths {
            out.extend_from_slice(&bs.0.to_be_bytes());
            out.extend_from_slice(&clause.0.to_be_bytes());
            out.extend_from_slice(&tag.0.to_be_bytes());
        }
        write_pool(&self.addresses, out);
        write_pool(&self.tags, out);
    }

    /// Parses [`State::write`] output. Truncation, a count the payload
    /// cannot hold, keys out of ascending order (which would not
    /// re-encode to the same bytes), an inconsistent pool, and an
    /// address or tag the pool does not hold (or a pool holding one
    /// more) are each an [`Error::Malformed`], never a panic.
    pub(crate) fn read(r: &mut Cursor<'_>) -> Result<State> {
        let mut ues = BTreeMap::new();
        for _ in 0..read_count(r, UE_LEN, "UEs")? {
            let imsi = UeImsi(r.take_u64()?);
            let entry = UeEntry {
                bs: BaseStationId(r.take_u32()?),
                ue_id: UeId(r.take_u16()?),
                permanent_ip: Ipv4Addr::from(r.take_u32()?),
                since: SimTime(r.take_u64()?),
            };
            if ues.last_key_value().is_some_and(|(last, _)| *last >= imsi) {
                return Err(Error::Malformed(format!("UE {imsi} out of order")));
            }
            ues.insert(imsi, entry);
        }
        let mut paths = BTreeMap::new();
        for _ in 0..read_count(r, PATH_LEN, "paths")? {
            let key = (BaseStationId(r.take_u32()?), ClauseId(r.take_u16()?));
            if paths.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(Error::Malformed(format!("path {key:?} out of order")));
            }
            paths.insert(key, PolicyTag(r.take_u16()?));
        }
        let addresses = read_pool(r, PERMANENT_SPACE, "address")?;
        let tags = read_pool(r, TAG_SPACE, "tag")?;
        let ips_held = ues
            .values()
            .all(|e| addresses.is_held(u32::from(e.permanent_ip).wrapping_sub(PERMANENT_BASE)));
        let tags_held = paths.values().all(|t| {
            t.0.checked_sub(1)
                .is_some_and(|id| tags.is_held(u32::from(id)))
        });
        if !ips_held
            || !tags_held
            || addresses.allocated() != ues.len()
            || tags.allocated() != paths.len()
        {
            return Err(Error::Malformed("state registry and pools disagree".into()));
        }
        Ok(State {
            ues,
            paths,
            addresses,
            tags,
        })
    }

    /// Applies one agent input. An attach upserts by IMSI — a known UE
    /// keeps its address, a new one draws the next — a detach frees the
    /// address, and a path request answers with the installed tag or
    /// draws the next. An error (an unknown IMSI, an exhausted pool)
    /// changes nothing.
    pub fn apply(&mut self, op: &PacketIn) -> Result<Applied> {
        match *op {
            PacketIn::Attach {
                imsi,
                bs,
                ue_id,
                now,
            } => {
                let permanent_ip = match self.ues.get(&imsi) {
                    Some(e) => e.permanent_ip,
                    None => {
                        let id = self.addresses.allocate().ok_or_else(|| {
                            Error::Exhausted("permanent-address pool exhausted".into())
                        })?;
                        Ipv4Addr::from(PERMANENT_BASE + id)
                    }
                };
                let entry = UeEntry {
                    bs,
                    ue_id,
                    permanent_ip,
                    since: now,
                };
                self.ues.insert(imsi, entry);
                Ok(Applied::Attached(imsi, entry))
            }
            PacketIn::Detach { imsi } => {
                let entry = self
                    .ues
                    .remove(&imsi)
                    .ok_or_else(|| Error::NotFound(format!("{imsi} is not attached")))?;
                self.addresses
                    .release(u32::from(entry.permanent_ip).wrapping_sub(PERMANENT_BASE));
                Ok(Applied::Detached(imsi, entry))
            }
            PacketIn::PathRequest { bs, clause } => {
                let tag = match self.paths.entry((bs, clause)) {
                    Entry::Occupied(o) => *o.get(),
                    Entry::Vacant(v) => {
                        let id = self
                            .tags
                            .allocate()
                            .ok_or_else(|| Error::Exhausted("tag pool exhausted".into()))?;
                        *v.insert(PolicyTag(id as u16 + 1))
                    }
                };
                Ok(Applied::Path(bs, clause, tag))
            }
        }
    }

    /// The registry entry for `imsi`, if attached.
    pub fn ue(&self, imsi: UeImsi) -> Option<&UeEntry> {
        self.ues.get(&imsi)
    }

    /// The tag of the installed path for `(bs, clause)`, if any.
    pub fn path(&self, bs: BaseStationId, clause: ClauseId) -> Option<PolicyTag> {
        self.paths.get(&(bs, clause)).copied()
    }

    /// Number of attached UEs.
    pub fn ue_count(&self) -> usize {
        self.ues.len()
    }

    /// Number of installed paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attach(imsi: u64, bs: u32) -> PacketIn {
        PacketIn::Attach {
            imsi: UeImsi(imsi),
            bs: BaseStationId(bs),
            ue_id: UeId(1),
            now: SimTime(imsi),
        }
    }

    fn attached(s: &mut State, op: PacketIn) -> UeEntry {
        match s.apply(&op).unwrap() {
            Applied::Attached(_, e) => e,
            other => panic!("attach applied as {other:?}"),
        }
    }

    #[test]
    fn handoff_is_an_upsert_keeping_permanent_ip() {
        let mut s = State::default();
        let first = attached(&mut s, attach(7, 3));
        let moved = attached(&mut s, attach(7, 5));
        assert_eq!(moved.bs, BaseStationId(5));
        assert_eq!(moved.permanent_ip, first.permanent_ip);
        assert_eq!(s.ue_count(), 1, "upsert, not a second entry");

        // A detach frees the address for the next new UE; detaching an
        // unknown IMSI is refused and changes nothing.
        s.apply(&PacketIn::Detach { imsi: UeImsi(7) }).unwrap();
        assert!(s.apply(&PacketIn::Detach { imsi: UeImsi(7) }).is_err());
        assert_eq!(
            attached(&mut s, attach(8, 3)).permanent_ip,
            first.permanent_ip
        );
    }

    fn bytes(s: &State) -> Vec<u8> {
        let mut out = Vec::new();
        s.write(&mut out);
        out
    }

    #[test]
    fn state_round_trips_and_refuses_disagreeing_pools() {
        let mut s = State::default();
        for imsi in 0..5 {
            attached(&mut s, attach(imsi, 1));
        }
        for imsi in [3, 1] {
            s.apply(&PacketIn::Detach { imsi: UeImsi(imsi) }).unwrap();
        }
        s.apply(&PacketIn::PathRequest {
            bs: BaseStationId(1),
            clause: ClauseId(0),
        })
        .unwrap();
        let buf = bytes(&s);
        let mut back = State::read(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(bytes(&back), buf);
        // the free list comes back in order: both hand out the same next
        assert_eq!(
            attached(&mut back, attach(9, 2)),
            attached(&mut s, attach(9, 2))
        );

        // UE count, path count, address pool (cursor, free count, ids),
        // then the tag pool: an address pool that frees one more id
        // than the registry leaves free disagrees with it
        let pool_at = 4 + 3 * UE_LEN + 4 + PATH_LEN;
        let free_at = pool_at + 4;
        let mut extra = buf[..free_at].to_vec();
        extra.extend_from_slice(&3u32.to_be_bytes());
        for id in [3u32, 1, 0] {
            extra.extend_from_slice(&id.to_be_bytes());
        }
        extra.extend_from_slice(&buf[free_at + 4 + 2 * 4..]);
        let got = State::read(&mut Cursor::new(&extra));
        assert!(matches!(got, Err(Error::Malformed(_))), "got {got:?}");
    }

    #[test]
    fn registry_entries_out_of_order_are_refused() {
        // two entries swapped would read back into the same map and
        // re-encode sorted: not the bytes that were read
        let mut s = State::default();
        for imsi in [1, 2] {
            attached(&mut s, attach(imsi, 1));
        }
        let mut buf = bytes(&s);
        let first = buf[4..4 + UE_LEN].to_vec();
        buf.copy_within(4 + UE_LEN..4 + 2 * UE_LEN, 4);
        buf[4 + UE_LEN..4 + 2 * UE_LEN].copy_from_slice(&first);
        let got = State::read(&mut Cursor::new(&buf));
        assert!(matches!(got, Err(Error::Malformed(_))), "got {got:?}");
    }
}
