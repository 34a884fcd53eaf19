//! The replicated state store: the deterministic materialization of the
//! log.
//!
//! Records are totally ordered *per origin* but interleave arbitrarily
//! *across* origins — replica A may apply seat 0's record before seat
//! 1's while replica B applies them the other way around. The store is
//! therefore built so that application order across origins does not
//! matter: every key is a last-writer-wins register with a
//! deterministic merge key, so any two replicas that applied the same
//! *set* of records (each origin's prefix in order) hold byte-identical
//! state. [`ReplicaStore::snapshot_bytes`] is that byte string — the
//! oracle the recovery gate compares across survivors and against the
//! pre-kill leader.
//!
//! Merge keys:
//!
//! * UE registry — `(since, origin)`: a handoff's attach carries a later
//!   timestamp than the attach it supersedes, so the newest location
//!   wins regardless of arrival order. Detach writes a *tombstone*
//!   carrying the removed entry's own key, so a stale attach arriving
//!   late cannot resurrect a detached UE. Per-origin timestamps are
//!   monotone (one controller's clock), which makes the rule total.
//! * Policy paths — `(epoch, origin)`: the same `(bs, clause)` is only
//!   re-installed by a *different* controller after a leadership change,
//!   i.e. in a later epoch, so the newest leadership's path wins.
//!
//! The store holds the §5.2 "slow-changing, strongly consistent" slice
//! of controller state: the UE registry (IMSI → location + permanent IP)
//! and installed policy paths. Fast-moving microflow state stays at the
//! agents and is rebuilt by `resync`, exactly as the paper prescribes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use softcell_policy::clause::ClauseId;
use softcell_types::{
    BaseStationId, ControllerId, Error, PolicyTag, Result, SimTime, UeId, UeImsi,
};

use crate::log::{Cursor, LogRecord, ReplicatedOp};

/// An attached UE's replicated registry entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UeEntry {
    /// Current base station.
    pub bs: BaseStationId,
    /// Local UE id at that base station.
    pub ue_id: UeId,
    /// Leader-assigned permanent address; survives handoffs.
    pub permanent_ip: Ipv4Addr,
}

/// One IMSI's last-writer-wins register: the merge key of the winning
/// write plus the entry it established (`None` = detach tombstone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UeSlot {
    /// Timestamp of the winning write (attach time; a detach carries
    /// the `since` of the entry it removed).
    pub since: SimTime,
    /// Origin of the winning write (merge tiebreak).
    pub origin: ControllerId,
    /// The live entry, or `None` for a tombstone.
    pub entry: Option<UeEntry>,
}

/// An installed policy path's replicated entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathEntry {
    /// The tag realizing the path.
    pub tag: PolicyTag,
    /// Epoch of the installing leadership (merge key, with `origin`).
    pub epoch: u64,
    /// The installing controller (merge tiebreak).
    pub origin: ControllerId,
}

/// Deterministic replicated state, materialized from log records.
///
/// All maps are `BTreeMap` so iteration — and therefore
/// [`snapshot_bytes`](Self::snapshot_bytes) — is key-ordered and
/// identical on every replica holding the same state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStore {
    ues: BTreeMap<UeImsi, UeSlot>,
    paths: BTreeMap<(BaseStationId, ClauseId), PathEntry>,
    /// Per-origin applied watermark: highest index applied from each seat.
    applied: BTreeMap<ControllerId, u64>,
}

const SNAPSHOT_VERSION: u8 = 1;

impl ReplicaStore {
    /// An empty store (watermark 0 for every origin).
    pub fn new() -> ReplicaStore {
        ReplicaStore::default()
    }

    /// Highest index applied from `origin` (0 if none).
    pub fn applied(&self, origin: ControllerId) -> u64 {
        self.applied.get(&origin).copied().unwrap_or(0)
    }

    /// The live registry entry for `imsi` (tombstones excluded).
    pub fn ue(&self, imsi: UeImsi) -> Option<&UeEntry> {
        self.ues.get(&imsi).and_then(|s| s.entry.as_ref())
    }

    /// The full LWW slot for `imsi`, tombstones included.
    pub fn ue_slot(&self, imsi: UeImsi) -> Option<&UeSlot> {
        self.ues.get(&imsi)
    }

    /// The installed path for `(bs, clause)`, if any.
    pub fn path(&self, bs: BaseStationId, clause: ClauseId) -> Option<&PathEntry> {
        self.paths.get(&(bs, clause))
    }

    /// Number of *attached* UEs (tombstones excluded).
    pub fn ue_count(&self) -> usize {
        self.ues.values().filter(|s| s.entry.is_some()).count()
    }

    /// Number of installed paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Applies one log record.
    ///
    /// * `Ok(true)` — the record advanced this origin's watermark. (The
    ///   LWW merge may still have kept the existing value; the
    ///   watermark advances either way, identically on every replica.)
    /// * `Ok(false)` — duplicate (index ≤ watermark); state untouched.
    ///   Leader retries after a partial quorum round land here.
    /// * `Err(Range)` — gap (index > watermark + 1); the caller must
    ///   request a snapshot before this record can be applied.
    pub fn apply(&mut self, record: &LogRecord) -> Result<bool> {
        let watermark = self.applied(record.origin);
        if record.index <= watermark {
            return Ok(false);
        }
        if record.index > watermark + 1 {
            return Err(Error::Range(format!(
                "log gap from {}: record index {} but applied watermark {}",
                record.origin, record.index, watermark
            )));
        }
        match record.op {
            ReplicatedOp::Attach {
                imsi,
                bs,
                ue_id,
                since,
                permanent_ip,
            } => {
                self.merge_ue(
                    imsi,
                    UeSlot {
                        since,
                        origin: record.origin,
                        entry: Some(UeEntry {
                            bs,
                            ue_id,
                            permanent_ip,
                        }),
                    },
                );
            }
            ReplicatedOp::Detach { imsi, since } => {
                self.merge_ue(
                    imsi,
                    UeSlot {
                        since,
                        origin: record.origin,
                        entry: None,
                    },
                );
            }
            ReplicatedOp::PathInstall { bs, clause, tag } => {
                self.merge_path(
                    (bs, clause),
                    PathEntry {
                        tag,
                        epoch: record.epoch,
                        origin: record.origin,
                    },
                );
            }
        }
        self.applied.insert(record.origin, record.index);
        Ok(true)
    }

    /// LWW merge: the write with the greater `(since, origin)` key wins;
    /// an equal key (necessarily the same origin, whose records arrive
    /// in index order) means the later write wins. Returns whether the
    /// stored value changed.
    fn merge_ue(&mut self, imsi: UeImsi, incoming: UeSlot) -> bool {
        match self.ues.entry(imsi) {
            Entry::Vacant(v) => {
                v.insert(incoming);
                true
            }
            Entry::Occupied(mut o) => {
                let slot = o.get_mut();
                if (incoming.since, incoming.origin) >= (slot.since, slot.origin)
                    && *slot != incoming
                {
                    *slot = incoming;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// LWW merge for paths: the install from the greater
    /// `(epoch, origin)` leadership wins. Returns whether the stored
    /// value changed.
    fn merge_path(&mut self, key: (BaseStationId, ClauseId), incoming: PathEntry) -> bool {
        match self.paths.entry(key) {
            Entry::Vacant(v) => {
                v.insert(incoming);
                true
            }
            Entry::Occupied(mut o) => {
                let slot = o.get_mut();
                if (incoming.epoch, incoming.origin) >= (slot.epoch, slot.origin)
                    && *slot != incoming
                {
                    *slot = incoming;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Point-wise join of `other` into `self`: every LWW register keeps
    /// its winning write, and each origin's applied watermark becomes
    /// the max of the two sides. Because the store materializes records
    /// order-independently, the join of two stores equals the store that
    /// applied the *union* of their record sets — so merging a snapshot
    /// can never drop a committed record or regress a watermark, no
    /// matter which origins the sender was behind on. Returns whether
    /// `self` changed.
    pub fn merge(&mut self, other: &ReplicaStore) -> bool {
        let mut changed = false;
        for (imsi, slot) in &other.ues {
            changed |= self.merge_ue(*imsi, *slot);
        }
        for (key, entry) in &other.paths {
            changed |= self.merge_path(*key, *entry);
        }
        for (origin, index) in &other.applied {
            let mine = self.applied.entry(*origin).or_insert(0);
            if *index > *mine {
                *mine = *index;
                changed = true;
            }
        }
        changed
    }

    /// Whether `self` has applied records from some origin beyond
    /// `other`'s watermark — i.e. holds state `other` lacks.
    pub fn ahead_of(&self, other: &ReplicaStore) -> bool {
        self.applied
            .iter()
            .any(|(origin, index)| *index > other.applied(*origin))
    }

    /// Serializes the full store deterministically.
    ///
    /// Two replicas holding the same state produce *identical* byte
    /// strings — this is the recovery oracle and the `SnapshotTransfer`
    /// payload.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            13 + self.ues.len() * 31 + self.paths.len() * 20 + self.applied.len() * 12,
        );
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(self.ues.len() as u32).to_be_bytes());
        for (imsi, s) in &self.ues {
            out.extend_from_slice(&imsi.0.to_be_bytes());
            out.extend_from_slice(&s.since.0.to_be_bytes());
            out.extend_from_slice(&s.origin.0.to_be_bytes());
            match &s.entry {
                Some(e) => {
                    out.push(1);
                    out.extend_from_slice(&e.bs.0.to_be_bytes());
                    out.extend_from_slice(&e.ue_id.0.to_be_bytes());
                    out.extend_from_slice(&u32::from(e.permanent_ip).to_be_bytes());
                }
                None => out.push(0),
            }
        }
        out.extend_from_slice(&(self.paths.len() as u32).to_be_bytes());
        for ((bs, clause), p) in &self.paths {
            out.extend_from_slice(&bs.0.to_be_bytes());
            out.extend_from_slice(&clause.0.to_be_bytes());
            out.extend_from_slice(&p.tag.0.to_be_bytes());
            out.extend_from_slice(&p.epoch.to_be_bytes());
            out.extend_from_slice(&p.origin.0.to_be_bytes());
        }
        out.extend_from_slice(&(self.applied.len() as u32).to_be_bytes());
        for (origin, index) in &self.applied {
            out.extend_from_slice(&origin.0.to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
        }
        out
    }

    /// Reconstructs a store from [`snapshot_bytes`](Self::snapshot_bytes)
    /// output. Malformed input is an [`Error::Malformed`], never a panic
    /// — snapshots arrive over the wire from peers.
    pub fn restore(buf: &[u8]) -> Result<ReplicaStore> {
        let mut r = Cursor::new(buf);
        let version = r.take_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::Malformed(format!(
                "unknown snapshot version {version}"
            )));
        }
        let mut store = ReplicaStore::new();
        let n_ues = r.take_u32()?;
        for _ in 0..n_ues {
            let imsi = UeImsi(r.take_u64()?);
            let since = SimTime(r.take_u64()?);
            let origin = ControllerId(r.take_u32()?);
            let entry = match r.take_u8()? {
                0 => None,
                1 => Some(UeEntry {
                    bs: BaseStationId(r.take_u32()?),
                    ue_id: UeId(r.take_u16()?),
                    permanent_ip: Ipv4Addr::from(r.take_u32()?),
                }),
                other => {
                    return Err(Error::Malformed(format!(
                        "invalid UE slot discriminant {other}"
                    )))
                }
            };
            store.ues.insert(
                imsi,
                UeSlot {
                    since,
                    origin,
                    entry,
                },
            );
        }
        let n_paths = r.take_u32()?;
        for _ in 0..n_paths {
            let key = (BaseStationId(r.take_u32()?), ClauseId(r.take_u16()?));
            let entry = PathEntry {
                tag: PolicyTag(r.take_u16()?),
                epoch: r.take_u64()?,
                origin: ControllerId(r.take_u32()?),
            };
            store.paths.insert(key, entry);
        }
        let n_applied = r.take_u32()?;
        for _ in 0..n_applied {
            let origin = ControllerId(r.take_u32()?);
            let index = r.take_u64()?;
            store.applied.insert(origin, index);
        }
        r.done()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attach(origin: u32, index: u64, imsi: u64, bs: u32, since: u64) -> LogRecord {
        LogRecord {
            origin: ControllerId(origin),
            epoch: 1,
            index,
            op: ReplicatedOp::Attach {
                imsi: UeImsi(imsi),
                bs: BaseStationId(bs),
                ue_id: UeId(index as u16),
                since: SimTime(since),
                permanent_ip: Ipv4Addr::new(100, 64, origin as u8, imsi as u8),
            },
        }
    }

    fn detach(origin: u32, index: u64, imsi: u64, since: u64) -> LogRecord {
        LogRecord {
            origin: ControllerId(origin),
            epoch: 1,
            index,
            op: ReplicatedOp::Detach {
                imsi: UeImsi(imsi),
                since: SimTime(since),
            },
        }
    }

    fn path(origin: u32, index: u64, epoch: u64, bs: u32, clause: u16, tag: u16) -> LogRecord {
        LogRecord {
            origin: ControllerId(origin),
            epoch,
            index,
            op: ReplicatedOp::PathInstall {
                bs: BaseStationId(bs),
                clause: ClauseId(clause),
                tag: PolicyTag(tag),
            },
        }
    }

    #[test]
    fn apply_tracks_per_origin_watermarks() {
        let mut s = ReplicaStore::new();
        assert!(s.apply(&attach(0, 1, 7, 3, 10)).unwrap());
        assert!(s.apply(&attach(1, 1, 8, 4, 10)).unwrap());
        assert_eq!(s.applied(ControllerId(0)), 1);
        assert_eq!(s.applied(ControllerId(1)), 1);

        // duplicate: ignored, not an error (leader retry path)
        assert!(!s.apply(&attach(0, 1, 7, 3, 10)).unwrap());
        // gap: refused loudly
        assert!(s.apply(&attach(0, 3, 9, 3, 30)).is_err());
        assert_eq!(s.ue_count(), 2);
    }

    #[test]
    fn handoff_is_an_upsert_keeping_permanent_ip() {
        let mut s = ReplicaStore::new();
        s.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        let ip = s.ue(UeImsi(7)).unwrap().permanent_ip;
        // handoff: same origin re-attaches the IMSI at a new station
        let mut hand = attach(0, 2, 7, 5, 50);
        if let ReplicatedOp::Attach { permanent_ip, .. } = &mut hand.op {
            *permanent_ip = ip;
        }
        s.apply(&hand).unwrap();
        let e = s.ue(UeImsi(7)).unwrap();
        assert_eq!(e.bs, BaseStationId(5));
        assert_eq!(e.permanent_ip, ip);
        assert_eq!(s.ue_count(), 1, "upsert, not a second record");

        s.apply(&detach(0, 3, 7, 50)).unwrap();
        assert_eq!(s.ue_count(), 0);
        assert!(s.ue_slot(UeImsi(7)).is_some(), "tombstone retained");
    }

    #[test]
    fn cross_origin_handoff_converges_regardless_of_order() {
        // UE 7 attaches under seat 0 at t=10, hands off to seat 1's
        // region at t=50. Replica A applies 0's record first, replica B
        // applies 1's first — both must land on the same bytes, with
        // the *newer* location winning in both.
        let at0 = attach(0, 1, 7, 3, 10);
        let at1 = attach(1, 1, 7, 9, 50);
        let mut a = ReplicaStore::new();
        a.apply(&at0).unwrap();
        a.apply(&at1).unwrap();
        let mut b = ReplicaStore::new();
        b.apply(&at1).unwrap();
        b.apply(&at0).unwrap();
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        assert_eq!(a.ue(UeImsi(7)).unwrap().bs, BaseStationId(9));
    }

    #[test]
    fn tombstone_blocks_stale_attach_resurrection() {
        // Seat 1 handed the UE off (attach t=50) and later detached it;
        // seat 0's original attach (t=10) straggles in afterwards. The
        // tombstone's key (50, seat 1) beats the stale attach, so the
        // UE stays detached — no ghost divergence.
        let mut s = ReplicaStore::new();
        s.apply(&attach(1, 1, 7, 9, 50)).unwrap();
        s.apply(&detach(1, 2, 7, 50)).unwrap();
        s.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        assert_eq!(s.ue_count(), 0, "stale attach must not resurrect");
        // ...but a genuinely newer re-attach wins over the tombstone
        s.apply(&attach(0, 2, 7, 3, 80)).unwrap();
        assert_eq!(s.ue(UeImsi(7)).unwrap().bs, BaseStationId(3));
    }

    #[test]
    fn path_reinstall_after_leadership_change_wins_by_epoch() {
        // Old leader (seat 0, epoch 1) installed the path; after
        // fail-over the new leader (seat 1, epoch 2) re-installs it
        // with its own tag. Whichever order a replica sees them in,
        // the epoch-2 entry wins.
        let old = path(0, 1, 1, 3, 0, 5);
        let new = path(1, 1, 2, 3, 0, 261);
        let mut a = ReplicaStore::new();
        a.apply(&old).unwrap();
        a.apply(&new).unwrap();
        let mut b = ReplicaStore::new();
        b.apply(&new).unwrap();
        b.apply(&old).unwrap();
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        assert_eq!(
            a.path(BaseStationId(3), ClauseId(0)).unwrap().tag,
            PolicyTag(261)
        );
    }

    #[test]
    fn merge_is_the_union_of_record_sets() {
        // Store A applied seat 0's records, store B applied seat 1's;
        // merging either way must equal the store that applied both —
        // nothing lost, no watermark regressed.
        let mut a = ReplicaStore::new();
        a.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        a.apply(&path(0, 2, 1, 3, 0, 5)).unwrap();
        let mut b = ReplicaStore::new();
        b.apply(&attach(1, 1, 8, 9, 20)).unwrap();
        b.apply(&detach(1, 2, 8, 20)).unwrap();

        let mut oracle = ReplicaStore::new();
        for r in [
            attach(0, 1, 7, 3, 10),
            path(0, 2, 1, 3, 0, 5),
            attach(1, 1, 8, 9, 20),
            detach(1, 2, 8, 20),
        ] {
            oracle.apply(&r).unwrap();
        }

        let mut ab = a.clone();
        assert!(ab.merge(&b));
        let mut ba = b.clone();
        assert!(ba.merge(&a));
        assert_eq!(ab.snapshot_bytes(), oracle.snapshot_bytes());
        assert_eq!(ba.snapshot_bytes(), oracle.snapshot_bytes());
        assert_eq!(ab.applied(ControllerId(0)), 2);
        assert_eq!(ab.applied(ControllerId(1)), 2);

        // Merging a behind-store into an ahead-store changes nothing.
        let mut again = ab.clone();
        assert!(!again.merge(&a));
        assert_eq!(again.snapshot_bytes(), ab.snapshot_bytes());
    }

    #[test]
    fn merge_never_regresses_third_party_state() {
        // The high-severity review scenario: C applied a record from
        // origin 1 that A never saw. A's snapshot, merged at C, must
        // keep origin 1's record and watermark.
        let mut c = ReplicaStore::new();
        c.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        c.apply(&attach(1, 1, 8, 9, 20)).unwrap();
        let mut a = ReplicaStore::new();
        a.apply(&attach(0, 1, 7, 3, 10)).unwrap();

        assert!(c.ahead_of(&a), "C holds origin 1 state A lacks");
        assert!(!a.ahead_of(&c));
        assert!(!c.merge(&a), "A's subset snapshot changes nothing at C");
        assert_eq!(c.applied(ControllerId(1)), 1, "watermark kept");
        assert!(c.ue(UeImsi(8)).is_some(), "committed record kept");
    }

    #[test]
    fn snapshot_round_trips_byte_for_byte() {
        let mut s = ReplicaStore::new();
        s.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        s.apply(&attach(1, 1, 9, 4, 20)).unwrap();
        s.apply(&detach(1, 2, 9, 20)).unwrap();
        s.apply(&path(1, 3, 1, 4, 0, 256)).unwrap();
        let bytes = s.snapshot_bytes();
        let restored = ReplicaStore::restore(&bytes).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.snapshot_bytes(), bytes);
    }

    #[test]
    fn malformed_snapshots_are_rejected_not_panicking() {
        let mut s = ReplicaStore::new();
        s.apply(&attach(0, 1, 7, 3, 10)).unwrap();
        s.apply(&detach(0, 2, 7, 10)).unwrap();
        s.apply(&path(0, 3, 1, 3, 0, 1)).unwrap();
        let bytes = s.snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(ReplicaStore::restore(&bytes[..cut]).is_err());
        }
        let mut long = bytes.clone();
        long.push(9);
        assert!(ReplicaStore::restore(&long).is_err());
        let mut bad = bytes;
        bad[0] = 99; // unknown version
        assert!(ReplicaStore::restore(&bad).is_err());
    }
}
