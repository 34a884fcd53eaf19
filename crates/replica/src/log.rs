//! The records of the replicated operation log.
//!
//! Every state-mutating controller operation — UE attach (which also
//! covers handoff, as an upsert by IMSI), detach, and policy-path
//! install — is serialized as a [`LogRecord`] before any flow-mod is
//! released. The *leader resolves all nondeterminism up front*: the
//! permanent IP and the policy tag are chosen by the originating node
//! and carried in the record, so replaying the same records in the same
//! per-origin order reconstructs byte-for-byte identical state on every
//! replica ([`crate::store::ReplicaStore`]). The store is the only
//! place a record lives once applied; no node keeps the records
//! themselves.
//!
//! Records are indexed per origin: each controller numbers its own
//! proposals `1, 2, 3, …` (its commit index plus one), and followers track
//! one applied watermark per origin seat. A record whose index is not
//! exactly `watermark + 1` is a gap (the follower missed traffic and
//! needs a snapshot) or a duplicate (a leader retry after a partial
//! quorum round) — both are detected, never silently applied.
//!
//! The wire encoding is hand-rolled and panic-free in both directions:
//! a malformed record from a peer must surface as
//! [`softcell_types::Error::Malformed`], never abort the controller.

use std::net::Ipv4Addr;

use softcell_policy::clause::ClauseId;
use softcell_types::{
    BaseStationId, ControllerId, Error, PolicyTag, Result, SimTime, UeId, UeImsi,
};

/// A state-mutating controller operation, fully resolved by the leader.
///
/// Every variant is an idempotent upsert (or removal) keyed by its
/// natural identity, so applying the same record twice is harmless and
/// follower replay needs no local decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicatedOp {
    /// UE attach *or handoff*: an upsert by IMSI. The permanent IP was
    /// resolved by the leader (reused for a known UE, slab-allocated
    /// for a new one) so followers never allocate.
    Attach {
        /// Subscriber identity.
        imsi: UeImsi,
        /// Base station the UE is (now) at.
        bs: BaseStationId,
        /// Local UE id at that base station.
        ue_id: UeId,
        /// Attach/handoff time.
        since: SimTime,
        /// The leader-resolved permanent address.
        permanent_ip: Ipv4Addr,
    },
    /// UE detach: tombstones the IMSI's record. Carries the `since` of
    /// the entry being removed so the store's last-writer-wins merge
    /// can order the tombstone against concurrent attaches (a stale
    /// attach arriving late must not resurrect the UE).
    Detach {
        /// Subscriber identity.
        imsi: UeImsi,
        /// Attach time of the entry being detached (merge key).
        since: SimTime,
    },
    /// Policy-path install for `(bs, clause)` with the leader-chosen
    /// tag (drawn from the origin seat's tag slab, so concurrent
    /// region leaders never collide).
    PathInstall {
        /// Originating base station.
        bs: BaseStationId,
        /// Governing policy clause.
        clause: ClauseId,
        /// The tag realizing the path end to end.
        tag: PolicyTag,
    },
}

const OP_ATTACH: u8 = 1;
const OP_DETACH: u8 = 2;
const OP_PATH_INSTALL: u8 = 3;

/// One entry of the replicated log: an operation stamped with its
/// origin seat, the epoch it was proposed under, and its per-origin
/// index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The proposing controller.
    pub origin: ControllerId,
    /// Epoch the proposal was made under; receivers reject records from
    /// epochs older than their membership view (fencing).
    pub epoch: u64,
    /// Per-origin sequence number (first record is 1).
    pub index: u64,
    /// The operation itself.
    pub op: ReplicatedOp,
}

impl LogRecord {
    /// Serializes the record for a `Replicate` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&self.origin.0.to_be_bytes());
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.index.to_be_bytes());
        match self.op {
            ReplicatedOp::Attach {
                imsi,
                bs,
                ue_id,
                since,
                permanent_ip,
            } => {
                out.push(OP_ATTACH);
                out.extend_from_slice(&imsi.0.to_be_bytes());
                out.extend_from_slice(&bs.0.to_be_bytes());
                out.extend_from_slice(&ue_id.0.to_be_bytes());
                out.extend_from_slice(&since.0.to_be_bytes());
                out.extend_from_slice(&u32::from(permanent_ip).to_be_bytes());
            }
            ReplicatedOp::Detach { imsi, since } => {
                out.push(OP_DETACH);
                out.extend_from_slice(&imsi.0.to_be_bytes());
                out.extend_from_slice(&since.0.to_be_bytes());
            }
            ReplicatedOp::PathInstall { bs, clause, tag } => {
                out.push(OP_PATH_INSTALL);
                out.extend_from_slice(&bs.0.to_be_bytes());
                out.extend_from_slice(&clause.0.to_be_bytes());
                out.extend_from_slice(&tag.0.to_be_bytes());
            }
        }
        out
    }

    /// Parses a record from a `Replicate` payload. Every malformed
    /// input — truncation, trailing bytes, an unknown op tag — is an
    /// [`Error::Malformed`], never a panic.
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let mut r = Cursor::new(buf);
        let origin = ControllerId(r.take_u32()?);
        let epoch = r.take_u64()?;
        let index = r.take_u64()?;
        let op = match r.take_u8()? {
            OP_ATTACH => ReplicatedOp::Attach {
                imsi: UeImsi(r.take_u64()?),
                bs: BaseStationId(r.take_u32()?),
                ue_id: UeId(r.take_u16()?),
                since: SimTime(r.take_u64()?),
                permanent_ip: Ipv4Addr::from(r.take_u32()?),
            },
            OP_DETACH => ReplicatedOp::Detach {
                imsi: UeImsi(r.take_u64()?),
                since: SimTime(r.take_u64()?),
            },
            OP_PATH_INSTALL => ReplicatedOp::PathInstall {
                bs: BaseStationId(r.take_u32()?),
                clause: ClauseId(r.take_u16()?),
                tag: PolicyTag(r.take_u16()?),
            },
            other => {
                return Err(Error::Malformed(format!(
                    "unknown replicated-op tag {other}"
                )))
            }
        };
        r.done()?;
        Ok(LogRecord {
            origin,
            epoch,
            index,
            op,
        })
    }
}

/// Bounds-checked big-endian reader over a record or snapshot payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = self
                    .buf
                    .get(self.pos..end)
                    .ok_or_else(|| Error::Malformed("log record cursor out of bounds".into()))?;
                self.pos = end;
                Ok(s)
            }
            None => Err(Error::Malformed(format!(
                "log record truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?.first().copied().unwrap_or_default())
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        b.try_into()
            .map(u16::from_be_bytes)
            .map_err(|_| Error::Malformed("u16 field truncated".into()))
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        b.try_into()
            .map(u32::from_be_bytes)
            .map_err(|_| Error::Malformed("u32 field truncated".into()))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        b.try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| Error::Malformed("u64 field truncated".into()))
    }

    pub(crate) fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Malformed(format!(
                "{} trailing bytes after log record",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: u64, op: ReplicatedOp) -> LogRecord {
        LogRecord {
            origin: ControllerId(2),
            epoch: 3,
            index,
            op,
        }
    }

    const OPS: [ReplicatedOp; 3] = [
        ReplicatedOp::Attach {
            imsi: UeImsi(7),
            bs: BaseStationId(11),
            ue_id: UeId(4),
            since: SimTime(99),
            permanent_ip: Ipv4Addr::new(100, 64, 1, 2),
        },
        ReplicatedOp::Detach {
            imsi: UeImsi(7),
            since: SimTime(99),
        },
        ReplicatedOp::PathInstall {
            bs: BaseStationId(11),
            clause: ClauseId(5),
            tag: PolicyTag(300),
        },
    ];

    #[test]
    fn records_round_trip() {
        for (i, op) in OPS.iter().enumerate() {
            let r = rec(i as u64 + 1, *op);
            let buf = r.encode();
            assert_eq!(LogRecord::decode(&buf).unwrap(), r);
        }
    }

    #[test]
    fn malformed_records_are_rejected_not_panicking() {
        let buf = rec(1, OPS[0]).encode();
        for cut in 0..buf.len() {
            assert!(
                LogRecord::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must be malformed"
            );
        }
        // trailing garbage
        let mut long = buf.clone();
        long.push(0);
        assert!(LogRecord::decode(&long).is_err());
        // unknown op tag
        let mut bad = buf;
        bad[20] = 0xEE;
        assert!(LogRecord::decode(&bad).is_err());
    }
}
