//! Epochs, controller identity and replicated cluster membership.
//!
//! SoftCell leaves controller replication to "standard replication
//! techniques" (paper §5); this module supplies the deterministic core
//! those techniques need. An **epoch** is a monotonically increasing
//! term number: every membership change (a controller dying or being
//! readmitted) advances it, and every replicated log record carries the
//! epoch it was proposed under. A proposal stamped with an old epoch is
//! *fenced* — rejected by every peer — so a partitioned former leader
//! can never get state (and therefore flow-mods) acknowledged.
//!
//! Leadership is a pure function of the membership view: one view has
//! one leader, its first **live** seat ([`Membership::leader`]), which
//! orders every agent input of the cluster into one log. Two nodes with
//! the same [`Membership`] therefore always agree on the leader without
//! any extra coordination — which is what lets agents re-home
//! deterministically after a failure.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Error, Result};

/// Identity of one controller replica: its *seat* in the membership
/// ring. Seats are dense (`0..n`) and never renumbered; a dead seat
/// stays in the ring marked not-live so leadership stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ControllerId(pub u32);

impl ControllerId {
    /// The seat index as a usize, for indexing seat-ordered tables.
    pub fn seat(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ControllerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctl{}", self.0)
    }
}

/// A monotonic epoch counter.
///
/// The fence is the single authority on "which term is current" within
/// one process: it only ever rises, to the newest epoch observed.
/// Orderings are `AcqRel`/`Acquire`: writes made before raising the
/// fence happen-before every reader's observation of the new epoch.
#[derive(Debug)]
pub struct EpochFence {
    current: AtomicU64,
}

impl EpochFence {
    /// A fence starting at `epoch`.
    pub fn new(epoch: u64) -> EpochFence {
        EpochFence {
            current: AtomicU64::new(epoch),
        }
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Raises the fence to `epoch` if it is higher than the current
    /// value (used when learning of a newer term from a peer). Returns
    /// the resulting current epoch.
    pub fn observe(&self, epoch: u64) -> u64 {
        let mut cur = self.current.load(Ordering::Acquire);
        while epoch > cur {
            match self.current.compare_exchange_weak(
                cur,
                epoch,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return epoch,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

/// One replicated membership view: the epoch it was established in,
/// the fixed seat ring, and which seats are live.
///
/// Views are plain values — they are shipped between controllers in
/// epoch-change messages and compared structurally. All leadership
/// queries are pure functions of the view, so any two holders of an
/// equal view agree on every answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u64,
    live: Vec<bool>,
}

impl Membership {
    /// A fresh view: `seats` controllers, all live, epoch 1.
    /// (Epoch 0 is reserved as "before any view" so a zeroed wire field
    /// is never a valid term.)
    pub fn bootstrap(seats: usize) -> Result<Membership> {
        if seats == 0 {
            return Err(Error::Config("membership needs at least one seat".into()));
        }
        Ok(Membership {
            epoch: 1,
            live: vec![true; seats],
        })
    }

    /// Reconstructs a view from its wire representation.
    pub fn from_parts(epoch: u64, live: Vec<bool>) -> Result<Membership> {
        if live.is_empty() {
            return Err(Error::Malformed("membership with zero seats".into()));
        }
        if epoch == 0 {
            return Err(Error::Malformed("membership epoch 0 is reserved".into()));
        }
        Ok(Membership { epoch, live })
    }

    /// The epoch this view was established in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of seats in the ring (live or dead).
    pub fn seats(&self) -> usize {
        self.live.len()
    }

    /// Liveness flags in seat order (wire representation).
    pub fn live_flags(&self) -> &[bool] {
        &self.live
    }

    /// Whether `id` is a live seat in this view.
    pub fn is_live(&self, id: ControllerId) -> bool {
        self.live.get(id.seat()).copied().unwrap_or(false)
    }

    /// The successor view after declaring `dead` seats down: same ring,
    /// epoch advanced by one. Declaring an unknown seat is an error;
    /// declaring an already-dead seat is idempotent.
    pub fn advance(&self, dead: &[ControllerId]) -> Result<Membership> {
        let mut live = self.live.clone();
        for id in dead {
            let slot = live
                .get_mut(id.seat())
                .ok_or_else(|| Error::Range(format!("{id} is not a seat in this ring")))?;
            *slot = false;
        }
        if !live.iter().any(|l| *l) {
            return Err(Error::InvalidState(
                "membership change would leave no live seats".into(),
            ));
        }
        Ok(Membership {
            epoch: self.epoch + 1,
            live,
        })
    }

    /// The leader of this view: its first live seat. `None` only if no
    /// seat is live (unreachable for views built through
    /// [`Membership::advance`]).
    pub fn leader(&self) -> Option<ControllerId> {
        self.live
            .iter()
            .position(|live| *live)
            .map(|seat| ControllerId(seat as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_observe_is_monotonic() {
        let fence = EpochFence::new(3);
        assert_eq!(fence.observe(2), 3);
        assert_eq!(fence.observe(7), 7);
        assert_eq!(fence.observe(5), 7);
    }

    #[test]
    fn leader_is_the_first_live_seat() {
        let m = Membership::bootstrap(3).expect("3 seats");
        assert_eq!(m.leader(), Some(ControllerId(0)));
        // A follower dying does not move the leader.
        let m2 = m.advance(&[ControllerId(1)]).expect("kill seat 1");
        assert_eq!(m2.epoch(), 2);
        assert_eq!(m2.leader(), Some(ControllerId(0)));
        // The leader dying moves it to the next live seat.
        let m3 = m2.advance(&[ControllerId(0)]).expect("kill seat 0");
        assert_eq!(m3.leader(), Some(ControllerId(2)));
    }

    #[test]
    fn advance_refuses_to_empty_the_ring() {
        let m = Membership::bootstrap(2).expect("2 seats");
        let m2 = m.advance(&[ControllerId(0)]).expect("one left");
        assert!(m2.advance(&[ControllerId(1)]).is_err());
        assert!(m.advance(&[ControllerId(7)]).is_err());
    }

    #[test]
    fn equal_views_agree_on_every_leader() {
        let a = Membership::bootstrap(5)
            .and_then(|m| m.advance(&[ControllerId(0), ControllerId(2)]))
            .expect("view");
        let b = Membership::from_parts(a.epoch(), a.live_flags().to_vec()).expect("clone");
        assert_eq!(a.leader(), b.leader());
        assert_eq!(a.leader(), Some(ControllerId(1)));
    }
}
