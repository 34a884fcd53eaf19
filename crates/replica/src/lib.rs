//! Replicated control plane for SoftCell.
//!
//! The paper (§5) keeps one logically central controller and defers
//! fault tolerance to "standard replication techniques". The controller
//! crate already has the technique: every `ControllerServer` proposes
//! each agent request on a seat (`softcell_controller::ReplicaNode`),
//! which holds the log of the agents' inputs and the Algorithm-1 engine
//! it replays to, ships records to its peers and releases a reply at
//! quorum commit. A server on its own is a one-seat membership. This
//! crate runs several:
//!
//! * **Cluster + re-homing** ([`cluster`]) — N servers, one per seat,
//!   over an in-process mesh of peer links, `kill -9`-style link
//!   severance and partitions for crash testing, deterministic
//!   fail-over, and agent re-homing to the new leader's server with
//!   `resync` replay.
//! * **The `kill -9` drill** ([`drill`]) — the one recovery scenario,
//!   run by the recovery test and the campaign's `controller-kill`
//!   overlay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod drill;

pub use cluster::{rehome_agent, Cluster, Killable, Link};
pub use drill::controller_kill_drill;

#[cfg(test)]
mod testkit {
    //! What the crate's tests share: subscribers that each attach at a
    //! location of their own, and a seeded input mix.

    use rand::rngs::StdRng;
    use rand::Rng;
    use softcell_ctlchan::PacketIn;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::SubscriberAttributes;
    use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

    /// IMSIs `0..SUBSCRIBERS` are provisioned.
    pub(crate) const SUBSCRIBERS: u64 = 64;

    /// The clauses of `example_carrier_a(1)` whose paths install; clause
    /// 1 denies.
    pub(crate) const CLAUSES: [u16; 4] = [0, 2, 3, 5];

    pub(crate) fn subscribers() -> Vec<SubscriberAttributes> {
        (0..SUBSCRIBERS)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    /// `imsi`'s attach at its own location: station `imsi % 4`, id
    /// `imsi / 4 + 1`.
    pub(crate) fn attach(imsi: u64) -> PacketIn {
        PacketIn::Attach {
            imsi: UeImsi(imsi),
            bs: BaseStationId((imsi % 4) as u32),
            ue_id: UeId((imsi / 4 + 1) as u16),
            now: SimTime(imsi),
        }
    }

    /// One input of a seeded mix: attaches at the subscriber's own
    /// location, detaches, path requests over the four clauses that
    /// install and the one that denies, and attaches the engine refuses
    /// (an unknown IMSI; a second station, refused once the UE is
    /// attached).
    pub(crate) fn input(rng: &mut StdRng) -> PacketIn {
        let imsi = rng.gen_range(0..32u64);
        match rng.gen_range(0..20u32) {
            0..=6 => attach(imsi),
            7..=9 => PacketIn::Detach { imsi: UeImsi(imsi) },
            10 => PacketIn::Attach {
                imsi: UeImsi(imsi + SUBSCRIBERS),
                bs: BaseStationId(0),
                ue_id: UeId(99),
                now: SimTime(imsi),
            },
            11 | 12 => PacketIn::Attach {
                imsi: UeImsi(imsi),
                bs: BaseStationId((imsi % 4 + 1) as u32),
                ue_id: UeId(200),
                now: SimTime(imsi),
            },
            13 => PacketIn::PathRequest {
                bs: BaseStationId(rng.gen_range(0..8u32)),
                clause: ClauseId(1),
            },
            _ => PacketIn::PathRequest {
                bs: BaseStationId(rng.gen_range(0..8u32)),
                clause: ClauseId(CLAUSES[rng.gen_range(0..4usize)]),
            },
        }
    }
}
