//! Replicated control plane for SoftCell.
//!
//! The paper (§5) keeps one logically central controller and defers
//! fault tolerance to "standard replication techniques". This crate is
//! state-machine replication of that controller, the Algorithm-1 engine
//! (`softcell_controller::CentralController`), over the agents' inputs:
//!
//! * **Log** ([`log`]) — every agent input, the ctlchan `PacketIn` it
//!   sent, is a record `(epoch, index, op)` of one totally ordered log.
//! * **State** ([`store`]) — every seat runs one engine and applies each
//!   record to it in index order, so equal logs give equal engines and
//!   the agent's reply is the engine's own answer.
//! * **Replica nodes** ([`node`]) — one leader per membership view
//!   appends and ships records over the ctlchan `Replicate` /
//!   `ReplicateAck` frames and releases each reply at quorum commit;
//!   epoch fencing; catch-up and fail-over hand logs over
//!   `SnapshotTransfer` — the records older than the last thousand or so
//!   folded into the engine's image — and the seat holding the
//!   lower-ranked log adopts the other and replays it. A view's leader
//!   proposes only after its log exchange reached a quorum.
//! * **Cluster + re-homing** ([`cluster`]) — N controllers over an
//!   in-process mesh, `kill -9`-style link severance for crash testing,
//!   deterministic fail-over, and agent re-homing to the new leader with
//!   `resync` replay.
//! * **The `kill -9` drill** ([`drill`]) — the one recovery scenario,
//!   run by the recovery test and the campaign's `controller-kill`
//!   overlay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod drill;
pub mod log;
pub mod node;
pub mod store;

pub use cluster::{rehome_agent, Cluster, Killable, Link};
pub use drill::controller_kill_drill;
pub use log::LogRecord;
pub use node::{ReplicaConfig, ReplicaNode};
pub use store::State;

#[cfg(test)]
mod testkit {
    //! What the crate's tests share: one configuration, and subscribers
    //! that each attach at a location of their own.

    use std::time::Duration;

    use rand::rngs::StdRng;
    use rand::Rng;
    use softcell_ctlchan::PacketIn;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_types::{BaseStationId, ControllerId, SimTime, UeId, UeImsi};

    use crate::node::ReplicaConfig;

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

    /// Seat `seat` of a quorum-1 configuration.
    pub(crate) fn config(seat: u32) -> ReplicaConfig {
        ReplicaConfig {
            id: ControllerId(seat),
            quorum: 1,
            peer_deadline: Duration::from_millis(400),
            policy: ServicePolicy::example_carrier_a(1),
            subscribers: subscribers().into_iter().map(|s| (s.imsi, s)).collect(),
        }
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
