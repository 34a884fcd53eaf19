//! The SoftCell controller — the paper's primary contribution.
//!
//! The controller realizes high-level service policies by installing
//! switch rules that steer traffic through middlebox chains, while
//! keeping switch tables small via **multi-dimensional aggregation**
//! (paper §3) and keeping itself off the data path via the **local
//! agents** at base stations (paper §4.2).
//!
//! Module map:
//!
//! * [`shadow`] — the controller's model of every switch's forwarding
//!   state (per-tag next-hop tables with prefix aggregation); Algorithm 1
//!   computes against these and emits deltas.
//! * [`install`] — **Algorithm 1**: per-path tag selection (argmin of new
//!   rules over candidate tags), rule installation with contiguous-prefix
//!   aggregation, and loop disambiguation via tag swapping.
//! * [`ops`] — the concrete rule operations (install/remove on a switch)
//!   the controller emits towards the data plane.
//! * [`state`] — central controller state: the service policy,
//!   subscriber attributes and the UE registry (§5.2).
//! * [`core`] — the central controller façade: attach/detach/handoff,
//!   classifier computation, policy-path requests, middlebox instance
//!   selection, and the installed policy paths (one record per path,
//!   one routine installing it).
//! * [`input`] — the engine's inputs written down once, and
//!   [`CentralController::apply`], the one door they come through.
//! * [`agent`] — the local agent at each base station: classifier cache,
//!   UE-ID allocation, microflow rule installation, controller escalation
//!   on cache miss.
//! * [`mobility`] — policy consistency under handoff: base-station
//!   tunnels on per-destination trees under one mobility tag per
//!   station, microflow-rule copying, shortcut paths (§5.1).
//! * [`offline`] — the §3.2 offline recompute: replay every installed
//!   path record through the online install routine, in key order, into
//!   a fresh rule set, migrating the fabric.
//! * [`failover`] — recovery of the unreplicated state: a controller
//!   replica rebuilds UE locations from agents; agents refetch from the
//!   controller (§5.2). Replication itself is the seat's ([`node`]).
//! * [`sharded`] — the UE-partitioned controller core: N worker shards
//!   over a ticket-sequenced shared path engine (station id pools
//!   beside it, under the same ticket), batched flow-mod emission;
//!   differentially verified
//!   against the single-threaded controller (`tests/shard_oracle.rs`).
//! * [`server`] — the front-end, also the threaded server of the §6.2
//!   micro-benchmarks: N domains (a lock and a queue each) in front of
//!   one seat; every request is one proposal on it.
//! * [`node`] — the seat: the log of agent inputs ([`log`]) and the
//!   engine it replays to ([`store`]) behind one lock, quorum commit,
//!   catch-up, fail-over and epoch fencing. A one-seat membership
//!   commits on append; `softcell-replica` runs a cluster of servers.
//! * [`wire`] — serves `softcell-ctlchan` connections through the
//!   server, the one reply shape, and [`wire::ChannelController`], the
//!   agent's [`agent::ControllerApi`] over a framed transport.
//! * [`update`] — two-phase consistent updates (version stamping at the
//!   ingress edge) for rule transitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod core;
pub mod failover;
pub mod input;
pub mod install;
pub mod log;
pub mod mobility;
pub mod node;
pub mod offline;
pub mod ops;
pub mod server;
pub mod shadow;
pub mod sharded;
pub mod state;
pub mod store;
pub mod update;
pub mod wire;

pub use agent::LocalAgent;
pub use core::{CentralController, ControllerConfig};
pub use input::{Input, Output};
pub use install::{InstallReport, PathInstaller, TagPolicy};
pub use log::{Log, LogRecord};
pub use node::{Committed, ReplicaConfig, ReplicaNode};
pub use ops::RuleOp;
pub use shadow::{
    Divergence, DivergenceKind, Entry, NextHop, RuleSlot, ShadowSwitch, ShadowTables,
};
pub use sharded::{ShardEvent, ShardEventKind, ShardedController, ShardedRun, ShardedStats};
pub use state::ControllerState;
pub use store::State;

#[cfg(test)]
mod testkit {
    use std::time::Duration;

    use rand::rngs::StdRng;
    use rand::Rng;
    use softcell_ctlchan::PacketIn;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_types::{BaseStationId, ControllerId, SimTime, UeId, UeImsi};

    use crate::node::ReplicaConfig;

    /// IMSIs `0..SUBSCRIBERS` are provisioned.
    const SUBSCRIBERS: u64 = 64;

    /// The clauses of `example_carrier_a(1)` whose paths install; clause
    /// 1 denies.
    const CLAUSES: [u16; 4] = [0, 2, 3, 5];

    /// Seat `seat` of a quorum-1 configuration.
    pub(crate) fn config(seat: u32) -> ReplicaConfig {
        ReplicaConfig {
            id: ControllerId(seat),
            quorum: 1,
            peer_deadline: Duration::from_millis(400),
            policy: ServicePolicy::example_carrier_a(1),
            subscribers: (0..SUBSCRIBERS)
                .map(|i| (UeImsi(i), SubscriberAttributes::default_home(UeImsi(i))))
                .collect(),
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
