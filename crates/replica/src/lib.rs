//! Replicated control plane for SoftCell.
//!
//! The paper (§5) keeps the controller logically centralized and defers
//! fault tolerance to "standard replication techniques" over its two
//! state classes: slow-changing strongly consistent state (subscriber
//! policy, installed paths) and fast-moving UE location that agents can
//! rebuild. This crate is state-machine replication of the agents'
//! inputs:
//!
//! * **Log** ([`log`]) — every agent input, the ctlchan `PacketIn` it
//!   sent, is a record `(epoch, index, op)` of one totally ordered log.
//! * **State** ([`store`]) — one deterministic `apply` per record, run
//!   by every seat in index order. Addresses and tags are allocated
//!   there, from one pool each, so equal logs give equal state.
//! * **Replica nodes** ([`node`]) — one leader per membership view
//!   appends and ships records over the ctlchan `Replicate` /
//!   `ReplicateAck` frames and releases each reply at quorum commit;
//!   epoch fencing; catch-up and fail-over hand logs over
//!   `SnapshotTransfer` — the records older than the last thousand or so
//!   folded into the state they replay to — and the seat holding the
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
pub use store::{Applied, State, UeEntry};
