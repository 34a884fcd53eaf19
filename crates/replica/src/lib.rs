//! Replicated multi-controller control plane for SoftCell.
//!
//! The paper (§5) keeps the controller logically centralized and defers
//! fault tolerance to "standard replication techniques" over its two
//! state classes: slow-changing strongly consistent state (subscriber
//! policy, installed paths) and fast-moving UE location that agents can
//! rebuild. This crate supplies those techniques, shaped to SoftCell's
//! split:
//!
//! * **Log shipping** ([`log`]) — every state-mutating controller
//!   operation (attach/handoff, detach, path install) becomes an
//!   append-only record, fully resolved by its proposer (permanent IP
//!   and tag chosen up front) so replay is deterministic.
//! * **Replicated store** ([`store`]) — the materialized state, built
//!   from last-writer-wins registers so replicas converge byte-for-byte
//!   regardless of cross-origin arrival order; its snapshot bytes are
//!   the recovery oracle.
//! * **Replica nodes** ([`node`]) — quorum commit over the ctlchan
//!   `Replicate`/`ReplicateAck` frames, epoch fencing (a deposed leader
//!   can never get a flow-mod acknowledged), snapshot catch-up for
//!   lagging peers, and the agent-facing front-end whose replies are
//!   gated on commit.
//! * **Cluster + re-homing** ([`cluster`]) — N active controllers
//!   partitioned by region over the membership ring, `kill -9`-style
//!   link severance for crash testing, deterministic fail-over, and
//!   agent re-homing to the successor leader with `resync` replay.
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
pub use log::{LogRecord, ReplicatedOp};
pub use node::{ReplicaConfig, ReplicaNode};
pub use store::{PathEntry, ReplicaStore, UeEntry, UeSlot};
