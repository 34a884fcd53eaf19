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
//!   tunnels, microflow-rule copying, shortcut paths (§5.1).
//! * [`offline`] — the §3.2 offline recompute: replay every installed
//!   path record through the online install routine, in key order, into
//!   a fresh rule set, migrating the fabric.
//! * [`failover`] — recovery of the unreplicated state: a controller
//!   replica rebuilds UE locations from agents; agents refetch from the
//!   controller (§5.2). Replication itself is `softcell-replica`.
//! * [`sharded`] — the UE-partitioned controller core: N worker shards
//!   over a ticket-sequenced shared path engine (station id pools
//!   beside it, under the same ticket), batched flow-mod emission;
//!   differentially verified
//!   against the single-threaded controller (`tests/shard_oracle.rs`).
//! * [`server`] — the threaded front-end of the §6.2 micro-benchmarks:
//!   N domains (a lock and a queue each) in front of one
//!   [`CentralController`].
//! * [`wire`] — serves `softcell-ctlchan` connections through the
//!   server, and [`wire::ChannelController`], the agent's
//!   [`agent::ControllerApi`] over a framed transport.
//! * [`update`] — two-phase consistent updates (version stamping at the
//!   ingress edge) for rule transitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod core;
pub mod failover;
pub mod input;
pub mod install;
pub mod mobility;
pub mod offline;
pub mod ops;
pub mod server;
pub mod shadow;
pub mod sharded;
pub mod state;
pub mod update;
pub mod wire;

pub use agent::LocalAgent;
pub use core::{CentralController, ControllerConfig};
pub use input::{Input, Output};
pub use install::{InstallReport, PathInstaller, TagPolicy};
pub use ops::RuleOp;
pub use shadow::{Divergence, DivergenceKind, Entry, NextHop, ShadowSwitch, ShadowTables};
pub use sharded::{ShardEvent, ShardEventKind, ShardedController, ShardedRun, ShardedStats};
pub use state::ControllerState;
