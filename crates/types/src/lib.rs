//! Core identifier, addressing and time types shared by every SoftCell crate.
//!
//! SoftCell (CoNEXT 2013) routes cellular-core traffic by aggregating
//! forwarding state along three dimensions: the *policy* (a tag naming a
//! middlebox path), the *location* (a hierarchical base-station IP prefix)
//! and the *UE* (a local device identifier). This crate defines the types
//! that name those dimensions, the hierarchical location-dependent address
//! ([`addr::LocIp`]) that combines them, and the small amount of shared
//! infrastructure (errors, simulated time) the rest of the workspace builds
//! on.
//!
//! Nothing here depends on the data plane, the controller or the simulator;
//! the dependency arrow only ever points *towards* this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod epoch;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod prefix;
pub mod shard;
pub mod tag;
pub mod time;

pub use addr::{AddressingScheme, LocIp, PortEmbedding};
pub use epoch::{ControllerId, EpochFence, Membership};
pub use error::{Error, Result};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{
    BaseStationId, FlowId, GatewayId, LinkId, MiddleboxId, MiddleboxKind, PortNo, SwitchId, UeId,
    UeImsi,
};
pub use prefix::Ipv4Prefix;
pub use shard::{shard_of_station, shard_of_ue};
pub use tag::{IdPool, PolicyTag};
pub use time::{SimDuration, SimTime};
