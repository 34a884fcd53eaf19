//! Shard keys.
//!
//! SoftCell's control load is shardable by UE: every per-subscriber
//! operation (attach, detach, microflow decisions) touches only that
//! UE's state, so partitioning by a hash of the IMSI lets N worker
//! shards run without coordination. Station-scoped requests (a
//! `ControllerServer` path request) route by a hash of the base-station
//! id instead. The sharded engine's station id pools do not shard:
//! every operation on them is ticketed, so they sit under the ticket
//! beside the engine rather than on an owner shard.

use crate::fxhash::FxHasher;
use crate::ids::{BaseStationId, UeImsi};
use std::hash::Hasher;

/// The shard owning a UE's state: `fxhash(imsi) mod shards`.
pub fn shard_of_ue(imsi: UeImsi, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = FxHasher::default();
    h.write_u64(imsi.0);
    (h.finish() % shards as u64) as usize
}

/// The shard owning a base station's state: `fxhash(bs) mod shards`.
pub fn shard_of_station(bs: BaseStationId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = FxHasher::default();
    h.write_u32(bs.0);
    (h.finish() % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_keys_are_stable_and_in_range() {
        for n in 1..=8usize {
            for i in 0..64u64 {
                let s = shard_of_ue(UeImsi(i), n);
                assert!(s < n);
                assert_eq!(s, shard_of_ue(UeImsi(i), n), "deterministic");
            }
            for b in 0..16u32 {
                assert!(shard_of_station(BaseStationId(b), n) < n);
            }
        }
    }
}
