//! Shard keys, and per-shard range allocation for the server front-end.
//!
//! SoftCell's control load is shardable by UE: every per-subscriber
//! operation (attach, detach, microflow decisions) touches only that
//! UE's state, so partitioning by a hash of the IMSI lets N worker
//! shards run without coordination. Station-scoped front-end state (a
//! `ControllerServer` domain's path-tag map) shards by a hash of the
//! base-station id instead. The sharded engine's station id pools do
//! not: every operation on them is ticketed, so they sit under the
//! ticket beside the engine rather than on an owner shard.
//!
//! Finite identifier spaces a `ControllerServer`'s domains share —
//! policy tags, the permanent-address pool — are split into per-shard
//! *ranges* by [`RangePool`]/[`ShardRange`] so the allocation hot path
//! never takes a cross-shard lock: each shard draws from a private
//! block and returns to the shared pool only when a block is exhausted
//! (refill) or fully freed (spill). Exhaustion in one shard is served
//! from blocks other shards have spilled back — "range stealing" — and
//! the pool hands every value out at most once, so two shards can never
//! hold the same value concurrently.

use std::sync::{Arc, Mutex};

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

/// A contiguous, half-open block of identifier space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Block {
    start: u32,
    end: u32,
}

/// The shared coordinator of one identifier space (`0..capacity`,
/// offset-free — callers add their own base). Holds blocks no shard
/// currently owns: the initially-unassigned tail plus any blocks shards
/// spilled back. Shards touch it only on block refill/spill, never per
/// allocation.
#[derive(Debug)]
pub struct RangePool {
    inner: Mutex<PoolInner>,
    block: u32,
}

#[derive(Debug)]
struct PoolInner {
    /// Start of the never-yet-assigned tail.
    fresh: u32,
    capacity: u32,
    /// Blocks returned by shards, reusable by any shard (the stealing
    /// path).
    spilled: Vec<Block>,
}

impl RangePool {
    /// Creates a pool over `0..capacity`, handing out blocks of
    /// `block_size` values (the last fresh block may be short).
    pub fn new(capacity: u32, block_size: u32) -> Arc<RangePool> {
        assert!(block_size > 0, "block size must be positive");
        Arc::new(RangePool {
            inner: Mutex::new(PoolInner {
                fresh: 0,
                capacity,
                spilled: Vec::new(),
            }),
            block: block_size,
        })
    }

    /// Total value space.
    pub fn capacity(&self) -> u32 {
        self.inner.lock().expect("pool poisoned").capacity
    }

    /// Takes one block for a shard, preferring spilled blocks (so a
    /// starved shard reuses space other shards freed) over fresh space.
    /// The flag reports provenance: `true` when the block came from
    /// another shard's spill (the stealing path), `false` for fresh
    /// space.
    fn grab(&self) -> Option<(Block, bool)> {
        let mut inner = self.inner.lock().expect("pool poisoned");
        if let Some(b) = inner.spilled.pop() {
            return Some((b, true));
        }
        if inner.fresh < inner.capacity {
            let start = inner.fresh;
            let end = inner.capacity.min(start.saturating_add(self.block));
            inner.fresh = end;
            return Some((Block { start, end }, false));
        }
        None
    }

    fn spill(&self, b: Block) {
        self.inner.lock().expect("pool poisoned").spilled.push(b);
    }
}

/// One shard's private handle on a [`RangePool`]: a current block plus a
/// local free list. `allocate` and `release` are lock-free with respect
/// to other shards except when a block boundary is crossed.
#[derive(Debug)]
pub struct ShardRange {
    pool: Arc<RangePool>,
    cur: Option<Block>,
    next: u32,
    free: Vec<u32>,
    /// Values currently held by this shard (allocated − released); when
    /// it reaches zero the shard spills its block back to the pool so
    /// other shards can steal it.
    live: usize,
    /// Blocks this shard took from other shards' spills.
    steals: u64,
}

impl ShardRange {
    /// Creates a shard handle over the shared pool.
    pub fn new(pool: Arc<RangePool>) -> ShardRange {
        ShardRange {
            pool,
            cur: None,
            next: 0,
            free: Vec::new(),
            live: 0,
            steals: 0,
        }
    }

    /// Allocates one value. Prefers this shard's free list, then its
    /// current block, then grabs a new block from the pool (which is
    /// where exhaustion in this shard steals space other shards
    /// spilled). Returns `None` only when the whole space is exhausted.
    pub fn allocate(&mut self) -> Option<u32> {
        if let Some(v) = self.free.pop() {
            self.live += 1;
            return Some(v);
        }
        loop {
            if let Some(b) = self.cur {
                if self.next < b.end {
                    let v = self.next;
                    self.next += 1;
                    self.live += 1;
                    return Some(v);
                }
            }
            let (b, stolen) = self.pool.grab()?;
            if stolen {
                self.steals += 1;
            }
            self.next = b.start;
            self.cur = Some(b);
        }
    }

    /// Returns a value to this shard. Surplus free values spill back to
    /// the shared pool — whenever the local free list outgrows one block,
    /// and entirely when the shard holds no live values — so a starved
    /// shard can steal them; at most one block's worth of frees stays
    /// local for fast reuse.
    pub fn release(&mut self, v: u32) {
        debug_assert!(!self.free.contains(&v), "double release of {v}");
        self.free.push(v);
        self.live = self.live.saturating_sub(1);
        if self.live == 0 {
            // fully idle: the unused block tail and every freed value go
            // back to the pool
            if let Some(b) = self.cur.take() {
                if self.next < b.end {
                    self.pool.spill(Block {
                        start: self.next,
                        end: b.end,
                    });
                }
            }
            for v in self.free.drain(..) {
                self.pool.spill(Block {
                    start: v,
                    end: v + 1,
                });
            }
        } else if self.free.len() > self.pool.block as usize {
            for v in self.free.drain(..) {
                self.pool.spill(Block {
                    start: v,
                    end: v + 1,
                });
            }
        }
    }

    /// Values currently held live by this shard.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Blocks this shard has taken from other shards' spills — how often
    /// local exhaustion was served by range stealing.
    pub fn steals(&self) -> u64 {
        self.steals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

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

    #[test]
    fn single_shard_covers_whole_space() {
        let pool = RangePool::new(10, 4);
        let mut r = ShardRange::new(pool);
        let got: Vec<u32> = std::iter::from_fn(|| r.allocate()).collect();
        assert_eq!(got.len(), 10);
        let set: HashSet<u32> = got.into_iter().collect();
        assert_eq!(set.len(), 10, "no duplicates");
    }

    #[test]
    fn exhausted_shard_steals_spilled_range() {
        let pool = RangePool::new(8, 4);
        let mut a = ShardRange::new(Arc::clone(&pool));
        let mut b = ShardRange::new(Arc::clone(&pool));
        // a takes block 0..4, b takes 4..8; the space is fully assigned
        let av: Vec<u32> = (0..4).map(|_| a.allocate().unwrap()).collect();
        for _ in 0..4 {
            b.allocate().unwrap();
        }
        assert_eq!(b.allocate(), None, "space fully held");
        // a releases everything → its range spills → b can steal it
        for v in av {
            a.release(v);
        }
        let stolen: Vec<u32> = (0..4).map(|_| b.allocate().unwrap()).collect();
        assert_eq!(stolen.len(), 4, "b stole a's spilled range");
        assert_eq!(b.allocate(), None);
        assert_eq!(a.steals(), 0, "a only ever drew fresh space");
        assert_eq!(
            b.steals(),
            4,
            "a spilled its values as single-value blocks; b stole each"
        );
    }

    proptest! {
        /// Across random shard counts and interleaved alloc/release
        /// sequences: a value is never live in two shards at once, and
        /// allocation only fails when every value is live somewhere.
        #[test]
        fn ranges_never_overlap(
            shards in 1usize..6,
            block in 1u32..9,
            capacity in 1u32..64,
            script in proptest::collection::vec((0usize..6, any::<bool>()), 0..200),
        ) {
            let pool = RangePool::new(capacity, block);
            let mut handles: Vec<ShardRange> =
                (0..shards).map(|_| ShardRange::new(Arc::clone(&pool))).collect();
            // value → owning shard, the ground truth the pool must respect
            let mut owner: std::collections::HashMap<u32, usize> = Default::default();
            let mut held: Vec<Vec<u32>> = vec![Vec::new(); shards];
            for (pick, do_alloc) in script {
                let s = pick % shards;
                if do_alloc {
                    match handles[s].allocate() {
                        Some(v) => {
                            prop_assert!(v < capacity, "value {v} outside space");
                            prop_assert!(
                                owner.insert(v, s).is_none(),
                                "value {v} live in two shards"
                            );
                            held[s].push(v);
                        }
                        None => {
                            // a shard may fail while values idle in
                            // *other* shards' local free lists (bounded
                            // by one block each); never while the whole
                            // space has spilled space left
                            let live: usize = held.iter().map(Vec::len).sum();
                            let idle = capacity as usize - live;
                            prop_assert!(
                                idle <= shards * block as usize,
                                "failed with {idle} idle values, more than \
                                 one block per shard"
                            );
                        }
                    }
                } else if let Some(v) = held[s].pop() {
                    owner.remove(&v);
                    handles[s].release(v);
                }
            }
            // drain everything, everywhere: exactly the non-live values
            // remain allocatable, each exactly once
            let live: usize = held.iter().map(Vec::len).sum();
            let mut recovered = 0usize;
            for h in &mut handles {
                while let Some(v) = h.allocate() {
                    prop_assert!(owner.insert(v, 99).is_none(), "double allocation of {v}");
                    recovered += 1;
                }
            }
            prop_assert_eq!(recovered + live, capacity as usize);
        }
    }
}
