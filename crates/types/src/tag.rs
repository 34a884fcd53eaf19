//! Policy tags, and the identifier pool every finite id space draws from.
//!
//! A policy tag names a *policy path* equivalence class: all flows that
//! must traverse the same sequence of middlebox instances may share a tag,
//! letting core switches forward on a single exact-match rule instead of
//! per-flow state (paper §3.1, "aggregation by policy"). Tags are carried
//! in the transport source port (see [`crate::addr::PortEmbedding`]).
//!
//! Tags are one of three finite identifier spaces SoftCell hands out; the
//! station-local UE ids behind LocIPs (§4.2) and the permanent addresses
//! (§3.1) are the other two. [`IdPool`] allocates all three.

use serde::Serialize;
use std::fmt;

/// A policy tag. The number of usable tags is bounded by the port
/// embedding in use (default 10 bits → 1024 tags).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PolicyTag(pub u16);

impl PolicyTag {
    /// Returns the raw tag value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for PolicyTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

impl fmt::Display for PolicyTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// A finite identifier space `0..capacity`: policy tags (Algorithm 1's
/// `tag* = new tag`, line 10), a base station's local UE ids, permanent
/// addresses (callers add their own base).
///
/// Ids come off the free list last-in first-out, then fresh in ascending
/// order. An id is *held* from the moment it is allocated or adopted
/// until it is released; a release of an id that is not held is refused,
/// so no id is ever in the pool twice.
#[derive(Clone, Debug, Serialize)]
pub struct IdPool {
    capacity: u32,
    /// Every id below `next` is either held or on `free`, once.
    next: u32,
    free: Vec<u32>,
    /// Bit `id % 64` of word `id / 64` is set while `id` is held; grown
    /// on demand up to the high-water mark.
    held: Vec<u64>,
}

impl IdPool {
    /// Creates a pool over `0..capacity`, nothing held.
    pub fn new(capacity: u32) -> IdPool {
        IdPool {
            capacity,
            next: 0,
            free: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Number of ids currently held.
    pub fn allocated(&self) -> usize {
        self.next as usize - self.free.len()
    }

    /// Whether `id` is held.
    pub fn is_held(&self, id: u32) -> bool {
        let word = self.held.get((id / 64) as usize);
        word.is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// The fresh-id cursor and the free list, oldest release first: with
    /// the capacity, all [`IdPool::from_parts`] needs to rebuild the pool.
    pub fn parts(&self) -> (u32, &[u32]) {
        (self.next, &self.free)
    }

    /// Rebuilds a pool from its [`parts`](IdPool::parts): every id below
    /// `next` that is not on `free` is held. `None` when `next` exceeds
    /// `capacity`, or an id on `free` is at or past `next` or listed
    /// twice.
    pub fn from_parts(capacity: u32, next: u32, free: &[u32]) -> Option<IdPool> {
        if next > capacity {
            return None;
        }
        let mut held = vec![u64::MAX; (next / 64) as usize];
        if !next.is_multiple_of(64) {
            held.push((1 << (next % 64)) - 1);
        }
        let mut pool = IdPool {
            capacity,
            next,
            free: Vec::with_capacity(free.len()),
            held,
        };
        free.iter().all(|&id| pool.release(id)).then_some(pool)
    }

    fn hold(&mut self, id: u32) {
        let word = (id / 64) as usize;
        if word >= self.held.len() {
            self.held.resize(word + 1, 0);
        }
        self.held[word] |= 1 << (id % 64);
    }

    /// Hands out an id: the most recently released one, else the next
    /// never-used one. `None` when all `capacity` ids are held.
    pub fn allocate(&mut self) -> Option<u32> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if self.next < self.capacity => {
                self.next += 1;
                self.next - 1
            }
            None => return None,
        };
        self.hold(id);
        Some(id)
    }

    /// Returns a held id to the pool. An id that is not held (already
    /// free, or never handed out) is refused — `false`, nothing changes.
    pub fn release(&mut self, id: u32) -> bool {
        if !self.is_held(id) {
            return false;
        }
        self.held[(id / 64) as usize] &= !(1 << (id % 64));
        self.free.push(id);
        true
    }

    /// Marks an id chosen elsewhere (a handoff arrival, a restart's
    /// survivors) as held, so `allocate` never hands it out. The fresh
    /// ids it jumps over go onto the free list, to come back ascending
    /// before any id above it. Ids outside `0..capacity` are ignored.
    pub fn adopt(&mut self, id: u32) {
        if id >= self.capacity || self.is_held(id) {
            return;
        }
        if id >= self.next {
            self.free.extend((self.next..id).rev());
            self.next = id + 1;
        } else {
            self.free.retain(|f| *f != id);
        }
        self.hold(id);
    }

    /// The id `allocate` would return after `taken` further allocations,
    /// without allocating: Algorithm 1 previews the fresh tags it will
    /// claim only at commit. `None` when the space runs out first.
    pub fn peek(&self, taken: usize) -> Option<u32> {
        if let Some(i) = self.free.len().checked_sub(taken + 1) {
            return Some(self.free[i]);
        }
        let fresh = u64::from(self.next) + (taken - self.free.len()) as u64;
        (fresh < u64::from(self.capacity)).then_some(fresh as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// `IdPool` against a set model: no held id is handed out twice,
        /// reuse is LIFO and fresh ids ascend, `allocate` refuses exactly
        /// at capacity, a release of an id that is not held is refused
        /// and changes nothing, `peek(k)` is the k-th next `allocate`, and
        /// an `adopt` past the cursor loses no id.
        #[test]
        fn id_pool_matches_set_model(
            capacity in 1u32..150,
            ops in proptest::collection::vec((0u8..6, 0u32..160), 1..300),
        ) {
            let mut pool = IdPool::new(capacity);
            let mut held: BTreeSet<u32> = BTreeSet::new();
            let mut free: Vec<u32> = Vec::new(); // model free list
            let mut fresh = 0u32; // next never-used id
            for (op, pick) in ops {
                match op {
                    0 | 1 => match pool.allocate() {
                        Some(id) => {
                            prop_assert!(id < capacity);
                            prop_assert!(held.insert(id), "{} handed out twice", id);
                            match free.pop() {
                                Some(last) => prop_assert_eq!(id, last, "LIFO reuse"),
                                None => {
                                    prop_assert_eq!(id, fresh, "fresh ids ascend");
                                    fresh += 1;
                                }
                            }
                        }
                        None => prop_assert_eq!(held.len() as u32, capacity, "early refusal"),
                    },
                    2 => {
                        let id = pick % (capacity + 2);
                        let was_held = held.remove(&id);
                        let before = pool.clone();
                        prop_assert_eq!(pool.release(id), was_held);
                        if was_held {
                            free.push(id);
                        } else {
                            let (after, before) = (format!("{pool:?}"), format!("{before:?}"));
                            prop_assert_eq!(after, before, "a refused release changes nothing");
                        }
                    }
                    3 => {
                        let id = pick % capacity;
                        pool.adopt(id);
                        if held.insert(id) {
                            if id >= fresh {
                                free.extend((fresh..id).rev());
                                fresh = id + 1;
                            } else {
                                free.retain(|f| *f != id);
                            }
                        }
                    }
                    _ => {
                        let k = pick as usize % 5;
                        let mut ahead = pool.clone();
                        let kth = (0..=k).map(|_| ahead.allocate()).last().flatten();
                        prop_assert_eq!(pool.peek(k), kth, "peek({})", k);
                    }
                }
                prop_assert_eq!(pool.allocated(), held.len());
            }
            // a pool rebuilt from its parts holds the same ids and hands
            // out the rest in the same order
            let (next, free_list) = pool.parts();
            let mut rebuilt = IdPool::from_parts(capacity, next, free_list).unwrap();
            prop_assert!((0..capacity).all(|id| rebuilt.is_held(id) == held.contains(&id)));
            // everything not held is allocatable again, each id once
            let mut rest = BTreeSet::new();
            while let Some(id) = pool.allocate() {
                prop_assert!(rest.insert(id) && !held.contains(&id));
                prop_assert_eq!(rebuilt.allocate(), Some(id));
            }
            prop_assert_eq!(rebuilt.allocate(), None);
            prop_assert_eq!(rest.len() + held.len(), capacity as usize);
        }
    }

    #[test]
    fn from_parts_refuses_inconsistent_parts() {
        assert!(
            IdPool::from_parts(8, 9, &[]).is_none(),
            "cursor past capacity"
        );
        assert!(
            IdPool::from_parts(8, 4, &[4]).is_none(),
            "free id at the cursor"
        );
        assert!(IdPool::from_parts(8, 4, &[1, 1]).is_none(), "free id twice");
        let pool = IdPool::from_parts(200, 130, &[3, 129]).unwrap();
        assert_eq!(pool.allocated(), 128);
        assert!(pool.is_held(128) && !pool.is_held(129) && !pool.is_held(130));
    }
}
