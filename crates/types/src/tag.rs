//! Policy tags and tag allocation.
//!
//! A policy tag names a *policy path* equivalence class: all flows that
//! must traverse the same sequence of middlebox instances may share a tag,
//! letting core switches forward on a single exact-match rule instead of
//! per-flow state (paper §3.1, "aggregation by policy"). Tags are carried
//! in the transport source port (see [`crate::addr::PortEmbedding`]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A policy tag. The number of usable tags is bounded by the port
/// embedding in use (default 10 bits → 1024 tags).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
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

/// Allocates tags from the finite tag space, recycling released tags.
///
/// The controller allocates a fresh tag whenever Algorithm 1 finds no
/// reusable candidate (`tag* = new tag`, line 10), and releases tags when
/// the last policy path using them is torn down.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TagAllocator {
    capacity: u16,
    next: u16,
    free: Vec<PolicyTag>,
}

impl TagAllocator {
    /// Creates an allocator over tags `0..capacity`.
    pub fn new(capacity: u16) -> Self {
        TagAllocator {
            capacity,
            next: 0,
            free: Vec::new(),
        }
    }

    /// Total tag space size.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Number of tags currently allocated.
    pub fn allocated(&self) -> usize {
        self.next as usize - self.free.len()
    }

    /// Allocates a tag, preferring recycled ones. Returns `None` when the
    /// tag space is exhausted — the caller must then fall back to flat
    /// (per-flow) rules or reject the policy path.
    pub fn allocate(&mut self) -> Option<PolicyTag> {
        if let Some(tag) = self.free.pop() {
            return Some(tag);
        }
        if self.next < self.capacity {
            let tag = PolicyTag(self.next);
            self.next += 1;
            Some(tag)
        } else {
            None
        }
    }

    /// Returns a tag to the pool.
    ///
    /// # Panics
    /// Panics (in debug builds) if the tag was never allocated or is
    /// released twice — both indicate controller-state corruption.
    pub fn release(&mut self, tag: PolicyTag) {
        debug_assert!(tag.0 < self.next, "releasing never-allocated {tag}");
        debug_assert!(!self.free.contains(&tag), "double release of {tag}");
        self.free.push(tag);
    }

    /// Returns a tag to the pool, reporting instead of corrupting on an
    /// unbalanced release: `false` (and no state change) when the tag was
    /// never allocated or is already free. Callers that cannot prove
    /// balance (raw tunnel-tag refcounts) use this and count failures.
    pub fn try_release(&mut self, tag: PolicyTag) -> bool {
        if tag.0 >= self.next || self.free.contains(&tag) {
            return false;
        }
        self.free.push(tag);
        true
    }

    /// The tag `allocate` would return after `taken` further allocations,
    /// without mutating the allocator. Lets a pure planner reserve a
    /// sequence of tags it will only claim at commit time; `None` when
    /// the space would be exhausted at that depth.
    pub fn peek(&self, taken: usize) -> Option<PolicyTag> {
        if taken < self.free.len() {
            return Some(self.free[self.free.len() - 1 - taken]);
        }
        let fresh = (taken - self.free.len()) as u64 + self.next as u64;
        if fresh < self.capacity as u64 {
            Some(PolicyTag(fresh as u16))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_sequentially_then_recycles() {
        let mut a = TagAllocator::new(4);
        let t0 = a.allocate().unwrap();
        let t1 = a.allocate().unwrap();
        assert_eq!((t0, t1), (PolicyTag(0), PolicyTag(1)));
        assert_eq!(a.allocated(), 2);
        a.release(t0);
        assert_eq!(a.allocated(), 1);
        assert_eq!(a.allocate().unwrap(), t0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = TagAllocator::new(2);
        assert!(a.allocate().is_some());
        assert!(a.allocate().is_some());
        assert!(a.allocate().is_none());
        a.release(PolicyTag(1));
        assert_eq!(a.allocate(), Some(PolicyTag(1)));
        assert!(a.allocate().is_none());
    }

    #[test]
    fn peek_previews_allocation_order() {
        let mut a = TagAllocator::new(4);
        let t0 = a.allocate().unwrap();
        let t1 = a.allocate().unwrap();
        a.release(t0);
        a.release(t1);
        // free list pops LIFO, then fresh space, then exhaustion
        for taken in 0..4 {
            let peeked = a.peek(taken);
            assert!(peeked.is_some(), "peek({taken}) within capacity");
        }
        assert_eq!(a.peek(0), Some(t1));
        assert_eq!(a.peek(1), Some(t0));
        assert_eq!(a.peek(2), Some(PolicyTag(2)));
        assert_eq!(a.peek(4), None, "exhausted at depth 4");
        // peek is consistent with actually allocating
        assert_eq!(a.allocate(), Some(t1));
        assert_eq!(a.peek(0), Some(t0));
    }

    #[test]
    fn try_release_rejects_unbalanced() {
        let mut a = TagAllocator::new(4);
        let t = a.allocate().unwrap();
        assert!(!a.try_release(PolicyTag(3)), "never allocated");
        assert!(a.try_release(t));
        assert!(!a.try_release(t), "already free");
        assert_eq!(a.allocated(), 0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    #[cfg(debug_assertions)]
    fn double_release_panics() {
        let mut a = TagAllocator::new(2);
        let t = a.allocate().unwrap();
        a.release(t);
        a.release(t);
    }
}
