//! Least-recently-used replacement: [`Lru`].

use crate::numbering::BlockNo;

use crate::list::ListSlab;
use crate::policy::{AccessResult, CachePolicy};

/// The classic LRU policy — the one the paper's Finding 15 simulates.
///
/// On a hit the block moves to the MRU position; on a miss the block is
/// admitted at MRU, evicting the LRU block when full. All operations are
/// O(1).
///
/// # Example
///
/// ```
/// use cbs_cache::{BlockNumbering, CachePolicy, Lru};
/// use cbs_trace::BlockId;
///
/// let mut numbers = BlockNumbering::new();
/// let [b10, b20, b30] = [10, 20, 30].map(|id| numbers.number(BlockId::new(id)));
/// let mut lru = Lru::new(2);
/// lru.access(b10);
/// lru.access(b20);
/// lru.access(b10); // promote 10
/// let out = lru.access(b30);
/// assert_eq!(out.evicted, Some(b20));
/// assert!(lru.contains(b10));
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    /// The one recency list, LRU at the head.
    set: ListSlab<1>,
    capacity: usize,
}

impl Lru {
    /// Creates an LRU cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Lru {
            set: ListSlab::with_capacity(capacity),
            capacity,
        }
    }

    /// The current LRU (next victim), if any.
    pub fn peek_lru(&self) -> Option<BlockNo> {
        self.set.head(0)
    }

    /// The current MRU (most recently touched), if any.
    pub fn peek_mru(&self) -> Option<BlockNo> {
        self.set.tail(0)
    }

    /// Iterates resident blocks from LRU to MRU (O(n), for inspection).
    pub fn iter(&self) -> impl Iterator<Item = BlockNo> + '_ {
        self.set.iter(0)
    }
}

impl CachePolicy for Lru {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.set.total_len()
    }

    fn contains(&self, block: BlockNo) -> bool {
        self.set.find(block).is_some()
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        if let Some((slot, _)) = self.set.find(block) {
            self.set.move_to_tail(slot, 0);
            return AccessResult::HIT;
        }
        let evicted = if self.set.total_len() == self.capacity {
            self.set.pop_head(0)
        } else {
            None
        };
        self.set.insert_tail(0, block);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance;

    fn b(i: u32) -> BlockNo {
        BlockNo::from_raw(i)
    }

    #[test]
    fn conforms_to_policy_contract() {
        conformance::check_policy(Lru::new(8), 8);
        conformance::check_policy(Lru::new(1), 1);
        conformance::check_eviction_discipline(Lru::new(4), 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(3);
        for i in 1..=3 {
            lru.access(b(i));
        }
        lru.access(b(1)); // order now 2,3,1
        let out = lru.access(b(4));
        assert_eq!(out.evicted, Some(b(2)));
        let out = lru.access(b(5));
        assert_eq!(out.evicted, Some(b(3)));
        assert!(lru.contains(b(1)));
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut lru = Lru::new(1);
        assert!(!lru.access(b(1)).hit);
        assert!(lru.access(b(1)).hit);
        let out = lru.access(b(2));
        assert_eq!(out.evicted, Some(b(1)));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Lru::new(0);
    }

    #[test]
    fn stack_property_inclusion() {
        // LRU has the inclusion (stack) property: the content of a
        // size-k cache is a subset of a size-(k+1) cache at every step.
        let pattern: Vec<u32> = (0..300).map(|i| (i * 13 + 5) % 37).collect();
        let mut small = Lru::new(4);
        let mut large = Lru::new(8);
        for &x in &pattern {
            small.access(b(x));
            large.access(b(x));
            for resident in small.iter() {
                assert!(large.contains(resident), "inclusion violated at {x}");
            }
        }
    }

    #[test]
    fn peek_endpoints() {
        let mut lru = Lru::new(3);
        assert_eq!(lru.peek_lru(), None);
        lru.access(b(1));
        lru.access(b(2));
        assert_eq!(lru.peek_lru(), Some(b(1)));
        assert_eq!(lru.peek_mru(), Some(b(2)));
    }

    #[test]
    fn name() {
        assert_eq!(Lru::new(1).name(), "lru");
    }
}
