//! Adaptive Replacement Cache: [`Arc`].

use crate::numbering::BlockNo;

use crate::list::ListSlab;
use crate::policy::{AccessResult, CachePolicy};

/// ARC (Megiddo & Modha, FAST'03): a scan-resistant policy that adapts
/// between recency and frequency.
///
/// The cache is split into a recency list `T1` and a frequency list
/// `T2`, shadowed by ghost lists `B1`/`B2` of recently evicted block
/// ids. Ghost hits steer the adaptation target `p` (the desired size of
/// `T1`). Included as an ablation baseline for the paper's Finding 15:
/// cloud volumes whose writes aggregate in small hot sets reward
/// frequency-awareness, while scan-like volumes reward recency.
///
/// # Example
///
/// ```
/// use cbs_cache::{Arc, BlockNumbering, CachePolicy};
/// use cbs_trace::BlockId;
///
/// let mut numbers = BlockNumbering::new();
/// let [b1, b2, b3] = [1, 2, 3].map(|id| numbers.number(BlockId::new(id)));
/// let mut arc = Arc::new(2);
/// arc.access(b1);
/// arc.access(b1); // promoted to the frequency list
/// arc.access(b2);
/// arc.access(b3); // scan: evicts from the recency side
/// assert!(arc.contains(b1));
/// ```
#[derive(Debug, Clone)]
pub struct Arc {
    /// The whole directory: T1, T2 and their ghosts, LRU at each head.
    lists: ListSlab<4>,
    /// Adaptation target for |T1|, in `0..=capacity`.
    p: usize,
    capacity: usize,
}

const T1: usize = 0;
const T2: usize = 1;
const B1: usize = 2;
const B2: usize = 3;

impl Arc {
    /// Creates an ARC cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Arc {
            lists: ListSlab::new(),
            p: 0,
            capacity,
        }
    }

    /// The current adaptation target for the recency list size.
    pub fn target_t1(&self) -> usize {
        self.p
    }

    /// Sizes of `(T1, T2, B1, B2)` — exposed for tests and diagnostics.
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        let len = |list| self.lists.len(list);
        (len(T1), len(T2), len(B1), len(B2))
    }

    /// The REPLACE subroutine: evicts one resident block from T1 or T2
    /// into the corresponding ghost list and returns it. `None` only if
    /// both lists are empty, which REPLACE's callers never allow.
    fn replace(&mut self, in_b2: bool) -> Option<BlockNo> {
        let t1 = self.lists.len(T1);
        if t1 > 0 && (t1 > self.p || (in_b2 && t1 == self.p)) {
            self.lists.move_head_to_tail(T1, B1)
        } else {
            debug_assert!(!self.lists.is_empty(T2), "REPLACE called on an empty cache");
            self.lists.move_head_to_tail(T2, B2)
        }
    }
}

impl CachePolicy for Arc {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.lists.len(T1) + self.lists.len(T2)
    }

    fn contains(&self, block: BlockNo) -> bool {
        matches!(self.lists.find(block), Some((_, T1 | T2)))
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        let evicted = match self.lists.find(block) {
            // Case I: hit in T1 or T2 → promote to T2 MRU.
            Some((slot, T1 | T2)) => {
                self.lists.move_to_tail(slot, T2);
                return AccessResult::HIT;
            }
            // Cases II and III: ghost hit → adapt p, replace, admit
            // into T2. REPLACE only appends to B1/B2, so the ghost's
            // slot is still valid after it.
            Some((slot, ghost)) => {
                let (b1, b2) = (self.lists.len(B1), self.lists.len(B2));
                let in_b2 = ghost == B2;
                if in_b2 {
                    self.p = self.p.saturating_sub((b1 / b2.max(1)).max(1));
                } else {
                    self.p = (self.p + (b2 / b1.max(1)).max(1)).min(self.capacity);
                }
                let evicted = self.replace(in_b2);
                self.lists.move_to_tail(slot, T2);
                return AccessResult {
                    hit: false,
                    evicted,
                };
            }
            // Case IV: full miss.
            None => {
                let t1 = self.lists.len(T1);
                let l1 = t1 + self.lists.len(B1);
                if l1 == self.capacity {
                    if t1 < self.capacity {
                        self.lists.pop_head(B1);
                        self.replace(false)
                    } else {
                        // B1 empty and T1 full: discard T1's LRU outright.
                        self.lists.pop_head(T1)
                    }
                } else {
                    let total = self.lists.total_len();
                    if total >= self.capacity {
                        if total == 2 * self.capacity {
                            self.lists.pop_head(B2);
                        }
                        self.replace(false)
                    } else {
                        None
                    }
                }
            }
        };
        self.lists.insert_tail(T1, block);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    fn name(&self) -> &'static str {
        "arc"
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
        conformance::check_policy(Arc::new(8), 8);
        conformance::check_policy(Arc::new(1), 1);
        conformance::check_eviction_discipline(Arc::new(4), 4);
    }

    #[test]
    fn repeated_access_promotes_to_t2() {
        let mut arc = Arc::new(4);
        arc.access(b(1));
        let (t1, t2, _, _) = arc.list_sizes();
        assert_eq!((t1, t2), (1, 0));
        arc.access(b(1));
        let (t1, t2, _, _) = arc.list_sizes();
        assert_eq!((t1, t2), (0, 1));
    }

    #[test]
    fn scan_resistance() {
        // A hot set of 2 blocks, then a long cold scan. ARC keeps the
        // hot blocks in T2 while the scan churns through T1.
        let mut arc = Arc::new(4);
        for _ in 0..4 {
            arc.access(b(1));
            arc.access(b(2));
        }
        for i in 100..130 {
            arc.access(b(i));
        }
        assert!(arc.contains(b(1)), "hot block 1 survives the scan");
        assert!(arc.contains(b(2)), "hot block 2 survives the scan");
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut arc = Arc::new(2);
        arc.access(b(1));
        arc.access(b(1)); // 1 → T2
        arc.access(b(2)); // T1=[2], T2=[1]
        let out = arc.access(b(3)); // REPLACE evicts 2 from T1 into B1
        assert_eq!(out.evicted, Some(b(2)));
        assert_eq!(arc.target_t1(), 0);
        arc.access(b(2)); // ghost hit in B1
        assert!(arc.target_t1() >= 1, "p grew after B1 ghost hit");
        assert!(arc.contains(b(2)));
    }

    #[test]
    fn t1_overflow_discards_without_ghost() {
        // With only cold misses, T1 fills to capacity; the next miss
        // discards T1's LRU outright (case IV, |T1| = c, B1 empty).
        let mut arc = Arc::new(2);
        arc.access(b(1));
        arc.access(b(2));
        let out = arc.access(b(3));
        assert_eq!(out.evicted, Some(b(1)));
        let (_, _, b1, _) = arc.list_sizes();
        assert_eq!(b1, 0, "discarded block does not enter B1");
    }

    #[test]
    fn directory_bounded_by_2c() {
        let mut arc = Arc::new(8);
        for i in 0..1000u32 {
            arc.access(b(i * 3 % 64));
        }
        let (t1, t2, b1, b2) = arc.list_sizes();
        assert!(t1 + t2 <= 8);
        assert!(t1 + b1 <= 8, "L1 bounded by c");
        assert!(t1 + t2 + b1 + b2 <= 16, "directory bounded by 2c");
    }

    #[test]
    fn p_stays_in_range() {
        let mut arc = Arc::new(6);
        for i in 0..2000u32 {
            arc.access(b((i * 7) % 23));
        }
        assert!(arc.target_t1() <= 6);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Arc::new(0);
    }

    #[test]
    fn name() {
        assert_eq!(Arc::new(1).name(), "arc");
    }
}
