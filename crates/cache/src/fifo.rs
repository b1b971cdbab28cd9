//! First-in-first-out replacement: [`Fifo`].

use std::collections::VecDeque;

use cbs_trace::hash::FxHashSet;
use cbs_trace::BlockId;

use crate::policy::{AccessResult, CachePolicy};

/// FIFO replacement: blocks are evicted in admission order, and hits do
/// not change a block's position.
///
/// Included as an ablation baseline against [`crate::Lru`] — the delta
/// between the two isolates how much of a workload's cacheability comes
/// from *recency* rather than mere residence.
#[derive(Debug, Clone)]
pub struct Fifo {
    queue: VecDeque<BlockId>,
    resident: FxHashSet<BlockId>,
    capacity: usize,
}

impl Fifo {
    /// Creates a FIFO cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Fifo {
            queue: VecDeque::with_capacity(capacity),
            resident: FxHashSet::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
        }
    }

    /// The next eviction victim, if any.
    pub fn peek_front(&self) -> Option<BlockId> {
        self.queue.front().copied()
    }
}

impl CachePolicy for Fifo {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn contains(&self, block: BlockId) -> bool {
        self.resident.contains(&block)
    }

    fn access(&mut self, block: BlockId) -> AccessResult {
        if self.resident.contains(&block) {
            return AccessResult::HIT;
        }
        let evicted = if self.resident.len() == self.capacity {
            // A full cache always has a front to pop.
            let victim = self.queue.pop_front();
            if let Some(v) = victim {
                self.resident.remove(&v);
            }
            victim
        } else {
            None
        };
        self.queue.push_back(block);
        self.resident.insert(block);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    #[test]
    fn conforms_to_policy_contract() {
        conformance::check_policy(Fifo::new(8), 8);
        conformance::check_policy(Fifo::new(1), 1);
        conformance::check_eviction_discipline(Fifo::new(4), 4);
    }

    #[test]
    fn hits_do_not_promote() {
        let mut fifo = Fifo::new(2);
        fifo.access(b(1));
        fifo.access(b(2));
        fifo.access(b(1)); // hit; 1 stays at the front
        let out = fifo.access(b(3));
        assert_eq!(out.evicted, Some(b(1)), "FIFO evicts oldest admission");
    }

    #[test]
    fn eviction_follows_admission_order() {
        let mut fifo = Fifo::new(3);
        for i in 1..=3 {
            fifo.access(b(i));
        }
        assert_eq!(fifo.peek_front(), Some(b(1)));
        assert_eq!(fifo.access(b(4)).evicted, Some(b(1)));
        assert_eq!(fifo.access(b(5)).evicted, Some(b(2)));
        assert_eq!(fifo.access(b(6)).evicted, Some(b(3)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Fifo::new(0);
    }

    #[test]
    fn name() {
        assert_eq!(Fifo::new(1).name(), "fifo");
    }
}
