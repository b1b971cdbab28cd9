//! First-in-first-out replacement: [`Fifo`].

use crate::numbering::{BlockNo, DirectIndex};
use crate::policy::{AccessResult, CachePolicy};

/// FIFO replacement: blocks are evicted in admission order, and hits do
/// not change a block's position.
///
/// Resident blocks sit on a circular buffer in admission order; the
/// hand points at the oldest, and a miss in a full cache replaces it
/// and moves on (CLOCK without reference bits). A direct index by block
/// number says whether a block is resident.
///
/// Included as an ablation baseline against [`crate::Lru`] — the delta
/// between the two isolates how much of a workload's cacheability comes
/// from *recency* rather than mere residence.
#[derive(Debug, Clone)]
pub struct Fifo {
    /// Resident blocks; grows to capacity and then stays fixed.
    frames: Vec<BlockNo>,
    /// Block number → frame.
    index: DirectIndex,
    /// The oldest admission, next to go once the buffer is full.
    hand: usize,
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
            frames: Vec::with_capacity(capacity),
            index: DirectIndex::default(),
            hand: 0,
            capacity,
        }
    }

    /// The next eviction victim, if any.
    pub fn peek_front(&self) -> Option<BlockNo> {
        self.frames.get(self.hand).copied()
    }
}

impl CachePolicy for Fifo {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn contains(&self, block: BlockNo) -> bool {
        self.index.get(block).is_some()
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        if self.index.get(block).is_some() {
            return AccessResult::HIT;
        }
        if self.frames.len() < self.capacity {
            // Frames are below capacity, and the index below u32::MAX
            // blocks: frame numbers fit.
            self.index.insert(block, self.frames.len() as u32);
            self.frames.push(block);
            return AccessResult::MISS;
        }
        let victim = std::mem::replace(&mut self.frames[self.hand], block);
        self.index.remove(victim);
        self.index.insert(block, self.hand as u32);
        self.hand = (self.hand + 1) % self.capacity;
        AccessResult::miss_evicting(victim)
    }

    fn name(&self) -> &'static str {
        "fifo"
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
