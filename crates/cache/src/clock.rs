//! Second-chance (CLOCK) replacement: [`Clock`].

use crate::numbering::{BlockNo, DirectIndex};
use crate::policy::{AccessResult, CachePolicy};

/// The CLOCK (second-chance) policy: an LRU approximation with O(1)
/// hits, the standard choice where true LRU bookkeeping is too hot.
///
/// Resident blocks sit on a circular buffer, each with a reference bit.
/// A hit sets the bit; a miss sweeps the hand, clearing bits until it
/// finds a cleared one to evict.
#[derive(Debug, Clone)]
pub struct Clock {
    /// Circular buffer of frames (block + reference bit). Grows to
    /// capacity and then stays fixed.
    frames: Vec<Frame>,
    /// Block number → frame.
    index: DirectIndex,
    hand: usize,
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    block: BlockNo,
    referenced: bool,
}

impl Clock {
    /// Creates a CLOCK cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Clock {
            frames: Vec::with_capacity(capacity),
            index: DirectIndex::default(),
            hand: 0,
            capacity,
        }
    }
}

impl CachePolicy for Clock {
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
        if let Some(slot) = self.index.get(block) {
            self.frames[slot as usize].referenced = true;
            return AccessResult::HIT;
        }
        if self.frames.len() < self.capacity {
            // Frames hold distinct numbers, all below u32::MAX: frame
            // numbers fit.
            self.index.insert(block, self.frames.len() as u32);
            self.frames.push(Frame {
                block,
                referenced: false,
            });
            return AccessResult::MISS;
        }
        // sweep: clear reference bits until an unreferenced frame is found
        loop {
            let frame = &mut self.frames[self.hand];
            if frame.referenced {
                frame.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                let victim = frame.block;
                frame.block = block;
                frame.referenced = false;
                self.index.remove(victim);
                self.index.insert(block, self.hand as u32);
                self.hand = (self.hand + 1) % self.capacity;
                return AccessResult::miss_evicting(victim);
            }
        }
    }

    fn name(&self) -> &'static str {
        "clock"
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
        conformance::check_policy(Clock::new(8), 8);
        conformance::check_policy(Clock::new(1), 1);
        conformance::check_eviction_discipline(Clock::new(4), 4);
    }

    #[test]
    fn second_chance_spares_referenced_blocks() {
        let mut clock = Clock::new(2);
        clock.access(b(1));
        clock.access(b(2));
        clock.access(b(1)); // sets reference bit of 1
        let out = clock.access(b(3));
        // hand starts at frame 0 (block 1): referenced → spared.
        // frame 1 (block 2): unreferenced → evicted.
        assert_eq!(out.evicted, Some(b(2)));
        assert!(clock.contains(b(1)));
    }

    #[test]
    fn sweep_wraps_when_all_referenced() {
        let mut clock = Clock::new(2);
        clock.access(b(1));
        clock.access(b(2));
        clock.access(b(1));
        clock.access(b(2)); // both referenced
        let out = clock.access(b(3));
        // both bits cleared during sweep; frame 0 (block 1) evicts.
        assert_eq!(out.evicted, Some(b(1)));
        assert_eq!(clock.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut clock = Clock::new(1);
        assert!(!clock.access(b(1)).hit);
        assert!(clock.access(b(1)).hit);
        let out = clock.access(b(2));
        assert_eq!(out.evicted, Some(b(1)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Clock::new(0);
    }
}
