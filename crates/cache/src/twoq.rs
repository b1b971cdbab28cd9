//! 2Q replacement: [`TwoQ`].

use crate::numbering::BlockNo;

use crate::list::ListSlab;
use crate::policy::{AccessResult, CachePolicy};

/// The 2Q policy (Johnson & Shasha, VLDB'94), "full version".
///
/// Three queues: `A1in` (FIFO of recent first-timers, resident),
/// `A1out` (FIFO of ghosts recently evicted from `A1in`), and `Am`
/// (LRU of proven-warm blocks). A miss found in `A1out` goes straight
/// to `Am` — the block has demonstrated re-reference beyond the
/// short-term window — while a cold miss enters `A1in`. Like
/// [`crate::Arc`], 2Q resists scans, with fixed (non-adaptive) tuning:
/// `Kin = 25 %` of capacity, `Kout = 50 %` of capacity (the paper's
/// recommended settings).
#[derive(Debug, Clone)]
pub struct TwoQ {
    /// All three queues, oldest at each head.
    queues: ListSlab<3>,
    capacity: usize,
    kin: usize,
    kout: usize,
}

const A1IN: usize = 0;
const A1OUT: usize = 1;
const AM: usize = 2;

impl TwoQ {
    /// Creates a 2Q cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        TwoQ {
            queues: ListSlab::new(),
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
        }
    }

    /// Sizes of `(A1in, A1out ghosts, Am)`.
    pub fn queue_sizes(&self) -> (usize, usize, usize) {
        (
            self.queues.len(A1IN),
            self.queues.len(A1OUT),
            self.queues.len(AM),
        )
    }

    /// Makes room for one admission, returning the victim if the cache
    /// is full.
    fn reclaim(&mut self) -> Option<BlockNo> {
        if self.len() < self.capacity {
            return None;
        }
        if self.queues.len(A1IN) > self.kin || self.queues.is_empty(AM) {
            // A full cache is non-empty, so one of the moves succeeds;
            // the victim gets a ghost entry.
            let victim = self
                .queues
                .move_head_to_tail(A1IN, A1OUT)
                .or_else(|| self.queues.move_head_to_tail(AM, A1OUT))?;
            if self.queues.len(A1OUT) > self.kout {
                self.queues.pop_head(A1OUT);
            }
            Some(victim)
        } else {
            self.queues.pop_head(AM)
        }
    }
}

impl CachePolicy for TwoQ {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.queues.len(A1IN) + self.queues.len(AM)
    }

    fn contains(&self, block: BlockNo) -> bool {
        matches!(self.queues.find(block), Some((_, A1IN | AM)))
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        match self.queues.find(block) {
            Some((slot, AM)) => {
                self.queues.move_to_tail(slot, AM);
                AccessResult::HIT
            }
            // 2Q leaves A1in order untouched on hit (FIFO semantics)
            Some((_, A1IN)) => AccessResult::HIT,
            Some(_) => {
                // proven warm: promote into Am. `reclaim` must see the
                // ghost still on A1out (its length decides the trim),
                // and when the ghost is A1out's oldest and A1out is
                // full — routine below four blocks, where Kout = 1 —
                // the trim drops this very ghost and its slot goes to
                // the free list. So the slot found above is not used:
                // look the block up again.
                let evicted = self.reclaim();
                match self.queues.find(block) {
                    Some((slot, _)) => self.queues.move_to_tail(slot, AM),
                    None => {
                        self.queues.insert_tail(AM, block);
                    }
                }
                AccessResult {
                    hit: false,
                    evicted,
                }
            }
            None => {
                // cold miss → A1in
                let evicted = self.reclaim();
                self.queues.insert_tail(A1IN, block);
                AccessResult {
                    hit: false,
                    evicted,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "2q"
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
        conformance::check_policy(TwoQ::new(8), 8);
        conformance::check_policy(TwoQ::new(1), 1);
        conformance::check_eviction_discipline(TwoQ::new(4), 4);
    }

    #[test]
    fn ghost_hit_promotes_to_am() {
        // capacity 4 → Kin = 1, Kout = 2
        let mut cache = TwoQ::new(4);
        for i in 1..=4 {
            cache.access(b(i)); // fill A1in
        }
        let out = cache.access(b(5)); // evicts 1 into A1out
        assert_eq!(out.evicted, Some(b(1)));
        let (_, ghosts, _) = cache.queue_sizes();
        assert_eq!(ghosts, 1, "1 is a ghost");
        // touching the ghost promotes it straight into Am
        let out = cache.access(b(1));
        assert!(!out.hit, "ghost hits are still misses");
        let (_, _, am) = cache.queue_sizes();
        assert_eq!(am, 1, "ghost hit promoted into Am");
        assert!(cache.contains(b(1)));
    }

    #[test]
    fn ghost_promotion_survives_its_own_trim() {
        // capacity 2 → Kin = 1, Kout = 1: A1out holds one ghost, so a
        // ghost hit whose reclaim pushes a new ghost trims the very
        // block being promoted.
        let mut cache = TwoQ::new(2);
        cache.access(b(1));
        cache.access(b(2));
        assert_eq!(cache.access(b(3)).evicted, Some(b(1))); // ghost: 1
        let out = cache.access(b(1)); // reclaim ghosts 2, trimming 1
        assert_eq!((out.hit, out.evicted), (false, Some(b(2))));
        assert_eq!(cache.queue_sizes(), (1, 1, 1), "A1in 3, ghost 2, Am 1");
        assert!(cache.contains(b(1)) && cache.contains(b(3)));
        assert!(cache.access(b(1)).hit);
        // the trimmed ghost's slot was recycled, not left dangling:
        // the next ghost hit (A1in at Kin, so Am gives) still lines up
        let out = cache.access(b(2));
        assert_eq!((out.hit, out.evicted), (false, Some(b(1))));
        assert_eq!(cache.queue_sizes(), (1, 0, 1), "A1in 3, Am 2");
        assert!(cache.contains(b(2)) && cache.contains(b(3)));
    }

    #[test]
    fn scan_does_not_flush_am() {
        let mut cache = TwoQ::new(8);
        // warm block 1 into Am via a ghost hit
        for i in 1..=12 {
            cache.access(b(i));
        }
        let warm = (1u32..=12).find(|&i| !cache.contains(b(i))).unwrap();
        cache.access(b(warm)); // → Am
        assert!(cache.contains(b(warm)));
        for i in 100..160 {
            cache.access(b(i)); // long scan
        }
        assert!(cache.contains(b(warm)), "Am member survives the scan");
    }

    #[test]
    fn a1in_hits_do_not_reorder() {
        let mut cache = TwoQ::new(3);
        cache.access(b(1));
        cache.access(b(2));
        cache.access(b(3));
        assert!(cache.access(b(1)).hit); // A1in hit, stays FIFO-ordered
        let out = cache.access(b(4));
        assert_eq!(out.evicted, Some(b(1)), "A1in FIFO evicts oldest");
    }

    #[test]
    fn ghost_list_is_bounded() {
        let mut cache = TwoQ::new(8);
        for i in 0..1000u32 {
            cache.access(b(i));
        }
        let (_, ghosts, _) = cache.queue_sizes();
        assert!(ghosts <= 4, "Kout bound respected, got {ghosts}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = TwoQ::new(0);
    }

    #[test]
    fn name() {
        assert_eq!(TwoQ::new(2).name(), "2q");
    }
}
