//! Least-frequently-used replacement: [`Lfu`].

use crate::numbering::BlockNo;

use crate::list::{Ends, Slab, NIL};
use crate::policy::{AccessResult, CachePolicy};

/// LFU replacement with LRU tie-breaking (evicts the least-frequently
/// used block; among equal frequencies, the least recently touched).
///
/// O(1) per access: resident blocks hang off *frequency buckets*, a
/// doubly-linked list of buckets in ascending frequency, each holding
/// the blocks with exactly that count in the order they reached it. A
/// hit moves the block to the tail of the next bucket (made on demand,
/// dropped when emptied); the victim is the head of the lowest bucket.
/// That head is the oldest touch among the least-frequent blocks,
/// because a block joins a bucket's tail at the access that gives it
/// that count, so every bucket is in touch order. Included as an
/// ablation baseline: workloads whose traffic aggregates in a small
/// set of hot blocks (the paper's Finding 9) favour frequency over
/// recency.
#[derive(Debug, Clone)]
pub struct Lfu {
    /// Resident blocks; a node's list id is its bucket's slot.
    blocks: Slab,
    /// Bucket store; free slots are chained through `next`.
    buckets: Vec<Bucket>,
    free_bucket: u32,
    /// The lowest-frequency bucket, `NIL` when the cache is empty.
    lowest: u32,
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    freq: u64,
    blocks: Ends,
    /// Neighbouring buckets, lower and higher frequency.
    prev: u32,
    next: u32,
}

impl Lfu {
    /// Creates an LFU cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Lfu {
            blocks: Slab::new(),
            buckets: Vec::new(),
            free_bucket: NIL,
            lowest: NIL,
            capacity,
        }
    }

    /// The reference count recorded for a resident block.
    pub fn frequency(&self, block: BlockNo) -> Option<u64> {
        let slot = self.blocks.find(block)?;
        Some(self.buckets[self.blocks.list(slot) as usize].freq)
    }

    /// Links a new empty bucket for `freq` between the neighbouring
    /// buckets `prev` and `next` (either may be `NIL`).
    fn insert_bucket(&mut self, freq: u64, prev: u32, next: u32) -> u32 {
        let bucket = Bucket {
            freq,
            blocks: Ends::EMPTY,
            prev,
            next,
        };
        let slot = if self.free_bucket == NIL {
            // Buckets are never empty, so there are no more of them
            // than blocks, whose slab checks the u32 range.
            self.buckets.push(bucket);
            (self.buckets.len() - 1) as u32
        } else {
            let slot = self.free_bucket;
            self.free_bucket = self.buckets[slot as usize].next;
            self.buckets[slot as usize] = bucket;
            slot
        };
        match prev {
            NIL => self.lowest = slot,
            _ => self.buckets[prev as usize].next = slot,
        }
        if next != NIL {
            self.buckets[next as usize].prev = slot;
        }
        slot
    }

    /// Unlinks the emptied bucket `slot` and frees it.
    fn remove_bucket(&mut self, slot: u32) {
        let Bucket { prev, next, .. } = self.buckets[slot as usize];
        match prev {
            NIL => self.lowest = next,
            _ => self.buckets[prev as usize].next = next,
        }
        if next != NIL {
            self.buckets[next as usize].prev = prev;
        }
        self.buckets[slot as usize].next = self.free_bucket;
        self.free_bucket = slot;
    }
}

impl CachePolicy for Lfu {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn contains(&self, block: BlockNo) -> bool {
        self.blocks.find(block).is_some()
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        if let Some(slot) = self.blocks.find(block) {
            let from = self.blocks.list(slot);
            let Bucket {
                freq, blocks, next, ..
            } = self.buckets[from as usize];
            let alone = blocks.len == 1;
            let to = if next != NIL && self.buckets[next as usize].freq == freq + 1 {
                next
            } else if alone {
                // No bucket for freq + 1 and nobody to leave behind: the
                // bucket itself moves up.
                self.buckets[from as usize].freq = freq + 1;
                return AccessResult::HIT;
            } else {
                self.insert_bucket(freq + 1, from, next)
            };
            self.blocks
                .unlink(&mut self.buckets[from as usize].blocks, slot);
            self.blocks
                .link_tail(&mut self.buckets[to as usize].blocks, slot, to);
            if alone {
                self.remove_bucket(from);
            }
            return AccessResult::HIT;
        }
        let evicted = if self.blocks.len() == self.capacity {
            // A full cache has a lowest bucket, and buckets are never
            // empty.
            let lowest = self.lowest;
            let bucket = &mut self.buckets[lowest as usize].blocks;
            let victim = self.blocks.evict(bucket, bucket.head);
            if bucket.len == 0 {
                self.remove_bucket(lowest);
            }
            Some(victim)
        } else {
            None
        };
        let lowest = self.lowest;
        let ones = if lowest != NIL && self.buckets[lowest as usize].freq == 1 {
            lowest
        } else {
            self.insert_bucket(1, NIL, lowest)
        };
        self.blocks
            .admit(block, &mut self.buckets[ones as usize].blocks, ones);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    fn name(&self) -> &'static str {
        "lfu"
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
        conformance::check_policy(Lfu::new(8), 8);
        conformance::check_policy(Lfu::new(1), 1);
        conformance::check_eviction_discipline(Lfu::new(4), 4);
    }

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new(2);
        lfu.access(b(1));
        lfu.access(b(1));
        lfu.access(b(1)); // freq(1) = 3
        lfu.access(b(2)); // freq(2) = 1
        assert_eq!(lfu.frequency(b(1)), Some(3));
        let out = lfu.access(b(3));
        assert_eq!(out.evicted, Some(b(2)), "block 2 is least frequent");
        assert!(lfu.contains(b(1)));
    }

    #[test]
    fn frequency_ties_break_by_age() {
        let mut lfu = Lfu::new(2);
        lfu.access(b(1)); // freq 1, older
        lfu.access(b(2)); // freq 1, newer
        let out = lfu.access(b(3));
        assert_eq!(out.evicted, Some(b(1)), "older block evicts first on tie");
    }

    #[test]
    fn hit_increments_frequency() {
        let mut lfu = Lfu::new(4);
        lfu.access(b(9));
        assert_eq!(lfu.frequency(b(9)), Some(1));
        assert!(lfu.access(b(9)).hit);
        assert_eq!(lfu.frequency(b(9)), Some(2));
        assert_eq!(lfu.frequency(b(404)), None);
    }

    /// The bucket chain as `(frequency, blocks oldest → newest)`.
    fn chain(lfu: &Lfu) -> Vec<(u64, Vec<usize>)> {
        let mut out = Vec::new();
        let mut bucket = lfu.lowest;
        while bucket != NIL {
            let Bucket {
                freq, blocks, next, ..
            } = lfu.buckets[bucket as usize];
            let mut members = Vec::new();
            let mut slot = blocks.head;
            while slot != NIL {
                assert_eq!(lfu.blocks.list(slot), bucket);
                members.push(lfu.blocks.block(slot).index());
                slot = lfu.blocks.next(slot);
            }
            assert_eq!(members.len(), blocks.len as usize);
            out.push((freq, members));
            bucket = next;
        }
        out
    }

    #[test]
    fn buckets_appear_and_vanish_at_head_middle_and_tail() {
        let mut lfu = Lfu::new(3);
        for i in 1..=3 {
            lfu.access(b(i));
        }
        assert_eq!(chain(&lfu), [(1, vec![1, 2, 3])]);
        lfu.access(b(2)); // new bucket at the tail
        assert_eq!(chain(&lfu), [(1, vec![1, 3]), (2, vec![2])]);
        lfu.access(b(2)); // alone, nothing at 3: the bucket moves up
        assert_eq!(chain(&lfu), [(1, vec![1, 3]), (3, vec![2])]);
        lfu.access(b(1)); // new bucket in the middle, across the gap
        assert_eq!(chain(&lfu), [(1, vec![3]), (2, vec![1]), (3, vec![2])]);
        lfu.access(b(1)); // joins 3's tail; the middle bucket vanishes
        assert_eq!(chain(&lfu), [(1, vec![3]), (3, vec![2, 1])]);
        // evicting the only freq-1 block drops the head bucket, and the
        // admission puts a new one back in front of the gap
        assert_eq!(lfu.access(b(4)).evicted, Some(b(3)));
        assert_eq!(chain(&lfu), [(1, vec![4]), (3, vec![2, 1])]);
        lfu.access(b(4)); // head bucket moves up into the gap
        assert_eq!(chain(&lfu), [(2, vec![4]), (3, vec![2, 1])]);
        lfu.access(b(4)); // … and merges into the tail bucket
        assert_eq!(chain(&lfu), [(3, vec![2, 1, 4])]);
        lfu.access(b(2)); // leaves from the head of a shared bucket
        assert_eq!(chain(&lfu), [(3, vec![1, 4]), (4, vec![2])]);
        // no freq-1 bucket: admission creates one at the head, and the
        // victim is the oldest touch of the lowest frequency
        assert_eq!(lfu.access(b(5)).evicted, Some(b(1)));
        assert_eq!(chain(&lfu), [(1, vec![5]), (3, vec![4]), (4, vec![2])]);
        assert_eq!(lfu.frequency(b(4)), Some(3));
        assert!(lfu.buckets.len() <= 3, "emptied buckets are recycled");
    }

    #[test]
    fn scan_does_not_flush_hot_block() {
        let mut lfu = Lfu::new(3);
        for _ in 0..10 {
            lfu.access(b(1)); // very hot
        }
        for i in 100..120 {
            lfu.access(b(i)); // cold scan
        }
        assert!(
            lfu.contains(b(1)),
            "LFU retains the hot block through scans"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Lfu::new(0);
    }
}
