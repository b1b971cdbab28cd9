//! Naive reference policies: the independent oracle the production
//! kernels are checked against (`policy_kernels_match_naive_oracle` in
//! `proptests.rs`).
//!
//! Everything here is a `Vec` searched linearly and kept in eviction
//! order — no hash maps, no direct index, no links, nothing shared
//! with `cbs_cache`'s kernels but the [`CachePolicy`] trait, its
//! [`BlockNo`] key and the constants their docs state. ARC, 2Q and SLRU
//! are transcribed from the papers' pseudocode, not from the production
//! code.

use cbs_cache::{AccessResult, BlockNo, CachePolicy};

/// A list kept front = next victim, back = most recent.
type Queue = Vec<BlockNo>;

fn position(queue: &Queue, block: BlockNo) -> Option<usize> {
    queue.iter().position(|&b| b == block)
}

/// Removes `block` from `queue` if present; `true` if it was.
fn take(queue: &mut Queue, block: BlockNo) -> bool {
    match position(queue, block) {
        Some(i) => {
            queue.remove(i);
            true
        }
        None => false,
    }
}

fn pop_front(queue: &mut Queue) -> Option<BlockNo> {
    if queue.is_empty() {
        None
    } else {
        Some(queue.remove(0))
    }
}

fn miss(evicted: Option<BlockNo>) -> AccessResult {
    AccessResult {
        hit: false,
        evicted,
    }
}

/// Builds the naive reference for `name` (every `POLICY_NAMES` entry).
pub fn naive_by_name(name: &str, capacity: usize) -> Option<Box<dyn CachePolicy>> {
    Some(match name {
        "lru" => Box::new(NaiveLru {
            queue: Vec::new(),
            capacity,
        }),
        "fifo" => Box::new(NaiveFifo {
            queue: Vec::new(),
            capacity,
        }),
        "clock" => Box::new(NaiveClock {
            frames: Vec::new(),
            hand: 0,
            capacity,
        }),
        "lfu" => Box::new(NaiveLfu {
            entries: Vec::new(),
            clock: 0,
            capacity,
        }),
        "arc" => Box::new(NaiveArc {
            t1: Vec::new(),
            t2: Vec::new(),
            b1: Vec::new(),
            b2: Vec::new(),
            p: 0,
            c: capacity,
        }),
        "slru" => Box::new(NaiveSlru {
            probation: Vec::new(),
            protected: Vec::new(),
            capacity,
            // 2/3 of the capacity, at least one block, always leaving
            // one probationary block when the capacity allows it.
            protected_capacity: (capacity * 2 / 3)
                .max(1)
                .min(capacity.saturating_sub(1).max(1)),
        }),
        "2q" => Box::new(NaiveTwoQ {
            a1in: Vec::new(),
            a1out: Vec::new(),
            am: Vec::new(),
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
        }),
        _ => return None,
    })
}

struct NaiveLru {
    queue: Queue,
    capacity: usize,
}

impl CachePolicy for NaiveLru {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        position(&self.queue, block).is_some()
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        if take(&mut self.queue, block) {
            self.queue.push(block);
            return AccessResult::HIT;
        }
        let evicted = if self.queue.len() == self.capacity {
            pop_front(&mut self.queue)
        } else {
            None
        };
        self.queue.push(block);
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "lru"
    }
}

struct NaiveFifo {
    queue: Queue,
    capacity: usize,
}

impl CachePolicy for NaiveFifo {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        position(&self.queue, block).is_some()
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        if self.contains(block) {
            return AccessResult::HIT;
        }
        let evicted = if self.queue.len() == self.capacity {
            pop_front(&mut self.queue)
        } else {
            None
        };
        self.queue.push(block);
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Second chance: frames fill in admission order; the hand clears
/// reference bits until it meets a clear one, replaces that frame in
/// place and steps past it.
struct NaiveClock {
    frames: Vec<(BlockNo, bool)>,
    hand: usize,
    capacity: usize,
}

impl CachePolicy for NaiveClock {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.frames.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        self.frames.iter().any(|&(b, _)| b == block)
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        if let Some(frame) = self.frames.iter_mut().find(|(b, _)| *b == block) {
            frame.1 = true;
            return AccessResult::HIT;
        }
        if self.frames.len() < self.capacity {
            self.frames.push((block, false));
            return AccessResult::MISS;
        }
        while self.frames[self.hand].1 {
            self.frames[self.hand].1 = false;
            self.hand = (self.hand + 1) % self.capacity;
        }
        let victim = self.frames[self.hand].0;
        self.frames[self.hand] = (block, false);
        self.hand = (self.hand + 1) % self.capacity;
        miss(Some(victim))
    }
    fn name(&self) -> &'static str {
        "clock"
    }
}

/// LFU: the victim is the minimum `(frequency, last touch)`.
struct NaiveLfu {
    /// `(block, frequency, time of the last touch)`.
    entries: Vec<(BlockNo, u64, u64)>,
    clock: u64,
    capacity: usize,
}

impl CachePolicy for NaiveLfu {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        self.entries.iter().any(|&(b, _, _)| b == block)
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        self.clock += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(b, _, _)| *b == block) {
            entry.1 += 1;
            entry.2 = self.clock;
            return AccessResult::HIT;
        }
        let evicted = if self.entries.len() == self.capacity {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, freq, seq))| (freq, seq))
                .expect("a full cache is non-empty");
            Some(self.entries.remove(i).0)
        } else {
            None
        };
        self.entries.push((block, 1, self.clock));
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "lfu"
    }
}

/// ARC, Fig. 4 of Megiddo & Modha (FAST'03), lists kept LRU → MRU.
struct NaiveArc {
    t1: Queue,
    t2: Queue,
    b1: Queue,
    b2: Queue,
    p: usize,
    c: usize,
}

impl NaiveArc {
    /// Subroutine REPLACE(x, p).
    fn replace(&mut self, x_in_b2: bool) -> Option<BlockNo> {
        let t1 = self.t1.len();
        if t1 > 0 && (t1 > self.p || (x_in_b2 && t1 == self.p)) {
            let victim = pop_front(&mut self.t1)?;
            self.b1.push(victim);
            Some(victim)
        } else {
            let victim = pop_front(&mut self.t2)?;
            self.b2.push(victim);
            Some(victim)
        }
    }
}

impl CachePolicy for NaiveArc {
    fn capacity(&self) -> usize {
        self.c
    }
    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        position(&self.t1, block).is_some() || position(&self.t2, block).is_some()
    }
    fn access(&mut self, x: BlockNo) -> AccessResult {
        // Case I: x in T1 or T2 — move to MRU of T2.
        if take(&mut self.t1, x) || take(&mut self.t2, x) {
            self.t2.push(x);
            return AccessResult::HIT;
        }
        // Case II: x in B1 — δ1 = 1 if |B1| ≥ |B2| else |B2|/|B1|.
        if position(&self.b1, x).is_some() {
            let delta = if self.b1.len() >= self.b2.len() {
                1
            } else {
                self.b2.len() / self.b1.len()
            };
            self.p = (self.p + delta).min(self.c);
            let evicted = self.replace(false);
            take(&mut self.b1, x);
            self.t2.push(x);
            return miss(evicted);
        }
        // Case III: x in B2 — δ2 = 1 if |B2| ≥ |B1| else |B1|/|B2|.
        if position(&self.b2, x).is_some() {
            let delta = if self.b2.len() >= self.b1.len() {
                1
            } else {
                self.b1.len() / self.b2.len()
            };
            self.p = self.p.saturating_sub(delta);
            let evicted = self.replace(true);
            take(&mut self.b2, x);
            self.t2.push(x);
            return miss(evicted);
        }
        // Case IV: x is nowhere in the directory.
        let l1 = self.t1.len() + self.b1.len();
        let evicted = if l1 == self.c {
            if self.t1.len() < self.c {
                pop_front(&mut self.b1);
                self.replace(false)
            } else {
                pop_front(&mut self.t1)
            }
        } else {
            let total = l1 + self.t2.len() + self.b2.len();
            if total >= self.c {
                if total == 2 * self.c {
                    pop_front(&mut self.b2);
                }
                self.replace(false)
            } else {
                None
            }
        };
        self.t1.push(x);
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "arc"
    }
}

/// Segmented LRU (Karedla et al.): misses enter probation, a hit moves
/// the block to the protected MRU, protected overflow falls back to the
/// probationary MRU, eviction takes the probationary LRU.
struct NaiveSlru {
    probation: Queue,
    protected: Queue,
    capacity: usize,
    protected_capacity: usize,
}

impl CachePolicy for NaiveSlru {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        position(&self.probation, block).is_some() || position(&self.protected, block).is_some()
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        if take(&mut self.protected, block) {
            self.protected.push(block);
            return AccessResult::HIT;
        }
        if take(&mut self.probation, block) {
            self.protected.push(block);
            if self.protected.len() > self.protected_capacity {
                let demoted = self.protected.remove(0);
                self.probation.push(demoted);
            }
            return AccessResult::HIT;
        }
        let evicted = if self.len() == self.capacity {
            pop_front(&mut self.probation).or_else(|| pop_front(&mut self.protected))
        } else {
            None
        };
        self.probation.push(block);
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "slru"
    }
}

/// 2Q, full version (Johnson & Shasha, VLDB'94, Fig. 4), with
/// Kin = c/4 and Kout = c/2.
struct NaiveTwoQ {
    a1in: Queue,
    a1out: Queue,
    am: Queue,
    capacity: usize,
    kin: usize,
    kout: usize,
}

impl NaiveTwoQ {
    /// `reclaimfor`: frees a slot when none is free. A1in's tail pages
    /// out (leaving a ghost on A1out, trimmed to Kout) while A1in is
    /// over Kin — or while Am has nothing to give, the one departure
    /// from the figure, needed below four blocks — else Am's tail goes.
    fn reclaim(&mut self) -> Option<BlockNo> {
        if self.len() < self.capacity {
            return None;
        }
        if self.a1in.len() > self.kin || self.am.is_empty() {
            let victim = pop_front(&mut self.a1in)?;
            self.a1out.push(victim);
            if self.a1out.len() > self.kout {
                self.a1out.remove(0);
            }
            Some(victim)
        } else {
            pop_front(&mut self.am)
        }
    }
}

impl CachePolicy for NaiveTwoQ {
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }
    fn contains(&self, block: BlockNo) -> bool {
        position(&self.a1in, block).is_some() || position(&self.am, block).is_some()
    }
    fn access(&mut self, block: BlockNo) -> AccessResult {
        if take(&mut self.am, block) {
            self.am.push(block);
            return AccessResult::HIT;
        }
        if position(&self.a1in, block).is_some() {
            return AccessResult::HIT;
        }
        if position(&self.a1out, block).is_some() {
            // reclaimfor(X) runs with X still on A1out, and may trim X
            // itself off it.
            let evicted = self.reclaim();
            take(&mut self.a1out, block);
            self.am.push(block);
            return miss(evicted);
        }
        let evicted = self.reclaim();
        self.a1in.push(block);
        miss(evicted)
    }
    fn name(&self) -> &'static str {
        "2q"
    }
}
