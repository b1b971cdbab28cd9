//! Belady's optimal offline replacement (MIN): [`simulate_opt`].
//!
//! OPT evicts the resident block whose next reference lies farthest in
//! the future — unbeatable by any online policy, which makes it the
//! natural upper bound when judging LRU/ARC/2Q numbers on the paper's
//! Fig. 18 operating points. Because it needs the future, OPT is a
//! standalone simulation over a complete access sequence rather than a
//! [`crate::CachePolicy`].

use std::collections::{BTreeSet, HashMap};

use cbs_trace::BlockId;

/// Result of an OPT simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptResult {
    /// Total block accesses.
    pub accesses: u64,
    /// Accesses that hit the cache.
    pub hits: u64,
}

impl OptResult {
    /// The miss ratio (1.0 for an empty sequence, keeping comparisons
    /// with [`crate::MissRatioCurve`] total).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        1.0 - self.hits as f64 / self.accesses as f64
    }
}

/// Simulates Belady's OPT over `accesses` with a cache of `capacity`
/// blocks.
///
/// This is *demand-paging* OPT: every referenced block is admitted
/// (no bypass), evicting the resident whose next use is farthest away —
/// the setting in which MIN is provably optimal among the demand
/// policies this crate implements.
///
/// Runs in O(n log c): one backward pass builds next-use indices, the
/// forward pass keeps residents ordered by next use.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Example
///
/// ```
/// use cbs_cache::opt::simulate_opt;
/// use cbs_trace::BlockId;
///
/// let accesses: Vec<BlockId> = [1u64, 2, 3, 1, 2, 3].map(BlockId::new).into();
/// // capacity 2: OPT keeps whichever of {1,2,3} returns soonest
/// let result = simulate_opt(&accesses, 2);
/// assert_eq!(result.accesses, 6);
/// assert!(result.hits >= 2);
/// ```
pub fn simulate_opt(accesses: &[BlockId], capacity: usize) -> OptResult {
    assert!(capacity > 0, "cache capacity must be non-zero");
    let n = accesses.len();

    // next_use[i] = index of the next access to the same block after i,
    // or n (sentinel: never again).
    let mut next_use = vec![n; n];
    let mut last_seen: HashMap<BlockId, usize> = HashMap::new();
    for (i, &block) in accesses.iter().enumerate().rev() {
        if let Some(&later) = last_seen.get(&block) {
            next_use[i] = later;
        }
        last_seen.insert(block, i);
    }

    // residents ordered by next use, descending pop via BTreeSet max.
    let mut by_next_use: BTreeSet<(usize, BlockId)> = BTreeSet::new();
    let mut resident: HashMap<BlockId, usize> = HashMap::new(); // block → its key
    let mut hits = 0u64;

    for (i, &block) in accesses.iter().enumerate() {
        if let Some(&key) = resident.get(&block) {
            hits += 1;
            by_next_use.remove(&(key, block));
        } else if resident.len() == capacity {
            // A full cache has a non-empty next-use set.
            if let Some((_, victim)) = by_next_use.pop_last() {
                resident.remove(&victim);
            }
        }
        resident.insert(block, next_use[i]);
        by_next_use.insert((next_use[i], block));
    }

    OptResult {
        accesses: n as u64,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachePolicy, Lru};

    fn ids(seq: &[u64]) -> Vec<BlockId> {
        seq.iter().copied().map(BlockId::new).collect()
    }

    /// `accesses` by first-touch number, the key online policies take.
    fn numbered(accesses: &[BlockId]) -> impl Iterator<Item = crate::BlockNo> + '_ {
        let mut numbers = crate::BlockNumbering::new();
        accesses.iter().map(move |&b| numbers.number(b))
    }

    #[test]
    fn empty_sequence() {
        let r = simulate_opt(&[], 4);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.hits, 0);
        assert_eq!(r.miss_ratio(), 1.0);
    }

    #[test]
    fn everything_fits() {
        let r = simulate_opt(&ids(&[1, 2, 3, 1, 2, 3]), 3);
        assert_eq!(r.hits, 3);
        assert_eq!(r.miss_ratio(), 0.5);
    }

    #[test]
    fn textbook_belady_example() {
        // classic: 1 2 3 4 1 2 5 1 2 3 4 5 with capacity 3 → OPT has
        // 7 faults (5 hits of 12)
        let r = simulate_opt(&ids(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]), 3);
        assert_eq!(r.accesses, 12);
        assert_eq!(r.hits, 5);
    }

    #[test]
    fn opt_beats_lru_on_cyclic_scan() {
        // cyclic scan over 5 blocks with capacity 4: LRU gets 0 hits,
        // OPT keeps 3 of them resident
        let seq: Vec<u64> = (0..50).map(|i| i % 5).collect();
        let accesses = ids(&seq);
        let opt = simulate_opt(&accesses, 4);
        let mut lru = Lru::new(4);
        let lru_hits: u64 = numbered(&accesses)
            .map(|b| u64::from(lru.access(b).hit))
            .sum();
        assert_eq!(lru_hits, 0, "LRU thrashes on the cycle");
        assert!(opt.hits > 25, "OPT exploits the future: {} hits", opt.hits);
    }

    #[test]
    fn opt_dominates_every_online_policy() {
        // pseudo-random stream with reuse: OPT ≥ LRU/ARC/2Q/... hit counts
        let seq: Vec<u64> = (0..3000u64).map(|i| (i * 31 + 7) % 97).collect();
        let accesses = ids(&seq);
        for cap in [4usize, 16, 48] {
            let opt = simulate_opt(&accesses, cap);
            let policies: Vec<Box<dyn CachePolicy>> = vec![
                Box::new(crate::Lru::new(cap)),
                Box::new(crate::Fifo::new(cap)),
                Box::new(crate::Lfu::new(cap)),
                Box::new(crate::Clock::new(cap)),
                Box::new(crate::Arc::new(cap)),
                Box::new(crate::Slru::new(cap)),
                Box::new(crate::TwoQ::new(cap)),
            ];
            for mut policy in policies {
                let hits: u64 = numbered(&accesses)
                    .map(|b| u64::from(policy.access(b).hit))
                    .sum();
                assert!(
                    opt.hits >= hits,
                    "cap {cap}: {} beat OPT ({} > {})",
                    policy.name(),
                    hits,
                    opt.hits
                );
            }
        }
    }

    #[test]
    fn capacity_one() {
        // demand paging: 2 must be admitted, evicting 1, so only the
        // second access to 1 hits.
        let r = simulate_opt(&ids(&[1, 1, 2, 1]), 1);
        assert_eq!(r.hits, 1);
        assert!((r.miss_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = simulate_opt(&[], 0);
    }
}
