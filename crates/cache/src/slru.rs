//! Segmented LRU replacement: [`Slru`].

use crate::numbering::BlockNo;

use crate::list::ListSlab;
use crate::policy::{AccessResult, CachePolicy};

/// Segmented LRU (Karedla et al.): the cache is split into a
/// *probationary* and a *protected* segment.
///
/// A missing block is admitted to the probationary segment; a hit on a
/// probationary block promotes it to the protected segment (demoting
/// the protected LRU back to probationary when the segment is full).
/// Eviction always takes the probationary LRU. One-touch scan traffic
/// therefore can never displace the twice-touched working set — the
/// property the paper's write-hot cloud volumes reward.
///
/// # Example
///
/// ```
/// use cbs_cache::{BlockNumbering, CachePolicy, Slru};
/// use cbs_trace::BlockId;
///
/// let mut numbers = BlockNumbering::new();
/// let hot = numbers.number(BlockId::new(1));
/// let mut cache = Slru::new(4);
/// cache.access(hot);
/// cache.access(hot); // promoted to the protected segment
/// for i in 10..14 {
///     cache.access(numbers.number(BlockId::new(i))); // scan churns probation only
/// }
/// assert!(cache.contains(hot));
/// ```
#[derive(Debug, Clone)]
pub struct Slru {
    /// Both segments, LRU at each head.
    segments: ListSlab<2>,
    capacity: usize,
    protected_capacity: usize,
}

const PROBATION: usize = 0;
const PROTECTED: usize = 1;

impl Slru {
    /// Default protected share of the capacity (the classic 80/20 is
    /// aggressive; 2/3 works well for mixed workloads).
    const PROTECTED_SHARE_NUM: usize = 2;
    const PROTECTED_SHARE_DEN: usize = 3;

    /// Creates an SLRU cache with `capacity` total blocks and the
    /// default protected share.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        let protected_capacity =
            (capacity * Self::PROTECTED_SHARE_NUM / Self::PROTECTED_SHARE_DEN).max(1);
        Slru {
            segments: ListSlab::new(),
            capacity,
            protected_capacity: protected_capacity.min(capacity.saturating_sub(1).max(1)),
        }
    }

    /// Creates an SLRU with an explicit protected-segment capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < protected_capacity < capacity`.
    pub fn with_protected_capacity(capacity: usize, protected_capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        assert!(
            protected_capacity > 0 && protected_capacity < capacity,
            "protected capacity must be in 1..capacity"
        );
        Slru {
            segments: ListSlab::new(),
            capacity,
            protected_capacity,
        }
    }

    /// Sizes of `(probationary, protected)` segments.
    pub fn segment_sizes(&self) -> (usize, usize) {
        (self.segments.len(PROBATION), self.segments.len(PROTECTED))
    }
}

impl CachePolicy for Slru {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.segments.total_len()
    }

    fn contains(&self, block: BlockNo) -> bool {
        self.segments.find(block).is_some()
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        if let Some((slot, segment)) = self.segments.find(block) {
            self.segments.move_to_tail(slot, PROTECTED);
            // promotion; overflow of the protected segment demotes its
            // LRU to the probationary MRU
            if segment == PROBATION && self.segments.len(PROTECTED) > self.protected_capacity {
                self.segments.move_head_to_tail(PROTECTED, PROBATION);
            }
            return AccessResult::HIT;
        }
        // miss: admit to probation, evicting the probationary LRU when
        // the cache is full
        let evicted = if self.len() == self.capacity {
            self.segments
                .pop_head(PROBATION)
                // pathological: everything is protected — evict there
                .or_else(|| self.segments.pop_head(PROTECTED))
        } else {
            None
        };
        self.segments.insert_tail(PROBATION, block);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    fn name(&self) -> &'static str {
        "slru"
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
        conformance::check_policy(Slru::new(8), 8);
        conformance::check_policy(Slru::new(1), 1);
        conformance::check_eviction_discipline(Slru::new(4), 4);
    }

    #[test]
    fn hit_promotes_to_protected() {
        let mut cache = Slru::new(6);
        cache.access(b(1));
        assert_eq!(cache.segment_sizes(), (1, 0));
        assert!(cache.access(b(1)).hit);
        assert_eq!(cache.segment_sizes(), (0, 1));
    }

    #[test]
    fn scan_resistance() {
        let mut cache = Slru::new(6);
        cache.access(b(1));
        cache.access(b(1));
        cache.access(b(2));
        cache.access(b(2)); // 1, 2 protected
        for i in 100..140 {
            cache.access(b(i)); // long one-touch scan
        }
        assert!(cache.contains(b(1)));
        assert!(cache.contains(b(2)));
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut cache = Slru::with_protected_capacity(4, 2);
        for i in 1..=3 {
            cache.access(b(i));
            cache.access(b(i)); // promote each
        }
        // protected holds 2; one was demoted back to probation
        let (probation, protected) = cache.segment_sizes();
        assert_eq!(protected, 2);
        assert_eq!(probation, 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn eviction_prefers_probation() {
        let mut cache = Slru::with_protected_capacity(3, 1);
        cache.access(b(1));
        cache.access(b(1)); // protected
        cache.access(b(2));
        cache.access(b(3)); // cache full: {1 prot, 2, 3 prob}
        let out = cache.access(b(4));
        assert_eq!(out.evicted, Some(b(2)), "probationary LRU evicts first");
        assert!(cache.contains(b(1)));
    }

    #[test]
    #[should_panic(expected = "protected capacity")]
    fn rejects_bad_protected_capacity() {
        let _ = Slru::with_protected_capacity(4, 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = Slru::new(0);
    }

    #[test]
    fn name() {
        assert_eq!(Slru::new(2).name(), "slru");
    }
}
