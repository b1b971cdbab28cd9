//! The replacement-policy abstraction: [`CachePolicy`] and
//! [`AccessResult`].

use crate::numbering::BlockNo;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// `true` if the block was resident before the access.
    pub hit: bool,
    /// The block evicted to make room, if any.
    pub evicted: Option<BlockNo>,
}

impl AccessResult {
    /// A hit (nothing evicted).
    pub const HIT: AccessResult = AccessResult {
        hit: true,
        evicted: None,
    };

    /// A miss that fit without eviction.
    pub const MISS: AccessResult = AccessResult {
        hit: false,
        evicted: None,
    };

    /// A miss that evicted `victim`.
    pub fn miss_evicting(victim: BlockNo) -> AccessResult {
        AccessResult {
            hit: false,
            evicted: Some(victim),
        }
    }
}

/// A block-granular cache replacement policy.
///
/// Semantics shared by every implementation in this crate:
///
/// * the cache holds at most [`capacity`](CachePolicy::capacity) blocks,
///   all of equal size (analyses choose the block unit);
/// * [`access`](CachePolicy::access) performs the policy's full
///   bookkeeping for one reference: on a miss the block is admitted,
///   evicting at most one victim; on a hit the recency/frequency state is
///   updated;
/// * reads and writes are treated identically (the paper's Finding 15
///   simulates a unified read/write cache; the split accounting lives in
///   [`crate::CacheSim`]);
/// * blocks are keyed by their [`BlockNo`], the dense number a
///   [`crate::BlockNumbering`] gave them, so a policy finds a block with
///   one array load: its index is as large as the highest number it has
///   seen ([`crate::CacheSim`] and the sweep engine number the stream).
///
/// The trait is object-safe so simulations can switch policies at
/// runtime (`Box<dyn CachePolicy>`).
pub trait CachePolicy {
    /// Maximum number of resident blocks.
    fn capacity(&self) -> usize;

    /// Current number of resident blocks.
    fn len(&self) -> usize;

    /// Returns `true` if no block is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `block` is resident.
    fn contains(&self, block: BlockNo) -> bool;

    /// References `block`, updating policy state.
    fn access(&mut self, block: BlockNo) -> AccessResult;

    /// A short human-readable policy name (`"lru"`, `"arc"`, ...).
    fn name(&self) -> &'static str;
}

impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn contains(&self, block: BlockNo) -> bool {
        (**self).contains(block)
    }

    fn access(&mut self, block: BlockNo) -> AccessResult {
        (**self).access(block)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Every policy name [`policy_by_name`] accepts, in the order the
/// paper's Fig. 18 ablations report them.
pub const POLICY_NAMES: &[&str] = &["lru", "fifo", "clock", "lfu", "arc", "slru", "2q"];

/// Constructs a policy from its short name (`"lru"`, `"fifo"`,
/// `"clock"`, `"lfu"`, `"arc"`, `"slru"`, `"2q"`), so sweep grids and
/// CLI flags can be configured by string. Returns `None` for unknown
/// names.
///
/// The returned box is `Send`, so it can be moved onto sweep worker
/// threads; it coerces to plain `Box<dyn CachePolicy>` where `Send` is
/// not needed.
///
/// # Panics
///
/// Panics if `capacity` is zero, like the policy constructors.
///
/// # Example
///
/// ```
/// use cbs_cache::{policy_by_name, BlockNumbering, CachePolicy};
/// use cbs_trace::BlockId;
///
/// let mut numbers = BlockNumbering::new();
/// let mut policy = policy_by_name("arc", 64).expect("known policy");
/// assert_eq!(policy.name(), "arc");
/// assert!(!policy.access(numbers.number(BlockId::new(1))).hit);
/// assert!(policy_by_name("belady", 64).is_none());
/// ```
pub fn policy_by_name(name: &str, capacity: usize) -> Option<Box<dyn CachePolicy + Send>> {
    Some(match name {
        "lru" => Box::new(crate::Lru::new(capacity)),
        "fifo" => Box::new(crate::Fifo::new(capacity)),
        "clock" => Box::new(crate::Clock::new(capacity)),
        "lfu" => Box::new(crate::Lfu::new(capacity)),
        "arc" => Box::new(crate::Arc::new(capacity)),
        "slru" => Box::new(crate::Slru::new(capacity)),
        "2q" => Box::new(crate::TwoQ::new(capacity)),
        _ => return None,
    })
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance checks run against every policy.

    use super::*;

    /// Exercises the invariants every policy must uphold.
    pub(crate) fn check_policy<P: CachePolicy>(mut cache: P, capacity: usize) {
        assert_eq!(cache.capacity(), capacity);
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
        assert!(!cache.contains(BlockNo::from_raw(0)));

        // deterministic access pattern with reuse
        let pattern: Vec<u32> = (0..200u32).map(|i| (i * 7) % 50).collect();
        let mut resident: std::collections::HashSet<BlockNo> = Default::default();
        for &b in &pattern {
            let block = BlockNo::from_raw(b);
            let was_resident = resident.contains(&block);
            let out = cache.access(block);
            // hit report must agree with residency
            assert_eq!(out.hit, was_resident, "block {b}");
            if let Some(victim) = out.evicted {
                assert!(resident.remove(&victim), "evicted non-resident {victim:?}");
                assert!(!cache.contains(victim), "victim still resident");
            }
            resident.insert(block);
            assert!(cache.contains(block), "accessed block must be resident");
            assert!(cache.len() <= capacity, "capacity exceeded");
            assert_eq!(cache.len(), resident.len(), "len mismatch");
        }
        assert!(!cache.is_empty());
    }

    /// A hit never evicts; a miss at full capacity always evicts.
    pub(crate) fn check_eviction_discipline<P: CachePolicy>(mut cache: P, capacity: usize) {
        for i in 0..capacity as u32 {
            let out = cache.access(BlockNo::from_raw(i));
            assert!(!out.hit);
            assert_eq!(out.evicted, None, "no eviction before full");
        }
        let out = cache.access(BlockNo::from_raw(0));
        assert!(out.hit);
        assert_eq!(out.evicted, None, "hits never evict");
        let out = cache.access(BlockNo::from_raw(capacity as u32 + 10));
        assert!(!out.hit);
        assert!(out.evicted.is_some(), "miss at capacity must evict");
        assert_eq!(cache.len(), capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_result_constructors() {
        let (hit, miss) = (AccessResult::HIT, AccessResult::MISS);
        assert!(hit.hit);
        assert_eq!(hit.evicted, None);
        assert!(!miss.hit);
        let e = AccessResult::miss_evicting(BlockNo::from_raw(3));
        assert!(!e.hit);
        assert_eq!(e.evicted, Some(BlockNo::from_raw(3)));
    }

    #[test]
    fn factory_covers_every_name() {
        for &name in POLICY_NAMES {
            let policy = policy_by_name(name, 16).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(policy.name(), name);
            assert_eq!(policy.capacity(), 16);
        }
        assert!(policy_by_name("belady", 16).is_none());
        assert!(policy_by_name("LRU", 16).is_none(), "names are lowercase");
    }

    #[test]
    fn boxed_policy_is_object_safe_and_delegates() {
        // `Box<dyn CachePolicy>` must satisfy `CachePolicy` itself so
        // generic consumers (`CacheSim<Box<dyn CachePolicy>>`, sweep
        // lanes) can hold factory-built policies.
        let boxed: Box<dyn CachePolicy + Send> = policy_by_name("lru", 2).expect("lru exists");
        let mut boxed: Box<dyn CachePolicy> = boxed;
        let b = BlockNo::from_raw;
        assert!(boxed.is_empty());
        assert!(!boxed.access(b(1)).hit);
        assert!(!boxed.access(b(2)).hit);
        assert!(boxed.access(b(1)).hit);
        let out = boxed.access(b(3));
        assert_eq!(out.evicted, Some(b(2)));
        assert!(boxed.contains(b(3)));
        assert_eq!(boxed.len(), 2);
        assert_eq!(boxed.capacity(), 2);
        assert_eq!(boxed.name(), "lru");
        // And the blanket impl passes the shared conformance checks.
        conformance::check_policy(policy_by_name("2q", 32).expect("2q exists"), 32);
        conformance::check_eviction_discipline(policy_by_name("clock", 8).expect("clock"), 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn factory_rejects_zero_capacity() {
        let _ = policy_by_name("lru", 0);
    }
}
