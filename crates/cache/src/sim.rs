//! Cache simulation over request streams: [`CacheSim`] and
//! [`CacheStats`].

use cbs_trace::{BlockAccessColumn, BlockSize, IoRequest, OpKind, RequestBatch};

use crate::policy::CachePolicy;

/// Hit/miss tallies of a simulation, split by operation kind.
///
/// MERGEABLE: tallies form a commutative monoid under [`merge`] (all
/// four counts add; zeroed stats are the identity), so per-partition
/// simulations of disjoint request streams combine into corpus-wide
/// tallies in any grouping order.
///
/// The paper's Fig. 18 reports *miss ratios* for reads and writes
/// separately while simulating one unified cache — this struct carries
/// exactly those numbers.
///
/// [`merge`]: CacheStats::merge
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    read_accesses: u64,
    read_hits: u64,
    write_accesses: u64,
    write_hits: u64,
}

impl CacheStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds stats from pre-tallied access and hit counts.
    ///
    /// Used by consumers that derive hit counts analytically instead of
    /// recording access-by-access — the sweep engine's collapsed LRU
    /// lane turns one reuse-distance histogram into the exact
    /// `CacheStats` of every capacity this way (stack property: an
    /// access hits capacity `c` iff its reuse distance is `< c`).
    pub fn from_counts(
        read_accesses: u64,
        read_hits: u64,
        write_accesses: u64,
        write_hits: u64,
    ) -> Self {
        CacheStats {
            read_accesses,
            read_hits,
            write_accesses,
            write_hits,
        }
    }

    /// Records one block access.
    pub fn record(&mut self, op: OpKind, hit: bool) {
        match op {
            OpKind::Read => {
                self.read_accesses += 1;
                self.read_hits += u64::from(hit);
            }
            OpKind::Write => {
                self.write_accesses += 1;
                self.write_hits += u64::from(hit);
            }
        }
    }

    /// Number of read block-accesses.
    pub fn read_accesses(&self) -> u64 {
        self.read_accesses
    }

    /// Number of write block-accesses.
    pub fn write_accesses(&self) -> u64 {
        self.write_accesses
    }

    /// Total block-accesses.
    pub fn total_accesses(&self) -> u64 {
        self.read_accesses + self.write_accesses
    }

    /// Read hits.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }

    /// Write hits.
    pub fn write_hits(&self) -> u64 {
        self.write_hits
    }

    /// Read miss ratio, or `None` if no reads were simulated.
    pub fn read_miss_ratio(&self) -> Option<f64> {
        (self.read_accesses > 0).then(|| 1.0 - self.read_hits as f64 / self.read_accesses as f64)
    }

    /// Write miss ratio, or `None` if no writes were simulated.
    pub fn write_miss_ratio(&self) -> Option<f64> {
        (self.write_accesses > 0).then(|| 1.0 - self.write_hits as f64 / self.write_accesses as f64)
    }

    /// Overall miss ratio, or `None` if nothing was simulated.
    pub fn overall_miss_ratio(&self) -> Option<f64> {
        let total = self.total_accesses();
        (total > 0).then(|| 1.0 - (self.read_hits + self.write_hits) as f64 / total as f64)
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.read_accesses += other.read_accesses;
        self.read_hits += other.read_hits;
        self.write_accesses += other.write_accesses;
        self.write_hits += other.write_hits;
    }

    /// Publishes this tally into `registry` as gauges named
    /// `<prefix>.read_accesses`, `.read_hits`, `.write_accesses`, and
    /// `.write_hits` (miss ratios derive from those). Idempotent —
    /// gauges are *set*, so re-publishing after more simulation
    /// overwrites rather than double-counts.
    pub fn publish(&self, registry: &cbs_obs::Registry, prefix: &str) {
        registry
            .gauge(&format!("{prefix}.read_accesses"))
            .set(self.read_accesses);
        registry
            .gauge(&format!("{prefix}.read_hits"))
            .set(self.read_hits);
        registry
            .gauge(&format!("{prefix}.write_accesses"))
            .set(self.write_accesses);
        registry
            .gauge(&format!("{prefix}.write_hits"))
            .set(self.write_hits);
    }
}

/// Drives a [`CachePolicy`] over a block-level request stream.
///
/// Requests are decomposed into fixed-size block accesses
/// (via [`BlockSize::span_of`]); each block touched counts as one access
/// of the request's kind — reads and writes share the cache, as in the
/// paper's unified-cache simulation.
///
/// # Example
///
/// ```
/// use cbs_cache::{CacheSim, Lru};
/// use cbs_trace::{BlockSize, IoRequest, OpKind, Timestamp, VolumeId};
///
/// let reqs = vec![
///     IoRequest::new(VolumeId::new(0), OpKind::Write, 0, 8192, Timestamp::from_secs(0)),
///     IoRequest::new(VolumeId::new(0), OpKind::Read, 0, 8192, Timestamp::from_secs(1)),
/// ];
/// let mut sim = CacheSim::new(Lru::new(16), BlockSize::DEFAULT);
/// sim.run(&reqs);
/// let stats = sim.stats();
/// assert_eq!(stats.write_accesses(), 2);      // 2 blocks written (miss)
/// assert_eq!(stats.read_miss_ratio(), Some(0.0)); // both read blocks hit
/// ```
#[derive(Debug)]
pub struct CacheSim<P> {
    policy: P,
    block_size: BlockSize,
    stats: CacheStats,
}

impl<P: CachePolicy> CacheSim<P> {
    /// Creates a simulation of `policy` with `block_size` granularity.
    pub fn new(policy: P, block_size: BlockSize) -> Self {
        CacheSim {
            policy,
            block_size,
            stats: CacheStats::new(),
        }
    }

    /// Simulates one request (every block it touches).
    pub fn access_request(&mut self, req: &IoRequest) {
        for block in self.block_size.span_of(req) {
            let out = self.policy.access(block);
            self.stats.record(req.op(), out.hit);
        }
    }

    /// Simulates a whole request stream.
    pub fn run<'a, I>(&mut self, requests: I)
    where
        I: IntoIterator<Item = &'a IoRequest>,
    {
        for req in requests {
            self.access_request(req);
        }
    }

    /// Simulates a columnar batch, expanding it into `scratch` first
    /// (replacing the scratch contents) — bit-identical to
    /// [`run`](Self::run) over the same requests. Callers that simulate
    /// several policies over one stream use the sweep engine
    /// ([`SweepGrid`](crate::SweepGrid)), which expands each batch once
    /// for all of them.
    pub fn run_batch(&mut self, batch: &RequestBatch, scratch: &mut BlockAccessColumn) {
        batch.expand_blocks_into(self.block_size, scratch);
        for (block, op) in scratch.iter() {
            let out = self.policy.access(block);
            self.stats.record(op, out.hit);
        }
    }

    /// The tallies so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The policy under simulation.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Consumes the simulation, returning the policy and stats.
    pub fn into_parts(self) -> (P, CacheStats) {
        (self.policy, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lru;
    use cbs_trace::{Timestamp, VolumeId};

    fn req(op: OpKind, offset: u64, len: u32, s: u64) -> IoRequest {
        IoRequest::new(VolumeId::new(0), op, offset, len, Timestamp::from_secs(s))
    }

    #[test]
    fn stats_split_by_op() {
        let mut s = CacheStats::new();
        s.record(OpKind::Read, true);
        s.record(OpKind::Read, false);
        s.record(OpKind::Write, false);
        assert_eq!(s.read_accesses(), 2);
        assert_eq!(s.write_accesses(), 1);
        assert_eq!(s.read_miss_ratio(), Some(0.5));
        assert_eq!(s.write_miss_ratio(), Some(1.0));
        assert!((s.overall_miss_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_return_none() {
        let s = CacheStats::new();
        assert_eq!(s.read_miss_ratio(), None);
        assert_eq!(s.write_miss_ratio(), None);
        assert_eq!(s.overall_miss_ratio(), None);
        assert_eq!(s.total_accesses(), 0);
    }

    #[test]
    fn merge_adds_tallies() {
        let mut a = CacheStats::new();
        a.record(OpKind::Read, true);
        let mut b = CacheStats::new();
        b.record(OpKind::Write, false);
        b.record(OpKind::Read, false);
        a.merge(&b);
        assert_eq!(a.total_accesses(), 3);
        assert_eq!(a.read_hits(), 1);
        assert_eq!(a.write_hits(), 0);
    }

    #[test]
    fn request_decomposes_into_blocks() {
        let mut sim = CacheSim::new(Lru::new(64), BlockSize::DEFAULT);
        sim.access_request(&req(OpKind::Write, 0, 16384, 0)); // 4 blocks
        assert_eq!(sim.stats().write_accesses(), 4);
        assert_eq!(sim.stats().write_hits(), 0);
        sim.access_request(&req(OpKind::Write, 0, 16384, 1)); // same 4 blocks
        assert_eq!(sim.stats().write_hits(), 4);
    }

    #[test]
    fn reads_and_writes_share_the_cache() {
        let mut sim = CacheSim::new(Lru::new(64), BlockSize::DEFAULT);
        sim.access_request(&req(OpKind::Write, 0, 4096, 0));
        sim.access_request(&req(OpKind::Read, 0, 4096, 1));
        // the read hits the block the write brought in
        assert_eq!(sim.stats().read_miss_ratio(), Some(0.0));
    }

    #[test]
    fn tiny_cache_thrashes_on_cyclic_scan() {
        // cyclic scan over 8 blocks with a 4-block LRU: always misses
        let reqs: Vec<_> = (0..32)
            .map(|i| req(OpKind::Read, (i % 8) * 4096, 4096, i))
            .collect();
        let mut sim = CacheSim::new(Lru::new(4), BlockSize::DEFAULT);
        sim.run(&reqs);
        assert_eq!(sim.stats().read_miss_ratio(), Some(1.0));
    }

    #[test]
    fn publish_sets_gauges_idempotently() {
        let registry = cbs_obs::Registry::new();
        let mut sim = CacheSim::new(Lru::new(64), BlockSize::DEFAULT);
        sim.access_request(&req(OpKind::Write, 0, 16384, 0));
        sim.stats().publish(&registry, "cache.lru");
        assert_eq!(registry.gauge("cache.lru.write_accesses").get(), 4);
        assert_eq!(registry.gauge("cache.lru.write_hits").get(), 0);
        // More simulation, re-publish: levels overwrite, not accumulate.
        sim.access_request(&req(OpKind::Write, 0, 16384, 1));
        sim.stats().publish(&registry, "cache.lru");
        assert_eq!(registry.gauge("cache.lru.write_accesses").get(), 8);
        assert_eq!(registry.gauge("cache.lru.write_hits").get(), 4);
        assert_eq!(registry.gauge("cache.lru.read_accesses").get(), 0);
    }

    #[test]
    fn from_counts_roundtrips_record() {
        let mut recorded = CacheStats::new();
        recorded.record(OpKind::Read, true);
        recorded.record(OpKind::Read, false);
        recorded.record(OpKind::Write, false);
        assert_eq!(recorded, CacheStats::from_counts(2, 1, 1, 0));
    }

    #[test]
    fn run_batch_matches_run() {
        let reqs: Vec<IoRequest> = (0..300)
            .map(|i| {
                req(
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i % 23) * 4096 + 100 * (i % 7),
                    (i % 5) as u32 * 4096 + 1,
                    i,
                )
            })
            .collect();
        let mut by_request = CacheSim::new(Lru::new(16), BlockSize::DEFAULT);
        by_request.run(&reqs);
        let batch = cbs_trace::RequestBatch::from(reqs.as_slice());
        let mut scratch = BlockAccessColumn::new();
        let mut by_batch = CacheSim::new(Lru::new(16), BlockSize::DEFAULT);
        by_batch.run_batch(&batch, &mut scratch);
        assert_eq!(by_batch.stats(), by_request.stats());
    }

    #[test]
    fn into_parts_returns_policy() {
        let mut sim = CacheSim::new(Lru::new(4), BlockSize::DEFAULT);
        sim.access_request(&req(OpKind::Read, 0, 4096, 0));
        let (policy, stats) = sim.into_parts();
        assert_eq!(policy.len(), 1);
        assert_eq!(stats.read_accesses(), 1);
    }
}
