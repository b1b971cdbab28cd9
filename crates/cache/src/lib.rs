//! Cache simulation substrate.
//!
//! Finding 15 of the IISWC'20 cloud block storage study evaluates LRU
//! miss ratios at cache sizes of 1 % and 10 % of each volume's working
//! set. `cbs-cache` provides that simulation plus the surrounding
//! machinery a storage-caching study needs:
//!
//! * [`policy`] — the object-safe [`CachePolicy`] trait;
//! * [`numbering`] — [`BlockNumbering`], which gives each distinct block
//!   a dense [`BlockNo`] once, the key every policy indexes by;
//! * [`lru`], [`fifo`], [`lfu`], [`clock`], [`arc`], [`slru`], [`twoq`] —
//!   replacement policies (LRU is the paper's; the rest are ablation
//!   baselines);
//! * [`sim`] — [`CacheSim`], which drives a policy over a block-access
//!   stream and tallies read/write hit ratios as the paper reports them;
//! * [`reuse`] — exact reuse-distance computation (Mattson stack
//!   distances via an occupancy bitset with a hierarchical popcount
//!   index) and SHARDS-style sampled approximation;
//! * [`mrc`] — miss-ratio curves derived from reuse distances, after
//!   Counter Stacks / SHARDS (both cited by the paper);
//! * [`opt`] — Belady's offline-optimal MIN as the unbeatable baseline;
//! * [`sweep`] — the single-pass policy × capacity sweep engine: one
//!   trace traversal drives a whole grid of lanes (collapsed exact-LRU
//!   stack lane, boxed policy lanes, SHARDS-sampled lanes) over a
//!   shared column of block spans.
//!
//! # Example
//!
//! ```
//! use cbs_cache::{BlockNumbering, CachePolicy, Lru};
//! use cbs_trace::BlockId;
//!
//! let mut numbers = BlockNumbering::new();
//! let [b1, b2, b3] = [1, 2, 3].map(|id| numbers.number(BlockId::new(id)));
//! let mut lru = Lru::new(2);
//! assert!(!lru.access(b1).hit);
//! assert!(!lru.access(b2).hit);
//! assert!(lru.access(b1).hit);     // 1 is MRU now
//! let out = lru.access(b3);        // evicts 2 (LRU)
//! assert_eq!(out.evicted, Some(b2));
//! ```

#![forbid(unsafe_code)]

pub mod arc;
pub mod clock;
pub mod fifo;
pub mod lfu;
pub mod list;
pub mod lru;
pub mod mrc;
pub mod numbering;
pub mod opt;
pub mod policy;
pub mod reuse;
pub mod sim;
pub mod slru;
pub mod sweep;
pub mod twoq;

pub use arc::Arc;
pub use clock::Clock;
pub use fifo::Fifo;
pub use lfu::Lfu;
pub use lru::Lru;
pub use mrc::MissRatioCurve;
pub use numbering::{BlockNo, BlockNumbering};
pub use opt::{simulate_opt, OptResult};
pub use policy::{policy_by_name, AccessResult, CachePolicy, POLICY_NAMES};
pub use reuse::{BlockStack, ReuseDistances, ReuseStack, ShardsSampler};
pub use sim::{CacheSim, CacheStats};
pub use slru::Slru;
pub use sweep::{CacheSweep, LaneReport, SweepError, SweepGrid, SweepReport};
pub use twoq::TwoQ;
