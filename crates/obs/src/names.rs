//! The canonical metric-name registry.
//!
//! Metric names are stringly-typed at emission sites
//! (`registry.counter("cbt.records")`), so nothing in the type system
//! stops a typo from silently splitting one logical metric into two.
//! This table is the single source of truth: the CBS-L12 domain rule
//! (`tests/domain_rules.rs`) checks that every metric-name literal in
//! non-test library code matches an entry exactly and that no entry is
//! stale (emitted by no library code); `sorted_and_unique` below keeps
//! the names sorted and registered once.
//!
//! Naming scheme: `<subsystem>.<metric>` with `_nanos`/`_bytes`
//! suffixes for units. Families emitted through `format!` register a
//! wildcard name with `*` standing for the interpolation — e.g.
//! `format!("stream.shard{s}.requests")` matches
//! `stream.shard*.requests`.

/// Every metric name the workspace emits, with a one-line doc.
///
/// Keep sorted by name; the tests flag duplicates and stale entries.
pub const METRIC_NAMES: &[(&str, &str)] = &[
    (
        "*.read_accesses",
        "cache sim: read accesses, prefixed by the simulation label",
    ),
    (
        "*.read_hits",
        "cache sim: read hits, prefixed by the simulation label",
    ),
    (
        "*.write_accesses",
        "cache sim: write accesses, prefixed by the simulation label",
    ),
    (
        "*.write_hits",
        "cache sim: write hits, prefixed by the simulation label",
    ),
    ("cbt.block_decode", "span: per-block CBT decode latency"),
    ("cbt.blocks", "CBT blocks decoded"),
    ("cbt.bytes", "compressed CBT bytes consumed"),
    ("cbt.corrupt_blocks", "CBT blocks skipped as undecodable"),
    ("cbt.crc_failures", "CBT blocks failing CRC verification"),
    ("cbt.records", "records decoded from CBT blocks"),
    (
        "decode.bytes",
        "raw text bytes consumed by the parallel decoder",
    ),
    ("decode.chunks", "chunks fed to parallel decode workers"),
    (
        "decode.general_path_lines",
        "rows the row scanner refused and the general parser decided",
    ),
    ("decode.lines", "text lines seen by the parallel decoder"),
    (
        "decode.malformed_line",
        "1-based line number of the first malformed record (0 = none)",
    ),
    ("decode.records", "records decoded from text traces"),
    (
        "replay.backend_nanos",
        "per-request service time, issue instant to completion reading, nanoseconds",
    ),
    ("replay.bytes", "payload bytes issued by the replayer"),
    (
        "replay.feed_backpressure_nanos",
        "feeder nanoseconds blocked on full lane channels",
    ),
    (
        "replay.idle_nanos",
        "lane nanoseconds blocked on empty channels, waiting for the feeder",
    ),
    (
        "replay.issue_lag_nanos",
        "per-request issue lag (actual minus target issue time)",
    ),
    (
        "replay.lane*.backend_nanos",
        "per-lane backend service time, nanoseconds",
    ),
    ("replay.lane*.bytes", "per-lane payload bytes issued"),
    (
        "replay.lane*.idle_nanos",
        "per-lane nanoseconds blocked on an empty channel",
    ),
    (
        "replay.lane*.issue_lag_nanos",
        "per-lane issue lag (actual minus target issue time)",
    ),
    ("replay.lane*.reads", "per-lane read requests issued"),
    ("replay.lane*.requests", "per-lane requests issued"),
    (
        "replay.lane*.sleep_nanos",
        "per-lane nanoseconds slept ahead of deadlines",
    ),
    ("replay.lane*.writes", "per-lane write requests issued"),
    ("replay.lanes", "number of replay issue lanes in this run"),
    ("replay.reads", "read requests issued by the replayer"),
    ("replay.requests", "requests issued by the replayer"),
    (
        "replay.sleep_nanos",
        "nanoseconds the replay scheduler slept ahead of deadlines",
    ),
    ("replay.writes", "write requests issued by the replayer"),
    ("reuse.compactions", "reuse-distance tree compactions run"),
    (
        "reuse.dead_entries",
        "tombstoned entries awaiting compaction",
    ),
    (
        "reuse.live_entries",
        "live entries in the reuse-distance tree",
    ),
    (
        "stream.backpressure_nanos",
        "producer nanoseconds blocked on full shard channels",
    ),
    (
        "stream.batches",
        "batches emitted by the streaming producer",
    ),
    (
        "stream.observed",
        "requests observed by the streaming ingest",
    ),
    (
        "stream.shard*.analyze_nanos",
        "per-shard nanoseconds spent analyzing batches",
    ),
    ("stream.shard*.batches", "per-shard batches received"),
    (
        "stream.shard*.inflight",
        "per-shard batches currently queued",
    ),
    (
        "stream.shard*.inflight_hwm",
        "per-shard high-water mark of queued batches",
    ),
    ("stream.shard*.requests", "per-shard requests routed"),
    ("stream.shards", "number of streaming shards in this run"),
    ("sweep.accesses", "block accesses fed to the cache sweep"),
    (
        "sweep.backpressure_nanos",
        "sweep producer nanoseconds blocked on backpressure",
    ),
    ("sweep.batches", "batches fed to the cache sweep"),
    (
        "sweep.expand_nanos",
        "nanoseconds expanding requests into block accesses",
    ),
    (
        "sweep.lane.*.accesses",
        "per-lane accesses simulated, keyed by lane label",
    ),
    (
        "sweep.lane.*.nanos",
        "per-lane simulation nanoseconds, keyed by lane label",
    ),
    ("sweep.lanes", "number of policy lanes in the sweep"),
    (
        "sweep.sampled_accesses",
        "accesses surviving spatial sampling",
    ),
    ("sweep.sampled_ppm", "parts-per-million of accesses sampled"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for pair in METRIC_NAMES.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "METRIC_NAMES out of order or duplicated: {} then {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn every_entry_documented() {
        for (name, doc) in METRIC_NAMES {
            assert!(!doc.is_empty(), "{name} has no doc");
            assert!(!name.is_empty());
        }
    }
}
