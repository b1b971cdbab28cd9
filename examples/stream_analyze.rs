//! Streaming analysis: characterize a synthetic corpus without ever
//! materializing the trace in memory.
//!
//! The batch path (`Workbench::analyze`) first builds a `Trace` — a
//! sorted `Vec<IoRequest>` — and then characterizes it. At 24 bytes per
//! request that caps the corpus size at available RAM. The streaming
//! path pulls requests one at a time from the lazy corpus generator and
//! pushes them into a [`StreamingWorkbench`], whose memory footprint is
//! O(volumes), independent of request count.
//!
//! ```sh
//! cargo run --release --example stream_analyze
//! ```

#![allow(clippy::disallowed_methods, reason = "reports its own wall time")]

use std::time::Instant;

use cbs_analysis::findings::basic::TraceTotals;
use cbs_core::prelude::*;

fn main() {
    // A corpus big enough to be interesting but quick in --release.
    // Crank `days`, `volumes`, or the intensity scale to taste: the
    // streaming path's memory use does not grow with request count.
    let config = CorpusConfig::new(60, 3, 7).with_intensity_scale(0.01);
    let generator = cbs_synth::presets::alicloud_like(&config);

    let start = Instant::now();
    let mut session = StreamingWorkbench::new().start();
    for req in generator.stream() {
        session.observe(req);
    }
    let observed = session.observed();
    let metrics = session.finish();
    let elapsed = start.elapsed();

    println!(
        "streamed {observed} requests across {} volumes in {:.2?} \
         ({:.0} requests/s)",
        metrics.len(),
        elapsed,
        observed as f64 / elapsed.as_secs_f64()
    );

    // The streamed metrics are byte-identical to what the batch
    // `Workbench` would have produced, so every corpus-level finding
    // constructor works on them unchanged.
    let block = u64::from(AnalysisConfig::default().block_size.bytes());
    let totals = TraceTotals::from_metrics(&metrics, block);
    println!("\n--- corpus totals (Table I style) ---");
    println!("reads: {}, writes: {}", totals.reads, totals.writes);
    if let Some(ratio) = totals.write_read_ratio() {
        println!("write-to-read ratio: {ratio:.2}");
    }

    let mut by_traffic: Vec<&VolumeMetrics> = metrics.iter().collect();
    by_traffic.sort_by_key(|m| std::cmp::Reverse(m.total_bytes()));
    println!("\n--- top volumes by traffic ---");
    for m in by_traffic.iter().take(5) {
        println!(
            "{}: {:.2} GiB, {:.1}% writes, randomness {:.1}%",
            m.id,
            m.total_bytes() as f64 / (1u64 << 30) as f64,
            m.writes as f64 / (m.reads + m.writes).max(1) as f64 * 100.0,
            m.randomness_ratio() * 100.0
        );
    }
}
