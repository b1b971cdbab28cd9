//! Working-set growth: watch each volume's WSS evolve hour by hour and
//! classify it as *bounded* (a circular log — cacheable with a fixed
//! budget) or *unbounded* (one-shot writes — caching only helps the
//! short-term reuse).
//!
//! This extends the paper's global WSS numbers (Table I) with the time
//! dimension an operator needs for cache *re*-sizing.
//!
//! ```sh
//! cargo run --release --example wss_growth
//! ```

#![allow(clippy::expect_used, reason = "an example stops at the first failure")]

use cbs_analysis::windowed::WindowedAnalysis;
use cbs_core::prelude::*;

fn main() {
    let config = CorpusConfig::new(12, 2, 23).with_intensity_scale(0.004);
    let trace = cbs_synth::presets::alicloud_like(&config).generate();
    let analysis_config = cbs_analysis::AnalysisConfig::default();
    let epoch = trace.start().expect("non-empty corpus");
    let window = TimeDelta::from_hours(1);

    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "volume", "windows", "final WSS", "plateau@", "verdict"
    );
    for view in trace.volumes() {
        let w = WindowedAnalysis::analyze(view, epoch, window, &analysis_config);
        let growth = w.wss_growth();
        let final_wss = growth.last().copied().unwrap_or(0);
        let plateau = w.plateau_window(0.25);
        let verdict = match plateau {
            Some(_) => "bounded",
            None => "growing",
        };
        println!(
            "{:<8} {:>10} {:>9} blk {:>12} {:>10}",
            view.id().to_string(),
            w.windows().len(),
            final_wss,
            plateau.map_or("-".to_owned(), |p| format!("hour {p}")),
            verdict
        );
    }

    // corpus-level: how much of the final WSS existed after the first
    // quarter of the trace? (informs how quickly caches warm up)
    let mut early = 0u64;
    let mut total = 0u64;
    for view in trace.volumes() {
        let w = WindowedAnalysis::analyze(view, epoch, window, &analysis_config);
        let growth = w.wss_growth();
        if growth.is_empty() {
            continue;
        }
        early += growth[growth.len() / 4];
        total += *growth.last().expect("non-empty");
    }
    if total > 0 {
        println!(
            "\n{:.0}% of the corpus working set is already touched a quarter \
             of the way into the trace",
            early as f64 / total as f64 * 100.0
        );
    }
}
