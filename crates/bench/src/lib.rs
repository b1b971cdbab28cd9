//! Shared fixtures for the benchmark suite.
//!
//! The benches measure the *workbench* (generation, analysis, each
//! table/figure builder), so every group works over the same small,
//! seeded corpora built here. See `benches/experiments.rs` (one group
//! per paper table/figure), `benches/micro.rs` (substrate
//! micro-benchmarks), and `benches/ablations.rs` (design-choice
//! ablations from `DESIGN.md` §4).

#![forbid(unsafe_code)]

use cbs_core::{Analysis, Workbench};
use cbs_synth::presets::{self, CorpusConfig};
use cbs_trace::Trace;

/// A bench-sized AliCloud-like corpus (~100-200 K requests).
pub fn alicloud_trace() -> Trace {
    let config = CorpusConfig::new(16, 2, 4242).with_intensity_scale(0.002);
    presets::alicloud_like(&config).generate()
}

/// A bench-sized MSRC-like corpus.
pub fn msrc_trace() -> Trace {
    let config = CorpusConfig::new(12, 2, 4242).with_intensity_scale(0.008);
    presets::msrc_like(&config).generate()
}

/// The analyzed AliCloud-like corpus.
pub fn alicloud_analysis() -> Analysis {
    Workbench::new(alicloud_trace()).analyze()
}

/// The analyzed MSRC-like corpus.
pub fn msrc_analysis() -> Analysis {
    Workbench::new(msrc_trace()).analyze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_non_trivial() {
        let t = alicloud_trace();
        assert!(t.request_count() > 10_000, "{}", t.request_count());
        let a = alicloud_analysis();
        assert!(!a.metrics().is_empty());
        let m = msrc_trace();
        assert!(m.request_count() > 10_000);
    }
}
