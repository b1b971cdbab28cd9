//! The paper run analyzes each corpus volume by volume from its
//! generator: on all four tiny corpus shapes and at every worker count,
//! `Analysis::from_generator` must equal the analysis of the whole
//! generated trace, Table II included.

use cbs_core::{Analysis, Workbench};
use cbs_report::experiments::ReproConfig;
use cbs_synth::presets;

#[test]
fn generator_fed_analysis_equals_the_whole_trace() {
    let config = ReproConfig::tiny(7);
    for (shape, generator) in [
        ("alicloud", presets::alicloud_like(&config.alicloud)),
        ("msrc", presets::msrc_like(&config.msrc)),
        (
            "alicloud_burst",
            presets::alicloud_like(&config.alicloud_burst),
        ),
        ("msrc_burst", presets::msrc_like(&config.msrc_burst)),
    ] {
        let whole = Workbench::new(generator.generate()).analyze_with_threads(1);
        assert!(!whole.metrics().is_empty(), "{shape}");
        assert!(whole.overall_intensity().is_some(), "{shape}");
        for threads in 0..=3 {
            let folded = Analysis::from_generator(&generator, threads);
            assert_eq!(
                folded.metrics(),
                whole.metrics(),
                "{shape}, threads={threads}"
            );
            assert_eq!(
                folded.overall_intensity(),
                whole.overall_intensity(),
                "{shape}, threads={threads}"
            );
        }
    }
}
