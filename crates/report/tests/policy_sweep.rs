//! The Fig. 18 extension sweeps a regenerated volume: on the tiny
//! AliCloud-like corpus, `Corpus::policy_sweep` must equal the same
//! grid run over the busiest volume's view of a freshly generated trace.

use cbs_core::{LaneReport, SweepGrid, Workbench, POLICY_NAMES};
use cbs_report::experiments::{Corpus, ReproConfig};
use cbs_synth::presets;

#[test]
fn policy_sweep_equals_a_sweep_over_the_whole_trace() {
    let config = ReproConfig::tiny(7).alicloud;
    let corpus = Corpus::new(presets::alicloud_like(&config));
    let sweep = corpus.policy_sweep().expect("the tiny corpus has volumes");

    let trace = presets::alicloud_like(&config).generate();
    // Last of the busiest on a tie, like `max_by_key` over the metrics.
    let busiest = trace.volumes().max_by_key(|v| v.len()).expect("volumes");
    let (id, requests) = (busiest.id(), busiest.requests().to_vec());
    let analysis = Workbench::new(trace).analyze();
    let metrics = analysis
        .metrics()
        .iter()
        .find(|m| m.id == id)
        .expect("busiest volume analyzed");
    let small = metrics.cache_blocks_for_fraction(0.01).max(8);
    let large = metrics.cache_blocks_for_fraction(0.10).max(8);
    assert_eq!((sweep.small, sweep.large), (small, large));

    let report = SweepGrid::new()
        .grid(POLICY_NAMES, &[small, large])
        .expect("built-in policies")
        .with_block_size(analysis.config().block_size)
        .sweep(requests.iter().copied());
    assert_eq!(sweep.report.requests(), requests.len() as u64);
    assert_eq!(sweep.report.lanes().len(), POLICY_NAMES.len() * 2);
    // Everything but the lanes' busy time, which is a clock reading.
    let stats = |lanes: &[LaneReport]| -> Vec<_> {
        lanes
            .iter()
            .map(|l| (l.policy.clone(), l.capacity, l.sampled, l.stats, l.accesses))
            .collect()
    };
    assert_eq!(stats(sweep.report.lanes()), stats(report.lanes()));
}
