//! Load balancing: place volumes on storage nodes using the intensity
//! metrics of Findings 1-3.
//!
//! The paper's load-balancing implication: placement must consider
//! *peak* intensity, not just average — bursty volumes that look cheap
//! on average can overload a node at their peaks. This example
//! compares three placement strategies on a synthetic corpus:
//!
//! * round-robin (id order, intensity-blind);
//! * greedy by average intensity;
//! * greedy by peak intensity.
//!
//! and reports the resulting per-node peak-load imbalance.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

#![allow(clippy::expect_used, reason = "an example stops at the first failure")]

use cbs_analysis::VolumeMetrics;
use cbs_core::prelude::*;

const NODES: usize = 4;

fn main() {
    let config = CorpusConfig::new(32, 2, 99).with_intensity_scale(0.004);
    let trace = cbs_synth::presets::alicloud_like(&config).generate();
    let analysis = Workbench::new(trace).analyze();
    let metrics = analysis.metrics();
    let analysis_config = analysis.config();

    let peak = |m: &VolumeMetrics| m.peak_intensity(analysis_config);
    let avg = |m: &VolumeMetrics| m.avg_intensity();

    // Strategy 1: round-robin by volume id.
    let round_robin: Vec<usize> = (0..metrics.len()).map(|i| i % NODES).collect();

    // Strategy 2/3: greedy "longest processing time" packing by a key:
    // sort descending, always place on the least-loaded node.
    let greedy = |key: &dyn Fn(&VolumeMetrics) -> f64| -> Vec<usize> {
        let mut order: Vec<usize> = (0..metrics.len()).collect();
        order.sort_by(|&a, &b| {
            key(&metrics[b])
                .partial_cmp(&key(&metrics[a]))
                .expect("finite intensities")
        });
        let mut load = [0.0f64; NODES];
        let mut assignment = vec![0usize; metrics.len()];
        for idx in order {
            let node = (0..NODES)
                .min_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("finite"))
                .expect("NODES > 0");
            assignment[idx] = node;
            load[node] += key(&metrics[idx]);
        }
        assignment
    };
    let by_avg = greedy(&avg);
    let by_peak = greedy(&peak);

    // Evaluate: peak load per node (sum of member peaks — the
    // worst-case coincident burst) and its imbalance (max/mean).
    let evaluate = |assignment: &[usize]| -> (f64, f64) {
        let mut node_peak = [0.0f64; NODES];
        for (vol, &node) in assignment.iter().enumerate() {
            node_peak[node] += peak(&metrics[vol]);
        }
        let max = node_peak.iter().copied().fold(0.0, f64::max);
        let mean = node_peak.iter().sum::<f64>() / NODES as f64;
        (max, max / mean.max(1e-12))
    };

    println!("placing {} volumes on {NODES} nodes\n", metrics.len());
    println!(
        "{:<22} {:>16} {:>12}",
        "strategy", "max node peak", "imbalance"
    );
    for (name, assignment) in [
        ("round-robin", &round_robin),
        ("greedy by average", &by_avg),
        ("greedy by peak", &by_peak),
    ] {
        let (max, imbalance) = evaluate(assignment);
        println!("{name:<22} {max:>12.2} r/s {imbalance:>11.2}x");
    }

    let (rr, _) = evaluate(&round_robin);
    let (gp, _) = evaluate(&by_peak);
    println!(
        "\npeak-aware placement cuts the worst node's peak load by {:.0}% \
         vs round-robin\n(Findings 2-3: per-volume burstiness varies over \
         three orders of magnitude,\nso intensity-blind placement \
         concentrates coincident peaks).",
        (1.0 - gp / rr) * 100.0
    );
}
