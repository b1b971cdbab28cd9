//! Integration: the analyzer's reuse-distance-derived LRU miss ratios
//! (Finding 15) must agree *exactly* with an explicit LRU simulation —
//! two independent implementations of the same quantity.

use cbs_analysis::{analyze_trace, AnalysisConfig};
use cbs_cache::{CacheSim, Lru};
use cbs_core::prelude::*;

fn corpus() -> Trace {
    let config = CorpusConfig::new(8, 1, 21).with_intensity_scale(0.003);
    cbs_synth::presets::alicloud_like(&config).generate()
}

#[test]
fn mrc_predictions_match_explicit_lru_simulation() {
    let trace = corpus();
    let config = AnalysisConfig::default();
    let metrics = analyze_trace(&trace, &config, 0).expect("valid config");

    let mut volumes_checked = 0;
    for m in &metrics {
        for fraction in [0.01, 0.10, 0.5] {
            let capacity = m.cache_blocks_for_fraction(fraction);
            // explicit simulation of the same unified cache
            let mut sim = CacheSim::new(Lru::new(capacity), config.block_size);
            sim.run(trace.volume(m.id).unwrap().requests());
            let stats = sim.stats();

            if let Some(predicted) = m.read_miss_ratio(fraction) {
                let simulated = stats.read_miss_ratio().unwrap();
                assert!(
                    (predicted - simulated).abs() < 1e-12,
                    "{} reads at {fraction}: mrc {predicted} vs sim {simulated}",
                    m.id
                );
            }
            if let Some(predicted) = m.write_miss_ratio(fraction) {
                let simulated = stats.write_miss_ratio().unwrap();
                assert!(
                    (predicted - simulated).abs() < 1e-12,
                    "{} writes at {fraction}: mrc {predicted} vs sim {simulated}",
                    m.id
                );
            }
        }
        volumes_checked += 1;
    }
    assert!(volumes_checked >= 6, "corpus produced enough volumes");
}

#[test]
fn alternative_policies_bound_lru_sensibly() {
    // On hot-set-heavy AliCloud-like volumes, ARC should be at least
    // competitive with FIFO, and all policies must produce valid
    // ratios. (Not a theorem for arbitrary traces — this corpus is
    // fixed and seeded.)
    let trace = corpus();
    let config = AnalysisConfig::default();
    let metrics = analyze_trace(&trace, &config, 0).expect("valid config");
    let m = metrics
        .iter()
        .max_by_key(|m| m.requests())
        .expect("non-empty corpus");
    let capacity = m.cache_blocks_for_fraction(0.05).max(4);
    let requests = trace.volume(m.id).unwrap().requests();

    let run = |policy: &mut dyn FnMut() -> f64| policy();
    let mut simulate_lru = || {
        let mut sim = CacheSim::new(cbs_cache::Lru::new(capacity), config.block_size);
        sim.run(requests);
        sim.stats().overall_miss_ratio().unwrap()
    };
    let mut simulate_fifo = || {
        let mut sim = CacheSim::new(cbs_cache::Fifo::new(capacity), config.block_size);
        sim.run(requests);
        sim.stats().overall_miss_ratio().unwrap()
    };
    let mut simulate_arc = || {
        let mut sim = CacheSim::new(cbs_cache::Arc::new(capacity), config.block_size);
        sim.run(requests);
        sim.stats().overall_miss_ratio().unwrap()
    };
    let mut simulate_clock = || {
        let mut sim = CacheSim::new(cbs_cache::Clock::new(capacity), config.block_size);
        sim.run(requests);
        sim.stats().overall_miss_ratio().unwrap()
    };
    let lru = run(&mut simulate_lru);
    let fifo = run(&mut simulate_fifo);
    let arc = run(&mut simulate_arc);
    let clock = run(&mut simulate_clock);
    for (name, ratio) in [("lru", lru), ("fifo", fifo), ("arc", arc), ("clock", clock)] {
        assert!((0.0..=1.0).contains(&ratio), "{name} ratio {ratio}");
    }
    // CLOCK approximates LRU; they should be close on this workload
    assert!((clock - lru).abs() < 0.15, "clock {clock} vs lru {lru}");
    // ARC adapts; it should not be drastically worse than LRU here
    assert!(arc <= lru + 0.1, "arc {arc} vs lru {lru}");
}

#[test]
fn shards_approximates_exact_mrc_on_real_volume() {
    let trace = corpus();
    let config = AnalysisConfig::default();
    let view = trace.volumes().max_by_key(|v| v.len()).unwrap();

    let mut exact = cbs_cache::ReuseDistances::new();
    let mut sampled = cbs_cache::ShardsSampler::new(0.2);
    for req in view.requests() {
        for block in config.block_size.span_of(req) {
            exact.access(block);
            sampled.access(block);
        }
    }
    let exact_mrc = exact.to_mrc();
    let approx_mrc = sampled.to_mrc();
    let wss = exact.cold_misses() as usize;
    // compare at a few cache sizes: SHARDS should be within a few
    // points of the exact curve on a working set this large
    for fraction in [0.05, 0.1, 0.5] {
        let c = ((wss as f64 * fraction) as usize).max(1);
        let e = exact_mrc.miss_ratio_at(c);
        let a = approx_mrc.miss_ratio_at(c);
        assert!(
            (e - a).abs() < 0.12,
            "at {c} blocks: exact {e} vs shards {a}"
        );
    }
}
