//! Offline, API-compatible subset of `criterion`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of the `criterion` API its benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup`] knobs
//! (`sample_size`, `warm_up_time`, `measurement_time`, `throughput`),
//! [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement model: each `bench_function` is warmed up, an iteration
//! count is calibrated so one sample lasts roughly
//! `measurement_time / sample_size`, and the mean/min/max over the
//! samples is printed as `ns/iter` plus derived throughput. There are
//! no statistical comparisons against saved baselines — this harness
//! exists to produce honest wall-clock numbers offline, not
//! publication-grade confidence intervals.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods, reason = "a wall-clock benchmark harness")]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement abstraction (wall clock only).
pub mod measurement {
    /// Marker trait mirroring criterion's measurement abstraction.
    pub trait Measurement {}

    /// Wall-clock time measurement.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct WallTime;

    impl Measurement for WallTime {}
}

use measurement::WallTime;

/// Units for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// The benchmark driver: holds global configuration and the CLI filter.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` forwards everything after `--`;
        // cargo itself adds `--bench`. Treat the first non-flag token
        // as a substring filter, like criterion does.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            filter,
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_, WallTime> {
        BenchmarkGroup {
            name: name.into(),
            filter: self.filter.clone(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            throughput: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Benches a function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = BenchmarkGroup::<WallTime> {
            name: String::new(),
            filter: self.filter.clone(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            throughput: None,
            _marker: std::marker::PhantomData,
        };
        group.bench_function(id, f);
        self
    }

    /// Criterion-compat no-op (CLI args are read in `Default`).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Criterion-compat final hook; prints nothing extra.
    pub fn final_summary(&self) {}
}

/// A group of benchmarks sharing throughput and timing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a, M: measurement::Measurement = WallTime> {
    name: String,
    filter: Option<String>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    _marker: std::marker::PhantomData<&'a M>,
}

impl<M: measurement::Measurement> BenchmarkGroup<'_, M> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the total sampling budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Declares per-iteration throughput for derived rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = if self.name.is_empty() {
            id.to_string()
        } else {
            format!("{}/{id}", self.name)
        };
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }

        // Warm-up: run until the warm-up budget is spent, tracking the
        // per-iteration cost to calibrate the sample iteration count.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        while warm_start.elapsed() < self.warm_up_time {
            bencher.iters = 1;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters.max(1));
        let per_sample_budget = self.measurement_time.as_nanos() / self.sample_size.max(1) as u128;
        let iters_per_sample =
            (per_sample_budget / per_iter.max(1)).clamp(1, u128::from(u32::MAX)) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            samples_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let min = samples_ns.first().copied().unwrap_or(0.0);
        let max = samples_ns.last().copied().unwrap_or(0.0);
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len().max(1) as f64;

        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  thrpt: {} elem/s", format_rate(n as f64 / (mean / 1e9)))
            }
            Some(Throughput::Bytes(n)) => {
                format!("  thrpt: {}B/s", format_rate(n as f64 / (mean / 1e9)))
            }
            None => String::new(),
        };
        println!(
            "{full:<52} time: [{} {} {}]{rate}",
            format_ns(min),
            format_ns(mean),
            format_ns(max),
        );
        self
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// Runs the measured closure and records elapsed wall-clock time.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, executing it as many times as the harness asks.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn format_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.3} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.3} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.3} K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} ")
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_machinery_runs() {
        let mut c = Criterion {
            filter: None,
            sample_size: 3,
            warm_up_time: Duration::from_millis(5),
            measurement_time: Duration::from_millis(20),
        };
        let mut group = c.benchmark_group("smoke");
        group.sample_size(2);
        group.throughput(Throughput::Elements(100));
        let mut runs = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("zzz-never".into()),
            sample_size: 2,
            warm_up_time: Duration::from_millis(1),
            measurement_time: Duration::from_millis(2),
        };
        let mut ran = false;
        c.bench_function("other", |b| b.iter(|| ran = true));
        assert!(!ran);
    }
}
