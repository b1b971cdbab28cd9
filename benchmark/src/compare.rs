//! `--compare a.json b.json`: the A/A acceptance check and the regression
//! check of later PRs. For every workload × end-to-end metric it prints
//! both reported values, the ratio with its base, the bound, and a verdict.

use crate::json::{self, Json};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The samples of either side (five or more) spread wider than the
    /// bound around its value, so a difference of the size of the bound
    /// cannot be told from noise.
    Unresolved,
}

/// One side of a comparison: the value `results.json` reports for a
/// metric and the per-pass samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    /// The value is the best sample, not the median.
    pub best: bool,
    pub samples: Summary,
}

impl Side {
    /// How far the samples that back the value lie from it, as a share of
    /// it: for a median the interquartile range, for a best sample the
    /// distance to the nearer quartile — a best that a quarter of the
    /// samples come close to is no fluke.
    fn spread(&self) -> f64 {
        let s = self.samples;
        if !self.best {
            s.spread()
        } else if self.value == s.max {
            (s.max - s.q3) / s.max
        } else {
            (s.q1 - s.min) / s.min
        }
    }
}

/// Judges `b` (the change) against `a` (the base).
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    // How much worse b's value is, as a share of a's.
    let worsening = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    let every_run_better = if higher_is_better {
        b.samples.min > a.samples.max
    } else {
        b.samples.max < a.samples.min
    };
    // Quartiles of fewer than five samples are (or lie beyond) the extremes,
    // not a spread: a `--quick` suite, two passes a side, is judged on its
    // values alone.
    let noisy = |side: Side| side.samples.n >= 5 && side.spread() > bound;
    if every_run_better {
        Verdict::Ok
    } else if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One side, as `results.json` records it.
fn side(metric: &Json) -> Option<Side> {
    let field = |key: &str| metric.get(key).and_then(Json::as_f64);
    Some(Side {
        value: field("value")?,
        best: metric.get("reported")?.as_str()? == "best",
        samples: Summary {
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
            min: field("min")?,
            max: field("max")?,
            n: field("n")? as usize,
        },
    })
}

/// Prints the comparison; `Ok(true)` when every pairing is `ok`, every
/// `failed_frac` is 0 and the digests agree.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json, path: &str| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("{path}: no workloads"))
    };
    let (workloads_a, workloads_b) = (workloads(&a, path_a)?, workloads(&b, path_b)?);
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>8}  {:>5}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut all_ok = true;
    for (name, wa) in &workloads_a {
        let Some((_, wb)) = workloads_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<13} missing from {path_b}");
            all_ok = false;
            continue;
        };
        let metrics = wa
            .get("end_to_end")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path_a}: {name} has no end_to_end"))?;
        for (metric, ma) in metrics {
            let mb = wb.get("end_to_end").and_then(|m| m.get(metric));
            let (Some(sa), Some(sb)) = (side(ma), mb.and_then(side)) else {
                return Err(format!("{name}.{metric}: missing statistics"));
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            let verdict = verdict(sa, sb, higher, bound);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{name:<13} {metric:<15} {:>14.4} {:>14.4} {:>8.4}  {:>4.0}%  {}",
                sa.value,
                sb.value,
                sb.value / sa.value,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (doc, path) in [(wa, path_a), (wb, path_b)] {
            let failed = doc.get("failed_frac").and_then(Json::as_f64);
            if failed != Some(0.0) || doc.get("correct") != Some(&Json::Bool(true)) {
                println!("{name:<13} {path}: failed_frac {failed:?} or not correct");
                all_ok = false;
            }
        }
        let same_digest = wa.get("digest") == wb.get("digest");
        println!(
            "{name:<13} digest {}",
            if same_digest { "identical" } else { "DIFFERS" }
        );
        all_ok &= same_digest;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, half_iqr: f64) -> Side {
        Side {
            value: median,
            best: false,
            samples: Summary {
                median,
                q1: median - half_iqr,
                q3: median + half_iqr,
                min: median - 2.0 * half_iqr,
                max: median + 2.0 * half_iqr,
                n: 5,
            },
        }
    }

    #[test]
    fn direction_and_bound_decide_ok_or_worse() {
        // Throughput down 5 %: inside a 10 % bound. Down 15 %: worse.
        assert_eq!(
            verdict(side(100.0, 1.0), side(95.0, 1.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(85.0, 1.0), true, 0.10),
            Verdict::Worse
        );
        // Cost up 15 % is worse; cost down 15 % is not.
        assert_eq!(
            verdict(side(100.0, 1.0), side(115.0, 1.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(85.0, 1.0), false, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        // IQR 24 % of the median against a 10 % bound.
        assert_eq!(
            verdict(side(100.0, 12.0), side(101.0, 1.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(side(100.0, 1.0), side(90.0, 12.0), false, 0.10),
            Verdict::Unresolved
        );
        // Three samples a side carry no usable spread.
        let few = |median| {
            let mut side = side(median, 12.0);
            side.samples.n = 3;
            side
        };
        assert_eq!(verdict(few(100.0), few(101.0), true, 0.10), Verdict::Ok);
        assert_eq!(verdict(few(100.0), few(80.0), true, 0.10), Verdict::Worse);
        // b's slowest run (176) still beats a's fastest (124).
        assert_eq!(
            verdict(side(100.0, 12.0), side(200.0, 12.0), true, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_best_sample_is_judged_by_its_distance_to_the_nearer_quartile() {
        // Cost: best 80, first quartile 84 (5 % away), the rest far slower.
        let best = |value: f64, q1: f64| Side {
            value,
            best: true,
            samples: Summary {
                median: 120.0,
                q1,
                q3: 160.0,
                min: value,
                max: 200.0,
                n: 20,
            },
        };
        assert_eq!(
            verdict(best(80.0, 84.0), best(82.0, 86.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(best(80.0, 84.0), best(95.0, 99.0), false, 0.10),
            Verdict::Worse
        );
        // A best that nothing comes near (q1 25 % away) decides nothing.
        assert_eq!(
            verdict(best(80.0, 100.0), best(82.0, 86.0), false, 0.10),
            Verdict::Unresolved
        );
    }
}
