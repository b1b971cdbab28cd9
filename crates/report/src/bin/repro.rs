//! `repro` — regenerates every table and figure of the paper from
//! synthetic corpora and prints paper-vs-measured comparisons.
//!
//! ```text
//! repro [--seed N] [--ali-volumes N] [--ali-days N] [--ali-scale F]
//!       [--msrc-volumes N] [--msrc-days N] [--msrc-scale F]
//!       [--experiment NAME]... [--tiny] [--out DIR]
//! ```
//!
//! Without flags the default run (100 AliCloud-like volumes × 31 days,
//! 36 MSRC-like volumes × 7 days, plus two full-intensity one-hour
//! windows; ~33 M requests total) takes ~40 s on a shared 2-core x86-64
//! host, analyzing each corpus volume by volume on every core.
//! `--experiment` limits output to the named experiments (see
//! `repro --list`); `--out DIR` additionally writes every figure's
//! full data series as TSV files.

#![allow(clippy::disallowed_methods, reason = "reports its own wall time")]

use std::process::ExitCode;

use cbs_report::experiments::{self, ReproConfig};

fn usage() -> String {
    "usage: repro [--seed N] [--ali-volumes N] [--ali-days N] [--ali-scale F]\n             [--msrc-volumes N] [--msrc-days N] [--msrc-scale F]\n             [--experiment NAME]... [--tiny] [--list] [--out DIR]"
        .to_owned()
}

fn main() -> ExitCode {
    let mut config = ReproConfig::default_run(42);
    let mut selected: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);

    fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("invalid value {value:?} for {flag}"))
    }

    while let Some(arg) = args.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--seed" => parse("--seed", args.next()).map(|s: u64| {
                config.alicloud.seed = s;
                config.msrc.seed = s;
            }),
            "--ali-volumes" => {
                parse("--ali-volumes", args.next()).map(|v| config.alicloud.volumes = v)
            }
            "--ali-days" => parse("--ali-days", args.next()).map(|d| config.alicloud.days = d),
            "--ali-scale" => {
                parse("--ali-scale", args.next()).map(|s| config.alicloud.intensity_scale = s)
            }
            "--msrc-volumes" => {
                parse("--msrc-volumes", args.next()).map(|v| config.msrc.volumes = v)
            }
            "--msrc-days" => parse("--msrc-days", args.next()).map(|d| config.msrc.days = d),
            "--msrc-scale" => {
                parse("--msrc-scale", args.next()).map(|s| config.msrc.intensity_scale = s)
            }
            "--experiment" => parse("--experiment", args.next()).map(|e: String| selected.push(e)),
            "--out" => parse("--out", args.next())
                .map(|d: String| out_dir = Some(std::path::PathBuf::from(d))),
            "--tiny" => {
                config = ReproConfig::tiny(config.alicloud.seed);
                Ok(())
            }
            "--list" => {
                for (name, _) in experiments::registry() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?}\n{}", usage())),
        };
        if let Err(e) = result {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    }

    let registry = experiments::registry();
    for name in &selected {
        if !registry.iter().any(|(n, _)| n == name) {
            eprintln!("repro: unknown experiment {name:?}; try --list");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "generating corpora (ali: {} vols x {} d, msrc: {} vols x {} d)...",
        config.alicloud.volumes, config.alicloud.days, config.msrc.volumes, config.msrc.days
    );
    let t0 = std::time::Instant::now();
    let ctx = experiments::build_context(&config);
    eprintln!(
        "generated + analyzed {} + {} requests in {:.1?}",
        ctx.alicloud.analysis.totals().requests(),
        ctx.msrc.analysis.totals().requests(),
        t0.elapsed()
    );

    if selected.is_empty() {
        println!("{}", experiments::run_all(&ctx));
    } else {
        for (name, run) in registry {
            if selected.iter().any(|s| s == name) {
                println!("{}", run(&ctx));
            }
        }
    }

    if let Some(dir) = out_dir {
        match cbs_report::series::export_all(&ctx, &dir) {
            Ok(files) => eprintln!("wrote {} series files under {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("repro: failed to export series: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
