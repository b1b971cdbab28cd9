//! CLI for `cbs-lint`:
//! `cbs-lint [--json] [--list-rules] [--ordering-inventory] [paths…]`.
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage, I/O, or
//! internal error. With no paths, lints `crates` under the current
//! directory.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use cbs_lint::diag::{render_human, to_json_array};
use cbs_lint::engine::lint_paths;
use cbs_lint::rules::atomic_ordering::ordering_sites;
use cbs_lint::rules::{all_rules, rule_id};

/// Exit: violations were found (distinct from internal errors).
const EXIT_VIOLATIONS: u8 = 1;
/// Exit: usage, I/O, or internal error.
const EXIT_INTERNAL: u8 = 2;

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut inventory = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--ordering-inventory" => inventory = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("cbs-lint: unknown flag {flag}");
                print_usage();
                return ExitCode::from(EXIT_INTERNAL);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }
    if list_rules {
        for rule in all_rules() {
            println!(
                "{} {:<24} {}",
                rule_id(rule.name()),
                rule.name(),
                rule.description()
            );
        }
        return ExitCode::SUCCESS;
    }
    if roots.is_empty() {
        roots.push(PathBuf::from("crates"));
    }

    let run = match lint_paths(&roots) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("cbs-lint: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };

    if inventory {
        print_ordering_inventory(&run.files);
        return ExitCode::SUCCESS;
    }

    if json {
        println!("{}", to_json_array(&run.diagnostics));
    } else {
        for d in &run.diagnostics {
            print!("{}", render_human(d, run.snippet(d)));
        }
        eprintln!(
            "cbs-lint: {} file(s) scanned, {} diagnostic(s)",
            run.files.len(),
            run.diagnostics.len()
        );
    }
    if !run.diagnostics.is_empty() {
        ExitCode::from(EXIT_VIOLATIONS)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--ordering-inventory`: per-crate report of every atomic
/// `Ordering::*` site (test code included), for audit review.
fn print_ordering_inventory(files: &[cbs_lint::SourceFile]) {
    let mut per_crate: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for file in files {
        for site in ordering_sites(file) {
            per_crate.entry(&file.crate_name).or_default().push(format!(
                "  {}:{}:{}  Ordering::{}",
                file.path, site.line, site.col, site.variant
            ));
        }
    }
    let total: usize = per_crate.values().map(Vec::len).sum();
    println!("atomic ordering inventory: {total} site(s)");
    for (krate, sites) in &per_crate {
        println!("crate {krate} ({}):", sites.len());
        for s in sites {
            println!("{s}");
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cbs-lint [--json] [--list-rules] [--ordering-inventory] [paths…]\n\
         \n\
         Lints .rs files under the given paths (default: crates).\n\
         --json                machine-readable diagnostics array (with stable rule IDs)\n\
         --list-rules          print the rule set (with IDs) and exit\n\
         --ordering-inventory  report every atomic Ordering::* site per crate\n\
         \n\
         exit codes: 0 clean, 1 violations, 2 internal/usage error"
    );
}
