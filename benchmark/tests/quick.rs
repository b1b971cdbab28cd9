//! Drives the built harness the way `run.sh` and the PR driver do, at
//! `--quick` sizes: every workload goes through set-up, verify, a timed
//! pass and a traced pass.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "ali_stream",
    "msrc_stream",
    "csv_convert",
    "sweep_exact",
    "sweep_sampled",
    "replay_null",
];

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cbs-benchmark"))
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn quick_suite_measures_all_six_workloads_and_compares_with_itself() {
    let out = out_dir("quick-suite");
    let run = harness()
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("spawn harness");
    let table = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "suite failed:\n{table}");
    assert!(!table.contains("FAULT"), "suite reported a fault:\n{table}");

    let results = out.join("results.json");
    let text = std::fs::read_to_string(&results).expect("results.json written");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"{workload}\": {{")),
            "{workload} missing"
        );
        assert!(table.contains(&format!("{workload:<13} requests_per_s")));
        assert!(table.contains(&format!("{workload:<13} unattributed_frac")));
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("trace file written");
        assert!(trace.contains("\"spans\": [") && trace.contains("\"self_ns\""));
    }
    assert!(text.contains("\"nproc\"") && text.contains("\"seed\": 7"));
    assert!(text.matches("\"correct\": true").count() == WORKLOADS.len());
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("scratch-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch corpora left behind: {leftovers:?}"
    );

    // A file compared with itself can only be `ok` or, at two samples a
    // side, `unresolved`: exit 0 or 1, never the usage/IO error 2.
    let compare = harness()
        .arg("--compare")
        .arg(&results)
        .arg(&results)
        .output()
        .expect("spawn compare");
    let verdicts = String::from_utf8_lossy(&compare.stdout);
    assert!(matches!(compare.status.code(), Some(0 | 1)), "{verdicts}");
    assert!(
        !verdicts.contains("worse") && !verdicts.contains("DIFFERS"),
        "{verdicts}"
    );
    assert_eq!(
        verdicts.matches(" 1.0000 ").count(),
        WORKLOADS.len() * 4,
        "{verdicts}"
    );
}

/// The PR driver's call: the last stdout line is one JSON object with
/// `correct`, `attempted`, `failed` and every metric of the asked kind.
#[test]
fn one_workload_prints_the_contract_line() {
    for (trace, expected_metrics, sentinel) in [
        ("0", 4, "\"setup_s\": {\"value\": "),
        ("1", 48, "\"trace.csv_records\": {\"value\": "),
    ] {
        let run = harness()
            .args(["--workload", "csv_convert", "--seed", "3", "--seconds", "0"])
            .args(["--quick", "--trace", trace, "--out"])
            .arg(out_dir(&format!("quick-one-{trace}")))
            .output()
            .expect("spawn harness");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with(
            "{\"correct\": true, \"attempted\": 100000, \"failed\": 0, \"metrics\": {"
        ));
        assert_eq!(
            last.matches("\"unit\": ").count(),
            expected_metrics,
            "{last}"
        );
        assert!(last.contains(sentinel), "{last}");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [&["--workload", "nope"][..], &["--bogus", "1"], &["--seed"]] {
        let run = harness().args(args).output().expect("spawn harness");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty());
    }
}
