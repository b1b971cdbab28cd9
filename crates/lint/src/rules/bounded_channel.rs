//! `bounded-channel`: streaming/parallel paths must use bounded
//! channels.
//!
//! An unbounded `std::sync::mpsc::channel()` between a fast producer
//! and a slow shard worker buffers the whole trace (the exact failure
//! the one-pass architecture exists to avoid); `sync_channel(depth)`
//! provides backpressure. Scoped to `crates/core/src`, the cache-sweep
//! worker fan-out under `crates/cache/src`, the parallel decode paths
//! under `crates/trace/src/codec`, and the worker-set primitive those
//! fan-outs construct their channels through
//! (`crates/trace/src/workers.rs`).

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;

/// See module docs.
#[derive(Debug)]
pub struct BoundedChannel;

impl Rule for BoundedChannel {
    fn name(&self) -> &'static str {
        "bounded-channel"
    }

    fn description(&self) -> &'static str {
        "forbid unbounded mpsc::channel() in streaming/parallel paths; use sync_channel"
    }

    fn check_file(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        let in_scope = file.path.contains("crates/core/src")
            || file.path.contains("crates/cache/src")
            || file.path.contains("crates/trace/src/codec")
            || file.path.contains("crates/trace/src/workers.rs");
        if !in_scope || !file.is_library_code() {
            return;
        }
        let toks: Vec<_> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        for w in toks.windows(3) {
            let (name, next, next2) = (&w[0], &w[1], &w[2]);
            // A call: `channel(…)` or turbofish `channel::<T>(…)`.
            let is_call = next.text == "(" || (next.text == "::" && next2.text == "<");
            if name.text == "channel" && is_call && !file.in_test_code(name.line) {
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    name.line,
                    name.col,
                    self.name(),
                    "unbounded `channel()` on a streaming/parallel path; use \
                     `sync_channel(depth)` for backpressure",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text(path, src);
        let mut d = Vec::new();
        BoundedChannel.check_file(&f, &mut d);
        d
    }

    #[test]
    fn fires_on_unbounded_channel_in_core() {
        let d = run(
            "crates/core/src/streaming.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }",
        );
        assert!(!d.is_empty());
    }

    #[test]
    fn sync_channel_is_fine() {
        assert!(run(
            "crates/core/src/streaming.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(4); }",
        )
        .is_empty());
    }

    #[test]
    fn fires_in_cache_sweep_paths() {
        let d = run(
            "crates/cache/src/sweep.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }",
        );
        assert!(!d.is_empty());
    }

    #[test]
    fn fires_in_the_worker_set_primitive() {
        let d = run(
            "crates/trace/src/workers.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }",
        );
        assert!(!d.is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        assert!(run(
            "crates/stats/src/summary.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }",
        )
        .is_empty());
    }
}
