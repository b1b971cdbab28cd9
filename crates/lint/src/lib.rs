//! `cbs-lint` — the workspace checks rustc and clippy cannot make.
//!
//! The paper's pipeline is a single streaming pass over ~20 billion
//! requests; one stray `unwrap()` deep in a shard worker kills hours of
//! analysis with no diagnostic. The generic half of that policy (no
//! unwrap or panic in libraries, unsafe only with a safety comment,
//! documented public items, bounded channels, one clock) is the root
//! `Cargo.toml`'s `[workspace.lints]` table plus `clippy.toml`, checked
//! by `cargo clippy -- -D warnings`. This crate keeps the four domain
//! rules clippy cannot express (see [`rules`]): paper-finding
//! traceability, the metric-name registry, the mergeable-type audit and
//! the atomic-ordering audit. A hand-rolled [`lexer`] (so rules never
//! fire inside strings or comments) and item [`parser`] feed a
//! [`rules::Rule`] engine producing structured [`diag::Diagnostic`]s
//! with machine-readable `--json` output. `--check-bench` validates the
//! committed `BENCH_*.json` files ([`bench_schema`]).
//!
//! ```text
//! cargo run -p cbs-lint -- crates            # human output
//! cargo run -p cbs-lint -- --json crates     # CI gate input
//! cargo run -p cbs-lint -- --list-rules
//! ```

// No `#![forbid(unsafe_code)]` here: the canary must be able to lift
// the workspace's `unsafe_code = "deny"` to prove that it fires.

pub mod bench_schema;
pub mod diag;
pub mod engine;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;

#[cfg(all(clippy, not(test)))]
pub mod canary;

pub use diag::Diagnostic;
pub use engine::{lint_files, lint_paths, LintRun};
pub use index::WorkspaceIndex;
pub use source::SourceFile;
