//! Lint canary: one planted violation per `[workspace.lints]` entry and
//! per `clippy.toml` disallowed method, each under `#[expect]`.
//!
//! Compiled only under clippy, so the library itself is unchanged. If a
//! lint stops firing (a `rust-version` below its MSRV, a rename or a
//! behaviour change in a clippy upgrade), its expectation goes
//! unfulfilled and `cargo clippy -- -D warnings` fails. An `#[expect]`
//! sets its lint's level itself, so it cannot see a table entry go:
//! `tests/domain_rules.rs` pins this file and the table to the same
//! lint list, and `scripts/check.sh` pins every crate to the table.

#[expect(missing_docs, reason = "canary")]
pub fn undocumented() {}

/// Canary.
#[expect(missing_debug_implementations, reason = "canary")]
pub struct NoDebug;

/// Canary.
#[expect(unsafe_code, clippy::undocumented_unsafe_blocks, reason = "canary")]
pub fn unsafe_block(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) }
}

/// Canary.
#[expect(clippy::unnecessary_safety_comment, reason = "canary")]
pub fn safety_comment_on_safe_code(x: u8) -> u8 {
    // SAFETY: nothing here is unsafe.
    let y = x;
    y + 1
}

/// Canary.
#[expect(clippy::unwrap_used, reason = "canary")]
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// Canary.
#[expect(clippy::expect_used, reason = "canary")]
pub fn expect(x: Option<u8>) -> u8 {
    x.expect("canary")
}

/// Canary.
#[expect(clippy::panic, reason = "canary")]
pub fn panics() {
    panic!("canary")
}

/// Canary.
#[expect(clippy::unreachable, reason = "canary")]
pub fn unreachable() {
    unreachable!("canary")
}

/// Canary.
#[expect(clippy::todo, reason = "canary")]
pub fn todo() {
    todo!("canary")
}

/// Canary.
#[expect(clippy::unimplemented, reason = "canary")]
pub fn unimplemented() {
    unimplemented!("canary")
}

/// Canary.
#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn unbounded_channel() -> (std::sync::mpsc::Sender<u8>, std::sync::mpsc::Receiver<u8>) {
    std::sync::mpsc::channel()
}

/// Canary.
#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Canary.
#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn system_time_now() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// Canary.
#[expect(clippy::let_underscore_must_use, reason = "canary")]
pub fn let_underscore(s: &str) {
    let _ = s.parse::<u8>();
}

/// Canary.
#[expect(clippy::unused_result_ok, reason = "canary")]
pub fn result_ok(s: &str) {
    s.parse::<u8>().ok();
}

/// Canary.
#[expect(clippy::allow_attributes, reason = "canary")]
#[allow(dead_code, reason = "canary")]
pub fn allow_attribute() {}

/// Canary.
#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "canary"
)]
#[allow(dead_code)]
pub fn allow_without_reason() {}
