//! Fixture: `atomic-ordering-audit` — one bare `Ordering::*` site
//! (must fire) and one covered by an `// ORDERING:` justification.

use std::sync::atomic::{AtomicU64, Ordering};

fn bare(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

fn justified(cell: &AtomicU64) {
    // ORDERING: a reset nothing else synchronizes through.
    cell.store(0, Ordering::Relaxed);
}
