//! Property tests for the MERGEABLE statistics algebra.
//!
//! The findings fold every volume's `LogHistogram`s into one corpus-wide
//! histogram with `merge` (request sizes, adjacency times, update
//! intervals), so that merge must satisfy the monoid laws —
//! associativity, commutativity, identity — and equal recording the
//! concatenated samples. This is the associativity evidence `cbs-lint`'s
//! `mergeable-audit` rule (CBS-L13) requires.

use proptest::prelude::*;

use cbs_stats::LogHistogram;

fn arb_u64_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=u64::MAX, 0..40)
}

fn histogram(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new(6);
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// `LogHistogram::merge` is associative, commutes, has the empty
    /// histogram as identity, and equals recording the concatenation.
    #[test]
    fn log_histogram_merge_is_associative(
        a in arb_u64_samples(),
        b in arb_u64_samples(),
        c in arb_u64_samples(),
    ) {
        let mut left = histogram(&a);
        left.merge(&histogram(&b));
        left.merge(&histogram(&c));

        let mut right_tail = histogram(&b);
        right_tail.merge(&histogram(&c));
        let mut right = histogram(&a);
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);

        let mut flipped = histogram(&b);
        flipped.merge(&histogram(&a));
        let mut ab = histogram(&a);
        ab.merge(&histogram(&b));
        prop_assert_eq!(&ab, &flipped);

        let mut with_identity = histogram(&a);
        with_identity.merge(&LogHistogram::new(6));
        prop_assert_eq!(&with_identity, &histogram(&a));

        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(&ab, &histogram(&concat));
    }
}
