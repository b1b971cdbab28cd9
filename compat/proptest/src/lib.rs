//! Offline, API-compatible subset of `proptest`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of the `proptest` API its test suites use:
//! [`proptest!`], [`prop_compose!`], [`prop_oneof!`], the
//! `prop_assert*` family, numeric-range strategies,
//! [`collection::vec`], [`Just`], and [`ProptestConfig`].
//!
//! Semantics: each test runs `cases` random inputs drawn from a
//! deterministic per-test seed. There is **no shrinking** — a failing
//! case panics with the normal assertion message, and because the seed
//! is derived from the test name, reruns reproduce the same inputs.
//!
//! `PROPTEST_SEED=<u64>` in the environment is mixed into every test's
//! seed, so a run can draw cases no earlier run drew; unset, the seeds
//! are what they always were. A failing test prints
//! `proptest: <test> failed at case <i> (PROPTEST_SEED=<s>)` after the
//! assertion message — rerun with that value to get the same inputs.

#![forbid(unsafe_code)]

use core::ops::{Range, RangeInclusive};

/// Per-run configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The deterministic generator driving strategies.
pub mod test_runner {
    /// SplitMix64-based test RNG, seeded from the test's name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    /// The run's `PROPTEST_SEED`, if one is set.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not a `u64`: a typo must not silently
    /// run the default cases.
    pub fn env_seed() -> Option<u64> {
        let raw = std::env::var("PROPTEST_SEED").ok()?;
        match raw.trim().parse() {
            Ok(seed) => Some(seed),
            Err(_) => panic!("PROPTEST_SEED={raw:?} is not a u64"),
        }
    }

    impl TestRng {
        /// Creates the RNG for the named test: stable across runs, and
        /// redrawn by `PROPTEST_SEED` when that is set.
        pub fn for_test(name: &str) -> Self {
            Self::seeded(name, env_seed())
        }

        /// The RNG for the named test under an explicit run seed
        /// (`None` = the name alone, the seed every run used before
        /// `PROPTEST_SEED` existed).
        pub fn seeded(name: &str, run_seed: Option<u64>) -> Self {
            // FNV-1a over the name gives a stable, well-mixed seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            if let Some(seed) = run_seed {
                // One SplitMix64 step of the run seed, so neighbouring
                // seeds (1, 2, 3, …) land far apart.
                h ^= TestRng { state: seed }.next_u64();
            }
            TestRng { state: h }
        }

        /// Next 64 uniform bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `u64` in `[0, span)`; `span == 0` is the full domain.
        pub fn below(&mut self, span: u64) -> u64 {
            if span == 0 {
                return self.next_u64();
            }
            let threshold = span.wrapping_neg() % span;
            loop {
                let m = (self.next_u64() as u128) * (span as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Says which case of which test failed, and under which run seed:
    /// [`proptest!`](crate::proptest) keeps one alive across a test's
    /// cases, and it speaks up only when dropped by a panic.
    #[derive(Debug)]
    pub struct CaseGuard {
        test: &'static str,
        /// The case being run.
        pub case: u32,
    }

    impl CaseGuard {
        /// A guard for the named test, at case 0.
        pub fn new(test: &'static str) -> Self {
            CaseGuard { test, case: 0 }
        }

        /// The line a failure prints.
        pub fn failure_line(&self, run_seed: Option<u64>) -> String {
            let seed = match run_seed {
                Some(seed) => format!("PROPTEST_SEED={seed}"),
                None => "PROPTEST_SEED unset".to_owned(),
            };
            format!(
                "proptest: {} failed at case {} ({seed})",
                self.test, self.case
            )
        }
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // The seed parsed when the RNG was made, or the panic
                // would have been that one.
                eprintln!("{}", self.failure_line(env_seed()));
            }
        }
    }
}

use test_runner::TestRng;

/// A source of random values of one type.
///
/// This is the generation half of proptest's `Strategy`; shrinking is
/// intentionally absent.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u128).wrapping_sub(lo as u128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                // Hit the endpoints occasionally — boundary cases matter
                // more than the interior.
                match rng.below(64) {
                    0 => lo,
                    1 => hi,
                    _ => lo + (rng.unit_f64() as $t) * (hi - lo),
                }
            }
        }
    )*};
}

impl_float_strategy!(f32, f64);

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy combinators and adapters.
pub mod strategy {
    use super::{test_runner::TestRng, Strategy};

    /// A strategy defined by a generation closure (used by
    /// [`prop_compose!`](crate::prop_compose)).
    pub struct FnStrategy<F>(pub F);

    impl<F> core::fmt::Debug for FnStrategy<F> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("FnStrategy")
        }
    }

    impl<V, F: Fn(&mut TestRng) -> V> Strategy for FnStrategy<F> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice among boxed strategies (see
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

    impl<T> core::fmt::Debug for OneOf<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            write!(f, "OneOf({} strategies)", self.0.len())
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
            let idx = rng.below(self.0.len() as u64) as usize;
            self.0[idx].generate(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{test_runner::TestRng, Strategy};
    use core::ops::Range;

    /// A strategy for `Vec`s with element strategy `element` and a
    /// length drawn from `size`.
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates `Vec<S::Value>` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = Strategy::generate(&self.size, rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a proptest-style test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Chooses uniformly among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![$($crate::strategy::boxed($strat)),+])
    };
}

/// Defines a function returning a composite strategy:
/// `fn name()(binding in strategy, ...) -> Type { body }`.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( $($outer:tt)* ) ( $($pat:pat in $strat:expr),+ $(,)? )
            -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy(move |__rng: &mut $crate::test_runner::TestRng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Declares property tests: each `#[test] fn name(x in strategy, ...)`
/// runs its body over `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            const __NAME: &str = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::test_runner::TestRng::for_test(__NAME);
            let mut __guard = $crate::test_runner::CaseGuard::new(__NAME);
            for __case in 0..__cfg.cases {
                __guard.case = __case;
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        /// A pair with the second element at least the first.
        fn arb_ordered()(lo in 0u32..100, delta in 0u32..50) -> (u32, u32) {
            (lo, lo + delta)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, f in 0.0f64..=1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0u8..niche(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn composed_and_oneof(pair in arb_ordered(), flag in prop_oneof![Just(true), Just(false)]) {
            prop_assert!(pair.0 <= pair.1);
            // `flag` must be one of the two oneof branches (trivially
            // true; exercises bool-typed strategies through the macro).
            prop_assert!(usize::from(flag) <= 1);
        }
    }

    const fn niche() -> u8 {
        200
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Without a run seed the stream is the one the name alone always
    /// gave (first draw of FNV-1a("x") through SplitMix64, pinned); a
    /// run seed redraws it, differently per seed, zero included.
    #[test]
    fn run_seed_redraws_and_its_absence_changes_nothing() {
        use crate::test_runner::TestRng;
        let first = |seed| TestRng::seeded("x", seed).next_u64();
        assert_eq!(first(None), 0x3382_62d8_f096_398f);
        let draws = [first(None), first(Some(0)), first(Some(1)), first(Some(2))];
        for (i, a) in draws.iter().enumerate() {
            for b in &draws[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(first(Some(7)), first(Some(7)));
    }

    #[test]
    fn failure_line_names_test_case_and_seed() {
        let mut guard = crate::test_runner::CaseGuard::new("suite::law");
        guard.case = 41;
        assert_eq!(
            guard.failure_line(Some(12345)),
            "proptest: suite::law failed at case 41 (PROPTEST_SEED=12345)"
        );
        assert_eq!(
            guard.failure_line(None),
            "proptest: suite::law failed at case 41 (PROPTEST_SEED unset)"
        );
    }
}
