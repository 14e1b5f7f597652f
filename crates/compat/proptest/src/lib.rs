//! Minimal stand-in for the `proptest` crate (offline build).
//!
//! Implements the slice of the proptest API this workspace's property
//! tests use: the [`Strategy`] trait with `prop_map` / `prop_flat_map`,
//! range and tuple strategies, [`collection::vec`] /
//! [`collection::btree_set`], [`option::of`], the [`proptest!`] macro with
//! `#![proptest_config(...)]`, and `prop_assert!` / `prop_assert_eq!`.
//!
//! Differences from real proptest, deliberately accepted:
//! * **no shrinking** — a failing case reports its seed and case number
//!   instead of a minimized input;
//! * value generation is purely random (deterministic per test name, or
//!   per `PROPTEST_SEED` if that environment variable is set).

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The RNG driving test-case generation.
pub type TestRng = StdRng;

/// Error raised by `prop_assert!` family macros inside a test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy for a constant (used by `Just`).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategy!(usize, u64, u32, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Collection-size specification: a count, a range, or an inclusive range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self { lo: r.start, hi: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self { lo: *r.start(), hi: *r.end() + 1 }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.random_range(self.lo..self.hi)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::*;

    /// Strategy for `Vec`s of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s of `element` with a *target* size drawn
    /// from `size` (duplicates may yield fewer elements, as in proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // Bounded retries: a small element domain may not contain
            // `target` distinct values at all.
            for _ in 0..target.saturating_mul(8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::*;

    /// Strategy for `Option<T>`: `None` half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.random::<bool>() {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Build the deterministic RNG for one test function. Honours
/// `PROPTEST_SEED` for reproducing an alternative stream.
pub fn test_rng(test_name: &str) -> TestRng {
    let env_seed = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse::<u64>().ok());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(env_seed.unwrap_or(h))
}

pub mod prelude {
    //! Everything a property-test file needs.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Fail the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// The proptest entry macro: wraps each `fn name(bindings in strategies)`
/// in a loop running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = result {
                    panic!(
                        "proptest case {}/{} failed: {} (set PROPTEST_SEED to reproduce \
                         alternative streams; generation is deterministic per test)",
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, Vec<f64>)> {
        (1usize..=4).prop_flat_map(|n| (Just(n), crate::collection::vec(0.0f64..1.0, n..n + 1)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn flat_map_links_sizes((n, v) in pair()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0usize..5, 2..6),
            s in crate::collection::btree_set(0usize..100, 0..=3),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(s.len() <= 3);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::test_rng("x");
        let mut b = crate::test_rng("x");
        let s = 0.0f64..1.0;
        assert_eq!(
            crate::Strategy::generate(&s, &mut a).to_bits(),
            crate::Strategy::generate(&s, &mut b).to_bits()
        );
    }
}
