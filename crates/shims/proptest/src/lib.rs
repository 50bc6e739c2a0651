//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the subset of the
//! proptest API this workspace uses is reimplemented in-tree: the
//! [`Strategy`](strategy::Strategy) trait over ranges, tuples and vectors,
//! `prop_map`, [`prop_oneof!`], and the [`proptest!`] /[`prop_assert!`]
//! family of macros. Cases are generated from a deterministic per-test
//! seed (FNV-1a of the test name), so failures reproduce exactly; there is
//! no shrinking — the failing inputs are reported verbatim instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// How a generated case ended, other than by passing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and is not counted.
    Reject,
    /// An assertion failed with the given message.
    Fail(String),
}

impl TestCaseError {
    /// A failing outcome with a message.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Per-block configuration, set via `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic case generation.
pub mod test_runner {
    use rand::{RngCore, SeedableRng};

    /// The generator handed to strategies while sampling cases.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: rand::rngs::StdRng,
    }

    impl TestRng {
        /// A generator seeded from the test name (FNV-1a), so each test
        /// sees a stable stream across runs.
        pub fn from_test_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                inner: rand::rngs::StdRng::seed_from_u64(h),
            }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform on `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform index in `0..n`.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "below(0)");
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Generates values of an output type from random bits.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { strategy: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Box a strategy for heterogeneous collections ([`prop_oneof!`](crate::prop_oneof)).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// The combinator behind [`Strategy::prop_map`].
    pub struct Map<S, F> {
        strategy: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.strategy.sample(rng))
        }
    }

    /// Uniform choice among boxed strategies — the [`prop_oneof!`](crate::prop_oneof) payload.
    pub struct Union<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// A union over the given arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len());
            self.arms[i].sample(rng)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    impl_int_strategy!(u8, u16, u32, u64, usize, i32, i64);

    /// Always yields a clone of the given value.
    pub struct Just<V>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn sample(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    /// Vectors of a given element strategy and length range.
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    impl<S> VecStrategy<S> {
        pub(crate) fn new(elem: S, lo: usize, hi: usize) -> Self {
            assert!(lo <= hi, "empty length range");
            VecStrategy { elem, lo, hi }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.hi == self.lo {
                self.lo
            } else {
                self.lo + rng.below(self.hi - self.lo + 1)
            };
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::VecStrategy;

    /// Lengths accepted by [`vec()`]: an exact `usize` or a `usize` range.
    pub trait IntoSizeRange {
        /// Inclusive `(lo, hi)` bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// A strategy for `Vec`s whose elements come from `elem` and whose
    /// length is drawn from `size`.
    pub fn vec<S: crate::strategy::Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy::new(elem, lo, hi)
    }
}

/// The glob-import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestRng;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };
}

/// Run a block of property tests.
///
/// Supports the subset of upstream syntax this workspace uses: an optional
/// leading `#![proptest_config(expr)]`, then `#[test] fn name(arg in
/// strategy, ...) { body }` items. Bodies use `prop_assert!` /
/// `prop_assert_eq!` / `prop_assume!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_test_name(stringify!($name));
                let mut __accepted: u32 = 0;
                let mut __attempts: u32 = 0;
                let __max_attempts = __config.cases.saturating_mul(16).max(256);
                while __accepted < __config.cases {
                    __attempts += 1;
                    assert!(
                        __attempts <= __max_attempts,
                        "proptest: too many rejected cases ({__accepted} accepted)",
                    );
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => __accepted += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("proptest case {} failed: {}", __accepted + 1, msg);
                        }
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__left, __right) = (&$a, &$b);
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`",
                __left, __right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$a, &$b);
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__left, __right) = (&$a, &$b);
        if __left == __right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} != {:?}`",
                __left, __right
            )));
        }
    }};
}

/// Reject a case (not counted towards the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0.0..1.0f64, k in 2usize..8) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((2..8).contains(&k));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn vec_and_map_compose(
            v in crate::collection::vec((0.0..10.0f64).prop_map(|x| x * 2.0), 1..5)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            for x in &v {
                prop_assert!((0.0..20.0).contains(x), "out of range: {x}");
            }
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Pick {
        A(usize),
        B(f64),
    }

    proptest! {
        #[test]
        fn oneof_samples_every_arm(
            picks in crate::collection::vec(
                prop_oneof![
                    (0usize..4).prop_map(Pick::A),
                    (0.0..1.0f64).prop_map(Pick::B),
                ],
                64
            )
        ) {
            prop_assert!(picks.iter().any(|p| matches!(p, Pick::A(_))));
            prop_assert!(picks.iter().any(|p| matches!(p, Pick::B(_))));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_test_name("same");
        let mut b = TestRng::from_test_name("same");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
